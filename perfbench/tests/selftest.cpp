// Self-test of the benchmark's own logic: order statistics, span self time,
// and seeded stream determinism. Plain checks, exit status 1 on any failure.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "apps.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  using perfbench::Percentile;
  // Linear interpolation between closest ranks on an unsorted sample.
  const std::vector<double> v = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  Check(Near(Percentile(v, 50), 5.5), "p50 of 1..10 is 5.5");
  Check(Near(Percentile(v, 90), 9.1), "p90 of 1..10 is 9.1");
  Check(Near(Percentile(v, 25), 3.25), "p25 of 1..10 is 3.25");
  Check(Near(Percentile(v, 0), 1) && Near(Percentile(v, 100), 10), "p0/p100 are min/max");
  Check(Near(Percentile({4.5}, 90), 4.5), "one sample is every percentile");
  Check(Near(Percentile({}, 50), 0), "an empty sample reads 0");
  Check(Near(perfbench::Median({3, 1, 2}), 2), "median of an odd sample");

  // A tail percentile needs ten samples beyond it.
  Check(perfbench::HasTailSupport(100, 90), "p90 of 100 samples has support");
  Check(!perfbench::HasTailSupport(99, 90), "p90 of 99 samples has none");
  Check(perfbench::HasTailSupport(1000, 99) && !perfbench::HasTailSupport(999, 99),
        "p99 needs 1000 samples");

  // Windows close once their latencies reach window_ms.
  using perfbench::SplitWindows;
  const auto windows = SplitWindows({400, 600, 100, 100, 800, 50}, 1000);
  Check(windows.size() == 2 && windows[0].size() == 2 && windows[1].size() == 3,
        "two full windows; the trailing partial one is dropped");
  Check(Near(perfbench::Rate(windows[0]), 2) && Near(perfbench::Rate(windows[1]), 3),
        "a window's rate is its requests per second of request time");
  const auto partial = SplitWindows({100, 150}, 1000);
  Check(partial.size() == 1 && Near(perfbench::Rate(partial[0]), 8), "a lone partial window counts");
  Check(SplitWindows({}, 1000).empty() && Near(perfbench::Rate({}), 0), "no requests, no windows");
}

void TestSelfTime() {
  using perfbench::SpanRecord;
  // Parent [0, 100] us; children [10, 30] and [20, 50] overlap (covering
  // [10, 50]); [90, 120] runs past the parent's end and counts up to 100.
  std::vector<SpanRecord> spans(5);
  spans[0] = {1, 0, "request", 0, 100, 0, "", 0};
  spans[1] = {2, 1, "vcuda.load", 10, 30, 0, "", 0};
  spans[2] = {3, 1, "launch.piv", 20, 50, 0, "", 0};
  spans[3] = {4, 1, "kcc.compile", 90, 120, 0, "", 0};
  spans[4] = {5, 3, "native.emit", 25, 45, 0, "", 0};  // grandchild: not the parent's
  const auto self = perfbench::SelfTimesMs(spans);
  Check(Near(self.at(1), 0.050), "parent self time subtracts the union of its children");
  Check(Near(self.at(2), 0.020), "a leaf's self time is its duration");
  Check(Near(self.at(3), 0.010), "a child's own child is subtracted from it");
  Check(Near(self.at(4), 0.030), "a span's self time ignores its parent's bounds");
  Check(perfbench::LayerOf("vcuda.load") == "vcuda" && perfbench::LayerOf("probe") == "probe",
        "layer is the name up to the first dot");
}

void TestTracer() {
  perfbench::Tracer off(false);
  { perfbench::Tracer::Scope s(off, "request", 1, "k"); }
  Check(off.spans().empty(), "a disabled tracer records nothing");

  perfbench::Tracer on(true);
  {
    perfbench::Tracer::Scope req(on, "request", 7, "key-a");
    perfbench::Tracer::Scope load(on, "vcuda.load");
  }
  const auto spans = on.spans();
  Check(spans.size() == 2, "two scopes, two spans");
  if (spans.size() == 2) {
    const auto& child = spans[0];  // inner scope closes first
    const auto& parent = spans[1];
    Check(child.parent == parent.id && parent.parent == 0, "scopes nest per thread");
    Check(child.request == 7 && child.key == "key-a", "children inherit request and key");
    Check(child.start_us >= parent.start_us && child.end_us <= parent.end_us,
          "a child lies within its parent");
  }
}

void TestStreams() {
  using perfbench::DistinctDraw;
  using perfbench::SkewedStream;
  Check(perfbench::SplitMix64(0).Next() == 0xe220a8397b1dcdafull,
        "SplitMix64 matches its reference output");

  const auto a = DistinctDraw(42, 100, 30);
  Check(a == DistinctDraw(42, 100, 30), "the same seed draws the same keys");
  Check(a != DistinctDraw(43, 100, 30), "another seed draws other keys");
  Check(std::set<std::size_t>(a.begin(), a.end()).size() == 30, "drawn keys are distinct");
  bool in_range = true;
  for (std::size_t i : a) in_range = in_range && i < 100;
  Check(in_range, "drawn keys lie in the space");
  const auto all = DistinctDraw(5, 10, 50);
  Check(all.size() == 10 && std::set<std::size_t>(all.begin(), all.end()).size() == 10,
        "a draw larger than the space is a permutation of it");

  const auto s = SkewedStream(9, 8, 20000, 0.8);
  Check(s == SkewedStream(9, 8, 20000, 0.8), "the same seed yields the same stream");
  Check(s != SkewedStream(10, 8, 20000, 0.8), "another seed yields another stream");
  std::vector<std::size_t> counts(8);
  for (std::size_t k : s) ++counts.at(k);
  Check(counts[0] > counts[3] && counts[3] > counts[7] && counts[7] > 0,
        "the stream is skewed toward low ranks and reaches every key");
}

void TestKeySets() {
  using perfbench::App;
  // A seed fixes the parameter sets, and a parameter set fixes its inputs.
  for (App app : {App::kPiv, App::kMatching, App::kBackproj, App::kRowfilter}) {
    const auto order = perfbench::DistinctDraw(77, perfbench::SpaceSize(app), 12);
    for (std::size_t i : order) {
      const perfbench::AppCase x = perfbench::SpaceCase(app, i);
      const perfbench::AppCase y = perfbench::SpaceCase(app, i);
      Check(x.id == y.id, "a parameter set has one identity");
      Check(x.piv.frame_a == y.piv.frame_a && x.match.roi == y.match.roi &&
                x.bp.projections == y.bp.projections && x.img.data == y.img.data,
            "a parameter set has one input");
    }
    std::set<std::string> ids;
    for (std::size_t i = 0; i < perfbench::SpaceSize(app); ++i) {
      ids.insert(perfbench::SpaceCase(app, i).id);
    }
    Check(ids.size() == perfbench::SpaceSize(app), "every parameter set is distinct");
  }
  for (App app : {App::kPiv, App::kMatching, App::kBackproj, App::kRowfilter}) {
    const auto order = perfbench::BalancedOrder(app, 11);
    Check(order == perfbench::BalancedOrder(app, 11), "the same seed orders the space alike");
    Check(order != perfbench::BalancedOrder(app, 12), "another seed orders it otherwise");
    Check(order.size() == perfbench::SpaceSize(app) &&
              std::set<std::size_t>(order.begin(), order.end()).size() == order.size(),
          "the balanced order visits every parameter set once");
  }
  const auto keys = perfbench::ServeKeySet();
  bool alternating = keys.size() == 8;
  for (std::size_t i = 0; alternating && i < keys.size(); ++i) {
    alternating = keys[i].app == (i % 2 == 0 ? App::kPiv : App::kRowfilter);
  }
  Check(alternating, "the serving key set ranks PIV and row-filter sets alternately");
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestTracer();
  TestStreams();
  TestKeySets();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
