#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "apps.hpp"
#include "layers.hpp"
#include "native/build.hpp"
#include "native/build_executor.hpp"
#include "native/codegen.hpp"
#include "native/engine.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "support/timer.hpp"
#include "trace.hpp"
#include "vcuda/vcuda.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace kv = kspec::vcuda;
namespace kn = kspec::native;
namespace kl = kspec::launch;
using kspec::WallTimer;

namespace {

constexpr int kSetupReps = 3;  // set-up runs per pass; setup_s is their median
constexpr std::size_t kMaxErrors = 8;
// Launches run their blocks on the client thread. On a 4-core host shared with
// other tenants, block-parallel launches over every core gave apps-warm's
// req_per_s a quartile spread of 0.21 between runs (two workers: a 22% range
// over five runs); serial launches 0.05-0.07.
constexpr kspec::vgpu::ExecPolicy kSerialExec{kspec::vgpu::ExecMode::kSerial, 1};

// Every per-layer metric, in report order, with its unit. Every workload
// reports all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      // Workload-specific request classes (see BENCHMARK.md).
      {"cold_p50_ms", "ms"}, {"cold_p90_ms", "ms"}, {"diskwarm_p50_ms", "ms"},
      {"spec_ready_ms", "ms"}, {"native_ready_ms", "ms"}, {"restart_ready_ms", "ms"},
      {"piv_ms", "ms"}, {"matching_ms", "ms"}, {"backproj_ms", "ms"}, {"rowfilter_ms", "ms"},
      {"fail_ratio", "ratio"},
      // kcc
      {"kcc.compile_ms", "ms"}, {"kcc.preprocess_ms", "ms"}, {"kcc.parse_ms", "ms"},
      {"kcc.sema_ms", "ms"}, {"kcc.unroll_ms", "ms"}, {"kcc.lower_ms", "ms"},
      {"kcc.optimize_ms", "ms"}, {"kcc.regalloc_ms", "ms"}, {"kcc.compiles", "count"},
      {"kcc.static_instrs", "count"}, {"kcc.regs", "count"},
      // vcuda
      {"vcuda.load_miss_ms", "ms"}, {"vcuda.load_write_ms", "ms"}, {"vcuda.load_disk_ms", "ms"},
      {"vcuda.load_hit_ms", "ms"},
      {"vcuda.hits", "count"}, {"vcuda.disk_hits", "count"}, {"vcuda.misses", "count"},
      {"vcuda.hit_ratio", "ratio"}, {"vcuda.kmod_bytes", "bytes"},
      {"tiered.re_served", "count"}, {"tiered.sk_served", "count"},
      {"tiered.specializations", "count"}, {"tiered.re_served_while_compiling", "count"},
      // serve
      {"serve.submitted", "count"}, {"serve.coalesced", "count"}, {"serve.rejected", "count"},
      {"serve.queue_depth_max", "count"}, {"serve.flight_ms", "ms"},
      // vgpu + launch
      {"launch.decoded_ms", "ms"}, {"launch.native_ms", "ms"},
      {"vgpu.launches_decoded", "count"}, {"vgpu.launches_native", "count"},
      {"vgpu.launches_native_shape", "count"}, {"vgpu.native_fallbacks", "count"},
      {"vgpu.warp_instrs", "count"}, {"vgpu.sim_ms", "ms"},
      {"vgpu.ns_per_warp_instr_decoded", "ns"}, {"vgpu.ns_per_warp_instr_native", "ns"},
      // native
      {"native.emit_ms", "ms"}, {"native.tu_bytes", "bytes"}, {"native.cxx_ms", "ms"},
      {"native.probe_ms", "ms"}, {"native.builds", "count"}, {"native.shape_builds", "count"},
      {"native.disk_hits", "count"}, {"native.memory_hits", "count"},
      {"native.fallbacks", "count"}, {"native.shape_evicted", "count"},
      {"native.served_ratio", "ratio"},
      // Self time per layer (ms per request) and the cost of tracing.
      {"self.request_ms", "ms"}, {"self.launch_ms", "ms"}, {"self.vcuda_ms", "ms"},
      {"self.serve_ms", "ms"}, {"self.kcc_ms", "ms"}, {"self.native_ms", "ms"},
      {"trace.spans", "count"}, {"trace.overhead_ms", "ms"},
  };
  return units;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// One pass of a workload: its samples, layer readings and failures.
struct Pass {
  const RunOptions& opts;
  Tracer tracer;
  Ledger& ledger;
  RunResult& result;

  std::vector<double> setup_s;
  std::vector<double> latencies;  // every timed request (req_per_s)
  // When > 0, req_per_s, p50_ms and p90_ms are each the median over windows
  // of this much request time of the window's own value, instead of one
  // value over the whole pass (every request must then be primary).
  double window_ms = 0;
  std::vector<double> primary;    // the requests p50_ms/p90_ms describe
  std::map<std::string, std::vector<double>> classes;  // per app / request class
  std::map<std::string, double> layer;                 // per-layer readings
  std::map<std::string, std::vector<double>> layer_samples;  // medians taken at the end
  std::int64_t next_request = 0;

  Pass(const RunOptions& o, bool traced, Ledger& l, RunResult& r)
      : opts(o), tracer(traced), ledger(l), result(r) {}

  void Fail(const std::string& why) {
    ++result.failed;
    if (result.errors.size() < kMaxErrors) result.errors.push_back(why);
  }
  void Exact(const std::string& key, const std::string& field, const std::string& value) {
    std::string err = ledger.Observe(key, field, value);
    if (!err.empty()) Fail("inexact: " + err);
  }
  void Add(const std::string& name, double v) { layer[name] += v; }
  void Sample(const std::string& name, double v) { layer_samples[name].push_back(v); }

  void Record(double ms, const std::string& cls, bool is_primary = true) {
    latencies.push_back(ms);
    if (is_primary) primary.push_back(ms);
    classes[cls].push_back(ms);
  }

  // A new directory under the work dir, which RunWorkload empties before
  // and after the run (deleting is slow on some disks and must not land in
  // a timed region).
  std::string FreshDir(const std::string& name) const {
    fs::path p = fs::path(opts.work_dir) / ((tracer.enabled() ? "traced-" : "untraced-") + name);
    fs::create_directories(p);
    return p.string();
  }
};

// Checks an app call against its reference and the ledger. Returns true when
// the request succeeded.
bool Verify(Pass& pass, const AppCase& c, const AppOutcome& out, const std::string& exact_key) {
  std::string err = CheckOutcome(c, out);
  if (!err.empty()) {
    pass.Fail(c.id + ": " + err);
    return false;
  }
  const std::uint64_t failed_before = pass.result.failed;
  pass.Exact(exact_key, "sim_ms", ExactDouble(out.sim_ms));
  pass.Exact(exact_key, "warp_instrs", std::to_string(out.warp_instrs));
  pass.Add("vgpu.sim_ms", out.sim_ms);
  pass.Add("vgpu.warp_instrs", static_cast<double>(out.warp_instrs));
  return pass.result.failed == failed_before;
}

struct CacheDelta {
  kv::CacheStats before;
  explicit CacheDelta(const kv::Context& ctx) : before(ctx.cache_stats()) {}
  kv::CacheStats Since(const kv::Context& ctx) const {
    kv::CacheStats now = ctx.cache_stats();
    now.hits -= before.hits;
    now.misses -= before.misses;
    now.disk_hits -= before.disk_hits;
    return now;
  }
};

kv::TierStats TierDelta(const kv::TierStats& a, const kv::TierStats& b) {
  kv::TierStats d;
  d.launches_interp = b.launches_interp - a.launches_interp;
  d.launches_decoded = b.launches_decoded - a.launches_decoded;
  d.launches_native = b.launches_native - a.launches_native;
  d.launches_native_shape = b.launches_native_shape - a.launches_native_shape;
  d.native_fallbacks = b.native_fallbacks - a.native_fallbacks;
  return d;
}

// Folds one served app call's launch timing into the per-tier readings:
// `ms` is the driver call's wall time, attributed to the tier that served
// every launch of the call (mixed calls are not attributed).
void AddTierTiming(Pass& pass, const kv::TierStats& d, double ms, const AppOutcome& out) {
  const double launches = static_cast<double>(d.launches_decoded + d.launches_native);
  if (launches == 0) return;
  if (d.launches_native == 0) {
    pass.Sample("launch.decoded_ms", ms / launches);
    pass.Add("decoded.wall_ms", ms);
    pass.Add("decoded.warp_instrs", static_cast<double>(out.warp_instrs));
  } else if (d.launches_decoded == 0) {
    pass.Sample("launch.native_ms", ms / launches);
    pass.Add("native.wall_ms", ms);
    pass.Add("native.warp_instrs", static_cast<double>(out.warp_instrs));
  }
}

void AddTierCounts(Pass& pass, const kv::TierStats& t) {
  pass.Add("vgpu.launches_decoded", static_cast<double>(t.launches_decoded));
  pass.Add("vgpu.launches_native", static_cast<double>(t.launches_native));
  pass.Add("vgpu.launches_native_shape", static_cast<double>(t.launches_native_shape));
  pass.Add("vgpu.native_fallbacks", static_cast<double>(t.native_fallbacks));
}

void AddCacheCounts(Pass& pass, const kv::CacheStats& s) {
  pass.Add("vcuda.hits", static_cast<double>(s.hits));
  pass.Add("vcuda.disk_hits", static_cast<double>(s.disk_hits));
  pass.Add("vcuda.misses", static_cast<double>(s.misses));
  pass.Add("kcc.compiles", static_cast<double>(s.misses));
}

// Loads one module through the context, timed and classified by the
// context's cache counters.
std::shared_ptr<kv::Module> TimedLoad(Pass& pass, kv::Context& ctx, const ModuleKey& key) {
  CacheDelta delta(ctx);
  Tracer::Scope span(pass.tracer, "vcuda.load");
  WallTimer t;
  auto mod = ctx.LoadModule(key.source, key.opts);
  const double ms = t.ElapsedMillis();
  const kv::CacheStats d = delta.Since(ctx);
  if (d.misses) {
    pass.Sample("vcuda.load_miss_ms", ms);
  } else if (d.disk_hits) {
    pass.Sample("vcuda.load_disk_ms", ms);
  } else {
    pass.Sample("vcuda.load_hit_ms", ms);
  }
  return mod;
}

// The traced pass's per-module layer probes: kcc phases and the native TU,
// outside any request.
void ProbeModule(Pass& pass, const ModuleKey& key, const std::string& device, bool emit) {
  if (!pass.tracer.enabled()) return;
  Tracer::Scope span(pass.tracer, "probe");
  KccProbe p = ProbeKcc(key, pass.tracer);
  if (p.phase_static_instrs != p.static_instrs) {
    pass.Fail("kcc phase functions produced " + std::to_string(p.phase_static_instrs) +
              " instructions, CompileModule " + std::to_string(p.static_instrs));
  }
  pass.Sample("kcc.compile_ms", p.compile_ms);
  pass.Sample("kcc.preprocess_ms", p.preprocess_ms);
  pass.Sample("kcc.parse_ms", p.parse_ms);
  pass.Sample("kcc.sema_ms", p.sema_ms);
  pass.Sample("kcc.unroll_ms", p.unroll_ms);
  pass.Sample("kcc.lower_ms", p.lower_ms);
  pass.Sample("kcc.optimize_ms", p.optimize_ms);
  pass.Sample("kcc.regalloc_ms", p.regalloc_ms);
  pass.Add("kcc.static_instrs", p.static_instrs);
  pass.Add("kcc.regs", p.max_regs);
  if (!emit) return;
  const auto mkey = kspec::kcc::ModuleCacheKey::Make(key.source, key.opts, device);
  std::string tu;
  {
    Tracer::Scope emit_span(pass.tracer, "native.emit");
    WallTimer t;
    tu = kn::EmitModuleSource(p.module, mkey.CanonicalText());
    pass.Sample("native.emit_ms", t.ElapsedMillis());
  }
  pass.Add("native.tu_bytes", static_cast<double>(tu.size()));
  pass.Exact(mkey.FileName(), "tu_bytes", std::to_string(tu.size()));
}

// ---------------------------------------------------------------- apps-warm

// The cycle weights PIV twice so that the median request falls inside one
// app's latency cluster rather than on the edge between two.
constexpr App kWarmCycle[] = {App::kRowfilter, App::kPiv, App::kMatching, App::kPiv,
                              App::kBackproj};

void AppsWarm(Pass& pass) {
  struct Setup {
    std::vector<AppCase> cases;
    std::unique_ptr<kv::Context> ctx;
    std::unique_ptr<kl::StageRunner> runner;
  };
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    WallTimer t;
    Setup fresh;
    for (App app : {App::kPiv, App::kMatching, App::kBackproj, App::kRowfilter}) {
      fresh.cases.push_back(BenchCase(app, pass.opts.seed));
      Prepare(fresh.cases.back(), static_cast<int>(pass.opts.nproc));
    }
    // No cache dir: set-up compiles into memory only, so it writes no files.
    fresh.ctx = std::make_unique<kv::Context>(kspec::vgpu::TeslaC2070());
    fresh.ctx->set_exec_policy(kSerialExec);
    fresh.runner = std::make_unique<kl::StageRunner>(*fresh.ctx);
    for (const AppCase& c : fresh.cases) {
      AppOutcome out = RunApp(*fresh.runner, c);
      if (!CheckOutcome(c, out).empty()) pass.Fail("set-up call of " + c.id + " is wrong");
    }
    pass.setup_s.push_back(t.ElapsedSeconds());
    s = std::move(fresh);
  }
  auto case_for = [&](App app) -> const AppCase& {
    for (const AppCase& c : s.cases) {
      if (c.app == app) return c;
    }
    return s.cases.front();
  };

  const kv::CacheStats cache_before = s.ctx->cache_stats();
  const kv::TierStats tier_before = s.ctx->tier_stats();
  WallTimer run;
  for (std::size_t i = 0; run.ElapsedSeconds() < pass.opts.seconds; ++i) {
    const AppCase& c = case_for(kWarmCycle[i % std::size(kWarmCycle)]);
    const std::int64_t req = pass.next_request++;
    ++pass.result.attempted;
    CacheDelta cache(*s.ctx);
    const kv::TierStats tiers = s.ctx->tier_stats();
    AppOutcome out;
    double ms = 0;
    try {
      Tracer::Scope span(pass.tracer, "request", req, c.id);
      WallTimer t;
      {
        Tracer::Scope app_span(pass.tracer, std::string("launch.") + AppName(c.app));
        out = RunApp(*s.runner, c);
      }
      ms = t.ElapsedMillis();
    } catch (const std::exception& e) {
      pass.Fail(c.id + ": " + e.what());
      continue;
    }
    // The warm guard: a compile inside the timed region is a benchmark
    // failure, never a slow sample.
    const kv::CacheStats d = cache.Since(*s.ctx);
    const kv::TierStats td = TierDelta(tiers, s.ctx->tier_stats());
    if (d.misses != 0 || d.disk_hits != 0 || td.launches_native != 0) {
      pass.Fail(c.id + ": warm request compiled, read disk or ran native");
      continue;
    }
    if (!Verify(pass, c, out, "apps-warm/" + c.exact_key)) continue;
    pass.Record(ms, AppName(c.app));
    AddTierTiming(pass, td, ms, out);
  }
  kv::CacheStats cache = s.ctx->cache_stats();
  cache.hits -= cache_before.hits;
  cache.misses -= cache_before.misses;
  cache.disk_hits -= cache_before.disk_hits;
  AddCacheCounts(pass, cache);
  AddTierCounts(pass, TierDelta(tier_before, s.ctx->tier_stats()));

  // Layer probes on the modules set-up compiled, outside the timed loop.
  if (!pass.tracer.enabled()) return;
  KeyFinder finder(&pass.tracer);
  for (const AppCase& c : s.cases) {
    for (const ModuleKey& key : finder.Find(c)) {
      {
        Tracer::Scope span(pass.tracer, "probe");
        for (int rep = 0; rep < 5; ++rep) TimedLoad(pass, *s.ctx, key);
      }
      ProbeModule(pass, key, s.ctx->device().name, false);
    }
  }
}

// ------------------------------------------------------------- respecialize

// Weights 7:8:1:4 over 20 keys, from the measured cold clusters (row filter
// ~1-2 ms, warp-specialized PIV ~2-3 ms, basic PIV and matching ~3-40 ms,
// backprojection ~40-150 ms): the cold median falls in the middle of the
// warp-specialized PIV cluster (half of the PIV sets) and p90 in the middle of
// the backprojection one, never on the edge between two clusters.
constexpr App kRespecCycle[] = {
    App::kRowfilter, App::kPiv, App::kRowfilter, App::kPiv, App::kBackproj,
    App::kRowfilter, App::kPiv, App::kRowfilter, App::kPiv, App::kBackproj,
    App::kRowfilter, App::kPiv, App::kMatching,  App::kPiv, App::kBackproj,
    App::kRowfilter, App::kPiv, App::kRowfilter, App::kPiv, App::kBackproj};
constexpr std::size_t kRespecPreparedKeys = 40;  // parameter sets prepared in set-up
// Every key leaves one or more fsync'd .kmod files, and deleting such a file
// costs ~55 ms on some disks (ext4 with online discard), so a round serves at
// most this many keys: nine rounds of the cycle (all 72 PIV sets), with 18
// cold requests beyond p90_ms.
constexpr std::size_t kRespecMaxKeys = 180;
// A run serves the keys this many times, each round on fresh contexts, so
// every request is cold or disk-warm again. One round is ~7 s of requests on
// a 4-core host, too short to ride out the host's speed swings: its quartile
// spread between runs was 0.09-0.11 on req_per_s and p50_ms.
constexpr int kRespecRounds = 2;

void Respecialize(Pass& pass) {
  // Every run serves the same parameter sets (a balanced prefix of each
  // app's space) and the seed orders them: letting the seed draw the sets as
  // well moved the cold median by 10-20% between seeds. A parameter set's
  // inputs derive from its parameters alone.
  std::map<App, std::vector<std::size_t>> order;
  for (App app : {App::kPiv, App::kMatching, App::kBackproj, App::kRowfilter}) {
    const std::size_t share = static_cast<std::size_t>(
        std::count(std::begin(kRespecCycle), std::end(kRespecCycle), app));
    const std::vector<std::size_t> pool = BalancedOrder(app, 0);
    const std::size_t n = std::min(pool.size(), kRespecMaxKeys / std::size(kRespecCycle) * share);
    for (std::size_t i : DistinctDraw(MixSeed({pass.opts.seed, 100 + static_cast<std::uint64_t>(app)}), n, n)) {
      order[app].push_back(pool[i]);
    }
  }
  std::map<App, std::size_t> used;
  auto next_case = [&](std::size_t i) -> std::optional<AppCase> {
    const App app = kRespecCycle[i % std::size(kRespecCycle)];
    std::size_t& n = used[app];
    if (n >= order[app].size()) return std::nullopt;
    return SpaceCase(app, order[app][n++]);
  };

  struct Prepared {
    AppCase c;
    std::vector<ModuleKey> keys;
  };
  struct Setup {
    std::unique_ptr<KeyFinder> finder;
    std::unique_ptr<kv::Context> a, b;
    std::unique_ptr<kl::StageRunner> runner_a, runner_b;
    std::vector<Prepared> ready;
    std::string dir;
  };
  // Context A serves the cold requests, compiling into memory. A writer
  // context loads each key again outside the requests, which compiles it once
  // more and writes the .kmod files; B (a "restarted process") serves the
  // disk-warm requests from them. A cold request that wrote its own files
  // would time the fsync on the shared virtual disk, which took 0.3 ms to
  // over 100 ms per 1 MB file and made one run in ten or so 2-4x slower on
  // the big modules (matching and backprojection cold requests slowed 3-10x,
  // their disk-warm requests not at all). The writes are timed apart, as
  // vcuda.load_write_ms.
  auto open_contexts = [&](Setup& s, std::string dir) {
    s.runner_a.reset();
    s.runner_b.reset();
    s.dir = std::move(dir);
    s.a = std::make_unique<kv::Context>(kspec::vgpu::TeslaC2070());
    s.b = std::make_unique<kv::Context>(kspec::vgpu::TeslaC2070());
    s.b->set_cache_dir(s.dir);
    for (kv::Context* ctx : {s.a.get(), s.b.get()}) ctx->set_exec_policy(kSerialExec);
    s.runner_a = std::make_unique<kl::StageRunner>(*s.a);
    s.runner_b = std::make_unique<kl::StageRunner>(*s.b);
  };
  auto prepare = [&](Setup& s, AppCase c) {
    Prepare(c, static_cast<int>(pass.opts.nproc));
    Prepared p{std::move(c), {}};
    p.keys = s.finder->Find(p.c);
    return p;
  };
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    used.clear();
    WallTimer t;
    Setup fresh;
    fresh.finder = std::make_unique<KeyFinder>(&pass.tracer);
    open_contexts(fresh, pass.FreshDir("respecialize-cache-" + std::to_string(rep)));
    for (std::size_t i = 0; i < kRespecPreparedKeys; ++i) {
      if (auto c = next_case(i)) fresh.ready.push_back(prepare(fresh, std::move(*c)));
    }
    pass.setup_s.push_back(t.ElapsedSeconds());
    s = std::move(fresh);
  }

  std::set<std::string> compiled_on_a;  // module artifact names context A compiled
  // One request: explicit loads of the key's modules, then the app call
  // (whose own loads are then memory hits). Returns the latency, or nullopt.
  auto serve = [&](kv::Context& ctx, kl::StageRunner& runner, const Prepared& p,
                   const char* cls, std::vector<std::shared_ptr<kv::Module>>* mods)
      -> std::optional<double> {
    const std::int64_t req = pass.next_request++;
    ++pass.result.attempted;
    CacheDelta cache(ctx);
    const kv::TierStats tiers = ctx.tier_stats();
    AppOutcome out;
    double ms = 0, app_ms = 0;
    try {
      Tracer::Scope span(pass.tracer, "request", req, p.c.id);
      WallTimer t;
      for (const ModuleKey& k : p.keys) {
        auto mod = TimedLoad(pass, ctx, k);
        if (mods) mods->push_back(std::move(mod));
      }
      CacheDelta app_cache(ctx);
      {
        Tracer::Scope app_span(pass.tracer, std::string("launch.") + AppName(p.c.app));
        WallTimer ta;
        out = RunApp(runner, p.c);
        app_ms = ta.ElapsedMillis();
      }
      ms = t.ElapsedMillis();
      const kv::CacheStats da = app_cache.Since(ctx);
      if (da.misses != 0 || da.disk_hits != 0) {
        pass.Fail(p.c.id + ": the app loaded a module key discovery missed");
        return std::nullopt;
      }
    } catch (const std::exception& e) {
      pass.Fail(p.c.id + ": " + e.what());
      return std::nullopt;
    }
    const kv::CacheStats d = cache.Since(ctx);
    AddCacheCounts(pass, d);
    const kv::TierStats td = TierDelta(tiers, ctx.tier_stats());
    AddTierCounts(pass, td);
    if (!Verify(pass, p.c, out, "respecialize/" + p.c.exact_key)) return std::nullopt;
    pass.Exact("respecialize/" + p.c.exact_key, "modules", std::to_string(p.keys.size()));
    // kcc.compiles is exact: a cold request compiles exactly the modules
    // context A has not loaded before, a disk-warm request none.
    std::size_t expect = 0;
    if (mods) {
      for (const ModuleKey& k : p.keys) {
        expect += compiled_on_a
                      .insert(kspec::kcc::ModuleCacheKey::Make(k.source, k.opts,
                                                               ctx.device().name)
                                  .FileName())
                      .second;
      }
    }
    if (d.misses != expect) {
      pass.Fail(p.c.id + ": " + std::to_string(d.misses) + " compiles, expected " +
                std::to_string(expect));
      return std::nullopt;
    }
    AddTierTiming(pass, td, app_ms, out);
    // p50_ms/p90_ms describe the cold requests: mixing in the disk-warm ones
    // would put the median on the edge between two latency clusters.
    pass.Record(ms, cls, mods != nullptr);
    pass.classes[std::string(AppName(p.c.app)) + "/" + cls].push_back(ms);
    return ms;
  };

  auto disk_warm = [&](const Prepared& p) { serve(*s.b, *s.runner_b, p, "diskwarm", nullptr); };

  WallTimer run;
  std::size_t next = s.ready.size();
  for (int round = 0; round < kRespecRounds && run.ElapsedSeconds() < pass.opts.seconds;
       ++round) {
    if (round > 0) {
      // Fresh contexts over the same directory: the first round wrote it.
      open_contexts(s, s.dir);
      compiled_on_a.clear();
    }
    std::optional<Prepared> pending;  // cold-served, waiting for its disk-warm request
    for (std::size_t cursor = 0;
         run.ElapsedSeconds() < pass.opts.seconds && cursor < kRespecMaxKeys; ++cursor) {
      if (cursor == s.ready.size()) {
        if (round > 0) break;  // later rounds repeat the first round's keys
        auto c = next_case(next++);
        if (!c) break;  // the parameter space is exhausted
        s.ready.push_back(prepare(s, std::move(*c)));
      }
      const Prepared& p = s.ready[cursor];
      std::vector<std::shared_ptr<kv::Module>> mods;
      serve(*s.a, *s.runner_a, p, "cold", &mods);
      if (round == 0) {
        // One writer per key, so that its modules do not stay resident.
        kv::Context writer(kspec::vgpu::TeslaC2070());
        writer.set_cache_dir(s.dir);
        for (const ModuleKey& k : p.keys) {
          try {
            Tracer::Scope span(pass.tracer, "vcuda.load");
            WallTimer t;
            writer.LoadModule(k.source, k.opts);
            pass.Sample("vcuda.load_write_ms", t.ElapsedMillis());
          } catch (const std::exception& e) {
            pass.Fail(p.c.id + ": writing its modules failed: " + e.what());
          }
        }
      }
      // Interleave: the previous key's disk-warm request follows this cold one.
      if (pending) disk_warm(*pending);
      pending = p;
      if (round > 0) continue;
      // Layer probes for the new modules, outside the requests.
      for (std::size_t m = 0; m < mods.size() && m < p.keys.size(); ++m) {
        const auto mkey = kspec::kcc::ModuleCacheKey::Make(p.keys[m].source, p.keys[m].opts,
                                                           s.a->device().name);
        std::error_code ec;
        const auto bytes = fs::file_size(fs::path(s.dir) / mkey.FileName(), ec);
        if (!ec) {
          pass.Add("vcuda.kmod_bytes", static_cast<double>(bytes));
          pass.Exact(mkey.FileName(), "kmod_bytes", std::to_string(bytes));
        }
        ProbeModule(pass, p.keys[m], s.a->device().name, true);
      }
    }
    if (pending) disk_warm(*pending);
  }
}

// ------------------------------------------------------------ serve-promote

constexpr double kServeSkew = 0.8;

// The full serving stack over one cache dir, torn down in dependency order.
struct ServeStack {
  std::unique_ptr<kn::NativeEngine> engine;
  std::unique_ptr<kn::NativeBuildExecutor> exec;
  std::unique_ptr<RecordingService> rec;
  std::unique_ptr<kv::Context> ctx;
  std::unique_ptr<kl::StageRunner> runner;

  ServeStack(const std::string& dir, unsigned exec_workers, unsigned pool_workers,
             const Tracer* clock) {
    kn::NativeEngine::Options eo;
    eo.cache_dir = dir;
    engine = std::make_unique<kn::NativeEngine>(eo);
    kspec::serve::ExecutorOptions xo;
    xo.workers = static_cast<int>(exec_workers);
    exec = std::make_unique<kn::NativeBuildExecutor>(engine.get(), xo);
    rec = std::make_unique<RecordingService>(exec.get(), clock);
    ctx = std::make_unique<kv::Context>(kspec::vgpu::TeslaC2070());
    ctx->set_cache_dir(dir);
    ctx->set_async_service(rec.get());
    ctx->set_native_service(engine.get());
    ctx->set_exec_policy({kspec::vgpu::ExecMode::kAuto, pool_workers});
    kl::RunnerOptions ro;
    ro.policy = kl::LoadPolicy::kAsyncPromote;
    runner = std::make_unique<kl::StageRunner>(*ctx, ro);
  }
  ~ServeStack() {
    exec->Shutdown();  // finishes accepted flights, which reference ctx
    runner.reset();
    ctx.reset();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
};

void ServePromote(Pass& pass) {
  // Client + executor workers + exec-pool helpers stay within nproc. The
  // executor gets every core but the client's, whose launches then run on a
  // pool of one: promotion finishes sooner than with the cores split evenly,
  // which keeps RE-served requests near 4% of the stream and p90 clear of
  // the RE cluster's edge (an even split left it there, moving p90 by 20%).
  const unsigned exec_workers = std::max(1u, pass.opts.nproc - 1);
  const unsigned pool_workers = std::max(1u, pass.opts.nproc - exec_workers);
  // How many requests run on the RE build, and share the CPU with host C++
  // builds, depends on how fast those builds finish; over the whole pass that
  // share swung req_per_s by a quarter and p90_ms by a fifth between runs.
  // Medians over 1 s windows give the sustained service, which the promotion
  // delay does not move (spec_ready_ms and native_ready_ms report that delay).
  pass.window_ms = 1000;

  // The host toolchain probe runs once per process: time the first call and
  // report that in every pass.
  static const double probe_ms = [] {
    WallTimer t;
    kn::HostCompiler();
    return t.ElapsedMillis();
  }();
  pass.Sample("native.probe_ms", probe_ms);
  if (!kn::ToolchainAvailable()) {
    pass.Fail("no host C++ toolchain: the native tier cannot serve");
    return;
  }

  struct Setup {
    std::vector<AppCase> keys;  // by skew rank: rank 0 is the hottest
    std::vector<std::size_t> stream;
  };
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    WallTimer t;
    Setup fresh;
    fresh.keys = ServeKeySet();
    for (AppCase& c : fresh.keys) Prepare(c, static_cast<int>(pass.opts.nproc));
    fresh.stream = SkewedStream(MixSeed({pass.opts.seed, 203}), fresh.keys.size(), 1u << 20,
                                kServeSkew);
    {
      // The stack's own set-up: engine, executor, context, runner.
      ServeStack stack(pass.FreshDir("serve-setup-" + std::to_string(rep)), exec_workers,
                       pool_workers, &pass.tracer);
    }
    pass.setup_s.push_back(t.ElapsedSeconds());
    s = std::move(fresh);
  }

  const std::string dir = pass.FreshDir("serve-cache");
  const std::size_t n_keys = s.keys.size();
  std::size_t pos = 0;  // position in the stream, continued across the restart
  std::set<std::string> probed;     // SK modules submitted for promotion
  std::vector<ModuleKey> sk_modules;  // the same, in submission order

  struct Flight {
    std::string key;
    double at_us;
    kv::ModuleFuture future;
  };
  std::vector<Flight> flights;
  auto reap_flights = [&](bool wait) {
    for (auto it = flights.begin(); it != flights.end();) {
      if (wait) it->future.wait();
      if (it->future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      const double end = pass.tracer.NowUs();
      pass.Sample("serve.flight_ms", (end - it->at_us) / 1000.0);
      pass.tracer.AddObserved("serve.flight", it->at_us, end, it->key, 1);
      it = flights.erase(it);
    }
  };

  // Readiness per key, in ms from the key's first request of the phase.
  struct PhaseResult {
    std::vector<double> spec_ready, native_ready, first_ms;
  };
  auto phase = [&](ServeStack& st, double min_s, double max_s, bool cold) {
    PhaseResult r;
    std::vector<double> first(n_keys, -1), spec(n_keys, -1), nat(n_keys, -1);
    std::size_t native_keys = 0;
    WallTimer clock;
    while (clock.ElapsedSeconds() < max_s &&
           (clock.ElapsedSeconds() < min_s || native_keys < n_keys)) {
      const std::size_t k = s.stream[pos++ % s.stream.size()];
      const AppCase& c = s.keys[k];
      const std::int64_t req = pass.next_request++;
      ++pass.result.attempted;
      const kv::TierStats tiers = st.ctx->tier_stats();
      const auto tiered = st.runner->tiered_stats();
      const double start_ms = clock.ElapsedMillis();
      AppOutcome out;
      double ms = 0;
      try {
        Tracer::Scope span(pass.tracer, "request", req, c.id);
        WallTimer t;
        {
          Tracer::Scope app_span(pass.tracer, std::string("launch.") + AppName(c.app));
          out = RunApp(*st.runner, c);
        }
        ms = t.ElapsedMillis();
      } catch (const std::exception& e) {
        pass.Fail(c.id + ": " + e.what());
        continue;
      }
      const kv::TierStats td = TierDelta(tiers, st.ctx->tier_stats());
      const bool sk = st.runner->tiered_stats().sk_served > tiered.sk_served;
      for (auto& sub : st.rec->Take()) {
        const auto mkey =
            kspec::kcc::ModuleCacheKey::Make(sub.req.source, sub.req.opts, st.ctx->device().name);
        if (sub.future.valid()) flights.push_back({mkey.FileName(), sub.at_us, sub.future});
        if (probed.insert(mkey.FileName()).second) {
          const ModuleKey key{sub.req.source, sub.req.opts};
          sk_modules.push_back(key);
          ProbeModule(pass, key, st.ctx->device().name, true);
        }
      }
      reap_flights(false);
      // The RE and SK builds differ in their exact quantities; the SK build
      // must agree with itself on every tier that serves it.
      if (!Verify(pass, c, out, "serve-promote/" + c.exact_key + (sk ? "/sk" : "/re"))) continue;
      pass.Record(ms, AppName(c.app));
      pass.classes[std::string(AppName(c.app)) + "/" +
                   (!sk                               ? "re"
                    : td.launches_native_shape > 0    ? "native-shape"
                    : td.launches_native > 0          ? "native"
                                                      : "sk-decoded")]
          .push_back(ms);
      AddTierTiming(pass, td, ms, out);
      if (first[k] < 0) {
        first[k] = start_ms;
        if (!cold) r.first_ms.push_back(ms);
      }
      const double since_first = start_ms + ms - first[k];
      if (sk && spec[k] < 0) spec[k] = since_first;
      if (td.launches_native > 0 && nat[k] < 0) {
        nat[k] = since_first;
        ++native_keys;
      }
    }
    for (std::size_t k = 0; k < n_keys; ++k) {
      if (spec[k] >= 0) r.spec_ready.push_back(spec[k]);
      if (nat[k] >= 0) r.native_ready.push_back(nat[k]);
    }
    if (r.native_ready.size() * 2 <= n_keys) {
      pass.Fail(std::string(cold ? "cold" : "restart") + " phase: only " +
                std::to_string(r.native_ready.size()) + " of " + std::to_string(n_keys) +
                " keys reached the native tier");
    }
    return r;
  };

  auto fold_stack = [&](ServeStack& st) {
    reap_flights(true);
    st.exec->Drain();
    const auto sv = st.exec->stats();
    pass.Add("serve.submitted", static_cast<double>(sv.submitted));
    pass.Add("serve.coalesced", static_cast<double>(sv.coalesced));
    pass.Add("serve.rejected", static_cast<double>(sv.rejected));
    pass.layer["serve.queue_depth_max"] =
        std::max(pass.layer["serve.queue_depth_max"], static_cast<double>(sv.queue_depth_high_water));
    const auto ts = st.runner->tiered_stats();
    pass.Add("tiered.re_served", static_cast<double>(ts.re_served));
    pass.Add("tiered.sk_served", static_cast<double>(ts.sk_served));
    pass.Add("tiered.specializations", static_cast<double>(ts.specializations));
    pass.Add("tiered.re_served_while_compiling", static_cast<double>(ts.re_served_while_compiling));
    const auto ns = st.engine->stats();
    pass.Add("native.builds", static_cast<double>(ns.builds_completed));
    pass.Add("native.shape_builds", static_cast<double>(ns.shape_builds_completed));
    pass.Add("native.disk_hits", static_cast<double>(ns.disk_hits + ns.shape_disk_hits));
    pass.Add("native.memory_hits", static_cast<double>(ns.memory_hits + ns.shape_memory_hits));
    pass.Add("native.fallbacks", static_cast<double>(ns.fallbacks));
    pass.Add("native.shape_evicted", static_cast<double>(ns.shape_evicted));
    AddTierCounts(pass, st.ctx->tier_stats());
    AddCacheCounts(pass, st.ctx->cache_stats());
  };

  const double cold_max = 0.6 * pass.opts.seconds;
  double cold_elapsed = 0;
  {
    ServeStack st(dir, exec_workers, pool_workers, &pass.tracer);
    WallTimer t;
    PhaseResult r = phase(st, 0.4 * pass.opts.seconds, cold_max, true);
    cold_elapsed = t.ElapsedSeconds();
    pass.layer["spec_ready_ms"] = Median(r.spec_ready);
    pass.layer["native_ready_ms"] = Median(r.native_ready);
    fold_stack(st);
  }
  {
    // The restart: a fresh engine, executor, context and runner over the
    // same cache directory.
    ServeStack st(dir, exec_workers, pool_workers, &pass.tracer);
    const double rest = std::max(pass.opts.seconds - cold_elapsed, 0.3 * pass.opts.seconds);
    PhaseResult r = phase(st, rest, rest, false);
    pass.layer["restart_ready_ms"] = Median(r.native_ready);
    pass.layer["diskwarm_p50_ms"] = Median(r.first_ms);
    fold_stack(st);
    if (pass.tracer.enabled()) {
      // Host C++ build time of the first two promoted SK modules, outside
      // requests (the engine builds its own copies inside flights).
      for (std::size_t m = 0; m < 2 && m < sk_modules.size(); ++m) {
        Tracer::Scope span(pass.tracer, "probe");
        const ModuleKey& key = sk_modules[m];
        const auto mkey =
            kspec::kcc::ModuleCacheKey::Make(key.source, key.opts, st.ctx->device().name);
        const std::string tu = kn::EmitModuleSource(
            kspec::kcc::CompileModule(key.source, key.opts), mkey.CanonicalText());
        Tracer::Scope cxx_span(pass.tracer, "native.cxx");
        WallTimer t;
        std::string error;
        if (kn::CompileSharedObject(tu, &error).empty()) pass.Fail("host C++ build failed: " + error);
        pass.Sample("native.cxx_ms", t.ElapsedMillis());
      }
    }
  }
  const double served = pass.layer["vgpu.launches_native"] + pass.layer["vgpu.launches_decoded"];
  pass.layer["native.served_ratio"] = served > 0 ? pass.layer["vgpu.launches_native"] / served : 0;
}

// --------------------------------------------------------------- reporting

void Report(Pass& pass, std::vector<Metric>* e2e, std::vector<Metric>* per_layer) {
  const std::size_t n = pass.latencies.size();
  for (const auto& [name, samples] : pass.classes) {
    std::printf("  class %-22s n=%-6zu p50=%.3f ms\n", name.c_str(), samples.size(),
                Median(samples));
  }
  // The whole pass is one window unless the workload asks for windows.
  std::vector<std::vector<double>> all{pass.latencies}, primary{pass.primary};
  if (pass.window_ms > 0) all = primary = SplitWindows(pass.latencies, pass.window_ms);
  std::vector<double> rates, p50s, p90s;
  for (const auto& w : all) rates.push_back(Rate(w));
  for (const auto& w : primary) {
    p50s.push_back(Median(w));
    if (HasTailSupport(w.size(), 90)) p90s.push_back(Percentile(w, 90));
  }
  if (pass.window_ms > 0) {
    std::printf("  window rates (1/s): n=%zu p10=%.1f p50=%.1f p90=%.1f\n", rates.size(),
                Percentile(rates, 10), Median(rates), Percentile(rates, 90));
  }
  std::printf("  set-up runs (s):");
  for (double v : pass.setup_s) std::printf(" %.3f", v);
  std::printf("\n");
  if (e2e) {
    e2e->push_back({"setup_s", Median(pass.setup_s), "s"});
    e2e->push_back({"req_per_s", Median(rates), "1/s"});
    e2e->push_back({"p50_ms", Median(p50s), "ms"});
    if (!p90s.empty()) {
      e2e->push_back({"p90_ms", Median(p90s), "ms"});
    } else {
      pass.result.errors.push_back("fewer than 100 requests: p90_ms has no support");
    }
    e2e->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  }
  if (!per_layer) return;

  auto& L = pass.layer;
  // Request-class medians, for the workloads that have the class.
  auto from_class = [&](const std::string& metric, const std::string& cls, double p) {
    auto it = pass.classes.find(cls);
    if (it != pass.classes.end() && (p <= 50 || HasTailSupport(it->second.size(), p))) {
      L[metric] = Percentile(it->second, p);
    }
  };
  from_class("cold_p50_ms", "cold", 50);
  from_class("cold_p90_ms", "cold", 90);
  from_class("diskwarm_p50_ms", "diskwarm", 50);
  for (App app : {App::kPiv, App::kMatching, App::kBackproj, App::kRowfilter}) {
    from_class(std::string(AppName(app)) + "_ms", AppName(app), 50);
  }
  for (const auto& [name, samples] : pass.layer_samples) L[name] = Median(samples);
  const double attempted = static_cast<double>(pass.result.attempted);
  L["fail_ratio"] = attempted > 0 ? static_cast<double>(pass.result.failed) / attempted : 0;
  const double loads = L["vcuda.hits"] + L["vcuda.disk_hits"] + L["vcuda.misses"];
  L["vcuda.hit_ratio"] = loads > 0 ? L["vcuda.hits"] / loads : 0;
  auto per = [](double num, double den, double scale) { return den > 0 ? scale * num / den : 0; };
  L["vgpu.ns_per_warp_instr_decoded"] = per(L["decoded.wall_ms"], L["decoded.warp_instrs"], 1e6);
  L["vgpu.ns_per_warp_instr_native"] = per(L["native.wall_ms"], L["native.warp_instrs"], 1e6);

  const auto spans = pass.tracer.spans();
  L["trace.spans"] = static_cast<double>(spans.size());
  if (!spans.empty() && n > 0) {
    const auto self = SelfTimesMs(spans);
    for (const SpanRecord& sp : spans) {
      const std::string key = "self." + LayerOf(sp.name) + "_ms";
      L[key] += self.at(sp.id) / static_cast<double>(n);
    }
  }
  for (const auto& [name, unit] : LayerMetricUnits()) {
    per_layer->push_back({name, L.count(name) ? L[name] : 0.0, unit});
  }
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "apps-warm" || name == "respecialize" || name == "serve-promote";
}

RunResult RunWorkload(const RunOptions& opts) {
  RunResult result;
  Ledger ledger(opts.ledger_path);
  std::error_code ec;
  fs::remove_all(opts.work_dir, ec);
  auto run_pass = [&](Pass& pass) {
    if (opts.workload == "apps-warm") AppsWarm(pass);
    if (opts.workload == "respecialize") Respecialize(pass);
    if (opts.workload == "serve-promote") ServePromote(pass);
  };
  Pass untraced(opts, false, ledger, result);
  run_pass(untraced);
  Report(untraced, &result.end_to_end, nullptr);
  if (opts.trace) {
    Pass traced(opts, true, ledger, result);
    run_pass(traced);
    Report(traced, nullptr, &result.per_layer);
    const double overhead = Median(traced.latencies) - Median(untraced.latencies);
    for (Metric& m : result.per_layer) {
      if (m.name == "trace.overhead_ms") m.value = overhead;
    }
    traced.tracer.WriteChromeTrace(opts.trace_path);
  }
  if (!ledger.Save()) result.errors.push_back("could not save the exact-quantity ledger");
  fs::remove_all(opts.work_dir, ec);
  return result;
}

}  // namespace perfbench
