#include "apps.hpp"

#include <cmath>

#include "stream.hpp"
#include "support/serialize.hpp"
#include "support/str.hpp"

namespace perfbench {

using kspec::Format;

const char* AppName(App app) {
  switch (app) {
    case App::kPiv: return "piv";
    case App::kMatching: return "matching";
    case App::kBackproj: return "backproj";
    case App::kRowfilter: return "rowfilter";
  }
  return "?";
}

namespace {

template <typename T>
void HashBytes(std::vector<unsigned char>& buf, const T* data, std::size_t count) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  buf.insert(buf.end(), bytes, bytes + count * sizeof(T));
}

template <typename T>
void HashValue(std::vector<unsigned char>& buf, const T& v) {
  HashBytes(buf, &v, 1);
}

}  // namespace

void Prepare(AppCase& c, int cpu_threads) {
  // FNV-1a over every input the driver call reads.
  std::vector<unsigned char> h;
  HashBytes(h, c.id.data(), c.id.size());
  switch (c.app) {
    case App::kPiv:
      HashBytes(h, c.piv.frame_a.data(), c.piv.frame_a.size());
      HashBytes(h, c.piv.frame_b.data(), c.piv.frame_b.size());
      HashValue(h, c.piv.img_w);
      HashValue(h, c.piv.img_h);
      HashValue(h, c.piv.stride_x);
      break;
    case App::kMatching:
      HashBytes(h, c.match.roi.data(), c.match.roi.size());
      HashBytes(h, c.match.tpl.data(), c.match.tpl.size());
      break;
    case App::kBackproj:
      HashBytes(h, c.bp.projections.data(), c.bp.projections.size());
      HashValue(h, c.bp.geo.vol_n);
      HashValue(h, c.bp.geo.det_u);
      HashValue(h, c.bp.geo.det_v);
      break;
    case App::kRowfilter:
      HashBytes(h, c.img.data.data(), c.img.data.size());
      HashValue(h, c.img.w);
      break;
  }
  c.exact_key = Format("%s#%016llx", c.id.c_str(),
                       static_cast<unsigned long long>(kspec::Fnv1aBytes(h.data(), h.size())));
  switch (c.app) {
    case App::kPiv: c.piv_ref = kapps::piv::CpuPiv(c.piv, cpu_threads); break;
    case App::kMatching: c.match_ref = kapps::matching::CpuMatch(c.match, cpu_threads); break;
    case App::kBackproj: c.bp_ref = kapps::backproj::CpuBackproject(c.bp, cpu_threads); break;
    case App::kRowfilter: c.rf_ref = kapps::rowfilter::CpuRowFilter(c.img, c.filter); break;
  }
}

namespace {

// Sums a call's launches from its per-stage records. Every case this
// benchmark builds launches each stage exactly once (matching templates are
// whole multiples of the tile), so the stage records cover every launch;
// RunApp checks that.
void FoldBreakdown(AppOutcome& out) {
  const auto& bd = out.breakdown;
  out.launches = bd.launches_interp + bd.launches_decoded + bd.launches_native;
  out.sim_ms = bd.sim_millis;
  for (const auto& stage : bd.stages) out.warp_instrs += stage.launch.warp_instrs;
}

}  // namespace

AppOutcome RunApp(kspec::launch::StageRunner& runner, const AppCase& c) {
  AppOutcome out;
  switch (c.app) {
    case App::kPiv: {
      auto r = kapps::piv::GpuPiv(runner, c.piv, c.piv_cfg);
      out.values = std::move(r.field.best_score);
      out.indices = std::move(r.field.best_offset);
      out.breakdown = std::move(r.breakdown);
      break;
    }
    case App::kMatching: {
      auto r = kapps::matching::GpuMatch(runner, c.match, c.match_cfg);
      out.values = std::move(r.scores);
      out.indices = {r.best_idx};
      out.breakdown = std::move(r.breakdown);
      break;
    }
    case App::kBackproj: {
      auto r = kapps::backproj::GpuBackproject(runner, c.bp, c.bp_cfg);
      out.values = std::move(r.volume);
      out.breakdown = std::move(r.breakdown);
      break;
    }
    case App::kRowfilter: {
      auto r = kapps::rowfilter::GpuRowFilter(runner, c.img, c.filter, c.rf_cfg);
      out.values = std::move(r.out);
      out.breakdown = std::move(r.breakdown);
      break;
    }
  }
  FoldBreakdown(out);
  return out;
}

namespace {

// |got - want| <= abs_tol + rel_tol * |scale| element-wise.
std::string CompareFloats(const std::vector<float>& got, const std::vector<float>& want,
                          float abs_tol, float rel_tol, bool scale_by_want) {
  if (got.size() != want.size()) {
    return Format("output has %zu values, reference %zu", got.size(), want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float scale = std::fabs(scale_by_want ? want[i] : got[i]);
    if (!(std::fabs(got[i] - want[i]) <= abs_tol + rel_tol * scale)) {
      return Format("value %zu is %.7g, reference %.7g", i, got[i], want[i]);
    }
  }
  return {};
}

}  // namespace

std::string CheckOutcome(const AppCase& c, const AppOutcome& out) {
  if (out.launches != out.breakdown.stages.size()) {
    return Format("%zu launches over %zu stages: warp_instrs would be partial", out.launches,
                  out.breakdown.stages.size());
  }
  switch (c.app) {
    case App::kPiv:
      // test_piv: offsets exact, scores within 1e-3 * (1 + cpu).
      if (out.indices != c.piv_ref.best_offset) return "PIV best offsets differ from the CPU";
      return CompareFloats(out.values, c.piv_ref.best_score, 1e-3f, 1e-3f, true);
    case App::kMatching:
      // test_matching: scores within 2e-3, same peak.
      if (out.indices.empty() || out.indices[0] != c.match_ref.best_idx) {
        return "matching peak differs from the CPU";
      }
      return CompareFloats(out.values, c.match_ref.scores, 2e-3f, 0, false);
    case App::kBackproj:
      // test_backproj: voxels within 1e-4 * (1 + |v|).
      return CompareFloats(out.values, c.bp_ref.volume, 1e-4f, 1e-4f, false);
    case App::kRowfilter:
      // test_rowfilter: pixels within 1e-4 * (1 + |v|).
      return CompareFloats(out.values, c.rf_ref, 1e-4f, 1e-4f, false);
  }
  return "unknown app";
}

AppCase BenchCase(App app, std::uint64_t seed) {
  const std::uint64_t data_seed = MixSeed({seed, static_cast<std::uint64_t>(app)});
  AppCase c;
  c.app = app;
  c.id = std::string("bench/") + AppName(app);
  switch (app) {
    case App::kPiv:
      c.piv = kapps::piv::Generate("bench", 192, 16, 4, 12, data_seed);
      c.piv_cfg.variant = kapps::piv::Variant::kWarpSpec;
      c.piv_cfg.threads = 64;
      break;
    case App::kMatching:
      c.match = kapps::matching::Generate("bench", 32, 24, 32, 32, data_seed);
      break;
    case App::kBackproj: {
      kapps::backproj::Geometry g;
      g.vol_n = 64;
      g.vol_z = 12;
      g.det_u = 32;
      g.det_v = 24;
      g.n_angles = 12;
      c.bp = kapps::backproj::Generate("bench", g, 3, data_seed);
      break;
    }
    case App::kRowfilter:
      c.img = kapps::rowfilter::MakeTestImage(512, 192, data_seed);
      c.filter = kapps::rowfilter::BoxFilter(9);
      break;
  }
  return c;
}

namespace {

// Mixed-radix decoding of a parameter-set index.
struct Radix {
  std::size_t index;
  int Take(std::size_t n) {
    const int digit = static_cast<int>(index % n);
    index /= n;
    return digit;
  }
};

constexpr int kPivMasks[] = {8, 10, 12, 14};
constexpr int kPivRanges[] = {2, 3, 4};
constexpr int kThreads[] = {32, 64, 128};
constexpr kapps::piv::Variant kPivVariants[] = {kapps::piv::Variant::kBasic,
                                                kapps::piv::Variant::kWarpSpec};
constexpr int kMatchTiles[] = {4, 8};
constexpr int kMatchShifts[] = {8, 12, 16};
constexpr int kBpAngles[] = {8, 12, 16, 20, 24, 28};
constexpr int kBpDepths[] = {8, 16};
constexpr kapps::rowfilter::Border kBorders[] = {kapps::rowfilter::Border::kClamp,
                                                 kapps::rowfilter::Border::kReflect,
                                                 kapps::rowfilter::Border::kWrap};

// Each space is major x minor. The major digits are the parameters that set
// a key's compile cost (what the kernel unrolls: PIV variant, search range
// and mask; matching tile and template; backprojection angles, z blocking
// and depth; filter border and length band); the minor digits barely move
// it (block size, shift grid, filter length within its band).
// index = major + MajorCount * minor.
std::size_t MajorCount(App app) {
  switch (app) {
    case App::kPiv: return 2 * 3 * 4;        // variant, range, mask
    case App::kMatching: return 2 * 3 * 2;   // tile, template height, width
    case App::kBackproj: return 6 * 2 * 2;   // angles, zpt, depth
    case App::kRowfilter: return 3 * 8;      // border, ksize band of 4
  }
  return 1;
}

}  // namespace

std::size_t SpaceSize(App app) {
  switch (app) {
    case App::kPiv: return MajorCount(app) * 3;           // threads
    case App::kMatching: return MajorCount(app) * 3 * 3 * 2;  // shifts, threads
    case App::kBackproj: return MajorCount(app) * 2;      // threads
    case App::kRowfilter: return MajorCount(app) * 4;     // ksize within the band
  }
  return 0;
}

AppCase SpaceCase(App app, std::size_t index) {
  AppCase c;
  c.app = app;
  Radix r{index};
  switch (app) {
    case App::kPiv: {
      const auto variant = kPivVariants[r.Take(2)];
      const int range = kPivRanges[r.Take(3)];
      const int mask = kPivMasks[r.Take(4)];
      const int threads = kThreads[r.Take(3)];
      c.piv = kapps::piv::Generate("space", 48, mask, range, 8,
                                   MixSeed({1, static_cast<std::uint64_t>(index)}));
      c.piv_cfg.variant = variant;
      c.piv_cfg.threads = threads;
      c.id = Format("piv/%s/m%d/r%d/t%d", kapps::piv::VariantName(variant), mask, range, threads);
      break;
    }
    case App::kMatching: {
      const int tile = kMatchTiles[r.Take(2)];
      const int tpl_h = tile * (2 + r.Take(3));
      const int tpl_w = tile * (2 + 2 * r.Take(2));
      const int shift_h = kMatchShifts[r.Take(3)];
      const int shift_w = kMatchShifts[r.Take(3)];
      const int threads = kThreads[r.Take(2)];
      c.match = kapps::matching::Generate("space", tpl_h, tpl_w, shift_h, shift_w,
                                          MixSeed({2, static_cast<std::uint64_t>(index)}));
      c.match_cfg.tile_h = tile;
      c.match_cfg.tile_w = tile;
      c.match_cfg.threads = threads;
      c.id = Format("matching/t%dx%d/s%dx%d/tile%d/t%d", tpl_h, tpl_w, shift_h, shift_w, tile,
                    threads);
      break;
    }
    case App::kBackproj: {
      kapps::backproj::Geometry g;
      g.vol_n = 12;
      g.det_u = 24;
      g.det_v = 16;
      g.n_angles = kBpAngles[r.Take(6)];
      const int zpt = 1 + r.Take(2);
      g.vol_z = kBpDepths[r.Take(2)];
      const int threads = kThreads[r.Take(2)];
      c.bp = kapps::backproj::Generate("space", g, 2,
                                       MixSeed({3, static_cast<std::uint64_t>(index)}));
      c.bp_cfg.zpt = zpt;
      c.bp_cfg.threads = threads;
      c.id = Format("backproj/a%d/z%d/zpt%d/t%d", g.n_angles, g.vol_z, zpt, threads);
      break;
    }
    case App::kRowfilter: {
      const auto border = kBorders[r.Take(3)];
      const int band = r.Take(8);
      const int ksize = 1 + 4 * band + r.Take(4);
      c.img = kapps::rowfilter::MakeTestImage(64, 8, MixSeed({4, static_cast<std::uint64_t>(index)}));
      c.filter = kapps::rowfilter::BinomialFilter(ksize, border);
      c.id = Format("rowfilter/k%d/%s", ksize, kapps::rowfilter::BorderName(border));
      break;
    }
  }
  return c;
}

std::vector<std::size_t> BalancedOrder(App app, std::uint64_t seed) {
  const std::size_t majors = MajorCount(app);
  const std::size_t minors = SpaceSize(app) / majors;
  std::vector<std::vector<std::size_t>> minor_order(majors);
  for (std::size_t m = 0; m < majors; ++m) minor_order[m] = DistinctDraw(MixSeed({seed, m}), minors, minors);
  std::vector<std::size_t> out;
  for (std::size_t round = 0; round < minors; ++round) {
    for (std::size_t m : DistinctDraw(MixSeed({seed, 1000 + round}), majors, majors)) {
      out.push_back(m + majors * minor_order[m][round]);
    }
  }
  return out;
}

std::vector<AppCase> ServeKeySet() {
  std::vector<AppCase> piv, rf;
  for (int mask : {12, 14}) {
    for (int threads : {64, 128}) {
      AppCase c;
      c.app = App::kPiv;
      c.piv = kapps::piv::Generate("serve", 64, mask, 3, 8,
                                   MixSeed({5, static_cast<std::uint64_t>(mask),
                                            static_cast<std::uint64_t>(threads)}));
      c.piv_cfg.variant = kapps::piv::Variant::kWarpSpec;
      c.piv_cfg.threads = threads;
      c.id = Format("piv/warpspec/m%d/r3/t%d", mask, threads);
      piv.push_back(std::move(c));
    }
  }
  for (int ksize : {5, 7}) {
    for (auto border : {kapps::rowfilter::Border::kClamp, kapps::rowfilter::Border::kWrap}) {
      AppCase c;
      c.app = App::kRowfilter;
      c.img = kapps::rowfilter::MakeTestImage(
          256, 64, MixSeed({6, static_cast<std::uint64_t>(ksize), static_cast<std::uint64_t>(border)}));
      c.filter = kapps::rowfilter::BinomialFilter(ksize, border);
      c.id = Format("rowfilter/k%d/%s", ksize, kapps::rowfilter::BorderName(border));
      rf.push_back(std::move(c));
    }
  }
  // Ranks alternate between the apps.
  std::vector<AppCase> keys;
  for (std::size_t i = 0; i < piv.size(); ++i) {
    keys.push_back(piv[i]);
    keys.push_back(rf[i]);
  }
  return keys;
}

}  // namespace perfbench
