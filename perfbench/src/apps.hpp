// The four paper applications as benchmark requests: one parameter set with
// its inputs, its CPU reference, and the app driver call that serves it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/backproj/cpu_ref.hpp"
#include "apps/backproj/gpu.hpp"
#include "apps/matching/cpu_ref.hpp"
#include "apps/matching/gpu.hpp"
#include "apps/piv/cpu_ref.hpp"
#include "apps/piv/gpu.hpp"
#include "apps/rowfilter/rowfilter.hpp"
#include "launch/stage_runner.hpp"

namespace perfbench {

namespace kapps = kspec::apps;

enum class App { kPiv, kMatching, kBackproj, kRowfilter };
const char* AppName(App app);

// One parameter set. Only the members of its app are filled. The CPU
// reference is computed by Prepare(), outside any timed region.
struct AppCase {
  App app = App::kPiv;
  std::string id;  // parameter set identity, e.g. "piv/warp-spec/m12/r3/t64"
  // The id plus a hash of the inputs, set by Prepare(): the key its exact
  // quantities are recorded under, across runs.
  std::string exact_key;

  kapps::piv::Problem piv;
  kapps::piv::PivConfig piv_cfg;
  kapps::piv::VectorField piv_ref;

  kapps::matching::Problem match;
  kapps::matching::MatcherConfig match_cfg;
  kapps::matching::CpuResult match_ref;

  kapps::backproj::Problem bp;
  kapps::backproj::BackprojConfig bp_cfg;
  kapps::backproj::CpuResult bp_ref;

  kapps::rowfilter::Image img;
  kapps::rowfilter::FilterSpec filter;
  kapps::rowfilter::RowFilterConfig rf_cfg;
  std::vector<float> rf_ref;
};

// Computes the CPU reference for the case and its exact_key.
void Prepare(AppCase& c, int cpu_threads);

// What one app driver call produced.
struct AppOutcome {
  std::vector<float> values;  // scores / field scores / volume / filtered image
  std::vector<int> indices;   // PIV best offsets; matching best index
  kspec::launch::LaunchBreakdown breakdown;
  double sim_ms = 0;                // simulated GPU ms over every launch of the call
  std::uint64_t warp_instrs = 0;    // over every launch of the call
  std::size_t launches = 0;
};

// Calls the app driver through `runner`. Throws what the driver throws.
AppOutcome RunApp(kspec::launch::StageRunner& runner, const AppCase& c);

// Compares against the CPU reference at the tolerances the app tests use.
// Returns an empty string on success, else what differed.
std::string CheckOutcome(const AppCase& c, const AppOutcome& out);

// Bench-size problems (bench_native's sizes; PIV warp-spec at 64 threads),
// specialized, data generated from `seed`.
AppCase BenchCase(App app, std::uint64_t seed);

// Parameter spaces for the re-specialization streams: `index` in
// [0, SpaceSize(app)) names one parameter set. Inputs are correctness-suite
// sized and their data derives from the parameters alone, so one parameter
// set always sees the same inputs (and the same exact quantities) whatever
// the run's seed. Every set in the space can also be served by its app's
// run-time-evaluated build (float row filters, no register-blocked PIV),
// which the tiered serving stack and key discovery both rely on.
std::size_t SpaceSize(App app);
AppCase SpaceCase(App app, std::size_t index);

// Every index of the app's space once, in an order drawn from `seed` that is
// balanced in the parameters that set compile cost: each consecutive round
// holds every cost class once. Any prefix of a few rounds then has nearly the
// same cost mix whatever the seed, which keeps cold-request percentiles steady.
std::vector<std::size_t> BalancedOrder(App app, std::uint64_t seed);

// The serving stream's keys, hottest first: four warp-specialized PIV and
// four short row-filter parameter sets (their native builds take seconds,
// not minutes), ranks alternating between the apps. The set and its ranking
// are fixed; letting the seed rank the keys moved p90 between seeds.
std::vector<AppCase> ServeKeySet();

}  // namespace perfbench
