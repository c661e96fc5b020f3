// The benchmark's handles on single layers, all through public calls: module
// key discovery via the async-service seam, the kcc phase functions in
// CompileModule's order, and the exact-quantity ledger.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "apps.hpp"
#include "kcc/cache_key.hpp"
#include "trace.hpp"
#include "vcuda/async.hpp"
#include "vcuda/vcuda.hpp"

namespace perfbench {

// One module the stack compiles for a parameter set.
struct ModuleKey {
  std::string source;
  kspec::kcc::CompileOptions opts;
};

// An AsyncCompileService that records every submission. With a `next`
// service it forwards each one and keeps the future, so the benchmark can see
// when the flight finished; without one it refuses every submission, and a
// tiered loader then serves its run-time-evaluated build instead.
class RecordingService : public kspec::vcuda::AsyncCompileService {
 public:
  explicit RecordingService(kspec::vcuda::AsyncCompileService* next, const Tracer* clock)
      : next_(next), clock_(clock) {}

  struct Submission {
    kspec::vcuda::CompileRequest req;
    kspec::vcuda::ModuleFuture future;  // invalid when refused
    double at_us = 0;  // on the tracer's clock
  };

  kspec::vcuda::SubmitResult SubmitLoad(kspec::vcuda::Context& ctx,
                                        const kspec::vcuda::CompileRequest& req) override;

  // Returns and forgets the submissions recorded so far.
  std::vector<Submission> Take();

 private:
  kspec::vcuda::AsyncCompileService* next_;
  const Tracer* clock_;
  std::mutex mu_;  // guards log_
  std::vector<Submission> log_;
};

// Learns the specialized module keys of an app call without compiling them:
// the call goes through a kTiered runner with hot threshold 1 over a context
// of its own, whose async service is a refusing RecordingService, so it runs
// on the run-time-evaluated builds (its output is ignored) while the service
// records each specialized key the runner asks for.
class KeyFinder {
 public:
  explicit KeyFinder(const Tracer* clock);
  // The keys of `c`, in load order, duplicates dropped.
  std::vector<ModuleKey> Find(const AppCase& c);

 private:
  RecordingService refuse_;
  kspec::vcuda::Context ctx_;
  kspec::launch::StageRunner runner_;
};

// Wall time of each kcc phase for one module, from calling the public phase
// functions in CompileModule's order, and of CompileModule itself.
struct KccProbe {
  double compile_ms = 0;
  double preprocess_ms = 0, parse_ms = 0, sema_ms = 0, unroll_ms = 0, lower_ms = 0,
         optimize_ms = 0, regalloc_ms = 0;
  int static_instrs = 0;        // from CompileModule
  int phase_static_instrs = 0;  // from the phase functions; must equal the above
  int max_regs = 0;
  kspec::kcc::CompiledModule module;  // CompileModule's result
};
// Spans "kcc.compile" and "kcc.<phase>" are recorded under the caller's span.
KccProbe ProbeKcc(const ModuleKey& key, Tracer& tracer);

// Exact quantities per key, kept across runs in a file. Observe() returns an
// empty string, or the disagreement when the key already has another value
// for the field (from this run or an earlier one).
class Ledger {
 public:
  explicit Ledger(std::string path);
  std::string Observe(const std::string& key, const std::string& field, const std::string& value);
  bool Save() const;

 private:
  std::string path_;
  std::map<std::string, std::string> values_;  // "key\tfield" -> value
};

std::string ExactDouble(double v);  // hex float: exact and round-trippable

}  // namespace perfbench
