// The benchmark's workloads: apps-warm, respecialize and serve-promote.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;     // scratch space for cache directories (emptied per pass)
  std::string ledger_path;  // exact quantities kept across runs
  std::string trace_path;   // Chrome trace output (traced runs)
  unsigned nproc = 1;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed, refused, wrong-output or inexact requests
  std::vector<std::string> errors;  // the first few, for the log
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

bool IsWorkload(const std::string& name);

// Runs one workload. With opts.trace the workload runs twice, untraced and
// then traced; end-to-end metrics come from the untraced pass, per-layer
// metrics from the traced one, and the difference is the tracing overhead.
RunResult RunWorkload(const RunOptions& opts);

}  // namespace perfbench
