// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR --ledger FILE --trace-out FILE
//                    --results FILE [--commit TEXT]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// --results receives the same metrics as {name, value, unit} records plus the
// run's provenance. Exit status is 0 only when every request was correct.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::JsonString;

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::cerr << "perfbench_driver: " << why << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return Usage("expected --flag value pairs");
    args[flag.substr(2)] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "work-dir", "ledger", "trace-out", "results"}) {
    if (!args.count(required)) return Usage((std::string("missing --") + required).c_str());
  }

  perfbench::RunOptions opts;
  opts.workload = args["workload"];
  if (!perfbench::IsWorkload(opts.workload)) return Usage("unknown workload");
  opts.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opts.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");
  opts.trace = args["trace"] == "1";
  opts.work_dir = args["work-dir"];
  opts.ledger_path = args["ledger"];
  opts.trace_path = args["trace-out"];
  opts.nproc = std::max(1u, std::thread::hardware_concurrency());

  perfbench::RunResult r;
  try {
    r = perfbench::RunWorkload(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& e : r.errors) std::cerr << "error: " << e << "\n";

  const bool correct = r.failed == 0 && r.errors.empty() && r.attempted > 0;
  const auto& metrics = opts.trace ? r.per_layer : r.end_to_end;

  std::ostringstream prov;
  prov << "{\"workload\":" << JsonString(opts.workload) << ",\"seed\":" << opts.seed
       << ",\"seconds\":" << JsonNumber(opts.seconds) << ",\"trace\":" << (opts.trace ? 1 : 0)
       << ",\"nproc\":" << opts.nproc << ",\"compiler\":" << JsonString(PERFBENCH_CXX_VERSION)
       << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
       << ",\"commit\":" << JsonString(args.count("commit") ? args["commit"] : "unknown") << "}";
  std::ofstream results(args["results"]);
  results << "{\"provenance\":" << prov.str() << ",\"correct\":" << (correct ? "true" : "false")
          << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed << ",\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    results << (i ? "," : "") << "{\"name\":" << JsonString(metrics[i].name)
            << ",\"value\":" << JsonNumber(metrics[i].value)
            << ",\"unit\":" << JsonString(metrics[i].unit) << "}";
  }
  results << "]}\n";

  std::cout << "provenance: " << prov.str() << "\n";
  for (const auto& m : metrics) {
    std::cout << "  " << m.name << " = " << JsonNumber(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << r.attempted << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << JsonString(metrics[i].name)
              << ": {\"value\": " << JsonNumber(metrics[i].value)
              << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
