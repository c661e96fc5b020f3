#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool HasTailSupport(std::size_t n, double p) {
  // Count of samples strictly above the p-th percentile's rank position.
  const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  return beyond >= 10.0 - 1e-9;
}

std::vector<std::vector<double>> SplitWindows(const std::vector<double>& latencies_ms,
                                              double window_ms) {
  std::vector<std::vector<double>> windows;
  std::vector<double> current;
  double sum = 0;
  for (double ms : latencies_ms) {
    current.push_back(ms);
    sum += ms;
    if (sum >= window_ms) {
      windows.push_back(std::move(current));
      current.clear();
      sum = 0;
    }
  }
  if (windows.empty() && !current.empty()) windows.push_back(std::move(current));
  return windows;
}

double Rate(const std::vector<double>& latencies_ms) {
  double sum = 0;
  for (double ms : latencies_ms) sum += ms;
  return sum > 0 ? 1000.0 * static_cast<double>(latencies_ms.size()) / sum : 0;
}

}  // namespace perfbench
