// Order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// The p-th percentile (p in [0, 100]) by linear interpolation between the
// closest ranks: rank = p/100 * (n - 1). Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

inline double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

// True when a sample of n values has at least ten values beyond the p-th
// percentile, the condition under which a tail percentile is reported.
bool HasTailSupport(std::size_t n, double p);

// Splits a request sequence into consecutive windows: a window closes once
// its requests' latencies sum to at least window_ms. A trailing partial
// window counts only when it is the only one.
std::vector<std::vector<double>> SplitWindows(const std::vector<double>& latencies_ms,
                                              double window_ms);

// Requests per second of request time; 0 for an empty sample.
double Rate(const std::vector<double>& latencies_ms);

}  // namespace perfbench
