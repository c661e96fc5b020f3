// Seeded request streams. Everything here is a pure function of the seed, so
// the same seed always yields the same request stream and key set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// SplitMix64: tiny, portable, and identical on every platform (unlike the
// standard library's distributions).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  // Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Mixes several integers into one seed (FNV-1a over their bytes, then one
// SplitMix64 step), e.g. to derive a key's data seed from its parameters.
std::uint64_t MixSeed(const std::vector<std::uint64_t>& parts);

// `count` distinct indices from [0, space), in seeded order (a prefix of a
// seeded Fisher-Yates shuffle). count is clamped to space.
std::vector<std::size_t> DistinctDraw(std::uint64_t seed, std::size_t space, std::size_t count);

// A stream of `length` indices into [0, n_keys) where index i is drawn with
// weight 1 / (i + 1)^exponent (Zipf-like skew: key 0 is the hottest).
std::vector<std::size_t> SkewedStream(std::uint64_t seed, std::size_t n_keys, std::size_t length,
                                      double exponent);

}  // namespace perfbench
