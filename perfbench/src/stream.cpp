#include "stream.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "support/serialize.hpp"

namespace perfbench {

std::uint64_t SplitMix64::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t MixSeed(const std::vector<std::uint64_t>& parts) {
  std::vector<std::uint8_t> bytes;  // little-endian on every host
  for (std::uint64_t v : parts) {
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  return SplitMix64(kspec::Fnv1aBytes(bytes.data(), bytes.size())).Next();
}

std::vector<std::size_t> DistinctDraw(std::uint64_t seed, std::size_t space, std::size_t count) {
  count = std::min(count, space);
  SplitMix64 rng(seed);
  // Sparse Fisher-Yates: only the swapped positions are materialized.
  std::unordered_map<std::size_t, std::size_t> moved;
  auto at = [&](std::size_t i) {
    auto it = moved.find(i);
    return it == moved.end() ? i : it->second;
  };
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.Below(space - i));
    const std::size_t vi = at(i), vj = at(j);
    moved[j] = vi;
    out.push_back(vj);
  }
  return out;
}

std::vector<std::size_t> SkewedStream(std::uint64_t seed, std::size_t n_keys, std::size_t length,
                                      double exponent) {
  std::vector<double> cdf(n_keys);
  double total = 0;
  for (std::size_t i = 0; i < n_keys; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf[i] = total;
  }
  SplitMix64 rng(seed);
  std::vector<std::size_t> out;
  out.reserve(length);
  for (std::size_t n = 0; n < length; ++n) {
    const double u = rng.Unit() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    out.push_back(std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()), n_keys - 1));
  }
  return out;
}

}  // namespace perfbench
