// Medians, seeds, digests and other small helpers shared by the benchmark files.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace omenx::profile {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of an unsorted sample; 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Seeded generator for the workload inputs.  splitmix64 with an explicit
/// 53-bit conversion, so one seed gives the same inputs on every standard
/// library (std::uniform_real_distribution is implementation-defined).
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over the bit patterns of a result vector: equal digests mean
/// bitwise-equal outputs.
inline std::uint64_t fnv_digest(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Largest |a_i - b_i| relative to max(1, |a_i|); +inf on a length mismatch.
inline double max_rel_diff(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double out = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    out = std::max(out, std::abs(a[i] - b[i]) /
                            std::max(1.0, std::abs(a[i])));
  return out;
}

}  // namespace omenx::profile
