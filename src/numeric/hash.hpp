// FNV-1a (64-bit), the library's one content hash.  Lead matrices
// (transport::lead_content_hash), OBC option digests (obc::ObcOptions::
// digest), boundary-cache keys and device-residency ids all fold their
// fields through it, so equal contents hash equal on every rank and in
// every run.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "numeric/matrix.hpp"

namespace omenx::numeric {

class Fnv1a {
 public:
  /// Mix one scalar: integers, bools and enums by value, floating-point
  /// values by bit pattern (so 1e-15 apart is a different hash).
  template <class T>
  Fnv1a& add(T v) noexcept {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    std::uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(T) == sizeof(bits));
      std::memcpy(&bits, &v, sizeof(bits));
    } else {
      bits = static_cast<std::uint64_t>(v);
    }
    h_ ^= bits;
    h_ *= 1099511628211ull;
    return *this;
  }

  Fnv1a& add(cplx v) noexcept { return add(v.real()).add(v.imag()); }

  /// Dimensions, then every entry in row-major order.
  Fnv1a& add(const CMatrix& m) noexcept {
    add(m.rows()).add(m.cols());
    for (idx i = 0; i < m.rows(); ++i)
      for (idx j = 0; j < m.cols(); ++j) add(m(i, j));
    return *this;
  }

  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace omenx::numeric
