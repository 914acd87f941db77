// Core scalar types and tolerances shared by all numeric kernels.
#pragma once

#include <complex>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace omenx::numeric {

/// Double-precision complex scalar; all transport matrices use this type.
using cplx = std::complex<double>;

/// Index type used for matrix dimensions (signed, per C++ Core Guidelines
/// ES.107: avoid unsigned arithmetic surprises in loop math).
using idx = std::int64_t;

inline constexpr double kPi = 3.14159265358979323846;

/// Default relative tolerance for iterative numeric algorithms.
inline constexpr double kDefaultTol = 1e-12;

}  // namespace omenx::numeric
