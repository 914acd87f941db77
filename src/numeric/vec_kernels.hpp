// Complex vector kernels on interleaved doubles, shared by the row sweeps of
// the LU factorization and the Householder QR and by FEAST's contour sums.
//
// They work on the interleaved (re, im) doubles of std::complex<double>
// arrays ([complex.numbers] lets a pointer to an array of complex be read as
// one to 2n doubles), because GCC does not vectorize std::complex
// operator*: its Annex G branch recovers infinities from NaN products.
// Here a NaN or infinity in an operand makes the result non-finite (IEEE
// propagation) instead of being recovered, and that is all these callers
// need.
#pragma once

#include "numeric/types.hpp"

namespace omenx::numeric::detail {

// y[0, n) += a * x[0, n).
inline void axpy(idx n, cplx a, const cplx* __restrict x, cplx* __restrict y) {
  const double ar = a.real();
  const double ai = a.imag();
  const double* __restrict xd = reinterpret_cast<const double*>(x);
  double* __restrict yd = reinterpret_cast<double*>(y);
  for (idx j = 0; j < 2 * n; j += 2) {
    const double xr = xd[j];
    const double xi = xd[j + 1];
    yd[j] += ar * xr - ai * xi;
    yd[j + 1] += ar * xi + ai * xr;
  }
}

// y[0, n) -= a * x[0, n).
inline void axpy_sub(idx n, cplx a, const cplx* __restrict x,
                     cplx* __restrict y) {
  const double ar = a.real();
  const double ai = a.imag();
  const double* __restrict xd = reinterpret_cast<const double*>(x);
  double* __restrict yd = reinterpret_cast<double*>(y);
  for (idx j = 0; j < 2 * n; j += 2) {
    const double xr = xd[j];
    const double xi = xd[j + 1];
    yd[j] -= ar * xr - ai * xi;
    yd[j + 1] -= ar * xi + ai * xr;
  }
}

// y[0, n) *= a.
inline void scale(idx n, cplx a, cplx* __restrict y) {
  const double ar = a.real();
  const double ai = a.imag();
  double* __restrict yd = reinterpret_cast<double*>(y);
  for (idx j = 0; j < 2 * n; j += 2) {
    const double yr = yd[j];
    const double yi = yd[j + 1];
    yd[j] = ar * yr - ai * yi;
    yd[j + 1] = ar * yi + ai * yr;
  }
}

}  // namespace omenx::numeric::detail
