#include "numeric/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "numeric/blas.hpp"
#include "numeric/flops.hpp"
#include "numeric/vec_kernels.hpp"

namespace omenx::numeric {

namespace {
using detail::axpy_sub;
using detail::scale;

// Default blocking width of the factorization and of the triangular solves.
// 24 splits the pipeline's s = 48 blocks into two panels, and for s a
// multiple of 24 every trailing update is a whole number of the GEMM
// micro-kernel's 24-column tiles.  Widths 8 to 32 measure within ~20% of
// each other at s = 48, 96 and 144; 24 was the fastest.
constexpr idx kDefaultPanel = 24;

// Row i >= k of the largest |a(i, k)|, the first one on ties.  Compares
// |z|^2 in plain arithmetic, which orders like |z| up to rounding and costs
// a fraction of std::abs (hypot); the std::abs search runs only when the
// largest |z|^2 is zero, subnormal, infinite or NaN, where squaring loses
// the order.
idx pivot_row(const CMatrix& a, idx k) {
  const auto argmax = [&](auto magnitude) {
    idx p = k;
    double best = magnitude(a(k, k));
    for (idx i = k + 1; i < a.rows(); ++i) {
      const double v = magnitude(a(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    return std::make_pair(p, best);
  };
  const auto [p, best] = argmax(
      [](cplx z) { return z.real() * z.real() + z.imag() * z.imag(); });
  if (best >= std::numeric_limits<double>::min() &&
      best <= std::numeric_limits<double>::max())
    return p;
  return argmax([](cplx z) { return std::abs(z); }).first;
}

// Which triangle of the packed factors F a sweep applies: the unit lower L
// or the upper U (diagonal included).
enum class Tri { kL, kU };

// x <- T^{-1} x for T = op(tri of F), op the transpose when `trans`.  Blocked
// by nb: each diagonal block is swept with axpy_sub row by row, and its
// contribution to the rows not yet swept goes through one gemm_view.  With
// `identity_rhs` x enters as the identity and T is lower triangular, so row k
// of the result is zero right of column k and those columns are skipped.
void triangular_sweep(const CMatrix& f, Tri tri, bool trans, idx nb,
                      bool identity_rhs, CMatrix& x) {
  const idx n = f.rows();
  const idx nrhs = x.cols();
  const bool unit = tri == Tri::kL;
  const char op = trans ? 'T' : 'N';
  // T(i, k) = op(F)(i, k).
  const auto t_elem = [&](idx i, idx k) { return trans ? f(k, i) : f(i, k); };
  const auto sweep_row = [&](idx i, idx k_begin, idx k_end) {
    cplx* xi = x.row_ptr(i);
    for (idx k = k_begin; k < k_end; ++k) {
      const cplx t = t_elem(i, k);
      if (t == cplx{0.0}) continue;
      axpy_sub(identity_rhs ? k + 1 : nrhs, t, x.row_ptr(k), xi);
    }
    if (!unit) scale(nrhs, cplx{1.0} / f(i, i), xi);
  };
  if (unit != trans) {  // op(L) or U^T: lower triangular, forward sweep
    for (idx k0 = 0; k0 < n; k0 += nb) {
      const idx kend = std::min(k0 + nb, n);
      for (idx i = k0; i < kend; ++i) sweep_row(i, k0, i);
      if (kend < n)
        gemm_view(op, trans ? f.row_ptr(k0) + kend : f.row_ptr(kend) + k0, n,
                  'N', x.row_ptr(k0), nrhs, n - kend,
                  identity_rhs ? kend : nrhs, kend - k0, cplx{-1.0},
                  cplx{1.0}, x.row_ptr(kend), nrhs, /*count_flops=*/false);
    }
    return;
  }
  for (idx k0 = (n - 1) / nb * nb; k0 >= 0; k0 -= nb) {
    const idx kend = std::min(k0 + nb, n);
    for (idx i = kend - 1; i >= k0; --i) sweep_row(i, i + 1, kend);
    if (k0 == 0) break;
    gemm_view(op, trans ? f.row_ptr(k0) : f.row_ptr(0) + k0, n, 'N',
              x.row_ptr(k0), nrhs, k0, nrhs, kend - k0, cplx{-1.0},
              cplx{1.0}, x.row_ptr(0), nrhs, /*count_flops=*/false);
  }
}

// Row interchanges of the factorization, applied to the rows of x in
// factorization order (forward) or in reverse.
void permute_rows(const pool_vector<idx>& piv, bool forward, CMatrix& x) {
  const idx n = static_cast<idx>(piv.size());
  for (idx s = 0; s < n; ++s) {
    const idx k = forward ? s : n - 1 - s;
    const idx p = piv[static_cast<std::size_t>(k)];
    if (p != k)
      std::swap_ranges(x.row_ptr(k), x.row_ptr(k) + x.cols(), x.row_ptr(p));
  }
}
}  // namespace

LUFactor::LUFactor(CMatrix a, Pivoting pivoting, idx panel)
    : lu_(std::move(a)), panel_(panel > 0 ? panel : kDefaultPanel) {
  if (!lu_.square()) throw std::invalid_argument("LUFactor: matrix not square");
  const idx n = lu_.rows();
  const idx nb = panel_;
  piv_.resize(static_cast<std::size_t>(n));
  FlopCounter::add(static_cast<std::uint64_t>(8.0 / 3.0 * n * n * n));

  for (idx k0 = 0; k0 < n; k0 += nb) {
    const idx kb = std::min(nb, n - k0);
    const idx kend = k0 + kb;

    // --- Panel factorization (unblocked) on columns [k0, kend), rows
    // [k0, n).  Row swaps are applied across the full width so the pivot
    // sequence and the factors match the unblocked algorithm exactly.
    for (idx k = k0; k < kend; ++k) {
      const idx p = pivoting == Pivoting::kPartial ? pivot_row(lu_, k) : k;
      piv_[static_cast<std::size_t>(k)] = p;
      if (p != k)
        std::swap_ranges(lu_.row_ptr(k), lu_.row_ptr(k) + n, lu_.row_ptr(p));
      const cplx pivot = lu_(k, k);
      if (pivot == cplx{0.0})
        throw std::runtime_error("LUFactor: exactly singular matrix");
      log_abs_det_ += std::log(std::abs(pivot));
      const cplx inv_pivot = cplx{1.0} / pivot;
      const cplx* krow = lu_.row_ptr(k);
      for (idx i = k + 1; i < n; ++i) {
        cplx* irow = lu_.row_ptr(i);
        const cplx lik = irow[k] * inv_pivot;
        irow[k] = lik;
        if (lik == cplx{0.0}) continue;
        // Rank-1 update restricted to the remaining panel columns; the
        // trailing block gets its update from the GEMM below.
        axpy_sub(kend - k - 1, lik, krow + k + 1, irow + k + 1);
      }
    }
    if (kend == n) break;

    // --- U12 = L11^{-1} A12: unit-lower triangular solve on the panel rows
    // applied to the trailing columns.
    for (idx k = k0; k < kend; ++k) {
      const cplx* krow = lu_.row_ptr(k) + kend;
      for (idx i = k + 1; i < kend; ++i) {
        const cplx lik = lu_(i, k);
        if (lik == cplx{0.0}) continue;
        axpy_sub(n - kend, lik, krow, lu_.row_ptr(i) + kend);
      }
    }

    // --- Trailing update A22 -= L21 * U12 at GEMM speed.  Non-counting:
    // the analytic (8/3) n^3 added above already covers it.
    gemm_view('N', lu_.row_ptr(kend) + k0, n, 'N', lu_.row_ptr(k0) + kend, n,
              n - kend, n - kend, kb, cplx{-1.0}, cplx{1.0},
              lu_.row_ptr(kend) + kend, n, /*count_flops=*/false);
  }
}

CMatrix LUFactor::solve(const CMatrix& b) const {
  const idx n = lu_.rows();
  if (b.rows() != n) throw std::invalid_argument("LUFactor::solve: shape");
  CMatrix x = b;
  FlopCounter::add(static_cast<std::uint64_t>(8u) * n * n * b.cols());
  // P A = L U: x <- U^{-1} L^{-1} P b.
  permute_rows(piv_, /*forward=*/true, x);
  triangular_sweep(lu_, Tri::kL, /*trans=*/false, panel_, false, x);
  triangular_sweep(lu_, Tri::kU, /*trans=*/false, panel_, false, x);
  return x;
}

CMatrix LUFactor::solve_left(const CMatrix& b) const {
  // X A = B  <=>  A^T X^T = B^T with A^T = U^T L^T P: a forward sweep with
  // U^T, a backward sweep with L^T, then the interchanges undone in reverse.
  if (b.cols() != lu_.rows())
    throw std::invalid_argument("LUFactor::solve_left: shape");
  const idx n = lu_.rows();
  CMatrix x = b.transpose();
  FlopCounter::add(static_cast<std::uint64_t>(8u) * n * n * x.cols());
  triangular_sweep(lu_, Tri::kU, /*trans=*/true, panel_, false, x);
  triangular_sweep(lu_, Tri::kL, /*trans=*/true, panel_, false, x);
  permute_rows(piv_, /*forward=*/false, x);
  return x.transpose();
}

CMatrix LUFactor::inverse() const {
  // A^{-1} = U^{-1} L^{-1} P.  L^{-1} is unit lower triangular, so the
  // forward sweep starts from the identity and skips its structural zeros;
  // P is applied last, as column interchanges in reverse order.  Charged as
  // the n-column solve it replaces.
  const idx n = lu_.rows();
  FlopCounter::add(static_cast<std::uint64_t>(8u) * n * n * n);
  CMatrix x = CMatrix::identity(n);
  triangular_sweep(lu_, Tri::kL, /*trans=*/false, panel_, true, x);
  triangular_sweep(lu_, Tri::kU, /*trans=*/false, panel_, false, x);
  for (idx k = n - 1; k >= 0; --k) {
    const idx p = piv_[static_cast<std::size_t>(k)];
    if (p != k)
      for (idx i = 0; i < n; ++i) std::swap(x(i, k), x(i, p));
  }
  return x;
}

CMatrix solve(const CMatrix& a, const CMatrix& b, Pivoting pivoting) {
  return LUFactor(a, pivoting).solve(b);
}

CMatrix inverse(const CMatrix& a, Pivoting pivoting) {
  return LUFactor(a, pivoting).inverse();
}

}  // namespace omenx::numeric
