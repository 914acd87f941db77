#include "numeric/qr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/flops.hpp"
#include "numeric/vec_kernels.hpp"

namespace omenx::numeric {

namespace {

// x <- (I - 2 v v^H) x on rows [k, m) and columns [c0, n), row by row on the
// row-major storage: d = v^H x accumulates one row at a time (an AXPY of
// conj(v_i) times row i), then every row takes x_i -= v_i (2 d).  `d` is
// scratch of at least n - c0 entries.
void reflect(const std::vector<cplx>& v, idx k, idx c0, CMatrix& x,
             std::vector<cplx>& d) {
  const idx w = x.cols() - c0;
  std::fill(d.begin(), d.begin() + w, cplx{0.0});
  for (idx i = k; i < x.rows(); ++i)
    detail::axpy(w, std::conj(v[static_cast<std::size_t>(i - k)]),
                 x.row_ptr(i) + c0, d.data());
  for (idx i = k; i < x.rows(); ++i)
    detail::axpy_sub(w, 2.0 * v[static_cast<std::size_t>(i - k)], d.data(),
                     x.row_ptr(i) + c0);
}

}  // namespace

QRResult qr_decompose(const CMatrix& a) {
  const idx m = a.rows(), n = a.cols();
  if (m < n) throw std::invalid_argument("qr_decompose: requires m >= n");
  CMatrix r = a;
  // Keep the unit Householder vectors (v_k spans rows k..m-1) and apply them
  // to an identity afterwards to form Q.
  std::vector<std::vector<cplx>> vs;
  vs.reserve(static_cast<std::size_t>(n));
  std::vector<cplx> d(static_cast<std::size_t>(n));
  FlopCounter::add(static_cast<std::uint64_t>(16.0 / 3.0 * n * n * (3 * m - n)));

  for (idx k = 0; k < n; ++k) {
    // Build Householder vector for column k, rows k..m-1.
    double norm_x = 0.0;
    for (idx i = k; i < m; ++i) norm_x += std::norm(r(i, k));
    norm_x = std::sqrt(norm_x);
    std::vector<cplx> v(static_cast<std::size_t>(m - k), cplx{0.0});
    if (norm_x > 0.0) {
      const cplx x0 = r(k, k);
      const double ax0 = std::abs(x0);
      const cplx phase = ax0 > 0.0 ? x0 / ax0 : cplx{1.0};
      const cplx alpha = -phase * norm_x;
      // v = x - alpha*e1, normalized.
      for (idx i = k; i < m; ++i) v[static_cast<std::size_t>(i - k)] = r(i, k);
      v[0] -= alpha;
      double nv = 0.0;
      for (const auto& vi : v) nv += std::norm(vi);
      nv = std::sqrt(nv);
      if (nv > 0.0) {
        for (auto& vi : v) vi /= nv;
        reflect(v, k, k, r, d);  // H = I - 2 v v^H on the trailing columns
      }
    }
    vs.push_back(std::move(v));
  }

  // Form the thin Q by applying the reflectors in reverse to the first n
  // columns of the identity.  Before H_k is applied, columns j < k are still
  // e_j, zero on rows k..m-1, so H_k only touches columns k..n-1.
  CMatrix q(m, n);
  for (idx j = 0; j < n; ++j) q(j, j) = cplx{1.0};
  for (idx k = n - 1; k >= 0; --k)
    reflect(vs[static_cast<std::size_t>(k)], k, k, q, d);

  // Zero the strict lower triangle of R (numerical dust from reflections).
  CMatrix r_out(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = i; j < n; ++j) r_out(i, j) = r(i, j);
  return {std::move(q), std::move(r_out)};
}

CMatrix orthonormalize(const CMatrix& a, double rank_tol) {
  return orthonormalize(qr_decompose(a), rank_tol);
}

namespace {

double max_r_diagonal(const QRResult& qr) {
  double max_diag = 0.0;
  for (idx i = 0; i < qr.r.rows(); ++i)
    max_diag = std::max(max_diag, std::abs(qr.r(i, i)));
  return max_diag;
}

}  // namespace

idx numerical_rank(const QRResult& qr, double rank_tol) {
  const double max_diag = max_r_diagonal(qr);
  idx rank = 0;
  for (idx i = 0; i < qr.r.rows(); ++i)
    if (std::abs(qr.r(i, i)) > rank_tol * max_diag) ++rank;
  return rank;
}

CMatrix orthonormalize(const QRResult& qr, double rank_tol) {
  const double max_diag = max_r_diagonal(qr);
  if (max_diag == 0.0) return CMatrix(qr.q.rows(), 0);
  // Columns of Q with large R diagonal form the retained basis.  With
  // column-pivot-free QR the significant columns are not necessarily the
  // leading ones, so gather explicitly.
  CMatrix out(qr.q.rows(), numerical_rank(qr, rank_tol));
  idx c = 0;
  for (idx j = 0; j < qr.r.cols(); ++j) {
    if (std::abs(qr.r(j, j)) > rank_tol * max_diag) {
      for (idx i = 0; i < qr.q.rows(); ++i) out(i, c) = qr.q(i, j);
      ++c;
    }
  }
  return out;
}

}  // namespace omenx::numeric
