#include "numeric/qr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "numeric/blas.hpp"
#include "numeric/matrix.hpp"

namespace nm = omenx::numeric;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

// Column-by-column Householder QR on plain std::complex arithmetic: the
// reference the row-wise reflector kernels of qr_decompose are checked
// against (same reflector and sign conventions, so Q and R agree to
// rounding).
nm::QRResult reference_qr(const CMatrix& a) {
  const idx m = a.rows(), n = a.cols();
  CMatrix r = a;
  std::vector<std::vector<cplx>> vs;
  const auto reflect = [&](const std::vector<cplx>& v, idx k, CMatrix& x) {
    for (idx j = 0; j < x.cols(); ++j) {
      cplx dot{0.0};
      for (idx i = k; i < m; ++i)
        dot += std::conj(v[static_cast<std::size_t>(i - k)]) * x(i, j);
      for (idx i = k; i < m; ++i)
        x(i, j) -= 2.0 * dot * v[static_cast<std::size_t>(i - k)];
    }
  };
  for (idx k = 0; k < n; ++k) {
    double norm_x = 0.0;
    for (idx i = k; i < m; ++i) norm_x += std::norm(r(i, k));
    norm_x = std::sqrt(norm_x);
    std::vector<cplx> v(static_cast<std::size_t>(m - k), cplx{0.0});
    if (norm_x > 0.0) {
      const cplx x0 = r(k, k);
      const cplx phase = std::abs(x0) > 0.0 ? x0 / std::abs(x0) : cplx{1.0};
      for (idx i = k; i < m; ++i) v[static_cast<std::size_t>(i - k)] = r(i, k);
      v[0] += phase * norm_x;
      double nv = 0.0;
      for (const auto& vi : v) nv += std::norm(vi);
      for (auto& vi : v) vi /= std::sqrt(nv);
      reflect(v, k, r);
    }
    vs.push_back(v);
  }
  CMatrix q(m, n);
  for (idx j = 0; j < n; ++j) q(j, j) = cplx{1.0};
  for (idx k = n - 1; k >= 0; --k) reflect(vs[static_cast<std::size_t>(k)], k, q);
  CMatrix r_out(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = i; j < n; ++j) r_out(i, j) = r(i, j);
  return {q, r_out};
}

// Rank orthonormalize() must report: R diagonals above tol * max diagonal.
idx reference_rank(const CMatrix& a, double tol = 1e-10) {
  const nm::QRResult qr = reference_qr(a);
  double max_diag = 0.0;
  for (idx i = 0; i < qr.r.rows(); ++i)
    max_diag = std::max(max_diag, std::abs(qr.r(i, i)));
  idx rank = 0;
  for (idx i = 0; i < qr.r.rows(); ++i)
    if (max_diag > 0.0 && std::abs(qr.r(i, i)) > tol * max_diag) ++rank;
  return rank;
}

void expect_matches_reference(const CMatrix& a) {
  const auto [q, r] = nm::qr_decompose(a);
  const auto ref = reference_qr(a);
  const double scale = std::max(1.0, nm::max_abs(a));
  EXPECT_LT(nm::max_abs_diff(nm::matmul(q, r), a), 1e-13 * scale)
      << a.rows() << " x " << a.cols();
  EXPECT_LT(nm::max_abs_diff(q, ref.q), 1e-13) << a.rows() << " x " << a.cols();
  EXPECT_LT(nm::max_abs_diff(r, ref.r), 1e-13 * scale)
      << a.rows() << " x " << a.cols();
}

}  // namespace

TEST(QR, RowKernelsMatchScalarReference) {
  for (idx m = 1; m <= 9; ++m)
    for (idx n = 1; n <= m; ++n)
      expect_matches_reference(
          nm::random_cmatrix(m, n, static_cast<unsigned>(100 + 10 * m + n)));
  expect_matches_reference(nm::random_cmatrix(96, 48, 5));
}

TEST(QR, RankDeficientInputsKeepTheirRank) {
  // Rank-r products B C (96 x r times r x 48) and duplicated columns.
  for (const idx rank : {1, 7, 30, 47}) {
    const CMatrix a = nm::matmul(nm::random_cmatrix(96, rank, 8),
                                 nm::random_cmatrix(rank, 48, 9));
    EXPECT_EQ(nm::orthonormalize(a).cols(), reference_rank(a)) << rank;
    EXPECT_EQ(nm::orthonormalize(a).cols(), rank) << rank;
  }
  CMatrix dup = nm::random_cmatrix(9, 6, 10);
  for (idx i = 0; i < 9; ++i) dup(i, 4) = dup(i, 1);
  EXPECT_EQ(nm::orthonormalize(dup).cols(), reference_rank(dup));
}

TEST(QR, NumericalRankCountsWhatOrthonormalizeKeeps) {
  // Columns scaled 1, 1e-3, ..., 1e-15: each cut keeps the columns above it,
  // from one factorization and from the matrix alike.
  CMatrix a = nm::random_cmatrix(40, 6, 11);
  for (idx j = 0; j < a.cols(); ++j)
    for (idx i = 0; i < a.rows(); ++i)
      a(i, j) *= std::pow(10.0, -3.0 * static_cast<double>(j));
  const nm::QRResult qr = nm::qr_decompose(a);
  for (const double tol : {1e-2, 1e-7, 1e-10, 1e-14}) {
    EXPECT_EQ(nm::numerical_rank(qr, tol), reference_rank(a, tol)) << tol;
    EXPECT_EQ(nm::orthonormalize(qr, tol).cols(), reference_rank(a, tol));
    EXPECT_EQ(nm::max_abs_diff(nm::orthonormalize(qr, tol),
                               nm::orthonormalize(a, tol)),
              0.0);
  }
  EXPECT_EQ(nm::numerical_rank(qr, 1e-7), 3);
}

TEST(QR, ReconstructsInput) {
  const CMatrix a = nm::random_cmatrix(12, 7, 1);
  const auto [q, r] = nm::qr_decompose(a);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(q, r), a), 1e-12);
}

TEST(QR, QHasOrthonormalColumns) {
  const CMatrix a = nm::random_cmatrix(15, 6, 2);
  const auto [q, r] = nm::qr_decompose(a);
  const CMatrix qhq = nm::matmul(q, q, 'C', 'N');
  EXPECT_LT(nm::max_abs_diff(qhq, CMatrix::identity(6)), 1e-12);
}

TEST(QR, RIsUpperTriangular) {
  const CMatrix a = nm::random_cmatrix(10, 10, 3);
  const auto [q, r] = nm::qr_decompose(a);
  for (idx i = 0; i < r.rows(); ++i)
    for (idx j = 0; j < i; ++j) EXPECT_EQ(r(i, j), cplx{0.0});
}

TEST(QR, WideMatrixThrows) {
  EXPECT_THROW(nm::qr_decompose(nm::random_cmatrix(3, 5, 4)),
               std::invalid_argument);
}

TEST(QR, OrthonormalizeFullRank) {
  const CMatrix a = nm::random_cmatrix(20, 5, 5);
  const CMatrix q = nm::orthonormalize(a);
  EXPECT_EQ(q.cols(), 5);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(q, q, 'C', 'N'), CMatrix::identity(5)),
            1e-12);
}

TEST(QR, OrthonormalizeDetectsRankDeficiency) {
  CMatrix a = nm::random_cmatrix(20, 3, 6);
  // Append a duplicate column: rank stays 3 of 4.
  CMatrix aug(20, 4);
  aug.set_block(0, 0, a);
  for (idx i = 0; i < 20; ++i) aug(i, 3) = a(i, 0);
  const CMatrix q = nm::orthonormalize(aug);
  EXPECT_EQ(q.cols(), 3);
}

TEST(QR, OrthonormalizeZeroMatrix) {
  const CMatrix q = nm::orthonormalize(CMatrix(8, 3));
  EXPECT_EQ(q.cols(), 0);
}

TEST(QR, SpanIsPreserved) {
  // Columns of orthonormalize(a) must span col(a): projecting a onto the
  // basis reproduces a.
  const CMatrix a = nm::random_cmatrix(16, 4, 7);
  const CMatrix q = nm::orthonormalize(a);
  const CMatrix proj = nm::matmul(q, nm::matmul(q, a, 'C', 'N'));
  EXPECT_LT(nm::max_abs_diff(proj, a), 1e-11);
}
