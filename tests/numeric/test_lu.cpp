#include "numeric/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "numeric/blas.hpp"
#include "numeric/matrix.hpp"

namespace nm = omenx::numeric;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {
CMatrix well_conditioned(idx n, unsigned seed) {
  CMatrix a = nm::random_cmatrix(n, n, seed);
  for (idx i = 0; i < n; ++i) a(i, i) += cplx{double(n), 0.0};
  return a;
}
}  // namespace

TEST(LU, SolveSingleRhs) {
  const CMatrix a = well_conditioned(12, 1);
  const CMatrix x_true = nm::random_cmatrix(12, 1, 2);
  const CMatrix b = nm::matmul(a, x_true);
  const CMatrix x = nm::solve(a, b);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-11);
}

TEST(LU, SolveMultiRhs) {
  const CMatrix a = well_conditioned(20, 3);
  const CMatrix x_true = nm::random_cmatrix(20, 7, 4);
  const CMatrix b = nm::matmul(a, x_true);
  const CMatrix x = nm::LUFactor(a).solve(b);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-10);
}

TEST(LU, NoPivotVariantOnDiagonallyDominant) {
  const CMatrix a = well_conditioned(15, 5);
  const CMatrix x_true = nm::random_cmatrix(15, 3, 6);
  const CMatrix b = nm::matmul(a, x_true);
  const CMatrix x = nm::solve(a, b, nm::Pivoting::kNone);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-9);
}

TEST(LU, Inverse) {
  const CMatrix a = well_conditioned(10, 7);
  const CMatrix ainv = nm::inverse(a);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(a, ainv), CMatrix::identity(10)),
            1e-11);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(ainv, a), CMatrix::identity(10)),
            1e-11);
}

TEST(LU, SolveLeft) {
  const CMatrix a = well_conditioned(9, 8);
  const CMatrix x_true = nm::random_cmatrix(4, 9, 9);
  const CMatrix b = nm::matmul(x_true, a);
  const CMatrix x = nm::LUFactor(a).solve_left(b);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-10);
}

TEST(LU, SingularThrows) {
  CMatrix a(3, 3);  // all zeros
  EXPECT_THROW(nm::LUFactor{a}, std::runtime_error);
}

TEST(LU, NonSquareThrows) {
  CMatrix a(3, 4);
  EXPECT_THROW(nm::LUFactor{a}, std::invalid_argument);
}

TEST(LU, PivotingHandlesZeroDiagonal) {
  // Permutation-like matrix with zero on the diagonal requires pivoting.
  CMatrix a{{cplx{0.0}, cplx{1.0}}, {cplx{1.0}, cplx{0.0}}};
  const CMatrix b{{cplx{2.0}}, {cplx{3.0}}};
  const CMatrix x = nm::solve(a, b);
  EXPECT_LT(std::abs(x(0, 0) - cplx{3.0}), 1e-14);
  EXPECT_LT(std::abs(x(1, 0) - cplx{2.0}), 1e-14);
}

TEST(LU, LogAbsDet) {
  CMatrix a(2, 2);
  a(0, 0) = cplx{2.0};
  a(1, 1) = cplx{3.0};
  nm::LUFactor lu(a);
  EXPECT_NEAR(lu.log_abs_det(), std::log(6.0), 1e-12);
}

// Property sweep: random systems of several sizes round-trip.
class LURoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LURoundTrip, SolveRecoversSolution) {
  const idx n = GetParam();
  const CMatrix a = well_conditioned(n, 100 + static_cast<unsigned>(n));
  const CMatrix x_true = nm::random_cmatrix(n, 5, 200 + static_cast<unsigned>(n));
  const CMatrix b = nm::matmul(a, x_true);
  EXPECT_LT(nm::max_abs_diff(nm::solve(a, b), x_true), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LURoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 17, 33, 64, 100));

// The pipeline's shapes: block sizes around the blocking width and the
// s = 48 / 96 / 144 blocks the solvers and the OBC factor, each with both
// pivotings.  kPartial runs on a plain random matrix, so rows really swap;
// kNone on a diagonally dominant one.
class LUShapes
    : public ::testing::TestWithParam<std::tuple<int, nm::Pivoting>> {
 protected:
  idx n() const { return std::get<0>(GetParam()); }
  nm::Pivoting pivoting() const { return std::get<1>(GetParam()); }
  CMatrix matrix() const {
    const unsigned seed = 300 + unsigned(n());
    return pivoting() == nm::Pivoting::kPartial
               ? nm::random_cmatrix(n(), n(), seed)
               : well_conditioned(n(), seed);
  }
};

double rel_diff(const CMatrix& x, const CMatrix& ref) {
  return nm::max_abs_diff(x, ref) / std::max(1.0, nm::max_abs(ref));
}

// The blocked factorization and solves must reproduce the unblocked
// reference (panel = 1, solved with panel = 1 as well): identical pivot
// sequence, matching factors and solutions up to GEMM-reordering roundoff.
TEST_P(LUShapes, BlockedMatchesUnblockedReference) {
  const CMatrix a = matrix();
  const nm::LUFactor blocked(a, pivoting());
  const nm::LUFactor unblocked(a, pivoting(), /*panel=*/1);
  ASSERT_EQ(unblocked.panel(), 1);
  ASSERT_EQ(blocked.pivots().size(), unblocked.pivots().size());
  for (std::size_t k = 0; k < blocked.pivots().size(); ++k)
    EXPECT_EQ(blocked.pivots()[k], unblocked.pivots()[k]) << "k=" << k;
  EXPECT_NEAR(blocked.log_abs_det(), unblocked.log_abs_det(),
              1e-9 * std::abs(unblocked.log_abs_det()) + 1e-9);
  for (idx nrhs : {idx{1}, n()}) {
    const CMatrix rhs = nm::random_cmatrix(n(), nrhs, 400 + unsigned(n()));
    EXPECT_LT(rel_diff(blocked.solve(rhs), unblocked.solve(rhs)), 1e-10)
        << "nrhs=" << nrhs;
    const CMatrix lhs = nm::random_cmatrix(nrhs, n(), 500 + unsigned(n()));
    EXPECT_LT(rel_diff(blocked.solve_left(lhs), unblocked.solve_left(lhs)),
              1e-10)
        << "nrhs=" << nrhs;
  }
  EXPECT_LT(rel_diff(blocked.inverse(), unblocked.inverse()), 1e-10);
}

TEST_P(LUShapes, SolveSolveLeftAndInverseResiduals) {
  const CMatrix a = matrix();
  const nm::LUFactor lu(a, pivoting());
  for (idx nrhs : {idx{1}, n()}) {
    const CMatrix x_true = nm::random_cmatrix(n(), nrhs, 600 + unsigned(n()));
    EXPECT_LT(rel_diff(lu.solve(nm::matmul(a, x_true)), x_true), 1e-9)
        << "nrhs=" << nrhs;
    const CMatrix y_true = nm::random_cmatrix(nrhs, n(), 700 + unsigned(n()));
    EXPECT_LT(rel_diff(lu.solve_left(nm::matmul(y_true, a)), y_true), 1e-9)
        << "nrhs=" << nrhs;
  }
  const CMatrix ainv = lu.inverse();
  const CMatrix eye = CMatrix::identity(n());
  EXPECT_LT(nm::max_abs_diff(nm::matmul(a, ainv), eye), 1e-9);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(ainv, a), eye), 1e-9);
}

// Solving many right-hand sides at once gives, column by column, the same
// bits as solving each alone: batching never changes a result.
TEST_P(LUShapes, MultiRhsSolvesAreColumnwiseBitwise) {
  const nm::LUFactor lu(matrix(), pivoting());
  const idx nrhs = 5;
  const CMatrix b = nm::random_cmatrix(n(), nrhs, 800 + unsigned(n()));
  const CMatrix x = lu.solve(b);
  const CMatrix xl = lu.solve_left(b.transpose());
  for (idx j = 0; j < nrhs; ++j) {
    CMatrix bj(n(), 1);
    for (idx i = 0; i < n(); ++i) bj(i, 0) = b(i, j);
    const CMatrix xj = lu.solve(bj);
    const CMatrix xlj = lu.solve_left(bj.transpose());
    for (idx i = 0; i < n(); ++i) {
      EXPECT_EQ(xj(i, 0), x(i, j)) << "i=" << i << " j=" << j;
      EXPECT_EQ(xlj(0, i), xl(j, i)) << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PipelineShapes, LUShapes,
    ::testing::Combine(::testing::Values(2, 15, 16, 17, 47, 48, 49, 96, 144,
                                         257),
                       ::testing::Values(nm::Pivoting::kPartial,
                                         nm::Pivoting::kNone)));

// Partial pivoting on the plain random fixtures above really swaps rows.
TEST(LU, RandomFixturePivots) {
  const nm::LUFactor lu(nm::random_cmatrix(48, 48, 348));
  idx swaps = 0;
  for (std::size_t k = 0; k < lu.pivots().size(); ++k)
    swaps += lu.pivots()[k] != idx(k);
  EXPECT_GT(swaps, 10);
}

// The default width blocks the pipeline's s = 48 blocks.
TEST(LU, DefaultPanelBlocksPipelineBlocks) {
  const nm::LUFactor lu(well_conditioned(48, 1));
  EXPECT_GT(lu.panel(), 1);
  EXPECT_LT(lu.panel(), 48);
}

// The vector kernels bypass std::complex operator*, whose Annex G branch
// recovers infinities from NaN products.  A NaN must still propagate: a NaN
// off the pivots of A or in B gives a non-finite solution, never a finite
// one, and leaves the other right-hand sides alone.
TEST(LU, NonFiniteInputsGiveNonFiniteSolutions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto finite = [](cplx z) {
    return std::isfinite(z.real()) && std::isfinite(z.imag());
  };
  for (idx n : {2, 17, 48, 96}) {
    const CMatrix a = well_conditioned(n, 900 + unsigned(n));
    const nm::LUFactor lu(a);
    CMatrix b = nm::random_cmatrix(n, 3, 901 + unsigned(n));
    b(n / 2, 1) = cplx{nan, 0.0};
    const CMatrix x = lu.solve(b);
    const CMatrix xl = lu.solve_left(b.transpose());
    for (idx i = 0; i < n; ++i) {
      EXPECT_FALSE(finite(x(i, 1))) << "n=" << n << " i=" << i;
      EXPECT_TRUE(finite(x(i, 0)) && finite(x(i, 2))) << "n=" << n;
      EXPECT_FALSE(finite(xl(1, i))) << "n=" << n << " i=" << i;
      EXPECT_TRUE(finite(xl(0, i)) && finite(xl(2, i))) << "n=" << n;
    }

    CMatrix a_nan = a;
    a_nan(0, n - 1) = cplx{0.0, nan};  // off the diagonal: never a pivot
    const nm::LUFactor lu_nan(a_nan);
    const CMatrix c = nm::random_cmatrix(n, 2, 902 + unsigned(n));
    for (const CMatrix& y : {lu_nan.solve(c), lu_nan.solve_left(c.transpose()),
                             lu_nan.inverse()}) {
      bool any_nonfinite = false;
      for (idx i = 0; i < y.size(); ++i)
        any_nonfinite = any_nonfinite || !finite(y.data()[i]);
      EXPECT_TRUE(any_nonfinite) << "n=" << n;
    }
  }
}

// A panel-crossing solve still satisfies A x = b directly.
TEST(LU, BlockedSolveResidualLarge) {
  const idx n = 200;
  const CMatrix a = well_conditioned(n, 88);
  const CMatrix x_true = nm::random_cmatrix(n, 6, 89);
  const CMatrix b = nm::matmul(a, x_true);
  const CMatrix x = nm::LUFactor(a).solve(b);
  EXPECT_LT(nm::max_abs_diff(x, x_true), 1e-9);
}
