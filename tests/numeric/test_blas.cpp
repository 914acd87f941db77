#include "numeric/blas.hpp"

#include <gtest/gtest.h>

#include "numeric/flops.hpp"
#include "numeric/matrix.hpp"

namespace nm = omenx::numeric;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {
// Naive reference multiply for validation.
CMatrix ref_matmul(const CMatrix& a, const CMatrix& b) {
  CMatrix c(a.rows(), b.cols());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx k = 0; k < a.cols(); ++k)
      for (idx j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
  return c;
}
}  // namespace

TEST(Blas, GemmMatchesReference) {
  const CMatrix a = nm::random_cmatrix(37, 23, 1);
  const CMatrix b = nm::random_cmatrix(23, 41, 2);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(a, b), ref_matmul(a, b)), 1e-12);
}

TEST(Blas, GemmLargeBlockedPath) {
  const CMatrix a = nm::random_cmatrix(130, 140, 3);
  const CMatrix b = nm::random_cmatrix(140, 150, 4);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(a, b), ref_matmul(a, b)), 1e-11);
}

TEST(Blas, GemmAlphaBeta) {
  const CMatrix a = nm::random_cmatrix(8, 8, 5);
  const CMatrix b = nm::random_cmatrix(8, 8, 6);
  CMatrix c = nm::random_cmatrix(8, 8, 7);
  const CMatrix c0 = c;
  const cplx alpha{2.0, 1.0}, beta{0.5, -0.5};
  nm::gemm(a, b, c, alpha, beta);
  CMatrix expected = ref_matmul(a, b) * alpha + c0 * beta;
  EXPECT_LT(nm::max_abs_diff(c, expected), 1e-12);
}

TEST(Blas, GemmTransposeOps) {
  const CMatrix a = nm::random_cmatrix(9, 12, 8);
  const CMatrix b = nm::random_cmatrix(9, 7, 9);
  // C = A^T B
  CMatrix c = nm::matmul(a, b, 'T', 'N');
  EXPECT_LT(nm::max_abs_diff(c, ref_matmul(a.transpose(), b)), 1e-12);
  // C = A^H B
  c = nm::matmul(a, b, 'C', 'N');
  EXPECT_LT(nm::max_abs_diff(c, ref_matmul(nm::dagger(a), b)), 1e-12);
}

TEST(Blas, GemmInnerDimMismatchThrows) {
  const CMatrix a = nm::random_cmatrix(3, 4, 10);
  const CMatrix b = nm::random_cmatrix(5, 3, 11);
  CMatrix c;
  EXPECT_THROW(nm::gemm(a, b, c), std::invalid_argument);
}

TEST(Blas, Gemv) {
  const CMatrix a = nm::random_cmatrix(6, 4, 12);
  std::vector<cplx> x(4, cplx{1.0, -1.0});
  std::vector<cplx> y;
  nm::gemv(a, x, y);
  for (idx i = 0; i < 6; ++i) {
    cplx acc{0.0};
    for (idx j = 0; j < 4; ++j) acc += a(i, j) * x[j];
    EXPECT_LT(std::abs(y[i] - acc), 1e-13);
  }
}

TEST(Blas, FrobNorm) {
  CMatrix a(2, 2);
  a(0, 0) = cplx{3.0};
  a(1, 1) = cplx{0.0, 4.0};
  EXPECT_NEAR(nm::frob_norm(a), 5.0, 1e-14);
}

TEST(Blas, IsHermitian) {
  CMatrix a = nm::random_cmatrix(10, 10, 13);
  CMatrix h = a + nm::dagger(a);
  EXPECT_TRUE(nm::is_hermitian(h));
  h(3, 7) += cplx{0.0, 0.1};
  EXPECT_FALSE(nm::is_hermitian(h));
}

TEST(Blas, FlopCountingGemm) {
  nm::FlopCounter::reset();
  const CMatrix a = nm::random_cmatrix(10, 20, 14);
  const CMatrix b = nm::random_cmatrix(20, 30, 15);
  nm::FlopCounter::reset();
  nm::matmul(a, b);
  EXPECT_EQ(nm::FlopCounter::total(), 10u * 20u * 30u * 8u);
}

TEST(Blas, ThreadParallelismToggle) {
  nm::set_thread_parallelism(false);
  EXPECT_FALSE(nm::thread_parallelism());
  const CMatrix a = nm::random_cmatrix(70, 70, 16);
  const CMatrix b = nm::random_cmatrix(70, 70, 17);
  CMatrix serial = nm::matmul(a, b);
  nm::set_thread_parallelism(true);
  EXPECT_TRUE(nm::thread_parallelism());
  CMatrix parallel = nm::matmul(a, b);
  EXPECT_LT(nm::max_abs_diff(serial, parallel), 1e-13);
}

namespace {
// op(M) materialized for the reference path.
CMatrix ref_op(const CMatrix& m, char op) {
  if (op == 'N') return m;
  if (op == 'T') return m.transpose();
  return nm::dagger(m);
}
}  // namespace

// All nine op_a x op_b combinations on non-square operands against the
// naive triple loop: transposition/conjugation folded into packing must
// match the materialized reference exactly.
TEST(Blas, GemmAllOpCombinations) {
  // op(A) must be 11x6, op(B) 6x9.
  const CMatrix a_n = nm::random_cmatrix(11, 6, 31);
  const CMatrix a_t = nm::random_cmatrix(6, 11, 32);
  const CMatrix b_n = nm::random_cmatrix(6, 9, 33);
  const CMatrix b_t = nm::random_cmatrix(9, 6, 34);
  const char ops[] = {'N', 'T', 'C'};
  for (char op_a : ops) {
    for (char op_b : ops) {
      const CMatrix& a = op_a == 'N' ? a_n : a_t;
      const CMatrix& b = op_b == 'N' ? b_n : b_t;
      const CMatrix expect = ref_matmul(ref_op(a, op_a), ref_op(b, op_b));
      const CMatrix got = nm::matmul(a, b, op_a, op_b);
      EXPECT_LT(nm::max_abs_diff(got, expect), 1e-12)
          << "op_a=" << op_a << " op_b=" << op_b;
    }
  }
}

// Ops combined with alpha/beta accumulation into an existing C.
TEST(Blas, GemmOpsWithAlphaBeta) {
  const CMatrix a = nm::random_cmatrix(13, 8, 35);   // used as A^C: 8x13
  const CMatrix b = nm::random_cmatrix(7, 13, 36);   // used as B^T: 13x7
  CMatrix c = nm::random_cmatrix(8, 7, 37);
  const CMatrix c0 = c;
  const cplx alpha{1.5, -0.5}, beta{-0.25, 2.0};
  nm::gemm(a, b, c, alpha, beta, 'C', 'T');
  const CMatrix expect =
      ref_matmul(nm::dagger(a), b.transpose()) * alpha + c0 * beta;
  EXPECT_LT(nm::max_abs_diff(c, expect), 1e-12);
}

// Sizes straddling every packing boundary (micro-tile, panel, slab edges).
TEST(Blas, GemmPackingEdgeSizes) {
  for (idx m : {1, 3, 4, 5, 95, 97}) {
    for (idx n : {1, 23, 24, 25}) {
      const idx k = 7;
      const CMatrix a = nm::random_cmatrix(m, k, 40 + unsigned(m));
      const CMatrix b = nm::random_cmatrix(k, n, 50 + unsigned(n));
      EXPECT_LT(nm::max_abs_diff(nm::matmul(a, b), ref_matmul(a, b)), 1e-12)
          << m << "x" << k << "x" << n;
    }
  }
}

// Regression for the seed's apply_op bug (it copied the full operand even
// for op 'N').  The packed kernel must do zero operand copies and zero
// buffer allocations once the output is right-sized and the per-thread
// packing scratch is warm.
TEST(Blas, GemmSteadyStateDoesNotAllocate) {
  const CMatrix a = nm::random_cmatrix(96, 96, 60);
  const CMatrix b = nm::random_cmatrix(96, 96, 61);
  CMatrix c(96, 96);
  nm::gemm(a, b, c);  // warm up packing scratch
  const std::uint64_t before = nm::matrix_heap_allocations();
  nm::gemm(a, b, c);
  nm::gemm(a, b, c, cplx{2.0}, cplx{1.0}, 'T', 'C');
  EXPECT_EQ(nm::matrix_heap_allocations(), before);

  // The direct small-shape route needs no warm-up at all.
  const CMatrix as = nm::random_cmatrix(4, 4, 62);
  const CMatrix bs = nm::random_cmatrix(4, 8, 63);
  CMatrix cs(4, 8);
  ASSERT_TRUE(nm::detail::gemm_direct_shape(4, 8, 4));
  const std::uint64_t small_before = nm::matrix_heap_allocations();
  nm::gemm(as, bs, cs);
  nm::gemm(as, bs, cs, cplx{0.5, 1.0}, cplx{1.0}, 'C', 'N');
  EXPECT_EQ(nm::matrix_heap_allocations(), small_before);
}

// The direct route is serial: a tall narrow product the packed route would
// split across threads stays packed while the thread's parallelism is on.
TEST(Blas, DirectRouteOnlyWhereThePackedRouteIsSerial) {
  const bool saved = nm::thread_parallelism();
  nm::set_thread_parallelism(true);
  EXPECT_TRUE(nm::detail::gemm_direct_shape(128, 16, 8));
  EXPECT_FALSE(nm::detail::gemm_direct_shape(4800, 16, 96));
  nm::set_thread_parallelism(false);
  EXPECT_TRUE(nm::detail::gemm_direct_shape(4800, 16, 96));
  nm::set_thread_parallelism(saved);
}

// The direct small-shape route must reproduce the packed route to the bit:
// each small product is also computed as the leading block of a product
// wide enough to take the packed route, reading the very same operand
// elements (the small call views the wide operands' storage).
TEST(Blas, SmallShapeGemmBitwiseEqualsPackedKernel) {
  const idx kWide = 25;  // > the direct route's column limit
  const idx kSlab = 192;  // one full packed depth slab
  const cplx betas[] = {cplx{0.0}, cplx{1.0}, cplx{-0.75, 0.5}};
  const cplx alpha{0.625, -1.25};
  int cases = 0;
  for (idx k : {idx{1}, idx{2}, idx{3}, kSlab}) {
    // Storage big enough for op(A) m x k and op(B) k x kWide under any op.
    const CMatrix a = nm::random_cmatrix(kSlab, kSlab, 70 + unsigned(k));
    const CMatrix b = nm::random_cmatrix(kSlab, kSlab, 80 + unsigned(k));
    const CMatrix c0 = nm::random_cmatrix(8, kWide, 90 + unsigned(k));
    ASSERT_FALSE(nm::detail::gemm_direct_shape(8, kWide, k));
    for (const char op_a : {'N', 'T', 'C'})
      for (const char op_b : {'N', 'T', 'C'})
        for (const cplx beta : betas)
          for (idx m = 1; m <= 8; ++m)
            for (idx n = 1; n <= 8; ++n) {
              ASSERT_TRUE(nm::detail::gemm_direct_shape(m, n, k));
              CMatrix wide = c0;
              nm::gemm_view(op_a, a.data(), a.cols(), op_b, b.data(), b.cols(),
                            m, kWide, k, alpha, beta, wide.data(),
                            wide.cols());
              CMatrix small = c0;
              nm::gemm_view(op_a, a.data(), a.cols(), op_b, b.data(),
                            b.cols(), m, n, k, alpha, beta, small.data(),
                            small.cols());
              for (idx i = 0; i < m; ++i)
                for (idx j = 0; j < n; ++j) {
                  const cplx x = small(i, j), y = wide(i, j);
                  ASSERT_EQ(x.real(), y.real())
                      << op_a << op_b << " m=" << m << " n=" << n
                      << " k=" << k << " beta=" << beta << " (" << i << ","
                      << j << ")";
                  ASSERT_EQ(x.imag(), y.imag())
                      << op_a << op_b << " m=" << m << " n=" << n
                      << " k=" << k << " beta=" << beta << " (" << i << ","
                      << j << ")";
                }
              // Columns past n are untouched by the small product.
              for (idx i = 0; i < m; ++i)
                for (idx j = n; j < kWide; ++j)
                  ASSERT_EQ(small(i, j), c0(i, j));
              ++cases;
            }
  }
  EXPECT_EQ(cases, 4 * 9 * 3 * 64);
}
