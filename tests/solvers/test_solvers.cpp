// Solver suite tests: every solver is validated against a dense LU
// reference on random Hermitian-structured block tridiagonal systems, and
// SplitSolve against the explicit (A - BC) system of Fig. 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "blockmat/block_tridiag.hpp"
#include "numeric/blas.hpp"
#include "numeric/lu.hpp"
#include "parallel/device.hpp"
#include "parallel/tracer.hpp"
#include "solvers/bcr.hpp"
#include "solvers/block_lu.hpp"
#include "solvers/rgf.hpp"
#include "solvers/spike.hpp"
#include "solvers/splitsolve.hpp"

namespace bm = omenx::blockmat;
namespace nm = omenx::numeric;
namespace pp = omenx::parallel;
namespace sv = omenx::solvers;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

// Well-conditioned random block tridiagonal system.
bm::BlockTridiag random_system(idx nb, idx s, unsigned seed) {
  bm::BlockTridiag t(nb, s);
  for (idx i = 0; i < nb; ++i) {
    t.diag(i) = nm::random_cmatrix(s, s, seed + static_cast<unsigned>(i));
    for (idx d = 0; d < s; ++d)
      t.diag(i)(d, d) += cplx{6.0, 0.5};
    if (i + 1 < nb) {
      t.upper(i) =
          nm::random_cmatrix(s, s, seed + 1000 + static_cast<unsigned>(i));
      t.lower(i) =
          nm::random_cmatrix(s, s, seed + 2000 + static_cast<unsigned>(i));
    }
  }
  return t;
}

}  // namespace

TEST(BlockLU, MatchesDenseSolve) {
  const auto a = random_system(6, 4, 1);
  const CMatrix b = nm::random_cmatrix(a.dim(), 3, 99);
  const CMatrix x = sv::block_lu_solve(a, b);
  const CMatrix ref = nm::solve(a.to_dense(), b);
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-9);
}

TEST(BlockLU, SingleBlock) {
  const auto a = random_system(1, 5, 2);
  const CMatrix b = nm::random_cmatrix(5, 2, 98);
  EXPECT_LT(nm::max_abs_diff(sv::block_lu_solve(a, b),
                             nm::solve(a.to_dense(), b)),
            1e-10);
}

TEST(BlockLU, DimensionMismatchThrows) {
  const auto a = random_system(3, 2, 3);
  EXPECT_THROW(sv::block_lu_solve(a, CMatrix(5, 1)), std::invalid_argument);
}

TEST(Bcr, MatchesDenseSolvePowerOfTwo) {
  const auto a = random_system(8, 3, 4);
  const CMatrix b = nm::random_cmatrix(a.dim(), 2, 97);
  EXPECT_LT(nm::max_abs_diff(sv::bcr_solve(a, b), nm::solve(a.to_dense(), b)),
            1e-9);
}

TEST(Bcr, MatchesDenseSolveOddCount) {
  const auto a = random_system(7, 3, 5);
  const CMatrix b = nm::random_cmatrix(a.dim(), 2, 96);
  EXPECT_LT(nm::max_abs_diff(sv::bcr_solve(a, b), nm::solve(a.to_dense(), b)),
            1e-9);
}

TEST(Bcr, SingleAndTwoBlocks) {
  for (idx nb : {1, 2, 3}) {
    const auto a = random_system(nb, 4, 6 + static_cast<unsigned>(nb));
    const CMatrix b = nm::random_cmatrix(a.dim(), 2, 95);
    EXPECT_LT(nm::max_abs_diff(sv::bcr_solve(a, b),
                               nm::solve(a.to_dense(), b)),
              1e-9)
        << "nb=" << nb;
  }
}

TEST(Rgf, FirstColumnMatchesDenseInverse) {
  const auto a = random_system(5, 3, 7);
  const CMatrix ainv = nm::inverse(a.to_dense());
  const CMatrix q = sv::rgf_first_block_column(a);
  const CMatrix expected = ainv.block(0, 0, a.dim(), 3);
  EXPECT_LT(nm::max_abs_diff(q, expected), 1e-9);
}

TEST(Rgf, LastColumnMatchesDenseInverse) {
  const auto a = random_system(5, 3, 8);
  const CMatrix ainv = nm::inverse(a.to_dense());
  const CMatrix q = sv::rgf_last_block_column(a);
  const CMatrix expected = ainv.block(0, a.dim() - 3, a.dim(), 3);
  EXPECT_LT(nm::max_abs_diff(q, expected), 1e-9);
}

TEST(Rgf, BothColumnsStacked) {
  const auto a = random_system(4, 2, 9);
  const CMatrix q = sv::rgf_block_columns(a);
  EXPECT_EQ(q.cols(), 4);
  const CMatrix ainv = nm::inverse(a.to_dense());
  EXPECT_LT(nm::max_abs_diff(q.block(0, 0, a.dim(), 2),
                             ainv.block(0, 0, a.dim(), 2)),
            1e-9);
  EXPECT_LT(nm::max_abs_diff(q.block(0, 2, a.dim(), 2),
                             ainv.block(0, a.dim() - 2, a.dim(), 2)),
            1e-9);
}

namespace {

// Dense block-Thomas solve folding every column at every block row: the
// reference the column-skipping rgf_solve must match bit for bit.
CMatrix full_width_rgf_solve(const bm::BlockTridiag& a, const CMatrix& b) {
  const idx nb = a.num_blocks();
  const idx s = a.block_size();
  std::vector<CMatrix> c(static_cast<std::size_t>(nb));
  std::vector<CMatrix> y(static_cast<std::size_t>(nb));
  for (idx i = 0; i < nb; ++i) {
    CMatrix m = a.diag(i);
    CMatrix r = b.block(i * s, 0, s, b.cols());
    if (i > 0) {
      nm::gemm(a.lower(i - 1), c[static_cast<std::size_t>(i - 1)], m,
               cplx{-1.0}, cplx{1.0});
      nm::gemm(a.lower(i - 1), y[static_cast<std::size_t>(i - 1)], r,
               cplx{-1.0}, cplx{1.0});
    }
    const nm::LUFactor lu(std::move(m));
    if (i + 1 < nb) c[static_cast<std::size_t>(i)] = lu.solve(a.upper(i));
    y[static_cast<std::size_t>(i)] = lu.solve(r);
  }
  CMatrix x(a.dim(), b.cols());
  CMatrix xi = y[static_cast<std::size_t>(nb - 1)];
  x.set_block((nb - 1) * s, 0, xi);
  for (idx i = nb - 2; i >= 0; --i) {
    CMatrix next = y[static_cast<std::size_t>(i)];
    nm::gemm(c[static_cast<std::size_t>(i)], xi, next, cplx{-1.0},
             cplx{1.0});
    xi = std::move(next);
    x.set_block(i * s, 0, xi);
  }
  return x;
}

// The N-terminal RHS layout: an identity group per attachment block, in
// the given block order, then `modes` random columns per block occupying
// only that block row (injected states), with a -0.0 entry in each.
CMatrix terminal_rhs(idx nb, idx s, const std::vector<idx>& blocks,
                     idx modes) {
  const idx nc = static_cast<idx>(blocks.size());
  CMatrix b(nb * s, nc * (s + modes));
  for (idx p = 0; p < nc; ++p) {
    const idx row = blocks[static_cast<std::size_t>(p)] * s;
    for (idx i = 0; i < s; ++i) b(row + i, p * s + i) = cplx{1.0};
    const CMatrix inj =
        nm::random_cmatrix(s, modes, 500 + static_cast<unsigned>(p));
    for (idx j = 0; j < modes; ++j) {
      for (idx i = 0; i < s; ++i) b(row + i, nc * s + p * modes + j) = inj(i, j);
      b(row, nc * s + p * modes + j) = cplx{-0.0, 0.5};
    }
  }
  return b;
}

void expect_same_bits(const CMatrix& x, const CMatrix& ref) {
  ASSERT_EQ(x.rows(), ref.rows());
  ASSERT_EQ(x.cols(), ref.cols());
  for (idx i = 0; i < x.rows(); ++i)
    for (idx j = 0; j < x.cols(); ++j) {
      std::uint64_t bits[4];
      std::memcpy(&bits[0], &x(i, j), sizeof(cplx));
      std::memcpy(&bits[2], &ref(i, j), sizeof(cplx));
      EXPECT_EQ(bits[0], bits[2]) << "re (" << i << ", " << j << ")";
      EXPECT_EQ(bits[1], bits[3]) << "im (" << i << ", " << j << ")";
    }
}

}  // namespace

TEST(Rgf, SolveSkipsZeroPrefixBitIdentically) {
  // Columns folded from their first non-zero block row reproduce the
  // full-width fold in every bit (signs of zeros included), in both GEMM
  // routes: s = 3 keeps every product on the direct small-shape route,
  // s = 20 with up to 4 * 26 columns takes the packed one.
  for (const idx s : {3, 20}) {
    const idx nb = 6;
    const auto a = random_system(nb, s, 31 + static_cast<unsigned>(s));
    // Attachment blocks in the order the N-terminal solve builds them:
    // the lead pair first, then interior terminals.
    CMatrix b = terminal_rhs(nb, s, {0, nb - 1, 1, 3}, 6);
    expect_same_bits(sv::rgf_solve(a, b), full_width_rgf_solve(a, b));
    // All-zero columns among them (one of +0.0, one of -0.0 entries), and
    // one non-zero only in the last row.
    for (idx i = 0; i < a.dim(); ++i) b(i, 2) = cplx{0.0};
    for (idx i = 0; i < a.dim(); ++i) b(i, 3) = cplx{-0.0, -0.0};
    for (idx i = 0; i < a.dim(); ++i)
      b(i, 5) = i >= (nb - 1) * s ? cplx{0.25, -1.0} : cplx{0.0};
    expect_same_bits(sv::rgf_solve(a, b), full_width_rgf_solve(a, b));
    // A fully dense RHS.
    const CMatrix dense = nm::random_cmatrix(a.dim(), 7, 77);
    expect_same_bits(sv::rgf_solve(a, dense), full_width_rgf_solve(a, dense));
  }
  // A single block.
  const auto a1 = random_system(1, 5, 41);
  const CMatrix b1 = terminal_rhs(1, 5, {0}, 3);
  expect_same_bits(sv::rgf_solve(a1, b1), full_width_rgf_solve(a1, b1));
  // The fold is the solve: it still matches the dense reference.
  const auto a = random_system(5, 4, 43);
  const CMatrix b = terminal_rhs(5, 4, {0, 4, 2}, 2);
  EXPECT_LT(nm::max_abs_diff(sv::rgf_solve(a, b), nm::solve(a.to_dense(), b)),
            1e-9);
}

TEST(Rgf, DiagonalBlocksMatchDenseInverse) {
  const auto a = random_system(6, 3, 10);
  const CMatrix ainv = nm::inverse(a.to_dense());
  const auto diags = sv::rgf_diagonal_blocks(a);
  ASSERT_EQ(static_cast<idx>(diags.size()), 6);
  for (idx i = 0; i < 6; ++i)
    EXPECT_LT(nm::max_abs_diff(diags[static_cast<std::size_t>(i)],
                               ainv.block(i * 3, i * 3, 3, 3)),
              1e-9)
        << "block " << i;
}

TEST(Spike, PartitionValidation) {
  EXPECT_TRUE(sv::spike_partitioning_valid(8, 1));
  EXPECT_TRUE(sv::spike_partitioning_valid(8, 2));
  EXPECT_TRUE(sv::spike_partitioning_valid(8, 8));
  EXPECT_FALSE(sv::spike_partitioning_valid(8, 3));
  EXPECT_FALSE(sv::spike_partitioning_valid(8, 16));
  EXPECT_FALSE(sv::spike_partitioning_valid(8, 0));
}

class SpikePartitions : public ::testing::TestWithParam<int> {};

TEST_P(SpikePartitions, MatchesSinglePartitionRgf) {
  const int p = GetParam();
  const auto a = random_system(16, 3, 11);
  pp::DevicePool pool(std::max(2, p));
  sv::SpikeOptions opt;
  opt.partitions = p;
  const CMatrix q = sv::spike_block_columns(a, pool, opt);
  const CMatrix ref = sv::rgf_block_columns(a);
  EXPECT_LT(nm::max_abs_diff(q, ref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, SpikePartitions,
                         ::testing::Values(1, 2, 4, 8));

TEST(Spike, UnevenBlockCountsAcrossPartitions) {
  // 10 blocks over 4 partitions: sizes 2,3,2,3.
  const auto a = random_system(10, 2, 12);
  pp::DevicePool pool(4);
  sv::SpikeOptions opt;
  opt.partitions = 4;
  const CMatrix q = sv::spike_block_columns(a, pool, opt);
  EXPECT_LT(nm::max_abs_diff(q, sv::rgf_block_columns(a)), 1e-8);
}

TEST(Spike, FewerDevicesThanPartitions) {
  const auto a = random_system(8, 2, 13);
  pp::DevicePool pool(2);
  sv::SpikeOptions opt;
  opt.partitions = 4;  // partitions share devices round-robin
  EXPECT_LT(nm::max_abs_diff(sv::spike_block_columns(a, pool, opt),
                             sv::rgf_block_columns(a)),
            1e-8);
}

TEST(Spike, RecordsDeviceTraffic) {
  const auto a = random_system(8, 2, 14);
  pp::DevicePool pool(2);
  sv::SpikeOptions opt;
  opt.partitions = 2;
  sv::spike_block_columns(a, pool, opt);
  EXPECT_GT(pool.device(0).h2d_bytes(), 0u);
}

TEST(SplitSolve, ShermanMorrisonWoodburyIdentity) {
  // x from SplitSolve equals the direct solve of T = A - BC.
  const auto a = random_system(8, 3, 15);
  const idx s = 3;
  CMatrix sigma_l = nm::random_cmatrix(s, s, 50);
  CMatrix sigma_r = nm::random_cmatrix(s, s, 51);
  sigma_l *= cplx{0.3};
  sigma_r *= cplx{0.3};
  const CMatrix b_top = nm::random_cmatrix(s, 2, 52);
  const CMatrix b_bot = nm::random_cmatrix(s, 2, 53);

  pp::DevicePool pool(2);
  sv::SplitSolve ss(a, pool, {.partitions = 2});
  const CMatrix x = ss.solve(sigma_l, sigma_r, b_top, b_bot);

  const auto t = sv::apply_boundary(a, sigma_l, sigma_r);
  const CMatrix b = sv::expand_boundary_rhs(a.dim(), b_top, b_bot);
  const CMatrix ref = nm::solve(t.to_dense(), b);
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-8);
}

TEST(SplitSolve, MatchesBlockLUAndBcr) {
  const auto a = random_system(8, 2, 16);
  const idx s = 2;
  CMatrix sigma_l = nm::random_cmatrix(s, s, 60);
  CMatrix sigma_r = nm::random_cmatrix(s, s, 61);
  sigma_l *= cplx{0.2};
  sigma_r *= cplx{0.2};
  const CMatrix b_top = nm::random_cmatrix(s, 1, 62);
  const CMatrix b_bot = CMatrix(s, 1);

  pp::DevicePool pool(2);
  sv::SplitSolve ss(a, pool, {.partitions = 1});
  const CMatrix x = ss.solve(sigma_l, sigma_r, b_top, b_bot);

  const auto t = sv::apply_boundary(a, sigma_l, sigma_r);
  const CMatrix b = sv::expand_boundary_rhs(a.dim(), b_top, b_bot);
  EXPECT_LT(nm::max_abs_diff(x, sv::block_lu_solve(t, b)), 1e-8);
  EXPECT_LT(nm::max_abs_diff(x, sv::bcr_solve(t, b)), 1e-8);
}

TEST(SplitSolve, PreprocessingOverlapsWithBoundaryWork) {
  // Step 1 runs without Sigma; Q must be available and correct before any
  // boundary data exists.
  const auto a = random_system(6, 2, 17);
  pp::DevicePool pool(2);
  sv::SplitSolve ss(a, pool, {.partitions = 2});
  const CMatrix& q = ss.preprocessed_q();
  EXPECT_EQ(q.rows(), a.dim());
  EXPECT_EQ(q.cols(), 4);
  EXPECT_LT(nm::max_abs_diff(q, sv::rgf_block_columns(a)), 1e-8);
}

TEST(SplitSolve, ZeroSigmaReducesToOpenSystem) {
  const auto a = random_system(5, 2, 18);
  const CMatrix zero(2, 2);
  const CMatrix b_top = nm::random_cmatrix(2, 1, 70);
  const CMatrix b_bot = nm::random_cmatrix(2, 1, 71);
  pp::DevicePool pool(2);
  sv::SplitSolve ss(a, pool, {});
  const CMatrix x = ss.solve(zero, zero, b_top, b_bot);
  const CMatrix ref =
      nm::solve(a.to_dense(), sv::expand_boundary_rhs(a.dim(), b_top, b_bot));
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-9);
}

TEST(SplitSolve, InvalidPartitionsThrow) {
  const auto a = random_system(4, 2, 19);
  pp::DevicePool pool(2);
  EXPECT_THROW(sv::SplitSolve(a, pool, {.partitions = 3}),
               std::invalid_argument);
  EXPECT_THROW(sv::SplitSolve(a, pool, {.partitions = 8}),
               std::invalid_argument);
}

TEST(SplitSolve, ManyRhsColumns) {
  const auto a = random_system(6, 3, 20);
  const idx s = 3;
  CMatrix sigma_l = nm::random_cmatrix(s, s, 80) * cplx{0.1};
  CMatrix sigma_r = nm::random_cmatrix(s, s, 81) * cplx{0.1};
  const CMatrix b_top = nm::random_cmatrix(s, 7, 82);
  const CMatrix b_bot = nm::random_cmatrix(s, 7, 83);
  pp::DevicePool pool(4);
  sv::SplitSolve ss(a, pool, {.partitions = 2});
  const CMatrix x = ss.solve(sigma_l, sigma_r, b_top, b_bot);
  const auto t = sv::apply_boundary(a, sigma_l, sigma_r);
  const CMatrix ref =
      nm::solve(t.to_dense(), sv::expand_boundary_rhs(a.dim(), b_top, b_bot));
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-8);
}

// Property sweep: SplitSolve == dense reference across system shapes and
// partition counts.
struct ShapeParam {
  idx nb;
  idx s;
  int partitions;
};

class SplitSolveShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(SplitSolveShapes, AgreesWithDense) {
  const auto [nb, s, p] = GetParam();
  const auto a = random_system(nb, s, 333 + static_cast<unsigned>(nb * s));
  CMatrix sigma_l = nm::random_cmatrix(s, s, 90) * cplx{0.25};
  CMatrix sigma_r = nm::random_cmatrix(s, s, 91) * cplx{0.25};
  const CMatrix b_top = nm::random_cmatrix(s, 2, 92);
  const CMatrix b_bot = nm::random_cmatrix(s, 2, 93);
  pp::DevicePool pool(std::max(2, p));
  sv::SplitSolve ss(a, pool, {.partitions = p});
  const CMatrix x = ss.solve(sigma_l, sigma_r, b_top, b_bot);
  const auto t = sv::apply_boundary(a, sigma_l, sigma_r);
  const CMatrix ref =
      nm::solve(t.to_dense(), sv::expand_boundary_rhs(a.dim(), b_top, b_bot));
  EXPECT_LT(nm::max_abs_diff(x, ref), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SplitSolveShapes,
    ::testing::Values(ShapeParam{2, 2, 1}, ShapeParam{4, 1, 2},
                      ShapeParam{8, 2, 4}, ShapeParam{12, 3, 4},
                      ShapeParam{16, 2, 8}, ShapeParam{9, 4, 2},
                      ShapeParam{32, 2, 8}));
