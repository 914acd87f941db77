// OBC solver tests built around analytically solvable leads.
//
// The main workhorse is the 1-D single-orbital chain (onsite 0, hopping t,
// orthogonal basis): E(k) = 2 t cos k, and the retarded boundary self-energy
// is Sigma(E) = E/2 - i sqrt(t^2 - E^2/4) inside the band.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dft/basis.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "numeric/blas.hpp"
#include "numeric/eig.hpp"
#include "numeric/lu.hpp"
#include "obc/companion.hpp"
#include "obc/decimation.hpp"
#include "obc/feast.hpp"
#include "obc/modes.hpp"
#include "obc/self_energy.hpp"
#include "obc/shift_invert.hpp"
#include "test_leads.hpp"

namespace nm = omenx::numeric;
namespace ob = omenx::obc;
namespace df = omenx::dft;
using nm::CMatrix;
using nm::cplx;
using nm::idx;
using ob::test::random_lead_nbw;
using ob::test::utb_lead;

namespace {

constexpr double kHop = -1.0;

df::LeadBlocks chain_lead(double t = kHop, double onsite = 0.0) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  lead.h[0] = CMatrix{{cplx{onsite}}};
  lead.h[1] = CMatrix{{cplx{t}}};
  lead.s[0] = CMatrix::identity(1);
  lead.s[1] = CMatrix(1, 1);
  return lead;
}

df::FoldedLead folded_chain(double t = kHop, double onsite = 0.0) {
  df::FoldedLead f;
  f.h00 = CMatrix{{cplx{onsite}}};
  f.h01 = CMatrix{{cplx{t}}};
  f.s00 = CMatrix::identity(1);
  f.s01 = CMatrix(1, 1);
  return f;
}

// Random Hermitian multi-orbital lead with nonsingular coupling (NBW = 1).
df::LeadBlocks random_lead(idx s, unsigned seed) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  CMatrix a = nm::random_cmatrix(s, s, seed);
  lead.h[0] = a + nm::dagger(a);
  lead.h[1] = nm::random_cmatrix(s, s, seed + 1);
  for (idx i = 0; i < s; ++i) lead.h[1](i, i) += cplx{2.0};
  lead.s[0] = CMatrix::identity(s);
  lead.s[1] = CMatrix(s, s);
  return lead;
}



df::FoldedLead fold_of(const df::LeadBlocks& lead) { return df::fold_lead(lead); }

cplx analytic_sigma(double e, double t) {
  // Retarded: Im Sigma < 0 inside the band.
  const double disc = t * t - e * e / 4.0;
  if (disc > 0.0) return cplx{e / 2.0, -std::sqrt(disc)};
  const double root = std::sqrt(-disc);
  // Outside the band pick the decaying branch.
  const double sign = e > 0.0 ? -1.0 : 1.0;
  return cplx{e / 2.0 + sign * root, 0.0};
}

}  // namespace

TEST(Companion, ChainEigenvaluesOnUnitCircleInsideBand) {
  const auto lead = chain_lead();
  const ob::CompanionPencil pencil(lead, cplx{-1.0});
  EXPECT_EQ(pencil.dim(), 2);
  const auto eig = nm::generalized_eig(pencil.a_dense(), pencil.b_dense());
  ASSERT_EQ(eig.values.size(), 2u);
  for (const auto lam : eig.values) EXPECT_NEAR(std::abs(lam), 1.0, 1e-10);
  // E = -2 cos k = -1 => k = +-pi/3 => lambda = e^{+-i pi/3}.
  const double expected_re = std::cos(omenx::numeric::kPi / 3.0);
  for (const auto lam : eig.values) EXPECT_NEAR(lam.real(), expected_re, 1e-10);
}

TEST(Companion, PolynomialEvaluation) {
  const auto lead = chain_lead();
  const cplx e{0.3};
  const ob::CompanionPencil pencil(lead, e);
  // P(z) = Htilde_{-1} + Htilde_0 z + Htilde_1 z^2 for the chain:
  // = t + (0 - E) z + t z^2 (t real, onsite 0, S=I).
  const cplx z{0.7, 0.4};
  const CMatrix p = pencil.polynomial(z);
  const cplx expected = cplx{kHop} + (cplx{0.0} - e) * z + cplx{kHop} * z * z;
  EXPECT_LT(std::abs(p(0, 0) - expected), 1e-13);
}

// x_0 = P(z)^{-1} reduced_rhs(z) must be the first block of the dense
// solution of (z B - A) X = B Y.
static void expect_reduced_solve_matches_dense(const ob::CompanionPencil& pencil,
                                        cplx z, idx m, unsigned seed) {
  const CMatrix y = nm::random_cmatrix(pencil.dim(), m, seed);
  const CMatrix x0 = nm::solve(pencil.polynomial(z),
                               pencil.reduced_rhs(z, pencil.shifted_rhs(y)));
  const CMatrix zb_a = pencil.b_dense() * z - pencil.a_dense();
  const CMatrix ref = nm::solve(zb_a, nm::matmul(pencil.b_dense(), y));
  EXPECT_LT(nm::max_abs_diff(x0, ref.block(0, 0, pencil.block_size(), m)),
            1e-10 * nm::max_abs(ref));
}

TEST(Companion, ReducedSolveMatchesDense) {
  const ob::CompanionPencil pencil(random_lead(3, 7), cplx{0.4, 0.0});
  expect_reduced_solve_matches_dense(pencil, cplx{1.3, 0.8}, 4, 21);
}

TEST(Companion, ReducedSolveMultiNeighbor) {
  // NBW = 2 chain: second-neighbour hopping.
  df::LeadBlocks lead;
  lead.h.resize(3);
  lead.s.resize(3);
  lead.h[0] = CMatrix{{cplx{0.1}}};
  lead.h[1] = CMatrix{{cplx{-1.0}}};
  lead.h[2] = CMatrix{{cplx{-0.2}}};
  lead.s[0] = CMatrix::identity(1);
  lead.s[1] = CMatrix(1, 1);
  lead.s[2] = CMatrix(1, 1);
  const ob::CompanionPencil pencil(lead, cplx{0.3});
  EXPECT_EQ(pencil.dim(), 4);
  expect_reduced_solve_matches_dense(pencil, cplx{0.9, -0.3}, 2, 31);
  expect_reduced_solve_matches_dense(
      ob::CompanionPencil(random_lead_nbw(3, 3, 17), cplx{0.2}),
      cplx{-0.6, 1.1}, 5, 32);
}

TEST(Companion, StructuredProductsMatchDense) {
  for (const idx nbw : {1, 2, 3}) {
    const ob::CompanionPencil pencil(random_lead_nbw(4, nbw, 40 + nbw),
                                     cplx{0.3, 0.01});
    const CMatrix x = nm::random_cmatrix(pencil.dim(), 5, 9);
    EXPECT_LT(nm::max_abs_diff(pencil.apply_a(x),
                               nm::matmul(pencil.a_dense(), x)),
              1e-12);
    EXPECT_LT(nm::max_abs_diff(pencil.apply_b(x),
                               nm::matmul(pencil.b_dense(), x)),
              1e-12);
  }
}

TEST(Modes, ChainClassificationAndVelocity) {
  const auto lead = chain_lead();
  const double e = -1.0;
  const auto modes = ob::compute_modes_shift_invert(lead, cplx{e});
  ASSERT_EQ(modes.lambda.size(), 2u);
  EXPECT_EQ(modes.num_propagating_right, 1);
  EXPECT_EQ(modes.num_propagating_left, 1);
  // v = dE/dk = -2 t sin k; for t=-1, E=-1 => k=pi/3 => v = 2 sin(pi/3).
  const double expected_v = 2.0 * std::sin(omenx::numeric::kPi / 3.0);
  for (std::size_t m = 0; m < modes.lambda.size(); ++m) {
    if (modes.kind[m] == ob::ModeKind::kPropagatingRight)
      EXPECT_NEAR(modes.velocity[m], expected_v, 1e-8);
    else
      EXPECT_NEAR(modes.velocity[m], -expected_v, 1e-8);
  }
}

TEST(Modes, OutsideBandModesAreEvanescent) {
  const auto lead = chain_lead();
  const auto modes = ob::compute_modes_shift_invert(lead, cplx{3.0});
  EXPECT_EQ(modes.num_propagating_right, 0);
  EXPECT_EQ(modes.num_propagating_left, 0);
  ASSERT_EQ(modes.lambda.size(), 2u);
  // One decaying each way, and their phases are reciprocal.
  const double m0 = std::abs(modes.lambda[0]);
  const double m1 = std::abs(modes.lambda[1]);
  EXPECT_NEAR(m0 * m1, 1.0, 1e-8);
  EXPECT_NE(modes.kind[0], modes.kind[1]);
}

TEST(SelfEnergy, ChainMatchesAnalyticInsideBand) {
  const auto lead = chain_lead();
  for (const double e : {-1.5, -0.5, 0.0, 0.7, 1.8}) {
    const auto modes = ob::compute_modes_shift_invert(lead, cplx{e});
    const auto ops = ob::lead_operators(folded_chain(), cplx{e});
    const auto bnd = ob::build_boundary(modes, ops);
    const cplx expected = analytic_sigma(e, kHop);
    EXPECT_LT(std::abs(bnd.sigma_l(0, 0) - expected), 1e-7) << "E=" << e;
    EXPECT_LT(std::abs(bnd.sigma_r(0, 0) - expected), 1e-7) << "E=" << e;
  }
}

TEST(SelfEnergy, ModeBasedMatchesDecimation) {
  const auto lead = random_lead(4, 42);
  const cplx e{0.25};
  const auto modes = ob::compute_modes_shift_invert(lead, e);
  const auto ops = ob::lead_operators(fold_of(lead), e);
  const auto bnd = ob::build_boundary(modes, ops);
  ob::DecimationOptions dopt;
  dopt.eta = 1e-8;
  const CMatrix sl = ob::sigma_left_decimation(ops, dopt);
  const CMatrix sr = ob::sigma_right_decimation(ops, dopt);
  EXPECT_LT(nm::max_abs_diff(bnd.sigma_l, sl), 1e-5);
  EXPECT_LT(nm::max_abs_diff(bnd.sigma_r, sr), 1e-5);
}

TEST(SelfEnergy, BroadeningMatricesArePositiveSemiDefinite) {
  const auto lead = random_lead(4, 43);
  const cplx e{0.1};
  const auto modes = ob::compute_modes_shift_invert(lead, e);
  const auto ops = ob::lead_operators(fold_of(lead), e);
  const auto bnd = ob::build_boundary(modes, ops);
  for (const CMatrix* sig : {&bnd.sigma_l, &bnd.sigma_r}) {
    CMatrix gamma = *sig - nm::dagger(*sig);
    gamma *= cplx{0.0, 1.0};  // Gamma = i (Sigma - Sigma^H)
    const auto he = nm::hermitian_eig(gamma);
    for (const double v : he.values) EXPECT_GT(v, -1e-8);
  }
}

TEST(SelfEnergy, InjectionCountMatchesPropagatingModes) {
  const auto lead = chain_lead();
  const auto modes = ob::compute_modes_shift_invert(lead, cplx{-1.0});
  const auto ops = ob::lead_operators(folded_chain(), cplx{-1.0});
  const auto bnd = ob::build_boundary(modes, ops);
  EXPECT_EQ(bnd.num_incident, 1);
  EXPECT_EQ(bnd.inj.cols(), 1);
  EXPECT_GT(std::abs(bnd.inj(0, 0)), 0.0);
  ASSERT_EQ(bnd.inj_velocity.size(), 1u);
  EXPECT_GT(bnd.inj_velocity[0], 0.0);
}

TEST(Feast, AnnulusSelectsSubsetOfSpectrum) {
  // Fig. 5: only modes inside 1/R <= |lambda| <= R are retained.
  const auto lead = random_lead(4, 44);
  const cplx e{0.3};
  const auto all = ob::compute_modes_shift_invert(lead, e);
  ob::FeastOptions fopt;
  fopt.annulus_r = 3.0;
  ob::FeastStats stats;
  const auto feast = ob::compute_modes_feast(lead, e, fopt, &stats);
  idx inside = 0;
  for (const auto lam : all.lambda) {
    const double m = std::abs(lam);
    if (m >= 1.0 / fopt.annulus_r && m <= fopt.annulus_r) ++inside;
  }
  EXPECT_EQ(static_cast<idx>(feast.lambda.size()), inside);
  EXPECT_LT(stats.max_residual, 1e-6);
  for (const auto lam : feast.lambda) {
    const double m = std::abs(lam);
    EXPECT_GE(m, 1.0 / fopt.annulus_r - 1e-8);
    EXPECT_LE(m, fopt.annulus_r + 1e-8);
  }
}

TEST(Feast, EigenvaluesMatchShiftInvert) {
  const auto lead = random_lead(3, 45);
  const cplx e{-0.2};
  const auto all = ob::compute_modes_shift_invert(lead, e);
  ob::FeastOptions fopt;
  fopt.annulus_r = 4.0;
  const auto feast = ob::compute_modes_feast(lead, e, fopt);
  // Every FEAST eigenvalue appears in the full spectrum.
  for (const auto lam : feast.lambda) {
    double best = 1e9;
    for (const auto ref : all.lambda)
      best = std::min(best, std::abs(lam - ref));
    EXPECT_LT(best, 1e-6);
  }
}

TEST(Feast, SelfEnergyAgreesWithDecimationOnChain) {
  const auto lead = chain_lead();
  const cplx e{-0.9};
  ob::FeastOptions fopt;
  fopt.annulus_r = 50.0;  // generous annulus: all modes captured
  const auto modes = ob::compute_modes_feast(lead, e, fopt);
  const auto ops = ob::lead_operators(folded_chain(), e);
  const auto bnd = ob::build_boundary(modes, ops);
  EXPECT_LT(std::abs(bnd.sigma_l(0, 0) - analytic_sigma(e.real(), kHop)),
            1e-6);
}

TEST(Feast, SerialAndParallelPointsAgree) {
  // Points solve independently and Q sums them in point order either way,
  // so the two runs agree bit for bit.
  const auto check = [](const df::LeadBlocks& lead, cplx e) {
    ob::FeastOptions ser;
    ser.parallel_points = false;
    ob::FeastOptions par;
    par.parallel_points = true;
    const auto a = ob::compute_modes_feast(lead, e, ser);
    const auto b = ob::compute_modes_feast(lead, e, par);
    ASSERT_EQ(a.lambda.size(), b.lambda.size());
    ASSERT_FALSE(a.lambda.empty());
    for (std::size_t i = 0; i < a.lambda.size(); ++i)
      EXPECT_EQ(a.lambda[i], b.lambda[i]);
    ASSERT_EQ(a.vectors.rows(), b.vectors.rows());
    ASSERT_EQ(a.vectors.cols(), b.vectors.cols());
    for (idx i = 0; i < a.vectors.size(); ++i)
      EXPECT_EQ(a.vectors.data()[i], b.vectors.data()[i]);
  };
  check(random_lead(3, 46), cplx{0.15});
  check(utb_lead(), cplx{0.4});
}

TEST(Feast, ContourFilterMatchesDensePencil) {
  // Q = sum_p w_p (z_p B - A)^{-1} B Y, once through the reduced filter and
  // once through dense N_BC-sized solves of the companion pencil.
  const auto check = [](const df::LeadBlocks& lead, cplx e,
                        std::vector<ob::detail::ContourPoint> points) {
    const ob::CompanionPencil pencil(lead, e);
    const CMatrix y = nm::random_cmatrix(pencil.dim(), 6, 77);
    ob::detail::ContourFilter filter(pencil, std::move(points),
                                     /*parallel_points=*/true);
    const CMatrix a = pencil.a_dense();
    const CMatrix b = pencil.b_dense();
    const CMatrix by = nm::matmul(b, y);
    CMatrix ref(pencil.dim(), y.cols());
    for (const auto& pt : filter.points()) {
      CMatrix x = nm::solve(b * pt.z - a, by);
      x *= pt.weight;
      ref += x;
    }
    // Twice: the second pass reuses the factors of the first.
    for (int pass = 0; pass < 2; ++pass)
      EXPECT_LT(nm::max_abs_diff(filter.apply(y), ref), 1e-12 * nm::max_abs(ref))
          << "NBW " << lead.nbw() << " pass " << pass;
    EXPECT_EQ(filter.factorizations(),
              static_cast<idx>(filter.points().size()));
  };
  const auto annulus = ob::detail::annulus_contour;
  check(random_lead_nbw(3, 1, 51), cplx{0.2}, annulus(3.0, 8));
  check(random_lead_nbw(3, 2, 52), cplx{-0.1, 0.01}, annulus(3.0, 8));
  check(random_lead_nbw(2, 3, 53), cplx{0.3}, annulus(2.0, 8));
  check(utb_lead(), cplx{0.4}, annulus(20.0, 16));
  // On the annulus the moments sum_p w_p z_p^k (k < d - 1) vanish; three
  // arbitrary points with arbitrary weights exercise that term of Q too.
  const std::vector<ob::detail::ContourPoint> loose = {
      {cplx{1.3, 0.4}, cplx{0.2, 1.0}},
      {cplx{-0.7, 0.9}, cplx{0.5, -0.3}},
      {cplx{0.4, -1.1}, cplx{-0.8, 0.6}}};
  check(random_lead_nbw(3, 2, 54), cplx{0.1}, loose);
  check(random_lead_nbw(2, 3, 55), cplx{-0.2}, loose);
}

TEST(Feast, FactorsEachContourPointOncePerCall) {
  // 2 * num_points factorizations per call however many filter passes and
  // subspace-growth restarts the call makes.
  const ob::FeastOptions fopt;
  bool multi_pass = false;
  const auto lead = utb_lead();
  for (const double e : {0.4, 0.9, 1.2}) {  // 1 + 4 passes each
    ob::FeastStats stats;
    ob::compute_modes_feast(lead, cplx{e}, fopt, &stats);
    EXPECT_EQ(stats.factorizations, 2 * fopt.num_points);
    multi_pass = multi_pass || stats.iterations() > 1;
  }
  EXPECT_TRUE(multi_pass);
  // A 2-column subspace saturates and restarts with a larger one: every
  // attempt but the last ends on a full-rank pass that ran no Rayleigh-Ritz.
  ob::FeastOptions narrow;
  narrow.subspace = 2;
  ob::FeastStats stats;
  ob::compute_modes_feast(random_lead(4, 44), cplx{0.3}, narrow, &stats);
  EXPECT_GT(stats.subspace_used(), 2);
  ASSERT_GT(stats.attempts.size(), 1u);
  for (std::size_t a = 0; a + 1 < stats.attempts.size(); ++a) {
    EXPECT_EQ(stats.attempts[a + 1].subspace, 2 * stats.attempts[a].subspace);
    EXPECT_EQ(stats.attempts[a].ranks.back(), 0);
  }
  EXPECT_GT(stats.attempts.back().ranks.back(), 0);
  EXPECT_EQ(stats.factorizations, 2 * narrow.num_points);
}

TEST(Decimation, ChainSurfaceGfAnalytic) {
  const auto ops = ob::lead_operators(folded_chain(), cplx{-1.0});
  ob::DecimationOptions dopt;
  dopt.eta = 1e-9;
  const CMatrix sl = ob::sigma_left_decimation(ops, dopt);
  EXPECT_LT(std::abs(sl(0, 0) - analytic_sigma(-1.0, kHop)), 1e-6);
}

TEST(Decimation, RetardedSignConvention) {
  // Inside the band, Im Sigma < 0 (retarded) on both sides.
  for (const double e : {-1.0, 0.0, 1.0}) {
    const auto ops = ob::lead_operators(folded_chain(), cplx{e});
    EXPECT_LT(ob::sigma_left_decimation(ops)(0, 0).imag(), 0.0);
    EXPECT_LT(ob::sigma_right_decimation(ops)(0, 0).imag(), 0.0);
  }
}

TEST(PseudoInverse, RecoversInverseForSquareFullRank) {
  CMatrix a = nm::random_cmatrix(5, 5, 47);
  for (idx i = 0; i < 5; ++i) a(i, i) += cplx{3.0};
  const CMatrix pinv = ob::pseudo_inverse(a, 1e-14);
  EXPECT_LT(nm::max_abs_diff(nm::matmul(pinv, a), CMatrix::identity(5)), 1e-8);
}

TEST(PseudoInverse, LeastSquaresPropertyTallMatrix) {
  const CMatrix u = nm::random_cmatrix(8, 3, 48);
  const CMatrix pinv = ob::pseudo_inverse(u, 1e-14);
  // pinv * u = I (3x3).
  EXPECT_LT(nm::max_abs_diff(nm::matmul(pinv, u), CMatrix::identity(3)), 1e-8);
}

// Energy sweep property: mode-based self-energy matches decimation across
// the band for a multi-orbital lead.
class SelfEnergySweep : public ::testing::TestWithParam<double> {};

TEST_P(SelfEnergySweep, ModeVsDecimation) {
  const auto lead = random_lead(3, 99);
  const cplx e{GetParam()};
  const auto modes = ob::compute_modes_shift_invert(lead, e);
  const auto ops = ob::lead_operators(fold_of(lead), e);
  const auto bnd = ob::build_boundary(modes, ops);
  ob::DecimationOptions dopt;
  dopt.eta = 1e-8;
  EXPECT_LT(nm::max_abs_diff(bnd.sigma_l, ob::sigma_left_decimation(ops, dopt)),
            1e-4);
}

INSTANTIATE_TEST_SUITE_P(Energies, SelfEnergySweep,
                         ::testing::Values(-2.0, -1.0, -0.3, 0.2, 0.9, 2.1));
