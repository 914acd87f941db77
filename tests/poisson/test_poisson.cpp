#include <gtest/gtest.h>

#include <cmath>

#include "poisson/poisson1d.hpp"
#include "poisson/scf.hpp"

namespace ps = omenx::poisson;
namespace lt = omenx::lattice;

TEST(Thomas, SolvesKnownTridiagonal) {
  // -2x_i + x_{i-1} + x_{i+1} = d, 3x3 with known answer.
  std::vector<double> a{0.0, 1.0, 1.0};
  std::vector<double> b{-2.0, -2.0, -2.0};
  std::vector<double> c{1.0, 1.0, 0.0};
  // Pick x = (1, 2, 3): d = (-2+2, 1-4+3, 2-6) = (0, 0, -4).
  std::vector<double> d{0.0, 0.0, -4.0};
  const auto x = ps::thomas_solve(a, b, c, d);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Thomas, SizeMismatchThrows) {
  EXPECT_THROW(ps::thomas_solve({0.0}, {1.0, 1.0}, {0.0}, {1.0}),
               std::invalid_argument);
}

TEST(Poisson, LaplaceRespectsBoundaryConditions) {
  const lt::DeviceRegions regions{10, 8, 10};
  const auto v = ps::solve_device_potential(regions, 0.5, 0.3, {});
  ASSERT_EQ(static_cast<int>(v.size()), regions.total());
  EXPECT_NEAR(v.front(), 0.0, 1e-12);
  EXPECT_NEAR(v.back(), -0.3, 1e-12);
}

TEST(Poisson, GateLowersChannelBarrier) {
  const lt::DeviceRegions regions{12, 10, 12};
  const auto v_off = ps::solve_device_potential(regions, 0.0, 0.1, {});
  const auto v_on = ps::solve_device_potential(regions, 0.6, 0.1, {});
  // Mid-gate potential energy drops as Vgs increases (barrier lowering).
  const std::size_t mid = 12 + 5;
  EXPECT_LT(v_on[mid], v_off[mid] - 0.3);
}

TEST(Poisson, ScreeningLengthControlsSharpness) {
  const lt::DeviceRegions regions{15, 10, 15};
  ps::PoissonOptions tight;
  tight.screening_length_cells = 1.0;
  ps::PoissonOptions loose;
  loose.screening_length_cells = 8.0;
  const auto vt = ps::solve_device_potential(regions, 0.5, 0.0, {}, tight);
  const auto vl = ps::solve_device_potential(regions, 0.5, 0.0, {}, loose);
  // With tight screening the mid-gate potential pins closer to -Vgs.
  const std::size_t mid = 15 + 5;
  EXPECT_LT(std::abs(vt[mid] + 0.5), std::abs(vl[mid] + 0.5));
}

TEST(Poisson, ChargeShiftsPotential) {
  const lt::DeviceRegions regions{8, 6, 8};
  ps::PoissonOptions opt;
  opt.charge_coupling = 0.5;
  std::vector<double> rho(static_cast<std::size_t>(regions.total()), 0.0);
  rho[11] = 1.0;  // electron charge in the channel
  const auto v0 = ps::solve_device_potential(regions, 0.2, 0.0, {}, opt);
  const auto v1 = ps::solve_device_potential(regions, 0.2, 0.0, rho, opt);
  // Electron charge raises the local potential energy (repulsion).
  EXPECT_GT(v1[11], v0[11]);
}

TEST(Poisson, InvalidInputsThrow) {
  const lt::DeviceRegions regions{1, 1, 0};
  EXPECT_THROW(ps::solve_device_potential(regions, 0.0, 0.0, {}),
               std::invalid_argument);
  const lt::DeviceRegions ok{4, 4, 4};
  EXPECT_THROW(
      ps::solve_device_potential(ok, 0.0, 0.0, std::vector<double>(3, 0.0)),
      std::invalid_argument);
  ps::PoissonOptions bad;
  bad.screening_length_cells = 0.0;
  EXPECT_THROW(ps::solve_device_potential(ok, 0.0, 0.0, {}, bad),
               std::invalid_argument);
}

TEST(Scf, ConvergesWithLinearChargeModel) {
  const lt::DeviceRegions regions{8, 6, 8};
  ps::ScfOptions opt;
  opt.poisson.charge_coupling = 0.2;
  opt.tol = 1e-8;
  opt.max_iter = 200;
  // Charge responds linearly (and weakly) to the local potential.
  auto charge = [](const std::vector<double>& v) {
    std::vector<double> rho(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) rho[i] = -0.3 * v[i];
    return rho;
  };
  const auto res =
      ps::self_consistent_potential(regions, 0.4, 0.2, charge, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.residual, 1e-8);
  EXPECT_GT(res.iterations, 1);
  // Converged state is a fixed point: one more Poisson solve changes nothing.
  const auto v_again = ps::solve_device_potential(regions, 0.4, 0.2,
                                                  charge(res.potential),
                                                  opt.poisson);
  double diff = 0.0;
  for (std::size_t i = 0; i < v_again.size(); ++i)
    diff = std::max(diff, std::abs(v_again[i] - res.potential[i]));
  EXPECT_LT(diff, 1e-6);
}

TEST(Scf, ZeroChargeModelConvergesImmediately) {
  const lt::DeviceRegions regions{6, 4, 6};
  auto charge = [](const std::vector<double>& v) {
    return std::vector<double>(v.size(), 0.0);
  };
  const auto res = ps::self_consistent_potential(regions, 0.3, 0.1, charge);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 1);
}

namespace {

// A stiff linear charge response: strong coupling makes the damped linear
// iteration crawl (spectral radius near 1), the regime the paper's 40-50
// production iterations live in.
ps::ScfOptions stiff_options() {
  ps::ScfOptions opt;
  opt.poisson.charge_coupling = 0.8;
  opt.tol = 1e-9;
  opt.charge_tol = 1e-8;
  opt.max_iter = 400;
  opt.mixing = 0.3;
  return opt;
}

std::vector<double> stiff_charge(const std::vector<double>& v) {
  std::vector<double> rho(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) rho[i] = -0.72 * v[i];
  return rho;
}

}  // namespace

TEST(Scf, AndersonConvergesMuchFasterThanLinear) {
  const lt::DeviceRegions regions{10, 8, 10};
  ps::ScfOptions linear = stiff_options();
  linear.anderson_depth = 0;
  ps::ScfOptions anderson = stiff_options();
  anderson.anderson_depth = 4;

  const auto rl =
      ps::self_consistent_potential(regions, 0.5, 0.2, stiff_charge, linear);
  const auto ra =
      ps::self_consistent_potential(regions, 0.5, 0.2, stiff_charge, anderson);
  ASSERT_TRUE(rl.converged);
  ASSERT_TRUE(ra.converged);
  // Same fixed point...
  double diff = 0.0;
  for (std::size_t i = 0; i < rl.potential.size(); ++i)
    diff = std::max(diff, std::abs(rl.potential[i] - ra.potential[i]));
  EXPECT_LT(diff, 1e-7);
  // ... in at most half the iterations (in practice far fewer).
  EXPECT_LE(2 * ra.iterations, rl.iterations)
      << "anderson " << ra.iterations << " vs linear " << rl.iterations;
  // The accelerated steps actually engaged.
  int anderson_steps = 0;
  for (const auto& it : ra.history) anderson_steps += it.anderson ? 1 : 0;
  EXPECT_GT(anderson_steps, 0);
}

TEST(Scf, AndersonConvergesWhereLinearMixingDiverges) {
  // Past the stability edge of the damped iteration (|1 - m + m*J| > 1 for
  // the dominant mode) linear mixing blows up; the Anderson extrapolation
  // still finds the fixed point.
  const lt::DeviceRegions regions{10, 8, 10};
  auto charge = [](const std::vector<double>& v) {
    std::vector<double> rho(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) rho[i] = -0.9 * v[i];
    return rho;
  };
  ps::ScfOptions linear = stiff_options();
  linear.anderson_depth = 0;
  linear.max_iter = 300;
  ps::ScfOptions anderson = stiff_options();
  anderson.anderson_depth = 4;

  const auto rl =
      ps::self_consistent_potential(regions, 0.5, 0.2, charge, linear);
  const auto ra =
      ps::self_consistent_potential(regions, 0.5, 0.2, charge, anderson);
  EXPECT_FALSE(rl.converged);
  EXPECT_TRUE(ra.converged);
  EXPECT_LT(ra.residual, 1e-9);
}

TEST(Scf, DepthZeroNeverUsesAnderson) {
  const lt::DeviceRegions regions{8, 6, 8};
  ps::ScfOptions opt = stiff_options();
  opt.anderson_depth = 0;
  opt.max_iter = 500;
  const auto res =
      ps::self_consistent_potential(regions, 0.4, 0.1, stiff_charge, opt);
  ASSERT_TRUE(res.converged);
  for (const auto& it : res.history) EXPECT_FALSE(it.anderson);
}

TEST(Scf, HistoryRecordsEveryIteration) {
  const lt::DeviceRegions regions{8, 6, 8};
  ps::ScfOptions opt = stiff_options();
  const auto res =
      ps::self_consistent_potential(regions, 0.4, 0.2, stiff_charge, opt);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(static_cast<int>(res.history.size()), res.iterations);
  // Final entry mirrors the result's residuals.
  EXPECT_DOUBLE_EQ(res.history.back().potential_residual, res.residual);
  EXPECT_DOUBLE_EQ(res.history.back().charge_residual, res.charge_residual);
  // Converged means both halves of the dual criterion hold.
  EXPECT_LT(res.residual, opt.tol);
  EXPECT_LT(res.charge_residual, opt.charge_tol);
}

TEST(Scf, WarmStartFromConvergedPotentialIsImmediate) {
  const lt::DeviceRegions regions{10, 8, 10};
  ps::ScfOptions opt = stiff_options();
  const auto cold =
      ps::self_consistent_potential(regions, 0.5, 0.2, stiff_charge, opt);
  ASSERT_TRUE(cold.converged);
  const auto warm = ps::self_consistent_potential(regions, 0.5, 0.2,
                                                  stiff_charge, opt,
                                                  &cold.potential);
  ASSERT_TRUE(warm.converged);
  // Restarting at the fixed point needs only the dual-criterion check
  // itself (iteration 1 measures the charge step from the zero seed).
  EXPECT_LE(warm.iterations, 2);
  EXPECT_LT(warm.iterations, cold.iterations);
  // Seeding the converged charge too removes even that extra evaluation.
  const auto warmest = ps::self_consistent_potential(
      regions, 0.5, 0.2, stiff_charge, opt, &cold.potential, &cold.charge);
  ASSERT_TRUE(warmest.converged);
  EXPECT_EQ(warmest.iterations, 1);
}

TEST(Scf, NonConvergedIterationsMatchHistorySize) {
  const lt::DeviceRegions regions{6, 4, 6};
  ps::ScfOptions opt = stiff_options();
  opt.anderson_depth = 0;
  opt.max_iter = 5;  // far too few for the stiff model
  const auto res =
      ps::self_consistent_potential(regions, 0.4, 0.2, stiff_charge, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 5);
  EXPECT_EQ(res.history.size(), 5u);
}

TEST(Scf, SizeMismatchesThrow) {
  const lt::DeviceRegions regions{4, 4, 4};
  auto ok = [](const std::vector<double>& v) {
    return std::vector<double>(v.size(), 0.0);
  };
  const std::vector<double> wrong(7, 0.0);  // device has 12 cells
  EXPECT_THROW(
      ps::self_consistent_potential(regions, 0.1, 0.0, ok, {}, &wrong),
      std::invalid_argument);
  auto bad = [](const std::vector<double>& v) {
    return std::vector<double>(v.size() + 3, 0.0);
  };
  EXPECT_THROW(ps::self_consistent_potential(regions, 0.1, 0.0, bad),
               std::invalid_argument);
}

TEST(Scf, DualCriterionWaitsForChargeToSettle) {
  const lt::DeviceRegions regions{6, 4, 6};
  // Stateful model: charge ignores the potential entirely (coupling 0, so
  // the potential residual is 0 from iteration 1) but keeps drifting for
  // two evaluations.  Only the charge half of the criterion can hold the
  // loop open.
  auto drifting = [calls = 0](const std::vector<double>& v) mutable {
    ++calls;
    const double level = calls == 1 ? 1.0 : 0.5;
    return std::vector<double>(v.size(), level);
  };
  ps::ScfOptions opt;
  opt.poisson.charge_coupling = 0.0;
  opt.tol = 1e-10;
  opt.charge_tol = 1e-6;
  const auto res =
      ps::self_consistent_potential(regions, 0.2, 0.1, drifting, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 3);  // 1.0 -> 0.5 -> 0.5 (settled)
  ASSERT_EQ(res.history.size(), 3u);
  EXPECT_NEAR(res.history[0].charge_residual, 1.0, 1e-12);
  EXPECT_NEAR(res.history[1].charge_residual, 0.5, 1e-12);
  EXPECT_NEAR(res.history[2].charge_residual, 0.0, 1e-12);

  // Disabling the charge criterion recovers the potential-only test: the
  // same model then converges on the first evaluation.
  auto drifting2 = [calls = 0](const std::vector<double>& v) mutable {
    ++calls;
    return std::vector<double>(v.size(), calls == 1 ? 1.0 : 0.5);
  };
  ps::ScfOptions loose = opt;
  loose.charge_tol = 0.0;
  const auto res2 =
      ps::self_consistent_potential(regions, 0.2, 0.1, drifting2, loose);
  EXPECT_TRUE(res2.converged);
  EXPECT_EQ(res2.iterations, 1);
}

// ------------------------------------------------ per-contact lead shifts --

TEST(ScfOptions, EmptyShiftsAreZeroOnEveryTerminal) {
  ps::ScfOptions scf;
  EXPECT_EQ(scf.resolved_contact_shifts(3),
            (std::vector<double>{0.0, 0.0, 0.0}));
  // Classic no-contact layouts still read one uniform entry.
  EXPECT_EQ(scf.resolved_contact_shifts(0), std::vector<double>{0.0});
  scf.contact_shifts = {-0.07, -0.07, -0.07};
  EXPECT_EQ(scf.resolved_contact_shifts(3),
            (std::vector<double>{-0.07, -0.07, -0.07}));
}

TEST(ScfOptions, VectorShiftsAreCanonical) {
  ps::ScfOptions scf;
  scf.contact_shifts = {0.0, -0.1};
  EXPECT_EQ(scf.resolved_contact_shifts(2),
            (std::vector<double>{0.0, -0.1}));
  // One entry per configured contact, enforced.
  EXPECT_THROW(scf.resolved_contact_shifts(3), std::invalid_argument);
}
