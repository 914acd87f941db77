#include <gtest/gtest.h>

#include "blockmat/block_tridiag.hpp"
#include "dft/basis.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "numeric/blas.hpp"
#include "numeric/flops.hpp"
#include "numeric/lu.hpp"
#include "obc/feast.hpp"
#include "perf/flops.hpp"
#include "perf/machine.hpp"
#include "perf/power.hpp"
#include "perf/scaling.hpp"
#include "solvers/rgf.hpp"

namespace bm = omenx::blockmat;
namespace nm = omenx::numeric;
namespace pf = omenx::perf;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

TEST(Machine, TableISpecs) {
  const auto titan = pf::MachineSpec::titan();
  EXPECT_EQ(titan.hybrid_nodes, 18688);
  EXPECT_DOUBLE_EQ(titan.cpu_gflops, 134.4);
  EXPECT_DOUBLE_EQ(titan.gpu_gflops, 1311.0);
  const auto daint = pf::MachineSpec::piz_daint();
  EXPECT_EQ(daint.hybrid_nodes, 5272);
  EXPECT_DOUBLE_EQ(daint.cpu_gflops, 166.4);
  // Node peak matches Table I: 134.4 + 1311 GFlop/s etc.
  EXPECT_NEAR(titan.peak_pflops(1), (134.4 + 1311.0) * 1e-6, 1e-12);
}

TEST(Flops, AnalyticCountsMatchInstrumentedKernels) {
  // GEMM.
  nm::FlopCounter::reset();
  const CMatrix a = nm::random_cmatrix(13, 17, 1);
  const CMatrix b = nm::random_cmatrix(17, 11, 2);
  nm::FlopCounter::reset();
  nm::matmul(a, b);
  EXPECT_EQ(nm::FlopCounter::total(), pf::gemm_flops(13, 11, 17));
  // LU factor + solve.
  const CMatrix m = [] {
    CMatrix x = nm::random_cmatrix(20, 20, 3);
    for (idx i = 0; i < 20; ++i) x(i, i) += cplx{8.0};
    return x;
  }();
  nm::FlopCounter::reset();
  nm::LUFactor lu(m);
  EXPECT_EQ(nm::FlopCounter::total(), pf::lu_flops(20));
  const CMatrix rhs = nm::random_cmatrix(20, 4, 4);
  nm::FlopCounter::reset();
  lu.solve(rhs);
  EXPECT_EQ(nm::FlopCounter::total(), pf::lu_solve_flops(20, 4));
}

TEST(Flops, SplitSolvePreprocessCountTracksMeasurement) {
  // The analytic Algorithm-1 count should agree with the instrumented RGF
  // sweeps to within the small-size boundary effects (first/last blocks skip
  // one GEMM each).
  bm::BlockTridiag t(12, 8);
  for (idx i = 0; i < 12; ++i) {
    t.diag(i) = nm::random_cmatrix(8, 8, 10 + static_cast<unsigned>(i));
    for (idx d = 0; d < 8; ++d) t.diag(i)(d, d) += cplx{9.0};
    if (i + 1 < 12) {
      t.upper(i) = nm::random_cmatrix(8, 8, 30 + static_cast<unsigned>(i));
      t.lower(i) = nm::random_cmatrix(8, 8, 50 + static_cast<unsigned>(i));
    }
  }
  nm::FlopCounter::reset();
  omenx::solvers::rgf_block_columns(t);
  const double measured = static_cast<double>(nm::FlopCounter::total());
  const double analytic =
      static_cast<double>(pf::splitsolve_preprocess_flops(12, 8));
  EXPECT_NEAR(measured / analytic, 1.0, 0.25);
}

TEST(Flops, PaperScaleEnergyPointIsHundredsOfTeraflops) {
  // UTBFET: 23040 atoms, NSS = 276480, folded supercells of NBW=2 cells.
  const idx s = 276480 / 72;  // 72 supercells of ~3840 orbitals
  const idx nb = 72;
  const double tflops =
      static_cast<double>(pf::splitsolve_preprocess_flops(nb, s)) * 1e-12;
  // Paper: 230 TFLOPs on the GPUs per energy point; same order here.
  EXPECT_GT(tflops, 50.0);
  EXPECT_LT(tflops, 1000.0);
}

TEST(ScalingFig7, WeakScalingMatchesPaperNarrative) {
  pf::SplitSolveScalingModel model;
  // "from 30 sec on 2 GPUs (1 partition) up to 70 sec on 32 GPUs
  //  (16 partitions, 4 recursive steps)".
  EXPECT_DOUBLE_EQ(model.weak_time(2), 30.0);
  EXPECT_DOUBLE_EQ(model.weak_time(32), 70.0);
  EXPECT_NEAR(model.weak_efficiency(32), 30.0 / 70.0, 1e-12);
  // Efficiency decreases monotonically with GPU count.
  double prev = 1.1;
  for (int g = 2; g <= 32; g *= 2) {
    const double eff = model.weak_efficiency(g);
    EXPECT_LT(eff, prev);
    prev = eff;
  }
}

TEST(ScalingFig7, StrongScalingIsPoorForSmallWorkload) {
  pf::SplitSolveScalingModel model;
  // Fixed-size problem: spikes eat the gains beyond a few GPUs (Fig. 7b).
  const double eff8 = model.strong_efficiency(8);
  const double eff16 = model.strong_efficiency(16);
  EXPECT_LT(eff16, eff8);
  EXPECT_LT(eff16, 0.5);
}

TEST(ScalingFig8, SpeedupOrderingAndMagnitudes) {
  pf::SolverComparisonModel model;
  // UTBFET 23040 atoms on 4 nodes: NSS=276480, 72 supercells of 3840.
  const idx nb = 72, s = 3840, degree = 4;
  const auto si = model.shift_invert_mumps(nb, s, degree, 4);
  const auto fm = model.feast_mumps(nb, s, degree, 4);
  const auto fs = model.feast_splitsolve(nb, s, degree, 4);
  // Ordering: SI+MUMPS slowest, FEAST+SplitSolve fastest.
  EXPECT_GT(si.total(), fm.total());
  EXPECT_GT(fm.total(), fs.total());
  // Paper: total speedup > 50x, solver-only speedup 6-16x.
  EXPECT_GT(si.total() / fs.total(), 50.0);
  const double solver_speedup = fm.solve_s / fs.solve_s;
  EXPECT_GT(solver_speedup, 4.0);
  EXPECT_LT(solver_speedup, 40.0);
}

TEST(ScalingFig11, StrongScalingReproducesTableIII) {
  pf::OmenRunModel model;
  const std::vector<int> nodes{756, 1512, 3024, 6048, 12096, 18564};
  const auto pts = model.strong_scaling(nodes);
  ASSERT_EQ(pts.size(), 6u);
  // Table III row anchors (paper: 26975 s, ..., 1130 s; 97.3% efficiency;
  // 12.8 PFlop/s).
  EXPECT_NEAR(pts.front().time_s, 26975.0, 0.15 * 26975.0);
  EXPECT_NEAR(pts.back().time_s, 1130.0, 0.15 * 1130.0);
  EXPECT_GT(pts.back().efficiency, 0.90);
  EXPECT_NEAR(pts.back().pflops, 12.8, 1.5);
  // Efficiency decreases but stays high.
  for (const auto& p : pts) EXPECT_GT(p.efficiency, 0.9);
}

TEST(ScalingFig11, TunedRunReaches15PFlops) {
  pf::OmenRunModel model;
  model.tflops_per_energy = 228.0;      // zhesv_nopiv_gpu variant
  model.time_per_energy_s = 85.0 * 912.5 / 1130.0;
  const auto pts = model.strong_scaling({18564});
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_NEAR(pts[0].time_s, 912.5, 0.12 * 912.5);
  EXPECT_NEAR(pts[0].pflops, 15.01, 1.5);
}

TEST(ScalingFig11, WeakScalingReproducesTableII) {
  pf::OmenRunModel model;
  const std::vector<int> nodes{588, 1176, 2352, 4704, 9408, 18564};
  const auto pts = model.weak_scaling(nodes);
  ASSERT_EQ(pts.size(), 6u);
  for (const auto& p : pts) {
    // Table II: 12.9-14.1 E per group, 87.5-92.7 s per energy point.
    EXPECT_GT(p.avg_e_per_group, 12.5);
    EXPECT_LT(p.avg_e_per_group, 14.5);
    EXPECT_GT(p.time_per_energy, 80.0);
    EXPECT_LT(p.time_per_energy, 100.0);
    EXPECT_GT(p.time_s, 1000.0);
    EXPECT_LT(p.time_s, 1400.0);
  }
}

TEST(ScalingFig11, EnergiesPerKMatchSection5D) {
  pf::OmenRunModel model;
  const auto e = model.energies_per_k();
  ASSERT_EQ(static_cast<int>(e.size()), 21);
  idx total = 0;
  for (const auto v : e) {
    EXPECT_GE(v, 2600);
    EXPECT_LE(v, 3100);
    total += v;
  }
  EXPECT_EQ(total, 59908);
}

TEST(PowerFig12, CalibratedAverages) {
  const auto profile = pf::model_power_profile();
  // Paper: 7.6 MW average, 8.8 MW peak, 146 W per GPU,
  // 1975 / 5396 MFLOPS/W.
  EXPECT_NEAR(profile.avg_machine_mw, 7.6, 0.8);
  EXPECT_NEAR(profile.avg_gpu_watts, 146.0, 20.0);
  EXPECT_GT(profile.peak_machine_mw, profile.avg_machine_mw);
  EXPECT_LT(profile.peak_machine_mw, 9.6);
  EXPECT_NEAR(profile.machine_mflops_per_watt, 1975.0, 300.0);
  EXPECT_NEAR(profile.gpu_mflops_per_watt, 5396.0, 900.0);
}

TEST(PowerFig12, ProfileIsPeriodicPerEnergyPoint) {
  pf::PowerModelConfig cfg;
  cfg.run_time_s = 910.0;  // 13 points x 70 s: aligned with the sampling
  cfg.sample_interval_s = 0.5;
  const auto profile = pf::model_power_profile(cfg);
  ASSERT_GT(profile.samples.size(), 100u);
  // The phase pattern repeats every run_time / points seconds.
  const double period = cfg.run_time_s / cfg.energy_points_per_group;
  const auto& s = profile.samples;
  const std::size_t stride = static_cast<std::size_t>(period / 0.5);
  for (std::size_t i = 0; i + stride < std::min<std::size_t>(s.size(), 3 * stride);
       ++i)
    EXPECT_NEAR(s[i].gpu_watts, s[i + stride].gpu_watts, 1e-9);
}

TEST(PowerFig12, PhaseSlicesSumToOne) {
  const auto slices = pf::splitsolve_phase_slices();
  double total = 0.0;
  for (const auto& sl : slices) {
    EXPECT_GT(sl.fraction, 0.0);
    EXPECT_GE(sl.gpu_utilization, 0.0);
    EXPECT_LE(sl.gpu_utilization, 1.0);
    total += sl.fraction;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// The blocked LU's trailing updates run through the GEMM kernel but must
// not double count: the factorization reports exactly the analytic
// (8/3) n^3 and the blocked solve exactly 8 n^2 nrhs, for sizes that cross
// several panels.
TEST(Flops, BlockedLUCountsStayAnalytic) {
  const idx n = 200;
  CMatrix a = nm::random_cmatrix(n, n, 7);
  for (idx i = 0; i < n; ++i) a(i, i) += cplx{double(n)};
  nm::FlopCounter::reset();
  const nm::LUFactor lu(a);
  EXPECT_EQ(nm::FlopCounter::total(), pf::lu_flops(n));
  const CMatrix rhs = nm::random_cmatrix(n, 9, 8);
  nm::FlopCounter::reset();
  lu.solve(rhs);
  EXPECT_EQ(nm::FlopCounter::total(), pf::lu_solve_flops(n, 9));
}

// The FEAST model counts what compute_modes_feast does: one factor per
// contour point per call, and per filter pass of each attempt the companion
// products, the per-point solves, the subspace QR and Rayleigh-Ritz.
// Checked against the instrumented count of calls on the utb_kspace lead
// (s = 24, NBW = 2): at E = 0.1 and 0.9 the 8-column probe comes back full
// rank and the call restarts at 16 columns; at E = -18, near the band
// bottom, it stays at 8.
TEST(Flops, FeastModelTracksOneCall) {
  const omenx::dft::BasisLibrary basis;
  const auto lead = omenx::dft::build_lead_blocks(
      omenx::lattice::make_utb(0.2, 8), basis);
  ASSERT_EQ(lead.block_dim(), 24);
  ASSERT_EQ(lead.nbw(), 2);
  std::size_t grown = 0;
  for (const double e : {0.1, 0.9, -18.0}) {
    const omenx::obc::FeastOptions opt;
    omenx::obc::FeastStats stats;
    const nm::FlopScope scope;
    omenx::obc::compute_modes_feast(lead, cplx{e}, opt, &stats);
    const double measured = static_cast<double>(scope.elapsed());
    grown += stats.attempts.size() > 1 ? 1 : 0;
    const double model = static_cast<double>(
        pf::feast_flops(24, 4, opt.num_points, stats.attempts));
    EXPECT_GT(measured / model, 0.5) << "E = " << e;
    EXPECT_LT(measured / model, 2.0) << "E = " << e;
  }
  EXPECT_EQ(grown, 2u);
}
