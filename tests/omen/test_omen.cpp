#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "charge/quadrature.hpp"
#include "dft/hamiltonian.hpp"
#include "poisson/scf.hpp"
#include "numeric/blas.hpp"
#include "omen/io.hpp"
#include "omen/scheduler.hpp"
#include "omen/simulator.hpp"
#include "transport/bands.hpp"

namespace df = omenx::dft;
namespace lt = omenx::lattice;
namespace nm = omenx::numeric;
namespace om = omenx::omen;
namespace pp = omenx::parallel;
namespace ps = omenx::poisson;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

df::LeadBlocks chain_lead(double t = -1.0, double onsite = 0.0) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  lead.h[0] = CMatrix{{cplx{onsite}}};
  lead.h[1] = CMatrix{{cplx{t}}};
  lead.s[0] = CMatrix::identity(1);
  lead.s[1] = CMatrix(1, 1);
  return lead;
}

// A synthetic 1-orbital-per-cell structure backed by the chain Hamiltonian:
// used to exercise the Simulator cheaply.
lt::Structure chain_structure(idx cells) {
  lt::Structure s;
  s.cell_atoms = {{lt::Species::kLi, {0.0, 0.0, 0.0}}};
  s.cell_length = 0.5;
  s.num_cells = cells;
  s.name = "test chain";
  return s;
}

}  // namespace

TEST(OmenIo, RoundTripLeadBlocks) {
  const auto lead = chain_lead(-1.3, 0.2);
  const std::string path = "/tmp/omenx_test_lead.bin";
  om::write_lead_blocks(path, lead);
  const auto back = om::read_lead_blocks(path);
  ASSERT_EQ(back.h.size(), lead.h.size());
  EXPECT_LT(nm::max_abs_diff(back.h[0], lead.h[0]), 1e-15);
  EXPECT_LT(nm::max_abs_diff(back.h[1], lead.h[1]), 1e-15);
  EXPECT_LT(nm::max_abs_diff(back.s[0], lead.s[0]), 1e-15);
  std::remove(path.c_str());
}

TEST(OmenIo, BadMagicRejected) {
  const std::string path = "/tmp/omenx_test_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a lead blocks file";
  }
  EXPECT_THROW(om::read_lead_blocks(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(OmenIo, MissingFileThrows) {
  EXPECT_THROW(om::read_lead_blocks("/tmp/definitely_missing_omenx.bin"),
               std::runtime_error);
}

TEST(Scheduler, ProportionalAllocation) {
  // 3 k points with loads 100 / 200 / 100 over 8 groups -> 2 / 4 / 2.
  const auto alloc = om::allocate_groups({100, 200, 100}, 8);
  ASSERT_EQ(alloc.size(), 3u);
  EXPECT_EQ(alloc[0], 2);
  EXPECT_EQ(alloc[1], 4);
  EXPECT_EQ(alloc[2], 2);
}

TEST(Scheduler, EveryKGetsAtLeastOneGroup) {
  const auto alloc = om::allocate_groups({1, 1000, 1}, 4);
  for (const int g : alloc) EXPECT_GE(g, 1);
  int total = 0;
  for (const int g : alloc) total += g;
  EXPECT_EQ(total, 4);
}

TEST(Scheduler, AllGroupsAssigned) {
  const auto loads = std::vector<idx>{2853, 2650, 3050, 2900, 2700};
  for (const int groups : {5, 16, 64, 301}) {
    const auto alloc = om::allocate_groups(loads, groups);
    int total = 0;
    for (const int g : alloc) total += g;
    EXPECT_EQ(total, groups) << groups;
  }
}

TEST(Scheduler, DynamicBeatsUniformOnImbalancedLoads) {
  // The motivation for OMEN's dynamic allocation [45]: k-dependent energy
  // counts make a uniform split inefficient.
  const std::vector<idx> loads{400, 100, 100, 100};
  const auto dynamic = om::allocate_groups(loads, 28);
  const std::vector<int> uniform{7, 7, 7, 7};
  EXPECT_LT(om::allocation_makespan(loads, dynamic),
            om::allocation_makespan(loads, uniform));
  EXPECT_GT(om::allocation_efficiency(loads, dynamic), 0.9);
}

TEST(Scheduler, DeterministicUnderRemainderTies) {
  // Four equal loads over 6 groups: every k has remainder 0.5, so the two
  // bonus groups must go to the *lowest* k indices (stable ordering), and
  // every call must agree.
  const auto first = om::allocate_groups({10, 10, 10, 10}, 6);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0], 2);
  EXPECT_EQ(first[1], 2);
  EXPECT_EQ(first[2], 1);
  EXPECT_EQ(first[3], 1);
  for (int trial = 0; trial < 50; ++trial)
    EXPECT_EQ(om::allocate_groups({10, 10, 10, 10}, 6), first);
  // Ties in the leftover heap break the same way.
  const auto big = om::allocate_groups({7, 7, 7, 7, 7, 7, 7, 7}, 100);
  for (int trial = 0; trial < 10; ++trial)
    EXPECT_EQ(om::allocate_groups({7, 7, 7, 7, 7, 7, 7, 7}, 100), big);
  int total = 0;
  for (const int g : big) total += g;
  EXPECT_EQ(total, 100);
}

TEST(Scheduler, MakespanValidation) {
  EXPECT_THROW(om::allocation_makespan({10, 10}, {1}), std::invalid_argument);
  EXPECT_THROW(om::allocation_makespan({10}, {0}), std::invalid_argument);
  EXPECT_THROW(om::allocate_groups({10, 10}, 1), std::invalid_argument);
}

TEST(Scheduler, BroadcastLeadBlocks) {
  pp::CommWorld world(4);
  world.run([&](pp::Comm& comm) {
    df::LeadBlocks lead;
    if (comm.rank() == 0) lead = chain_lead(-0.8, 0.1);
    om::broadcast_lead_blocks(comm, lead);
    ASSERT_EQ(lead.h.size(), 2u);
    EXPECT_LT(std::abs(lead.h[1](0, 0) - cplx{-0.8}), 1e-15);
    EXPECT_LT(std::abs(lead.h[0](0, 0) - cplx{0.1}), 1e-15);
  });
}

TEST(Bands, ChainCosineBand) {
  df::FoldedLead lead;
  lead.h00 = CMatrix(1, 1);
  lead.h01 = CMatrix{{cplx{-1.0}}};
  lead.s00 = CMatrix::identity(1);
  lead.s01 = CMatrix(1, 1);
  const auto bs = tr::lead_band_structure(lead, 11);
  ASSERT_EQ(bs.k.size(), 11u);
  for (std::size_t ik = 0; ik < bs.k.size(); ++ik) {
    // E(k) = -2 cos k for t = -1... with H01 = t: E = 2 t cos k = -2 cos k.
    EXPECT_NEAR(bs.bands[ik][0], -2.0 * std::cos(bs.k[ik]), 1e-9);
  }
  const auto win = tr::band_window(bs);
  EXPECT_NEAR(win.emin, -2.0, 1e-9);
  EXPECT_NEAR(win.emax, 2.0, 1e-9);
  EXPECT_NEAR(tr::lowest_band_above(bs, -3.0), -2.0, 1e-9);
}

TEST(Simulator, ChainTransmissionSpectrum) {
  om::SimulationConfig cfg;
  cfg.structure = chain_structure(8);
  cfg.build.cutoff_nm = 1.0;  // NBW = 2: exercises supercell folding
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  cfg.num_devices = 2;
  // The Li single-s chain of the basis library: verify through bands that a
  // band exists, then T(E) == 1 inside it.
  om::Simulator sim(cfg);
  const auto bs = sim.bands(9);
  const auto win = tr::band_window(bs);
  ASSERT_LT(win.emin, win.emax);
  const double mid = 0.5 * (win.emin + win.emax);
  const auto sp = sim.transmission_spectrum({mid});
  ASSERT_EQ(sp.transmission.size(), 1u);
  EXPECT_GE(sp.transmission[0], 0.99);
  EXPECT_GE(sp.propagating[0], 1);
}

TEST(Simulator, PotentialBarrierReducesCurrent) {
  om::SimulationConfig cfg;
  cfg.structure = chain_structure(12);
  cfg.build.cutoff_nm = 1.0;  // NBW = 2
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  om::Simulator sim(cfg);
  const auto bs = sim.bands(9);
  const auto win = tr::band_window(bs);
  const double mu = 0.5 * (win.emin + win.emax);
  std::vector<double> grid;
  for (double e = mu - 0.3; e <= mu + 0.3; e += 0.05) grid.push_back(e);

  const double i_flat = sim.current(grid, mu + 0.1, mu - 0.1, nullptr);
  std::vector<double> barrier(12, 0.0);
  for (int i = 5; i < 8; ++i) barrier[static_cast<std::size_t>(i)] = 6.0;
  const double i_barrier = sim.current(grid, mu + 0.1, mu - 0.1, &barrier);
  EXPECT_GT(i_flat, 0.0);
  EXPECT_LT(i_barrier, 0.5 * i_flat);
}

TEST(Simulator, HamiltonianDimensionMatchesStructure) {
  om::SimulationConfig cfg;
  cfg.structure = chain_structure(10);
  om::Simulator sim(cfg);
  EXPECT_EQ(sim.hamiltonian_dimension(), 10);  // 1 orbital (Li s) x 10 cells
}

namespace {

// Chain FET simulator used by the two-contact and SCF tests below.
om::SimulationConfig fet_config(idx cells) {
  om::SimulationConfig cfg;
  cfg.structure = chain_structure(cells);
  cfg.build.cutoff_nm = 1.0;  // NBW = 2
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  return cfg;
}

double band_mid(om::Simulator& sim) {
  const auto win = tr::band_window(sim.bands(9));
  return 0.5 * (win.emin + win.emax);
}

double max_parity_violation(const std::vector<double>& rho) {
  double out = 0.0;
  for (std::size_t i = 0; i < rho.size(); ++i)
    out = std::max(out, std::abs(rho[i] - rho[rho.size() - 1 - i]));
  return out;
}

}  // namespace

// Regression for the dropped drain contact ((void)mu_r): on a symmetric
// device at Vds > 0 the charge MUST move when mu_r moves.
TEST(Simulator, ChargeRespondsToDrainChemicalPotential) {
  om::Simulator sim(fet_config(12));
  const double mu = band_mid(sim);
  std::vector<double> grid;
  for (double e = mu - 0.4; e <= mu + 0.4; e += 0.05) grid.push_back(e);

  const auto equil = sim.charge_density(grid, mu, mu, nullptr);
  const auto biased = sim.charge_density(grid, mu, mu - 0.3, nullptr);
  ASSERT_EQ(equil.size(), 12u);
  double change = 0.0;
  for (std::size_t i = 0; i < equil.size(); ++i)
    change = std::max(change, std::abs(equil[i] - biased[i]));
  EXPECT_GT(change, 1e-3);
  // Draining the right contact removes occupation: less total charge.
  double sum_eq = 0.0, sum_b = 0.0;
  for (std::size_t i = 0; i < equil.size(); ++i) {
    sum_eq += equil[i];
    sum_b += biased[i];
  }
  EXPECT_LT(sum_b, sum_eq);
}

// Two-contact parity: with a mirror-symmetric device and barrier, the
// charge is symmetric at equilibrium (both contacts filled alike) and
// visibly asymmetric once Vds != 0 depopulates the drain-injected states.
TEST(Simulator, ChargeParityBreaksUnderDrainBias) {
  om::Simulator sim(fet_config(12));
  const double mu = band_mid(sim);
  std::vector<double> grid;
  for (double e = mu - 0.4; e <= mu + 0.4; e += 0.05) grid.push_back(e);
  // Symmetric barrier (cells 5 and 6 of 12): left/right injected densities
  // are mirror images, so parity can only break through the occupations.
  std::vector<double> barrier(12, 0.0);
  barrier[5] = barrier[6] = 1.0;

  const auto equil = sim.charge_density(grid, mu, mu, &barrier);
  EXPECT_LT(max_parity_violation(equil), 1e-8);

  const auto biased = sim.charge_density(grid, mu, mu - 0.3, &barrier);
  const double asym = max_parity_violation(biased);
  EXPECT_GT(asym, 1e-2);
  // The source side keeps its filled standing-wave charge; the drain side
  // loses the states above mu_r: more charge on the source half.
  double left = 0.0, right = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    left += biased[i];
    right += biased[11 - i];
  }
  EXPECT_GT(left, right);
}

// The closed [0, pi] k grid must carry trapezoidal BZ weights: a flat 1/nk
// average double-counts both zone edges.  Verified against the manually
// weighted per-k solves.
TEST(Simulator, KAverageUsesTrapezoidalBzWeights) {
  om::SimulationConfig cfg;
  lt::Structure s = chain_structure(6);
  s.periodicity = lt::Periodicity::kZ;
  s.z_period = 0.4;
  cfg.structure = s;
  cfg.build.cutoff_nm = 1.0;
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  cfg.num_k = 3;  // k = 0, pi/2, pi -> weights 1/4, 1/2, 1/4
  om::Simulator sim(cfg);

  const auto bs = sim.bands(9);
  const auto win = tr::band_window(bs);
  const double e = 0.5 * (win.emin + win.emax);

  double expected = 0.0, uniform = 0.0;
  const double wk[3] = {0.25, 0.5, 0.25};
  for (idx ik = 0; ik < 3; ++ik) {
    const auto& lead = sim.lead_blocks(ik);
    const auto folded = df::fold_lead(lead);
    const auto dm =
        df::assemble_device(lead, 6, std::vector<double>(6, 0.0));
    const auto res = tr::solve_energy_point(dm, lead, folded, e, cfg.point);
    const double t = res.num_propagating > 0 ? res.transmission : 0.0;
    expected += wk[ik] * t;
    uniform += t / 3.0;
  }

  const auto sp = sim.transmission_spectrum({e});
  ASSERT_EQ(sp.transmission.size(), 1u);
  EXPECT_NEAR(sp.transmission[0], expected, 1e-10);
  // The analytic discrimination: at band mid only the k = 0 zone edge
  // propagates (T(k) = {1, 0, 0}), so the trapezoid average is exactly 1/4
  // while the seed's flat average double-counted the edge to 1/3.
  EXPECT_NEAR(expected, 0.25, 1e-6);
  EXPECT_NEAR(uniform, 1.0 / 3.0, 1e-6);
  EXPECT_GT(std::abs(sp.transmission[0] - uniform), 0.05);

  // The charge takes the same weights: on both quadratures it equals the
  // BZ-weighted sum of one engine sweep per k, with the contour anchored
  // below the lowest band bottom over every k.
  const double mu_l = e, mu_r = e - 0.1;
  std::vector<double> grid;
  for (double x = win.emin + 0.01; x < win.emax; x += 0.04) grid.push_back(x);
  double band_min = std::numeric_limits<double>::infinity();
  for (idx ik = 0; ik < 3; ++ik)
    band_min = std::min(
        band_min, tr::band_window(tr::lead_band_structure(
                                      df::fold_lead(sim.lead_blocks(ik))))
                      .emin);
  for (const auto quadrature : {omenx::charge::QuadratureAlgorithm::kRealGrid,
                                omenx::charge::QuadratureAlgorithm::kContour}) {
    omenx::charge::ChargeWindow window;
    window.mu_l = mu_l;
    window.mu_r = mu_r;
    window.kt = 8.617e-5 * cfg.temperature_k;
    window.band_bottom = band_min - 0.5;  // zero potential and shifts
    window.grid = grid;
    const auto nodes =
        omenx::charge::make_quadrature(quadrature)->build(window);
    std::vector<double> summed(6, 0.0);
    for (idx ik = 0; ik < 3; ++ik) {
      const std::vector<df::LeadBlocks> row{sim.lead_blocks(ik)};
      om::SweepRequest req;
      req.materials = {&row};
      req.cells = 6;
      req.potential.assign(6, 0.0);
      req.point = cfg.point;
      req.point.want_current = false;
      req.point.want_caroli = false;
      req.energies = {nodes.energies};
      req.density_weight = {{nodes.weight_l}, {nodes.weight_r}};
      if (!nodes.gf_nodes.empty()) {
        req.gf_nodes = {nodes.gf_nodes};
        req.gf_weights = {nodes.gf_weights};
      }
      const auto res = om::Engine(om::EngineConfig{}).run(req);
      ASSERT_EQ(res.charge.size(), summed.size());
      for (std::size_t c = 0; c < summed.size(); ++c)
        summed[c] += wk[ik] * res.charge[c];
    }
    const auto charge =
        sim.charge_density(grid, mu_l, mu_r, nullptr, quadrature);
    ASSERT_EQ(charge.size(), summed.size());
    double scale = 0.0;
    for (const double q : summed) scale = std::max(scale, std::abs(q));
    ASSERT_GT(scale, 0.0);
    for (std::size_t c = 0; c < summed.size(); ++c)
      EXPECT_NEAR(charge[c], summed[c], 1e-12 * scale)
          << "quadrature " << static_cast<int>(quadrature) << " cell " << c;
  }
}

// Warm-started Anderson SCF across a bias sweep: same converged potentials
// as the cold linear loop, in at most half the total iterations.
TEST(Simulator, WarmAndersonSweepMatchesColdLinearInHalfTheIterations) {
  om::Simulator sim(fet_config(16));
  const auto win = tr::band_window(sim.bands(9));
  const double mu_s = win.emin + 0.1;
  const double vds = 0.2;
  std::vector<double> grid;
  for (double e = win.emin - 0.02; e <= mu_s + 0.3; e += 0.01)
    grid.push_back(e);
  const lt::DeviceRegions regions{5, 6, 5};
  const std::vector<double> vgs{-0.15, -0.05, 0.05, 0.15};

  ps::ScfOptions seed_like;
  seed_like.poisson.screening_length_cells = 2.0;
  seed_like.poisson.charge_coupling = 0.25;
  seed_like.tol = 1e-6;
  seed_like.charge_tol = 0.0;
  seed_like.mixing = 0.3;
  seed_like.max_iter = 200;
  seed_like.anderson_depth = 0;
  seed_like.warm_start = false;

  ps::ScfOptions accel = seed_like;
  accel.anderson_depth = 3;
  accel.warm_start = true;

  const auto cold = sim.transfer_characteristics(vgs, vds, regions, grid,
                                                 mu_s, seed_like);
  const auto warm =
      sim.transfer_characteristics(vgs, vds, regions, grid, mu_s, accel);
  ASSERT_EQ(cold.size(), vgs.size());
  ASSERT_EQ(warm.size(), vgs.size());
  int cold_total = 0, warm_total = 0;
  for (std::size_t i = 0; i < vgs.size(); ++i) {
    ASSERT_TRUE(cold[i].converged) << "cold point " << i;
    ASSERT_TRUE(warm[i].converged) << "warm point " << i;
    cold_total += cold[i].scf_iterations;
    warm_total += warm[i].scf_iterations;
    // Same converged potential: max |dV| below the loop tolerance.
    ASSERT_EQ(cold[i].potential.size(), warm[i].potential.size());
    double dv = 0.0;
    for (std::size_t c = 0; c < cold[i].potential.size(); ++c)
      dv = std::max(dv,
                    std::abs(cold[i].potential[c] - warm[i].potential[c]));
    EXPECT_LT(dv, 1e-5) << "bias point " << i;
    EXPECT_NEAR(cold[i].current, warm[i].current,
                1e-6 * std::max(1.0, std::abs(cold[i].current)));
  }
  EXPECT_LE(2 * warm_total, cold_total)
      << "warm " << warm_total << " vs cold " << cold_total;
}

// The adaptive grid must add points where the channel count steps (band
// edge) and follow the band edge as the potential shifts it.
TEST(Simulator, AdaptiveGridTracksBandEdge) {
  om::Simulator sim(fet_config(10));
  const auto win = tr::band_window(sim.bands(9));
  std::vector<double> base;
  for (double e = win.emin - 0.2; e <= win.emin + 0.4; e += 0.1)
    base.push_back(e);

  const auto flat =
      sim.adaptive_energy_grid(base, nullptr, 0.5, 1e-3);
  EXPECT_GT(flat.size(), base.size());
  // Finest interval must straddle the band edge.
  double best = 1e9, best_mid = 0.0;
  for (std::size_t i = 1; i < flat.size(); ++i)
    if (flat[i] - flat[i - 1] < best) {
      best = flat[i] - flat[i - 1];
      best_mid = 0.5 * (flat[i] + flat[i - 1]);
    }
  EXPECT_NEAR(best_mid, win.emin, 0.05);

  // A uniform potential shift moves the band edge by the same amount; the
  // refinement must follow it.
  const double shift = 0.15;
  const std::vector<double> pot(10, shift);
  const auto shifted = sim.adaptive_energy_grid(base, &pot, 0.5, 1e-3);
  best = 1e9;
  double shifted_mid = 0.0;
  for (std::size_t i = 1; i < shifted.size(); ++i)
    if (shifted[i] - shifted[i - 1] < best) {
      best = shifted[i] - shifted[i - 1];
      shifted_mid = 0.5 * (shifted[i] + shifted[i - 1]);
    }
  EXPECT_NEAR(shifted_mid, win.emin + shift, 0.05);
}
