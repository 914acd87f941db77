// End-to-end tests of the N-terminal contact pipeline through the
// Simulator and the distribution engine:
//   * the symmetric-limit parity suite — a two-identical-contacts layout
//     spelled out explicitly must be *bit-identical* (EXPECT_EQ, no
//     tolerance) to the implicit classic pipeline, across world sizes
//     {1, 2, 4} and with work stealing on and off;
//   * 3-terminal sweeps — pairwise T_pq, Buettiker terminal currents with
//     sum_p I_p = 0 to machine rounding, per-contact charge;
//   * per-contact boundary caching — dissimilar leads cache independently
//     and a one-contact shift change re-keys only that contact;
//   * construction-time layout validation (std::invalid_argument before
//     any engine world exists).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "omen/simulator.hpp"
#include "transport/bands.hpp"
#include "transport/contacts.hpp"

namespace lt = omenx::lattice;
namespace om = omenx::omen;
namespace tr = omenx::transport;
using omenx::numeric::idx;

namespace {

lt::Structure chain_structure(idx cells, double cell_length = 0.5,
                              bool periodic = false) {
  lt::Structure s;
  s.cell_atoms = {{lt::Species::kLi, {0.0, 0.0, 0.0}}};
  s.cell_length = cell_length;
  s.num_cells = cells;
  s.name = "multi-terminal test chain";
  if (periodic) s.periodicity = lt::Periodicity::kZ;
  return s;
}

om::SimulationConfig chain_config(idx cells, idx nk = 1) {
  om::SimulationConfig cfg;
  cfg.structure = chain_structure(cells, 0.5, nk > 1);
  cfg.build.cutoff_nm = 1.0;  // NBW = 2: folded supercells, 4 device blocks
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  cfg.num_k = nk;
  cfg.num_devices = 2;
  return cfg;
}

// The classic source/drain pair written out explicitly.
std::vector<om::ContactConfig> explicit_pair(double shift = 0.0) {
  std::vector<om::ContactConfig> cs(2);
  cs[0].block = 0;
  cs[0].shift = shift;
  cs[1].block = tr::kLastBlock;
  cs[1].shift = shift;
  return cs;
}

std::vector<double> band_grid(om::Simulator& sim, double step = 0.17) {
  const auto win = tr::band_window(sim.bands(9));
  std::vector<double> grid;
  for (double e = win.emin + 0.05; e < win.emax; e += step) grid.push_back(e);
  return grid;
}

}  // namespace

// ------------------------------------------------------- symmetric limit --

TEST(MultiTerminal, ExplicitSymmetricPairBitIdenticalAcrossWorldSizes) {
  // The acceptance bar of the refactor: spelling the classic layout out as
  // a ContactSet must change *nothing* — same spectra to the last bit, at
  // every world size and with stealing on/off, because the engine routes
  // the symmetric pair through literally the pre-refactor pipeline.
  const idx nk = 3;
  om::SimulationConfig ref_cfg = chain_config(8, nk);
  om::Simulator reference(ref_cfg);
  const auto grid = band_grid(reference);
  ASSERT_GE(grid.size(), 4u);
  const auto base = reference.transmission_spectrum(grid);

  for (const int ranks : {1, 2, 4}) {
    for (const bool stealing : {true, false}) {
      om::SimulationConfig cfg = chain_config(8, nk);
      cfg.contacts = explicit_pair();
      cfg.num_ranks = ranks;
      cfg.work_stealing = stealing;
      om::Simulator sim(cfg);
      const auto sp = sim.transmission_spectrum(grid);
      ASSERT_EQ(sp.transmission.size(), base.transmission.size());
      EXPECT_TRUE(sp.t_matrix.empty());  // pairwise table is >= 3-terminal
      for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(sp.transmission[i], base.transmission[i])
            << "ranks=" << ranks << " stealing=" << stealing << " point "
            << i;
        EXPECT_EQ(sp.propagating[i], base.propagating[i]);
      }
    }
  }
}

TEST(MultiTerminal, ExplicitSymmetricPairChargeBitIdentical) {
  om::SimulationConfig ref_cfg = chain_config(12);
  om::Simulator reference(ref_cfg);
  const auto win = tr::band_window(reference.bands(9));
  const double mu = 0.5 * (win.emin + win.emax);
  std::vector<double> grid;
  for (double e = mu - 0.4; e <= mu + 0.4; e += 0.05) grid.push_back(e);
  std::vector<double> barrier(12, 0.0);
  barrier[5] = barrier[6] = 0.6;
  const auto base = reference.charge_density(grid, mu, mu - 0.3, &barrier);

  for (const int ranks : {1, 2, 4}) {
    om::SimulationConfig cfg = chain_config(12);
    cfg.contacts = explicit_pair();
    cfg.num_ranks = ranks;
    om::Simulator sim(cfg);
    // Scalar-mu wrapper and the per-terminal overload agree bit-for-bit
    // with the implicit classic pipeline.
    const auto wrapped = sim.charge_density(grid, mu, mu - 0.3, &barrier);
    const auto multi =
        sim.charge_density(grid, std::vector<double>{mu, mu - 0.3}, &barrier);
    ASSERT_EQ(wrapped.size(), base.size());
    ASSERT_EQ(multi.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(wrapped[i], base[i]) << "ranks=" << ranks << " cell " << i;
      EXPECT_EQ(multi[i], base[i]) << "ranks=" << ranks << " cell " << i;
    }
  }
}

TEST(MultiTerminal, ExplicitSymmetricPairScfParity) {
  // The full SCF stack (transfer characteristics, warm starts, per-contact
  // shifts through ScfOptions::contact_shifts) must reproduce the classic
  // run bit-for-bit when the terminals are identical.
  const lt::DeviceRegions regions{4, 4, 4};
  const std::vector<double> vgs{0.0, 0.15};
  const double vds = 0.1;

  om::Simulator reference(chain_config(12));
  const double mu_s = 0.5 * (tr::band_window(reference.bands(9)).emin +
                             tr::band_window(reference.bands(9)).emax);
  std::vector<double> grid;
  for (double e = mu_s - 0.4; e <= mu_s + 0.4; e += 0.08) grid.push_back(e);
  omenx::poisson::ScfOptions scf;
  scf.max_iter = 6;
  scf.contact_shift = -0.05;
  const auto base =
      reference.transfer_characteristics(vgs, vds, regions, grid, mu_s, scf);

  om::SimulationConfig cfg = chain_config(12);
  cfg.contacts = explicit_pair();
  om::Simulator sim(cfg);
  omenx::poisson::ScfOptions nscf = scf;
  nscf.contact_shift = 0.0;
  nscf.contact_shifts = {-0.05, -0.05};  // per-terminal spelling
  const auto iv =
      sim.transfer_characteristics(vgs, vds, regions, grid, mu_s, nscf);
  ASSERT_EQ(iv.size(), base.size());
  for (std::size_t p = 0; p < base.size(); ++p) {
    EXPECT_EQ(iv[p].current, base[p].current) << "bias point " << p;
    EXPECT_EQ(iv[p].scf_iterations, base[p].scf_iterations);
    ASSERT_EQ(iv[p].potential.size(), base[p].potential.size());
    for (std::size_t c = 0; c < base[p].potential.size(); ++c)
      EXPECT_EQ(iv[p].potential[c], base[p].potential[c])
          << "bias point " << p << " cell " << c;
  }
}

TEST(MultiTerminal, ReversedPairBitIdenticalToDefault) {
  // The pair listed drain first ({last, 0}) is the same device: mu and the
  // charge weights are routed by attachment block, not list position, so
  // T(E), both charge quadratures and the terminal currents must match the
  // default pair to the last bit.
  std::vector<double> barrier(12, 0.0);
  barrier[5] = barrier[6] = 0.6;
  omenx::charge::QuadratureOptions qopt;
  qopt.contour_points = 24;  // accuracy is not under test here
  for (const int ranks : {1, 2}) {
    om::SimulationConfig cfg = chain_config(12);
    cfg.num_ranks = ranks;
    om::Simulator pair(cfg);
    cfg.contacts = explicit_pair();
    std::swap(cfg.contacts[0], cfg.contacts[1]);
    om::Simulator reversed(cfg);
    const auto win = tr::band_window(pair.bands(9));
    const double mu = 0.5 * (win.emin + win.emax);
    std::vector<double> grid;
    for (double e = win.emin - 0.2; e <= mu + 0.5; e += 0.05)
      grid.push_back(e);

    const auto t_pair = pair.transmission_spectrum(grid, &barrier);
    const auto t_rev = reversed.transmission_spectrum(grid, &barrier);
    for (std::size_t i = 0; i < grid.size(); ++i)
      EXPECT_EQ(t_rev.transmission[i], t_pair.transmission[i])
          << "ranks=" << ranks << " point " << i;

    for (const auto quadrature : {omenx::charge::QuadratureAlgorithm::kRealGrid,
                                  omenx::charge::QuadratureAlgorithm::kContour}) {
      const auto q_pair =
          pair.charge_density(grid, mu, mu - 0.3, &barrier, quadrature, qopt);
      const auto q_rev = reversed.charge_density(grid, mu, mu - 0.3, &barrier,
                                                 quadrature, qopt);
      // Per-terminal spelling: the reversed list's terminal 0 is the drain.
      const auto q_terms = reversed.charge_density(
          grid, std::vector<double>{mu - 0.3, mu}, &barrier, quadrature,
          qopt);
      ASSERT_EQ(q_rev.size(), q_pair.size());
      ASSERT_EQ(q_terms.size(), q_pair.size());
      for (std::size_t c = 0; c < q_pair.size(); ++c) {
        EXPECT_EQ(q_rev[c], q_pair[c]) << "ranks=" << ranks << " cell " << c;
        EXPECT_EQ(q_terms[c], q_pair[c]) << "ranks=" << ranks << " cell " << c;
      }
    }

    const auto i_pair =
        pair.terminal_currents(grid, {mu, mu - 0.3}, &barrier);
    const auto i_rev =
        reversed.terminal_currents(grid, {mu - 0.3, mu}, &barrier);
    ASSERT_EQ(i_rev.size(), 2u);
    EXPECT_NE(i_pair[0], 0.0);
    EXPECT_EQ(i_rev[1], i_pair[0]) << "ranks=" << ranks;
    EXPECT_EQ(i_rev[0], i_pair[1]) << "ranks=" << ranks;
  }
}

// --------------------------------------------------------- three terminals --

TEST(MultiTerminal, ThreeTerminalCurrentsConserve) {
  // A third (probe) contact on an interior block: the Buettiker sum over
  // the pairwise T matrix must conserve current to machine rounding, for
  // both kMultiTerminal solver backends.
  for (const auto solver :
       {tr::SolverAlgorithm::kBlockLU, tr::SolverAlgorithm::kRgf}) {
    om::SimulationConfig cfg = chain_config(8);
    cfg.point.solver = solver;
    cfg.contacts.resize(3);
    cfg.contacts[0].block = 0;
    cfg.contacts[1].block = 1;  // interior probe
    cfg.contacts[2].block = tr::kLastBlock;
    om::Simulator sim(cfg);
    const auto grid = band_grid(sim, 0.11);
    ASSERT_GE(grid.size(), 4u);
    const auto win = tr::band_window(sim.bands(9));
    const double mid = 0.5 * (win.emin + win.emax);
    const std::vector<double> mu{mid + 0.15, mid, mid - 0.15};

    const auto sp = sim.transmission_spectrum(grid);
    ASSERT_EQ(sp.t_matrix.size(), grid.size());
    double t_total = 0.0;
    for (const auto& row : sp.t_matrix) {
      ASSERT_EQ(row.size(), 9u);
      for (const double t : row) {
        EXPECT_GE(t, -1e-10);  // Caroli traces are non-negative
        t_total += t;
      }
    }
    EXPECT_GT(t_total, 0.1);  // the probe actually couples

    const auto currents = sim.terminal_currents(grid, mu, nullptr);
    ASSERT_EQ(currents.size(), 3u);
    double total = 0.0, scale = 0.0;
    for (const double i : currents) {
      total += i;
      scale = std::max(scale, std::abs(i));
    }
    EXPECT_GT(scale, 1e-6);  // a biased device actually conducts
    EXPECT_LE(std::abs(total), 1e-12 * std::max(1.0, scale))
        << "solver=" << static_cast<int>(solver);
  }
}

TEST(MultiTerminal, ThreeTerminalBitIdenticalAcrossWorldSizes) {
  // The multi-attach path has its own wire protocol (extra lead streams,
  // strided T-matrix gather, solo spatial announcements): every world size
  // and stealing mode must reproduce the flat loop bit-for-bit.
  auto make_cfg = [] {
    om::SimulationConfig cfg = chain_config(8, /*nk=*/3);
    cfg.contacts.resize(3);
    cfg.contacts[0].block = 0;
    cfg.contacts[1].block = 2;
    cfg.contacts[2].block = tr::kLastBlock;
    return cfg;
  };
  om::Simulator reference(make_cfg());
  const auto grid = band_grid(reference);
  const auto base = reference.transmission_spectrum(grid);
  ASSERT_EQ(base.t_matrix.size(), grid.size());

  const auto win = tr::band_window(reference.bands(9));
  const double mid = 0.5 * (win.emin + win.emax);
  std::vector<double> cgrid;
  for (double e = mid - 0.4; e <= mid + 0.4; e += 0.08) cgrid.push_back(e);
  const std::vector<double> mu{mid + 0.1, mid, mid - 0.1};
  const auto base_charge = reference.charge_density(cgrid, mu, nullptr);

  for (const int ranks : {2, 4}) {
    for (const bool stealing : {true, false}) {
      om::SimulationConfig cfg = make_cfg();
      cfg.num_ranks = ranks;
      cfg.work_stealing = stealing;
      om::Simulator sim(cfg);
      const auto sp = sim.transmission_spectrum(grid);
      ASSERT_EQ(sp.t_matrix.size(), base.t_matrix.size());
      for (std::size_t ie = 0; ie < base.t_matrix.size(); ++ie) {
        ASSERT_EQ(sp.t_matrix[ie].size(), base.t_matrix[ie].size());
        for (std::size_t q = 0; q < base.t_matrix[ie].size(); ++q)
          EXPECT_EQ(sp.t_matrix[ie][q], base.t_matrix[ie][q])
              << "ranks=" << ranks << " stealing=" << stealing << " ie=" << ie
              << " pq=" << q;
      }
      const auto charge = sim.charge_density(cgrid, mu, nullptr);
      ASSERT_EQ(charge.size(), base_charge.size());
      for (std::size_t c = 0; c < base_charge.size(); ++c)
        EXPECT_EQ(charge[c], base_charge[c])
            << "ranks=" << ranks << " stealing=" << stealing << " cell " << c;
    }
  }
}

TEST(MultiTerminal, ProbeChargeRespondsToProbePotential) {
  // Sanity on the per-contact occupations: raising only the probe's mu
  // adds (probe-injected) charge and the total must grow.
  om::SimulationConfig cfg = chain_config(8);
  cfg.contacts.resize(3);
  cfg.contacts[0].block = 0;
  cfg.contacts[1].block = 1;
  cfg.contacts[2].block = tr::kLastBlock;
  om::Simulator sim(cfg);
  const auto win = tr::band_window(sim.bands(9));
  const double mid = 0.5 * (win.emin + win.emax);
  std::vector<double> grid;
  for (double e = mid - 0.4; e <= mid + 0.4; e += 0.08) grid.push_back(e);

  const auto low =
      sim.charge_density(grid, std::vector<double>{mid, mid - 0.3, mid},
                         nullptr);
  const auto high =
      sim.charge_density(grid, std::vector<double>{mid, mid + 0.3, mid},
                         nullptr);
  double sum_low = 0.0, sum_high = 0.0;
  for (const double q : low) sum_low += q;
  for (const double q : high) sum_high += q;
  EXPECT_GT(sum_high, sum_low + 1e-6);
}

// ------------------------------------------------ per-contact cache reuse --

TEST(MultiTerminal, DissimilarLeadsCacheIndependently) {
  // Source uses the device's own lead, drain a dissimilar material (longer
  // cell, same orbital count).  Each contact caches under its own id, and
  // changing one contact's shift must re-solve *only* that contact's
  // boundaries.
  om::SimulationConfig cfg = chain_config(8);
  cfg.contacts = explicit_pair();
  cfg.contacts[1].material = chain_structure(8, 0.6);
  om::Simulator sim(cfg);
  const auto grid = band_grid(sim);
  const auto ne = grid.size();

  (void)sim.transmission_spectrum(grid);
  auto per_run = sim.last_sweep_stats().contact_cache_stats;
  ASSERT_EQ(per_run.size(), 2u);
  EXPECT_EQ(per_run[0].misses, ne);
  EXPECT_EQ(per_run[1].misses, ne);
  EXPECT_EQ(per_run[0].hits, 0u);
  EXPECT_EQ(per_run[1].hits, 0u);

  // Identical re-sweep: everything is served from the cache.
  (void)sim.transmission_spectrum(grid);
  per_run = sim.last_sweep_stats().contact_cache_stats;
  ASSERT_EQ(per_run.size(), 2u);
  EXPECT_EQ(per_run[0].hits, ne);
  EXPECT_EQ(per_run[1].hits, ne);
  EXPECT_EQ(per_run[0].misses, 0u);
  EXPECT_EQ(per_run[1].misses, 0u);

  // A shift change on contact 0 re-keys contact 0's boundaries only: the
  // drain keeps serving every boundary from the cache.
  sim.set_contact_shift(0, 0.05);
  (void)sim.transmission_spectrum(grid);
  per_run = sim.last_sweep_stats().contact_cache_stats;
  ASSERT_EQ(per_run.size(), 2u);
  EXPECT_EQ(per_run[0].misses, ne);
  EXPECT_EQ(per_run[0].hits, 0u);
  EXPECT_EQ(per_run[1].hits, ne);
  EXPECT_EQ(per_run[1].misses, 0u);

  // Back at the old shift, contact 0's first entries are still cached.
  sim.set_contact_shift(0, 0.0);
  (void)sim.transmission_spectrum(grid);
  per_run = sim.last_sweep_stats().contact_cache_stats;
  ASSERT_EQ(per_run.size(), 2u);
  EXPECT_EQ(per_run[0].hits, ne);
  EXPECT_EQ(per_run[0].misses, 0u);
  EXPECT_EQ(per_run[1].hits, ne);
  EXPECT_EQ(per_run[1].misses, 0u);
}

// ------------------------------------------------------------- validation --

TEST(MultiTerminal, ConstructionRejectsBadLayouts) {
  // One terminal is not a circuit.
  {
    om::SimulationConfig cfg = chain_config(8);
    cfg.contacts.resize(1);
    cfg.contacts[0].block = 0;
    EXPECT_THROW(om::Simulator{cfg}, std::invalid_argument);
  }
  // Duplicate attachment blocks (kLastBlock aliases the last block).
  {
    om::SimulationConfig cfg = chain_config(8);
    cfg.contacts.resize(2);
    cfg.contacts[0].block = 3;
    cfg.contacts[1].block = tr::kLastBlock;
    EXPECT_THROW(om::Simulator{cfg}, std::invalid_argument);
  }
  // Out-of-range block.
  {
    om::SimulationConfig cfg = chain_config(8);
    cfg.contacts = explicit_pair();
    cfg.contacts[1].block = 99;
    EXPECT_THROW(om::Simulator{cfg}, std::invalid_argument);
  }
}

TEST(MultiTerminal, ApiValidation) {
  om::SimulationConfig cfg = chain_config(8);
  cfg.contacts.resize(3);
  cfg.contacts[0].block = 0;
  cfg.contacts[1].block = 1;
  cfg.contacts[2].block = tr::kLastBlock;
  om::Simulator sim(cfg);
  const std::vector<double> grid{-1.0, 0.0, 1.0};

  EXPECT_THROW(sim.set_contact_shift(7, 0.1), std::invalid_argument);
  // The scalar-mu charge wrapper has no third reservoir to occupy.
  EXPECT_THROW(sim.charge_density(grid, 0.1, -0.1, nullptr),
               std::invalid_argument);
  // One mu per terminal.
  EXPECT_THROW(
      sim.charge_density(grid, std::vector<double>{0.1, -0.1}, nullptr),
      std::invalid_argument);
  EXPECT_THROW(
      sim.terminal_currents(grid, std::vector<double>{0.1, -0.1}, nullptr),
      std::invalid_argument);
  // The contour quadrature is a two-reservoir construction.
  EXPECT_THROW(
      sim.charge_density(grid, std::vector<double>{0.1, 0.0, -0.1}, nullptr,
                         omenx::charge::QuadratureAlgorithm::kContour),
      std::invalid_argument);
}
