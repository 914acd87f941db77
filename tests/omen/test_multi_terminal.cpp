// End-to-end tests of the N-terminal contact pipeline through the
// Simulator and the distribution engine:
//   * the symmetric-limit parity suite — a two-identical-contacts layout
//     spelled out explicitly must be *bit-identical* (EXPECT_EQ, no
//     tolerance) to the implicit classic pipeline, across world sizes
//     {1, 2, 4} and with work stealing on and off;
//   * 3-terminal sweeps — pairwise T_pq, Buettiker terminal currents with
//     sum_p I_p = 0 to machine rounding, per-contact charge;
//   * the T_pq table against the trace formula on seeded layouts (lead
//     pairs plus probes, adjacent probes, an interior lead contact);
//   * per-contact boundary caching — dissimilar leads cache independently
//     and a one-contact shift change re-keys only that contact;
//   * construction-time layout validation (std::invalid_argument before
//     any engine world exists).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "obc/strategy.hpp"
#include "omen/simulator.hpp"
#include "solvers/solver.hpp"
#include "transport/bands.hpp"
#include "transport/contacts.hpp"
#include "transport/transmission.hpp"

namespace df = omenx::dft;
namespace lt = omenx::lattice;
namespace nm = omenx::numeric;
namespace ob = omenx::obc;
namespace om = omenx::omen;
namespace sv = omenx::solvers;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
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
  scf.contact_shifts = {-0.05, -0.05};
  const auto base =
      reference.transfer_characteristics(vgs, vds, regions, grid, mu_s, scf);

  om::SimulationConfig cfg = chain_config(12);
  cfg.contacts = explicit_pair();
  om::Simulator sim(cfg);
  const auto iv =
      sim.transfer_characteristics(vgs, vds, regions, grid, mu_s, scf);
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

// ---------------------------------------------------------- T_pq table --

namespace {

// One terminal of a T_pq fixture: a lead contact (eta = 0) or a Buettiker
// probe (eta > 0) on `block` (tr::kLastBlock = last).
struct Terminal {
  idx block;
  double eta;
};

// T_pq = Tr[Gamma_p G_pq Gamma_q G_pq^H] evaluated as written: both Gammas
// as dense matrices, three products, then the trace.
double trace_formula(const CMatrix& sigma_p, const CMatrix& sigma_q,
                     const CMatrix& g) {
  const auto gamma = [](const CMatrix& s) {
    CMatrix out = s - nm::dagger(s);
    out *= cplx{0.0, 1.0};
    return out;
  };
  const CMatrix m = nm::matmul(
      gamma(sigma_p),
      nm::matmul(g, nm::matmul(gamma(sigma_q), nm::dagger(g))));
  cplx tr{0.0};
  for (idx i = 0; i < m.rows(); ++i) tr += m(i, i);
  return tr.real();
}

// Checks solve_energy_point's T_pq table against trace_formula on the same
// G (the same rgf solve of the same identity columns) at up to 8 energies
// from the bottom of the lead's band window: per energy, max_pq |T - T_ref| <= 1e-12 *
// max_pq |T_ref|.  The device carries a seeded random on-site potential,
// and each probe's eta is scaled by a seeded factor in [0.5, 1.5].  Also
// checks the sum rule sum_{q != p} T_pq = sum_{q != p} T_qp (current
// conservation of the Hermitian device plus the terminals' self-energies)
// to 1e-12 of the largest row sum (rounding alone leaves ~1e-15).
void check_t_table(const om::SimulationConfig& cfg,
                   const std::vector<Terminal>& terminals, unsigned seed) {
  const lt::Structure& structure = cfg.structure;
  om::Simulator sim(cfg);
  const df::LeadBlocks& lead = sim.lead_blocks();
  const df::FoldedLead& folded = sim.folded_lead();

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> pot(-0.2, 0.2), scale(0.5, 1.5);
  std::vector<double> cell_potential(
      static_cast<std::size_t>(structure.num_cells));
  for (double& v : cell_potential) v = pot(rng);
  const df::DeviceMatrices dm =
      df::assemble_device(lead, structure.num_cells, cell_potential);
  const idx nb = dm.h.num_blocks();
  const idx sf = dm.h.block_size();

  std::vector<tr::Contact> cs;
  for (const Terminal& t : terminals) {
    tr::Contact c;
    c.block = t.block;
    if (t.eta > 0.0) {
      c.probe_eta = t.eta * scale(rng);
    } else {
      c.lead = &lead;
      c.folded = &folded;
    }
    cs.push_back(c);
  }
  const tr::ContactSet set(cs);
  const idx nc = set.size();

  tr::EnergyPointOptions opts;
  opts.obc = tr::ObcAlgorithm::kShiftInvert;
  opts.solver = tr::SolverAlgorithm::kRgf;
  opts.want_density = false;
  opts.want_current = false;

  const auto strategy = ob::make_obc_strategy(opts.obc);
  const auto solver = sv::make_solver(sv::SolverAlgorithm::kRgf);
  const auto win = tr::band_window(sim.bands(9));
  double worst = 0.0, worst_sum = 0.0;
  int energies = 0;
  for (double e = win.emin + 0.03; e < win.emax && energies < 8;
       e += 0.19, ++energies) {
    const tr::EnergyPointResult r = tr::solve_energy_point(dm, set, e, opts);
    ASSERT_EQ(r.t_matrix.size(), static_cast<std::size_t>(nc * nc));

    // The reference: the same rgf solve of the same identity columns.
    omenx::blockmat::BlockTridiag a;
    a.assign_es_minus_h(cplx{e, 0.0}, dm.s, dm.h);
    const ob::Boundary bnd =
        strategy->boundary(lead, folded, cplx{e, 0.0}, opts.obc_opts);
    std::vector<CMatrix> sigma(static_cast<std::size_t>(nc));
    std::vector<CMatrix> rhs_blocks(static_cast<std::size_t>(nc));
    std::vector<sv::Attachment> attachments;
    std::vector<sv::RhsBlock> rhs;
    for (idx p = 0; p < nc; ++p) {
      const idx b = set.resolve_block(p, nb);
      CMatrix& sg = sigma[static_cast<std::size_t>(p)];
      if (set[p].is_probe()) {
        sg.resize(sf, sf);
        for (idx i = 0; i < sf; ++i) sg(i, i) = cplx{0.0, -set[p].probe_eta};
      } else {
        sg = b == nb - 1 ? bnd.sigma_r : bnd.sigma_l;
      }
      CMatrix& rb = rhs_blocks[static_cast<std::size_t>(p)];
      rb.resize(sf, nc * sf);
      for (idx i = 0; i < sf; ++i) rb(i, p * sf + i) = cplx{1.0};
      attachments.push_back({b, &sg});
      rhs.push_back({b, &rb});
    }
    const CMatrix x = solver->solve_attached(a, attachments, rhs);

    std::vector<double> ref(static_cast<std::size_t>(nc * nc), 0.0);
    double ref_max = 0.0;
    for (idx p = 0; p < nc; ++p)
      for (idx q = 0; q < nc; ++q) {
        if (p == q) continue;
        const double t = trace_formula(
            sigma[static_cast<std::size_t>(p)],
            sigma[static_cast<std::size_t>(q)],
            x.block(set.resolve_block(p, nb) * sf, q * sf, sf, sf));
        ref[static_cast<std::size_t>(p * nc + q)] = t;
        ref_max = std::max(ref_max, std::abs(t));
      }
    ASSERT_GT(ref_max, 0.0) << "E=" << e;
    double dev = 0.0;
    for (std::size_t k = 0; k < ref.size(); ++k)
      dev = std::max(dev, std::abs(r.t_matrix[k] - ref[k]));
    EXPECT_LE(dev, 1e-12 * ref_max) << "seed=" << seed << " E=" << e;
    worst = std::max(worst, dev / ref_max);

    double row_max = 0.0;
    std::vector<double> out_sum(static_cast<std::size_t>(nc), 0.0);
    std::vector<double> in_sum(static_cast<std::size_t>(nc), 0.0);
    for (idx p = 0; p < nc; ++p)
      for (idx q = 0; q < nc; ++q) {
        out_sum[static_cast<std::size_t>(p)] +=
            r.t_matrix[static_cast<std::size_t>(p * nc + q)];
        in_sum[static_cast<std::size_t>(p)] +=
            r.t_matrix[static_cast<std::size_t>(q * nc + p)];
      }
    for (idx p = 0; p < nc; ++p)
      row_max = std::max(row_max, std::abs(out_sum[static_cast<std::size_t>(p)]));
    for (idx p = 0; p < nc; ++p) {
      const double gap = std::abs(out_sum[static_cast<std::size_t>(p)] -
                                  in_sum[static_cast<std::size_t>(p)]);
      EXPECT_LE(gap, 1e-12 * row_max)
          << "seed=" << seed << " E=" << e << " terminal " << p;
      worst_sum = std::max(worst_sum, gap / row_max);
    }
  }
  EXPECT_GE(energies, 3);
  std::printf("[ t_table ] %s, %d terminals, seed %u: %d energies, "
              "max |T - T_ref| / max |T_ref| = %.3g, sum rule %.3g\n",
              structure.name.c_str(), static_cast<int>(nc), seed, energies,
              worst, worst_sum);
}

}  // namespace

TEST(MultiTerminal, TTableMatchesTraceFormula) {
  const om::SimulationConfig li = chain_config(12);  // 6 blocks of s = 2
  om::SimulationConfig si2;  // 24 orbitals per cell
  si2.structure.cell_atoms = {{lt::Species::kSi, {0.0, 0.0, 0.0}},
                              {lt::Species::kSi, {0.235, 0.0, 0.0}}};
  si2.structure.cell_length = 0.47;
  si2.structure.num_cells = 12;
  si2.structure.name = "Si2 chain";
  const std::vector<std::vector<Terminal>> layouts{
      // A lead pair plus probes of unequal eta.
      {{0, 0.0}, {tr::kLastBlock, 0.0}, {2, 0.03}, {4, 0.08}},
      // Probes on adjacent blocks.
      {{0, 0.0}, {tr::kLastBlock, 0.0}, {2, 0.05}, {3, 0.05}},
      // Three lead contacts, one interior: only the contact-contact route.
      {{0, 0.0}, {2, 0.0}, {tr::kLastBlock, 0.0}},
  };
  for (unsigned seed = 1; seed <= 3; ++seed)
    for (const auto& layout : layouts) check_t_table(li, layout, seed);
  // Large blocks take the packed GEMM route, here serially: the lead
  // solves' wide products would otherwise fork OpenMP threads, whose
  // runtime ThreadSanitizer (the CI job running this suite) cannot see
  // into.
  const bool parallel = nm::thread_parallelism();
  nm::set_thread_parallelism(false);
  check_t_table(si2, layouts[0], 1);
  nm::set_thread_parallelism(parallel);
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
