// Tests for the distributed execution engine: the Fig. 9 rank hierarchy
// (momentum -> energy -> spatial), the shared work queue with stealing,
// and the collective result assembly.  Sweeps are checked bit-identical
// across CommWorld sizes {1, 2, 7} — the sizes the CI matrix runs under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>

#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "omen/engine.hpp"
#include "omen/simulator.hpp"
#include "transport/bands.hpp"

namespace df = omenx::dft;
namespace lt = omenx::lattice;
namespace nm = omenx::numeric;
namespace om = omenx::omen;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

// A synthetic 1-orbital chain, z-periodic so the simulator builds a real
// multi-k momentum level.
lt::Structure chain_structure(idx cells, bool periodic = false) {
  lt::Structure s;
  s.cell_atoms = {{lt::Species::kLi, {0.0, 0.0, 0.0}}};
  s.cell_length = 0.5;
  s.num_cells = cells;
  s.name = "engine test chain";
  if (periodic) s.periodicity = lt::Periodicity::kZ;
  return s;
}

om::SimulationConfig chain_config(idx cells, idx nk) {
  om::SimulationConfig cfg;
  cfg.structure = chain_structure(cells, nk > 1);
  cfg.build.cutoff_nm = 1.0;  // NBW = 2: exercises supercell folding
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  cfg.num_k = nk;
  cfg.num_devices = 2;
  return cfg;
}

// Random-Hermitian lead blocks for driving the Engine API directly.
df::LeadBlocks synthetic_lead(idx s, unsigned seed) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  CMatrix h0 = nm::random_cmatrix(s, s, seed);
  lead.h[0] = (h0 + nm::dagger(h0)) * cplx{0.25};
  lead.h[1] = nm::random_cmatrix(s, s, seed + 1) * cplx{0.4};
  lead.s[0] = CMatrix::identity(s);
  lead.s[1] = CMatrix(s, s);
  return lead;
}

tr::EnergyPointOptions cheap_options() {
  tr::EnergyPointOptions opts;
  opts.obc = tr::ObcAlgorithm::kDecimation;
  opts.solver = tr::SolverAlgorithm::kBlockLU;
  opts.want_density = false;
  opts.want_current = false;
  return opts;
}

}  // namespace

TEST(Engine, SpectrumIdenticalAcrossWorldSizes) {
  // The acceptance bar: T(E) from the quickstart-style device must be
  // bit-identical for CommWorld sizes 1 (flat degenerate loop), 2, and 7.
  const idx nk = 3;
  om::SimulationConfig cfg = chain_config(8, nk);
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  std::vector<double> grid;
  for (double e = window.emin + 0.05; e < window.emax; e += 0.21)
    grid.push_back(e);
  ASSERT_GE(grid.size(), 4u);
  const auto base = reference.transmission_spectrum(grid);
  EXPECT_EQ(reference.last_sweep_stats().ranks, 1);

  for (const int ranks : {2, 7}) {
    om::SimulationConfig dcfg = chain_config(8, nk);
    dcfg.num_ranks = ranks;
    om::Simulator sim(dcfg);
    const auto sp = sim.transmission_spectrum(grid);
    EXPECT_EQ(sim.last_sweep_stats().ranks, ranks);
    EXPECT_EQ(sim.last_sweep_stats().tasks_total,
              static_cast<idx>(grid.size()) * nk);
    ASSERT_EQ(sp.transmission.size(), base.transmission.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_DOUBLE_EQ(sp.transmission[i], base.transmission[i])
          << "ranks=" << ranks << " point " << i;
      EXPECT_EQ(sp.propagating[i], base.propagating[i])
          << "ranks=" << ranks << " point " << i;
    }
  }
}

TEST(Engine, MoreMomentaThanRanks) {
  // 5 k points on 2 ranks: each rank's group owns several momenta and the
  // queue must still drain every (k, E) exactly once.
  const idx nk = 5;
  om::SimulationConfig cfg = chain_config(6, nk);
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mid = 0.5 * (window.emin + window.emax);
  const std::vector<double> grid{mid - 0.2, mid, mid + 0.2};
  const auto base = reference.transmission_spectrum(grid);

  om::SimulationConfig dcfg = chain_config(6, nk);
  dcfg.num_ranks = 2;
  om::Simulator sim(dcfg);
  const auto sp = sim.transmission_spectrum(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(sp.transmission[i], base.transmission[i]);
}

TEST(Engine, WorkStealingBalancesImbalancedGrids) {
  // One hot k with 10x the energy points of the others: with stealing the
  // idle groups must take over a share of the hot k's tail (and fetch its
  // lead blocks, which they never owned); statically they may not.
  const idx s = 6, cells = 12;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k) leads.push_back(synthetic_lead(s, 31 + 7 * k));

  om::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(4);
  for (int ie = 0; ie < 40; ++ie)
    req.energies[0].push_back(-2.0 + 0.1 * ie);
  for (std::size_t k = 1; k < 4; ++k)
    for (int ie = 0; ie < 4; ++ie)
      req.energies[k].push_back(-1.0 + 0.5 * ie);

  om::EngineConfig scfg;
  scfg.num_ranks = 4;
  scfg.work_stealing = false;
  om::Engine static_engine(scfg);
  const auto st = static_engine.run(req);
  EXPECT_EQ(st.stats.tasks_stolen, 0);
  ASSERT_EQ(st.stats.tasks_per_rank.size(), 4u);
  // Without stealing the hot k's single group does all 40 of its points.
  EXPECT_EQ(*std::max_element(st.stats.tasks_per_rank.begin(),
                              st.stats.tasks_per_rank.end()),
            40);

  om::EngineConfig wcfg;
  wcfg.num_ranks = 4;
  om::Engine stealing_engine(wcfg);
  const auto dy = stealing_engine.run(req);
  EXPECT_GT(dy.stats.tasks_stolen, 0);
  EXPECT_LT(*std::max_element(dy.stats.tasks_per_rank.begin(),
                              dy.stats.tasks_per_rank.end()),
            40);
  EXPECT_EQ(std::accumulate(dy.stats.tasks_per_rank.begin(),
                            dy.stats.tasks_per_rank.end(), idx{0}),
            52);

  // Same numbers either way — scheduling must not change physics.
  for (std::size_t k = 0; k < 4; ++k)
    for (std::size_t ie = 0; ie < req.energies[k].size(); ++ie)
      EXPECT_DOUBLE_EQ(dy.caroli[k][ie], st.caroli[k][ie]);
}

namespace {

/// Bit pattern of every double in a result table, row-major.
template <typename Rows>
std::vector<std::uint64_t> table_bits(const Rows& rows) {
  std::vector<std::uint64_t> out;
  for (const auto& row : rows)
    for (const auto& v : row) {
      std::uint64_t b = 0;
      const double d = static_cast<double>(v);
      std::memcpy(&b, &d, sizeof b);
      out.push_back(b);
    }
  return out;
}

/// Every SweepResult output field, bitwise.
void expect_same_outputs(const om::SweepResult& a, const om::SweepResult& b,
                         const std::string& label) {
  EXPECT_EQ(table_bits(a.transmission), table_bits(b.transmission)) << label;
  EXPECT_EQ(table_bits(a.caroli), table_bits(b.caroli)) << label;
  EXPECT_EQ(a.propagating, b.propagating) << label;
  EXPECT_EQ(table_bits(std::vector<std::vector<double>>{a.charge}),
            table_bits(std::vector<std::vector<double>>{b.charge}))
      << label;
  ASSERT_EQ(a.t_matrix.size(), b.t_matrix.size()) << label;
  for (std::size_t k = 0; k < a.t_matrix.size(); ++k)
    EXPECT_EQ(table_bits(a.t_matrix[k]), table_bits(b.t_matrix[k]))
        << label << " k=" << k;
  EXPECT_EQ(a.stats.tasks_total, b.stats.tasks_total) << label;
  EXPECT_EQ(a.stats.tasks_greens, b.stats.tasks_greens) << label;
}

}  // namespace

TEST(Engine, ForcedProtocolMatchesFlatLoop) {
  // flat_single_rank = false runs the full request/assign protocol on one
  // rank (coordinator + worker on the same thread pair) — the benchmark's
  // serial baseline.  The flat loop and the protocol at 1 and 2 ranks feed
  // one task executor, so every output must agree bit for bit: on a
  // request mixing charge-weighted real-axis energies with contour nodes,
  // for the symmetric pair (batched under block_lu, per task under bcr)
  // and a 3-contact list (per task, T matrix filled), batching on and off.
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads{synthetic_lead(s, 77),
                                    synthetic_lead(s, 83)};
  const std::vector<std::vector<df::LeadBlocks>> probe_rows{
      {synthetic_lead(s, 89), synthetic_lead(s, 97)}};
  om::SweepRequest base;
  base.leads = &leads;
  base.cells = cells;
  base.potential.assign(static_cast<std::size_t>(cells), 0.0);
  base.point = cheap_options();
  base.point.obc = tr::ObcAlgorithm::kShiftInvert;
  base.point.want_density = true;
  base.energies = {{-1.5, -0.5, 0.0, 0.5, 1.5, 0.9}, {-0.75, 0.25, 1.1}};
  base.gf_nodes = {{cplx{-1.0, 0.3}, cplx{0.2, 0.4}},
                   {cplx{-0.4, 0.25}, cplx{0.6, 0.5}, cplx{1.0, 0.2}}};
  base.gf_weights = {{cplx{0.05, -0.02}, cplx{0.1, 0.03}},
                     {cplx{0.02, 0.01}, cplx{-0.04, 0.06}, cplx{0.07, 0.0}}};

  for (const int layout : {2, 3}) {
    om::SweepRequest req = base;
    if (layout == 3) {
      req.contacts.push_back(om::SweepContact{0.0, 0.0, 4, 0, 0.0});
      req.contact_leads = &probe_rows;
    }
    req.density_weight.resize(req.contacts.size());
    for (std::size_t p = 0; p < req.contacts.size(); ++p)
      for (std::size_t k = 0; k < req.energies.size(); ++k) {
        req.density_weight[p].emplace_back();
        for (std::size_t ie = 0; ie < req.energies[k].size(); ++ie)
          req.density_weight[p][k].push_back(0.1 * (p + 1.0) +
                                             0.01 * (ie + k));
      }
    for (const auto solver :
         {tr::SolverAlgorithm::kBlockLU, tr::SolverAlgorithm::kBcr}) {
      // bcr has no multi-terminal attachment: pair only.
      if (layout == 3 && solver == tr::SolverAlgorithm::kBcr) continue;
      req.point.solver = solver;
      om::EngineConfig rcfg;
      rcfg.batch_tasks = false;
      const auto ref = om::Engine(rcfg).run(req);
      ASSERT_EQ(ref.charge.size(), static_cast<std::size_t>(cells));
      EXPECT_EQ(ref.stats.tasks_greens, 5);
      EXPECT_EQ(ref.t_matrix.empty(), layout == 2);
      EXPECT_GT(std::accumulate(ref.transmission[0].begin(),
                                ref.transmission[0].end(), 0.0),
                0.0);
      EXPECT_TRUE(std::any_of(ref.charge.begin(), ref.charge.end(),
                              [](double q) { return q != 0.0; }));
      if (layout == 3) {
        double t_sum = 0.0;
        for (const auto& row : ref.t_matrix[0])
          for (const double t : row) t_sum += t;
        EXPECT_GT(t_sum, 0.0);
      }
      for (const bool batch : {false, true}) {
        for (const int ranks : {0, 1, 2}) {  // 0 = the flat loop
          const std::string label =
              "contacts=" + std::to_string(layout) +
              " solver=" + omenx::solvers::algorithm_name(solver) +
              " batch=" + std::to_string(batch) +
              " ranks=" + std::to_string(ranks);
          om::EngineConfig cfg;
          cfg.batch_tasks = batch;
          cfg.max_batch = 4;
          cfg.num_ranks = std::max(1, ranks);
          cfg.flat_single_rank = ranks == 0;
          const auto got = om::Engine(cfg).run(req);
          expect_same_outputs(got, ref, label);
          // Only the block_lu pair batches.
          const bool batched = batch && layout == 2 &&
                               solver == tr::SolverAlgorithm::kBlockLU;
          EXPECT_EQ(got.stats.batches_issued > 0, batched) << label;
        }
      }
    }
  }
}

TEST(Engine, ChargeDensityConsistentAcrossWorldSizes) {
  om::SimulationConfig cfg = chain_config(10, 1);
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  std::vector<double> grid;
  for (double e = window.emin + 0.02; e < window.emax; e += 0.3)
    grid.push_back(e);
  const double mu = 0.5 * (window.emin + window.emax);
  // Unequal contact potentials: the source and drain density weights
  // differ, so this also pins the distributed two-contact charge path.
  const auto base = reference.charge_density(grid, mu, mu - 0.2, nullptr);

  for (const int ranks : {2, 7}) {
    om::SimulationConfig dcfg = cfg;
    dcfg.num_ranks = ranks;
    om::Simulator sim(dcfg);
    const auto charge = sim.charge_density(grid, mu, mu - 0.2, nullptr);
    ASSERT_EQ(charge.size(), base.size());
    // Bit-identical, not merely close: per-task contributions are summed
    // in flat task order at the root, so work stealing moving tasks
    // between ranks must not change the rounding.
    for (std::size_t c = 0; c < charge.size(); ++c)
      EXPECT_DOUBLE_EQ(charge[c], base[c])
          << "ranks=" << ranks << " cell " << c;
  }
}

TEST(Engine, EnergyGroupWidthAndDeviceSlices) {
  // Width-2 energy groups: only group leaders pull tasks; members idle at
  // the spatial level but still hold the broadcast inputs and join the
  // assembly collectives.
  const idx nk = 2;
  om::SimulationConfig cfg = chain_config(8, nk);
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mid = 0.5 * (window.emin + window.emax);
  const std::vector<double> grid{mid - 0.1, mid, mid + 0.1, mid + 0.2};
  const auto base = reference.transmission_spectrum(grid);

  om::SimulationConfig dcfg = chain_config(8, nk);
  dcfg.num_ranks = 6;
  dcfg.ranks_per_energy_group = 2;
  om::Simulator sim(dcfg);
  const auto sp = sim.transmission_spectrum(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(sp.transmission[i], base.transmission[i]);
  // 6 ranks over 2 momentum groups, width 2 -> at most 3-4 leaders total;
  // at least one rank per group must have pulled nothing.
  const auto& tpr = sim.last_sweep_stats().tasks_per_rank;
  ASSERT_EQ(tpr.size(), 6u);
  EXPECT_EQ(std::accumulate(tpr.begin(), tpr.end(), idx{0}),
            static_cast<idx>(grid.size()) * nk);
}

TEST(Engine, SplitSolveBackendRunsDistributed) {
  // The SplitSolve path exercises the accelerator slices (spatial level).
  om::SimulationConfig cfg = chain_config(8, 1);
  cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = tr::SolverAlgorithm::kSplitSolve;
  cfg.point.partitions = 2;
  cfg.num_devices = 2;
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mid = 0.5 * (window.emin + window.emax);
  const std::vector<double> grid{mid - 0.15, mid, mid + 0.15};
  const auto base = reference.transmission_spectrum(grid);

  om::SimulationConfig dcfg = cfg;
  dcfg.num_ranks = 2;
  om::Simulator sim(dcfg);
  const auto sp = sim.transmission_spectrum(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(sp.transmission[i], base.transmission[i]);
}

TEST(Engine, TransferCharacteristicsThroughEngine) {
  // The SCF loop's charge and current evaluations both route through the
  // engine; a 2-rank run must land on the same I-V point as single-rank.
  om::SimulationConfig cfg = chain_config(12, 1);
  om::Simulator reference(cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  const double mu = 0.5 * (window.emin + window.emax);
  std::vector<double> grid;
  for (double e = mu - 0.3; e <= mu + 0.3; e += 0.1) grid.push_back(e);
  lt::DeviceRegions regions{4, 4, 4};
  omenx::poisson::ScfOptions scf;
  scf.max_iter = 6;

  const auto base = reference.transfer_characteristics({0.1}, 0.05, regions,
                                                       grid, mu, scf);
  om::SimulationConfig dcfg = cfg;
  dcfg.num_ranks = 2;
  om::Simulator sim(dcfg);
  const auto iv =
      sim.transfer_characteristics({0.1}, 0.05, regions, grid, mu, scf);
  ASSERT_EQ(iv.size(), 1u);
  EXPECT_EQ(iv[0].scf_iterations, base[0].scf_iterations);
  EXPECT_NEAR(iv[0].current, base[0].current,
              1e-6 * (1.0 + std::abs(base[0].current)));
}

TEST(Engine, RankErrorsPropagateWithoutDeadlock) {
  // A throwing stage on a leader rank must drain the queue protocol and
  // the assembly collectives, then rethrow on the caller — not hang the
  // coordinator in recv or rank 0 in service.join().  cells = 1 makes
  // assemble_device ("need at least 2 supercells") throw during every
  // leader's KData build, the earliest and most deadlock-prone stage.
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 11),
                                    synthetic_lead(4, 12)};
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = 1;
  req.potential.assign(1, 0.0);
  req.point = cheap_options();
  req.energies = {{0.0, 0.5}, {-0.5, 0.0, 0.5}};

  om::Engine flat(om::EngineConfig{});
  EXPECT_THROW(flat.run(req), std::invalid_argument);

  om::EngineConfig dcfg;
  dcfg.num_ranks = 4;
  om::Engine distributed(dcfg);
  EXPECT_THROW(distributed.run(req), std::invalid_argument);

  // Width-2 groups: non-leaders must also drain cleanly.
  om::EngineConfig wcfg;
  wcfg.num_ranks = 4;
  wcfg.ranks_per_energy_group = 2;
  om::Engine wide(wcfg);
  EXPECT_THROW(wide.run(req), std::invalid_argument);
}

TEST(Engine, BoundaryCacheReusedAcrossSweeps) {
  // The SCF outer loop re-sweeps identical (k, E) grids: the second sweep
  // must hit the per-rank boundary cache for every point, solve zero lead
  // eigenproblems, and still produce the first sweep's spectrum verbatim.
  om::SimulationConfig cfg = chain_config(8, 1);
  om::Simulator sim(cfg);
  const auto bands = sim.bands(9);
  const auto window = tr::band_window(bands);
  std::vector<double> grid;
  for (double e = window.emin + 0.05; e < window.emax; e += 0.2)
    grid.push_back(e);

  const auto first = sim.transmission_spectrum(grid);
  const auto after_first = sim.boundary_cache_stats();
  EXPECT_EQ(after_first.misses, grid.size());
  EXPECT_EQ(after_first.hits, 0u);

  const auto solves_before = omenx::obc::boundary_solve_count();
  const auto second = sim.transmission_spectrum(grid);
  EXPECT_EQ(omenx::obc::boundary_solve_count(), solves_before);
  EXPECT_EQ(sim.boundary_cache_stats().hits, grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_DOUBLE_EQ(second.transmission[i], first.transmission[i]);

  // The default pair shares one boundary: contact 0 carries every fetch
  // and contact 1 none, cumulatively and in the run's own stats.
  const auto total = sim.boundary_cache_stats();
  const auto c0 = sim.contact_boundary_cache_stats(0);
  const auto c1 = sim.contact_boundary_cache_stats(1);
  EXPECT_EQ(c0.hits, total.hits);
  EXPECT_EQ(c0.misses, total.misses);
  EXPECT_EQ(c0.insertions, total.insertions);
  EXPECT_EQ(c1.hits + c1.misses + c1.insertions, 0u);
  const auto& per_run = sim.last_sweep_stats().contact_cache_stats;
  ASSERT_EQ(per_run.size(), 2u);
  EXPECT_EQ(per_run[0].hits, grid.size());
  EXPECT_EQ(per_run[0].misses, 0u);
  EXPECT_EQ(per_run[1].hits + per_run[1].misses, 0u);

  // The charge sweep revisits the same keys: still no new lead solves.
  const double mu = 0.5 * (window.emin + window.emax);
  sim.charge_density(grid, mu, mu - 0.1, nullptr);
  EXPECT_EQ(omenx::obc::boundary_solve_count(), solves_before);

  // Invalidation empties the cache; the next sweep recomputes.
  sim.invalidate_boundary_cache();
  sim.transmission_spectrum(grid);
  EXPECT_EQ(omenx::obc::boundary_solve_count(),
            solves_before + grid.size());
}

TEST(Engine, CachedSweepsBitIdenticalAcrossWorldSizesAndStealing) {
  // Caching must be invisible to the physics: cached runs at world sizes
  // 1/2/4 (the hot-k request forces stealing at 4 ranks) agree bit-for-bit
  // with the uncached flat reference, on first *and* repeat sweeps.
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k)
    leads.push_back(synthetic_lead(s, 51 + 3 * k));
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(4);
  for (int ie = 0; ie < 24; ++ie)
    req.energies[0].push_back(-2.0 + 0.15 * ie);
  for (std::size_t k = 1; k < 4; ++k)
    for (int ie = 0; ie < 3; ++ie)
      req.energies[k].push_back(-1.0 + 0.5 * ie);

  om::EngineConfig ucfg;
  ucfg.cache_boundaries = false;
  om::Engine uncached(ucfg);
  const auto ref = uncached.run(req);

  for (const int ranks : {1, 2, 4}) {
    om::EngineConfig ccfg;
    ccfg.num_ranks = ranks;
    om::Engine cached(ccfg);
    const auto a = cached.run(req);
    const auto b = cached.run(req);  // second sweep: served from the cache
    if (ranks == 4) EXPECT_GT(a.stats.tasks_stolen, 0);
    for (std::size_t k = 0; k < 4; ++k)
      for (std::size_t ie = 0; ie < req.energies[k].size(); ++ie) {
        EXPECT_DOUBLE_EQ(a.caroli[k][ie], ref.caroli[k][ie])
            << "ranks=" << ranks;
        EXPECT_DOUBLE_EQ(b.caroli[k][ie], ref.caroli[k][ie])
            << "ranks=" << ranks << " (cached resweep)";
      }
    EXPECT_GT(cached.boundary_cache_stats().hits, 0u);
  }
}

TEST(Engine, SigmaOnlyObcDensityRequestFailsLoudlyAndDrains) {
  // Decimation provides no injection states: a charge-carrying sweep must
  // surface std::invalid_argument — from the flat loop and from every rank
  // topology — instead of silently integrating zero density (and the world
  // must drain, not hang).  block_lu throws from inside a batched call;
  // bcr (not batchable) from inside a per-task bucket on the thread pool —
  // the flat loop's three tasks, and at least one leader's two of them.
  for (const auto solver :
       {tr::SolverAlgorithm::kBlockLU, tr::SolverAlgorithm::kBcr}) {
    om::SimulationConfig cfg = chain_config(8, 1);
    cfg.point.obc = tr::ObcAlgorithm::kDecimation;
    cfg.point.solver = solver;
    om::Simulator reference(cfg);
    const auto bands = reference.bands(9);
    const auto window = tr::band_window(bands);
    const double mu = 0.5 * (window.emin + window.emax);
    const std::vector<double> grid{mu - 0.1, mu, mu + 0.1};
    EXPECT_THROW(reference.charge_density(grid, mu, mu, nullptr),
                 std::invalid_argument)
        << omenx::solvers::algorithm_name(solver);

    for (const int ranks : {2, 4}) {
      om::SimulationConfig dcfg = cfg;
      dcfg.num_ranks = ranks;
      if (ranks == 4) dcfg.ranks_per_energy_group = 2;
      om::Simulator sim(dcfg);
      EXPECT_THROW(sim.charge_density(grid, mu, mu, nullptr),
                   std::invalid_argument)
          << omenx::solvers::algorithm_name(solver) << " ranks=" << ranks;
    }
  }
}

TEST(Engine, ObcOptionChangeRekeysPersistentCaches) {
  // The cache key carries the ObcOptions digest and the lead content hash:
  // a run under changed options or swapped leads misses instead of
  // replaying Boundaries computed under the old annulus/eta/ridge or lead,
  // and going back to the first configuration hits the entries it left.
  // Nothing is ever invalidated.
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 71)};
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = 8;
  req.potential.assign(8, 0.0);
  req.point = cheap_options();
  req.energies = {{-1.0, -0.5, 0.0, 0.5}};
  const std::uint64_t ne = req.energies[0].size();

  om::EngineConfig fresh_cfg;
  fresh_cfg.cache_boundaries = false;
  om::Engine fresh(fresh_cfg);
  const auto expect_fresh = [&](const om::SweepResult& got, const char* what) {
    const auto ref = fresh.run(req);
    for (std::size_t ie = 0; ie < ne; ++ie)
      EXPECT_EQ(got.caroli[0][ie], ref.caroli[0][ie]) << what << " " << ie;
  };

  om::Engine engine(om::EngineConfig{});
  const auto first = engine.run(req);
  engine.run(req);  // same options: cache serves the sweep
  EXPECT_EQ(engine.boundary_cache_stats().hits, ne);
  EXPECT_EQ(engine.boundary_cache_stats().misses, ne);

  req.point.obc_opts.decimation.eta = 1e-5;  // changed backend parameter
  expect_fresh(engine.run(req), "changed eta");
  EXPECT_EQ(engine.boundary_cache_stats().hits, ne);
  EXPECT_EQ(engine.boundary_cache_stats().misses, 2 * ne);

  // Different lead Hamiltonians under the same (k, E): new keys again.
  std::vector<df::LeadBlocks> other_leads{synthetic_lead(4, 72)};
  req.leads = &other_leads;
  expect_fresh(engine.run(req), "swapped leads");
  EXPECT_EQ(engine.boundary_cache_stats().hits, ne);
  EXPECT_EQ(engine.boundary_cache_stats().misses, 3 * ne);

  // Back to the first configuration: every boundary is still cached.
  req.leads = &leads;
  req.point.obc_opts.decimation.eta = cheap_options().obc_opts.decimation.eta;
  const auto back = engine.run(req);
  EXPECT_EQ(engine.boundary_cache_stats().hits, 2 * ne);
  EXPECT_EQ(engine.boundary_cache_stats().misses, 3 * ne);
  for (std::size_t ie = 0; ie < ne; ++ie)
    EXPECT_EQ(back.caroli[0][ie], first.caroli[0][ie]) << ie;
  EXPECT_EQ(engine.boundary_cache_stats().invalidations, 0u);
}

TEST(Engine, ContactShiftChangeRekeysCache) {
  om::SimulationConfig cfg = chain_config(8, 1);
  om::Simulator sim(cfg);
  const auto bands = sim.bands(9);
  const auto window = tr::band_window(bands);
  const double v_shift = 0.15;
  std::vector<double> grid;
  for (double e = window.emin + 0.1; e < window.emax - 0.2; e += 0.25)
    grid.push_back(e);
  const std::uint64_t ne = grid.size();

  const auto base = sim.transmission_spectrum(grid);
  EXPECT_EQ(sim.boundary_cache_stats().misses, ne);
  // The shift is part of the key: the same grid at a new shift misses on
  // every point, however often the shift is set.
  sim.set_contact_shift(v_shift);
  sim.set_contact_shift(v_shift);
  const auto at_shift = sim.transmission_spectrum(grid);
  EXPECT_EQ(sim.boundary_cache_stats().misses, 2 * ne);
  EXPECT_EQ(sim.boundary_cache_stats().hits, 0u);
  om::SimulationConfig ucfg = cfg;
  ucfg.cache_boundaries = false;
  om::Simulator uncached(ucfg);
  uncached.set_contact_shift(v_shift);
  const auto ref = uncached.transmission_spectrum(grid);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(at_shift.transmission[i], ref.transmission[i]) << i;

  // Physics of the shift: leads at potential V with the device floated to
  // the same V is the pristine system at E - V.
  const std::vector<double> lifted(8, v_shift);
  std::vector<double> shifted_grid;
  for (const double e : grid) shifted_grid.push_back(e + v_shift);
  const auto shifted = sim.transmission_spectrum(shifted_grid, &lifted);
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_NEAR(shifted.transmission[i], base.transmission[i], 1e-7) << i;

  // The SCF driver plumbs the shift from ScfOptions (0.15 -> 0.0 here):
  // back at shift 0 the first sweep's lead solves are still cached, so
  // neither bias sweep solves a single lead eigenproblem.
  lt::DeviceRegions regions{3, 2, 3};
  omenx::poisson::ScfOptions scf;
  scf.max_iter = 2;
  scf.contact_shifts = {0.0, 0.0};
  const auto solves_before = omenx::obc::boundary_solve_count();
  const auto hits_before = sim.boundary_cache_stats().hits;
  sim.transfer_characteristics({0.0}, 0.05, regions, grid,
                               0.5 * (window.emin + window.emax), scf);
  sim.transfer_characteristics({0.0}, 0.05, regions, grid,
                               0.5 * (window.emin + window.emax), scf);
  EXPECT_EQ(omenx::obc::boundary_solve_count(), solves_before);
  EXPECT_GT(sim.boundary_cache_stats().hits, hits_before);
  EXPECT_EQ(sim.boundary_cache_stats().invalidations, 0u);
}

TEST(Engine, NonFiniteInputsAreRejectedAndNeverPoisonTheCache) {
  // A NaN energy used to become a cache key; NaN compares unordered with
  // every key, so the next sweep's lookups all "found" the NaN boundary.
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 71)};
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = 8;
  req.potential.assign(8, 0.0);
  req.point = cheap_options();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  om::Engine engine(om::EngineConfig{});
  req.energies = {{nan}};
  EXPECT_THROW(engine.run(req), std::invalid_argument);
  req.energies = {{0.5}};
  const auto cached = engine.run(req);
  om::EngineConfig ucfg;
  ucfg.cache_boundaries = false;
  const auto ref = om::Engine(ucfg).run(req);
  EXPECT_EQ(cached.caroli[0][0], ref.caroli[0][0]);
  EXPECT_EQ(cached.transmission[0][0], ref.transmission[0][0]);
  EXPECT_TRUE(std::isfinite(cached.caroli[0][0]));

  // Contour nodes/weights and contact shifts are key material too.
  om::SweepRequest bad = req;
  bad.gf_nodes = {{cplx{0.0, nan}}};
  bad.gf_weights = {{cplx{1.0, 0.0}}};
  EXPECT_THROW(engine.run(bad), std::invalid_argument);
  bad.gf_nodes = {{cplx{0.0, 0.5}}};
  bad.gf_weights = {{cplx{std::numeric_limits<double>::infinity(), 0.0}}};
  EXPECT_THROW(engine.run(bad), std::invalid_argument);
  bad = req;
  bad.point.obc_opts.contact_shift = nan;
  EXPECT_THROW(engine.run(bad), std::invalid_argument);
  bad = req;
  bad.contacts.resize(2);
  bad.contacts[0].block = 0;
  bad.contacts[1].shift = nan;
  EXPECT_THROW(engine.run(bad), std::invalid_argument);
  // A non-finite density weight would return NaN charge.
  bad = req;
  bad.density_weight = {{{nan}}, {{0.0}}};
  EXPECT_THROW(engine.run(bad), std::invalid_argument);
  bad.density_weight = {{{0.0}}, {{std::numeric_limits<double>::infinity()}}};
  EXPECT_THROW(engine.run(bad), std::invalid_argument);
}

TEST(Engine, NonFiniteChemicalPotentialsAreRejected) {
  // Every Fermi weight of a NaN terminal is NaN: the simulator must refuse
  // the call and name the terminal instead of returning NaN observables.
  om::Simulator sim(chain_config(8, 1));
  const auto window = tr::band_window(sim.bands(9));
  const double mu = 0.5 * (window.emin + window.emax);
  std::vector<double> grid;
  for (double e = window.emin + 0.05; e < window.emax; e += 0.2)
    grid.push_back(e);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto message_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no std::invalid_argument";
  };
  const auto names = [](const std::string& what, const char* terminal) {
    return what.find(terminal) != std::string::npos;
  };
  EXPECT_TRUE(names(
      message_of([&] { sim.charge_density(grid, nan, mu - 0.1, nullptr); }),
      "terminal 0"));
  EXPECT_TRUE(names(message_of([&] {
                      sim.charge_density(grid, mu, nan, nullptr,
                                         omenx::charge::QuadratureAlgorithm::
                                             kContour);
                    }),
                    "terminal 1"));
  EXPECT_TRUE(names(message_of([&] {
                      sim.charge_density(grid, std::vector<double>{mu, nan},
                                         nullptr);
                    }),
                    "terminal 1"));
  EXPECT_TRUE(names(
      message_of([&] { sim.current(grid, nan, mu - 0.1, nullptr); }),
      "terminal 0"));
  EXPECT_TRUE(names(message_of([&] {
                      sim.terminal_currents(
                          grid, {nan, 0.1}, nullptr);
                    }),
                    "terminal 0"));
  EXPECT_TRUE(names(message_of([&] {
                      sim.terminal_currents(
                          grid, {0.1, std::numeric_limits<double>::infinity()},
                          nullptr);
                    }),
                    "terminal 1"));
}

TEST(Engine, RandomizedCacheFreshnessMatchesUncachedSweeps) {
  // Property: whatever sequence of option changes, lead swaps, uniform and
  // per-contact shift changes a persistent cached engine sees, every sweep
  // equals a fresh uncached engine's bit for bit, and revisiting an earlier
  // configuration is served entirely from the cache.
  constexpr unsigned kSeed = 1234567u;
  SCOPED_TRACE("freshness seed " + std::to_string(kSeed));
  std::printf("[ freshness ] seed %u\n", kSeed);
  const idx s = 4, cells = 8;
  // Two lead materials per k; the drain of a dissimilar pair uses the one
  // the classic (source) material does not.
  std::vector<std::vector<df::LeadBlocks>> lead_sets(2);
  for (unsigned m = 0; m < 2; ++m)
    for (unsigned k = 0; k < 2; ++k)
      lead_sets[m].push_back(synthetic_lead(s, 301 + 10 * m + 3 * k));
  const std::vector<std::vector<df::LeadBlocks>> drain_rows[2] = {
      {lead_sets[1]}, {lead_sets[0]}};
  const double shifts[2] = {0.0, 0.15};

  // Configuration: {algorithm, eta, annulus, ridge, lead set, pair mode,
  // source/uniform shift, drain shift}, each a 0/1 variant index.
  using Config = std::array<int, 8>;
  const auto request_for = [&](const Config& c) {
    om::SweepRequest req;
    req.leads = &lead_sets[static_cast<std::size_t>(c[4])];
    req.cells = cells;
    req.potential.assign(static_cast<std::size_t>(cells), 0.0);
    req.point = cheap_options();
    req.point.obc =
        c[0] != 0 ? tr::ObcAlgorithm::kFeast : tr::ObcAlgorithm::kDecimation;
    req.point.obc_opts.decimation.eta = c[1] != 0 ? 1e-5 : 1e-7;
    req.point.obc_opts.feast.annulus_r = c[2] != 0 ? 8.0 : 20.0;
    req.point.obc_opts.boundary.pinv_ridge = c[3] != 0 ? 1e-10 : 1e-12;
    if (c[5] == 0) {
      req.contacts[0].shift = shifts[c[6]];
      req.contacts[1].shift = shifts[c[6]];
    } else {
      req.contacts.resize(2);
      req.contacts[0].block = 0;
      req.contacts[0].shift = shifts[c[6]];
      req.contacts[1].block = tr::kLastBlock;
      req.contacts[1].shift = shifts[c[7]];
      req.contacts[1].material = 0;
      req.contact_leads = &drain_rows[c[4]];
    }
    req.energies = {{-1.0, -0.5, 0.0, 0.5}, {-0.75, 0.25}};
    return req;
  };

  std::mt19937 rng(kSeed);
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    // Stealing off keeps each k on one rank's cache, so revisits hit.
    om::EngineConfig ccfg;
    ccfg.num_ranks = ranks;
    ccfg.work_stealing = false;
    om::Engine cached(ccfg);
    om::EngineConfig ucfg = ccfg;
    ucfg.cache_boundaries = false;
    std::vector<Config> seen;
    Config c{};
    // Every dimension flips once per shuffled pass, so each kind of change
    // occurs whatever the seed.
    std::vector<std::size_t> dims;
    int revisits = 0;
    for (int step = 0; step < 24; ++step) {
      if (step > 0 && rng() % 4 == 0) {
        c = seen[rng() % seen.size()];  // revisit an earlier configuration
      } else if (step > 0) {
        if (dims.empty()) {
          dims = {0, 1, 2, 3, 4, 5, 6, 7};
          std::shuffle(dims.begin(), dims.end(), rng);
        }
        c[dims.back()] = 1 - c[dims.back()];
        dims.pop_back();
      }
      std::string label = "step " + std::to_string(step) + " config";
      for (const int v : c) label += " " + std::to_string(v);
      SCOPED_TRACE(label);
      const bool revisit = std::find(seen.begin(), seen.end(), c) != seen.end();
      const om::SweepRequest req = request_for(c);
      const auto before = cached.boundary_cache_stats();
      const auto got = cached.run(req);
      const auto after = cached.boundary_cache_stats();
      const auto ref = om::Engine(ucfg).run(req);
      for (std::size_t k = 0; k < req.energies.size(); ++k)
        for (std::size_t ie = 0; ie < req.energies[k].size(); ++ie) {
          EXPECT_EQ(got.caroli[k][ie], ref.caroli[k][ie]) << k << "," << ie;
          EXPECT_EQ(got.transmission[k][ie], ref.transmission[k][ie])
              << k << "," << ie;
        }
      if (revisit) {
        ++revisits;
        EXPECT_EQ(after.misses, before.misses);
        EXPECT_GT(after.hits, before.hits);
      } else {
        seen.push_back(c);
      }
    }
    EXPECT_GT(revisits, 0);
    EXPECT_EQ(cached.boundary_cache_stats().invalidations, 0u);
  }
}

TEST(Engine, RejectsBadRequests) {
  om::Engine engine(om::EngineConfig{});
  om::SweepRequest req;
  req.point = cheap_options();
  req.cells = 8;
  req.potential.assign(8, 0.0);
  EXPECT_THROW(engine.run(req), std::invalid_argument);  // null leads
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 3)};
  req.leads = &leads;
  EXPECT_THROW(engine.run(req), std::invalid_argument);  // no k grids
  req.energies = {{0.0}, {0.0}};
  EXPECT_THROW(engine.run(req), std::invalid_argument);  // fewer leads
  req.energies = {{0.0, 1.0}};
  const auto rejects = [&](const om::SweepRequest& bad) {
    EXPECT_THROW(engine.run(bad), std::invalid_argument);
  };

  // Contact lists: a sweep names at least two terminals.
  om::SweepRequest bad = req;
  bad.contacts.resize(1);
  rejects(bad);
  bad.contacts.clear();
  rejects(bad);

  // The weight table is [contact][ik][ie].
  bad = req;
  bad.density_weight = {{{1.0, 1.0}}};  // one table for two contacts
  rejects(bad);
  bad.density_weight = {{{1.0, 1.0}}, {{1.0, 1.0}}, {{1.0, 1.0}}};
  rejects(bad);
  bad.density_weight = {{{1.0, 1.0}, {1.0, 1.0}}, {{1.0, 1.0}, {1.0, 1.0}}};
  rejects(bad);  // k shape
  bad.density_weight = {{{1.0}}, {{1.0, 1.0}}};
  rejects(bad);  // E shape
  bad.density_weight = {{{1.0, 1.0}}, {{1.0}}};
  rejects(bad);  // E shape

  // The options' uniform shift is not a side channel: shifts live on the
  // contacts.
  bad = req;
  bad.point.obc_opts.contact_shift = 0.1;
  rejects(bad);

  // The well-formed request runs.
  req.density_weight = {{{1.0, 1.0}}, {{0.5, 0.5}}};
  EXPECT_NO_THROW(engine.run(req));
  EXPECT_THROW(om::Engine(om::EngineConfig{0, 1, true, true}),
               std::invalid_argument);
}

TEST(Engine, GreensTasksBitIdenticalAcrossWorldSizesAndStealing) {
  // Contour charge nodes ride the same queue as real-axis tasks: a hot k
  // full of Green's-function nodes must distribute, steal, and assemble
  // bit-identically to the flat loop at any world size.
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k)
    leads.push_back(synthetic_lead(s, 91 + 3 * k));
  om::SweepRequest req;
  req.leads = &leads;
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(4);  // no real-axis tasks at all: GF nodes only
  req.gf_nodes.resize(4);
  req.gf_weights.resize(4);
  for (int in = 0; in < 20; ++in) {
    req.gf_nodes[0].push_back(cplx{-1.5 + 0.12 * in, 0.3 + 0.01 * in});
    req.gf_weights[0].push_back(cplx{0.05, -0.02 * in});
  }
  for (std::size_t k = 1; k < 4; ++k)
    for (int in = 0; in < 3; ++in) {
      req.gf_nodes[k].push_back(cplx{-0.8 + 0.4 * in, 0.25});
      req.gf_weights[k].push_back(cplx{0.1 * (in + 1.0), 0.03});
    }

  om::Engine flat({});
  const auto ref = flat.run(req);
  ASSERT_EQ(ref.charge.size(), static_cast<std::size_t>(cells));
  EXPECT_EQ(ref.stats.tasks_greens, 29);
  EXPECT_EQ(ref.stats.tasks_total, 29);

  for (const int ranks : {1, 2, 4}) {
    for (const bool stealing : {true, false}) {
      om::EngineConfig cfg;
      cfg.num_ranks = ranks;
      cfg.work_stealing = stealing;
      cfg.flat_single_rank = false;  // force the rank protocol even at 1
      om::Engine engine(cfg);
      const auto res = engine.run(req);
      EXPECT_EQ(res.stats.tasks_greens, 29) << "ranks=" << ranks;
      ASSERT_EQ(res.charge.size(), ref.charge.size());
      for (std::size_t c = 0; c < ref.charge.size(); ++c)
        EXPECT_DOUBLE_EQ(res.charge[c], ref.charge[c])
            << "ranks=" << ranks << " stealing=" << stealing << " cell " << c;
      if (ranks == 4 && stealing) EXPECT_GT(res.stats.tasks_stolen, 0);
    }
  }
}

TEST(Engine, ContourChargeBitIdenticalAcrossWorldSizes) {
  // Simulator-level replica of ChargeDensityConsistentAcrossWorldSizes for
  // the contour backend, at a bias so the sweep mixes real-axis remainder
  // tasks with complex Green's-function nodes in one queue.
  om::SimulationConfig cfg = chain_config(10, 1);
  om::Simulator reference(cfg);
  const auto window = tr::band_window(reference.bands(9));
  std::vector<double> grid;
  for (double e = window.emin - 0.4;
       e < 0.5 * (window.emin + window.emax) + 0.8; e += 0.02)
    grid.push_back(e);
  const double mu = 0.5 * (window.emin + window.emax);
  omenx::charge::QuadratureOptions qopt;
  qopt.contour_points = 32;  // accuracy is not under test here
  const auto base = reference.charge_density(
      grid, mu, mu - 0.2, nullptr, omenx::charge::QuadratureAlgorithm::kContour,
      qopt);
  EXPECT_GT(reference.last_sweep_stats().tasks_greens, 0);
  EXPECT_LT(reference.last_sweep_stats().tasks_greens,
            reference.last_sweep_stats().tasks_total);

  for (const int ranks : {2, 7}) {
    om::SimulationConfig dcfg = cfg;
    dcfg.num_ranks = ranks;
    om::Simulator sim(dcfg);
    const auto charge = sim.charge_density(
        grid, mu, mu - 0.2, nullptr,
        omenx::charge::QuadratureAlgorithm::kContour, qopt);
    ASSERT_EQ(charge.size(), base.size());
    for (std::size_t c = 0; c < charge.size(); ++c)
      EXPECT_DOUBLE_EQ(charge[c], base[c]) << "ranks=" << ranks << " cell " << c;
  }
}
