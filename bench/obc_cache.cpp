// OBC boundary-cache bench and CI gate.
//
// The lead Hamiltonian never depends on the device potential, so every SCF
// outer iteration re-solves the same lead eigenproblems.  This bench runs a
// 3-outer-iteration SCF on the chain-FET fixture (the scf_convergence
// device) twice — boundary caching off, then on — and gates on:
//   * the cached run performing >= 2x fewer lead eigenproblem solves
//     (obc::boundary_solve_count) than the uncached run,
//   * max |dT(E)| < 1e-12 between the cached and uncached spectra on the
//     converged potential (expected: exactly 0 — a cache hit replays the
//     stored Boundary verbatim),
//   * bit-identical spectra and charge at CommWorld sizes 1 / 2 / 4, and
//   * bit-identical results under work stealing (hot-k request on 4 ranks,
//     cached vs uncached, first sweep and cached re-sweep).
// BENCH_obc.json records the counts, ratios, and deltas; nonzero exit if
// any gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "numeric/blas.hpp"
#include "obc/strategy.hpp"
#include "omen/engine.hpp"
#include "omen/simulator.hpp"
#include "poisson/scf.hpp"
#include "transport/bands.hpp"

using namespace omenx;
using numeric::idx;

namespace {

omen::SimulationConfig chain_fet_config(bool cache) {
  omen::SimulationConfig cfg;
  lattice::Structure chain;
  chain.cell_atoms = {{lattice::Species::kLi, {0.0, 0.0, 0.0}}};
  chain.cell_length = 0.5;
  chain.num_cells = 16;
  chain.name = "chain FET";
  cfg.structure = chain;
  cfg.build.cutoff_nm = 1.0;  // NBW = 2
  cfg.point.obc = transport::ObcAlgorithm::kShiftInvert;
  cfg.point.solver = transport::SolverAlgorithm::kBlockLU;
  cfg.cache_boundaries = cache;
  return cfg;
}

struct ScfRun {
  std::uint64_t lead_solves = 0;
  double wall_s = 0.0;
  std::vector<double> potential;
  std::vector<double> transmission;  ///< T(E) on the converged potential
};

/// 3-outer-iteration SCF (tolerances pinned so all three always run), then
/// the transmission spectrum on the resulting potential.
ScfRun run_scf(omen::Simulator& sim, const std::vector<double>& grid,
               double mu_s, double vds) {
  const lattice::DeviceRegions regions{5, 6, 5};
  poisson::ScfOptions scf;
  scf.poisson.screening_length_cells = 2.0;
  scf.poisson.charge_coupling = 0.25;
  scf.max_iter = 3;
  scf.tol = 1e-14;  // never converges early: exactly 3 charge sweeps
  scf.charge_tol = 0.0;
  scf.anderson_depth = 3;

  ScfRun out;
  const std::uint64_t solves0 = obc::boundary_solve_count();
  benchutil::WallTimer timer;
  poisson::ChargeModel charge = [&](const std::vector<double>& v) {
    return sim.charge_density(grid, mu_s, mu_s - vds, &v);
  };
  const auto res = poisson::self_consistent_potential(regions, 0.1, vds,
                                                      charge, scf);
  out.wall_s = timer.seconds();
  out.lead_solves = obc::boundary_solve_count() - solves0;
  out.potential = res.potential;
  out.transmission =
      sim.transmission_spectrum(grid, &res.potential).transmission;
  return out;
}

double max_abs_delta(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double out = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    out = std::max(out, std::abs(a[i] - b[i]));
  return out;
}

dft::LeadBlocks hot_k_lead(idx s, unsigned seed) {
  dft::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  numeric::CMatrix h0 = numeric::random_cmatrix(s, s, seed);
  lead.h[0] = (h0 + numeric::dagger(h0)) * numeric::cplx{0.25};
  lead.h[1] = numeric::random_cmatrix(s, s, seed + 1) * numeric::cplx{0.4};
  lead.s[0] = numeric::CMatrix::identity(s);
  lead.s[1] = numeric::CMatrix(s, s);
  return lead;
}

}  // namespace

int main() {
  benchutil::header("OBC boundary cache: SCF lead-solve reuse + determinism");

  // Shared fixture pieces: band window and the SCF energy grid.
  omen::Simulator probe(chain_fet_config(true));
  const auto win = transport::band_window(probe.bands(9));
  const double mu_s = win.emin + 0.1;
  const double vds = 0.2;
  std::vector<double> grid;
  for (double e = win.emin - 0.02; e <= mu_s + 0.3; e += 0.02)
    grid.push_back(e);

  // --- gate 1+2: lead-solve ratio and dT over the 3-iteration SCF --------
  omen::Simulator uncached(chain_fet_config(false));
  omen::Simulator cached(chain_fet_config(true));
  const ScfRun base = run_scf(uncached, grid, mu_s, vds);
  const ScfRun fast = run_scf(cached, grid, mu_s, vds);
  const auto cache_stats = cached.boundary_cache_stats();

  const double ratio =
      static_cast<double>(base.lead_solves) /
      static_cast<double>(std::max<std::uint64_t>(1, fast.lead_solves));
  const bool solve_gate = base.lead_solves >= 2 * fast.lead_solves;
  const double max_dv = max_abs_delta(base.potential, fast.potential);
  const double max_dt = max_abs_delta(base.transmission, fast.transmission);
  const bool dt_gate = max_dt < 1e-12 && max_dv < 1e-12;

  std::printf("%-28s %12s %10s %12s\n", "configuration", "lead solves",
              "wall (s)", "cache hits");
  benchutil::rule();
  std::printf("%-28s %12llu %10.3f %12s\n", "uncached (3-iter SCF)",
              static_cast<unsigned long long>(base.lead_solves), base.wall_s,
              "-");
  std::printf("%-28s %12llu %10.3f %12llu\n", "cached (3-iter SCF)",
              static_cast<unsigned long long>(fast.lead_solves), fast.wall_s,
              static_cast<unsigned long long>(cache_stats.hits));
  benchutil::rule();
  std::printf("lead-solve ratio: %.2fx (gate >= 2x: %s), max|dT| = %.3g, "
              "max|dV| = %.3g (gate < 1e-12: %s)\n",
              ratio, solve_gate ? "yes" : "NO", max_dt, max_dv,
              dt_gate ? "yes" : "NO");

  // --- gate 3: bit-identical across world sizes 1 / 2 / 4 ----------------
  bool world_gate = true;
  double max_dt_world = 0.0;
  std::vector<double> world_dt;
  for (const int ranks : {1, 2, 4}) {
    omen::SimulationConfig cfg = chain_fet_config(true);
    cfg.num_ranks = ranks;
    omen::Simulator sim(cfg);
    // Two sweeps: the second is served from the per-rank caches.
    const auto first =
        sim.transmission_spectrum(grid, &fast.potential).transmission;
    const auto second =
        sim.transmission_spectrum(grid, &fast.potential).transmission;
    const double d_first = max_abs_delta(first, base.transmission);
    const double d_second = max_abs_delta(second, base.transmission);
    const double d = std::max(d_first, d_second);
    world_dt.push_back(d);
    max_dt_world = std::max(max_dt_world, d);
    world_gate = world_gate && d < 1e-12;
    std::printf("world size %d: max|dT| vs uncached = %.3g (resweep %.3g)\n",
                ranks, d_first, d_second);
  }

  // --- gate 4: bit-identical under work stealing -------------------------
  // Hot-k request on 4 ranks: idle groups steal the hot momentum's tail,
  // so cached boundaries land in thieves' caches under the owner's global
  // k index.  Cached first sweep, cached re-sweep, and the uncached run
  // must agree exactly.
  const idx s = 5, cells = 10;
  std::vector<dft::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k) leads.push_back(hot_k_lead(s, 91 + 3 * k));
  omen::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point.obc = transport::ObcAlgorithm::kDecimation;
  req.point.solver = transport::SolverAlgorithm::kBlockLU;
  req.point.want_density = false;
  req.point.want_current = false;
  req.energies.resize(4);
  for (int ie = 0; ie < 32; ++ie)
    req.energies[0].push_back(-2.0 + 0.12 * ie);
  for (std::size_t k = 1; k < 4; ++k)
    for (int ie = 0; ie < 4; ++ie)
      req.energies[k].push_back(-1.0 + 0.5 * ie);

  omen::EngineConfig ucfg;
  ucfg.num_ranks = 4;
  ucfg.cache_boundaries = false;
  omen::Engine steal_uncached(ucfg);
  omen::EngineConfig ccfg;
  ccfg.num_ranks = 4;
  omen::Engine steal_cached(ccfg);
  const auto st_ref = steal_uncached.run(req);
  const auto st_a = steal_cached.run(req);
  const auto st_b = steal_cached.run(req);
  double max_dt_steal = 0.0;
  for (std::size_t k = 0; k < 4; ++k) {
    max_dt_steal =
        std::max(max_dt_steal, max_abs_delta(st_a.caroli[k], st_ref.caroli[k]));
    max_dt_steal =
        std::max(max_dt_steal, max_abs_delta(st_b.caroli[k], st_ref.caroli[k]));
  }
  const bool steal_gate = max_dt_steal < 1e-12;
  std::printf("work stealing (4 ranks, %lld stolen): max|dT| = %.3g "
              "(gate < 1e-12: %s)\n",
              static_cast<long long>(st_a.stats.tasks_stolen), max_dt_steal,
              steal_gate ? "yes" : "NO");

  // --- JSON record -------------------------------------------------------
  std::string json = "{\n";
  {
    benchutil::JsonWriter w;
    w.field("lead_solves_uncached", static_cast<double>(base.lead_solves));
    w.field("lead_solves_cached", static_cast<double>(fast.lead_solves));
    w.field("solve_ratio", ratio);
    w.field("cache_hits", static_cast<double>(cache_stats.hits));
    w.field("cache_misses", static_cast<double>(cache_stats.misses));
    w.field("scf_wall_uncached_s", base.wall_s);
    w.field("scf_wall_cached_s", fast.wall_s);
    w.field("max_dt_vs_uncached", max_dt);
    w.field("max_dv_vs_uncached", max_dv, true);
    json += "  \"scf_3iter\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("max_dt_world_1", world_dt[0]);
    w.field("max_dt_world_2", world_dt[1]);
    w.field("max_dt_world_4", world_dt[2]);
    w.field("tasks_stolen", static_cast<double>(st_a.stats.tasks_stolen));
    w.field("max_dt_stealing", max_dt_steal, true);
    json += "  \"determinism\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("solve_ratio_ge_2x", solve_gate ? 1.0 : 0.0);
    w.field("dt_below_1e12", dt_gate ? 1.0 : 0.0);
    w.field("world_sizes_bit_identical", world_gate ? 1.0 : 0.0);
    w.field("stealing_bit_identical", steal_gate ? 1.0 : 0.0, true);
    json += "  \"gates\": {" + w.body + "}\n}\n";
  }
  std::FILE* f = std::fopen("BENCH_obc.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_obc.json\n");
  }
  return solve_gate && dt_gate && world_gate && steal_gate ? 0 : 1;
}
