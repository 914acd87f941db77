#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "numeric/flops.hpp"
#include "obc/strategy.hpp"
#include "parallel/device.hpp"
#include "scattering/self_energy.hpp"
#include "stats.hpp"
#include "transport/bands.hpp"
#include "transport/contacts.hpp"
#include "transport/transmission.hpp"

namespace omenx::profile {

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

SolveShape Workload::shape(const omen::Simulator& sim) const {
  SolveShape sh;
  sh.s = sim.folded_lead().h00.rows();
  sh.nb = sim.hamiltonian_dimension() / sh.s;
  sh.nrhs = 2 * sh.s;  // the Caroli columns kAuto resolution assumes
  return sh;
}

namespace {

using numeric::CMatrix;
using numeric::cplx;

// ------------------------------------------------------------- fixtures --

/// Two Si atoms per 0.47 nm cell: 24 orbitals, folded in pairs (NBW = 2 at
/// the default 0.9 nm cutoff), so the device block size is 48.
lattice::Structure si2_chain(idx cells) {
  lattice::Structure s;
  s.cell_atoms = {{lattice::Species::kSi, {0.0, 0.0, 0.0}},
                  {lattice::Species::kSi, {0.235, 0.0, 0.0}}};
  s.cell_length = 0.47;
  s.num_cells = cells;
  s.name = "Si2 chain";
  return s;
}

/// One Li atom (one orbital) per 0.5 nm cell; NBW = 2 at a 1 nm cutoff.
lattice::Structure li_chain(idx cells) {
  lattice::Structure s;
  s.cell_atoms = {{lattice::Species::kLi, {0.0, 0.0, 0.0}}};
  s.cell_length = 0.5;
  s.num_cells = cells;
  s.name = "Li chain FET";
  return s;
}

/// n points over [lo, hi) shifted by one seeded offset within a spacing:
/// the point count is the same for every seed, so the work is comparable.
std::vector<double> seeded_grid(double lo, double hi, int n, SeededRng& rng) {
  const double h = (hi - lo) / n;
  const double u = rng.uniform();
  std::vector<double> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = lo + (i + u) * h;
  return out;
}

/// The simulator's thermal energy: the same expression, so Fermi weights in
/// the replay agree with the library's to the last bit.
double thermal_energy(const omen::SimulationConfig& cfg) {
  return 8.617e-5 * cfg.temperature_k;
}

/// Trapezoidal Brillouin-zone weights of the closed [0, pi] k grid, as the
/// simulator averages transmission.
std::vector<double> bz_weights(idx nk) {
  if (nk <= 1) return {1.0};
  std::vector<double> w(static_cast<std::size_t>(nk),
                        1.0 / static_cast<double>(nk - 1));
  w.front() *= 0.5;
  w.back() *= 0.5;
  return w;
}

idx num_k(const omen::SimulationConfig& cfg) {
  return cfg.structure.periodicity == lattice::Periodicity::kZ
             ? std::max<idx>(1, cfg.num_k)
             : 1;
}

/// Band structure of the lead at every transverse k (21-point scan, as the
/// simulator's own band window uses).
std::vector<transport::BandStructure> lead_bands(const omen::Simulator& sim) {
  std::vector<transport::BandStructure> out;
  for (idx ik = 0; ik < num_k(sim.config()); ++ik)
    out.push_back(transport::lead_band_structure(sim.folded_lead(ik), 21));
  return out;
}

/// Extrema of every band at every k: transmission steps at these energies,
/// so integrality is not checked within kEdgeSkip of them.
constexpr double kEdgeSkip = 1e-3;
std::vector<double> band_edges(
    const std::vector<transport::BandStructure>& bands) {
  std::vector<double> edges;
  for (const transport::BandStructure& bs : bands) {
    const std::size_t nbands = bs.bands.front().size();
    for (std::size_t n = 0; n < nbands; ++n) {
      double lo = bs.bands.front()[n], hi = lo;
      for (const auto& row : bs.bands) {
        lo = std::min(lo, row[n]);
        hi = std::max(hi, row[n]);
      }
      edges.push_back(lo);
      edges.push_back(hi);
    }
  }
  return edges;
}

bool near_edge(double e, const std::vector<double>& edges) {
  for (const double b : edges)
    if (std::abs(e - b) < kEdgeSkip) return true;
  return false;
}

/// Engine statistics of the sweep a public call just ran.  The raw sums
/// ("omen.busy_s", "omen.rank_wall_s", "omen.batched_tasks") are turned
/// into shares in main.cpp.
void record_sweep(const omen::Simulator& sim, double call_wall, Metrics& m) {
  const omen::EngineStats& st = sim.last_sweep_stats();
  m["omen.sweeps"] += 1.0;
  m["omen.tasks"] += static_cast<double>(st.tasks_total);
  m["omen.tasks_stolen"] += static_cast<double>(st.tasks_stolen);
  m["omen.batches"] += static_cast<double>(st.batches_issued);
  m["omen.batched_tasks"] +=
      st.mean_batch_size * static_cast<double>(st.batches_issued);
  double busy = 0.0;
  for (const double b : st.busy_seconds_per_rank) busy += b;
  m["omen.busy_s"] += busy;
  m["omen.rank_wall_s"] += st.ranks * st.wall_seconds;
  m["omen.overhead_s"] += std::max(0.0, call_wall - st.wall_seconds);
}

/// Runs one sweeping public call inside a span and records its statistics.
template <typename F>
auto sweep_call(omen::Simulator& sim, SpanLog& log, const char* name,
                const char* layer, Metrics& m, F&& call) {
  const SpanScope span(log, name, layer);
  const double t0 = now_seconds();
  auto result = call();
  record_sweep(sim, now_seconds() - t0, m);
  return result;
}

// ------------------------------------------------------- stage replay --

/// Solver state of a serial replay: one context (warm solver and OBC
/// strategy instances, workspace arena) and the device pool SplitSolve
/// offloads to, both reused across the cold and the warm pass.
struct ReplayState {
  transport::EnergyPointContext ctx;
  std::unique_ptr<parallel::DevicePool> pool;

  parallel::DevicePool* devices(const omen::SimulationConfig& cfg) {
    if (pool == nullptr)
      pool = std::make_unique<parallel::DevicePool>(
          std::max(1, cfg.num_devices));
    return pool.get();
  }
};

/// One classic-pair point, stage by stage in the order solve_energy_point
/// runs them, each stage in its own span.
transport::EnergyPointResult replay_point(
    ReplayState& st, const dft::DeviceMatrices& dm,
    const dft::LeadBlocks& lead, const dft::FoldedLead& folded, double energy,
    const transport::EnergyPointOptions& opt, parallel::DevicePool* pool,
    SpanLog& log, Metrics& m) {
  namespace detail = transport::detail;
  transport::EnergyPointContext& ctx = st.ctx;
  const SpanScope point(log, "point", "point");
  const numeric::WorkspaceScope ws(ctx.workspace);
  transport::EnergyPointResult out;
  out.energy = energy;
  const cplx e{energy, 0.0};
  {
    const SpanScope s(log, "assign_es_minus_h", "blockmat");
    ctx.a.assign_es_minus_h(e, dm.s, dm.h);
  }
  const idx sf = ctx.a.block_size();
  solvers::SolverContext binding;
  binding.pool = pool;
  binding.partitions = opt.partitions;
  solvers::Solver& solver =
      ctx.solver(opt.solver, binding, ctx.a.num_blocks(), sf);
  obc::Strategy& strategy = ctx.obc_strategy(opt.obc);
  const bool injection =
      (strategy.capabilities() & obc::kProvidesInjection) != 0;
  const numeric::FlopScope solver_flops;
  {
    const SpanScope s(log, "prepare", "solvers");
    solver.prepare(ctx.a);
  }
  detail::FetchedBoundary fetched;
  {
    const SpanScope s(log, "fetch_boundary", "obc");
    fetched = detail::fetch_boundary(strategy, lead, folded, e, opt);
  }
  const obc::Boundary& bnd = fetched.get();
  out.num_propagating = bnd.num_incident;
  detail::RhsShape shape;
  {
    const SpanScope s(log, "build_rhs", "transport");
    shape = detail::rhs_shape(bnd, bnd, injection, sf, opt);
    if (shape.m > 0)
      detail::build_rhs(ctx.b_top, ctx.b_bot, bnd, bnd, shape, sf);
  }
  if (shape.m == 0) {
    solver.discard();
    return out;
  }
  {
    const SpanScope s(log, "solve_boundary", "solvers");
    ctx.x = solver.solve_boundary(ctx.a, bnd.sigma_l, bnd.sigma_r, ctx.b_top,
                                  ctx.b_bot);
  }
  m["solvers.flops"] += static_cast<double>(solver_flops.elapsed());
  {
    const SpanScope s(log, "finalize_observables", "transport");
    detail::finalize_observables(out, ctx.a, bnd, bnd, injection, shape,
                                 ctx.x, opt);
  }
  return out;
}

/// k-averaged spectrum of a classic-pair sweep, replayed point by point.
/// Per point: |T_wavefunction - T_Caroli| <= 1e-6 where modes propagate,
/// and, for pristine devices (`edges` non-null), T(k) within 1e-6 of an
/// integer away from the lead band edges.
struct ReplayedSpectrum {
  std::vector<double> transmission;
  std::vector<double> propagating;
};

ReplayedSpectrum replay_spectrum(ReplayState& st, omen::Simulator& sim,
                                 const std::vector<double>& energies,
                                 const std::vector<double>& potential,
                                 obc::BoundaryCache& cache, SpanLog& log,
                                 Metrics& m, Checks& checks,
                                 const std::vector<double>* edges) {
  const omen::SimulationConfig& cfg = sim.config();
  const idx nk = num_k(cfg);
  const std::vector<double> wk = bz_weights(nk);
  const bool caroli_fallback =
      (obc::obc_algorithm_capabilities(cfg.point.obc) &
       obc::kProvidesInjection) == 0;
  ReplayedSpectrum out;
  out.transmission.assign(energies.size(), 0.0);
  out.propagating.assign(energies.size(), 0.0);
  parallel::DevicePool* pool = st.devices(cfg);
  for (idx ik = 0; ik < nk; ++ik) {
    dft::DeviceMatrices dm;
    {
      const SpanScope s(log, "assemble_device", "dft");
      dm = dft::assemble_device(sim.lead_blocks(ik), cfg.structure.num_cells,
                                potential);
    }
    transport::EnergyPointOptions opt = cfg.point;
    opt.want_density = false;
    opt.want_current = false;
    opt.want_density_r = false;
    opt.boundary_cache = &cache;
    opt.k_index = ik;
    for (std::size_t ie = 0; ie < energies.size(); ++ie) {
      const transport::EnergyPointResult r =
          replay_point(st, dm, sim.lead_blocks(ik), sim.folded_lead(ik),
                       energies[ie], opt, pool, log, m);
      const double t = r.num_propagating > 0 || caroli_fallback
                           ? (r.num_propagating > 0 ? r.transmission
                                                    : r.transmission_caroli)
                           : 0.0;
      out.transmission[ie] += t * wk[static_cast<std::size_t>(ik)];
      out.propagating[ie] += static_cast<double>(r.num_propagating);
      if (r.num_propagating > 0 && opt.want_caroli)
        checks.expect(std::abs(r.transmission - r.transmission_caroli) <= 1e-6,
                      "T_wavefunction != T_Caroli at E=" +
                          std::to_string(energies[ie]));
      if (edges != nullptr && !near_edge(energies[ie], *edges))
        checks.expect(std::abs(t - std::round(t)) <= 1e-6,
                      "pristine T(k) not an integer at E=" +
                          std::to_string(energies[ie]));
    }
  }
  return out;
}

/// Caroli trace Tr[Gamma_p G Gamma_q G^H], evaluated with the same product
/// order as the library, so replayed T_pq agree to the last bit.
double caroli(const CMatrix& sigma_p, const CMatrix& sigma_q,
              const CMatrix& g_pq) {
  auto gamma = [](const CMatrix& s) {
    CMatrix g = s - numeric::dagger(s);
    g *= cplx{0.0, 1.0};
    return g;
  };
  const CMatrix gp = gamma(sigma_p);
  const CMatrix gq = gamma(sigma_q);
  const CMatrix prod = numeric::matmul(
      gp, numeric::matmul(g_pq, numeric::matmul(gq, numeric::dagger(g_pq))));
  cplx tr{0.0};
  for (idx i = 0; i < prod.rows(); ++i) tr += prod(i, i);
  return tr.real();
}

// ------------------------------------------------- (k, E) sweep workloads --

/// T(E) of a pristine device: utb_kspace and wire_long share the operation,
/// the checks and the replay, and differ in fixture and pipeline settings.
class SpectrumWorkload : public Workload {
 public:
  void make_inputs(omen::Simulator& sim, std::uint64_t seed) override {
    const std::vector<transport::BandStructure> bands = lead_bands(sim);
    edges_ = band_edges(bands);
    const double bottom = transport::band_window(bands.front()).emin;
    SeededRng rng(seed);
    energies_ = seeded_grid(bottom + lo_, bottom + hi_, points_, rng);
    flat_.assign(static_cast<std::size_t>(sim.config().structure.num_cells),
                 0.0);
  }

  Outputs run(omen::Simulator& sim) override {
    return pack(sim.transmission_spectrum(energies_));
  }

  void check(const omen::Simulator& sim, const Outputs& out,
             Checks& checks) const override {
    // Pristine leads transmit every incident channel: T_k(E) = n_k(E).
    // The k average with trapezoid weights w = {1/2, 1, ..., 1/2}/(nk-1)
    // then makes q = 2 (nk - 1) T an integer between the k-summed channel
    // count P and 2P (q = T = P for a single k).
    const idx nk = num_k(sim.config());
    const double scale = nk == 1 ? 1.0 : 2.0 * static_cast<double>(nk - 1);
    const std::size_t n = energies_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double t = out.values[i];
      const double p = out.values[n + i];
      const double q = scale * t;
      checks.expect(t >= -1e-9, "negative transmission");
      if (near_edge(energies_[i], edges_)) continue;
      checks.expect(std::abs(q - std::round(q)) <= 1e-6 * scale &&
                        q >= p - 1e-6 && q <= (nk == 1 ? 1.0 : 2.0) * p + 1e-6,
                    "pristine T not integral at E=" +
                        std::to_string(energies_[i]));
    }
  }

  Outputs traced(omen::Simulator& sim, SpanLog& log, Metrics& m) override {
    return pack(sweep_call(sim, log, "transmission_spectrum", "omen", m, [&] {
      return sim.transmission_spectrum(energies_);
    }));
  }

  Outputs replay(omen::Simulator& sim, SpanLog& log, obc::BoundaryCache& cache,
                 Metrics& m, Checks& checks) override {
    const ReplayedSpectrum r = replay_spectrum(
        replay_, sim, energies_, flat_, cache, log, m, checks, &edges_);
    Outputs out;
    out.values = r.transmission;
    out.values.insert(out.values.end(), r.propagating.begin(),
                      r.propagating.end());
    return out;
  }

 protected:
  SpectrumWorkload(double lo, double hi, int points)
      : lo_(lo), hi_(hi), points_(points) {}

 private:
  static Outputs pack(const omen::Spectrum& sp) {
    Outputs out;
    out.values = sp.transmission;
    for (const idx p : sp.propagating)
      out.values.push_back(static_cast<double>(p));
    return out;
  }

  double lo_, hi_;  ///< window above the lead band bottom (eV)
  int points_;
  std::vector<double> energies_, edges_, flat_;
  ReplayState replay_;
};

class UtbKspace final : public SpectrumWorkload {
 public:
  UtbKspace() : SpectrumWorkload(0.02, 1.5, 32) {}
  omen::SimulationConfig config() const override {
    omen::SimulationConfig cfg;
    cfg.structure = lattice::make_utb(0.2, 8);
    cfg.num_k = 3;
    cfg.point.obc = obc::ObcAlgorithm::kFeast;
    cfg.point.solver = solvers::SolverAlgorithm::kSplitSolve;
    cfg.point.partitions = 2;
    cfg.num_ranks = 2;
    cfg.work_stealing = true;
    return cfg;
  }
};

class WireLong final : public SpectrumWorkload {
 public:
  WireLong() : SpectrumWorkload(0.02, 1.0, 16) {}
  omen::SimulationConfig config() const override {
    omen::SimulationConfig cfg;
    cfg.structure = si2_chain(128);
    cfg.point.obc = obc::ObcAlgorithm::kFeast;
    cfg.point.solver = solvers::SolverAlgorithm::kSplitSolve;
    cfg.point.partitions = 4;
    return cfg;
  }
};

// ------------------------------------------------------------- fet_iv --

class FetIv final : public Workload {
 public:

  omen::SimulationConfig config() const override {
    omen::SimulationConfig cfg;
    cfg.structure = li_chain(24);
    cfg.build.cutoff_nm = 1.0;
    cfg.point.obc = obc::ObcAlgorithm::kShiftInvert;
    cfg.point.solver = solvers::SolverAlgorithm::kBlockLU;
    return cfg;
  }

  void make_inputs(omen::Simulator& sim, std::uint64_t seed) override {
    const auto win = transport::band_window(sim.bands(9));
    mu_source_ = win.emin + 0.1;
    SeededRng rng(seed);
    grid_ = seeded_grid(win.emin - 0.02, mu_source_ + 0.3, 42, rng);
    const double offset = 0.02 * rng.uniform() - 0.01;
    vgs_.clear();
    for (int i = 0; i < 8; ++i) vgs_.push_back(-0.35 + 0.05 * i + offset);
    scf_ = poisson::ScfOptions{};
    scf_.poisson.screening_length_cells = 2.0;
    scf_.poisson.charge_coupling = 0.02;
    scf_.max_iter = 40;
    scf_.tol = 1e-8;
    scf_.charge_tol = 1e-7;
    scf_.anderson_depth = 3;
    scf_.warm_start = true;
    scf_.quadrature = charge::QuadratureAlgorithm::kContour;
  }

  Outputs run(omen::Simulator& sim) override {
    const auto iv = sim.transfer_characteristics(vgs_, kVds, kRegions, grid_,
                                                 mu_source_, scf_);
    Outputs out;
    for (const auto& p : iv) out.values.push_back(p.current);
    last_ = iv;
    return out;
  }

  void check(const omen::Simulator&, const Outputs& out,
             Checks& checks) const override {
    for (std::size_t i = 0; i < last_.size(); ++i)
      checks.expect(last_[i].converged,
                    "SCF not converged at Vgs=" + std::to_string(vgs_[i]));
    for (std::size_t i = 1; i < out.values.size(); ++i)
      checks.expect(out.values[i] > out.values[i - 1],
                    "Id not rising with Vgs at Vgs=" +
                        std::to_string(vgs_[i]) + ": " +
                        std::to_string(out.values[i - 1]) + " -> " +
                        std::to_string(out.values[i]));
  }

  /// transfer_characteristics spelled out through its public pieces: the
  /// SCF loop with a ChargeModel wrapping charge_density, then current().
  Outputs traced(omen::Simulator& sim, SpanLog& log, Metrics& m) override {
    const double mu_drain = mu_source_ - kVds;
    Outputs out;
    std::vector<double> warm, warm_charge;
    for (const double vgs : vgs_) {
      const poisson::ChargeModel charge = [&](const std::vector<double>& v) {
        auto rho = sweep_call(sim, log, "charge_density", "charge", m, [&] {
          return sim.charge_density(grid_, mu_source_, mu_drain, &v,
                                    scf_.quadrature, scf_.quadrature_options);
        });
        const omen::EngineStats& st = sim.last_sweep_stats();
        m["charge.evals"] += 1.0;
        m["charge.gf_tasks"] += static_cast<double>(st.tasks_greens);
        m["charge.solves"] += static_cast<double>(st.tasks_total);
        return rho;
      };
      const bool use_warm = scf_.warm_start && !warm.empty();
      poisson::ScfResult res;
      {
        const SpanScope s(log, "self_consistent_potential", "poisson");
        res = poisson::self_consistent_potential(
            kRegions, vgs, kVds, charge, scf_, use_warm ? &warm : nullptr,
            use_warm && !warm_charge.empty() ? &warm_charge : nullptr);
      }
      m["poisson.iterations"] += res.iterations;
      if (scf_.warm_start) {
        warm = res.potential;
        warm_charge = res.charge;
      }
      out.values.push_back(sweep_call(sim, log, "current", "omen", m, [&] {
        return sim.current(grid_, mu_source_, mu_drain, &res.potential);
      }));
    }
    return out;
  }

  /// The current sweeps at the converged potentials of the last run(),
  /// stage by stage, then the Landauer integral.
  Outputs replay(omen::Simulator& sim, SpanLog& log, obc::BoundaryCache& cache,
                 Metrics& m, Checks& checks) override {
    const double kt = thermal_energy(sim.config());
    Outputs out;
    for (const omen::Simulator::IvPoint& p : last_) {
      const ReplayedSpectrum r = replay_spectrum(
          replay_, sim, grid_, p.potential, cache, log, m, checks, nullptr);
      const SpanScope s(log, "landauer_current", "transport");
      out.values.push_back(transport::landauer_current(
          grid_, r.transmission, mu_source_, mu_source_ - kVds, kt));
    }
    return out;
  }

 private:
  static constexpr double kVds = 0.2;
  static inline const lattice::DeviceRegions kRegions{8, 8, 8};

  double mu_source_ = 0.0;
  std::vector<double> grid_, vgs_;
  poisson::ScfOptions scf_;
  /// The last run()'s bias points: their convergence is checked, and their
  /// converged potentials are what the replay sweeps.
  std::vector<omen::Simulator::IvPoint> last_;
  ReplayState replay_;
};

// ----------------------------------------------------------- dephasing --

class Dephasing final : public Workload {
 public:

  omen::SimulationConfig config() const override {
    omen::SimulationConfig cfg;
    cfg.structure = si2_chain(kCells);
    cfg.point.obc = obc::ObcAlgorithm::kFeast;
    cfg.point.solver = solvers::SolverAlgorithm::kRgf;
    cfg.point.scattering.algorithm =
        scattering::ScatteringAlgorithm::kButtikerProbe;
    cfg.point.scattering.options.buttiker.eta = 0.05;
    return cfg;
  }

  SolveShape shape(const omen::Simulator& sim) const override {
    SolveShape sh = Workload::shape(sim);
    sh.nrhs = (2 + static_cast<idx>(sim.probe_sites().size())) * sh.s;
    return sh;
  }

  void make_inputs(omen::Simulator& sim, std::uint64_t seed) override {
    const double bottom =
        transport::band_window(
            transport::lead_band_structure(sim.folded_lead(), 21))
            .emin;
    SeededRng rng(seed);
    energies_ = seeded_grid(bottom + 0.02, bottom + 1.0, 32, rng);
    mu_ = {bottom + 0.6, bottom + 0.4};
    barrier_.assign(static_cast<std::size_t>(kCells), 0.0);
    for (idx c = kCells / 2 - 2; c < kCells / 2 + 2; ++c)
      barrier_[static_cast<std::size_t>(c)] = 0.5;
  }

  Outputs run(omen::Simulator& sim) override {
    Outputs out;
    out.values = sim.terminal_currents(energies_, mu_, &barrier_);
    leak_ = sim.last_probe_tune().max_residual;
    tuned_ = sim.last_probe_tune().converged;
    return out;
  }

  void check(const omen::Simulator&, const Outputs& out,
             Checks& checks) const override {
    checks.expect(tuned_ && leak_ <= 1e-10, "probe leak above 1e-10");
    const double scale =
        std::max(std::abs(out.values.at(0)), std::abs(out.values.at(1)));
    checks.expect(scale > 0.0 &&
                      std::abs(out.values[0] + out.values[1]) / scale <= 1e-12,
                  "terminal currents do not balance to 1e-12");
    checks.expect(out.values[0] > 0.0, "current flows against the bias");
  }

  /// terminal_currents spelled out: the pairwise-T sweep, the probe Newton
  /// tuning, and the Buettiker sum.
  Outputs traced(omen::Simulator& sim, SpanLog& log, Metrics& m) override {
    const double t0 = now_seconds();
    const omen::Spectrum sp =
        sweep_call(sim, log, "transmission_spectrum", "omen", m,
                   [&] { return sim.transmission_spectrum(energies_, &barrier_); });
    m["scattering.sweep_s"] += now_seconds() - t0;
    return currents(sim, sp.t_matrix, log, m, nullptr);
  }

  /// Every N-terminal point through the stages of the ContactSet path:
  /// per-contact boundary fetches, probe self-energies, solve_attached,
  /// pairwise Caroli T_pq; then the same tuning and Buettiker sum.
  Outputs replay(omen::Simulator& sim, SpanLog& log, obc::BoundaryCache& cache,
                 Metrics& m, Checks& checks) override {
    namespace detail = transport::detail;
    const omen::SimulationConfig& cfg = sim.config();
    dft::DeviceMatrices dm;
    {
      const SpanScope s(log, "assemble_device", "dft");
      dm = dft::assemble_device(sim.lead_blocks(), kCells, barrier_);
    }
    const idx nb = dm.h.num_blocks();
    std::vector<transport::Contact> cs(2);
    for (int i = 0; i < 2; ++i) {
      cs[static_cast<std::size_t>(i)].lead = &sim.lead_blocks();
      cs[static_cast<std::size_t>(i)].folded = &sim.folded_lead();
      cs[static_cast<std::size_t>(i)].lead_hash =
          transport::lead_content_hash(sim.lead_blocks());
      cs[static_cast<std::size_t>(i)].block = i == 0 ? 0 : transport::kLastBlock;
    }
    for (const scattering::ProbeSite& site : sim.probe_sites()) {
      transport::Contact p;
      p.block = site.block;
      p.probe_eta = site.eta;
      cs.push_back(p);
    }
    const transport::ContactSet contacts(std::move(cs));
    const idx nc = contacts.size();
    transport::EnergyPointOptions opt = cfg.point;
    opt.want_density = false;
    opt.want_current = false;
    opt.want_density_r = false;
    opt.boundary_cache = &cache;
    transport::EnergyPointContext& ctx = replay_.ctx;
    std::vector<std::vector<double>> t_matrix;
    for (const double energy : energies_) {
      const SpanScope point(log, "point", "point");
      const numeric::WorkspaceScope ws(ctx.workspace);
      const cplx e{energy, 0.0};
      {
        const SpanScope s(log, "assign_es_minus_h", "blockmat");
        ctx.a.assign_es_minus_h(e, dm.s, dm.h);
      }
      const idx sf = ctx.a.block_size();
      solvers::Solver& solver = ctx.solver(opt.solver, {}, nb, sf);
      obc::Strategy& strategy = ctx.obc_strategy(opt.obc);
      const numeric::FlopScope solver_flops;
      {
        const SpanScope s(log, "prepare", "solvers");
        solver.prepare(ctx.a);
      }
      // One fetch per distinct boundary: the two leads are identical, so
      // the drain reuses the source's Boundary (its canonical cache id).
      std::vector<detail::FetchedBoundary> fetched;
      fetched.reserve(static_cast<std::size_t>(nc));
      std::vector<const obc::Boundary*> bnd(static_cast<std::size_t>(nc),
                                            nullptr);
      {
        const SpanScope s(log, "fetch_boundary", "obc");
        for (idx p = 0; p < nc; ++p) {
          if (contacts[p].is_probe()) continue;
          const idx rep = contacts.representative(p);
          if (rep == p) {
            fetched.push_back(detail::fetch_boundary(
                strategy, contacts[p], static_cast<int>(p), e, opt));
            bnd[static_cast<std::size_t>(p)] = &fetched.back().get();
          } else {
            bnd[static_cast<std::size_t>(p)] =
                bnd[static_cast<std::size_t>(rep)];
          }
        }
      }
      std::vector<CMatrix> probe_sigma;
      probe_sigma.reserve(static_cast<std::size_t>(nc));
      std::vector<const CMatrix*> sigma(static_cast<std::size_t>(nc));
      std::vector<idx> block(static_cast<std::size_t>(nc));
      std::vector<CMatrix> rhs_blocks(static_cast<std::size_t>(nc));
      std::vector<solvers::Attachment> attachments;
      std::vector<solvers::RhsBlock> rhs;
      {
        const SpanScope s(log, "build_rhs", "transport");
        for (idx p = 0; p < nc; ++p) {
          const auto sp = static_cast<std::size_t>(p);
          block[sp] = contacts.resolve_block(p, nb);
          if (contacts[p].is_probe()) {
            probe_sigma.emplace_back(sf, sf);
            for (idx i = 0; i < sf; ++i)
              probe_sigma.back()(i, i) = cplx{0.0, -contacts[p].probe_eta};
            sigma[sp] = &probe_sigma.back();
          } else {
            sigma[sp] = block[sp] == nb - 1 ? &bnd[sp]->sigma_r
                                            : &bnd[sp]->sigma_l;
          }
          attachments.push_back({block[sp], sigma[sp]});
          rhs_blocks[sp].resize(sf, nc * sf);
          for (idx i = 0; i < sf; ++i) rhs_blocks[sp](i, p * sf + i) = cplx{1.0};
          rhs.push_back({block[sp], &rhs_blocks[sp]});
        }
      }
      {
        const SpanScope s(log, "solve_attached", "solvers");
        ctx.x = solver.solve_attached(ctx.a, attachments, rhs);
      }
      m["solvers.flops"] += static_cast<double>(solver_flops.elapsed());
      const SpanScope s(log, "t_matrix", "transport");
      std::vector<double> t(static_cast<std::size_t>(nc * nc), 0.0);
      for (idx p = 0; p < nc; ++p)
        for (idx q = 0; q < nc; ++q)
          if (q != p)
            t[static_cast<std::size_t>(p * nc + q)] =
                caroli(*sigma[static_cast<std::size_t>(p)],
                       *sigma[static_cast<std::size_t>(q)],
                       ctx.x.block(block[static_cast<std::size_t>(p)] * sf,
                                   q * sf, sf, sf));
      t_matrix.push_back(std::move(t));
    }
    return currents(sim, t_matrix, log, m, &checks);
  }

 private:
  static constexpr idx kCells = 12;

  /// The probe tuning and Buettiker sum the simulator runs after its sweep.
  /// With `checks`, the tuning itself is checked (the replay's leak gate).
  Outputs currents(const omen::Simulator& sim,
                   const std::vector<std::vector<double>>& t_matrix,
                   SpanLog& log, Metrics& m, Checks* checks) const {
    const std::size_t nc = 2 + sim.probe_sites().size();
    std::vector<double> mu_full(nc, 0.0);
    std::vector<bool> is_probe(nc, false);
    double mu0 = 0.0;
    for (std::size_t p = 0; p < 2; ++p) {
      mu_full[p] = mu_[p];
      mu0 += mu_[p];
    }
    mu0 /= 2.0;
    for (std::size_t p = 2; p < nc; ++p) {
      mu_full[p] = mu0;
      is_probe[p] = true;
    }
    const double kt = thermal_energy(sim.config());
    scattering::ProbeTuneResult tune;
    {
      const SpanScope s(log, "tune_probe_potentials", "scattering");
      tune = scattering::tune_probe_potentials(energies_, t_matrix,
                                               std::move(mu_full), is_probe,
                                               kt, sim.config().probe_tune);
    }
    m["scattering.newton_iterations"] += tune.iterations;
    m["scattering.leak"] = tune.max_residual;
    if (checks != nullptr)
      checks->expect(tune.converged && tune.max_residual <= 1e-10,
                     "replayed probe leak above 1e-10");
    Outputs out;
    {
      const SpanScope s(log, "buttiker_currents", "transport");
      out.values = transport::buttiker_currents(energies_, t_matrix, tune.mu, kt);
    }
    out.values.resize(2);
    return out;
  }

  std::vector<double> energies_, mu_, barrier_;
  double leak_ = 0.0;
  bool tuned_ = false;
  ReplayState replay_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"utb_kspace", "wire_long",
                                              "fet_iv", "dephasing"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "utb_kspace") return std::make_unique<UtbKspace>();
  if (name == "wire_long") return std::make_unique<WireLong>();
  if (name == "fet_iv") return std::make_unique<FetIv>();
  if (name == "dephasing") return std::make_unique<Dephasing>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace omenx::profile
