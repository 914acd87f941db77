#include "omen/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "numeric/types.hpp"
#include "transport/energy_grid.hpp"

namespace omenx::omen {

namespace {

/// A NaN or infinite chemical potential would turn every Fermi weight into
/// NaN; reject it up front, naming the terminal.
void require_finite_mu(const char* what, const std::vector<double>& mu) {
  for (std::size_t p = 0; p < mu.size(); ++p)
    if (!std::isfinite(mu[p]))
      throw std::invalid_argument(std::string(what) +
                                  ": chemical potential of terminal " +
                                  std::to_string(p) + " is not finite");
}

}  // namespace

Simulator::Simulator(SimulationConfig config) : config_(std::move(config)) {
  const dft::BasisLibrary basis(config_.functional);
  const bool periodic =
      config_.structure.periodicity == lattice::Periodicity::kZ;
  const idx nk = periodic ? std::max<idx>(1, config_.num_k) : 1;
  for (idx ik = 0; ik < nk; ++ik) {
    dft::BuildOptions opts = config_.build;
    // Uniform k grid over [0, pi] (time-reversal halves the zone).
    const double k =
        nk == 1 ? 0.0
                : numeric::kPi * static_cast<double>(ik) /
                      static_cast<double>(nk - 1);
    opts.k_transverse = k;
    k_values_.push_back(k);
    lead_.push_back(dft::build_lead_blocks(config_.structure, basis, opts));
    folded_.push_back(dft::fold_lead(lead_.back()));
  }
  // The device's block count is fixed by the supercell fold of
  // assemble_device — resolve it once: contact attachment blocks validate
  // against it, and the scattering model's probe layout is built from it.
  {
    const auto assembled = dft::assemble_device(
        lead_.front(), config_.structure.num_cells,
        std::vector<double>(
            static_cast<std::size_t>(config_.structure.num_cells), 0.0));
    device_blocks_ = assembled.h.num_blocks();
  }
  // An empty layout is the two-contact device: the device's own lead at
  // block 0 and at the last block, both at the configured uniform shift.
  // From here on the shift lives only on the contacts.
  if (config_.contacts.empty()) {
    const double shift = config_.point.obc_opts.contact_shift;
    config_.contacts = {ContactConfig{shift, 0, std::nullopt},
                        ContactConfig{shift, transport::kLastBlock,
                                      std::nullopt}};
  }
  config_.point.obc_opts.contact_shift = 0.0;
  // Build the per-material lead tables and validate the attachment
  // geometry *now* — a bad layout must surface as std::invalid_argument at
  // construction, before any engine world exists to drain, not as a failed
  // solve three sweeps later.
  if (config_.contacts.size() < 2)
    throw std::invalid_argument(
        "Simulator: contact layout needs >= 2 terminals (leave the list "
        "empty for the default source/drain pair)");
  for (const ContactConfig& cc : config_.contacts) {
    if (!cc.material.has_value()) {
      contact_material_.push_back(-1);
      continue;
    }
    contact_material_.push_back(static_cast<int>(contact_leads_.size()));
    std::vector<dft::LeadBlocks> row;
    std::vector<dft::FoldedLead> frow;
    for (idx ik = 0; ik < nk; ++ik) {
      dft::BuildOptions opts = config_.build;
      opts.k_transverse = k_values_[static_cast<std::size_t>(ik)];
      row.push_back(dft::build_lead_blocks(*cc.material, basis, opts));
      frow.push_back(dft::fold_lead(row.back()));
    }
    if (row.front().block_dim() != lead_.front().block_dim())
      throw std::invalid_argument(
          "Simulator: contact lead material must match the device's "
          "orbitals per cell (the self-energy block must fit the device "
          "diagonal)");
    contact_leads_.push_back(std::move(row));
    contact_folded_.push_back(std::move(frow));
  }
  // Resolve the attachment blocks against the actual folded device.
  for (const ContactConfig& cc : config_.contacts) {
    const idx b =
        cc.block == transport::kLastBlock ? device_blocks_ - 1 : cc.block;
    if (b < 0 || b >= device_blocks_)
      throw std::invalid_argument(
          "Simulator: contact attachment block out of range");
    for (const idx other : contact_blocks_)
      if (other == b)
        throw std::invalid_argument(
            "Simulator: contacts must attach to pairwise-distinct device "
            "blocks");
    contact_blocks_.push_back(b);
  }
  pool_ = std::make_unique<parallel::DevicePool>(
      std::max(1, config_.num_devices));
  EngineConfig engine_cfg;
  engine_cfg.num_ranks = std::max(1, config_.num_ranks);
  engine_cfg.ranks_per_energy_group =
      std::max(1, config_.ranks_per_energy_group);
  engine_cfg.work_stealing = config_.work_stealing;
  engine_cfg.cache_boundaries = config_.cache_boundaries;
  engine_cfg.batch_tasks = config_.batch_tasks;
  engine_cfg.max_batch = std::max(1, config_.max_batch);
  engine_cfg.backend = config_.backend;
  engine_ = std::make_unique<Engine>(engine_cfg, pool_.get());
  kt_ = 8.617e-5 * config_.temperature_k;
  // Contour anchor ingredient: the lead's spectral minimum (zero-potential,
  // first k).  The coarse band sampler is exact at the zone endpoints,
  // where cosine-like bands take their extrema; charge_density folds in the
  // device potential, the contact shifts, and a safety margin per call.
  lead_band_min_ =
      transport::band_window(transport::lead_band_structure(folded_.front()))
          .emin;
  rebuild_probe_sites();
}

void Simulator::rebuild_probe_sites() {
  probe_sites_.clear();
  if (config_.point.scattering.algorithm ==
      scattering::ScatteringAlgorithm::kNone)
    return;
  probe_sites_ = scattering::assemble_probes(config_.point.scattering,
                                             device_blocks_, contact_blocks_);
}

void Simulator::set_scattering(const scattering::Spec& spec) {
  // No cache invalidation: the built-in models never modify a contact
  // boundary (scattering::kModifiesBoundaries), so cached lead solves are
  // shared between ballistic and dissipative sweeps — by design, and the
  // reason BENCH_scattering's parity gate can check hit rates.
  config_.point.scattering = spec;
  rebuild_probe_sites();
  last_tune_ = {};
}

void Simulator::set_contact_shift(double shift) {
  // Deprecated uniform-shift wrapper: one value for every terminal.  The
  // shift is part of every boundary-cache key, so nothing is invalidated.
  for (ContactConfig& cc : config_.contacts) cc.shift = shift;
}

void Simulator::set_contact_shift(idx contact, double shift) {
  if (contact < 0 ||
      static_cast<std::size_t>(contact) >= config_.contacts.size())
    throw std::invalid_argument(
        "set_contact_shift: contact index out of range");
  // The shift keys this contact's boundaries only: the other contacts keep
  // hitting their cached lead solves.
  config_.contacts[static_cast<std::size_t>(contact)].shift = shift;
}

void Simulator::invalidate_boundary_cache() {
  engine_->invalidate_boundary_caches();
}

obc::BoundaryCache::Stats Simulator::boundary_cache_stats() const {
  return engine_->boundary_cache_stats();
}

obc::BoundaryCache::Stats Simulator::contact_boundary_cache_stats(
    idx contact) const {
  return engine_->contact_boundary_cache_stats(static_cast<int>(contact));
}

void Simulator::attach_contacts(SweepRequest& req,
                                const std::vector<double>* mu) const {
  req.contacts.clear();
  req.contacts.reserve(config_.contacts.size() + probe_sites_.size());
  for (std::size_t i = 0; i < config_.contacts.size(); ++i) {
    SweepContact sc;
    sc.mu = mu != nullptr && i < mu->size() ? (*mu)[i] : 0.0;
    sc.shift = config_.contacts[i].shift;
    sc.block = config_.contacts[i].block;
    sc.material = contact_material_[i];
    req.contacts.push_back(sc);
  }
  for (std::size_t p = 0; p < probe_sites_.size(); ++p) {
    SweepContact sc;
    const std::size_t t = req.contacts.size();
    sc.mu = mu != nullptr && t < mu->size() ? (*mu)[t] : 0.0;
    sc.block = probe_sites_[p].block;
    sc.probe_eta = probe_sites_[p].eta;
    req.contacts.push_back(sc);
  }
  // Probes are materialized into the terminal list: clear the per-point
  // spec so the transport-layer provider assembly cannot attach them a
  // second time (it already skips sets carrying probes — clearing keeps
  // the request self-describing).
  if (!probe_sites_.empty()) req.point.scattering = {};
  if (!contact_leads_.empty()) req.contact_leads = &contact_leads_;
}

std::size_t Simulator::source_terminal() const noexcept {
  // Construction guarantees distinct resolved blocks, so for a two-contact
  // layout exactly one of them can sit at block 0.
  return contact_blocks_[1] == 0 ? 1 : 0;
}

std::vector<double> Simulator::pair_mu(const char* what, double mu_l,
                                       double mu_r) const {
  std::vector<double> mu(2, mu_r);
  mu[source_terminal()] = mu_l;
  require_finite_mu(what, mu);
  return mu;
}

const dft::LeadBlocks& Simulator::lead_blocks(idx ik) const {
  return lead_.at(static_cast<std::size_t>(ik));
}

const dft::FoldedLead& Simulator::folded_lead(idx ik) const {
  return folded_.at(static_cast<std::size_t>(ik));
}

transport::BandStructure Simulator::bands(idx nk) const {
  return transport::lead_band_structure(folded_.front(), nk);
}

idx Simulator::hamiltonian_dimension() const {
  return config_.structure.orbitals_per_cell() * config_.structure.num_cells;
}

namespace {

std::vector<double> flat_or(const std::vector<double>* potential, idx cells) {
  if (potential == nullptr)
    return std::vector<double>(static_cast<std::size_t>(cells), 0.0);
  if (static_cast<idx>(potential->size()) != cells)
    throw std::invalid_argument("Simulator: potential size mismatch");
  return *potential;
}

/// Trapezoidal Brillouin-zone weights of the closed uniform [0, pi] grid:
/// the zone edges k = 0 and k = pi each bound only one interval, so they
/// carry half the interior weight (a flat 1/nk average double-counts them).
std::vector<double> bz_weights(idx nk) {
  if (nk <= 1) return {1.0};
  std::vector<double> w(static_cast<std::size_t>(nk),
                        1.0 / static_cast<double>(nk - 1));
  w.front() *= 0.5;
  w.back() *= 0.5;
  return w;
}

}  // namespace

Spectrum Simulator::transmission_spectrum(
    const std::vector<double>& energies,
    const std::vector<double>* cell_potential) {
  const idx cells = config_.structure.num_cells;
  const idx nk = static_cast<idx>(lead_.size());
  const idx ne = static_cast<idx>(energies.size());

  // The (k, E) sweep runs on the distribution engine (Fig. 9 levels 1-2):
  // momentum groups sized by allocate_groups, energy groups pulling points
  // from the shared queue.  With num_ranks = 1 this degenerates to the
  // flat in-process thread-pool loop.
  SweepRequest req;
  req.leads = &lead_;
  req.folded = &folded_;
  req.energies.assign(static_cast<std::size_t>(nk), energies);
  req.potential = flat_or(cell_potential, cells);
  req.cells = cells;
  req.point = config_.point;
  req.point.want_density = false;
  req.point.want_current = false;
  attach_contacts(req, nullptr);
  const SweepResult res = engine_->run(req);
  stats_ = res.stats;
  total_tasks_ += res.stats.tasks_total;

  Spectrum out;
  out.energies = energies;
  out.transmission.assign(static_cast<std::size_t>(ne), 0.0);
  out.propagating.assign(static_cast<std::size_t>(ne), 0);
  // Sigma-only OBC backends (no kProvidesInjection) report no incident
  // channels; their transmission is the Green's-function (Caroli) trace.
  const bool caroli_fallback =
      (obc::obc_algorithm_capabilities(req.point.obc) &
       obc::kProvidesInjection) == 0;
  const std::vector<double> wk = bz_weights(nk);
  for (idx ik = 0; ik < nk; ++ik) {
    for (idx ie = 0; ie < ne; ++ie) {
      const auto sk = static_cast<std::size_t>(ik);
      const auto se = static_cast<std::size_t>(ie);
      const idx prop = res.propagating[sk][se];
      const double t =
          prop > 0 || caroli_fallback
              ? (prop > 0 ? res.transmission[sk][se] : res.caroli[sk][se])
              : 0.0;
      out.transmission[se] += t * wk[sk];
      out.propagating[se] += prop;
    }
  }
  // >= 3-terminal layouts carry the full pairwise table, k-averaged with
  // the same BZ weights as the scalar transmission.  Probe materialization
  // counts: a classic pair plus attached probes sweeps as >= 3 terminals,
  // so the effective count is the request's, not the configured one.
  const std::size_t ncon = req.contacts.size();
  if (ncon >= 3 && !res.t_matrix.empty()) {
    out.t_matrix.assign(static_cast<std::size_t>(ne),
                        std::vector<double>(ncon * ncon, 0.0));
    for (idx ik = 0; ik < nk; ++ik)
      for (idx ie = 0; ie < ne; ++ie) {
        const auto sk = static_cast<std::size_t>(ik);
        const auto se = static_cast<std::size_t>(ie);
        for (std::size_t q = 0; q < ncon * ncon; ++q)
          out.t_matrix[se][q] += wk[sk] * res.t_matrix[sk][se][q];
      }
  }
  return out;
}

transport::EnergyPointResult Simulator::solve_point(
    double energy, const std::vector<double>* cell_potential) {
  const idx cells = config_.structure.num_cells;
  const std::vector<double> pot = flat_or(cell_potential, cells);
  const auto dm = dft::assemble_device(lead_.front(), cells, pot);
  // Direct solve at the first k point: the ContactSet points at the
  // simulator-owned lead tables, so the set is cheap to rebuild per call.
  std::vector<transport::Contact> cs(config_.contacts.size());
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const int m = contact_material_[i];
    cs[i].lead = m < 0 ? &lead_.front()
                       : &contact_leads_[static_cast<std::size_t>(m)].front();
    cs[i].folded = m < 0
                       ? &folded_.front()
                       : &contact_folded_[static_cast<std::size_t>(m)].front();
    cs[i].shift = config_.contacts[i].shift;
    cs[i].block = config_.contacts[i].block;
    cs[i].lead_hash = transport::lead_content_hash(*cs[i].lead);
  }
  return transport::solve_energy_point(dm, transport::ContactSet(std::move(cs)),
                                       energy, config_.point, pool_.get());
}

std::vector<double> Simulator::charge_density(
    const std::vector<double>& energies, double mu_l, double mu_r,
    const std::vector<double>* potential,
    charge::QuadratureAlgorithm quadrature,
    const charge::QuadratureOptions& quadrature_options) {
  const idx cells = config_.structure.num_cells;
  if (config_.contacts.size() >= 3)
    throw std::invalid_argument(
        "charge_density(mu_l, mu_r): >= 3 contacts configured — use the "
        "per-terminal mu overload");
  if (!((contact_blocks_[0] == 0 && contact_blocks_[1] == device_blocks_ - 1) ||
        (contact_blocks_[1] == 0 && contact_blocks_[0] == device_blocks_ - 1)))
    throw std::invalid_argument(
        "charge_density(mu_l, mu_r): the two-reservoir weights assume "
        "contacts at the device ends — interior probes need the "
        "per-terminal overload");
  // Same grid contract as landauer_current: the quadrature backends assume
  // a strictly increasing window of >= 2 points, and a violated contract
  // must surface here — not as NaNs three SCF iterations later.
  if (energies.size() < 2)
    throw std::invalid_argument(
        "charge_density: need at least two energy points");
  for (std::size_t ie = 1; ie < energies.size(); ++ie)
    if (!(energies[ie] > energies[ie - 1]))
      throw std::invalid_argument(
          "charge_density: energies must be strictly increasing");
  const std::vector<double> mu = pair_mu("charge_density", mu_l, mu_r);

  if (!probe_sites_.empty()) {
    // Dissipative charge: two-pass (tune the probe potentials, then occupy
    // every terminal's injected states at its own mu).  The contour's
    // equilibrium/bias-window split is a two-coherent-reservoir
    // construction and does not extend to probe terminals.
    if (quadrature != charge::QuadratureAlgorithm::kRealGrid)
      throw std::invalid_argument(
          "charge_density: dissipative (Buettiker-probe) charge supports "
          "the real_grid quadrature only");
    return dissipative_charge(energies, mu, potential);
  }

  // Plan the integration with the selected backend.  real_grid reproduces
  // the seed's trapezoid-times-Fermi weights bit-identically (same products
  // in the same order); contour replaces the equilibrium window with
  // Green's-function nodes and keeps only the bias window of `energies`.
  charge::ChargeWindow window;
  window.mu_l = mu_l;
  window.mu_r = mu_r;
  window.kt = kt_;
  window.grid = energies;
  double pot_min = 0.0;
  if (potential != nullptr && !potential->empty())
    pot_min = *std::min_element(potential->begin(), potential->end());
  // The potential-dependent depth is quantized to 0.5 eV steps (rounded
  // *down*, so the anchor always stays below the shifted spectrum).  Any
  // anchor below the band bottom integrates the same charge — the contour
  // encloses the same poles — but the node positions depend on it, and the
  // SCF potential drifts a little every outer iteration.  Quantizing keeps
  // the contour nodes literally identical across iterations, so the
  // boundary cache serves every node from iteration 2 onward instead of
  // missing on each micro-shifted anchor.
  // The most negative contact shift bounds how far any lead spectrum is
  // pushed down.
  double shift_min = 0.0;
  for (const ContactConfig& cc : config_.contacts)
    shift_min = std::min(shift_min, cc.shift);
  const double depth = std::min(0.0, pot_min) + shift_min;
  window.band_bottom =
      lead_band_min_ + 0.5 * std::floor(depth / 0.5) - 0.5;
  const charge::NodeSet nodes =
      charge::make_quadrature(quadrature)->build(window, quadrature_options);

  // One engine sweep executes both task kinds: real-axis wave-function
  // points fold weight * density into the per-cell accumulator, contour
  // nodes fold Im(w * G_ii) — the assembly stage reduce()s both to the
  // root in deterministic flat-task order.
  SweepRequest req;
  req.leads = &lead_;
  req.folded = &folded_;
  req.energies = {nodes.energies};
  req.potential = flat_or(potential, cells);
  req.cells = cells;
  req.point = config_.point;
  req.point.want_density = true;
  req.point.want_current = false;
  req.point.want_caroli = false;
  if (!nodes.energies.empty()) {
    // weight_l occupies the source (the contact at block 0), weight_r the
    // drain.
    const std::size_t src = source_terminal();
    req.density_weight.resize(2);
    req.density_weight[src] = {nodes.weight_l};
    req.density_weight[1 - src] = {nodes.weight_r};
  }
  if (!nodes.gf_nodes.empty()) {
    req.gf_nodes = {nodes.gf_nodes};
    req.gf_weights = {nodes.gf_weights};
  }
  attach_contacts(req, &mu);
  const SweepResult res = engine_->run(req);
  stats_ = res.stats;
  total_tasks_ += res.stats.tasks_total;
  // An empty plan (occupied window entirely below the band bottom at
  // equilibrium) carries no charge at all.
  if (res.charge.empty())
    return std::vector<double>(static_cast<std::size_t>(cells), 0.0);
  return res.charge;
}

std::vector<double> Simulator::charge_density(
    const std::vector<double>& energies, const std::vector<double>& mu,
    const std::vector<double>* potential,
    charge::QuadratureAlgorithm quadrature,
    const charge::QuadratureOptions& quadrature_options) {
  const std::size_t ncon = config_.contacts.size();
  if (mu.size() != ncon)
    throw std::invalid_argument(
        "charge_density: one chemical potential per terminal");
  require_finite_mu("charge_density", mu);
  if (ncon == 2) {
    // Two terminals: the source/drain path, with mu routed onto the roles
    // by attachment block — the weights are bit-identical to the scalar-mu
    // entry point.
    const std::size_t src = source_terminal();
    return charge_density(energies, mu[src], mu[1 - src], potential,
                          quadrature, quadrature_options);
  }
  // >= 3 terminals: per-contact trapezoid-times-Fermi weights on the real
  // grid.  The contour's equilibrium/bias-window split is a two-reservoir
  // construction, so only kRealGrid applies here.
  if (quadrature != charge::QuadratureAlgorithm::kRealGrid)
    throw std::invalid_argument(
        "charge_density: >= 3-terminal charge supports the real_grid "
        "quadrature only");
  const idx cells = config_.structure.num_cells;
  if (energies.size() < 2)
    throw std::invalid_argument(
        "charge_density: need at least two energy points");
  for (std::size_t ie = 1; ie < energies.size(); ++ie)
    if (!(energies[ie] > energies[ie - 1]))
      throw std::invalid_argument(
          "charge_density: energies must be strictly increasing");
  if (!probe_sites_.empty())
    return dissipative_charge(energies, mu, potential);
  const std::vector<double> w = transport::trapezoid_weights(energies);
  SweepRequest req;
  req.leads = &lead_;
  req.folded = &folded_;
  req.energies = {energies};
  req.potential = flat_or(potential, cells);
  req.cells = cells;
  req.point = config_.point;
  req.point.want_density = true;
  req.point.want_current = false;
  req.point.want_caroli = false;
  req.density_weight.resize(ncon);
  for (std::size_t p = 0; p < ncon; ++p) {
    std::vector<double> wp(w.size());
    for (std::size_t ie = 0; ie < w.size(); ++ie)
      wp[ie] = w[ie] * transport::fermi(energies[ie], mu[p], kt_);
    req.density_weight[p] = {std::move(wp)};
  }
  attach_contacts(req, &mu);
  const SweepResult res = engine_->run(req);
  stats_ = res.stats;
  total_tasks_ += res.stats.tasks_total;
  if (res.charge.empty())
    return std::vector<double>(static_cast<std::size_t>(cells), 0.0);
  return res.charge;
}

const std::vector<double>& Simulator::tune_probes(const Spectrum& sp,
                                                  const std::vector<double>& mu) {
  if (sp.t_matrix.empty())
    throw std::logic_error(
        "tune_probes: sweep returned no pairwise T matrix");
  const std::size_t nreal = mu.size();
  const std::size_t nc = nreal + probe_sites_.size();
  std::vector<double> mu_full(nc, 0.0);
  std::vector<bool> is_probe(nc, false);
  double mu0 = 0.0;
  for (std::size_t p = 0; p < nreal; ++p) {
    mu_full[p] = mu[p];
    mu0 += mu[p];
  }
  // Probes start from the real terminals' mean — the exact zero-current
  // solution at equilibrium, and a bracketing guess under bias.
  mu0 /= static_cast<double>(nreal);
  for (std::size_t p = nreal; p < nc; ++p) {
    mu_full[p] = mu0;
    is_probe[p] = true;
  }
  last_tune_ = scattering::tune_probe_potentials(
      sp.energies, sp.t_matrix, std::move(mu_full), is_probe, kt_,
      config_.probe_tune);
  stats_.probe_terminals = static_cast<idx>(probe_sites_.size());
  stats_.probe_iterations = last_tune_.iterations;
  stats_.probe_residual = last_tune_.max_residual;
  return last_tune_.mu;
}

std::vector<double> Simulator::dissipative_charge(
    const std::vector<double>& energies, const std::vector<double>& mu,
    const std::vector<double>* potential) {
  // Pass 1: pairwise T over real + probe terminals at this potential, then
  // drive every probe's net current to zero.
  const Spectrum sp = transmission_spectrum(energies, potential);
  const std::vector<double>& mu_full = tune_probes(sp, mu);
  // Pass 2: per-terminal real-grid charge — every terminal occupies its
  // injected states with its own Fermi weight, the probes at their tuned
  // mu_p (a probe both absorbs and re-injects carriers; its occupation is
  // what the zero-current condition fixes).
  const idx cells = config_.structure.num_cells;
  const std::vector<double> w = transport::trapezoid_weights(energies);
  SweepRequest req;
  req.leads = &lead_;
  req.folded = &folded_;
  req.energies = {energies};
  req.potential = flat_or(potential, cells);
  req.cells = cells;
  req.point = config_.point;
  req.point.want_density = true;
  req.point.want_current = false;
  req.point.want_caroli = false;
  req.density_weight.resize(mu_full.size());
  for (std::size_t p = 0; p < mu_full.size(); ++p) {
    std::vector<double> wp(w.size());
    for (std::size_t ie = 0; ie < w.size(); ++ie)
      wp[ie] = w[ie] * transport::fermi(energies[ie], mu_full[p], kt_);
    req.density_weight[p] = {std::move(wp)};
  }
  attach_contacts(req, &mu_full);
  const SweepResult res = engine_->run(req);
  const scattering::ProbeTuneResult tune = last_tune_;
  stats_ = res.stats;
  stats_.probe_terminals = static_cast<idx>(probe_sites_.size());
  stats_.probe_iterations = tune.iterations;
  stats_.probe_residual = tune.max_residual;
  total_tasks_ += res.stats.tasks_total;
  if (res.charge.empty())
    return std::vector<double>(static_cast<std::size_t>(cells), 0.0);
  return res.charge;
}

std::vector<double> Simulator::terminal_currents(
    const std::vector<double>& energies, const std::vector<double>& mu,
    const std::vector<double>* potential) {
  const std::size_t ncon = config_.contacts.size();
  if (mu.size() != ncon)
    throw std::invalid_argument(
        "terminal_currents: one chemical potential per terminal");
  require_finite_mu("terminal_currents", mu);
  if (!probe_sites_.empty()) {
    // Dissipative currents: sweep the pairwise T over real + probe
    // terminals, tune the probe potentials to zero net probe current, and
    // integrate the Buettiker sum over the full terminal set.  Only the
    // real terminals' currents are reported — the probes' vanish by
    // construction (to the tuning tolerance), which is exactly what makes
    // the real-terminal total conserved.
    const Spectrum sp = transmission_spectrum(energies, potential);
    const std::vector<double>& mu_full = tune_probes(sp, mu);
    std::vector<double> currents = transport::buttiker_currents(
        sp.energies, sp.t_matrix, mu_full, kt_);
    currents.resize(mu.size());
    return currents;
  }
  if (ncon == 2) {
    // Two terminals: +I_landauer into the source (the contact at block 0),
    // -I_landauer into the drain.
    const std::size_t src = source_terminal();
    const double i = current(energies, mu[src], mu[1 - src], potential);
    std::vector<double> out(2, -i);
    out[src] = i;
    return out;
  }
  const Spectrum sp = transmission_spectrum(energies, potential);
  if (sp.t_matrix.empty())
    throw std::logic_error(
        "terminal_currents: sweep returned no pairwise T matrix");
  return transport::buttiker_currents(sp.energies, sp.t_matrix, mu, kt_);
}

std::vector<double> Simulator::adaptive_energy_grid(
    std::vector<double> base, const std::vector<double>* cell_potential,
    double tol, double min_spacing) {
  const idx cells = config_.structure.num_cells;
  const std::vector<double> pot = flat_or(cell_potential, cells);
  // Each refinement pass becomes one engine sweep over the pass's points.
  // The indicator is the transmission itself (Caroli under decimation):
  // unlike the lead's propagating-mode count it sees the *device* potential,
  // so the refinement clusters where the potential pushes band edges and
  // barrier steps — which is what moves between SCF iterations.
  const transport::BatchEvaluator indicator =
      [&](const std::vector<double>& points) {
        SweepRequest req;
        req.leads = &lead_;
        req.folded = &folded_;
        req.energies = {points};
        req.potential = pot;
        req.cells = cells;
        req.point = config_.point;
        req.point.want_density = false;
        req.point.want_current = false;
        const bool caroli =
            (obc::obc_algorithm_capabilities(req.point.obc) &
             obc::kProvidesInjection) == 0;
        req.point.want_caroli = caroli;
        attach_contacts(req, nullptr);
        const SweepResult res = engine_->run(req);
        stats_ = res.stats;
        total_tasks_ += res.stats.tasks_total;
        std::vector<double> out(points.size());
        for (std::size_t ie = 0; ie < points.size(); ++ie)
          out[ie] = res.propagating[0][ie] > 0
                        ? res.transmission[0][ie]
                        : (caroli ? res.caroli[0][ie] : 0.0);
        return out;
      };
  transport::EnergyGridOptions gopt;
  gopt.min_spacing = min_spacing;
  gopt.max_spacing = std::max(gopt.max_spacing, min_spacing);
  return transport::refine_energy_grid(std::move(base), indicator, tol, gopt);
}

double Simulator::current(const std::vector<double>& energies, double mu_l,
                          double mu_r, const std::vector<double>* potential) {
  if (config_.contacts.size() == 2) {
    const std::vector<double> mu = pair_mu("current", mu_l, mu_r);
    if (!probe_sites_.empty()) {
      // Dissipative drain current: the Landauer integral over the coherent
      // T_01 misses the probe-mediated (phase-broken) share, so route
      // through the tuned Buettiker sum and report the source terminal.
      return terminal_currents(energies, mu, potential)[source_terminal()];
    }
  } else {
    require_finite_mu("current", {mu_l, mu_r});
  }
  const Spectrum sp = transmission_spectrum(energies, potential);
  return transport::landauer_current(sp.energies, sp.transmission, mu_l, mu_r,
                                     kt_);
}

std::vector<Simulator::IvPoint> Simulator::transfer_characteristics(
    const std::vector<double>& vgs_values, double vds,
    const lattice::DeviceRegions& regions,
    const std::vector<double>& energies, double mu_source,
    const poisson::ScfOptions& scf) {
  if (regions.total() != config_.structure.num_cells)
    throw std::invalid_argument(
        "transfer_characteristics: regions must cover all cells");
  // Dissipation model of this sweep: kNone leaves the simulator's
  // configured model untouched (the common spelling is on
  // SimulationConfig::point.scattering); anything else swaps it in for the
  // whole bias sweep.
  if (scf.scattering.algorithm != scattering::ScatteringAlgorithm::kNone)
    set_scattering(scf.scattering);
  // The bias sweep's lead electrostatics, one shift per contact.  The
  // shifts are part of the boundary-cache keys, so sweeps at shifts seen
  // before keep their cached lead eigenproblems.
  const std::vector<double> shifts =
      scf.resolved_contact_shifts(config_.contacts.size());
  for (std::size_t i = 0; i < shifts.size(); ++i)
    set_contact_shift(static_cast<idx>(i), shifts[i]);
  const double mu_drain = mu_source - vds;
  std::vector<IvPoint> out;
  out.reserve(vgs_values.size());
  // Warm start: each bias point seeds the SCF loop with the previous
  // point's converged potential (and its charge, as the first charge-
  // residual reference) — adjacent Vgs values have nearly identical
  // electrostatics, so the loop starts inside the Anderson history's basin
  // instead of at the Laplace solution.
  std::vector<double> warm, warm_charge;
  for (const double vgs : vgs_values) {
    // Two-contact ballistic charge model.  Both the charge evaluations
    // inside the SCF loop and the final current integral run on the
    // distribution engine.  With adaptive_energy_grid on, the grid is
    // regenerated from the base `energies` at every outer SCF iteration so
    // refinement tracks the band edges as the potential moves.
    std::vector<double> grid = energies;
    poisson::ChargeModel charge = [&](const std::vector<double>& v) {
      // Adaptive refinement targets the real-axis part of the integration
      // only: the contour backend keeps just the bias window [mu_R, mu_L]
      // on the real axis, and at equilibrium that window is empty — the
      // refinement sweeps would refine points the quadrature then discards.
      const bool contour =
          scf.quadrature == charge::QuadratureAlgorithm::kContour;
      if (scf.adaptive_energy_grid && !(contour && mu_source == mu_drain))
        grid = adaptive_energy_grid(energies, &v, scf.grid_refine_tol,
                                    scf.grid_min_spacing);
      return charge_density(grid, mu_source, mu_drain, &v, scf.quadrature,
                            scf.quadrature_options);
    };
    const bool use_warm = scf.warm_start && !warm.empty();
    const auto res = poisson::self_consistent_potential(
        regions, vgs, vds, charge, scf, use_warm ? &warm : nullptr,
        use_warm && !warm_charge.empty() ? &warm_charge : nullptr);
    if (scf.warm_start) {
      warm = res.potential;
      warm_charge = res.charge;
    }
    const double i = current(grid, mu_source, mu_drain, &res.potential);
    out.push_back({vgs, i, res.iterations, res.converged, res.potential});
  }
  return out;
}

}  // namespace omenx::omen
