#include "transport/transmission.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "numeric/blas.hpp"
#include "numeric/lu.hpp"
#include "parallel/comm.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/tracer.hpp"
#include "solvers/spike.hpp"
#include "transport/energy_grid.hpp"

namespace omenx::transport {

namespace {

// Trace of GammaL * G * GammaR * G^H  (Caroli/Meir-Wingreen ballistic form).
double caroli_transmission(const CMatrix& sigma_l, const CMatrix& sigma_r,
                           const CMatrix& g_first_last) {
  auto gamma = [](const CMatrix& s) {
    CMatrix g = s - numeric::dagger(s);
    g *= cplx{0.0, 1.0};
    return g;
  };
  const CMatrix gl = gamma(sigma_l);
  const CMatrix gr = gamma(sigma_r);
  const CMatrix m = numeric::matmul(
      gl, numeric::matmul(g_first_last,
                          numeric::matmul(gr, numeric::dagger(g_first_last))));
  cplx tr{0.0};
  for (idx i = 0; i < m.rows(); ++i) tr += m(i, i);
  return tr.real();
}

// Provider assembly: the contacts are always provider #0; an active
// scattering model appends its probe pseudo-terminals as lead-less
// contacts into `out` and returns it.  Returns `contacts` itself when the
// model contributes nothing — kNone, a disabled model (buttiker_probe at
// eta <= 0), or a set whose probes were already materialized upstream
// (omen::Simulator) — so that set runs unchanged, bit-identically.
const ContactSet& assemble_providers(const ContactSet& contacts, idx nb,
                                     const scattering::Spec& spec,
                                     ContactSet& out) {
  if (spec.algorithm == scattering::ScatteringAlgorithm::kNone ||
      contacts.has_probes())
    return contacts;
  std::vector<idx> occupied;
  occupied.reserve(static_cast<std::size_t>(contacts.size()));
  for (idx i = 0; i < contacts.size(); ++i)
    occupied.push_back(contacts.resolve_block(i, nb));
  const std::vector<scattering::ProbeSite> sites =
      scattering::assemble_probes(spec, nb, occupied);
  if (sites.empty()) return contacts;
  std::vector<Contact> cs = contacts.contacts();
  cs.reserve(cs.size() + sites.size());
  for (const scattering::ProbeSite& site : sites) {
    Contact p;
    p.block = site.block;
    p.probe_eta = site.eta;
    cs.push_back(p);
  }
  out = ContactSet(std::move(cs));
  return out;
}

}  // namespace

namespace detail {

void require_injection_support(const obc::Strategy& strategy,
                               bool have_injection,
                               const EnergyPointOptions& options) {
  // Density/charge and bond currents integrate the *injected* wave
  // functions; an OBC backend without injection data would silently
  // produce zeros.  Reject before any cooperative work starts, so a
  // spatial group's members are never left waiting on a solve that
  // cannot happen.
  if ((options.want_density || options.want_current) && !have_injection)
    throw std::invalid_argument(
        std::string("solve_energy_point: OBC strategy '") + strategy.name() +
        "' provides self-energies only (no injection states); density/"
        "charge/current requests need a mode-based OBC (shift_invert, "
        "feast, beyn)");
}

obc::BoundaryKey boundary_key(const Contact& contact, int contact_id,
                              cplx energy, const EnergyPointOptions& options) {
  obc::BoundaryKey key{options.k_index, energy.real(), contact.shift,
                       static_cast<int>(options.obc), energy.imag()};
  key.contact = contact_id;
  key.lead_hash = contact.lead_hash != 0 ? contact.lead_hash
                                         : lead_content_hash(*contact.lead);
  key.scattering = scattering::boundary_key_component(options.scattering);
  key.options = options.obc_opts.digest();
  return key;
}

FetchedBoundary fetch_boundary(obc::Strategy& strategy,
                               const dft::LeadBlocks& lead,
                               const dft::FoldedLead& folded, cplx energy,
                               const EnergyPointOptions& options) {
  Contact contact;
  contact.lead = &lead;
  contact.folded = &folded;
  contact.shift = options.obc_opts.contact_shift;
  return fetch_boundary(strategy, contact, 0, energy, options);
}

FetchedBoundary fetch_boundary(obc::Strategy& strategy, const Contact& contact,
                               int contact_id, cplx energy,
                               const EnergyPointOptions& options) {
  // Served from the cross-sweep cache when one is bound: the lead does not
  // depend on the device potential, so SCF outer iterations, bias points,
  // and adaptive-grid re-sweeps revisiting a key reuse the first
  // evaluation's Boundary bit-for-bit.  Complex energies (contour nodes)
  // follow the same discipline — Im(E) is part of the key.
  obc::ObcOptions opts = options.obc_opts;
  opts.contact_shift = contact.shift;
  FetchedBoundary out;
  if (options.boundary_cache != nullptr) {
    const obc::BoundaryKey key =
        boundary_key(contact, contact_id, energy, options);
    out.cached = options.boundary_cache->find(key);
    out.hit = out.cached != nullptr;
    if (out.cached == nullptr)
      out.cached = options.boundary_cache->insert(
          key,
          strategy.boundary(*contact.lead, *contact.folded, energy, opts));
  } else {
    out.computed =
        strategy.boundary(*contact.lead, *contact.folded, energy, opts);
  }
  return out;
}

RhsShape rhs_shape(const obc::Boundary& left, const obc::Boundary& right,
                   bool have_injection, idx sf,
                   const EnergyPointOptions& options) {
  RhsShape shape;
  shape.n_inc = have_injection ? left.num_incident : 0;
  // Drain-side injection columns are only carried when the two-contact
  // density is requested (the SCF charge path): transmission and current
  // need no right-incident states, and the extra RHS columns are not free.
  shape.n_inc_r = have_injection && options.want_density &&
                          options.want_density_r
                      ? right.num_incident_right
                      : 0;
  shape.want_caroli = options.want_caroli || !have_injection;
  shape.gcols = shape.want_caroli ? 2 * sf : 0;
  shape.m = shape.gcols + shape.n_inc + shape.n_inc_r;
  return shape;
}

void build_rhs(CMatrix& b_top, CMatrix& b_bot, const obc::Boundary& left,
               const obc::Boundary& right, const RhsShape& shape, idx sf) {
  b_top.resize(sf, shape.m);
  b_bot.resize(sf, shape.m);
  if (shape.want_caroli) {
    for (idx i = 0; i < sf; ++i) {
      b_top(i, i) = cplx{1.0};
      b_bot(i, sf + i) = cplx{1.0};
    }
  }
  for (idx j = 0; j < shape.n_inc; ++j)
    for (idx i = 0; i < sf; ++i) b_top(i, shape.gcols + j) = left.inj(i, j);
  // Right-contact injection enters through the last block.
  for (idx j = 0; j < shape.n_inc_r; ++j)
    for (idx i = 0; i < sf; ++i)
      b_bot(i, shape.gcols + shape.n_inc + j) = right.inj_r(i, j);
}

RhsShape task_rhs(EnergyPointResult& out, const obc::Boundary& left,
                  const obc::Boundary& right, bool have_injection, idx sf,
                  const EnergyPointOptions& options, CMatrix& b_top,
                  CMatrix& b_bot) {
  out.num_propagating = left.num_incident;
  const RhsShape shape = rhs_shape(left, right, have_injection, sf, options);
  if (shape.m > 0) build_rhs(b_top, b_bot, left, right, shape, sf);
  return shape;
}

void finalize_observables(EnergyPointResult& out, const BlockTridiag& a,
                          const obc::Boundary& left, const obc::Boundary& right,
                          bool have_injection, const RhsShape& shape,
                          const CMatrix& x, const EnergyPointOptions& options) {
  const idx sf = a.block_size();
  const idx gcols = shape.gcols;
  const idx n_inc = shape.n_inc;
  const idx n_inc_r = shape.n_inc_r;

  // --- Caroli transmission from G_{first,last} ---
  if (shape.want_caroli) {
    const CMatrix g_first_last = x.block(0, sf, sf, sf);
    out.transmission_caroli =
        caroli_transmission(left.sigma_l, right.sigma_r, g_first_last);
  }

  // --- Wave-function observables ---
  if (have_injection && n_inc > 0) {
    // Transmission: project the last supercell onto the right-bounded mode
    // basis; flux-normalized propagating amplitudes give T.
    const CMatrix psi_last = x.block(a.dim() - sf, gcols, sf, n_inc);
    // Same ridge as the self-energy construction: one BoundaryOptions
    // governs every pseudo-inverse of the mode basis.
    const CMatrix uplus = obc::pseudo_inverse(
        right.right_basis, options.obc_opts.boundary.pinv_ridge);
    const CMatrix amps = numeric::matmul(uplus, psi_last);
    // Flux-normalized amplitudes: the mode vectors have unit 2-norm, so the
    // flux a mode carries is v*beta (beta = Bloch norm u^H S_v u), stored
    // per mode as Boundary::*_flux.  Dividing by the bare |v| instead would
    // over-count every channel by beta in a non-orthogonal basis.
    double total = 0.0;
    for (idx p = 0; p < n_inc; ++p) {
      const double fp =
          std::max(left.inj_flux[static_cast<std::size_t>(p)], 1e-12);
      for (idx n = 0; n < amps.rows(); ++n) {
        if (!right.right_propagating[static_cast<std::size_t>(n)]) continue;
        const double fn = right.right_flux[static_cast<std::size_t>(n)];
        total += std::norm(amps(n, p)) * fn / fp;
      }
    }
    out.transmission = total;

    if (options.want_density) {
      // 1/flux weights make the summed injected density equal the spectral
      // function -2 Im G_ii exactly — the identity the contour charge
      // quadrature (charge::Quadrature) integrates on the GF side.
      out.orbital_density.assign(static_cast<std::size_t>(a.dim()), 0.0);
      for (idx p = 0; p < n_inc; ++p) {
        const double w =
            1.0 / std::max(left.inj_flux[static_cast<std::size_t>(p)], 1e-12);
        for (idx i = 0; i < a.dim(); ++i)
          out.orbital_density[static_cast<std::size_t>(i)] +=
              w * std::norm(x(i, gcols + p));
      }
    }
    if (options.want_current) {
      const idx nb = a.num_blocks();
      out.interface_current.assign(static_cast<std::size_t>(nb - 1), 0.0);
      for (idx iface = 0; iface + 1 < nb; ++iface) {
        const CMatrix& tc = a.upper(iface);
        for (idx p = 0; p < n_inc; ++p) {
          const double w =
              1.0 /
              std::max(left.inj_flux[static_cast<std::size_t>(p)], 1e-12);
          cplx acc{0.0};
          for (idx i = 0; i < sf; ++i) {
            const cplx psi_i = x(iface * sf + i, gcols + p);
            for (idx j = 0; j < sf; ++j)
              acc += std::conj(psi_i) * tc(i, j) *
                     x((iface + 1) * sf + j, gcols + p);
          }
          out.interface_current[static_cast<std::size_t>(iface)] +=
              w * 2.0 * acc.imag();
        }
      }
    }
  }

  // Drain-injected density: same flux normalization, states incident from
  // the right contact (occupied at mu_R in the two-contact charge model).
  if (n_inc_r > 0 && options.want_density) {
    out.orbital_density_r.assign(static_cast<std::size_t>(a.dim()), 0.0);
    for (idx p = 0; p < n_inc_r; ++p) {
      const double w =
          1.0 /
          std::max(right.inj_r_flux[static_cast<std::size_t>(p)], 1e-12);
      for (idx i = 0; i < a.dim(); ++i)
        out.orbital_density_r[static_cast<std::size_t>(i)] +=
            w * std::norm(x(i, gcols + n_inc + p));
    }
  }
}

}  // namespace detail

solvers::Solver& EnergyPointContext::solver(
    solvers::SolverAlgorithm requested, const solvers::SolverContext& binding,
    idx nb, idx s) {
  // Resolution uses the representative nrhs = 2s (the Caroli columns): the
  // actual injected-mode count is energy-dependent and unknown to the
  // spatial members, and the choice must agree across the group's ranks.
  const solvers::SolverAlgorithm resolved =
      solvers::resolve_algorithm(requested, nb, s, 2 * s, binding);
  const bool same_binding = solver_binding_.pool == binding.pool &&
                            solver_binding_.partitions == binding.partitions &&
                            solver_binding_.spatial == binding.spatial &&
                            solver_binding_.batch == binding.batch &&
                            solver_binding_.backend == binding.backend;
  if (solver_ == nullptr || solver_algo_ != resolved || !same_binding) {
    solver_ = solvers::make_solver(resolved, binding);
    solver_algo_ = resolved;
    solver_binding_ = binding;
  }
  return *solver_;
}

obc::Strategy& EnergyPointContext::obc_strategy(ObcAlgorithm algo) {
  if (obc_ == nullptr || obc_algo_ != algo) {
    obc_ = obc::make_obc_strategy(algo);
    obc_algo_ = algo;
  }
  return *obc_;
}

solvers::Solver& EnergyPointContext::greens_solver() {
  if (greens_solver_ == nullptr)
    greens_solver_ =
        solvers::make_solver(solvers::SolverAlgorithm::kRgf, {});
  return *greens_solver_;
}

// Every pool worker keeps one warm workspace, so steady-state points are
// allocation-free — shared by the wave-function and Green's-function
// entry points, so interleaved contour and real-axis tasks reuse it.
EnergyPointContext& detail::thread_context() {
  static thread_local EnergyPointContext ctx;
  return ctx;
}

EnergyPointResult solve_energy_point(const dft::DeviceMatrices& dm,
                                     const dft::LeadBlocks& lead,
                                     const dft::FoldedLead& folded,
                                     double energy,
                                     const EnergyPointOptions& options,
                                     parallel::DevicePool* pool) {
  return solve_energy_point(detail::thread_context(), dm, lead, folded, energy,
                            options, pool);
}

EnergyPointResult solve_energy_point(EnergyPointContext& ctx,
                                     const dft::DeviceMatrices& dm,
                                     const dft::LeadBlocks& lead,
                                     const dft::FoldedLead& folded,
                                     double energy,
                                     const EnergyPointOptions& options,
                                     parallel::DevicePool* pool) {
  return solve_energy_point(
      ctx, dm,
      ContactSet::pair(lead, folded, 0.0, 0.0, options.obc_opts.contact_shift),
      energy, options, pool);
}

namespace {

// Per-contact boundary views: which of a Boundary's two lead orientations a
// contact reads.  A contact on the last block is the classic drain and uses
// the right-extending lead data (sigma_r, inj_r); every other attachment —
// block 0 and interior probes alike — uses the left-extending data
// (sigma_l, inj), the "left-facing probe" convention.
struct ContactView {
  const CMatrix* sigma = nullptr;
  const CMatrix* inj = nullptr;
  const std::vector<double>* inj_flux = nullptr;
  idx n_modes = 0;  ///< incident channel count of this orientation
  idx block = 0;    ///< resolved attachment block
  bool probe = false;  ///< lead-less Büttiker probe (sigma = -i*eta*I)
  double eta = 0.0;    ///< probe dephasing strength (Gamma = 2*eta*I)
};

ContactView contact_view(const obc::Boundary& bnd, idx block, idx nb) {
  ContactView v;
  v.block = block;
  if (block == nb - 1) {
    v.sigma = &bnd.sigma_r;
    v.inj = &bnd.inj_r;
    v.inj_flux = &bnd.inj_r_flux;
    v.n_modes = bnd.num_incident_right;
  } else {
    v.sigma = &bnd.sigma_l;
    v.inj = &bnd.inj;
    v.inj_flux = &bnd.inj_flux;
    v.n_modes = bnd.num_incident;
  }
  return v;
}

// Re sum_ij a_ij conj(b_ij) over two sf x sf blocks with row strides lda/ldb.
double re_dot(const cplx* a, idx lda, const cplx* b, idx ldb, idx sf) {
  double sum = 0.0;
  for (idx i = 0; i < sf; ++i)
    for (idx j = 0; j < sf; ++j) {
      const cplx u = a[i * lda + j];
      const cplx v = b[i * ldb + j];
      sum += u.real() * v.real() + u.imag() * v.imag();
    }
  return sum;
}

// Pairwise Caroli table T_pq = Tr[Gamma_p G_pq Gamma_q G_pq^H] (row-major
// nc x nc, diagonal 0) from the identity column groups of x, where
// G_pq = x.block(b_p*sf, q*sf, sf, sf).  With L = Gamma_p G_pq and
// R = G_pq Gamma_q (Gamma Hermitian), T_pq = Re sum_ij L_ij conj(R_ij).
// Gamma = i(Sigma - Sigma^H) is built once per lead contact p, and L for
// every q is one GEMM over row block b_p of the identity columns; R is one
// sf^3 product per lead q.  A probe's Gamma = 2*eta*I stays a scalar: its
// operand is G_pq itself, so a probe-probe pair is
// 4*eta_p*eta_q*||G_pq||_F^2 with no GEMM.
std::vector<double> terminal_transmissions(const CMatrix& x,
                                           const std::vector<ContactView>& view,
                                           idx sf) {
  const idx nc = static_cast<idx>(view.size());
  const idx gcols = nc * sf;
  const idx ldx = x.cols();
  const auto g_at = [&](idx p, idx q) {
    return x.data() + view[static_cast<std::size_t>(p)].block * sf * ldx +
           q * sf;
  };
  std::vector<CMatrix> gamma(static_cast<std::size_t>(nc));
  for (idx p = 0; p < nc; ++p) {
    const ContactView& v = view[static_cast<std::size_t>(p)];
    if (v.probe) continue;
    const CMatrix& sg = *v.sigma;
    CMatrix& gp = gamma[static_cast<std::size_t>(p)];
    gp.resize_uninit(sf, sf);
    for (idx i = 0; i < sf; ++i)
      for (idx j = 0; j < sf; ++j)
        gp(i, j) = cplx{0.0, 1.0} * (sg(i, j) - std::conj(sg(j, i)));
  }
  std::vector<double> t(static_cast<std::size_t>(nc * nc), 0.0);
  CMatrix l, r(sf, sf);
  for (idx p = 0; p < nc; ++p) {
    const ContactView& vp = view[static_cast<std::size_t>(p)];
    if (!vp.probe) {
      l.resize_uninit(sf, gcols);
      numeric::gemm_view('N', gamma[static_cast<std::size_t>(p)].data(), sf,
                         'N', g_at(p, 0), ldx, sf, gcols, sf, cplx{1.0},
                         cplx{0.0}, l.data(), gcols);
    }
    for (idx q = 0; q < nc; ++q) {
      if (q == p) continue;
      const ContactView& vq = view[static_cast<std::size_t>(q)];
      const cplx* g = g_at(p, q);
      if (!vq.probe)
        numeric::gemm_view('N', g, ldx, 'N',
                           gamma[static_cast<std::size_t>(q)].data(), sf, sf,
                           sf, sf, cplx{1.0}, cplx{0.0}, r.data(), sf);
      const double scale =
          (vp.probe ? 2.0 * vp.eta : 1.0) * (vq.probe ? 2.0 * vq.eta : 1.0);
      t[static_cast<std::size_t>(p * nc + q)] =
          scale * re_dot(vp.probe ? g : l.data() + q * sf,
                         vp.probe ? ldx : gcols, vq.probe ? g : r.data(),
                         vq.probe ? ldx : sf, sf);
    }
  }
  return t;
}

// Backend choice for the interior-attachment solve: the resolved algorithm
// must advertise kMultiTerminal.  kAuto falls back deterministically to the
// cheaper of rgf/block_lu under the same cost model the 2-terminal
// resolution uses; an explicitly requested non-capable backend is an error,
// not a silent substitution.
solvers::SolverAlgorithm multi_terminal_algorithm(
    solvers::SolverAlgorithm requested, idx nb, idx s, idx nrhs,
    const solvers::SolverContext& binding) {
  const solvers::SolverAlgorithm resolved =
      solvers::resolve_algorithm(requested, nb, s, nrhs, binding);
  if ((solvers::algorithm_capabilities(resolved) & solvers::kMultiTerminal) !=
      0)
    return resolved;
  if (requested != solvers::SolverAlgorithm::kAuto)
    throw std::invalid_argument(
        std::string("solve_energy_point: solver '") +
        solvers::algorithm_name(resolved) +
        "' does not support interior contact attachments; use rgf, "
        "block_lu, or kAuto");
  const double rgf = solvers::estimate_boundary_solve_seconds(
      solvers::SolverAlgorithm::kRgf, nb, s, nrhs, binding.partitions, 1);
  const double blu = solvers::estimate_boundary_solve_seconds(
      solvers::SolverAlgorithm::kBlockLU, nb, s, nrhs, binding.partitions, 1);
  return rgf <= blu ? solvers::SolverAlgorithm::kRgf
                    : solvers::SolverAlgorithm::kBlockLU;
}

// Two contacts at {0, last}: the 2-terminal solve with the left contact's
// (sigma_l, inj) and the right contact's (sigma_r, inj_r, mode basis) —
// every solver backend works.  A batch lane solves through the batch's
// shared `lane_solver`; a point resolves its own solver in ctx.
EnergyPointResult solve_pair(EnergyPointContext& ctx,
                             const dft::DeviceMatrices& dm,
                             const ContactSet& contacts, double energy,
                             const EnergyPointOptions& options,
                             parallel::DevicePool* pool,
                             const solvers::Solver* lane_solver,
                             detail::FetchTally* tally) {
  const numeric::WorkspaceScope scope(ctx.workspace);
  EnergyPointResult out;
  out.energy = energy;
  const cplx e{energy, 0.0};
  ctx.a.assign_es_minus_h(e, dm.s, dm.h);
  const BlockTridiag& a = ctx.a;
  const idx sf = a.block_size();

  // --- strategy lookups (registries + deterministic kAuto resolution) -----
  solvers::Solver* own = nullptr;
  if (lane_solver == nullptr) {
    solvers::SolverContext binding{pool, options.partitions};
    if (options.spatial != nullptr && options.spatial->size() > 1)
      binding.spatial = options.spatial;
    own = &ctx.solver(options.solver, binding, a.num_blocks(), sf);
  }
  obc::Strategy& obc_strategy = ctx.obc_strategy(options.obc);
  const bool have_injection =
      (obc_strategy.capabilities() & obc::kProvidesInjection) != 0;
  detail::require_injection_support(obc_strategy, have_injection, options);

  // kOverlapPrepare backends (SplitSolve Step 1) start work here — before
  // the boundary conditions exist.
  if (own != nullptr) own->prepare(a);

  // --- Open boundary conditions (CPU side, overlapping with Step 1) ---
  std::optional<parallel::TraceScope> fetch_trace;
  if (lane_solver != nullptr) fetch_trace.emplace("obc_prefetch", -1);
  const detail::ContactBoundaries bnd =
      detail::fetch_contact_boundaries(obc_strategy, contacts, e, options);
  fetch_trace.reset();
  if (tally != nullptr) tally->add(bnd);
  const obc::Boundary& left =
      *bnd.of[static_cast<std::size_t>(contacts.left(a.num_blocks()))];
  const obc::Boundary& right =
      *bnd.of[static_cast<std::size_t>(contacts.right(a.num_blocks()))];

  // --- Solve: Green's-function columns (for Caroli) + injected waves ---
  // RHS layout: [e_first I (s), e_last I (s), Inj (n_inc), Inj_r] so one
  // solve covers both formalisms.
  const detail::RhsShape shape = detail::task_rhs(
      out, left, right, have_injection, sf, options, ctx.b_top, ctx.b_bot);
  if (shape.m == 0) {
    // Nothing to solve at this energy — but cooperative/asynchronous
    // backends may have outstanding work (spatial members' partitions,
    // SplitSolve's Step 1) that must be settled before the next point.
    if (own != nullptr) own->discard();
    return out;
  }
  CMatrix x;  // not ctx.x: the last point's columns would double the peak
  if (own != nullptr) {
    x = own->solve_boundary(a, left.sigma_l, right.sigma_r, ctx.b_top,
                            ctx.b_bot);
  } else {
    const parallel::TraceScope trace("batch_device_phase", -1);
    x = lane_solver->solve_boundary_problem(
        {&a, &left.sigma_l, &right.sigma_r, &ctx.b_top, &ctx.b_bot});
  }
  detail::finalize_observables(out, a, left, right, have_injection, shape, x,
                               options);
  return out;
}

// >= 3 contacts or interior attachment blocks: one solve against
// nc identity column groups (pairwise Caroli T_pq) plus, when the density
// is requested, every contact's injected modes.  Interface bond currents
// are not defined per-pair here and stay empty — terminal currents come
// from buttiker_currents over the T_pq table.
EnergyPointResult solve_multi_terminal(EnergyPointContext& ctx,
                                       const dft::DeviceMatrices& dm,
                                       const ContactSet& contacts,
                                       double energy,
                                       const EnergyPointOptions& options,
                                       parallel::DevicePool* pool,
                                       detail::FetchTally* tally) {
  const numeric::WorkspaceScope scope(ctx.workspace);
  EnergyPointResult out;
  out.energy = energy;
  const cplx e{energy, 0.0};
  ctx.a.assign_es_minus_h(e, dm.s, dm.h);
  const BlockTridiag& a = ctx.a;
  const idx sf = a.block_size();
  const idx nb = a.num_blocks();
  const idx nc = contacts.size();

  const solvers::SolverContext binding{pool, options.partitions};
  const solvers::SolverAlgorithm algo =
      multi_terminal_algorithm(options.solver, nb, sf, nc * sf, binding);
  solvers::Solver& solver = ctx.solver(algo, binding, nb, sf);
  obc::Strategy& obc_strategy = ctx.obc_strategy(options.obc);
  const bool have_injection =
      (obc_strategy.capabilities() & obc::kProvidesInjection) != 0;
  detail::require_injection_support(obc_strategy, have_injection, options);

  solver.prepare(a);

  const detail::ContactBoundaries bnd =
      detail::fetch_contact_boundaries(obc_strategy, contacts, e, options);
  if (tally != nullptr) tally->add(bnd);

  // Probe self-energies are built locally — Sigma_p = -i*eta*I on the
  // attachment block, so Gamma_p = i(Sigma - Sigma^H) = 2*eta*I.  The
  // vector is reserved up front: views hold pointers into it.
  std::vector<CMatrix> probe_sigma;
  probe_sigma.reserve(static_cast<std::size_t>(nc));
  std::vector<ContactView> view(static_cast<std::size_t>(nc));
  for (idx p = 0; p < nc; ++p) {
    const Contact& c = contacts[p];
    if (c.is_probe()) {
      probe_sigma.emplace_back(sf, sf);
      CMatrix& s = probe_sigma.back();
      for (idx i = 0; i < sf; ++i) s(i, i) = cplx{0.0, -c.probe_eta};
      ContactView v;
      v.sigma = &s;
      v.block = contacts.resolve_block(p, nb);
      v.probe = true;
      v.eta = c.probe_eta;
      view[static_cast<std::size_t>(p)] = v;
    } else {
      view[static_cast<std::size_t>(p)] =
          contact_view(*bnd.of[static_cast<std::size_t>(p)],
                       contacts.resolve_block(p, nb), nb);
    }
  }

  // RHS layout: [I at b_0 (sf), ..., I at b_{nc-1} (sf), Inj_0, ...,
  // Inj_{nc-1}].  Identity group q yields the block column G_{:,b_q}, so
  // G_{b_p, b_q} sits at x.block(b_p*sf, q*sf) — the Caroli operand.
  const idx gcols = nc * sf;
  const bool want_inj = have_injection && options.want_density;
  std::vector<idx> inj_off(static_cast<std::size_t>(nc), 0);
  idx m = gcols;
  idx total_modes = 0;
  for (idx p = 0; p < nc; ++p) {
    const ContactView& v = view[static_cast<std::size_t>(p)];
    total_modes += v.n_modes;
    inj_off[static_cast<std::size_t>(p)] = m;
    if (want_inj) m += v.n_modes;
  }
  out.num_propagating = have_injection ? total_modes : 0;

  std::vector<CMatrix> rhs_blocks(static_cast<std::size_t>(nc));
  std::vector<solvers::Attachment> attachments;
  std::vector<solvers::RhsBlock> rhs;
  attachments.reserve(static_cast<std::size_t>(nc));
  rhs.reserve(static_cast<std::size_t>(nc));
  for (idx p = 0; p < nc; ++p) {
    const ContactView& v = view[static_cast<std::size_t>(p)];
    attachments.push_back({v.block, v.sigma});
    CMatrix& rb = rhs_blocks[static_cast<std::size_t>(p)];
    rb.resize(sf, m);
    for (idx i = 0; i < sf; ++i) rb(i, p * sf + i) = cplx{1.0};
    if (want_inj)
      for (idx j = 0; j < v.n_modes; ++j)
        for (idx i = 0; i < sf; ++i)
          rb(i, inj_off[static_cast<std::size_t>(p)] + j) = (*v.inj)(i, j);
    rhs.push_back({v.block, &rb});
  }

  const CMatrix x = solver.solve_attached(a, attachments, rhs);

  out.t_matrix = terminal_transmissions(x, view, sf);
  // Scalar fields stay meaningful for mixed consumers: T_01 is the
  // source->drain channel of the classic labeling.
  out.transmission_caroli = out.t_matrix[1];
  out.transmission = out.t_matrix[1];

  // --- Per-contact flux-normalized injected densities ---
  if (want_inj) {
    out.contact_density.assign(static_cast<std::size_t>(nc), {});
    for (idx p = 0; p < nc; ++p) {
      const ContactView& v = view[static_cast<std::size_t>(p)];
      // d_i = sum_j w_j |x(i, off + j)|^2 over the contact's columns.  A
      // probe reads its identity columns, already solved:
      // [G Gamma_p G^H]_ii = 2*eta * sum_j |G(i, b_p*sf + j)|^2 — the same
      // normalization the 1/flux mode weights of a lead contact's injected
      // columns satisfy, so probe and contact densities add coherently in
      // the charge assembly.  Row by row, each d_i sums in column order.
      std::vector<double> w;
      idx off = p * sf;
      if (v.probe) {
        w.assign(static_cast<std::size_t>(sf), 2.0 * v.eta);
      } else {
        off = inj_off[static_cast<std::size_t>(p)];
        w.resize(static_cast<std::size_t>(v.n_modes));
        for (std::size_t j = 0; j < w.size(); ++j)
          w[j] = 1.0 / std::max((*v.inj_flux)[j], 1e-12);
      }
      std::vector<double>& d = out.contact_density[static_cast<std::size_t>(p)];
      d.assign(static_cast<std::size_t>(a.dim()), 0.0);
      for (idx i = 0; i < a.dim(); ++i) {
        const cplx* xi = x.row_ptr(i) + off;
        for (std::size_t j = 0; j < w.size(); ++j)
          d[static_cast<std::size_t>(i)] += w[j] * std::norm(xi[j]);
      }
    }
  }
  return out;
}

}  // namespace

bool pair_route(const ContactSet& contacts, idx nb,
                const scattering::Spec& scattering) {
  ContactSet assembled;
  return contacts.classic_pair(nb) && !contacts.has_probes() &&
         &assemble_providers(contacts, nb, scattering, assembled) == &contacts;
}

detail::ContactBoundaries detail::fetch_contact_boundaries(
    obc::Strategy& strategy, const ContactSet& contacts, cplx energy,
    const EnergyPointOptions& options) {
  const auto nc = static_cast<std::size_t>(contacts.size());
  ContactBoundaries out;
  out.fetched.reserve(nc);  // `of` points into it: no reallocation
  out.of.assign(nc, nullptr);
  for (idx i = 0; i < contacts.size(); ++i) {
    if (contacts[i].is_probe()) continue;
    const idx rep = contacts.representative(i);
    if (rep == i) {
      out.fetched.push_back(fetch_boundary(
          strategy, contacts[i], static_cast<int>(i), energy, options));
      out.of[static_cast<std::size_t>(i)] = &out.fetched.back().get();
    } else {
      out.of[static_cast<std::size_t>(i)] =
          out.of[static_cast<std::size_t>(rep)];
    }
  }
  return out;
}

EnergyPointResult detail::solve_point(EnergyPointContext& ctx,
                                      const dft::DeviceMatrices& dm,
                                      const ContactSet& contacts,
                                      double energy,
                                      const EnergyPointOptions& options,
                                      parallel::DevicePool* pool,
                                      const solvers::Solver* lane_solver,
                                      FetchTally* tally) {
  const idx nb = dm.h.num_blocks();
  // Provider assembly: when the scattering model attaches probes, the
  // point becomes a multi-terminal solve over the contacts plus the probe
  // pseudo-terminals.  When it attaches nothing the set runs unchanged.
  ContactSet assembled;
  const ContactSet& terminals =
      assemble_providers(contacts, nb, options.scattering, assembled);
  terminals.validate(nb);
  if (pair_route(terminals, nb, options.scattering))
    return solve_pair(ctx, dm, terminals, energy, options, pool, lane_solver,
                      tally);
  EnergyPointResult r =
      solve_multi_terminal(ctx, dm, terminals, energy, options, pool, tally);
  // An end pair with attached probes maps its per-contact densities back
  // onto the source/drain slots as well.  Probe-injected charge has no slot
  // there — charge consumers weighting every terminal read contact_density.
  if (&terminals != &contacts && contacts.classic_pair(nb) &&
      !r.contact_density.empty()) {
    const auto src = static_cast<std::size_t>(contacts.left(nb));
    const auto drn = static_cast<std::size_t>(contacts.right(nb));
    r.orbital_density = r.contact_density[src];
    if (options.want_density_r && r.contact_density.size() > drn)
      r.orbital_density_r = r.contact_density[drn];
  }
  return r;
}

EnergyPointResult solve_energy_point(EnergyPointContext& ctx,
                                     const dft::DeviceMatrices& dm,
                                     const ContactSet& contacts, double energy,
                                     const EnergyPointOptions& options,
                                     parallel::DevicePool* pool) {
  return detail::solve_point(ctx, dm, contacts, energy, options, pool,
                             nullptr, nullptr);
}

EnergyPointResult solve_energy_point(const dft::DeviceMatrices& dm,
                                     const ContactSet& contacts, double energy,
                                     const EnergyPointOptions& options,
                                     parallel::DevicePool* pool) {
  return solve_energy_point(detail::thread_context(), dm, contacts, energy,
                            options, pool);
}

std::vector<cplx> solve_greens_diagonal(EnergyPointContext& ctx,
                                        const dft::DeviceMatrices& dm,
                                        const dft::LeadBlocks& lead,
                                        const dft::FoldedLead& folded,
                                        cplx energy,
                                        const EnergyPointOptions& options) {
  return solve_greens_diagonal(
      ctx, dm,
      ContactSet::pair(lead, folded, 0.0, 0.0, options.obc_opts.contact_shift),
      energy, options);
}

std::vector<cplx> solve_greens_diagonal(const dft::DeviceMatrices& dm,
                                        const dft::LeadBlocks& lead,
                                        const dft::FoldedLead& folded,
                                        cplx energy,
                                        const EnergyPointOptions& options) {
  return solve_greens_diagonal(detail::thread_context(), dm, lead, folded,
                               energy, options);
}

std::vector<cplx> solve_greens_diagonal(EnergyPointContext& ctx,
                                        const dft::DeviceMatrices& dm,
                                        const ContactSet& contacts, cplx energy,
                                        const EnergyPointOptions& options) {
  const idx nb = dm.h.num_blocks();
  ContactSet assembled;
  const ContactSet& terminals =
      assemble_providers(contacts, nb, options.scattering, assembled);
  terminals.validate(nb);
  const numeric::WorkspaceScope scope(ctx.workspace);
  ctx.a.assign_es_minus_h(energy, dm.s, dm.h);
  BlockTridiag& a = ctx.a;
  const idx sf = a.block_size();

  obc::Strategy& strategy = ctx.obc_strategy(options.obc);
  const detail::ContactBoundaries bnd =
      detail::fetch_contact_boundaries(strategy, terminals, energy, options);

  // Fold every contact's self-energy into its attachment block (last block
  // uses the right-extending lead orientation, everything else the
  // left-facing probe convention — same as the wave-function path), then
  // read the diagonal of G = (z S - H - sum_p Sigma_p)^{-1} with RGF.  No
  // injection columns exist off the real axis (every lead mode decays), so
  // self-energy-only backends are as good as mode-based ones here.
  for (idx p = 0; p < terminals.size(); ++p) {
    const idx bp = terminals.resolve_block(p, nb);
    if (terminals[p].is_probe()) {
      // A - Sigma_p with Sigma_p = -i*eta*I: adds +i*eta to the diagonal.
      CMatrix& d = a.diag(bp);
      const double eta = terminals[p].probe_eta;
      for (idx i = 0; i < a.block_size(); ++i) d(i, i) += cplx{0.0, eta};
      continue;
    }
    const obc::Boundary& b = *bnd.of[static_cast<std::size_t>(p)];
    a.diag(bp) -= bp == nb - 1 ? b.sigma_r : b.sigma_l;
  }
  const auto blocks = ctx.greens_solver().diagonal_blocks(a);

  std::vector<cplx> out(static_cast<std::size_t>(a.dim()));
  for (idx b = 0; b < a.num_blocks(); ++b)
    for (idx i = 0; i < sf; ++i)
      out[static_cast<std::size_t>(b * sf + i)] =
          blocks[static_cast<std::size_t>(b)](i, i);
  return out;
}

std::vector<cplx> solve_greens_diagonal(const dft::DeviceMatrices& dm,
                                        const ContactSet& contacts, cplx energy,
                                        const EnergyPointOptions& options) {
  return solve_greens_diagonal(detail::thread_context(), dm, contacts, energy,
                               options);
}

std::vector<EnergyPointResult> sweep_energy_points(
    const dft::DeviceMatrices& dm, const dft::LeadBlocks& lead,
    const dft::FoldedLead& folded, const std::vector<double>& energies,
    const EnergyPointOptions& options, parallel::DevicePool* pool,
    parallel::ThreadPool* threads) {
  std::vector<EnergyPointResult> out(energies.size());
  if (threads != nullptr) {
    threads->parallel_for(energies.size(), [&](std::size_t i) {
      out[i] = solve_energy_point(dm, lead, folded, energies[i], options, pool);
    });
  } else {
    for (std::size_t i = 0; i < energies.size(); ++i)
      out[i] = solve_energy_point(dm, lead, folded, energies[i], options, pool);
  }
  return out;
}

void serve_spatial_point(EnergyPointContext& ctx,
                         const dft::DeviceMatrices& dm, double energy,
                         solvers::SolverAlgorithm algo, int partitions,
                         parallel::Comm& spatial) {
  if (!solvers::algorithm_is_cooperative(algo))
    throw std::invalid_argument(
        "serve_spatial_point: backend is not spatially cooperative");
  const numeric::WorkspaceScope scope(ctx.workspace);
  const bool ends_to_root = algo == solvers::SolverAlgorithm::kSpike;
  // Members never see the boundary self-energies: spike pins the end
  // partitions to the leader (the interior ones are identical in A and T),
  // and splitsolve's Step 1 runs on plain A by construction.  So the member
  // assembles A locally and computes immediately — overlapping with the
  // leader's OBC solve, the rank-level version of the paper's CPU/GPU
  // overlap.  A failure *before* any partition was sent must still emit
  // the placeholder messages: the leader counts on receiving them
  // (spike_spatial_member handles mid-stream failures itself).
  try {
    ctx.a.assign_es_minus_h(cplx{energy, 0.0}, dm.s, dm.h);
  } catch (...) {
    solvers::spike_spatial_member_poison(spatial, partitions, ends_to_root);
    throw;
  }
  solvers::spike_spatial_member(ctx.a, spatial, partitions, ends_to_root);
}

double fermi(double e, double mu, double kt) {
  if (kt <= 0.0) return e <= mu ? 1.0 : 0.0;
  const double arg = (e - mu) / kt;
  if (arg > 40.0) return 0.0;
  if (arg < -40.0) return 1.0;
  return 1.0 / (1.0 + std::exp(arg));
}

cplx fermi(cplx e, double mu, double kt) {
  if (kt <= 0.0) return e.real() <= mu ? cplx{1.0} : cplx{0.0};
  const cplx arg = (e - mu) / kt;
  if (arg.real() > 40.0) return cplx{0.0};
  if (arg.real() < -40.0) return cplx{1.0};
  return 1.0 / (1.0 + std::exp(arg));
}

std::vector<cplx> matsubara_poles(double mu, double kt, int n) {
  if (kt <= 0.0)
    throw std::invalid_argument("matsubara_poles: kt must be positive");
  if (n < 0) throw std::invalid_argument("matsubara_poles: n must be >= 0");
  std::vector<cplx> out;
  out.reserve(static_cast<std::size_t>(n));
  const double pi = 3.14159265358979323846;
  for (int p = 0; p < n; ++p)
    out.emplace_back(mu, pi * kt * (2.0 * p + 1.0));
  return out;
}

double landauer_current(const std::vector<double>& energies,
                        const std::vector<double>& transmission, double mu_l,
                        double mu_r, double kt) {
  if (energies.size() != transmission.size() || energies.size() < 2)
    throw std::invalid_argument("landauer_current: bad table");
  // The two-terminal case of buttiker_currents, evaluated by it, so the two
  // agree bit for bit whatever the compiler contracts into FMAs.
  std::vector<std::vector<double>> table;
  table.reserve(transmission.size());
  for (const double t : transmission) table.push_back({0.0, t, t, 0.0});
  return buttiker_currents(energies, table, {mu_l, mu_r}, kt)[0];
}

std::vector<double> buttiker_currents(
    const std::vector<double>& energies,
    const std::vector<std::vector<double>>& t_matrix,
    const std::vector<double>& mu, double kt) {
  const std::size_t nc = mu.size();
  if (nc < 2)
    throw std::invalid_argument("buttiker_currents: need >= 2 terminals");
  if (t_matrix.size() != energies.size() || energies.size() < 2)
    throw std::invalid_argument("buttiker_currents: bad table");
  for (const std::vector<double>& t : t_matrix)
    if (t.size() != nc * nc)
      throw std::invalid_argument("buttiker_currents: t_matrix row size");
  const std::vector<double> w = trapezoid_weights(energies);
  std::vector<double> out(nc, 0.0);
  // Antisymmetric pair accumulation: each pair's contribution
  //   c_pq = w [T_pq f_p - T_qp f_q]
  // enters I_p as +c_pq and I_q as -c_pq — the *same* double both times —
  // so sum_p I_p collapses to exact +-c cancellations (current
  // conservation to rounding of the final nc-term sum, which is what the
  // 3-terminal tests and BENCH_contact.json gate on).
  for (std::size_t i = 0; i < energies.size(); ++i) {
    const std::vector<double>& t = t_matrix[i];
    for (std::size_t p = 0; p < nc; ++p) {
      const double fp = fermi(energies[i], mu[p], kt);
      for (std::size_t q = p + 1; q < nc; ++q) {
        const double fq = fermi(energies[i], mu[q], kt);
        const double c = w[i] * (t[p * nc + q] * fp - t[q * nc + p] * fq);
        out[p] += c;
        out[q] -= c;
      }
    }
  }
  return out;
}

std::vector<double> density_per_cell(const std::vector<double>& orbital_density,
                                     idx orbitals_per_cell, idx cells) {
  if (static_cast<idx>(orbital_density.size()) != orbitals_per_cell * cells)
    throw std::invalid_argument("density_per_cell: size mismatch");
  std::vector<double> out(static_cast<std::size_t>(cells), 0.0);
  for (idx c = 0; c < cells; ++c)
    for (idx o = 0; o < orbitals_per_cell; ++o)
      out[static_cast<std::size_t>(c)] +=
          orbital_density[static_cast<std::size_t>(c * orbitals_per_cell + o)];
  return out;
}

std::vector<double> density_per_atom(const std::vector<double>& orbital_density,
                                     const std::vector<idx>& orbital_atom,
                                     idx atoms_per_cell, idx cells, idx fold) {
  const idx orb_cell = static_cast<idx>(orbital_atom.size());
  if (static_cast<idx>(orbital_density.size()) != orb_cell * cells * fold)
    throw std::invalid_argument("density_per_atom: size mismatch");
  std::vector<double> out(
      static_cast<std::size_t>(atoms_per_cell * cells * fold), 0.0);
  for (idx g = 0; g < cells * fold; ++g) {
    for (idx o = 0; o < orb_cell; ++o) {
      const idx atom = g * atoms_per_cell + orbital_atom[static_cast<std::size_t>(o)];
      out[static_cast<std::size_t>(atom)] +=
          orbital_density[static_cast<std::size_t>(g * orb_cell + o)];
    }
  }
  return out;
}

}  // namespace omenx::transport
