// Per-energy-point quantum transport solution (the work unit of Fig. 9's
// two outer parallel levels).
//
// For one (E, k) the pipeline is:
//   1. assemble A = E*S - H (block tridiagonal, folded supercells),
//   2. lead modes -> Sigma^RB and Inj through the OBC strategy registry
//      (shift_invert / feast / beyn / decimation), served from the
//      cross-sweep BoundaryCache when one is bound, overlapped with
//   3. Step 1 of SplitSolve on the accelerators (or a direct baseline),
//   4. wave-function observables: transmission (flux-normalized amplitudes
//      in the right lead), orbital-resolved density, interface currents —
//      cross-checked against the Green's-function (Caroli) transmission.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "obc/boundary_cache.hpp"
#include "obc/strategy.hpp"
#include "parallel/device.hpp"
#include "scattering/self_energy.hpp"
#include "solvers/solver.hpp"
#include "transport/contacts.hpp"

namespace omenx::parallel {
class Comm;
class ThreadPool;
}  // namespace omenx::parallel

namespace omenx::transport {

using blockmat::BlockTridiag;
using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

/// OBC backends come from the OBC strategy layer (obc/strategy.hpp):
/// shift_invert, feast, decimation, beyn — every registered backend is
/// selectable here.
using ObcAlgorithm = obc::ObcAlgorithm;

/// Linear-solver backends come from the unified strategy layer
/// (solvers/solver.hpp): rgf, block_lu, bcr, spike, splitsolve, or kAuto
/// for the deterministic cost-model choice.
using SolverAlgorithm = solvers::SolverAlgorithm;

struct EnergyPointOptions {
  ObcAlgorithm obc = ObcAlgorithm::kFeast;
  /// Per-backend OBC options plus the shared BoundaryOptions ridge (one
  /// ridge governs both the self-energy construction and the transmission
  /// projection) and the uniform lead contact shift.
  obc::ObcOptions obc_opts;
  /// Cross-sweep boundary cache (content-keyed: obc::BoundaryKey).  Null =
  /// always recompute.  The distribution engine owns this field
  /// during engine runs (it installs its per-rank persistent cache); set it
  /// only for direct solve_energy_point calls.
  obc::BoundaryCache* boundary_cache = nullptr;
  /// Global momentum index of this point's sweep — the k component of the
  /// boundary-cache key.  Must identify the *lead*, not the rank solving it
  /// (work stealing moves tasks between ranks).
  idx k_index = 0;
  SolverAlgorithm solver = SolverAlgorithm::kSplitSolve;
  int partitions = 1;              ///< SplitSolve/SPIKE partitions
  /// Spatial sub-communicator (Fig. 9 level 3).  Non-null with size > 1:
  /// cooperative backends (spike, splitsolve) split each solve's partitions
  /// across the communicator's ranks.  The caller must be rank 0; every
  /// other rank serves the same point through serve_spatial_point.
  parallel::Comm* spatial = nullptr;
  bool want_density = true;
  /// Also solve the drain-injected states (orbital_density_r) when the
  /// density is requested.  The two-contact charge path needs them; a
  /// caller integrating only source-injected density can drop the extra
  /// RHS columns.
  bool want_density_r = true;
  bool want_current = true;
  bool want_caroli = true;         ///< also compute Tr[GL G GR G^H]
  /// Scattering model (scattering/self_energy.hpp registry).  The point's
  /// self-energy providers are assembled in order: the contacts are always
  /// provider #0, then the model's probe terminals.  The default (kNone) —
  /// and any model whose options disable it, e.g. buttiker_probe at
  /// eta <= 0 — contributes nothing and leaves the ballistic pipeline
  /// bit-identical, cache keys included.
  scattering::Spec scattering;
};

struct EnergyPointResult {
  double energy = 0.0;
  double transmission = 0.0;         ///< wave-function formalism (0 if no inj)
  double transmission_caroli = 0.0;  ///< Green's-function cross-check
  idx num_propagating = 0;           ///< incident channels at this energy
  /// |psi|^2 / v summed over *source-injected* modes (incident from the
  /// left contact).  States here are occupied at mu_L in the ballistic
  /// two-contact model.
  std::vector<double> orbital_density;
  /// Same for *drain-injected* modes (incident from the right contact,
  /// occupied at mu_R).  Filled with orbital_density when want_density is
  /// set; empty when the OBC provides no injection data (decimation).
  std::vector<double> orbital_density_r;
  std::vector<double> interface_current;  ///< bond current per interface
  /// Pairwise Caroli transmission T_pq = Tr[Gamma_p G_pq Gamma_q G_pq^H]
  /// (row-major nc x nc, diagonal 0) — filled only by the >= 3-terminal
  /// ContactSet path.  The 2-terminal paths keep T in `transmission` /
  /// `transmission_caroli` exactly as before.
  std::vector<double> t_matrix;
  /// Per-contact flux-normalized injected density (nc vectors of dim()
  /// entries) — filled only by the >= 3-terminal path when want_density.
  /// The 2-terminal paths keep orbital_density / orbital_density_r.
  std::vector<std::vector<double>> contact_density;
};

/// Reusable per-thread state for repeated energy-point solves.  The
/// workspace pools every matrix buffer allocated while a point is being
/// solved, and the members cache the large recurring operands (T = E*S - H,
/// the stacked RHS, the strategy instance with its internal factors), so
/// after the first point at a given device shape a solve performs no heap
/// allocations of numeric buffers (see numeric::matrix_heap_allocations).
/// The pool keys buffers by exact size and keeps the high-water population
/// of every size it has seen; call workspace.clear() between devices of
/// very different shapes to bound the footprint.
struct EnergyPointContext {
  numeric::Workspace workspace;  ///< declared first: outlives the solver
  blockmat::BlockTridiag a;      ///< E*S - H, rebuilt in place per point
  CMatrix b_top, b_bot, x;

  /// Cached strategy instance for `requested` under `binding`, resolving
  /// kAuto deterministically from the system shape.  The instance (and its
  /// warm factorization buffers) is reused while the resolved algorithm and
  /// the binding stay the same.
  solvers::Solver& solver(solvers::SolverAlgorithm requested,
                          const solvers::SolverContext& binding, idx nb,
                          idx s);

  /// Cached OBC strategy instance (obc/strategy.hpp registry); recreated
  /// when the requested algorithm changes.  Strategies are stateless beyond
  /// the options passed per evaluation, so reuse is always safe.
  obc::Strategy& obc_strategy(ObcAlgorithm algo);

  /// Cached RGF instance for Green's-function diagonal solves
  /// (solve_greens_diagonal).  A separate slot from the wave-function
  /// solver, so a sweep interleaving contour (GF) and real-axis (WF) tasks
  /// does not recreate either backend on every switch.
  solvers::Solver& greens_solver();

 private:
  std::unique_ptr<solvers::Solver> solver_;
  solvers::SolverAlgorithm solver_algo_ = solvers::SolverAlgorithm::kAuto;
  solvers::SolverContext solver_binding_;
  std::unique_ptr<solvers::Solver> greens_solver_;
  std::unique_ptr<obc::Strategy> obc_;
  ObcAlgorithm obc_algo_ = ObcAlgorithm::kFeast;
};

/// Solve one energy point for the device `dm` with leads `lead`/`folded`
/// at both ends — a thin wrapper over the ContactSet entry with
/// ContactSet::pair (shift options.obc_opts.contact_shift).  `pool` is
/// required for the SplitSolve backend (ignored otherwise).
/// Uses a thread-local EnergyPointContext, so sweeping many energies on a
/// thread pool automatically gives every worker its own warm workspace.
EnergyPointResult solve_energy_point(const dft::DeviceMatrices& dm,
                                     const dft::LeadBlocks& lead,
                                     const dft::FoldedLead& folded,
                                     double energy,
                                     const EnergyPointOptions& options = {},
                                     parallel::DevicePool* pool = nullptr);

/// Same, with an explicit context (testing and custom schedulers).
EnergyPointResult solve_energy_point(EnergyPointContext& ctx,
                                     const dft::DeviceMatrices& dm,
                                     const dft::LeadBlocks& lead,
                                     const dft::FoldedLead& folded,
                                     double energy,
                                     const EnergyPointOptions& options = {},
                                     parallel::DevicePool* pool = nullptr);

/// N-terminal entry point.  Routing:
///   * two contacts at {0, last} -> the 2-terminal solve with the left
///     contact's (sigma_l, inj) and the right contact's (sigma_r, inj_r,
///     mode basis) — every solver backend works.  Contacts sharing a
///     representative (two identical contacts) fetch one Boundary for both
///     sides; dissimilar ones fetch under their own per-contact keys;
///   * anything else (>= 3 contacts or interior attachment blocks) -> the
///     multi-terminal path: per-contact boundary fetches (deduplicated for
///     contacts sharing lead content + shift), solvers::Attachment solve
///     (kMultiTerminal backends: rgf, block_lu), pairwise Caroli T_pq and
///     per-contact injected densities.  Interior contacts use the lead's
///     left-facing self-energy and injection set (probe convention).
/// Contact shifts override options.obc_opts.contact_shift per contact.
/// When options.scattering attaches probes to a classic pair, the probe-
/// free source/drain densities are mapped back onto orbital_density /
/// orbital_density_r.
EnergyPointResult solve_energy_point(EnergyPointContext& ctx,
                                     const dft::DeviceMatrices& dm,
                                     const ContactSet& contacts, double energy,
                                     const EnergyPointOptions& options = {},
                                     parallel::DevicePool* pool = nullptr);

/// Same, on the thread-local context.
EnergyPointResult solve_energy_point(const dft::DeviceMatrices& dm,
                                     const ContactSet& contacts, double energy,
                                     const EnergyPointOptions& options = {},
                                     parallel::DevicePool* pool = nullptr);

/// Diagonal of the retarded Green's function G = (z S - H - Sigma)^{-1} at a
/// complex energy node z, ordered orbital-by-orbital like orbital_density —
/// a thin wrapper over the ContactSet overload with ContactSet::pair.
/// The OBC strategy is evaluated at z itself: with Im z > 0 every lead mode
/// is strictly decaying, so the Boundary carries self-energies only (no
/// injection states exist or are needed) and any registered backend works.
/// This is the work unit of the contour charge quadrature
/// (charge::Quadrature): a node with complex weight w contributes
/// Im(w * G_ii) to the orbital density, and the node is served from
/// options.boundary_cache under the complex-energy key, so a fixed contour
/// hits the cache on every SCF iteration after the first.
std::vector<cplx> solve_greens_diagonal(EnergyPointContext& ctx,
                                        const dft::DeviceMatrices& dm,
                                        const dft::LeadBlocks& lead,
                                        const dft::FoldedLead& folded,
                                        cplx energy,
                                        const EnergyPointOptions& options = {});

/// Same, on a thread-local context (shared with solve_energy_point's).
std::vector<cplx> solve_greens_diagonal(const dft::DeviceMatrices& dm,
                                        const dft::LeadBlocks& lead,
                                        const dft::FoldedLead& folded,
                                        cplx energy,
                                        const EnergyPointOptions& options = {});

/// N-terminal Green's-function diagonal: every contact's self-energy is
/// folded into its attachment block (contacts sharing a representative
/// fetch one Boundary).
std::vector<cplx> solve_greens_diagonal(EnergyPointContext& ctx,
                                        const dft::DeviceMatrices& dm,
                                        const ContactSet& contacts, cplx energy,
                                        const EnergyPointOptions& options = {});

/// Same, on the thread-local context.
std::vector<cplx> solve_greens_diagonal(const dft::DeviceMatrices& dm,
                                        const ContactSet& contacts, cplx energy,
                                        const EnergyPointOptions& options = {});

/// Sweep many energies.  With `threads`, the sweep is parallelized over the
/// pool's workers, each reusing its own thread-local context; serial
/// otherwise.  Results are returned in energy order.
std::vector<EnergyPointResult> sweep_energy_points(
    const dft::DeviceMatrices& dm, const dft::LeadBlocks& lead,
    const dft::FoldedLead& folded, const std::vector<double>& energies,
    const EnergyPointOptions& options = {},
    parallel::DevicePool* pool = nullptr,
    parallel::ThreadPool* threads = nullptr);

/// Member-side counterpart of a cooperative spatial solve: assemble this
/// rank's copy of A = E*S - H for the point, compute the SPIKE partitions
/// spike_partition_owner assigns to this rank, and send them to spatial
/// rank 0 (the group leader running solve_energy_point with
/// options.spatial).  `algo` must be the leader's *resolved* algorithm
/// (kSpike or kSplitSolve).  Never blocks on the leader: the partitions a
/// member owns are computable from A alone, so a failed leader cannot
/// strand a member (and vice versa — a failed member sends placeholder
/// partitions that surface as an error on the leader, never a hang).
void serve_spatial_point(EnergyPointContext& ctx,
                         const dft::DeviceMatrices& dm, double energy,
                         solvers::SolverAlgorithm algo, int partitions,
                         parallel::Comm& spatial);

namespace detail {

/// Stage helpers shared verbatim between the scalar solve_energy_point and
/// the batched pipeline (transport/batch.cpp): both paths run exactly this
/// arithmetic, which is what makes the batched results bit-identical.

/// Outcome of the cache-disciplined OBC stage.  Holds either a cache
/// handout (shared_ptr keeps it alive past invalidation) or a locally
/// computed Boundary.
struct FetchedBoundary {
  std::shared_ptr<const obc::Boundary> cached;
  obc::Boundary computed;
  bool hit = false;  ///< true when the bound cache already had the key
  const obc::Boundary& get() const {
    return cached != nullptr ? *cached : computed;
  }
};

/// Cache key of contact `contact` fetched under canonical id `contact_id`
/// at `energy`: everything the Boundary depends on (obc::BoundaryKey).
/// Hashes the lead when contact.lead_hash is 0 (not precomputed).
obc::BoundaryKey boundary_key(const Contact& contact, int contact_id,
                              cplx energy, const EnergyPointOptions& options);

/// Stage 2: compute (or fetch) the boundary of one contact under the
/// options' cache discipline — find first, insert on miss (first insert is
/// canonical), compute without storing when no cache is bound.  The key is
/// boundary_key(contact, contact_id, energy, options); the boundary is
/// evaluated at E - contact.shift regardless of the global
/// options.obc_opts.contact_shift.  `energy` may sit off the real axis
/// (contour charge quadrature): the key carries Im(E), so contour nodes
/// cache across SCF iterations like real points do.
FetchedBoundary fetch_boundary(obc::Strategy& strategy, const Contact& contact,
                               int contact_id, cplx energy,
                               const EnergyPointOptions& options);

/// Classic variant: `lead` at shift options.obc_opts.contact_shift under
/// contact id 0 (the lead is hashed per call when a cache is bound).
FetchedBoundary fetch_boundary(obc::Strategy& strategy,
                               const dft::LeadBlocks& lead,
                               const dft::FoldedLead& folded, cplx energy,
                               const EnergyPointOptions& options);

/// The RHS column layout of one point:
/// [e_first I, e_last I (gcols), Inj (n_inc), Inj_r (n_inc_r)].
struct RhsShape {
  idx n_inc = 0;
  idx n_inc_r = 0;
  idx gcols = 0;
  idx m = 0;  ///< total columns; 0 = nothing propagates, skip the solve
  bool want_caroli = false;
};

/// `left` supplies the source-side data (sigma_l, inj), `right` the
/// drain-side data (sigma_r, inj_r, mode basis).  The symmetric pipeline
/// passes the same Boundary for both — every read then aliases the
/// pre-refactor single-boundary arithmetic exactly.
RhsShape rhs_shape(const obc::Boundary& left, const obc::Boundary& right,
                   bool have_injection, idx sf,
                   const EnergyPointOptions& options);

/// Stage 3a: assemble the sparse boundary RHS blocks for `shape`.
void build_rhs(CMatrix& b_top, CMatrix& b_bot, const obc::Boundary& left,
               const obc::Boundary& right, const RhsShape& shape, idx sf);

/// Stage 4: all observables (Caroli + wave-function transmission, density,
/// currents) from the solved block columns `x`.
void finalize_observables(EnergyPointResult& out, const BlockTridiag& a,
                          const obc::Boundary& left, const obc::Boundary& right,
                          bool have_injection, const RhsShape& shape,
                          const CMatrix& x, const EnergyPointOptions& options);

/// Stage 3a of one two-contact task: records out.num_propagating, returns
/// the RHS shape and, when it has columns, assembles the RHS blocks.
RhsShape task_rhs(EnergyPointResult& out, const obc::Boundary& left,
                  const obc::Boundary& right, bool have_injection, idx sf,
                  const EnergyPointOptions& options, CMatrix& b_top,
                  CMatrix& b_bot);

/// Stages 3-4 of one two-contact task whose A and boundaries are in hand:
/// task_rhs, x = solve(b_top, b_bot), finalize_observables.  Returns false
/// without calling `solve` when nothing propagates.  The scalar point and
/// the host batch lanes both run this; only their `solve` differs.
template <class Solve>
bool solve_task(EnergyPointResult& out, const BlockTridiag& a,
                const obc::Boundary& left, const obc::Boundary& right,
                bool have_injection, const EnergyPointOptions& options,
                CMatrix& b_top, CMatrix& b_bot, CMatrix& x, Solve&& solve) {
  const RhsShape shape = task_rhs(out, left, right, have_injection,
                                  a.block_size(), options, b_top, b_bot);
  if (shape.m == 0) return false;  // nothing propagates at this energy
  x = solve(std::as_const(b_top), std::as_const(b_bot));
  finalize_observables(out, a, left, right, have_injection, shape, x, options);
  return true;
}

/// Shared guard: density/current requests need a mode-based OBC.
void require_injection_support(const obc::Strategy& strategy,
                               bool have_injection,
                               const EnergyPointOptions& options);

}  // namespace detail

/// Fermi-Dirac occupation.
double fermi(double e, double mu, double kt);

/// Fermi-Dirac occupation at a complex energy (contour quadrature), with
/// the same +-40 kT overflow guards applied to Re((e - mu)/kt).  At
/// Im e = 2 n pi kt (the contour's horizontal segment) exp((e - mu)/kt) is
/// real and positive, so f there equals the real-axis Fermi function — the
/// property the L-shaped contour is built on.  kt <= 0 degenerates to a
/// step in Re(e), matching the real overload.
cplx fermi(cplx e, double mu, double kt);

/// First `n` fermionic Matsubara poles of f(z) = 1/(1 + exp((z - mu)/kt))
/// above the real axis: z_p = mu + i pi kt (2p + 1), p = 0..n-1.  Each pole
/// has residue -kt.  Throws std::invalid_argument for kt <= 0 or n < 0.
std::vector<cplx> matsubara_poles(double mu, double kt, int n);

/// Landauer ballistic current (in units of 2e/h * eV) from a transmission
/// table: I = integral T(E) [f(E, mu_l) - f(E, mu_r)] dE (trapezoid).
double landauer_current(const std::vector<double>& energies,
                        const std::vector<double>& transmission, double mu_l,
                        double mu_r, double kt);

/// Multi-terminal Buettiker currents (same units as landauer_current):
///   I_p = integral sum_{q != p} [T_pq(E) f(E, mu_p) - T_qp(E) f(E, mu_q)] dE.
/// `t_matrix[i]` is the row-major nc x nc pairwise matrix at energies[i]
/// and `mu` has nc entries.  Every product T_pq f_p enters the sum twice
/// with opposite signs, so sum_p I_p vanishes to rounding — the
/// current-conservation identity the 3-terminal tests gate on.  For nc = 2
/// with T_01 == T_10 this reduces to landauer_current term by term.
std::vector<double> buttiker_currents(
    const std::vector<double>& energies,
    const std::vector<std::vector<double>>& t_matrix,
    const std::vector<double>& mu, double kt);

/// Sum orbital density onto physical cells (fold * cells entries).
std::vector<double> density_per_cell(const std::vector<double>& orbital_density,
                                     idx orbitals_per_cell, idx cells);

/// Sum orbital density onto atoms of each cell using the orbital->atom map
/// (Fig. 10(a)-style atom-resolved charge).
std::vector<double> density_per_atom(const std::vector<double>& orbital_density,
                                     const std::vector<idx>& orbital_atom,
                                     idx atoms_per_cell, idx cells, idx fold);

}  // namespace omenx::transport
