// Composable scattering self-energy models — the layer that removes the
// pipeline's deepest remaining assumption: that every self-energy comes
// from a contact.
//
// transport::solve_energy_point assembles its per-block self-energy
// contributions from an ordered provider list.  Provider #0 is always the
// ContactSet (routed through literally the pre-refactor arithmetic, so the
// ballistic limit stays bit-identical); a scattering model appends further
// providers.  The first model, `buttiker_probe`, attaches phenomenological
// probe terminals Sigma_p = -i eta_p I to interior device blocks via the
// PR-9 kMultiTerminal interior-attachment machinery: each probe absorbs
// carriers and re-injects them at its own chemical potential mu_p, which an
// inner Newton/secant loop (tune_probe_potentials) drives to zero net probe
// current — current conservation restored, phase coherence broken with
// strength eta_p.
//
// Same registry/capability idiom as the PR-3 solver, PR-5 OBC, and PR-7
// quadrature registries: enum + name -> factory + capability bits.  This
// header is a leaf — it must not include transport headers (transmission.hpp
// includes it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "numeric/types.hpp"

namespace omenx::scattering {

using numeric::idx;

/// Selectable scattering models (registry names are the snake_case forms).
enum class ScatteringAlgorithm { kNone, kButtikerProbe };

/// Capability bits advertised by a scattering model.
enum ScatteringCapability : unsigned {
  /// The model contributes probe pseudo-terminals: the effective terminal
  /// set of a point grows beyond the physical contacts, and observables
  /// (T_pq, densities) gain probe rows.
  kAddsTerminals = 1u << 0,
  /// Energy-conserving (elastic) scattering: every energy point remains an
  /// independent solve, so the (k, E) task decomposition is unchanged.
  kElastic = 1u << 1,
  /// Probe chemical potentials are free parameters that must be tuned to
  /// the zero-net-current condition (tune_probe_potentials) before terminal
  /// currents or occupation-weighted charge are meaningful.
  kNeedsProbeTuning = 1u << 2,
  /// The model modifies the *contact* boundary self-energies themselves
  /// (none of the built-ins do).  Models advertising this must return a
  /// nonzero boundary_key_component so cached Boundaries computed under a
  /// different scattering configuration never alias.
  kModifiesBoundaries = 1u << 3,
};

/// Büttiker-probe model options.  eta <= 0 disables the model exactly: no
/// probe attaches, and the pipeline routes through the ballistic paths
/// bit-identically (the parity gate of BENCH_scattering.json).
struct ButtikerOptions {
  /// Dephasing strength (eV): every probe's self-energy is -i*eta*I.
  double eta = 0.0;
  /// Explicit attachment blocks.  Empty = attach to every device block not
  /// already carrying a contact, stepping by `stride` (the dephasing-ladder
  /// convention).  Blocks listed here that collide with a contact block are
  /// rejected by ContactSet::validate.
  std::vector<idx> blocks;
  /// With empty `blocks`: attach to every stride-th free block (>= 1).
  idx stride = 1;

  // Memberwise — part of Spec's operator==, so a new field MUST be added
  // here too.
  friend bool operator==(const ButtikerOptions& a,
                         const ButtikerOptions& b) noexcept {
    return a.eta == b.eta && a.blocks == b.blocks && a.stride == b.stride;
  }
};

/// Options of every registered model (one struct travels through
/// transport::EnergyPointOptions, like obc::ObcOptions does for the OBC
/// backends).
struct ScatteringOptions {
  ButtikerOptions buttiker;

  friend bool operator==(const ScatteringOptions& a,
                         const ScatteringOptions& b) noexcept {
    return a.buttiker == b.buttiker;
  }
};

/// A model selection: which algorithm, with which options.  The default
/// (kNone) is the exact ballistic pipeline.
struct Spec {
  ScatteringAlgorithm algorithm = ScatteringAlgorithm::kNone;
  ScatteringOptions options;

  friend bool operator==(const Spec& a, const Spec& b) noexcept {
    return a.algorithm == b.algorithm && a.options == b.options;
  }
  friend bool operator!=(const Spec& a, const Spec& b) noexcept {
    return !(a == b);
  }
};

/// One probe terminal a model attaches: device block + dephasing strength.
struct ProbeSite {
  idx block = 0;
  double eta = 0.0;
};

/// Scattering model interface.  Implementations are stateless beyond the
/// options they are handed per call.
class SelfEnergy {
 public:
  virtual ~SelfEnergy() = default;

  virtual const char* name() const noexcept = 0;
  virtual unsigned capabilities() const noexcept = 0;

  /// Probe sites this model attaches to an nb-block device whose blocks in
  /// `occupied` already carry contacts.  An empty list means the model
  /// contributes nothing at these options — the caller then runs the
  /// unmodified ballistic pipeline (exact parity by construction).
  virtual std::vector<ProbeSite> probes(
      idx nb, const std::vector<idx>& occupied,
      const ScatteringOptions& options) const = 0;

  /// Component mixed into obc::BoundaryKey::scattering for models that
  /// modify the contact boundaries themselves (kModifiesBoundaries).  The
  /// built-ins return 0: probe self-energies live on interior blocks and
  /// never change a cached lead Boundary — which is what keeps the
  /// ballistic cache keys (and hit rates) bit-identical.
  virtual std::uint64_t boundary_key_component(
      const ScatteringOptions& options) const;
};

using SelfEnergyFactory = std::function<std::unique_ptr<SelfEnergy>()>;

/// Register a model under `name` (replaces an existing registration).  The
/// built-ins ("none", "buttiker_probe") self-register on first registry use.
void register_scattering_model(const std::string& name,
                               SelfEnergyFactory factory);

/// Names of all registered scattering models, sorted.
std::vector<std::string> registered_scattering_models();

/// Instantiate a model by name; throws std::invalid_argument for unknown
/// names.
std::unique_ptr<SelfEnergy> make_scattering_model(const std::string& name);

/// Instantiate a model by algorithm enum.
std::unique_ptr<SelfEnergy> make_scattering_model(ScatteringAlgorithm algo);

/// Registry name of an algorithm.
const char* scattering_algorithm_name(ScatteringAlgorithm algo) noexcept;

/// Capability bits of an algorithm (without instantiating it by hand).
unsigned scattering_algorithm_capabilities(ScatteringAlgorithm algo);

/// Probe sites of a Spec against an nb-block device (empty for kNone, and
/// for any model whose options disable it — e.g. buttiker_probe at
/// eta <= 0).  This is the provider-assembly hook solve_energy_point calls.
std::vector<ProbeSite> assemble_probes(const Spec& spec, idx nb,
                                       const std::vector<idx>& occupied);

/// The Spec's obc::BoundaryKey::scattering component (0 unless the model
/// advertises kModifiesBoundaries).
std::uint64_t boundary_key_component(const Spec& spec);

/// Options of the inner probe-tuning loop.
struct ProbeTuneOptions {
  int max_iter = 60;
  /// Convergence on max_p |I_p| / max(1, max_q |I_q|) — the same relative
  /// leak the BENCH_scattering.json gate measures (<= 1e-10 required).
  double tol = 1e-13;
};

struct ProbeTuneResult {
  /// Chemical potentials of *all* terminals: real-terminal entries returned
  /// unchanged, probe entries tuned to zero net probe current.
  std::vector<double> mu;
  int iterations = 0;        ///< Newton iterations performed
  double max_residual = 0.0; ///< final relative probe-current leak
  bool converged = false;
};

/// Tune the probe chemical potentials to zero net probe current:
///   I_p(mu) = integral sum_q [T_pq(E) f(E, mu_p) - T_qp(E) f(E, mu_q)] dE = 0
/// for every p with is_probe[p], holding the real terminals' mu fixed.
/// Damped Newton on the probe subsystem with the analytic Jacobian
///   dI_p/dmu_p = integral (sum_q T_pq) f_p(1 - f_p)/kT,
///   dI_p/dmu_q = -integral T_qp f_q(1 - f_q)/kT   (q a probe),
/// falling back to secant-style step halving when a full step does not
/// reduce the residual.  The Jacobian is strictly diagonally dominant for
/// any connected T, so convergence is quadratic near the root.
/// `t_matrix[i]` is the row-major nc x nc pairwise transmission at
/// energies[i] (transport::EnergyPointResult::t_matrix layout); `mu` holds
/// the initial guess (probe entries included).  Throws std::invalid_argument
/// for kt <= 0 (the Fermi step has no usable derivative) and for shape
/// mismatches.  With no probe flagged, returns `mu` unchanged, converged.
ProbeTuneResult tune_probe_potentials(const std::vector<double>& energies,
                                      const std::vector<std::vector<double>>& t_matrix,
                                      std::vector<double> mu,
                                      const std::vector<bool>& is_probe,
                                      double kt,
                                      const ProbeTuneOptions& options = {});

/// Linear-response probe elimination: the effective transmission between
/// the kept (non-probe) terminals after integrating out the probes at their
/// zero-current condition,
///   T_eff_ab = T_ab + T_aP (W_PP)^{-1} T_Pb,
/// where W_PP = diag(sum_r T_pr) - T_pq over the probe subset.  Probes only
/// ever *redistribute* current, so T_eff_ab >= T_ab pairwise coherent part —
/// and the two-terminal conductance sum_b T_eff_ab degrades monotonically
/// with eta (the BENCH_scattering.json monotonicity gate).  One nc x nc
/// row-major matrix in, one nk x nk (nk = kept count) out, per energy.
std::vector<double> eliminate_probes(const std::vector<double>& t_matrix,
                                     const std::vector<bool>& is_probe);

}  // namespace omenx::scattering
