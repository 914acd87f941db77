// Unified OBC strategy layer — the boundary-condition twin of the solver
// registry (solvers/solver.hpp).
//
// The paper treats "computation of the boundary conditions" as a first-class
// pipeline stage (Fig. 4 / Fig. 6: the lead eigenproblem runs on the CPUs
// while SplitSolve's Step 1 occupies the accelerators), so the OBC backends
// get the same architecture as the device solvers: every algorithm —
// shift-and-invert (Ref. [38]), FEAST (Eq. 10 / Fig. 5), Sancho-Rubio
// decimation (Ref. [40]), and Beyn's contour method (Ref. [43]) — implements
// one Strategy interface with capability bits and registers itself in a
// name -> factory registry.  The companion linearization (companion.hpp) is
// the shared front-end of every eigenmode backend: each one solves the same
// pencil, differing only in *which* eigenpairs it extracts and how.
//
// Capability bits matter to callers: decimation produces self-energies only,
// so a density/charge request (which needs the injected wave functions)
// must be rejected loudly rather than silently integrating zeros.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/hash.hpp"
#include "obc/beyn.hpp"
#include "obc/decimation.hpp"
#include "obc/feast.hpp"
#include "obc/modes.hpp"
#include "obc/self_energy.hpp"
#include "obc/shift_invert.hpp"

namespace omenx::obc {

/// Selectable OBC backends (the registry names are the snake_case forms).
enum class ObcAlgorithm { kShiftInvert, kFeast, kDecimation, kBeyn };

/// Capability bits advertised by an OBC backend.
enum ObcCapability : unsigned {
  /// Boundary carries injection columns, mode velocities, and the
  /// right-lead basis: wave-function observables (transmission amplitudes,
  /// density, bond currents) are available.  Backends without this bit
  /// yield Sigma only — callers must fall back to the Green's-function
  /// (Caroli) formalism and must not request densities.
  kProvidesInjection = 1u << 0,
  /// The backend solves the lead *eigenproblem* (companion pencil) rather
  /// than iterating on the surface Green's function.
  kProvidesModes = 1u << 1,
};

/// Options bound to one boundary evaluation.  One struct travels from the
/// caller (transport::EnergyPointOptions) to the strategy so that a single
/// BoundaryOptions ridge governs both the self-energy construction and the
/// downstream transmission projection.
struct ObcOptions {
  FeastOptions feast;
  BeynOptions beyn;
  ShiftInvertOptions shift_invert;
  /// Default-constructed: DecimationOptions' own eta = 1e-7 is the single
  /// authoritative broadening default (an override here once shadowed it).
  DecimationOptions decimation;
  BoundaryOptions boundary;  ///< shared pseudo-inverse ridge
  /// Uniform lead (contact) potential shift (eV).  A lead floating at
  /// potential V has H -> H + V*S, so its boundary at energy E equals the
  /// pristine lead's boundary at E - V; strategies apply the shift exactly
  /// that way.  A BoundaryKey field of its own (per contact), so it is
  /// not part of digest().
  double contact_shift = 0.0;

  /// Content digest of every backend option — the options component of
  /// the BoundaryCache key, delegating to each struct's own digest()
  /// (declared next to its fields so additions can't drift past it).  A
  /// changed annulus, ridge, or eta therefore re-keys the cache: no stale
  /// Boundary is ever replayed, and going back to an earlier option set
  /// hits the entries it left behind.
  std::uint64_t digest() const noexcept {
    numeric::Fnv1a h;
    feast.digest(h);
    beyn.digest(h);
    shift_invert.digest(h);
    decimation.digest(h);
    boundary.digest(h);
    return h.value();
  }
};

/// Strategy interface.  Implementations are stateless beyond the options
/// they are handed per call, so one instance may serve many energies.
class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual const char* name() const noexcept = 0;
  virtual unsigned capabilities() const noexcept = 0;

  /// Boundary data of the lead at energy `e`: the lead eigenproblem (or
  /// decimation iteration) plus the self-energy/injection construction,
  /// evaluated at e - options.contact_shift.  Advances the process-wide
  /// boundary_solve_count() — the instrumentation the cache benchmarks and
  /// CI gate read.
  Boundary boundary(const dft::LeadBlocks& lead, const dft::FoldedLead& folded,
                    cplx e, const ObcOptions& options = {});

 protected:
  /// Backend hook: `ops` and `e` already carry the contact shift.
  virtual Boundary compute(const dft::LeadBlocks& lead,
                           const LeadOperators& ops, cplx e,
                           const ObcOptions& options) = 0;
};

using StrategyFactory = std::function<std::unique_ptr<Strategy>()>;

/// Register a backend under `name` (replaces an existing registration).
/// The four built-ins ("shift_invert", "feast", "decimation", "beyn")
/// self-register on first registry use.
void register_obc_strategy(const std::string& name, StrategyFactory factory);

/// Names of all registered OBC backends, sorted.
std::vector<std::string> registered_obc_strategies();

/// Instantiate a backend by name; throws std::invalid_argument for unknown
/// names.
std::unique_ptr<Strategy> make_obc_strategy(const std::string& name);

/// Instantiate a backend by algorithm enum.
std::unique_ptr<Strategy> make_obc_strategy(ObcAlgorithm algo);

/// Registry name of an algorithm.
const char* obc_algorithm_name(ObcAlgorithm algo) noexcept;

/// Capability bits of an algorithm (without instantiating it by hand).
unsigned obc_algorithm_capabilities(ObcAlgorithm algo);

/// Process-wide count of boundary-condition evaluations — one per lead
/// eigenproblem (or decimation) actually solved.  BoundaryCache hits do not
/// advance it; the obc_cache bench gates on exactly this.
std::uint64_t boundary_solve_count() noexcept;

}  // namespace omenx::obc
