// The four workloads of the (k, E) pipeline benchmark.  Each puts a
// different module on the critical path:
//   utb_kspace  obc        (FEAST lead solves of a short UTB over 3 k points,
//                           rank protocol with work stealing)
//   wire_long   solvers /  (SplitSolve factorizations of a long Si2 chain,
//               numeric     flat loop)
//   fet_iv      omen +     (self-consistent Id-Vgs curve of a Li-chain FET:
//               charge +    many sweeps of tiny solves, contour charge,
//               poisson     Anderson mixing, boundary-cache reads)
//   dephasing   scattering (Buettiker-probe currents through the unbatched
//                           N-terminal ContactSet path + Newton tuning)
// The workload seed only generates inputs (energy grids, the Vgs list);
// the library receives the generated grids.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obc/boundary_cache.hpp"
#include "omen/simulator.hpp"

namespace omenx::profile {

using numeric::idx;

/// The observables one operation returns to its caller, flattened (digest
/// and replay comparison work on this vector).
struct Outputs {
  std::vector<double> values;
};

/// Correctness checks of one operation.  Checks are counted, never thrown:
/// a failed check marks the operation failed and the run continues.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  int failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  int failed_ = 0;
  std::vector<std::string> failures_;
};

/// Per-layer metric values of a traced run, by name.
using Metrics = std::map<std::string, double>;

/// Shape of one (k, E) solve, for the kernel probes and the cost models.
struct SolveShape {
  idx nb = 0;     ///< diagonal blocks
  idx s = 0;      ///< block size
  idx nrhs = 0;   ///< right-hand-side columns of a representative solve
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual omen::SimulationConfig config() const = 0;

  /// Draws the seeded inputs.  `sim` supplies the lead band structure the
  /// grids are placed against; nothing here is timed.
  virtual void make_inputs(omen::Simulator& sim, std::uint64_t seed) = 0;

  /// The operation the end-to-end metrics time.
  virtual Outputs run(omen::Simulator& sim) = 0;

  /// Correctness checks on one operation's outputs (and, where the check
  /// needs it, the simulator state the operation left behind).
  virtual void check(const omen::Simulator& sim, const Outputs& out,
                     Checks& checks) const = 0;

  /// The same operation decomposed into public calls, each inside a span;
  /// engine sweep statistics and layer counters accumulate into `m`.
  /// Must return exactly the outputs of run().
  virtual Outputs traced(omen::Simulator& sim, SpanLog& log, Metrics& m) = 0;

  /// Serial replay of the operation's inputs through the public stage
  /// functions, every boundary fetched through `cache`.  Per-point
  /// invariants go to `checks`; flop counts of the solver stages add to
  /// m["solvers.flops"].
  virtual Outputs replay(omen::Simulator& sim, SpanLog& log,
                         obc::BoundaryCache& cache, Metrics& m,
                         Checks& checks) = 0;

  virtual SolveShape shape(const omen::Simulator& sim) const;
};

/// Workload names in their canonical order.
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace omenx::profile
