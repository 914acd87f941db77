// Unified solver strategy layer.
//
// Every block-tridiagonal transport backend (RGF, block LU, BCR, SPIKE,
// SplitSolve) implements one interface with three capabilities —
// factor/solve, boundary solves, diagonal blocks — and registers itself in
// a name -> factory registry.  Callers (transport::solve_energy_point,
// transport Green's-function observables, benches) pick a backend by
// algorithm enum or by name, or ask for `kAuto` and get a deterministic
// cost-model choice fed by the perf/machine node model.
//
// A solver binds its execution resources at creation through SolverContext:
// the emulated accelerator pool (SPIKE/SplitSolve offload) and, new in this
// layer, the *spatial* sub-communicator of Fig. 9's third level.  When the
// spatial communicator has more than one rank, cooperative backends
// (kSpatialCooperative) split the partitions of one block-tridiagonal solve
// across the group's ranks: members compute their partitions' local RGF
// sweeps and spikes, the group leader (spatial rank 0) assembles the SPIKE
// reduced system and the corrections.  Because the per-partition arithmetic
// is fixed by the partition count — not by where a partition executes — the
// result is bit-identical to the single-rank solve with the same partition
// count.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blockmat/block_tridiag.hpp"
#include "numeric/matrix.hpp"

namespace omenx::numeric {
class Backend;
}  // namespace omenx::numeric

namespace omenx::parallel {
class Comm;
class DevicePool;
}  // namespace omenx::parallel

namespace omenx::solvers {

using blockmat::BlockTridiag;
using numeric::CMatrix;
using numeric::idx;

/// Selectable backends.  kAuto resolves to a concrete backend through the
/// cost model (resolve_algorithm) — deterministically, from the system
/// shape and the bound resources only.
enum class SolverAlgorithm { kSplitSolve, kBlockLU, kBcr, kRgf, kSpike, kAuto };

/// Capability bits advertised by a backend.
enum Capability : unsigned {
  /// factor(t) + solve(b): a general factorization of the boundary-applied
  /// system reusable across right-hand sides.
  kFactorSolve = 1u << 0,
  /// diagonal_blocks(t) has a native implementation (not the identity-solve
  /// fallback).
  kDiagonalBlocksNative = 1u << 1,
  /// prepare(a) does useful work before the boundary self-energies exist
  /// (SplitSolve Step 1), overlapping with the OBC computation.
  kOverlapPrepare = 1u << 2,
  /// One solve can be split across the ranks of SolverContext::spatial.
  kSpatialCooperative = 1u << 3,
  /// Offloads partition work to the emulated accelerator pool.
  kUsesDevicePool = 1u << 4,
  /// solve_boundary_batched has a fused implementation: many same-shape
  /// (k, E) systems execute as single batched numeric::Backend calls
  /// (the paper's Section 5E pipeline), bit-identical per problem to the
  /// scalar solve_boundary path.
  kBatchable = 1u << 5,
  /// solve_attached accepts self-energy attachments at *interior* device
  /// blocks (>= 3-terminal layouts, probe contacts), not just the {first,
  /// last} corner pair.  Backends without this bit still handle any
  /// 2-terminal attachment at the corners through the default delegation
  /// to the validated solve_boundary path.
  kMultiTerminal = 1u << 6,
};

/// Capability bits of an algorithm without instantiating it (the batch
/// planner asks before building solvers).  kAuto reports 0 — resolve first.
unsigned algorithm_capabilities(SolverAlgorithm algo) noexcept;

/// Execution resources bound to a solver instance at creation.
struct SolverContext {
  parallel::DevicePool* pool = nullptr;  ///< accelerators (may be null)
  int partitions = 1;                    ///< SPIKE/SplitSolve partitions
  /// Spatial sub-communicator (Fig. 9 level 3).  Non-null with size > 1
  /// makes cooperative solvers split each solve across its ranks; the
  /// caller of solve_boundary must be spatial rank 0, and every other rank
  /// must be serving the same solve (transport::serve_spatial_point).
  parallel::Comm* spatial = nullptr;
  /// Nominal batch width the caller intends to issue through the batched
  /// entry points (1 = scalar operation).  Only the kAuto cost model reads
  /// it: with batch > 1, kBatchable candidates are credited the measured
  /// batched-GEMM throughput of perf::MachineSpec::host().  Callers that
  /// need rank-invariant resolution must pass a rank-invariant nominal
  /// width (the engine passes its configured max_batch, never the actual
  /// bucket fill).
  int batch = 1;
  /// The numeric::Backend the caller will pass to the batched entry points
  /// (null = undecided/host).  kAuto credits kBatchable candidates with the
  /// accelerator stream throughput when the backend offloads.  On the
  /// emulated host model this is a no-op by construction (gpu_gflops ==
  /// cpu_gflops <= batched_gemm_gflops), so in-process resolution stays a
  /// pure function of the problem shape regardless of where a leader's
  /// bucket lands — the rank/world-size determinism guarantee is unchanged.
  const numeric::Backend* backend = nullptr;
};

/// One boundary-solve problem of a batch: x = T^{-1} [b_top; 0; ...; b_bot]
/// with T = *a - diag-corner(*sigma_l, *sigma_r).  All pointers must stay
/// valid through the batched call; every problem in one batch must share
/// (num_blocks, block_size).
struct BoundaryProblem {
  const BlockTridiag* a = nullptr;
  const CMatrix* sigma_l = nullptr;
  const CMatrix* sigma_r = nullptr;
  const CMatrix* b_top = nullptr;
  const CMatrix* b_bot = nullptr;
};

/// One self-energy attachment of an N-terminal solve: `sigma` (s x s) is
/// subtracted from diagonal block `block` of A.  The classic two-terminal
/// problem is the pair {0, sigma_l}, {nb-1, sigma_r}.
struct Attachment {
  idx block = 0;
  const CMatrix* sigma = nullptr;
};

/// One non-zero block row of an N-terminal right-hand side: `b` (s x m,
/// shared column count m across all entries) occupies block row `block`.
struct RhsBlock {
  idx block = 0;
  const CMatrix* b = nullptr;
};

/// Strategy interface.  Instances are stateful (cached factorizations, warm
/// buffers, bound resources) and are not thread-safe; use one per thread.
class Solver {
 public:
  virtual ~Solver() = default;

  virtual const char* name() const noexcept = 0;
  virtual unsigned capabilities() const noexcept = 0;

  /// Early hook called with A = E*S - H *before* the boundary self-energies
  /// are known.  kOverlapPrepare backends start asynchronous work here;
  /// everyone else ignores it.  `a` must outlive the following
  /// solve_boundary call.
  virtual void prepare(const BlockTridiag& a) { (void)a; }

  /// Factor the (boundary-applied) system.  kFactorSolve only; others throw
  /// std::logic_error.
  virtual void factor(const BlockTridiag& t);

  /// Solve T X = B for a dense B against the last factor().  kFactorSolve
  /// only.
  virtual CMatrix solve(const CMatrix& b);

  /// The transmission work unit: x = T^{-1} [b_top; 0; ...; 0; b_bot] with
  /// T = a - diag-corner(sigma_l, sigma_r).  The right-hand side is non-zero
  /// only in the first and last block rows — exactly what the RGF/SPIKE
  /// block-column kernels and the SplitSolve SMW identity exploit.  The
  /// default applies the boundary, factors, expands the RHS and solves.
  virtual CMatrix solve_boundary(const BlockTridiag& a, const CMatrix& sigma_l,
                                 const CMatrix& sigma_r, const CMatrix& b_top,
                                 const CMatrix& b_bot);

  /// Batched counterpart of prepare(): called with the A = E*S - H of every
  /// problem of the upcoming solve_boundary_batched call, before any
  /// boundary self-energy exists.  kOverlapPrepare backends start the whole
  /// batch's heavy phase here (SplitSolve Step 1 for every system as one
  /// backend dispatch) so it overlaps with the asynchronous OBC stage.
  /// Default: nothing to prepare.  The systems must outlive the following
  /// solve_boundary_batched call and match it element for element.
  virtual void prepare_batched(const std::vector<const BlockTridiag*>& systems,
                               numeric::Backend& backend) {
    (void)systems;
    (void)backend;
  }

  /// Solve a batch of same-shape boundary problems.  Results are in problem
  /// order; problem i is bit-identical to solve_boundary(*a, *sigma_l,
  /// *sigma_r, *b_top, *b_bot) on problem i's operands.  The default runs a
  /// kBatchable backend as one backend.dispatch, each lane solving whole
  /// problems through solve_boundary_problem; any other backend throws
  /// std::invalid_argument.  Backends whose offload shape differs
  /// (stage-wise fused kernels) override it for offloading backends.
  virtual std::vector<CMatrix> solve_boundary_batched(
      const std::vector<BoundaryProblem>& problems, numeric::Backend& backend);

  /// The per-problem host kernel of a kBatchable backend: one boundary
  /// problem solved start to finish on the calling thread's scratch,
  /// bit-identical to solve_boundary on its operands.  Const and lane-safe:
  /// many lanes call it concurrently on one instance.  Backends without
  /// kBatchable throw std::logic_error.
  virtual CMatrix solve_boundary_problem(const BoundaryProblem& problem) const;

  /// N-terminal work unit: x = T^{-1} B with T = a - sum_p diag(sigma_p at
  /// block_p) and B assembled from the non-zero block rows in `rhs`.
  /// When the attachments are exactly the {0, nb-1} corner pair the default
  /// delegates to solve_boundary — same arithmetic, same backend overrides,
  /// bit-identical to the 2-terminal path.  Interior attachment blocks
  /// require kMultiTerminal; backends without it throw std::logic_error.
  /// The kFactorSolve default for interior attachments applies every
  /// self-energy, factors, and solves the expanded dense RHS.
  virtual CMatrix solve_attached(const BlockTridiag& a,
                                 const std::vector<Attachment>& attachments,
                                 const std::vector<RhsBlock>& rhs);

  /// Diagonal blocks of t^{-1} (LDOS / charge assembly).  The default is
  /// the identity-solve fallback (factor + one solve per block column,
  /// O(nb^2 s^3)); backends with kDiagonalBlocksNative override it.
  virtual std::vector<CMatrix> diagonal_blocks(const BlockTridiag& t);

  /// The caller decided to skip this point's solve (e.g. no right-hand
  /// sides — nothing propagates at the energy).  Backends with outstanding
  /// cooperative or asynchronous work must settle it here: a spatial
  /// group's members have already sent their partitions, and leaving them
  /// unconsumed would desynchronize the next solve's transfers.  Default:
  /// nothing outstanding, no-op.
  virtual void discard() {}

 protected:
  /// Shared scratch for the default solve_boundary path (reused across
  /// energy points so the steady state stays allocation-free).
  BlockTridiag t_;
  CMatrix b_;
};

using SolverFactory =
    std::function<std::unique_ptr<Solver>(const SolverContext&)>;

/// Register a backend under `name` (replaces an existing registration).
/// The five built-ins ("rgf", "block_lu", "bcr", "spike", "splitsolve")
/// self-register on first registry use.
void register_solver(const std::string& name, SolverFactory factory);

/// Names of all registered backends, sorted.
std::vector<std::string> registered_solvers();

/// Instantiate a backend by name; throws std::invalid_argument for unknown
/// names.
std::unique_ptr<Solver> make_solver(const std::string& name,
                                    const SolverContext& ctx = {});

/// Instantiate a backend by algorithm enum.  kAuto must be resolved through
/// resolve_algorithm first (the choice depends on the system shape); passing
/// it here throws std::invalid_argument.
std::unique_ptr<Solver> make_solver(SolverAlgorithm algo,
                                    const SolverContext& ctx = {});

/// Registry name of a concrete algorithm ("auto" for kAuto).
const char* algorithm_name(SolverAlgorithm algo) noexcept;

/// Deterministic cost-model choice for a boundary solve of an nb x nb
/// block system with block size s and nrhs right-hand-side columns, given
/// the resources in `ctx`.  Pure function of its arguments and the
/// perf::MachineSpec::host() model: equal inputs always give equal outputs
/// (the kAuto determinism guarantee — every rank of a spatial group
/// resolves the same backend without communicating).
SolverAlgorithm auto_algorithm(idx nb, idx s, idx nrhs,
                               const SolverContext& ctx);

/// Identity on concrete algorithms; resolves kAuto via auto_algorithm.
SolverAlgorithm resolve_algorithm(SolverAlgorithm requested, idx nb, idx s,
                                  idx nrhs, const SolverContext& ctx);

/// The cost model itself: estimated seconds (on perf::MachineSpec::host())
/// for one boundary solve with `algo`.  `executors` is the number of
/// parallel lanes available to the partitioned backends — accelerators at
/// the node level, the energy group's width at the spatial level; the
/// direct backends ignore it.  Exposed so benches and capacity planning can
/// print the same numbers kAuto decides with.
double estimate_boundary_solve_seconds(SolverAlgorithm algo, idx nb, idx s,
                                       idx nrhs, int partitions,
                                       int executors);

/// True for backends whose solves are split across spatial ranks.
bool algorithm_is_cooperative(SolverAlgorithm algo) noexcept;

}  // namespace omenx::solvers
