// Pluggable batched-execution backend — the compute-device abstraction of
// the paper's two-phase pipeline (Section 5E).
//
// The paper executes hundreds of same-shape (k, E) kernels per sweep; the
// win on real accelerators comes from fusing them into *batched* calls
// (cuBLAS-style gemmBatched / MAGMA zgesv_nopiv_batched) instead of issuing
// hundreds of small launches.  A Backend exposes exactly that surface:
// batched GEMM, batched dense LU factorization, and batched triangular
// solves, plus a generic dispatch() for independent same-shape problems.
//
// The contract that makes batching safe everywhere: a backend executes the
// *same scalar kernels* on each batch item that the unbatched path would
// run (gemm_view, LUFactor, LUFactor::solve/solve_left), so batched results
// are bit-identical to the scalar path item by item.  The packed GEMM is
// deterministic under any thread count (disjoint C tiles, fixed-order
// accumulation within a tile), so this holds for any lane assignment.
//
// The built-in "host" backend spreads a batch over the process thread pool
// — one lane per worker, each with its own Workspace arena and with nested
// kernel parallelism disabled (the emulated-accelerator discipline of
// parallel/device.hpp).  A dispatch issued from a lane or any other pool
// worker runs serially on the caller.  Host lanes batch by problem: the
// batched energy pipeline hands each lane whole (k, E) tasks through one
// dispatch, since the lanes run the same scalar kernels either way.  The
// stage-wise batched calls below (one GEMM / LU / solve across the batch
// per stage) are the shape for offload; a device backend slots in by
// overriding them with genuinely fused kernels and registering itself
// under a name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/types.hpp"

namespace omenx::numeric {

/// Per-item operand pointers of one batched GEMM.  Shape, ops, and scalars
/// are shared across the batch (that is what makes the call fusable);
/// only the operand addresses and leading dimensions vary.
struct GemmBatchItem {
  const cplx* a = nullptr;
  idx lda = 0;
  const cplx* b = nullptr;
  idx ldb = 0;
  cplx* c = nullptr;
  idx ldc = 0;
};

/// Batched-execution interface.  Instances are stateless across calls and
/// thread-safe: many solver threads may issue batches concurrently.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const noexcept = 0;

  /// Parallel lanes the backend can keep busy (host: pool workers; a device
  /// backend would report its stream count).  Callers size batches with it.
  virtual int lanes() const noexcept = 0;

  /// Run fn(i) for each of `n` independent problems.  `label` names the
  /// stage in traces.  Items must not share mutable state; the backend may
  /// run them in any order, on any lane.  Exceptions from items are
  /// collected and the first one rethrown after the batch settles.
  virtual void dispatch(const char* label, std::size_t n,
                        const std::function<void(std::size_t)>& fn) = 0;

  /// Batched C_i = alpha*op(A_i)*op(B_i) + beta*C_i over same-shape items.
  /// Each item runs the scalar gemm_view kernel — bit-identical to a loop
  /// of numeric::gemm calls with the same operands.
  virtual void gemm_batched(char op_a, char op_b, idx m, idx n, idx k,
                            cplx alpha, cplx beta,
                            const std::vector<GemmBatchItem>& items);

  /// Batched dense LU: factors a copy of each (same-size, square) input.
  /// Results are in input order, each bit-identical to LUFactor(*as[i]).
  virtual std::vector<LUFactor> lu_factor_batched(
      const std::vector<const CMatrix*>& as,
      Pivoting pivoting = Pivoting::kPartial);

  /// Batched triangular solves against previously produced factors:
  /// xs[i] = factors[i]->solve(*bs[i]).  RHS column counts must agree
  /// across the batch on fused backends; the host backend accepts any mix.
  virtual void lu_solve_batched(const std::vector<const LUFactor*>& factors,
                                const std::vector<const CMatrix*>& bs,
                                std::vector<CMatrix>& xs);

  /// Batched left solves: xs[i] = factors[i]->solve_left(*bs[i])
  /// (X_i A_i = B_i, the block-LU coupling step).
  virtual void lu_solve_left_batched(
      const std::vector<const LUFactor*>& factors,
      const std::vector<const CMatrix*>& bs, std::vector<CMatrix>& xs);

  /// True when batched calls genuinely offload (pay host<->device transfer
  /// and launch costs).  The host backend returns false; callers use this
  /// to decide whether staging operands (stage_operand) is worthwhile and
  /// which throughput figure of perf::MachineSpec applies.
  virtual bool offloads() const noexcept { return false; }

  /// Hint that operand `stable_id` (`bytes` wide) is about to be consumed
  /// by batched calls and is bit-stable under that id — typically reused
  /// across SCF iterations.  An offload backend stages it into device
  /// residency (transferring H2D at most once per id); returns true iff the
  /// operand was already resident, i.e. no transfer was paid.  The host
  /// backend ignores the hint and returns false.  `stable_id` 0 means
  /// "stream, do not cache".
  virtual bool stage_operand(std::uint64_t stable_id, std::uint64_t bytes) {
    (void)stable_id;
    (void)bytes;
    return false;
  }

  /// Drop any operand residency (stage_operand state) — an explicit flush.
  /// No-op on backends without residency.
  virtual void invalidate_residency() {}
};

/// The built-in thread-pool backend ("host").  Singleton; always registered.
Backend& host_backend();

/// Register `backend` under `name`.
///
/// Lifetime contract: the registry stores the raw pointer and never takes
/// ownership — the backend must stay alive for as long as any lookup may
/// return it (in practice: for the rest of the process; register
/// function-local statics or objects owned by main()).  There is no
/// unregister.  Each name can be registered exactly once: a duplicate name
/// throws std::invalid_argument instead of silently replacing the earlier
/// backend (which would leave callers holding a pointer the registry no
/// longer vouches for).  A null backend also throws std::invalid_argument.
void register_backend(const std::string& name, Backend* backend);

/// Look up a backend by name; nullptr when unknown.
Backend* find_backend(const std::string& name);

/// Names of all registered backends, sorted.
std::vector<std::string> registered_backends();

}  // namespace omenx::numeric
