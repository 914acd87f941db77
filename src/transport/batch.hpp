// Batched energy-point pipeline — the paper's two-phase execution model
// (Section 5E) across *tasks* instead of within one.
//
// A batch is a bucket of queued (k, E) tasks sharing one block structure,
// each with any validated ContactSet.  How it runs depends on the backend:
//   * Host lanes (!Backend::offloads()): one dispatch, lane i running task
//     i end to end through solve_energy_point's per-task core on its
//     thread-local context.  Pair-route tasks (transport::pair_route)
//     solve through the batch solver's per-problem kernel
//     Solver::solve_boundary_problem, N-terminal ones through
//     solve_attached.  Lanes run the same scalar kernels however the work
//     is grouped, so stages would only add barriers.
//   * An offloading backend gets the CPU/GPU shape for pair-route tasks:
//     1. OBC prefetch: every task's end boundaries are submitted to the
//        process thread pool up front ("obc_prefetch" spans), so the lead
//        stage runs asynchronously ahead of —
//     2. the device phase: SplitSolve Step 1 / block-LU factorization of
//        the whole bucket and the per-task boundary solves, fused through
//        Solver::prepare_batched + solve_boundary_batched
//        ("batch_device_phase" span), with the boundary operands staged
//        for device residency and block-LU in its row lockstep (one
//        batched left-solve, GEMM and LU per elimination row).
//     3. Observables finalize on backend lanes, one task per lane.
//     N-terminal tasks run on host lanes: no batched solve_attached exists.
// Every route runs the same scalar arithmetic as transport::
// solve_energy_point (the shared detail:: helpers), so results are
// bit-identical to the unbatched path, task by task.
#pragma once

#include <vector>

#include "transport/transmission.hpp"

namespace omenx::numeric {
class Backend;
}  // namespace omenx::numeric

namespace omenx::transport {

/// One queued (k, E) task of a batch.  The referenced matrices must share
/// (num_blocks, block_size) across the batch and outlive the call.
struct BatchTask {
  idx k_index = 0;     ///< global momentum index (boundary-cache key)
  double energy = 0.0;
  const dft::DeviceMatrices* dm = nullptr;
  /// The k's terminals: any set that validates against dm.  A scattering
  /// model in the batch options may attach probes to it.
  const ContactSet* contacts = nullptr;
};

/// Per-call accounting, accumulated into the engine's sweep counters.
struct BatchStats {
  idx batches = 0;          ///< batched calls issued (1 per solve_energy_batch)
  idx tasks = 0;            ///< tasks executed through batches
  idx prefetch_hits = 0;    ///< boundary fetches the cache served
  idx prefetch_misses = 0;  ///< boundary fetches it missed (or no cache)
  idx device_batches = 0;   ///< batches whose device phase ran on an
                            ///< offload backend (Backend::offloads())
  idx residency_hits = 0;   ///< staged operands already device-resident
  idx residency_misses = 0;  ///< staged operands that paid an H2D transfer

  void operator+=(const BatchStats& other) {
    batches += other.batches;
    tasks += other.tasks;
    prefetch_hits += other.prefetch_hits;
    prefetch_misses += other.prefetch_misses;
    device_batches += other.device_batches;
    residency_hits += other.residency_hits;
    residency_misses += other.residency_misses;
  }
};

/// Reusable state of a batch consumer (one per energy-group leader): the
/// workspace arena, the cached solver instance (inside the
/// EnergyPointContext), and the staged pipeline's per-task assembled
/// systems (host lanes use their thread-local EnergyPointContext).
struct BatchContext {
  EnergyPointContext point;
  std::vector<blockmat::BlockTridiag> a;  ///< per-task E*S - H
  std::vector<CMatrix> b_top, b_bot;      ///< per-task sparse RHS blocks
};

/// Solve a bucket of same-shape tasks through the batched pipeline.
/// `nominal_batch` feeds SolverContext::batch for kAuto resolution — pass a
/// rank-invariant value (the engine's configured max_batch), never the
/// actual bucket fill, so every rank resolves the same backend.  Results
/// are in task order.  Throws std::invalid_argument when a task's set does
/// not validate, when options.spatial is a group wider than one rank, or
/// when the resolved solver lacks kBatchable.
std::vector<EnergyPointResult> solve_energy_batch(
    BatchContext& ctx, const std::vector<BatchTask>& tasks,
    const EnergyPointOptions& options, parallel::DevicePool* pool,
    numeric::Backend& backend, int nominal_batch, BatchStats* stats = nullptr);

}  // namespace omenx::transport
