#include "transport/batch.hpp"

#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

#include "numeric/backend.hpp"
#include "numeric/hash.hpp"
#include "parallel/comm.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/tracer.hpp"

namespace omenx::transport {

using solvers::BoundaryProblem;

namespace {

std::uint64_t operand_bytes(const CMatrix& m) {
  return std::uint64_t(m.rows()) * std::uint64_t(m.cols()) * sizeof(cplx);
}

/// The OBC stage of one task ("obc_prefetch" trace span): its own strategy
/// instance, so concurrent fetches share nothing but the BoundaryCache,
/// whose first-insert-wins discipline makes concurrent misses on one key
/// converge on a single canonical Boundary.
detail::FetchedBoundary fetch_task_boundary(const BatchTask& task,
                                            const EnergyPointOptions& options) {
  const parallel::TraceScope trace("obc_prefetch", /*device_id=*/-1);
  EnergyPointOptions task_options = options;
  task_options.k_index = task.k_index;
  auto strategy = obc::make_obc_strategy(task_options.obc);
  return detail::fetch_boundary(*strategy, (*task.contacts)[0], 0,
                                cplx{task.energy, 0.0}, task_options);
}

/// One host lane's scratch for a whole task — A = E*S - H and the sparse
/// RHS blocks — kept warm across the tasks and batches the lane runs.
struct LaneScratch {
  BlockTridiag a;
  CMatrix b_top, b_bot;
};

LaneScratch& lane_scratch() {
  static thread_local LaneScratch scratch;
  return scratch;
}

}  // namespace

std::vector<EnergyPointResult> solve_energy_batch(
    BatchContext& ctx, const std::vector<BatchTask>& tasks,
    const EnergyPointOptions& options, parallel::DevicePool* pool,
    numeric::Backend& backend, int nominal_batch, BatchStats* stats) {
  std::vector<EnergyPointResult> results(tasks.size());
  if (tasks.empty()) return results;
  if (options.spatial != nullptr && options.spatial->size() > 1)
    throw std::invalid_argument(
        "solve_energy_batch: spatial groups solve cooperatively, one point "
        "at a time — batching applies to non-spatial energy groups");

  const numeric::WorkspaceScope scope(ctx.point.workspace);
  const std::size_t n = tasks.size();

  for (const BatchTask& task : tasks) {
    if (task.dm == nullptr || task.contacts == nullptr)
      throw std::invalid_argument("solve_energy_batch: null task operand");
    const idx task_nb = task.dm->h.num_blocks();
    task.contacts->validate(task_nb);
    if (!task.contacts->symmetric_pair(task_nb))
      throw std::invalid_argument(
          "solve_energy_batch: a task's contacts are not a symmetric pair "
          "(two end contacts sharing one boundary)");
  }

  // --- Solver + OBC resolution ------------------------------------------
  const idx nb = tasks[0].dm->h.num_blocks();
  const idx sf = tasks[0].dm->h.block_size();
  for (const BatchTask& task : tasks)
    if (task.dm->h.num_blocks() != nb || task.dm->h.block_size() != sf)
      throw std::invalid_argument(
          "solve_energy_batch: mixed block structures in one batch");
  // Probes grow the terminal set beyond the pair, where the batched
  // two-contact arithmetic no longer applies.  A model that attaches
  // nothing (buttiker_probe at eta <= 0) runs batched, bit-identically.
  if (!scattering::assemble_probes(options.scattering, nb, {0, nb - 1})
           .empty())
    throw std::invalid_argument(
        "solve_energy_batch: the scattering model attaches probes — those "
        "tasks solve one point at a time");
  solvers::SolverContext binding;
  binding.pool = pool;
  binding.partitions = options.partitions;
  binding.batch = std::max(1, nominal_batch);
  binding.backend = &backend;
  solvers::Solver& solver = ctx.point.solver(options.solver, binding, nb, sf);
  obc::Strategy& obc_strategy = ctx.point.obc_strategy(options.obc);
  const bool have_injection =
      (obc_strategy.capabilities() & obc::kProvidesInjection) != 0;
  detail::require_injection_support(obc_strategy, have_injection, options);
  if ((solver.capabilities() & solvers::kBatchable) == 0)
    throw std::invalid_argument(std::string("solve_energy_batch: solver '") +
                                solver.name() + "' is not kBatchable");

  BatchStats local;
  local.batches = 1;
  local.tasks = static_cast<idx>(n);

  if (!backend.offloads()) {
    // --- Host lanes: one dispatch, each lane one task end to end --------
    // Lanes run the same scalar kernels whichever way the work is grouped,
    // so a host batch needs no stages: lane i fetches task i's boundary,
    // assembles A_i, solves it through the solver's per-problem kernel and
    // finalizes its observables.  Tasks overlap one another's OBC and
    // solve phases across lanes; nothing waits on a batch-wide barrier.
    std::vector<char> hits(n, 0);
    backend.dispatch("energy_batch", n, [&](std::size_t i) {
      const BatchTask& task = tasks[i];
      const detail::FetchedBoundary fetched =
          fetch_task_boundary(task, options);
      hits[i] = fetched.hit ? 1 : 0;
      const obc::Boundary& bnd = fetched.get();
      LaneScratch& lane = lane_scratch();
      lane.a.assign_es_minus_h(cplx{task.energy, 0.0}, task.dm->s,
                               task.dm->h);
      results[i].energy = task.energy;
      CMatrix x;
      detail::solve_task(
          results[i], lane.a, bnd, bnd, have_injection, options, lane.b_top,
          lane.b_bot, x, [&](const CMatrix& b_top, const CMatrix& b_bot) {
            const parallel::TraceScope trace("batch_device_phase",
                                             /*device_id=*/-1);
            return solver.solve_boundary_problem(
                {&lane.a, &bnd.sigma_l, &bnd.sigma_r, &b_top, &b_bot});
          });
    });
    for (const char hit : hits)
      (hit != 0 ? local.prefetch_hits : local.prefetch_misses) += 1;
    if (stats != nullptr) *stats += local;
    return results;
  }

  // --- Stage 1: asynchronous OBC prefetch -------------------------------
  // Every task's boundary goes to the process thread pool *before* the
  // device phase is issued, so the lead stage runs ahead of (and
  // interleaved with) Step 1 — the paper's CPU/GPU overlap at batch scope.
  auto& threads = parallel::ThreadPool::global();
  std::vector<std::future<detail::FetchedBoundary>> prefetch;
  prefetch.reserve(n);
  // Any exit between the submissions and the await must settle the jobs
  // first: they reference the caller's tasks, and a future destroyed while
  // its job runs would leave the job touching freed state.
  const auto drain_prefetch = [&prefetch]() noexcept {
    for (auto& fut : prefetch)
      if (fut.valid()) {
        try {
          fut.get();
        } catch (...) {
        }
      }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const BatchTask& task = tasks[i];
    prefetch.push_back(threads.submit([&options, &task] {
      static thread_local numeric::Workspace prefetch_workspace;
      const numeric::WorkspaceScope ws(prefetch_workspace);
      return fetch_task_boundary(task, options);
    }));
  }

  // With Caroli columns (or a self-energy-only OBC, which forces them)
  // every task has a non-empty RHS, so the whole batch can start its
  // device phase before any boundary arrives.  Otherwise the column
  // count is boundary-dependent and Step 1 waits for the prefetch.
  const bool rhs_known_nonempty = options.want_caroli || !have_injection;
  try {
    // --- Assemble every task's A = E*S - H ------------------------------
    ctx.a.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      ctx.a[i].assign_es_minus_h(cplx{tasks[i].energy, 0.0}, tasks[i].dm->s,
                                 tasks[i].dm->h);
    if (rhs_known_nonempty) {
      std::vector<const BlockTridiag*> systems(n);
      for (std::size_t i = 0; i < n; ++i) systems[i] = &ctx.a[i];
      const parallel::TraceScope trace("batch_device_phase",
                                       /*device_id=*/-1);
      solver.prepare_batched(systems, backend);
    }
  } catch (...) {
    drain_prefetch();
    throw;
  }

  // --- Await the boundaries ---------------------------------------------
  // A throwing fetch must not abandon its siblings: settle every future,
  // then surface the first error.
  std::vector<detail::FetchedBoundary> boundaries;
  boundaries.reserve(n);
  std::exception_ptr prefetch_error;
  for (auto& fut : prefetch) {
    try {
      boundaries.push_back(fut.get());
    } catch (...) {
      if (prefetch_error == nullptr)
        prefetch_error = std::current_exception();
      boundaries.emplace_back();
    }
  }
  if (prefetch_error != nullptr) std::rethrow_exception(prefetch_error);

  // Past the host-lane route, a batched solve is an offloaded one.
  local.device_batches = 1;
  for (const detail::FetchedBoundary& f : boundaries)
    (f.hit ? local.prefetch_hits : local.prefetch_misses) += 1;

  // --- Shapes + RHS ------------------------------------------------------
  std::vector<detail::RhsShape> shapes(n);
  std::vector<std::size_t> solvable;
  solvable.reserve(n);
  ctx.b_top.resize(n);
  ctx.b_bot.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const obc::Boundary& bnd = boundaries[i].get();
    results[i].energy = tasks[i].energy;
    shapes[i] = detail::task_rhs(results[i], bnd, bnd, have_injection, sf,
                                 options, ctx.b_top[i], ctx.b_bot[i]);
    if (shapes[i].m == 0) continue;  // nothing propagates at this energy
    solvable.push_back(i);
  }

  // --- Stage operands for device residency ------------------------------
  // The boundary products consumed by Stage 2 — the two lead self-energies
  // and the injection RHS blocks — are bit-stable for a fixed BoundaryKey
  // across SCF iterations (only A = E*S - H changes with the potential), so
  // on an offload backend they are staged under ids hashed from the task's
  // key and an operand tag: iteration 1 pays the H2D transfer and pins
  // device residency, every later iteration hits, and a changed lead,
  // shift, or option set is a new id — residency never needs invalidating.
  // Id 0 is reserved for "stream, do not cache" (Backend::stage_operand).
  // The A blocks are deliberately *not* staged — their traffic is accounted
  // by the batched calls themselves and re-streams every iteration.
  for (const std::size_t i : solvable) {
    const obc::Boundary& bnd = boundaries[i].get();
    obc::BoundaryKey key = detail::boundary_key(
        (*tasks[i].contacts)[0], 0, cplx{tasks[i].energy, 0.0}, options);
    key.k = tasks[i].k_index;
    const std::uint64_t key_digest = key.digest();
    const CMatrix* operands[4] = {&bnd.sigma_l, &bnd.sigma_r, &ctx.b_top[i],
                                  &ctx.b_bot[i]};
    for (std::uint64_t tag = 0; tag < 4; ++tag) {
      const CMatrix& op = *operands[tag];
      if (op.rows() == 0 || op.cols() == 0) continue;
      const std::uint64_t h =
          numeric::Fnv1a().add(key_digest).add(tag + 1).value();
      const std::uint64_t id = h == 0 ? 1 : h;
      (backend.stage_operand(id, operand_bytes(op)) ? local.residency_hits
                                                    : local.residency_misses)
          += 1;
    }
  }

  // --- Stage 2: the device phase ----------------------------------------
  std::vector<BoundaryProblem> problems;
  problems.reserve(solvable.size());
  for (const std::size_t i : solvable) {
    const obc::Boundary& bnd = boundaries[i].get();
    problems.push_back({&ctx.a[i], &bnd.sigma_l, &bnd.sigma_r, &ctx.b_top[i],
                        &ctx.b_bot[i]});
  }
  std::vector<CMatrix> xs;
  {
    const parallel::TraceScope trace("batch_device_phase", /*device_id=*/-1);
    if (!rhs_known_nonempty && !solvable.empty()) {
      // Deferred Step 1: prepare exactly the solvable subset so the
      // prepared state matches the problem list element for element.
      std::vector<const BlockTridiag*> solvable_systems;
      solvable_systems.reserve(solvable.size());
      for (const std::size_t i : solvable)
        solvable_systems.push_back(&ctx.a[i]);
      solver.prepare_batched(solvable_systems, backend);
    }
    xs = solver.solve_boundary_batched(problems, backend);
  }
  if (solvable.size() != n && rhs_known_nonempty) {
    // Unreachable by construction (rhs_known_nonempty => every task is
    // solvable), kept as a guard against future shape changes.
    throw std::logic_error("solve_energy_batch: prepared/solved mismatch");
  }

  // --- Stage 3: observables, one task per lane --------------------------
  backend.dispatch("batch_finalize", solvable.size(), [&](std::size_t j) {
    const std::size_t i = solvable[j];
    detail::finalize_observables(results[i], ctx.a[i], boundaries[i].get(),
                                 boundaries[i].get(), have_injection, shapes[i],
                                 xs[j], options);
  });

  if (stats != nullptr) *stats += local;
  return results;
}

}  // namespace omenx::transport
