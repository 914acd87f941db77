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

/// The batch's options at one task's momentum (the boundary-cache key's k).
EnergyPointOptions task_options(const BatchTask& task,
                                const EnergyPointOptions& options) {
  EnergyPointOptions out = options;
  out.k_index = task.k_index;
  return out;
}

/// Residency id of one staged operand: the digest of the boundary keys it
/// derives from, salted with the operand tag.  Id 0 is reserved.
std::uint64_t operand_id(std::uint64_t key_digest, std::uint64_t tag) {
  const std::uint64_t h = numeric::Fnv1a().add(key_digest).add(tag).value();
  return h == 0 ? 1 : h;
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
    if (task.dm->h.num_blocks() != tasks[0].dm->h.num_blocks() ||
        task.dm->h.block_size() != tasks[0].dm->h.block_size())
      throw std::invalid_argument(
          "solve_energy_batch: mixed block structures in one batch");
    task.contacts->validate(task.dm->h.num_blocks());
  }

  // --- Solver + OBC resolution ------------------------------------------
  const idx nb = tasks[0].dm->h.num_blocks();
  const idx sf = tasks[0].dm->h.block_size();
  solvers::SolverContext binding{pool, options.partitions};
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

  BatchStats local{/*batches=*/1, /*tasks=*/static_cast<idx>(n)};

  // An offloading backend stages the pair-route tasks; every other task —
  // and every task on a host backend — runs on a host lane.
  std::vector<std::size_t> staged, laned;
  for (std::size_t i = 0; i < n; ++i)
    (backend.offloads() &&
             pair_route(*tasks[i].contacts, nb, options.scattering)
         ? staged
         : laned)
        .push_back(i);

  // --- Host lanes: one dispatch, each lane one task end to end ----------
  // Lanes run the same scalar kernels whichever way the work is grouped,
  // so tasks overlap one another's OBC and solve phases across lanes and
  // nothing waits on a batch-wide barrier.
  if (!laned.empty()) {
    numeric::Backend& lanes =
        backend.offloads() ? numeric::host_backend() : backend;
    std::vector<detail::FetchTally> tally(laned.size());
    lanes.dispatch("energy_batch", laned.size(), [&](std::size_t j) {
      const BatchTask& task = tasks[laned[j]];
      results[laned[j]] = detail::solve_point(
          detail::thread_context(), *task.dm, *task.contacts, task.energy,
          task_options(task, options), pool, &solver, &tally[j]);
    });
    for (const detail::FetchTally& t : tally) {
      local.prefetch_hits += t.hits;
      local.prefetch_misses += t.misses;
    }
  }
  if (staged.empty()) {
    if (stats != nullptr) *stats += local;
    return results;
  }
  const std::size_t m = staged.size();

  // --- Stage 1: asynchronous OBC prefetch -------------------------------
  // Every task's two end boundaries go to the process thread pool *before*
  // the device phase is issued, so the lead stage runs ahead of (and
  // interleaved with) Step 1 — the paper's CPU/GPU overlap at batch scope.
  // Each job uses its own strategy instance, so concurrent fetches share
  // nothing but the BoundaryCache, whose first-insert-wins discipline makes
  // concurrent misses on one key converge on a single canonical Boundary.
  auto& threads = parallel::ThreadPool::global();
  std::vector<std::future<detail::ContactBoundaries>> prefetch;
  prefetch.reserve(m);
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
  for (const std::size_t i : staged) {
    const BatchTask& task = tasks[i];
    prefetch.push_back(threads.submit([&options, &task] {
      static thread_local numeric::Workspace prefetch_workspace;
      const numeric::WorkspaceScope ws(prefetch_workspace);
      const parallel::TraceScope trace("obc_prefetch", /*device_id=*/-1);
      const auto strategy = obc::make_obc_strategy(options.obc);
      return detail::fetch_contact_boundaries(*strategy, *task.contacts,
                                              cplx{task.energy, 0.0},
                                              task_options(task, options));
    }));
  }

  // With Caroli columns (or a self-energy-only OBC, which forces them)
  // every task has a non-empty RHS, so the whole batch can start its
  // device phase before any boundary arrives.  Otherwise the column
  // count is boundary-dependent and Step 1 waits for the prefetch.
  const bool rhs_known_nonempty = options.want_caroli || !have_injection;
  try {
    // --- Assemble every task's A = E*S - H ------------------------------
    ctx.a.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      const BatchTask& task = tasks[staged[j]];
      ctx.a[j].assign_es_minus_h(cplx{task.energy, 0.0}, task.dm->s,
                                 task.dm->h);
    }
    if (rhs_known_nonempty) {
      std::vector<const BlockTridiag*> systems(m);
      for (std::size_t j = 0; j < m; ++j) systems[j] = &ctx.a[j];
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
  std::vector<detail::ContactBoundaries> boundaries;
  boundaries.reserve(m);
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

  local.device_batches = 1;
  detail::FetchTally tally;
  for (const detail::ContactBoundaries& b : boundaries) tally.add(b);
  local.prefetch_hits += tally.hits;
  local.prefetch_misses += tally.misses;
  std::vector<const obc::Boundary*> left(m), right(m);
  for (std::size_t j = 0; j < m; ++j) {
    const ContactSet& contacts = *tasks[staged[j]].contacts;
    left[j] = boundaries[j].of[static_cast<std::size_t>(contacts.left(nb))];
    right[j] = boundaries[j].of[static_cast<std::size_t>(contacts.right(nb))];
  }

  // --- Shapes + RHS ------------------------------------------------------
  std::vector<detail::RhsShape> shapes(m);
  std::vector<std::size_t> solvable;
  solvable.reserve(m);
  ctx.b_top.resize(m);
  ctx.b_bot.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    EnergyPointResult& out = results[staged[j]];
    out.energy = tasks[staged[j]].energy;
    shapes[j] = detail::task_rhs(out, *left[j], *right[j], have_injection, sf,
                                 options, ctx.b_top[j], ctx.b_bot[j]);
    if (shapes[j].m == 0) continue;  // nothing propagates at this energy
    solvable.push_back(j);
  }

  // --- Stage operands for device residency ------------------------------
  // The boundary products consumed by Stage 2 — the two lead self-energies
  // and the injection RHS blocks — are bit-stable for fixed BoundaryKeys
  // across SCF iterations (only A = E*S - H changes with the potential), so
  // on an offload backend they are staged under ids hashed from the keys
  // they derive from and an operand tag: iteration 1 pays the H2D transfer
  // and pins device residency, every later iteration hits, and a changed
  // lead, shift, or option set is a new id — residency never needs
  // invalidating.  Each self-energy keys on its end contact's
  // representative; the RHS blocks, whose layout reads both ends, on the
  // pair (one key when both ends share a boundary).
  // The A blocks are deliberately *not* staged — their traffic is accounted
  // by the batched calls themselves and re-streams every iteration.
  for (const std::size_t j : solvable) {
    const BatchTask& task = tasks[staged[j]];
    const ContactSet& contacts = *task.contacts;
    const EnergyPointOptions topt = task_options(task, options);
    const cplx e{task.energy, 0.0};
    const auto key_digest = [&](idx c) {
      return detail::boundary_key(
                 contacts[c], static_cast<int>(contacts.representative(c)),
                 e, topt)
          .digest();
    };
    const std::uint64_t kl = key_digest(contacts.left(nb));
    const std::uint64_t kr = key_digest(contacts.right(nb));
    const std::uint64_t kp =
        kl == kr ? kl : numeric::Fnv1a().add(kl).add(kr).value();
    const std::pair<const CMatrix*, std::uint64_t> operands[4] = {
        {&left[j]->sigma_l, operand_id(kl, 1)},
        {&right[j]->sigma_r, operand_id(kr, 2)},
        {&ctx.b_top[j], operand_id(kp, 3)},
        {&ctx.b_bot[j], operand_id(kp, 4)}};
    for (const auto& [op, id] : operands) {
      if (op->rows() == 0 || op->cols() == 0) continue;
      (backend.stage_operand(id, operand_bytes(*op)) ? local.residency_hits
                                                     : local.residency_misses)
          += 1;
    }
  }

  // --- Stage 2: the device phase ----------------------------------------
  std::vector<BoundaryProblem> problems;
  problems.reserve(solvable.size());
  for (const std::size_t j : solvable)
    problems.push_back({&ctx.a[j], &left[j]->sigma_l, &right[j]->sigma_r,
                        &ctx.b_top[j], &ctx.b_bot[j]});
  std::vector<CMatrix> xs;
  {
    const parallel::TraceScope trace("batch_device_phase", /*device_id=*/-1);
    if (!rhs_known_nonempty && !solvable.empty()) {
      // Deferred Step 1: prepare exactly the solvable subset so the
      // prepared state matches the problem list element for element.
      std::vector<const BlockTridiag*> solvable_systems;
      solvable_systems.reserve(solvable.size());
      for (const std::size_t j : solvable)
        solvable_systems.push_back(&ctx.a[j]);
      solver.prepare_batched(solvable_systems, backend);
    }
    xs = solver.solve_boundary_batched(problems, backend);
  }

  // --- Stage 3: observables, one task per lane --------------------------
  backend.dispatch("batch_finalize", solvable.size(), [&](std::size_t s) {
    const std::size_t j = solvable[s];
    detail::finalize_observables(results[staged[j]], ctx.a[j], *left[j],
                                 *right[j], have_injection, shapes[j], xs[s],
                                 options);
  });

  if (stats != nullptr) *stats += local;
  return results;
}

}  // namespace omenx::transport
