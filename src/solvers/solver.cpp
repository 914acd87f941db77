#include "solvers/solver.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/backend.hpp"
#include "numeric/blas.hpp"
#include "numeric/registry.hpp"
#include "parallel/comm.hpp"
#include "parallel/device.hpp"
#include "perf/machine.hpp"
#include "solvers/bcr.hpp"
#include "solvers/block_lu.hpp"
#include "solvers/rgf.hpp"
#include "solvers/spike.hpp"
#include "solvers/splitsolve.hpp"

namespace omenx::solvers {

using numeric::cplx;

namespace {

/// Every problem of one batch must share the block structure — that is what
/// lets the planner fuse their kernels into single batched calls.
void check_batch_shapes(const std::vector<BoundaryProblem>& problems) {
  for (const BoundaryProblem& p : problems) {
    if (p.a == nullptr || p.sigma_l == nullptr || p.sigma_r == nullptr ||
        p.b_top == nullptr || p.b_bot == nullptr)
      throw std::invalid_argument("solve_boundary_batched: null operand");
    if (p.a->num_blocks() != problems.front().a->num_blocks() ||
        p.a->block_size() != problems.front().a->block_size())
      throw std::invalid_argument(
          "solve_boundary_batched: mixed block structures in one batch");
  }
}

/// T = A - sum_p diag(sigma_p at block_p) — the N-terminal generalization
/// of apply_boundary_into.
void apply_attachments_into(BlockTridiag& t, const BlockTridiag& a,
                            const std::vector<Attachment>& attachments) {
  t = a;
  for (const Attachment& at : attachments)
    t.diag(at.block).add_block(0, 0, *at.sigma, cplx{-1.0});
}

/// Dense RHS with the listed block rows occupied (everything else zero).
void expand_attached_rhs_into(CMatrix& b, idx dim, idx s,
                              const std::vector<RhsBlock>& rhs) {
  b.resize(dim, rhs.front().b->cols());
  for (const RhsBlock& r : rhs) b.set_block(r.block * s, 0, *r.b);
}

/// Checks the attachment/RHS lists and reports whether this problem is the
/// classic {0, nb-1} corner pair (solvable by every backend through
/// solve_boundary).
bool attachments_are_corner_pair(const BlockTridiag& a,
                                 const std::vector<Attachment>& attachments,
                                 const std::vector<RhsBlock>& rhs,
                                 const char* who) {
  const idx nb = a.num_blocks();
  if (attachments.empty() || rhs.empty())
    throw std::invalid_argument(std::string(who) +
                                ": empty attachment or RHS list");
  bool corners = attachments.size() == 2;
  for (const Attachment& at : attachments) {
    if (at.sigma == nullptr)
      throw std::invalid_argument(std::string(who) + ": null self-energy");
    if (at.block < 0 || at.block >= nb)
      throw std::invalid_argument(std::string(who) +
                                  ": attachment block out of range");
    corners = corners && (at.block == 0 || at.block == nb - 1);
  }
  for (const RhsBlock& r : rhs) {
    if (r.b == nullptr)
      throw std::invalid_argument(std::string(who) + ": null RHS block");
    if (r.block < 0 || r.block >= nb)
      throw std::invalid_argument(std::string(who) +
                                  ": RHS block out of range");
    if (r.b->cols() != rhs.front().b->cols())
      throw std::invalid_argument(std::string(who) +
                                  ": RHS column counts differ");
    corners = corners && (r.block == 0 || r.block == nb - 1);
  }
  if (corners && attachments.size() == 2 &&
      attachments[0].block == attachments[1].block)
    throw std::invalid_argument(std::string(who) +
                                ": duplicate attachment block");
  return corners && nb > 1;
}

}  // namespace

// --- base-class defaults ---------------------------------------------------

void Solver::factor(const BlockTridiag&) {
  throw std::logic_error(std::string(name()) +
                         ": factor/solve is not supported by this backend");
}

CMatrix Solver::solve(const CMatrix&) {
  throw std::logic_error(std::string(name()) +
                         ": factor/solve is not supported by this backend");
}

CMatrix Solver::solve_boundary(const BlockTridiag& a, const CMatrix& sigma_l,
                               const CMatrix& sigma_r, const CMatrix& b_top,
                               const CMatrix& b_bot) {
  apply_boundary_into(t_, a, sigma_l, sigma_r);
  factor(t_);
  expand_boundary_rhs_into(b_, a.dim(), b_top, b_bot);
  return solve(b_);
}

CMatrix Solver::solve_attached(const BlockTridiag& a,
                               const std::vector<Attachment>& attachments,
                               const std::vector<RhsBlock>& rhs) {
  if (attachments_are_corner_pair(a, attachments, rhs, name())) {
    // Classic source/drain pair: route through solve_boundary so every
    // backend's validated (and overridden) 2-terminal path serves it,
    // bit-identically to the pre-refactor call.
    const idx nb = a.num_blocks();
    const idx s = a.block_size();
    const idx m = rhs.front().b->cols();
    const CMatrix* sl = attachments[0].block == 0 ? attachments[0].sigma
                                                  : attachments[1].sigma;
    const CMatrix* sr = attachments[0].block == nb - 1 ? attachments[0].sigma
                                                       : attachments[1].sigma;
    CMatrix b_top(s, m), b_bot(s, m);
    for (const RhsBlock& r : rhs) (r.block == 0 ? b_top : b_bot) = *r.b;
    return solve_boundary(a, *sl, *sr, b_top, b_bot);
  }
  if ((capabilities() & kMultiTerminal) == 0)
    throw std::logic_error(
        std::string(name()) +
        ": interior attachment blocks need a kMultiTerminal backend");
  // Generic interior path for kFactorSolve backends: apply every
  // self-energy, factor, solve the expanded dense RHS.  kMultiTerminal
  // backends without factor/solve (rgf) override this method.
  apply_attachments_into(t_, a, attachments);
  factor(t_);
  expand_attached_rhs_into(b_, a.dim(), a.block_size(), rhs);
  return solve(b_);
}

std::vector<CMatrix> Solver::solve_boundary_batched(
    const std::vector<BoundaryProblem>& problems, numeric::Backend& backend) {
  if ((capabilities() & kBatchable) == 0)
    throw std::invalid_argument(std::string(name()) +
                                ": solve_boundary_batched needs a kBatchable "
                                "backend");
  check_batch_shapes(problems);
  std::vector<CMatrix> xs(problems.size());
  // Lanes run the same scalar kernels whether rows or problems are grouped,
  // so a batch goes out by problem: one dispatch, each lane solving whole
  // problems on its own scratch.
  backend.dispatch("solve_boundary_batched", problems.size(),
                   [&](std::size_t p) {
                     xs[p] = solve_boundary_problem(problems[p]);
                   });
  return xs;
}

CMatrix Solver::solve_boundary_problem(const BoundaryProblem& problem) const {
  (void)problem;
  throw std::logic_error(std::string(name()) +
                         ": solve_boundary_problem needs a kBatchable backend");
}

std::vector<CMatrix> Solver::diagonal_blocks(const BlockTridiag& t) {
  if ((capabilities() & kFactorSolve) == 0)
    throw std::logic_error(std::string(name()) +
                           ": diagonal_blocks is not supported");
  factor(t);
  const idx nb = t.num_blocks();
  const idx s = t.block_size();
  std::vector<CMatrix> out;
  out.reserve(static_cast<std::size_t>(nb));
  CMatrix e(t.dim(), s);
  for (idx i = 0; i < nb; ++i) {
    for (idx d = 0; d < s; ++d) e(i * s + d, d) = cplx{1.0};
    const CMatrix x = solve(e);
    out.push_back(x.block(i * s, 0, s, s));
    for (idx d = 0; d < s; ++d) e(i * s + d, d) = cplx{0.0};
  }
  return out;
}

// --- concrete strategies ---------------------------------------------------

namespace {

/// Block Thomas factorization (the MUMPS stand-in of Fig. 8).  Factor once,
/// solve any number of dense right-hand sides.
class BlockLUSolver final : public Solver {
 public:
  const char* name() const noexcept override { return "block_lu"; }
  unsigned capabilities() const noexcept override {
    // kMultiTerminal is served by the base-class generic path: apply every
    // attachment, factor, solve the dense RHS.
    return kFactorSolve | kBatchable | kMultiTerminal;
  }
  void factor(const BlockTridiag& t) override { lu_.factor(t); }
  CMatrix solve(const CMatrix& b) override { return lu_.solve(b); }
  CMatrix solve_boundary_problem(const BoundaryProblem& pr) const override {
    BlockTridiag t;
    apply_boundary_into(t, *pr.a, *pr.sigma_l, *pr.sigma_r);
    const BlockTridiagLU lu(t);
    return lu.solve(expand_boundary_rhs(pr.a->dim(), *pr.b_top, *pr.b_bot));
  }
  std::vector<CMatrix> solve_boundary_batched(
      const std::vector<BoundaryProblem>& problems,
      numeric::Backend& backend) override {
    if (!backend.offloads() || problems.empty())
      return Solver::solve_boundary_batched(problems, backend);
    check_batch_shapes(problems);
    const std::size_t n = problems.size();
    std::vector<CMatrix> xs(n);
    // Offload: boundary application is cheap copies; run it as one dispatch
    // so every stream assembles its own T = A - diag-corner(Sigma_L, Sigma_R).
    ts_.resize(n);
    backend.dispatch("block_lu_apply_boundary", n, [&](std::size_t p) {
      apply_boundary_into(ts_[p], *problems[p].a, *problems[p].sigma_l,
                          *problems[p].sigma_r);
    });
    std::vector<const BlockTridiag*> systems(n);
    for (std::size_t p = 0; p < n; ++p) systems[p] = &ts_[p];
    // The whole batch factors in stage lockstep: each elimination row issues
    // one batched left-solve, one batched GEMM, one batched LU — the fused
    // device-kernel shape.
    BlockTridiagLU::factor_batched(lus_, systems, backend);
    backend.dispatch("block_lu_solve_batched", n, [&](std::size_t p) {
      const CMatrix b = expand_boundary_rhs(problems[p].a->dim(),
                                            *problems[p].b_top,
                                            *problems[p].b_bot);
      xs[p] = lus_[p].solve(b);
    });
    return xs;
  }

 private:
  BlockTridiagLU lu_;
  std::vector<BlockTridiag> ts_;    ///< offload path: boundary-applied systems
  std::vector<BlockTridiagLU> lus_; ///< offload path: per-problem factors
};

/// Block cyclic reduction (OMEN's tight-binding solver).  BCR has no
/// persistent factorization: factor() pins the system, solve() reduces it
/// per right-hand-side set.
class BcrSolver final : public Solver {
 public:
  const char* name() const noexcept override { return "bcr"; }
  unsigned capabilities() const noexcept override { return kFactorSolve; }
  void factor(const BlockTridiag& t) override { sys_ = &t; }
  CMatrix solve(const CMatrix& b) override {
    if (sys_ == nullptr) throw std::logic_error("bcr: factor() first");
    return bcr_solve(*sys_, b);
  }

 private:
  const BlockTridiag* sys_ = nullptr;  ///< valid until the next factor()
};

/// Recursive Green's function (Algorithm 1): first/last block columns of
/// T^{-1} serve the corner-structured boundary RHS exactly; the two-sweep
/// diagonal recursion serves LDOS/charge natively.
class RgfSolver final : public Solver {
 public:
  const char* name() const noexcept override { return "rgf"; }
  unsigned capabilities() const noexcept override {
    return kDiagonalBlocksNative | kBatchable | kMultiTerminal;
  }
  CMatrix solve_attached(const BlockTridiag& a,
                         const std::vector<Attachment>& attachments,
                         const std::vector<RhsBlock>& rhs) override {
    if (attachments_are_corner_pair(a, attachments, rhs, name()))
      return Solver::solve_attached(a, attachments, rhs);
    // Interior attachments break the corner-RHS structure the block-column
    // kernel exploits; run the RGF downward-fold recursion against the full
    // dense RHS instead (rgf_solve = block Thomas with per-block LU pivots).
    apply_attachments_into(t_, a, attachments);
    expand_attached_rhs_into(b_, a.dim(), a.block_size(), rhs);
    return rgf_solve(t_, b_);
  }
  CMatrix solve_boundary(const BlockTridiag& a, const CMatrix& sigma_l,
                         const CMatrix& sigma_r, const CMatrix& b_top,
                         const CMatrix& b_bot) override {
    apply_boundary_into(t_, a, sigma_l, sigma_r);
    const CMatrix q = rgf_block_columns(t_);
    return columns_times_rhs(q, a, b_top, b_bot);
  }
  CMatrix solve_boundary_problem(const BoundaryProblem& pr) const override {
    // solve_boundary on local scratch (the t_ member is single-lane only).
    BlockTridiag t;
    apply_boundary_into(t, *pr.a, *pr.sigma_l, *pr.sigma_r);
    const CMatrix q = rgf_block_columns(t);
    return columns_times_rhs(q, *pr.a, *pr.b_top, *pr.b_bot);
  }
  std::vector<CMatrix> diagonal_blocks(const BlockTridiag& t) override {
    return rgf_diagonal_blocks(t);
  }

  /// x = Q_first b_top + Q_last b_bot — shared with the SPIKE strategy.
  static CMatrix columns_times_rhs(const CMatrix& q, const BlockTridiag& a,
                                   const CMatrix& b_top,
                                   const CMatrix& b_bot) {
    const idx s = a.block_size();
    const CMatrix qf = q.block(0, 0, a.dim(), s);
    const CMatrix ql = q.block(0, s, a.dim(), s);
    CMatrix x;
    numeric::gemm(qf, b_top, x);
    numeric::gemm(ql, b_bot, x, cplx{1.0}, cplx{1.0});
    return x;
  }
};

/// SPIKE partitions of the boundary-applied T: on the accelerator pool when
/// one is bound, across the spatial communicator's ranks when it has more
/// than one (the members hold no self-energies, so the end partitions are
/// pinned to the root — see spike_partition_owner).
class SpikeSolver final : public Solver {
 public:
  explicit SpikeSolver(const SolverContext& ctx) : ctx_(ctx) {}
  const char* name() const noexcept override { return "spike"; }
  unsigned capabilities() const noexcept override {
    return kDiagonalBlocksNative | kSpatialCooperative | kUsesDevicePool;
  }
  CMatrix solve_boundary(const BlockTridiag& a, const CMatrix& sigma_l,
                         const CMatrix& sigma_r, const CMatrix& b_top,
                         const CMatrix& b_bot) override {
    apply_boundary_into(t_, a, sigma_l, sigma_r);
    SpikeOptions so;
    so.partitions = ctx_.partitions;
    CMatrix q;
    if (ctx_.spatial != nullptr && ctx_.spatial->size() > 1)
      q = spike_block_columns_spatial_root(t_, *ctx_.spatial, ctx_.partitions,
                                           /*ends_to_root=*/true);
    else if (ctx_.pool != nullptr)
      q = spike_block_columns(t_, *ctx_.pool, so);
    else
      q = spike_block_columns(t_, so);
    return RgfSolver::columns_times_rhs(q, a, b_top, b_bot);
  }
  std::vector<CMatrix> diagonal_blocks(const BlockTridiag& t) override {
    return spike_diagonal_blocks(t, ctx_.partitions);
  }
  void discard() override {
    // A skipped solve leaves the members' partition transfers pending.
    if (ctx_.spatial != nullptr && ctx_.spatial->size() > 1)
      spike_spatial_drain(*ctx_.spatial, ctx_.partitions,
                          /*ends_to_root=*/true);
  }

 private:
  SolverContext ctx_;
};

/// SplitSolve (Section 3B): Step 1 (Q = A^{-1} B) starts in prepare() —
/// before the boundary self-energies exist — on the accelerators or across
/// the spatial ranks; solve_boundary runs the cheap SMW steps 2-4.
class SplitSolveSolver final : public Solver {
 public:
  explicit SplitSolveSolver(const SolverContext& ctx) : ctx_(ctx) {}
  const char* name() const noexcept override { return "splitsolve"; }
  unsigned capabilities() const noexcept override {
    return kDiagonalBlocksNative | kOverlapPrepare | kSpatialCooperative |
           kUsesDevicePool | kBatchable;
  }
  void prepare_batched(const std::vector<const BlockTridiag*>& systems,
                       numeric::Backend& backend) override {
    // On an offloading backend, Step 1 (Q_i = A_i^{-1} B) for the whole
    // batch is one dispatch: the heavy phase the engine overlaps with the
    // asynchronous OBC stage.  Host lanes run Step 1 inside each problem's
    // own lane (solve_boundary_problem), so there is nothing to prepare.
    qs_.clear();
    if (!backend.offloads()) return;
    qs_.assign(systems.size(), CMatrix());
    backend.dispatch("splitsolve_step1_batched", systems.size(),
                     [&](std::size_t p) {
                       if (systems[p] == nullptr)
                         throw std::invalid_argument(
                             "splitsolve: null system in batch");
                       qs_[p] = step1(*systems[p]);
                     });
  }
  CMatrix solve_boundary_problem(const BoundaryProblem& pr) const override {
    return SplitSolve::solve_with_q(step1(*pr.a), pr.a->dim(),
                                    pr.a->block_size(), *pr.sigma_l,
                                    *pr.sigma_r, *pr.b_top, *pr.b_bot);
  }
  std::vector<CMatrix> solve_boundary_batched(
      const std::vector<BoundaryProblem>& problems,
      numeric::Backend& backend) override {
    if (!backend.offloads() || problems.empty()) {
      qs_.clear();
      return Solver::solve_boundary_batched(problems, backend);
    }
    check_batch_shapes(problems);
    if (qs_.size() != problems.size()) {
      // No (or mismatched) prepare_batched: run Step 1 now, unoverlapped.
      std::vector<const BlockTridiag*> systems(problems.size());
      for (std::size_t p = 0; p < problems.size(); ++p)
        systems[p] = problems[p].a;
      prepare_batched(systems, backend);
    }
    std::vector<CMatrix> xs(problems.size());
    backend.dispatch("splitsolve_smw_batched", problems.size(),
                     [&](std::size_t p) {
                       const BoundaryProblem& pr = problems[p];
                       xs[p] = SplitSolve::solve_with_q(
                           qs_[p], pr.a->dim(), pr.a->block_size(),
                           *pr.sigma_l, *pr.sigma_r, *pr.b_top, *pr.b_bot);
                     });
    qs_.clear();  // Q is per-system; the next batch prepares anew
    return xs;
  }
  void prepare(const BlockTridiag& a) override {
    const bool spatial = ctx_.spatial != nullptr && ctx_.spatial->size() > 1;
    if (!spatial && ctx_.pool == nullptr)
      throw std::invalid_argument(
          "splitsolve: requires a device pool or a spatial communicator");
    SplitSolveOptions opts;
    opts.partitions = ctx_.partitions;
    opts.spatial = spatial ? ctx_.spatial : nullptr;
    // Join any previous instance's Step 1 *before* launching the new one:
    // a skipped solve (no propagating modes at the point) leaves the old
    // async consumer alive, and two consumers on one spatial communicator
    // would race for the members' partition messages.
    split_.reset();
    split_ = std::make_unique<SplitSolve>(a, ctx_.pool, opts);
  }
  CMatrix solve_boundary(const BlockTridiag& a, const CMatrix& sigma_l,
                         const CMatrix& sigma_r, const CMatrix& b_top,
                         const CMatrix& b_bot) override {
    if (split_ == nullptr) prepare(a);
    CMatrix x = split_->solve(sigma_l, sigma_r, b_top, b_bot);
    split_.reset();  // Q is per-system; the next point prepares anew
    return x;
  }
  std::vector<CMatrix> diagonal_blocks(const BlockTridiag& t) override {
    return spike_diagonal_blocks(t, ctx_.partitions);
  }
  void discard() override {
    // Join Step 1 now: its async consumer drains the spatial members'
    // transfers even when the solve itself is skipped.
    split_.reset();
  }

 private:
  /// Step 1 on the calling thread: the *serial* SPIKE block-column kernel,
  /// bit-identical to the pool and spatial variants for equal partition
  /// counts — so batches need no device pool and still match the scalar
  /// splitsolve path to the bit.
  CMatrix step1(const BlockTridiag& a) const {
    SpikeOptions so;
    so.partitions = ctx_.partitions;
    return spike_block_columns(a, so);
  }

  SolverContext ctx_;
  std::unique_ptr<SplitSolve> split_;
  std::vector<CMatrix> qs_;  ///< per-problem Step 1 results of the batch
};

// --- registry --------------------------------------------------------------

numeric::Registry<SolverFactory>& registry() {
  static auto* r = new numeric::Registry<SolverFactory>({
      {"rgf",
       [](const SolverContext&) { return std::make_unique<RgfSolver>(); }},
      {"block_lu",
       [](const SolverContext&) { return std::make_unique<BlockLUSolver>(); }},
      {"bcr",
       [](const SolverContext&) { return std::make_unique<BcrSolver>(); }},
      {"spike",
       [](const SolverContext& ctx) {
         return std::make_unique<SpikeSolver>(ctx);
       }},
      {"splitsolve",
       [](const SolverContext& ctx) {
         return std::make_unique<SplitSolveSolver>(ctx);
       }},
  });
  return *r;
}

}  // namespace

void register_solver(const std::string& name, SolverFactory factory) {
  registry().set(name, std::move(factory));
}

std::vector<std::string> registered_solvers() { return registry().names(); }

std::unique_ptr<Solver> make_solver(const std::string& name,
                                    const SolverContext& ctx) {
  const SolverFactory factory = registry().find(name);
  if (!factory)
    throw std::invalid_argument("make_solver: unknown backend '" + name + "'");
  return factory(ctx);
}

const char* algorithm_name(SolverAlgorithm algo) noexcept {
  switch (algo) {
    case SolverAlgorithm::kSplitSolve:
      return "splitsolve";
    case SolverAlgorithm::kBlockLU:
      return "block_lu";
    case SolverAlgorithm::kBcr:
      return "bcr";
    case SolverAlgorithm::kRgf:
      return "rgf";
    case SolverAlgorithm::kSpike:
      return "spike";
    case SolverAlgorithm::kAuto:
      return "auto";
  }
  return "auto";
}

bool algorithm_is_cooperative(SolverAlgorithm algo) noexcept {
  return algo == SolverAlgorithm::kSpike ||
         algo == SolverAlgorithm::kSplitSolve;
}

unsigned algorithm_capabilities(SolverAlgorithm algo) noexcept {
  // Mirrors the capabilities() of the registered built-ins — kept static so
  // planners (the engine's batch scheduler, kAuto) can query capabilities
  // without instantiating a backend.
  switch (algo) {
    case SolverAlgorithm::kBlockLU:
      return kFactorSolve | kBatchable | kMultiTerminal;
    case SolverAlgorithm::kBcr:
      return kFactorSolve;
    case SolverAlgorithm::kRgf:
      return kDiagonalBlocksNative | kBatchable | kMultiTerminal;
    case SolverAlgorithm::kSpike:
      return kDiagonalBlocksNative | kSpatialCooperative | kUsesDevicePool;
    case SolverAlgorithm::kSplitSolve:
      return kDiagonalBlocksNative | kOverlapPrepare | kSpatialCooperative |
             kUsesDevicePool | kBatchable;
    case SolverAlgorithm::kAuto:
      return 0;
  }
  return 0;
}

// --- cost model ------------------------------------------------------------

namespace {

/// Complex-arithmetic flop estimates per backend for a boundary solve of an
/// nb-block system (block size s, m RHS columns).  Constants follow the
/// kernel mix: one s x s complex LU ~ (8/3) s^3 real flops, one s x s
/// complex GEMM ~ 8 s^3.
struct CostInputs {
  double nb, s, m;
  double executors;  ///< parallel lanes for partitioned work
  double obc_overlap_seconds;
  double cpu_flops;  ///< per-second
};

double lu_seconds(const CostInputs& c) {
  const double factor = c.nb * (8.0 / 3.0 * c.s * c.s * c.s +
                                2.0 * 8.0 * c.s * c.s * c.s);
  // Per block row: two triangular solves (~4 s^2 m each) and two coupling
  // GEMMs (~8 s^2 m each) across the forward/backward sweeps.
  const double solve = 24.0 * c.nb * c.s * c.s * c.m;
  return (factor + solve) / c.cpu_flops;
}

double bcr_seconds(const CostInputs& c) {
  // Fill-in on dense DFT blocks: measured ~2.2x the block-LU work (fig08).
  return 2.2 * lu_seconds(c);
}

double rgf_seconds(const CostInputs& c) {
  // Two column sweeps (~19 s^3 per block each) + x = Q * rhs.
  const double sweeps = 38.0 * c.nb * c.s * c.s * c.s;
  const double apply = 16.0 * c.nb * c.s * c.s * c.m;
  return (sweeps + apply) / c.cpu_flops;
}

double spike_seconds(const CostInputs& c, int partitions) {
  const double p = static_cast<double>(partitions);
  const double sweeps =
      38.0 * c.nb * c.s * c.s * c.s / std::min(c.executors, p);
  const double reduced =
      (p - 1.0) * (8.0 / 3.0 + 16.0) * 8.0 * c.s * c.s * c.s;
  const double correct =
      32.0 * c.nb * c.s * c.s * c.s / std::min(c.executors, p);
  const double apply = 16.0 * c.nb * c.s * c.s * c.m;
  return (sweeps + reduced + correct + apply) / c.cpu_flops;
}

double splitsolve_seconds(const CostInputs& c, int partitions) {
  // Step 1 is the spike cost on A, overlapped with the OBC solve; steps 2-4
  // are O(s^3 + s^2 m).
  const double step1 = spike_seconds(c, partitions);
  const double smw = (8.0 * 8.0 * c.s * c.s * c.s +
                      32.0 * c.s * c.s * c.m + 16.0 * c.nb * c.s * c.s * c.m) /
                     c.cpu_flops;
  return std::max(0.25 * step1, step1 - c.obc_overlap_seconds) + smw;
}

}  // namespace

double estimate_boundary_solve_seconds(SolverAlgorithm algo, idx nb, idx s,
                                       idx nrhs, int partitions,
                                       int executors) {
  const perf::MachineSpec& spec = perf::MachineSpec::host();
  CostInputs c;
  c.nb = static_cast<double>(nb);
  c.s = static_cast<double>(s);
  c.m = static_cast<double>(nrhs);
  c.executors = static_cast<double>(std::max(1, executors));
  c.cpu_flops = spec.cpu_gflops * 1e9;
  // The OBC eigenproblem SplitSolve overlaps with: a handful of dense
  // s-sized eigensolves (FEAST subspace iterations).
  c.obc_overlap_seconds = 60.0 * c.s * c.s * c.s / c.cpu_flops;
  switch (algo) {
    case SolverAlgorithm::kBlockLU:
      return lu_seconds(c);
    case SolverAlgorithm::kBcr:
      return bcr_seconds(c);
    case SolverAlgorithm::kRgf:
      return rgf_seconds(c);
    case SolverAlgorithm::kSpike:
      return spike_seconds(c, partitions);
    case SolverAlgorithm::kSplitSolve:
      return splitsolve_seconds(c, partitions);
    case SolverAlgorithm::kAuto:
      break;
  }
  throw std::invalid_argument(
      "estimate_boundary_solve_seconds: resolve kAuto first");
}

SolverAlgorithm auto_algorithm(idx nb, idx s, idx nrhs,
                               const SolverContext& ctx) {
  const int width = ctx.spatial != nullptr ? ctx.spatial->size() : 1;
  const int devices = ctx.pool != nullptr ? ctx.pool->size() : 0;
  const bool partitioned_ok =
      ctx.partitions > 1 && spike_partitioning_valid(nb, ctx.partitions);
  const int executors =
      partitioned_ok ? std::max(width, std::max(1, devices)) : 1;

  // With a batched caller (ctx.batch > 1), kBatchable candidates run their
  // heavy kernels as fused backend calls and are credited the measured
  // batched-GEMM throughput of the node model.  The credit is a pure
  // function of MachineSpec::host() and ctx.batch, so the kAuto determinism
  // guarantee holds as long as every rank passes the same nominal batch.
  const perf::MachineSpec& spec = perf::MachineSpec::host();
  // An offload backend runs the fused kernels on accelerator streams, so
  // its credit is the device peak; on the emulated host model gpu ==
  // cpu <= batched throughput, so the max() below leaves in-process
  // resolution untouched (see SolverContext::backend).
  const double stream_credit =
      ctx.backend != nullptr && ctx.backend->offloads()
          ? spec.gpu_gflops / spec.cpu_gflops
          : 1.0;
  const double batch_credit =
      ctx.batch > 1
          ? std::max({1.0, spec.batched_gemm_gflops / spec.cpu_gflops,
                      stream_credit})
          : 1.0;
  auto estimate = [&](SolverAlgorithm algo) {
    double seconds = estimate_boundary_solve_seconds(algo, nb, s, nrhs,
                                                     ctx.partitions, executors);
    if ((algorithm_capabilities(algo) & kBatchable) != 0)
      seconds /= batch_credit;
    return seconds;
  };
  SolverAlgorithm best = SolverAlgorithm::kBlockLU;
  double best_seconds = estimate(best);
  auto consider = [&](SolverAlgorithm algo) {
    const double seconds = estimate(algo);
    if (seconds < best_seconds) {
      best = algo;
      best_seconds = seconds;
    }
  };
  consider(SolverAlgorithm::kBcr);
  consider(SolverAlgorithm::kRgf);
  if (partitioned_ok && (devices > 0 || width > 1))
    consider(SolverAlgorithm::kSpike);
  // Batched SplitSolve runs Step 1 on backend lanes, so it no longer needs
  // accelerators or a spatial group to be worth considering.
  if (partitioned_ok && (devices > 0 || width > 1 || ctx.batch > 1))
    consider(SolverAlgorithm::kSplitSolve);
  return best;
}

SolverAlgorithm resolve_algorithm(SolverAlgorithm requested, idx nb, idx s,
                                  idx nrhs, const SolverContext& ctx) {
  if (requested != SolverAlgorithm::kAuto) return requested;
  return auto_algorithm(nb, s, nrhs, ctx);
}

std::unique_ptr<Solver> make_solver(SolverAlgorithm algo,
                                    const SolverContext& ctx) {
  if (algo == SolverAlgorithm::kAuto)
    throw std::invalid_argument(
        "make_solver: resolve kAuto through resolve_algorithm first (the "
        "choice depends on the system shape)");
  return make_solver(algorithm_name(algo), ctx);
}

}  // namespace omenx::solvers
