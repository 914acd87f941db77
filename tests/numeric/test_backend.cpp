// numeric::Backend parity tests: every batched entry point must be
// bit-identical — not merely close — to the scalar kernels it fuses, on
// every item of the batch.  The engine's batched sweep path relies on this
// to keep spectra and charge reproducible between batched and unbatched
// runs (and across world sizes / work stealing, which change the batch
// composition).
#include "numeric/backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "blockmat/block_tridiag.hpp"
#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "numeric/device_backend.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "parallel/device.hpp"
#include "parallel/thread_pool.hpp"
#include "solvers/block_lu.hpp"
#include "solvers/solver.hpp"
#include "transport/batch.hpp"

namespace bm = omenx::blockmat;
namespace df = omenx::dft;
namespace nm = omenx::numeric;
namespace sv = omenx::solvers;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

void expect_bit_identical(const CMatrix& a, const CMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j).real(), b(i, j).real()) << "(" << i << "," << j << ")";
      EXPECT_EQ(a(i, j).imag(), b(i, j).imag()) << "(" << i << "," << j << ")";
    }
}

CMatrix well_conditioned(idx n, unsigned seed) {
  CMatrix a = nm::random_cmatrix(n, n, seed);
  for (idx i = 0; i < n; ++i) a(i, i) += cplx{double(n), 0.5};
  return a;
}

bm::BlockTridiag random_system(idx nb, idx s, unsigned seed) {
  bm::BlockTridiag t(nb, s);
  for (idx i = 0; i < nb; ++i) {
    t.diag(i) = nm::random_cmatrix(s, s, seed + static_cast<unsigned>(i));
    for (idx d = 0; d < s; ++d) t.diag(i)(d, d) += cplx{6.0, 0.5};
    if (i + 1 < nb) {
      t.upper(i) =
          nm::random_cmatrix(s, s, seed + 1000 + static_cast<unsigned>(i));
      t.lower(i) =
          nm::random_cmatrix(s, s, seed + 2000 + static_cast<unsigned>(i));
    }
  }
  return t;
}

}  // namespace

TEST(Backend, HostIsRegistered) {
  EXPECT_STREQ(nm::host_backend().name(), "host");
  EXPECT_GE(nm::host_backend().lanes(), 1);
  EXPECT_EQ(nm::find_backend("host"), &nm::host_backend());
  EXPECT_EQ(nm::find_backend("no-such-backend"), nullptr);
  const auto names = nm::registered_backends();
  EXPECT_NE(std::find(names.begin(), names.end(), "host"), names.end());
}

TEST(Backend, DispatchCoversEveryItemExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  nm::host_backend().dispatch("test_cover", hits.size(),
                              [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Backend, DispatchPropagatesFirstException) {
  EXPECT_THROW(nm::host_backend().dispatch(
                   "test_throw", 16,
                   [&](std::size_t i) {
                     if (i % 2 == 1) throw std::runtime_error("lane failure");
                   }),
               std::runtime_error);
}

TEST(Backend, NestedDispatchFromALaneDegradesToSerial) {
  // A batched kernel that itself issues a batch must not deadlock on the
  // shared pool: the inner dispatch runs serially on the lane.
  std::atomic<int> total{0};
  nm::host_backend().dispatch("outer", 8, [&](std::size_t) {
    nm::host_backend().dispatch("inner", 8,
                                [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(Backend, DispatchFromAPoolWorkerRunsInline) {
  // A caller already on a pool worker (a sweep run inside the global pool)
  // must not block on futures of the pool it occupies: with every worker
  // inside an outer item, a submitting dispatch could wait forever.  The
  // inner batch runs serially on the calling worker instead.
  EXPECT_FALSE(omenx::parallel::ThreadPool::in_worker());
  std::atomic<int> total{0};
  std::atomic<int> off_thread{0};
  omenx::parallel::ThreadPool::global().parallel_for(16, [&](std::size_t) {
    EXPECT_TRUE(omenx::parallel::ThreadPool::in_worker());
    const std::thread::id caller = std::this_thread::get_id();
    nm::host_backend().dispatch("inner", 8, [&](std::size_t) {
      total++;
      if (std::this_thread::get_id() != caller) off_thread++;
    });
  });
  EXPECT_EQ(total.load(), 128);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(Backend, GemmBatchedBitIdenticalToScalarLoop) {
  const idx m = 13, n = 9, k = 11;
  const std::size_t batch = 12;
  std::vector<CMatrix> as, bs, cs, refs;
  for (std::size_t p = 0; p < batch; ++p) {
    as.push_back(nm::random_cmatrix(m, k, 100 + static_cast<unsigned>(p)));
    bs.push_back(nm::random_cmatrix(k, n, 200 + static_cast<unsigned>(p)));
    cs.push_back(nm::random_cmatrix(m, n, 300 + static_cast<unsigned>(p)));
    refs.push_back(cs.back());
  }
  const cplx alpha{-1.0, 0.25}, beta{0.5, -0.125};
  for (std::size_t p = 0; p < batch; ++p)
    nm::gemm(as[p], bs[p], refs[p], alpha, beta);

  std::vector<nm::GemmBatchItem> items;
  for (std::size_t p = 0; p < batch; ++p)
    items.push_back({as[p].data(), as[p].cols(), bs[p].data(), bs[p].cols(),
                     cs[p].data(), cs[p].cols()});
  nm::host_backend().gemm_batched('N', 'N', m, n, k, alpha, beta, items);
  for (std::size_t p = 0; p < batch; ++p) expect_bit_identical(cs[p], refs[p]);
}

TEST(Backend, LuFactorAndSolveBatchedBitIdentical) {
  const idx s = 17;
  const std::size_t batch = 9;
  std::vector<CMatrix> as, bs;
  for (std::size_t p = 0; p < batch; ++p) {
    as.push_back(well_conditioned(s, 400 + static_cast<unsigned>(p)));
    bs.push_back(
        nm::random_cmatrix(s, 3 + static_cast<idx>(p % 2),
                           500 + static_cast<unsigned>(p)));
  }
  std::vector<const CMatrix*> a_ptrs, b_ptrs;
  for (std::size_t p = 0; p < batch; ++p) {
    a_ptrs.push_back(&as[p]);
    b_ptrs.push_back(&bs[p]);
  }
  auto factors = nm::host_backend().lu_factor_batched(a_ptrs);
  ASSERT_EQ(factors.size(), batch);
  std::vector<const nm::LUFactor*> f_ptrs;
  for (const auto& f : factors) f_ptrs.push_back(&f);

  std::vector<CMatrix> xs;
  nm::host_backend().lu_solve_batched(f_ptrs, b_ptrs, xs);
  ASSERT_EQ(xs.size(), batch);
  for (std::size_t p = 0; p < batch; ++p) {
    const nm::LUFactor ref(as[p]);
    expect_bit_identical(xs[p], ref.solve(bs[p]));
  }
}

TEST(Backend, LuSolveLeftBatchedBitIdentical) {
  const idx s = 12;
  const std::size_t batch = 7;
  std::vector<CMatrix> as, bs;
  for (std::size_t p = 0; p < batch; ++p) {
    as.push_back(well_conditioned(s, 600 + static_cast<unsigned>(p)));
    bs.push_back(nm::random_cmatrix(s, s, 700 + static_cast<unsigned>(p)));
  }
  std::vector<const CMatrix*> a_ptrs, b_ptrs;
  for (std::size_t p = 0; p < batch; ++p) {
    a_ptrs.push_back(&as[p]);
    b_ptrs.push_back(&bs[p]);
  }
  const auto factors = nm::host_backend().lu_factor_batched(a_ptrs);
  std::vector<const nm::LUFactor*> f_ptrs;
  for (const auto& f : factors) f_ptrs.push_back(&f);
  std::vector<CMatrix> xs;
  nm::host_backend().lu_solve_left_batched(f_ptrs, b_ptrs, xs);
  for (std::size_t p = 0; p < batch; ++p) {
    const nm::LUFactor ref(as[p]);
    expect_bit_identical(xs[p], ref.solve_left(bs[p]));
  }
}

TEST(Backend, BlockTridiagFactorBatchedBitIdenticalToScalar) {
  const idx nb = 6, s = 5;
  const std::size_t batch = 8;
  std::vector<bm::BlockTridiag> systems;
  for (std::size_t p = 0; p < batch; ++p)
    systems.push_back(random_system(nb, s, 800 + 10 * static_cast<unsigned>(p)));
  std::vector<const bm::BlockTridiag*> ptrs;
  for (const auto& t : systems) ptrs.push_back(&t);

  std::vector<sv::BlockTridiagLU> batched;
  sv::BlockTridiagLU::factor_batched(batched, ptrs, nm::host_backend());
  ASSERT_EQ(batched.size(), batch);

  for (std::size_t p = 0; p < batch; ++p) {
    const CMatrix b = nm::random_cmatrix(systems[p].dim(), 4,
                                         900 + static_cast<unsigned>(p));
    sv::BlockTridiagLU scalar;
    scalar.factor(systems[p]);
    expect_bit_identical(batched[p].solve(b), scalar.solve(b));
  }
}

namespace {

/// Run one solver's batched boundary path against the scalar path of a
/// *fresh* instance on identical operands; every item must match to the bit.
void solver_batched_parity(const std::string& solver_name,
                           const sv::SolverContext& ctx = {},
                           nm::Backend& backend = nm::host_backend()) {
  const idx nb = 5, s = 4, cols = 3;
  const std::size_t batch = 6;
  std::vector<bm::BlockTridiag> systems;
  std::vector<CMatrix> sig_l, sig_r, b_top, b_bot;
  for (std::size_t p = 0; p < batch; ++p) {
    const auto u = static_cast<unsigned>(p);
    systems.push_back(random_system(nb, s, 1100 + 10 * u));
    sig_l.push_back(nm::random_cmatrix(s, s, 1200 + u) * cplx{0.1, 0.0});
    sig_r.push_back(nm::random_cmatrix(s, s, 1300 + u) * cplx{0.1, 0.0});
    b_top.push_back(nm::random_cmatrix(s, cols, 1400 + u));
    b_bot.push_back(nm::random_cmatrix(s, cols, 1500 + u));
  }

  const auto batched_solver = sv::make_solver(solver_name, ctx);
  std::vector<const bm::BlockTridiag*> ptrs;
  std::vector<sv::BoundaryProblem> problems;
  for (std::size_t p = 0; p < batch; ++p) {
    ptrs.push_back(&systems[p]);
    problems.push_back(
        {&systems[p], &sig_l[p], &sig_r[p], &b_top[p], &b_bot[p]});
  }
  batched_solver->prepare_batched(ptrs, backend);
  const auto xs = batched_solver->solve_boundary_batched(problems, backend);
  ASSERT_EQ(xs.size(), batch);

  for (std::size_t p = 0; p < batch; ++p) {
    const auto scalar = sv::make_solver(solver_name, ctx);
    scalar->prepare(systems[p]);
    const CMatrix ref = scalar->solve_boundary(systems[p], sig_l[p], sig_r[p],
                                               b_top[p], b_bot[p]);
    expect_bit_identical(xs[p], ref);
  }
}

}  // namespace

TEST(Backend, BlockLuSolverBatchedParity) { solver_batched_parity("block_lu"); }

TEST(Backend, BlockLuSolverBatchedParityOnDevice) {
  // An offloading backend takes the row-lockstep factor_batched path (the
  // fused device-kernel shape) that host lanes no longer reach; it must
  // still match the scalar solver to the bit.
  omenx::parallel::DevicePool pool(2);
  nm::DeviceBackend device(pool);
  ASSERT_TRUE(device.offloads());
  solver_batched_parity("block_lu", {}, device);
}

namespace {

/// Non-offloading backend that counts every batched entry point it serves
/// and runs items serially on the caller.
class CountingBackend final : public nm::Backend {
 public:
  const char* name() const noexcept override { return "counting"; }
  int lanes() const noexcept override { return 4; }
  void dispatch(const char*, std::size_t n,
                const std::function<void(std::size_t)>& fn) override {
    ++dispatches;
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
  void gemm_batched(char op_a, char op_b, idx m, idx n, idx k, cplx alpha,
                    cplx beta,
                    const std::vector<nm::GemmBatchItem>& items) override {
    ++gemms;
    Backend::gemm_batched(op_a, op_b, m, n, k, alpha, beta, items);
  }
  std::vector<nm::LUFactor> lu_factor_batched(
      const std::vector<const CMatrix*>& as, nm::Pivoting pivoting) override {
    ++lu_factors;
    return Backend::lu_factor_batched(as, pivoting);
  }
  void lu_solve_batched(const std::vector<const nm::LUFactor*>& factors,
                        const std::vector<const CMatrix*>& bs,
                        std::vector<CMatrix>& xs) override {
    ++lu_solves;
    Backend::lu_solve_batched(factors, bs, xs);
  }
  void lu_solve_left_batched(const std::vector<const nm::LUFactor*>& factors,
                             const std::vector<const CMatrix*>& bs,
                             std::vector<CMatrix>& xs) override {
    ++lu_solve_lefts;
    Backend::lu_solve_left_batched(factors, bs, xs);
  }

  int dispatches = 0;
  int gemms = 0;
  int lu_factors = 0;
  int lu_solves = 0;
  int lu_solve_lefts = 0;
};

df::LeadBlocks synthetic_lead(idx s, unsigned seed) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  const CMatrix h0 = nm::random_cmatrix(s, s, seed);
  lead.h[0] = (h0 + nm::dagger(h0)) * cplx{0.25};
  lead.h[1] = nm::random_cmatrix(s, s, seed + 1) * cplx{0.4};
  lead.s[0] = CMatrix::identity(s);
  lead.s[1] = CMatrix(s, s);
  return lead;
}

/// The bit-exact fields a batched task must share with solve_energy_point.
void expect_same_point(const tr::EnergyPointResult& got,
                       const tr::EnergyPointResult& ref, const char* what) {
  EXPECT_EQ(got.energy, ref.energy) << what;
  EXPECT_EQ(got.num_propagating, ref.num_propagating) << what;
  EXPECT_EQ(got.transmission, ref.transmission) << what;
  EXPECT_EQ(got.transmission_caroli, ref.transmission_caroli) << what;
  EXPECT_EQ(got.orbital_density, ref.orbital_density) << what;
  EXPECT_EQ(got.orbital_density_r, ref.orbital_density_r) << what;
}

}  // namespace

TEST(Backend, HostEnergyBatchIsOneDispatchOfWholeTasks) {
  // A non-offloading backend runs a whole energy batch as one dispatch —
  // lane i fetches, assembles, solves and finalizes task i — with no
  // stage-wise batched call, for every kBatchable solver.  Each task equals
  // solve_energy_point to the bit, including one where nothing propagates
  // (an empty RHS: the lane skips the solve).
  const idx s = 4, cells = 8;
  const df::LeadBlocks lead = synthetic_lead(s, 41);
  const df::FoldedLead folded = df::fold_lead(lead);
  const df::DeviceMatrices dm = df::assemble_device(
      lead, cells, std::vector<double>(static_cast<std::size_t>(cells), 0.0));
  const tr::ContactSet contacts = tr::ContactSet::pair(lead, folded, 0.0, 0.0);
  const std::vector<double> energies{-1.1, -0.45, 0.05, 0.6, 1.2, 9.0};
  omenx::parallel::DevicePool pool(2);  // the scalar splitsolve needs one

  for (const sv::SolverAlgorithm algo :
       {sv::SolverAlgorithm::kBlockLU, sv::SolverAlgorithm::kRgf,
        sv::SolverAlgorithm::kSplitSolve}) {
    const char* name = sv::algorithm_name(algo);
    tr::EnergyPointOptions opts;
    opts.obc = tr::ObcAlgorithm::kShiftInvert;
    opts.solver = algo;
    opts.want_caroli = false;  // the column count then follows the modes
    opts.want_current = false;
    std::vector<tr::BatchTask> tasks;
    for (const double e : energies) tasks.push_back({0, e, &dm, &contacts});

    CountingBackend counting;
    tr::BatchContext ctx;
    tr::BatchStats stats;
    const auto got =
        tr::solve_energy_batch(ctx, tasks, opts, &pool, counting, 4, &stats);
    EXPECT_EQ(counting.dispatches, 1) << name;
    EXPECT_EQ(counting.gemms, 0) << name;
    EXPECT_EQ(counting.lu_factors, 0) << name;
    EXPECT_EQ(counting.lu_solves, 0) << name;
    EXPECT_EQ(counting.lu_solve_lefts, 0) << name;
    EXPECT_EQ(stats.batches, 1) << name;
    EXPECT_EQ(stats.device_batches, 0) << name;
    EXPECT_EQ(stats.prefetch_misses, static_cast<idx>(energies.size()))
        << name;

    ASSERT_EQ(got.size(), energies.size());
    int open = 0, closed = 0;
    for (std::size_t i = 0; i < energies.size(); ++i) {
      const tr::EnergyPointResult ref =
          tr::solve_energy_point(dm, contacts, energies[i], opts, &pool);
      expect_same_point(got[i], ref, name);
      (ref.num_propagating == 0 ? closed : open) += 1;
    }
    EXPECT_GT(open, 0) << name;
    EXPECT_GT(closed, 0) << name;
  }
}

TEST(Backend, HostEnergyBatchSurfacesAFetchErrorAfterEveryLaneSettles) {
  // A NaN energy makes its boundary fetch throw (the cache refuses the
  // key).  The error surfaces from the batch only after every other lane
  // has run its task to completion — each left its boundary in the cache —
  // and nothing hangs.
  const idx s = 4, cells = 8;
  const df::LeadBlocks lead = synthetic_lead(s, 43);
  const df::FoldedLead folded = df::fold_lead(lead);
  const df::DeviceMatrices dm = df::assemble_device(
      lead, cells, std::vector<double>(static_cast<std::size_t>(cells), 0.0));
  const tr::ContactSet contacts = tr::ContactSet::pair(lead, folded, 0.0, 0.0);
  omenx::obc::BoundaryCache cache;
  tr::EnergyPointOptions opts;
  opts.obc = tr::ObcAlgorithm::kShiftInvert;
  opts.solver = sv::SolverAlgorithm::kBlockLU;
  opts.want_current = false;
  opts.boundary_cache = &cache;
  std::vector<tr::BatchTask> tasks;
  for (int i = 0; i < 12; ++i)
    tasks.push_back({0, i == 3 ? std::numeric_limits<double>::quiet_NaN()
                               : -1.0 + 0.15 * i,
                     &dm, &contacts});
  tr::BatchContext ctx;
  EXPECT_THROW(tr::solve_energy_batch(ctx, tasks, opts, nullptr,
                                      nm::host_backend(), 4),
               std::invalid_argument);
  EXPECT_EQ(cache.size(), tasks.size() - 1);

  // The context stays usable for the next batch.
  tasks[3].energy = 0.2;
  const auto got =
      tr::solve_energy_batch(ctx, tasks, opts, nullptr, nm::host_backend(), 4);
  EXPECT_EQ(got[3].energy, 0.2);
  expect_same_point(got[3],
                    tr::solve_energy_point(dm, contacts, 0.2, opts, nullptr),
                    "after a failed batch");
}

TEST(Backend, BlockLuSolverBatchesHostLanesByProblem) {
  // On a backend that does not offload, block_lu hands each lane whole
  // problems: one dispatch per batch, none of the row-lockstep calls.
  CountingBackend counting;
  ASSERT_FALSE(counting.offloads());
  solver_batched_parity("block_lu", {}, counting);
  EXPECT_EQ(counting.dispatches, 1);
  EXPECT_EQ(counting.gemms, 0);
  EXPECT_EQ(counting.lu_factors, 0);
  EXPECT_EQ(counting.lu_solve_lefts, 0);
}

TEST(Backend, RgfSolverBatchedParity) { solver_batched_parity("rgf"); }

TEST(Backend, SplitSolveSolverBatchedParity) {
  // The batched Step 1 runs the serial SPIKE block-column kernel on host
  // lanes; the scalar reference runs the device-pool variant.  PR 3's
  // guarantee — serial/pool/spatial Step 1 bit-identical for equal
  // partition counts — is what makes the comparison exact.
  omenx::parallel::DevicePool pool(2);
  sv::SolverContext ctx;
  ctx.pool = &pool;
  solver_batched_parity("splitsolve", ctx);
}

TEST(Backend, BatchedEntryPointRefusesNonBatchable) {
  // A solver without kBatchable has no batched path: the engine solves its
  // tasks one point at a time, and a direct batched call is refused.
  EXPECT_EQ(sv::algorithm_capabilities(sv::SolverAlgorithm::kBcr) &
                sv::kBatchable,
            0u);
  const auto solver = sv::make_solver("bcr", {});
  const bm::BlockTridiag a = random_system(5, 4, 1100);
  const CMatrix sigma = nm::random_cmatrix(4, 4, 1200);
  const CMatrix b = nm::random_cmatrix(4, 3, 1400);
  EXPECT_THROW(solver->solve_boundary_batched({{&a, &sigma, &sigma, &b, &b}},
                                              nm::host_backend()),
               std::invalid_argument);
}

TEST(Backend, RegisterAndFindCustomBackend) {
  class NullBackend : public nm::Backend {
   public:
    const char* name() const noexcept override { return "null"; }
    int lanes() const noexcept override { return 1; }
    void dispatch(const char*, std::size_t n,
                  const std::function<void(std::size_t)>& fn) override {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    }
  };
  static NullBackend null_backend;
  nm::register_backend("null", &null_backend);
  EXPECT_EQ(nm::find_backend("null"), &null_backend);
  const auto names = nm::registered_backends();
  EXPECT_NE(std::find(names.begin(), names.end(), "null"), names.end());
}
