#include "numeric/backend.hpp"

#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <utility>

#include "numeric/blas.hpp"
#include "numeric/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/tracer.hpp"

namespace omenx::numeric {

namespace {

// Lane discipline shared by every host-backend item: an arena of its own so
// concurrent lanes never contend on one pool, and nested kernel parallelism
// off so lanes do not oversubscribe the machine (same rule as the emulated
// accelerators in parallel/device.hpp).  Buffers that escape the lane are
// safe: pooled chunks carry their owning arena and may be released from any
// thread, including after the arena is gone.
void run_lane_item(const std::function<void(std::size_t)>& fn, std::size_t i) {
  static thread_local Workspace lane_workspace;
  const WorkspaceScope scope(lane_workspace);
  const bool saved_parallelism = thread_parallelism();
  set_thread_parallelism(false);
  try {
    fn(i);
  } catch (...) {
    set_thread_parallelism(saved_parallelism);
    throw;
  }
  set_thread_parallelism(saved_parallelism);
}

class HostBackend final : public Backend {
 public:
  const char* name() const noexcept override { return "host"; }

  int lanes() const noexcept override {
    return (int)parallel::ThreadPool::global().num_threads();
  }

  void dispatch(const char* label, std::size_t n,
                const std::function<void(std::size_t)>& fn) override {
    if (n == 0) return;
    const parallel::TraceScope trace(label, -1);
    // A dispatch from a pool worker (a lane's nested batch included) must
    // not wait on pool futures: the pool may be fully occupied by the
    // caller's siblings.  It degrades to a serial loop, as parallel_for does.
    if (n == 1 || parallel::ThreadPool::in_worker()) {
      for (std::size_t i = 0; i < n; ++i) run_lane_item(fn, i);
      return;
    }
    auto& pool = parallel::ThreadPool::global();
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pending.push_back(pool.submit([&fn, i] { run_lane_item(fn, i); }));
    }
    // Let every item settle before rethrowing, so no future outlives its
    // captured references; the first failure (in item order) wins.
    std::exception_ptr first_error;
    for (auto& fut : pending) {
      try {
        fut.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }
};

Registry<Backend*>& registry() {
  static auto* r = new Registry<Backend*>({{"host", &host_backend()}});
  return *r;
}

}  // namespace

void Backend::gemm_batched(char op_a, char op_b, idx m, idx n, idx k,
                           cplx alpha, cplx beta,
                           const std::vector<GemmBatchItem>& items) {
  dispatch("backend_gemm_batched", items.size(), [&](std::size_t i) {
    const GemmBatchItem& it = items[i];
    gemm_view(op_a, it.a, it.lda, op_b, it.b, it.ldb, m, n, k, alpha, beta,
              it.c, it.ldc);
  });
}

std::vector<LUFactor> Backend::lu_factor_batched(
    const std::vector<const CMatrix*>& as, Pivoting pivoting) {
  std::vector<std::optional<LUFactor>> slots(as.size());
  dispatch("backend_lu_factor_batched", as.size(), [&](std::size_t i) {
    if (as[i] == nullptr)
      throw std::invalid_argument("lu_factor_batched: null input");
    slots[i].emplace(*as[i], pivoting);
  });
  std::vector<LUFactor> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

void Backend::lu_solve_batched(const std::vector<const LUFactor*>& factors,
                               const std::vector<const CMatrix*>& bs,
                               std::vector<CMatrix>& xs) {
  if (factors.size() != bs.size())
    throw std::invalid_argument("lu_solve_batched: size mismatch");
  xs.assign(factors.size(), CMatrix());
  dispatch("backend_lu_solve_batched", factors.size(), [&](std::size_t i) {
    xs[i] = factors[i]->solve(*bs[i]);
  });
}

void Backend::lu_solve_left_batched(const std::vector<const LUFactor*>& factors,
                                    const std::vector<const CMatrix*>& bs,
                                    std::vector<CMatrix>& xs) {
  if (factors.size() != bs.size())
    throw std::invalid_argument("lu_solve_left_batched: size mismatch");
  xs.assign(factors.size(), CMatrix());
  dispatch("backend_lu_solve_left_batched", factors.size(),
           [&](std::size_t i) { xs[i] = factors[i]->solve_left(*bs[i]); });
}

Backend& host_backend() {
  static HostBackend backend;
  return backend;
}

void register_backend(const std::string& name, Backend* backend) {
  if (backend == nullptr)
    throw std::invalid_argument("register_backend: null backend");
  // A name maps to one backend forever (callers cache the raw pointer, so a
  // silent overwrite would strand them on an object the registry no longer
  // vouches for).
  if (!registry().insert(name, backend))
    throw std::invalid_argument("register_backend: name '" + name +
                                "' is already registered");
}

Backend* find_backend(const std::string& name) {
  return registry().find(name);
}

std::vector<std::string> registered_backends() { return registry().names(); }

}  // namespace omenx::numeric
