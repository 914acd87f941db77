#include "parallel/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>

namespace omenx::parallel {

namespace {
// Set while executing inside a pool worker; nested parallel_for calls then
// run inline to avoid queue-wait deadlocks.
thread_local bool g_in_pool_worker = false;
}  // namespace

std::size_t ThreadPool::usable_cpus() noexcept {
  // hardware_concurrency() counts the machine's CPUs, not the ones this
  // process may run on: under taskset or a container cpuset it would size
  // the pool for cores the workers can never reach.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int allowed = CPU_COUNT(&mask);
    if (allowed > 0) return static_cast<std::size_t>(allowed);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = usable_cpus();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    g_in_pool_worker = true;
    task();
    g_in_pool_worker = false;
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (in_worker()) {
    // Nested parallelism would deadlock on a bounded pool; run inline.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(n, num_threads() * 4);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(lo + chunk, n);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Settle every chunk before surfacing an error: rethrowing on the first
  // get() would unwind the caller's frame (and the objects `fn` captures)
  // while later chunks are still running on pool workers.
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

bool ThreadPool::in_worker() noexcept { return g_in_pool_worker; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace omenx::parallel
