// Fixed-size thread pool with futures and a parallel_for helper.
//
// This is the host-side execution substrate: OMEN's momentum/energy loops
// and the emulated accelerators are all scheduled on top of it.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace omenx::parallel {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = usable_cpus()).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// CPUs the calling thread's affinity mask allows (sched_getaffinity),
  /// falling back to std::thread::hardware_concurrency(); at least 1.
  static std::size_t usable_cpus() noexcept;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n), blocking until all complete.  Work is
  /// chunked to roughly 4 chunks per worker.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True on a worker thread of any ThreadPool.  Work issued from there
  /// must not block on futures of a pool (its own may be fully occupied by
  /// the caller's siblings), so nested parallelism runs inline instead.
  static bool in_worker() noexcept;

  /// Global pool shared by the whole process (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace omenx::parallel
