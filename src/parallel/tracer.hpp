// Lightweight event tracing, standing in for nvprof/CUPTI timelines.
//
// Devices and solvers record named phases (P1..P4, H-to-D transfers, ...)
// so that bench/fig12_power can print the GPU-activity timeline of Fig. 12(b)
// from a real scaled-down run.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace omenx::parallel {

struct TraceEvent {
  std::string name;     ///< Phase label, e.g. "P1", "H-to-D".
  int device_id;        ///< Emulated accelerator index, -1 for host.
  double start_s;       ///< Seconds since tracer epoch.
  double end_s;
};

/// Thread-safe append-only event log with a bounded window: it holds the
/// first kCapacity events since construction or the last clear() and
/// counts the rest in dropped().  Spans are recorded all the time (every
/// batch and device kernel), so an unbounded log would grow for as long as
/// the process runs; readers clear() before the window they inspect.
class Tracer {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  Tracer() : epoch_(clock::now()) {}

  /// Record an event that ran from `start` to now.
  void record(std::string name, int device_id,
              std::chrono::steady_clock::time_point start) {
    const auto now = clock::now();
    std::lock_guard lock(mutex_);
    if (events_.size() >= kCapacity) {
      ++dropped_;
      return;
    }
    events_.push_back({std::move(name), device_id, seconds_since(start),
                       seconds_since(now)});
  }

  std::vector<TraceEvent> events() const {
    std::lock_guard lock(mutex_);
    return events_;
  }

  /// Events discarded because the window was full.
  std::size_t dropped() const {
    std::lock_guard lock(mutex_);
    return dropped_;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    events_.clear();
    events_.shrink_to_fit();
    dropped_ = 0;
    epoch_ = clock::now();
  }

  /// Process-wide tracer used by the emulated devices.
  static Tracer& global();

 private:
  using clock = std::chrono::steady_clock;
  double seconds_since(clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  clock::time_point epoch_;
  std::size_t dropped_ = 0;
};

/// RAII helper: records an event over its lifetime.
class TraceScope {
 public:
  TraceScope(std::string name, int device_id, Tracer& tracer = Tracer::global())
      : name_(std::move(name)),
        device_id_(device_id),
        tracer_(tracer),
        start_(std::chrono::steady_clock::now()) {}
  ~TraceScope() { tracer_.record(std::move(name_), device_id_, start_); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::string name_;
  int device_id_;
  Tracer& tracer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace omenx::parallel
