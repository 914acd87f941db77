// Instruments of the traced run, all attached from outside the library:
// spans recorded around calls into each module's public functions, a
// timing numeric::Backend selected through the public backend name, and
// kernel probes at a workload's block size.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "numeric/backend.hpp"
#include "numeric/types.hpp"

namespace omenx::profile {

/// In-memory span log of one process: name, layer, start, end, parent and
/// op id per span.  Spans are opened and closed on the driving thread
/// (the traced calls and the stage replay are serial from the benchmark's
/// side), nest through a stack, and are written as Chrome trace-event JSON
/// when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int op = -1;
  };

  /// Opens a span under the innermost open one; a span without a parent
  /// starts a new op, and its id becomes the op id of everything below it.
  int open(std::string name, std::string layer);
  void close(int id);

  double duration(int id) const;

  /// Self time per layer (span duration minus the time its child spans
  /// cover) summed over every span of op `op`.
  std::map<std::string, double> self_seconds(int op) const;

  /// Durations of the spans named `name` within op `op`, one per span.
  std::vector<double> durations(int op, const std::string& name) const;

  /// Chrome trace-event JSON (Perfetto / chrome://tracing).  Returns false
  /// when the file cannot be written.
  bool write_chrome_trace(const std::string& path,
                          const std::string& process_name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double epoch_ = -1.0;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string name, std::string layer)
      : log_(log), id_(log.open(std::move(name), std::move(layer))) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// numeric::Backend registered as "profile_host": forwards every virtual to
/// numeric::host_backend() and times it.  Engine leaders may call it
/// concurrently, so the tallies are atomic; times are summed per call and
/// can exceed wall time when leaders overlap.
class ProfileBackend final : public numeric::Backend {
 public:
  struct Tally {
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
    double seconds = 0.0;
  };
  /// The entry points tallied apart; both LU solve variants count as one.
  enum Entry { kDispatch, kGemm, kLuFactor, kLuSolve, kNumEntries };

  /// The registered instance (registers it on first use).
  static ProfileBackend& instance();
  static constexpr const char* kName = "profile_host";

  const char* name() const noexcept override { return kName; }
  int lanes() const noexcept override;
  void dispatch(const char* label, std::size_t n,
                const std::function<void(std::size_t)>& fn) override;
  void gemm_batched(char op_a, char op_b, numeric::idx m, numeric::idx n,
                    numeric::idx k, numeric::cplx alpha, numeric::cplx beta,
                    const std::vector<numeric::GemmBatchItem>& items) override;
  std::vector<numeric::LUFactor> lu_factor_batched(
      const std::vector<const numeric::CMatrix*>& as,
      numeric::Pivoting pivoting) override;
  void lu_solve_batched(const std::vector<const numeric::LUFactor*>& factors,
                        const std::vector<const numeric::CMatrix*>& bs,
                        std::vector<numeric::CMatrix>& xs) override;
  void lu_solve_left_batched(
      const std::vector<const numeric::LUFactor*>& factors,
      const std::vector<const numeric::CMatrix*>& bs,
      std::vector<numeric::CMatrix>& xs) override;

  /// Totals since the last reset(), of one entry point or of all of them.
  Tally tally(Entry e) const;
  Tally total() const;
  void reset();

 private:
  struct Counters {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> nanoseconds{0};
  };

  ProfileBackend() = default;
  void record(Entry e, std::size_t items, double seconds);

  Counters counters_[kNumEntries];
};

/// Wall time of the host-speed reference: every hardware thread pulls
/// chunks of the same fixed, cache-resident complex matrix product from a
/// shared counter, the way pool lanes pull (k, E) items.  It is written here
/// rather than taken from the library, so no library change can move it.
/// Other tenants of a shared host slow it along with the operations (by up
/// to 2x over minutes on the host the baseline was recorded on); timings
/// are reported relative to it (main.cpp).
double reference_seconds();

/// Measured GEMM and blocked-LU rates at one block size.  Flop counts are
/// computed (perf::gemm_flops / perf::lu_flops), not counted.
struct KernelRates {
  double gemm_gflops = 0.0;
  double lu_gflops = 0.0;
};
KernelRates probe_kernels(numeric::idx s, double budget_seconds);

}  // namespace omenx::profile
