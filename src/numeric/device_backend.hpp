// Offload backend — batched calls routed through the emulated accelerator
// pool (parallel/device.hpp), the rehearsal for a real GPU port.
//
// The paper's production throughput comes from one in-order stream per
// K20X device with explicit H2D/D2H transfers (Figs. 7/12).  DeviceBackend
// reproduces that discipline on the emulated pool: every batched call is
// split round-robin across the pool's devices, each item enqueued as an
// in-order kernel on its device stream (so the tracer timeline shows real
// per-device occupancy), operand bytes are staged through DeviceBuffer
// reservations (so H2D/D2H traffic and memory pressure are accounted), and
// capacity overflow degrades gracefully to the host backend instead of
// throwing mid-sweep.
//
// Bit-identity: the batched overrides do only placement and accounting and
// then delegate to the Backend base implementations, which run the *same
// scalar kernels* per item as the unbatched path — through this class's
// dispatch(), i.e. on device worker threads with nested parallelism off.
// Results are therefore bit-identical to the "host" backend item by item,
// which is what lets the engine flip buckets between host and device purely
// on cost.
//
// Residency: operands that are stable across SCF iterations (lead
// self-energies, boundary RHS blocks) are staged by a caller-supplied
// 64-bit id.  The first stage pays an H2D transfer and pins a DeviceBuffer;
// subsequent stages of the same id hit residency and transfer nothing —
// the device-side analogue of the PR-5 BoundaryCache hit-rate story.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "numeric/backend.hpp"
#include "parallel/device.hpp"

namespace omenx::numeric {

/// Device-side operand cache keyed on caller-chosen stable 64-bit ids.
/// Thread-safe.  Entries pin DeviceBuffer reservations until eviction or
/// invalidate(); eviction is FIFO per device, oldest first, and only runs
/// when a miss cannot reserve capacity.  Ids must be collision-free per
/// cache (callers hash (k, E, operand-tag) — see transport/batch.cpp).
class ResidencyCache {
 public:
  enum class Outcome {
    kHit,      ///< id already resident — no transfer
    kMiss,     ///< reserved + transferred (H2D recorded on `device`)
    kStreamed  ///< could not reserve even after eviction — transferred,
               ///< not cached (will pay H2D again next time)
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t streamed = 0;
    std::uint64_t evictions = 0;
    std::uint64_t resident_bytes = 0;  ///< currently pinned on devices
  };

  ResidencyCache() = default;
  ResidencyCache(const ResidencyCache&) = delete;
  ResidencyCache& operator=(const ResidencyCache&) = delete;

  /// Stage `bytes` of operand `id` onto `device`.  Records the H2D transfer
  /// on a miss (or stream); a hit touches no counters on the device.
  Outcome stage(std::uint64_t id, std::uint64_t bytes,
                parallel::Device& device);

  /// Drop every resident operand (releasing all reservations) — an explicit
  /// flush next to BoundaryCache::invalidate(); ids hashed from content
  /// never go stale.
  void invalidate();

  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t id = 0;
    parallel::Device* device = nullptr;
    parallel::DeviceBuffer buffer;
  };

  mutable std::mutex mutex_;
  std::list<Entry> entries_;  ///< FIFO order (front = oldest)
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;
};

/// numeric::Backend implementation over an emulated accelerator pool.
/// The pool (and any external ResidencyCache) must outlive the backend.
/// Instances are thread-safe like every Backend; the engine creates one per
/// leader over that leader's pool slice.
class DeviceBackend final : public Backend {
 public:
  /// Binds the backend to `pool`.  `residency` optionally shares an
  /// external operand cache (so residency survives this instance — the
  /// engine passes a per-rank cache that lives across run() calls); when
  /// null an internal cache is used.  Throws std::invalid_argument on an
  /// empty pool.
  explicit DeviceBackend(parallel::DevicePool& pool,
                         ResidencyCache* residency = nullptr);

  const char* name() const noexcept override { return "device"; }

  /// One lane per device stream.
  int lanes() const noexcept override { return pool_.size(); }

  bool offloads() const noexcept override { return true; }

  /// Items are assigned round-robin (item i -> device i % p) and enqueued
  /// as individual in-order kernels, one trace event each.  Blocks until
  /// every item settles; the first item-order exception is rethrown.
  /// Nested dispatch from inside a device kernel runs serially on that
  /// device's stream (same degradation as the host backend's lanes).
  void dispatch(const char* label, std::size_t n,
                const std::function<void(std::size_t)>& fn) override;

  /// The batched calls stage operand bytes per device before running and
  /// record the H2D/D2H traffic of a real offload.  If any device cannot
  /// reserve workspace for its share, every reservation is released and the
  /// whole call falls back to host_backend() — never throws on capacity.
  void gemm_batched(char op_a, char op_b, idx m, idx n, idx k, cplx alpha,
                    cplx beta, const std::vector<GemmBatchItem>& items) override;
  std::vector<LUFactor> lu_factor_batched(
      const std::vector<const CMatrix*>& as,
      Pivoting pivoting = Pivoting::kPartial) override;
  void lu_solve_batched(const std::vector<const LUFactor*>& factors,
                        const std::vector<const CMatrix*>& bs,
                        std::vector<CMatrix>& xs) override;
  void lu_solve_left_batched(const std::vector<const LUFactor*>& factors,
                             const std::vector<const CMatrix*>& bs,
                             std::vector<CMatrix>& xs) override;

  bool stage_operand(std::uint64_t stable_id, std::uint64_t bytes) override;

  parallel::DevicePool& pool() noexcept { return pool_; }
  ResidencyCache& residency() noexcept { return *residency_; }
  void invalidate_residency() override { residency_->invalidate(); }

  /// Batched calls that degraded to the host path on capacity overflow.
  std::uint64_t host_fallbacks() const noexcept {
    return host_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  /// Reserve per-device call workspace (`per_device_bytes[d]` on device d).
  /// On success fills `held` with the reservations and returns true; on any
  /// capacity failure releases everything already reserved and returns
  /// false (the caller then takes the host path).
  bool reserve_workspace(const std::vector<std::uint64_t>& per_device_bytes,
                         std::vector<parallel::DeviceBuffer>& held);

  /// H2D `in_bytes` / D2H `out_bytes` for item i on its round-robin device.
  void account_item_transfers(std::size_t i, std::uint64_t in_bytes,
                              std::uint64_t out_bytes);

  parallel::DevicePool& pool_;
  ResidencyCache owned_residency_;
  ResidencyCache* residency_ = nullptr;
  std::atomic<std::uint64_t> host_fallbacks_{0};
};

/// Process-wide device backend over its own private pool
/// (OMENX_DEVICE_COUNT devices, default 2).  First use registers it under
/// "device" in the backend registry.  Engine-managed DeviceBackend
/// instances over engine pools are separate and never registered.
Backend& device_backend();

}  // namespace omenx::numeric
