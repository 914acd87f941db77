#include "perf/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "numeric/blas.hpp"
#include "numeric/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/flops.hpp"

namespace omenx::perf {

int host_model_lanes() noexcept {
  return static_cast<int>(
      std::min<std::size_t>(parallel::ThreadPool::usable_cpus(), 16));
}

namespace {

/// One-shot calibration of the host's batched-GEMM throughput: every lane
/// (plain std::threads — deliberately not the process thread pool, so a
/// first call from a pool worker cannot deadlock the calibration) runs the
/// packed serial GEMM kernel on its own operands, the way host-backend
/// lanes execute a batch.  The result is clamped to [1x, 16x] of the
/// modeled scalar throughput: the cost model needs a sane ratio, not a
/// microbenchmark-grade number.
double measure_batched_gemm_gflops(double scalar_gflops) {
  using clock = std::chrono::steady_clock;
  const numeric::idx s = 64;  // below the kernel's internal-parallel cutoff
  const unsigned lanes = static_cast<unsigned>(host_model_lanes());
  const int reps = 4;
  std::vector<std::thread> threads;
  threads.reserve(lanes);
  const auto start = clock::now();
  for (unsigned t = 0; t < lanes; ++t) {
    threads.emplace_back([s, t] {
      numeric::set_thread_parallelism(false);
      const numeric::CMatrix a = numeric::random_cmatrix(s, s, 11u + t);
      const numeric::CMatrix b = numeric::random_cmatrix(s, s, 23u + t);
      numeric::CMatrix c(s, s);
      for (int r = 0; r < reps; ++r)
        numeric::gemm(a, b, c, numeric::cplx{1.0}, numeric::cplx{0.0});
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(clock::now() - start).count();
  const double ds = static_cast<double>(s);
  const double flops =
      8.0 * ds * ds * ds * static_cast<double>(reps) * lanes;
  const double measured = flops / std::max(seconds, 1e-9) * 1e-9;
  return std::clamp(measured, scalar_gflops, 16.0 * scalar_gflops);
}

}  // namespace

MachineSpec MachineSpec::titan() {
  MachineSpec m;
  m.name = "Cray-XK7 Titan";
  m.hybrid_nodes = 18688;
  m.gpus = 18688;
  m.cpu_gflops = 134.4;   // Opteron 6274 node (Table I)
  m.gpu_gflops = 1311.0;  // Tesla K20X
  m.gpu_memory_gb = 6.0;
  m.cpu_cores_per_node = 16;
  // Calibrated to the Fig. 12 measurements: 7.6 MW average at 15 PFlop/s
  // with 146 W per GPU, peak 8.8 MW.
  m.idle_power_mw = 3.0;       // pumps, blowers, line losses, idle silicon
  m.gpu_active_watts = 160.0;
  m.gpu_idle_watts = 25.0;
  m.gpu_transfer_watts = 80.0;
  m.cpu_active_watts = 95.0;
  m.facility_overhead = 1.08;
  m.batched_gemm_gflops = m.gpu_gflops;  // batching saturates the K20X
  m.pcie_gbps = 6.0;  // PCIe 2.0 x16 effective (Gemini-era host interface)
  m.kernel_launch_seconds = 10e-6;
  m.host_lane_gflops = m.cpu_gflops / m.cpu_cores_per_node;
  m.device_stream_gflops = m.gpu_gflops;
  return m;
}

MachineSpec MachineSpec::piz_daint() {
  MachineSpec m;
  m.name = "Cray-XC30 Piz Daint";
  m.hybrid_nodes = 5272;
  m.gpus = 5272;
  m.cpu_gflops = 166.4;  // Xeon E5-2670 node (Table I)
  m.gpu_gflops = 1311.0;
  m.gpu_memory_gb = 6.0;
  m.cpu_cores_per_node = 8;
  m.idle_power_mw = 0.9;
  m.gpu_active_watts = 180.0;
  m.gpu_idle_watts = 25.0;
  m.gpu_transfer_watts = 90.0;
  m.cpu_active_watts = 90.0;
  m.facility_overhead = 1.06;
  m.batched_gemm_gflops = m.gpu_gflops;  // batching saturates the K20X
  m.pcie_gbps = 6.0;
  m.kernel_launch_seconds = 10e-6;
  m.host_lane_gflops = m.cpu_gflops / m.cpu_cores_per_node;
  m.device_stream_gflops = m.gpu_gflops;
  return m;
}

const MachineSpec& MachineSpec::host() {
  static const MachineSpec cached = [] {
    MachineSpec m;
    m.name = "emulated host node";
    m.hybrid_nodes = 1;
    m.gpus = 2;             // default DevicePool size in the examples
    m.cpu_gflops = 40.0;    // laptop-scale DP throughput of the packed GEMM
    m.gpu_gflops = 40.0;    // emulated devices are host threads
    m.gpu_memory_gb = 6.0;  // K20X-sized capacity kept for the allocator
    m.cpu_cores_per_node = 8;
    m.idle_power_mw = 0.0;
    m.gpu_active_watts = 0.0;
    m.gpu_idle_watts = 0.0;
    m.gpu_transfer_watts = 0.0;
    m.cpu_active_watts = 45.0;
    m.facility_overhead = 1.0;
    m.batched_gemm_gflops = measure_batched_gemm_gflops(m.cpu_gflops);
    // Emulated devices are host threads running the same scalar kernels, so
    // one device stream sustains exactly one calibrated host lane; the
    // emulated "transfers" are byte accounting with no data motion, so the
    // link is effectively free and only the per-kernel enqueue cost (a
    // mutex + promise handoff, ~tens of microseconds) distinguishes an
    // offloaded bucket from a host one.  This is what makes the host
    // crossover honest: device wins only when it has more streams than the
    // host has free lanes.
    m.host_lane_gflops = m.batched_gemm_gflops / host_model_lanes();
    m.device_stream_gflops = m.host_lane_gflops;
    m.pcie_gbps = 1e9;  // accounting-only transfers cost no wall time
    m.kernel_launch_seconds = 10e-6;
    return m;
  }();
  return cached;
}

BatchEstimate estimate_batch_seconds(const MachineSpec& spec,
                                     const BatchShape& shape, int n,
                                     int host_lanes, int devices) {
  BatchEstimate est;
  if (n <= 0 || shape.nb <= 0 || shape.s <= 0) return est;
  const int lanes = std::max(1, host_lanes);
  const idx nb = static_cast<idx>(shape.nb);
  const idx s = static_cast<idx>(shape.s);
  const idx nrhs = static_cast<idx>(std::max<long long>(1, shape.nrhs));
  const double item_flops =
      static_cast<double>(block_lu_flops(nb, s, nrhs));
  // Operand footprint crossing the link per item: the block-tridiagonal
  // system ((3 nb - 2) blocks) plus two contact self-energies in, the RHS
  // in and the solution out (nb*s x nrhs each), 16 bytes per complex.
  const double ds = static_cast<double>(s);
  const double item_bytes =
      16.0 * ((3.0 * shape.nb - 2.0 + 2.0) * ds * ds +
              2.0 * shape.nb * ds * static_cast<double>(nrhs));
  const double host_rounds = std::ceil(double(n) / double(lanes));
  est.host_seconds =
      host_rounds * item_flops / (spec.host_lane_gflops * 1e9);
  if (devices <= 0) {
    est.device_seconds = std::numeric_limits<double>::infinity();
    return est;
  }
  const double device_rounds = std::ceil(double(n) / double(devices));
  est.device_seconds =
      device_rounds * item_flops / (spec.device_stream_gflops * 1e9) +
      double(n) * spec.kernel_launch_seconds +
      device_rounds * item_bytes / (spec.pcie_gbps * 1e9);
  return est;
}

}  // namespace omenx::perf
