// Machine models for the two systems of Table I.
//
// These constants parameterize the full-scale scheduling, performance, and
// power models that regenerate Tables II/III and Figs. 7/11/12.  Measured
// laptop-scale runs exercise the same algorithms; the machine model is the
// documented substitution for Titan / Piz Daint access (see DESIGN.md).
#pragma once

#include <string>

namespace omenx::perf {

struct MachineSpec {
  std::string name;
  int hybrid_nodes;        ///< total nodes, each with 1 GPU
  int gpus;
  double cpu_gflops;       ///< per-node CPU peak (DP GFlop/s)
  double gpu_gflops;       ///< per-node GPU peak (DP GFlop/s), K20X = 1311
  double gpu_memory_gb;    ///< K20X: 6 GB
  int cpu_cores_per_node;

  // Power model parameters (machine level).
  double idle_power_mw;        ///< baseline draw incl. cooling/line losses
  double gpu_active_watts;     ///< per-GPU draw when computing
  double gpu_idle_watts;       ///< per-GPU draw when idle
  double gpu_transfer_watts;   ///< per-GPU draw during H2D/D2H phases
  double cpu_active_watts;     ///< per-node CPU draw during FEAST
  double facility_overhead;    ///< multiplier for XDP pumps, blowers, losses

  /// Sustained DP throughput (GFlop/s) of a *batched* GEMM phase: many
  /// independent same-shape multiplies issued together, one per lane.  For
  /// the host model this is measured once per process at first use; for the
  /// Table I machines it is the device peak (batching is how the paper
  /// saturates the K20X).  solvers::auto_algorithm credits kBatchable
  /// backends with the ratio batched_gemm_gflops / cpu_gflops when the
  /// caller plans batched execution.
  double batched_gemm_gflops;

  // Offload model parameters, used by estimate_batch_seconds to place a
  // shape bucket on host lanes or device streams.
  double pcie_gbps;              ///< host<->device link bandwidth (GB/s)
  double kernel_launch_seconds;  ///< per-kernel enqueue/launch overhead
  double host_lane_gflops;       ///< one CPU lane running the scalar kernels
  double device_stream_gflops;   ///< one device stream (K20X: its DP peak)

  /// Cray-XK7 Titan (ORNL): 18688 nodes, AMD Opteron 6274 + Tesla K20X.
  static MachineSpec titan();

  /// Cray-XC30 Piz Daint (CSCS): 5272 nodes, Xeon E5-2670 + Tesla K20X.
  static MachineSpec piz_daint();

  /// The machine this process runs on, as seen by the solver cost model
  /// (solvers::auto_algorithm): one node whose "accelerators" are the
  /// emulated in-process devices, so CPU and GPU throughput coincide.
  /// Measured once and cached in a thread-safe static — every call returns
  /// the same instance, so within a process the kAuto choice stays a pure
  /// function of the problem shape (all emulated ranks share the process
  /// and therefore the measurement).
  static const MachineSpec& host();

  /// Total DP peak in PFlop/s over `nodes` nodes.
  double peak_pflops(int nodes) const {
    return static_cast<double>(nodes) * (cpu_gflops + gpu_gflops) * 1e-6;
  }
};

/// CPU lanes of the host model: the CPUs the process may run on
/// (parallel::ThreadPool::usable_cpus(), which also sizes the pool behind
/// the host backend), at most 16.  MachineSpec::host() calibrates its
/// batched GEMM on this many threads and divides it into host_lane_gflops.
int host_model_lanes() noexcept;

/// Shape of one (k, E) bucket item in the engine's device phase: a
/// block-tridiagonal system of `nb` diagonal blocks of size `s` with
/// `nrhs` right-hand-side columns (the injection states).
struct BatchShape {
  long long nb = 0;
  long long s = 0;
  long long nrhs = 0;
};

/// Host-vs-device crossover estimate for one batch of `n` same-shape items.
struct BatchEstimate {
  double host_seconds = 0.0;
  double device_seconds = 0.0;
  bool device_wins() const noexcept { return device_seconds < host_seconds; }
};

/// Wall-time model for a batched block-LU device phase of `n` items of
/// `shape`, on `host_lanes` CPU lanes versus `devices` accelerator streams
/// of `spec`:
///
///   host   = ceil(n / lanes)   * flops(shape) / host_lane_gflops
///   device = ceil(n / devices) * flops(shape) / device_stream_gflops
///            + n * kernel_launch_seconds          (in-order enqueues)
///            + ceil(n / devices) * bytes(shape) / pcie_gbps
///
/// flops(shape) is the analytic block-LU count (perf/flops.hpp); bytes is
/// the operand footprint that crosses the link per item (system blocks +
/// self-energies in, solution out).  `devices == 0` returns +inf device
/// time, so the host always wins without a pool.  The engine queries this
/// with MachineSpec::host() per shape bucket ("auto" backend); the Table I
/// specs answer the paper-scale question of which buckets deserve the K20X.
BatchEstimate estimate_batch_seconds(const MachineSpec& spec,
                                     const BatchShape& shape, int n,
                                     int host_lanes, int devices);

}  // namespace omenx::perf
