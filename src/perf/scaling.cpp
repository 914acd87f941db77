#include "perf/scaling.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "omen/scheduler.hpp"
#include "perf/flops.hpp"

namespace omenx::perf {

// ---------------------------------------------------------------- Fig. 7 --
namespace {
int recursion_steps(int partitions) {
  int steps = 0;
  while ((1 << steps) < partitions) ++steps;
  return steps;
}
}  // namespace

double SplitSolveScalingModel::weak_time(int gpus) const {
  if (gpus < gpus_per_partition)
    throw std::invalid_argument("weak_time: need at least one partition");
  const int partitions = gpus / gpus_per_partition;
  return base_time_s +
         spike_step_time_s * static_cast<double>(recursion_steps(partitions));
}

double SplitSolveScalingModel::strong_time(int gpus,
                                           double two_gpu_time_s) const {
  const int partitions = std::max(1, gpus / gpus_per_partition);
  // Compute shrinks with the partition count; the spikes grow with its log.
  return two_gpu_time_s / static_cast<double>(partitions) +
         spike_step_time_s * static_cast<double>(recursion_steps(partitions));
}

double SplitSolveScalingModel::strong_efficiency(int gpus,
                                                 double two_gpu_time_s) const {
  const double t2 = strong_time(gpus_per_partition, two_gpu_time_s);
  const double tg = strong_time(gpus, two_gpu_time_s);
  return t2 / (tg * static_cast<double>(gpus) /
               static_cast<double>(gpus_per_partition));
}

// ---------------------------------------------------------------- Fig. 8 --
namespace {
double seconds(double flops, double gflops_capacity, double efficiency) {
  return flops / (gflops_capacity * 1e9 * efficiency);
}
}  // namespace

SolverComparisonModel::Times SolverComparisonModel::shift_invert_mumps(
    idx nb, idx s, idx degree, int nodes) const {
  // Shift-and-invert works on the full N_BC companion pencil, densely, and
  // parallelizes poorly: only one node's CPUs contribute effectively.
  const idx nbc = degree * s;
  const double obc_flops = static_cast<double>(shift_invert_flops(nbc));
  const double obc_s = seconds(obc_flops, machine.cpu_gflops, cpu_efficiency);
  const double solve_flops =
      static_cast<double>(block_lu_flops(nb, s, 2 * s));
  const double solve_s = seconds(solve_flops,
                                 machine.cpu_gflops * nodes, mumps_efficiency);
  return {obc_s, solve_s};
}

namespace {
// Production right-hand-side width: the injection carries one column per
// propagating (plus slow evanescent) mode — a few hundred, independent of s.
constexpr numeric::idx kInjectionColumns = 256;
}  // namespace

SolverComparisonModel::Times SolverComparisonModel::feast_mumps(
    idx nb, idx s, idx degree, int nodes) const {
  // FEAST's contour points parallelize across the group's CPUs; only the
  // m slow modes inside the annulus are probed (subspace << N_BC).
  const double obc_flops = static_cast<double>(
      feast_flops(s, degree, /*np=*/16,  // s/4 columns, 2 passes
                  {{s / 4, {s / 4, s / 4}}}));
  const double obc_s =
      seconds(obc_flops, machine.cpu_gflops * nodes, cpu_efficiency);
  const double solve_flops =
      static_cast<double>(block_lu_flops(nb, s, kInjectionColumns));
  const double solve_s = seconds(solve_flops,
                                 machine.cpu_gflops * nodes, mumps_efficiency);
  // OBC overlaps with the (dominant) solve.
  return {std::max(0.0, obc_s - solve_s), solve_s};
}

SolverComparisonModel::Times SolverComparisonModel::feast_splitsolve(
    idx nb, idx s, idx degree, int nodes) const {
  const double pre = static_cast<double>(splitsolve_preprocess_flops(nb, s)) +
                     static_cast<double>(splitsolve_spike_flops(nb, s, nodes));
  const double post = static_cast<double>(
      splitsolve_postprocess_flops(nb, s, kInjectionColumns));
  const double solve_s =
      seconds(pre + post, machine.gpu_gflops * nodes, gpu_efficiency);
  const double obc_flops = static_cast<double>(
      feast_flops(s, degree, /*np=*/16,  // s/4 columns, 2 passes
                  {{s / 4, {s / 4, s / 4}}}));
  const double obc_s =
      seconds(obc_flops, machine.cpu_gflops * nodes, cpu_efficiency);
  // FEAST on CPUs is hidden behind Step 1 on GPUs (Section 3C): only the
  // non-overlapped excess is visible.
  return {std::max(0.0, obc_s - solve_s), solve_s};
}

// ------------------------------------------------- Fig. 11 / Tables II-III --
std::vector<idx> OmenRunModel::energies_per_k(idx total) const {
  // Deterministic spread in [2650, 3050]: higher-symmetry k points get more
  // band crossings hence more grid points; renormalized to `total`.
  std::vector<idx> e(static_cast<std::size_t>(num_k));
  double sum = 0.0;
  std::vector<double> raw(static_cast<std::size_t>(num_k));
  for (int k = 0; k < num_k; ++k) {
    const double x = static_cast<double>(k) / static_cast<double>(num_k - 1);
    raw[static_cast<std::size_t>(k)] =
        2650.0 + 400.0 * 0.5 * (1.0 + std::cos(2.0 * 3.14159265 * x));
    sum += raw[static_cast<std::size_t>(k)];
  }
  idx assigned = 0;
  for (int k = 0; k < num_k; ++k) {
    e[static_cast<std::size_t>(k)] = static_cast<idx>(
        std::floor(raw[static_cast<std::size_t>(k)] / sum *
                   static_cast<double>(total)));
    assigned += e[static_cast<std::size_t>(k)];
  }
  for (int k = 0; assigned < total; ++k, ++assigned)
    ++e[static_cast<std::size_t>(k % num_k)];
  return e;
}

std::vector<OmenRunModel::StrongPoint> OmenRunModel::strong_scaling(
    const std::vector<int>& nodes) const {
  const std::vector<idx> loads = energies_per_k();
  const idx total_e =
      std::accumulate(loads.begin(), loads.end(), idx{0});
  std::vector<StrongPoint> out;
  out.reserve(nodes.size());
  double t_ref = 0.0;
  int n_ref = 0;
  for (const int n : nodes) {
    const int groups = n / nodes_per_group;
    const auto alloc = omen::allocate_groups(loads, groups);
    const double makespan = omen::allocation_makespan(loads, alloc);
    const double time = makespan * time_per_energy_s + setup_time_s;
    if (t_ref == 0.0) {
      t_ref = time;
      n_ref = n;
    }
    const double eff = (t_ref * static_cast<double>(n_ref)) /
                       (time * static_cast<double>(n));
    const double pflops = static_cast<double>(total_e) * tflops_per_energy *
                          1e12 / time / 1e15;
    out.push_back({n, time, eff, pflops});
  }
  return out;
}

std::vector<OmenRunModel::WeakPoint> OmenRunModel::weak_scaling(
    const std::vector<int>& nodes) const {
  std::vector<WeakPoint> out;
  out.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const int n = nodes[i];
    const int groups = n / nodes_per_group;
    // The energy grid is generated from spacing bounds, not point counts:
    // the per-group count lands between ~12.9 and ~14.1 (Table II) with a
    // deterministic, size-dependent remainder.
    const double jitter =
        0.30 * std::sin(1.7 * static_cast<double>(i) + 0.9) +
        0.25 * std::cos(0.31 * std::log2(static_cast<double>(n)));
    const double e_per_group = 13.5 + jitter;
    // Makespan: the group with the partially filled last point dominates.
    const double imbalance =
        0.3 * (std::ceil(e_per_group) - e_per_group) * time_per_energy_s;
    const double time =
        e_per_group * time_per_energy_s + setup_time_s + imbalance;
    out.push_back({n, e_per_group, time, time / e_per_group});
  }
  return out;
}

}  // namespace omenx::perf
