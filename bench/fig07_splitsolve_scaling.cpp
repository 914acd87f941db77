// Fig. 7: SplitSolve weak and strong scaling on Piz Daint, plus the
// two-phase pipeline the scaling rests on.
//
// Three parts:
//  (1) measured scaling — the SPIKE-partitioned Step 1 on emulated
//      accelerators at laptop scale, showing the same qualitative
//      behaviour: weak-scaling time grows with the spike/merge work,
//      strong scaling saturates when the per-device workload shrinks;
//  (2) measured overlap — the batched (k, E) pipeline with the SplitSolve
//      backend: the asynchronous OBC (lead) stage runs while Step 1 of the
//      device phase is issued, the paper's CPU/GPU two-phase overlap.  The
//      tracer timeline gives the wall-clock union of each phase and the
//      fraction of the shorter phase hidden behind the other;
//  (3) model — the calibrated Piz Daint numbers of the paper (weak: 30 s on
//      2 GPUs -> 70 s on 32 GPUs; strong: limited by workload).
// BENCH_splitsolve.json records the scaling curves and the overlap
// fraction.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "blockmat/block_tridiag.hpp"
#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "omen/engine.hpp"
#include "parallel/device.hpp"
#include "parallel/tracer.hpp"
#include "perf/scaling.hpp"
#include "solvers/spike.hpp"

using namespace omenx;
using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

namespace {

blockmat::BlockTridiag make_system(idx nb, idx s, unsigned seed) {
  blockmat::BlockTridiag t(nb, s);
  for (idx i = 0; i < nb; ++i) {
    t.diag(i) = numeric::random_cmatrix(s, s, seed + (unsigned)i);
    for (idx d = 0; d < s; ++d) t.diag(i)(d, d) += cplx{8.0};
    if (i + 1 < nb) {
      t.upper(i) = numeric::random_cmatrix(s, s, seed + 100 + (unsigned)i);
      t.lower(i) = numeric::random_cmatrix(s, s, seed + 200 + (unsigned)i);
    }
  }
  return t;
}

dft::LeadBlocks synthetic_lead(idx s, unsigned seed) {
  dft::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  CMatrix h0 = numeric::random_cmatrix(s, s, seed);
  lead.h[0] = (h0 + numeric::dagger(h0)) * cplx{0.25};
  lead.h[1] = numeric::random_cmatrix(s, s, seed + 1) * cplx{0.4};
  lead.s[0] = CMatrix::identity(s);
  lead.s[1] = CMatrix(s, s);
  return lead;
}

using Intervals = std::vector<std::pair<double, double>>;

/// The union of [start, end) intervals as sorted, disjoint intervals.
Intervals merged(Intervals iv) {
  std::sort(iv.begin(), iv.end());
  Intervals out;
  for (const auto& [a, b] : iv) {
    if (out.empty() || a > out.back().second)
      out.push_back({a, b});
    else
      out.back().second = std::max(out.back().second, b);
  }
  return out;
}

/// Wall-clock length of the union of [start, end) intervals.
double union_seconds(const Intervals& iv) {
  double total = 0.0;
  for (const auto& [a, b] : merged(iv)) total += b - a;
  return total;
}

/// Wall-clock length of the intersection of two interval unions.  Each
/// side is merged first: spans of one phase overlap one another when
/// several lanes run it at once, and must count once.
double overlap_seconds(const Intervals& a_in, const Intervals& b_in) {
  const Intervals a = merged(a_in);
  const Intervals b = merged(b_in);
  double total = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    (a[i].second < b[j].second ? i : j) += 1;
  }
  return total;
}

}  // namespace

int main() {
  benchutil::header("Fig. 7(a): weak scaling, measured (emulated devices)");
  const idx s = 96;
  const idx blocks_per_dev = 6;
  std::printf("%8s %12s %12s %12s\n", "devices", "blocks", "time (s)",
              "efficiency");
  std::vector<double> weak_t, strong_t;
  double t_base = 0.0;
  for (int p : {1, 2, 4, 8}) {
    const idx nb = blocks_per_dev * p;
    const auto a = make_system(nb, s, 42);
    parallel::DevicePool pool(p);
    solvers::SpikeOptions opt;
    opt.partitions = p;
    benchutil::WallTimer timer;
    solvers::spike_block_columns(a, pool, opt);
    const double t = timer.seconds();
    if (t_base == 0.0) t_base = t;
    weak_t.push_back(t);
    std::printf("%8d %12lld %12.3f %12.2f\n", p, static_cast<long long>(nb), t,
                t_base / t);
  }

  benchutil::header("Fig. 7(b): strong scaling, measured (fixed system)");
  {
    const idx nb = 32;
    const auto a = make_system(nb, s, 77);
    std::printf("%8s %12s %12s\n", "devices", "time (s)", "speedup");
    double t1 = 0.0;
    for (int p : {1, 2, 4, 8}) {
      parallel::DevicePool pool(p);
      solvers::SpikeOptions opt;
      opt.partitions = p;
      benchutil::WallTimer timer;
      solvers::spike_block_columns(a, pool, opt);
      const double t = timer.seconds();
      if (t1 == 0.0) t1 = t;
      strong_t.push_back(t);
      std::printf("%8d %12.3f %12.2f\n", p, t, t1 / t);
    }
  }

  benchutil::header("Two-phase pipeline: OBC stage overlapped with Step 1");
  // A hot-k sweep through the engine's batched path with the SplitSolve
  // backend: every batch prefetches its boundaries on the thread pool while
  // the caller issues the batched Step 1.  The tracer records both phases;
  // the overlap fraction is the share of the shorter phase's wall-clock
  // union that ran concurrently with the other phase.
  double t_obc = 0.0, t_dev = 0.0, t_wall = 0.0, overlap_fraction = 0.0;
  idx batches = 0;
  {
    const idx ls = 8, cells = 24;
    std::vector<dft::LeadBlocks> leads{synthetic_lead(ls, 57)};
    omen::SweepRequest req;
    req.materials = {&leads};
    req.cells = cells;
    req.potential.assign(static_cast<std::size_t>(cells), 0.0);
    req.point.obc = transport::ObcAlgorithm::kDecimation;
    req.point.solver = transport::SolverAlgorithm::kSplitSolve;
    req.point.partitions = 4;
    req.point.want_density = false;
    req.point.want_current = false;
    req.energies.resize(1);
    for (int ie = 0; ie < 48; ++ie)
      req.energies[0].push_back(-2.0 + 4.0 * ie / 48);

    omen::EngineConfig cfg;
    cfg.batch_tasks = true;
    cfg.max_batch = 16;
    cfg.cache_boundaries = false;
    omen::Engine engine(cfg);
    engine.run(req);  // warmup
    parallel::Tracer::global().clear();
    benchutil::WallTimer timer;
    const auto res = engine.run(req);
    t_wall = timer.seconds();
    batches = res.stats.batches_issued;

    Intervals obc_iv, dev_iv;
    for (const auto& ev : parallel::Tracer::global().events()) {
      if (ev.name == "obc_prefetch") obc_iv.push_back({ev.start_s, ev.end_s});
      if (ev.name == "batch_device_phase")
        dev_iv.push_back({ev.start_s, ev.end_s});
    }
    t_obc = union_seconds(obc_iv);
    t_dev = union_seconds(dev_iv);
    const double shorter = std::min(t_obc, t_dev);
    if (shorter > 0.0)
      overlap_fraction = overlap_seconds(obc_iv, dev_iv) / shorter;

    std::printf("%8s %14s %14s %10s %10s\n", "batches", "OBC union (s)",
                "dev union (s)", "wall (s)", "overlap");
    benchutil::rule();
    std::printf("%8lld %14.4f %14.4f %10.4f %9.0f%%\n",
                static_cast<long long>(batches), t_obc, t_dev, t_wall,
                100.0 * overlap_fraction);
    std::printf("(overlap = share of the shorter phase hidden behind the "
                "other)\n");
  }

  benchutil::header("Fig. 7 model: Piz Daint (paper scale, UTB NSS=NGPU*30720)");
  perf::SplitSolveScalingModel model;
  std::printf("%8s %14s %16s   paper anchors: 30 s @ 2 GPUs, 70 s @ 32\n",
              "GPUs", "weak t (s)", "weak efficiency");
  for (int g : {2, 4, 8, 16, 32})
    std::printf("%8d %14.1f %16.2f\n", g, model.weak_time(g),
                model.weak_efficiency(g));
  benchutil::rule();
  std::printf("%8s %14s %16s   (NSS=122880 fits on 2 GPUs)\n", "GPUs",
              "strong t (s)", "strong eff.");
  for (int g : {2, 4, 8, 16})
    std::printf("%8d %14.1f %16.2f\n", g, model.strong_time(g),
                model.strong_efficiency(g));
  std::printf("spike/merge overhead: +%.0f s per recursive step (paper: 10 s)\n",
              model.spike_step_time_s);

  // --- JSON record -------------------------------------------------------
  std::string json = "{\n";
  {
    benchutil::JsonWriter w;
    w.field("weak_t_p1", weak_t[0]);
    w.field("weak_t_p2", weak_t[1]);
    w.field("weak_t_p4", weak_t[2]);
    w.field("weak_t_p8", weak_t[3]);
    w.field("strong_t_p1", strong_t[0]);
    w.field("strong_t_p2", strong_t[1]);
    w.field("strong_t_p4", strong_t[2]);
    w.field("strong_t_p8", strong_t[3]);
    w.field("strong_speedup_p8", strong_t[0] / strong_t[3], true);
    json += "  \"scaling\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("batches", static_cast<double>(batches));
    w.field("obc_union_s", t_obc);
    w.field("device_union_s", t_dev);
    w.field("wall_s", t_wall);
    w.field("overlap_fraction", overlap_fraction, true);
    json += "  \"two_phase\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("weak_t_2gpu_s", model.weak_time(2));
    w.field("weak_t_32gpu_s", model.weak_time(32));
    w.field("strong_t_2gpu_s", model.strong_time(2));
    w.field("strong_t_16gpu_s", model.strong_time(16));
    w.field("spike_step_time_s", model.spike_step_time_s, true);
    json += "  \"piz_daint_model\": {" + w.body + "}\n}\n";
  }
  std::FILE* f = std::fopen("BENCH_splitsolve.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_splitsolve.json\n");
  }
  return 0;
}
