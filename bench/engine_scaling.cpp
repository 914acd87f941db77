// Strong scaling of the distributed execution engine on a deliberately
// imbalanced (k, E) grid — one hot momentum with 6x the energy points of
// the others, the situation OMEN's dynamic allocation (Ref. [45]) and the
// engine's work stealing exist for.
//
// For 1/2/4/8 ranks the bench records wall time plus two efficiencies:
//   * eff_wall: T(1 rank) / (n * T(n ranks)) — honest only when the host
//     has >= n cores;
//   * eff_busy: sum(busy) / (n * max(busy)) — load balance of the schedule
//     itself, robust on oversubscribed hosts (all ranks inflate alike).
// Alongside each measurement sits the prediction obtained through the same
// scheduler logic the perf model (perf/scaling.cpp) uses: the
// allocation-makespan efficiency for the static policy, ceil-rounding for
// the dynamic queue.  A static round-robin baseline at 4 ranks is recorded
// so measured stealing gains are visible in BENCH_engine.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "omen/engine.hpp"
#include "omen/scheduler.hpp"
#include "transport/transmission.hpp"

using namespace omenx;
using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

namespace {

dft::LeadBlocks bench_lead(idx s, unsigned seed) {
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

struct RunPoint {
  int ranks;
  double wall_s;
  double eff_wall;
  double eff_busy;
  double model_eff;
  idx stolen;
};

}  // namespace

int main() {
  const idx s = 8, cells = 16;
  const int nk = 4;
  const std::vector<idx> loads{48, 8, 8, 8};

  std::vector<dft::LeadBlocks> leads;
  for (int k = 0; k < nk; ++k)
    leads.push_back(bench_lead(s, 11 + 7 * static_cast<unsigned>(k)));

  omen::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point.obc = transport::ObcAlgorithm::kDecimation;
  req.point.solver = transport::SolverAlgorithm::kBlockLU;
  req.point.want_density = false;
  req.point.want_current = false;
  req.energies.resize(static_cast<std::size_t>(nk));
  for (int k = 0; k < nk; ++k)
    for (idx ie = 0; ie < loads[static_cast<std::size_t>(k)]; ++ie)
      req.energies[static_cast<std::size_t>(k)].push_back(
          -2.0 + 4.0 * static_cast<double>(ie) /
                     static_cast<double>(loads[static_cast<std::size_t>(k)]));
  const double total_tasks = static_cast<double>(
      std::accumulate(loads.begin(), loads.end(), idx{0}));

  const auto run_once = [&](int ranks, bool stealing) {
    omen::EngineConfig cfg;
    cfg.num_ranks = ranks;
    cfg.work_stealing = stealing;
    cfg.flat_single_rank = false;  // honest serial baseline: same protocol
    omen::Engine engine(cfg);
    return engine.run(req);
  };

  benchutil::header("engine strong scaling, imbalanced k/E grid (48/8/8/8)");
  std::printf("%6s %10s %10s %10s %10s %8s\n", "ranks", "wall (s)",
              "eff_wall", "eff_busy", "model", "stolen");

  // Warm-up pass so first-touch allocation noise stays out of the timings.
  benchutil::consume(run_once(1, true).stats.wall_seconds);

  std::string json = "{\n";
  std::vector<RunPoint> points;
  double t1 = 0.0;
  for (const int ranks : {1, 2, 4, 8}) {
    const auto res = run_once(ranks, true);
    const auto& st = res.stats;
    if (ranks == 1) t1 = st.wall_seconds;
    const double busy_total =
        std::accumulate(st.busy_seconds_per_rank.begin(),
                        st.busy_seconds_per_rank.end(), 0.0);
    const double busy_max =
        *std::max_element(st.busy_seconds_per_rank.begin(),
                          st.busy_seconds_per_rank.end());
    // Dynamic-queue model: makespan = ceil(total / n) task slots.
    const double model =
        (total_tasks / ranks) / std::ceil(total_tasks / ranks);
    RunPoint p{ranks, st.wall_seconds,
               t1 / (ranks * st.wall_seconds),
               busy_total / (ranks * busy_max), model, st.tasks_stolen};
    points.push_back(p);
    std::printf("%6d %10.4f %10.3f %10.3f %10.3f %8lld\n", p.ranks, p.wall_s,
                p.eff_wall, p.eff_busy, p.model_eff,
                static_cast<long long>(p.stolen));
  }

  // Static round-robin baseline at 4 ranks: no stealing, each momentum
  // group only drains its own k.  The perf-model prediction for this
  // policy is the allocation-makespan efficiency of the same allocation
  // the engine used (allocate_groups — shared with perf/scaling.cpp).
  const auto stat4 = run_once(4, false);
  const double stat_busy_total =
      std::accumulate(stat4.stats.busy_seconds_per_rank.begin(),
                      stat4.stats.busy_seconds_per_rank.end(), 0.0);
  const double stat_busy_max =
      *std::max_element(stat4.stats.busy_seconds_per_rank.begin(),
                        stat4.stats.busy_seconds_per_rank.end());
  const double stat_eff_busy = stat_busy_total / (4.0 * stat_busy_max);
  const double stat_model_eff =
      omen::allocation_efficiency(loads, omen::allocate_groups(loads, 4));
  const auto dyn4 = *std::find_if(points.begin(), points.end(),
                                  [](const RunPoint& p) { return p.ranks == 4; });
  benchutil::rule();
  std::printf("static 4 ranks: wall %.4f s, eff_busy %.3f (model %.3f)\n",
              stat4.stats.wall_seconds, stat_eff_busy, stat_model_eff);
  std::printf("stealing 4 ranks beats static: %s (%.3f > %.3f)\n",
              dyn4.eff_busy > stat_eff_busy ? "yes" : "NO",
              dyn4.eff_busy, stat_eff_busy);

  for (const auto& p : points) {
    benchutil::JsonWriter w("%.4f");
    w.field("ranks", static_cast<double>(p.ranks));
    w.field("wall_s", p.wall_s);
    w.field("eff_wall", p.eff_wall);
    w.field("eff_busy", p.eff_busy);
    w.field("model_eff", p.model_eff);
    w.field("tasks_stolen", static_cast<double>(p.stolen), true);
    json += "  \"stealing_" + std::to_string(p.ranks) + "ranks\": {" +
            w.body + "},\n";
  }
  {
    benchutil::JsonWriter w("%.4f");
    w.field("ranks", 4.0);
    w.field("wall_s", stat4.stats.wall_seconds);
    w.field("eff_busy", stat_eff_busy);
    w.field("model_eff", stat_model_eff);
    w.field("stealing_beats_static",
            dyn4.eff_busy > stat_eff_busy ? 1.0 : 0.0, true);
    json += "  \"static_4ranks\": {" + w.body + "}\n}\n";
  }

  std::FILE* f = std::fopen("BENCH_engine.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_engine.json\n");
  }
  return 0;
}
