// omenx_profile: the (k, E) pipeline benchmark.
//
//   omenx_profile --workload <name|all> --seed <n> [--seconds s]
//                 [--out f.json] [--trace dir]
//
// One process drives the public API in a closed loop: one client, whose
// next operation starts only after the previous one returned.  Untraced,
// a run reports the end-to-end metrics:
//   setup_s      Simulator construction (DFT lead build, fold, band scan),
//                median of several constructions;
//   cold_op_s    the workload's operation right after
//                invalidate_boundary_cache(), median;
//   warm_op_s    the same operation again with every cache full, median;
//   peak_rss_mb  the process's peak resident set (ru_maxrss).
// The times are seconds at a nominal host speed: each raw median is scaled
// by kNominalReferenceS / (the median of the host-speed references measured
// before and after every timed sample of the run), which cancels much of
// the slowdown other tenants of a shared host cause.  The raw seconds, the
// reference's own time and the operations' flop counts print beside them as
// unbounded information.
// With --trace dir the run reports per-layer metrics instead: the operation
// decomposed into public calls inside spans with engine counters (through
// the timing backend "profile_host"), a serial stage replay against a
// private boundary cache (cold, then warm), and GEMM / LU kernel probes at
// the workload's block size.  Spans go to dir/<workload>.trace.json.
//
// Every operation's outputs are checked; a failed check or a throw counts
// the operation as failed, the run goes on, and the exit code is nonzero.
// Each metric prints as "<workload> <metric> <value> <unit> n=<samples>",
// and each workload as one JSON line (the last line of its output).
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dft/basis.hpp"
#include "dft/hamiltonian.hpp"
#include "layers.hpp"
#include "numeric/flops.hpp"
#include "obc/strategy.hpp"
#include "perf/machine.hpp"
#include "solvers/solver.hpp"
#include "stats.hpp"
#include "transport/bands.hpp"
#include "workloads.hpp"

#ifndef OMENX_PROFILE_BUILD_FLAGS
#define OMENX_PROFILE_BUILD_FLAGS "unknown"
#endif

namespace omenx::profile {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int n = 1;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<Metric> metrics;
  std::vector<Metric> info;  ///< printed beside the metrics, not bounded
  int attempted = 0;
  int failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  ///< cost-model and dominance lines
};

/// One operation's bookkeeping: a throw or a failed check fails it.
class OpTally {
 public:
  explicit OpTally(Result& r) : r_(r) {}
  void finish(const Checks& checks, const std::string& op) {
    ++r_.attempted;
    if (checks.failed() == 0) return;
    ++r_.failed;
    for (const std::string& f : checks.failures())
      if (r_.failures.size() < 16) r_.failures.push_back(op + ": " + f);
  }
  void threw(const std::string& op, const std::exception& e) {
    ++r_.attempted;
    ++r_.failed;
    if (r_.failures.size() < 16)
      r_.failures.push_back(op + ": threw " + e.what());
  }

 private:
  Result& r_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Typical wall time of reference_seconds() on the host the baseline was
/// recorded on (4-core Xeon, quiet): the speed the reported seconds refer
/// to, so that there they read close to the raw seconds.
constexpr double kNominalReferenceS = 0.016;

/// The cost model's host calibration runs once per process at first use;
/// trigger it here so no timed operation pays for it.
void calibrate_cost_model() { (void)perf::MachineSpec::host(); }

// ------------------------------------------------------------ untraced --

Result run_untraced(const std::string& name, std::uint64_t seed,
                    double seconds) {
  calibrate_cost_model();
  Result r;
  r.workload = name;
  r.seed = seed;
  OpTally tally(r);
  std::unique_ptr<Workload> wl = make_workload(name);
  const omen::SimulationConfig cfg = wl->config();

  // Host-speed references, one right before and one right after every timed
  // sample; their median over the run scales the raw medians.
  std::vector<double> refs;
  const auto reference = [&refs] { refs.push_back(reference_seconds()); };

  // Set-up samples: each is the mean of constructions adding up to 0.2 s
  // (a single one for the larger fixtures); at least three samples, more
  // while they total under 2 s.
  std::vector<double> setup;
  std::unique_ptr<omen::Simulator> sim;
  const double setup_start = now_seconds();
  while (setup.size() < 3 ||
         (setup.size() < 9 && now_seconds() - setup_start < 2.0)) {
    reference();
    double busy = 0.0;
    int constructions = 0;
    do {
      sim.reset();
      const double t0 = now_seconds();
      sim = std::make_unique<omen::Simulator>(cfg);
      busy += now_seconds() - t0;
      ++constructions;
    } while (busy < 0.2);
    setup.push_back(busy / constructions);
    reference();
  }
  wl->make_inputs(*sim, seed);

  // One untimed cold/warm pair finishes lazy set-up (pool threads, worker
  // workspaces) and fixes the reference digest every later operation must
  // reproduce bit for bit.
  bool have_reference = false;
  std::vector<double> cold, warm;
  double flops[2] = {0.0, 0.0};
  const auto op = [&](bool is_cold, std::vector<double>* samples) {
    const char* label = is_cold ? "cold op" : "warm op";
    try {
      if (is_cold) sim->invalidate_boundary_cache();
      if (samples != nullptr) reference();
      const numeric::FlopScope scope;
      const double t0 = now_seconds();
      const Outputs out = wl->run(*sim);
      const double dt = now_seconds() - t0;
      if (samples != nullptr) reference();
      flops[is_cold ? 0 : 1] = static_cast<double>(scope.elapsed());
      Checks checks;
      wl->check(*sim, out, checks);
      const std::uint64_t d = fnv_digest(out.values);
      if (!have_reference) {
        r.digest = d;
        have_reference = true;
      }
      checks.expect(d == r.digest, "outputs differ from the first operation");
      tally.finish(checks, label);
      if (samples != nullptr) samples->push_back(dt);
    } catch (const std::exception& e) {
      tally.threw(label, e);
    }
  };
  op(true, nullptr);
  op(false, nullptr);
  const double loop_start = now_seconds();
  do {
    op(true, &cold);
    op(false, &warm);
  } while (now_seconds() - loop_start < seconds);

  const double scale = kNominalReferenceS / median(refs);
  const int ns = static_cast<int>(setup.size());
  const int nc = static_cast<int>(cold.size());
  const int nw = static_cast<int>(warm.size());
  r.metrics = {
      {"setup_s", median(setup) * scale, "s", ns},
      {"cold_op_s", median(cold) * scale, "s", nc},
      {"warm_op_s", median(warm) * scale, "s", nw},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };
  r.info = {
      {"setup_raw_s", median(setup), "s", ns},
      {"cold_op_raw_s", median(cold), "s", nc},
      {"warm_op_raw_s", median(warm), "s", nw},
      {"reference_s", median(refs), "s", static_cast<int>(refs.size())},
      {"cold_op_gflop", flops[0] * 1e-9, "GFLOP", 1},
      {"warm_op_gflop", flops[1] * 1e-9, "GFLOP", 1},
  };
  return r;
}

// -------------------------------------------------------------- traced --

/// Per-layer metrics in report order, with units.  Every workload reports
/// every one; a layer off a workload's path reads 0.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> list{
      {"dft.lead_build_s", "s"},
      {"transport.band_scan_s", "s"},
      {"omen.sweeps", "count"},
      {"omen.tasks", "count"},
      {"omen.tasks_stolen", "count"},
      {"omen.batches", "count"},
      {"omen.mean_batch", "count"},
      {"omen.busy_share", "fraction"},
      {"omen.overhead_s", "s"},
      {"obc.lead_solves", "count"},
      {"obc.cache_hit_rate", "fraction"},
      {"obc.warm_hit_rate", "fraction"},
      {"obc.solve_s", "s"},
      {"obc.solve_p50_ms", "ms"},
      {"obc.gflop", "GFLOP"},
      {"obc.share", "fraction"},
      {"blockmat.assemble_s", "s"},
      {"solvers.prepare_s", "s"},
      {"solvers.solve_s", "s"},
      {"solvers.solve_p50_ms", "ms"},
      {"solvers.gflop", "GFLOP"},
      {"solvers.gflops", "GFLOP/s"},
      {"solvers.model_s", "s"},
      {"solvers.model_ratio", "ratio"},
      {"solvers.share", "fraction"},
      {"numeric.batched_calls", "count"},
      {"numeric.batched_items", "count"},
      {"numeric.dispatch_s", "s"},
      {"numeric.gemm_batched_s", "s"},
      {"numeric.lu_factor_batched_s", "s"},
      {"numeric.lu_solve_batched_s", "s"},
      {"numeric.batch_model_ratio", "ratio"},
      {"numeric.gemm_gflops", "GFLOP/s"},
      {"numeric.lu_gflops", "GFLOP/s"},
      {"numeric.lu_to_gemm", "ratio"},
      {"transport.observables_s", "s"},
      {"transport.point_s", "s"},
      {"transport.point_p50_ms", "ms"},
      {"charge.evals", "count"},
      {"charge.density_s", "s"},
      {"charge.gf_tasks", "count"},
      {"charge.solves", "count"},
      {"poisson.iterations", "count"},
      {"poisson.self_s", "s"},
      {"scattering.sweep_s", "s"},
      {"scattering.tune_s", "s"},
      {"scattering.newton_iterations", "count"},
      {"scattering.leak", "fraction"},
      {"trace.overhead", "fraction"},
      {"trace.replay_coverage", "fraction"},
  };
  return list;
}

/// Lead build and fold for every k point, spelled out through the public
/// dft calls the Simulator constructor makes.
void build_leads(const omen::SimulationConfig& cfg) {
  const dft::BasisLibrary basis(cfg.functional);
  const bool periodic = cfg.structure.periodicity == lattice::Periodicity::kZ;
  const idx nk = periodic ? std::max<idx>(1, cfg.num_k) : 1;
  for (idx ik = 0; ik < nk; ++ik) {
    dft::BuildOptions opts = cfg.build;
    opts.k_transverse = nk == 1 ? 0.0
                                : 3.14159265358979323846 *
                                      static_cast<double>(ik) /
                                      static_cast<double>(nk - 1);
    const dft::LeadBlocks lead =
        dft::build_lead_blocks(cfg.structure, basis, opts);
    const dft::FoldedLead folded = dft::fold_lead(lead);
    if (folded.h00.rows() == 0) throw std::runtime_error("empty lead");
  }
}

template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_seconds();
    fn();
    t.push_back(now_seconds() - t0);
  }
  return median(t);
}

double sum_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double value_or_zero(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

Result run_traced(const std::string& name, std::uint64_t seed, double seconds,
                  const std::string& trace_dir) {
  calibrate_cost_model();
  ProfileBackend& backend = ProfileBackend::instance();
  Result r;
  r.workload = name;
  r.seed = seed;
  r.traced = true;
  OpTally tally(r);
  std::unique_ptr<Workload> wl = make_workload(name);
  const omen::SimulationConfig cfg = wl->config();
  Metrics m;

  // --- set-up pieces: lead build + fold, and the constructor's band scan --
  m["dft.lead_build_s"] = median_seconds(3, [&] { build_leads(cfg); });
  omen::Simulator sim(cfg);
  m["transport.band_scan_s"] = median_seconds(3, [&] {
    (void)transport::lead_band_structure(sim.folded_lead(), 21);
  });
  omen::SimulationConfig traced_cfg = cfg;
  traced_cfg.backend = ProfileBackend::kName;
  omen::Simulator tsim(traced_cfg);
  wl->make_inputs(sim, seed);

  // --- untraced reference outputs ----------------------------------------
  Outputs reference;
  {
    Checks checks;
    try {
      sim.invalidate_boundary_cache();
      reference = wl->run(sim);
      wl->check(sim, reference, checks);
      tally.finish(checks, "reference op");
    } catch (const std::exception& e) {
      tally.threw("reference op", e);
    }
    r.digest = fnv_digest(reference.values);
  }

  // --- 1. untraced vs traced pairs: overhead, and the counters of the
  //        first traced cold/warm pair -------------------------------------
  SpanLog log;
  // Untraced and traced operations alternate, so both meet the same host
  // conditions and their ratio needs no host-speed reference.
  std::vector<double> u_cold, u_warm, t_cold, t_warm;
  bool counted = false;
  const auto untraced_op = [&](bool is_cold, std::vector<double>& samples) {
    const char* label = is_cold ? "untraced cold op" : "untraced warm op";
    try {
      if (is_cold) sim.invalidate_boundary_cache();
      const double t0 = now_seconds();
      const Outputs out = wl->run(sim);
      samples.push_back(now_seconds() - t0);
      Checks checks;
      checks.expect(fnv_digest(out.values) == r.digest,
                    "outputs differ from the reference");
      tally.finish(checks, label);
    } catch (const std::exception& e) {
      tally.threw(label, e);
    }
  };
  const auto traced_op = [&](bool is_cold, std::vector<double>& samples) {
    const char* label = is_cold ? "traced cold op" : "traced warm op";
    try {
      if (is_cold) tsim.invalidate_boundary_cache();
      Metrics op_metrics;
      const auto cache0 = tsim.boundary_cache_stats();
      const std::uint64_t solves0 = obc::boundary_solve_count();
      backend.reset();
      const double t0 = now_seconds();
      Outputs out;
      int op_id = -1;
      {
        const SpanScope span(log, is_cold ? "op_cold" : "op_warm", "op");
        op_id = span.id();
        out = wl->traced(tsim, log, op_metrics);
      }
      const double dt = now_seconds() - t0;
      samples.push_back(dt);
      Checks checks;
      checks.expect(fnv_digest(out.values) == r.digest,
                    "traced decomposition differs from the untraced op");
      tally.finish(checks, label);
      if (counted) return;
      const auto cache1 = tsim.boundary_cache_stats();
      const double lookups =
          static_cast<double>(cache1.hits + cache1.misses - cache0.hits -
                              cache0.misses);
      const double hit_rate =
          lookups > 0.0 ? static_cast<double>(cache1.hits - cache0.hits) /
                              lookups
                        : 0.0;
      if (!is_cold) {
        m["obc.warm_hit_rate"] = hit_rate;
        counted = true;
        return;
      }
      for (const auto& [k, v] : op_metrics) m[k] = v;
      m["obc.cache_hit_rate"] = hit_rate;
      m["obc.lead_solves"] =
          static_cast<double>(obc::boundary_solve_count() - solves0);
      const ProfileBackend::Tally bt = backend.total();
      m["numeric.batched_calls"] = static_cast<double>(bt.calls);
      m["numeric.batched_items"] = static_cast<double>(bt.items);
      m["numeric.dispatch_s"] = backend.tally(ProfileBackend::kDispatch).seconds;
      m["numeric.gemm_batched_s"] = backend.tally(ProfileBackend::kGemm).seconds;
      m["numeric.lu_factor_batched_s"] =
          backend.tally(ProfileBackend::kLuFactor).seconds;
      m["numeric.lu_solve_batched_s"] =
          backend.tally(ProfileBackend::kLuSolve).seconds;
      const double batches = m["omen.batches"];
      m["omen.mean_batch"] =
          batches > 0.0 ? m["omen.batched_tasks"] / batches : 0.0;
      m["omen.busy_share"] = m["omen.rank_wall_s"] > 0.0
                                 ? m["omen.busy_s"] / m["omen.rank_wall_s"]
                                 : 0.0;
      const std::map<std::string, double> self = log.self_seconds(op_id);
      m["charge.density_s"] = value_or_zero(self, "charge");
      m["poisson.self_s"] = value_or_zero(self, "poisson");
      m["scattering.tune_s"] = value_or_zero(self, "scattering");
      // The cost model of one batched device phase beside its measurement.
      if (batches > 0.0) {
        const SolveShape sh = wl->shape(tsim);
        const perf::BatchEstimate est = perf::estimate_batch_seconds(
            perf::MachineSpec::host(), {sh.nb, sh.s, sh.nrhs},
            static_cast<int>(std::lround(m["omen.mean_batch"])),
            backend.lanes(), cfg.num_devices);
        const double measured = bt.seconds / batches;
        m["numeric.batch_model_ratio"] = est.host_seconds / measured;
        r.notes.push_back(format(
            "perf::estimate_batch_seconds %.4g s vs measured %.4g s per batch",
            est.host_seconds, measured));
      }
    } catch (const std::exception& e) {
      tally.threw(label, e);
    }
  };
  const double loop_start = now_seconds();
  do {
    untraced_op(true, u_cold);
    untraced_op(false, u_warm);
    traced_op(true, t_cold);
    traced_op(false, t_warm);
  } while (now_seconds() - loop_start < seconds);
  const double untraced = median(u_cold) + median(u_warm);
  m["trace.overhead"] =
      untraced > 0.0 ? (median(t_cold) + median(t_warm)) / untraced - 1.0
                     : 0.0;

  // --- 2. stage replay, cold then warm, against a private cache ----------
  obc::BoundaryCache cache(1u << 20);
  double coverage = 1.0;
  int replay_op[2] = {-1, -1};
  double replay_flops[2] = {0.0, 0.0};
  Metrics replay_metrics[2];
  for (int pass = 0; pass < 2; ++pass) {
    const char* label = pass == 0 ? "replay cold" : "replay warm";
    try {
      Checks checks;
      const numeric::FlopScope flops;
      Outputs out;
      {
        const SpanScope span(log, pass == 0 ? "replay_cold" : "replay_warm",
                             "replay");
        replay_op[pass] = span.id();
        out = wl->replay(sim, log, cache, replay_metrics[pass], checks);
      }
      replay_flops[pass] = static_cast<double>(flops.elapsed());
      checks.expect(max_rel_diff(out.values, reference.values) <= 1e-12,
                    "replay differs from the untraced outputs by more than "
                    "1e-12");
      tally.finish(checks, label);
      // Covered: time inside the stage spans, i.e. not the self time of
      // the replay loop or of the per-point bookkeeping around the stages.
      const std::map<std::string, double> self =
          log.self_seconds(replay_op[pass]);
      const double uncovered =
          value_or_zero(self, "replay") + value_or_zero(self, "point");
      coverage =
          std::min(coverage, 1.0 - uncovered / log.duration(replay_op[pass]));
    } catch (const std::exception& e) {
      tally.threw(label, e);
      coverage = 0.0;
    }
  }
  m["trace.replay_coverage"] = coverage;
  if (replay_op[0] >= 0 && replay_op[1] >= 0) {
    const int cold_op = replay_op[0], warm_op = replay_op[1];
    const auto cold_self = log.self_seconds(cold_op);
    const auto warm_self = log.self_seconds(warm_op);
    const double cold_wall = log.duration(cold_op);
    const double warm_wall = log.duration(warm_op);
    const std::vector<double> fetches =
        log.durations(cold_op, "fetch_boundary");
    m["obc.solve_s"] = sum_of(fetches);
    m["obc.solve_p50_ms"] = median(fetches) * 1e3;
    m["obc.share"] = value_or_zero(cold_self, "obc") / cold_wall;
    m["obc.gflop"] = (replay_flops[0] - replay_flops[1]) * 1e-9;
    m["blockmat.assemble_s"] = value_or_zero(warm_self, "blockmat");
    std::vector<double> solves = log.durations(warm_op, "solve_boundary");
    for (const double d : log.durations(warm_op, "solve_attached"))
      solves.push_back(d);
    const std::vector<double> prepares = log.durations(warm_op, "prepare");
    m["solvers.prepare_s"] = sum_of(prepares);
    m["solvers.solve_s"] = sum_of(solves);
    m["solvers.solve_p50_ms"] = median(solves) * 1e3;
    m["solvers.gflop"] = replay_metrics[1]["solvers.flops"] * 1e-9;
    const double solver_s = m["solvers.prepare_s"] + m["solvers.solve_s"];
    m["solvers.gflops"] = solver_s > 0.0 ? m["solvers.gflop"] / solver_s : 0.0;
    m["solvers.share"] = value_or_zero(warm_self, "solvers") / warm_wall;
    m["transport.observables_s"] = value_or_zero(warm_self, "transport");
    const std::vector<double> points = log.durations(warm_op, "point");
    m["transport.point_s"] = sum_of(points);
    m["transport.point_p50_ms"] = median(points) * 1e3;
    // The solver cost model beside the measured median solve.
    const SolveShape sh = wl->shape(sim);
    const double model = solvers::estimate_boundary_solve_seconds(
        cfg.point.solver, sh.nb, sh.s, sh.nrhs, cfg.point.partitions,
        std::max(1, cfg.num_devices));
    const double measured = median(prepares) + median(solves);
    m["solvers.model_s"] = model;
    m["solvers.model_ratio"] = measured > 0.0 ? model / measured : 0.0;
    r.notes.push_back(format(
        "solvers::estimate_boundary_solve_seconds %.4g s vs measured %.4g s "
        "per solve",
        model, measured));
  }

  // --- 3. kernel probes at the workload's block size ----------------------
  const SolveShape sh = wl->shape(sim);
  const KernelRates rates = probe_kernels(sh.s, 0.6);
  m["numeric.gemm_gflops"] = rates.gemm_gflops;
  m["numeric.lu_gflops"] = rates.lu_gflops;
  m["numeric.lu_to_gemm"] =
      rates.gemm_gflops > 0.0 ? rates.lu_gflops / rates.gemm_gflops : 0.0;
  r.notes.push_back(format(
      "kernel probes at s = %lld: GEMM %.4g GFLOP/s, LU %.4g GFLOP/s (flop "
      "counts computed by perf::gemm_flops / perf::lu_flops)",
      static_cast<long long>(sh.s), rates.gemm_gflops, rates.lu_gflops));

  // --- layer-dominance expectations of the workload table ----------------
  const auto dominance = [&](const char* what, double value, double floor) {
    r.notes.push_back(format(what, value, floor) +
                      (value >= floor ? " (holds)" : " (DOES NOT HOLD)"));
  };
  if (name == "utb_kspace")
    dominance("obc.share of the cold replay %.3f >= %.2f", m["obc.share"],
              0.6);
  if (name == "wire_long")
    dominance("solvers.share of the warm replay %.3f >= %.2f",
              m["solvers.share"], 0.7);
  if (name == "fet_iv")
    dominance("obc.cache_hit_rate of the cold op %.4f >= %.2f",
              m["obc.cache_hit_rate"], 0.99);

  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/" + name + ".trace.json";
    if (!log.write_chrome_trace(path, "omenx_profile " + name))
      r.notes.push_back("could not write " + path);
  }
  for (const auto& [metric, unit] : layer_metrics()) {
    const auto it = m.find(metric);
    r.metrics.push_back({metric, it == m.end() ? 0.0 : it->second, unit, 1});
  }
  return r;
}

// -------------------------------------------------------------- output --

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string to_json(const Result& r) {
  char buf[512];
  std::string j = "{\"workload\": \"" + r.workload + "\"";
  std::snprintf(buf, sizeof(buf),
                ", \"seed\": %" PRIu64
                ", \"traced\": %s, \"correct\": %s, \"attempted\": %d, "
                "\"failed\": %d, \"error_rate\": %.17g, \"digest\": "
                "\"%016" PRIx64 "\", \"nproc\": %u",
                r.seed, r.traced ? "true" : "false",
                r.failed == 0 && r.attempted > 0 ? "true" : "false",
                r.attempted, r.failed,
                r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted
                                : 1.0,
                r.digest, std::thread::hardware_concurrency());
  j += buf;
  j += ", \"build\": \"" + json_escape(OMENX_PROFILE_BUILD_FLAGS) + "\"";
  for (const auto& [key, list] : {std::pair{"metrics", &r.metrics},
                                   std::pair{"info", &r.info}}) {
    j += std::string(", \"") + key + "\": {";
    for (std::size_t i = 0; i < list->size(); ++i) {
      const Metric& m = (*list)[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"n\": %d}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str(), m.n);
      j += buf;
    }
    j += "}";
  }
  j += ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    j += (i == 0 ? "\"" : ", \"") + json_escape(r.failures[i]) + "\"";
  j += "]}";
  return j;
}

void print_result(const Result& r) {
  for (const std::string& note : r.notes)
    std::printf("%s note %s\n", r.workload.c_str(), note.c_str());
  for (const std::string& f : r.failures)
    std::printf("%s FAILED %s\n", r.workload.c_str(), f.c_str());
  for (const std::vector<Metric>* list : {&r.metrics, &r.info})
    for (const Metric& m : *list)
      std::printf("%s %s %.6g %s n=%d\n", r.workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str(), m.n);
  std::printf("%s error_rate %.6g fraction n=%d\n", r.workload.c_str(),
              r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted
                              : 1.0,
              r.attempted);
  std::printf("%s digest %016" PRIx64 "\n", r.workload.c_str(), r.digest);
  std::printf("%s\n", to_json(r).c_str());
  std::fflush(stdout);
}

// ----------------------------------------------------------------- CLI --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out;
  std::string trace_dir;
  bool traced = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "omenx_profile: %s\nusage: omenx_profile --workload "
               "<name|all> --seed <n> [--seconds s] [--out f.json] "
               "[--trace dir]\nworkloads:",
               msg);
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--out") {
        o.out = v;
      } else if (a == "--trace") {
        o.trace_dir = v;
        o.traced = true;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds >= 0.0 && o.seconds <= 3600.0)) usage("bad --seconds");
  return o;
}

/// `all`: every workload in a fresh child process, so set-up time and
/// peak RSS belong to that workload alone.  Returns the children's JSON
/// lines and whether all of them succeeded.
bool run_children(const Options& o, std::vector<std::string>& json_lines) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) throw std::runtime_error("cannot locate /proc/self/exe");
  exe[len] = '\0';
  bool ok = true;
  for (const std::string& w : workload_names()) {
    std::string cmd = std::string("'") + exe + "' --workload " + w +
                      " --seed " + std::to_string(o.seed) + " --seconds " +
                      std::to_string(o.seconds);
    if (o.traced) cmd += " --trace '" + o.trace_dir + "'";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("popen failed");
    std::string line, last;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::fputs(buf, stdout);
      line += buf;
      if (!line.empty() && line.back() == '\n') {
        line.pop_back();
        if (!line.empty() && line.front() == '{') last = line;
        line.clear();
      }
    }
    const int status = pclose(pipe);
    ok = ok && status == 0 && !last.empty();
    if (!last.empty()) json_lines.push_back(last);
  }
  std::fflush(stdout);
  return ok;
}

int main_impl(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::vector<std::string> json_lines;
  bool ok = true;
  if (o.workload == "all") {
    ok = run_children(o, json_lines);
  } else {
    const Result r = o.traced
                         ? run_traced(o.workload, o.seed, o.seconds, o.trace_dir)
                         : run_untraced(o.workload, o.seed, o.seconds);
    print_result(r);
    json_lines.push_back(to_json(r));
    ok = r.failed == 0 && r.attempted > 0;
  }
  if (!o.out.empty()) {
    std::FILE* f = std::fopen(o.out.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + o.out);
    for (const std::string& j : json_lines) std::fprintf(f, "%s\n", j.c_str());
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + o.out);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace omenx::profile

int main(int argc, char** argv) {
  try {
    return omenx::profile::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omenx_profile: %s\n", e.what());
    return 2;
  }
}
