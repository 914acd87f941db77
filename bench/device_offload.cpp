// Device-offload bench and CI gate.
//
// The "device" numeric::Backend replays the paper's K20X discipline on the
// emulated DevicePool: batched (k, E) buckets split round-robin across
// in-order device streams, operands staged through DeviceBuffer
// reservations with H2D/D2H accounting, and an operand residency cache so
// SCF-reused lead self-energies transfer once.  This bench gates that
// story end to end through the distribution engine:
//   * determinism — the device path must be invisible to the physics:
//     bitwise max|dT| == 0 against the host backend at pool sizes 1 / 2 / 4
//     and through the rank protocol (world size 2);
//   * residency — re-sweeping the identical (k, E) grid (the SCF outer
//     loop) must hit device residency for >= 90% of staged operands from
//     the second iteration, and per-iteration H2D bytes must drop after
//     warm-up and stay flat thereafter (only the system matrices, which
//     change with the potential, keep streaming);
//   * crossover — the perf::estimate_batch_seconds host-vs-device model
//     must agree with the measured wall-time ordering on >= 2 bucket
//     shapes.  Wall times within a ~15% band count as a tie (on a
//     single-hardware-thread host the lanes and the device worker
//     time-slice one core, so the ordering is decided by overhead noise);
//     the JSON records the thread count so the reader can tell.
// BENCH_device.json records everything; nonzero exit if any gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "numeric/blas.hpp"
#include "omen/engine.hpp"
#include "parallel/device.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/machine.hpp"

using namespace omenx;
using numeric::idx;

namespace {

dft::LeadBlocks synthetic_lead(idx s, unsigned seed) {
  dft::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  numeric::CMatrix h0 = numeric::random_cmatrix(s, s, seed);
  lead.h[0] = (h0 + numeric::dagger(h0)) * numeric::cplx{0.25};
  lead.h[1] = numeric::random_cmatrix(s, s, seed + 1) * numeric::cplx{0.4};
  lead.s[0] = numeric::CMatrix::identity(s);
  lead.s[1] = numeric::CMatrix(s, s);
  return lead;
}

/// One momentum point with a uniform energy grid; every task shares the
/// same block structure, so the sweep fuses into full device batches.
omen::SweepRequest sweep_request(const std::vector<dft::LeadBlocks>& leads,
                                 idx cells, int energies) {
  omen::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point.obc = transport::ObcAlgorithm::kDecimation;
  req.point.solver = transport::SolverAlgorithm::kBlockLU;
  req.point.want_density = false;
  req.point.want_current = false;
  req.energies.resize(leads.size());
  for (int ie = 0; ie < energies; ++ie)
    req.energies[0].push_back(-2.0 + 4.0 * ie / energies);
  return req;
}

double max_abs_delta(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double out = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    out = std::max(out, std::abs(a[i] - b[i]));
  return out;
}

/// Bitwise spectral distance over every k and observable (0 expected).
double sweep_delta(const omen::SweepResult& a, const omen::SweepResult& b) {
  double out = 0.0;
  for (std::size_t k = 0; k < a.caroli.size() && k < b.caroli.size(); ++k) {
    out = std::max(out, max_abs_delta(a.caroli[k], b.caroli[k]));
    out = std::max(out, max_abs_delta(a.transmission[k], b.transmission[k]));
  }
  return out;
}

/// Minimum wall time over `reps` runs of the sweep (after one warmup).
double timed_sweep(omen::Engine& engine, const omen::SweepRequest& req,
                   int reps, omen::SweepResult* last) {
  engine.run(req);  // warmup: pool spun up, residency staged, OBCs cached
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    benchutil::WallTimer timer;
    *last = engine.run(req);
    const double t = timer.seconds();
    if (r == 0 || t < best) best = t;
  }
  return best;
}

}  // namespace

int main() {
  benchutil::header(
      "Device offload: batched (k, E) buckets on the emulated DevicePool");

  // --- gate 1: device spectra bitwise-identical to host ------------------
  const idx s = 16, cells = 24;
  const int n_energy = 32;
  std::vector<dft::LeadBlocks> leads{synthetic_lead(s, 137)};
  const omen::SweepRequest req = sweep_request(leads, cells, n_energy);

  omen::EngineConfig hcfg;
  hcfg.backend = "host";
  omen::Engine host_engine(hcfg);
  const auto host_res = host_engine.run(req);

  bool identity_gate = true;
  std::vector<double> pool_dt;
  double busy_total = 0.0;
  std::printf("%-28s %10s %14s %12s %12s\n", "configuration", "max|dT|",
              "dev batches", "H2D (KiB)", "D2H (KiB)");
  benchutil::rule();
  for (const int devices : {1, 2, 4}) {
    parallel::DevicePool pool(devices);
    omen::EngineConfig dcfg;
    dcfg.backend = "device";
    omen::Engine engine(dcfg, &pool);
    const auto got = engine.run(req);
    const double d = sweep_delta(got, host_res);
    pool_dt.push_back(d);
    identity_gate = identity_gate && d == 0.0 &&
                    got.stats.device_batches > 0 && got.stats.h2d_bytes > 0.0;
    if (devices == 4)
      for (const double b : got.stats.device_busy_seconds) busy_total += b;
    char label[32];
    std::snprintf(label, sizeof(label), "device pool %d", devices);
    std::printf("%-28s %10.3g %14lld %12.1f %12.1f\n", label, d,
                static_cast<long long>(got.stats.device_batches),
                got.stats.h2d_bytes / 1024.0, got.stats.d2h_bytes / 1024.0);
  }
  // The rank protocol: leaders drive their pool slice through the same
  // backend; spectra assemble deterministically by flat task index.
  double world_dt = 0.0;
  {
    parallel::DevicePool pool(2);
    omen::EngineConfig wcfg;
    wcfg.backend = "device";
    wcfg.num_ranks = 2;
    omen::Engine engine(wcfg, &pool);
    const auto got = engine.run(req);
    world_dt = sweep_delta(got, host_res);
    identity_gate = identity_gate && world_dt == 0.0;
    std::printf("%-28s %10.3g\n", "device, world size 2", world_dt);
  }
  benchutil::rule();
  std::printf("bitwise identity gate (max|dT| == 0 everywhere): %s\n",
              identity_gate ? "yes" : "NO");

  // --- gate 2: residency >= 90% from iteration 2, H2D drops --------------
  // The SCF outer loop re-sweeps the same grids; the engine's per-rank
  // ResidencyCache outlives run(), so staged operands (lead self-energies,
  // boundary RHS blocks) transfer once.
  parallel::DevicePool scf_pool(2);
  omen::EngineConfig scfg;
  scfg.backend = "device";
  omen::Engine scf_engine(scfg, &scf_pool);
  const int iterations = 3;
  std::vector<double> hit_rate(iterations), h2d_iter(iterations);
  std::vector<long long> hits(iterations), misses(iterations);
  for (int it = 0; it < iterations; ++it) {
    const auto r = scf_engine.run(req);
    hits[static_cast<std::size_t>(it)] = r.stats.residency_hits;
    misses[static_cast<std::size_t>(it)] = r.stats.residency_misses;
    const double staged =
        static_cast<double>(r.stats.residency_hits + r.stats.residency_misses);
    hit_rate[static_cast<std::size_t>(it)] =
        staged > 0.0 ? r.stats.residency_hits / staged : 0.0;
    h2d_iter[static_cast<std::size_t>(it)] = r.stats.h2d_bytes;
    std::printf("SCF iteration %d: residency %lld hit / %lld miss "
                "(rate %.1f%%), H2D %.1f KiB\n",
                it + 1, hits[static_cast<std::size_t>(it)],
                misses[static_cast<std::size_t>(it)],
                100.0 * hit_rate[static_cast<std::size_t>(it)],
                h2d_iter[static_cast<std::size_t>(it)] / 1024.0);
  }
  bool residency_gate = misses[0] > 0;
  for (int it = 1; it < iterations; ++it)
    residency_gate =
        residency_gate && hit_rate[static_cast<std::size_t>(it)] >= 0.90;
  const bool h2d_gate = h2d_iter[1] < h2d_iter[0] && h2d_iter[1] > 0.0 &&
                        h2d_iter[2] == h2d_iter[1];
  std::printf("residency gate (>= 90%% from iteration 2): %s; "
              "H2D drop-and-hold gate: %s\n",
              residency_gate ? "yes" : "NO", h2d_gate ? "yes" : "NO");

  // --- gate 3: crossover model vs measured ordering, 2 bucket shapes -----
  // One device stream against every host lane: on a multi-core host the
  // model puts these buckets on the lanes and the measured ordering must
  // agree; within the tie band the ordering is considered noise.
  const unsigned hw_threads = parallel::ThreadPool::global().num_threads();
  const perf::MachineSpec& spec = perf::MachineSpec::host();
  struct ShapeCase {
    const char* name;
    idx s, cells;
    int energies;
  };
  const ShapeCase cases[] = {{"nb=24 s=16 nrhs=16", 16, 24, 32},
                             {"nb=40 s=8 nrhs=8", 8, 40, 48}};
  bool crossover_gate = true;
  std::vector<double> cross_host_s, cross_dev_s, cross_model_host,
      cross_model_dev;
  std::printf("%-22s %12s %12s %12s %12s %8s\n", "bucket shape", "model host",
              "model dev", "meas host", "meas dev", "match");
  benchutil::rule();
  for (const auto& c : cases) {
    std::vector<dft::LeadBlocks> cl{synthetic_lead(c.s, 211)};
    const omen::SweepRequest creq = sweep_request(cl, c.cells, c.energies);

    omen::EngineConfig ch;
    ch.backend = "host";
    omen::Engine eh(ch);
    omen::SweepResult rh;
    const double t_host = timed_sweep(eh, creq, 3, &rh);

    parallel::DevicePool pool(1);
    omen::EngineConfig cd;
    cd.backend = "device";
    omen::Engine ed(cd, &pool);
    omen::SweepResult rd;
    const double t_dev = timed_sweep(ed, creq, 3, &rd);

    const perf::BatchShape shape{c.cells, c.s, c.s};
    const auto est = perf::estimate_batch_seconds(
        spec, shape, ch.max_batch, static_cast<int>(hw_threads), 1);
    const bool measured_dev_wins = t_dev < t_host;
    const double ratio = std::max(t_host, t_dev) / std::min(t_host, t_dev);
    const bool tie = ratio <= 1.15;
    const bool match = est.device_wins() == measured_dev_wins || tie;
    crossover_gate = crossover_gate && match && sweep_delta(rd, rh) == 0.0;
    cross_host_s.push_back(t_host);
    cross_dev_s.push_back(t_dev);
    cross_model_host.push_back(est.host_seconds);
    cross_model_dev.push_back(est.device_seconds);
    std::printf("%-22s %12.4g %12.4g %12.4g %12.4g %8s\n", c.name,
                est.host_seconds, est.device_seconds, t_host, t_dev,
                match ? (tie ? "tie" : "yes") : "NO");
  }
  benchutil::rule();
  std::printf("crossover gate on %u pool threads: %s\n", hw_threads,
              crossover_gate ? "yes" : "NO");

  // --- JSON record -------------------------------------------------------
  std::string json = "{\n";
  {
    benchutil::JsonWriter w;
    w.field("max_dt_pool_1", pool_dt[0]);
    w.field("max_dt_pool_2", pool_dt[1]);
    w.field("max_dt_pool_4", pool_dt[2]);
    w.field("max_dt_world_2", world_dt);
    w.field("device_busy_seconds_pool_4", busy_total, true);
    json += "  \"identity\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("hits_iter1", static_cast<double>(hits[0]));
    w.field("misses_iter1", static_cast<double>(misses[0]));
    w.field("hit_rate_iter2", hit_rate[1]);
    w.field("hit_rate_iter3", hit_rate[2]);
    w.field("h2d_bytes_iter1", h2d_iter[0]);
    w.field("h2d_bytes_iter2", h2d_iter[1]);
    w.field("h2d_bytes_iter3", h2d_iter[2], true);
    json += "  \"residency\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("pool_threads", static_cast<double>(hw_threads));
    for (std::size_t i = 0; i < cross_host_s.size(); ++i) {
      const std::string tag = "_shape_" + std::to_string(i + 1);
      w.field("model_host_s" + tag, cross_model_host[i]);
      w.field("model_device_s" + tag, cross_model_dev[i]);
      w.field("measured_host_s" + tag, cross_host_s[i]);
      w.field("measured_device_s" + tag, cross_dev_s[i],
              i + 1 == cross_host_s.size());
    }
    json += "  \"crossover\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("device_bit_identical", identity_gate ? 1.0 : 0.0);
    w.field("residency_hit_rate", residency_gate ? 1.0 : 0.0);
    w.field("h2d_drops_after_warmup", h2d_gate ? 1.0 : 0.0);
    w.field("crossover_matches_measured", crossover_gate ? 1.0 : 0.0, true);
    json += "  \"gates\": {" + w.body + "}\n}\n";
  }
  std::FILE* f = std::fopen("BENCH_device.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_device.json\n");
  }
  return identity_gate && residency_gate && h2d_gate && crossover_gate ? 0 : 1;
}
