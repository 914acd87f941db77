// Batched-execution engine tests: fusing queued (k, E) tasks into batched
// numeric::Backend calls (EngineConfig::batch_tasks) must be invisible to
// the physics — spectra and charge bit-identical to the unbatched path at
// every world size, with and without work stealing — while the sweep stats
// prove batches actually happened.  These tests carry the engine ctest
// label, so the CI ThreadSanitizer job covers the asynchronous OBC
// prefetch running against the batched device phase.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/backend.hpp"
#include "numeric/blas.hpp"
#include "numeric/device_backend.hpp"
#include "omen/engine.hpp"
#include "omen/simulator.hpp"
#include "parallel/comm.hpp"
#include "parallel/device.hpp"
#include "transport/bands.hpp"
#include "transport/batch.hpp"

namespace df = omenx::dft;
namespace lt = omenx::lattice;
namespace nm = omenx::numeric;
namespace om = omenx::omen;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

df::LeadBlocks synthetic_lead(idx s, unsigned seed) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  CMatrix h0 = nm::random_cmatrix(s, s, seed);
  lead.h[0] = (h0 + nm::dagger(h0)) * cplx{0.25};
  lead.h[1] = nm::random_cmatrix(s, s, seed + 1) * cplx{0.4};
  lead.s[0] = CMatrix::identity(s);
  lead.s[1] = CMatrix(s, s);
  return lead;
}

tr::EnergyPointOptions cheap_options() {
  tr::EnergyPointOptions opts;
  opts.obc = tr::ObcAlgorithm::kDecimation;
  opts.solver = tr::SolverAlgorithm::kBlockLU;
  opts.want_density = false;
  opts.want_current = false;
  return opts;
}

/// Hot-k request: k0 carries most of the energies, so a 4-rank world must
/// steal to balance — the stolen tasks land in foreign batches.
om::SweepRequest hot_k_request(const std::vector<df::LeadBlocks>& leads,
                               idx cells) {
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(leads.size());
  for (int ie = 0; ie < 24; ++ie)
    req.energies[0].push_back(-2.0 + 0.15 * ie);
  for (std::size_t k = 1; k < leads.size(); ++k)
    for (int ie = 0; ie < 3; ++ie)
      req.energies[k].push_back(-1.0 + 0.5 * ie);
  return req;
}

void expect_same_spectra(const om::SweepResult& a, const om::SweepResult& b,
                         const char* what) {
  ASSERT_EQ(a.caroli.size(), b.caroli.size());
  for (std::size_t k = 0; k < a.caroli.size(); ++k)
    for (std::size_t ie = 0; ie < a.caroli[k].size(); ++ie) {
      // EXPECT_EQ on doubles: bit-identical, not merely close.
      EXPECT_EQ(a.caroli[k][ie], b.caroli[k][ie])
          << what << " k=" << k << " ie=" << ie;
      EXPECT_EQ(a.transmission[k][ie], b.transmission[k][ie])
          << what << " k=" << k << " ie=" << ie;
      EXPECT_EQ(a.propagating[k][ie], b.propagating[k][ie])
          << what << " k=" << k << " ie=" << ie;
    }
}

}  // namespace

TEST(EngineBatch, FlatBatchedBitIdenticalForEveryBatchCapacity) {
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k) leads.push_back(synthetic_lead(s, 51 + 3 * k));
  const om::SweepRequest req = hot_k_request(leads, cells);

  om::EngineConfig ucfg;
  ucfg.batch_tasks = false;
  ucfg.cache_boundaries = false;
  om::Engine unbatched(ucfg);
  const auto ref = unbatched.run(req);
  EXPECT_EQ(ref.stats.batches_issued, 0);

  idx total = 0;
  for (const auto& grid : req.energies)
    total += static_cast<idx>(grid.size());

  // Capacity 1 (every task its own batch), an uneven divisor, and the
  // default: chunk boundaries move, results must not.
  for (const int cap : {1, 5, 16}) {
    om::EngineConfig bcfg;
    bcfg.batch_tasks = true;
    bcfg.max_batch = cap;
    bcfg.cache_boundaries = false;
    om::Engine batched(bcfg);
    const auto got = batched.run(req);
    expect_same_spectra(got, ref, "flat batched");
    EXPECT_GT(got.stats.batches_issued, 0) << "cap=" << cap;
    EXPECT_GE(got.stats.mean_batch_size, 1.0) << "cap=" << cap;
    EXPECT_LE(got.stats.mean_batch_size, static_cast<double>(cap))
        << "cap=" << cap;
    // Every task's boundary went through the prefetch stage exactly once.
    EXPECT_EQ(got.stats.prefetch_hits + got.stats.prefetch_misses, total)
        << "cap=" << cap;
  }
}

TEST(EngineBatch, DistributedBatchedBitIdenticalAcrossWorldsAndStealing) {
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k) leads.push_back(synthetic_lead(s, 71 + 3 * k));
  const om::SweepRequest req = hot_k_request(leads, cells);

  om::EngineConfig ucfg;
  ucfg.batch_tasks = false;
  ucfg.cache_boundaries = false;
  om::Engine unbatched(ucfg);
  const auto ref = unbatched.run(req);

  for (const int ranks : {1, 2, 4}) {
    om::EngineConfig bcfg;
    bcfg.num_ranks = ranks;
    bcfg.batch_tasks = true;
    bcfg.max_batch = 6;
    bcfg.cache_boundaries = false;
    om::Engine batched(bcfg);
    const auto got = batched.run(req);
    if (ranks == 4) EXPECT_GT(got.stats.tasks_stolen, 0);
    expect_same_spectra(got, ref, "distributed batched");
    EXPECT_GT(got.stats.batches_issued, 0) << "ranks=" << ranks;
    EXPECT_GE(got.stats.mean_batch_size, 1.0) << "ranks=" << ranks;
  }
}

TEST(EngineBatch, PrefetchHitsCachedBoundariesOnRepeatSweeps) {
  const idx s = 4, cells = 8;
  std::vector<df::LeadBlocks> leads{synthetic_lead(s, 91)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(1);
  for (int ie = 0; ie < 12; ++ie)
    req.energies[0].push_back(-1.5 + 0.22 * ie);

  om::EngineConfig cfg;  // batching and caching both on
  om::Engine engine(cfg);
  const auto first = engine.run(req);
  EXPECT_EQ(first.stats.prefetch_hits, 0);
  EXPECT_EQ(first.stats.prefetch_misses, 12);
  const auto second = engine.run(req);
  EXPECT_EQ(second.stats.prefetch_hits, 12);
  EXPECT_EQ(second.stats.prefetch_misses, 0);
  expect_same_spectra(second, first, "cached resweep");
}

TEST(EngineBatch, NonBatchableSolverDegradesToUnbatchedPath) {
  // BCR advertises no kBatchable: batch_tasks stays inert (the flat loop
  // keeps its per-task parallelism) and the spectra still match.
  const idx s = 4, cells = 8;
  std::vector<df::LeadBlocks> leads{synthetic_lead(s, 33)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.point.solver = tr::SolverAlgorithm::kBcr;
  req.energies.resize(1);
  for (int ie = 0; ie < 8; ++ie)
    req.energies[0].push_back(-1.5 + 0.3 * ie);

  om::EngineConfig ucfg;
  ucfg.batch_tasks = false;
  ucfg.cache_boundaries = false;
  om::Engine unbatched(ucfg);
  const auto ref = unbatched.run(req);

  om::EngineConfig bcfg;
  bcfg.batch_tasks = true;
  bcfg.cache_boundaries = false;
  om::Engine batched(bcfg);
  const auto got = batched.run(req);
  expect_same_spectra(got, ref, "bcr");
  EXPECT_EQ(got.stats.batches_issued, 0);

  // The distributed leader still routes through the pipeline (its scalar
  // fallback), which must also be invisible.
  om::EngineConfig dcfg;
  dcfg.num_ranks = 2;
  dcfg.batch_tasks = true;
  dcfg.cache_boundaries = false;
  om::Engine dist(dcfg);
  const auto dgot = dist.run(req);
  expect_same_spectra(dgot, ref, "bcr distributed");
  EXPECT_EQ(dgot.stats.batches_issued, 0);
}

TEST(EngineBatch, ChargeBitIdenticalBatchedVsUnbatchedAcrossWorlds) {
  // The two-contact ballistic charge — the observable the SCF loop feeds
  // back — through the full simulator stack, batched vs unbatched, at
  // world sizes 1, 2, and 4.
  lt::Structure st;
  st.cell_atoms = {{lt::Species::kLi, {0.0, 0.0, 0.0}}};
  st.cell_length = 0.5;
  st.num_cells = 10;
  st.name = "batch charge chain";

  om::SimulationConfig base_cfg;
  base_cfg.structure = st;
  base_cfg.build.cutoff_nm = 1.0;
  base_cfg.point.obc = tr::ObcAlgorithm::kShiftInvert;
  base_cfg.point.solver = tr::SolverAlgorithm::kBlockLU;
  base_cfg.num_devices = 2;

  om::SimulationConfig ref_cfg = base_cfg;
  ref_cfg.batch_tasks = false;
  om::Simulator reference(ref_cfg);
  const auto bands = reference.bands(9);
  const auto window = tr::band_window(bands);
  std::vector<double> grid;
  for (double e = window.emin + 0.02; e < window.emax; e += 0.3)
    grid.push_back(e);
  ASSERT_GE(grid.size(), 4u);
  const double mu = 0.5 * (window.emin + window.emax);
  const auto ref = reference.charge_density(grid, mu, mu - 0.2, nullptr);

  for (const int ranks : {1, 2, 4}) {
    om::SimulationConfig cfg = base_cfg;
    cfg.batch_tasks = true;
    cfg.max_batch = 4;
    cfg.num_ranks = ranks;
    om::Simulator sim(cfg);
    const auto charge = sim.charge_density(grid, mu, mu - 0.2, nullptr);
    ASSERT_EQ(charge.size(), ref.size());
    for (std::size_t c = 0; c < charge.size(); ++c)
      EXPECT_EQ(charge[c], ref[c]) << "ranks=" << ranks << " cell " << c;
  }
}

namespace {

void expect_same_task(const tr::EnergyPointResult& got,
                      const tr::EnergyPointResult& ref,
                      const std::string& what) {
  // EXPECT_EQ on doubles and double vectors: bit-identical.
  EXPECT_EQ(got.energy, ref.energy) << what;
  EXPECT_EQ(got.transmission, ref.transmission) << what;
  EXPECT_EQ(got.transmission_caroli, ref.transmission_caroli) << what;
  EXPECT_EQ(got.num_propagating, ref.num_propagating) << what;
  EXPECT_EQ(got.t_matrix, ref.t_matrix) << what;
  EXPECT_EQ(got.contact_density, ref.contact_density) << what;
  EXPECT_EQ(got.orbital_density, ref.orbital_density) << what;
  EXPECT_EQ(got.orbital_density_r, ref.orbital_density_r) << what;
  EXPECT_EQ(got.interface_current, ref.interface_current) << what;
}

}  // namespace

TEST(EngineBatch, BatchMatchesPointForEveryContactSet) {
  // The batched pipeline takes any validated ContactSet: each task equals
  // solve_energy_point to the bit, on host lanes and on an offloading
  // backend (which stages the pair-route tasks and runs the N-terminal
  // ones on host lanes), with pair and N-terminal tasks mixed in one batch.
  // Without Caroli columns the staged path defers Step 1 to the tasks
  // that propagate.
  const idx s = 4, cells = 8;
  const df::LeadBlocks lead = synthetic_lead(s, 61);
  const df::LeadBlocks other = synthetic_lead(s, 62);
  const df::FoldedLead folded = df::fold_lead(lead);
  const df::FoldedLead other_folded = df::fold_lead(other);
  const df::DeviceMatrices dm = df::assemble_device(
      lead, cells, std::vector<double>(static_cast<std::size_t>(cells), 0.0));

  const tr::ContactSet pair = tr::ContactSet::pair(lead, folded, 0.0, 0.0);
  tr::ContactSet shifted = pair;
  shifted.at(1).shift = 0.1;
  tr::ContactSet dissimilar = pair;
  dissimilar.at(1).lead = &other;
  dissimilar.at(1).folded = &other_folded;
  std::vector<tr::Contact> third = pair.contacts();
  third.push_back(pair[0]);
  third.back().block = 3;
  tr::Contact probe;
  probe.block = 4;
  probe.probe_eta = 0.05;
  std::vector<tr::Contact> probed = pair.contacts();
  probed.push_back(probe);
  const std::vector<std::pair<const char*, tr::ContactSet>> cases{
      {"pair", pair},
      {"shifted pair", shifted},
      {"reversed pair", tr::ContactSet({pair[1], pair[0]})},
      {"dissimilar pair", dissimilar},
      {"interior third contact", tr::ContactSet(third)},
      {"materialized probe", tr::ContactSet(probed)}};

  tr::EnergyPointOptions ballistic;
  ballistic.obc = tr::ObcAlgorithm::kShiftInvert;
  ballistic.solver = tr::SolverAlgorithm::kBlockLU;
  tr::EnergyPointOptions dephasing = ballistic;
  dephasing.scattering.algorithm =
      omenx::scattering::ScatteringAlgorithm::kButtikerProbe;
  dephasing.scattering.options.buttiker.eta = 0.05;
  // 9.0 sits above every band: nothing propagates there.
  const std::vector<double> energies{-0.8, 0.1, 0.7, 9.0};

  omenx::parallel::DevicePool pool(2);
  nm::DeviceBackend device(pool);
  for (nm::Backend* backend : {&nm::host_backend(),
                               static_cast<nm::Backend*>(&device)}) {
    for (const int variant : {0, 1, 2}) {
      const bool scatter = variant == 1;
      tr::EnergyPointOptions opts = scatter ? dephasing : ballistic;
      opts.want_caroli = variant != 2;
      std::vector<tr::BatchTask> tasks;
      std::vector<std::string> labels;
      for (const auto& [name, contacts] : cases)
        for (std::size_t ie = 0; ie < energies.size(); ++ie) {
          tasks.push_back({static_cast<idx>(ie), energies[ie], &dm, &contacts});
          labels.push_back(std::string(backend->name()) + " " + name +
                           (scatter ? " + probe model" : "") +
                           (opts.want_caroli ? "" : " no caroli") +
                           " E=" + std::to_string(energies[ie]));
        }
      tr::BatchContext ctx;
      tr::BatchStats stats;
      const auto got = tr::solve_energy_batch(ctx, tasks, opts, nullptr,
                                              *backend, 4, &stats);
      ASSERT_EQ(got.size(), tasks.size());
      EXPECT_EQ(stats.batches, 1);
      EXPECT_EQ(stats.tasks, static_cast<idx>(tasks.size()));
      // Only an offloading backend stages, and only while pair tasks exist.
      EXPECT_EQ(stats.device_batches, backend->offloads() && !scatter ? 1 : 0);
      int open = 0, multi = 0;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        open += got[i].num_propagating > 0 ? 1 : 0;
        multi += got[i].t_matrix.empty() ? 0 : 1;
        tr::EnergyPointOptions point = opts;
        point.k_index = tasks[i].k_index;
        expect_same_task(got[i],
                         tr::solve_energy_point(dm, *tasks[i].contacts,
                                                tasks[i].energy, point),
                         labels[i]);
      }
      EXPECT_GT(open, 0) << backend->name();
      EXPECT_GT(multi, 0) << backend->name();
    }
  }
}

TEST(EngineBatch, BatchRefusesNonBatchableSolversAndSpatialGroups) {
  const df::LeadBlocks lead = synthetic_lead(4, 63);
  const df::FoldedLead folded = df::fold_lead(lead);
  const df::DeviceMatrices dm =
      df::assemble_device(lead, 8, std::vector<double>(8, 0.0));
  const tr::ContactSet pair = tr::ContactSet::pair(lead, folded, 0.0, 0.0);
  tr::BatchContext ctx;
  tr::EnergyPointOptions scalar = cheap_options();
  scalar.solver = tr::SolverAlgorithm::kBcr;
  EXPECT_THROW(tr::solve_energy_batch(ctx, {{0, 0.3, &dm, &pair}}, scalar,
                                      nullptr, nm::host_backend(), 4),
               std::invalid_argument);
  // A spatial group solves cooperatively: refused before any message.
  omenx::parallel::CommWorld world(2);
  world.run([&](omenx::parallel::Comm& comm) {
    if (comm.rank() != 0) return;
    tr::BatchContext rank_ctx;
    tr::EnergyPointOptions spatial = cheap_options();
    spatial.spatial = &comm;
    EXPECT_THROW(tr::solve_energy_batch(rank_ctx, {{0, 0.3, &dm, &pair}},
                                        spatial, nullptr, nm::host_backend(),
                                        4),
                 std::invalid_argument);
  });
}
