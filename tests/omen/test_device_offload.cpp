// Engine device-offload tests: routing the batched device phase through
// EngineConfig::backend = "device" (the emulated DevicePool) must be
// invisible to the physics — spectra bit-identical to the "host" backend at
// every world size, including under work stealing — while the sweep stats
// prove offloaded batches, operand residency across repeat sweeps (the SCF
// story), and dropping H2D traffic after warm-up.  Carries the engine and
// device ctest labels so the CI ThreadSanitizer job covers the device
// worker threads running the batched kernels.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "numeric/blas.hpp"
#include "omen/engine.hpp"
#include "omen/simulator.hpp"
#include "parallel/device.hpp"
#include "perf/machine.hpp"
#include "transport/bands.hpp"

namespace df = omenx::dft;
namespace lt = omenx::lattice;
namespace nm = omenx::numeric;
namespace om = omenx::omen;
namespace pf = omenx::perf;
namespace pp = omenx::parallel;
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

TEST(DeviceOffload, SpectraBitIdenticalToHostAcrossPoolAndWorldSizes) {
  // The acceptance bar: the device-routed sweep at pool sizes 1/2/4 and
  // world sizes 1/2/4 (the hot k forces stealing at 4 ranks) agrees
  // bit-for-bit with the host backend.
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 4; ++k)
    leads.push_back(synthetic_lead(s, 151 + 3 * k));
  const om::SweepRequest req = hot_k_request(leads, cells);

  om::EngineConfig hcfg;
  hcfg.backend = "host";
  hcfg.cache_boundaries = false;
  om::Engine host(hcfg);
  const auto ref = host.run(req);
  EXPECT_EQ(ref.stats.device_batches, 0);
  EXPECT_EQ(ref.stats.h2d_bytes, 0.0);

  for (const int devices : {1, 2, 4}) {
    pp::DevicePool pool(devices);
    om::EngineConfig dcfg;
    dcfg.backend = "device";
    dcfg.cache_boundaries = false;
    om::Engine engine(dcfg, &pool);
    const auto got = engine.run(req);
    expect_same_spectra(got, ref, "device flat");
    EXPECT_GT(got.stats.device_batches, 0) << "devices=" << devices;
    EXPECT_GT(got.stats.h2d_bytes, 0.0) << "devices=" << devices;
    EXPECT_GT(got.stats.d2h_bytes, 0.0) << "devices=" << devices;
    ASSERT_EQ(got.stats.device_busy_seconds.size(),
              static_cast<std::size_t>(devices));
  }

  for (const int ranks : {1, 2, 4}) {
    pp::DevicePool pool(4);
    om::EngineConfig dcfg;
    dcfg.backend = "device";
    dcfg.cache_boundaries = false;
    dcfg.num_ranks = ranks;
    om::Engine engine(dcfg, &pool);
    const auto got = engine.run(req);
    if (ranks == 4) EXPECT_GT(got.stats.tasks_stolen, 0);
    expect_same_spectra(got, ref, "device distributed");
    EXPECT_GT(got.stats.device_batches, 0) << "ranks=" << ranks;
  }
}

TEST(DeviceOffload, ResidencyHitsOnRepeatSweepsAndH2dDrops) {
  // The SCF outer loop re-sweeps identical (k, E) grids: from the second
  // sweep every staged operand (lead self-energies, boundary RHS) must hit
  // device residency — zero misses — and the per-sweep H2D traffic must
  // drop to just the re-streamed system matrices.
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads{synthetic_lead(s, 201)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies.resize(1);
  for (int ie = 0; ie < 12; ++ie)
    req.energies[0].push_back(-1.5 + 0.22 * ie);

  pp::DevicePool pool(2);
  om::EngineConfig cfg;
  cfg.backend = "device";
  om::Engine engine(cfg, &pool);

  const auto first = engine.run(req);
  EXPECT_GT(first.stats.residency_misses, 0);
  EXPECT_EQ(first.stats.residency_hits, 0);

  const auto second = engine.run(req);
  EXPECT_EQ(second.stats.residency_misses, 0);
  EXPECT_EQ(second.stats.residency_hits, first.stats.residency_misses);
  EXPECT_LT(second.stats.h2d_bytes, first.stats.h2d_bytes);
  EXPECT_GT(second.stats.h2d_bytes, 0.0);  // A matrices still stream
  expect_same_spectra(second, first, "resident resweep");

  const auto third = engine.run(req);
  EXPECT_EQ(third.stats.residency_misses, 0);
  EXPECT_EQ(third.stats.h2d_bytes, second.stats.h2d_bytes);
}

TEST(DeviceOffload, LeadChangeInvalidatesDeviceResidency) {
  // Different lead Hamiltonians under the same (k, E) ids would alias the
  // resident operands: the engine must drop residency together with the
  // boundary caches when the leads hash changes.
  const idx s = 4, cells = 8;
  std::vector<df::LeadBlocks> leads{synthetic_lead(s, 211)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies = {{-1.0, -0.5, 0.0, 0.5}};

  pp::DevicePool pool(2);
  om::EngineConfig cfg;
  cfg.backend = "device";
  om::Engine engine(cfg, &pool);
  engine.run(req);
  const auto warm = engine.run(req);
  EXPECT_EQ(warm.stats.residency_misses, 0);

  std::vector<df::LeadBlocks> other{synthetic_lead(s, 212)};
  req.materials = {&other};
  const auto swapped = engine.run(req);
  EXPECT_GT(swapped.stats.residency_misses, 0);
  EXPECT_EQ(swapped.stats.residency_hits, 0);

  // And the post-swap physics matches a fresh host reference.
  om::EngineConfig fresh_cfg;
  fresh_cfg.backend = "host";
  fresh_cfg.cache_boundaries = false;
  om::Engine fresh(fresh_cfg);
  expect_same_spectra(swapped, fresh.run(req), "post-swap");
}

TEST(DeviceOffload, AutoRoutesByCrossoverAndStaysBitIdentical) {
  // "auto" picks per shape bucket via perf::estimate_batch_seconds on the
  // host MachineSpec; whatever it picks must be invisible to the physics.
  const idx s = 5, cells = 10;
  std::vector<df::LeadBlocks> leads;
  for (unsigned k = 0; k < 2; ++k)
    leads.push_back(synthetic_lead(s, 221 + 3 * k));
  const om::SweepRequest req = hot_k_request(leads, cells);

  om::EngineConfig hcfg;
  hcfg.backend = "host";
  hcfg.cache_boundaries = false;
  om::Engine host(hcfg);
  const auto ref = host.run(req);

  pp::DevicePool pool(2);
  om::EngineConfig acfg;
  acfg.backend = "auto";
  acfg.cache_boundaries = false;
  om::Engine engine(acfg, &pool);
  expect_same_spectra(engine.run(req), ref, "auto");

  // The crossover model itself: more streams than lanes favors the device,
  // fewer favors the host lanes; an empty device side never wins.
  const pf::MachineSpec spec = pf::MachineSpec::host();
  const pf::BatchShape shape{10, 32, 64};
  const auto wide = pf::estimate_batch_seconds(spec, shape, 64,
                                               /*host_lanes=*/2,
                                               /*devices=*/16);
  EXPECT_TRUE(wide.device_wins());
  const auto narrow = pf::estimate_batch_seconds(spec, shape, 64,
                                                 /*host_lanes=*/16,
                                                 /*devices=*/1);
  EXPECT_FALSE(narrow.device_wins());
  const auto none = pf::estimate_batch_seconds(spec, shape, 64, 8, 0);
  EXPECT_FALSE(none.device_wins());
}

TEST(DeviceOffload, DeviceWithoutPoolDegradesToHost) {
  // backend = "device" on an engine built without a pool cannot offload:
  // the sweep must still run (host path) with zero device counters.
  const idx s = 4, cells = 8;
  std::vector<df::LeadBlocks> leads{synthetic_lead(s, 231)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = cells;
  req.potential.assign(static_cast<std::size_t>(cells), 0.0);
  req.point = cheap_options();
  req.energies = {{-1.0, 0.0, 1.0}};

  om::EngineConfig cfg;
  cfg.backend = "device";
  om::Engine engine(cfg);  // no pool
  const auto got = engine.run(req);
  EXPECT_EQ(got.stats.device_batches, 0);
  EXPECT_EQ(got.stats.h2d_bytes, 0.0);

  om::EngineConfig hcfg;
  hcfg.backend = "host";
  om::Engine host(hcfg);
  expect_same_spectra(got, host.run(req), "no-pool device");
}

TEST(DeviceOffload, UnknownBackendNameThrows) {
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 241)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = 8;
  req.potential.assign(8, 0.0);
  req.point = cheap_options();
  req.energies = {{0.0, 0.5}};

  om::EngineConfig cfg;
  cfg.backend = "no-such-backend";
  om::Engine engine(cfg);
  EXPECT_THROW(engine.run(req), std::invalid_argument);

  // Distributed worlds must also fail loudly, without deadlock.
  om::EngineConfig dcfg;
  dcfg.backend = "no-such-backend";
  dcfg.num_ranks = 2;
  om::Engine dist(dcfg);
  EXPECT_THROW(dist.run(req), std::invalid_argument);
}

TEST(DeviceOffload, SimulatorPlumbsBackendChoice) {
  // The simulator-level knob: "device" and "host" produce bit-identical
  // spectra on the quickstart-style chain, and the device run reports
  // offloaded batches through last_sweep_stats().
  lt::Structure st;
  st.cell_atoms = {{lt::Species::kLi, {0.0, 0.0, 0.0}}};
  st.cell_length = 0.5;
  st.num_cells = 8;
  st.name = "offload chain";

  om::SimulationConfig base;
  base.structure = st;
  base.build.cutoff_nm = 1.0;
  base.point.obc = tr::ObcAlgorithm::kShiftInvert;
  base.point.solver = tr::SolverAlgorithm::kBlockLU;
  base.num_devices = 2;

  om::SimulationConfig hcfg = base;
  hcfg.backend = "host";
  om::Simulator host(hcfg);
  const auto window = tr::band_window(host.bands(9));
  std::vector<double> grid;
  for (double e = window.emin + 0.05; e < window.emax; e += 0.25)
    grid.push_back(e);
  ASSERT_GE(grid.size(), 4u);
  const auto ref = host.transmission_spectrum(grid);

  om::SimulationConfig dcfg = base;
  dcfg.backend = "device";
  om::Simulator sim(dcfg);
  const auto sp = sim.transmission_spectrum(grid);
  ASSERT_EQ(sp.transmission.size(), ref.transmission.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(sp.transmission[i], ref.transmission[i]) << i;
    EXPECT_EQ(sp.propagating[i], ref.propagating[i]) << i;
  }
  EXPECT_GT(sim.last_sweep_stats().device_batches, 0);
  EXPECT_GT(sim.last_sweep_stats().h2d_bytes, 0.0);
}
