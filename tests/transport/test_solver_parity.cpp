// Solver-parity suite: every registered backend must produce the same
// transmission spectrum and the same diagonal blocks; the spatial level of
// the engine (energy-group width > 1) must reproduce the width-1 spectra
// bit-for-bit; kAuto must be deterministic end-to-end.
//
// Carries the "engine" ctest label: the width sweeps exercise the spatial
// broadcast/partition-transfer protocol across CommWorld ranks, so CI
// reruns this file under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cmath>

#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "omen/engine.hpp"
#include "parallel/device.hpp"
#include "transport/greens.hpp"
#include "transport/transmission.hpp"

namespace df = omenx::dft;
namespace nm = omenx::numeric;
namespace om = omenx::omen;
namespace pp = omenx::parallel;
namespace sv = omenx::solvers;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

df::LeadBlocks chain_lead(double t = -1.0) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  lead.h[0] = CMatrix(1, 1);
  lead.h[1] = CMatrix{{cplx{t}}};
  lead.s[0] = CMatrix::identity(1);
  lead.s[1] = CMatrix(1, 1);
  return lead;
}

// Random-Hermitian multi-orbital lead for the engine-level sweeps.
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

struct WidthRun {
  std::vector<std::vector<double>> caroli;
  std::vector<double> charge;
};

WidthRun run_width(tr::SolverAlgorithm solver, int partitions, int ranks,
                   int width, pp::DevicePool* pool) {
  std::vector<df::LeadBlocks> leads{synthetic_lead(4, 91)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = 12;
  req.potential.assign(12, 0.0);
  req.energies = {{-1.1, -0.6, -0.2, 0.3, 0.7, 1.2}};
  req.point.obc = tr::ObcAlgorithm::kShiftInvert;
  req.point.solver = solver;
  req.point.partitions = partitions;
  req.point.want_current = false;
  req.density_weight = {{{0.2, 0.2, 0.2, 0.2, 0.2, 0.2}},
                        {{0.0, 0.0, 0.0, 0.0, 0.0, 0.0}}};

  om::EngineConfig cfg;
  cfg.num_ranks = ranks;
  cfg.ranks_per_energy_group = width;
  om::Engine engine(cfg, pool);
  const auto res = engine.run(req);
  return {res.caroli, res.charge};
}

}  // namespace

TEST(SolverParity, TransmissionSpectrumAgreesAcrossBackends) {
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  std::vector<double> pot(10, 0.0);
  pot[4] = pot[5] = 0.8;  // barrier makes the spectrum non-trivial
  const auto dm = df::assemble_device(lead, 10, pot);
  pp::DevicePool pool(2);

  tr::EnergyPointOptions ref_opt;
  ref_opt.obc = tr::ObcAlgorithm::kShiftInvert;
  ref_opt.solver = tr::SolverAlgorithm::kBlockLU;
  const std::vector<double> grid{-1.4, -0.9, -0.4, 0.1, 0.6, 1.1};
  std::vector<tr::EnergyPointResult> ref;
  for (const double e : grid)
    ref.push_back(tr::solve_energy_point(dm, lead, folded, e, ref_opt));

  for (const auto algo :
       {tr::SolverAlgorithm::kBcr, tr::SolverAlgorithm::kRgf,
        tr::SolverAlgorithm::kSpike, tr::SolverAlgorithm::kSplitSolve,
        tr::SolverAlgorithm::kAuto}) {
    tr::EnergyPointOptions opt = ref_opt;
    opt.solver = algo;
    opt.partitions = 2;
    tr::EnergyPointContext ctx;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto res =
          tr::solve_energy_point(ctx, dm, lead, folded, grid[i], opt, &pool);
      EXPECT_NEAR(res.transmission, ref[i].transmission, 1e-8)
          << sv::algorithm_name(algo) << " E=" << grid[i];
      EXPECT_NEAR(res.transmission_caroli, ref[i].transmission_caroli, 1e-8)
          << sv::algorithm_name(algo) << " E=" << grid[i];
      EXPECT_EQ(res.num_propagating, ref[i].num_propagating);
    }
  }
}

TEST(SolverParity, LdosAgreesAcrossBackends) {
  // greens routes through the strategy layer: every backend serves the
  // diagonal, and the default (kAuto -> rgf) matches them all.
  omenx::blockmat::BlockTridiag t(6, 2);
  for (idx i = 0; i < 6; ++i) {
    t.diag(i) = nm::random_cmatrix(2, 2, 7 + static_cast<unsigned>(i));
    for (idx d = 0; d < 2; ++d) t.diag(i)(d, d) += cplx{4.0, 0.8};
    if (i + 1 < 6) {
      t.upper(i) = nm::random_cmatrix(2, 2, 17 + static_cast<unsigned>(i));
      t.lower(i) = nm::random_cmatrix(2, 2, 27 + static_cast<unsigned>(i));
    }
  }
  const auto ref = tr::local_density_of_states(t);
  sv::SolverContext ctx;
  ctx.partitions = 2;
  for (const auto algo :
       {sv::SolverAlgorithm::kBlockLU, sv::SolverAlgorithm::kBcr,
        sv::SolverAlgorithm::kRgf, sv::SolverAlgorithm::kSpike,
        sv::SolverAlgorithm::kSplitSolve}) {
    const auto ldos = tr::local_density_of_states(t, algo, ctx);
    ASSERT_EQ(ldos.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(ldos[i], ref[i], 1e-9) << sv::algorithm_name(algo);
    EXPECT_NEAR(tr::density_of_states(t, nullptr, algo, ctx),
                tr::density_of_states(t, nullptr), 1e-9);
  }
}

TEST(SolverParity, SpatialWidthsAreBitIdentical) {
  // The acceptance bar: ranks_per_energy_group in {1, 2, 4} on a 4-rank
  // world — same partition count — must give bit-identical transmission and
  // charge for both cooperative backends.  (The SPIKE arithmetic is fixed
  // by the partition count; the spatial level only changes where each
  // partition executes.)
  pp::DevicePool pool(2);
  for (const auto algo :
       {tr::SolverAlgorithm::kSpike, tr::SolverAlgorithm::kSplitSolve}) {
    const auto base = run_width(algo, 4, 4, 1, &pool);
    for (const int width : {2, 4}) {
      const auto run = run_width(algo, 4, 4, width, &pool);
      ASSERT_EQ(run.caroli[0].size(), base.caroli[0].size());
      for (std::size_t i = 0; i < base.caroli[0].size(); ++i)
        EXPECT_DOUBLE_EQ(run.caroli[0][i], base.caroli[0][i])
            << sv::algorithm_name(algo) << " width=" << width << " point "
            << i;
      ASSERT_EQ(run.charge.size(), base.charge.size());
      for (std::size_t c = 0; c < base.charge.size(); ++c)
        EXPECT_DOUBLE_EQ(run.charge[c], base.charge[c])
            << sv::algorithm_name(algo) << " width=" << width << " cell "
            << c;
    }
    // The flat single-process loop uses the same arithmetic again.
    const auto flat = run_width(algo, 4, 1, 1, &pool);
    for (std::size_t i = 0; i < base.caroli[0].size(); ++i)
      EXPECT_DOUBLE_EQ(flat.caroli[0][i], base.caroli[0][i]);
  }
}

TEST(SolverParity, SpatialWidthWithWorkStealingStaysBitIdentical) {
  // Two k points with very different grids force stealing; the thieves'
  // spatial members must fetch the stolen k's blocks through the group
  // broadcast and still reproduce the width-1 numbers exactly.
  std::vector<df::LeadBlocks> leads{synthetic_lead(3, 55),
                                    synthetic_lead(3, 66)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = 10;
  req.potential.assign(10, 0.0);
  req.energies.resize(2);
  for (int ie = 0; ie < 10; ++ie) req.energies[0].push_back(-1.0 + 0.2 * ie);
  req.energies[1] = {-0.5, 0.0};
  req.point.obc = tr::ObcAlgorithm::kDecimation;
  req.point.solver = tr::SolverAlgorithm::kSplitSolve;
  req.point.partitions = 2;
  req.point.want_density = false;
  req.point.want_current = false;
  pp::DevicePool pool(2);

  om::EngineConfig narrow;
  narrow.num_ranks = 4;
  const auto base = om::Engine(narrow, &pool).run(req);

  om::EngineConfig wide;
  wide.num_ranks = 4;
  wide.ranks_per_energy_group = 2;
  const auto run = om::Engine(wide, &pool).run(req);
  for (std::size_t k = 0; k < 2; ++k)
    for (std::size_t i = 0; i < req.energies[k].size(); ++i)
      EXPECT_DOUBLE_EQ(run.caroli[k][i], base.caroli[k][i])
          << "k=" << k << " point " << i;
}

TEST(SolverParity, SkippedPointsKeepSpatialProtocolAligned) {
  // Far-out-of-band energies with want_caroli = false give points where
  // nothing propagates and the leader solves nothing (m == 0) — but the
  // spatial members have already sent their partitions.  The leader must
  // drain those transfers (Solver::discard) or the *next* point would
  // consume stale partitions and produce silently wrong numbers.
  for (const auto algo :
       {tr::SolverAlgorithm::kSpike, tr::SolverAlgorithm::kSplitSolve}) {
    std::vector<df::LeadBlocks> leads{synthetic_lead(3, 77)};
    om::SweepRequest req;
    req.materials = {&leads};
    req.cells = 12;
    req.potential.assign(12, 0.0);
    req.energies = {{-10.0, -0.4, 10.0, 0.0, 0.4}};  // skip, solve, skip...
    req.point.obc = tr::ObcAlgorithm::kShiftInvert;
    req.point.solver = algo;
    req.point.partitions = 2;
    req.point.want_caroli = false;
    req.point.want_current = false;
    req.density_weight = {{{0.3, 0.3, 0.3, 0.3, 0.3}},
                          {{0.0, 0.0, 0.0, 0.0, 0.0}}};
    pp::DevicePool pool(2);

    om::EngineConfig narrow;
    narrow.num_ranks = 4;
    const auto base = om::Engine(narrow, &pool).run(req);

    om::EngineConfig wide;
    wide.num_ranks = 4;
    wide.ranks_per_energy_group = 2;
    const auto run = om::Engine(wide, &pool).run(req);
    for (std::size_t i = 0; i < req.energies[0].size(); ++i)
      EXPECT_DOUBLE_EQ(run.transmission[0][i], base.transmission[0][i])
          << sv::algorithm_name(algo) << " point " << i;
    ASSERT_EQ(run.charge.size(), base.charge.size());
    for (std::size_t c = 0; c < base.charge.size(); ++c)
      EXPECT_DOUBLE_EQ(run.charge[c], base.charge[c])
          << sv::algorithm_name(algo) << " cell " << c;
  }
}

TEST(SolverParity, AutoIsDeterministicThroughTheEngine) {
  pp::DevicePool pool(2);
  const auto a = run_width(tr::SolverAlgorithm::kAuto, 2, 2, 1, &pool);
  const auto b = run_width(tr::SolverAlgorithm::kAuto, 2, 2, 1, &pool);
  for (std::size_t i = 0; i < a.caroli[0].size(); ++i)
    EXPECT_DOUBLE_EQ(a.caroli[0][i], b.caroli[0][i]);
  for (std::size_t c = 0; c < a.charge.size(); ++c)
    EXPECT_DOUBLE_EQ(a.charge[c], b.charge[c]);
}

TEST(SolverParity, SpatialErrorsSurfaceWithoutDeadlock) {
  // cells = 1 makes every KData build throw; with width-2 groups both the
  // leaders and the spatial members must drain their protocols and the
  // error must surface on the caller.
  std::vector<df::LeadBlocks> leads{synthetic_lead(3, 12)};
  om::SweepRequest req;
  req.materials = {&leads};
  req.cells = 1;
  req.potential.assign(1, 0.0);
  req.point.obc = tr::ObcAlgorithm::kDecimation;
  req.point.solver = tr::SolverAlgorithm::kSplitSolve;
  req.point.partitions = 2;
  req.energies = {{-0.5, 0.0, 0.5}};

  om::EngineConfig cfg;
  cfg.num_ranks = 4;
  cfg.ranks_per_energy_group = 2;
  pp::DevicePool pool(2);
  om::Engine engine(cfg, &pool);
  EXPECT_THROW(engine.run(req), std::invalid_argument);
}
