// OBC strategy registry, mode-classification regressions, and the
// cross-sweep boundary cache.
//
// Parity fixture: two *decoupled* single-orbital chains folded into one
// s = 2 lead (chain A: onsite 0, t = -1, band [-2, 2]; chain B: onsite 5,
// t = -0.5, band [4, 6]).  At E = -1 only chain A propagates and chain B's
// modes sit far off the unit circle (|lambda| in {0.084, 11.9}), so a thin
// annulus (R = 2) holds exactly two modes — within Beyn method A's rank-s
// capacity — and, because the chains are decoupled, the annulus-truncated
// boundary transmits identically to the full one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/blas.hpp"
#include "obc/boundary_cache.hpp"
#include "obc/shift_invert.hpp"
#include "obc/strategy.hpp"
#include "transport/transmission.hpp"

namespace df = omenx::dft;
namespace nm = omenx::numeric;
namespace ob = omenx::obc;
namespace tr = omenx::transport;
using nm::CMatrix;
using nm::cplx;
using nm::idx;

namespace {

df::LeadBlocks chain_lead(double t = -1.0, double onsite = 0.0) {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  lead.h[0] = CMatrix{{cplx{onsite}}};
  lead.h[1] = CMatrix{{cplx{t}}};
  lead.s[0] = CMatrix::identity(1);
  lead.s[1] = CMatrix(1, 1);
  return lead;
}

// Two decoupled chains as one 2-orbital lead (see file header).
df::LeadBlocks two_chain_lead() {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  lead.h[0] = CMatrix{{cplx{0.0}, cplx{0.0}}, {cplx{0.0}, cplx{5.0}}};
  lead.h[1] = CMatrix{{cplx{-1.0}, cplx{0.0}}, {cplx{0.0}, cplx{-0.5}}};
  lead.s[0] = CMatrix::identity(2);
  lead.s[1] = CMatrix(2, 2);
  return lead;
}

tr::EnergyPointOptions chain_point_options(tr::ObcAlgorithm obc) {
  tr::EnergyPointOptions opt;
  opt.obc = obc;
  opt.solver = tr::SolverAlgorithm::kBlockLU;
  opt.want_density = false;
  opt.want_current = false;
  return opt;
}

}  // namespace

// --- registry ------------------------------------------------------------

TEST(ObcRegistry, ListsAllBuiltins) {
  const auto names = ob::registered_obc_strategies();
  for (const char* expected :
       {"beyn", "decimation", "feast", "shift_invert"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(ObcRegistry, UnknownNameThrows) {
  EXPECT_THROW(ob::make_obc_strategy("transfer_matrix"),
               std::invalid_argument);
}

TEST(ObcRegistry, EnumAndNameAgree) {
  for (const auto algo :
       {ob::ObcAlgorithm::kShiftInvert, ob::ObcAlgorithm::kFeast,
        ob::ObcAlgorithm::kDecimation, ob::ObcAlgorithm::kBeyn}) {
    const auto by_enum = ob::make_obc_strategy(algo);
    const auto by_name = ob::make_obc_strategy(ob::obc_algorithm_name(algo));
    EXPECT_STREQ(by_enum->name(), by_name->name());
    EXPECT_STREQ(by_enum->name(), ob::obc_algorithm_name(algo));
  }
}

TEST(ObcRegistry, CapabilityBits) {
  for (const char* mode_based : {"shift_invert", "feast", "beyn"}) {
    const unsigned caps = ob::make_obc_strategy(mode_based)->capabilities();
    EXPECT_TRUE(caps & ob::kProvidesInjection) << mode_based;
    EXPECT_TRUE(caps & ob::kProvidesModes) << mode_based;
  }
  const unsigned dec = ob::make_obc_strategy("decimation")->capabilities();
  EXPECT_FALSE(dec & ob::kProvidesInjection);
  EXPECT_FALSE(dec & ob::kProvidesModes);
  EXPECT_EQ(ob::obc_algorithm_capabilities(ob::ObcAlgorithm::kDecimation),
            dec);
}

TEST(ObcRegistry, CustomRegistrationRoundTrip) {
  // A user-registered backend resolves by name like the built-ins.
  ob::register_obc_strategy("custom_decimation", [] {
    return ob::make_obc_strategy(ob::ObcAlgorithm::kDecimation);
  });
  const auto names = ob::registered_obc_strategies();
  EXPECT_NE(std::find(names.begin(), names.end(), "custom_decimation"),
            names.end());
  EXPECT_STREQ(ob::make_obc_strategy("custom_decimation")->name(),
               "decimation");
}

// --- mode-classification regressions -------------------------------------

TEST(GroupVelocity, KeepsSignOfNegativeBlochNorm) {
  // s00 = -I makes the s-weighted norm u^H Sv u = -1: the velocity must
  // flip sign with it, not take the magnitude of the denominator.
  ob::LeadOperators ops;
  ops.s00 = CMatrix{{cplx{-1.0}}};
  ops.s01 = CMatrix(1, 1);
  ops.t0 = CMatrix{{cplx{1.0}}};
  ops.tc = CMatrix{{cplx{0.0, 1.0}}};  // u^H tc u = i => numerator +2
  CMatrix u{{cplx{1.0}}};
  const double v = ob::group_velocity(cplx{1.0}, u, 0, ops);
  EXPECT_NEAR(v, -2.0, 1e-12);
}

TEST(FoldAndClassify, NegativeNormModeIsLeftMoving) {
  // Hand-built eigenpair: |lambda| = 1, positive-numerator velocity, but a
  // negative Bloch norm — the mode travels left.  The old magnitude-only
  // denominator classified it right-moving (wrong lead set => wrong Sigma
  // and injection).
  nm::EigResult eig;
  eig.values = {cplx{1.0}};
  eig.vectors = CMatrix{{cplx{1.0}}};
  ob::LeadOperators ops;
  ops.s00 = CMatrix{{cplx{-1.0}}};
  ops.s01 = CMatrix(1, 1);
  ops.t0 = CMatrix{{cplx{1.0}}};
  ops.tc = CMatrix{{cplx{0.0, 1.0}}};
  const auto modes = ob::fold_and_classify(eig, 1, 1, ops);
  ASSERT_EQ(modes.kind.size(), 1u);
  EXPECT_EQ(modes.kind[0], ob::ModeKind::kPropagatingLeft);
  EXPECT_LT(modes.velocity[0], 0.0);
  EXPECT_EQ(modes.num_propagating_right, 0);
  EXPECT_EQ(modes.num_propagating_left, 1);
}

TEST(FoldAndClassify, BandEdgeModesAreDemotedToDecaying) {
  // Chain band edge E = 2 (t = -1): a degenerate lambda = -1 pair with
  // vanishing group velocity.  sign(v) classification put *both* members
  // into the incident set (v >= 0) and double-counted the injection; they
  // carry no flux and belong with the evanescent states.
  const auto lead = chain_lead();
  const auto modes = ob::compute_modes_shift_invert(lead, cplx{2.0});
  ASSERT_EQ(modes.lambda.size(), 2u);
  EXPECT_EQ(modes.num_propagating_right, 0);
  EXPECT_EQ(modes.num_propagating_left, 0);
  for (const auto kind : modes.kind)
    EXPECT_TRUE(kind == ob::ModeKind::kDecayingRight ||
                kind == ob::ModeKind::kDecayingLeft);

  const auto ops = ob::lead_operators(df::fold_lead(lead), cplx{2.0});
  const auto bnd = ob::build_boundary(modes, ops);
  EXPECT_EQ(bnd.num_incident, 0);
  EXPECT_EQ(bnd.num_incident_right, 0);
}

TEST(FoldAndClassify, BandEdgeEnergyThroughSolveEnergyPoint) {
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  const auto dm = df::assemble_device(lead, 8, std::vector<double>(8, 0.0));
  const auto opt = chain_point_options(tr::ObcAlgorithm::kShiftInvert);
  const auto res = tr::solve_energy_point(dm, lead, folded, 2.0, opt);
  EXPECT_EQ(res.num_propagating, 0);
  EXPECT_DOUBLE_EQ(res.transmission, 0.0);
  // Just inside the band the channel must still open.
  const auto inside = tr::solve_energy_point(dm, lead, folded, 1.9, opt);
  EXPECT_EQ(inside.num_propagating, 1);
  EXPECT_NEAR(inside.transmission, 1.0, 1e-6);
}

// --- strategy parity -----------------------------------------------------

TEST(ObcParity, ShiftInvertVsFeastOnDecoupledChains) {
  // Full-spectrum parity: a wide FEAST annulus captures every mode, so it
  // must reproduce the dense shift-and-invert boundary and transmission; a
  // thin annulus (unit-circle modes only) still transmits identically here
  // because the omitted evanescent modes belong to the decoupled chain B.
  const auto lead = two_chain_lead();
  const auto folded = df::fold_lead(lead);
  const auto dm = df::assemble_device(lead, 8, std::vector<double>(8, 0.0));
  const double e = -1.0;

  auto solve = [&](tr::ObcAlgorithm algo, double annulus) {
    tr::EnergyPointOptions opt = chain_point_options(algo);
    opt.obc_opts.feast.annulus_r = annulus;
    return tr::solve_energy_point(dm, lead, folded, e, opt);
  };

  const auto si = solve(tr::ObcAlgorithm::kShiftInvert, 0.0);
  const auto feast_wide = solve(tr::ObcAlgorithm::kFeast, 50.0);
  const auto feast_thin = solve(tr::ObcAlgorithm::kFeast, 2.0);

  EXPECT_EQ(si.num_propagating, 1);
  EXPECT_NEAR(si.transmission, 1.0, 1e-8);
  for (const auto* r : {&feast_wide, &feast_thin}) {
    EXPECT_EQ(r->num_propagating, si.num_propagating);
    EXPECT_NEAR(r->transmission, si.transmission, 1e-5);
    EXPECT_NEAR(r->transmission_caroli, si.transmission_caroli, 1e-5);
  }
}

// Beyn's method A compresses onto the s-dimensional *polynomial* eigenspace,
// so it needs linearly independent eigenvectors inside the contour — a 1-D
// chain's +-k pair shares one u and is out of reach (see
// Beyn.MethodACapacityIsBlockSize).  The Beyn parity fixture is therefore
// the 3-orbital random lead of test_beyn at E = 6, where the thin annulus
// holds one independent-eigenvector propagating pair.
namespace {

df::LeadBlocks beyn_parity_lead() {
  df::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  CMatrix a = nm::random_cmatrix(3, 3, 33);
  lead.h[0] = a + nm::dagger(a);
  lead.h[1] = nm::random_cmatrix(3, 3, 34);
  for (idx i = 0; i < 3; ++i) lead.h[1](i, i) += cplx{2.0};
  lead.s[0] = CMatrix::identity(3);
  lead.s[1] = CMatrix(3, 3);
  return lead;
}

}  // namespace

TEST(ObcParity, BeynBoundaryMatchesFeastOnSameAnnulus) {
  // Same annulus => same truncated mode subspace => same Sigma and
  // injection count, through two entirely different eigensolvers (subspace
  // iteration vs contour moments).
  const auto lead = beyn_parity_lead();
  const auto folded = df::fold_lead(lead);
  const cplx e{6.0};
  ob::ObcOptions opts;
  opts.feast.annulus_r = 1.5;
  opts.beyn.annulus_r = 1.5;
  const auto feast =
      ob::make_obc_strategy("feast")->boundary(lead, folded, e, opts);
  const auto beyn =
      ob::make_obc_strategy("beyn")->boundary(lead, folded, e, opts);
  ASSERT_EQ(beyn.num_incident, feast.num_incident);
  ASSERT_EQ(beyn.num_incident_right, feast.num_incident_right);
  EXPECT_GT(beyn.num_incident, 0);
  EXPECT_LT(nm::max_abs_diff(beyn.sigma_l, feast.sigma_l), 1e-5);
  EXPECT_LT(nm::max_abs_diff(beyn.sigma_r, feast.sigma_r), 1e-5);
}

TEST(ObcParity, BeynTransmissionThroughRegistry) {
  // kBeyn end-to-end: selectable in solve_energy_point (no more dead
  // beyn.cpp) and in transmission parity with FEAST on the same annulus.
  const auto lead = beyn_parity_lead();
  const auto folded = df::fold_lead(lead);
  const auto dm = df::assemble_device(lead, 8, std::vector<double>(8, 0.0));
  auto solve = [&](tr::ObcAlgorithm algo) {
    tr::EnergyPointOptions opt = chain_point_options(algo);
    opt.obc_opts.feast.annulus_r = 1.5;
    opt.obc_opts.beyn.annulus_r = 1.5;
    return tr::solve_energy_point(dm, lead, folded, 6.0, opt);
  };
  const auto feast = solve(tr::ObcAlgorithm::kFeast);
  const auto beyn = solve(tr::ObcAlgorithm::kBeyn);
  EXPECT_EQ(beyn.num_propagating, feast.num_propagating);
  EXPECT_GT(beyn.num_propagating, 0);
  EXPECT_NEAR(beyn.transmission, feast.transmission, 1e-5);
  EXPECT_NEAR(beyn.transmission_caroli, feast.transmission_caroli, 1e-5);
}

TEST(ObcParity, ContactShiftEqualsShiftedEnergy) {
  // A lead at uniform potential V is the pristine lead at E - V — the
  // identity the strategies implement and the cache keys on.
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  const double v_shift = 0.3;
  ob::ObcOptions shifted;
  shifted.contact_shift = v_shift;
  auto strat = ob::make_obc_strategy("shift_invert");
  const auto a = strat->boundary(lead, folded, cplx{-0.5}, shifted);
  const auto b = strat->boundary(lead, folded, cplx{-0.5 - v_shift}, {});
  EXPECT_LT(nm::max_abs_diff(a.sigma_l, b.sigma_l), 1e-12);
  EXPECT_LT(nm::max_abs_diff(a.sigma_r, b.sigma_r), 1e-12);
}

// --- BoundaryOptions plumbing --------------------------------------------

TEST(BoundaryOptions, OneRidgeGovernsSigmaAndProjection) {
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  const cplx e{-0.5};
  auto strat = ob::make_obc_strategy("shift_invert");
  ob::ObcOptions tight;  // default 1e-12 ridge
  ob::ObcOptions loose;
  loose.boundary.pinv_ridge = 0.5;
  const auto a = strat->boundary(lead, folded, e, tight);
  const auto b = strat->boundary(lead, folded, e, loose);
  // The ridge reaches the self-energy construction...
  EXPECT_GT(nm::max_abs_diff(a.sigma_l, b.sigma_l), 1e-3);

  // ...and the transmission projection: a deliberately huge ridge must
  // visibly damp the flux-normalized amplitudes.
  const auto dm = df::assemble_device(lead, 8, std::vector<double>(8, 0.0));
  auto opt = chain_point_options(tr::ObcAlgorithm::kShiftInvert);
  const auto base = tr::solve_energy_point(dm, lead, folded, -0.5, opt);
  opt.obc_opts.boundary.pinv_ridge = 0.5;
  const auto damped = tr::solve_energy_point(dm, lead, folded, -0.5, opt);
  EXPECT_NEAR(base.transmission, 1.0, 1e-6);
  EXPECT_GT(std::abs(damped.transmission - base.transmission), 1e-3);
}

// --- capability enforcement ----------------------------------------------

TEST(ObcCapabilities, DensityRequestRejectedWithoutInjection) {
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  const auto dm = df::assemble_device(lead, 8, std::vector<double>(8, 0.0));
  tr::EnergyPointOptions opt;
  opt.obc = tr::ObcAlgorithm::kDecimation;
  opt.solver = tr::SolverAlgorithm::kBlockLU;
  opt.want_density = true;
  opt.want_current = false;
  EXPECT_THROW(tr::solve_energy_point(dm, lead, folded, -0.5, opt),
               std::invalid_argument);
  // Bond currents are wave-function observables too: same rejection.
  opt.want_density = false;
  opt.want_current = true;
  EXPECT_THROW(tr::solve_energy_point(dm, lead, folded, -0.5, opt),
               std::invalid_argument);
}

// --- boundary cache ------------------------------------------------------

TEST(BoundaryCache, HitMissInvalidateCounters) {
  ob::BoundaryCache cache;
  const ob::BoundaryKey key{2, -0.5, 0.0};
  EXPECT_EQ(cache.find(key), nullptr);
  ob::Boundary bnd;
  bnd.num_incident = 7;
  const auto stored = cache.insert(key, std::move(bnd));
  ASSERT_NE(stored, nullptr);
  const auto hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), stored.get());
  EXPECT_EQ(hit->num_incident, 7);
  // Key components are all significant: k, energy, and shift each miss.
  EXPECT_EQ(cache.find({3, -0.5, 0.0}), nullptr);
  EXPECT_EQ(cache.find({2, -0.5 + 1e-15, 0.0}), nullptr);
  EXPECT_EQ(cache.find({2, -0.5, 0.1}), nullptr);

  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);

  cache.invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(key), nullptr);
  s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  // The handle from before the invalidation stays valid.
  EXPECT_EQ(hit->num_incident, 7);
}

TEST(BoundaryCache, FirstInsertionIsCanonical) {
  ob::BoundaryCache cache;
  const ob::BoundaryKey key{0, 1.0, 0.0};
  ob::Boundary first;
  first.num_incident = 1;
  ob::Boundary second;
  second.num_incident = 2;
  cache.insert(key, std::move(first));
  const auto kept = cache.insert(key, std::move(second));
  EXPECT_EQ(kept->num_incident, 1);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(BoundaryCache, CapEvictsOldestInsertionsFirst) {
  ob::BoundaryCache cache(/*max_entries=*/2);
  for (int i = 0; i < 5; ++i)
    cache.insert({i, 0.0, 0.0}, ob::Boundary{});
  EXPECT_EQ(cache.size(), 2u);
  // FIFO: the two newest insertions survive, the oldest are gone.
  EXPECT_EQ(cache.find({0, 0.0, 0.0}), nullptr);
  EXPECT_EQ(cache.find({2, 0.0, 0.0}), nullptr);
  EXPECT_NE(cache.find({3, 0.0, 0.0}), nullptr);
  EXPECT_NE(cache.find({4, 0.0, 0.0}), nullptr);
  // reserve() raises the cap (and never lowers it).
  cache.reserve(8);
  EXPECT_EQ(cache.max_entries(), 8u);
  cache.reserve(4);
  EXPECT_EQ(cache.max_entries(), 8u);
}

TEST(BoundaryCache, KeyedByAlgorithm) {
  // Two backends at the same (k, E, shift) produce different Boundaries
  // (truncated vs full spectra) and must never alias in the cache.
  ob::BoundaryCache cache;
  ob::Boundary feast_bnd;
  feast_bnd.num_incident = 1;
  const int feast = static_cast<int>(ob::ObcAlgorithm::kFeast);
  const int beyn = static_cast<int>(ob::ObcAlgorithm::kBeyn);
  cache.insert({0, -0.5, 0.0, feast}, std::move(feast_bnd));
  EXPECT_NE(cache.find({0, -0.5, 0.0, feast}), nullptr);
  EXPECT_EQ(cache.find({0, -0.5, 0.0, beyn}), nullptr);
}

TEST(BoundaryCache, RejectsNonFiniteKeys) {
  // NaN compares unordered with every key: stored in the ordered map it
  // would be "equivalent" to every later lookup and poison the cache.
  ob::BoundaryCache cache;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ob::BoundaryKey bad_e{0, nan, 0.0};
  ob::BoundaryKey bad_shift{0, 0.5, inf};
  ob::BoundaryKey bad_imag{0, 0.5, 0.0};
  bad_imag.energy_imag = nan;
  for (const ob::BoundaryKey& key : {bad_e, bad_shift, bad_imag}) {
    EXPECT_THROW(cache.find(key), std::invalid_argument);
    EXPECT_THROW(cache.insert(key, ob::Boundary{}), std::invalid_argument);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ObcOptionsDigest, EveryFieldChangesTheDigest) {
  // The digest is the options component of the boundary-cache key: a field
  // it missed would let a Boundary computed under the old value be replayed.
  const std::uint64_t base = ob::ObcOptions{}.digest();
  EXPECT_EQ(base, ob::ObcOptions{}.digest());
  auto digest_of = [](auto mutate) {
    ob::ObcOptions o;
    mutate(o);
    return o.digest();
  };
  const std::vector<std::uint64_t> changed{
      digest_of([](ob::ObcOptions& o) { o.feast.annulus_r = 3.0; }),
      digest_of([](ob::ObcOptions& o) { o.feast.num_points = 8; }),
      digest_of([](ob::ObcOptions& o) { o.feast.subspace = 4; }),
      digest_of([](ob::ObcOptions& o) { o.feast.max_refinement = 2; }),
      digest_of([](ob::ObcOptions& o) { o.feast.residual_tol = 1e-6; }),
      digest_of([](ob::ObcOptions& o) { o.feast.prop_tol = 1e-5; }),
      digest_of([](ob::ObcOptions& o) { o.feast.seed = 1; }),
      digest_of([](ob::ObcOptions& o) { o.feast.parallel_points = false; }),
      digest_of([](ob::ObcOptions& o) { o.beyn.annulus_r = 3.0; }),
      digest_of([](ob::ObcOptions& o) { o.beyn.num_points = 8; }),
      digest_of([](ob::ObcOptions& o) { o.beyn.probe_columns = 4; }),
      digest_of([](ob::ObcOptions& o) { o.beyn.rank_tol = 1e-6; }),
      digest_of([](ob::ObcOptions& o) { o.beyn.residual_tol = 1e-5; }),
      digest_of([](ob::ObcOptions& o) { o.beyn.prop_tol = 1e-5; }),
      digest_of([](ob::ObcOptions& o) { o.beyn.seed = 1; }),
      digest_of([](ob::ObcOptions& o) { o.beyn.parallel_points = false; }),
      digest_of([](ob::ObcOptions& o) { o.shift_invert.sigma = {}; }),
      digest_of([](ob::ObcOptions& o) { o.shift_invert.prop_tol = 1e-5; }),
      digest_of([](ob::ObcOptions& o) { o.decimation.eta = 1e-6; }),
      digest_of([](ob::ObcOptions& o) { o.decimation.max_iter = 50; }),
      digest_of([](ob::ObcOptions& o) { o.decimation.tol = 1e-10; }),
      digest_of([](ob::ObcOptions& o) { o.boundary.pinv_ridge = 0.1; }),
  };
  for (std::size_t i = 0; i < changed.size(); ++i) {
    EXPECT_NE(changed[i], base) << "field " << i;
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_NE(changed[i], changed[j]) << "fields " << j << ", " << i;
  }
  // The shift is a BoundaryKey field of its own, not part of the digest.
  EXPECT_EQ(digest_of([](ob::ObcOptions& o) { o.contact_shift = 0.2; }), base);
}

TEST(BoundaryCache, CachedSolveSkipsLeadEigenproblemBitIdentically) {
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  const auto dm = df::assemble_device(lead, 8, std::vector<double>(8, 0.0));
  ob::BoundaryCache cache;
  tr::EnergyPointOptions opt;
  opt.obc = tr::ObcAlgorithm::kShiftInvert;
  opt.solver = tr::SolverAlgorithm::kBlockLU;
  opt.boundary_cache = &cache;
  opt.k_index = 3;

  const auto before = ob::boundary_solve_count();
  const auto first = tr::solve_energy_point(dm, lead, folded, -0.5, opt);
  EXPECT_EQ(ob::boundary_solve_count(), before + 1);
  const auto second = tr::solve_energy_point(dm, lead, folded, -0.5, opt);
  EXPECT_EQ(ob::boundary_solve_count(), before + 1);  // served from cache
  EXPECT_EQ(cache.stats().hits, 1u);

  // Bit-identical, not merely close: the cached Boundary is the same
  // object the first evaluation produced.
  EXPECT_EQ(first.transmission, second.transmission);
  EXPECT_EQ(first.transmission_caroli, second.transmission_caroli);
  EXPECT_EQ(first.num_propagating, second.num_propagating);

  // An uncached control run must agree exactly as well.
  tr::EnergyPointOptions plain = opt;
  plain.boundary_cache = nullptr;
  const auto control = tr::solve_energy_point(dm, lead, folded, -0.5, plain);
  EXPECT_EQ(control.transmission, first.transmission);
  EXPECT_EQ(control.transmission_caroli, first.transmission_caroli);
}

// --------------------------------------------- broadening default (eta) --

TEST(Decimation, SingleAuthoritativeEtaDefault) {
  // DecimationOptions' own default is the one true broadening; the old
  // ObcOptions override (1e-7 shadowing a 1e-6 header default) is gone.
  EXPECT_EQ(ob::DecimationOptions{}.eta, 1e-7);
  EXPECT_EQ(ob::ObcOptions{}.decimation.eta, 1e-7);
}

TEST(Decimation, RealAxisRejectsNonPositiveEta) {
  // On the real axis the surface Green's function has poles at the lead
  // bands: eta <= 0 is rejected loudly instead of diverging quietly.
  const auto lead = chain_lead();
  const auto folded = df::fold_lead(lead);
  const auto strategy = ob::make_obc_strategy("decimation");
  for (const double eta : {0.0, -1e-9}) {
    ob::ObcOptions opts;
    opts.decimation.eta = eta;
    EXPECT_THROW(strategy->boundary(lead, folded, cplx{-1.0, 0.0}, opts),
                 std::invalid_argument)
        << "eta = " << eta;
  }
  // Off-axis (contour) energies carry their own Im(E): eta = 0 is fine.
  ob::ObcOptions contour;
  contour.decimation.eta = 0.0;
  const auto bnd =
      strategy->boundary(lead, folded, cplx{-1.0, 0.05}, contour);
  EXPECT_EQ(bnd.sigma_l.rows(), 1);
}
