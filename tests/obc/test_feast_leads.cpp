// FEAST's probing block on the device leads of the benchmarks.  A call
// starts at 8 columns and doubles while the first pass's filtered random
// block is full rank; on the fig05_contour and utb_kspace leads it must
// give what the former N_BC / 2 block gave.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dft/basis.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "numeric/blas.hpp"
#include "obc/feast.hpp"
#include "obc/modes.hpp"
#include "obc/self_energy.hpp"
#include "test_leads.hpp"
#include "transport/bands.hpp"

namespace nm = omenx::numeric;
namespace ob = omenx::obc;
namespace df = omenx::dft;
using nm::cplx;
using nm::idx;
using ob::test::utb_lead;

TEST(FeastLeads, Fig05LeadCountsDoNotDependOnTheSeed) {
  // The Si gate-all-around lead of bench/fig05_contour (N_BC = 432, with
  // many evanescent modes just outside small annuli).  For every probing
  // seed, FEAST finds the modes the former N_BC / 2 = 216-column block
  // found in each annulus, with converged pairs.
  const df::BasisLibrary basis;
  const auto lead = df::build_lead_blocks(
      omenx::lattice::make_nanowire(0.6, 2), basis);
  const cplx e{-9.0};
  const std::vector<std::pair<double, std::size_t>> annuli = {
      {1.5, 6}, {3.0, 10}, {10.0, 18}, {40.0, 24}};
  for (const auto& [r, expected] : annuli) {
    for (const unsigned seed : {12345u, 1u, 2u, 3u}) {
      SCOPED_TRACE("R=" + std::to_string(r) + " seed=" + std::to_string(seed));
      ob::FeastOptions fopt;
      fopt.annulus_r = r;
      fopt.seed = seed;
      ob::FeastStats stats;
      const auto feast = ob::compute_modes_feast(lead, e, fopt, &stats);
      std::printf("R=%g seed=%u: %zu modes at %lld columns\n", r, seed,
                  feast.lambda.size(),
                  static_cast<long long>(stats.subspace_used()));
      EXPECT_EQ(feast.lambda.size(), expected);
      EXPECT_LT(stats.max_residual, 1e-6);
    }
  }
}

TEST(FeastLeads, AutoBlockMatchesWideBlockOnUtbWindow) {
  // The auto block (8 columns, doubled while the filtered block is full
  // rank) against the former auto size N_BC / 2 = 48 on the utb_kspace
  // lead, over that workload's energy window: the same modes and boundary
  // to 1e-7, from a block of at most 16 columns.
  const auto lead = utb_lead();
  const df::FoldedLead folded = df::fold_lead(lead);
  const double bottom =
      omenx::transport::band_window(omenx::transport::lead_band_structure(folded))
          .emin;
  ob::FeastOptions wide;
  wide.subspace = 48;
  for (int i = 0; i < 32; ++i) {
    const cplx e{bottom + 0.02 + (i + 0.5) * 1.48 / 32.0};
    SCOPED_TRACE("E = " + std::to_string(e.real()));
    ob::FeastStats stats;
    const auto a = ob::compute_modes_feast(lead, e, {}, &stats);
    const auto b = ob::compute_modes_feast(lead, e, wide);
    EXPECT_LE(stats.subspace_used(), 16);
    ASSERT_EQ(a.lambda.size(), b.lambda.size());
    EXPECT_EQ(a.num_propagating_right, b.num_propagating_right);
    EXPECT_EQ(a.num_propagating_left, b.num_propagating_left);
    const auto count = [](const ob::LeadModes& m, ob::ModeKind k) {
      return std::count(m.kind.begin(), m.kind.end(), k);
    };
    for (const auto k : {ob::ModeKind::kPropagatingRight,
                         ob::ModeKind::kPropagatingLeft,
                         ob::ModeKind::kDecayingRight,
                         ob::ModeKind::kDecayingLeft})
      EXPECT_EQ(count(a, k), count(b, k));
    const auto ops = ob::lead_operators(folded, e);
    const auto ba = ob::build_boundary(a, ops);
    const auto bb = ob::build_boundary(b, ops);
    EXPECT_EQ(ba.num_incident, bb.num_incident);
    EXPECT_EQ(ba.inj.cols(), bb.inj.cols());
    EXPECT_EQ(ba.inj_r.cols(), bb.inj_r.cols());
    EXPECT_LE(nm::max_abs_diff(ba.sigma_l, bb.sigma_l),
              1e-7 * nm::max_abs(bb.sigma_l));
    EXPECT_LE(nm::max_abs_diff(ba.sigma_r, bb.sigma_r),
              1e-7 * nm::max_abs(bb.sigma_r));
  }
}
