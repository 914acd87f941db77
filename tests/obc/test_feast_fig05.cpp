// FEAST's probing block on the Si gate-all-around lead of
// bench/fig05_contour.  A call starts at 8 columns and doubles while the
// first pass's filtered random block is full rank; for every probing seed
// it must find what the former N_BC / 2 block found.  Split from
// test_feast_leads.cpp so each suite fits the per-test timeout under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dft/basis.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "obc/feast.hpp"

namespace ob = omenx::obc;
namespace df = omenx::dft;
using omenx::numeric::cplx;

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
