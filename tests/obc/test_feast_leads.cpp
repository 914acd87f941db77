// FEAST's probing block on the utb_kspace device lead.  A call starts at 8
// columns and doubles while the first pass's filtered random block is full
// rank; over that workload's window it must give what the former N_BC / 2
// block gave.  The fig05_contour lead's case lives in test_feast_fig05.cpp,
// so each suite fits the per-test timeout under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <string>
#include <vector>

#include "dft/hamiltonian.hpp"
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
using ob::test::utb_lead;

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
