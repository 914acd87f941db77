// Sizing of FEAST's probing block: a call starts at 8 columns and doubles
// while the first pass's filtered random block is full rank.  Property
// test on random leads: the grown block finds every enclosed mode,
// whatever the probing seed.  test_feast_leads.cpp checks the device leads
// of the benchmarks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <string>
#include <vector>

#include "numeric/blas.hpp"
#include "obc/feast.hpp"
#include "obc/shift_invert.hpp"
#include "test_leads.hpp"

namespace nm = omenx::numeric;
namespace ob = omenx::obc;
using nm::cplx;
using nm::idx;
using ob::test::random_lead_nbw;

TEST(FeastSizing, FindsEveryEnclosedModeAsTheBlockGrows) {
  // Property: starting from 8 probing columns and doubling while the
  // filtered block is full rank, FEAST finds exactly the shift-invert
  // eigenvalues inside the annulus, whatever the probing seed.  Cases with
  // an eigenvalue within a factor 1.65 of either circle are skipped: there
  // the filter's value is neither 0 nor 1 and the count is not sharp for
  // either solver.
  constexpr double kMargin = 1.65;
  idx checked = 0;
  idx grown_past_8 = 0;
  idx grown_past_16 = 0;
  for (const idx s : {8, 16, 24, 32}) {
    for (const idx nbw : {1, 2}) {
      const unsigned seed = 1000 + 10 * static_cast<unsigned>(s) +
                            static_cast<unsigned>(nbw);
      const auto lead = random_lead_nbw(s, nbw, seed);
      // Folded phase factors are lambda^NBW; the annulus bounds lambda.
      const auto raw = [nbw](cplx folded) {
        return std::pow(std::abs(folded), 1.0 / static_cast<double>(nbw));
      };
      for (const double e : {-1.0, 0.0, 0.7}) {
        const auto dense = ob::compute_modes_shift_invert(lead, cplx{e});
        for (const double r : {3.0, 20.0}) {
          bool near_circle = false;
          std::vector<cplx> inside;
          for (const cplx lam : dense.lambda) {
            const double m = raw(lam);
            for (const double c : {r, 1.0 / r})
              near_circle = near_circle || (m > c / kMargin && m < c * kMargin);
            if (m >= 1.0 / r && m <= r) inside.push_back(lam);
          }
          std::printf("s=%lld nbw=%lld seed=%u R=%g E=%g: %s\n",
                      static_cast<long long>(s), static_cast<long long>(nbw),
                      seed, r, e, near_circle ? "skipped" : "checked");
          if (near_circle) continue;
          for (const unsigned probe_seed : {12345u, 1u, 2u, 3u}) {
            SCOPED_TRACE("s=" + std::to_string(s) + " nbw=" +
                         std::to_string(nbw) + " seed=" +
                         std::to_string(seed) + " R=" + std::to_string(r) +
                         " E=" + std::to_string(e) + " probe seed=" +
                         std::to_string(probe_seed));
            ob::FeastOptions fopt;
            fopt.annulus_r = r;
            fopt.seed = probe_seed;
            ob::FeastStats stats;
            const auto feast =
                ob::compute_modes_feast(lead, cplx{e}, fopt, &stats);
            ++checked;
            grown_past_8 += stats.subspace_used() > 8 ? 1 : 0;
            grown_past_16 += stats.subspace_used() > 16 ? 1 : 0;
            EXPECT_EQ(feast.lambda.size(), inside.size());
            for (const cplx lam : feast.lambda) {
              double best = 1e300;
              for (const cplx ref : inside)
                best = std::min(best, std::abs(lam - ref));
              EXPECT_LT(best, 1e-6) << "lambda " << lam;
            }
          }
        }
      }
    }
  }
  std::printf("checked %lld calls, %lld grew past 8, %lld past 16\n",
              static_cast<long long>(checked),
              static_cast<long long>(grown_past_8),
              static_cast<long long>(grown_past_16));
  EXPECT_GT(checked, 0);
  EXPECT_GT(grown_past_8, 0);
  EXPECT_GT(grown_past_16, 0);
}
