// Fig. 5: the annulus contour in the complex plane that FEAST integrates
// over, keeping only propagating and slowly decaying lead modes.
//
// The bench computes the full companion spectrum of a Si nanowire lead
// (shift-and-invert reference), bins the eigenvalues by |lambda|, and shows
// that FEAST with the annulus contour finds exactly the enclosed subset.
// The annulus radius R bounds the per-block lambda while both solvers
// return folded values lambda^NBW, so the dense spectrum is binned by
// 1/R^NBW <= |lambda^NBW| <= R^NBW.  Results land in BENCH_contour.json;
// nonzero exit unless FEAST finds exactly the enclosed count at every
// radius with every subspace residual below 1e-6.
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "obc/feast.hpp"
#include "obc/shift_invert.hpp"

using namespace omenx;
using numeric::idx;

int main() {
  benchutil::header("Fig. 5: annulus selection of lead modes");
  benchutil::WallTimer timer;
  const auto wire = lattice::make_nanowire(0.6, 2);
  const dft::BasisLibrary basis;
  const auto lead = dft::build_lead_blocks(wire, basis);
  const double energy = -9.0;

  const auto all = obc::compute_modes_shift_invert(lead, {energy, 0.0});
  std::printf("lead: %s | N_BC = %lld | finite eigenvalues: %zu\n",
              wire.name.c_str(),
              static_cast<long long>(2 * lead.nbw() * lead.block_dim()),
              all.lambda.size());
  std::printf("propagating: %lld right / %lld left\n",
              static_cast<long long>(all.num_propagating_right),
              static_cast<long long>(all.num_propagating_left));

  benchutil::rule();
  std::printf("%14s %20s %20s %12s\n", "annulus R", "enclosed (dense)",
              "found (FEAST)", "max resid");
  bool selection_gate = true;
  bool residual_gate = true;
  std::string annuli;
  for (const double r : {1.5, 3.0, 10.0, 40.0}) {
    // R bounds the per-block lambda; the spectrum holds lambda^NBW.
    const double rf = std::pow(r, static_cast<double>(lead.nbw()));
    idx inside = 0;
    for (const auto lam : all.lambda) {
      const double m = std::abs(lam);
      if (m >= 1.0 / rf && m <= rf) ++inside;
    }
    obc::FeastOptions fopt;
    fopt.annulus_r = r;
    obc::FeastStats stats;
    const auto feast = obc::compute_modes_feast(lead, {energy, 0.0}, fopt,
                                                &stats);
    std::printf("%14.1f %20lld %20zu %12.2e\n", r,
                static_cast<long long>(inside), feast.lambda.size(),
                stats.max_residual);
    selection_gate = selection_gate &&
                     feast.lambda.size() == static_cast<std::size_t>(inside);
    residual_gate = residual_gate && stats.max_residual < 1e-6;
    benchutil::JsonWriter w;
    w.field("annulus_r", r);
    w.field("enclosed_dense", static_cast<double>(inside));
    w.field("found_feast", static_cast<double>(feast.lambda.size()));
    w.field("max_residual", stats.max_residual, true);
    annuli += "    {" + w.body + "},\n";
  }
  benchutil::rule();
  std::printf("fast-decaying modes (|lambda| outside the annulus) are "
              "neglected, as in the paper\n");
  const double elapsed = timer.seconds();
  std::printf("elapsed: %.1f s\n", elapsed);

  if (!annuli.empty()) annuli.erase(annuli.size() - 2, 1);  // trailing comma
  std::string json = "{\n";
  {
    benchutil::JsonWriter w;
    w.field("finite_eigenvalues", static_cast<double>(all.lambda.size()));
    w.field("propagating_right",
            static_cast<double>(all.num_propagating_right));
    w.field("propagating_left", static_cast<double>(all.num_propagating_left),
            true);
    json += "  \"lead\": {" + w.body + "},\n";
  }
  json += "  \"annuli\": [\n" + annuli + "  ],\n";
  {
    benchutil::JsonWriter w;
    w.field("elapsed_s", elapsed, true);
    json += "  \"timing\": {" + w.body + "},\n";
  }
  {
    benchutil::JsonWriter w;
    w.field("feast_finds_enclosed_modes", selection_gate ? 1.0 : 0.0);
    w.field("residual_below_1e6", residual_gate ? 1.0 : 0.0, true);
    json += "  \"gates\": {" + w.body + "}\n}\n";
  }
  std::FILE* f = std::fopen("BENCH_contour.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_contour.json\n");
  }
  return selection_gate && residual_gate ? 0 : 1;
}
