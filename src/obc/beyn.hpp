// Beyn's contour-integral method for the nonlinear lead eigenproblem
// (Ref. [43]: "FEAST can be modified according to Beyn to further reduce
// the calculation time").
//
// Unlike FEAST (which filters a linearized pencil and Rayleigh-Ritz
// iterates), Beyn integrates the resolvent of the *polynomial* itself:
//     A_0 = (1/2*pi*i) \oint P(z)^{-1} V dz,
//     A_1 = (1/2*pi*i) \oint z P(z)^{-1} V dz,
// over the annulus boundary; a rank-revealing factorization of A_0 followed
// by one small eigenproblem on the compressed A_1 yields all eigenpairs
// inside the contour in one shot — no subspace iteration, and every solve
// is s x s (never N_BC-sized).
//
// This is Beyn's "method A": the zeroth moment A_0 has rank at most s, so
// the contour may enclose at most s eigenpairs.  For wide annuli that
// enclose more modes, use FEAST (whose linearized subspace can grow to
// N_BC) — Beyn is the fast path for the tight annuli used in production.
#pragma once

#include "dft/hamiltonian.hpp"
#include "numeric/hash.hpp"
#include "obc/modes.hpp"

namespace omenx::obc {

struct BeynOptions {
  /// Keep modes whose per-block phase factor lambda has 1/R <= |lambda| <=
  /// R — the FeastOptions::annulus_r convention: the folded values returned
  /// (lambda^NBW) lie in 1/R^NBW <= |lambda^NBW| <= R^NBW.
  double annulus_r = 20.0;
  idx num_points = 48;     ///< trapezoid points per circle
  idx probe_columns = 0;   ///< columns of V; 0 = auto (s/2 + 8, capped at s)
  double rank_tol = 1e-7;  ///< rank cut on A_0 (rejects quadrature leakage)
  double residual_tol = 1e-6;
  double prop_tol = 1e-6;
  unsigned seed = 4242;
  bool parallel_points = true;

  // Every field is part of the boundary-cache key (ObcOptions::digest), so
  // a new field MUST be added here too.
  void digest(numeric::Fnv1a& h) const noexcept {
    h.add(annulus_r).add(num_points).add(probe_columns).add(rank_tol)
        .add(residual_tol).add(prop_tol).add(seed).add(parallel_points);
  }
};

struct BeynStats {
  idx modes_found = 0;
  idx rank = 0;
  double max_residual = 0.0;
};

/// Lead modes inside the annulus at energy `e` via Beyn's method.
LeadModes compute_modes_beyn(const dft::LeadBlocks& lead, cplx e,
                             const BeynOptions& options = {},
                             BeynStats* stats = nullptr);

}  // namespace omenx::obc
