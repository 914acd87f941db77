// Sancho-Rubio decimation: the "standard iterative technique" of Ref. [40]
// the paper contrasts with the eigenmode-based OBC algorithms.
//
// Computes the surface Green's function of a semi-infinite lead by doubling
// the effective cell length per iteration; convergence is geometric once a
// small imaginary part is added to the energy.
#pragma once

#include "numeric/hash.hpp"
#include "numeric/matrix.hpp"
#include "obc/modes.hpp"

namespace omenx::obc {

struct DecimationOptions {
  /// Imaginary energy broadening (eV).  THE single default: 1e-7 — small
  /// enough that decimation and the eigenvalue OBCs agree to the parity
  /// tolerances, large enough that the Sancho-Rubio iteration converges in
  /// a handful of doublings.  (Historically this header said 1e-6 while
  /// ObcOptions overrode it to 1e-7; the override is gone and this value
  /// is authoritative.)  On the real axis eta must be > 0 — the surface
  /// Green's function has poles there — and DecimationStrategy rejects
  /// eta <= 0 with std::invalid_argument; off-axis (contour) energies
  /// carry their own Im(E) and tolerate eta = 0.
  double eta = 1e-7;
  idx max_iter = 200;
  double tol = 1e-12;    ///< convergence on the coupling norm

  // Every field is part of the boundary-cache key (ObcOptions::digest), so
  // a new field MUST be added here too.
  void digest(numeric::Fnv1a& h) const noexcept {
    h.add(eta).add(max_iter).add(tol);
  }
};

/// Surface Green's function of the left (q -> -inf) lead:
/// g = (t0 - tc^H g tc)^{-1} evaluated at E + i*eta.
CMatrix surface_gf_left(const LeadOperators& ops, const DecimationOptions& o = {});

/// Surface Green's function of the right (q -> +inf) lead:
/// g = (t0 - tc g tc^H)^{-1}.
CMatrix surface_gf_right(const LeadOperators& ops, const DecimationOptions& o = {});

/// Boundary self-energies from decimation:
/// Sigma_L = tc^H g_L tc, Sigma_R = tc g_R tc^H.
CMatrix sigma_left_decimation(const LeadOperators& ops,
                              const DecimationOptions& o = {});
CMatrix sigma_right_decimation(const LeadOperators& ops,
                               const DecimationOptions& o = {});

}  // namespace omenx::obc
