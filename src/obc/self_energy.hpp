// Boundary self-energies Sigma^RB and injection vectors Inj from lead
// eigenmodes — the quantities FEAST (or shift-and-invert) feeds into
// SplitSolve (Fig. 4 / Fig. 6 "upon availability of the boundary
// conditions").
//
// With U the matrix of modes bounded in the lead and Lambda their phase
// factors, the Bloch propagator F = U Lambda^{-1} U^+ (left) closes the
// semi-infinite lead onto its surface cell:
//     g_L = (t0 + tc^H F_L)^{-1},    Sigma_L = tc^H g_L tc,
//     g_R = (t0 + tc  F_R)^{-1},     Sigma_R = tc  g_R tc^H.
// Incident (right-moving) propagating modes inject through the first block:
//     Inj_p = -(tc^H u_p + lambda_p Sigma_L u_p).
#pragma once

#include "numeric/hash.hpp"
#include "numeric/matrix.hpp"
#include "obc/modes.hpp"

namespace omenx::obc {

struct BoundaryOptions {
  /// Tikhonov ridge for the mode pseudo-inverse (U^H U + ridge I)^{-1} U^H.
  double pinv_ridge = 1e-12;

  // Every field is part of the boundary-cache key (ObcOptions::digest), so
  // a new field MUST be added here too.
  void digest(numeric::Fnv1a& h) const noexcept { h.add(pinv_ridge); }
};

/// Everything the Schroedinger solver needs to apply open boundaries at one
/// energy, plus the right-lead mode basis for transmission extraction.
struct Boundary {
  CMatrix sigma_l;  ///< sf x sf, acts on the first block
  CMatrix sigma_r;  ///< sf x sf, acts on the last block
  CMatrix inj;      ///< sf x n_inc injection columns (first block rows)

  std::vector<double> inj_velocity;  ///< |v| of each incident mode
  /// Bloch-normalized probability flux |2 Im(lambda u^H tc u)| of each
  /// incident mode.  The mode vectors are stored with unit 2-norm, not
  /// Bloch norm, so the flux carried by mode p is v_p * beta_p with
  /// beta_p = u^H S_v u (the Bloch norm group_velocity divides out) — in a
  /// non-orthogonal basis beta != 1 and dividing |psi|^2 by the bare |v|
  /// over-counts each channel by beta.  Normalizing by this flux instead
  /// makes the summed wave-function density equal the spectral function
  /// -2 Im G_ii exactly, which is what lets the complex-contour charge
  /// quadrature (charge::Quadrature) integrate the same physical density
  /// through the Green's-function route.
  std::vector<double> inj_flux;
  idx num_incident = 0;

  /// Drain-contact injection: left-moving propagating modes incident from
  /// the right lead, entering through the *last* block.  Mirror image of
  /// `inj`: Inj^R_p = -(tc u_p + lambda_p^{-1} Sigma_R u_p).  The ballistic
  /// two-contact charge (states occupied at mu_R) is built from these.
  CMatrix inj_r;                       ///< sf x n_inc_r (last block rows)
  std::vector<double> inj_r_velocity;  ///< |v| of each right-incident mode
  std::vector<double> inj_r_flux;      ///< Bloch-normalized flux, as above
  idx num_incident_right = 0;

  /// Right-bounded mode basis (columns), phases, velocities; propagating
  /// entries flagged for the transmission projection.  `right_flux` carries
  /// the Bloch-normalized flux of the propagating entries (0 for decaying
  /// ones), so transmission amplitudes are weighted by true flux ratios.
  CMatrix right_basis;
  std::vector<cplx> right_lambda;
  std::vector<double> right_velocity;
  std::vector<double> right_flux;
  std::vector<bool> right_propagating;
};

/// Build boundary data from classified lead modes.  Both contacts are the
/// same pristine material (as in the paper's FET structures), so one mode
/// set serves both sides.
Boundary build_boundary(const LeadModes& modes, const LeadOperators& ops,
                        const BoundaryOptions& options = {});

/// Moore-Penrose-style pseudo-inverse via the normal equations with a small
/// ridge: (U^H U + ridge I)^{-1} U^H.
CMatrix pseudo_inverse(const CMatrix& u, double ridge);

}  // namespace omenx::obc
