// FEAST contour-integration eigensolver for the lead pencil (Eq. 10, Fig. 5).
//
// Only the m eigenvalues inside the annulus 1/R <= |lambda| <= R matter for
// transport (propagating and slowly decaying modes); the contour is the
// annulus boundary: the outer circle traversed counter-clockwise plus the
// inner circle clockwise.  Each trapezoid integration point costs one s x s
// solve thanks to the companion reduction (obc/companion.hpp); the points
// are independent and run in parallel on the host threads — in the paper
// this is the CPU-side work overlapped with SplitSolve on GPUs.
//
// The probing block starts at 8 columns.  It doubles when the filtered
// random block of an attempt's first pass comes back at full numerical rank
// (R diagonals above 1e-7 of the largest), or when the annulus yields as
// many Ritz values as the block has columns.  That rank counts the
// eigenvalues the filter passes, so a wider block spans every enclosed mode.
//
// Per call, each P(z_p) is factored once and the factor is reused by every
// filter pass and subspace-growth restart.  Per pass, the z-independent
// products C_j r_i are formed once (CompanionPencil::shifted_rhs); a point
// then costs a Horner sum of s x m blocks and one solve with its factor.
// The filtered block Q is accumulated in point order from the points'
// s x m solutions x_0, so serial and parallel points agree bit for bit.
#pragma once

#include <optional>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/hash.hpp"
#include "numeric/lu.hpp"
#include "obc/companion.hpp"
#include "obc/modes.hpp"
#include "perf/flops.hpp"

namespace omenx::obc {

struct FeastOptions {
  /// Keep modes whose per-block phase factor lambda (one unit cell, the
  /// companion pencil's eigenvalue) has 1/R <= |lambda| <= R.  The modes
  /// come back folded (LeadModes::lambda = lambda^NBW), so the kept folded
  /// values lie in 1/R^NBW <= |lambda^NBW| <= R^NBW.
  double annulus_r = 20.0;
  idx num_points = 16;       ///< trapezoid points per circle
  idx subspace = 0;          ///< starting probing columns; 0 = auto (8);
                             ///< doubled while the filtered block is full rank
  idx max_refinement = 4;    ///< subspace iteration count
  double residual_tol = 1e-8;
  double prop_tol = 1e-6;
  unsigned seed = 12345;     ///< probing matrix seed (deterministic)
  bool parallel_points = true;

  // Every field is part of the boundary-cache key (ObcOptions::digest), so
  // a new field MUST be added here too.
  void digest(numeric::Fnv1a& h) const noexcept {
    h.add(annulus_r).add(num_points).add(subspace).add(max_refinement)
        .add(residual_tol).add(prop_tol).add(seed).add(parallel_points);
  }
};

struct FeastStats {
  idx modes_found = 0;
  /// Each attempt in order: its probing columns and, per filter pass, the
  /// rank Rayleigh-Ritz ran at.  perf::feast_flops prices them.
  std::vector<perf::FeastAttempt> attempts;
  idx factorizations = 0;    ///< LUs of P(z): 2 * num_points per call
  double max_residual = 0.0;

  /// Probing columns of the last attempt.
  idx subspace_used() const {
    return attempts.empty() ? 0 : attempts.back().subspace;
  }
  /// Filter passes over all attempts.
  idx iterations() const {
    idx passes = 0;
    for (const auto& attempt : attempts)
      passes += static_cast<idx>(attempt.ranks.size());
    return passes;
  }
};

/// Lead modes inside the annulus at energy `e`.  `stats` (optional) reports
/// convergence diagnostics.
LeadModes compute_modes_feast(const dft::LeadBlocks& lead, cplx e,
                              const FeastOptions& options = {},
                              FeastStats* stats = nullptr);

namespace detail {

/// A trapezoid node of the contour and its weight.
struct ContourPoint {
  cplx z;
  cplx weight;
};

/// The annulus boundary with `np` points per circle (outer circle first at
/// each angle): sum_p weight_p f(z_p) approximates (1/(2 pi i)) \oint f dz.
std::vector<ContourPoint> annulus_contour(double r, idx np);

/// FEAST's contour filter Q = sum_p w_p (z_p B_F - A_F)^{-1} B_F Y for one
/// pencil, which must outlive the filter.  The factor of P(z_p) is made on
/// the filter's first pass and kept for the filter's lifetime; concurrent
/// points each fill their own slot.
class ContourFilter {
 public:
  ContourFilter(const CompanionPencil& pencil,
                std::vector<ContourPoint> points, bool parallel_points);

  /// Q for the probing block Y (pencil.dim() rows).
  CMatrix apply(const CMatrix& y);

  const std::vector<ContourPoint>& points() const noexcept { return points_; }
  /// Factorizations of P(z) made so far: at most one per point.
  idx factorizations() const noexcept { return factorizations_; }

 private:
  const CompanionPencil& pencil_;
  std::vector<ContourPoint> points_;
  std::vector<cplx> moments_;  ///< mu_k = sum_p w_p z_p^k, k = 0..d-2
  std::vector<std::optional<numeric::LUFactor>> factors_;
  bool parallel_points_;
  idx factorizations_ = 0;
};

}  // namespace detail

}  // namespace omenx::obc
