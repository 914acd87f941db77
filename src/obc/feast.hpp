// FEAST contour-integration eigensolver for the lead pencil (Eq. 10, Fig. 5).
//
// Only the m eigenvalues inside the annulus 1/R <= |lambda| <= R matter for
// transport (propagating and slowly decaying modes); the contour is the
// annulus boundary: the outer circle traversed counter-clockwise plus the
// inner circle clockwise.  Each trapezoid integration point costs one s x s
// solve thanks to the companion reduction (CompanionPencil::solve_shifted);
// the points are independent and run in parallel on the host threads — in
// the paper this is the CPU-side work overlapped with SplitSolve on GPUs.
#pragma once

#include "dft/hamiltonian.hpp"
#include "numeric/hash.hpp"
#include "obc/modes.hpp"

namespace omenx::obc {

struct FeastOptions {
  double annulus_r = 20.0;   ///< keep modes with 1/R <= |lambda| <= R
  idx num_points = 16;       ///< trapezoid points per circle
  idx subspace = 0;          ///< probing columns; 0 = auto (expand as needed)
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
  idx subspace_used = 0;
  idx iterations = 0;
  double max_residual = 0.0;
};

/// Lead modes inside the annulus at energy `e`.  `stats` (optional) reports
/// convergence diagnostics.
LeadModes compute_modes_feast(const dft::LeadBlocks& lead, cplx e,
                              const FeastOptions& options = {},
                              FeastStats* stats = nullptr);

}  // namespace omenx::obc
