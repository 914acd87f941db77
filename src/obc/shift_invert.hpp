// Shift-and-invert baseline for the lead eigenvalue problem (Ref. [38]).
//
// The full companion pencil is transformed with one spectral shift near the
// unit circle and solved densely.  This is the method the paper replaces
// with FEAST: robust but O(N_BC^3) and hard to parallelize, so it becomes
// the bottleneck in a DFT basis (Fig. 8's first bar).
#pragma once

#include "dft/hamiltonian.hpp"
#include "numeric/hash.hpp"
#include "obc/modes.hpp"

namespace omenx::obc {

struct ShiftInvertOptions {
  cplx sigma{1.05, 0.21};  ///< spectral shift (must avoid eigenvalues)
  double prop_tol = 1e-6;

  // Every field is part of the boundary-cache key (ObcOptions::digest), so
  // a new field MUST be added here too.
  void digest(numeric::Fnv1a& h) const noexcept { h.add(sigma).add(prop_tol); }
};

/// All finite lead modes at energy `e`, via dense shift-and-invert on the
/// companion pencil.
LeadModes compute_modes_shift_invert(const dft::LeadBlocks& lead, cplx e,
                                     const ShiftInvertOptions& options = {});

}  // namespace omenx::obc
