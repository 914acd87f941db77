// Recursive Green's Function kernels (Ref. [47]) modified per Algorithm 1
// of the paper: compute only the first and last block columns of A^{-1}.
//
// The two sweeps (first column: bottom-up fold then top-down accumulate;
// last column: mirrored) are independent — "they naturally scale to two
// accelerators".  A diagonal-of-inverse variant supports Green's-function
// observables (DOS, Fig. 10 maps).
#pragma once

#include <vector>

#include "blockmat/block_tridiag.hpp"
#include "numeric/matrix.hpp"

namespace omenx::solvers {

using blockmat::BlockTridiag;
using numeric::CMatrix;
using numeric::idx;

/// First block column of A^{-1}: stacked blocks G_{i,0}, i = 0..nb-1
/// (dim() x s).  Implements the downward fold X_i and the accumulation
/// Q_i = -X_i Q_{i-1} of Algorithm 1.
CMatrix rgf_first_block_column(const BlockTridiag& a);

/// Last block column of A^{-1}: stacked blocks G_{i,nb-1} (dim() x s).
CMatrix rgf_last_block_column(const BlockTridiag& a);

/// Both columns side by side (dim() x 2s): [A^{-1}_{:,first}, A^{-1}_{:,last}].
CMatrix rgf_block_columns(const BlockTridiag& a);

/// Diagonal blocks of A^{-1} (standard RGF forward/backward recursion).
std::vector<CMatrix> rgf_diagonal_blocks(const BlockTridiag& a);

/// x = A^{-1} b for a general dense b (dim() x m): the downward-fold
/// recursion of Algorithm 1 applied to an arbitrary right-hand side (block
/// Thomas with per-block LU pivots).  This is the N-terminal path — RHS
/// rows may be non-zero at any block, not just the corners.  Each column is
/// folded from its first non-zero block row down, so a column attached at
/// block b skips b rows of the forward sweep; every result bit equals that
/// of a fold over all columns at every row.
CMatrix rgf_solve(const BlockTridiag& a, const CMatrix& b);

}  // namespace omenx::solvers
