// Deterministic FLOP counts for the transport kernels.
//
// "The number of floating point operations involved in SplitSolve is
// deterministic and can be accurately estimated" (Section 5B).  These
// analytic counts are validated against the instrumented kernels
// (numeric::FlopCounter) in the tests, then reused at paper scale where
// direct measurement is impossible.
#pragma once

#include <cstdint>
#include <vector>

#include "numeric/types.hpp"

namespace omenx::perf {

using numeric::idx;

/// Complex GEMM: 8*m*n*k real flops.
std::uint64_t gemm_flops(idx m, idx n, idx k);

/// Complex LU factorization: (8/3) n^3.
std::uint64_t lu_flops(idx n);

/// Complex LU triangular solve with nrhs columns: 8 n^2 nrhs.
std::uint64_t lu_solve_flops(idx n, idx nrhs);

/// Algorithm 1 (both block columns of A^{-1}): per block row, two GEMMs,
/// one LU factorization, one back substitution, for each of the two sweeps.
std::uint64_t splitsolve_preprocess_flops(idx nb, idx s);

/// Spike overhead on top of preprocessing for p partitions: the extra
/// V/W products and the reduced interface solve.
std::uint64_t splitsolve_spike_flops(idx nb, idx s, int partitions);

/// Steps 2-4 (SMW postprocessing) with nrhs right-hand-side columns.
std::uint64_t splitsolve_postprocess_flops(idx nb, idx s, idx nrhs);

/// Block-tridiagonal direct LU (the MUMPS stand-in): factorization plus a
/// full solve for nrhs columns.
std::uint64_t block_lu_flops(idx nb, idx s, idx nrhs);

/// One attempt of a FEAST call at a fixed probing-block size.
struct FeastAttempt {
  idx subspace = 0;        ///< probing columns m
  /// Per filter pass, the rank of the filtered block that Rayleigh-Ritz ran
  /// at; 0 for a pass that ran none (the block was empty, or full rank and
  /// the call grew).
  std::vector<idx> ranks;
};

/// FEAST OBC cost of one call: one s-sized LU of the lead polynomial per
/// contour point (np per circle), then per filter pass of each attempt the
/// z-independent companion products, a `subspace`-column solve per point,
/// the subspace QR and the Rayleigh-Ritz reduction at the pass's rank.
std::uint64_t feast_flops(idx s, idx degree, idx np,
                          const std::vector<FeastAttempt>& attempts);

/// Shift-and-invert baseline on the N_BC companion pencil: one LU of N_BC
/// plus a dense QR eigensolve (~25 n^3 with our Hessenberg-QR iteration).
std::uint64_t shift_invert_flops(idx nbc);

}  // namespace omenx::perf
