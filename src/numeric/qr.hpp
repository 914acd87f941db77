// Householder QR factorization for complex matrices.
//
// Used by the FEAST Rayleigh-Ritz step to orthonormalize the contour-
// integrated subspace before projecting the companion pencil.
#pragma once

#include "numeric/matrix.hpp"

namespace omenx::numeric {

struct QRResult {
  CMatrix q;  ///< m x n with orthonormal columns (thin Q).
  CMatrix r;  ///< n x n upper triangular.
};

/// Thin QR of an m x n matrix (m >= n) via Householder reflections.
QRResult qr_decompose(const CMatrix& a);

/// Orthonormal basis for the column span of `a`, dropping columns whose
/// R diagonal falls below `rank_tol * max_diag` (rank-revealing enough for
/// FEAST subspace cleanup).
CMatrix orthonormalize(const CMatrix& a, double rank_tol = 1e-10);

/// The same basis from an existing factorization of `a`.
CMatrix orthonormalize(const QRResult& qr, double rank_tol = 1e-10);

/// Number of R diagonals above `rank_tol * max_diag`: the columns
/// orthonormalize() keeps at that cut.
idx numerical_rank(const QRResult& qr, double rank_tol);

}  // namespace omenx::numeric
