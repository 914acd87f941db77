// Companion linearization of the lead polynomial eigenvalue problem (Eq. 6).
//
// The open boundary conditions require the phase factors lambda = e^{i k_B}
// and eigenmodes u_B solving
//     sum_{l=-NBW}^{NBW} lambda^l (H_{q,q+l} - E S_{q,q+l}) u = 0.
// Multiplying by lambda^{NBW} gives a polynomial of degree d = 2*NBW with
// matrix coefficients C_j = Htilde_{j-NBW}, linearized into the pencil
// (A_F, B_F) of Eqs. (8)-(9) with size N_BC = d*s:
//     A_F = [[0 I 0 ...], ..., [-C_0 -C_1 ... -C_{d-1}]],
//     B_F = diag(I, ..., I, C_d).
// Eigenvectors carry the Krylov structure [u; lambda*u; ...; lambda^{d-1}u],
// which directly yields the *folded-supercell* modes used by the transport
// self-energies (lambda_f = lambda^{NBW}).
//
// The linear systems (z B_F - A_F) X = B_F Y reduce analytically to one
// s x s solve with the evaluated polynomial P(z) = sum_j C_j z^j — the size
// reduction to N_BC/(2 NBW) exploited by the paper's FEAST implementation.
// With R = B_F Y in blocks r_0..r_{d-1}, the first d-1 block rows give
// x_{j+1} = z x_j - r_j, i.e. x_j = z^j x_0 - w_j with
// w_j = sum_{i<j} z^{j-1-i} r_i, and the last block row collapses onto
//     P(z) x_0 = r_{d-1} + sum_{k=0}^{d-1} z^k S_k,
//     S_k = sum_{j=k+1}^{d} C_j r_{j-1-k}   (k = 0 omits C_d r_{d-1}).
// Neither R nor the S_k depend on z, so a contour integration forms them
// once per probing block (shifted_rhs) and each point only evaluates the
// Horner sum (reduced_rhs) and solves with its factor of P(z).
#pragma once

#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/matrix.hpp"

namespace omenx::obc {

using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

class CompanionPencil {
 public:
  /// Build the pencil for lead blocks at energy `e` (eV).
  CompanionPencil(const dft::LeadBlocks& lead, cplx e);

  idx block_size() const noexcept { return s_; }
  idx degree() const noexcept { return degree_; }
  idx dim() const noexcept { return s_ * degree_; }

  /// Dense A_F and B_F (baseline shift-and-invert path and tests).
  CMatrix a_dense() const;
  CMatrix b_dense() const;

  /// Matrix polynomial P(z) = sum_{j=0}^{d} C_j z^j (size s x s).
  CMatrix polynomial(cplx z) const;

  /// A_F X and B_F X from the block structure (X has dim() rows): the
  /// identity blocks are row shifts, so only the last block row costs GEMMs
  /// (d of them for A_F, one for B_F).
  CMatrix apply_a(const CMatrix& x) const;
  CMatrix apply_b(const CMatrix& x) const;

  /// The z-independent half of (z B_F - A_F) X = B_F Y.
  struct ShiftedRhs {
    CMatrix r;     ///< R = B_F Y (dim() x m); block i is r_i
    CMatrix sums;  ///< dim() x m; block k is S_k
  };
  /// R and the S_k for the probing block Y (dim() rows): d(d+1)/2 GEMMs of
  /// s x s x m, 10 at d = 4.
  ShiftedRhs shifted_rhs(const CMatrix& y) const;

  /// Right-hand side r_{d-1} + sum_k z^k S_k of P(z) x_0 (s x m).
  CMatrix reduced_rhs(cplx z, const ShiftedRhs& rhs) const;

 private:
  idx s_ = 0;
  idx degree_ = 0;                ///< d = 2*NBW
  std::vector<CMatrix> coeffs_;   ///< C_0..C_d
};

}  // namespace omenx::obc
