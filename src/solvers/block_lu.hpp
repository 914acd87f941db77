// Block-tridiagonal direct LU (block Thomas algorithm).
//
// This is the repository's stand-in for MUMPS in Fig. 8: a general sparse
// direct solver that factors the whole matrix and solves for every
// right-hand side column, without exploiting that only the first/last block
// columns of T^{-1} are needed.  Complexity: O(nb * s^3) factor +
// O(nb * s^2 * nrhs) solve.
//
// A default-constructed instance can be re-factored with factor() point
// after point: the per-block containers keep their capacity, so steady-
// state refactorization performs no heap allocation (the energy sweep's
// per-thread context relies on this).
#pragma once

#include <memory>
#include <vector>

#include "blockmat/block_tridiag.hpp"
#include "numeric/lu.hpp"

namespace omenx::numeric {
class Backend;
}  // namespace omenx::numeric

namespace omenx::solvers {

using blockmat::BlockTridiag;
using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

class BlockTridiagLU {
 public:
  /// Empty factorization; call factor() before solve().
  BlockTridiagLU() = default;

  /// Factor the block-tridiagonal matrix.  Throws on singular pivot blocks.
  explicit BlockTridiagLU(const BlockTridiag& a) { factor(a); }

  /// (Re-)factor `a`, reusing the containers of any previous factorization.
  void factor(const BlockTridiag& a);

  /// Solve A X = B for dense multi-column B (dim() rows).
  CMatrix solve(const CMatrix& b) const;

  /// Factor a batch of same-shape systems in stage lockstep: elimination
  /// row i issues one batched left-solve (the L couplings of every
  /// problem), one batched s x s GEMM (every trailing update), and one
  /// batched dense LU (every new pivot block) through `backend` — the
  /// zgetrf_batched shape of the paper's device phase.  out[p] is
  /// bit-identical to BlockTridiagLU(*as[p]): the batched stages run the
  /// same scalar kernels on the same operands, only grouped across
  /// problems instead of across rows.  Throws if shapes differ.
  ///
  /// This is the shape for offloading backends, where each stage maps to
  /// one fused kernel.  Host lanes gain nothing from it (three barriers per
  /// row); they batch by problem instead, each lane running factor() on
  /// whole systems (see the block_lu solver's solve_boundary_problem).
  static void factor_batched(std::vector<BlockTridiagLU>& out,
                             const std::vector<const BlockTridiag*>& as,
                             numeric::Backend& backend);

  idx dim() const noexcept { return nb_ * s_; }

 private:
  idx nb_ = 0;
  idx s_ = 0;
  std::vector<numeric::LUFactor> dtilde_;  ///< factored pivot blocks
  std::vector<CMatrix> l_;                 ///< L_i = A_{i,i-1} Dt_{i-1}^{-1}
  std::vector<CMatrix> u_;                 ///< copies of A_{i,i+1}
};

/// One-shot convenience.
CMatrix block_lu_solve(const BlockTridiag& a, const CMatrix& b);

}  // namespace omenx::solvers
