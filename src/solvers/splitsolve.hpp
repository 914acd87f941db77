// SplitSolve: the paper's core algorithmic contribution (Section 3B).
//
// The Schroedinger system T x = b with T = (E S - H - Sigma^RB) is split via
// the Sherman-Morrison-Woodbury identity as T = A - B C, with
//   A = E S - H                            (block tridiagonal, no OBCs),
//   B = [e_first I, e_last I]              (N_SS x 2s selector),
//   C = diag-corner(Sigma_L, Sigma_R)      (2s x N_SS).
// Step 1 computes Q = A^{-1} B (first/last block columns of A^{-1}) on the
// accelerators — *before* the boundary self-energies exist, which is what
// lets the OBC solve (FEAST, on CPUs) overlap with the heavy GPU work.
// Steps 2-4 are cheap once Sigma and Inj arrive:
//   y = Q b',   R = 1 - C Q,   z = R^{-1} C y,   x = Q (b' + z).
#pragma once

#include <future>
#include <memory>

#include "blockmat/block_tridiag.hpp"
#include "numeric/matrix.hpp"
#include "parallel/device.hpp"
#include "solvers/spike.hpp"

namespace omenx::parallel {
class Comm;
}

namespace omenx::solvers {

struct SplitSolveOptions {
  int partitions = 1;  ///< SPIKE partitions (power of two)
  /// Spatial sub-communicator (Fig. 9 level 3).  Non-null with size > 1:
  /// Step 1's partitions are computed cooperatively by the communicator's
  /// ranks — the caller must be rank 0 and the other ranks must serve the
  /// same solve (spike_spatial_member on the same A).  Bit-identical to the
  /// pool/host paths for equal partition counts.
  parallel::Comm* spatial = nullptr;
};

class SplitSolve {
 public:
  /// Launches Step 1 (Q = A^{-1} B) asynchronously on `pool`'s devices, the
  /// spatial ranks, or (with neither) a host thread.  `a` must be E*S - H
  /// *without* boundary self-energies and must outlive Step 1.
  SplitSolve(const BlockTridiag& a, parallel::DevicePool* pool,
             SplitSolveOptions options = {});

  /// Back-compat convenience: pool by reference.
  SplitSolve(const BlockTridiag& a, parallel::DevicePool& pool,
             SplitSolveOptions options = {})
      : SplitSolve(a, &pool, options) {}

  /// Block until Step 1 finishes; returns Q (dim x 2s).
  const numeric::CMatrix& preprocessed_q();

  /// Steps 2-4.  `b_top` (s x m) and `b_bottom` (s x m) are the non-zero
  /// block rows of the sparse right-hand side (injection enters through
  /// b_top for left-incident carriers).  Returns the full solution x.
  numeric::CMatrix solve(const numeric::CMatrix& sigma_l,
                         const numeric::CMatrix& sigma_r,
                         const numeric::CMatrix& b_top,
                         const numeric::CMatrix& b_bottom);

  /// Steps 2-4 against an externally computed Q = A^{-1} B (dim x 2s with
  /// block size s).  This is the whole of solve() minus Step 1 — batched
  /// solves compute Q per problem (on host lanes) or many Qs as one
  /// backend dispatch (offloaded) and then run this per problem,
  /// bit-identical to solve() on the same Q.
  static numeric::CMatrix solve_with_q(const numeric::CMatrix& q,
                                       numeric::idx dim, numeric::idx s,
                                       const numeric::CMatrix& sigma_l,
                                       const numeric::CMatrix& sigma_r,
                                       const numeric::CMatrix& b_top,
                                       const numeric::CMatrix& b_bottom);

  numeric::idx dim() const noexcept { return dim_; }
  numeric::idx block_size() const noexcept { return s_; }

 private:
  numeric::idx dim_ = 0;
  numeric::idx s_ = 0;
  std::shared_future<numeric::CMatrix> q_future_;
  numeric::CMatrix q_;
  bool q_ready_ = false;
};

/// Fold the boundary self-energies into a copy of `a` (first/last diagonal
/// blocks receive -Sigma): the explicit T used by the direct-solver
/// baselines of Fig. 8.
BlockTridiag apply_boundary(const BlockTridiag& a,
                            const numeric::CMatrix& sigma_l,
                            const numeric::CMatrix& sigma_r);

/// In-place variant: rebuild `t` as `a` with the self-energies applied,
/// reusing t's block storage (the allocation-free energy-point path).
void apply_boundary_into(BlockTridiag& t, const BlockTridiag& a,
                         const numeric::CMatrix& sigma_l,
                         const numeric::CMatrix& sigma_r);

/// Expand sparse boundary RHS (top/bottom blocks) to a dense column set.
numeric::CMatrix expand_boundary_rhs(numeric::idx dim,
                                     const numeric::CMatrix& b_top,
                                     const numeric::CMatrix& b_bottom);

/// In-place variant of expand_boundary_rhs, reusing b's storage.
void expand_boundary_rhs_into(numeric::CMatrix& b, numeric::idx dim,
                              const numeric::CMatrix& b_top,
                              const numeric::CMatrix& b_bottom);

}  // namespace omenx::solvers
