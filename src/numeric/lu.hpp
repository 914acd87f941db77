// Dense LU factorization with and without pivoting.
//
// The no-pivot variant mirrors MAGMA's zgesv_nopiv_gpu, the kernel the paper
// identifies as SplitSolve's bottleneck (Section 5E); the partial-pivot
// variant is the robust default used by FEAST contour solves and baselines.
//
// The factorization is right-looking and blocked with a panel width of 24
// (a single panel for n <= 24, two for the pipeline's s = 48 blocks): each
// panel is factored unblocked, then the trailing submatrix is updated with
// the packed GEMM kernel.  The triangular solves block with the factor's
// width: each diagonal block is swept row by row, and its contribution to
// the remaining rows is one gemm_view call.  Everything that is not GEMM —
// the panel's rank-1 updates, the U12 solve and the in-block sweeps — runs
// through one complex AXPY kernel on interleaved doubles that the compiler
// vectorizes, and the pivot search compares |z|^2 rather than calling
// std::abs.  inverse() skips the structural zeros of L^{-1}.  At n = 48,
// single-threaded on a 4-vCPU Xeon (AVX-512) host, the factor runs at about
// 0.4 of GEMM's rate (11-14 GFLOP/s) and the 48-RHS solve at 22-23 GFLOP/s.
//
// FLOPs are accounted analytically — (8/3) n^3 for the factorization,
// 8 n^2 nrhs per solve, 8 n^3 per inverse — and the internal GEMM calls are
// non-counting, so perf::lu_flops / perf::lu_solve_flops match the
// instrumented counter exactly with no double counting from the updates.
#pragma once

#include <vector>

#include "numeric/matrix.hpp"

namespace omenx::numeric {

enum class Pivoting { kPartial, kNone };

/// In-place LU factorization of a square complex matrix with associated
/// triangular solves.  Factorization cost ~ (8/3) n^3 real flops.
class LUFactor {
 public:
  /// Factor `a`.  Throws std::runtime_error on exact singularity.
  /// `panel` is the blocking width of the factorization and of every later
  /// solve: 0 picks the tuned default, 1 forces the classic unblocked
  /// algorithm (reference path for tests).
  explicit LUFactor(CMatrix a, Pivoting pivoting = Pivoting::kPartial,
                    idx panel = 0);

  /// Solve A X = B for X (B may have many columns).
  CMatrix solve(const CMatrix& b) const;

  /// Solve X A = B for X, using the identity X = (A^T \ B^T)^T.
  CMatrix solve_left(const CMatrix& b) const;

  /// Explicit inverse (used only for small matrices, e.g. SMW's R block).
  CMatrix inverse() const;

  /// log|det(A)| — handy for sanity checks on conditioning.
  double log_abs_det() const { return log_abs_det_; }

  idx dim() const { return lu_.rows(); }

  /// Row-pivot sequence (LAPACK-style: row k was swapped with pivots()[k]).
  const pool_vector<idx>& pivots() const { return piv_; }

  /// Blocking width the factors were built with; the solves use it too.
  idx panel() const { return panel_; }

 private:
  CMatrix lu_;
  pool_vector<idx> piv_;
  idx panel_;
  double log_abs_det_ = 0.0;
};

/// One-shot convenience: solve A X = B.
CMatrix solve(const CMatrix& a, const CMatrix& b,
              Pivoting pivoting = Pivoting::kPartial);

/// One-shot convenience: A^{-1}.
CMatrix inverse(const CMatrix& a, Pivoting pivoting = Pivoting::kPartial);

}  // namespace omenx::numeric
