// Dense BLAS-like kernels (GEMM, GEMV, norms) for the Matrix container.
//
// The paper's hot loops are zgemm on the emulated accelerators; here GEMM is
// a packed, tiled kernel in the GotoBLAS mold: operands are repacked into
// contiguous split real/imaginary panels (transpose and conjugation are
// applied during packing, never by materializing op(A)), and an FMA-friendly
// register-tile micro-kernel runs on the packed panels.  Shapes whose packed
// tile would be mostly padding (few output columns, one depth slab — the
// s = 2..8 blocks of small devices) take a direct route instead, with the
// same per-element arithmetic and so bit-identical results.  Device workers run
// with parallelism disabled (see parallel/device.hpp) so that emulated GPUs
// do not oversubscribe the host.
#pragma once

#include "numeric/matrix.hpp"
#include "numeric/types.hpp"

namespace omenx::numeric {

/// Per-thread switch: when false, kernels in this thread run serially.
/// Accelerator-emulation workers disable parallelism to avoid nested
/// oversubscription.
void set_thread_parallelism(bool enabled) noexcept;
bool thread_parallelism() noexcept;

/// C = alpha*op(A)*op(B) + beta*C.  Op is 'N' (none), 'T' (transpose) or
/// 'C' (conjugate transpose).  Counted in the global FlopCounter.
/// C must not alias A or B.  Performs no operand copies: transposition is
/// folded into panel packing, and the packing buffers are persistent
/// per-thread scratch, so a call with a right-sized C does no allocation.
void gemm(const CMatrix& a, const CMatrix& b, CMatrix& c,
          cplx alpha = cplx{1.0}, cplx beta = cplx{0.0}, char op_a = 'N',
          char op_b = 'N');

/// Strided-view GEMM core: C(m x n, row stride ldc) +=
/// alpha * op(A) * op(B) + (beta-1)*C, where op(A) is m x k read from `a`
/// with row stride lda ('N' reads a[i*lda+p], 'T'/'C' read a[p*lda+i]) and
/// op(B) is k x n likewise.  This is what the blocked LU and the
/// block-tridiagonal solvers call on sub-blocks without copying them out.
/// `count_flops=false` lets callers that account analytically (LU) avoid
/// double counting.  C must not overlap A or B.
///
/// Two routes, one arithmetic.  The packed route tiles C into 4 x 24
/// micro-tiles from per-thread packing scratch; a product with few columns
/// over one depth slab (detail::gemm_direct_shape) takes a direct route
/// that packs a tile just wide enough, on the stack, and skips the
/// padding.  Both fold alpha into each A element, accumulate every C
/// element in split re/im sums from 0 in depth order with the same
/// `ar*br - ai*bi` / `ar*bi + ai*br` form, and add once into C, so the
/// route never changes a bit of the result.
void gemm_view(char op_a, const cplx* a, idx lda, char op_b, const cplx* b,
               idx ldb, idx m, idx n, idx k, cplx alpha, cplx beta, cplx* c,
               idx ldc, bool count_flops = true);

namespace detail {

/// The shape rule gemm_view routes by: true when (m, n, k) takes the
/// direct small-shape route on the calling thread.  The direct route is
/// serial, so a shape the packed route would split across threads
/// (thread_parallelism() on and m*n*k > 64^3) stays packed.
bool gemm_direct_shape(idx m, idx n, idx k) noexcept;

/// gemm_view's two routes, for the kernel bench.
enum class GemmRoute { kDirect, kPacked };

/// gemm_view forced onto one route, counting no flops.  kDirect throws
/// std::invalid_argument outside the direct shapes.
void gemm_view_via(GemmRoute route, char op_a, const cplx* a, idx lda,
                   char op_b, const cplx* b, idx ldb, idx m, idx n, idx k,
                   cplx alpha, cplx beta, cplx* c, idx ldc);

}  // namespace detail

/// Convenience: returns op(A)*op(B).
CMatrix matmul(const CMatrix& a, const CMatrix& b, char op_a = 'N',
               char op_b = 'N');

/// y = alpha*A*x + beta*y.
void gemv(const CMatrix& a, const std::vector<cplx>& x, std::vector<cplx>& y,
          cplx alpha = cplx{1.0}, cplx beta = cplx{0.0});

/// Frobenius norm.
double frob_norm(const CMatrix& a);
double frob_norm(const RMatrix& a);

/// Max |a_ij - b_ij|.
double max_abs_diff(const CMatrix& a, const CMatrix& b);

/// Largest |a_ij|.
double max_abs(const CMatrix& a);

/// True if ||A - A^dagger||_max <= tol * max(1, ||A||_max).
bool is_hermitian(const CMatrix& a, double tol = 1e-10);

}  // namespace omenx::numeric
