#include "numeric/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "numeric/flops.hpp"

namespace omenx::numeric {

namespace {
thread_local bool g_parallel = true;

// Tile geometry.  The micro-kernel computes a kMR x kNR complex tile with
// split real/imaginary accumulators held in registers (4 x 24 doubles x 2 =
// 24 AVX-512 zmm accumulators, leaving headroom for the B loads and the A
// broadcasts); panel sizes keep the packed A panel in L2 and each packed B
// micro-panel in L1 while it is swept over the A panel.
constexpr idx kMR = 4;
constexpr idx kNR = 24;
constexpr idx kMC = 96;    // multiple of kMR
constexpr idx kKC = 192;
constexpr idx kNC = 1008;  // multiple of kNR

// Persistent per-thread packing scratch: grows to the high-water mark of
// the panels this thread has packed (at most kMC x kKC and kKC x kNC), then
// every later GEMM of that size is allocation-free.  A thread that only runs
// small GEMMs (the blocked LU's updates of s = 48 blocks) keeps small
// buffers.
struct PackBuffers {
  std::vector<double> a_re, a_im;  // kMC x kKC, padded to kMR rows
  std::vector<double> b_re, b_im;  // kKC x kNC, padded to kNR cols
};

void grow(std::vector<double>& re, std::vector<double>& im, idx size) {
  if (re.size() < static_cast<std::size_t>(size)) {
    re.resize(static_cast<std::size_t>(size));
    im.resize(static_cast<std::size_t>(size));
  }
}

PackBuffers& tls_pack() {
  static thread_local PackBuffers buf;
  return buf;
}

inline idx round_up(idx v, idx m) { return (v + m - 1) / m * m; }

// op(A)[r][c] for a row-major source with leading dimension lda.
inline cplx op_elem(const cplx* a, idx lda, char op, idx r, idx c) {
  switch (op) {
    case 'N':
      return a[r * lda + c];
    case 'T':
      return a[c * lda + r];
    default:  // 'C'
      return std::conj(a[c * lda + r]);
  }
}

// Pack rows [i0, i0+mc) x depth [p0, p0+kc) of alpha*op(A) into split
// re/im panels laid out as [mc/kMR micro-panels][kc][kMR], zero-padded to a
// kMR multiple so the micro-kernel never branches on the row edge.
void pack_a(char op, const cplx* a, idx lda, idx i0, idx mc, idx p0, idx kc,
            cplx alpha, double* re, double* im) {
  for (idx ib = 0; ib < mc; ib += kMR) {
    double* pre = re + (ib / kMR) * kc * kMR;
    double* pim = im + (ib / kMR) * kc * kMR;
    for (idx p = 0; p < kc; ++p) {
      for (idx i = 0; i < kMR; ++i) {
        cplx v{0.0, 0.0};
        if (ib + i < mc) v = alpha * op_elem(a, lda, op, i0 + ib + i, p0 + p);
        pre[p * kMR + i] = v.real();
        pim[p * kMR + i] = v.imag();
      }
    }
  }
}

// Pack depth [p0, p0+kc) x cols [j0, j0+nc) of op(B) into split re/im
// panels laid out as [nc/NR micro-panels][kc][NR], zero-padded to NR.
template <idx NR = kNR>
void pack_b(char op, const cplx* b, idx ldb, idx p0, idx kc, idx j0, idx nc,
            double* re, double* im) {
  for (idx jb = 0; jb < nc; jb += NR) {
    double* pre = re + (jb / NR) * kc * NR;
    double* pim = im + (jb / NR) * kc * NR;
    for (idx p = 0; p < kc; ++p) {
      for (idx j = 0; j < NR; ++j) {
        cplx v{0.0, 0.0};
        if (jb + j < nc) v = op_elem(b, ldb, op, p0 + p, j0 + jb + j);
        pre[p * NR + j] = v.real();
        pim[p * NR + j] = v.imag();
      }
    }
  }
}

// C tile += packed-A micro-panel * packed-B micro-panel (a kMR x NR tile).
// Split-complex accumulation: 8 real flops per (i, j, p) as four FMA
// streams vectorized over the NR doubles of each B row.  The tile
// width changes only which (i, j) elements exist, never how one is summed.
template <idx NR = kNR>
void micro_kernel(idx kc, const double* __restrict a_re,
                  const double* __restrict a_im, const double* __restrict b_re,
                  const double* __restrict b_im, cplx* c, idx ldc,
                  idx m_valid, idx n_valid) {
  double acc_re[kMR][NR] = {};
  double acc_im[kMR][NR] = {};
  for (idx p = 0; p < kc; ++p) {
    const double* br = b_re + p * NR;
    const double* bi = b_im + p * NR;
    for (idx i = 0; i < kMR; ++i) {
      const double ar = a_re[p * kMR + i];
      const double ai = a_im[p * kMR + i];
      // Vectorize over j explicitly: left alone, GCC fully unrolls the
      // narrow widths (NR = 4..16) and vectorizes across rows instead, at
      // a fraction of the speed.  The j elements are independent, so this
      // changes no arithmetic.
#pragma omp simd
      for (idx j = 0; j < NR; ++j) {
        acc_re[i][j] += ar * br[j] - ai * bi[j];
        acc_im[i][j] += ar * bi[j] + ai * br[j];
      }
    }
  }
  for (idx i = 0; i < m_valid; ++i) {
    cplx* crow = c + i * ldc;
    for (idx j = 0; j < n_valid; ++j)
      crow[j] += cplx(acc_re[i][j], acc_im[i][j]);
  }
}

// The direct route: one depth slab (k <= kKC) and one B panel of width
// NR >= n, so nothing is packed to the kNR = 24 tile or into per-thread
// scratch.  A is packed one kMR-row micro-panel at a time on the stack.
// pack_a, pack_b and micro_kernel are the packed route's own, so every C
// element gets the same arithmetic — bit-identical results.
template <idx NR>
void direct_product(char op_a, const cplx* a, idx lda, char op_b,
                    const cplx* b, idx ldb, idx m, idx n, idx k, cplx alpha,
                    cplx* c, idx ldc) {
  double b_re[kKC * NR];
  double b_im[kKC * NR];
  pack_b<NR>(op_b, b, ldb, 0, k, 0, n, b_re, b_im);
  double a_re[kKC * kMR];
  double a_im[kKC * kMR];
  for (idx ir = 0; ir < m; ir += kMR) {
    const idx mr = std::min(kMR, m - ir);
    pack_a(op_a, a, lda, ir, mr, 0, k, alpha, a_re, a_im);
    micro_kernel<NR>(k, a_re, a_im, b_re, b_im, c + ir * ldc, ldc, mr, n);
  }
}

// The direct route's shapes: one depth slab and at most kDirectMaxN output
// columns, where the packed kMR x kNR tile is mostly padding.  Chosen with
// bench/micro_kernels' small-shape rows.
constexpr idx kDirectMaxN = 16;
constexpr bool direct_shape(idx n, idx k) {
  return n <= kDirectMaxN && k <= kKC;
}

// True when the packed route splits C's rows across OpenMP threads.
bool packed_runs_parallel(idx m, idx n, idx k) noexcept {
  return g_parallel &&
         static_cast<std::uint64_t>(m) * n * k > 64ull * 64ull * 64ull;
}

// gemm_view's rule: the direct route is serial, so it takes only the
// direct shapes the packed route would also run on one thread.
bool takes_direct_route(idx m, idx n, idx k) noexcept {
  return direct_shape(n, k) && !packed_runs_parallel(m, n, k);
}

// The direct route at the narrowest tile width covering n columns.
void direct_kernel(char op_a, const cplx* a, idx lda, char op_b, const cplx* b,
                   idx ldb, idx m, idx n, idx k, cplx alpha, cplx* c,
                   idx ldc) {
  static_assert(kDirectMaxN == 16, "direct_kernel's widths end at 16");
  if (n <= 2)
    direct_product<2>(op_a, a, lda, op_b, b, ldb, m, n, k, alpha, c, ldc);
  else if (n <= 4)
    direct_product<4>(op_a, a, lda, op_b, b, ldb, m, n, k, alpha, c, ldc);
  else if (n <= 8)
    direct_product<8>(op_a, a, lda, op_b, b, ldb, m, n, k, alpha, c, ldc);
  else
    direct_product<16>(op_a, a, lda, op_b, b, ldb, m, n, k, alpha, c, ldc);
}

// C += alpha * op(A) * op(B) through the GotoBLAS loop nest: packed B
// slabs, packed A panels, kMR x kNR micro-tiles.
void packed_product(char op_a, const cplx* a, idx lda, char op_b,
                    const cplx* b, idx ldb, idx m, idx n, idx k, cplx alpha,
                    cplx* c, idx ldc) {
  PackBuffers& master = tls_pack();
  const idx kc_max = std::min(kKC, k);
  grow(master.b_re, master.b_im, kc_max * round_up(std::min(kNC, n), kNR));

  const bool par = packed_runs_parallel(m, n, k);
  (void)par;

  for (idx jc = 0; jc < n; jc += kNC) {
    const idx nc = std::min(kNC, n - jc);
    const idx nc_pad = round_up(nc, kNR);
    for (idx pc = 0; pc < k; pc += kKC) {
      const idx kc = std::min(kKC, k - pc);
      pack_b(op_b, b, ldb, pc, kc, jc, nc, master.b_re.data(),
             master.b_im.data());
      const double* b_re = master.b_re.data();
      const double* b_im = master.b_im.data();
      const idx num_ic = (m + kMC - 1) / kMC;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (par)
#endif
      for (idx ic_idx = 0; ic_idx < num_ic; ++ic_idx) {
        const idx ic = ic_idx * kMC;
        const idx mc = std::min(kMC, m - ic);
        const idx mc_pad = round_up(mc, kMR);
        PackBuffers& local = tls_pack();
        grow(local.a_re, local.a_im, round_up(std::min(kMC, m), kMR) * kc_max);
        pack_a(op_a, a, lda, ic, mc, pc, kc, alpha, local.a_re.data(),
               local.a_im.data());
        for (idx jr = 0; jr < nc_pad; jr += kNR) {
          const double* bp_re = b_re + (jr / kNR) * kc * kNR;
          const double* bp_im = b_im + (jr / kNR) * kc * kNR;
          const idx n_valid = std::min(kNR, nc - jr);
          for (idx ir = 0; ir < mc_pad; ir += kMR) {
            const double* ap_re = local.a_re.data() + (ir / kMR) * kc * kMR;
            const double* ap_im = local.a_im.data() + (ir / kMR) * kc * kMR;
            const idx m_valid = std::min(kMR, mc - ir);
            micro_kernel(kc, ap_re, ap_im, bp_re, bp_im,
                         c + (ic + ir) * ldc + jc + jr, ldc, m_valid,
                         n_valid);
          }
        }
      }
    }
  }
}

void gemm_routed(detail::GemmRoute route, char op_a, const cplx* a, idx lda,
                 char op_b, const cplx* b, idx ldb, idx m, idx n, idx k,
                 cplx alpha, cplx beta, cplx* c, idx ldc, bool count_flops) {
  if ((op_a != 'N' && op_a != 'T' && op_a != 'C') ||
      (op_b != 'N' && op_b != 'T' && op_b != 'C'))
    throw std::invalid_argument("gemm: op must be one of N/T/C");
  if (route == detail::GemmRoute::kDirect && !direct_shape(n, k))
    throw std::invalid_argument("gemm: shape too large for the direct route");

  if (beta == cplx{0.0}) {
    for (idx i = 0; i < m; ++i)
      std::fill_n(c + i * ldc, n, cplx{0.0});
  } else if (beta != cplx{1.0}) {
    for (idx i = 0; i < m; ++i) {
      cplx* crow = c + i * ldc;
      for (idx j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  if (m == 0 || n == 0 || k == 0 || alpha == cplx{0.0}) return;

  if (count_flops)
    FlopCounter::add(static_cast<std::uint64_t>(m) * n * k * 8u);

  if (route == detail::GemmRoute::kDirect)
    direct_kernel(op_a, a, lda, op_b, b, ldb, m, n, k, alpha, c, ldc);
  else
    packed_product(op_a, a, lda, op_b, b, ldb, m, n, k, alpha, c, ldc);
}

}  // namespace

void set_thread_parallelism(bool enabled) noexcept { g_parallel = enabled; }
bool thread_parallelism() noexcept { return g_parallel; }

void gemm_view(char op_a, const cplx* a, idx lda, char op_b, const cplx* b,
               idx ldb, idx m, idx n, idx k, cplx alpha, cplx beta, cplx* c,
               idx ldc, bool count_flops) {
  gemm_routed(takes_direct_route(m, n, k) ? detail::GemmRoute::kDirect
                                          : detail::GemmRoute::kPacked,
              op_a, a, lda, op_b, b, ldb, m, n, k, alpha, beta, c, ldc,
              count_flops);
}

namespace detail {

bool gemm_direct_shape(idx m, idx n, idx k) noexcept {
  return takes_direct_route(m, n, k);
}

void gemm_view_via(GemmRoute route, char op_a, const cplx* a, idx lda,
                   char op_b, const cplx* b, idx ldb, idx m, idx n, idx k,
                   cplx alpha, cplx beta, cplx* c, idx ldc) {
  gemm_routed(route, op_a, a, lda, op_b, b, ldb, m, n, k, alpha, beta, c, ldc,
              /*count_flops=*/false);
}

}  // namespace detail

void gemm(const CMatrix& a_in, const CMatrix& b_in, CMatrix& c, cplx alpha,
          cplx beta, char op_a, char op_b) {
  const idx m = op_a == 'N' ? a_in.rows() : a_in.cols();
  const idx k = op_a == 'N' ? a_in.cols() : a_in.rows();
  const idx kb = op_b == 'N' ? b_in.rows() : b_in.cols();
  const idx n = op_b == 'N' ? b_in.cols() : b_in.rows();
  if (kb != k) throw std::invalid_argument("gemm: inner dim mismatch");
  // The packed kernel reads the operands while writing C (the seed copied
  // both operands, so gemm(a, b, a) used to be legal).  Check before the
  // resize can invalidate the aliased buffer.
  if (&c == &a_in || &c == &b_in ||
      (!c.empty() && (c.data() == a_in.data() || c.data() == b_in.data())))
    throw std::invalid_argument("gemm: C must not alias A or B");
  if (c.rows() != m || c.cols() != n) c.resize(m, n);

  gemm_view(op_a, a_in.data(), a_in.cols(), op_b, b_in.data(), b_in.cols(), m,
            n, k, alpha, beta, c.data(), c.cols());
}

CMatrix matmul(const CMatrix& a, const CMatrix& b, char op_a, char op_b) {
  CMatrix c;
  gemm(a, b, c, cplx{1.0}, cplx{0.0}, op_a, op_b);
  return c;
}

void gemv(const CMatrix& a, const std::vector<cplx>& x, std::vector<cplx>& y,
          cplx alpha, cplx beta) {
  const idx m = a.rows(), n = a.cols();
  if (static_cast<idx>(x.size()) != n)
    throw std::invalid_argument("gemv: dimension mismatch");
  if (static_cast<idx>(y.size()) != m) y.assign(static_cast<std::size_t>(m), cplx{0.0});
  FlopCounter::add(static_cast<std::uint64_t>(m) * n * 8u);
  for (idx i = 0; i < m; ++i) {
    cplx acc{0.0};
    const cplx* row = a.row_ptr(i);
    for (idx j = 0; j < n; ++j) acc += row[j] * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] =
        alpha * acc + beta * y[static_cast<std::size_t>(i)];
  }
}

double frob_norm(const CMatrix& a) {
  double s = 0.0;
  const cplx* p = a.data();
  for (idx i = 0; i < a.size(); ++i) s += std::norm(p[i]);
  return std::sqrt(s);
}

double frob_norm(const RMatrix& a) {
  double s = 0.0;
  const double* p = a.data();
  for (idx i = 0; i < a.size(); ++i) s += p[i] * p[i];
  return std::sqrt(s);
}

double max_abs_diff(const CMatrix& a, const CMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  double m = 0.0;
  for (idx i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

double max_abs(const CMatrix& a) {
  double m = 0.0;
  for (idx i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a.data()[i]));
  return m;
}

bool is_hermitian(const CMatrix& a, double tol) {
  if (!a.square()) return false;
  const double scale = std::max(1.0, max_abs(a));
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = i; j < a.cols(); ++j)
      if (std::abs(a(i, j) - std::conj(a(j, i))) > tol * scale) return false;
  return true;
}

CMatrix random_cmatrix(idx rows, idx cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  CMatrix out(rows, cols);
  for (idx i = 0; i < out.size(); ++i)
    out.data()[i] = cplx(dist(rng), dist(rng));
  return out;
}

}  // namespace omenx::numeric
