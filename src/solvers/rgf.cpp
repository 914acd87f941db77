#include "solvers/rgf.hpp"

#include <algorithm>

#include "numeric/blas.hpp"
#include "numeric/lu.hpp"

namespace omenx::solvers {

using numeric::cplx;

CMatrix rgf_first_block_column(const BlockTridiag& a) {
  const idx nb = a.num_blocks();
  const idx s = a.block_size();
  CMatrix q(a.dim(), s);
  if (nb == 1) {
    q.set_block(0, 0, numeric::inverse(a.diag(0)));
    return q;
  }
  // Downward fold (phases P1/P2 in Fig. 6):
  //   X_nb-1 = A_{nb-1,nb-1}^{-1} A_{nb-1,nb-2}
  //   X_i    = (A_ii - A_{i,i+1} X_{i+1})^{-1} A_{i,i-1},  i = nb-2..1
  //   X_0    = (A_00 - A_{0,1} X_1)^{-1}            (A_{0,-1} := identity)
  std::vector<CMatrix> x(static_cast<std::size_t>(nb));
  for (idx i = nb - 1; i >= 0; --i) {
    CMatrix m = a.diag(i);
    if (i + 1 < nb)
      numeric::gemm(a.upper(i), x[static_cast<std::size_t>(i + 1)], m,
                    cplx{-1.0}, cplx{1.0});
    const numeric::LUFactor lu(std::move(m));
    x[static_cast<std::size_t>(i)] =
        i > 0 ? lu.solve(a.lower(i - 1)) : lu.inverse();
  }
  // Accumulate (phases P3/P4): G_{0,0} = X_0; G_{i,0} = -X_i G_{i-1,0}.
  CMatrix gi = x[0];
  q.set_block(0, 0, gi);
  for (idx i = 1; i < nb; ++i) {
    CMatrix next;
    numeric::gemm(x[static_cast<std::size_t>(i)], gi, next, cplx{-1.0});
    gi = std::move(next);
    q.set_block(i * s, 0, gi);
  }
  return q;
}

CMatrix rgf_last_block_column(const BlockTridiag& a) {
  const idx nb = a.num_blocks();
  const idx s = a.block_size();
  CMatrix q(a.dim(), s);
  if (nb == 1) {
    q.set_block(0, 0, numeric::inverse(a.diag(0)));
    return q;
  }
  // Mirror of the first-column sweep: fold upward from the top.
  std::vector<CMatrix> y(static_cast<std::size_t>(nb));
  for (idx i = 0; i < nb; ++i) {
    CMatrix m = a.diag(i);
    if (i > 0)
      numeric::gemm(a.lower(i - 1), y[static_cast<std::size_t>(i - 1)], m,
                    cplx{-1.0}, cplx{1.0});
    const numeric::LUFactor lu(std::move(m));
    y[static_cast<std::size_t>(i)] =
        i + 1 < nb ? lu.solve(a.upper(i)) : lu.inverse();
  }
  CMatrix gi = y[static_cast<std::size_t>(nb - 1)];
  q.set_block((nb - 1) * s, 0, gi);
  for (idx i = nb - 2; i >= 0; --i) {
    CMatrix next;
    numeric::gemm(y[static_cast<std::size_t>(i)], gi, next, cplx{-1.0});
    gi = std::move(next);
    q.set_block(i * s, 0, gi);
  }
  return q;
}

CMatrix rgf_block_columns(const BlockTridiag& a) {
  const idx s = a.block_size();
  CMatrix q(a.dim(), 2 * s);
  q.set_block(0, 0, rgf_first_block_column(a));
  q.set_block(0, s, rgf_last_block_column(a));
  return q;
}

CMatrix rgf_solve(const BlockTridiag& a, const CMatrix& b) {
  const idx nb = a.num_blocks();
  const idx s = a.block_size();
  const idx ncol = b.cols();
  // Column j of b is zero above its first non-zero block row f_j, and so is
  // its folded Y.  Columns are folded in order of f_j, so row block i folds
  // and solves only the prefix of n_i columns with f_j <= i.  The last row
  // block folds every column (f_j is capped at nb - 1): X_{nb-1} = Y_{nb-1}
  // is read without a later addition, so an all-zero column is solved
  // there exactly as in a full-width fold.
  std::vector<idx> first(static_cast<std::size_t>(ncol), nb - 1);
  idx unplaced = ncol;
  for (idx r = 0; r < (nb - 1) * s && unplaced > 0; ++r) {
    const cplx* row = b.row_ptr(r);
    for (idx j = 0; j < ncol; ++j) {
      idx& f = first[static_cast<std::size_t>(j)];
      if (f == nb - 1 && row[j] != cplx{0.0}) {
        f = r / s;
        --unplaced;
      }
    }
  }
  std::vector<idx> perm(static_cast<std::size_t>(ncol));
  for (idx j = 0; j < ncol; ++j) perm[static_cast<std::size_t>(j)] = j;
  std::stable_sort(perm.begin(), perm.end(), [&](idx u, idx v) {
    return first[static_cast<std::size_t>(u)] <
           first[static_cast<std::size_t>(v)];
  });

  // Forward elimination (top-down fold): at row i the pivot is
  //   D_i = A_ii - A_{i,i-1} C_{i-1}  with  C_i = D_i^{-1} A_{i,i+1},
  // and the folded RHS is  Y_i = D_i^{-1} (B_i - A_{i,i-1} Y_{i-1}), here
  // over the n_i active columns in folding order.  GEMM and LU results per
  // column do not depend on how many columns are present (gemm_view), so
  // every active column gets the bits of a full-width fold.
  std::vector<CMatrix> c(static_cast<std::size_t>(nb));
  std::vector<CMatrix> y(static_cast<std::size_t>(nb));
  idx n_prev = 0;
  for (idx i = 0; i < nb; ++i) {
    idx n = n_prev;
    while (n < ncol && first[static_cast<std::size_t>(
                        perm[static_cast<std::size_t>(n)])] <= i)
      ++n;
    CMatrix m = a.diag(i);
    CMatrix r(s, n);
    for (idx ii = 0; ii < s; ++ii)
      for (idx k = 0; k < n; ++k)
        r(ii, k) = b(i * s + ii, perm[static_cast<std::size_t>(k)]);
    if (i > 0) {
      numeric::gemm(a.lower(i - 1), c[static_cast<std::size_t>(i - 1)], m,
                    cplx{-1.0}, cplx{1.0});
      if (n_prev > 0)
        numeric::gemm_view('N', a.lower(i - 1).data(), s, 'N',
                           y[static_cast<std::size_t>(i - 1)].data(), n_prev,
                           s, n_prev, s, cplx{-1.0}, cplx{1.0}, r.data(), n);
      // A full-width fold adds the zero product A_{i,i-1} Y_{i-1} into the
      // columns starting here, which turns a -0 RHS entry into +0.
      for (idx ii = 0; ii < s; ++ii)
        for (idx k = n_prev; k < n; ++k) r(ii, k) += cplx{0.0};
    }
    const numeric::LUFactor lu(std::move(m));
    if (i + 1 < nb) c[static_cast<std::size_t>(i)] = lu.solve(a.upper(i));
    y[static_cast<std::size_t>(i)] = n > 0 ? lu.solve(r) : std::move(r);
    n_prev = n;
  }
  // Back substitution over every column in folding order, Y_i zero-padded:
  // X_{nb-1} = Y_{nb-1}; X_i = Y_i - C_i X_{i+1}.  Each block row is
  // written back to the caller's column order.
  CMatrix x(a.dim(), ncol);
  const auto store = [&](idx i, const CMatrix& xi) {
    for (idx ii = 0; ii < s; ++ii)
      for (idx k = 0; k < ncol; ++k)
        x(i * s + ii, perm[static_cast<std::size_t>(k)]) = xi(ii, k);
  };
  CMatrix xi = y[static_cast<std::size_t>(nb - 1)];
  store(nb - 1, xi);
  for (idx i = nb - 2; i >= 0; --i) {
    const CMatrix& yi = y[static_cast<std::size_t>(i)];
    CMatrix next(s, ncol);
    for (idx ii = 0; ii < s; ++ii)
      for (idx k = 0; k < yi.cols(); ++k) next(ii, k) = yi(ii, k);
    numeric::gemm(c[static_cast<std::size_t>(i)], xi, next, cplx{-1.0},
                  cplx{1.0});
    xi = std::move(next);
    store(i, xi);
  }
  return x;
}

std::vector<CMatrix> rgf_diagonal_blocks(const BlockTridiag& a) {
  const idx nb = a.num_blocks();
  // Backward sweep: gR_i = (A_ii - A_{i,i+1} gR_{i+1} A_{i+1,i})^{-1}.
  std::vector<CMatrix> gr(static_cast<std::size_t>(nb));
  CMatrix t, m;
  for (idx i = nb - 1; i >= 0; --i) {
    m = a.diag(i);
    if (i + 1 < nb) {
      numeric::gemm(gr[static_cast<std::size_t>(i + 1)], a.lower(i), t);
      numeric::gemm(a.upper(i), t, m, cplx{-1.0}, cplx{1.0});
    }
    gr[static_cast<std::size_t>(i)] = numeric::inverse(m);
  }
  // Forward sweep: G_00 = gR_0;
  // G_ii = gR_i + gR_i A_{i,i-1} G_{i-1,i-1} A_{i-1,i} gR_i.
  std::vector<CMatrix> g(static_cast<std::size_t>(nb));
  g[0] = gr[0];
  CMatrix u;
  for (idx i = 1; i < nb; ++i) {
    const CMatrix& gri = gr[static_cast<std::size_t>(i)];
    numeric::gemm(a.upper(i - 1), gri, t);
    numeric::gemm(g[static_cast<std::size_t>(i - 1)], t, u);
    numeric::gemm(a.lower(i - 1), u, t);
    CMatrix gii = gri;
    numeric::gemm(gri, t, gii, cplx{1.0}, cplx{1.0});
    g[static_cast<std::size_t>(i)] = std::move(gii);
  }
  return g;
}

}  // namespace omenx::solvers
