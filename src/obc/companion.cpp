#include "obc/companion.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/blas.hpp"
#include "numeric/vec_kernels.hpp"

namespace omenx::obc {

CompanionPencil::CompanionPencil(const dft::LeadBlocks& lead, cplx e) {
  const idx nbw = lead.nbw();
  if (nbw < 1) throw std::invalid_argument("CompanionPencil: NBW must be >= 1");
  s_ = lead.block_dim();
  degree_ = 2 * nbw;
  coeffs_.reserve(static_cast<std::size_t>(degree_ + 1));
  // C_j = Htilde_{j - NBW} with Htilde_l = H_l - E*S_l;
  // Htilde_{-l} = (H_l)^dagger - E*(S_l)^dagger  (note: E multiplies the
  // conjugate-transposed S block, not the conjugate of E).
  for (idx j = 0; j <= degree_; ++j) {
    const idx l = j - nbw;
    const idx al = l < 0 ? -l : l;
    const CMatrix& h = lead.h[static_cast<std::size_t>(al)];
    const CMatrix& sm = lead.s[static_cast<std::size_t>(al)];
    CMatrix c = l < 0 ? numeric::dagger(h) : h;
    const CMatrix sc = l < 0 ? numeric::dagger(sm) : sm;
    for (idx ii = 0; ii < c.size(); ++ii)
      c.data()[ii] = c.data()[ii] - e * sc.data()[ii];
    // The mode equation is sum lambda^l (H_l - E S_l) u = 0; our pencil
    // stores C_j directly.
    coeffs_.push_back(std::move(c));
  }
}

CMatrix CompanionPencil::a_dense() const {
  const idx n = dim();
  CMatrix a(n, n);
  for (idx b = 0; b + 1 < degree_; ++b)
    a.set_block(b * s_, (b + 1) * s_, CMatrix::identity(s_));
  for (idx j = 0; j < degree_; ++j) {
    CMatrix neg = coeffs_[static_cast<std::size_t>(j)];
    neg *= cplx{-1.0};
    a.set_block((degree_ - 1) * s_, j * s_, neg);
  }
  return a;
}

CMatrix CompanionPencil::b_dense() const {
  const idx n = dim();
  CMatrix b(n, n);
  for (idx blk = 0; blk + 1 < degree_; ++blk)
    b.set_block(blk * s_, blk * s_, CMatrix::identity(s_));
  b.set_block((degree_ - 1) * s_, (degree_ - 1) * s_,
              coeffs_[static_cast<std::size_t>(degree_)]);
  return b;
}

CMatrix CompanionPencil::polynomial(cplx z) const {
  // Horner evaluation: P(z) = C_0 + z(C_1 + z(...)).
  CMatrix p = coeffs_[static_cast<std::size_t>(degree_)];
  for (idx j = degree_ - 1; j >= 0; --j) {
    p *= z;
    p += coeffs_[static_cast<std::size_t>(j)];
  }
  return p;
}

CMatrix CompanionPencil::apply_a(const CMatrix& x) const {
  if (x.rows() != dim())
    throw std::invalid_argument("apply_a: dimension mismatch");
  const idx m = x.cols();
  const idx blk = s_ * m;  // one block row of x, contiguous in row-major
  CMatrix out(dim(), m);
  std::copy(x.data() + blk, x.data() + degree_ * blk, out.data());
  cplx* last = out.data() + (degree_ - 1) * blk;
  for (idx j = 0; j < degree_; ++j)
    numeric::gemm_view('N', coeffs_[static_cast<std::size_t>(j)].data(), s_,
                       'N', x.data() + j * blk, m, s_, m, s_, cplx{-1.0},
                       cplx{1.0}, last, m);
  return out;
}

CMatrix CompanionPencil::apply_b(const CMatrix& x) const {
  if (x.rows() != dim())
    throw std::invalid_argument("apply_b: dimension mismatch");
  const idx m = x.cols();
  const idx blk = s_ * m;
  CMatrix out(dim(), m);
  std::copy(x.data(), x.data() + (degree_ - 1) * blk, out.data());
  numeric::gemm_view('N', coeffs_[static_cast<std::size_t>(degree_)].data(),
                     s_, 'N', x.data() + (degree_ - 1) * blk, m, s_, m, s_,
                     cplx{1.0}, cplx{0.0}, out.data() + (degree_ - 1) * blk, m);
  return out;
}

CompanionPencil::ShiftedRhs CompanionPencil::shifted_rhs(
    const CMatrix& y) const {
  const idx m = y.cols();
  const idx blk = s_ * m;
  ShiftedRhs out{apply_b(y), CMatrix(dim(), m)};
  for (idx k = 0; k < degree_; ++k) {
    const idx j_end = k == 0 ? degree_ - 1 : degree_;
    for (idx j = k + 1; j <= j_end; ++j)
      numeric::gemm_view('N', coeffs_[static_cast<std::size_t>(j)].data(), s_,
                         'N', out.r.data() + (j - 1 - k) * blk, m, s_, m, s_,
                         cplx{1.0}, cplx{1.0}, out.sums.data() + k * blk, m);
  }
  return out;
}

CMatrix CompanionPencil::reduced_rhs(cplx z, const ShiftedRhs& rhs) const {
  const idx blk = s_ * rhs.r.cols();
  const auto add = [blk](const cplx* src, cplx* dst) {
    for (idx e = 0; e < blk; ++e) dst[e] += src[e];
  };
  CMatrix out(s_, rhs.r.cols());
  const cplx* sums = rhs.sums.data();
  std::copy(sums + (degree_ - 1) * blk, sums + degree_ * blk, out.data());
  for (idx k = degree_ - 2; k >= 0; --k) {  // Horner over the S_k
    numeric::detail::scale(blk, z, out.data());
    add(sums + k * blk, out.data());
  }
  add(rhs.r.data() + (degree_ - 1) * blk, out.data());
  return out;
}

}  // namespace omenx::obc
