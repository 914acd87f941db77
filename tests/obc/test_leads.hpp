// Lead fixtures shared by the OBC test suites.
#pragma once

#include "dft/basis.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "numeric/blas.hpp"

namespace omenx::obc::test {

using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

// Random Hermitian lead with NBW = nbw and a nonsingular farthest coupling.
inline dft::LeadBlocks random_lead_nbw(idx s, idx nbw, unsigned seed) {
  dft::LeadBlocks lead;
  lead.h.resize(static_cast<std::size_t>(nbw + 1));
  lead.s.resize(static_cast<std::size_t>(nbw + 1));
  const CMatrix a = numeric::random_cmatrix(s, s, seed);
  lead.h[0] = a + numeric::dagger(a);
  lead.s[0] = CMatrix::identity(s);
  for (idx l = 1; l <= nbw; ++l) {
    auto& h = lead.h[static_cast<std::size_t>(l)];
    h = numeric::random_cmatrix(s, s, seed + static_cast<unsigned>(l));
    h *= cplx{1.0 / static_cast<double>(l)};
    if (l == nbw)
      for (idx i = 0; i < s; ++i) h(i, i) += cplx{1.5};
    lead.s[static_cast<std::size_t>(l)] = CMatrix(s, s);
  }
  return lead;
}

// The make_utb(0.2, 8) lead of the utb_kspace benchmark: s = 24, NBW = 2.
inline dft::LeadBlocks utb_lead() {
  const dft::BasisLibrary basis;
  return dft::build_lead_blocks(lattice::make_utb(0.2, 8), basis);
}

}  // namespace omenx::obc::test
