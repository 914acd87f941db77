#include "dft/hamiltonian.hpp"

#include <cmath>
#include <stdexcept>

#include "dft/gaussian.hpp"
#include "numeric/blas.hpp"

namespace omenx::dft {

namespace {

lattice::Vec3 shifted(const lattice::Vec3& r, double dx, double dz) {
  return {r[0] + dx, r[1], r[2] + dz};
}

double distance2(const lattice::Vec3& a, const lattice::Vec3& b) {
  const double dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
  return dx * dx + dy * dy + dz * dz;
}

// Smooth cosine taper bringing matrix elements continuously to zero at the
// cutoff.  A hard truncation perturbs the overlap Gram matrix enough to
// threaten its positive definiteness; the taper keeps the perturbation
// gentle (the tapered S is the Gram matrix of slightly deformed orbitals).
double cutoff_taper(double r, double r_cut) {
  const double r_on = 0.6 * r_cut;
  if (r <= r_on) return 1.0;
  if (r >= r_cut) return 0.0;
  const double t = (r - r_on) / (r_cut - r_on);
  return 0.5 * (1.0 + std::cos(t * 3.14159265358979323846));
}

}  // namespace

LeadBlocks build_lead_blocks(const lattice::Structure& structure,
                             const BasisLibrary& basis,
                             const BuildOptions& options) {
  const auto orbitals = enumerate_orbitals(structure.cell_atoms, basis);
  const idx n = static_cast<idx>(orbitals.size());
  if (n == 0) throw std::invalid_argument("build_lead_blocks: empty cell");
  const double lcell = structure.cell_length;
  const idx nbw = std::max<idx>(
      1, static_cast<idx>(std::ceil(options.cutoff_nm / lcell)));

  // Periodic images along z need a period: with z_period = 0 the image
  // count ceil(cutoff / z_period) below would be infinite (its conversion to
  // idx is undefined), so such a structure gets no images.
  const bool periodic_z = structure.periodicity == lattice::Periodicity::kZ &&
                          structure.z_period > 0.0;
  const idx mz = periodic_z
                     ? static_cast<idx>(std::ceil(options.cutoff_nm /
                                                  structure.z_period))
                     : 0;
  const double kk = options.k_transverse;
  const double cutoff2 = options.cutoff_nm * options.cutoff_nm;
  const double huckel_k = basis.huckel_k();

  LeadBlocks out;
  out.h.assign(static_cast<std::size_t>(nbw + 1), CMatrix(n, n));
  out.s.assign(static_cast<std::size_t>(nbw + 1), CMatrix(n, n));

  for (idx l = 0; l <= nbw; ++l) {
    CMatrix& hb = out.h[static_cast<std::size_t>(l)];
    CMatrix& sb = out.s[static_cast<std::size_t>(l)];
    for (idx i = 0; i < n; ++i) {
      const Orbital& oi = orbitals[static_cast<std::size_t>(i)];
      const lattice::Vec3 ri =
          structure.cell_atoms[static_cast<std::size_t>(oi.atom)].position;
      for (idx j = 0; j < n; ++j) {
        const Orbital& oj = orbitals[static_cast<std::size_t>(j)];
        const lattice::Vec3 rj0 =
            structure.cell_atoms[static_cast<std::size_t>(oj.atom)].position;
        cplx s_acc{0.0};
        for (idx m = -mz; m <= mz; ++m) {
          const lattice::Vec3 rj = shifted(
              rj0, static_cast<double>(l) * lcell,
              static_cast<double>(m) * (periodic_z ? structure.z_period : 0.0));
          const bool same_site = l == 0 && m == 0 && i == j;
          const double r2 = distance2(ri, rj);
          if (!same_site && r2 > cutoff2) continue;
          const double ov = gaussian_overlap(oi, ri, oj, rj) *
                            cutoff_taper(std::sqrt(r2), options.cutoff_nm);
          if (!same_site && std::abs(ov) < options.drop_tol) continue;
          const cplx phase =
              m == 0 ? cplx{1.0}
                     : std::exp(cplx{0.0, kk * static_cast<double>(m)});
          s_acc += phase * ov;
        }
        if (s_acc == cplx{0.0}) continue;
        const bool onsite = l == 0 && i == j;
        sb(i, j) = s_acc + (onsite ? cplx{options.overlap_ridge} : cplx{0.0});
        if (onsite) {
          // H_ii = E_i plus the Hueckel contribution of the periodic images
          // (s_acc - 1 is exactly the image part since self-overlap is 1).
          hb(i, j) = cplx{oi.energy} +
                     huckel_k * oi.energy * (s_acc - cplx{1.0});
        } else {
          hb(i, j) = 0.5 * huckel_k * (oi.energy + oj.energy) * s_acc;
        }
      }
    }
  }
  return out;
}

LeadBlocks build_tb_lead_blocks(const lattice::Structure& structure) {
  // sp3 Slater-Koster, nearest neighbours only (Si-like parameters, eV).
  constexpr double kEs = -4.20, kEp = 1.72;
  constexpr double kVss = -2.08, kVsp = 2.37, kVppS = 4.28, kVppP = -1.15;
  constexpr double kBond = 0.26;  // nm, captures the 0.235 nm Si NN distance
  constexpr int kNorb = 4;        // s, px, py, pz

  const idx na = structure.atoms_per_cell();
  const idx n = na * kNorb;
  const double lcell = structure.cell_length;
  const bool periodic_z = structure.periodicity == lattice::Periodicity::kZ;

  LeadBlocks out;
  out.h.assign(2, CMatrix(n, n));
  out.s.assign(2, CMatrix(n, n));
  out.s[0] = CMatrix::identity(n);

  auto couple = [&](CMatrix& hb, idx ai, idx aj, const lattice::Vec3& d) {
    const double r = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
    const double lx = d[0] / r, ly = d[1] / r, lz = d[2] / r;
    const double dir[3] = {lx, ly, lz};
    const idx bi = ai * kNorb, bj = aj * kNorb;
    hb(bi, bj) += kVss;
    for (int c = 0; c < 3; ++c) {
      hb(bi, bj + 1 + c) += dir[c] * kVsp;
      hb(bi + 1 + c, bj) += -dir[c] * kVsp;
      for (int cc = 0; cc < 3; ++cc) {
        const double dd = dir[c] * dir[cc] * (kVppS - kVppP) +
                          (c == cc ? kVppP : 0.0);
        hb(bi + 1 + c, bj + 1 + cc) += dd;
      }
    }
  };

  for (idx ai = 0; ai < na; ++ai) {
    const auto& ri = structure.cell_atoms[static_cast<std::size_t>(ai)].position;
    out.h[0](ai * kNorb, ai * kNorb) = kEs;
    for (int c = 0; c < 3; ++c)
      out.h[0](ai * kNorb + 1 + c, ai * kNorb + 1 + c) = kEp;
    for (idx l = 0; l <= 1; ++l) {
      for (idx aj = 0; aj < na; ++aj) {
        const auto& rj0 =
            structure.cell_atoms[static_cast<std::size_t>(aj)].position;
        const idx mrange = periodic_z ? 1 : 0;
        for (idx m = -mrange; m <= mrange; ++m) {
          if (l == 0 && m == 0 && ai == aj) continue;
          const lattice::Vec3 rj = shifted(
              rj0, static_cast<double>(l) * lcell,
              static_cast<double>(m) * (periodic_z ? structure.z_period : 0.0));
          const double r2 = distance2(ri, rj);
          if (r2 > kBond * kBond || r2 < 1e-12) continue;
          const lattice::Vec3 d = {rj[0] - ri[0], rj[1] - ri[1],
                                   rj[2] - ri[2]};
          couple(out.h[static_cast<std::size_t>(l)], ai, aj, d);
        }
      }
    }
  }
  return out;
}

DeviceMatrices assemble_device(const LeadBlocks& lead, idx num_cells,
                               const std::vector<double>& cell_potential) {
  const idx nbw = lead.nbw();
  const idx s = lead.block_dim();
  const idx fold = std::max<idx>(1, nbw);
  if (num_cells % fold != 0)
    throw std::invalid_argument(
        "assemble_device: num_cells must be divisible by NBW (fold factor)");
  if (static_cast<idx>(cell_potential.size()) != num_cells)
    throw std::invalid_argument(
        "assemble_device: cell_potential must have one entry per cell");
  const idx nbf = num_cells / fold;
  if (nbf < 2)
    throw std::invalid_argument("assemble_device: need at least 2 supercells");
  const idx sf = s * fold;

  DeviceMatrices out;
  out.h = BlockTridiag(nbf, sf);
  out.s = BlockTridiag(nbf, sf);
  out.fold = fold;
  out.cells = num_cells;

  auto blk = [&](idx l) -> const CMatrix& {
    return lead.h[static_cast<std::size_t>(l)];
  };
  auto sblk = [&](idx l) -> const CMatrix& {
    return lead.s[static_cast<std::size_t>(l)];
  };

  // place(): add the (g1, g2) physical-cell pair (offset l = g2-g1 >= 0)
  // into folded block position (a, b) of target matrices.
  auto place = [&](CMatrix& htgt, CMatrix& stgt, idx a, idx b, idx g1, idx g2) {
    const idx l = g2 - g1;
    const double v =
        0.5 * (cell_potential[static_cast<std::size_t>(g1)] +
               cell_potential[static_cast<std::size_t>(g2)]);
    const CMatrix& hb = blk(l);
    const CMatrix& sb = sblk(l);
    htgt.add_block(a * s, b * s, hb);
    htgt.add_block(a * s, b * s, sb, cplx{v});
    stgt.add_block(a * s, b * s, sb);
  };

  for (idx i = 0; i < nbf; ++i) {
    // Diagonal supercell block.
    for (idx a = 0; a < fold; ++a) {
      for (idx b = a; b < fold; ++b) {
        const idx l = b - a;
        if (l > nbw) continue;
        const idx g1 = i * fold + a, g2 = i * fold + b;
        place(out.h.diag(i), out.s.diag(i), a, b, g1, g2);
        if (l > 0) {
          // Hermitian mirror within the diagonal block.
          const double v =
              0.5 * (cell_potential[static_cast<std::size_t>(g1)] +
                     cell_potential[static_cast<std::size_t>(g2)]);
          const CMatrix hd = numeric::dagger(blk(l));
          const CMatrix sd = numeric::dagger(sblk(l));
          out.h.diag(i).add_block(b * s, a * s, hd);
          out.h.diag(i).add_block(b * s, a * s, sd, cplx{v});
          out.s.diag(i).add_block(b * s, a * s, sd);
        }
      }
    }
    // Upper coupling supercell block (i, i+1).
    if (i + 1 < nbf) {
      for (idx a = 0; a < fold; ++a) {
        for (idx b = 0; b < fold; ++b) {
          const idx l = fold + b - a;
          if (l < 1 || l > nbw) continue;
          const idx g1 = i * fold + a, g2 = (i + 1) * fold + b;
          place(out.h.upper(i), out.s.upper(i), a, b, g1, g2);
        }
      }
      out.h.lower(i) = numeric::dagger(out.h.upper(i));
      out.s.lower(i) = numeric::dagger(out.s.upper(i));
    }
  }
  return out;
}

FoldedLead fold_lead(const LeadBlocks& lead) {
  const idx fold = std::max<idx>(1, lead.nbw());
  const idx cells = std::max<idx>(2 * fold, 2 * fold);
  const std::vector<double> zero_pot(static_cast<std::size_t>(cells), 0.0);
  const DeviceMatrices dm = assemble_device(lead, cells, zero_pot);
  FoldedLead out;
  out.h00 = dm.h.diag(0);
  out.s00 = dm.s.diag(0);
  out.h01 = dm.h.upper(0);
  out.s01 = dm.s.upper(0);
  return out;
}

std::vector<idx> orbital_to_atom(const lattice::Structure& structure,
                                 const BasisLibrary& basis) {
  const auto orbitals = enumerate_orbitals(structure.cell_atoms, basis);
  std::vector<idx> out;
  out.reserve(orbitals.size());
  for (const auto& o : orbitals) out.push_back(o.atom);
  return out;
}

}  // namespace omenx::dft
