#include "perf/flops.hpp"

#include <cmath>

namespace omenx::perf {

namespace {
std::uint64_t u(double x) { return static_cast<std::uint64_t>(x); }
}  // namespace

std::uint64_t gemm_flops(idx m, idx n, idx k) {
  return 8ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(k);
}

std::uint64_t lu_flops(idx n) {
  return u(8.0 / 3.0 * static_cast<double>(n) * static_cast<double>(n) *
           static_cast<double>(n));
}

std::uint64_t lu_solve_flops(idx n, idx nrhs) {
  return 8ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(nrhs);
}

std::uint64_t splitsolve_preprocess_flops(idx nb, idx s) {
  // Per sweep and per block: GEMM(s,s,s) for the fold update, LU(s),
  // solve(s, s), and GEMM(s,s,s) for the Q accumulation.  Two sweeps
  // (first + last column).
  const std::uint64_t per_block =
      gemm_flops(s, s, s) + lu_flops(s) + lu_solve_flops(s, s) +
      gemm_flops(s, s, s);
  return 2ull * static_cast<std::uint64_t>(nb) * per_block;
}

std::uint64_t splitsolve_spike_flops(idx nb, idx s, int partitions) {
  if (partitions <= 1) return 0;
  const idx ni = partitions - 1;
  // Spike products V/W: two GEMM(n_j*s, s, s) per interior partition edge,
  // approximated with the average partition height nb/partitions.
  const idx rows = (nb / partitions) * s;
  const std::uint64_t spikes =
      2ull * static_cast<std::uint64_t>(ni) * gemm_flops(rows, s, s);
  // Reduced interface solve: block tridiagonal with 2s blocks, ni rows.
  const std::uint64_t reduced = block_lu_flops(ni, 2 * s, 2 * s);
  return spikes + reduced;
}

std::uint64_t splitsolve_postprocess_flops(idx nb, idx s, idx nrhs) {
  const idx n = nb * s;
  // y = Q b' and x = Q (b' + z): two (n x 2s) * (2s x nrhs) products;
  // R build and solve on 2s.
  return 2ull * gemm_flops(n, nrhs, 2 * s) + gemm_flops(2 * s, 2 * s, s) * 2ull +
         lu_flops(2 * s) + lu_solve_flops(2 * s, nrhs);
}

std::uint64_t block_lu_flops(idx nb, idx s, idx nrhs) {
  // Factor: per block, one LU(s), one triangular solve with s RHS for L_i,
  // one GEMM(s,s,s).  Solve: forward+backward per block, 2 GEMM(s, nrhs, s).
  const std::uint64_t factor =
      static_cast<std::uint64_t>(nb) *
      (lu_flops(s) + lu_solve_flops(s, s) + gemm_flops(s, s, s));
  const std::uint64_t solve = static_cast<std::uint64_t>(nb) * 2ull *
                              gemm_flops(s, nrhs, s);
  return factor + solve;
}

std::uint64_t feast_flops(idx s, idx degree, idx np,
                          const std::vector<FeastAttempt>& attempts) {
  // Once per call: one LU of P(z_p) per contour point (two circles => 2*np
  // points), reused by every filter pass of every attempt.  Per pass:
  //  - the d(d+1)/2 z-independent products C_j r_i (s x s x m GEMMs);
  //  - one m-column solve per point;
  //  - the QR of the N_BC x m filtered block;
  //  - unless the pass ran none (r = 0: the block was empty, or full rank
  //    and the call grew), Rayleigh-Ritz at the block's rank r: A_F Q and
  //    B_F Q from the companion structure (d + 1 GEMMs), the two
  //    projections Q^H (A_F Q), Q^H (B_F Q) and a shift-invert eigensolve
  //    of the projected pencil (LU, solve, Hessenberg, QR iteration and
  //    vectors: ~47 r^3).
  const idx nbc = degree * s;
  const std::uint64_t points = 2ull * static_cast<std::uint64_t>(np);
  std::uint64_t total = points * lu_flops(s);
  for (const FeastAttempt& attempt : attempts) {
    const idx m = attempt.subspace;
    const std::uint64_t pass =
        static_cast<std::uint64_t>(degree * (degree + 1) / 2) *
            gemm_flops(s, m, s) +
        points * lu_solve_flops(s, m) +
        u(16.0 / 3.0 * static_cast<double>(m) * static_cast<double>(m) *
          (3.0 * static_cast<double>(nbc) - static_cast<double>(m)));
    for (const idx r : attempt.ranks) {
      total += pass;
      if (r == 0) continue;
      total += static_cast<std::uint64_t>(degree + 1) * gemm_flops(s, r, s) +
               2ull * gemm_flops(r, r, nbc) +
               47ull * static_cast<std::uint64_t>(r) * r * r;
    }
  }
  return total;
}

std::uint64_t shift_invert_flops(idx nbc) {
  // LU of the shifted pencil, a full multi-RHS solve, and a dense
  // nonsymmetric eigensolve with vectors (zggev-class, ~55 n^3).
  return lu_flops(nbc) + lu_solve_flops(nbc, nbc) +
         55ull * static_cast<std::uint64_t>(nbc) * nbc * nbc;
}

}  // namespace omenx::perf
