// Kernel microbenchmarks: the primitives behind SplitSolve (zgemm,
// zgesv-like LU, RGF sweeps, FEAST's contour filter and subspace QR) plus
// the end-to-end energy-sweep pipeline.
//
// Every section measures the seed-era reference implementation against the
// current packed/blocked kernels and prints GFLOP/s (or points/s) for both,
// so the performance trajectory of the repository is recorded run over run.
// Results are also written as BENCH_kernels.json in the working directory.
// Exits nonzero when the small-shape GEMM's direct and packed routes differ
// in any bit.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "blockmat/block_tridiag.hpp"
#include "dft/basis.hpp"
#include "dft/hamiltonian.hpp"
#include "lattice/structure.hpp"
#include "numeric/blas.hpp"
#include "numeric/lu.hpp"
#include "numeric/qr.hpp"
#include "obc/feast.hpp"
#include "parallel/thread_pool.hpp"
#include "solvers/rgf.hpp"
#include "transport/transmission.hpp"

using namespace omenx;
using numeric::CMatrix;
using numeric::cplx;
using numeric::idx;

namespace {

CMatrix well_conditioned(idx n, unsigned seed) {
  CMatrix a = numeric::random_cmatrix(n, n, seed);
  for (idx i = 0; i < n; ++i) a(i, i) += cplx{double(n)};
  return a;
}

blockmat::BlockTridiag tridiag(idx nb, idx s) {
  blockmat::BlockTridiag t(nb, s);
  for (idx i = 0; i < nb; ++i) {
    t.diag(i) = numeric::random_cmatrix(s, s, 5 + (unsigned)i);
    for (idx d = 0; d < s; ++d) t.diag(i)(d, d) += cplx{8.0};
    if (i + 1 < nb) {
      t.upper(i) = numeric::random_cmatrix(s, s, 105 + (unsigned)i);
      t.lower(i) = numeric::random_cmatrix(s, s, 205 + (unsigned)i);
    }
  }
  return t;
}

// Seed-era GEMM (PR 1 baseline): materializes op(A)/op(B) as copies and
// runs a cache-blocked jik loop on std::complex scalars.  Kept verbatim as
// the "before" reference.
void seed_gemm(const CMatrix& a_in, const CMatrix& b_in, CMatrix& c) {
  const CMatrix a = a_in;  // the seed's apply_op('N') copied even for 'N'
  const CMatrix b = b_in;
  const idx m = a.rows(), k = a.cols(), n = b.cols();
  if (c.rows() != m || c.cols() != n) c.resize(m, n);
  c.fill(cplx{0.0});
  constexpr idx kBlock = 64;
  for (idx i0 = 0; i0 < m; i0 += kBlock) {
    const idx i1 = std::min(i0 + kBlock, m);
    for (idx k0 = 0; k0 < k; k0 += kBlock) {
      const idx k1 = std::min(k0 + kBlock, k);
      for (idx i = i0; i < i1; ++i) {
        cplx* crow = c.row_ptr(i);
        const cplx* arow = a.row_ptr(i);
        for (idx kk = k0; kk < k1; ++kk) {
          const cplx av = arow[kk];
          if (av == cplx{0.0}) continue;
          const cplx* brow = b.row_ptr(kk);
          for (idx j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

template <typename F>
double time_seconds(F&& f, int reps) {
  f();  // warm up
  benchutil::WallTimer timer;
  for (int r = 0; r < reps; ++r) f();
  return timer.seconds() / reps;
}

// One synthetic 8-orbital chain device for the sweep benchmark.
dft::LeadBlocks bench_lead(idx s) {
  dft::LeadBlocks lead;
  lead.h.resize(2);
  lead.s.resize(2);
  CMatrix h0 = numeric::random_cmatrix(s, s, 21);
  lead.h[0] = (h0 + numeric::dagger(h0)) * cplx{0.25};
  lead.h[1] = numeric::random_cmatrix(s, s, 22) * cplx{0.4};
  lead.s[0] = CMatrix::identity(s);
  lead.s[1] = CMatrix(s, s);
  return lead;
}

}  // namespace

int main() {
  std::string json = "{\n  \"gemm\": [\n";
  benchutil::header("zgemm: seed kernel vs packed split-complex kernel");
  std::printf("%6s %14s %14s %10s\n", "n", "seed GF/s", "packed GF/s",
              "speedup");
  bool first = true;
  for (idx n : {64, 128, 256, 512}) {
    const CMatrix a = numeric::random_cmatrix(n, n, 1);
    const CMatrix b = numeric::random_cmatrix(n, n, 2);
    CMatrix c(n, n), c2(n, n);
    const double flop = 8.0 * double(n) * double(n) * double(n);
    const int reps = n <= 128 ? 40 : (n <= 256 ? 10 : 3);
    const double t_seed = time_seconds([&] { seed_gemm(a, b, c2); }, reps);
    const double t_new = time_seconds([&] { numeric::gemm(a, b, c); }, reps);
    const double g_seed = flop / t_seed * 1e-9;
    const double g_new = flop / t_new * 1e-9;
    std::printf("%6lld %14.2f %14.2f %9.2fx\n", (long long)n, g_seed, g_new,
                g_new / g_seed);
    benchutil::JsonWriter w("%.4f");
    w.field("n", double(n));
    w.field("gflops_seed", g_seed);
    w.field("gflops_packed", g_new);
    w.field("speedup", g_new / g_seed, true);
    json += std::string(first ? "" : ",\n") + "    {" + w.body + "}";
    first = false;
  }
  json += "\n  ],\n  \"gemm_small\": [\n";

  // The tiny shapes a small-block device issues per task: the s x s block
  // update, the s x 2s RHS update, and the (nb*s) x s times s x 2s
  // block-column product of RGF and finalize.  Both routes run each shape
  // (gemm_view's rule picks one); they must agree to the bit.
  benchutil::header("small-shape zgemm: direct vs packed route (ns/call)");
  std::printf("%4s %5s %5s %5s %12s %12s %8s %7s\n", "s", "m", "n", "k",
              "direct ns", "packed ns", "speedup", "route");
  bool routes_agree = true;
  first = true;
  for (idx s : {2, 4, 8}) {
    const idx nb = 16;
    const idx shapes[3][3] = {{s, s, s}, {s, 2 * s, s}, {nb * s, 2 * s, s}};
    for (const auto& shape : shapes) {
      const idx m = shape[0], n = shape[1], k = shape[2];
      const CMatrix a = numeric::random_cmatrix(m, k, 11);
      const CMatrix b = numeric::random_cmatrix(k, n, 12);
      const CMatrix c0 = numeric::random_cmatrix(m, n, 13);
      using numeric::detail::GemmRoute;
      const auto run = [&](GemmRoute route, CMatrix& c, char op_a, char op_b,
                           cplx alpha) {
        const bool ta = op_a != 'N', tb = op_b != 'N';
        // 'T'/'C' read the same buffer as its transposed shape.
        numeric::detail::gemm_view_via(route, op_a, a.data(), ta ? m : k,
                                       op_b, b.data(), tb ? k : n, m, n, k,
                                       alpha, cplx{1.0}, c.data(), n);
      };
      for (const char op_a : {'N', 'T', 'C'})
        for (const char op_b : {'N', 'T', 'C'}) {
          CMatrix cd = c0, cp = c0;
          run(GemmRoute::kDirect, cd, op_a, op_b, cplx{0.75, -0.5});
          run(GemmRoute::kPacked, cp, op_a, op_b, cplx{0.75, -0.5});
          for (idx i = 0; i < cd.size(); ++i)
            if (cd.data()[i].real() != cp.data()[i].real() ||
                cd.data()[i].imag() != cp.data()[i].imag())
              routes_agree = false;
        }
      CMatrix c = c0;
      const int reps = static_cast<int>(
          std::max<double>(2000.0, 2e7 / double(m * n * k)));
      const double t_direct = time_seconds(
          [&] {
            run(GemmRoute::kDirect, c, 'N', 'N', cplx{-1.0});
            benchutil::consume(c.data());
          },
          reps);
      const double t_packed = time_seconds(
          [&] {
            run(GemmRoute::kPacked, c, 'N', 'N', cplx{-1.0});
            benchutil::consume(c.data());
          },
          reps);
      const bool direct = numeric::detail::gemm_direct_shape(m, n, k);
      std::printf("%4lld %5lld %5lld %5lld %12.1f %12.1f %7.2fx %7s\n",
                  (long long)s, (long long)m, (long long)n, (long long)k,
                  t_direct * 1e9, t_packed * 1e9, t_packed / t_direct,
                  direct ? "direct" : "packed");
      benchutil::JsonWriter w("%.4f");
      w.field("s", double(s));
      w.field("m", double(m));
      w.field("n", double(n));
      w.field("k", double(k));
      w.field("ns_direct", t_direct * 1e9);
      w.field("ns_packed", t_packed * 1e9);
      w.field("direct_route", direct ? 1.0 : 0.0, true);
      json += std::string(first ? "" : ",\n") + "    {" + w.body + "}";
      first = false;
    }
  }
  std::printf("direct vs packed route: %s\n",
              routes_agree ? "bit-identical" : "BITS DIFFER");
  json += "\n  ],\n  \"lu\": [\n";

  // n = 48 and 96 are the block sizes the pipeline factors.  Per size: the
  // panel = 1 reference against the default blocking (factor + 16-RHS
  // solve, charged (8/3) n^3 as before), then the blocked factor alone, an
  // n-RHS solve (the RGF shape, 8 n^3) and GEMM at the same n; lu/gemm is
  // the factor's rate over GEMM's.
  benchutil::header("zgetrf/zgetrs: unblocked vs blocked LU, next to GEMM");
  std::printf("%6s %11s %11s %8s %11s %11s %11s %8s\n", "n", "unblk GF/s",
              "blk GF/s", "speedup", "fact GF/s", "nrhs GF/s", "gemm GF/s",
              "lu/gemm");
  first = true;
  for (idx n : {48, 96, 128, 256, 512}) {
    const CMatrix a = well_conditioned(n, 3);
    const CMatrix rhs = numeric::random_cmatrix(n, 16, 4);
    const CMatrix rhs_n = numeric::random_cmatrix(n, n, 5);
    CMatrix c(n, n);
    const double n3 = double(n) * double(n) * double(n);
    const double flop = 8.0 / 3.0 * n3;
    const int reps = std::max(3, static_cast<int>(2e8 / n3));
    const double t_ref = time_seconds(
        [&] {
          numeric::LUFactor lu(a, numeric::Pivoting::kPartial, /*panel=*/1);
          benchutil::consume(lu.solve(rhs).data());
        },
        reps);
    const double t_new = time_seconds(
        [&] {
          numeric::LUFactor lu(a, numeric::Pivoting::kPartial);
          benchutil::consume(lu.solve(rhs).data());
        },
        reps);
    const double t_fact = time_seconds(
        [&] { benchutil::consume(numeric::LUFactor(a).log_abs_det()); }, reps);
    const numeric::LUFactor lu(a);
    const double t_solve_n = time_seconds(
        [&] { benchutil::consume(lu.solve(rhs_n).data()); }, reps);
    const double t_gemm =
        time_seconds([&] { numeric::gemm(a, rhs_n, c); }, reps);
    const double g_ref = flop / t_ref * 1e-9;
    const double g_new = flop / t_new * 1e-9;
    const double g_fact = flop / t_fact * 1e-9;
    const double g_solve_n = 8.0 * n3 / t_solve_n * 1e-9;
    const double g_gemm = 8.0 * n3 / t_gemm * 1e-9;
    std::printf("%6lld %11.2f %11.2f %7.2fx %11.2f %11.2f %11.2f %8.3f\n",
                (long long)n, g_ref, g_new, t_ref / t_new, g_fact, g_solve_n,
                g_gemm, g_fact / g_gemm);
    benchutil::JsonWriter w("%.4f");
    w.field("n", double(n));
    w.field("gflops_unblocked", g_ref);
    w.field("gflops_blocked", g_new);
    w.field("speedup", t_ref / t_new);
    w.field("gflops_factor", g_fact);
    w.field("gflops_solve_nrhs", g_solve_n);
    w.field("gflops_gemm", g_gemm);
    w.field("lu_to_gemm", g_fact / g_gemm, true);
    json += std::string(first ? "" : ",\n") + "    {" + w.body + "}";
    first = false;
  }
  json += "\n  ],\n";

  benchutil::header("RGF block columns (SplitSolve Algorithm 1)");
  {
    const auto t = tridiag(16, 48);
    const double sec =
        time_seconds([&] { benchutil::consume(solvers::rgf_block_columns(t).data()); }, 5);
    std::printf("nb=16 s=48: %.3f ms per preprocess\n", sec * 1e3);
    benchutil::JsonWriter w("%.4f");
    w.field("nb", 16.0);
    w.field("s", 48.0);
    w.field("ms", sec * 1e3, true);
    json += "  \"rgf\": {" + w.body + "},\n";
  }

  // FEAST on the utb_kspace lead (make_utb(0.2, 8): s = 24, NBW = 2, so
  // d = 4 and N_BC = 96) with a 48-column probing block, points serial.
  // The first filter pass factors every P(z_p); later passes of the same
  // call reuse the factors and pay only the products and the solves.
  benchutil::header("FEAST filter pass and subspace QR (s = 24, d = 4, m = 48)");
  {
    const dft::BasisLibrary basis;
    const dft::LeadBlocks lead =
        dft::build_lead_blocks(lattice::make_utb(0.2, 8), basis);
    const obc::CompanionPencil pencil(lead, cplx{0.4});
    const CMatrix y = numeric::random_cmatrix(pencil.dim(), 48, 6);
    const auto contour = obc::detail::annulus_contour(20.0, 16);
    const double t_first = time_seconds(
        [&] {
          obc::detail::ContourFilter filter(pencil, contour, false);
          benchutil::consume(filter.apply(y).data());
        },
        20);
    obc::detail::ContourFilter filter(pencil, contour, false);
    const double t_pass =
        time_seconds([&] { benchutil::consume(filter.apply(y).data()); }, 20);
    const CMatrix q = numeric::random_cmatrix(pencil.dim(), 48, 7);
    const double t_qr = time_seconds(
        [&] { benchutil::consume(numeric::orthonormalize(q).data()); }, 50);
    std::printf(
        "first pass (32 factors + solves) %.3f ms, later pass %.3f ms, "
        "orthonormalize %lldx48 %.1f us\n",
        t_first * 1e3, t_pass * 1e3, (long long)pencil.dim(), t_qr * 1e6);
    benchutil::JsonWriter w("%.4f");
    w.field("s", double(pencil.block_size()));
    w.field("degree", double(pencil.degree()));
    w.field("subspace", 48.0);
    w.field("first_pass_ms", t_first * 1e3);
    w.field("pass_ms", t_pass * 1e3);
    w.field("orthonormalize_us", t_qr * 1e6, true);
    json += "  \"feast\": {" + w.body + "},\n";
  }

  benchutil::header("energy sweep: serial vs thread-pool (per-worker workspaces)");
  {
    const idx s = 8, cells = 24, npts = 64;
    const dft::LeadBlocks lead = bench_lead(s);
    const dft::FoldedLead folded = dft::fold_lead(lead);
    const std::vector<double> pot(static_cast<std::size_t>(cells), 0.0);
    const dft::DeviceMatrices dm = dft::assemble_device(lead, cells, pot);
    std::vector<double> energies;
    for (idx i = 0; i < npts; ++i)
      energies.push_back(-2.0 + 4.0 * double(i) / double(npts - 1));
    transport::EnergyPointOptions opts;
    opts.obc = transport::ObcAlgorithm::kDecimation;
    opts.solver = transport::SolverAlgorithm::kBlockLU;
    opts.want_density = false;
    opts.want_current = false;

    auto& pool = parallel::ThreadPool::global();
    const double t_serial = time_seconds(
        [&] {
          benchutil::consume(
              transport::sweep_energy_points(dm, lead, folded, energies, opts)
                  .data());
        },
        2);
    const double t_par = time_seconds(
        [&] {
          benchutil::consume(transport::sweep_energy_points(
                                 dm, lead, folded, energies, opts, nullptr,
                                 &pool)
                                 .data());
        },
        2);
    const double pps_serial = double(npts) / t_serial;
    const double pps_par = double(npts) / t_par;
    std::printf(
        "%lld points, %zu threads: serial %.1f pts/s, pooled %.1f pts/s "
        "(%.2fx)\n",
        (long long)npts, pool.num_threads(), pps_serial, pps_par,
        pps_par / pps_serial);
    benchutil::JsonWriter w("%.4f");
    w.field("points", double(npts));
    w.field("threads", double(pool.num_threads()));
    w.field("serial_pts_per_s", pps_serial);
    w.field("parallel_pts_per_s", pps_par);
    w.field("speedup", pps_par / pps_serial, true);
    json += "  \"sweep\": {" + w.body + "}\n}\n";
  }

  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_kernels.json\n");
  }
  return routes_agree ? 0 : 1;
}
