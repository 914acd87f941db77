#include "obc/feast.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/blas.hpp"
#include "numeric/eig.hpp"
#include "numeric/qr.hpp"
#include "numeric/types.hpp"
#include "numeric/vec_kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace omenx::obc {

namespace detail {

std::vector<ContourPoint> annulus_contour(double r, idx np) {
  std::vector<ContourPoint> pts;
  pts.reserve(static_cast<std::size_t>(2 * np));
  // (1/(2*pi*i)) \oint f(z) dz on a circle of radius rho with the trapezoid
  // rule gives weights z_p / Np (Eq. 10).  The outer circle is traversed
  // counter-clockwise, the inner circle clockwise (negative weight).
  for (idx p = 0; p < np; ++p) {
    const double theta =
        2.0 * numeric::kPi * (static_cast<double>(p) + 0.5) /
        static_cast<double>(np);
    const cplx phase = std::exp(cplx{0.0, theta});
    pts.push_back({r * phase, r * phase / static_cast<double>(np)});
    pts.push_back({phase / r, -phase / (r * static_cast<double>(np))});
  }
  return pts;
}

ContourFilter::ContourFilter(const CompanionPencil& pencil,
                             std::vector<ContourPoint> points,
                             bool parallel_points)
    : pencil_(pencil),
      points_(std::move(points)),
      moments_(static_cast<std::size_t>(pencil.degree() - 1), cplx{0.0}),
      factors_(points_.size()),
      parallel_points_(parallel_points) {
  for (const auto& pt : points_) {
    cplx wz = pt.weight;
    for (auto& mu : moments_) {
      mu += wz;
      wz *= pt.z;
    }
  }
}

CMatrix ContourFilter::apply(const CMatrix& y) {
  const CompanionPencil::ShiftedRhs rhs = pencil_.shifted_rhs(y);
  const idx d = pencil_.degree();
  const idx blk = pencil_.block_size() * y.cols();  // one s x m block

  for (const auto& f : factors_)
    if (!f) ++factorizations_;
  std::vector<CMatrix> x0(points_.size());
  const auto solve_point = [&](std::size_t p) {
    auto& factor = factors_[p];
    if (!factor) factor.emplace(pencil_.polynomial(points_[p].z));
    x0[p] = factor->solve(pencil_.reduced_rhs(points_[p].z, rhs));
  };
  if (parallel_points_) {
    parallel::ThreadPool::global().parallel_for(points_.size(), solve_point);
  } else {
    for (std::size_t p = 0; p < points_.size(); ++p) solve_point(p);
  }

  // Block j of X_p is z_p^j x_0,p - w_j(z_p), so
  // Q_j = sum_p w_p z_p^j x_0,p - sum_{i<j} mu_{j-1-i} r_i.  The point sum
  // runs in point order whether or not the points ran in parallel.
  CMatrix q(pencil_.dim(), y.cols());
  for (std::size_t p = 0; p < points_.size(); ++p) {
    cplx wz = points_[p].weight;
    for (idx j = 0; j < d; ++j) {
      numeric::detail::axpy(blk, wz, x0[p].data(), q.data() + j * blk);
      wz *= points_[p].z;
    }
  }
  for (idx j = 1; j < d; ++j)
    for (idx i = 0; i < j; ++i)
      numeric::detail::axpy_sub(blk,
                                moments_[static_cast<std::size_t>(j - 1 - i)],
                                rhs.r.data() + i * blk, q.data() + j * blk);
  return q;
}

}  // namespace detail

LeadModes compute_modes_feast(const dft::LeadBlocks& lead, cplx e,
                              const FeastOptions& options, FeastStats* stats) {
  const CompanionPencil pencil(lead, e);
  const idx nbc = pencil.dim();
  const idx s = pencil.block_size();
  detail::ContourFilter filter(
      pencil, detail::annulus_contour(options.annulus_r, options.num_points),
      options.parallel_points);

  // The probing block starts at 8 columns and doubles while the filtered
  // random block of an attempt's first pass comes back at full numerical
  // rank.  The rank of Q = P Y at a cut of kRankTol counts the eigenvalues
  // the filter passes: those inside the annulus plus the quadrature
  // leakage of those just outside it.  A block narrower than that count
  // comes back full rank; a wider one comes back rank deficient and spans
  // every enclosed mode.  This is Beyn's probe test (W.-J. Beyn, "An
  // integral method for solving nonlinear eigenvalue problems", LAA 436
  // (2012)) with BeynOptions' default cut.  Only the first pass filters a
  // random block, so only its rank is a count.  Rayleigh-Ritz keeps the
  // finer default cut of orthonormalize(): the leakage directions it adds
  // let the Ritz values near the circles converge outside the annulus.
  constexpr idx kStartSubspace = 8;
  constexpr double kRankTol = 1e-7;
  idx subspace = std::min(
      nbc, options.subspace > 0 ? options.subspace : kStartSubspace);

  // Residuals ||A x - lambda B x|| / (||A x|| + |lambda| ||B x||) per pair.
  const auto residuals = [&](const numeric::EigResult& pairs) {
    const CMatrix ax = pencil.apply_a(pairs.vectors);
    const CMatrix bx = pencil.apply_b(pairs.vectors);
    std::vector<double> res;
    for (idx c = 0; c < static_cast<idx>(pairs.values.size()); ++c) {
      const cplx lam = pairs.values[static_cast<std::size_t>(c)];
      double num = 0.0, den = 0.0;
      for (idx rr = 0; rr < nbc; ++rr) {
        num += std::norm(ax(rr, c) - lam * bx(rr, c));
        den += std::norm(ax(rr, c)) + std::norm(lam) * std::norm(bx(rr, c));
      }
      res.push_back(std::sqrt(num / std::max(den, 1e-300)));
    }
    return res;
  };

  numeric::EigResult kept;
  std::vector<double> kept_residual;
  std::vector<perf::FeastAttempt> attempts;

  for (;;) {  // subspace-growth restart loop
    CMatrix y = numeric::random_cmatrix(nbc, subspace, options.seed);
    attempts.push_back({subspace, {}});
    std::vector<idx>& ranks = attempts.back().ranks;
    bool saturated = false;
    kept = numeric::EigResult{};
    kept_residual.clear();

    for (idx iter = 0; iter < options.max_refinement; ++iter) {
      const numeric::QRResult qr = numeric::qr_decompose(filter.apply(y));
      const CMatrix qo = numeric::orthonormalize(qr);
      ranks.push_back(0);
      if (qo.cols() == 0) break;  // nothing inside the contour
      if (iter == 0 && subspace < nbc &&
          numeric::numerical_rank(qr, kRankTol) == subspace) {
        saturated = true;  // the filter passes more than the block holds
        break;
      }
      ranks.back() = qo.cols();

      // Rayleigh-Ritz on the projected pencil; shift-invert tolerates a
      // singular projected B and drops infinite Ritz values.
      const CMatrix ar = numeric::matmul(qo, pencil.apply_a(qo), 'C', 'N');
      const CMatrix br = numeric::matmul(qo, pencil.apply_b(qo), 'C', 'N');
      const numeric::EigResult ritz = numeric::shift_invert_eig(
          ar, br, cplx{1.07, 0.23}, /*want_vectors=*/true);

      // Back-transform the Ritz pairs inside the annulus.
      kept = numeric::EigResult{};
      std::vector<idx> keep_cols;
      for (idx c = 0; c < static_cast<idx>(ritz.values.size()); ++c) {
        const double mag = std::abs(ritz.values[static_cast<std::size_t>(c)]);
        if (mag >= 1.0 / options.annulus_r && mag <= options.annulus_r) {
          kept.values.push_back(ritz.values[static_cast<std::size_t>(c)]);
          keep_cols.push_back(c);
        }
      }
      CMatrix yk(ritz.vectors.rows(), static_cast<idx>(keep_cols.size()));
      for (idx rr = 0; rr < yk.rows(); ++rr)
        for (idx c = 0; c < yk.cols(); ++c)
          yk(rr, c) = ritz.vectors(rr, keep_cols[static_cast<std::size_t>(c)]);
      kept.vectors = numeric::matmul(qo, yk);
      kept_residual = residuals(kept);

      if (static_cast<idx>(kept.values.size()) >= subspace &&
          subspace < nbc) {
        saturated = true;  // annulus may hold more modes than the subspace
        break;
      }
      const double max_residual =
          kept_residual.empty()
              ? 0.0
              : *std::max_element(kept_residual.begin(), kept_residual.end());
      if (max_residual < options.residual_tol) break;
      // Subspace iteration: feed the Ritz vectors back through the filter,
      // padded with fresh random columns to keep the subspace size.
      y = numeric::random_cmatrix(nbc, subspace,
                                  options.seed + 7 * (unsigned)iter + 1);
      for (idx c = 0;
           c < std::min<idx>(subspace, static_cast<idx>(kept.values.size()));
           ++c)
        for (idx rr = 0; rr < nbc; ++rr) y(rr, c) = kept.vectors(rr, c);
    }

    if (!saturated) break;
    subspace = std::min(nbc, 2 * subspace);
  }

  // Final filter: discard Ritz pairs that never converged (spurious values
  // that the contour filter could not resolve, typically deep inside large
  // annuli).  The survivors are the trustworthy modes.
  const double keep_tol = std::max(options.residual_tol * 1e3, 1e-6);
  std::vector<idx> good;
  double max_residual = 0.0;
  for (idx c = 0; c < static_cast<idx>(kept.values.size()); ++c) {
    const double res = kept_residual[static_cast<std::size_t>(c)];
    if (res <= keep_tol) {
      good.push_back(c);
      max_residual = std::max(max_residual, res);
    }
  }
  numeric::EigResult filtered;
  filtered.vectors = CMatrix(nbc, static_cast<idx>(good.size()));
  for (idx c = 0; c < static_cast<idx>(good.size()); ++c) {
    const idx src = good[static_cast<std::size_t>(c)];
    filtered.values.push_back(kept.values[static_cast<std::size_t>(src)]);
    for (idx rr = 0; rr < nbc; ++rr)
      filtered.vectors(rr, c) = kept.vectors(rr, src);
  }

  if (stats != nullptr) {
    stats->modes_found = static_cast<idx>(filtered.values.size());
    stats->attempts = std::move(attempts);
    stats->factorizations = filter.factorizations();
    stats->max_residual = max_residual;
  }

  const LeadOperators ops = lead_operators(dft::fold_lead(lead), e);
  return fold_and_classify(filtered, lead.nbw(), s, ops, options.prop_tol);
}

}  // namespace omenx::obc
