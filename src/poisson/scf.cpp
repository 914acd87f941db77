#include "poisson/scf.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <stdexcept>

namespace omenx::poisson {

std::vector<double> ScfOptions::resolved_contact_shifts(
    std::size_t num_contacts) const {
  if (contact_shifts.empty())
    return std::vector<double>(std::max<std::size_t>(num_contacts, 1), 0.0);
  if (contact_shifts.size() != num_contacts)
    throw std::invalid_argument(
        "ScfOptions: contact_shifts must have one entry per configured "
        "contact");
  return contact_shifts;
}

namespace {

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double out = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    out = std::max(out, std::abs(a[i] - b[i]));
  return out;
}

/// Solve the small dense system A x = b (A symmetric positive semidefinite
/// from normal equations) by Gaussian elimination with partial pivoting.
/// Returns false when the system is numerically singular even after the
/// caller's ridge.
bool solve_dense(std::vector<double>& a, std::vector<double>& b,
                 std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < m; ++i)
      if (std::abs(a[i * m + k]) > std::abs(a[piv * m + k])) piv = i;
    if (std::abs(a[piv * m + k]) < 1e-300) return false;
    if (piv != k) {
      for (std::size_t j = 0; j < m; ++j)
        std::swap(a[k * m + j], a[piv * m + j]);
      std::swap(b[k], b[piv]);
    }
    for (std::size_t i = k + 1; i < m; ++i) {
      const double l = a[i * m + k] / a[k * m + k];
      for (std::size_t j = k; j < m; ++j) a[i * m + j] -= l * a[k * m + j];
      b[i] -= l * b[k];
    }
  }
  for (std::size_t k = m; k-- > 0;) {
    for (std::size_t j = k + 1; j < m; ++j) b[k] -= a[k * m + j] * b[j];
    b[k] /= a[k * m + k];
  }
  return true;
}

/// Anderson(m) update from the iterate/residual history (oldest first,
/// current last).  Writes the next iterate into `v_next` and returns true;
/// returns false (leaving `v_next` untouched) when the least-squares system
/// is singular or the extrapolation coefficients blow up, in which case the
/// caller falls back to the damped linear step.
bool anderson_step(const std::deque<std::vector<double>>& v_hist,
                   const std::deque<std::vector<double>>& f_hist, double beta,
                   std::vector<double>& v_next) {
  const std::size_t p = f_hist.size() - 1;  // index of the current iterate
  const std::size_t m = p;                  // difference columns
  const std::size_t n = f_hist[p].size();
  if (m == 0) return false;

  // Normal equations of min_gamma || F_p - sum_j gamma_j dF_j ||_2 with
  // dF_j = F_{j+1} - F_j, ridge-regularized relative to the diagonal scale.
  std::vector<double> gram(m * m, 0.0), rhs(m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a; b < m; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        dot += (f_hist[a + 1][i] - f_hist[a][i]) *
               (f_hist[b + 1][i] - f_hist[b][i]);
      gram[a * m + b] = dot;
      gram[b * m + a] = dot;
    }
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      dot += (f_hist[a + 1][i] - f_hist[a][i]) * f_hist[p][i];
    rhs[a] = dot;
  }
  double diag_max = 0.0;
  for (std::size_t a = 0; a < m; ++a)
    diag_max = std::max(diag_max, gram[a * m + a]);
  const double ridge = std::max(1e-12 * diag_max, 1e-300);
  for (std::size_t a = 0; a < m; ++a) gram[a * m + a] += ridge;

  if (!solve_dense(gram, rhs, m)) return false;
  double gamma_max = 0.0;
  for (const double g : rhs) {
    if (!std::isfinite(g)) return false;
    gamma_max = std::max(gamma_max, std::abs(g));
  }
  // Wild coefficients mean the history is degenerate (stagnated residuals
  // near convergence): the damped step is both cheaper and safer there.
  if (gamma_max > 1e4) return false;

  // V_next = V_p + beta F_p - sum_j gamma_j (dV_j + beta dF_j).
  v_next.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    v_next[i] = v_hist[p][i] + beta * f_hist[p][i];
  for (std::size_t j = 0; j < m; ++j) {
    const double g = rhs[j];
    if (g == 0.0) continue;
    for (std::size_t i = 0; i < n; ++i)
      v_next[i] -= g * ((v_hist[j + 1][i] - v_hist[j][i]) +
                        beta * (f_hist[j + 1][i] - f_hist[j][i]));
  }
  for (const double v : v_next)
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace

ScfResult self_consistent_potential(const lattice::DeviceRegions& regions,
                                    double vgs, double vds,
                                    const ChargeModel& charge,
                                    const ScfOptions& options,
                                    const std::vector<double>* initial,
                                    const std::vector<double>* initial_charge) {
  ScfResult out;
  if (initial != nullptr) {
    if (static_cast<idx>(initial->size()) != regions.total())
      throw std::invalid_argument(
          "self_consistent_potential: warm-start potential size mismatch");
    out.potential = *initial;
  } else {
    out.potential =
        solve_device_potential(regions, vgs, vds, {}, options.poisson);
  }
  const std::size_t n = out.potential.size();
  const double beta = options.mixing;
  const int depth = std::max(0, options.anderson_depth);

  std::deque<std::vector<double>> v_hist, f_hist;
  // The Laplace start assumes zero charge, so the charge residual of the
  // first iteration is measured against the zero vector by default: a
  // charge-free model still converges in one evaluation.  A warm start may
  // seed the previous solution's charge instead, so a point already at its
  // fixed point passes the dual criterion on the first evaluation rather
  // than paying a second full charge sweep just to observe rho settling.
  std::vector<double> prev_charge(n, 0.0);
  if (initial_charge != nullptr) {
    if (initial_charge->size() != n)
      throw std::invalid_argument(
          "self_consistent_potential: warm-start charge size mismatch");
    prev_charge = *initial_charge;
  }

  for (out.iterations = 1; out.iterations <= options.max_iter;
       ++out.iterations) {
    out.charge = charge(out.potential);
    if (out.charge.size() != n)
      throw std::invalid_argument(
          "self_consistent_potential: charge model size mismatch");
    out.charge_residual = max_abs_diff(out.charge, prev_charge);
    prev_charge = out.charge;

    const std::vector<double> g = solve_device_potential(
        regions, vgs, vds, out.charge, options.poisson);
    std::vector<double> f(n);
    out.residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = g[i] - out.potential[i];
      out.residual = std::max(out.residual, std::abs(f[i]));
    }
    out.history.push_back({out.residual, out.charge_residual, false});

    const bool charge_ok =
        options.charge_tol <= 0.0 || out.charge_residual < options.charge_tol;
    if (out.residual < options.tol && charge_ok) {
      // Converged on the *current* iterate: no trailing mixing step, so the
      // returned potential is a fixed point of G to within tol.
      out.converged = true;
      break;
    }

    // Restart safeguard for the strongly nonlinear transport charge: an
    // extrapolation built on a residual that just *grew* points the wrong
    // way (the history straddles a band-edge kink), so drop it and let the
    // damped step re-anchor before accelerating again.
    if (!f_hist.empty() &&
        out.residual >
            out.history[out.history.size() - 2].potential_residual) {
      v_hist.clear();
      f_hist.clear();
    }
    v_hist.push_back(out.potential);
    f_hist.push_back(std::move(f));
    while (static_cast<int>(v_hist.size()) > depth + 1) {
      v_hist.pop_front();
      f_hist.pop_front();
    }

    std::vector<double> v_next;
    bool used_anderson = false;
    if (depth > 0)
      used_anderson = anderson_step(v_hist, f_hist, beta, v_next);
    if (!used_anderson) {
      v_next.resize(n);
      const std::vector<double>& fc = f_hist.back();
      for (std::size_t i = 0; i < n; ++i)
        v_next[i] = out.potential[i] + beta * fc[i];
    }
    out.history.back().anderson = used_anderson;
    out.potential = std::move(v_next);
  }
  // Exhausting the loop leaves the counter one past max_iter; clamp so
  // iterations always equals the number of charge evaluations (and
  // history.size()), converged or not.
  out.iterations = std::min(out.iterations, options.max_iter);
  return out;
}

}  // namespace omenx::poisson
