#include "charge/quadrature.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/registry.hpp"
#include "transport/energy_grid.hpp"
#include "transport/transmission.hpp"

namespace omenx::charge {

namespace {

constexpr double kPi = 3.14159265358979323846;

void validate_window(const ChargeWindow& window) {
  if (window.grid.size() < 2)
    throw std::invalid_argument(
        "charge quadrature: real-axis grid needs >= 2 points");
  for (std::size_t i = 1; i < window.grid.size(); ++i)
    if (!(window.grid[i] > window.grid[i - 1]))
      throw std::invalid_argument(
          "charge quadrature: grid must be strictly increasing");
}

/// Exactly the pre-registry charge path: trapezoid weights on the caller's
/// grid times the real-axis Fermi factor of each contact, multiplied in the
/// same order the Simulator always multiplied them — bit-identical by
/// construction.
class RealGridQuadrature final : public Quadrature {
 public:
  const char* name() const noexcept override { return "real_grid"; }
  unsigned capabilities() const noexcept override { return 0; }

  NodeSet build(const ChargeWindow& window,
                const QuadratureOptions&) const override {
    validate_window(window);
    NodeSet out;
    out.energies = window.grid;
    const std::vector<double> w = transport::trapezoid_weights(window.grid);
    out.weight_l.reserve(w.size());
    out.weight_r.reserve(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      out.weight_l.push_back(
          w[i] * transport::fermi(window.grid[i], window.mu_l, window.kt));
      out.weight_r.push_back(
          w[i] * transport::fermi(window.grid[i], window.mu_r, window.kt));
    }
    return out;
  }
};

/// L-shaped equilibrium contour + Matsubara residues + real remainder.
///
///   Im E                       poles x at mu_min + i pi kT (2p+1)
///    ^    o--o---o--o---o---o---o-->   height 2 * num_poles * pi * kT
///    |    o                x
///    |    o        x      (enclosed poles)
///    |    o    x
///    +----+-----------|--------|-----> Re E
///        EB         mu_min   mu_min + tail*kT
///
/// Residue theorem on the closed rectangle (the right edge sits where
/// f ~ e^-tail and is dropped):
///   int_EB^inf f G dE = int_riser + int_run - 2 pi i kT sum_p G(z_p),
/// and the density is -2 Im of it, so each contour node carries
///   w = -2 * (gauss weight * dz jacobian) * f(z),
/// and each pole carries w = +4 pi i kT.  The Fermi factor is evaluated at
/// mu_min = min(mu_L, mu_R): below mu_min both contacts agree, which is
/// what makes this window "equilibrium".  The disputed window
/// [mu_min, mu_max] stays on the real axis with occupation differences
/// (f_c - f_min) as weights — identically empty at zero bias.
class ContourQuadrature final : public Quadrature {
 public:
  const char* name() const noexcept override { return "contour"; }
  unsigned capabilities() const noexcept override {
    return kUsesComplexPlane | kSplitsWindows;
  }

  NodeSet build(const ChargeWindow& window,
                const QuadratureOptions& options) const override {
    validate_window(window);
    if (window.kt <= 0.0)
      throw std::invalid_argument(
          "contour quadrature: kt must be positive (the contour height and "
          "pole ladder scale with kT)");
    if (options.contour_points < 4)
      throw std::invalid_argument(
          "contour quadrature: contour_points must be >= 4");
    if (options.num_poles < 1)
      throw std::invalid_argument("contour quadrature: num_poles must be >= 1");

    const double mu_min = std::min(window.mu_l, window.mu_r);
    const double mu_max = std::max(window.mu_l, window.mu_r);
    const double kt = window.kt;
    const double eb = window.band_bottom;
    const double e_end = mu_min + options.tail_kt * kt;

    NodeSet out;

    if (e_end > eb) {
      // Height passes exactly between poles num_poles-1 and num_poles;
      // there f(x + i 2 n pi kT) = f(x) is real, so the run's integrand is
      // as tame as the real axis — but G there is smooth.
      const double height = 2.0 * options.num_poles * kPi * kt;
      const int n_riser = std::max(4, options.contour_points / 4);
      const int n_run = std::max(4, options.contour_points - n_riser);

      // Vertical riser EB -> EB + i*height: z = EB + i h (t+1)/2.
      const GaussLegendre riser = gauss_legendre(n_riser);
      for (int q = 0; q < n_riser; ++q) {
        const cplx z{eb, 0.5 * height * (riser.nodes[q] + 1.0)};
        const cplx jac{0.0, 0.5 * height};
        out.gf_nodes.push_back(z);
        out.gf_weights.push_back(-2.0 * riser.weights[q] * jac *
                                 transport::fermi(z, mu_min, kt));
      }
      // Horizontal run EB + i*height -> e_end + i*height.
      const GaussLegendre run = gauss_legendre(n_run);
      const double half = 0.5 * (e_end - eb);
      const double mid = 0.5 * (e_end + eb);
      for (int q = 0; q < n_run; ++q) {
        const cplx z{mid + half * run.nodes[q], height};
        out.gf_nodes.push_back(z);
        out.gf_weights.push_back(-2.0 * run.weights[q] * half *
                                 transport::fermi(z, mu_min, kt));
      }
      // Enclosed Matsubara poles: residue of f is -kT, so the density picks
      // up -2 * (-2 pi i kT) * G(z_p) from each.
      for (const cplx& zp :
           transport::matsubara_poles(mu_min, kt, options.num_poles)) {
        out.gf_nodes.push_back(zp);
        out.gf_weights.push_back(cplx{0.0, 4.0 * kPi * kt});
      }
    }
    // else: the occupied window ends below the band bottom — the
    // equilibrium charge is below the f < e^-tail floor, skip the contour.

    // Non-equilibrium remainder on the real axis, where the contacts
    // disagree: occupation difference f_c - f_min as the per-contact
    // weight.  At zero bias the window is empty and the whole integration
    // is the ~contour_points + num_poles Green's-function nodes above.
    if (window.mu_l != window.mu_r) {
      const double lo = mu_min - options.tail_kt * kt;
      const double hi = mu_max + options.tail_kt * kt;
      std::vector<double> sub;
      for (const double e : window.grid)
        if (e >= lo && e <= hi) sub.push_back(e);
      if (sub.size() < 2) {
        // The caller's grid does not resolve the bias window (coarse grid,
        // narrow window): fall back to a uniform 9-point panel.
        sub.resize(9);
        for (int q = 0; q < 9; ++q)
          sub[static_cast<std::size_t>(q)] = lo + (hi - lo) * q / 8.0;
      }
      const std::vector<double> w = transport::trapezoid_weights(sub);
      for (std::size_t i = 0; i < sub.size(); ++i) {
        const double f_min = transport::fermi(sub[i], mu_min, kt);
        out.energies.push_back(sub[i]);
        out.weight_l.push_back(
            w[i] * (transport::fermi(sub[i], window.mu_l, kt) - f_min));
        out.weight_r.push_back(
            w[i] * (transport::fermi(sub[i], window.mu_r, kt) - f_min));
      }
    }
    return out;
  }
};

numeric::Registry<QuadratureFactory>& registry() {
  static auto* r = new numeric::Registry<QuadratureFactory>({
      {"real_grid", [] { return std::make_unique<RealGridQuadrature>(); }},
      {"contour", [] { return std::make_unique<ContourQuadrature>(); }},
  });
  return *r;
}

}  // namespace

void register_quadrature(const std::string& name, QuadratureFactory factory) {
  registry().set(name, std::move(factory));
}

std::vector<std::string> registered_quadratures() {
  return registry().names();
}

std::unique_ptr<Quadrature> make_quadrature(const std::string& name) {
  // The registry hands the factory out before it runs: a registered
  // factory may itself call make_quadrature (delegating wrappers do).
  const QuadratureFactory factory = registry().find(name);
  if (!factory)
    throw std::invalid_argument("make_quadrature: unknown backend '" + name +
                                "'");
  return factory();
}

std::unique_ptr<Quadrature> make_quadrature(QuadratureAlgorithm algo) {
  return make_quadrature(quadrature_algorithm_name(algo));
}

const char* quadrature_algorithm_name(QuadratureAlgorithm algo) noexcept {
  switch (algo) {
    case QuadratureAlgorithm::kRealGrid:
      return "real_grid";
    case QuadratureAlgorithm::kContour:
      return "contour";
  }
  return "real_grid";
}

unsigned quadrature_algorithm_capabilities(QuadratureAlgorithm algo) {
  return make_quadrature(algo)->capabilities();
}

GaussLegendre gauss_legendre(int n) {
  if (n < 1)
    throw std::invalid_argument("gauss_legendre: n must be positive");
  GaussLegendre out;
  out.nodes.resize(static_cast<std::size_t>(n));
  out.weights.resize(static_cast<std::size_t>(n));
  // Roots of P_n by Newton from the Chebyshev-like initial guess; the
  // recurrence gives P_n and its derivative in one pass.  Symmetric rule:
  // compute one half, mirror the other.
  for (int i = 0; i < (n + 1) / 2; ++i) {
    double x = std::cos(kPi * (i + 0.75) / (n + 0.5));
    double dp = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      double p0 = 1.0, p1 = 0.0;
      for (int j = 0; j < n; ++j) {
        const double p2 = p1;
        p1 = p0;
        p0 = ((2.0 * j + 1.0) * x * p1 - j * p2) / (j + 1.0);
      }
      dp = n * (x * p0 - p1) / (x * x - 1.0);
      const double dx = p0 / dp;
      x -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    out.nodes[static_cast<std::size_t>(i)] = -x;
    out.nodes[static_cast<std::size_t>(n - 1 - i)] = x;
    const double w = 2.0 / ((1.0 - x * x) * dp * dp);
    out.weights[static_cast<std::size_t>(i)] = w;
    out.weights[static_cast<std::size_t>(n - 1 - i)] = w;
  }
  return out;
}

}  // namespace omenx::charge
