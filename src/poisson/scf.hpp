// Self-consistent Schroedinger-Poisson iteration (the loop of Fig. 2 that
// consumes 99% of the simulation time, iterated 40-50 times per bias point
// in production).
//
// The charge model is injected as a callback so that the loop itself stays
// independent of the transport backend: the OMEN simulator supplies a
// ballistic wave-function charge; tests supply analytic models.
//
// The iteration is Anderson-accelerated: with history depth m > 0 each step
// extrapolates through the last m residual differences of the fixed-point
// map G(V) = Poisson(rho(V)), collapsing the slow geometric convergence of
// damped linear mixing (40-50 iterations in production) to a handful of
// steps.  Depth 0 recovers the plain damped iteration
//     V_{n+1} = (1-m) V_n + m G(V_n).
// Convergence is judged on a dual criterion: both the potential residual
// max |G(V) - V| and the charge residual max |rho_n - rho_{n-1}| must drop
// below their tolerances, so a potential that has stopped moving on a still
// drifting charge is not declared converged.
#pragma once

#include <functional>
#include <vector>

#include "charge/quadrature.hpp"
#include "lattice/structure.hpp"
#include "poisson/poisson1d.hpp"
#include "scattering/self_energy.hpp"

namespace omenx::poisson {

struct ScfOptions {
  int max_iter = 40;
  double tol = 1e-4;        ///< max |V_new - V_old| (eV)
  /// Charge half of the dual convergence criterion: max |rho_n - rho_{n-1}|
  /// must also fall below this (same units as the charge model); <= 0
  /// disables it and recovers the seed's potential-only test.
  double charge_tol = 1e-3;
  double mixing = 0.4;      ///< damping factor (linear and Anderson steps)
  /// Anderson history depth m: the update extrapolates through the last m
  /// residual differences.  0 = plain damped linear mixing.
  int anderson_depth = 3;

  // --- knobs consumed by bias-sweep drivers (omen::Simulator), not by the
  // --- loop itself ------------------------------------------------------
  /// Start each bias point from the previous point's converged potential
  /// instead of the Laplace solution.
  bool warm_start = true;
  /// Regenerate the energy grid per outer SCF iteration (adaptive
  /// refinement toward the band edges moving with the potential).
  bool adaptive_energy_grid = false;
  double grid_refine_tol = 0.5;    ///< indicator jump that triggers bisection
  double grid_min_spacing = 1e-3;  ///< eV floor for adaptive refinement
  /// Uniform lead (contact) potential shift (eV) — the *scalar spelling*
  /// of the per-contact `contact_shifts` vector: drivers never read this
  /// field directly but call resolved_contact_shifts(), which forwards the
  /// scalar onto every terminal.  Setting both spellings at once (nonzero
  /// scalar + non-empty vector) is ambiguous and throws there.
  double contact_shift = 0.0;
  /// Per-contact shifts (terminal order) — the canonical spelling.  Empty =
  /// the scalar `contact_shift` applies uniformly (the classic behavior).
  /// Non-empty must match the driver's configured contact count
  /// (resolved_contact_shifts validates); drivers hand each resolved entry
  /// to Simulator::set_contact_shift(contact, shift), so a change in one
  /// contact's electrostatics re-keys only that contact's cached lead
  /// solves — one path for both spellings.
  std::vector<double> contact_shifts;
  /// Unify the two spellings: one shift per contact, max(num_contacts, 1)
  /// entries.  Throws std::invalid_argument when `contact_shifts`
  /// is non-empty and its size disagrees with `num_contacts`, or when both
  /// spellings are set at once.
  std::vector<double> resolved_contact_shifts(std::size_t num_contacts) const;
  /// Dissipation model the bias sweep runs under (scattering::Spec).  The
  /// default kNone leaves the driver's configured model untouched; anything
  /// else is handed to Simulator::set_scattering for the whole sweep.
  scattering::Spec scattering;
  /// Charge-quadrature backend for the SCF charge evaluations
  /// (charge::Quadrature registry).  kRealGrid is the seed's trapezoid
  /// integration of the caller grid; kContour moves the equilibrium window
  /// onto the complex contour (a handful of Green's-function nodes replace
  /// the real-axis sweep) and keeps only the bias window [mu_R, mu_L] on
  /// the real axis.  With kContour, `adaptive_energy_grid` applies only to
  /// that real-axis remainder — at equilibrium there is none, and grid
  /// refinement is skipped entirely.
  charge::QuadratureAlgorithm quadrature =
      charge::QuadratureAlgorithm::kRealGrid;
  charge::QuadratureOptions quadrature_options;

  PoissonOptions poisson;
};

/// charge(V) -> per-cell electron density for the current potential.
using ChargeModel =
    std::function<std::vector<double>(const std::vector<double>&)>;

/// One outer-iteration record of the SCF loop (ScfResult::history).
struct ScfIteration {
  double potential_residual = 0.0;  ///< max |G(V_n) - V_n|
  double charge_residual = 0.0;     ///< max |rho_n - rho_{n-1}|
  bool anderson = false;            ///< update used the Anderson extrapolation
};

struct ScfResult {
  std::vector<double> potential;  ///< converged per-cell potential (eV)
  std::vector<double> charge;     ///< final per-cell charge
  int iterations = 0;
  double residual = 0.0;          ///< final potential residual
  double charge_residual = 0.0;   ///< final charge residual
  bool converged = false;
  std::vector<ScfIteration> history;  ///< per-iteration diagnostics
};

/// Run the Anderson-accelerated fixed-point iteration on
///   G(V) = Poisson(rho(V))
/// starting from `initial` when given (warm start) and from the
/// charge-free (Laplace) potential otherwise.  `initial_charge` seeds the
/// charge-residual reference of the first iteration (a warm-started point
/// already at its fixed point then converges on the first evaluation);
/// without it the reference is the zero vector of the Laplace start.
/// Throws std::invalid_argument when `initial`, `initial_charge`, or the
/// charge model's output does not match the device size.  The returned
/// potential satisfies the dual residual criterion without a trailing
/// mixing step, so it is a fixed point of G to within `tol`, and
/// `iterations` always equals the number of charge evaluations
/// (= history.size()), converged or not.
ScfResult self_consistent_potential(
    const lattice::DeviceRegions& regions, double vgs, double vds,
    const ChargeModel& charge, const ScfOptions& options = {},
    const std::vector<double>* initial = nullptr,
    const std::vector<double>* initial_charge = nullptr);

}  // namespace omenx::poisson
