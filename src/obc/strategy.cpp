#include "obc/strategy.hpp"

#include <atomic>
#include <stdexcept>

#include "numeric/registry.hpp"

namespace omenx::obc {

namespace {

std::atomic<std::uint64_t> g_boundary_solves{0};

/// Shared implementation of every eigenmode backend: solve the companion
/// pencil for the lead modes, then run the common fold/classify ->
/// self-energy/injection pipeline.  Which eigenpairs are extracted (all of
/// them, an annulus subspace, a contour moment problem) is the only thing
/// that differs between shift-invert, FEAST, and Beyn.
class ModeStrategy : public Strategy {
 public:
  unsigned capabilities() const noexcept override {
    return kProvidesInjection | kProvidesModes;
  }

 protected:
  Boundary compute(const dft::LeadBlocks& lead, const LeadOperators& ops,
                   cplx e, const ObcOptions& options) final {
    return build_boundary(modes(lead, e, options), ops, options.boundary);
  }
  virtual LeadModes modes(const dft::LeadBlocks& lead, cplx e,
                          const ObcOptions& options) = 0;
};

class ShiftInvertStrategy final : public ModeStrategy {
 public:
  const char* name() const noexcept override { return "shift_invert"; }

 protected:
  LeadModes modes(const dft::LeadBlocks& lead, cplx e,
                  const ObcOptions& options) override {
    return compute_modes_shift_invert(lead, e, options.shift_invert);
  }
};

class FeastStrategy final : public ModeStrategy {
 public:
  const char* name() const noexcept override { return "feast"; }

 protected:
  LeadModes modes(const dft::LeadBlocks& lead, cplx e,
                  const ObcOptions& options) override {
    return compute_modes_feast(lead, e, options.feast);
  }
};

class BeynStrategy final : public ModeStrategy {
 public:
  const char* name() const noexcept override { return "beyn"; }

 protected:
  LeadModes modes(const dft::LeadBlocks& lead, cplx e,
                  const ObcOptions& options) override {
    return compute_modes_beyn(lead, e, options.beyn);
  }
};

/// Sancho-Rubio decimation: surface Green's functions only — no eigenmodes,
/// no injection data (capability bits empty).
class DecimationStrategy final : public Strategy {
 public:
  const char* name() const noexcept override { return "decimation"; }
  unsigned capabilities() const noexcept override { return 0; }

 protected:
  Boundary compute(const dft::LeadBlocks&, const LeadOperators& ops, cplx e,
                   const ObcOptions& options) override {
    // On the real axis the surface Green's function has poles at the lead
    // bands: without a positive broadening the Sancho-Rubio iteration
    // diverges or stalls on them.  Off-axis (contour) energies carry their
    // own Im(E) and need no artificial eta.
    if (e.imag() == 0.0 && options.decimation.eta <= 0.0)
      throw std::invalid_argument(
          "decimation: eta must be > 0 on the real axis (the surface "
          "Green's function has poles there)");
    Boundary out;
    out.sigma_l = sigma_left_decimation(ops, options.decimation);
    out.sigma_r = sigma_right_decimation(ops, options.decimation);
    out.num_incident = 0;
    out.num_incident_right = 0;
    return out;
  }
};

numeric::Registry<StrategyFactory>& registry() {
  static auto* r = new numeric::Registry<StrategyFactory>({
      {"shift_invert", [] { return std::make_unique<ShiftInvertStrategy>(); }},
      {"feast", [] { return std::make_unique<FeastStrategy>(); }},
      {"decimation", [] { return std::make_unique<DecimationStrategy>(); }},
      {"beyn", [] { return std::make_unique<BeynStrategy>(); }},
  });
  return *r;
}

}  // namespace

Boundary Strategy::boundary(const dft::LeadBlocks& lead,
                            const dft::FoldedLead& folded, cplx e,
                            const ObcOptions& options) {
  // A lead at uniform potential V is the pristine lead seen at E - V.
  const cplx e_eff = e - cplx{options.contact_shift, 0.0};
  const LeadOperators ops = lead_operators(folded, e_eff);
  g_boundary_solves.fetch_add(1, std::memory_order_relaxed);
  return compute(lead, ops, e_eff, options);
}

void register_obc_strategy(const std::string& name, StrategyFactory factory) {
  registry().set(name, std::move(factory));
}

std::vector<std::string> registered_obc_strategies() {
  return registry().names();
}

std::unique_ptr<Strategy> make_obc_strategy(const std::string& name) {
  const StrategyFactory factory = registry().find(name);
  if (!factory)
    throw std::invalid_argument("make_obc_strategy: unknown backend '" +
                                name + "'");
  return factory();
}

const char* obc_algorithm_name(ObcAlgorithm algo) noexcept {
  switch (algo) {
    case ObcAlgorithm::kShiftInvert:
      return "shift_invert";
    case ObcAlgorithm::kFeast:
      return "feast";
    case ObcAlgorithm::kDecimation:
      return "decimation";
    case ObcAlgorithm::kBeyn:
      return "beyn";
  }
  return "feast";
}

std::unique_ptr<Strategy> make_obc_strategy(ObcAlgorithm algo) {
  return make_obc_strategy(obc_algorithm_name(algo));
}

unsigned obc_algorithm_capabilities(ObcAlgorithm algo) {
  // Static property of the built-in backends — no registry lookup or
  // instantiation (this runs once per Simulator sweep).  A name-based
  // re-registration does not change the enum's built-in semantics; the
  // per-point capability check in solve_energy_point reads the instance.
  switch (algo) {
    case ObcAlgorithm::kShiftInvert:
    case ObcAlgorithm::kFeast:
    case ObcAlgorithm::kBeyn:
      return kProvidesInjection | kProvidesModes;
    case ObcAlgorithm::kDecimation:
      return 0;
  }
  return 0;
}

std::uint64_t boundary_solve_count() noexcept {
  return g_boundary_solves.load(std::memory_order_relaxed);
}

}  // namespace omenx::obc
