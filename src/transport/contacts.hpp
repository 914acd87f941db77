// N-terminal contact description — the refactor that removes the deepest
// assumption left from the seed: that every device has exactly two
// *identical* pristine contacts at its first and last blocks.
//
// A Contact bundles what used to be scattered across the pipeline: the lead
// material (dft::LeadBlocks + its folded supercell), the chemical potential
// mu (previously the scalar mu_l/mu_r arguments), the per-contact potential
// shift (previously the single global ObcOptions::contact_shift), and the
// attachment block index on the device diagonal (previously hardwired to
// {0, nb-1} as the sigma_l/sigma_r pair in every solver).
//
// Every set runs through one pipeline: transport::pair_route sends a
// probe-free end pair to the 2-terminal solve and everything else to the
// multi-terminal one, in solve_energy_point and the batched pipeline
// alike.  The symmetric two-identical-contacts limit fetches one boundary
// for both ends and runs the same sigma_l/sigma_r solve as the pre-
// refactor pipeline, so it stays bit-identical — the parity suite and
// BENCH_contact.json gate on EXPECT_EQ, not a tolerance.
#pragma once

#include <cstdint>
#include <vector>

#include "dft/hamiltonian.hpp"
#include "numeric/matrix.hpp"

namespace omenx::transport {

using numeric::idx;

/// Sentinel for "the last device block" — resolved against the actual block
/// count at use time, so a ContactSet built before the device is assembled
/// stays valid for any length.
constexpr idx kLastBlock = -1;

/// One terminal of the device.
struct Contact {
  /// Lead material (unit-cell blocks).  Never owned; must outlive the set.
  const dft::LeadBlocks* lead = nullptr;
  /// Folded supercell blocks of the same lead.
  const dft::FoldedLead* folded = nullptr;
  /// Chemical potential (eV) — the Fermi weight of carriers this contact
  /// injects, and the mu_p of the Buettiker current sum.
  double mu = 0.0;
  /// Uniform lead potential shift (eV): H -> H + shift*S, i.e. the boundary
  /// at energy E equals the pristine lead's at E - shift.  Part of the
  /// per-contact BoundaryCache key.
  double shift = 0.0;
  /// Device block the self-energy attaches to (kLastBlock = last).  Blocks
  /// other than {0, last} are interior ("probe") attachments and require a
  /// solver advertising solvers::kMultiTerminal.
  idx block = kLastBlock;
  /// Content hash of *lead (lead_content_hash), part of the BoundaryKey.
  /// 0 = not precomputed: a cache-bound fetch then hashes the lead itself
  /// on every call, so callers fetching many points (the engine) set it
  /// once per lead.
  std::uint64_t lead_hash = 0;
  /// Büttiker-probe dephasing strength (eV).  > 0 marks this contact as a
  /// phenomenological probe terminal: it carries no lead material (`lead`
  /// and `folded` stay null), its self-energy is -i*probe_eta*I on the
  /// attachment block, and it enters T_pq / Buettiker sums like any other
  /// terminal (Gamma_p = 2*probe_eta*I, zero propagating modes).  mu is the
  /// probe's chemical potential, normally tuned to zero net probe current
  /// (scattering::tune_probe_potentials).
  double probe_eta = 0.0;

  /// True when this contact is a lead-less Büttiker probe.
  bool is_probe() const noexcept { return lead == nullptr && probe_eta > 0.0; }
};

/// An ordered set of >= 2 contacts.  Index order is the terminal index p of
/// the transmission matrix T_pq and the Buettiker sum.
class ContactSet {
 public:
  ContactSet() = default;
  explicit ContactSet(std::vector<Contact> contacts)
      : contacts_(std::move(contacts)) {}

  idx size() const noexcept { return static_cast<idx>(contacts_.size()); }
  bool empty() const noexcept { return contacts_.empty(); }
  const Contact& operator[](idx i) const {
    return contacts_.at(static_cast<std::size_t>(i));
  }
  Contact& at(idx i) { return contacts_.at(static_cast<std::size_t>(i)); }
  const std::vector<Contact>& contacts() const noexcept { return contacts_; }

  /// Attachment block of contact i against an nb-block device (resolves
  /// kLastBlock).  Does not range-check; validate() does.
  idx resolve_block(idx i, idx nb) const;

  /// Throws std::invalid_argument unless the set has >= 2 lead-backed
  /// contacts (a contact without a lead must be a probe: probe_eta > 0),
  /// in-range attachment blocks, and pairwise-distinct resolved blocks.
  /// Same discipline as the PR-7 grid validation.
  void validate(idx nb) const;

  /// True when any contact is a lead-less Büttiker probe.
  bool has_probes() const noexcept;

  /// Number of probe contacts / real (lead-backed) contacts.
  idx num_probes() const noexcept;

  /// True when the set is exactly the classic source/drain pair: two
  /// contacts attached at block 0 and the last block (either order is
  /// normalized by left()/right()).
  bool classic_pair(idx nb) const;

  /// Index of the contact attached at block 0 / the last block.  Only
  /// meaningful when classic_pair().
  idx left(idx nb) const;
  idx right(idx nb) const;

  /// True when contacts i and j share boundary data: same lead content
  /// (identical pointer, or equal nonzero hashes) and the same shift.
  /// mu may differ — it weights observables, not the boundary itself.
  bool same_boundary(idx i, idx j) const;

  /// Lowest contact index with the same boundary data as contact i — the
  /// canonical id under which this boundary is fetched and cached, so
  /// identical contacts share cache entries (the symmetric pair fetches
  /// once, under id of the left contact).
  idx representative(idx i) const;

  /// The classic symmetric pair: one lead serves both ends.
  static ContactSet pair(const dft::LeadBlocks& lead,
                         const dft::FoldedLead& folded, double mu_l,
                         double mu_r, double shift = 0.0);

 private:
  std::vector<Contact> contacts_;
};

/// Content hash (numeric::Fnv1a) over a lead's block dimensions and matrix
/// bit patterns — the BoundaryKey lead_hash, so a different lead material
/// never aliases a cached Boundary.  Never 0.
std::uint64_t lead_content_hash(const dft::LeadBlocks& lead);

}  // namespace omenx::transport
