#include "transport/contacts.hpp"

#include <stdexcept>
#include <string>

#include "numeric/hash.hpp"

namespace omenx::transport {

idx ContactSet::resolve_block(idx i, idx nb) const {
  const idx b = contacts_.at(static_cast<std::size_t>(i)).block;
  return b == kLastBlock ? nb - 1 : b;
}

void ContactSet::validate(idx nb) const {
  if (size() < 2)
    throw std::invalid_argument("ContactSet: need >= 2 contacts, got " +
                                std::to_string(size()));
  if (size() - num_probes() < 2)
    throw std::invalid_argument(
        "ContactSet: need >= 2 lead-backed contacts (probes are pseudo-"
        "terminals, not carrier reservoirs), got " +
        std::to_string(size() - num_probes()));
  for (idx i = 0; i < size(); ++i) {
    const Contact& c = contacts_[static_cast<std::size_t>(i)];
    if (c.probe_eta < 0.0)
      throw std::invalid_argument("ContactSet: contact " + std::to_string(i) +
                                  " has negative probe_eta");
    if (c.is_probe() && c.folded != nullptr)
      throw std::invalid_argument("ContactSet: probe contact " +
                                  std::to_string(i) +
                                  " must not carry lead material");
    if (!c.is_probe() && (c.lead == nullptr || c.folded == nullptr))
      throw std::invalid_argument("ContactSet: contact " + std::to_string(i) +
                                  " has no lead material");
    const idx b = resolve_block(i, nb);
    if (b < 0 || b >= nb)
      throw std::invalid_argument(
          "ContactSet: contact " + std::to_string(i) + " attachment block " +
          std::to_string(c.block) + " out of range for " + std::to_string(nb) +
          " device blocks");
    for (idx j = 0; j < i; ++j)
      if (resolve_block(j, nb) == b)
        throw std::invalid_argument(
            "ContactSet: contacts " + std::to_string(j) + " and " +
            std::to_string(i) + " attach to the same block " +
            std::to_string(b));
  }
}

bool ContactSet::classic_pair(idx nb) const {
  if (size() != 2) return false;
  const idx b0 = resolve_block(0, nb);
  const idx b1 = resolve_block(1, nb);
  return (b0 == 0 && b1 == nb - 1) || (b1 == 0 && b0 == nb - 1);
}

idx ContactSet::left(idx nb) const { return resolve_block(0, nb) == 0 ? 0 : 1; }

idx ContactSet::right(idx nb) const {
  return resolve_block(0, nb) == 0 ? 1 : 0;
}

bool ContactSet::has_probes() const noexcept {
  for (const Contact& c : contacts_)
    if (c.is_probe()) return true;
  return false;
}

idx ContactSet::num_probes() const noexcept {
  idx n = 0;
  for (const Contact& c : contacts_)
    if (c.is_probe()) ++n;
  return n;
}

bool ContactSet::same_boundary(idx i, idx j) const {
  const Contact& a = contacts_.at(static_cast<std::size_t>(i));
  const Contact& b = contacts_.at(static_cast<std::size_t>(j));
  // Probes have no lead boundary to share: each builds its own -i*eta*I
  // locally, and none must ever alias a cached lead Boundary.
  if (a.is_probe() || b.is_probe()) return false;
  const bool same_lead =
      a.lead == b.lead ||
      (a.lead_hash != 0 && b.lead_hash != 0 && a.lead_hash == b.lead_hash);
  return same_lead && a.shift == b.shift;
}

idx ContactSet::representative(idx i) const {
  for (idx j = 0; j < i; ++j)
    if (same_boundary(j, i)) return j;
  return i;
}

ContactSet ContactSet::pair(const dft::LeadBlocks& lead,
                            const dft::FoldedLead& folded, double mu_l,
                            double mu_r, double shift) {
  std::vector<Contact> c(2);
  c[0] = Contact{&lead, &folded, mu_l, shift, 0};
  c[1] = Contact{&lead, &folded, mu_r, shift, kLastBlock};
  return ContactSet(std::move(c));
}

std::uint64_t lead_content_hash(const dft::LeadBlocks& lead) {
  numeric::Fnv1a h;
  h.add(lead.h.size());
  for (const auto& m : lead.h) h.add(m);
  for (const auto& m : lead.s) h.add(m);
  return h.value() == 0 ? 1 : h.value();  // 0 means "not precomputed"
}

}  // namespace omenx::transport
