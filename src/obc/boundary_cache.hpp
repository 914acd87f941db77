// Cross-sweep cache of boundary conditions, keyed by content.
//
// The lead Hamiltonian never depends on the device potential, so every SCF
// outer iteration, transfer-characteristic bias point, and adaptive-grid
// re-sweep that revisits a (k, E) pair re-solves an *identical* lead
// eigenproblem.  The cache stores the full Boundary (self-energies,
// injection columns, mode basis) of the first evaluation and hands the same
// object back on every revisit — bit-identical by construction, since a hit
// reuses the stored matrices rather than recomputing anything.
//
// Keys are content-complete: a BoundaryKey holds everything a Boundary
// depends on (see BoundaryKey), so a changed lead, shift, backend, or
// backend option is a different key and a stale entry can never be named.
// Nobody has to detect change and invalidate; going back to an earlier
// configuration hits the entries it left behind.  invalidate() remains as
// an explicit flush (cold-start measurements, bounding the footprint).
// Keys compare doubles exactly on purpose: a near-miss energy is a
// different physical point and must be recomputed, and exact keys are what
// makes cached and uncached runs agree to the last bit.  Non-finite doubles
// are rejected — NaN compares unordered and would alias every key.
//
// Thread-safe: the distribution engine shares one cache among a rank's pool
// workers (flat path), and invalidate() may race with lookups — entries are
// handed out as shared_ptr so a concurrent invalidation can never pull a
// Boundary out from under a reader.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "numeric/hash.hpp"
#include "numeric/types.hpp"
#include "obc/self_energy.hpp"

namespace omenx::obc {

using numeric::idx;

/// Cache key of one boundary evaluation: everything the Boundary depends
/// on — (k, Re E, Im E, shift, algorithm, lead content, backend options,
/// scattering component) — plus the canonical contact id that partitions
/// the per-contact statistics.  Doubles compare exactly (see file header).
struct BoundaryKey {
  idx k = 0;              ///< global momentum index of the sweep
  double energy = 0.0;    ///< Re(E) (eV) the point was requested at
  double contact_shift = 0.0;  ///< uniform lead potential shift (eV)
  /// static_cast<int>(ObcAlgorithm), stored as an int to keep this header
  /// strategy-free: two backends at the same (k, E, shift) produce
  /// different Boundaries (e.g. truncated vs full spectra).
  int algorithm = 0;
  /// Im(E) (eV) — non-zero for the complex-contour charge quadrature, whose
  /// nodes sit well off the real axis and are revisited identically on every
  /// SCF iteration (the fixed contour is what makes their hit rate approach
  /// 100% after the first pass).  Kept after the four leading fields so
  /// their aggregate initializers keep meaning the real axis.
  double energy_imag = 0.0;
  /// Canonical contact id (ContactSet::representative) the boundary belongs
  /// to.  Identical contacts share one id — the symmetric pair fetches once,
  /// under id 0 — while dissimilar leads and per-contact shifts get their
  /// own key ranges and hit/miss counters.
  int contact = 0;
  /// Content hash of the lead (transport::lead_content_hash).  A swapped
  /// lead material is a guaranteed miss even under a reused contact id.
  std::uint64_t lead_hash = 0;
  /// Scattering-model component (scattering::boundary_key_component): 0 for
  /// the ballistic pipeline and for every model that leaves the contact
  /// boundaries untouched (Büttiker probes live on interior blocks).
  std::uint64_t scattering = 0;
  /// ObcOptions::digest() of the backend options the boundary was computed
  /// under (annulus, ridge, eta, ...).
  std::uint64_t options = 0;

  /// Content hash of every field — the stable device-residency id of the
  /// operands derived from this boundary (transport::solve_energy_batch).
  std::uint64_t digest() const noexcept {
    numeric::Fnv1a h;
    h.add(k).add(energy).add(contact_shift).add(algorithm).add(energy_imag)
        .add(contact).add(lead_hash).add(scattering).add(options);
    return h.value();
  }

  friend bool operator<(const BoundaryKey& a, const BoundaryKey& b) noexcept {
    if (a.contact != b.contact) return a.contact < b.contact;
    if (a.k != b.k) return a.k < b.k;
    if (a.energy != b.energy) return a.energy < b.energy;
    if (a.energy_imag != b.energy_imag) return a.energy_imag < b.energy_imag;
    if (a.contact_shift != b.contact_shift)
      return a.contact_shift < b.contact_shift;
    if (a.lead_hash != b.lead_hash) return a.lead_hash < b.lead_hash;
    if (a.scattering != b.scattering) return a.scattering < b.scattering;
    if (a.options != b.options) return a.options < b.options;
    return a.algorithm < b.algorithm;
  }
};

class BoundaryCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t invalidations = 0;
  };

  /// `max_entries` bounds the footprint: inserting at the cap evicts the
  /// oldest insertion (FIFO).  Holders should reserve() at least one full
  /// sweep's worth of keys — a cap below the sweep size churns the whole
  /// cache every pass and forfeits cross-iteration reuse (the engine
  /// reserves 2x its task count per run).
  explicit BoundaryCache(std::size_t max_entries = 4096);

  /// The cached boundary for `key`, or nullptr (counts a hit or a miss).
  /// Throws std::invalid_argument for a key with a non-finite double.
  std::shared_ptr<const Boundary> find(const BoundaryKey& key);

  /// Store `bnd` under `key` and return the stored entry.  If another
  /// thread (or an earlier sweep) already populated the key, the existing
  /// entry wins and is returned — first evaluation is canonical.  Throws
  /// std::invalid_argument for a key with a non-finite double.
  std::shared_ptr<const Boundary> insert(const BoundaryKey& key, Boundary bnd);

  /// Drop every entry — an explicit flush (cold-start measurements, or to
  /// bound the footprint); never needed for correctness, since keys are
  /// content-complete.  Outstanding shared_ptr handles stay valid.
  void invalidate();

  /// Raise the eviction cap to at least `min_entries` (never lowers it).
  void reserve(std::size_t min_entries);

  std::size_t size() const;
  std::size_t max_entries() const;
  Stats stats() const;

  /// Hit/miss/insertion/invalidation counters of one canonical contact id
  /// (zeros if the id was never seen).
  Stats contact_stats(int contact) const;

  /// Sorted canonical contact ids with recorded activity.
  std::vector<int> contacts_seen() const;

 private:
  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::map<BoundaryKey, std::shared_ptr<const Boundary>> entries_;
  std::deque<BoundaryKey> order_;  ///< insertion order, oldest first
  Stats stats_;
  std::map<int, Stats> contact_stats_;  ///< per canonical contact id
};

}  // namespace omenx::obc
