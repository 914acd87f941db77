#include "obc/boundary_cache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace omenx::obc {

namespace {

// NaN compares unordered with everything, so a NaN key would be
// "equivalent" to every key of the map and poison later lookups.
void require_finite(const BoundaryKey& key) {
  if (!std::isfinite(key.energy) || !std::isfinite(key.energy_imag) ||
      !std::isfinite(key.contact_shift))
    throw std::invalid_argument(
        "BoundaryCache: key has a non-finite energy or contact shift");
}

}  // namespace

BoundaryCache::BoundaryCache(std::size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

std::shared_ptr<const Boundary> BoundaryCache::find(const BoundaryKey& key) {
  require_finite(key);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    ++contact_stats_[key.contact].misses;
    return nullptr;
  }
  ++stats_.hits;
  ++contact_stats_[key.contact].hits;
  return it->second;
}

std::shared_ptr<const Boundary> BoundaryCache::insert(const BoundaryKey& key,
                                                      Boundary bnd) {
  require_finite(key);
  auto entry = std::make_shared<const Boundary>(std::move(bnd));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.emplace(key, std::move(entry));
  if (inserted) {
    ++stats_.insertions;
    ++contact_stats_[key.contact].insertions;
    order_.push_back(key);
    while (entries_.size() > max_entries_ && !order_.empty()) {
      entries_.erase(order_.front());  // FIFO: oldest insertion goes first
      order_.pop_front();
    }
  }
  return it->second;  // an existing entry wins: first evaluation is canonical
}

void BoundaryCache::invalidate() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  order_.clear();
  ++stats_.invalidations;
  for (auto& [contact, s] : contact_stats_) ++s.invalidations;
}

void BoundaryCache::reserve(std::size_t min_entries) {
  const std::lock_guard<std::mutex> lock(mutex_);
  max_entries_ = std::max(max_entries_, min_entries);
}

std::size_t BoundaryCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t BoundaryCache::max_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return max_entries_;
}

BoundaryCache::Stats BoundaryCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

BoundaryCache::Stats BoundaryCache::contact_stats(int contact) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = contact_stats_.find(contact);
  return it == contact_stats_.end() ? Stats{} : it->second;
}

std::vector<int> BoundaryCache::contacts_seen() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  out.reserve(contact_stats_.size());
  for (const auto& [contact, s] : contact_stats_) out.push_back(contact);
  return out;
}

}  // namespace omenx::obc
