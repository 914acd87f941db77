// Name -> entry registry behind every pluggable family: solvers, OBC
// strategies, charge quadratures and scattering models register factories;
// numeric backends register instances.  Each family keeps its own public
// register_* / registered_* / make_* (or find_*) functions on top.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace omenx::numeric {

/// Thread-safe name -> Entry map.  Lookups copy the entry out under the
/// lock, so a factory may itself consult a registry (delegating wrappers
/// do) without deadlocking.
template <typename Entry>
class Registry {
 public:
  explicit Registry(std::map<std::string, Entry> builtins = {})
      : entries_(std::move(builtins)) {}

  /// Insert, or replace the entry already under `name`.
  void set(const std::string& name, Entry entry) {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_[name] = std::move(entry);
  }

  /// Insert; false (and no change) when `name` is taken.
  bool insert(const std::string& name, Entry entry) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.emplace(name, std::move(entry)).second;
  }

  /// The entry under `name`, or a value-initialized Entry (an empty
  /// factory, a null pointer) when there is none.
  Entry find(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    return it == entries_.end() ? Entry{} : it->second;
  }

  /// Every registered name, sorted.
  std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& entry : entries_) out.push_back(entry.first);
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace omenx::numeric
