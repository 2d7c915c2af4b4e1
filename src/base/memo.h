// First-wins memo: a thread-safe map from a key to a shared immutable value.
//
// The toolkit's caches (the FFT, rfft and window plans in dsp/fft_plan.cpp,
// the service's synthesized results in service/engine.cpp) all hold values
// that are expensive to build and deterministic. Their callers build outside
// the lock: lookup() misses, the caller builds, insert() publishes. So a
// build never stalls lookups of other keys, and a build may itself consult a
// memo (an rfft plan fetches its half-size fft plan while it is built).
// Concurrent misses on one key race benignly: the first insert wins and every
// later one gets the winner back, so all holders of a key share one object.
//
// The lock covers one hash probe. It is taken with lock_spinning
// (base/spin.h) because the service probes its memo once per served request.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "base/spin.h"

namespace msts {

template <class Key, class Value, class Hash = std::hash<Key>>
class Memo {
 public:
  using Entry = std::shared_ptr<const Value>;

  Memo() = default;
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// The entry for `key`, or nullptr when none has been inserted yet.
  Entry lookup(const Key& key) const {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    lock_spinning(lock);
    const auto it = map_.find(key);
    return it != map_.end() ? it->second : nullptr;
  }

  /// Publishes `value` under `key` unless an entry is already there, and
  /// returns the entry that won: `value` itself, or the earlier one.
  Entry insert(const Key& key, Entry value) {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    lock_spinning(lock);
    return map_.try_emplace(key, std::move(value)).first->second;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, Hash> map_;
};

}  // namespace msts
