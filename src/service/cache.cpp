#include "service/cache.h"

#include "base/spin.h"
#include "obs/registry.h"

namespace msts::service {

// Every served request probes the cache, so concurrent workers spin for its
// short lock instead of blocking (base/spin.h).
std::shared_ptr<const SynthesisResult> PlanCache::lookup(const std::string& key) {
  {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    lock_spinning(lock);
    auto it = map_.find(key);
    if (it != map_.end()) {
      obs::counter_add("service.cache.hit");
      return it->second;
    }
  }
  obs::counter_add("service.cache.miss");
  return nullptr;
}

std::shared_ptr<const SynthesisResult> PlanCache::insert(
    const std::string& key, std::shared_ptr<const SynthesisResult> result) {
  {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    lock_spinning(lock);
    auto it = map_.find(key);
    if (it == map_.end()) {
      map_.emplace(key, result);
    } else {
      // A concurrent miss on the same key published first; adopt its entry
      // so every holder of this key shares one result object.
      result = it->second;
      obs::counter_add("service.cache.race_adopted");
      return result;
    }
  }
  obs::counter_add("service.cache.insert");
  obs::counter_add("service.cache.entries");
  return result;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

}  // namespace msts::service
