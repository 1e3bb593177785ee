#include "service/result_cache.hpp"

namespace qrc::service {

ResultCache::ResultCache(std::size_t capacity, obs::MetricsRegistry& reg)
    : capacity_(capacity) {
  hits_ = &reg.counter("qrc_cache_hits_total", "Result cache hits");
  misses_ = &reg.counter("qrc_cache_misses_total", "Result cache misses");
  evictions_ =
      &reg.counter("qrc_cache_evictions_total", "Result cache LRU evictions");
  insertions_ =
      &reg.counter("qrc_cache_insertions_total", "Result cache insertions");
  entries_ = &reg.gauge("qrc_cache_entries", "Result cache resident entries");
}

std::optional<core::CompilationResult> ResultCache::get(
    const std::string& key) {
  std::lock_guard lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->inc();
    return std::nullopt;
  }
  hits_->inc();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void ResultCache::put(const std::string& key,
                      core::CompilationResult value) {
  if (capacity_ == 0) {
    return;
  }
  std::lock_guard lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Deterministic compilation: a re-insert carries the same result, so
    // only the recency changes.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  index_.emplace(key, lru_.begin());
  insertions_->inc();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_->inc();
  }
  entries_->set(static_cast<std::int64_t>(lru_.size()));
}

std::size_t ResultCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

}  // namespace qrc::service
