/// \file result_cache.hpp
/// \brief Thread-safe LRU cache from canonical circuit fingerprints
///        (ir::canonical_key, prefixed with the model name by the service)
///        to compiled results. Exactness is free: compilation is
///        deterministic, so a cached result is bit-identical to a fresh
///        Predictor::compile() of the same circuit.
#pragma once

#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/predictor.hpp"
#include "obs/metrics.hpp"

namespace qrc::service {

class ResultCache {
 public:
  /// `capacity` 0 disables the cache (every get misses, put is a no-op).
  /// The qrc_cache_* counters land in `registry`, which must outlive the
  /// cache.
  ResultCache(std::size_t capacity, obs::MetricsRegistry& registry);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks up `key`, refreshing its recency on a hit. Counts hit/miss.
  [[nodiscard]] std::optional<core::CompilationResult> get(
      const std::string& key);

  /// Inserts (or refreshes) `key`, evicting least-recently-used entries
  /// beyond capacity.
  void put(const std::string& key, core::CompilationResult value);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

 private:
  using Entry = std::pair<std::string, core::CompilationResult>;

  const std::size_t capacity_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
  obs::Counter* insertions_;
  obs::Gauge* entries_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace qrc::service
