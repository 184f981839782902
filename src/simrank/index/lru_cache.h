// Sharded LRU cache for query serving.
//
// Sharding splits the key space across independently-locked LRU maps so
// concurrent readers (the QueryEngine's batch API) rarely contend on one
// mutex. Values are expected to be cheap to copy — the QueryEngine stores
// shared_ptr rows, so a hit hands out a reference without copying the row.
#ifndef OIPSIM_SIMRANK_INDEX_LRU_CACHE_H_
#define OIPSIM_SIMRANK_INDEX_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simrank/common/macros.h"

namespace simrank {

/// Aggregated cache counters, shared across all ShardedLruCache
/// instantiations (so code holding stats does not depend on the cached
/// value type).
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// What a ShardedLruCache::Get judge decides about a resident value.
enum class CacheVerdict : uint8_t {
  kServe,  // a hit: the value answers
  kKeep,   // a miss; the value stays resident
  kDrop,   // a miss; the value is erased
};

/// Fixed-capacity LRU map sharded by key hash. Thread-safe.
template <typename Key, typename Value>
class ShardedLruCache {
 public:
  using Stats = LruCacheStats;

  /// `num_shards` independent LRU lists of `capacity_per_shard` entries
  /// each. Both must be positive.
  ShardedLruCache(uint32_t num_shards, uint32_t capacity_per_shard)
      : capacity_per_shard_(capacity_per_shard) {
    OIPSIM_CHECK_GT(num_shards, 0u);
    OIPSIM_CHECK_GT(capacity_per_shard, 0u);
    shards_.reserve(num_shards);
    for (uint32_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<Value> Get(const Key& key) {
    return Get(key, [](Value&) { return CacheVerdict::kServe; });
  }

  /// Looks `key` up and lets `judge(Value&)` decide, under the shard lock,
  /// whether the resident value answers; `judge` may rewrite the value in
  /// place. Only a served value counts a hit and refreshes its recency;
  /// an absent or refused one counts a miss, and kDrop also erases it.
  template <typename Judge>
  std::optional<Value> Get(const Key& key, Judge&& judge) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    switch (judge(it->second->second)) {
      case CacheVerdict::kServe:
        ++shard.stats.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return it->second->second;
      case CacheVerdict::kDrop:
        shard.lru.erase(it->second);
        shard.map.erase(it);
        break;
      case CacheVerdict::kKeep:
        break;
    }
    ++shard.stats.misses;
    return std::nullopt;
  }

  /// Returns the cached value without counting a lookup or refreshing its
  /// recency, or nullopt.
  std::optional<Value> Peek(const Key& key) const {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;
    return it->second->second;
  }

  /// Inserts (or refreshes) `key`, evicting the shard's least-recently-used
  /// entry when full.
  void Put(const Key& key, Value value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= capacity_per_shard_) {
      shard.map.erase(shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.map.emplace(key, shard.lru.begin());
  }

  /// Drops every entry in every shard. Counters keep accumulating across
  /// the clear.
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->lru.clear();
      shard->map.clear();
    }
  }

  /// Number of resident entries across all shards.
  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->lru.size();
    }
    return total;
  }

  /// Calls `fn(value)` for every resident value, one shard lock at a time.
  /// Counts nothing and leaves the recency order alone.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      for (const auto& entry : shard->lru) fn(entry.second);
    }
  }

  /// Aggregated hit/miss/eviction counters across all shards.
  Stats stats() const {
    Stats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total.hits += shard->stats.hits;
      total.misses += shard->stats.misses;
      total.evictions += shard->stats.evictions;
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<std::pair<Key, Value>> lru;
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator>
        map;
    Stats stats;
  };

  Shard& ShardFor(const Key& key) const {
    // Mix the hash so sequential integer keys spread across shards.
    uint64_t h = std::hash<Key>{}(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return *shards_[h % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  uint32_t capacity_per_shard_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_LRU_CACHE_H_
