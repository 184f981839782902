// A cache of single-source score rows, each stamped with the version it is
// valid under.
//
// Two users share it. QueryEngine stamps a row with the overlay sequence
// it was computed under, and serves it while DeltaOverlay says no later
// batch could change it. SimRankRouter stamps the row it assembles from
// its shards' slices with the version the shards answered at, and serves
// it while the row's owner still answers at that version. Each user passes
// its freshness rule to Get as a judge, a template argument, so the rule
// is inlined on the hot path; the cache does the rest the same way for
// both: the sharded LRU, the hit/miss/eviction counters, the trace span
// and counters of a lookup, and the rows' resident bytes.
#ifndef OIPSIM_SIMRANK_INDEX_ROW_CACHE_H_
#define OIPSIM_SIMRANK_INDEX_ROW_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "simrank/extra/topk.h"
#include "simrank/index/lru_cache.h"
#include "simrank/obs/trace.h"

namespace simrank {

/// Thread-safe. `Stamp` is copyable and default-constructible.
template <typename Stamp>
class RowCache {
 public:
  /// A cached, immutable single-source score row s(v, ·).
  using Row = std::shared_ptr<const SparseRow>;

  /// One resident row and the stamp it is valid under.
  struct Entry {
    Stamp stamp{};
    Row row;
  };

  /// Counters since construction; `rows` and `resident_bytes` describe
  /// the rows resident now (SparseRow::HeapBytes summed).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t rows = 0;
    uint64_t resident_bytes = 0;
  };

  /// `shards` independently locked LRU lists of `capacity_per_shard` rows
  /// each; both must be positive.
  RowCache(uint32_t shards, uint32_t capacity_per_shard)
      : lru_(shards, capacity_per_shard) {}

  /// The row of `v` when `judge(Stamp&)` serves it (CacheVerdict), else
  /// null. The judge runs under the shard lock and may re-stamp the entry
  /// in place; kDrop erases it. Counts one hit or one miss, in stats() and
  /// in the bound trace, inside a cache_lookup span.
  template <typename Judge>
  Row Get(VertexId v, Judge&& judge) {
    TraceScope scope(TraceStage::kCacheLookup);
    const std::optional<Entry> hit =
        lru_.Get(v, [&judge](Entry& entry) { return judge(entry.stamp); });
    if (!hit) {
      TraceAdd(TraceCounter::kCacheMisses, 1);
      return nullptr;
    }
    TraceAdd(TraceCounter::kCacheHits, 1);
    return hit->row;
  }

  /// The resident entry of `v`, or nullopt. Counts nothing, traces
  /// nothing and leaves the recency order alone.
  std::optional<Entry> Peek(VertexId v) const { return lru_.Peek(v); }

  /// Inserts (or replaces) the row of `v`, evicting its shard's least
  /// recently used row when full.
  void Put(VertexId v, Stamp stamp, Row row) {
    lru_.Put(v, Entry{std::move(stamp), std::move(row)});
  }

  /// Drops every row; the counters keep accumulating.
  void Clear() { lru_.Clear(); }

  Stats stats() const {
    const LruCacheStats lru = lru_.stats();
    Stats stats{lru.hits, lru.misses, lru.evictions};
    lru_.ForEach([&stats](const Entry& entry) {
      ++stats.rows;
      stats.resident_bytes += entry.row->HeapBytes();
    });
    return stats;
  }

 private:
  ShardedLruCache<VertexId, Entry> lru_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_ROW_CACHE_H_
