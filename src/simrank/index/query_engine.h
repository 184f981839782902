// Query serving layer over a WalkIndex.
//
// QueryEngine answers the three point-query shapes a SimRank service needs
// — Pair(a, b), SingleSource(v) and TopK(v, k) — from a prebuilt walk
// index, with a sharded LRU cache of single-source rows in front of the
// estimator. A cached query is an O(1) row lookup; top-k and pair queries
// are served from the cached row when one is resident. Row misses go
// through the index's inverted-position path (output-sensitive, bitwise
// identical to the legacy full scan — see WalkIndex::EstimateSingleSource),
// so the engine serves identically whether the index is fully resident or
// mmap-backed. Batch variants fan the work across a thread pool (the cache
// is thread-safe), which is how a server drains a request queue.
#ifndef OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_
#define OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "simrank/common/status.h"
#include "simrank/common/thread_pool.h"
#include "simrank/extra/topk.h"
#include "simrank/graph/digraph.h"
#include "simrank/index/lru_cache.h"
#include "simrank/index/walk_index.h"

namespace simrank {

/// Serving-time knobs. Defaults suit a few thousand distinct hot vertices.
struct QueryEngineOptions {
  /// Independently-locked cache shards.
  uint32_t cache_shards = 8;
  /// Cached single-source rows per shard (total rows = shards × this).
  uint32_t cache_capacity_per_shard = 128;
  /// Threads for the batch APIs; 0 means hardware concurrency.
  uint32_t num_threads = 0;

  bool Valid() const {
    return cache_shards > 0 && cache_capacity_per_shard > 0;
  }
};

/// Thread-safe query frontend. The WalkIndex must outlive the engine.
///
/// Dynamic updates: every cached row is stamped with the index's overlay
/// sequence at computation time, and a stale stamp reads as a miss — so a
/// concurrent IndexUpdater::ApplyUpdates can never make the engine serve a
/// pre-update row, even in the window between the overlay swap and an
/// explicit InvalidateCache(). InvalidateCache() additionally frees the
/// stale rows eagerly.
class QueryEngine {
 public:
  /// A cached, immutable single-source score row s(v, ·).
  using Row = std::shared_ptr<const std::vector<double>>;

  explicit QueryEngine(const WalkIndex& index,
                       const QueryEngineOptions& options = {});

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(QueryEngine);

  /// Estimate of s(a, b). Served from a cached row when one of the
  /// endpoints' rows is resident, otherwise O(R·L) from the index.
  Result<double> Pair(VertexId a, VertexId b);

  /// s(a, b) when a resident row computed under the current overlay
  /// already holds it — bitwise what Pair returns — else nullopt. Never
  /// computes, so it is cheap enough for an event loop. A miss counts
  /// nothing in cache_stats(), leaving the count to the Pair call that
  /// answers instead; a hit counts exactly the lookups Pair would make.
  std::optional<double> PairFromCache(VertexId a, VertexId b);

  /// The full estimated row s(v, ·), computed on miss — via the inverted
  /// position index, touching only vertices that share a walk slot with
  /// `v` — and cached.
  Result<Row> SingleSource(VertexId v);

  /// The k vertices most similar to `v` (self excluded), from the — cached
  /// — single-source row. Ties break by ascending id.
  Result<std::vector<ScoredVertex>> TopK(VertexId v, uint32_t k);

  /// Batch variants: answer[i] corresponds to queries[i]. Work is spread
  /// across the engine's thread pool; results are deterministic (identical
  /// to issuing the queries sequentially). The whole batch is pinned to
  /// one overlay snapshot, so a concurrent update can never make one
  /// response mix index versions.
  std::vector<Result<double>> BatchPair(
      const std::vector<std::pair<VertexId, VertexId>>& queries);
  std::vector<Result<std::vector<ScoredVertex>>> BatchTopK(
      const std::vector<VertexId>& queries, uint32_t k);

  /// Drops every cached row. Rows computed against an older overlay are
  /// already unservable through the sequence stamp; this frees them.
  /// (There is deliberately no per-row invalidation: an update stales
  /// *every* cached row — a row s(v, ·) depends on all vertices' walks,
  /// not just v's.)
  void InvalidateCache() { cache_.Clear(); }

  /// Aggregated cache counters (hits/misses/evictions) since construction.
  using CacheStats = ShardedLruCache<VertexId, Row>::Stats;
  CacheStats cache_stats() const { return cache_.stats(); }

  const WalkIndex& index() const { return index_; }

 private:
  /// Cache value: the row plus the overlay sequence it was computed under.
  struct VersionedRow {
    uint64_t sequence = 0;
    Row row;
  };

  Status CheckVertex(VertexId v) const;

  /// The cached row of `v` if it is resident and was computed under
  /// overlay sequence `sequence`; stale entries read as absent.
  Row GetFresh(VertexId v, uint64_t sequence);
  /// Whether GetFresh would hit, without counting, tracing or touching the
  /// LRU order.
  bool IsFresh(VertexId v, uint64_t sequence) const;
  /// s(a, b) from the fresh row of `a`, else of `b` — the lookups of
  /// every pair query, in their order; nullopt when neither is resident.
  std::optional<double> CachedPair(VertexId a, VertexId b,
                                   uint64_t sequence);

  /// Pair/SingleSource/TopK against one pinned overlay snapshot — the
  /// shared core of the public entry points and the version-consistent
  /// batch APIs.
  Result<double> PairAtSnapshot(
      VertexId a, VertexId b,
      const std::shared_ptr<const DeltaOverlay>& overlay);
  Result<Row> SingleSourceAtSnapshot(
      VertexId v, const std::shared_ptr<const DeltaOverlay>& overlay);
  Result<std::vector<ScoredVertex>> TopKAtSnapshot(
      VertexId v, uint32_t k,
      const std::shared_ptr<const DeltaOverlay>& overlay);

  const WalkIndex& index_;
  QueryEngineOptions options_;
  ShardedLruCache<VertexId, VersionedRow> cache_;
  ThreadPool pool_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_
