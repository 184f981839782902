// Query serving layer over a WalkIndex.
//
// QueryEngine answers the three point-query shapes a SimRank service needs
// — Pair(a, b), SingleSource(v) and TopK(v, k) — from a prebuilt walk
// index, with a sharded LRU cache of single-source rows in front of the
// estimator. Rows are sparse (SparseRow: the nonzero (vertex, score)
// entries, ascending — ~16 bytes per entry, ~0.5 KB for a median row
// against 8n bytes dense), so a cached pair is a binary search and a
// cached top-k a selection over the row's nonzeros. Row misses go through
// the index's inverted-position path (output-sensitive, bitwise identical
// to the full scan — see WalkIndex::EstimateSingleSourceSparse), so the
// engine serves identically whether the index is fully resident or
// mmap-backed. Batch variants fan the work across a thread pool (the cache
// is thread-safe), which is how a server drains a request queue.
#ifndef OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_
#define OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "simrank/common/status.h"
#include "simrank/common/thread_pool.h"
#include "simrank/extra/topk.h"
#include "simrank/graph/digraph.h"
#include "simrank/index/row_cache.h"
#include "simrank/index/walk_index.h"

namespace simrank {

/// OutOfRange unless v < n: the answer every frontend gives a vertex id
/// beyond the index.
Status CheckVertexInRange(VertexId v, uint32_t n);

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
/// Dynamic updates: every cached row is stamped with the overlay sequence
/// it is valid under. A reader pinned to sequence S serves a resident row
/// stamped S. A row stamped s < S whose vertex is in none of the
/// row-change sets of batches (s, S] (DeltaOverlay::RowUnchangedSince) is
/// bitwise the row under S: it is re-stamped to S in place and served.
/// Any other older row is erased and recomputed; a row stamped after the
/// reader's snapshot is left for current readers. So a concurrent
/// IndexUpdater::ApplyUpdates never makes the engine serve a row the
/// batch changed, and rows it could not change stay warm.
class QueryEngine {
 public:
  /// A cached, immutable single-source score row s(v, ·).
  using Row = RowCache<uint64_t>::Row;

  /// TopKFromCache answers only from rows listing at most this many
  /// vertices: the selection it runs stays a few microseconds, cheap
  /// enough for an event loop.
  static constexpr size_t kMaxCachedTopKEntries = 1024;

  explicit QueryEngine(const WalkIndex& index,
                       const QueryEngineOptions& options = {});

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(QueryEngine);

  /// Estimate of s(a, b). Served from a cached row when one of the
  /// endpoints' rows is resident, otherwise O(R·L) from the index.
  Result<double> Pair(VertexId a, VertexId b);

  /// s(a, b) when a resident row valid under the current overlay already
  /// holds it — bitwise what Pair returns — else nullopt. Never
  /// computes, so it is cheap enough for an event loop. A miss counts
  /// nothing in cache_stats(), leaving the count to the Pair call that
  /// answers instead; a hit counts exactly the lookups Pair would make.
  std::optional<double> PairFromCache(VertexId a, VertexId b);

  /// The full estimated row s(v, ·), computed on miss — via the inverted
  /// position index, touching only vertices that share a walk slot with
  /// `v` — and cached.
  Result<Row> SingleSource(VertexId v);

  /// The k vertices most similar to `v` (self excluded), from the — cached
  /// — single-source row: a selection over its nonzeros, then zero-score
  /// vertices by ascending id when k exceeds them. Ties break by ascending
  /// id (bitwise TopKFromRow over the dense row).
  Result<std::vector<ScoredVertex>> TopK(VertexId v, uint32_t k);

  /// TopK(v, k) when a resident row valid under the current overlay holds
  /// it at bounded cost — at most kMaxCachedTopKEntries listed vertices
  /// and at least k besides v, so no zero fill runs — else nullopt. Never
  /// computes; like PairFromCache, a miss counts nothing in cache_stats()
  /// and a hit counts exactly the lookup TopK would make.
  std::optional<std::vector<ScoredVertex>> TopKFromCache(VertexId v,
                                                         uint32_t k);

  /// Batch variants: answer[i] corresponds to queries[i]. Work is spread
  /// across the engine's thread pool; results are deterministic (identical
  /// to issuing the queries sequentially). The whole batch is pinned to
  /// one (store, overlay) snapshot, so neither a concurrent update nor a
  /// compaction can make one response mix index versions.
  std::vector<Result<double>> BatchPair(
      const std::vector<std::pair<VertexId, VertexId>>& queries);
  std::vector<Result<std::vector<ScoredVertex>>> BatchTopK(
      const std::vector<VertexId>& queries, uint32_t k);

  /// Drops every cached row. Updates never need it: a row a batch can
  /// change reads as a miss through its stamp, and the others stay valid.
  void InvalidateCache() { cache_.Clear(); }

  /// Cache counters since construction (RowCache::Stats). A hit is a row
  /// served from the cache, fresh or re-stamped; `restamped` counts the
  /// re-stamps, the rows carried across batches that could not change
  /// them.
  struct CacheStats : RowCache<uint64_t>::Stats {
    uint64_t restamped = 0;
  };
  CacheStats cache_stats() const;

  const WalkIndex& index() const { return index_; }

 private:
  Status CheckVertex(VertexId v) const;

  /// The cached row of `v` if it is resident and valid under `overlay`
  /// (null: no batch yet, sequence 0), re-stamping it when it is valid
  /// through an older stamp; other older entries are erased.
  Row GetFresh(VertexId v, const DeltaOverlay* overlay);
  /// The row GetFresh would serve, without counting, tracing,
  /// re-stamping or touching the LRU order; null when it would miss.
  Row PeekFresh(VertexId v, const DeltaOverlay* overlay) const;
  /// s(a, b) from the fresh row of `a`, else of `b` — the lookups of
  /// every pair query, in their order; nullopt when neither is resident.
  std::optional<double> CachedPair(VertexId a, VertexId b,
                                   const DeltaOverlay* overlay);

  /// Pair/SingleSource/TopK against one pinned (store, overlay) pair —
  /// the shared core of the public entry points and the
  /// version-consistent batch APIs.
  Result<double> PairAtSnapshot(VertexId a, VertexId b,
                                const WalkIndex::Snapshot& at);
  Result<Row> SingleSourceAtSnapshot(VertexId v,
                                     const WalkIndex::Snapshot& at);
  Result<std::vector<ScoredVertex>> TopKAtSnapshot(
      VertexId v, uint32_t k, const WalkIndex::Snapshot& at);

  const WalkIndex& index_;
  QueryEngineOptions options_;
  /// Each row stamped with the overlay sequence it is valid under.
  RowCache<uint64_t> cache_;
  std::atomic<uint64_t> restamped_{0};
  ThreadPool pool_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_QUERY_ENGINE_H_
