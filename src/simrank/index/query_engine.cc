#include "simrank/index/query_engine.h"

#include "simrank/common/string_util.h"
#include "simrank/obs/trace.h"

namespace simrank {

QueryEngine::QueryEngine(const WalkIndex& index,
                         const QueryEngineOptions& options)
    : index_(index),
      options_(options),
      cache_(options.Valid() ? options.cache_shards : 1,
             options.Valid() ? options.cache_capacity_per_shard : 1),
      pool_(options.num_threads) {
  OIPSIM_CHECK_MSG(options.Valid(),
                   "QueryEngineOptions: shards and capacity must be > 0");
}

Status CheckVertexInRange(VertexId v, uint32_t n) {
  if (v >= n) {
    return Status::OutOfRange(StrFormat(
        "vertex %u out of range (index has %u vertices)", v, n));
  }
  return Status::OK();
}

Status QueryEngine::CheckVertex(VertexId v) const {
  return CheckVertexInRange(v, index_.n());
}

namespace {

uint64_t SequenceOf(const DeltaOverlay* overlay) {
  return overlay == nullptr ? 0 : overlay->sequence();
}

/// Whether a row of `v` stamped `stamp` answers a reader of `overlay`
/// (null: the base store, sequence 0).
bool ValidUnder(VertexId v, uint64_t stamp, const DeltaOverlay* overlay) {
  return overlay == nullptr ? stamp == 0
                            : overlay->RowUnchangedSince(v, stamp);
}

}  // namespace

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  const LruCacheStats lru = cache_.stats();
  return CacheStats{lru.hits, lru.misses, lru.evictions,
                    restamped_.load(std::memory_order_relaxed)};
}

QueryEngine::Row QueryEngine::GetFresh(VertexId v,
                                       const DeltaOverlay* overlay) {
  TraceScope scope(TraceStage::kCacheLookup);
  const uint64_t sequence = SequenceOf(overlay);
  bool restamped = false;
  const std::optional<VersionedRow> hit =
      cache_.Get(v, [&](VersionedRow& entry) {
        // A *newer* stamp means this reader pinned its snapshot before an
        // update landed — the resident row is the one current readers
        // want; leave it to them.
        if (entry.sequence > sequence) return CacheVerdict::kKeep;
        // Erasing a row the batches changed keeps it from shadowing the
        // recomputed one until eviction.
        if (!ValidUnder(v, entry.sequence, overlay)) {
          return CacheVerdict::kDrop;
        }
        // Carried across batches that cannot change it: the same row,
        // valid under this reader's sequence.
        restamped = entry.sequence != sequence;
        entry.sequence = sequence;
        return CacheVerdict::kServe;
      });
  if (!hit) {
    TraceAdd(TraceCounter::kCacheMisses, 1);
    return nullptr;
  }
  if (restamped) restamped_.fetch_add(1, std::memory_order_relaxed);
  TraceAdd(TraceCounter::kCacheHits, 1);
  return hit->row;
}

bool QueryEngine::IsFresh(VertexId v, const DeltaOverlay* overlay) const {
  const std::optional<VersionedRow> entry = cache_.Peek(v);
  return entry && ValidUnder(v, entry->sequence, overlay);
}

std::optional<double> QueryEngine::CachedPair(VertexId a, VertexId b,
                                              const DeltaOverlay* overlay) {
  if (Row row = GetFresh(a, overlay)) return (*row)[b];
  if (Row row = GetFresh(b, overlay)) return (*row)[a];
  return std::nullopt;
}

Result<double> QueryEngine::PairAtSnapshot(
    VertexId a, VertexId b,
    const std::shared_ptr<const DeltaOverlay>& overlay) {
  OIPSIM_RETURN_IF_ERROR(CheckVertex(a));
  OIPSIM_RETURN_IF_ERROR(CheckVertex(b));
  // A resident (and fresh) row of either endpoint already holds the
  // answer.
  if (std::optional<double> cached = CachedPair(a, b, overlay.get())) {
    return *cached;
  }
  return index_.EstimatePair(a, b, overlay.get());
}

std::optional<double> QueryEngine::PairFromCache(VertexId a, VertexId b) {
  if (a >= index_.n() || b >= index_.n()) return std::nullopt;
  const auto overlay = index_.overlay_snapshot();
  // Uncounted peeks decide, so a miss leaves the counting to the Pair call
  // that answers instead. A hit then makes Pair's own lookups: counters,
  // LRU order, re-stamps and trace spans match the computing path. (A row
  // evicted between the two reads is counted as a miss here and again by
  // Pair.)
  if (!IsFresh(a, overlay.get()) && !IsFresh(b, overlay.get())) {
    return std::nullopt;
  }
  return CachedPair(a, b, overlay.get());
}

Result<QueryEngine::Row> QueryEngine::SingleSourceAtSnapshot(
    VertexId v, const std::shared_ptr<const DeltaOverlay>& overlay) {
  OIPSIM_RETURN_IF_ERROR(CheckVertex(v));
  if (Row row = GetFresh(v, overlay.get())) return row;
  const uint64_t sequence = SequenceOf(overlay.get());
  Row row = std::make_shared<const std::vector<double>>(
      index_.EstimateSingleSource(v, overlay.get()));
  // Stamped with the sequence the row was actually computed under; if an
  // update raced us, the stamp is stale and the row reads as a miss —
  // and in that case skip the insert rather than overwrite a row another
  // reader may have cached under the newer overlay.
  if (index_.overlay_sequence() == sequence) {
    cache_.Put(v, VersionedRow{sequence, row});
  }
  return row;
}

Result<std::vector<ScoredVertex>> QueryEngine::TopKAtSnapshot(
    VertexId v, uint32_t k,
    const std::shared_ptr<const DeltaOverlay>& overlay) {
  Result<Row> row = SingleSourceAtSnapshot(v, overlay);
  if (!row.ok()) return row.status();
  return TopKFromRow(**row, v, k, /*exclude_query=*/true);
}

Result<double> QueryEngine::Pair(VertexId a, VertexId b) {
  // One overlay snapshot serves the whole query: the cached-row check and
  // the fallback estimate must agree on the index version.
  return PairAtSnapshot(a, b, index_.overlay_snapshot());
}

Result<QueryEngine::Row> QueryEngine::SingleSource(VertexId v) {
  return SingleSourceAtSnapshot(v, index_.overlay_snapshot());
}

Result<std::vector<ScoredVertex>> QueryEngine::TopK(VertexId v, uint32_t k) {
  return TopKAtSnapshot(v, k, index_.overlay_snapshot());
}

std::vector<Result<double>> QueryEngine::BatchPair(
    const std::vector<std::pair<VertexId, VertexId>>& queries) {
  // One snapshot for the whole batch: every answer reflects the same
  // index version even if an update lands mid-fanout.
  const auto overlay = index_.overlay_snapshot();
  // Paged backend: one batched readahead of every queried segment before
  // the fan-out, instead of each worker faulting its pages one at a time.
  // A hint — answers are identical with or without it, and the in-memory
  // backend ignores it.
  std::vector<VertexId> vertices;
  vertices.reserve(queries.size() * 2);
  for (const auto& [a, b] : queries) {
    vertices.push_back(a);
    vertices.push_back(b);
  }
  index_.store().Prefetch(vertices);
  std::vector<Result<double>> answers(queries.size(),
                                      Result<double>(0.0));
  pool_.ParallelFor(0, queries.size(), [&](uint64_t i) {
    answers[i] =
        PairAtSnapshot(queries[i].first, queries[i].second, overlay);
  });
  return answers;
}

std::vector<Result<std::vector<ScoredVertex>>> QueryEngine::BatchTopK(
    const std::vector<VertexId>& queries, uint32_t k) {
  const auto overlay = index_.overlay_snapshot();
  index_.store().Prefetch(queries);
  std::vector<Result<std::vector<ScoredVertex>>> answers(
      queries.size(),
      Result<std::vector<ScoredVertex>>(std::vector<ScoredVertex>{}));
  pool_.ParallelFor(0, queries.size(), [&](uint64_t i) {
    answers[i] = TopKAtSnapshot(queries[i], k, overlay);
  });
  return answers;
}

}  // namespace simrank
