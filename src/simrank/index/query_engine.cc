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

Status QueryEngine::CheckVertex(VertexId v) const {
  if (v >= index_.n()) {
    return Status::OutOfRange(
        StrFormat("vertex %u out of range (index has %u vertices)", v,
                  index_.n()));
  }
  return Status::OK();
}

QueryEngine::Row QueryEngine::GetFresh(VertexId v, uint64_t sequence) {
  TraceScope scope(TraceStage::kCacheLookup);
  if (auto hit = cache_.Get(v)) {
    if (hit->sequence == sequence) {
      TraceAdd(TraceCounter::kCacheHits, 1);
      return hit->row;
    }
    // Computed under an older overlay: unservable. Dropping it here keeps
    // the stale row from shadowing the recomputed one until eviction. A
    // *newer* stamp means this reader pinned its snapshot before an
    // update landed — the resident row is the fresh one; leave it for
    // current readers.
    if (hit->sequence < sequence) cache_.Erase(v);
  }
  TraceAdd(TraceCounter::kCacheMisses, 1);
  return nullptr;
}

bool QueryEngine::IsFresh(VertexId v, uint64_t sequence) const {
  const std::optional<VersionedRow> entry = cache_.Peek(v);
  return entry && entry->sequence == sequence;
}

std::optional<double> QueryEngine::CachedPair(VertexId a, VertexId b,
                                              uint64_t sequence) {
  if (Row row = GetFresh(a, sequence)) return (*row)[b];
  if (Row row = GetFresh(b, sequence)) return (*row)[a];
  return std::nullopt;
}

Result<double> QueryEngine::PairAtSnapshot(
    VertexId a, VertexId b,
    const std::shared_ptr<const DeltaOverlay>& overlay) {
  OIPSIM_RETURN_IF_ERROR(CheckVertex(a));
  OIPSIM_RETURN_IF_ERROR(CheckVertex(b));
  const uint64_t sequence = overlay == nullptr ? 0 : overlay->sequence();
  // A resident (and fresh) row of either endpoint already holds the
  // answer.
  if (std::optional<double> cached = CachedPair(a, b, sequence)) {
    return *cached;
  }
  return index_.EstimatePair(a, b, overlay.get());
}

std::optional<double> QueryEngine::PairFromCache(VertexId a, VertexId b) {
  if (a >= index_.n() || b >= index_.n()) return std::nullopt;
  const auto overlay = index_.overlay_snapshot();
  const uint64_t sequence = overlay == nullptr ? 0 : overlay->sequence();
  // Uncounted peeks decide, so a miss leaves the counting to the Pair call
  // that answers instead. A hit then makes Pair's own lookups: counters,
  // LRU order and trace spans match the computing path. (A row evicted
  // between the two reads is counted as a miss here and again by Pair.)
  if (!IsFresh(a, sequence) && !IsFresh(b, sequence)) return std::nullopt;
  return CachedPair(a, b, sequence);
}

Result<QueryEngine::Row> QueryEngine::SingleSourceAtSnapshot(
    VertexId v, const std::shared_ptr<const DeltaOverlay>& overlay) {
  OIPSIM_RETURN_IF_ERROR(CheckVertex(v));
  const uint64_t sequence = overlay == nullptr ? 0 : overlay->sequence();
  if (Row row = GetFresh(v, sequence)) return row;
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
  // A hint — answers are identical with or without it.
  if (index_.store().FlatWalks() == nullptr) {
    std::vector<VertexId> vertices;
    vertices.reserve(queries.size() * 2);
    for (const auto& [a, b] : queries) {
      vertices.push_back(a);
      vertices.push_back(b);
    }
    index_.store().Prefetch(vertices);
  }
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
  if (index_.store().FlatWalks() == nullptr) {
    index_.store().Prefetch(queries);
  }
  std::vector<Result<std::vector<ScoredVertex>>> answers(
      queries.size(),
      Result<std::vector<ScoredVertex>>(std::vector<ScoredVertex>{}));
  pool_.ParallelFor(0, queries.size(), [&](uint64_t i) {
    answers[i] = TopKAtSnapshot(queries[i], k, overlay);
  });
  return answers;
}

}  // namespace simrank
