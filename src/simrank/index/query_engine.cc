#include "simrank/index/query_engine.h"

#include "simrank/common/string_util.h"

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
/// (null: no batch yet, sequence 0).
bool ValidUnder(VertexId v, uint64_t stamp, const DeltaOverlay* overlay) {
  return overlay == nullptr ? stamp == 0
                            : overlay->RowUnchangedSince(v, stamp);
}

}  // namespace

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  return {cache_.stats(), restamped_.load(std::memory_order_relaxed)};
}

QueryEngine::Row QueryEngine::GetFresh(VertexId v,
                                       const DeltaOverlay* overlay) {
  const uint64_t sequence = SequenceOf(overlay);
  bool restamped = false;
  Row row = cache_.Get(v, [&](uint64_t& stamp) {
    // A *newer* stamp means this reader pinned its snapshot before an
    // update landed — the resident row is the one current readers want;
    // leave it to them.
    if (stamp > sequence) return CacheVerdict::kKeep;
    // Erasing a row the batches changed keeps it from shadowing the
    // recomputed one until eviction.
    if (!ValidUnder(v, stamp, overlay)) return CacheVerdict::kDrop;
    // Carried across batches that cannot change it: the same row, valid
    // under this reader's sequence.
    restamped = stamp != sequence;
    stamp = sequence;
    return CacheVerdict::kServe;
  });
  if (restamped) restamped_.fetch_add(1, std::memory_order_relaxed);
  return row;
}

QueryEngine::Row QueryEngine::PeekFresh(VertexId v,
                                        const DeltaOverlay* overlay) const {
  const std::optional<RowCache<uint64_t>::Entry> entry = cache_.Peek(v);
  return entry && ValidUnder(v, entry->stamp, overlay) ? entry->row
                                                       : nullptr;
}

std::optional<double> QueryEngine::CachedPair(VertexId a, VertexId b,
                                              const DeltaOverlay* overlay) {
  if (Row row = GetFresh(a, overlay)) return row->Score(b);
  if (Row row = GetFresh(b, overlay)) return row->Score(a);
  return std::nullopt;
}

Result<double> QueryEngine::PairAtSnapshot(VertexId a, VertexId b,
                                           const WalkIndex::Snapshot& at) {
  OIPSIM_RETURN_IF_ERROR(CheckVertex(a));
  OIPSIM_RETURN_IF_ERROR(CheckVertex(b));
  // A resident (and fresh) row of either endpoint already holds the
  // answer.
  if (std::optional<double> cached = CachedPair(a, b, at.overlay.get())) {
    return *cached;
  }
  return index_.EstimatePair(a, b, *at.store, at.overlay.get());
}

std::optional<double> QueryEngine::PairFromCache(VertexId a, VertexId b) {
  if (a >= index_.n() || b >= index_.n()) return std::nullopt;
  const auto overlay = index_.overlay_snapshot();
  // Uncounted peeks decide, so a miss leaves the counting to the Pair call
  // that answers instead. A hit then makes Pair's own lookups: counters,
  // LRU order, re-stamps and trace spans match the computing path. (A row
  // evicted between the two reads is counted as a miss here and again by
  // Pair.)
  if (PeekFresh(a, overlay.get()) == nullptr &&
      PeekFresh(b, overlay.get()) == nullptr) {
    return std::nullopt;
  }
  return CachedPair(a, b, overlay.get());
}

std::optional<std::vector<ScoredVertex>> QueryEngine::TopKFromCache(
    VertexId v, uint32_t k) {
  if (v >= index_.n()) return std::nullopt;
  const auto overlay = index_.overlay_snapshot();
  // The same peek-then-count contract as PairFromCache. Any row GetFresh
  // serves under this overlay is bitwise the peeked one, so the bound
  // checked here holds for it.
  const Row peeked = PeekFresh(v, overlay.get());
  if (peeked == nullptr || peeked->entries.size() > kMaxCachedTopKEntries ||
      k >= peeked->entries.size()) {
    return std::nullopt;
  }
  const Row row = GetFresh(v, overlay.get());
  if (row == nullptr) return std::nullopt;
  return TopKFromSparseRow(*row, v, k);
}

Result<QueryEngine::Row> QueryEngine::SingleSourceAtSnapshot(
    VertexId v, const WalkIndex::Snapshot& at) {
  OIPSIM_RETURN_IF_ERROR(CheckVertex(v));
  const DeltaOverlay* overlay = at.overlay.get();
  if (Row row = GetFresh(v, overlay)) return row;
  const uint64_t sequence = SequenceOf(overlay);
  Row row = std::make_shared<const SparseRow>(
      index_.EstimateSingleSourceSparse(v, *at.store, overlay));
  // Stamped with the sequence the row was actually computed under; if an
  // update raced us, the stamp is stale and the row reads as a miss —
  // and in that case skip the insert rather than overwrite a row another
  // reader may have cached under the newer overlay.
  if (index_.overlay_sequence() == sequence) {
    cache_.Put(v, sequence, row);
  }
  return row;
}

Result<std::vector<ScoredVertex>> QueryEngine::TopKAtSnapshot(
    VertexId v, uint32_t k, const WalkIndex::Snapshot& at) {
  Result<Row> row = SingleSourceAtSnapshot(v, at);
  if (!row.ok()) return row.status();
  return TopKFromSparseRow(**row, v, k);
}

Result<double> QueryEngine::Pair(VertexId a, VertexId b) {
  // One snapshot serves the whole query: the cached-row check and the
  // fallback estimate must agree on the index version.
  return PairAtSnapshot(a, b, index_.snapshot());
}

Result<QueryEngine::Row> QueryEngine::SingleSource(VertexId v) {
  return SingleSourceAtSnapshot(v, index_.snapshot());
}

Result<std::vector<ScoredVertex>> QueryEngine::TopK(VertexId v, uint32_t k) {
  return TopKAtSnapshot(v, k, index_.snapshot());
}

std::vector<Result<double>> QueryEngine::BatchPair(
    const std::vector<std::pair<VertexId, VertexId>>& queries) {
  // One snapshot for the whole batch: every answer reflects the same
  // index version even if an update or a compaction lands mid-fanout.
  const WalkIndex::Snapshot at = index_.snapshot();
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
  at.store->Prefetch(vertices);
  std::vector<Result<double>> answers(queries.size(),
                                      Result<double>(0.0));
  pool_.ParallelFor(0, queries.size(), [&](uint64_t i) {
    answers[i] = PairAtSnapshot(queries[i].first, queries[i].second, at);
  });
  return answers;
}

std::vector<Result<std::vector<ScoredVertex>>> QueryEngine::BatchTopK(
    const std::vector<VertexId>& queries, uint32_t k) {
  const WalkIndex::Snapshot at = index_.snapshot();
  at.store->Prefetch(queries);
  std::vector<Result<std::vector<ScoredVertex>>> answers(
      queries.size(),
      Result<std::vector<ScoredVertex>>(std::vector<ScoredVertex>{}));
  pool_.ParallelFor(0, queries.size(), [&](uint64_t i) {
    answers[i] = TopKAtSnapshot(queries[i], k, at);
  });
  return answers;
}

}  // namespace simrank
