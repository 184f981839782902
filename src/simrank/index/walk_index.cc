#include "simrank/index/walk_index.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include "simrank/common/coupled_hash.h"
#include "simrank/common/simd.h"
#include "simrank/common/string_util.h"
#include "simrank/common/thread_pool.h"
#include "simrank/graph/graph_io.h"
#include "simrank/obs/trace.h"

namespace simrank {

WalkIndexOptions WalkIndexOptions::FromAccuracy(double eps, double delta,
                                                const SimRankOptions& simrank) {
  WalkIndexOptions options = FromSimRank(simrank);
  if (!(eps > 0.0 && eps < 1.0) || !(delta > 0.0 && delta < 1.0)) {
    // Poison the result so Build() rejects it with a clear status instead
    // of silently serving a meaningless accuracy target.
    options.num_fingerprints = 0;
    return options;
  }
  // Inverse Hoeffding with half the error budget: R >= 2·ln(2/delta)/eps².
  // Derived in double first: for extreme targets R can exceed uint32, and
  // a narrowing cast would silently under-provision the index.
  const double fingerprints =
      std::ceil(2.0 * std::log(2.0 / delta) / (eps * eps));
  if (fingerprints > static_cast<double>(UINT32_MAX)) {
    options.num_fingerprints = 0;
    return options;
  }
  options.num_fingerprints = static_cast<uint32_t>(fingerprints);
  // Smallest L with truncation bias C^(L+1)/(1-C) <= eps/2; the geometric
  // tail shrinks by C per step, so a direct scan is cheap and exact. The
  // cap only exists for damping -> 1 pathologies; if it is hit the budget
  // cannot be met, so the target is rejected rather than silently missed.
  const double c = options.damping;
  uint32_t length = 1;
  double bias = c * c / (1.0 - c);  // L = 1
  while (bias > eps / 2.0 && length < kMaxWalkLength) {
    bias *= c;
    ++length;
  }
  if (bias > eps / 2.0) {
    options.num_fingerprints = 0;
    return options;
  }
  options.walk_length = length;
  return options;
}

WalkIndex WalkIndex::FromStore(std::unique_ptr<const WalkStore> store) {
  WalkIndex index;
  const WalkStoreMeta& meta = store->meta();
  index.options_.num_fingerprints = meta.num_fingerprints;
  index.options_.walk_length = meta.walk_length;
  index.options_.damping = meta.damping;
  index.options_.seed = meta.seed;
  index.store_ = std::move(store);
  index.overlay_slot_ = std::make_shared<OverlaySlot>();
  index.PrecomputeDampingPowers();
  return index;
}

void WalkIndex::PublishOverlay(std::shared_ptr<const DeltaOverlay> overlay) {
  OIPSIM_CHECK(overlay_slot_ != nullptr);
  std::lock_guard<std::mutex> lock(overlay_slot_->mutex);
  overlay_slot_->current = std::move(overlay);
}

std::shared_ptr<const DeltaOverlay> WalkIndex::overlay_snapshot() const {
  if (overlay_slot_ == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(overlay_slot_->mutex);
  return overlay_slot_->current;
}

Result<WalkIndex> WalkIndex::Build(const DiGraph& graph,
                                   const WalkIndexOptions& options) {
  if (!options.Valid()) {
    return Status::InvalidArgument(StrFormat(
        "walk index options invalid: need num_fingerprints > 0, "
        "walk_length in [1, %u], damping in (0, 1)", kMaxWalkLength));
  }
  const uint32_t n = graph.n();
  const uint32_t L = options.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  const size_t words = options.num_fingerprints * row;
  std::vector<uint32_t> walks(words * n, kDeadWalk);

  // Rows are filled over contiguous vertex ranges: every step depends only
  // on (seed, r, t, vertex), so the table is identical for any thread
  // count.
  ThreadPool pool(options.num_threads);
  uint32_t* data = walks.data();
  pool.ParallelFor(0, n, [&](uint64_t v) {
    uint32_t* walk = data + v * words;
    for (uint32_t r = 0; r < options.num_fingerprints; ++r, walk += row) {
      auto at = static_cast<uint32_t>(v);
      walk[0] = at;
      for (uint32_t t = 1; t <= L; ++t) {
        auto in = graph.InNeighbors(at);
        if (in.empty()) break;  // walk dies at a source vertex
        at = in[CoupledWalkHash(options.seed, r, t, at) % in.size()];
        walk[t] = at;
      }
    }
  });

  WalkStoreMeta meta;
  meta.n = n;
  meta.num_fingerprints = options.num_fingerprints;
  meta.walk_length = L;
  meta.damping = options.damping;
  meta.seed = options.seed;
  meta.graph_fingerprint = GraphFingerprint(graph);
  WalkIndex index = FromStore(std::make_unique<InMemoryWalkStore>(
      meta, std::move(walks), options.num_threads));
  index.options_.num_threads = options.num_threads;
  return index;
}

Result<WalkIndex> WalkIndex::Load(const std::string& path,
                                  const LoadOptions& load) {
  if (load.use_mmap) {
    auto store = MmapWalkStore::Open(path);
    if (!store.ok()) return store.status();
    return FromStore(std::move(*store));
  }
  auto store = InMemoryWalkStore::Open(path, load.num_threads);
  if (!store.ok()) return store.status();
  return FromStore(std::move(*store));
}

Status WalkIndex::Save(const std::string& path,
                       const SaveOptions& save) const {
  WalkStoreSaveOptions store_options;
  store_options.compress = save.compress;
  return SaveWalkStore(*store_, path, store_options);
}

void WalkIndex::PrecomputeDampingPowers() {
  damping_powers_.resize(options_.walk_length + 1);
  for (uint32_t t = 0; t <= options_.walk_length; ++t) {
    damping_powers_[t] = std::pow(options_.damping, static_cast<double>(t));
  }
}

namespace {

/// `v`'s row under base+overlay (MaterializeRow) for an estimator;
/// corruption while serving is fatal (checked).
const uint32_t* ServingRow(const WalkStore& store, const DeltaOverlay* overlay,
                           VertexId v, std::vector<uint32_t>* scratch) {
  const Result<const uint32_t*> row =
      MaterializeRow(store, overlay, v, scratch);
  OIPSIM_CHECK_MSG(row.ok(), "corrupt walk segment while serving: %s",
                   row.status().ToString().c_str());
  return *row;
}

/// First-meeting accumulation over one bucket under base+overlay. The
/// scalar path is the checked ForEachBucketVertex walk — the reference
/// semantics, including the fatal diagnostic on out-of-range ids. With a
/// vector tier active, the bucket is first guarded (all ids < n, strictly
/// ascending — the invariant every valid file satisfies); only then does
/// the vector kernel take over, performing the identical set of updates in
/// the identical ascending order. A guard failure falls through to the
/// scalar walk untouched, so corruption behaves exactly as before.
void AccumulateBucketVertices(const WalkStore& store,
                              const DeltaOverlay* overlay, uint32_t r,
                              uint32_t t, uint32_t pv, uint32_t round,
                              double weight, uint32_t n,
                              std::vector<uint32_t>* merged_scratch,
                              std::vector<uint32_t>* met_round,
                              std::vector<double>* result) {
  TraceRecorder* const recorder = CurrentTraceRecorder();
  if (recorder != nullptr) {
    recorder->Add(TraceCounter::kSlotsProbed, 1);
    if (overlay != nullptr && overlay->Delta(r, t) != nullptr) {
      recorder->Add(TraceCounter::kOverlayRowsMerged, 1);
    }
  }
  const SimdLevel simd = ActiveSimdLevel();
  if (simd != SimdLevel::kScalar) {
    const uint32_t* vertices = nullptr;
    size_t count = 0;
    const DeltaOverlay::SlotDelta* delta =
        overlay == nullptr ? nullptr : overlay->Delta(r, t);
    if (delta == nullptr) {
      const std::span<const VertexId> base = store.Bucket(r, t, pv);
      vertices = base.data();
      count = base.size();
    } else {
      TraceScope merge_scope(TraceStage::kOverlayMerge);
      CollectBucketVertices(store, overlay, r, t, pv, merged_scratch);
      vertices = merged_scratch->data();
      count = merged_scratch->size();
    }
    if (FindFirstInvalidVertex(simd, vertices, count, n) == count) {
      if (recorder != nullptr) {
        recorder->Add(TraceCounter::kBucketEntries, count);
      }
      AccumulateBucket(simd, vertices, count, round, weight,
                       met_round->data(), result->data());
      return;
    }
  }
  size_t scanned = 0;
  ForEachBucketVertex(store, overlay, r, t, pv, [&](const uint32_t b) {
    OIPSIM_CHECK_MSG(b < n,
                     "corrupt inverted index while serving: vertex id "
                     "%u >= n=%u (run VerifyPayload on this file)",
                     b, n);
    ++scanned;
    if ((*met_round)[b] == round) return;
    (*result)[b] += weight;
    (*met_round)[b] = round;
  });
  if (recorder != nullptr) {
    recorder->Add(TraceCounter::kBucketEntries, scanned);
  }
}

}  // namespace

double WalkIndex::EstimatePair(VertexId a, VertexId b,
                               const DeltaOverlay* overlay) const {
  const WalkStore& store = ServingStore(overlay);
  const uint32_t n = store.meta().n;
  OIPSIM_CHECK(a < n && b < n);
  if (a == b) return 1.0;
  std::vector<uint32_t> scratch;
  const uint32_t* row_a = ServingRow(store, overlay, a, &scratch);
  return EstimatePairWithRow({row_a, store.WalkWords()}, b, overlay);
}

std::vector<double> WalkIndex::EstimateSingleSource(
    VertexId v, const DeltaOverlay* overlay) const {
  const WalkStore& store = ServingStore(overlay);
  OIPSIM_CHECK(v < store.meta().n);
  std::vector<uint32_t> scratch;
  const uint32_t* row_v = ServingRow(store, overlay, v, &scratch);
  return EstimateSingleSourceWithRow(v, {row_v, store.WalkWords()}, overlay);
}

double WalkIndex::EstimatePairWithRow(std::span<const uint32_t> row_a,
                                      VertexId b,
                                      const DeltaOverlay* overlay) const {
  const WalkStore& store = ServingStore(overlay);
  OIPSIM_CHECK(b < store.meta().n);
  const uint32_t R = options_.num_fingerprints;
  const uint32_t L = options_.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  OIPSIM_CHECK(row_a.size() == static_cast<size_t>(R) * row);
  std::vector<uint32_t> scratch;
  const uint32_t* row_b = ServingRow(store, overlay, b, &scratch);
  // One addition per fingerprint at the first meeting, in ascending r:
  // the sum is bit-identical wherever the two rows come from.
  double sum = 0.0;
  for (uint32_t r = 0; r < R; ++r) {
    for (uint32_t t = 1; t <= L; ++t) {
      const uint32_t pa = row_a[r * row + t];
      const uint32_t pb = row_b[r * row + t];
      if (pa == kDeadWalk || pb == kDeadWalk) break;  // a walk died
      if (pa == pb) {
        sum += damping_powers_[t];
        break;  // first meeting only
      }
    }
  }
  return sum / static_cast<double>(options_.num_fingerprints);
}

std::vector<double> WalkIndex::EstimateSingleSourceWithRow(
    VertexId v, std::span<const uint32_t> row_v,
    const DeltaOverlay* overlay) const {
  const WalkStore& store = ServingStore(overlay);
  const uint32_t n = store.meta().n;
  OIPSIM_CHECK(v < n);
  const uint32_t R = options_.num_fingerprints;
  const uint32_t L = options_.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  OIPSIM_CHECK(row_v.size() == static_cast<size_t>(R) * row);

  // Paged backend: the R·L bucket lookups below touch pages scattered
  // across the whole inverted region — start the readahead (a one-time
  // batched submission) before the first lookup faults.
  store.PrefetchSlots();
  std::vector<double> result(n, 0.0);
  // met_round[b] == r+1 marks that b's walk already met v's walk within
  // fingerprint r (first-meeting semantics) — an epoch stamp, so the array
  // is never re-cleared.
  std::vector<uint32_t> met_round(n, 0);
  std::vector<uint32_t> merged_scratch;
  TraceScope probe_scope(TraceStage::kIndexProbe);
  for (uint32_t r = 0; r < R; ++r) {
    const uint32_t round = r + 1;
    met_round[v] = round;
    for (uint32_t t = 1; t <= L; ++t) {
      const uint32_t pv = row_v[r * row + t];
      if (pv == kDeadWalk) break;  // v's walk died: no further meetings
      const double weight = damping_powers_[t];
      // Only the vertices actually parked at pv in this slot — the
      // output-sensitive core. Buckets (merged with the overlay's slot
      // diff when one is active) are ascending by vertex id, the same
      // per-b accumulation order as the scan, so each result entry is the
      // identical left-to-right sum. Every id is bounds-checked before
      // use (corruption can break the ascending invariant too, so
      // checking only the last element would not do): an out-of-range id
      // is payload corruption the (deliberately payload-blind) mmap open
      // could not have seen, and it must not become an out-of-bounds
      // write — AccumulateBucketVertices guards before any vector fast
      // path and falls back to the checked scalar walk.
      AccumulateBucketVertices(store, overlay, r, t, pv, round, weight, n,
                               &merged_scratch, &met_round, &result);
    }
  }
  // Divide (not multiply by a reciprocal) so every entry is bit-identical
  // to the corresponding EstimatePair result for any fingerprint count.
  const double fingerprints =
      static_cast<double>(options_.num_fingerprints);
  for (double& score : result) score /= fingerprints;
  result[v] = 1.0;
  return result;
}

std::vector<double> WalkIndex::EstimateSingleSourceScan(
    VertexId v, const DeltaOverlay* overlay) const {
  const WalkStore& store = ServingStore(overlay);
  const uint32_t n = store.meta().n;
  OIPSIM_CHECK(v < n);
  const uint32_t L = options_.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  std::vector<uint32_t> scratch_v;
  const uint32_t* row_v = ServingRow(store, overlay, v, &scratch_v);
  // Every vertex's row against v's, one row at a time: at most one
  // addition per fingerprint, at the first meeting, in ascending r — the
  // per-entry sum the inverted path must reproduce bit for bit.
  std::vector<double> result(n, 0.0);
  std::vector<uint32_t> scratch;
  for (VertexId b = 0; b < n; ++b) {
    if (b == v) continue;
    const uint32_t* row_b = ServingRow(store, overlay, b, &scratch);
    for (uint32_t r = 0; r < options_.num_fingerprints; ++r) {
      for (uint32_t t = 1; t <= L; ++t) {
        const uint32_t pv = row_v[r * row + t];
        if (pv == kDeadWalk) break;
        if (row_b[r * row + t] == pv) {
          result[b] += damping_powers_[t];
          break;
        }
      }
    }
  }
  const double fingerprints =
      static_cast<double>(options_.num_fingerprints);
  for (double& score : result) score /= fingerprints;
  result[v] = 1.0;
  return result;
}

Status WalkIndex::ValidateGraph(const DiGraph& graph) const {
  if (graph.n() != n()) {
    return Status::InvalidArgument(
        StrFormat("index built for %u vertices, graph has %u", n(),
                  graph.n()));
  }
  const uint64_t graph_print = GraphFingerprint(graph);
  if (graph_print != graph_fingerprint()) {
    return Status::InvalidArgument(StrFormat(
        "graph fingerprint mismatch: index was built from a different "
        "graph (index %s, graph %s)",
        FormatFingerprint(graph_fingerprint()).c_str(),
        FormatFingerprint(graph_print).c_str()));
  }
  return Status::OK();
}

}  // namespace simrank
