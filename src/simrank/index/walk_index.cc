#include "simrank/index/walk_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "simrank/common/coupled_hash.h"
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

WalkIndex WalkIndex::FromStore(std::shared_ptr<const WalkStore> store) {
  WalkIndex index;
  const WalkStoreMeta& meta = store->meta();
  index.options_.num_fingerprints = meta.num_fingerprints;
  index.options_.walk_length = meta.walk_length;
  index.options_.damping = meta.damping;
  index.options_.seed = meta.seed;
  index.n_ = meta.n;
  index.graph_fingerprint_ = meta.graph_fingerprint;
  index.slot_ = std::make_shared<ServingSlot>();
  index.slot_->serving.store = std::move(store);
  index.PrecomputeDampingPowers();
  return index;
}

void WalkIndex::PublishOverlay(std::shared_ptr<const DeltaOverlay> overlay) {
  OIPSIM_CHECK(overlay != nullptr && overlay->store() != nullptr);
  Snapshot next{overlay->store(), std::move(overlay)};
  {
    std::lock_guard<std::mutex> lock(slot_->mutex);
    std::swap(slot_->serving, next);
  }
  // `next` now holds the replaced pair and drops it outside the lock: when
  // it held the last reference to a store, freeing that store must not
  // hold up readers.
}

WalkIndex::Snapshot WalkIndex::snapshot() const {
  std::lock_guard<std::mutex> lock(slot_->mutex);
  return slot_->serving;
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
  WalkIndex index = FromStore(std::make_shared<InMemoryWalkStore>(
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
  return SaveWalkStore(*snapshot().store, path, store_options);
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

/// Per-thread scratch of the sparse estimator, grown to the largest n the
/// thread has served (one thread may serve indexes of different n). A
/// call takes the stamps base+1 .. base+R: stamp[b] > base marks b touched
/// by this call (sum[b] live, b in `touched`), and stamp[b] == base+r+1
/// met in fingerprint r. Older stamps read as untouched, so a call never
/// clears the arrays; they are reset only when the stamps would wrap.
/// `keys` and `buckets` hold the call's live slots and their resolved
/// base buckets, in (r, t) order.
struct RowScratch {
  std::vector<uint32_t> stamp;
  std::vector<double> sum;
  std::vector<VertexId> touched;
  std::vector<WalkStore::BucketKey> keys;
  std::vector<std::span<const VertexId>> buckets;
  uint32_t next_base = 0;

  /// Readies the scratch for one row over n vertices and `rounds`
  /// fingerprints; returns the call's base stamp.
  uint32_t Begin(uint32_t n, uint32_t rounds) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      sum.resize(n);
    }
    if (next_base > UINT32_MAX - rounds) {
      std::fill(stamp.begin(), stamp.end(), 0);
      next_base = 0;
    }
    touched.clear();
    const uint32_t base = next_base;
    next_base += rounds;
    return base;
  }
};

thread_local RowScratch t_row_scratch;

}  // namespace

double WalkIndex::EstimatePair(VertexId a, VertexId b, const WalkStore& store,
                               const DeltaOverlay* overlay) const {
  const uint32_t n = store.meta().n;
  OIPSIM_CHECK(a < n && b < n);
  if (a == b) return 1.0;
  std::vector<uint32_t> scratch;
  const uint32_t* row_a = ServingRow(store, overlay, a, &scratch);
  return EstimatePairWithRow({row_a, store.WalkWords()}, b, store, overlay);
}

SparseRow WalkIndex::EstimateSingleSourceSparse(
    VertexId v, const WalkStore& store, const DeltaOverlay* overlay) const {
  OIPSIM_CHECK(v < store.meta().n);
  std::vector<uint32_t> scratch;
  const uint32_t* row_v = ServingRow(store, overlay, v, &scratch);
  return EstimateSingleSourceWithRow(v, {row_v, store.WalkWords()}, store,
                                     overlay);
}

double WalkIndex::EstimatePairWithRow(std::span<const uint32_t> row_a,
                                      VertexId b, const WalkStore& store,
                                      const DeltaOverlay* overlay) const {
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

SparseRow WalkIndex::EstimateSingleSourceWithRow(
    VertexId v, std::span<const uint32_t> row_v, const WalkStore& store,
    const DeltaOverlay* overlay) const {
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
  RowScratch& scratch = t_row_scratch;
  const uint32_t base = scratch.Begin(n, R);
  uint32_t* const stamp = scratch.stamp.data();
  double* const sum = scratch.sum.data();
  TraceRecorder* const recorder = CurrentTraceRecorder();
  {
    TraceScope probe_scope(TraceStage::kIndexProbe);
    // Phase 1: the base bucket of every live slot of v's walks, resolved
    // in one batch so the searches' cache misses overlap.
    std::vector<WalkStore::BucketKey>& keys = scratch.keys;
    keys.clear();
    for (uint32_t r = 0; r < R; ++r) {
      for (uint32_t t = 1; t <= L; ++t) {
        const uint32_t pv = row_v[r * row + t];
        if (pv == kDeadWalk) break;  // v's walk died: no further meetings
        keys.push_back({r, t, pv});
      }
    }
    scratch.buckets.resize(keys.size());
    store.ResolveBuckets(keys, scratch.buckets);
    // Phase 2: the visits, slot by slot in (r, t) order.
    for (size_t k = 0; k < keys.size(); ++k) {
      const auto [r, t, pv] = keys[k];
      const uint32_t round = base + r + 1;
      stamp[v] = round;  // the diagonal is never accumulated
      const double weight = damping_powers_[t];
      const bool merged =
          overlay != nullptr && overlay->Delta(r, t) != nullptr;
      if (recorder != nullptr) {
        recorder->Add(TraceCounter::kSlotsProbed, 1);
        if (merged) recorder->Add(TraceCounter::kOverlayRowsMerged, 1);
      }
      // Only the vertices parked at pv in this slot — the output-sensitive
      // core. Buckets (merged with the overlay's slot diff when one is
      // active) ascend by vertex id and slots run in (r, t) order, so each
      // vertex's sum takes its additions in the scan's order: the first is
      // 0.0 + weight, exactly `weight`. Every id is bounds-checked before
      // use: an out-of-range id is payload corruption the (deliberately
      // payload-blind) mmap open could not have seen, and it must not
      // become an out-of-bounds write.
      size_t scanned = 0;
      auto visit = [&](const VertexId b) {
        OIPSIM_CHECK_MSG(b < n,
                         "corrupt inverted index while serving: vertex id "
                         "%u >= n=%u (run VerifyPayload on this file)",
                         b, n);
        ++scanned;
        if (stamp[b] == round) return;  // first meeting only
        if (stamp[b] > base) {
          sum[b] += weight;
        } else {
          sum[b] = weight;
          scratch.touched.push_back(b);
        }
        stamp[b] = round;
      };
      if (merged) {
        TraceScope merge_scope(TraceStage::kOverlayMerge);
        ForEachBucketVertex(scratch.buckets[k], overlay, r, t, pv, visit);
      } else {
        for (const VertexId b : scratch.buckets[k]) visit(b);
      }
      if (recorder != nullptr) {
        recorder->Add(TraceCounter::kBucketEntries, scanned);
      }
    }
  }
  std::vector<VertexId>& touched = scratch.touched;
  touched.push_back(v);
  std::sort(touched.begin(), touched.end());
  // Divide (not multiply by a reciprocal) so every entry is bit-identical
  // to the corresponding EstimatePair result for any fingerprint count.
  const double fingerprints = static_cast<double>(R);
  SparseRow result;
  result.n = n;
  result.entries.reserve(touched.size());
  for (const VertexId b : touched) {
    result.entries.push_back(
        ScoredVertex{b, b == v ? 1.0 : sum[b] / fingerprints});
  }
  return result;
}

std::vector<double> WalkIndex::EstimateSingleSourceScan(VertexId v) const {
  const Snapshot at = snapshot();
  const WalkStore& store = *at.store;
  const DeltaOverlay* overlay = at.overlay.get();
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
