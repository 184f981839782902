// Persistent fingerprint index for single-source / top-k SimRank serving.
//
// All-pairs engines (core/) cannot serve point queries on large graphs:
// their O(n²) score matrix does not fit, and recomputation per query is far
// too slow. Following the fingerprint-index line of work (Fogaras & Rácz,
// and more recently SLING / ProbeSim), WalkIndex precomputes, for every
// vertex, `num_fingerprints` coupled reverse random walks of length
// `walk_length`. A pair estimate is then E[C^τ] over the stored walks,
// where τ is the first time the two walks meet — O(R·L) per pair,
// independent of the graph's edge count. Single-source rows are served
// through the per-(fingerprint, step) inverted position index of the
// storage layer: accumulation touches only the vertices whose walk
// actually coincides with the query's at some slot (output-sensitive,
// ProbeSim-style), and the row comes back sparse — the vertices with a
// nonzero score, a median of ~27 on the benchmark graphs — yet its scores
// are bitwise those of the full O(R·L·n) row scan, which remains
// available for verification.
//
// The index is built once (in parallel across a thread pool; every walk
// step is seeded deterministically, so the result is bit-identical for
// any thread count) and serialized in the versioned v2 segmented
// format of index/walk_store.h. Serving picks a storage backend per
// deployment: fully resident (InMemoryWalkStore, fastest) or mmap-backed
// (MmapWalkStore — open cost and resident set are O(header + directory),
// payload pages fault in on demand). The walks are coupled through
// simrank::CoupledWalkHash — the same function the on-the-fly Monte-Carlo
// estimator uses — so both sample identical walk distributions.
#ifndef OIPSIM_SIMRANK_INDEX_WALK_INDEX_H_
#define OIPSIM_SIMRANK_INDEX_WALK_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "simrank/common/status.h"
#include "simrank/core/options.h"
#include "simrank/extra/topk.h"
#include "simrank/graph/digraph.h"
#include "simrank/index/delta_overlay.h"
#include "simrank/index/walk_store.h"

namespace simrank {

/// Build- and estimate-time parameters of the walk index.
struct WalkIndexOptions {
  /// Independent walk sets per vertex. Estimator standard error shrinks as
  /// 1/sqrt(num_fingerprints) (Hoeffding).
  uint32_t num_fingerprints = 256;
  /// Walk truncation length; meetings beyond it contribute 0, biasing each
  /// estimate down by at most C^(walk_length+1)/(1-C). Capped at
  /// kMaxWalkLength (a format limit; see walk_store.h).
  uint32_t walk_length = 12;
  /// SimRank damping factor C.
  double damping = 0.6;
  /// Root seed; fingerprint r derives all its steps from (seed, r), so the
  /// index content is independent of build parallelism.
  uint64_t seed = 7;
  /// Build-time worker threads; 0 means hardware concurrency. Not part of
  /// the serialized index.
  uint32_t num_threads = 0;

  bool Valid() const {
    return num_fingerprints > 0 && walk_length > 0 &&
           walk_length <= kMaxWalkLength && damping > 0.0 && damping < 1.0;
  }

  /// Derives index options from the shared SimRank model options: damping
  /// and the stochastic-path seed carry over, everything else keeps its
  /// default. This is how callers configured for the all-pairs engines
  /// (e.g. the CLI) hand their model parameters to the index.
  static WalkIndexOptions FromSimRank(const SimRankOptions& simrank) {
    WalkIndexOptions options;
    options.damping = simrank.damping;
    options.seed = simrank.seed;
    return options;
  }

  /// Derives index options from a target accuracy instead of raw knobs:
  /// with probability at least 1 - delta, each pair estimate deviates from
  /// the exact score by at most `eps`. The error budget is split evenly —
  /// `num_fingerprints` comes from inverting the Hoeffding bound
  ///   P(|est - E est| >= eps/2) <= 2·exp(-2·R·(eps/2)²) <= delta
  ///     =>  R = ⌈2·ln(2/delta)/eps²⌉,
  /// and `walk_length` is the smallest L whose truncation bias
  /// C^(L+1)/(1-C) is at most eps/2. Damping and seed carry over from
  /// `simrank` exactly as in FromSimRank. Requires eps in (0, 1) and
  /// delta in (0, 1); invalid inputs — and targets that cannot be
  /// provisioned (R beyond uint32, or damping so close to 1 that no
  /// reasonable L meets the bias budget) — yield options with
  /// Valid() == false rather than an index that silently misses the
  /// guarantee.
  static WalkIndexOptions FromAccuracy(double eps, double delta = 0.01,
                                       const SimRankOptions& simrank = {});
};

/// Fingerprint index over one graph. What serves is one (store, overlay)
/// pair in a slot: the store an index was built or loaded with, then the
/// store each DeltaOverlay published by an IndexUpdater names
/// (PublishOverlay). The pair is swapped RCU-style, so the index stays
/// thread-safe for concurrent reads — including reads concurrent with a
/// publish — and a store is freed once no pair names it. Move-only.
class WalkIndex {
 public:
  /// Sentinel position of a walk that left a vertex with no in-neighbours.
  static constexpr uint32_t kDeadWalk = WalkStore::kDeadWalk;

  /// Storage backend selection for Load.
  struct LoadOptions {
    /// Serve straight from the file via MmapWalkStore: open reads only the
    /// header and segment directory, the payload pages in on demand.
    /// Payload integrity is then enforced per decode (bounds checks)
    /// instead of a whole-file checksum at open; corruption detected
    /// mid-serve is a fatal checked error, so pre-validate files from
    /// untrusted storage with store().VerifyPayload() before serving.
    /// false loads and fully verifies every walk row and the inverted
    /// index into RAM.
    bool use_mmap = false;
    /// Worker threads for the in-memory backend's segment decode (the
    /// dominant cold-open cost); 0 means hardware concurrency. The loaded
    /// store is bitwise identical for any value. Ignored by mmap.
    uint32_t num_threads = 0;
  };

  /// v2 serialization knobs; see WalkStoreSaveOptions.
  struct SaveOptions {
    /// Delta+varint-compress the per-vertex walk segments.
    bool compress = false;
  };

  /// Builds the index for `graph`. Deterministic in `options.seed`
  /// regardless of `options.num_threads`.
  static Result<WalkIndex> Build(const DiGraph& graph,
                                 const WalkIndexOptions& options);

  /// Opens an index previously written by Save through the backend `load`
  /// selects. Validation errors are descriptive: a v1 or unknown-version
  /// file names the version found and the one supported, truncation names
  /// the offset the data stops at. The overload without options uses the
  /// fully-verifying in-memory backend.
  static Result<WalkIndex> Load(const std::string& path,
                                const LoadOptions& load);
  static Result<WalkIndex> Load(const std::string& path) {
    return Load(path, LoadOptions());
  }

  /// Writes the serving store, without its overlay, in the versioned v2
  /// binary format (IndexUpdater::Compact writes the overlay merged in).
  /// Saving the same index twice produces byte-identical files, whatever
  /// the backend. The overload without options writes uncompressed
  /// segments.
  Status Save(const std::string& path, const SaveOptions& save) const;
  Status Save(const std::string& path) const {
    return Save(path, SaveOptions());
  }

  /// Verifies the index was built from `graph` (vertex count and structural
  /// fingerprint, see GraphFingerprint).
  Status ValidateGraph(const DiGraph& graph) const;

  /// The serving (store, overlay) pair, read together in one slot read:
  /// what a reader serves a whole request from. Holding it keeps both
  /// alive, whatever a compaction publishes meanwhile.
  struct Snapshot {
    std::shared_ptr<const WalkStore> store;
    /// Null until the first batch publishes: `store`'s own walks,
    /// sequence 0. Otherwise `store` is overlay->store().
    std::shared_ptr<const DeltaOverlay> overlay;
  };

  /// Pins the serving pair.
  Snapshot snapshot() const;

  /// Estimate of s(a, b); exactly 1 for a == b. Both ids must be < n().
  /// The no-overlay overload pins the serving pair itself. The explicit
  /// overloads serve against exactly the given version, which is how a
  /// QueryEngine pins a whole row to one index version: `overlay` alone
  /// means its own store (nullptr: the serving store, no patches), and
  /// (store, overlay) a pair a caller pinned.
  double EstimatePair(VertexId a, VertexId b) const {
    const Snapshot at = snapshot();
    return EstimatePair(a, b, *at.store, at.overlay.get());
  }
  double EstimatePair(VertexId a, VertexId b,
                      const DeltaOverlay* overlay) const {
    return EstimatePair(a, b, *StoreOf(overlay), overlay);
  }
  double EstimatePair(VertexId a, VertexId b, const WalkStore& store,
                      const DeltaOverlay* overlay) const;

  /// Estimates the row s(v, ·) through the inverted position index: per
  /// (fingerprint, step) slot, only the vertices whose walk sits at the
  /// query walk's position are touched, accumulating into per-thread
  /// epoch-stamped scratch, so a row costs its R·L bucket probes and the
  /// entries they visit — never O(n). The row comes back sparse (the
  /// touched vertices plus v itself at 1.0, ascending), and its dense form
  /// is bitwise identical to EstimateSingleSourceScan and to n
  /// EstimatePair calls. With an overlay the patched walks and slot diffs
  /// are merged in, and the row is bitwise identical to what an index
  /// rebuilt on the updated graph would serve.
  SparseRow EstimateSingleSourceSparse(VertexId v, const WalkStore& store,
                                       const DeltaOverlay* overlay) const;

  /// The same row, densified (SparseRow::Dense). Overloads as for
  /// EstimatePair.
  std::vector<double> EstimateSingleSource(VertexId v) const {
    const Snapshot at = snapshot();
    return EstimateSingleSource(v, *at.store, at.overlay.get());
  }
  std::vector<double> EstimateSingleSource(
      VertexId v, const DeltaOverlay* overlay) const {
    return EstimateSingleSource(v, *StoreOf(overlay), overlay);
  }
  std::vector<double> EstimateSingleSource(
      VertexId v, const WalkStore& store, const DeltaOverlay* overlay) const {
    return EstimateSingleSourceSparse(v, store, overlay).Dense();
  }

  /// The loops behind EstimatePair and EstimateSingleSourceSparse, fed
  /// with the query vertex's walk row (MaterializeRow of delta_overlay.h:
  /// store + overlay merged, row[r * (L + 1) + t]). The local estimators
  /// pass the row of `store`; a cross-shard query passes the row its
  /// owning shard shipped, so on a shard index whose local rows cover a
  /// vertex range the results are bitwise equal to the single-node answer
  /// restricted to that range. `v` is only used for the diagonal (listed
  /// at 1.0, never accumulated); `b` must differ from the row's own vertex
  /// in the pair variant (EstimatePair answers a == b itself).
  double EstimatePairWithRow(std::span<const uint32_t> row_a, VertexId b,
                             const WalkStore& store,
                             const DeltaOverlay* overlay) const;
  SparseRow EstimateSingleSourceWithRow(VertexId v,
                                        std::span<const uint32_t> row,
                                        const WalkStore& store,
                                        const DeltaOverlay* overlay) const;

  /// The full O(R·L·n) row scan — every vertex's walk row compared with
  /// v's — kept as the reference implementation the inverted path is
  /// validated against (over the serving pair, like the inverted path, so
  /// the two stay comparable under updates). Works on either backend; on
  /// mmap it decodes all n rows.
  std::vector<double> EstimateSingleSourceScan(VertexId v) const;

  /// Publishes `overlay`, and the store it names, as the serving pair.
  /// RCU-style: in-flight queries keep the snapshot they started with; new
  /// queries see the new pair. Called by an IndexUpdater after it has
  /// fully built the overlay — readers never observe a half-applied batch.
  void PublishOverlay(std::shared_ptr<const DeltaOverlay> overlay);

  /// The currently published overlay (nullptr before the first batch).
  std::shared_ptr<const DeltaOverlay> overlay_snapshot() const {
    return snapshot().overlay;
  }

  /// Sequence number of the published overlay; 0 before the first batch.
  /// Monotone across PublishOverlay calls — the staleness stamp for
  /// cached rows.
  uint64_t overlay_sequence() const {
    auto overlay = overlay_snapshot();
    return overlay == nullptr ? 0 : overlay->sequence();
  }

  uint32_t n() const { return n_; }
  const WalkIndexOptions& options() const { return options_; }
  /// The fingerprint of the graph the index was built or loaded for —
  /// what the WAL and a shard plan are bound to. An overlay carries the
  /// updated graph's (DeltaOverlay::graph_fingerprint).
  uint64_t graph_fingerprint() const { return graph_fingerprint_; }
  /// Bytes the serving store keeps resident in RAM (walk rows plus
  /// inverted index for the in-memory backend; header/directory pages for
  /// mmap).
  uint64_t SizeBytes() const { return snapshot().store->ResidentBytes(); }

  /// The store serving now, without its overlay: the build/load-time store
  /// until a compaction publishes a merged one. The reference stays valid
  /// until the next compaction publishes, so only start-up code, tests and
  /// benches use it; a reader that can run beside a compaction pins a
  /// snapshot() instead.
  const WalkStore& store() const { return *snapshot().store; }

 private:
  WalkIndex() = default;

  /// Wires an opened store into a servable index (damping powers, options
  /// mirror).
  static WalkIndex FromStore(std::shared_ptr<const WalkStore> store);

  /// Fills damping_powers_ from options_. Called after Build and Load.
  void PrecomputeDampingPowers();

  /// The store `overlay` is expressed against; nullptr: the serving store.
  std::shared_ptr<const WalkStore> StoreOf(const DeltaOverlay* overlay) const {
    return overlay != nullptr ? overlay->store() : snapshot().store;
  }

  /// The serving pair, boxed on the heap so the index itself stays
  /// movable. The mutex guards only the pair's swap/copy — held for
  /// nanoseconds per query; stores and overlays are immutable.
  /// (std::atomic<std::shared_ptr> would make the snapshot wait-free, but
  /// libstdc++'s lock-bit implementation is not ThreadSanitizer-clean on
  /// the toolchains the TSan CI job runs, so the mutex stays until that
  /// is.)
  struct ServingSlot {
    mutable std::mutex mutex;
    Snapshot serving;
  };

  std::shared_ptr<ServingSlot> slot_;
  uint32_t n_ = 0;
  uint64_t graph_fingerprint_ = 0;
  /// damping_powers_[t] = pow(damping, t); derived, not serialized. All
  /// estimators read this one table so their results agree bit-for-bit.
  std::vector<double> damping_powers_;
  /// Mirror of the store's persisted meta (num_threads keeps its default;
  /// it is a build-time knob and not serialized).
  WalkIndexOptions options_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_WALK_INDEX_H_
