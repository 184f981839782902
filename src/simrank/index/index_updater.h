// Incremental maintenance of a walk index under edge updates.
//
// A full rebuild after one edge change costs O(n·R·L) walk simulation; the
// updater patches locally instead, exploiting two properties of the index:
// walks are *coupled* (every step is a pure function of (seed, fingerprint,
// step, vertex) — common/coupled_hash.h), and the v2 store carries a
// per-(fingerprint, step) inverted position index. An edge update (u → w)
// changes only w's in-neighbour list, so exactly the walks that visit w at
// some step can change. The updater:
//   1. finds every such walk through the inverted index — for each touched
//      vertex x and step t, Bucket(r, t, x) lists the walks parked at x —
//      and records the earliest affected step per (vertex, fingerprint);
//   2. deterministically re-simulates each affected walk from its affected
//      steps, with the same coupled-hash seed against the updated graph,
//      until it re-couples with the path the previous overlay served;
//   3. diffs every re-simulated walk against the served one and the base
//      store (DiffWalk): each moved step becomes a slot edit, and the walk
//      gets one patch spanning exactly the steps that differ from the
//      store, or none when it equals the store again;
//   4. merges the patches and slot edits into a new DeltaOverlay and
//      publishes it into the WalkIndex RCU-style, so concurrent queries
//      never block and never see a half-applied batch.
// With each overlay goes the batch's row-change set, the vertices whose
// single-source row the batch can change: every vertex with a moved walk
// step (r, t: old → new), plus Bucket(r, t, old) and Bucket(r, t, new)
// for every moved step, where `old` is the position the previous overlay
// served. A vertex outside the set meets every walk at the same first
// step as before, so its row is bitwise unchanged (delta_overlay.h gives
// the argument); a QueryEngine keeps serving such rows from its cache.
// Building the set costs one bucket probe per distinct (slot, position)
// end of a moved step.
// Because the re-simulated steps are exactly what a from-scratch build
// on the updated graph would produce (the unaffected steps already
// are), the patched index is *bitwise identical* to a rebuild: every query
// answer matches, and Compact() writes a v2 file byte-identical to
// `build-index` on the updated graph. The published overlay depends on
// the served positions alone, not on the batches that led to them.
//
// Cost model: the current graph is kept as per-vertex sorted adjacency
// lists maintained in place — O(degree) per edge update, never an
// O(n + m) copy per batch — and the structural fingerprint is the
// commutative ComposeGraphFingerprint form, updated in O(1) per edge.
// Discovery, re-simulation, compaction's row materialization and its
// rebase diff run as contiguous blocks on one thread pool
// (options.num_threads); every affected walk is an independent pure
// function of the updated graph, and block outputs are concatenated in
// block order, which is canonical (vertex, fingerprint) order, so the
// published overlay is bitwise identical for any thread count.
//
// Overlay growth is bounded: every publish carries a resident-byte
// estimate, and when it exceeds options.overlay_budget_bytes (or the
// patched-walk fraction trips the amplification heuristic) a *background*
// compaction starts on a dedicated thread. Updates and queries keep
// running against the live overlay while the merged store is built; the
// only exclusive window is the final pointer swap, which publishes an
// overlay naming the merged store (DeltaOverlay::store) and rebases any
// batches that landed mid-compaction onto it, through the same DiffWalk
// as a batch. Serves never block behind a compaction, and the replaced
// store is freed once no reader's snapshot names it.
//
// Durability: every accepted batch is appended to a checksummed WAL
// (update_wal.h) *before* the overlay is built. Reopening the updater
// replays the WAL over the base index and reconstructs the overlay; a torn
// tail (crash mid-append) is dropped, losing only the unacknowledged
// batch.
//
// One commit path (group commit): every batch, from ApplyUpdates or
// ApplyReplicated, joins a queue. The first arrival while no leader is
// active leads: it waits up to options.group_commit_window_us for more
// batches (only when the WAL is fsync'd; without fsync there is nothing to
// coalesce), appends and patches every queued batch in order, then issues
// one fsync and one overlay publish before any of them is acknowledged.
//
// Concurrency: ApplyUpdates/Compact serialize on an internal mutex and may
// be called from any thread (the server calls them from worker threads);
// queries against the index proceed concurrently through overlay
// snapshots.
#ifndef OIPSIM_SIMRANK_INDEX_INDEX_UPDATER_H_
#define OIPSIM_SIMRANK_INDEX_INDEX_UPDATER_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "simrank/common/latency_histogram.h"
#include "simrank/common/status.h"
#include "simrank/common/thread_pool.h"
#include "simrank/graph/digraph.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/update_wal.h"
#include "simrank/index/walk_index.h"

namespace simrank {

/// Updater construction knobs.
struct IndexUpdaterOptions {
  /// Path of the write-ahead log; created when absent, replayed when
  /// present. Required.
  std::string wal_path;
  /// fsync the WAL once per commit group. Off only for benchmarking the
  /// pure patch path.
  bool sync_wal = true;
  /// Upper bound on how long a group-commit leader waits for more batches
  /// to queue before syncing, in microseconds; applies only with
  /// sync_wal. Small against an fsync (~ms), so the uncontended latency
  /// cost is negligible.
  uint32_t group_commit_window_us = 200;
  /// Serve only the vertex range [vertex_begin, vertex_end) — the shard
  /// role. Walks of out-of-range vertices are represented as dead in a
  /// shard index and must stay dead under updates, so discovery skips
  /// them. Both zero means the full range.
  uint32_t vertex_begin = 0;
  uint32_t vertex_end = 0;
  /// Worker threads for affected-walk discovery, walk re-simulation and
  /// compaction's merged-store build and rebase. 1 = serial, 0 = the CPUs
  /// this process may run on. The published overlay — and therefore every
  /// query answer and every compacted file — is bitwise identical for any
  /// value.
  uint32_t num_threads = 1;
  /// Resident-byte budget for the published overlay. A publish that
  /// leaves the overlay above it triggers a background auto-compaction
  /// (requires auto_compact_path). 0 = unbounded.
  uint64_t overlay_budget_bytes = 0;
  /// Patch-amplification heuristic: auto-compact once more than this
  /// fraction of all n·R walks carries a patch (every patched walk is one
  /// more entry in the sorted patch array that reads binary-search, and
  /// one more suffix a read of its vertex merges over the store, so a
  /// heavily patched overlay serves slower than the store a compaction
  /// would fold it into). In [0, 1); 0 disables the heuristic.
  double auto_compact_patched_fraction = 0.0;
  /// Where background auto-compaction writes the merged index; arming
  /// either trigger requires this.
  std::string auto_compact_path;
  /// Compress the auto-compacted index's walk segments.
  bool auto_compact_compress = false;
  /// Where auto-compaction writes the updated graph. When set, the WAL is
  /// also reset to the compacted state (batches that landed during the
  /// compaction are re-appended); when empty the WAL is left whole,
  /// because a reset WAL without a matching durable graph would strand
  /// acknowledged updates on restart.
  std::string auto_compact_graph_path;
};

/// Cumulative counters (replayed batches included), readable concurrently
/// with updates.
struct IndexUpdateStats {
  uint64_t batches_applied = 0;
  /// Of batches_applied, how many were replayed from the WAL at Open.
  uint64_t batches_replayed = 0;
  uint64_t edges_inserted = 0;
  uint64_t edges_deleted = 0;
  /// (vertex, fingerprint) walks re-simulated.
  uint64_t walks_resimulated = 0;
  /// Of those, how many actually changed some position.
  uint64_t walks_changed = 0;
  /// Walk positions written while re-simulating (the patch's true size).
  uint64_t steps_resimulated = 0;
  /// Summed size of the batches' row-change sets: how many cached
  /// single-source rows each batch could stale.
  uint64_t rows_invalidated = 0;
  /// Torn-tail bytes the WAL dropped at Open (0 for a clean log).
  uint64_t wal_truncated_bytes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  /// fsyncs issued; under concurrent load, less than batches_applied.
  uint64_t wal_syncs = 0;
  /// Current overlay footprint.
  uint64_t overlay_sequence = 0;
  uint64_t patched_vertices = 0;
  uint64_t patched_walks = 0;
  uint64_t changed_slots = 0;
  uint64_t delta_entries = 0;
  /// Estimated resident bytes of the published overlay — what
  /// overlay_budget_bytes is compared against.
  uint64_t overlay_bytes = 0;
  /// Compactions completed since Open (manual + auto), and of those, how
  /// many the background triggers started; failures are auto ones only
  /// (manual Compact reports its error to the caller).
  uint64_t compactions = 0;
  uint64_t auto_compactions = 0;
  uint64_t auto_compact_failures = 0;
  /// Wall time of the most recent completed compaction, and how long it
  /// held the update mutex (the only window updates wait behind a
  /// compaction; queries never do).
  uint64_t last_compaction_micros = 0;
  uint64_t last_compaction_pause_micros = 0;
  /// Current (updated) graph.
  uint64_t graph_edges = 0;
  uint64_t current_graph_fingerprint = 0;
  /// A replica's WAL shipping stopped for good (HaltReplication): the
  /// replica serves a graph its primary has moved past. The error says
  /// why.
  bool replication_halted = false;
  std::string replication_error;
};

/// Owns the dynamic state of one served index: the current graph, the WAL,
/// and the published overlay. The WalkIndex and the base graph's storage
/// must outlive the updater.
class IndexUpdater {
 public:
  /// Binds an updater to `index`, which must have been built from
  /// `base_graph` (validated via the structural fingerprint) and must not
  /// already carry an overlay. Opens (or creates) the WAL and replays any
  /// recorded batches — on return the index already serves the replayed
  /// state.
  static Result<std::unique_ptr<IndexUpdater>> Open(
      WalkIndex& index, DiGraph base_graph,
      const IndexUpdaterOptions& options);

  ~IndexUpdater();

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(IndexUpdater);

  /// Applies one batch: validates it against the current graph, appends it
  /// to the WAL (write-ahead), patches the affected walks and publishes
  /// the new overlay. On error nothing is published and the graph is
  /// unchanged. Empty batches are rejected. Thread-safe. Concurrent
  /// callers share one commit group (one fsync, one publish); each still
  /// returns only once its own batch is durable and visible.
  Status ApplyUpdates(std::span<const EdgeUpdate> updates);

  /// Applies a batch replicated from a primary's WAL stream: identical to
  /// ApplyUpdates (the batch is appended to this replica's own WAL) except
  /// that the post-batch graph fingerprint must equal
  /// `expected_post_fingerprint` — the replica's graph diverging from the
  /// primary's fails loudly instead of silently forking. Thread-safe.
  Status ApplyReplicated(std::span<const EdgeUpdate> updates,
                         uint64_t expected_post_fingerprint);

  /// Records that the replication feeding ApplyReplicated stopped for
  /// good (a WalTailer halting on divergence, a gap or a reset log), so
  /// whatever exports stats() — the replica's server — can report the
  /// replica stale. Thread-safe.
  void HaltReplication(std::string error);

  /// Copies WAL records [from, from + limit) in append order — the
  /// primary side of WAL shipping (a replica polls from its own record
  /// count). A nonzero `fingerprint` names the graph the poller is at: the
  /// copy fails (InvalidArgument) unless record from-1 ended at it, or for
  /// `from` = 0 unless the log starts from it — a compaction that reset
  /// the log renumbers its records, and a replica polling across that
  /// reset must learn it rather than read an empty tail as "caught up".
  /// `from` at the end yields an empty vector. Thread-safe.
  Result<std::vector<WalRecord>> WalRecordsFrom(uint64_t from,
                                                uint64_t fingerprint,
                                                uint64_t limit = 256) const;

  /// Writes the serving state as a fresh v2 index file at `path` (via a
  /// temporary file and an atomic rename), byte-identical to what
  /// `build-index` on the current graph would write with the same save
  /// options, then swaps serving onto the merged store (published with
  /// the overlay that names it, DeltaOverlay::store) so the accumulated
  /// patches and the replaced store are released. Updates and queries
  /// keep running while the merged store is built; batches that land
  /// mid-compaction are rebased onto it at the final swap, and the swap
  /// itself is the only exclusive window.
  /// With `reset_wal`, the WAL is re-bound to the compacted index's
  /// fingerprint and re-seeded with exactly the batches the compacted
  /// file does not embody. A non-empty `graph_path` additionally writes
  /// the compacted graph in the id-exact binary format (also via atomic
  /// rename, and *before* the WAL reset): resetting the WAL makes the
  /// base graph file stale, so a restart needs this file — without it,
  /// acknowledged updates would survive only in an index whose matching
  /// graph exists nowhere on disk. Thread-safe.
  Status Compact(const std::string& path,
                 const WalkIndex::SaveOptions& save, bool reset_wal = false,
                 const std::string& graph_path = "");

  /// Blocks until no background auto-compaction is pending or running.
  /// Test and benchmark support; serving code never needs it.
  void DrainBackgroundCompaction();

  /// Durations of completed compactions (manual + auto), for /metrics.
  const LatencyHistogram& compaction_histogram() const {
    return compaction_hist_;
  }

  /// Counter snapshot. Thread-safe.
  IndexUpdateStats stats() const;

  /// Materializes the current (updated) graph as a DiGraph — for the CLI's
  /// --write-graph, tests and the bench; the patch path itself never
  /// rebuilds one. Thread-safe but O(n + m): not for hot paths.
  DiGraph CurrentGraph() const;

  const WalkIndex& index() const { return index_; }

 private:
  struct PendingBatch;
  struct SlotEdit;
  struct WalkDiffs;

  IndexUpdater(WalkIndex& index, const DiGraph& base_graph, UpdateWal wal,
               const IndexUpdaterOptions& options);

  /// The patch pipeline shared by the commit group and WAL replay. Caller
  /// holds mutex_. `expected_post_fingerprint` (nonzero during replay and
  /// replication) must match the patched graph's fingerprint. The WAL
  /// append defers its fsync, and the overlay lands in pending_overlay_;
  /// the caller syncs and publishes once for all its batches.
  Status ApplyBatch(std::span<const EdgeUpdate> updates, bool append_to_wal,
                    uint64_t expected_post_fingerprint);

  /// The one commit path of ApplyUpdates/ApplyReplicated: enqueue, then
  /// either follow (wait for a leader to process the batch) or lead
  /// (drain the queue, one fsync, one publish).
  Status Commit(std::span<const EdgeUpdate> updates,
                uint64_t expected_post_fingerprint);

  /// The patches, slot diffs and size counters of `prev` (null: empty,
  /// over an R·L = `num_slots` table) with `diffs` applied: the walk
  /// outcomes merged into prev's patch array and the slot edits folded
  /// into its slot table. The caller fills in the rest of the overlay.
  /// Shared by the patch path and the compaction rebase.
  static std::shared_ptr<DeltaOverlay> ApplyDiffs(const DeltaOverlay* prev,
                                                  WalkDiffs& diffs,
                                                  size_t num_slots);

  /// Caller holds mutex_. Checks the published overlay against the budget
  /// and amplification triggers and wakes the background thread.
  void MaybeTriggerAutoCompact(const DeltaOverlay& overlay);

  /// True when `overlay` exceeds the byte budget or the patched-walk
  /// amplification fraction. Overlays are immutable once published, so
  /// this needs no lock.
  bool OverlayOverThreshold(const DeltaOverlay& overlay) const;

  bool AutoCompactArmed() const;

  void BackgroundCompactLoop();

  WalkIndex& index_;
  UpdateWal wal_;
  IndexUpdaterOptions options_;

  // The current graph as per-vertex sorted adjacency (src-ascending
  // in-lists feed the re-simulation; dst-ascending out-lists reproduce
  // the canonical edge enumeration for CurrentGraph and compaction),
  // maintained *in place* in O(degree) per edge update, plus the
  // commutative fingerprint accumulators maintained in O(1) per edge
  // (graph_io's EdgeFingerprint / ComposeGraphFingerprint).
  uint32_t n_ = 0;
  uint64_t m_ = 0;
  std::vector<std::vector<VertexId>> in_lists_;
  std::vector<std::vector<VertexId>> out_lists_;
  uint64_t edge_sum_ = 0;
  uint64_t edge_xor_ = 0;
  uint64_t graph_fingerprint_ = 0;

  /// Runs every block of discovery, re-simulation and compaction; with
  /// one worker, inline.
  std::unique_ptr<ThreadPool> pool_;

  /// Serializes ApplyBatch and the compaction swap.
  mutable std::mutex mutex_;

  /// Commit-group state. Batches enqueue under queue_mutex_; the first
  /// arrival while no leader is active becomes the leader, takes mutex_,
  /// processes every queued batch, then issues one fsync and one overlay
  /// publish before waking the followers.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingBatch*> queue_;
  bool leader_active_ = false;
  /// The unpublished overlay chain of the running commit group or WAL
  /// replay (mutex_ holder only): batch i + 1 builds on batch i's overlay
  /// before it is published. Null whenever mutex_ is free.
  std::shared_ptr<const DeltaOverlay> pending_overlay_;

  /// Serializes whole compactions (manual and background) against each
  /// other without blocking updates.
  std::mutex compact_mutex_;
  /// Background-compaction worker state.
  std::mutex bg_mutex_;
  std::condition_variable bg_cv_;
  bool bg_requested_ = false;
  bool bg_running_ = false;
  bool bg_shutdown_ = false;
  std::thread bg_thread_;
  LatencyHistogram compaction_hist_;

  /// In-memory copy of every durable WAL record, in append order — the
  /// primary side of WAL shipping. Guarded by records_mutex_ so a
  /// replica's poll never waits behind a patch holding mutex_.
  mutable std::mutex records_mutex_;
  std::vector<WalRecord> records_;
  /// The graph fingerprint records_ start from: the WAL's base graph (the
  /// compacted one after a reset).
  uint64_t records_base_fingerprint_ = 0;
  /// Guards stats_ alone, so stats() (the server's inline /v1/stats and
  /// /metrics handlers run it on the event loop) never waits behind a
  /// long patch or compaction holding mutex_.
  mutable std::mutex stats_mutex_;
  IndexUpdateStats stats_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_INDEX_UPDATER_H_
