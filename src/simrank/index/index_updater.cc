#include "simrank/index/index_updater.h"

#include <algorithm>
#include <iterator>
#include <chrono>
#include <cstdio>
#include <span>
#include <unordered_map>
#include <utility>

#include "simrank/common/coupled_hash.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"

namespace simrank {
namespace {

constexpr uint32_t kDead = WalkStore::kDeadWalk;

/// Base-store walk reads for the patch path and the compaction rebase.
/// Callers visit walks grouped by vertex, so the reader holds one row at a
/// time: read in place on the in-memory backend, one segment decode per
/// vertex on mmap. Not shared across threads — each block owns one.
class BaseRowReader {
 public:
  explicit BaseRowReader(const WalkStore& store)
      : store_(store),
        row_length_(static_cast<size_t>(store.meta().walk_length) + 1) {}

  /// The L + 1 base positions of walk (v, r), by step.
  const uint32_t* Walk(VertexId v, uint32_t r) {
    if (row_ == nullptr || v != vertex_) {
      const Result<const uint32_t*> row = store_.Row(v, &scratch_);
      OIPSIM_CHECK_MSG(row.ok(), "corrupt walk segment while patching: %s",
                       row.status().ToString().c_str());
      row_ = *row;
      vertex_ = v;
    }
    return row_ + r * row_length_;
  }

 private:
  const WalkStore& store_;
  size_t row_length_;
  VertexId vertex_ = 0;
  const uint32_t* row_ = nullptr;
  std::vector<uint32_t> scratch_;
};

/// Deterministic estimate of the heap bytes a compaction would release,
/// from an overlay's size counters: per patch its array entry (key +
/// pointer), its shared block and its position buffer, per patched step a
/// word, per changed slot its shared block and two entry buffers, per
/// slot-diff entry two words. The R·L pointer table is left out: a
/// compaction keeps it, so it could never bring an overlay back under
/// budget. What --overlay-budget compares against; exactness is not
/// required, stability and monotonicity are.
uint64_t OverlayBytesFromCounts(size_t patches, uint64_t suffix_words,
                                uint64_t changed_slots,
                                uint64_t delta_entries) {
  return static_cast<uint64_t>(patches) * 104 + suffix_words * 4 +
         changed_slots * 112 + delta_entries * 8;
}

/// The one block runner: cuts [0, count) into contiguous blocks, runs
/// `fn(begin, end, &out)` for each on `pool`, and returns the per-block
/// outputs in block order, so that their concatenation does not depend on
/// the worker count. Several workers get four blocks each, which evens out
/// uneven blocks; one worker runs a single block inline.
template <typename Out, typename Fn>
std::vector<Out> RunBlocks(ThreadPool& pool, size_t count, Fn&& fn) {
  const size_t per_worker = pool.num_threads() == 1 ? 1 : 4;
  const size_t blocks = std::max<size_t>(
      1, std::min(count, per_worker * pool.num_threads()));
  std::vector<Out> out(blocks);
  pool.ParallelFor(0, blocks, [&](uint64_t b) {
    fn(count * b / blocks, count * (b + 1) / blocks, &out[b]);
  });
  return out;
}

/// The graph whose in-lists are `in_lists`. Build sorts every adjacency
/// list, so this is the graph the lists were maintained from.
DiGraph GraphFromInLists(const std::vector<std::vector<VertexId>>& in_lists) {
  DiGraph::Builder builder(static_cast<uint32_t>(in_lists.size()));
  for (VertexId dst = 0; dst < in_lists.size(); ++dst) {
    for (const VertexId src : in_lists[dst]) builder.AddEdge(src, dst);
  }
  return std::move(builder).Build();
}

}  // namespace

/// One pending change of vertex `vertex`'s inverted-index entry in slot
/// `slot`: its position in the base store vs. the new one. kDead on either
/// side means "no entry" (the walk is dead at that step). Collected flat
/// and grouped by one sort — per-slot containers would cost an allocation
/// per touched slot per batch.
struct IndexUpdater::SlotEdit {
  uint64_t slot = 0;
  VertexId vertex = 0;
  uint32_t base_position = 0;
  uint32_t new_position = 0;

  friend bool operator<(const SlotEdit& a, const SlotEdit& b) {
    return a.slot < b.slot;
  }
};

/// What diffing a run of walks emits instead of mutating an overlay, so
/// any worker can produce it. Walks are diffed in ascending key order, and
/// blocks are contiguous key ranges, so block outputs joined in block
/// order are in canonical (vertex, fingerprint) order.
struct IndexUpdater::WalkDiffs {
  std::vector<SlotEdit> edits;
  /// One (walk key, patch) per walk that moved, ascending by key; a null
  /// patch means the walk equals the store again.
  std::vector<DeltaOverlay::PatchEntry> outcomes;
  /// (slot, position) of both ends of every moved walk step, dead ends
  /// left out: with the outcomes' vertices, what the row-change set is
  /// built from.
  std::vector<std::pair<uint64_t, uint32_t>> moved_ends;
  uint64_t steps_written = 0;

  /// The one walk diff, shared by the batch path and the compaction
  /// rebase. Over steps t = 1..L of walk `key`: base[t] is the store's
  /// position, served[t] the one the previous overlay served and next[t]
  /// the new one. Every step with next ≠ served moved: it gets one slot
  /// edit (base → next), which replaces the vertex's previous entry in
  /// that slot, and both of its ends join the row-change set. A walk that
  /// moved gets one outcome: the patch over exactly the first..last step
  /// where next ≠ base, or null when the walk equals the store again.
  void DiffWalk(uint64_t key, const uint32_t* base, const uint32_t* served,
                const uint32_t* next, uint32_t L) {
    const auto v = static_cast<VertexId>(key >> 32);
    const uint64_t first_slot = (key & 0xffffffffu) * L;
    bool moved = false;
    uint32_t first = 0;
    uint32_t last = 0;
    for (uint32_t t = 1; t <= L; ++t) {
      if (next[t] != base[t]) {
        if (first == 0) first = t;
        last = t;
      }
      if (next[t] == served[t]) continue;
      moved = true;
      const uint64_t slot = first_slot + (t - 1);
      edits.push_back(SlotEdit{slot, v, base[t], next[t]});
      if (served[t] != kDead) moved_ends.emplace_back(slot, served[t]);
      if (next[t] != kDead) moved_ends.emplace_back(slot, next[t]);
    }
    if (!moved) return;
    std::shared_ptr<DeltaOverlay::WalkPatch> patch;
    if (first != 0) {
      patch = std::make_shared<DeltaOverlay::WalkPatch>();
      patch->t0 = first;
      patch->suffix.assign(next + first, next + last + 1);
    }
    outcomes.emplace_back(key, std::move(patch));
  }

  /// Joins block outputs in block order.
  static WalkDiffs Join(std::vector<WalkDiffs> blocks) {
    WalkDiffs all = std::move(blocks[0]);
    for (size_t b = 1; b < blocks.size(); ++b) {
      WalkDiffs& block = blocks[b];
      all.edits.insert(all.edits.end(), block.edits.begin(),
                       block.edits.end());
      all.outcomes.insert(all.outcomes.end(),
                          std::make_move_iterator(block.outcomes.begin()),
                          std::make_move_iterator(block.outcomes.end()));
      all.moved_ends.insert(all.moved_ends.end(), block.moved_ends.begin(),
                            block.moved_ends.end());
      all.steps_written += block.steps_written;
    }
    return all;
  }
};

/// One batch waiting in the commit queue, owned by its submitting
/// thread's stack frame.
struct IndexUpdater::PendingBatch {
  std::span<const EdgeUpdate> updates;
  uint64_t expected_post_fingerprint = 0;
  Status status;
  bool done = false;
};

IndexUpdater::IndexUpdater(WalkIndex& index, const DiGraph& base_graph,
                           UpdateWal wal, const IndexUpdaterOptions& options)
    : index_(index), wal_(std::move(wal)), options_(options) {
  n_ = base_graph.n();
  m_ = base_graph.m();
  in_lists_.resize(n_);
  for (VertexId v = 0; v < n_; ++v) {
    const auto in = base_graph.InNeighbors(v);
    in_lists_[v].assign(in.begin(), in.end());  // src-ascending per dst
    for (const VertexId u : base_graph.OutNeighbors(v)) {
      const uint64_t h = EdgeFingerprint(v, u);
      edge_sum_ += h;
      edge_xor_ ^= h;
    }
  }
  graph_fingerprint_ = ComposeGraphFingerprint(n_, m_, edge_sum_, edge_xor_);
  pool_ = std::make_unique<ThreadPool>(options.num_threads);
}

IndexUpdater::~IndexUpdater() {
  if (bg_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(bg_mutex_);
      bg_shutdown_ = true;
    }
    bg_cv_.notify_all();
    bg_thread_.join();
  }
}

Result<std::unique_ptr<IndexUpdater>> IndexUpdater::Open(
    WalkIndex& index, DiGraph base_graph,
    const IndexUpdaterOptions& options) {
  if (options.wal_path.empty()) {
    return Status::InvalidArgument(
        "IndexUpdaterOptions::wal_path is required: updates are only "
        "accepted write-ahead");
  }
  OIPSIM_RETURN_IF_ERROR(index.ValidateGraph(base_graph));
  if (index.overlay_sequence() != 0) {
    return Status::InvalidArgument(
        "index already carries an overlay; one IndexUpdater per index");
  }
  if (options.vertex_begin != 0 || options.vertex_end != 0) {
    if (options.vertex_begin >= options.vertex_end ||
        options.vertex_end > index.n()) {
      return Status::InvalidArgument(StrFormat(
          "shard vertex range [%u, %u) is not a non-empty subrange of "
          "[0, %u)",
          options.vertex_begin, options.vertex_end, index.n()));
    }
  }
  if (!(options.auto_compact_patched_fraction >= 0.0 &&
        options.auto_compact_patched_fraction < 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "auto_compact_patched_fraction=%g is not in [0, 1): it is the "
        "share of all n*R walks carrying a patch (0 disables it)",
        options.auto_compact_patched_fraction));
  }
  if ((options.overlay_budget_bytes > 0 ||
       options.auto_compact_patched_fraction > 0.0) &&
      options.auto_compact_path.empty()) {
    return Status::InvalidArgument(
        "overlay_budget_bytes / auto_compact_patched_fraction require "
        "auto_compact_path: an auto-compaction must know where to write "
        "the merged index");
  }

  WalBaseIdentity identity;
  identity.n = index.n();
  identity.num_fingerprints = index.options().num_fingerprints;
  identity.walk_length = index.options().walk_length;
  identity.seed = index.options().seed;
  identity.damping = index.options().damping;
  identity.graph_fingerprint = index.graph_fingerprint();
  UpdateWal::Options wal_options;
  wal_options.sync_every_append = options.sync_wal;
  auto opened = UpdateWal::Open(options.wal_path, identity, wal_options);
  if (!opened.ok()) return opened.status();

  std::unique_ptr<IndexUpdater> updater(
      new IndexUpdater(index, base_graph, std::move(opened->wal), options));
  {
    std::lock_guard<std::mutex> stats_lock(updater->stats_mutex_);
    updater->stats_.wal_truncated_bytes = opened->truncated_bytes;
    updater->stats_.graph_edges = updater->m_;
    updater->stats_.current_graph_fingerprint =
        updater->graph_fingerprint_;
    updater->stats_.wal_records = updater->wal_.record_count();
    updater->stats_.wal_bytes = updater->wal_.size_bytes();
  }
  {
    std::lock_guard<std::mutex> lock(updater->mutex_);
    for (const WalRecord& record : opened->records) {
      OIPSIM_RETURN_IF_ERROR(updater->ApplyBatch(
          record.updates, /*append_to_wal=*/false,
          record.post_graph_fingerprint));
      std::lock_guard<std::mutex> stats_lock(updater->stats_mutex_);
      ++updater->stats_.batches_replayed;
    }
    // One publish for the whole replay, then the auto-compaction check.
    if (updater->pending_overlay_ != nullptr) {
      updater->index_.PublishOverlay(updater->pending_overlay_);
      updater->MaybeTriggerAutoCompact(*updater->pending_overlay_);
      updater->pending_overlay_ = nullptr;
    }
  }
  {
    std::lock_guard<std::mutex> records_lock(updater->records_mutex_);
    updater->records_ = std::move(opened->records);
    updater->records_base_fingerprint_ = identity.graph_fingerprint;
  }
  if (updater->AutoCompactArmed()) {
    // Started after replay so a replay that already trips a trigger is
    // picked up as the thread's first wait wakes.
    updater->bg_thread_ =
        std::thread(&IndexUpdater::BackgroundCompactLoop, updater.get());
  }
  return updater;
}

Status IndexUpdater::ApplyUpdates(std::span<const EdgeUpdate> updates) {
  return Commit(updates, /*expected_post_fingerprint=*/0);
}

Status IndexUpdater::ApplyReplicated(std::span<const EdgeUpdate> updates,
                                     uint64_t expected_post_fingerprint) {
  if (expected_post_fingerprint == 0) {
    return Status::InvalidArgument(
        "replicated batches must carry the primary's post-batch graph "
        "fingerprint");
  }
  return Commit(updates, expected_post_fingerprint);
}

Result<std::vector<WalRecord>> IndexUpdater::WalRecordsFrom(
    uint64_t from, uint64_t fingerprint, uint64_t limit) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  if (fingerprint != 0 &&
      (from > records_.size() ||
       fingerprint != (from == 0 ? records_base_fingerprint_
                                 : records_[from - 1].post_graph_fingerprint))) {
    return Status::InvalidArgument(StrFormat(
        "the WAL was reset (a compaction renumbers its records): no record "
        "%llu continues from graph %s; re-seed from the compacted index",
        static_cast<unsigned long long>(from),
        FormatFingerprint(fingerprint).c_str()));
  }
  std::vector<WalRecord> out;
  for (uint64_t i = from; i < records_.size() && out.size() < limit; ++i) {
    out.push_back(records_[i]);
  }
  return out;
}

Status IndexUpdater::Commit(std::span<const EdgeUpdate> updates,
                            uint64_t expected_post_fingerprint) {
  PendingBatch pending;
  pending.updates = updates;
  pending.expected_post_fingerprint = expected_post_fingerprint;
  {
    std::unique_lock<std::mutex> queue_lock(queue_mutex_);
    queue_.push_back(&pending);
    if (leader_active_) {
      // Follow: a leader is draining; it (or a successor leader) will
      // process this batch and wake us with its status.
      queue_cv_.wait(queue_lock, [&pending] { return pending.done; });
      return pending.status;
    }
    leader_active_ = true;
  }
  // Lead. The bounded window lets concurrently arriving batches join this
  // group's single fsync; batches arriving later still coalesce naturally,
  // because they queue while this group is being patched and synced.
  // Without fsync there is nothing to coalesce, so nothing to wait for.
  if (options_.sync_wal && options_.group_commit_window_us > 0) {
    std::unique_lock<std::mutex> queue_lock(queue_mutex_);
    queue_cv_.wait_for(
        queue_lock,
        std::chrono::microseconds(options_.group_commit_window_us));
  }
  while (true) {
    std::deque<PendingBatch*> group;
    {
      std::lock_guard<std::mutex> queue_lock(queue_mutex_);
      if (queue_.empty()) {
        leader_active_ = false;
        break;
      }
      group.swap(queue_);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // A WAL write error poisons the rest of the group: appending after
      // a possibly torn record would leave records that replay drops.
      Status wal_broken = Status::OK();
      bool any_appended = false;
      for (PendingBatch* batch : group) {
        if (!wal_broken.ok()) {
          batch->status = wal_broken;
          continue;
        }
        batch->status = ApplyBatch(batch->updates, /*append_to_wal=*/true,
                                   batch->expected_post_fingerprint);
        if (batch->status.ok()) {
          any_appended = true;
        } else if (batch->status.code() == StatusCode::kIoError) {
          wal_broken = batch->status;
        }
      }
      if (any_appended) {
        // The group's durability point: everything appended above hits
        // disk in one fsync, before any batch is acknowledged or its
        // overlay made visible to queries.
        const Status synced = wal_.Sync();
        if (!synced.ok()) {
          for (PendingBatch* batch : group) {
            if (batch->status.ok()) batch->status = synced;
          }
        }
        {
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          stats_.wal_syncs = wal_.sync_count();
        }
        // Publish even when the fsync failed: the records are flushed to
        // the OS and the in-memory graph already reflects the group, so
        // withholding the overlay would fork serving state from update
        // state. The callers still get the sync error.
        index_.PublishOverlay(pending_overlay_);
        MaybeTriggerAutoCompact(*pending_overlay_);
        pending_overlay_ = nullptr;
      }
    }
    {
      std::lock_guard<std::mutex> queue_lock(queue_mutex_);
      for (PendingBatch* batch : group) batch->done = true;
    }
    queue_cv_.notify_all();
  }
  return pending.status;
}

Status IndexUpdater::ApplyBatch(std::span<const EdgeUpdate> updates,
                                bool append_to_wal,
                                uint64_t expected_post_fingerprint) {
  if (updates.empty()) {
    return Status::InvalidArgument("empty update batch");
  }

  // --- graph: validate strictly against the live adjacency --------------
  // (Same semantics and wording as ApplyEdgeUpdates in edge_update.cc;
  // keep them in lockstep.) Nothing mutates yet: intra-batch transitions
  // are tracked in a pending map keyed by the packed edge, so a rejected
  // batch leaves the adjacency untouched, and the commutative fingerprint
  // accumulates its delta in O(1) per update as a side effect.
  std::unordered_map<uint64_t, bool> pending;
  pending.reserve(updates.size() * 2);
  uint64_t delta_sum = 0;
  uint64_t delta_xor = 0;
  int64_t delta_m = 0;
  for (size_t i = 0; i < updates.size(); ++i) {
    const EdgeUpdate& update = updates[i];
    if (update.src >= n_ || update.dst >= n_) {
      return Status::OutOfRange(StrFormat(
          "update %zu: edge (%u, %u) leaves the vertex set [0, %u) the "
          "index was built for (adding vertices requires a rebuild)",
          i, update.src, update.dst, n_));
    }
    const uint64_t packed =
        (static_cast<uint64_t>(update.src) << 32) | update.dst;
    bool exists;
    if (auto it = pending.find(packed); it != pending.end()) {
      exists = it->second;
    } else {
      const std::vector<VertexId>& in = in_lists_[update.dst];
      exists = std::binary_search(in.begin(), in.end(), update.src);
    }
    const uint64_t h = EdgeFingerprint(update.src, update.dst);
    if (update.op == EdgeUpdate::Op::kInsert) {
      if (exists) {
        return Status::InvalidArgument(StrFormat(
            "update %zu: edge (%u, %u) already exists; inserts must add a "
            "new edge",
            i, update.src, update.dst));
      }
      pending[packed] = true;
      delta_sum += h;
      delta_xor ^= h;
      ++delta_m;
    } else {
      if (!exists) {
        return Status::InvalidArgument(StrFormat(
            "update %zu: edge (%u, %u) does not exist; deletes must "
            "remove an existing edge",
            i, update.src, update.dst));
      }
      pending[packed] = false;
      delta_sum -= h;
      delta_xor ^= h;
      --delta_m;
    }
  }
  const uint64_t post_m =
      static_cast<uint64_t>(static_cast<int64_t>(m_) + delta_m);
  const uint64_t post_fingerprint = ComposeGraphFingerprint(
      n_, post_m, edge_sum_ + delta_sum, edge_xor_ ^ delta_xor);
  if (expected_post_fingerprint != 0 &&
      post_fingerprint != expected_post_fingerprint) {
    return Status::ParseError(StrFormat(
        "WAL replay diverged: batch yields graph fingerprint %s, the "
        "record expects %s — the WAL does not belong to this base graph",
        FormatFingerprint(post_fingerprint).c_str(),
        FormatFingerprint(expected_post_fingerprint).c_str()));
  }

  // Write-ahead: the batch must be durable before any serving state
  // changes, so a crash at any later point replays it. The append defers
  // its fsync; the group leader syncs once before anything becomes
  // visible.
  if (append_to_wal) {
    WalRecord record;
    record.updates.assign(updates.begin(), updates.end());
    record.post_graph_fingerprint = post_fingerprint;
    OIPSIM_RETURN_IF_ERROR(wal_.Append(record, /*sync=*/false));
    std::lock_guard<std::mutex> records_lock(records_mutex_);
    records_.push_back(std::move(record));
  }

  // --- O(degree) in-place maintenance -----------------------------------
  // The batch is validated and durable; fold it into the per-vertex
  // sorted lists. Nothing below this point can fail (corruption while
  // reading the store is a fatal checked error, as everywhere).
  for (const EdgeUpdate& update : updates) {
    std::vector<VertexId>& in = in_lists_[update.dst];
    if (update.op == EdgeUpdate::Op::kInsert) {
      in.insert(std::lower_bound(in.begin(), in.end(), update.src),
                update.src);
    } else {
      in.erase(std::lower_bound(in.begin(), in.end(), update.src));
    }
  }
  m_ = post_m;
  edge_sum_ += delta_sum;
  edge_xor_ ^= delta_xor;
  graph_fingerprint_ = post_fingerprint;
  auto in_of = [this](VertexId v) {
    return std::span<const VertexId>(in_lists_[v]);
  };

  // Within a commit group or a WAL replay, later batches build on the
  // still-unpublished overlay chain, not on what queries currently see.
  // Compaction publishes under mutex_ too, so the pair read here is the
  // one this batch lands on.
  const WalkIndex::Snapshot serving = index_.snapshot();
  const std::shared_ptr<const DeltaOverlay> old =
      pending_overlay_ != nullptr ? pending_overlay_ : serving.overlay;
  // The store the overlay chain is expressed against — the one the index
  // was opened with, or the merged store a compaction published.
  const std::shared_ptr<const WalkStore>& store =
      old != nullptr ? old->store() : serving.store;
  const WalkStore& base = *store;
  const WalkStoreMeta& meta = base.meta();
  const uint32_t R = meta.num_fingerprints;
  const uint32_t L = meta.walk_length;

  // The vertices whose in-neighbour list changed. Only transitions *out
  // of* these vertices can differ on the updated graph.
  std::vector<VertexId> touched;
  touched.reserve(updates.size());
  for (const EdgeUpdate& update : updates) touched.push_back(update.dst);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()),
                touched.end());

  // Discovery: every (vertex, fingerprint, step) whose transition is
  // affected. A walk sitting at x after t steps takes its step-(t+1)
  // transition from x's in-list, so Bucket(r, t, x) (merged with the
  // current overlay) lists exactly the walks affected at step t+1; the
  // walk *starting* at a touched vertex is affected at step 1. Keyed
  // (v << 32 | r) so one sort groups by vertex, then fingerprint, with
  // each walk's affected steps ascending — the exact order the
  // re-simulation wants. Slot-major loops keep the 8-or-so binary
  // searches per slot on warm cache lines. Fingerprints are independent,
  // so the bucket sweep runs in fingerprint blocks; the full sort makes
  // the candidate list identical for any partition.
  using Candidate = std::pair<uint64_t, uint32_t>;
  std::vector<Candidate> candidates;
  candidates.reserve(1024);
  // A shard index represents out-of-range walks as dead from step 1 and
  // must keep them that way: re-simulating a dead row would revive the
  // vertex into this shard's inverted index and double-count it across
  // the cluster. Bucket-discovered candidates below are in-range by
  // construction (the shard's inverted index only lists its own range).
  const bool range_limited =
      options_.vertex_begin != 0 || options_.vertex_end != 0;
  for (const VertexId x : touched) {
    if (range_limited &&
        (x < options_.vertex_begin || x >= options_.vertex_end)) {
      continue;
    }
    for (uint32_t r = 0; r < R; ++r) {
      candidates.emplace_back(DeltaOverlay::WalkKey(x, r), 1);
    }
  }
  const std::vector<std::vector<Candidate>> found =
      RunBlocks<std::vector<Candidate>>(
          *pool_, R,
          [&](size_t r_begin, size_t r_end, std::vector<Candidate>* out) {
            for (auto r = static_cast<uint32_t>(r_begin); r < r_end; ++r) {
              for (uint32_t t = 1; t + 1 <= L; ++t) {
                for (const VertexId x : touched) {
                  ForEachBucketVertex(base, old.get(), r, t, x,
                                      [&](const VertexId v) {
                                        out->emplace_back(
                                            DeltaOverlay::WalkKey(v, r),
                                            t + 1);
                                      });
                }
              }
            }
          });
  for (const std::vector<Candidate>& block : found) {
    candidates.insert(candidates.end(), block.begin(), block.end());
  }
  std::sort(candidates.begin(), candidates.end());

  // --- re-simulation of the affected walks ------------------------------
  // Each walk is an independent pure function of (updated graph, base
  // store, previous overlay), so the sorted candidate list is cut into
  // walk groups and run in contiguous blocks of them.
  std::vector<std::pair<size_t, size_t>> groups;
  for (size_t at = 0; at < candidates.size();) {
    const size_t begin = at;
    const uint64_t key = candidates[at].first;
    while (at < candidates.size() && candidates[at].first == key) ++at;
    groups.emplace_back(begin, at);
  }
  WalkDiffs diffs = WalkDiffs::Join(RunBlocks<WalkDiffs>(
      *pool_, groups.size(),
      [&](size_t begin, size_t end, WalkDiffs* out) {
        BaseRowReader reader(base);
        std::vector<uint32_t> served;
        std::vector<uint32_t> next;
        std::vector<uint32_t> steps;
        for (size_t g = begin; g < end; ++g) {
          const auto [first, last] = groups[g];
          const uint64_t key = candidates[first].first;
          const auto v = static_cast<VertexId>(key >> 32);
          const auto r = static_cast<uint32_t>(key & 0xffffffffu);
          steps.clear();
          for (size_t i = first; i < last; ++i) {
            const uint32_t t = candidates[i].second;
            if (steps.empty() || steps.back() != t) steps.push_back(t);
          }
          const uint32_t* base_walk = reader.Walk(v, r);
          served.assign(base_walk, base_walk + L + 1);
          if (old != nullptr) {
            if (const DeltaOverlay::WalkPatch* prev = old->FindPatch(v, r)) {
              prev->WriteOver(served.data());
            }
          }
          // Re-simulate from each affected step; once the new position
          // coincides with the served one at some step, the walks are
          // coupled — identical until the *next* affected step, so skip
          // ahead. That convergence is what keeps a patch O(changed
          // steps) instead of O(L) even when a walk brushes a touched
          // vertex late.
          next = served;
          size_t step_index = 0;
          uint32_t t = steps[0];
          while (true) {
            uint32_t position = next[t - 1];
            OIPSIM_DCHECK(position != kDead);
            bool converged = false;
            for (; t <= L; ++t) {
              if (position != kDead) {
                const auto in = in_of(position);
                position =
                    in.empty()
                        ? kDead
                        : in[CoupledWalkHash(meta.seed, r, t, position) %
                             in.size()];
              }
              ++out->steps_written;
              next[t] = position;
              if (position == served[t]) {
                converged = true;  // re-coupled: identical until next touch
                ++t;
                break;
              }
            }
            while (step_index < steps.size() && steps[step_index] < t) {
              ++step_index;
            }
            if (!converged || step_index >= steps.size()) break;
            t = steps[step_index];
          }
          out->DiffWalk(key, base_walk, served.data(), next.data(), L);
        }
      }));
  const uint64_t resimulated = groups.size();
  const uint64_t changed_walks = diffs.outcomes.size();
  std::vector<VertexId> row_changes;
  row_changes.reserve(diffs.outcomes.size());
  for (const DeltaOverlay::PatchEntry& outcome : diffs.outcomes) {
    row_changes.push_back(static_cast<VertexId>(outcome.first >> 32));
  }

  auto overlay = ApplyDiffs(old.get(), diffs, static_cast<size_t>(R) * L);
  overlay->sequence_ = (old == nullptr ? 0 : old->sequence_) + 1;
  overlay->graph_fingerprint_ = post_fingerprint;
  overlay->walk_length_ = L;
  overlay->store_ = store;
  if (old != nullptr) overlay->row_changes_ = old->row_changes_;

  // --- the row-change set: which cached rows this batch can stale -------
  // The vertices whose walks moved, plus every vertex whose walk sits at
  // either end of a moved step (see delta_overlay.h for why that is
  // exact). Any unmoved walk sits at the same position under the old and
  // the new overlay, so the buckets are read from the new one, once per
  // distinct (slot, position) and in slot order.
  std::vector<std::pair<uint64_t, uint32_t>>& ends = diffs.moved_ends;
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  for (const auto& [slot, position] : ends) {
    ForEachBucketVertex(
        base, overlay.get(), static_cast<uint32_t>(slot / L),
        static_cast<uint32_t>(slot % L) + 1, position,
        [&row_changes](const VertexId b) { row_changes.push_back(b); });
  }
  std::sort(row_changes.begin(), row_changes.end());
  row_changes.erase(std::unique(row_changes.begin(), row_changes.end()),
                    row_changes.end());
  const uint64_t rows_invalidated = row_changes.size();
  if (overlay->row_changes_.size() == DeltaOverlay::kRowChangeWindow) {
    overlay->row_changes_.erase(overlay->row_changes_.begin());
  }
  overlay->row_changes_.push_back(
      std::make_shared<const DeltaOverlay::RowChanges>(
          DeltaOverlay::RowChanges{overlay->sequence_,
                                   std::move(row_changes)}));

  // The commit group publishes it after its sync: one pointer swap, so
  // concurrent queries see the previous overlay or this one, never a
  // mixture. A batch that cancels every patch out still yields an (empty)
  // overlay: the sequence must stay monotone, or a QueryEngine row cached
  // under an earlier overlay could read as fresh once the counter wrapped
  // back around.
  pending_overlay_ = overlay;

  // Counters live under their own mutex so the server's inline stats
  // endpoints never block behind a long patch or compaction.
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.batches_applied;
  for (const EdgeUpdate& update : updates) {
    if (update.op == EdgeUpdate::Op::kInsert) {
      ++stats_.edges_inserted;
    } else {
      ++stats_.edges_deleted;
    }
  }
  stats_.walks_resimulated += resimulated;
  stats_.walks_changed += changed_walks;
  stats_.steps_resimulated += diffs.steps_written;
  stats_.rows_invalidated += rows_invalidated;
  stats_.overlay_sequence = overlay->sequence_;
  stats_.patched_vertices = overlay->patched_vertices_;
  stats_.patched_walks = overlay->patches_.size();
  stats_.changed_slots = overlay->changed_slots_;
  stats_.delta_entries = overlay->delta_entries_;
  stats_.overlay_bytes = overlay->resident_bytes_;
  stats_.graph_edges = m_;
  stats_.current_graph_fingerprint = post_fingerprint;
  stats_.wal_records = wal_.record_count();
  stats_.wal_bytes = wal_.size_bytes();
  stats_.wal_syncs = wal_.sync_count();
  return Status::OK();
}

std::shared_ptr<DeltaOverlay> IndexUpdater::ApplyDiffs(
    const DeltaOverlay* prev, WalkDiffs& diffs, size_t num_slots) {
  auto overlay = std::make_shared<DeltaOverlay>();

  // Patches: merge the key-ordered outcomes into prev's array. Untouched
  // entries are pointer copies; the merge counts patched vertices.
  static const std::vector<DeltaOverlay::PatchEntry> kNoPatches;
  const std::vector<DeltaOverlay::PatchEntry>& before =
      prev == nullptr ? kNoPatches : prev->patches_;
  std::vector<DeltaOverlay::PatchEntry>& after = overlay->patches_;
  after.reserve(before.size() + diffs.outcomes.size());
  overlay->suffix_words_ = prev == nullptr ? 0 : prev->suffix_words_;
  auto keep = [&](DeltaOverlay::PatchEntry entry) {
    if (after.empty() || (after.back().first >> 32) != (entry.first >> 32)) {
      ++overlay->patched_vertices_;
    }
    after.push_back(std::move(entry));
  };
  size_t i = 0;
  for (DeltaOverlay::PatchEntry& outcome : diffs.outcomes) {
    while (i < before.size() && before[i].first < outcome.first) {
      keep(before[i++]);
    }
    if (i < before.size() && before[i].first == outcome.first) {
      overlay->suffix_words_ -= before[i++].second->suffix.size();
    }
    if (outcome.second != nullptr) {
      overlay->suffix_words_ += outcome.second->suffix.size();
      keep(std::move(outcome));
    }
  }
  while (i < before.size()) keep(before[i++]);

  // Slot diffs: a pointer copy of prev's table, then each edited slot is
  // rebuilt. Previous entries of an edited vertex in a slot are replaced
  // by its (base, new) pair; steps that did not move carry no edit and
  // keep their previous entries. One stable sort groups the edits by slot
  // and keeps them in walk order within it.
  if (prev == nullptr) {
    overlay->deltas_.resize(num_slots);
  } else {
    overlay->deltas_ = prev->deltas_;
    overlay->changed_slots_ = prev->changed_slots_;
    overlay->delta_entries_ = prev->delta_entries_;
  }
  std::vector<SlotEdit>& slot_edits = diffs.edits;
  std::stable_sort(slot_edits.begin(), slot_edits.end());
  // Scratch reused across slots: the edited vertices, sorted, and each
  // side's kept and new entries.
  std::vector<VertexId> edited;
  std::vector<OverlayEntry> kept[2];
  std::vector<OverlayEntry> fresh[2];
  for (size_t at_edit = 0; at_edit < slot_edits.size();) {
    const uint64_t slot = slot_edits[at_edit].slot;
    const size_t begin = at_edit;
    while (at_edit < slot_edits.size() && slot_edits[at_edit].slot == slot) {
      ++at_edit;
    }
    const std::span<const SlotEdit> edits(slot_edits.data() + begin,
                                          at_edit - begin);
    std::shared_ptr<const DeltaOverlay::SlotDelta>& current =
        overlay->deltas_[slot];
    for (int side = 0; side < 2; ++side) {
      kept[side].clear();
      fresh[side].clear();
    }
    if (current != nullptr) {
      edited.clear();
      for (const SlotEdit& edit : edits) edited.push_back(edit.vertex);
      std::sort(edited.begin(), edited.end());
      auto unedited = [&edited](const OverlayEntry& entry) {
        return !std::binary_search(edited.begin(), edited.end(),
                                   entry.vertex);
      };
      std::copy_if(current->removed.begin(), current->removed.end(),
                   std::back_inserter(kept[0]), unedited);
      std::copy_if(current->added.begin(), current->added.end(),
                   std::back_inserter(kept[1]), unedited);
      --overlay->changed_slots_;
      overlay->delta_entries_ -=
          current->removed.size() + current->added.size();
    }
    for (const SlotEdit& edit : edits) {
      if (edit.base_position == edit.new_position) continue;
      if (edit.base_position != kDead) {
        fresh[0].push_back(OverlayEntry{edit.base_position, edit.vertex});
      }
      if (edit.new_position != kDead) {
        fresh[1].push_back(OverlayEntry{edit.new_position, edit.vertex});
      }
    }
    // The kept entries are already in (position, vertex) order and share
    // no vertex with the new ones: sort only the new ones, then merge.
    auto next = std::make_shared<DeltaOverlay::SlotDelta>();
    std::vector<OverlayEntry>* out[2] = {&next->removed, &next->added};
    for (int side = 0; side < 2; ++side) {
      std::sort(fresh[side].begin(), fresh[side].end());
      out[side]->resize(kept[side].size() + fresh[side].size());
      std::merge(kept[side].begin(), kept[side].end(), fresh[side].begin(),
                 fresh[side].end(), out[side]->begin());
    }
    if (next->removed.empty() && next->added.empty()) {
      current = nullptr;
    } else {
      ++overlay->changed_slots_;
      overlay->delta_entries_ += next->removed.size() + next->added.size();
      current = std::move(next);
    }
  }
  overlay->resident_bytes_ =
      OverlayBytesFromCounts(after.size(), overlay->suffix_words_,
                             overlay->changed_slots_, overlay->delta_entries_);
  return overlay;
}

Status IndexUpdater::Compact(const std::string& path,
                             const WalkIndex::SaveOptions& save,
                             bool reset_wal,
                             const std::string& graph_path) {
  // One compaction at a time (manual or auto); updates are only excluded
  // during the two brief mutex_ windows below.
  std::lock_guard<std::mutex> compact_lock(compact_mutex_);
  const auto compact_start = std::chrono::steady_clock::now();

  // Phase 1 — pin the snapshot this compaction materializes: the overlay,
  // the record count it embodies and (when a graph file is wanted) the
  // adjacency. O(m) worst case, no store reads.
  WalkIndex::Snapshot pinned;
  uint64_t snap_fingerprint = 0;
  size_t records_at_snapshot = 0;
  std::vector<std::vector<VertexId>> in_copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pinned = index_.snapshot();
    snap_fingerprint = graph_fingerprint_;
    {
      std::lock_guard<std::mutex> records_lock(records_mutex_);
      records_at_snapshot = records_.size();
    }
    if (!graph_path.empty()) in_copy = in_lists_;
  }
  const std::shared_ptr<const DeltaOverlay>& snap = pinned.overlay;
  const WalkStore& base = *pinned.store;
  WalkStoreMeta meta = base.meta();
  meta.graph_fingerprint = snap_fingerprint;

  // Phase 2 — no update lock held: updates and queries proceed against
  // the live overlay while the merged store is built. Materialize base +
  // overlay as a walk table, exactly what Build() would have produced on
  // the updated graph, and save it through the same writer — byte
  // identity follows. Vertex ranges are disjoint, so the materialization
  // runs in vertex blocks; the result is position-for-position identical
  // for any thread count.
  const uint32_t n = meta.n;
  const size_t words = base.WalkWords();
  std::vector<uint32_t> walks(words * n);
  for (const Status& status : RunBlocks<Status>(
           *pool_, n, [&](size_t begin, size_t end, Status* status) {
             std::vector<uint32_t> scratch;
             for (size_t v = begin; v < end; ++v) {
               const Result<const uint32_t*> row = MaterializeRow(
                   base, snap.get(), static_cast<VertexId>(v), &scratch);
               if (!row.ok()) {
                 *status = row.status();
                 return;
               }
               std::copy_n(*row, words, walks.data() + v * words);
             }
           })) {
    OIPSIM_RETURN_IF_ERROR(status);
  }
  auto merged = std::make_shared<InMemoryWalkStore>(
      meta, std::move(walks), pool_->num_threads());

  WalkStoreSaveOptions store_save;
  store_save.compress = save.compress;
  const std::string tmp = path + ".tmp";
  OIPSIM_RETURN_IF_ERROR(SaveWalkStore(*merged, tmp, store_save));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(
        StrFormat("cannot move compacted index into place: %s -> %s",
                  tmp.c_str(), path.c_str()));
  }

  if (!graph_path.empty()) {
    // The updated graph must be durable before the WAL forgets how to
    // re-derive it.
    const DiGraph graph = GraphFromInLists(in_copy);
    const std::string graph_tmp = graph_path + ".tmp";
    OIPSIM_RETURN_IF_ERROR(WriteBinary(graph, graph_tmp));
    if (std::rename(graph_tmp.c_str(), graph_path.c_str()) != 0) {
      std::remove(graph_tmp.c_str());
      return Status::IoError(
          StrFormat("cannot move compacted graph into place: %s -> %s",
                    graph_tmp.c_str(), graph_path.c_str()));
    }
  }

  // The store serving swaps onto. A paged deployment re-opens the
  // compacted file through the paged backend, so a compaction does not
  // silently convert it into a fully resident one; the rename above left
  // the old mapping's inode intact for readers still on old snapshots.
  std::shared_ptr<const WalkStore> serving = merged;
  if (dynamic_cast<const MmapWalkStore*>(&base) != nullptr) {
    auto reopened = MmapWalkStore::Open(path);
    if (reopened.ok()) {
      serving = std::shared_ptr<const WalkStore>(std::move(*reopened));
    }
    // On reopen failure keep the in-memory merged store: correctness is
    // unaffected, only residency.
  }

  // Phase 3 — the swap: one brief mutex_ hold. Batches that landed while
  // the merged store was building are rebased onto it (their net effect
  // re-expressed as patches against the merged store), so the published
  // (store, overlay) pair is coherent and the sequence keeps counting —
  // cached rows stamped with the snapshot sequence stay valid, because
  // the merged store is bitwise the snapshot state.
  Status result = Status::OK();
  uint64_t pause_micros = 0;
  std::shared_ptr<const DeltaOverlay> published;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  {
    const auto pause_start = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    const std::shared_ptr<const DeltaOverlay> current =
        index_.overlay_snapshot();
    if (current != nullptr || snap != nullptr) {
      // Diff every walk either patch set touches: merged-store value
      // (snapshot side) vs live value (current side), both expressed
      // against the *old* base. A patch both sides share is unchanged
      // since the snapshot, so the cost is proportional to the churn
      // during the build window, never O(n).
      struct RebasedWalk {
        uint64_t key;
        const DeltaOverlay::WalkPatch* merged;
        const DeltaOverlay::WalkPatch* live;
      };
      std::vector<RebasedWalk> rebased_walks;
      const std::span<const DeltaOverlay::PatchEntry> a =
          snap != nullptr ? std::span(snap->patches_)
                          : std::span<const DeltaOverlay::PatchEntry>();
      const std::span<const DeltaOverlay::PatchEntry> b = current->patches_;
      for (size_t i = 0, j = 0; i < a.size() || j < b.size();) {
        if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
          rebased_walks.push_back({a[i].first, a[i].second.get(), nullptr});
          ++i;
        } else if (i == a.size() || b[j].first < a[i].first) {
          rebased_walks.push_back({b[j].first, nullptr, b[j].second.get()});
          ++j;
        } else {
          if (a[i].second != b[j].second) {
            rebased_walks.push_back(
                {a[i].first, a[i].second.get(), b[j].second.get()});
          }
          ++i;
          ++j;
        }
      }
      const uint32_t L = meta.walk_length;
      WalkDiffs diffs = WalkDiffs::Join(RunBlocks<WalkDiffs>(
          *pool_, rebased_walks.size(),
          [&](size_t begin, size_t end, WalkDiffs* out) {
            BaseRowReader reader(base);
            std::vector<uint32_t> merged_walk;
            std::vector<uint32_t> live_walk;
            for (size_t w = begin; w < end; ++w) {
              const RebasedWalk& walk = rebased_walks[w];
              const uint32_t* base_walk =
                  reader.Walk(static_cast<VertexId>(walk.key >> 32),
                              static_cast<uint32_t>(walk.key & 0xffffffffu));
              merged_walk.assign(base_walk, base_walk + L + 1);
              if (walk.merged != nullptr) {
                walk.merged->WriteOver(merged_walk.data());
              }
              live_walk.assign(base_walk, base_walk + L + 1);
              if (walk.live != nullptr) walk.live->WriteOver(live_walk.data());
              out->DiffWalk(walk.key, merged_walk.data(), merged_walk.data(),
                            live_walk.data(), L);
            }
          }));
      auto rebased = ApplyDiffs(
          nullptr, diffs, static_cast<size_t>(meta.num_fingerprints) * L);
      rebased->sequence_ = current->sequence_;
      rebased->graph_fingerprint_ = current->graph_fingerprint_;
      rebased->walk_length_ = L;
      rebased->store_ = serving;
      // Compaction changes no row, so the batches' row-change sets carry
      // over unchanged and cached rows stay warm across it.
      rebased->row_changes_ = current->row_changes_;
      published = rebased;
      index_.PublishOverlay(std::move(rebased));
    }

    if (reset_wal) {
      WalBaseIdentity identity;
      identity.n = meta.n;
      identity.num_fingerprints = meta.num_fingerprints;
      identity.walk_length = meta.walk_length;
      identity.seed = meta.seed;
      identity.damping = meta.damping;
      identity.graph_fingerprint = snap_fingerprint;
      result = wal_.Reset(identity);
      if (result.ok()) {
        // The compacted file embodies records [0, records_at_snapshot);
        // batches that landed during the build are re-appended so their
        // durability survives the reset.
        std::lock_guard<std::mutex> records_lock(records_mutex_);
        std::vector<WalRecord> tail(
            records_.begin() +
                static_cast<std::ptrdiff_t>(records_at_snapshot),
            records_.end());
        for (const WalRecord& record : tail) {
          result = wal_.Append(record, /*sync=*/false);
          if (!result.ok()) break;
        }
        if (result.ok() && options_.sync_wal && !tail.empty()) {
          result = wal_.Sync();
        }
        records_ = std::move(tail);
        records_base_fingerprint_ = snap_fingerprint;
      }
    }
    // Read under mutex_: the next batch's UpdateWal::Append writes them.
    wal_records = wal_.record_count();
    wal_bytes = wal_.size_bytes();
    wal_syncs = wal_.sync_count();
    pause_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - pause_start)
            .count());
  }

  const uint64_t total_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - compact_start)
          .count());
  compaction_hist_.Record(total_micros);
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.compactions;
    stats_.last_compaction_micros = total_micros;
    stats_.last_compaction_pause_micros = pause_micros;
    stats_.wal_records = wal_records;
    stats_.wal_bytes = wal_bytes;
    stats_.wal_syncs = wal_syncs;
    if (published != nullptr) {
      stats_.overlay_sequence = published->sequence_;
      stats_.patched_vertices = published->patched_vertices_;
      stats_.patched_walks = published->patches_.size();
      stats_.changed_slots = published->changed_slots_;
      stats_.delta_entries = published->delta_entries_;
      stats_.overlay_bytes = published->resident_bytes_;
    }
  }
  return result;
}

bool IndexUpdater::OverlayOverThreshold(const DeltaOverlay& overlay) const {
  const bool over_budget =
      options_.overlay_budget_bytes > 0 &&
      overlay.resident_bytes_ > options_.overlay_budget_bytes;
  const double fraction = options_.auto_compact_patched_fraction;
  const bool amplified =
      fraction > 0.0 &&
      static_cast<double>(overlay.patches_.size()) >
          fraction * static_cast<double>(n_) *
              static_cast<double>(index_.options().num_fingerprints);
  return over_budget || amplified;
}

void IndexUpdater::MaybeTriggerAutoCompact(const DeltaOverlay& overlay) {
  if (!AutoCompactArmed()) return;
  if (!OverlayOverThreshold(overlay)) return;
  {
    std::lock_guard<std::mutex> lock(bg_mutex_);
    // One compaction in flight at a time; the overlay this publish built
    // is folded in anyway if it lands before the running one's swap, and
    // re-trips the trigger at its next publish otherwise.
    if (bg_shutdown_ || bg_requested_ || bg_running_) return;
    bg_requested_ = true;
  }
  bg_cv_.notify_all();
}

bool IndexUpdater::AutoCompactArmed() const {
  return !options_.auto_compact_path.empty() &&
         (options_.overlay_budget_bytes > 0 ||
          options_.auto_compact_patched_fraction > 0.0);
}

void IndexUpdater::BackgroundCompactLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(bg_mutex_);
    bg_cv_.wait(lock, [this] { return bg_requested_ || bg_shutdown_; });
    if (bg_shutdown_) return;
    bg_requested_ = false;
    bg_running_ = true;
    lock.unlock();

    WalkIndex::SaveOptions save;
    save.compress = options_.auto_compact_compress;
    // Reset the WAL only when the matching graph is made durable too; a
    // reset without it would strand acknowledged updates on restart.
    const bool reset_wal = !options_.auto_compact_graph_path.empty();
    const Status status = Compact(options_.auto_compact_path, save,
                                  reset_wal, options_.auto_compact_graph_path);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      if (status.ok()) {
        ++stats_.auto_compactions;
      } else {
        ++stats_.auto_compact_failures;
      }
    }
    if (!status.ok()) {
      std::fprintf(stderr, "simrank: background auto-compaction failed: %s\n",
                   status.ToString().c_str());
    }

    // A batch that published during this run saw bg_running_ and dropped
    // its trigger; if its rebased tail is still over threshold, re-arm
    // before declaring the compactor idle so the tail cannot strand.
    // Re-compacting an unchanged over-threshold overlay converges: the
    // second pass rebases it to empty.  Checked before clearing
    // bg_running_ so DrainBackgroundCompaction cannot observe a
    // momentarily-idle compactor with work still pending.
    bool rearm = false;
    if (status.ok()) {
      const auto overlay = index_.overlay_snapshot();
      rearm = overlay && OverlayOverThreshold(*overlay);
    }

    lock.lock();
    bg_running_ = false;
    if (rearm && !bg_shutdown_) bg_requested_ = true;
    lock.unlock();
    bg_cv_.notify_all();
  }
}

void IndexUpdater::DrainBackgroundCompaction() {
  std::unique_lock<std::mutex> lock(bg_mutex_);
  bg_cv_.wait(lock, [this] { return !bg_requested_ && !bg_running_; });
}

DiGraph IndexUpdater::CurrentGraph() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return GraphFromInLists(in_lists_);
}

void IndexUpdater::HaltReplication(std::string error) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.replication_halted = true;
  stats_.replication_error = std::move(error);
}

IndexUpdateStats IndexUpdater::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace simrank
