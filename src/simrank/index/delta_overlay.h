// In-memory patch set over an immutable WalkStore.
//
// A DeltaOverlay is what an IndexUpdater publishes after applying an edge
// batch: for every (vertex, fingerprint) walk whose positions differ from
// the base store, a patch holding exactly the steps from the first to the
// last differing one, and for every (fingerprint, step) slot whose contents
// changed, a sparse diff of the inverted position index *relative to the
// base store* (entries removed because a walk left a position, entries
// added because one arrived). Both are functions of the served positions
// alone, never of the batches that wrote them. Re-simulated walks usually
// re-couple with their old path within a step or two, so a patch is a few
// words and a batch stays O(affected walk-steps), not
// O(affected vertices · R · L).
//
// Layout: the patches are one array of (walk key, patch) in ascending
// key (v << 32 | r) order, so a vertex's patches are contiguous and a
// lookup is one binary search; the slot diffs are one R·L table of
// pointers indexed by slot r·L + (t-1), null where a slot is unchanged.
// Patches and slot diffs are shared (by pointer) with successor overlays
// that did not touch them again, so building the next overlay copies
// pointers, never patch contents.
//
// Overlays are immutable once published; an update batch builds a new
// overlay from the previous one and swaps it in RCU-style (see
// WalkIndex::PublishOverlay), so queries in flight keep the snapshot they
// started with and never observe a half-applied batch.
//
// Both patch kinds are expressed against the *base* store, not the
// previous overlay: lookup cost stays O(base + patch) however many
// batches have accumulated, and Compact() can rebuild the merged index
// from base + one overlay.
//
// Each overlay also carries the row-change sets of its most recent
// batches: the vertices whose single-source row a batch can change. A
// row is s(v, u) = (1/R) Σ_r C^{τ_r}, where τ_r is the first step at
// which walk r of v and walk r of u sit at the same (live) position, and
// the estimator adds the terms in ascending r. Suppose a batch moves walk
// step (u, r, t) from `old` to `new`, v's own walks did not move, and v's
// walk r sits at neither `old` nor `new` after t steps — i.e. v is in
// neither Bucket(r, t, old) nor Bucket(r, t, new). Then no meeting
// indicator of v changes, so neither does any τ_r nor the order of the
// additions: row v is bitwise unchanged. The set of a batch is therefore
// the vertices with a moved step plus both buckets of every moved step.
// QueryEngine uses RowUnchangedSince to keep serving a cached row across
// the batches that cannot change it.
#ifndef OIPSIM_SIMRANK_INDEX_DELTA_OVERLAY_H_
#define OIPSIM_SIMRANK_INDEX_DELTA_OVERLAY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "simrank/common/status.h"
#include "simrank/graph/digraph.h"
#include "simrank/index/walk_store.h"

namespace simrank {

/// One inverted-index entry: fingerprint-r walk of `vertex` sits at
/// `position` after t steps (the slot identifies r and t).
struct OverlayEntry {
  uint32_t position = 0;
  VertexId vertex = 0;

  friend bool operator==(const OverlayEntry&, const OverlayEntry&) = default;
  /// Slot diffs are sorted by (position, vertex), the same order the
  /// on-disk inverted blobs use.
  friend bool operator<(const OverlayEntry& a, const OverlayEntry& b) {
    return a.position != b.position ? a.position < b.position
                                    : a.vertex < b.vertex;
  }
};

/// Immutable patch set; thread-safe for concurrent reads.
class DeltaOverlay {
 public:
  /// Served positions of one (vertex, fingerprint) walk where they differ
  /// from the base store: suffix[i] is the position after t0 + i steps
  /// (kDeadWalk once the walk dies). Steps t0 and t0 + suffix.size() - 1
  /// both differ from the store; the steps between them may not, and
  /// every step outside them holds the store's position.
  struct WalkPatch {
    uint32_t t0 = 1;
    std::vector<uint32_t> suffix;

    /// Writes the patched steps over `walk`, one walk's L + 1 positions
    /// laid out by step.
    void WriteOver(uint32_t* walk) const {
      std::copy(suffix.begin(), suffix.end(), walk + t0);
    }
  };

  /// One patch-array element: the walk key (v << 32 | r) and its patch.
  using PatchEntry = std::pair<uint64_t, std::shared_ptr<const WalkPatch>>;

  /// Sparse diff of one inverted slot vs. the base store, both sides
  /// sorted by (position, vertex). An entry never appears on both sides,
  /// and `removed` entries always exist in the base slot.
  struct SlotDelta {
    std::vector<OverlayEntry> removed;
    std::vector<OverlayEntry> added;
  };

  /// How many batches' row-change sets an overlay keeps: 6.4 s of history
  /// at 10 batches/s. A row stamped before the oldest kept set is not
  /// known to be unchanged.
  static constexpr size_t kRowChangeWindow = 64;

  /// Monotone batch counter (1 for the first applied batch). Rows cached by
  /// a QueryEngine are stamped with this: a row stamped s is
  /// EstimateSingleSource(v) under the overlay of sequence s.
  uint64_t sequence() const { return sequence_; }

  /// True when v's single-source row under this overlay is bitwise its row
  /// under the overlay of sequence `stamp`: the stamps are equal, or every
  /// batch in (stamp, sequence()] has a kept row-change set and v is in
  /// none of them. False for a stamp newer than this overlay and for one
  /// older than the window.
  bool RowUnchangedSince(VertexId v, uint64_t stamp) const {
    if (stamp == sequence_) return true;
    if (stamp > sequence_ || row_changes_.empty() ||
        row_changes_.front()->sequence > stamp + 1) {
      return false;
    }
    for (auto it = row_changes_.rbegin();
         it != row_changes_.rend() && (*it)->sequence > stamp; ++it) {
      const std::vector<VertexId>& changed = (*it)->vertices;
      if (std::binary_search(changed.begin(), changed.end(), v)) {
        return false;
      }
    }
    return true;
  }

  /// Structural fingerprint of the updated graph this overlay represents —
  /// what GraphFingerprint() returns for rebuild-equivalent graphs.
  uint64_t graph_fingerprint() const { return graph_fingerprint_; }

  /// v's patches, ascending by fingerprint; empty when none of v's walks
  /// differs from the store.
  std::span<const PatchEntry> PatchesOf(VertexId v) const {
    auto begin = LowerBound(WalkKey(v, 0));
    auto end = begin;
    while (end != patches_.end() && (end->first >> 32) == v) ++end;
    return {begin, end};
  }

  /// The patch of walk (v, r), or nullptr when that walk is unchanged.
  const WalkPatch* FindPatch(VertexId v, uint32_t r) const {
    const uint64_t key = WalkKey(v, r);
    auto it = LowerBound(key);
    return it != patches_.end() && it->first == key ? it->second.get()
                                                    : nullptr;
  }

  /// Diff of slot (r, t) vs. the base store, or nullptr when unchanged.
  const SlotDelta* Delta(uint32_t r, uint32_t t) const {
    return deltas_[static_cast<size_t>(r) * walk_length_ + (t - 1)].get();
  }

  size_t patched_walk_count() const { return patches_.size(); }
  size_t changed_slot_count() const { return changed_slots_; }

  /// The store this overlay's patches and slot diffs are expressed
  /// against, when it differs from the index's original store: a
  /// background compaction publishes its merged store *through* the
  /// overlay it rebases (one RCU pointer swap hands queries a coherent
  /// (store, overlay) pair — see WalkIndex::ServingStore). Null for
  /// overlays over the load/build-time base store. The shared_ptr keeps
  /// superseded merged stores alive exactly as long as a reader still
  /// holds a snapshot expressed against them.
  const std::shared_ptr<const WalkStore>& rebased_store() const {
    return rebased_store_;
  }

 private:
  friend class IndexUpdater;

  /// The vertices whose single-source row batch `sequence` can change,
  /// sorted ascending.
  struct RowChanges {
    uint64_t sequence = 0;
    std::vector<VertexId> vertices;
  };

  static uint64_t WalkKey(VertexId v, uint32_t r) {
    return (static_cast<uint64_t>(v) << 32) | r;
  }

  std::vector<PatchEntry>::const_iterator LowerBound(uint64_t key) const {
    return std::lower_bound(
        patches_.begin(), patches_.end(), key,
        [](const PatchEntry& entry, uint64_t k) { return entry.first < k; });
  }

  uint64_t sequence_ = 0;
  uint64_t graph_fingerprint_ = 0;
  uint32_t walk_length_ = 0;
  /// See rebased_store().
  std::shared_ptr<const WalkStore> rebased_store_;
  /// Walk patches in ascending key order.
  std::vector<PatchEntry> patches_;
  /// Slot diffs indexed by slot r·L + (t-1); null where unchanged.
  std::vector<std::shared_ptr<const SlotDelta>> deltas_;
  /// Size counters, kept up to date as entries change.
  uint64_t patched_vertices_ = 0;
  uint64_t suffix_words_ = 0;
  uint64_t changed_slots_ = 0;
  uint64_t delta_entries_ = 0;
  /// Estimated heap bytes a compaction would release, compared against
  /// the updater's overlay budget; computed once at publish time.
  uint64_t resident_bytes_ = 0;
  /// Row-change sets of the batches up to sequence_, oldest first, at
  /// most kRowChangeWindow; consecutive sequences, shared with successors.
  /// Not counted in resident_bytes_: a compaction carries them over, so
  /// they could never bring an overlay back under its budget.
  std::vector<std::shared_ptr<const RowChanges>> row_changes_;
};

/// Vertex `v`'s walk row under base+overlay: the base row
/// (WalkStore::Row, whose layout it keeps) with each of v's patches
/// written over it. An unpatched row is the store's own, read in place on
/// the in-memory backend; a patched one is assembled in `*scratch`. The one
/// row accessor behind the estimators, the scan, compaction and the
/// router's /internal/walks exchange.
inline Result<const uint32_t*> MaterializeRow(const WalkStore& store,
                                              const DeltaOverlay* overlay,
                                              VertexId v,
                                              std::vector<uint32_t>* scratch) {
  Result<const uint32_t*> base = store.Row(v, scratch);
  if (!base.ok() || overlay == nullptr) return base;
  const std::span<const DeltaOverlay::PatchEntry> patches =
      overlay->PatchesOf(v);
  if (patches.empty()) return base;
  // A row read in place is copied before the patches go over it.
  if (*base != scratch->data()) {
    scratch->assign(*base, *base + store.WalkWords());
  }
  uint32_t* out = scratch->data();
  const size_t row = static_cast<size_t>(store.meta().walk_length) + 1;
  for (const auto& [key, patch] : patches) {
    patch->WriteOver(out + (key & 0xffffffffu) * row);
  }
  return out;
}

/// Calls `fn(vertex)` for every vertex whose fingerprint-r walk sits at
/// `position` after t steps under base+overlay, in ascending vertex order —
/// the exact sequence a store rebuilt on the updated graph would serve from
/// WalkStore::Bucket, which is what keeps overlay-served single-source rows
/// bitwise identical to a rebuild's. `overlay` may be null (base only).
template <typename Fn>
void ForEachBucketVertex(const WalkStore& store, const DeltaOverlay* overlay,
                         uint32_t r, uint32_t t, uint32_t position, Fn&& fn) {
  const std::span<const VertexId> base = store.Bucket(r, t, position);
  const DeltaOverlay::SlotDelta* delta =
      overlay == nullptr ? nullptr : overlay->Delta(r, t);
  if (delta == nullptr) {
    for (const VertexId b : base) fn(b);
    return;
  }
  auto range = [position](const std::vector<OverlayEntry>& entries) {
    const OverlayEntry lo{position, 0};
    const OverlayEntry hi{position, UINT32_MAX};
    auto begin = std::lower_bound(entries.begin(), entries.end(), lo);
    auto end = std::upper_bound(begin, entries.end(), hi);
    return std::pair(begin, end);
  };
  auto [rem, rem_end] = range(delta->removed);
  auto [add, add_end] = range(delta->added);
  size_t bi = 0;
  while (bi < base.size() || add != add_end) {
    if (bi < base.size()) {
      const VertexId b = base[bi];
      while (rem != rem_end && rem->vertex < b) ++rem;
      if (rem != rem_end && rem->vertex == b) {
        ++bi;  // this walk moved away from `position`
        ++rem;
        continue;
      }
      if (add == add_end || b < add->vertex) {
        fn(b);
        ++bi;
        continue;
      }
    }
    fn(add->vertex);
    ++add;
  }
}

/// Materializes the ForEachBucketVertex sequence into `out` (cleared
/// first) — the array form the vectorized accumulation kernel consumes.
/// Same vertices, same ascending order.
inline void CollectBucketVertices(const WalkStore& store,
                                  const DeltaOverlay* overlay, uint32_t r,
                                  uint32_t t, uint32_t position,
                                  std::vector<VertexId>* out) {
  out->clear();
  ForEachBucketVertex(store, overlay, r, t, position,
                      [out](const VertexId b) { out->push_back(b); });
}

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_DELTA_OVERLAY_H_
