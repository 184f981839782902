// In-memory patch set over an immutable WalkStore.
//
// A DeltaOverlay is what an IndexUpdater publishes after applying an edge
// batch: for every (vertex, fingerprint) walk whose positions changed, the
// re-simulated *suffix* of that walk (positions from its first affected
// step onwards), and for every (fingerprint, step) slot whose contents
// changed, a sparse diff of the inverted position index *relative to the
// base store* (entries removed because a walk left a position, entries
// added because one arrived). Storing suffixes instead of whole patched
// segments keeps an update batch O(affected walk-steps), not
// O(affected vertices · R · L) — the difference between microseconds and
// milliseconds per batch — at the cost of one extra hash lookup per
// (patched vertex, fingerprint) on the read side, which only queries that
// touch patched vertices ever pay.
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
#include <unordered_map>
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
  /// Re-simulated positions of one (vertex, fingerprint) walk: suffix[i]
  /// is the position after t0 + i steps (kDeadWalk once the walk dies).
  /// The patch covers exactly steps [t0, t0 + suffix.size()); everywhere
  /// else the walk still holds the base store's positions — re-simulated
  /// walks usually re-couple with their old path within a step or two
  /// (the same coalescence SimRank itself rests on), so patches stay a
  /// few words long instead of O(L).
  struct WalkPatch {
    uint32_t t0 = 1;
    std::vector<uint32_t> suffix;

    bool Covers(uint32_t t) const {
      return t >= t0 && t - t0 < suffix.size();
    }
    uint32_t Position(uint32_t t) const { return suffix[t - t0]; }
  };

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

  /// True when any of v's walks is patched — the one-hash fast-path test
  /// every overlay-aware read does first.
  bool IsPatched(VertexId v) const {
    return patch_counts_.find(v) != patch_counts_.end();
  }

  /// The patch of walk (v, r), or nullptr when that walk is unchanged.
  const WalkPatch* FindPatch(VertexId v, uint32_t r) const {
    auto it = patches_.find(WalkKey(v, r));
    return it == patches_.end() ? nullptr : it->second.get();
  }

  /// Diff of slot (r, t) vs. the base store, or nullptr when unchanged.
  const SlotDelta* Delta(uint32_t r, uint32_t t) const {
    auto it = deltas_.find(SlotId(r, t));
    return it == deltas_.end() ? nullptr : it->second.get();
  }

  size_t patched_vertex_count() const { return patch_counts_.size(); }
  size_t patched_walk_count() const { return patches_.size(); }
  size_t changed_slot_count() const { return deltas_.size(); }

  /// Total entries across all slot diffs (removed + added); a size gauge.
  uint64_t delta_entry_count() const { return delta_entries_; }

  /// Estimated heap bytes this overlay keeps resident (patches, slot
  /// diffs, hash-map overhead). What the updater's --overlay-budget is
  /// compared against; computed once at publish time.
  uint64_t resident_bytes() const { return resident_bytes_; }

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

  /// The patched vertices and how many of their walks are patched;
  /// iteration support for Compact() and the scan estimator.
  const std::unordered_map<VertexId, uint32_t>& patched_vertices() const {
    return patch_counts_;
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

  uint64_t SlotId(uint32_t r, uint32_t t) const {
    return static_cast<uint64_t>(r) * walk_length_ + (t - 1);
  }

  uint64_t sequence_ = 0;
  uint64_t graph_fingerprint_ = 0;
  uint32_t walk_length_ = 0;
  uint64_t delta_entries_ = 0;
  uint64_t resident_bytes_ = 0;
  /// See rebased_store().
  std::shared_ptr<const WalkStore> rebased_store_;
  /// Walk patches keyed by (v << 32 | r). Values are shared with successor
  /// overlays for walks later batches did not touch again.
  std::unordered_map<uint64_t, std::shared_ptr<const WalkPatch>> patches_;
  /// Patched-walk count per vertex — the read side's fast membership test.
  std::unordered_map<VertexId, uint32_t> patch_counts_;
  /// Slot diffs keyed by slot id r·L + (t-1), shared like patches_.
  std::unordered_map<uint64_t, std::shared_ptr<const SlotDelta>> deltas_;
  /// Row-change sets of the batches up to sequence_, oldest first, at
  /// most kRowChangeWindow; consecutive sequences, shared with successors.
  /// Not counted in resident_bytes_: a compaction carries them over, so
  /// they could never bring an overlay back under its budget.
  std::vector<std::shared_ptr<const RowChanges>> row_changes_;
};

/// Vertex `v`'s walk row under base+overlay: the base row
/// (WalkStore::Row, whose layout it keeps) with every patched suffix
/// written over it. An unpatched row is the store's own, read in place on the
/// in-memory backend; a patched one is assembled in `*scratch`. The one
/// row accessor behind the estimators, the scan, compaction and the
/// router's /internal/walks exchange.
inline Result<const uint32_t*> MaterializeRow(const WalkStore& store,
                                              const DeltaOverlay* overlay,
                                              VertexId v,
                                              std::vector<uint32_t>* scratch) {
  Result<const uint32_t*> base = store.Row(v, scratch);
  if (!base.ok() || overlay == nullptr || !overlay->IsPatched(v)) {
    return base;
  }
  // A row read in place is copied before the patches go over it.
  if (*base != scratch->data()) {
    scratch->assign(*base, *base + store.WalkWords());
  }
  uint32_t* out = scratch->data();
  const uint32_t L = store.meta().walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  for (uint32_t r = 0; r < store.meta().num_fingerprints; ++r) {
    const DeltaOverlay::WalkPatch* patch = overlay->FindPatch(v, r);
    if (patch == nullptr) continue;
    const uint32_t end = std::min(
        L, patch->t0 + static_cast<uint32_t>(patch->suffix.size()) - 1);
    for (uint32_t t = patch->t0; t <= end; ++t) {
      out[r * row + t] = patch->Position(t);
    }
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
