// Storage layer of the walk index: the versioned v2 segmented on-disk
// format and the two backends that serve it.
//
// Version 2 stores each vertex's *walk row* as one segment (optionally
// delta+varint-compressed: a pair query touches two contiguous byte
// ranges instead of the v1 format's R·L strided words) plus a
// per-(fingerprint, step) *inverted position index* mapping a walk
// position to the vertices whose walk is there — the data structure
// behind the output-sensitive single-source path (ProbeSim-style:
// accumulation only over vertices that actually appear at some slot,
// instead of a full O(R·L·n) row scan).
//
// On-disk layout (native-endian, like graph_io's binary format; offsets
// are absolute bytes unless marked relative):
//
//   page 0      header, 104 bytes used, zero-padded to the directory
//   page 1..    segment directory (page-aligned):
//                 uint64 seg_rel[n+1]     vertex v's segment occupies
//                                         [seg_rel[v], seg_rel[v+1])
//                                         relative to segments_offset
//                 uint64 inv_rel[R·L+1]   slot s = r·L + (t-1); blob at
//                                         [inv_rel[s], inv_rel[s+1])
//                                         relative to inverted_offset
//   ...         per-vertex walk segments (page-aligned region start)
//   ...         inverted index blobs (page-aligned region start):
//                 per slot: uint32 positions[m] sorted ascending, then
//                 uint32 vertices[m] (ascending within equal positions)
//
// The header carries three checksums: over its own fields, over the
// directory (an extent that starts right after the header fields, so the
// header page's alignment padding is covered too), and over the two
// payload regions — together they cover every byte of the file.
// InMemoryWalkStore (full read at open)
// verifies all three; MmapWalkStore verifies header + directory only — by
// design it never reads the payload at open (pages fault in on demand) —
// and defends every decode with bounds checks instead; VerifyPayload()
// performs the full payload sweep on request.
#ifndef OIPSIM_SIMRANK_INDEX_WALK_STORE_H_
#define OIPSIM_SIMRANK_INDEX_WALK_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "simrank/common/status.h"
#include "simrank/graph/digraph.h"

namespace simrank {

/// Format-level cap on walk_length, enforced at build and load. The
/// truncation weight C^t is dozens of orders of magnitude below the
/// estimator's resolution long before this many steps (FromAccuracy never
/// derives more), and the cap bounds the decoded walk table any header
/// can demand to ~4·(kMaxWalkLength+1) × its real segment bytes — a
/// crafted small file cannot request an absurd allocation.
inline constexpr uint32_t kMaxWalkLength = 10000;

/// Model parameters and provenance persisted in a v2 index header.
struct WalkStoreMeta {
  uint32_t n = 0;
  uint32_t num_fingerprints = 0;
  uint32_t walk_length = 0;
  double damping = 0.0;
  uint64_t seed = 0;
  uint64_t graph_fingerprint = 0;
};

/// Read-only access to one graph's stored walks and their inverted
/// position index. Implementations are immutable after construction and
/// thread-safe for concurrent reads.
class WalkStore {
 public:
  /// Sentinel position of a walk that left a vertex with no in-neighbours.
  static constexpr uint32_t kDeadWalk = UINT32_MAX;

  virtual ~WalkStore() = default;

  const WalkStoreMeta& meta() const { return meta_; }

  /// Words in one vertex's walk row: num_fingerprints walks of
  /// (walk_length + 1) steps.
  size_t WalkWords() const {
    return static_cast<size_t>(meta_.num_fingerprints) *
           (meta_.walk_length + 1);
  }

  /// Vertex `v`'s walk row, WalkWords() words: row[r·(L+1) + t] is the
  /// position after t steps of fingerprint r's walk, kDeadWalk from the
  /// step the walk died onwards; row[r·(L+1)] is always v. The in-memory
  /// backend returns a pointer into its resident table (no copy; `scratch`
  /// is left alone); the mmap backend decodes into `*scratch`, resized to
  /// WalkWords(), and traces the decode. The row stays valid while the
  /// store and `*scratch` are unchanged. Returns a ParseError naming the
  /// corrupt byte offset when the backing bytes are malformed (reachable
  /// only on the mmap backend, whose payload is not checksummed at open).
  virtual Result<const uint32_t*> Row(VertexId v,
                                      std::vector<uint32_t>* scratch) const = 0;

  /// One slot of the inverted index: the alive walks at (fingerprint r,
  /// step t), as parallel arrays sorted by (position, vertex).
  struct SlotView {
    const uint32_t* positions = nullptr;
    const uint32_t* vertices = nullptr;
    size_t count = 0;
  };

  /// Slot accessor; r < num_fingerprints, 1 <= t <= walk_length.
  virtual SlotView Slot(uint32_t r, uint32_t t) const = 0;

  /// The vertices whose fingerprint-r walk sits at `position` after t
  /// steps, ascending — the output-sensitive single-source path iterates
  /// exactly these instead of all n rows. One O(log n) search: a batch of
  /// one through ResolveBuckets' resolver.
  std::span<const VertexId> Bucket(uint32_t r, uint32_t t,
                                   uint32_t position) const;

  /// One lookup of ResolveBuckets: the bucket of `position` in slot
  /// (r, t).
  struct BucketKey {
    uint32_t r = 0;
    uint32_t t = 0;
    uint32_t position = 0;
  };

  /// Sets out[i] to Bucket(keys[i].r, keys[i].t, keys[i].position) for
  /// every i (out.size() == keys.size()). The searches run kRangeGroup at a
  /// time, interleaved and prefetched (ResolveEqualRanges), so a caller
  /// that knows its lookups up front — a single-source row's R·L slots, an
  /// update's row-change probes — overlaps their cache misses instead of
  /// waiting on one search's chain of misses after another. Reads only
  /// inside each slot's entries.
  void ResolveBuckets(std::span<const BucketKey> keys,
                      std::span<std::span<const VertexId>> out) const;

  /// Heap (plus, for mmap, unavoidably-touched page) bytes this store
  /// keeps resident, independent of what the kernel has faulted in.
  virtual uint64_t ResidentBytes() const = 0;

  /// Advises the OS to read the walk segments of `vertices` ahead of
  /// queries. The mmap backend sorts the list, skips out-of-range ids and
  /// issues one madvise(MADV_WILLNEED) per coalesced page run. Purely a
  /// scheduling hint: results are identical with or without it. No-op on
  /// backends that are already resident.
  virtual void Prefetch(std::span<const VertexId> vertices) const {
    (void)vertices;
  }

  /// Advises the OS to read the whole inverted-index region, which an
  /// output-sensitive single-source query walks bucket by bucket. Backends
  /// that are already resident no-op; the mmap backend issues one
  /// madvise(MADV_WILLNEED) over the region, once per store. Purely a
  /// hint, like Prefetch.
  virtual void PrefetchSlots() const {}

  /// Always false: no backend reads through an io_uring. Kept for the
  /// callers that still report it.
  bool UsesIoUring() const { return false; }

  /// Recomputes the payload checksum against the header's. The in-memory
  /// backend verified it at open and returns OK immediately; the mmap
  /// backend performs the full payload read this entails.
  virtual Status VerifyPayload() const { return Status::OK(); }

  /// "in-memory" or "mmap"; bench and diagnostics labels.
  virtual const char* backend_name() const = 0;

 protected:
  WalkStore() = default;

  WalkStoreMeta meta_;
};

/// Serialization knobs of SaveWalkStore.
struct WalkStoreSaveOptions {
  /// Delta+varint-compress the per-vertex segments (the inverted index
  /// stays raw for O(log n) mmap bucket searches). Roughly halves the
  /// segment region on web-style graphs at a small decode cost.
  bool compress = false;
};

/// Writes `store` as a v2 index file. Deterministic: equal stores and
/// options produce byte-identical files, regardless of backend.
Status SaveWalkStore(const WalkStore& store, const std::string& path,
                     const WalkStoreSaveOptions& options = {});

/// Backend that keeps every walk row (and the inverted index) decoded in
/// RAM: fastest per query, rows read in place; open cost and footprint
/// are linear in the payload.
class InMemoryWalkStore final : public WalkStore {
 public:
  /// Wraps a freshly built walk table — vertex v's row (see Row) at
  /// walks[v·WalkWords()] — and constructs the
  /// inverted index from it, parallelised across `num_threads` (0 =
  /// hardware concurrency) with thread-count-independent output.
  InMemoryWalkStore(const WalkStoreMeta& meta, std::vector<uint32_t> walks,
                    uint32_t num_threads = 1);

  /// Reads and fully verifies (all three checksums) a v2 file, decoding
  /// every segment into its row of the resident table. The per-vertex
  /// decode — the dominant cost of a cold open — is parallelised over
  /// disjoint vertex ranges across `num_threads` workers (0 = hardware
  /// concurrency); every thread count produces a bitwise-identical store
  /// and, on corrupt input, the same first-corrupt-vertex error as the
  /// serial pass.
  static Result<std::unique_ptr<InMemoryWalkStore>> Open(
      const std::string& path, uint32_t num_threads = 0);

  Result<const uint32_t*> Row(VertexId v,
                              std::vector<uint32_t>* scratch) const override;
  SlotView Slot(uint32_t r, uint32_t t) const override;
  uint64_t ResidentBytes() const override;
  const char* backend_name() const override { return "in-memory"; }

 private:
  InMemoryWalkStore() = default;

  void BuildInverted(uint32_t num_threads);

  /// Walk rows: vertex v's row occupies [v·WalkWords(), (v+1)·WalkWords()).
  std::vector<uint32_t> walks_;
  /// Inverted index: slot s = r·L + (t-1) occupies entry range
  /// [slot_offsets_[s], slot_offsets_[s+1]) of the two parallel arrays.
  std::vector<uint64_t> slot_offsets_;
  std::vector<uint32_t> inverted_positions_;
  std::vector<uint32_t> inverted_vertices_;
};

/// Backend that maps the file and serves straight from the page cache:
/// open reads only the header and directory, the payload faults in on
/// demand. Segments are decoded per access; buckets are binary searches
/// over the mapped arrays. POSIX-only (Status::Unimplemented elsewhere).
class MmapWalkStore final : public WalkStore {
 public:
  static Result<std::unique_ptr<MmapWalkStore>> Open(
      const std::string& path);

  ~MmapWalkStore() override;

  Result<const uint32_t*> Row(VertexId v,
                              std::vector<uint32_t>* scratch) const override;
  SlotView Slot(uint32_t r, uint32_t t) const override;
  uint64_t ResidentBytes() const override;
  Status VerifyPayload() const override;
  void Prefetch(std::span<const VertexId> vertices) const override;
  void PrefetchSlots() const override;
  const char* backend_name() const override { return "mmap"; }

 private:
  MmapWalkStore();

  std::string path_;
  const uint8_t* data_ = nullptr;  // whole-file read-only mapping
  size_t size_ = 0;
  bool compressed_ = false;
  uint64_t payload_checksum_ = 0;
  // Directory views into the mapping.
  const uint64_t* seg_rel_ = nullptr;  // n + 1 entries
  const uint64_t* inv_rel_ = nullptr;  // R·L + 1 entries
  const uint8_t* segments_base_ = nullptr;
  const uint8_t* inverted_base_ = nullptr;
  uint64_t segments_bytes_ = 0;
  uint64_t inverted_bytes_ = 0;
  uint64_t directory_bytes_ = 0;
  mutable std::atomic<bool> slots_prefetched_{false};
};

/// Header/directory summary of an index file, readable without loading
/// (or even mapping) the payload. Powers `simrank_cli index-info`.
struct WalkIndexInfo {
  uint32_t version = 0;
  bool compressed = false;
  WalkStoreMeta meta;
  uint64_t file_bytes = 0;
  uint64_t directory_bytes = 0;
  /// Size of the (possibly compressed) segment region on disk.
  uint64_t segment_bytes = 0;
  uint64_t inverted_bytes = 0;
  /// What the decoded walk rows occupy: n · R · (L+1) · 4 bytes.
  uint64_t raw_walk_bytes = 0;
};

/// Reads and validates the header of a v2 index file (magic, version,
/// header checksum, declared sizes vs the real file).
Result<WalkIndexInfo> ReadWalkIndexInfo(const std::string& path);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_WALK_STORE_H_
