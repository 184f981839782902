#include "simrank/index/walk_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "simrank/common/macros.h"
#include "simrank/common/simd.h"
#include "simrank/common/stream_hash.h"
#include "simrank/common/string_util.h"
#include "simrank/common/thread_pool.h"
#include "simrank/common/varint.h"
#include "simrank/obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#define OIPSIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace simrank {
namespace {

// v2 format constants. The magic is shared with v1 (the version field
// distinguishes them, which is what lets Load name the version it found).
constexpr uint32_t kIndexMagic = 0x58444957;  // "WIDX"
constexpr uint32_t kIndexVersion = 2;
constexpr uint64_t kPageSize = 4096;
constexpr size_t kHeaderBytes = 104;
// Domain salts of the three header checksums. Part of the on-disk format.
constexpr uint64_t kHeaderSalt = 0x5349574b32484452ULL;     // "SIWK2HDR"
constexpr uint64_t kDirectorySalt = 0x5349574b32444952ULL;  // "SIWK2DIR"
constexpr uint64_t kPayloadSalt = 0x5349574b32504159ULL;    // "SIWK2PAY"

constexpr uint32_t kFlagCompressedSegments = 1u << 0;

constexpr uint32_t kDead = WalkStore::kDeadWalk;

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

uint64_t DampingBits(double damping) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(damping));
  std::memcpy(&bits, &damping, sizeof(bits));
  return bits;
}

double DampingFromBits(uint64_t bits) {
  double damping = 0;
  std::memcpy(&damping, &bits, sizeof(damping));
  return damping;
}

template <typename T>
T ReadScalar(const uint8_t* bytes) {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

template <typename T>
void WriteScalar(uint8_t* bytes, T value) {
  std::memcpy(bytes, &value, sizeof(T));
}

void AppendWord(std::vector<uint8_t>* out, uint32_t value) {
  const size_t at = out->size();
  out->resize(at + sizeof(value));
  std::memcpy(out->data() + at, &value, sizeof(value));
}

/// RAII FILE handle so every early return closes the stream.
struct FileCloser {
  explicit FileCloser(std::FILE* f) : file(f) {}
  ~FileCloser() {
    if (file != nullptr) std::fclose(file);
  }
  std::FILE* file;
};

/// Everything the fixed-size header declares, after validation against the
/// real file size.
struct ParsedLayout {
  WalkStoreMeta meta;
  bool compressed = false;
  uint64_t directory_offset = 0;
  uint64_t segments_offset = 0;
  uint64_t inverted_offset = 0;
  uint64_t file_size = 0;
  uint64_t payload_checksum = 0;
  uint64_t directory_checksum = 0;
  uint64_t num_slots = 0;       // R·L
  uint64_t directory_bytes = 0;  // 8·(n+1 + num_slots+1)
};

/// Parses and validates the v2 header. `available` is how many bytes of
/// `bytes` are readable (>= kHeaderBytes for a well-formed file);
/// `file_size` is the real on-disk size, checked against the declared one
/// so truncation is reported with the exact missing range.
Result<ParsedLayout> ParseHeaderBytes(const uint8_t* bytes, size_t available,
                                      uint64_t file_size,
                                      const std::string& path) {
  if (available < 8) {
    return Status::ParseError(
        StrFormat("%s is not a walk index: only %llu bytes, the magic and "
                  "version alone need 8",
                  path.c_str(), static_cast<unsigned long long>(file_size)));
  }
  const uint32_t magic = ReadScalar<uint32_t>(bytes);
  if (magic != kIndexMagic) {
    return Status::ParseError(
        StrFormat("%s is not a walk index file: magic 0x%08x at offset 0, "
                  "expected 0x%08x",
                  path.c_str(), magic, kIndexMagic));
  }
  const uint32_t version = ReadScalar<uint32_t>(bytes + 4);
  if (version != kIndexVersion) {
    return Status::ParseError(StrFormat(
        "walk index version %u found in %s but this build supports only "
        "version %u; rebuild the index with 'simrank_cli build-index' "
        "(v1 flat indexes cannot be served in place)",
        version, path.c_str(), kIndexVersion));
  }
  if (available < kHeaderBytes) {
    return Status::ParseError(StrFormat(
        "truncated walk index header in %s: %llu bytes on disk, the v2 "
        "header is %zu (corruption from offset %llu)",
        path.c_str(), static_cast<unsigned long long>(file_size),
        kHeaderBytes, static_cast<unsigned long long>(file_size)));
  }

  ParsedLayout layout;
  layout.meta.n = ReadScalar<uint32_t>(bytes + 8);
  layout.meta.num_fingerprints = ReadScalar<uint32_t>(bytes + 12);
  layout.meta.walk_length = ReadScalar<uint32_t>(bytes + 16);
  const uint32_t flags = ReadScalar<uint32_t>(bytes + 20);
  layout.meta.seed = ReadScalar<uint64_t>(bytes + 24);
  layout.meta.damping = DampingFromBits(ReadScalar<uint64_t>(bytes + 32));
  layout.meta.graph_fingerprint = ReadScalar<uint64_t>(bytes + 40);
  layout.directory_offset = ReadScalar<uint64_t>(bytes + 48);
  layout.segments_offset = ReadScalar<uint64_t>(bytes + 56);
  layout.inverted_offset = ReadScalar<uint64_t>(bytes + 64);
  layout.file_size = ReadScalar<uint64_t>(bytes + 72);
  layout.payload_checksum = ReadScalar<uint64_t>(bytes + 80);
  layout.directory_checksum = ReadScalar<uint64_t>(bytes + 88);
  const uint64_t stored_header_checksum = ReadScalar<uint64_t>(bytes + 96);

  StreamHasher hasher(kHeaderSalt);
  hasher.AbsorbBytes(bytes, kHeaderBytes - sizeof(uint64_t));
  if (hasher.digest() != stored_header_checksum) {
    return Status::ParseError(
        StrFormat("walk index header checksum mismatch in %s (bytes 0..%zu)",
                  path.c_str(), kHeaderBytes - sizeof(uint64_t)));
  }

  if (flags & ~kFlagCompressedSegments) {
    return Status::ParseError(
        StrFormat("unknown flag bits 0x%08x in walk index %s", flags,
                  path.c_str()));
  }
  layout.compressed = (flags & kFlagCompressedSegments) != 0;

  if (layout.meta.num_fingerprints == 0 || layout.meta.walk_length == 0 ||
      !(layout.meta.damping > 0.0 && layout.meta.damping < 1.0)) {
    return Status::ParseError(
        "invalid options in walk index header: " + path);
  }
  if (layout.meta.walk_length > kMaxWalkLength) {
    return Status::ParseError(StrFormat(
        "walk index %s declares walk_length %u, beyond the format maximum "
        "%u",
        path.c_str(), layout.meta.walk_length, kMaxWalkLength));
  }

  if (layout.file_size != file_size) {
    if (file_size < layout.file_size) {
      return Status::ParseError(StrFormat(
          "walk index %s is truncated: %llu bytes on disk, header declares "
          "%llu — data missing from offset %llu onwards",
          path.c_str(), static_cast<unsigned long long>(file_size),
          static_cast<unsigned long long>(layout.file_size),
          static_cast<unsigned long long>(file_size)));
    }
    return Status::ParseError(StrFormat(
        "walk index %s has %llu trailing bytes beyond the declared size "
        "%llu (corruption from offset %llu)",
        path.c_str(),
        static_cast<unsigned long long>(file_size - layout.file_size),
        static_cast<unsigned long long>(layout.file_size),
        static_cast<unsigned long long>(layout.file_size)));
  }

  layout.num_slots = static_cast<uint64_t>(layout.meta.num_fingerprints) *
                     layout.meta.walk_length;
  // 128-bit so a crafted header can neither wrap the directory size nor
  // slip a huge one past the region checks.
  const auto wide_dir_bytes =
      (static_cast<unsigned __int128>(layout.meta.n) + 1 +
       layout.num_slots + 1) *
      8;
  const bool regions_ok =
      layout.directory_offset == kPageSize &&
      layout.segments_offset % kPageSize == 0 &&
      layout.inverted_offset % kPageSize == 0 &&
      layout.segments_offset >= layout.directory_offset &&
      layout.inverted_offset >= layout.segments_offset &&
      layout.inverted_offset <= layout.file_size &&
      wide_dir_bytes <=
          layout.segments_offset - layout.directory_offset;
  if (!regions_ok) {
    return Status::ParseError(StrFormat(
        "walk index %s declares inconsistent regions: directory at %llu, "
        "segments at %llu, inverted index at %llu, file size %llu",
        path.c_str(),
        static_cast<unsigned long long>(layout.directory_offset),
        static_cast<unsigned long long>(layout.segments_offset),
        static_cast<unsigned long long>(layout.inverted_offset),
        static_cast<unsigned long long>(layout.file_size)));
  }
  layout.directory_bytes = static_cast<uint64_t>(wide_dir_bytes);

  // Geometry sanity beyond the directory: every vertex segment stores at
  // least a walk-length prefix per fingerprint ((compressed ? 1 : 4)
  // bytes), so the segment region must hold n·R·min bytes — a crafted
  // header cannot declare a walk table the file plainly does not back
  // (the v1 loader made the equivalent promise). Dead-walk compression
  // still allows up to 4·(L+1)× decode amplification of real bytes; a
  // pathological-but-consistent file therefore fails with a clean
  // allocation error, never a wrapped size: the decoded extent is
  // computed in 128 bits and capped before any resize.
  const auto wide_min_segment_bytes =
      static_cast<unsigned __int128>(layout.meta.n) *
      layout.meta.num_fingerprints * (layout.compressed ? 1 : 4);
  if (wide_min_segment_bytes >
      layout.inverted_offset - layout.segments_offset) {
    return Status::ParseError(StrFormat(
        "walk index %s: segment region holds %llu bytes, too small for "
        "the declared geometry (n=%u, R=%u need at least %llu)",
        path.c_str(),
        static_cast<unsigned long long>(layout.inverted_offset -
                                        layout.segments_offset),
        layout.meta.n, layout.meta.num_fingerprints,
        static_cast<unsigned long long>(wide_min_segment_bytes)));
  }
  const auto wide_decoded_words =
      static_cast<unsigned __int128>(layout.meta.n) *
      layout.meta.num_fingerprints *
      (static_cast<uint64_t>(layout.meta.walk_length) + 1);
  if (wide_decoded_words > (1ULL << 58)) {
    return Status::ParseError(StrFormat(
        "walk index %s declares a decoded walk table beyond addressable "
        "memory (n=%u, R=%u, L=%u)",
        path.c_str(), layout.meta.n, layout.meta.num_fingerprints,
        layout.meta.walk_length));
  }
  return layout;
}

/// Validates the directory arrays: monotone, within their regions, blob
/// sizes well-formed. Shared by both backends.
Status ValidateDirectory(const ParsedLayout& layout, const uint64_t* seg_rel,
                         const uint64_t* inv_rel, const std::string& path) {
  const uint64_t segments_capacity =
      layout.inverted_offset - layout.segments_offset;
  if (seg_rel[0] != 0 || seg_rel[layout.meta.n] > segments_capacity) {
    return Status::ParseError(StrFormat(
        "walk index %s: segment directory spans [%llu, %llu) but the "
        "segment region holds %llu bytes",
        path.c_str(), static_cast<unsigned long long>(seg_rel[0]),
        static_cast<unsigned long long>(seg_rel[layout.meta.n]),
        static_cast<unsigned long long>(segments_capacity)));
  }
  for (uint32_t v = 0; v < layout.meta.n; ++v) {
    if (seg_rel[v] > seg_rel[v + 1]) {
      return Status::ParseError(StrFormat(
          "walk index %s: segment directory not monotone at vertex %u "
          "(directory byte offset %llu)",
          path.c_str(), v,
          static_cast<unsigned long long>(layout.directory_offset +
                                          static_cast<uint64_t>(v) * 8)));
    }
  }
  const uint64_t inverted_capacity =
      layout.file_size - layout.inverted_offset;
  if (inv_rel[0] != 0 || inv_rel[layout.num_slots] != inverted_capacity) {
    return Status::ParseError(StrFormat(
        "walk index %s: inverted-index directory covers %llu bytes but the "
        "region holds %llu",
        path.c_str(),
        static_cast<unsigned long long>(inv_rel[layout.num_slots]),
        static_cast<unsigned long long>(inverted_capacity)));
  }
  const uint64_t max_blob = static_cast<uint64_t>(layout.meta.n) * 8;
  for (uint64_t s = 0; s < layout.num_slots; ++s) {
    const bool ok = inv_rel[s] <= inv_rel[s + 1] &&
                    (inv_rel[s + 1] - inv_rel[s]) % 8 == 0 &&
                    inv_rel[s + 1] - inv_rel[s] <= max_blob;
    if (!ok) {
      return Status::ParseError(StrFormat(
          "walk index %s: inverted-index directory corrupt at slot %llu "
          "(directory byte offset %llu)",
          path.c_str(), static_cast<unsigned long long>(s),
          static_cast<unsigned long long>(
              layout.directory_offset +
              (static_cast<uint64_t>(layout.meta.n) + 1 + s) * 8)));
    }
  }
  return Status::OK();
}

uint64_t DirectoryChecksum(const uint8_t* directory, uint64_t bytes);

/// Shared open-time directory handling for both backends: verifies the
/// directory checksum (whose extent starts right after the header fields,
/// covering the header page's padding), exposes the two directory arrays
/// as views into `base`, and validates their contents.
Status OpenDirectory(const uint8_t* base, const ParsedLayout& layout,
                     const std::string& path, const uint64_t** seg_rel,
                     const uint64_t** inv_rel) {
  if (DirectoryChecksum(base + kHeaderBytes,
                        layout.segments_offset - kHeaderBytes) !=
      layout.directory_checksum) {
    return Status::ParseError(StrFormat(
        "walk index directory checksum mismatch in %s (bytes %zu..%llu)",
        path.c_str(), kHeaderBytes,
        static_cast<unsigned long long>(layout.segments_offset)));
  }
  *seg_rel =
      reinterpret_cast<const uint64_t*>(base + layout.directory_offset);
  *inv_rel = *seg_rel + layout.meta.n + 1;
  return ValidateDirectory(layout, *seg_rel, *inv_rel, path);
}

uint64_t PayloadChecksum(const uint8_t* segments, uint64_t segment_bytes,
                         const uint8_t* inverted, uint64_t inverted_bytes) {
  StreamHasher hasher(kPayloadSalt);
  hasher.AbsorbBytes(segments, segment_bytes);
  hasher.AbsorbBytes(inverted, inverted_bytes);
  return hasher.digest();
}

uint64_t DirectoryChecksum(const uint8_t* directory, uint64_t bytes) {
  StreamHasher hasher(kDirectorySalt);
  hasher.AbsorbBytes(directory, bytes);
  return hasher.digest();
}

/// Decodes one vertex's segment [begin, end) into `out` (WalkWords()
/// layout). `abs_offset` is begin's absolute file offset, used to report
/// the exact corruption site.
Status DecodeSegment(const WalkStoreMeta& meta, bool compressed, VertexId v,
                     const uint8_t* begin, const uint8_t* end,
                     uint64_t abs_offset, const std::string& path,
                     uint32_t* out) {
  const uint32_t L = meta.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
    out[r * row] = v;
    for (uint32_t t = 1; t <= L; ++t) out[r * row + t] = kDead;
  }
  const uint8_t* cursor = begin;
  auto corrupt = [&](const char* what) {
    return Status::ParseError(StrFormat(
        "walk segment of vertex %u in %s: %s at byte offset %llu", v,
        path.c_str(), what,
        static_cast<unsigned long long>(abs_offset + (cursor - begin))));
  };
  const SimdLevel simd = ActiveSimdLevel();
  for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
    uint32_t length = 0;
    if (compressed) {
      if (!DecodeVarint32(&cursor, end, &length)) {
        return corrupt("malformed walk-length varint");
      }
    } else {
      if (end - cursor < 4) return corrupt("truncated walk length");
      length = ReadScalar<uint32_t>(cursor);
      cursor += 4;
    }
    if (length > L) return corrupt("walk length exceeds walk_length");
    uint32_t prev = v;
    uint32_t t = 1;
    // Vector fast path: bulk-decode a validated prefix of this walk. The
    // kernels commit only whole in-range chunks and leave the cursor at
    // the first byte they did not consume, so the scalar loop below picks
    // up the tail — and is the only place malformed bytes are diagnosed,
    // at the same offsets as a scalar-only decode.
    if (simd != SimdLevel::kScalar && length > 0) {
      uint32_t* dst = out + r * row;
      const size_t bulk =
          compressed
              ? DecodeDeltaRun(simd, &cursor, end, prev, meta.n, dst + 1,
                               length)
              : CopyCheckedWords(simd, &cursor, end, meta.n, dst + 1,
                                 length);
      if (bulk > 0) {
        t += static_cast<uint32_t>(bulk);
        prev = dst[bulk];
      }
    }
    for (; t <= length; ++t) {
      uint32_t position = 0;
      if (compressed) {
        uint64_t zigzag = 0;
        if (!DecodeVarint64(&cursor, end, &zigzag)) {
          return corrupt("malformed position-delta varint");
        }
        // Legal deltas have magnitude < n, so their zigzag codes are
        // < 2n. Reject larger ones *before* decoding: it keeps the
        // int64 addition below overflow-free (UB) for any input.
        if (zigzag >= 2 * static_cast<uint64_t>(meta.n)) {
          return corrupt("position delta out of range");
        }
        const int64_t value =
            static_cast<int64_t>(prev) + ZigZagDecode64(zigzag);
        if (value < 0 || value >= static_cast<int64_t>(meta.n)) {
          return corrupt("decoded position out of range");
        }
        position = static_cast<uint32_t>(value);
      } else {
        if (end - cursor < 4) return corrupt("truncated position");
        position = ReadScalar<uint32_t>(cursor);
        cursor += 4;
        if (position >= meta.n) return corrupt("position out of range");
      }
      out[r * row + t] = position;
      prev = position;
    }
  }
  if (cursor != end) return corrupt("trailing bytes after the last walk");
  return Status::OK();
}

/// Reads the whole file into `out`. Returns the real size even on short
/// files so callers can report it.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open: " + path);
  FileCloser closer(f);
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const int64_t size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      std::fread(out->data(), 1, out->size(), f) != out->size()) {
    return Status::IoError("short read: " + path);
  }
  return Status::OK();
}

}  // namespace

std::span<const VertexId> WalkStore::Bucket(uint32_t r, uint32_t t,
                                            uint32_t position) const {
  const SlotView slot = Slot(r, t);
  RangeProbe probe{slot.positions, slot.vertices, slot.count, position};
  ResolveEqualRanges<1>({&probe, 1});
  return {slot.vertices + probe.begin, probe.end - probe.begin};
}

void WalkStore::ResolveBuckets(std::span<const BucketKey> keys,
                               std::span<std::span<const VertexId>> out) const {
  OIPSIM_DCHECK(out.size() == keys.size());
  RangeProbe probes[kRangeGroup];
  for (size_t at = 0; at < keys.size(); at += kRangeGroup) {
    const size_t group = std::min(kRangeGroup, keys.size() - at);
    for (size_t i = 0; i < group; ++i) {
      const BucketKey& key = keys[at + i];
      const SlotView slot = Slot(key.r, key.t);
      probes[i] = {slot.positions, slot.vertices, slot.count, key.position};
    }
    ResolveEqualRanges(std::span(probes, group));
    for (size_t i = 0; i < group; ++i) {
      out[at + i] = {probes[i].payload + probes[i].begin,
                     probes[i].end - probes[i].begin};
    }
  }
}

// ---------------------------------------------------------------- writer

Status SaveWalkStore(const WalkStore& store, const std::string& path,
                     const WalkStoreSaveOptions& options) {
  const WalkStoreMeta& meta = store.meta();
  const uint32_t n = meta.n;
  const uint32_t L = meta.walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  const uint64_t num_slots =
      static_cast<uint64_t>(meta.num_fingerprints) * L;

  // Directory: seg_rel[n+1] then inv_rel[num_slots+1], filled as the
  // regions are encoded.
  std::vector<uint64_t> directory;
  directory.reserve(n + 1 + num_slots + 1);

  std::vector<uint8_t> segments;
  std::vector<uint32_t> scratch;
  for (VertexId v = 0; v < n; ++v) {
    directory.push_back(segments.size());
    const Result<const uint32_t*> decoded = store.Row(v, &scratch);
    if (!decoded.ok()) return decoded.status();
    const uint32_t* walk = *decoded;
    for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
      uint32_t length = 0;
      while (length < L && walk[r * row + length + 1] != kDead) ++length;
      if (options.compress) {
        AppendVarint32(&segments, length);
        uint32_t prev = v;
        for (uint32_t t = 1; t <= length; ++t) {
          const uint32_t position = walk[r * row + t];
          AppendVarint64(&segments,
                         ZigZagEncode64(static_cast<int64_t>(position) -
                                        static_cast<int64_t>(prev)));
          prev = position;
        }
      } else {
        AppendWord(&segments, length);
        for (uint32_t t = 1; t <= length; ++t) {
          AppendWord(&segments, walk[r * row + t]);
        }
      }
    }
  }
  directory.push_back(segments.size());

  std::vector<uint32_t> inverted;
  directory.push_back(0);
  for (uint64_t s = 0; s < num_slots; ++s) {
    const uint32_t r = static_cast<uint32_t>(s / L);
    const uint32_t t = static_cast<uint32_t>(s % L) + 1;
    const WalkStore::SlotView slot = store.Slot(r, t);
    inverted.insert(inverted.end(), slot.positions,
                    slot.positions + slot.count);
    inverted.insert(inverted.end(), slot.vertices,
                    slot.vertices + slot.count);
    directory.push_back(static_cast<uint64_t>(inverted.size()) *
                        sizeof(uint32_t));
  }

  const uint64_t directory_bytes = directory.size() * sizeof(uint64_t);
  const uint64_t segments_offset =
      AlignUp(kPageSize + directory_bytes, kPageSize);
  const uint64_t inverted_offset =
      AlignUp(segments_offset + segments.size(), kPageSize);
  const uint64_t inverted_bytes = inverted.size() * sizeof(uint32_t);
  const uint64_t file_size = inverted_offset + inverted_bytes;

  // Checksums cover the full page-padded region extents (the inverted
  // region ends the file, so it has none): a flipped byte anywhere in the
  // file — even in alignment padding — fails exactly one of the three.
  // The directory checksum's extent starts right after the 104 header
  // bytes so the header page's own padding is covered too.
  std::vector<uint8_t> directory_region(segments_offset - kHeaderBytes, 0);
  std::memcpy(directory_region.data() + (kPageSize - kHeaderBytes),
              directory.data(), directory_bytes);
  segments.resize(inverted_offset - segments_offset, 0);
  const auto* inverted_bytes_ptr =
      reinterpret_cast<const uint8_t*>(inverted.data());
  const uint64_t payload_checksum =
      PayloadChecksum(segments.data(), segments.size(), inverted_bytes_ptr,
                      inverted_bytes);
  const uint64_t directory_checksum =
      DirectoryChecksum(directory_region.data(), directory_region.size());

  uint8_t header[kHeaderBytes] = {};
  WriteScalar<uint32_t>(header + 0, kIndexMagic);
  WriteScalar<uint32_t>(header + 4, kIndexVersion);
  WriteScalar<uint32_t>(header + 8, n);
  WriteScalar<uint32_t>(header + 12, meta.num_fingerprints);
  WriteScalar<uint32_t>(header + 16, L);
  WriteScalar<uint32_t>(header + 20,
                        options.compress ? kFlagCompressedSegments : 0u);
  WriteScalar<uint64_t>(header + 24, meta.seed);
  WriteScalar<uint64_t>(header + 32, DampingBits(meta.damping));
  WriteScalar<uint64_t>(header + 40, meta.graph_fingerprint);
  WriteScalar<uint64_t>(header + 48, kPageSize);  // directory offset
  WriteScalar<uint64_t>(header + 56, segments_offset);
  WriteScalar<uint64_t>(header + 64, inverted_offset);
  WriteScalar<uint64_t>(header + 72, file_size);
  WriteScalar<uint64_t>(header + 80, payload_checksum);
  WriteScalar<uint64_t>(header + 88, directory_checksum);
  StreamHasher header_hasher(kHeaderSalt);
  header_hasher.AbsorbBytes(header, kHeaderBytes - sizeof(uint64_t));
  WriteScalar<uint64_t>(header + 96, header_hasher.digest());

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for writing: " + path);
  FileCloser closer(f);
  // directory_region already carries the header page's padding.
  bool ok = std::fwrite(header, 1, kHeaderBytes, f) == kHeaderBytes &&
            std::fwrite(directory_region.data(), 1,
                        directory_region.size(),
                        f) == directory_region.size();
  if (ok && !segments.empty()) {
    ok = std::fwrite(segments.data(), 1, segments.size(), f) ==
         segments.size();
  }
  if (ok && !inverted.empty()) {
    ok = std::fwrite(inverted_bytes_ptr, 1, inverted_bytes, f) ==
         inverted_bytes;
  }
  ok = ok && std::fflush(f) == 0;
  if (!ok) return Status::IoError("short write: " + path);
  return Status::OK();
}

// ------------------------------------------------------ in-memory backend

InMemoryWalkStore::InMemoryWalkStore(const WalkStoreMeta& meta,
                                     std::vector<uint32_t> walks,
                                     uint32_t num_threads)
    : walks_(std::move(walks)) {
  meta_ = meta;
  OIPSIM_CHECK_EQ(walks_.size(), WalkWords() * meta_.n);
  BuildInverted(num_threads);
}

void InMemoryWalkStore::BuildInverted(uint32_t num_threads) {
  const uint32_t n = meta_.n;
  const uint32_t L = meta_.walk_length;
  const size_t words = WalkWords();
  const uint64_t num_slots =
      static_cast<uint64_t>(meta_.num_fingerprints) * L;
  // Row word of slot s = r·L + (t-1).
  auto word_of = [L](uint64_t s) {
    return s / L * (static_cast<uint64_t>(L) + 1) + s % L + 1;
  };
  ThreadPool pool(num_threads);

  // Alive walks per slot, counted over contiguous rows in vertex blocks;
  // the block counts are integer sums, so the offsets are the same for any
  // thread count.
  const uint32_t count_blocks = std::max(1u, std::min(pool.num_threads(), n));
  std::vector<std::vector<uint32_t>> alive(count_blocks,
                                           std::vector<uint32_t>(words, 0));
  pool.ParallelFor(0, count_blocks, [&](uint64_t b) {
    uint32_t* counts = alive[b].data();
    for (uint64_t v = n * b / count_blocks; v < n * (b + 1) / count_blocks;
         ++v) {
      const uint32_t* row = walks_.data() + v * words;
      for (size_t w = 0; w < words; ++w) counts[w] += row[w] != kDead;
    }
  });
  slot_offsets_.assign(num_slots + 1, 0);
  for (uint64_t s = 0; s < num_slots; ++s) {
    uint64_t count = 0;
    for (const std::vector<uint32_t>& block : alive) count += block[word_of(s)];
    slot_offsets_[s + 1] = slot_offsets_[s] + count;
  }
  inverted_positions_.resize(slot_offsets_[num_slots]);
  inverted_vertices_.resize(slot_offsets_[num_slots]);

  // Counting-sort every slot by position. Slots are (r,t)-major and rows
  // vertex-major, so each worker gathers kTileSlots consecutive slots at a
  // time into a bounded column buffer (a tiled transpose: one short
  // contiguous read per row) and sorts those slots from it. Filling
  // vertices in ascending order keeps every bucket ascending — the
  // invariant the bitwise-deterministic single-source path relies on — and
  // slots are disjoint, so the result is identical for any thread count.
  constexpr uint64_t kTileSlots = 16;
  // Rows ahead to prefetch: a row is a few KiB, so consecutive tile reads
  // cross pages and the hardware prefetcher does not follow them.
  constexpr uint64_t kPrefetchRows = 8;
  const uint64_t tiles = (num_slots + kTileSlots - 1) / kTileSlots;
  const uint64_t workers = std::min<uint64_t>(pool.num_threads(), tiles);
  pool.ParallelFor(0, workers, [&](uint64_t worker) {
    std::vector<uint32_t> columns(kTileSlots * n);
    std::vector<uint32_t> start(n);
    for (uint64_t tile = tiles * worker / workers;
         tile < tiles * (worker + 1) / workers; ++tile) {
      const uint64_t s0 = tile * kTileSlots;
      const uint64_t width = std::min(kTileSlots, num_slots - s0);
      uint64_t word[kTileSlots];
      for (uint64_t i = 0; i < width; ++i) word[i] = word_of(s0 + i);
      for (uint64_t v = 0; v < n; ++v) {
        const uint32_t* row = walks_.data() + v * words;
        if (v + kPrefetchRows < n) {
          const uint32_t* ahead = row + kPrefetchRows * words + word[0];
          __builtin_prefetch(ahead);
          __builtin_prefetch(ahead + width);
        }
        for (uint64_t i = 0; i < width; ++i) {
          columns[i * n + v] = row[word[i]];
        }
      }
      for (uint64_t i = 0; i < width; ++i) {
        const uint32_t* column = columns.data() + i * n;
        std::fill(start.begin(), start.end(), 0);
        for (uint32_t v = 0; v < n; ++v) {
          if (column[v] != kDead) ++start[column[v]];
        }
        const uint64_t base = slot_offsets_[s0 + i];
        uint32_t running = 0;
        for (uint32_t p = 0; p < n; ++p) {
          const uint32_t count = start[p];
          start[p] = running;
          running += count;
        }
        for (uint32_t v = 0; v < n; ++v) {
          const uint32_t position = column[v];
          if (position == kDead) continue;
          const uint64_t at = base + start[position]++;
          inverted_positions_[at] = position;
          inverted_vertices_[at] = v;
        }
      }
    }
  });
}

Result<const uint32_t*> InMemoryWalkStore::Row(
    VertexId v, std::vector<uint32_t>* scratch) const {
  (void)scratch;
  OIPSIM_DCHECK(v < meta_.n);
  return walks_.data() + v * WalkWords();
}

WalkStore::SlotView InMemoryWalkStore::Slot(uint32_t r, uint32_t t) const {
  OIPSIM_DCHECK(r < meta_.num_fingerprints);
  OIPSIM_DCHECK(t >= 1 && t <= meta_.walk_length);
  const uint64_t s =
      static_cast<uint64_t>(r) * meta_.walk_length + (t - 1);
  const uint64_t begin = slot_offsets_[s];
  return {inverted_positions_.data() + begin,
          inverted_vertices_.data() + begin, slot_offsets_[s + 1] - begin};
}

uint64_t InMemoryWalkStore::ResidentBytes() const {
  return walks_.size() * sizeof(uint32_t) +
         slot_offsets_.size() * sizeof(uint64_t) +
         inverted_positions_.size() * sizeof(uint32_t) +
         inverted_vertices_.size() * sizeof(uint32_t);
}

Result<std::unique_ptr<InMemoryWalkStore>> InMemoryWalkStore::Open(
    const std::string& path, uint32_t num_threads) {
  std::vector<uint8_t> bytes;
  OIPSIM_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  auto layout_or =
      ParseHeaderBytes(bytes.data(), bytes.size(), bytes.size(), path);
  if (!layout_or.ok()) return layout_or.status();
  const ParsedLayout& layout = *layout_or;

  const uint64_t* seg_rel = nullptr;
  const uint64_t* inv_rel = nullptr;
  OIPSIM_RETURN_IF_ERROR(
      OpenDirectory(bytes.data(), layout, path, &seg_rel, &inv_rel));

  const uint8_t* segments_base = bytes.data() + layout.segments_offset;
  const uint8_t* inverted_base = bytes.data() + layout.inverted_offset;
  if (PayloadChecksum(segments_base,
                      layout.inverted_offset - layout.segments_offset,
                      inverted_base,
                      layout.file_size - layout.inverted_offset) !=
      layout.payload_checksum) {
    return Status::ParseError(StrFormat(
        "walk index payload checksum mismatch in %s (segments at %llu, "
        "inverted index at %llu)",
        path.c_str(),
        static_cast<unsigned long long>(layout.segments_offset),
        static_cast<unsigned long long>(layout.inverted_offset)));
  }

  std::unique_ptr<InMemoryWalkStore> store(new InMemoryWalkStore());
  store->meta_ = layout.meta;
  const uint32_t n = layout.meta.n;
  // v1 bounded its load allocation by the file size outright (its flat
  // format stored every decoded word). Dead-walk-compressed v2 segments
  // legitimately decode somewhat larger, but a crafted checksum-valid
  // file must not turn a few MB on disk into a tens-of-GB table, so the
  // materialization is capped at a fixed multiple of the file (with a
  // floor so tiny indexes always load). Oversized-but-consistent indexes
  // remain servable through MmapWalkStore, which never materializes the
  // rows.
  constexpr uint64_t kMaxInMemoryAmplification = 64;
  constexpr uint64_t kMinInMemoryBudgetBytes = 64ull << 20;
  const auto wide_decoded_bytes =
      static_cast<unsigned __int128>(store->WalkWords()) * n *
      sizeof(uint32_t);
  const auto wide_budget_bytes = std::max(
      static_cast<unsigned __int128>(kMinInMemoryBudgetBytes),
      static_cast<unsigned __int128>(bytes.size()) *
          kMaxInMemoryAmplification);
  if (wide_decoded_bytes > wide_budget_bytes) {
    return Status::ParseError(StrFormat(
        "walk index %s decodes to %llu MiB, over %llux its %llu MiB file "
        "— refusing the in-memory load; serve it with mmap instead",
        path.c_str(),
        static_cast<unsigned long long>(
            static_cast<uint64_t>(wide_decoded_bytes >> 20)),
        static_cast<unsigned long long>(kMaxInMemoryAmplification),
        static_cast<unsigned long long>(bytes.size() >> 20)));
  }
  store->walks_.resize(store->WalkWords() * n);
  // Each segment decodes straight into its row; this dominates the
  // in-memory cold-open cost, so it runs in parallel over disjoint
  // contiguous vertex ranges. Vertex v only writes its own row, so the
  // result is bitwise identical for any thread count; blocks are ordered
  // by vertex range, so reporting the first failed block's error
  // reproduces the serial pass's first-corrupt-vertex diagnostics exactly.
  const uint32_t decode_threads = ThreadPool::ResolveThreadCount(num_threads);
  auto decode_range = [&](VertexId lo, VertexId hi) {
    for (VertexId v = lo; v < hi; ++v) {
      OIPSIM_RETURN_IF_ERROR(DecodeSegment(
          layout.meta, layout.compressed, v, segments_base + seg_rel[v],
          segments_base + seg_rel[v + 1],
          layout.segments_offset + seg_rel[v], path,
          store->walks_.data() + static_cast<size_t>(v) * store->WalkWords()));
    }
    return Status::OK();
  };
  if (decode_threads <= 1 || n < 2 * decode_threads) {
    OIPSIM_RETURN_IF_ERROR(decode_range(0, n));
  } else {
    // A few blocks per worker smooth over skewed segment sizes (hub
    // vertices compress worse than leaves).
    const uint64_t num_blocks =
        std::min<uint64_t>(n, static_cast<uint64_t>(decode_threads) * 4);
    std::vector<Status> block_status(num_blocks);
    ThreadPool pool(decode_threads);
    pool.ParallelFor(0, num_blocks, [&](uint64_t block) {
      const auto lo =
          static_cast<VertexId>(static_cast<uint64_t>(n) * block /
                                num_blocks);
      const auto hi =
          static_cast<VertexId>(static_cast<uint64_t>(n) * (block + 1) /
                                num_blocks);
      block_status[block] = decode_range(lo, hi);
    });
    for (const Status& status : block_status) {
      OIPSIM_RETURN_IF_ERROR(status);
    }
  }

  store->slot_offsets_.resize(layout.num_slots + 1);
  for (uint64_t s = 0; s <= layout.num_slots; ++s) {
    store->slot_offsets_[s] = inv_rel[s] / 8;
  }
  const uint64_t total_entries = store->slot_offsets_[layout.num_slots];
  store->inverted_positions_.resize(total_entries);
  store->inverted_vertices_.resize(total_entries);
  for (uint64_t s = 0; s < layout.num_slots; ++s) {
    const uint64_t begin = store->slot_offsets_[s];
    const uint64_t count = store->slot_offsets_[s + 1] - begin;
    const uint8_t* blob = inverted_base + inv_rel[s];
    std::memcpy(store->inverted_positions_.data() + begin, blob,
                count * sizeof(uint32_t));
    std::memcpy(store->inverted_vertices_.data() + begin,
                blob + count * sizeof(uint32_t), count * sizeof(uint32_t));
  }
  return store;
}

// ----------------------------------------------------------- mmap backend

MmapWalkStore::MmapWalkStore() = default;

MmapWalkStore::~MmapWalkStore() {
#if OIPSIM_HAVE_MMAP
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
#endif
}

Result<std::unique_ptr<MmapWalkStore>> MmapWalkStore::Open(
    const std::string& path) {
#if OIPSIM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open: " + path);
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::ParseError(path + " is empty, not a walk index");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) return Status::IoError("mmap failed: " + path);

  // From here on the mapping is owned by the store, so every error path
  // unmaps through the destructor.
  std::unique_ptr<MmapWalkStore> store(new MmapWalkStore());
  store->path_ = path;
  store->data_ = static_cast<const uint8_t*>(map);
  store->size_ = size;

  // Header + directory are the only pages read at open; the payload
  // regions stay untouched until a query faults them in.
  const size_t header_available =
      size < kHeaderBytes ? static_cast<size_t>(size) : kHeaderBytes;
  auto layout_or =
      ParseHeaderBytes(store->data_, header_available, size, path);
  if (!layout_or.ok()) return layout_or.status();
  const ParsedLayout& layout = *layout_or;

  const uint64_t* seg_rel = nullptr;
  const uint64_t* inv_rel = nullptr;
  OIPSIM_RETURN_IF_ERROR(
      OpenDirectory(store->data_, layout, path, &seg_rel, &inv_rel));

  store->meta_ = layout.meta;
  store->compressed_ = layout.compressed;
  store->payload_checksum_ = layout.payload_checksum;
  store->seg_rel_ = seg_rel;
  store->inv_rel_ = inv_rel;
  store->segments_base_ = store->data_ + layout.segments_offset;
  store->inverted_base_ = store->data_ + layout.inverted_offset;
  // Checksum extents are the padded regions (the inverted region has no
  // padding: its directory end is validated against the file end).
  store->segments_bytes_ = layout.inverted_offset - layout.segments_offset;
  store->inverted_bytes_ = layout.file_size - layout.inverted_offset;
  store->directory_bytes_ = layout.directory_bytes;
  // The header and directory pages were just read and stay hot for the
  // lifetime of the store (every query walks the directory); telling the
  // kernel keeps them ahead of cold payload pages under memory pressure.
  ::madvise(const_cast<uint8_t*>(store->data_), layout.segments_offset,
            MADV_WILLNEED);
  return store;
#else
  (void)path;
  return Status::Unimplemented(
      "MmapWalkStore requires POSIX mmap; use the in-memory backend");
#endif
}

Result<const uint32_t*> MmapWalkStore::Row(
    VertexId v, std::vector<uint32_t>* scratch) const {
  OIPSIM_DCHECK(v < meta_.n);
  TraceScope scope(TraceStage::kDecode);
  scratch->resize(WalkWords());
  const uint64_t begin = seg_rel_[v];
  OIPSIM_RETURN_IF_ERROR(DecodeSegment(
      meta_, compressed_, v, segments_base_ + begin,
      segments_base_ + seg_rel_[v + 1],
      static_cast<uint64_t>(segments_base_ - data_) + begin, path_,
      scratch->data()));
  TraceAdd(TraceCounter::kRowsDecoded, 1);
  TraceAdd(TraceCounter::kBytesRead, scratch->size() * sizeof(uint32_t));
  return scratch->data();
}

WalkStore::SlotView MmapWalkStore::Slot(uint32_t r, uint32_t t) const {
  OIPSIM_DCHECK(r < meta_.num_fingerprints);
  OIPSIM_DCHECK(t >= 1 && t <= meta_.walk_length);
  const uint64_t s =
      static_cast<uint64_t>(r) * meta_.walk_length + (t - 1);
  const uint64_t count = (inv_rel_[s + 1] - inv_rel_[s]) / 8;
  // Blob offsets are multiples of 8 from a page-aligned base, so the casts
  // land on naturally-aligned uint32 arrays.
  const auto* positions =
      reinterpret_cast<const uint32_t*>(inverted_base_ + inv_rel_[s]);
  return {positions, positions + count, count};
}

uint64_t MmapWalkStore::ResidentBytes() const {
  // Heap footprint is negligible; the header and directory pages are the
  // only part of the mapping open() forces resident.
  return kPageSize + directory_bytes_;
}

void MmapWalkStore::Prefetch(std::span<const VertexId> vertices) const {
#if OIPSIM_HAVE_MMAP
  // Sorting first makes the page ranges monotone, so overlapping and
  // adjacent segments coalesce into one run per contiguous stretch — a
  // clustered warm list costs few madvise calls regardless of input
  // order. Out-of-range ids are skipped (a hint API must not turn a stale
  // warm list into a crash).
  std::vector<VertexId> sorted(vertices.begin(), vertices.end());
  std::sort(sorted.begin(), sorted.end());
  uint64_t run_begin = 0;
  uint64_t run_end = 0;
  auto flush = [&] {
    // The last segment's page-aligned end can pass EOF; the advice stops
    // at the mapping's end.
    const uint64_t end = std::min<uint64_t>(run_end, size_);
    if (end > run_begin) {
      ::madvise(const_cast<uint8_t*>(data_) + run_begin, end - run_begin,
                MADV_WILLNEED);
    }
  };
  const uint64_t segments_abs =
      static_cast<uint64_t>(segments_base_ - data_);
  for (const VertexId v : sorted) {
    if (v >= meta_.n) continue;
    const uint64_t begin =
        (segments_abs + seg_rel_[v]) / kPageSize * kPageSize;
    const uint64_t end =
        AlignUp(segments_abs + seg_rel_[v + 1], kPageSize);
    if (begin <= run_end && run_end > run_begin) {
      run_end = std::max(run_end, end);
    } else {
      flush();
      run_begin = begin;
      run_end = end;
    }
  }
  flush();
#else
  (void)vertices;
#endif
}

void MmapWalkStore::PrefetchSlots() const {
#if OIPSIM_HAVE_MMAP
  // Once per store: a cold single-source query walks R·L bucket lookups
  // scattered across the whole inverted region, the worst case for
  // one-page-at-a-time faulting.
  TraceScope scope(TraceStage::kColdRead);
  if (slots_prefetched_.exchange(true, std::memory_order_relaxed)) return;
  ::madvise(const_cast<uint8_t*>(inverted_base_), inverted_bytes_,
            MADV_WILLNEED);
#endif
}

Status MmapWalkStore::VerifyPayload() const {
  if (PayloadChecksum(segments_base_, segments_bytes_, inverted_base_,
                      inverted_bytes_) != payload_checksum_) {
    return Status::ParseError(
        "walk index payload checksum mismatch in " + path_);
  }
  return Status::OK();
}

// ------------------------------------------------------------- index-info

Result<WalkIndexInfo> ReadWalkIndexInfo(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open: " + path);
  FileCloser closer(f);
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  const int64_t file_size = std::ftell(f);
  if (file_size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::IoError("cannot seek: " + path);
  }
  uint8_t header[kHeaderBytes] = {};
  const size_t available = std::fread(header, 1, kHeaderBytes, f);
  auto layout_or = ParseHeaderBytes(
      header, available, static_cast<uint64_t>(file_size), path);
  if (!layout_or.ok()) return layout_or.status();
  const ParsedLayout& layout = *layout_or;

  WalkIndexInfo info;
  info.version = kIndexVersion;
  info.compressed = layout.compressed;
  info.meta = layout.meta;
  info.file_bytes = layout.file_size;
  info.directory_bytes = layout.directory_bytes;
  // Region extents from the header alone (includes up to a page of
  // alignment padding); exact byte counts live in the directory, which
  // index-info deliberately does not need to read.
  info.segment_bytes = layout.inverted_offset - layout.segments_offset;
  info.inverted_bytes = layout.file_size - layout.inverted_offset;
  info.raw_walk_bytes = static_cast<uint64_t>(layout.meta.n) *
                        (static_cast<uint64_t>(layout.meta.walk_length) + 1) *
                        layout.meta.num_fingerprints * sizeof(uint32_t);
  return info;
}

}  // namespace simrank
