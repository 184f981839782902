// Hot kernels of the serve path.
//
// Two loops dominate a walk-index query once the page cache is warm: the
// LEB128 delta+varint segment decode (walk_store.cc) and the
// sorted-positions bucket searches behind WalkStore::ResolveBuckets. The
// decode gets an AVX2 kernel with SSE4 and scalar fallbacks, selected once
// per process by CPUID (clamped by the SIMRANK_SIMD_LEVEL environment
// variable) and consulted per call, so one process can exercise every
// tier. The searches are one plain-C++ batched resolver
// (ResolveEqualRanges) that every tier runs: a search is a chain of
// dependent cache misses, so what pays is overlapping many of them, not
// vector compares. (The single-source accumulation is scalar: a bucket
// holds about half an entry on the benchmark graphs, too few for a gather
// to pay.)
//
// The contract that keeps the repo's bitwise-equality discipline intact:
// a vector kernel never *replaces* the scalar path, it commits a prefix of
// the scalar path's work. Decode kernels validate a whole chunk in
// registers and either write it out and advance the cursor, or leave both
// untouched and return early — the caller's scalar loop then handles the
// tail, including every malformed-input case, at the exact byte offset the
// scalar-only build would report.
#ifndef OIPSIM_SIMRANK_COMMON_SIMD_H_
#define OIPSIM_SIMRANK_COMMON_SIMD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

namespace simrank {

/// Kernel tiers, ordered so a numeric comparison is "at most this wide".
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kSse4 = 1,
  kAvx2 = 2,
};

/// "scalar", "sse4" or "avx2".
const char* SimdLevelName(SimdLevel level);

/// The widest tier this CPU supports (CPUID probe, cached). kScalar on
/// non-x86 builds.
SimdLevel MaxSupportedSimdLevel();

/// The tier the serve path uses: MaxSupportedSimdLevel() clamped by the
/// SIMRANK_SIMD_LEVEL environment variable ("scalar", "sse4" or "avx2";
/// unset or unrecognized values mean no clamp). Cached after the first
/// call; a relaxed atomic load afterwards.
SimdLevel ActiveSimdLevel();

/// Re-reads SIMRANK_SIMD_LEVEL and republishes the active level. Lets the
/// dispatch-correctness tests drive every tier from one process; callers
/// must not race it against in-flight queries.
void ReloadSimdLevelFromEnv();

/// Bulk-decodes a prefix of a run of `count` zigzag position-delta varints
/// from [*cursor, end) into out[0..), starting from previous position
/// `prev`, with every decoded position validated to lie in [0, n).
///
/// Partial-commit semantics: only whole chunks (8 values on AVX2, 4 on
/// SSE4) of single-byte varint codes that pass every validation are
/// written and consumed; the first multi-byte code, truncated chunk, or
/// out-of-range value stops the kernel *before* the offending chunk.
/// Returns the number of values decoded (cursor advanced past exactly
/// their bytes); the caller's scalar loop continues from there and is the
/// only place malformed input is diagnosed. kScalar always returns 0.
size_t DecodeDeltaRun(SimdLevel level, const uint8_t** cursor,
                      const uint8_t* end, uint32_t prev, uint32_t n,
                      uint32_t* out, size_t count);

/// Uncompressed-segment analog: copies a prefix of `count` little-endian
/// uint32 position words from [*cursor, end) into out[0..), committing
/// only whole chunks in which every word is < n. Returns the number of
/// words copied; the scalar loop owns the tail and every error. kScalar
/// always returns 0.
size_t CopyCheckedWords(SimdLevel level, const uint8_t** cursor,
                        const uint8_t* end, uint32_t n, uint32_t* out,
                        size_t count);

/// One search of ResolveEqualRanges: `key` in the ascending array
/// sorted[0, count). `payload` is an array parallel to `sorted` (or null)
/// that the caller reads next. The resolve writes [begin, end), exactly
/// std::equal_range's.
struct RangeProbe {
  const uint32_t* sorted = nullptr;
  const uint32_t* payload = nullptr;
  size_t count = 0;
  uint32_t key = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Searches ResolveEqualRanges keeps in flight: the smallest group at the
/// plateau. A single-source row of an mmap-served n=40k index (R = 128,
/// L = 8, one pinned CPU of a 4-vCPU VM) took ~52 µs with 8 searches in
/// flight, ~42 with 16, ~33 with 32 and ~29 with 64 or 128.
/// bench/micro_kernels.cc's BM_ResolveBuckets re-measures it.
inline constexpr size_t kRangeGroup = 64;

/// Resolves every probe, Group at a time. Each group runs its searches
/// interleaved: one branchless lower-bound step of every search per round,
/// each step prefetching that search's next midpoint, which the group's
/// other steps give time to arrive. A found bound is then scanned forward
/// to the end of its run of `key` (no more reads than the caller's visit
/// of the span), and the span's first payload entry is prefetched. Reads
/// only inside each probe's sorted[0, count).
template <size_t Group = kRangeGroup>
void ResolveEqualRanges(std::span<RangeProbe> probes) {
  static_assert(Group >= 1);
  // Stands in for an empty array, so the step needs no branch: a window
  // of none never moves, and the slot itself is never read.
  static constexpr uint32_t kNoValues[1] = {0};
  for (size_t at = 0; at < probes.size(); at += Group) {
    RangeProbe* const p = probes.data() + at;
    const size_t group = std::min(Group, probes.size() - at);
    const uint32_t* sorted[Group] = {};
    size_t lo[Group] = {};
    size_t len[Group] = {};
    size_t widest = 0;
    for (size_t i = 0; i < group; ++i) {
      sorted[i] = p[i].count == 0 ? kNoValues : p[i].sorted;
      len[i] = p[i].count;
      widest = std::max(widest, len[i]);
      __builtin_prefetch(sorted[i] + len[i] / 2);
    }
    // The first element >= key stays in [lo, lo + len]; a step halves the
    // window, rounding up, and leaves a window of one in place, so the
    // widest search's rounds finish every other.
    while (widest > 1) {
      for (size_t i = 0; i < group; ++i) {
        const size_t half = len[i] / 2;
        lo[i] += sorted[i][lo[i] + half] < p[i].key ? half : 0;
        len[i] -= half;
        __builtin_prefetch(sorted[i] + lo[i] + len[i] / 2);
      }
      widest -= widest / 2;
    }
    for (size_t i = 0; i < group; ++i) {
      RangeProbe& probe = p[i];
      const size_t first =
          lo[i] + (len[i] == 1 && sorted[i][lo[i]] < probe.key ? 1 : 0);
      size_t last = first;
      while (last < probe.count && probe.sorted[last] == probe.key) ++last;
      probe.begin = first;
      probe.end = last;
      if (probe.payload != nullptr && first < last) {
        __builtin_prefetch(probe.payload + first);
      }
    }
  }
}

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_COMMON_SIMD_H_
