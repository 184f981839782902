// Batched page-cache prefetch against one index file, for the cold serve
// path.
//
// The mmap backend faults pages in one at a time: a cold top-k that touches
// fifty per-vertex segments pays fifty synchronous disk round-trips. A
// SegmentReader owns its own O_RDONLY descriptor on the index file and
// turns a whole batch of byte ranges into a single io_uring submission —
// one syscall queues every read and the kernel services them in parallel
// into internal bounce buffers, purely to populate the page cache ahead of
// mmap access. This is what `serve --warm` and the batch-query readahead
// ride on.
//
// io_uring is strictly an accelerator. When the build lacks the headers,
// the kernel rejects the setup syscall, the ring later reports an
// unsupported opcode, or SIMRANK_NO_URING=1 is set, every batch falls
// back to a posix_fadvise(WILLNEED) loop. Prefetch is a hint either way,
// so nothing above this class can observe which path ran except through
// using_io_uring().
#ifndef OIPSIM_SIMRANK_INDEX_SEGMENT_READER_H_
#define OIPSIM_SIMRANK_INDEX_SEGMENT_READER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "simrank/common/status.h"

namespace simrank {

class SegmentReader {
 public:
  /// One byte range of the underlying file.
  struct Range {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  /// Opens `path` read-only and, when enabled and supported, sets up an
  /// io_uring. Ring setup failure is not an error — the reader silently
  /// runs in fadvise mode (check using_io_uring()).
  static Result<std::unique_ptr<SegmentReader>> Open(const std::string& path);

  ~SegmentReader();

  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  /// True when batches are currently serviced through io_uring. Can flip
  /// to false for the remainder of the reader's life if the kernel turns
  /// out not to support the read opcode.
  bool using_io_uring() const;

  /// Pulls the given ranges into the OS page cache. Purely a hint:
  /// failures of any kind are swallowed, contents are discarded, and the
  /// call never waits for IO. Small scattered ranges are queued on the
  /// ring *asynchronously* — one syscall submits them all and they
  /// complete in parallel while the caller serves queries. Long sequential
  /// runs (and any overflow once every ring slot is in flight) degrade to
  /// posix_fadvise(WILLNEED): kernel readahead already pipelines those
  /// optimally, and keeping them as advice rather than queued reads lets a
  /// concurrent query's demand faults jump ahead of the warm instead of
  /// waiting behind it. Thread-safe.
  void Prefetch(std::span<const Range> ranges);

  /// Process-wide switch consulted at Open time, initialized from the
  /// SIMRANK_NO_URING environment variable (any non-empty value other than
  /// "0" disables the ring); tests and benches flip it directly.
  static void SetIoUringEnabled(bool enabled);
  static bool IoUringEnabled();

  /// True when this binary was compiled with io_uring support (Linux with
  /// <linux/io_uring.h> present). Runtime support can still be absent.
  static constexpr bool BuildSupportsIoUring();

 private:
  SegmentReader(std::string path, int fd);

  void SetUpRing();
  void TearDownRing();
  // Collects already-posted completions of in-flight async prefetch
  // reads, returning their bounce slots to the free list. Never waits —
  // the kernel publishes CQEs without a syscall. Caller holds mutex_.
  void ReapPrefetchLocked();
  // Waits for every in-flight prefetch read. Must run before teardown (the
  // kernel writes into bounce_ until the ops finish). Caller holds mutex_.
  void DrainPrefetchLocked();

  const std::string path_;
  const int fd_;

  mutable std::mutex mutex_;  // serializes ring submission/completion
  bool ring_ok_ = false;
  int ring_fd_ = -1;
  // Raw-syscall ring state (opaque outside segment_reader.cc).
  void* sq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  void* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;
  bool single_mmap_ = false;
  uint32_t sq_entries_ = 0;
  uint32_t cq_entries_ = 0;
  uint32_t* sq_head_ = nullptr;
  uint32_t* sq_tail_ = nullptr;
  uint32_t* sq_mask_ = nullptr;
  uint32_t* sq_array_ = nullptr;
  uint32_t* cq_head_ = nullptr;
  uint32_t* cq_tail_ = nullptr;
  uint32_t* cq_mask_ = nullptr;
  void* cqes_ = nullptr;

  std::vector<std::vector<uint8_t>> bounce_;  // Prefetch scratch, lazy
  // Async-prefetch bookkeeping: how many reads the kernel still owns, and
  // which bounce slots are free to carry a new one (slot = sqe user_data).
  uint32_t inflight_prefetch_ = 0;
  std::vector<uint32_t> free_slots_;
};

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
constexpr bool SegmentReader::BuildSupportsIoUring() { return true; }
#else
constexpr bool SegmentReader::BuildSupportsIoUring() { return false; }
#endif

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_INDEX_SEGMENT_READER_H_
