#include "simrank/index/segment_reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#if defined(__NR_io_uring_setup) && defined(__NR_io_uring_enter)
#define OIPSIM_HAS_IO_URING 1
#endif
#endif
#ifndef OIPSIM_HAS_IO_URING
#define OIPSIM_HAS_IO_URING 0
#endif

namespace simrank {
namespace {

bool UringEnabledDefault() {
  const char* env = std::getenv("SIMRANK_NO_URING");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
    return false;
  }
  return true;
}

std::atomic<bool>& UringEnabledFlag() {
  static std::atomic<bool> enabled{UringEnabledDefault()};
  return enabled;
}

constexpr uint32_t kRingEntries = 64;
// Prefetch bounce buffers are bounded: long runs are split into chunks so
// one warm pass over a multi-GB index never holds more than one ring depth
// of chunk-sized buffers.
constexpr uint64_t kPrefetchChunkBytes = 256 * 1024;

}  // namespace

void SegmentReader::SetIoUringEnabled(bool enabled) {
  UringEnabledFlag().store(enabled, std::memory_order_relaxed);
}

bool SegmentReader::IoUringEnabled() {
  return UringEnabledFlag().load(std::memory_order_relaxed);
}

SegmentReader::SegmentReader(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open: " + path);
  std::unique_ptr<SegmentReader> reader(new SegmentReader(path, fd));
  if (IoUringEnabled()) reader->SetUpRing();
  return reader;
}

SegmentReader::~SegmentReader() {
  {
    // In-flight prefetch reads target bounce_ memory; wait them out
    // before the buffers (and the ring) go away.
    std::lock_guard<std::mutex> lock(mutex_);
    DrainPrefetchLocked();
    if (inflight_prefetch_ > 0) {
      // Waiting itself failed. The kernel may still write into these
      // buffers, so leaking them beats freeing memory it owns.
      new std::vector<std::vector<uint8_t>>(std::move(bounce_));
    }
  }
  TearDownRing();
  ::close(fd_);
}

bool SegmentReader::using_io_uring() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_ok_;
}

void SegmentReader::SetUpRing() {
#if OIPSIM_HAS_IO_URING
  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const long ret = ::syscall(__NR_io_uring_setup, kRingEntries, &params);
  if (ret < 0) return;  // old kernel, seccomp, rlimit — run without a ring
  ring_fd_ = static_cast<int>(ret);
  sq_entries_ = params.sq_entries;
  cq_entries_ = params.cq_entries;
  size_t sq_bytes = params.sq_off.array +
                    static_cast<size_t>(params.sq_entries) * sizeof(uint32_t);
  size_t cq_bytes =
      params.cq_off.cqes +
      static_cast<size_t>(params.cq_entries) * sizeof(struct io_uring_cqe);
  single_mmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap_) sq_bytes = cq_bytes = std::max(sq_bytes, cq_bytes);
  void* sq = ::mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq == MAP_FAILED) {
    TearDownRing();
    return;
  }
  sq_ring_ = sq;
  sq_ring_bytes_ = sq_bytes;
  if (single_mmap_) {
    cq_ring_ = sq;
    cq_ring_bytes_ = 0;
  } else {
    void* cq = ::mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
    if (cq == MAP_FAILED) {
      TearDownRing();
      return;
    }
    cq_ring_ = cq;
    cq_ring_bytes_ = cq_bytes;
  }
  const size_t sqes_bytes =
      static_cast<size_t>(params.sq_entries) * sizeof(struct io_uring_sqe);
  void* sqes = ::mmap(nullptr, sqes_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    TearDownRing();
    return;
  }
  sqes_ = sqes;
  sqes_bytes_ = sqes_bytes;
  auto* sqb = static_cast<uint8_t*>(sq_ring_);
  sq_head_ = reinterpret_cast<uint32_t*>(sqb + params.sq_off.head);
  sq_tail_ = reinterpret_cast<uint32_t*>(sqb + params.sq_off.tail);
  sq_mask_ = reinterpret_cast<uint32_t*>(sqb + params.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<uint32_t*>(sqb + params.sq_off.array);
  auto* cqb = static_cast<uint8_t*>(cq_ring_);
  cq_head_ = reinterpret_cast<uint32_t*>(cqb + params.cq_off.head);
  cq_tail_ = reinterpret_cast<uint32_t*>(cqb + params.cq_off.tail);
  cq_mask_ = reinterpret_cast<uint32_t*>(cqb + params.cq_off.ring_mask);
  cqes_ = cqb + params.cq_off.cqes;
  free_slots_.reserve(sq_entries_);
  for (uint32_t i = 0; i < sq_entries_; ++i) free_slots_.push_back(i);
  ring_ok_ = true;
#endif
}

void SegmentReader::TearDownRing() {
#if OIPSIM_HAS_IO_URING
  if (sqes_ != nullptr) ::munmap(sqes_, sqes_bytes_);
  if (cq_ring_ != nullptr && !single_mmap_) ::munmap(cq_ring_, cq_ring_bytes_);
  if (sq_ring_ != nullptr) ::munmap(sq_ring_, sq_ring_bytes_);
#endif
  sqes_ = nullptr;
  cq_ring_ = nullptr;
  sq_ring_ = nullptr;
  if (ring_fd_ >= 0) ::close(ring_fd_);
  ring_fd_ = -1;
  ring_ok_ = false;
}

void SegmentReader::ReapPrefetchLocked() {
#if OIPSIM_HAS_IO_URING
  if (inflight_prefetch_ == 0) return;
  uint32_t head = __atomic_load_n(cq_head_, __ATOMIC_ACQUIRE);
  const uint32_t ready = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
  const uint32_t cmask = *cq_mask_;
  auto* cqes = static_cast<struct io_uring_cqe*>(cqes_);
  while (head != ready && inflight_prefetch_ > 0) {
    const struct io_uring_cqe& cqe = cqes[head & cmask];
    free_slots_.push_back(static_cast<uint32_t>(cqe.user_data));
    if (cqe.res == -EINVAL || cqe.res == -EOPNOTSUPP || cqe.res == -ENOSYS) {
      ring_ok_ = false;  // kernel lacks the opcode; stop using the ring
    }
    // All other errors and short reads are ignored: prefetch is a hint.
    ++head;
    --inflight_prefetch_;
  }
  __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
#endif
}

void SegmentReader::DrainPrefetchLocked() {
#if OIPSIM_HAS_IO_URING
  while (inflight_prefetch_ > 0) {
    ReapPrefetchLocked();
    if (inflight_prefetch_ == 0) return;
    const long ret =
        ::syscall(__NR_io_uring_enter, ring_fd_, 0, 1,
                  IORING_ENTER_GETEVENTS, nullptr, static_cast<size_t>(0));
    if (ret < 0 && errno != EINTR) {
      ring_ok_ = false;
      return;  // cannot wait; the remaining reads are abandoned
    }
  }
#endif
}

void SegmentReader::Prefetch(std::span<const Range> ranges) {
  if (ranges.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
#if OIPSIM_HAS_IO_URING
  std::vector<Range> spill;  // everything the ring does not take
  if (ring_ok_) {
    // Small scattered ranges ride the ring: one syscall queues them all,
    // they complete in parallel while the caller serves queries, and the
    // slots recycle as completions drift in. Long sequential runs — and
    // any overflow once every slot is in flight — stay advice instead:
    // kernel readahead already pipelines a sequential run optimally, and
    // queued reads (unlike advice) would make a concurrent query's demand
    // faults wait behind the entire warm. Nothing here ever blocks.
    if (bounce_.size() < sq_entries_) bounce_.resize(sq_entries_);
    auto* sqes = static_cast<struct io_uring_sqe*>(sqes_);
    const uint32_t mask = *sq_mask_;
    uint32_t tail = __atomic_load_n(sq_tail_, __ATOMIC_RELAXED);
    uint32_t filled = 0;
    for (const Range& range : ranges) {
      if (range.length == 0) continue;
      if (range.length > kPrefetchChunkBytes) {
        spill.push_back(range);
        continue;
      }
      if (free_slots_.empty()) ReapPrefetchLocked();
      if (!ring_ok_ || free_slots_.empty()) {
        spill.push_back(range);
        continue;
      }
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      if (bounce_[slot].size() < range.length) {
        bounce_[slot].resize(range.length);
      }
      struct io_uring_sqe* sqe = &sqes[tail & mask];
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = IORING_OP_READ;
      sqe->fd = fd_;
      sqe->addr = reinterpret_cast<uint64_t>(bounce_[slot].data());
      sqe->len = static_cast<uint32_t>(range.length);
      sqe->off = range.offset;
      sqe->user_data = slot;
      sq_array_[tail & mask] = tail & mask;
      ++tail;
      ++filled;
    }
    if (filled > 0) {
      __atomic_store_n(sq_tail_, tail, __ATOMIC_RELEASE);
      uint32_t to_submit = filled;
      while (to_submit > 0) {
        const long ret =
            ::syscall(__NR_io_uring_enter, ring_fd_, to_submit, 0, 0, nullptr,
                      static_cast<size_t>(0));
        if (ret < 0) {
          if (errno == EINTR) continue;
          ring_ok_ = false;  // unsubmitted SQEs are simply abandoned
          break;
        }
        to_submit -= std::min<uint32_t>(to_submit, static_cast<uint32_t>(ret));
      }
      inflight_prefetch_ += filled - to_submit;
    }
    ranges = spill;
  }
#endif
#if defined(POSIX_FADV_WILLNEED)
  for (const Range& range : ranges) {
    (void)::posix_fadvise(fd_, static_cast<off_t>(range.offset),
                          static_cast<off_t>(range.length),
                          POSIX_FADV_WILLNEED);
  }
#endif
}

}  // namespace simrank
