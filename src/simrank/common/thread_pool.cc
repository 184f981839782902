#include "simrank/common/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <utility>

#include "simrank/obs/profiler.h"

namespace simrank {

uint32_t ThreadPool::ResolveThreadCount(uint32_t requested) {
  if (requested > 0) return requested;
  // The CPUs this thread may run on: a process started under `taskset`
  // or a cpuset gets one worker per CPU it was given, not per CPU of the
  // machine (which is all std::thread::hardware_concurrency reports).
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int usable = CPU_COUNT(&mask);
    if (usable > 0) return static_cast<uint32_t>(usable);
  }
#endif
  const uint32_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(uint32_t num_threads) {
  const uint32_t n = ResolveThreadCount(num_threads);
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  OIPSIM_CHECK(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    OIPSIM_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  // Workers announce themselves to the sampling profiler so query
  // execution shows up attributed per worker thread; a no-op (one TLS
  // store) unless a profiling session arms this thread.
  ScopedProfiledThread profiled("pool-worker");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(uint64_t begin, uint64_t end,
                             const std::function<void(uint64_t)>& fn) {
  if (begin >= end) return;
  const uint64_t count = end - begin;
  const uint64_t num_chunks =
      std::min<uint64_t>(num_threads(), count);
  if (num_chunks <= 1) {
    for (uint64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Per-invocation completion latch, deliberately NOT the pool-wide Wait():
  // concurrent ParallelFor calls sharing one pool (the QueryEngine batch
  // APIs) must each return as soon as their own chunks finish, not when
  // every other caller's work drains too.
  const uint64_t chunk = (count + num_chunks - 1) / num_chunks;
  // Ceil-divided chunks may need fewer than num_chunks slots (e.g. 5 items
  // in 4 chunks of 2 fill only 3); size the latch by the real chunk count.
  const uint64_t submitted = (count + chunk - 1) / chunk;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  uint64_t remaining = submitted;
  for (uint64_t c = 0; c < submitted; ++c) {
    const uint64_t lo = begin + c * chunk;
    const uint64_t hi = std::min(end, lo + chunk);
    Submit([&fn, &done_mutex, &done_cv, &remaining, lo, hi] {
      for (uint64_t i = lo; i < hi; ++i) fn(i);
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&remaining] { return remaining == 0; });
}

}  // namespace simrank
