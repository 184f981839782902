// Fixed-size worker pool for CPU-bound parallel construction.
//
// The pool is deliberately minimal: submit void() tasks, wait for the whole
// batch to drain. Determinism is the caller's job — oipsim parallelises
// only over independently-seeded work items (e.g. one fingerprint of a walk
// index per task), so results never depend on scheduling order.
#ifndef OIPSIM_SIMRANK_COMMON_THREAD_POOL_H_
#define OIPSIM_SIMRANK_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "simrank/common/macros.h"

namespace simrank {

/// A fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means one per CPU the calling thread
  /// may run on (ResolveThreadCount).
  explicit ThreadPool(uint32_t num_threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  /// Enqueues a task. Tasks must not throw (the library is exception-free).
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Number of tasks submitted but not yet picked up by a worker. A point
  /// sample for monitoring; stale by the time the caller looks at it.
  uint64_t queue_depth() {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Queued plus currently executing tasks.
  uint64_t in_flight() {
    std::lock_guard<std::mutex> lock(mutex_);
    return in_flight_;
  }

  /// Resolves a user-facing thread-count option: 0 -> the number of CPUs
  /// in the calling thread's affinity mask (std::thread::hardware_concurrency
  /// where the mask is unavailable), clamped to at least 1.
  static uint32_t ResolveThreadCount(uint32_t requested);

  /// Runs fn(i) for every i in [begin, end), split into contiguous chunks
  /// across the pool, and waits for completion. Runs inline when the pool
  /// has a single worker or the range is small.
  void ParallelFor(uint64_t begin, uint64_t end,
                   const std::function<void(uint64_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  uint64_t in_flight_ = 0;  // queued + currently executing
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_COMMON_THREAD_POOL_H_
