#include "simrank/common/thread_pool.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <thread>
#include <vector>

namespace simrank {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(5), 5u);
#if defined(__linux__)
  // 0 follows the calling thread's CPU mask, not the machine's CPU count:
  // pinned to one CPU of its mask, this thread resolves 0 to one worker.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    GTEST_SKIP() << "cannot change this thread's CPU mask";
  }
  const uint32_t pinned = ThreadPool::ResolveThreadCount(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0),
            static_cast<uint32_t>(CPU_COUNT(&saved)));
#endif
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, ParallelForCoversExactRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(3, 250, [&hits](uint64_t i) {
    hits[i].fetch_add(1);
  });
  for (uint64_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 3 && i < 250) ? 1 : 0) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&calls](uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> single{0};
  pool.ParallelFor(7, 8, [&single](uint64_t i) {
    EXPECT_EQ(i, 7u);
    single.fetch_add(1);
  });
  EXPECT_EQ(single.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsShareOnePool) {
  // Two callers fan out over the same pool at once (the QueryEngine batch
  // APIs do this); each must complete without deadlock and cover its own
  // range exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  for (auto& h : hits) h.store(0);
  std::thread other([&pool, &hits] {
    pool.ParallelFor(0, 100, [&hits](uint64_t i) { hits[i].fetch_add(1); });
  });
  pool.ParallelFor(100, 200,
                   [&hits](uint64_t i) { hits[i].fetch_add(1); });
  other.join();
  for (uint64_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<uint64_t> order;
  pool.ParallelFor(0, 8, [&order](uint64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace simrank
