#include "simrank/obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "simrank/common/string_util.h"
#include "simrank/obs/log_sink.h"

namespace simrank {
namespace {

// Separate compilation-visible burner so its symbol shows up in profiles.
// noinline keeps the frame (and its name) out of the caller.
__attribute__((noinline)) uint64_t BurnCpu(std::atomic<bool>* stop) {
  volatile uint64_t acc = 1;
  while (!stop->load(std::memory_order_relaxed)) {
    for (int i = 0; i < 4096; ++i) acc = acc * 2862933555777941757ull + 3037;
  }
  return acc;
}

#if defined(__linux__)

TEST(CpuProfilerTest, SamplesRegisteredBusyThread) {
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    ScopedProfiledThread profiled("burner");
    BurnCpu(&stop);
  });
  auto report =
      CpuProfiler::Instance().ProfileFor(0.4, /*frequency_hz=*/211);
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->armed_threads, 1u);
  EXPECT_GT(report->total_samples, 10u)
      << "a pegged thread at 211 Hz over 0.4 s should deliver samples";
  EXPECT_EQ(report->frequency_hz, 211u);
  EXPECT_GT(report->duration_seconds, 0.3);
  // The burner's stacks are rooted at its registered name and symbolize
  // into the burner function (internal linkage — exercises the .symtab
  // fallback).
  EXPECT_NE(report->collapsed.find("burner;"), std::string::npos)
      << report->collapsed;
  EXPECT_NE(report->collapsed.find("BurnCpu"), std::string::npos)
      << report->collapsed;
}

TEST(CpuProfilerTest, IdleRegisteredThreadCostsNothing) {
  std::atomic<bool> stop{false};
  std::thread idler([&stop] {
    ScopedProfiledThread profiled("idler");
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  auto report = CpuProfiler::Instance().ProfileFor(0.25);
  stop.store(true, std::memory_order_release);
  idler.join();
  ASSERT_TRUE(report.ok());
  // CPU-time timers do not fire for a sleeping thread.
  for (std::string_view line : StrSplit(report->collapsed, '\n')) {
    EXPECT_EQ(line.find("idler;"), std::string_view::npos) << line;
  }
}

TEST(CpuProfilerTest, ConcurrentSessionsAreRejected) {
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    ScopedProfiledThread profiled("burner2");
    BurnCpu(&stop);
  });
  ASSERT_TRUE(CpuProfiler::Instance().Start().ok());
  EXPECT_TRUE(CpuProfiler::Instance().running());
  const Status second = CpuProfiler::Instance().Start();
  EXPECT_FALSE(second.ok());
  const ProfileReport report = CpuProfiler::Instance().Stop();
  EXPECT_FALSE(CpuProfiler::Instance().running());
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  // Stop after Stop is a harmless no-op with an empty report.
  const ProfileReport idle_report = CpuProfiler::Instance().Stop();
  EXPECT_EQ(idle_report.total_samples, 0u);
  (void)report;
}

TEST(CpuProfilerTest, RejectsOutOfRangeArguments) {
  EXPECT_FALSE(CpuProfiler::Instance().Start(0).ok());
  EXPECT_FALSE(CpuProfiler::Instance().Start(CpuProfiler::kMaxHz + 1).ok());
  EXPECT_FALSE(CpuProfiler::Instance().ProfileFor(0.0).ok());
  EXPECT_FALSE(
      CpuProfiler::Instance().ProfileFor(CpuProfiler::kMaxSeconds + 1).ok());
}

TEST(CpuProfilerTest, CaptureThreadStackNamesBusyFrame) {
  std::atomic<bool> stop{false};
  std::atomic<int64_t> tid{0};
  std::thread burner([&stop, &tid] {
    ScopedProfiledThread profiled("capture-me");
    tid.store(CurrentTid(), std::memory_order_release);
    BurnCpu(&stop);
  });
  while (tid.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Give the thread a beat to be reliably inside the burn loop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::string stack =
      CpuProfiler::Instance().CaptureThreadStack(tid.load());
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  ASSERT_FALSE(stack.empty());
  EXPECT_EQ(stack.rfind("capture-me", 0), 0u) << stack;
}

TEST(CpuProfilerTest, CaptureOfUnknownTidIsEmpty) {
  EXPECT_EQ(CpuProfiler::Instance().CaptureThreadStack(1), "");
}

TEST(ProfileLoggerTest, WritesJsonlRecords) {
  const std::string path =
      StrFormat("/tmp/oipsim_profile_log_%d.jsonl", ::getpid());
  std::remove(path.c_str());
  auto log = JsonlLogSink::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    ScopedProfiledThread profiled("logged-burner");
    BurnCpu(&stop);
  });
  ProfileLogger::Options options;
  options.frequency_hz = 211;
  options.period_seconds = 1;
  auto logger = ProfileLogger::Start(options, log->get());
  ASSERT_TRUE(logger.ok()) << logger.status().ToString();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*logger)->profiles_written() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  (*logger)->Stop();
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  EXPECT_GE((*logger)->profiles_written(), 1u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char chunk[4096];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    content.append(chunk, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content.rfind("{\"type\":\"profile\",", 0), 0u) << content;
  EXPECT_NE(content.find("\"collapsed\""), std::string::npos);
  EXPECT_NE(content.find("\"frequency_hz\":211"), std::string::npos);
  EXPECT_NE(content.find("logged-burner"), std::string::npos);
}

#else  // !__linux__

TEST(CpuProfilerTest, UnsupportedPlatformReturnsUnimplemented) {
  EXPECT_FALSE(CpuProfiler::Instance().Start().ok());
  EXPECT_FALSE(CpuProfiler::Instance().ProfileFor(1.0).ok());
  EXPECT_EQ(CpuProfiler::Instance().CaptureThreadStack(1), "");
}

#endif  // __linux__

}  // namespace
}  // namespace simrank
