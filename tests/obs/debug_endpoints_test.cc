// End-to-end tests of the self-diagnosis HTTP surface on a real server:
// /v1/debug/profile, /v1/debug/timeseries, /v1/debug/stall, and the
// watchdog / build_info blocks in /v1/stats and /metrics.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "simrank/common/string_util.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/server/http_client.h"
#include "simrank/server/server.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

class DiagnosticsFixture {
 public:
  explicit DiagnosticsFixture(ServerOptions options = {})
      : graph_(testing::RandomGraph(60, 240, 11)),
        index_(BuildIndex(graph_)),
        engine_(index_) {
    options.port = 0;
    server_ = std::make_unique<SimRankServer>(engine_, options, nullptr);
    OIPSIM_CHECK(server_->Bind().ok());
    serve_thread_ = std::thread([this] {
      OIPSIM_CHECK(server_->Serve().ok());
    });
  }

  ~DiagnosticsFixture() {
    if (serve_thread_.joinable()) {
      server_->Shutdown();
      serve_thread_.join();
    }
  }

  uint16_t port() const { return server_->port(); }
  SimRankServer& server() { return *server_; }

  Result<HttpClientResponse> Get(const std::string& target) {
    auto client = LoopbackHttpClient::Connect(port());
    OIPSIM_CHECK(client.ok());
    return client->Get(target);
  }

 private:
  static WalkIndex BuildIndex(const DiGraph& graph) {
    WalkIndexOptions options;
    options.num_fingerprints = 48;
    auto index = WalkIndex::Build(graph, options);
    OIPSIM_CHECK(index.ok());
    return std::move(*index);
  }

  DiGraph graph_;
  WalkIndex index_;
  QueryEngine engine_;
  std::unique_ptr<SimRankServer> server_;
  std::thread serve_thread_;
};

#if defined(__linux__)
TEST(DebugProfileTest, ReturnsCollapsedStacksUnderLoad) {
  DiagnosticsFixture fixture;
  std::atomic<bool> stop{false};
  std::thread load([&fixture, &stop] {
    auto client = LoopbackHttpClient::Connect(fixture.port());
    OIPSIM_CHECK(client.ok());
    uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto response =
          client->Get(StrFormat("/v1/pair?a=%u&b=%u", i % 60, (i + 7) % 60));
      OIPSIM_CHECK(response.ok() && response->status == 200);
      ++i;
    }
  });
  auto response = fixture.Get("/v1/debug/profile?seconds=0.5&hz=211");
  stop.store(true, std::memory_order_relaxed);
  load.join();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  EXPECT_EQ(response->body.rfind("# profile ", 0), 0u) << response->body;
  EXPECT_NE(response->body.find("frequency_hz=211"), std::string::npos);
  // The epoll loop burns CPU serving the load, so its registered root
  // frame must appear with symbolized simrank frames under it.
  EXPECT_NE(response->body.find("epoll-loop;"), std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("simrank::"), std::string::npos)
      << response->body;
}

TEST(DebugProfileTest, ValidatesParamsAndMethod) {
  DiagnosticsFixture fixture;
  EXPECT_EQ(fixture.Get("/v1/debug/profile?seconds=0")->status, 400);
  EXPECT_EQ(fixture.Get("/v1/debug/profile?seconds=120")->status, 400);
  EXPECT_EQ(fixture.Get("/v1/debug/profile?hz=0")->status, 400);
  EXPECT_EQ(fixture.Get("/v1/debug/profile?hz=100000")->status, 400);
  EXPECT_EQ(fixture.Get("/v1/debug/profile?bogus=1")->status, 400);
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  auto post = client->Post("/v1/debug/profile", "{}");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 405);
}

TEST(DebugProfileTest, ConcurrentProfileAnswers409) {
  DiagnosticsFixture fixture;
  std::thread first([&fixture] {
    auto response = fixture.Get("/v1/debug/profile?seconds=1");
    OIPSIM_CHECK(response.ok() && response->status == 200);
  });
  // Let the first session arm, then a second request must be rejected.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto second = fixture.Get("/v1/debug/profile?seconds=1");
  first.join();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 409);
}

TEST(DebugProfileTest, ProfilingDoesNotChangeResponseBytes) {
  DiagnosticsFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  std::vector<std::string> before;
  for (uint32_t v = 0; v < 8; ++v) {
    auto response = client->Get(StrFormat("/v1/pair?a=%u&b=%u", v, v + 1));
    ASSERT_TRUE(response.ok() && response->status == 200);
    before.push_back(std::move(response->body));
  }
  std::thread profile([&fixture] {
    auto response = fixture.Get("/v1/debug/profile?seconds=1");
    OIPSIM_CHECK(response.ok() && response->status == 200);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (uint32_t v = 0; v < 8; ++v) {
    auto response = client->Get(StrFormat("/v1/pair?a=%u&b=%u", v, v + 1));
    ASSERT_TRUE(response.ok() && response->status == 200);
    EXPECT_EQ(response->body, before[v]) << "vertex " << v;
  }
  profile.join();
}
#endif  // __linux__

TEST(DebugTimeseriesTest, ServesRecordedSeries) {
  ServerOptions options;
  options.diagnostics.metrics_history_interval_ms = 20;  // fast sampling
  DiagnosticsFixture fixture(options);
  // Wait until the sampler recorded at least one exposition.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    auto list = fixture.Get("/v1/debug/timeseries");
    ASSERT_TRUE(list.ok());
    ASSERT_EQ(list->status, 200);
    if (list->body.find("simrank_uptime_seconds") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  auto series = fixture.Get("/v1/debug/timeseries?metric=simrank_inflight");
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->status, 200);
  EXPECT_NE(series->body.find("simrank_inflight"), std::string::npos);
  EXPECT_NE(series->body.find("\"points\""), std::string::npos)
      << series->body;

  auto bad = fixture.Get("/v1/debug/timeseries?metric=g&window=abc");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
}

TEST(DebugTimeseriesTest, DisabledHistoryAnswers503) {
  ServerOptions options;
  options.diagnostics.metrics_history_window_s = 0;
  DiagnosticsFixture fixture(options);
  auto response = fixture.Get("/v1/debug/timeseries");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 503);
}

TEST(DebugStallTest, ArmedStallHookTripsWatchdogDeterministically) {
  ServerOptions options;
  options.debug_stall_limit_ms = 500;
  options.watchdog_interval_ms = 5;
  options.watchdog_stall_us = 50'000;  // 50 ms
  DiagnosticsFixture fixture(options);
  EXPECT_EQ(fixture.server().watchdog_snapshot().stalls, 0u);
  // Blocks the loop thread for 200 ms — past the 50 ms threshold.
  auto response = fixture.Get("/v1/debug/stall?ms=200");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"stalled_ms\":200"), std::string::npos);
  // The monitor observes the lag while the loop sleeps; give it one more
  // poll to finalize counters after the beat resumes.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fixture.server().watchdog_snapshot().stalls == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Watchdog::Snapshot snapshot = fixture.server().watchdog_snapshot();
  EXPECT_GE(snapshot.stalls, 1u);
  EXPECT_GE(snapshot.max_loop_lag_us, 50'000u);

  // The request's duration is clamped to the configured limit.
  auto clamped = fixture.Get("/v1/debug/stall?ms=100000");
  ASSERT_TRUE(clamped.ok());
  EXPECT_NE(clamped->body.find("\"stalled_ms\":500"), std::string::npos)
      << clamped->body;
}

TEST(DebugStallTest, UnarmedStallHookIs404) {
  DiagnosticsFixture fixture;  // debug_stall_limit_ms defaults to 0
  auto response = fixture.Get("/v1/debug/stall?ms=10");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 404);
}

TEST(StatsSurfaceTest, ExposesBuildInfoWatchdogAndMemory) {
  DiagnosticsFixture fixture;
  auto stats = fixture.Get("/v1/stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->status, 200);
  EXPECT_NE(stats->body.find("\"build_info\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"compiler\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"watchdog\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"dispatch_latency_us\""), std::string::npos);
#if defined(__linux__)
  EXPECT_NE(stats->body.find("\"process_memory\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"resident_bytes\""), std::string::npos);
#endif

  auto metrics = fixture.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("simrank_build_info{"), std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_uptime_seconds"), std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_loop_lag_seconds"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_queue_depth"), std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_dispatch_latency_seconds_bucket"),
            std::string::npos);
#if defined(__linux__)
  EXPECT_NE(metrics->body.find("simrank_resident_bytes"), std::string::npos);
#endif
}

TEST(StatsSurfaceTest, InvalidDiagnosticOptionsFailValidation) {
  ServerOptions options;
  options.watchdog_interval_ms = 120'000;  // > 60 s cap
  EXPECT_FALSE(options.Validate().ok());

  ServerOptions stall;
  stall.debug_stall_limit_ms = 60'000;  // > 10 s cap
  EXPECT_FALSE(stall.Validate().ok());

  ServerOptions history;
  history.diagnostics.metrics_history_window_s = 1;
  history.diagnostics.metrics_history_interval_ms = 0;
  EXPECT_FALSE(history.Validate().ok());

  ServerOptions log;
  log.diagnostics.log_path = "/tmp/x.jsonl";
  log.diagnostics.profile_log_period_s = 60;
  log.diagnostics.profile_log_hz = 0;
  EXPECT_FALSE(log.Validate().ok());
}

}  // namespace
}  // namespace simrank
