// Unit tests of the benchmark's statistics and generator, plus a short
// loopback smoke run of every workload on a tiny graph with its
// correctness gates on.
#include "loadgen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "simrank/gen/generators.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/server/server.h"
#include "serving_common.h"
#include "workloads.h"

namespace simrank::e2e {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i + 1);
  return values;
}

TEST(PercentileTest, NearestRankIsAnExactSample) {
  const std::vector<double> values = Iota(1000);  // 1..1000
  EXPECT_EQ(NearestRank(values, 0.5), 500);
  EXPECT_EQ(NearestRank(values, 0.99), 990);  // ten samples beyond it
  EXPECT_EQ(NearestRank(values, 1.0), 1000);
  EXPECT_EQ(NearestRank(values, 0.0001), 1);
  EXPECT_EQ(Percentile({3, 1, 2}, 0.5), 2);
  EXPECT_EQ(NearestRank(Iota(999), 0.99), 990);  // rank ceil(989.01)
}

TEST(PercentileTest, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({4, 1, 3}), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(PercentileTest, TailKeepsTenSamplesBeyond) {
  // p99 once the sample supports it ...
  EXPECT_EQ(TailValue(Iota(1000)), 990);
  EXPECT_EQ(TailValue(Iota(2000)), 1980);
  // ... otherwise the value with exactly ten samples above it.
  EXPECT_EQ(TailValue(Iota(999)), 989);
  EXPECT_EQ(TailValue(Iota(100)), 90);
  EXPECT_EQ(TailValue(Iota(11)), 1);
}

std::vector<Sample> Uniform(size_t count, uint64_t spacing_ns,
                            double latency) {
  std::vector<Sample> samples;
  for (size_t i = 0; i < count; ++i) {
    samples.push_back(Sample{i * spacing_ns, latency});
  }
  return samples;
}

TEST(WindowTest, OneP99PerFullWindow) {
  // 4 windows of 1000 samples; window w has latencies w*1000+1 ..
  std::vector<Sample> samples;
  for (uint64_t w = 0; w < 4; ++w) {
    for (uint64_t i = 0; i < 1000; ++i) {
      samples.push_back(
          Sample{w * 1000000 + i * 1000, static_cast<double>(w * 1000 + i + 1)});
    }
  }
  const std::vector<double> p99s = WindowP99s(samples, 1000000);
  ASSERT_EQ(p99s.size(), 4u);
  EXPECT_EQ(p99s[0], 990);
  EXPECT_EQ(p99s[3], 3990);
  // The reported tail is the quietest window's.
  EXPECT_EQ(TailLatency(samples, 1000000), 990);
}

TEST(WindowTest, ShortWindowsMergeUntilTenBeyond) {
  // 2500 samples over 5 windows of 500: each window is too short, so
  // windows merge forward in pairs (1000 each) and the short tail of 500
  // joins the last full window.
  const std::vector<Sample> samples = Uniform(2500, 1000, 7.0);
  const std::vector<double> p99s = WindowP99s(samples, 500000);
  ASSERT_EQ(p99s.size(), 2u);
  // Too few for any window: the tail falls back to rank N-10.
  const std::vector<Sample> few = Uniform(500, 1000, 3.0);
  EXPECT_TRUE(WindowP99s(few, 100000).empty());
  EXPECT_EQ(TailLatency(few, 100000), 3.0);
}

TEST(WindowTest, FailuresCountAsMissingTheLimit) {
  std::vector<Sample> samples = Uniform(1000, 1000, 5.0);
  for (size_t i = 0; i < 10; ++i) samples[i * 7].latency_us = kFailedLatency;
  EXPECT_EQ(TailLatency(samples, UINT64_MAX), 5.0);  // 10 beyond p99
  samples[999].latency_us = kFailedLatency;
  EXPECT_TRUE(std::isinf(TailLatency(samples, UINT64_MAX)));
}

TEST(WindowTest, MedianIsTheQuietestWindowMedian) {
  // Three windows of 200: one fast (p50 10), two slow (p50 50). A whole-
  // phase p50 would follow the slow stretch; the reported one does not.
  std::vector<Sample> samples;
  for (uint64_t i = 0; i < 600; ++i) {
    samples.push_back(Sample{i * 1000, i >= 200 ? 50.0 : 10.0});
  }
  EXPECT_EQ(MedianLatency(samples, 200000), 10.0);
  // Windows below kMinMedianSamples (20) merge: 10-sample windows pair up.
  EXPECT_EQ(WindowPercentiles(samples, 10000, 0.5, kMinMedianSamples).size(),
            30u);
  // A phase too small for one window reports its whole median.
  const std::vector<Sample> few = Uniform(10, 1000, 4.0);
  EXPECT_EQ(MedianLatency(few, 1000), 4.0);
}

TEST(WindowTest, RatesCountSuccessesPerFullWindow) {
  // 1000 sends over 1 s, 10% failed; windows of 0.25 s within 1 s.
  std::vector<Sample> samples = Uniform(1000, 1000000, 1.0);
  for (size_t i = 0; i < 1000; i += 10) samples[i].latency_us = kFailedLatency;
  const std::vector<double> rates =
      WindowRates(samples, 250000000, 1000000000);
  ASSERT_EQ(rates.size(), 4u);
  for (const double rate : rates) EXPECT_DOUBLE_EQ(rate, 900.0);
  // Capacity is the fastest window: 10 windows of 0.1 s with 1..10
  // completions -> rates 10..100/s, reported 100/s.
  std::vector<Sample> ramp;
  for (uint64_t w = 0; w < 10; ++w) {
    for (uint64_t i = 0; i <= w; ++i) {
      ramp.push_back(Sample{w * 100000000 + i, 1.0});
    }
  }
  EXPECT_DOUBLE_EQ(PeakRate(ramp, 100000000, 1000000000), 100.0);
  // A failure in the fastest window lowers it.
  ramp.back().latency_us = kFailedLatency;
  EXPECT_DOUBLE_EQ(PeakRate(ramp, 100000000, 1000000000), 90.0);
  // Sends past the duration fall outside every window.
  EXPECT_EQ(WindowRates(samples, 300000000, 1000000000).size(), 3u);
}

/// A small live server for generator tests.
class GeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeWebGraph(500, 3);
    WalkIndexOptions options;
    options.num_fingerprints = 16;
    options.walk_length = 4;
    auto index = WalkIndex::Build(graph_, options);
    ASSERT_TRUE(index.ok());
    index_ = std::make_unique<WalkIndex>(std::move(index).value());
    engine_ = std::make_unique<QueryEngine>(*index_);
    ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = 2;
    server_ = std::make_unique<SimRankServer>(*engine_, server_options);
    ASSERT_TRUE(server_->Bind().ok());
    thread_ = std::thread([this] { ASSERT_TRUE(server_->Serve().ok()); });
  }

  void TearDown() override {
    server_->Shutdown();
    thread_.join();
  }

  DiGraph graph_;
  std::unique_ptr<WalkIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<SimRankServer> server_;
  std::thread thread_;
};

TEST_F(GeneratorTest, SendsOnScheduleAndTimesFromDue) {
  LoadGenerator generator;
  std::string error;
  ASSERT_TRUE(generator.Connect(server_->port(), 2, &error)) << error;
  const ReadStream stream(1, graph_.n(), {});
  QueryEngine reference(*index_);
  std::vector<Lane> lanes(1);
  lanes[0].rate = 2000;
  lanes[0].count = 400;  // 0.2 s
  lanes[0].connections = {0, 1};
  lanes[0].render = [&](uint64_t i, std::string* out) {
    RenderRead(stream.At(i), 0, out);
  };
  uint64_t checked = 0;
  lanes[0].inspect = [&](uint64_t i, int status, std::string_view,
                         std::string_view body) {
    EXPECT_EQ(status, 200);
    EXPECT_TRUE(
        CheckReadResponse(stream.At(i), std::string(body), reference).ok());
    ++checked;
  };
  const uint64_t start = NowNanos();
  const std::vector<LaneResult> result = generator.Run(lanes, 1000000000);
  const double elapsed = static_cast<double>(NowNanos() - start) / 1e9;
  const LaneResult& lane = result[0];
  EXPECT_EQ(lane.scheduled, 400u);
  EXPECT_EQ(lane.issued, 400u);
  EXPECT_EQ(lane.failed, 0u);
  EXPECT_EQ(checked, 400u);
  // Open loop: the phase lasts as long as the schedule, not the service.
  EXPECT_GE(elapsed, 0.199);
  EXPECT_LT(elapsed, 1.0);
  // Due times follow start + i / rate exactly.
  EXPECT_EQ(lane.samples[0].due_ns, 0u);
  EXPECT_EQ(lane.samples[399].due_ns, 399u * 500000u);
  for (size_t i = 0; i < lane.samples.size(); ++i) {
    EXPECT_GE(lane.late_us[i], 0.0);
    // Latency runs from the due time, so it includes the lateness.
    EXPECT_GE(lane.samples[i].latency_us, lane.late_us[i]);
  }
}

TEST_F(GeneratorTest, ClosedLoopKeepsDepthInFlight) {
  LoadGenerator generator;
  std::string error;
  ASSERT_TRUE(generator.Connect(server_->port(), 2, &error)) << error;
  const ReadStream stream(2, graph_.n(), {});
  std::vector<Lane> lanes(1);
  lanes[0].depth = 3;
  lanes[0].duration_ns = 200000000;
  lanes[0].count = UINT64_MAX;
  lanes[0].connections = {0, 1};
  lanes[0].render = [&](uint64_t i, std::string* out) {
    RenderRead(stream.At(i), 0, out);
  };
  const uint64_t start = NowNanos();
  const std::vector<LaneResult> result = generator.Run(lanes, 1000000000);
  const double elapsed = static_cast<double>(NowNanos() - start) / 1e9;
  const LaneResult& lane = result[0];
  EXPECT_EQ(lane.failed, 0u);
  EXPECT_EQ(lane.scheduled, lane.issued);
  // Saturated for 0.2 s: far more than one round trip's worth, and every
  // send lies inside the lane's time.
  EXPECT_GT(lane.issued, 100u);
  EXPECT_LT(lane.samples.back().due_ns, 200000000u);
  EXPECT_GE(elapsed, 0.199);
  EXPECT_LT(elapsed, 1.0);
  for (const double late : lane.late_us) EXPECT_EQ(late, 0.0);
}

TEST_F(GeneratorTest, ErrorsCountAsFailures) {
  LoadGenerator generator;
  std::string error;
  ASSERT_TRUE(generator.Connect(server_->port(), 1, &error)) << error;
  std::vector<Lane> lanes(1);
  lanes[0].rate = 1000;
  lanes[0].count = 20;
  lanes[0].connections = {0};
  lanes[0].render = [&](uint64_t i, std::string* out) {
    // Every other request asks for a vertex past n: 400-class answers.
    ReadOp op;
    op.a = i % 2 == 0 ? 1 : graph_.n() + 5;
    op.b = 2;
    RenderRead(op, 0, out);
  };
  const std::vector<LaneResult> result = generator.Run(lanes, 1000000000);
  EXPECT_EQ(result[0].issued, 20u);
  EXPECT_EQ(result[0].failed, 10u);
  EXPECT_TRUE(std::isinf(result[0].samples[1].latency_us));
  EXPECT_FALSE(std::isinf(result[0].samples[0].latency_us));
}

TEST(UpdateStreamTest, NoEdgeTouchedTwiceSoAnyOrderApplies) {
  const DiGraph graph = MakeWebGraph(300, 5);
  const auto stream = MakeUpdateStream(graph, 9, 40, 2, 2);
  DiGraph forward = graph;
  for (const auto& batch : stream) {
    auto next = ApplyEdgeUpdates(forward, batch);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    forward = std::move(next).value();
  }
  DiGraph backward = graph;
  for (auto it = stream.rbegin(); it != stream.rend(); ++it) {
    auto next = ApplyEdgeUpdates(backward, *it);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    backward = std::move(next).value();
  }
  EXPECT_TRUE(forward == backward);
  // Same seed, same stream.
  EXPECT_EQ(MakeUpdateStream(graph, 9, 40, 2, 2), stream);
}

TEST(ReadStreamTest, SeededAndReplayable) {
  const ReadStream a(7, 1000, MakeHotSet(7, 1000, 16));
  const ReadStream b(7, 1000, MakeHotSet(7, 1000, 16));
  uint64_t topk = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    const ReadOp x = a.At(i);
    const ReadOp y = b.At(i);
    EXPECT_EQ(x.topk, y.topk);
    EXPECT_EQ(x.a, y.a);
    EXPECT_EQ(x.b, y.b);
    topk += x.topk;
  }
  EXPECT_NEAR(static_cast<double>(topk) / 10000, 0.2, 0.02);
}

/// ~2 s of every workload on a tiny graph; the gates must pass and every
/// metric must be present.
class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, GatesPassAndMetricsPrint) {
  const std::filesystem::path dir =
      std::filesystem::current_path() /
      ("e2e-smoke-" + GetParam() + "-" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  for (const bool traced : {false, true}) {
    RunOptions options;
    options.workload = GetParam();
    options.seed = 3;
    options.seconds = 2;
    options.traced = traced;
    options.work_dir = dir.string();
    options.tiny = true;
    const RunReport report = RunWorkload(options);
    EXPECT_TRUE(report.correct) << report.error;
    EXPECT_GT(report.attempted, 0u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.metrics.size(), traced ? 36u : 4u);
    for (const Metric& metric : report.metrics) {
      EXPECT_TRUE(std::isfinite(metric.value)) << metric.name;
      if (!traced) EXPECT_GT(metric.value, 0) << metric.name;
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace simrank::e2e
