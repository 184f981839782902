#include "simrank/obs/metrics_history.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

namespace simrank {
namespace {

constexpr const char* kExposition =
    "# TYPE simrank_requests_total counter\n"
    "simrank_requests_total{endpoint=\"pair\"} 41\n"
    "simrank_requests_total{endpoint=\"topk\"} 7\n"
    "# TYPE simrank_inflight gauge\n"
    "simrank_inflight 3\n"
    "# TYPE simrank_request_seconds histogram\n"
    "simrank_request_seconds_bucket{le=\"0.001\"} 10\n"
    "simrank_request_seconds_bucket{le=\"+Inf\"} 12\n"
    "simrank_request_seconds_sum 0.5\n"
    "simrank_request_seconds_count 12\n";

TEST(ParsePrometheusTextTest, GroupsFamiliesAndLabels) {
  const auto families = ParsePrometheusText(kExposition);
  ASSERT_EQ(families.size(), 3u);

  EXPECT_EQ(families[0].name, "simrank_requests_total");
  EXPECT_EQ(families[0].type, "counter");
  ASSERT_EQ(families[0].samples.size(), 2u);
  EXPECT_EQ(families[0].samples[0].labels, "{endpoint=\"pair\"}");
  EXPECT_EQ(families[0].samples[0].value, 41.0);
  EXPECT_EQ(families[0].samples[1].value, 7.0);

  EXPECT_EQ(families[1].name, "simrank_inflight");
  EXPECT_EQ(families[1].type, "gauge");
  ASSERT_EQ(families[1].samples.size(), 1u);
  EXPECT_EQ(families[1].samples[0].labels, "");
  EXPECT_EQ(families[1].samples[0].value, 3.0);

  // Histogram suffixes fold into the declared family; the sample names
  // keep their _bucket/_sum/_count spelling.
  EXPECT_EQ(families[2].name, "simrank_request_seconds");
  EXPECT_EQ(families[2].type, "histogram");
  ASSERT_EQ(families[2].samples.size(), 4u);
  EXPECT_EQ(families[2].samples[0].name, "simrank_request_seconds_bucket");
  EXPECT_EQ(families[2].samples[2].name, "simrank_request_seconds_sum");
  EXPECT_EQ(families[2].samples[3].value, 12.0);
}

TEST(ParsePrometheusTextTest, SkipsGarbageLines) {
  const auto families = ParsePrometheusText(
      "# HELP something helpful\n"
      "not a metric line at all\n"
      "# TYPE ok gauge\n"
      "ok 1\n"
      "missing_value\n"
      "bad_value x\n");
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].name, "ok");
  ASSERT_EQ(families[0].samples.size(), 1u);
}

TEST(MetricsHistoryTest, RecordsAndQueriesSeries) {
  MetricsHistory history({/*window_seconds=*/60, /*interval_ms=*/1000});
  history.Record(ParsePrometheusText(kExposition), 1000);
  history.Record(ParsePrometheusText("# TYPE simrank_inflight gauge\n"
                                     "simrank_inflight 5\n"),
                 1001);
  EXPECT_GT(history.series_count(), 0u);

  const std::string json = history.QueryJson("simrank_inflight", 0);
  EXPECT_NE(json.find("simrank_inflight"), std::string::npos);
  EXPECT_NE(json.find("1000"), std::string::npos) << json;
  EXPECT_NE(json.find("1001"), std::string::npos) << json;
  EXPECT_NE(json.find("5"), std::string::npos) << json;

  // Histogram families expand to their _bucket/_sum/_count series.
  const std::string histogram_json =
      history.QueryJson("simrank_request_seconds", 0);
  EXPECT_NE(histogram_json.find("simrank_request_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(histogram_json.find("simrank_request_seconds_count"),
            std::string::npos);

  const std::string list = history.ListJson();
  EXPECT_NE(list.find("simrank_requests_total"), std::string::npos);
  EXPECT_NE(list.find("simrank_inflight"), std::string::npos);
}

TEST(MetricsHistoryTest, WindowDropsOldPoints) {
  MetricsHistory history({/*window_seconds=*/300, /*interval_ms=*/1000});
  const char* gauge =
      "# TYPE g gauge\n"
      "g %d\n";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), gauge, 1);
  history.Record(ParsePrometheusText(buffer), 1000);
  std::snprintf(buffer, sizeof(buffer), gauge, 2);
  history.Record(ParsePrometheusText(buffer), 1200);
  // A 100 s window anchored at the newest stamp (1200) excludes 1000.
  const std::string json = history.QueryJson("g", 100);
  EXPECT_NE(json.find("1200"), std::string::npos) << json;
  EXPECT_EQ(json.find("[1000,"), std::string::npos) << json;
}

TEST(MetricsHistoryTest, RingCapsPointsPerSeries) {
  // window 10 s at 1 s interval -> ~10 slots; 50 recordings must not grow
  // unbounded and must keep the newest points.
  MetricsHistory history({/*window_seconds=*/10, /*interval_ms=*/1000});
  for (int i = 0; i < 50; ++i) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer),
                  "# TYPE g gauge\ng %d\n", i);
    history.Record(ParsePrometheusText(buffer), 1000 + i);
  }
  const std::string json = history.QueryJson("g", 0);
  EXPECT_NE(json.find("1049"), std::string::npos) << json;  // newest kept
  EXPECT_EQ(json.find("[1000,"), std::string::npos) << json;  // oldest gone
}

TEST(MetricsHistoryTest, FirstWrapEvictsTheOldestPoint) {
  // 3 slots: the fourth point must overwrite 1000, not 1001.
  MetricsHistory history({/*window_seconds=*/3, /*interval_ms=*/1000});
  for (int i = 0; i < 4; ++i) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "# TYPE g gauge\ng %d\n", i);
    history.Record(ParsePrometheusText(buffer), 1000 + i);
  }
  const std::string json = history.QueryJson("g", 0);
  EXPECT_NE(json.find("\"points\":[[1001,1],[1002,2],[1003,3]]"),
            std::string::npos)
      << json;
}

TEST(MetricsHistoryTest, UnknownMetricGivesEmptySeries) {
  MetricsHistory history({60, 1000});
  history.Record(ParsePrometheusText(kExposition), 1000);
  const std::string json = history.QueryJson("no_such_metric", 0);
  EXPECT_NE(json.find("\"series\":[]"), std::string::npos) << json;
}

TEST(MetricsSamplerTest, DrivesHistoryAtInterval) {
  MetricsHistory history({/*window_seconds=*/60, /*interval_ms=*/20});
  std::atomic<int> calls{0};
  MetricsSampler sampler(&history, [&calls] {
    ++calls;
    return ParsePrometheusText("# TYPE g gauge\ng 1\n");
  });
  sampler.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sampler.samples_taken() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler.Stop();
  EXPECT_GE(sampler.samples_taken(), 3u);
  EXPECT_GE(calls.load(), 3);
  EXPECT_EQ(history.series_count(), 1u);
}

}  // namespace
}  // namespace simrank
