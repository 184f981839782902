#include "simrank/obs/metric_set.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simrank/common/string_util.h"

namespace simrank {
namespace {

/// Six samples summing to 2.006 s, which %g prints exactly too.
LatencyHistogram::Snapshot FixedSnapshot() {
  LatencyHistogram histogram;
  for (const uint64_t micros : {1u, 3u, 4u, 700u, 5292u, 2000000u}) {
    histogram.Record(micros);
  }
  return histogram.snapshot();
}

/// The hand-written Prometheus histogram loop the frontends used before
/// the model: %g bounds and sums, %llu counts.
std::string ReferenceHistogramText(const LatencyHistogram::Snapshot& s) {
  std::string out;
  uint64_t cumulative = 0;
  for (uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    cumulative += s.buckets[b];
    if (b + 1 < LatencyHistogram::kNumBuckets) {
      out += StrFormat(
          "simrank_stage_duration_seconds_bucket{stage=\"decode\","
          "le=\"%g\"} %llu\n",
          static_cast<double>(LatencyHistogram::BucketUpperMicros(b)) / 1e6,
          static_cast<unsigned long long>(cumulative));
    } else {
      out += StrFormat(
          "simrank_stage_duration_seconds_bucket{stage=\"decode\","
          "le=\"+Inf\"} %llu\n",
          static_cast<unsigned long long>(cumulative));
    }
  }
  out += StrFormat("simrank_stage_duration_seconds_sum{stage=\"decode\"} %g\n",
                   static_cast<double>(s.sum_micros) / 1e6);
  out += StrFormat(
      "simrank_stage_duration_seconds_count{stage=\"decode\"} %llu\n",
      static_cast<unsigned long long>(s.count));
  return out;
}

TEST(MetricSetTest, HistogramRendersTheReferenceLines) {
  const LatencyHistogram::Snapshot snapshot = FixedSnapshot();
  MetricSet m;
  m.Histogram("trace.stages.decode", "simrank_stage_duration_seconds",
              snapshot, PromLabel("stage", "decode"));
  std::string expected = ReferenceHistogramText(snapshot);
  // %g rounded the one 7-digit bound; the model prints it exactly.
  const std::string rounded = "le=\"1.04858\"";
  expected.replace(expected.find(rounded), rounded.size(),
                   "le=\"1.048576\"");
  EXPECT_EQ(PrometheusText(m.Families()),
            "# TYPE simrank_stage_duration_seconds histogram\n" + expected);
}

TEST(MetricSetTest, JsonNestsByPathInDeclarationOrder) {
  MetricSet m;
  m.Counter("requests.pair", "simrank_requests_total", 3,
            PromLabel("endpoint", "pair"))
      .Info("server.role", "primary")
      .Info("server.limits.inflight", 64)
      .Info("server.limits.draining", false)
      .Gauge("server.uptime_seconds", "", 1.5)
      .Duration("lag_us", "simrank_lag_seconds", 250)
      .Gauge("", "simrank_prom_only", 7);
  EXPECT_EQ(m.ToJson(),
            "{\"requests\":{\"pair\":3},\"server\":{\"role\":\"primary\","
            "\"limits\":{\"inflight\":64,\"draining\":false},"
            "\"uptime_seconds\":1.5},\"lag_us\":250}");
  EXPECT_EQ(PrometheusText(m.Families()),
            "# TYPE simrank_requests_total counter\n"
            "simrank_requests_total{endpoint=\"pair\"} 3\n"
            "# TYPE simrank_lag_seconds gauge\n"
            "simrank_lag_seconds 0.00025\n"
            "# TYPE simrank_prom_only gauge\n"
            "simrank_prom_only 7\n");
}

TEST(MetricSetTest, HistogramJsonForm) {
  MetricSet m;
  m.Counter("compaction.completed", "", 6)
      .Histogram("compaction", "", FixedSnapshot());
  EXPECT_EQ(m.ToJson(),
            "{\"compaction\":{\"completed\":6,\"count\":6,\"sum_us\":2006000,"
            "\"p50_us\":4,\"p99_us\":18446744073709551615,\"buckets\":"
            "[1,0,2,0,0,0,0,0,0,0,1,0,0,1,0,0,0,0,0,0,0,1]}}");
}

TEST(MetricSetDeathTest, RejectsAPathThatReopensAClosedObject) {
  MetricSet m;
  m.Info("a.x", 1).Info("b.y", 2).Info("a.z", 3);
  EXPECT_DEATH(m.ToJson(), "reopens a closed object");
}

TEST(MetricSetTest, ParsingTheTextGivesBackTheFamilies) {
  MetricSet m;
  m.Counter("requests.pair", "simrank_requests_total", 41,
            PromLabel("endpoint", "pair"))
      .Gauge("", "simrank_uptime_seconds", 1234.5678901)
      .Counter("requests.topk", "simrank_requests_total", 7,
               PromLabel("endpoint", "topk"))
      .Histogram("latency_us.pair", "simrank_request_duration_seconds",
                 FixedSnapshot(), PromLabel("endpoint", "pair"))
      .Histogram("dispatch_us", "simrank_dispatch_latency_seconds",
                 FixedSnapshot());
  const std::vector<PromFamily> families = m.Families();
  ASSERT_EQ(families.size(), 4u);
  const std::vector<PromFamily> parsed =
      ParsePrometheusText(PrometheusText(families));
  ASSERT_EQ(parsed.size(), families.size());
  for (size_t f = 0; f < families.size(); ++f) {
    EXPECT_EQ(parsed[f].name, families[f].name);
    EXPECT_EQ(parsed[f].type, families[f].type);
    ASSERT_EQ(parsed[f].samples.size(), families[f].samples.size());
    for (size_t i = 0; i < families[f].samples.size(); ++i) {
      EXPECT_EQ(parsed[f].samples[i].name, families[f].samples[i].name);
      EXPECT_EQ(parsed[f].samples[i].labels, families[f].samples[i].labels);
      EXPECT_EQ(parsed[f].samples[i].value, families[f].samples[i].value);
    }
  }
}

TEST(MetricSetTest, MergeFamiliesAppendsByName) {
  std::vector<PromFamily> into = {
      {"a", "gauge", {{"a", "{role=\"router\"}", 1}}}};
  MergeFamilies({{"b", "counter", {{"b", "", 2}}},
                 {"a", "gauge", {{"a", "{shard=\"0\"}", 3}}}},
                &into);
  ASSERT_EQ(into.size(), 2u);
  EXPECT_EQ(into[0].name, "a");
  ASSERT_EQ(into[0].samples.size(), 2u);
  EXPECT_EQ(into[0].samples[1].labels, "{shard=\"0\"}");
  EXPECT_EQ(into[1].name, "b");
}

}  // namespace
}  // namespace simrank
