// One stats model per frontend: each statistic is declared once, in order,
// with its /v1/stats JSON path, its Prometheus family and labels, or both.
// The list renders as the /v1/stats document (objects nested by dotted
// path, in declaration order) and as Prometheus families (one per name, in
// order of first appearance), which PrometheusText() turns into exposition
// text and the metrics history records. Values and `le` bounds print in
// the shortest form that round-trips (JsonDouble), so integers print as
// integers. Histograms are LatencyHistogram snapshots in microseconds.
#ifndef OIPSIM_SIMRANK_OBS_METRIC_SET_H_
#define OIPSIM_SIMRANK_OBS_METRIC_SET_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simrank/common/latency_histogram.h"

namespace simrank {

/// One sample line of a Prometheus text exposition.
struct PromSample {
  std::string name;    // metric name, e.g. "simrank_requests_total"
  std::string labels;  // raw label block including braces, or ""
  double value = 0.0;
};

/// A metric family: the samples sharing one name/TYPE declaration.
struct PromFamily {
  std::string name;
  std::string type;  // "counter" | "gauge" | "histogram" | "untyped"
  std::vector<PromSample> samples;
};

/// Parses Prometheus text exposition v0.0.4 (the format this repo's
/// /metrics endpoints emit). Histogram _bucket/_sum/_count samples are
/// grouped under their declared family name. Unparseable lines are
/// skipped.
std::vector<PromFamily> ParsePrometheusText(std::string_view text);

/// Text exposition of `families`: one # TYPE line per family, then its
/// samples.
std::string PrometheusText(const std::vector<PromFamily>& families);

/// Appends `from`'s samples to the family of the same name in `*into`,
/// adding families `*into` lacks at its end.
void MergeFamilies(const std::vector<PromFamily>& from,
                   std::vector<PromFamily>* into);

/// One label, `key="value"`, for the `labels` arguments below.
std::string PromLabel(std::string_view key, std::string_view value);

/// A statistic's value: an unsigned integer, a real, a flag, or (info
/// only) a string. Implicit from each, so declarations read as plain
/// values.
class StatValue {
 public:
  StatValue(std::integral auto value)  // bool picks the overload below
      : kind_(Kind::kUint), uint_(static_cast<uint64_t>(value)) {}
  StatValue(double value) : kind_(Kind::kReal), real_(value) {}
  StatValue(bool value) : kind_(Kind::kBool), uint_(value) {}
  StatValue(std::string value) : kind_(Kind::kText), text_(std::move(value)) {}
  StatValue(const char* value) : StatValue(std::string(value)) {}

 private:
  friend class MetricSet;
  enum class Kind : uint8_t { kUint, kReal, kBool, kText };
  Kind kind_;
  uint64_t uint_ = 0;
  double real_ = 0.0;
  std::string text_;
};

/// The ordered statistics of one process at one instant. A JSON path or a
/// family left blank keeps the statistic out of that dialect. `labels` is
/// a comma-separated list of PromLabel()s, without braces.
class MetricSet {
 public:
  MetricSet& Counter(std::string json_path, std::string family,
                     StatValue value, std::string labels = {}) {
    return Add({Kind::kCounter, std::move(json_path), std::move(family),
                std::move(labels), std::move(value)});
  }
  MetricSet& Gauge(std::string json_path, std::string family, StatValue value,
                   std::string labels = {}) {
    return Add({Kind::kGauge, std::move(json_path), std::move(family),
                std::move(labels), std::move(value)});
  }
  /// A duration gauge: /v1/stats shows the integer microseconds, /metrics
  /// shows seconds.
  MetricSet& Duration(std::string json_path, std::string family,
                      uint64_t micros) {
    return Add({Kind::kDuration, std::move(json_path), std::move(family), {},
                micros});
  }
  /// /v1/stats shows {count, sum_us, p50_us, p99_us, buckets} at
  /// `json_path`; /metrics shows cumulative _bucket{le} lines in seconds,
  /// _sum and _count.
  MetricSet& Histogram(std::string json_path, std::string family,
                       const LatencyHistogram::Snapshot& snapshot,
                       std::string labels = {}) {
    return Add({Kind::kHistogram, std::move(json_path), std::move(family),
                std::move(labels), 0, snapshot});
  }
  /// A string, flag or configured value only /v1/stats shows.
  MetricSet& Info(std::string json_path, StatValue value) {
    return Add({Kind::kInfo, std::move(json_path), {}, {}, std::move(value)});
  }

  /// The /v1/stats document. Aborts on a path that reopens an object
  /// already closed: the declarations of one object must be contiguous.
  std::string ToJson() const;

  std::vector<PromFamily> Families() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kDuration, kHistogram, kInfo };
  struct Entry {
    Kind kind;
    std::string json_path;
    std::string family;
    std::string labels;
    StatValue value;
    LatencyHistogram::Snapshot histogram = {};
  };

  MetricSet& Add(Entry entry);

  std::vector<Entry> entries_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_OBS_METRIC_SET_H_
