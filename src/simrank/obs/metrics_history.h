// In-process metrics history: the last ~15 minutes of every exported
// metric at 1 s resolution, so a just-degraded node can be inspected
// after the fact via GET /v1/debug/timeseries.
//
// A background MetricsSampler feeds the history once per interval with the
// node's Prometheus families — the same list its /metrics renders (see
// obs/metric_set.h) — so every gauge, counter and histogram bucket already
// exported becomes a series, and the two cannot drift apart.
#ifndef OIPSIM_SIMRANK_OBS_METRICS_HISTORY_H_
#define OIPSIM_SIMRANK_OBS_METRICS_HISTORY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "simrank/common/macros.h"
#include "simrank/obs/metric_set.h"

namespace simrank {

/// Fixed-window ring of (unix second, value) points per series. All
/// methods are thread-safe.
class MetricsHistory {
 public:
  struct Options {
    uint32_t window_seconds = 900;
    uint32_t interval_ms = 1000;
  };

  explicit MetricsHistory(Options options);
  OIPSIM_DISALLOW_COPY_AND_ASSIGN(MetricsHistory);

  /// Appends one point per sample of `families`, stamped `unix_seconds`.
  void Record(const std::vector<PromFamily>& families,
              uint64_t unix_seconds);

  /// JSON for /v1/debug/timeseries?metric=...&window=...: every series
  /// whose name is `metric` exactly, or one of metric_bucket /
  /// metric_sum / metric_count (histogram families). `window_seconds` is
  /// clamped to the configured window; points older than the newest
  /// recorded stamp minus the window are dropped.
  std::string QueryJson(std::string_view metric,
                        uint64_t window_seconds) const;

  /// JSON list of available family names.
  std::string ListJson() const;

  const Options& options() const { return options_; }
  size_t series_count() const;

 private:
  struct Series {
    std::string name;
    std::string labels;
    /// Grows to capacity_, then wraps; `next` is the oldest point's slot.
    std::vector<std::pair<uint64_t, double>> ring;
    size_t next = 0;
  };

  Options options_;
  size_t capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, Series> series_;     // key: name + labels
  std::map<std::string, std::string> families_;  // family name -> type
};

/// Drives a MetricsHistory: every interval it calls `provider` (the
/// node's own metric families) and records the result.
class MetricsSampler {
 public:
  MetricsSampler(MetricsHistory* history,
                 std::function<std::vector<PromFamily>()> provider)
      : history_(history), provider_(std::move(provider)) {}
  ~MetricsSampler() { Stop(); }

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(MetricsSampler);

  void Start();
  void Stop();
  uint64_t samples_taken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();

  MetricsHistory* history_;
  std::function<std::vector<PromFamily>()> provider_;
  std::atomic<uint64_t> samples_taken_{0};
  std::atomic<bool> stop_{true};
  std::thread thread_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_OBS_METRICS_HISTORY_H_
