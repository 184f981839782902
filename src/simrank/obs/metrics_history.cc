#include "simrank/obs/metrics_history.h"

#include <algorithm>
#include <chrono>

#include "simrank/common/json_writer.h"

namespace simrank {

MetricsHistory::MetricsHistory(Options options) : options_(options) {
  if (options_.interval_ms == 0) options_.interval_ms = 1000;
  if (options_.window_seconds == 0) options_.window_seconds = 1;
  capacity_ = std::max<size_t>(
      1, static_cast<size_t>(options_.window_seconds) * 1000 /
             options_.interval_ms);
}

void MetricsHistory::Record(const std::vector<PromFamily>& families,
                            uint64_t unix_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const PromFamily& family : families) {
    families_[family.name] = family.type;
    for (const PromSample& sample : family.samples) {
      const std::string key = sample.name + sample.labels;
      Series& series = series_[key];
      if (series.ring.empty()) {
        series.name = sample.name;
        series.labels = sample.labels;
        series.ring.reserve(16);
      }
      if (series.ring.size() < capacity_) {
        series.ring.emplace_back(unix_seconds, sample.value);
      } else {
        series.ring[series.next] = {unix_seconds, sample.value};
        series.next = (series.next + 1) % capacity_;
      }
    }
  }
}

std::string MetricsHistory::QueryJson(std::string_view metric,
                                      uint64_t window_seconds) const {
  const uint64_t window =
      std::min<uint64_t>(window_seconds == 0 ? options_.window_seconds
                                             : window_seconds,
                         options_.window_seconds);
  std::lock_guard<std::mutex> lock(mutex_);

  // Matching series: exact name, or the histogram expansion of `metric`.
  const std::string bucket = std::string(metric) + "_bucket";
  const std::string sum = std::string(metric) + "_sum";
  const std::string count = std::string(metric) + "_count";
  std::vector<const Series*> matched;
  uint64_t newest = 0;
  for (const auto& [key, series] : series_) {
    if (series.name == metric || series.name == bucket ||
        series.name == sum || series.name == count) {
      matched.push_back(&series);
      for (const auto& [stamp, value] : series.ring) {
        (void)value;
        newest = std::max(newest, stamp);
      }
    }
  }
  const uint64_t cutoff = newest >= window ? newest - window + 1 : 0;

  JsonWriter json;
  json.BeginObject();
  json.Key("metric").String(metric);
  json.Key("window_seconds").Uint(window);
  json.Key("interval_ms").Uint(options_.interval_ms);
  json.Key("series").BeginArray();
  for (const Series* series : matched) {
    // Chronological order: the ring's oldest entry first.
    std::vector<std::pair<uint64_t, double>> points;
    points.reserve(series->ring.size());
    const size_t n = series->ring.size();
    for (size_t i = 0; i < n; ++i) {
      const auto& point = series->ring[(series->next + i) % n];
      if (point.first >= cutoff) points.push_back(point);
    }
    if (points.empty()) continue;
    json.BeginObject();
    json.Key("name").String(series->name);
    json.Key("labels").String(series->labels);
    json.Key("points").BeginArray();
    for (const auto& [stamp, value] : points) {
      json.BeginArray();
      json.Uint(stamp);
      json.Double(value);
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string MetricsHistory::ListJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter json;
  json.BeginObject();
  json.Key("window_seconds").Uint(options_.window_seconds);
  json.Key("interval_ms").Uint(options_.interval_ms);
  json.Key("metrics").BeginArray();
  for (const auto& [name, type] : families_) {
    json.BeginObject();
    json.Key("name").String(name);
    json.Key("type").String(type);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

size_t MetricsHistory::series_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

void MetricsSampler::Start() {
  if (!stop_.load(std::memory_order_acquire)) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSampler::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void MetricsSampler::Loop() {
  const auto interval =
      std::chrono::milliseconds(history_->options().interval_ms);
  auto next = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t unix_seconds = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    history_->Record(provider_(), unix_seconds);
    samples_taken_.fetch_add(1, std::memory_order_relaxed);
    next += interval;
    // Sleep in short slices so Stop() is prompt even at long intervals.
    while (!stop_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

}  // namespace simrank
