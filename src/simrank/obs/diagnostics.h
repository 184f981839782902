// Diagnostics settings and pieces both serving processes share: the
// metrics history behind /v1/debug/timeseries, the JSONL event log, and
// the continuous profiler that writes into that log.
//
// The event log is one file per process. Every record is a single-line
// JSON object whose first field is "type": "access" (one per answered
// request), "trace" (a captured slow or sampled trace) or "profile" (one
// continuous-profiling period). The server writes all three; the router,
// which samples and captures no traces, writes access and profile records.
#ifndef OIPSIM_SIMRANK_OBS_DIAGNOSTICS_H_
#define OIPSIM_SIMRANK_OBS_DIAGNOSTICS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simrank/common/macros.h"
#include "simrank/common/status.h"
#include "simrank/obs/log_sink.h"
#include "simrank/obs/metric_set.h"
#include "simrank/obs/metrics_history.h"
#include "simrank/obs/profiler.h"

namespace simrank {

class FlagSet;

struct DiagnosticsOptions {
  /// Metrics history ring: window and sample interval.
  /// metrics_history_window_s = 0 disables the ring.
  uint32_t metrics_history_window_s = 900;
  uint32_t metrics_history_interval_ms = 1000;
  /// The JSONL event log; empty = no log.
  std::string log_path;
  /// Continuous low-rate profiling: one "profile" record per period
  /// appended to the log, sampled at profile_log_hz. A zero period turns
  /// it off; a positive one requires log_path. Periods overlapping an
  /// on-demand /v1/debug/profile session are skipped.
  uint32_t profile_log_hz = 19;
  uint32_t profile_log_period_s = 0;

  /// A history needs a positive interval and at most 2^20 points per
  /// series; profiling needs the log and a rate in [1, CpuProfiler::kMaxHz].
  Status Validate() const;
};

/// Declares the DiagnosticsOptions flags, shared by simrank_server and
/// simrank_router.
void AddDiagnosticsFlags(FlagSet& flags, DiagnosticsOptions* options);

/// What DiagnosticsOptions turns on in one process: the metrics history
/// and its sampler, the event log and the profile logger that writes into
/// it. Each is declared before its users, so it outlives them. Callers
/// that write to the log from their own threads must join them before
/// this object is destroyed.
class Diagnostics {
 public:
  Diagnostics() = default;
  OIPSIM_DISALLOW_COPY_AND_ASSIGN(Diagnostics);

  /// Opens whichever of the history, the log and the profile logger
  /// `options` asks for and is not open yet (so a retried Bind() never
  /// swaps one out from under a running reader). `options` must be valid.
  Status Open(const DiagnosticsOptions& options);

  /// Samples `families` into the history once per interval on a thread
  /// of its own, until Stop(); a no-op without a history.
  void Start(std::function<std::vector<PromFamily>()> families);

  /// Stops the sampler and the profile logger (joins their threads,
  /// flushes the log).
  void Stop();

  /// Null when disabled.
  MetricsHistory* history() const { return history_.get(); }
  JsonlLogSink* log() const { return log_.get(); }

 private:
  std::unique_ptr<MetricsHistory> history_;
  std::unique_ptr<MetricsSampler> sampler_;
  std::unique_ptr<JsonlLogSink> log_;
  std::unique_ptr<ProfileLogger> profile_logger_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_OBS_DIAGNOSTICS_H_
