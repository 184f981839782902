#include "simrank/obs/diagnostics.h"

#include <utility>

#include "simrank/common/flags.h"
#include "simrank/common/string_util.h"

namespace simrank {

Status DiagnosticsOptions::Validate() const {
  if (metrics_history_window_s > 0) {
    if (metrics_history_interval_ms == 0) {
      return Status::InvalidArgument(
          "--metrics-history-interval-ms must be positive");
    }
    const uint64_t points = static_cast<uint64_t>(metrics_history_window_s) *
                            1000 / metrics_history_interval_ms;
    if (points > 1u << 20) {
      return Status::InvalidArgument(
          StrFormat("metrics history of %llu points per series would pin an "
                    "unreasonable amount of memory",
                    static_cast<unsigned long long>(points)));
    }
  }
  if (profile_log_period_s > 0) {
    if (log_path.empty()) {
      return Status::InvalidArgument(
          "--profile-log-period needs --log: profiles are records of the "
          "event log");
    }
    if (profile_log_hz == 0 || profile_log_hz > CpuProfiler::kMaxHz) {
      return Status::InvalidArgument(
          StrFormat("--profile-log-hz=%u is not in [1, %u]", profile_log_hz,
                    CpuProfiler::kMaxHz));
    }
  }
  return Status::OK();
}

void AddDiagnosticsFlags(FlagSet& flags, DiagnosticsOptions* options) {
  flags
      .Add("--metrics-history", "S", &options->metrics_history_window_s,
           "seconds of /metrics samples kept for GET /v1/debug/timeseries; "
           "0 disables")
      .Add("--metrics-history-interval-ms", "MS",
           &options->metrics_history_interval_ms,
           "metrics history sample interval")
      .Add("--log", "PATH", &options->log_path,
           "JSONL event log; each record's first field is \"type\" "
           "(access, trace or profile)")
      .Add("--profile-log-hz", "HZ", &options->profile_log_hz,
           "continuous profiling sample rate")
      .Add("--profile-log-period", "S", &options->profile_log_period_s,
           "append one background CPU profile to --log every S seconds; "
           "0 = off");
}

Status Diagnostics::Open(const DiagnosticsOptions& options) {
  if (options.metrics_history_window_s > 0 && history_ == nullptr) {
    MetricsHistory::Options history_options;
    history_options.window_seconds = options.metrics_history_window_s;
    history_options.interval_ms = options.metrics_history_interval_ms;
    history_ = std::make_unique<MetricsHistory>(history_options);
  }
  if (!options.log_path.empty() && log_ == nullptr) {
    auto log = JsonlLogSink::Open(options.log_path);
    if (!log.ok()) return log.status();
    log_ = std::move(*log);
  }
  if (options.profile_log_period_s > 0 && profile_logger_ == nullptr) {
    ProfileLogger::Options logger_options;
    logger_options.frequency_hz = options.profile_log_hz;
    logger_options.period_seconds = options.profile_log_period_s;
    auto logger = ProfileLogger::Start(logger_options, log_.get());
    if (!logger.ok()) return logger.status();
    profile_logger_ = std::move(*logger);
  }
  return Status::OK();
}

void Diagnostics::Start(std::function<std::vector<PromFamily>()> families) {
  if (history_ == nullptr) return;
  if (sampler_ == nullptr) {
    sampler_ =
        std::make_unique<MetricsSampler>(history_.get(), std::move(families));
  }
  sampler_->Start();
}

void Diagnostics::Stop() {
  if (sampler_ != nullptr) sampler_->Stop();
  if (profile_logger_ != nullptr) profile_logger_->Stop();
}

}  // namespace simrank
