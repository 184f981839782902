// Signal-based sampling CPU profiler: the serving binaries profile
// themselves.
//
// Long-lived threads register with the process-wide CpuProfiler (the epoll
// loop, ThreadPool workers, the fleet scraper). A profiling
// session arms one POSIX timer per registered thread —
// timer_create(CLOCK_THREAD_CPUTIME_ID) delivering SIGPROF via
// SIGEV_THREAD_ID — so each thread is sampled in proportion to the CPU it
// actually burns and idle threads cost nothing. The signal handler is
// async-signal-safe: it walks frame pointers within the thread's known
// stack bounds and appends raw PCs to a pre-allocated per-thread
// lock-free ring. Symbolization (dladdr + demangling) and aggregation
// into flamegraph collapsed-stack text happen offline at Stop().
//
// Disarmed cost is one thread-local pointer per registered thread and
// nothing on any request path; responses are byte-identical with a
// session armed or not (the profiler never touches request handling).
#ifndef OIPSIM_SIMRANK_OBS_PROFILER_H_
#define OIPSIM_SIMRANK_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "simrank/common/macros.h"
#include "simrank/common/status.h"

namespace simrank {

class JsonlLogSink;

/// Aggregated result of one profiling session.
struct ProfileReport {
  /// Flamegraph collapsed-stack text: one "thread;outer;...;leaf count"
  /// line per unique stack, highest count first.
  std::string collapsed;
  uint64_t total_samples = 0;
  /// Samples overwritten because a thread's ring wrapped.
  uint64_t dropped_samples = 0;
  /// Threads that had a timer armed during the session.
  uint32_t armed_threads = 0;
  double duration_seconds = 0.0;
  uint32_t frequency_hz = 0;
};

/// Process-wide profiler. All methods are thread-safe; at most one
/// session runs at a time (concurrent Start returns AlreadyExists-like
/// InvalidArgument so callers can answer 409).
class CpuProfiler {
 public:
  static constexpr uint32_t kDefaultHz = 97;   // co-prime with common tick rates
  static constexpr uint32_t kMaxHz = 1000;
  static constexpr double kMaxSeconds = 60.0;

  static CpuProfiler& Instance();

  /// Registers the calling thread for sampling. `name` becomes the root
  /// frame of its stacks (truncated to 31 chars). Re-registering the same
  /// thread is a no-op.
  void RegisterCurrentThread(const char* name);

  /// Removes the calling thread; its samples so far stay visible to the
  /// session's Stop(). Must be called before the thread exits if
  /// RegisterCurrentThread was.
  void UnregisterCurrentThread();

  /// Arms per-thread timers at `frequency_hz`. Fails when a session is
  /// already running.
  Status Start(uint32_t frequency_hz = kDefaultHz);

  /// Disarms, symbolizes and aggregates. Returns an empty report when no
  /// session was running.
  ProfileReport Stop();

  /// Blocking convenience: Start, sleep `seconds`, Stop.
  Result<ProfileReport> ProfileFor(double seconds,
                                   uint32_t frequency_hz = kDefaultHz);

  bool running() const { return session_active_.load(std::memory_order_acquire); }

  /// One-shot stack capture of a *registered* thread (the watchdog's
  /// stall annotation): signals `tid`, symbolizes its current stack into
  /// "thread;outer;...;leaf". Empty string when the thread is not
  /// registered or did not respond in time.
  std::string CaptureThreadStack(int64_t tid);

 private:
  CpuProfiler() = default;
  OIPSIM_DISALLOW_COPY_AND_ASSIGN(CpuProfiler);

  std::atomic<bool> session_active_{false};
};

/// RAII thread registration.
class ScopedProfiledThread {
 public:
  explicit ScopedProfiledThread(const char* name) {
    CpuProfiler::Instance().RegisterCurrentThread(name);
  }
  ~ScopedProfiledThread() { CpuProfiler::Instance().UnregisterCurrentThread(); }
  OIPSIM_DISALLOW_COPY_AND_ASSIGN(ScopedProfiledThread);
};

/// Kernel thread id of the calling thread (gettid); 0 where unsupported.
int64_t CurrentTid();

/// Continuous low-rate background profiling behind --profile-log-period:
/// every `period_seconds` it runs one CpuProfiler session over a tenth of
/// the period at `frequency_hz` and appends a JSON line {type: "profile",
/// unix_micros, duration_seconds, frequency_hz, samples, dropped, threads,
/// collapsed} to the event log. Periods that lose the profiler to an on-demand
/// /v1/debug/profile session are skipped, not queued.
class ProfileLogger {
 public:
  struct Options {
    uint32_t frequency_hz = 19;
    uint32_t period_seconds = 60;
  };

  /// `log` must outlive the logger.
  static Result<std::unique_ptr<ProfileLogger>> Start(Options options,
                                                      JsonlLogSink* log);
  ~ProfileLogger();

  void Stop();
  uint64_t profiles_written() const {
    return profiles_written_.load(std::memory_order_relaxed);
  }

 private:
  ProfileLogger(Options options, JsonlLogSink* log);
  OIPSIM_DISALLOW_COPY_AND_ASSIGN(ProfileLogger);

  void Loop();

  Options options_;
  JsonlLogSink* log_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> profiles_written_{0};
  std::thread thread_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_OBS_PROFILER_H_
