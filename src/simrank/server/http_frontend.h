// The one HTTP/1.1 frontend both serving processes run on: SimRankServer
// and SimRankRouter are each a route table over it.
//
// One event-loop thread owns every socket: nonblocking accept on the
// listener, buffered reads, request parsing (server/http.h), response
// flushing, keep-alive and pipelining, plus the client side of the shard
// exchanges a router starts. A request is looked up in the route table by
// path; an unknown path answers 404, a wrong method 405 with Allow, a GET
// with a body 400. The route's handler then runs on the loop and does
// exactly one of three things:
//   - answers at once (Answer);
//   - submits a job to the worker pool (Admit + Park + Submit): the
//     connection keeps reading-writing other traffic until the job's
//     response comes back through an eventfd-signalled completion queue;
//   - parks the connection and starts exchanges with other servers
//     (Exchange), which the same loop drives without blocking and
//     resumes from their `done` callbacks; the last one answers (Resume).
// A connection handles one parked request at a time; pipelined requests
// stay buffered until its response is queued, so responses leave in
// request order.
//
// Admission control is per route class: a submission beyond the global
// in-flight cap answers 429, one beyond its class's cap 503, both with
// Retry-After, so the job queue is bounded by construction. Jobs submitted
// without a class take no slot.
//
// The frontend also owns what every serving process shares: the loop
// watchdog, the metrics history and event log (Diagnostics), trace
// activation and finishing, the slow-query ring, the access log, and the
// built-in routes /healthz, /v1/stats, /metrics, /v1/debug/profile and
// /v1/debug/timeseries. Linux-only (epoll/eventfd).
#ifndef OIPSIM_SIMRANK_SERVER_HTTP_FRONTEND_H_
#define OIPSIM_SIMRANK_SERVER_HTTP_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simrank/common/latency_histogram.h"
#include "simrank/common/status.h"
#include "simrank/common/thread_pool.h"
#include "simrank/obs/diagnostics.h"
#include "simrank/obs/metric_set.h"
#include "simrank/obs/slow_query_log.h"
#include "simrank/obs/trace.h"
#include "simrank/obs/watchdog.h"
#include "simrank/server/http.h"
#include "simrank/server/http_client.h"

namespace simrank {

struct ServerOptions;

/// Extra response (or request) headers, in order.
using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// The tracing decisions of one request, made on the loop thread so the
/// steps that run it need no access to the request.
struct TraceRequest {
  /// ?trace=1: the trace JSON goes into the response envelope, the only
  /// channel allowed to change a body.
  bool inline_json = false;
  /// X-Simrank-Trace: the trace goes into the X-Simrank-Trace-Json
  /// response header.
  bool header = false;
  /// The --trace-sample coin flip or an armed slow-query threshold.
  bool sampled = false;
  uint64_t id = 0;
  /// Path and query, kept only for traced requests (slow-ring target).
  std::string target;

  bool traced() const { return inline_json || header || sampled; }
};

/// The frontend's counters: relaxed atomics, written on the loop (and by
/// FinishTrace on any thread), readable from any thread.
struct FrontendCounters {
  /// Requests parsed and routed, any path.
  std::atomic<uint64_t> requests_total{0};
  std::atomic<uint64_t> requests_stats{0};
  std::atomic<uint64_t> requests_healthz{0};
  std::atomic<uint64_t> requests_metrics{0};
  std::atomic<uint64_t> requests_debug_profile{0};
  std::atomic<uint64_t> requests_debug_timeseries{0};
  std::atomic<uint64_t> traced_requests{0};
  /// Responses by status class; a 304 counts with the 2xx.
  std::atomic<uint64_t> responses_2xx{0};
  std::atomic<uint64_t> responses_4xx{0};
  std::atomic<uint64_t> responses_5xx{0};
  std::atomic<uint64_t> rejected_inflight{0};
  std::atomic<uint64_t> rejected_endpoint{0};
  /// 421 answers.
  std::atomic<uint64_t> rejected_misdirected{0};
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_open{0};
  /// Admitted jobs not yet completed.
  std::atomic<uint64_t> inflight{0};
};

class HttpFrontend {
 public:
  /// A live connection (loop thread only; never held across loop steps).
  struct Connection;
  /// Names a connection across loop steps; outlives the connection
  /// harmlessly (a response for a closed one is dropped).
  struct ConnectionRef {
    int fd = -1;
    uint64_t id = 0;
  };
  struct Response {
    Response() = default;
    Response(int code, std::string text)
        : status(code), body(std::move(text)) {}

    int status = 500;
    std::string body;
    std::string content_type = "application/json";
    HttpHeaders headers;
  };

  /// Admission class of jobs that take no in-flight slot.
  static constexpr int kNoAdmission = -1;
  static constexpr uint32_t kMaxAdmissionClasses = 8;

  /// Runs on the loop thread with the parsed request, after the method and
  /// body checks; `admission` is the route's class.
  using Handler = std::function<void(Connection* conn,
                                     const HttpRequest& request,
                                     int admission)>;
  struct Route {
    std::string path;
    /// "GET" or "POST"; GET routes refuse a body.
    const char* method = "GET";
    int admission = kNoAdmission;
    Handler handler;
  };
  /// Runs on the loop thread once an exchange has its reply, or failed in
  /// transport (IoError).
  using ExchangeDone = std::function<void(Result<HttpClientResponse>)>;

  /// `options` must outlive the frontend. `collect` renders /v1/stats;
  /// `families` renders /metrics and feeds the metrics history. Both run
  /// on the loop and on the history's sampler thread.
  HttpFrontend(const ServerOptions& options,
               std::function<MetricSet()> collect,
               std::function<std::vector<PromFamily>()> families);
  ~HttpFrontend();

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(HttpFrontend);

  /// Adds the owner's routes, which match in order and before the shared
  /// ones; call once, before Bind().
  void AddRoutes(std::vector<Route> routes);

  /// Opens the diagnostics, binds and listens. Must precede Serve().
  Status Bind();
  /// The bound port (the kernel's choice when the options said 0).
  uint16_t port() const { return bound_port_; }
  /// Runs the event loop on the calling thread until Shutdown(), then
  /// drains: the listener closes, parked requests finish and flush, and
  /// Serve returns OK.
  Status Serve();
  /// Requests the drain; async-signal-safe (an atomic and an eventfd
  /// write), callable from any thread.
  void Shutdown();

  // --- Handler side (loop thread) ---------------------------------------

  void Answer(Connection* conn, int status, std::string_view body,
              const HttpHeaders& headers = {},
              std::string_view content_type = "application/json");
  void Answer(Connection* conn, const Response& response) {
    Answer(conn, response.status, response.body, response.headers,
           response.content_type);
  }
  /// {"error":{"code":"InvalidArgument" (400) or "BadRequest",...}}.
  void AnswerError(Connection* conn, int status, std::string_view message);

  /// Decides whether the request is traced: `trace_inline` (?trace=1), an
  /// X-Simrank-Trace header, the sample coin flip or an armed slow-query
  /// threshold. A traced request gets an id and a target.
  void ActivateTrace(Connection* conn, const HttpRequest& request,
                     bool trace_inline, TraceRequest* trace);

  /// Takes an in-flight slot of class `admission`, or answers 429 (global
  /// cap) or 503 naming `path` (class cap) and returns false.
  bool Admit(Connection* conn, int admission, std::string_view path);
  /// Marks the connection as waiting for a later Resume or job.
  ConnectionRef Park(Connection* conn);
  /// Runs `job` (returning a Response) on a worker; its response answers
  /// `ref` from a later loop step and releases the slot of `admission`
  /// (taken by Admit, or kNoAdmission). Records the queue wait since
  /// `queued_at` before the job starts.
  template <typename Job>
  void Submit(ConnectionRef ref, int admission,
              std::chrono::steady_clock::time_point queued_at, Job job) {
    ++outstanding_;
    pool_.Submit([this, ref, admission, queued_at,
                  job = std::move(job)]() mutable {
      dispatch_latency_.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - queued_at)
              .count()));
      Complete(Completion{ref, admission, job()});
    });
  }
  /// Answers a parked connection (loop thread).
  void Resume(ConnectionRef ref, const Response& response);

  /// Sends `request` (full HTTP bytes) to 127.0.0.1:`port` on a keep-alive
  /// connection the loop owns, and calls `done` with the reply from a
  /// later loop step, never from inside Exchange. A leg that makes no
  /// progress for `timeout_ms` fails with IoError; a connection whose
  /// exchange failed, or whose reply was not read in full, is closed.
  void Exchange(uint16_t port, std::string request, uint32_t timeout_ms,
                ExchangeDone done);

  // --- Any thread --------------------------------------------------------

  /// Folds a finished trace into the stage statistics, captures it when
  /// slow or sampled, and attaches it to `response` (the ?trace=1 body
  /// splice, the X-Simrank-Trace-Json header).
  void FinishTrace(const TraceRequest& trace, uint64_t elapsed_us,
                   const TraceRecorder& recorder, Response* response);

  const FrontendCounters& counters() const { return counters_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  uint32_t num_threads() const { return pool_.num_threads(); }
  Watchdog::Snapshot watchdog_snapshot() const { return watchdog_.snapshot(); }
  LatencyHistogram::Snapshot dispatch_latency() const {
    return dispatch_latency_.snapshot();
  }
  LatencyHistogram::Snapshot stage_latency(TraceStage stage) const {
    return stage_latency_[static_cast<size_t>(stage)].snapshot();
  }
  uint64_t stage_counter(TraceCounter counter) const {
    return stage_counters_[static_cast<size_t>(counter)].load(
        std::memory_order_relaxed);
  }
  const SlowQueryLog& slow_log() const { return slow_log_; }
  const MetricsHistory* metrics_history() const {
    return diagnostics_.history();
  }

 private:
  struct Completion {
    ConnectionRef ref;
    int admission = kNoAdmission;
    Response response;
  };
  struct Leg;

  void HandleAccept();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  void ProcessBufferedRequests(Connection* conn);
  void RouteRequest(Connection* conn, const HttpRequest& request);
  void HandleProfile(Connection* conn, const HttpRequest& request);
  void UpdateEpoll(Connection* conn);
  void CloseConnection(Connection* conn);
  void LogAccess(const Connection& conn, int status, size_t body_bytes);
  void CaptureTrace(const TraceRecorder& recorder, std::string_view target,
                    uint64_t duration_micros);
  /// Queues a finished job's response for the loop (any thread).
  void Complete(Completion completion);
  void DrainCompletions();
  void StartDiagnostics();
  void StopDiagnostics();

  // Exchange legs (loop thread).
  void HandleLegEvent(int fd, uint32_t events);
  /// Connects, writes and reads as far as the socket allows without
  /// blocking, then finishes the leg once its reply is in.
  void DriveLeg(int fd, uint32_t events);
  /// Queues the leg's `done` for the next loop step; the connection goes
  /// back to its port's idle list only when `reusable`.
  void FinishLeg(int fd, Result<HttpClientResponse> reply,
                 bool reusable = false);
  void CloseLeg(int fd);
  /// Fails the legs past their deadline; returns the milliseconds until
  /// the next deadline (-1 with no leg waiting).
  int ExpireLegs();

  const ServerOptions& options_;
  std::function<MetricSet()> collect_;
  std::function<std::vector<PromFamily>()> families_;
  std::vector<Route> routes_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  /// Sacrificial fd closed to accept-then-shed under EMFILE/ENFILE (the
  /// level-triggered listener would otherwise busy-spin the loop).
  int reserve_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  /// Set once, by the loop thread; atomic for the stats.
  std::atomic<bool> draining_{false};

  /// Live connections by fd; ids disambiguate responses across fd reuse.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;

  /// Loop-thread admission state.
  uint32_t inflight_ = 0;
  uint32_t class_inflight_[kMaxAdmissionClasses] = {};
  /// Submitted jobs (and profile sessions) whose completion has not been
  /// drained; Serve does not return before they are.
  uint64_t outstanding_ = 0;

  /// Worker -> loop handoff.
  std::mutex completions_mutex_;
  std::deque<Completion> completions_;

  /// Exchange connections by fd, waiting or idle, and the idle ones per
  /// port (reused last-in, first-out).
  std::unordered_map<int, std::unique_ptr<Leg>> legs_;
  std::unordered_map<uint16_t, std::vector<int>> idle_legs_;
  uint32_t waiting_legs_ = 0;
  /// Exchange completions, run after the loop step that queued them.
  std::deque<std::function<void()>> deferred_;

  FrontendCounters counters_;

  /// Per-stage latency and stage-counter totals, folded from traced
  /// requests only.
  LatencyHistogram stage_latency_[kNumTraceStages];
  mutable std::atomic<uint64_t> stage_counters_[kNumTraceCounters] = {};
  /// Captured slow/sampled traces (GET /v1/debug/slow).
  SlowQueryLog slow_log_;
  /// xorshift state for --trace-sample coin flips (loop thread only).
  uint64_t sample_state_ = 0;

  /// Loop watchdog, metrics history and its sampler, the event log and
  /// the profile logger. Stopped by StopDiagnostics() before pool_ goes:
  /// the watchdog reads pool_.queue_depth().
  Watchdog watchdog_;
  Diagnostics diagnostics_;
  /// Submit-to-start queue wait (workers record).
  LatencyHistogram dispatch_latency_;
  /// One /v1/debug/profile session at a time (a second gets 409).
  std::atomic<bool> profile_busy_{false};
  std::mutex profile_thread_mutex_;
  std::thread profile_thread_;

  /// Declared last so its destructor joins workers before anything they
  /// touch (the completion queue, the event log) goes away.
  ThreadPool pool_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_SERVER_HTTP_FRONTEND_H_
