#include "simrank/server/http_frontend.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "simrank/common/json_writer.h"
#include "simrank/common/string_util.h"
#include "simrank/obs/profiler.h"
#include "simrank/server/server.h"

namespace simrank {
namespace {

/// The request parser's hardening limits.
constexpr HttpLimits kHttpLimits{};
/// Connections beyond this are accepted and immediately closed.
constexpr size_t kMaxConnections = 1024;

/// Backpressure bounds: when a connection's unsent responses or unparsed
/// input exceed these, the loop stops *reading* it (TCP pushes back on the
/// peer) until the backlog drains — no connection can buffer the process
/// into the ground, which is what keeps every queue bounded. The input
/// budget covers a full head plus the largest admissible body — a request
/// the parser would accept must be able to buffer completely, or the
/// read-side backpressure would deadlock it.
constexpr size_t kMaxPendingOutputBytes = 4u << 20;
constexpr size_t kMaxInputBytes = kHttpLimits.max_request_bytes +
                                  kHttpLimits.max_body_bytes + (64u << 10);

uint64_t WallClockMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Parses GET /v1/debug/profile's ?seconds= (default 2, in (0,
/// CpuProfiler::kMaxSeconds]) and ?hz= (default CpuProfiler::kDefaultHz,
/// in [1, kMaxHz]); any other or repeated parameter is an error.
Status ParseProfileParams(const HttpRequest& request, double* seconds,
                          uint32_t* hz) {
  std::string error;
  if (!CheckAllowedParams(request, {"seconds", "hz"}, &error)) {
    return Status::InvalidArgument(error);
  }
  *seconds = 2.0;
  if (const std::string* raw = request.FindParam("seconds")) {
    if (!ParseDouble(*raw, seconds) || !(*seconds > 0.0) ||
        *seconds > CpuProfiler::kMaxSeconds) {
      return Status::InvalidArgument(
          StrFormat("parameter 'seconds' must be in (0, %g]",
                    CpuProfiler::kMaxSeconds));
    }
  }
  uint64_t rate = CpuProfiler::kDefaultHz;
  if (const std::string* raw = request.FindParam("hz")) {
    if (!ParseUint64(*raw, &rate) || rate == 0 ||
        rate > CpuProfiler::kMaxHz) {
      return Status::InvalidArgument(StrFormat(
          "parameter 'hz' must be in [1, %u]", CpuProfiler::kMaxHz));
    }
  }
  *hz = static_cast<uint32_t>(rate);
  return Status::OK();
}

/// The 200 text/plain body of /v1/debug/profile: a "# profile" line with
/// the session's counts, then the collapsed stacks.
std::string RenderProfileReport(const ProfileReport& report) {
  return StrFormat(
             "# profile duration_seconds=%.3f frequency_hz=%u samples=%llu "
             "dropped=%llu threads=%u\n",
             report.duration_seconds, report.frequency_hz,
             static_cast<unsigned long long>(report.total_samples),
             static_cast<unsigned long long>(report.dropped_samples),
             report.armed_threads) +
         report.collapsed;
}

/// Status and body of GET /v1/debug/timeseries over `history` (null when
/// disabled): 503 when disabled, the recorded families without ?metric=,
/// 400 on a malformed ?window=, else the series.
std::pair<int, std::string> AnswerTimeseries(const MetricsHistory* history,
                                             const HttpRequest& request) {
  if (history == nullptr) {
    return {503, ErrorBody("Unavailable",
                           "metrics history is disabled "
                           "(--metrics-history=0)")};
  }
  const std::string* metric = request.FindParam("metric");
  if (metric == nullptr) return {200, history->ListJson()};
  uint64_t window = 0;  // 0 = the full configured window
  const std::string* raw_window = request.FindParam("window");
  if (raw_window != nullptr && !ParseUint64(*raw_window, &window)) {
    return {400, ErrorBody("InvalidArgument",
                           "parameter 'window' must be a span in seconds")};
  }
  return {200, history->QueryJson(*metric, window)};
}

}  // namespace

/// Per-connection state owned by the event loop. A connection handles one
/// parked request at a time (`awaiting`); pipelined requests stay buffered
/// in `in` until the response of the previous one is queued, so responses
/// always leave in request order.
struct HttpFrontend::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::string in;
  std::string out;
  size_t out_sent = 0;
  /// A request is parked and its response not yet queued.
  bool awaiting = false;
  /// Flush `out`, then close (error, Connection: close, drain).
  bool close_after_flush = false;
  /// The peer half-closed: no further reads, but every request already
  /// buffered still gets its answer before the connection closes.
  bool peer_eof = false;
  /// Keep-alive decision of the request currently being answered.
  bool request_keep_alive = true;
  /// Events currently registered with epoll.
  uint32_t epoll_events = 0;
  /// Access-record capture of the request currently being answered: set
  /// by RouteRequest (only with an event log), consumed and cleared by
  /// Answer. One parked request at a time keeps this a single slot.
  uint64_t access_start_ns = 0;
  uint64_t access_trace_id = 0;
  std::string access_method;
  std::string access_path;
};

/// One exchange connection: waiting for a reply (`done` set) or idle in
/// its port's keep-alive list. Idle connections stay registered for
/// EPOLLIN, so one the peer closes is noticed and dropped at once.
struct HttpFrontend::Leg {
  uint16_t port = 0;
  bool connected = false;
  std::string out;
  size_t out_sent = 0;
  std::string in;
  uint32_t timeout_ms = 0;
  /// Monotonic deadline of the next progress, in nanoseconds.
  uint64_t deadline_ns = 0;
  uint32_t epoll_events = 0;
  ExchangeDone done;

  bool waiting() const { return done != nullptr; }
  void Progress() {
    deadline_ns = TraceNowNanos() + uint64_t{timeout_ms} * 1000000;
  }
};

HttpFrontend::HttpFrontend(const ServerOptions& options,
                           std::function<MetricSet()> collect,
                           std::function<std::vector<PromFamily>()> families)
    : options_(options),
      collect_(std::move(collect)),
      families_(std::move(families)),
      slow_log_(options.slow_ring_capacity),
      pool_(options.threads) {
  routes_ = {
      {"/healthz", "GET", kNoAdmission,
       [this](Connection* conn, const HttpRequest&, int) {
         counters_.requests_healthz.fetch_add(1, std::memory_order_relaxed);
         Answer(conn, 200, "ok\n", {}, "text/plain");
       }},
      {"/v1/stats", "GET", kNoAdmission,
       [this](Connection* conn, const HttpRequest&, int) {
         counters_.requests_stats.fetch_add(1, std::memory_order_relaxed);
         Answer(conn, 200, collect_().ToJson());
       }},
      {"/metrics", "GET", kNoAdmission,
       [this](Connection* conn, const HttpRequest&, int) {
         counters_.requests_metrics.fetch_add(1, std::memory_order_relaxed);
         Answer(conn, 200, PrometheusText(families_()), {},
                "text/plain; version=0.0.4");
       }},
      {"/v1/debug/profile", "GET", kNoAdmission,
       [this](Connection* conn, const HttpRequest& request, int) {
         HandleProfile(conn, request);
       }},
      {"/v1/debug/timeseries", "GET", kNoAdmission,
       [this](Connection* conn, const HttpRequest& request, int) {
         counters_.requests_debug_timeseries.fetch_add(
             1, std::memory_order_relaxed);
         const auto [status, body] =
             AnswerTimeseries(diagnostics_.history(), request);
         Answer(conn, status, body);
       }},
  };
}

HttpFrontend::~HttpFrontend() {
  // Diagnostics threads poll pool_ and call the stats hooks; stop them
  // before member destructors run (pool_ is declared after them and would
  // be destroyed first).
  StopDiagnostics();
  // Jobs may still run if Serve was never run to completion; let them
  // finish (they touch the completion queue and wake_fd_) before the fds
  // go away.
  pool_.Wait();
  for (const auto& [fd, leg] : legs_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

void HttpFrontend::AddRoutes(std::vector<Route> routes) {
  // Ahead of the shared routes: each owner's hot paths match first.
  routes_.insert(routes_.begin(), std::make_move_iterator(routes.begin()),
                 std::make_move_iterator(routes.end()));
}

Status HttpFrontend::Bind() {
  if (listen_fd_ >= 0) return Status::InvalidArgument("Bind() called twice");
  OIPSIM_RETURN_IF_ERROR(diagnostics_.Open(options_.diagnostics));
  sample_state_ = GenerateTraceId();
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("not an IPv4 bind address: " +
                                   options_.bind_address);
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError(StrFormat("cannot bind %s:%u: %s",
                                     options_.bind_address.c_str(),
                                     options_.port, std::strerror(errno)));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::IoError(StrFormat("listen() failed: %s",
                                     std::strerror(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    ::close(fd);
    return Status::IoError("getsockname() failed");
  }
  bound_port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(fd);
    return Status::IoError("epoll_create1/eventfd failed");
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  listen_fd_ = fd;

  epoll_event event = {};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
  return Status::OK();
}

void HttpFrontend::Shutdown() {
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    // Async-signal-safe: a plain write on an eventfd. The return value is
    // irrelevant — a full counter already wakes the loop.
    [[maybe_unused]] const auto ignored =
        ::write(wake_fd_, &one, sizeof(one));
  }
}

Status HttpFrontend::Serve() {
  if (listen_fd_ < 0) {
    return Status::InvalidArgument("Serve() requires a successful Bind()");
  }
  // The loop thread itself shows up in profiles, and its kernel tid is
  // what the watchdog annotates stall warnings with.
  ScopedProfiledThread profiled_loop("epoll-loop");
  StartDiagnostics();
  // An armed watchdog needs the idle loop to keep beating: cap the epoll
  // wait at the watchdog poll interval instead of blocking forever.
  const int idle_timeout_ms =
      options_.watchdog_interval_ms > 0
          ? static_cast<int>(options_.watchdog_interval_ms)
          : -1;
  epoll_event events[64];
  while (true) {
    watchdog_.Beat();
    if (stop_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (draining_) {
      // Idle keep-alive connections have nothing left to say; everything
      // else drains through its response + flush.
      std::vector<Connection*> idle;
      for (auto& [fd, conn] : connections_) {
        if (!conn->awaiting && conn->out_sent == conn->out.size()) {
          idle.push_back(conn.get());
        }
      }
      for (Connection* conn : idle) CloseConnection(conn);
      if (connections_.empty() && outstanding_ == 0 && waiting_legs_ == 0 &&
          deferred_.empty()) {
        while (!legs_.empty()) CloseLeg(legs_.begin()->first);
        idle_legs_.clear();
        StopDiagnostics();
        return Status::OK();
      }
    }
    int timeout_ms = draining_ ? 50 : idle_timeout_ms;
    if (waiting_legs_ > 0) {
      const int next = ExpireLegs();
      if (next >= 0 && (timeout_ms < 0 || next < timeout_ms)) {
        timeout_ms = next;
      }
    }
    if (!deferred_.empty()) timeout_ms = 0;
    const int ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (ready < 0 && errno != EINTR) {
      StopDiagnostics();
      return Status::IoError(StrFormat("epoll_wait failed: %s",
                                       std::strerror(errno)));
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] const auto ignored =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) {
        HandleLegEvent(fd, events[i].events);
        continue;
      }
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        if (conn->awaiting || conn->out_sent < conn->out.size()) {
          // Let the completion/flush path observe the error itself.
        } else {
          CloseConnection(conn);
          continue;
        }
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      it = connections_.find(fd);
      if (it == connections_.end() || it->second.get() != conn) continue;
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }
    // Exchange completions run here, one after another: a chain of
    // exchanges iterates instead of recursing.
    while (!deferred_.empty()) {
      std::function<void()> callback = std::move(deferred_.front());
      deferred_.pop_front();
      callback();
    }
    DrainCompletions();
  }
}

void HttpFrontend::HandleAccept() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if ((errno == EMFILE || errno == ENFILE) && reserve_fd_ >= 0) {
        // Out of fds: the pending connection would keep the level-
        // triggered listener readable forever. Spend the reserve fd to
        // accept-and-shed it, then re-arm the reserve.
        ::close(reserve_fd_);
        reserve_fd_ = -1;
        const int shed = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (shed >= 0) ::close(shed);
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        continue;
      }
      return;  // EAGAIN, or a transient accept failure
    }
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    if (connections_.size() >= kMaxConnections) {
      // Beyond the connection cap there is no buffer to even parse a
      // request from; shedding at accept keeps existing traffic intact.
      ::close(fd);
      continue;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_connection_id_++;
    conn->epoll_events = EPOLLIN;
    epoll_event event = {};
    event.events = EPOLLIN;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
    connections_.emplace(fd, std::move(conn));
    counters_.connections_open.fetch_add(1, std::memory_order_relaxed);
  }
}

void HttpFrontend::HandleReadable(Connection* conn) {
  char buffer[4096];
  while (conn->in.size() < kMaxInputBytes) {
    const ssize_t got = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (got > 0) {
      conn->in.append(buffer, static_cast<size_t>(got));
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (got < 0) {
      CloseConnection(conn);  // hard error; nothing is deliverable
      return;
    }
    conn->peer_eof = true;  // orderly half-close: answer, then close
    break;
  }
  ProcessBufferedRequests(conn);
}

void HttpFrontend::ProcessBufferedRequests(Connection* conn) {
  // One parked request per connection at a time; the rest of the pipeline
  // waits buffered so responses preserve request order. Parsing also
  // pauses while the unsent-output backlog is over the cap — a pipelining
  // client that never reads cannot make `out` grow without bound, it just
  // stops being read itself.
  while (!conn->awaiting && !conn->close_after_flush &&
         conn->out.size() - conn->out_sent < kMaxPendingOutputBytes) {
    HttpRequest request;
    const HttpParseStatus parsed =
        ParseHttpRequest(conn->in, kHttpLimits, &request);
    if (parsed.outcome == HttpParseStatus::kNeedMore) break;
    if (parsed.outcome == HttpParseStatus::kError) {
      conn->request_keep_alive = false;
      AnswerError(conn, parsed.error_status, parsed.error_message);
      break;
    }
    conn->in.erase(0, parsed.consumed);
    conn->request_keep_alive = request.keep_alive;
    RouteRequest(conn, request);
  }
  // After a half-close, the connection lives exactly until its buffered
  // requests are answered and flushed; whatever remains buffered then is
  // an incomplete request head that can never complete.
  if (conn->peer_eof && !conn->awaiting && conn->out_sent == conn->out.size()) {
    CloseConnection(conn);
    return;
  }
  UpdateEpoll(conn);
}

void HttpFrontend::RouteRequest(Connection* conn,
                                const HttpRequest& request) {
  counters_.requests_total.fetch_add(1, std::memory_order_relaxed);
  if (diagnostics_.log() != nullptr) {
    conn->access_start_ns = TraceNowNanos();
    conn->access_trace_id = 0;
    conn->access_method = request.method;
    conn->access_path = request.path;
  }
  const Route* route = nullptr;
  for (const Route& candidate : routes_) {
    if (candidate.path == request.path) {
      route = &candidate;
      break;
    }
  }
  if (route == nullptr) {
    Answer(conn, 404,
           ErrorBody("NotFound", "no such endpoint: " + request.path));
    return;
  }
  if (request.method != route->method) {
    Answer(conn, 405,
           ErrorBody("MethodNotAllowed",
                     StrFormat("%s only accepts %s", request.path.c_str(),
                               route->method)),
           {{"Allow", route->method}});
    return;
  }
  if (!request.body.empty() && std::string_view(route->method) == "GET") {
    AnswerError(conn, 400, "GET endpoints take no request body");
    return;
  }
  route->handler(conn, request, route->admission);
}

void HttpFrontend::ActivateTrace(Connection* conn, const HttpRequest& request,
                                 bool trace_inline, TraceRequest* trace) {
  trace->inline_json = trace_inline;
  // X-Simrank-Trace activates tracing without touching the body: the
  // trace comes back in the X-Simrank-Trace-Json response header. This is
  // how the router threads one trace id through its shard fan-out (the
  // /internal/* bodies are binary and must stay byte-exact).
  if (const std::string* header = request.FindHeader("x-simrank-trace")) {
    uint64_t id = 0;
    if (ParseTraceId(*header, &id)) {
      trace->header = true;
      trace->id = id;
    }
  }
  // Ambient tracing: every request when a slow-query threshold is armed
  // (the slow ones must already have a trace by the time they turn out
  // slow), else a trace_sample coin flip.
  if (options_.slow_query_us > 0) {
    trace->sampled = true;
  } else if (options_.trace_sample > 0.0) {
    // xorshift64*: cheap, loop-thread-only, statistical only.
    sample_state_ ^= sample_state_ >> 12;
    sample_state_ ^= sample_state_ << 25;
    sample_state_ ^= sample_state_ >> 27;
    const uint64_t draw = sample_state_ * 0x2545F4914F6CDD1Dull;
    trace->sampled =
        static_cast<double>(draw >> 11) * 0x1.0p-53 < options_.trace_sample;
  }
  if (!trace->traced()) return;
  if (trace->id == 0) trace->id = GenerateTraceId();
  // Reassembled path + query (the parser splits the raw target) so slow
  // captures name the exact request.
  trace->target = request.path;
  for (size_t i = 0; i < request.params.size(); ++i) {
    trace->target += i == 0 ? '?' : '&';
    trace->target += request.params[i].first;
    trace->target += '=';
    trace->target += request.params[i].second;
  }
  if (diagnostics_.log() != nullptr) conn->access_trace_id = trace->id;
}

bool HttpFrontend::Admit(Connection* conn, int admission,
                         std::string_view path) {
  // Bounded queues, never buffered overload. The global cap answers 429
  // (the client is fanning out faster than the pool drains), the class
  // cap 503 (this endpoint specifically is saturated); both tell the
  // client when to come back.
  auto retry_after = [this] {
    return HttpHeaders{
        {"Retry-After", StrFormat("%u", options_.retry_after_seconds)}};
  };
  if (inflight_ >= options_.max_inflight) {
    counters_.rejected_inflight.fetch_add(1, std::memory_order_relaxed);
    Answer(conn, 429,
           ErrorBody("Overloaded",
                     StrFormat("server is at its in-flight cap (%u); retry",
                               options_.max_inflight)),
           retry_after());
    return false;
  }
  if (class_inflight_[admission] >= options_.max_endpoint_inflight) {
    counters_.rejected_endpoint.fetch_add(1, std::memory_order_relaxed);
    Answer(conn, 503,
           ErrorBody("Overloaded",
                     StrFormat("endpoint %.*s is at its in-flight cap (%u); "
                               "retry",
                               static_cast<int>(path.size()), path.data(),
                               options_.max_endpoint_inflight)),
           retry_after());
    return false;
  }
  ++inflight_;
  ++class_inflight_[admission];
  counters_.inflight.store(inflight_, std::memory_order_relaxed);
  return true;
}

HttpFrontend::ConnectionRef HttpFrontend::Park(Connection* conn) {
  conn->awaiting = true;
  return ConnectionRef{conn->fd, conn->id};
}

void HttpFrontend::Complete(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(std::move(completion));
  }
  const uint64_t one = 1;
  [[maybe_unused]] const auto ignored = ::write(wake_fd_, &one, sizeof(one));
}

void HttpFrontend::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    --outstanding_;
    if (completion.admission != kNoAdmission) {
      --inflight_;
      --class_inflight_[completion.admission];
      counters_.inflight.store(inflight_, std::memory_order_relaxed);
    }
    Resume(completion.ref, completion.response);
  }
}

void HttpFrontend::Resume(ConnectionRef ref, const Response& response) {
  auto it = connections_.find(ref.fd);
  if (it == connections_.end() || it->second->id != ref.id) {
    return;  // the client hung up mid-request; drop the answer
  }
  Connection* conn = it->second.get();
  conn->awaiting = false;
  Answer(conn, response);
  // The response is queued; pipelined follow-ups may now proceed (this
  // also closes half-closed connections once they flush).
  ProcessBufferedRequests(conn);
}

void HttpFrontend::HandleProfile(Connection* conn,
                                 const HttpRequest& request) {
  counters_.requests_debug_profile.fetch_add(1, std::memory_order_relaxed);
  double seconds = 0.0;
  uint32_t hz = 0;
  if (const Status params = ParseProfileParams(request, &seconds, &hz);
      !params.ok()) {
    AnswerError(conn, 400, params.message());
    return;
  }
  bool expected = false;
  if (!profile_busy_.compare_exchange_strong(expected, true)) {
    Answer(conn, 409,
           ErrorBody("Busy",
                     "a profiling session is already running; retry when "
                     "it finishes"));
    return;
  }
  // Park the connection and capture on a dedicated thread: the session
  // sleeps for `seconds`, which must not block the loop or hold a worker.
  const ConnectionRef ref = Park(conn);
  ++outstanding_;
  std::lock_guard<std::mutex> lock(profile_thread_mutex_);
  // The previous session (if any) released profile_busy_ before pushing
  // its completion, so this join only waits out its final microseconds.
  if (profile_thread_.joinable()) profile_thread_.join();
  profile_thread_ = std::thread([this, ref, seconds, hz] {
    auto profiled = CpuProfiler::Instance().ProfileFor(seconds, hz);
    profile_busy_.store(false, std::memory_order_release);
    Completion completion;
    completion.ref = ref;
    if (!profiled.ok()) {
      // The profiler itself was busy (e.g. a continuous-profiling period
      // is mid-capture) or the platform lacks support.
      completion.response.status = 409;
      completion.response.body =
          ErrorBody("Busy", profiled.status().message());
    } else {
      completion.response.status = 200;
      completion.response.content_type = "text/plain";
      completion.response.body = RenderProfileReport(*profiled);
    }
    Complete(std::move(completion));
  });
}

void HttpFrontend::StartDiagnostics() {
  if (options_.watchdog_interval_ms > 0) {
    WatchdogOptions watchdog_options;
    watchdog_options.poll_interval_ms = options_.watchdog_interval_ms;
    watchdog_options.stall_threshold_us = options_.watchdog_stall_us;
    watchdog_options.name = "epoll-loop";
    watchdog_.set_options(watchdog_options);
    // Called from the loop thread itself, so this tid is the loop's.
    watchdog_.SetWatchedTid(CurrentTid());
    watchdog_.SetQueueDepthProvider([this] { return pool_.queue_depth(); });
    watchdog_.Start();
  }
  diagnostics_.Start(families_);
}

void HttpFrontend::StopDiagnostics() {
  watchdog_.Stop();
  diagnostics_.Stop();
  std::lock_guard<std::mutex> lock(profile_thread_mutex_);
  if (profile_thread_.joinable()) profile_thread_.join();
}

void HttpFrontend::Answer(Connection* conn, int status, std::string_view body,
                          const HttpHeaders& headers,
                          std::string_view content_type) {
  const bool keep =
      conn->request_keep_alive && !draining_ && !conn->close_after_flush;
  HttpResponseOptions response_options;
  response_options.keep_alive = keep;
  response_options.content_type = content_type;
  response_options.extra_headers = headers;
  conn->out += BuildHttpResponse(status, body, response_options);
  if (!keep) conn->close_after_flush = true;
  // A 304 answers a conditional request successfully (a router's row
  // revalidation), so it counts with the successes.
  std::atomic<uint64_t>& by_class =
      status < 300 || status == 304 ? counters_.responses_2xx
      : status < 500                ? counters_.responses_4xx
                                    : counters_.responses_5xx;
  by_class.fetch_add(1, std::memory_order_relaxed);
  if (status == 421) {
    counters_.rejected_misdirected.fetch_add(1, std::memory_order_relaxed);
  }
  if (diagnostics_.log() != nullptr && !conn->access_method.empty()) {
    LogAccess(*conn, status, body.size());
    conn->access_method.clear();
  }
  UpdateEpoll(conn);
}

void HttpFrontend::AnswerError(Connection* conn, int status,
                               std::string_view message) {
  const char* code = status == 400 ? "InvalidArgument" : "BadRequest";
  Answer(conn, status, ErrorBody(code, message));
}

void HttpFrontend::HandleWritable(Connection* conn) {
  while (conn->out_sent < conn->out.size()) {
    const ssize_t sent =
        ::send(conn->fd, conn->out.data() + conn->out_sent,
               conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
    if (sent > 0) {
      conn->out_sent += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConnection(conn);  // peer is gone; nothing left to deliver
    return;
  }
  conn->out.clear();
  conn->out_sent = 0;
  if (conn->close_after_flush && !conn->awaiting) {
    CloseConnection(conn);
    return;
  }
  // Output drained: resume any requests that were parked on the
  // output-backlog backpressure cap (no-op when there are none).
  ProcessBufferedRequests(conn);
}

void HttpFrontend::UpdateEpoll(Connection* conn) {
  // Backpressure: a connection over its input or unsent-output budget is
  // not read until the backlog drains (ProcessBufferedRequests and
  // HandleWritable re-run this as they consume).
  const bool over_budget =
      conn->in.size() >= kMaxInputBytes ||
      conn->out.size() - conn->out_sent >= kMaxPendingOutputBytes;
  uint32_t desired = 0;
  if (!conn->close_after_flush && !conn->peer_eof && !over_budget) {
    desired |= EPOLLIN;
  }
  if (conn->out_sent < conn->out.size()) desired |= EPOLLOUT;
  if (desired == conn->epoll_events) return;
  epoll_event event = {};
  event.events = desired;
  event.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
  conn->epoll_events = desired;
}

void HttpFrontend::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->fd);
  counters_.connections_open.fetch_sub(1, std::memory_order_relaxed);
}

// --- Exchanges ---------------------------------------------------------------

void HttpFrontend::Exchange(uint16_t port, std::string request,
                            uint32_t timeout_ms, ExchangeDone done) {
  int fd = -1;
  std::vector<int>& idle = idle_legs_[port];
  if (!idle.empty()) {
    fd = idle.back();
    idle.pop_back();
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int connected =
        fd < 0 ? -1
               : ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
    if (connected != 0 && (fd < 0 || errno != EINPROGRESS)) {
      const Status failed = Status::IoError(StrFormat(
          "cannot connect to 127.0.0.1:%u: %s", port, std::strerror(errno)));
      if (fd >= 0) ::close(fd);
      deferred_.push_back([done = std::move(done), failed] { done(failed); });
      return;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto leg = std::make_unique<Leg>();
    leg->port = port;
    leg->connected = connected == 0;
    legs_.emplace(fd, std::move(leg));
  }
  Leg& leg = *legs_.at(fd);
  leg.out = std::move(request);
  leg.out_sent = 0;
  leg.in.clear();
  leg.timeout_ms = timeout_ms;
  leg.done = std::move(done);
  leg.Progress();
  ++waiting_legs_;
  // Connect completion shows as writability.
  DriveLeg(fd, leg.connected ? uint32_t{EPOLLOUT} : 0u);
}

void HttpFrontend::DriveLeg(int fd, uint32_t events) {
  Leg& leg = *legs_.at(fd);
  if (!leg.connected) {
    int error = 0;
    socklen_t length = sizeof(error);
    if (events != 0) ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &length);
    if (error != 0) {
      FinishLeg(fd,
                Status::IoError(StrFormat("cannot connect to 127.0.0.1:%u: %s",
                                          leg.port, std::strerror(error))));
      return;
    }
    leg.connected = (events & EPOLLOUT) != 0;
  }
  while (leg.connected && leg.out_sent < leg.out.size()) {
    const ssize_t sent = ::send(fd, leg.out.data() + leg.out_sent,
                                leg.out.size() - leg.out_sent, MSG_NOSIGNAL);
    if (sent > 0) {
      leg.out_sent += static_cast<size_t>(sent);
      leg.Progress();
    } else if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (sent >= 0 || errno != EINTR) {
      FinishLeg(fd, Status::IoError("send failed: connection reset"));
      return;
    }
  }
  const uint32_t wanted =
      leg.out_sent < leg.out.size() ? EPOLLIN | EPOLLOUT : EPOLLIN;
  if (wanted != leg.epoll_events) {
    epoll_event event = {};
    event.events = wanted;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_,
                leg.epoll_events == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                &event);
    leg.epoll_events = wanted;
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;
  char chunk[16384];
  ssize_t got = 0;
  while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0 ||
         (got < 0 && errno == EINTR)) {
    if (got > 0) leg.in.append(chunk, static_cast<size_t>(got));
    leg.Progress();
  }
  const bool closed =
      got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
  HttpClientResponse response;
  Result<size_t> parsed = ParseHttpResponse(leg.in, &response);
  if (!parsed.ok()) {
    FinishLeg(fd, parsed.status());
  } else if (*parsed > 0) {
    // A reply that leaves bytes behind, or that closes its connection,
    // ends that connection's reuse.
    const std::string* connection = response.FindHeader("connection");
    FinishLeg(fd, std::move(response),
              !closed && *parsed == leg.in.size() &&
                  (connection == nullptr || *connection != "close"));
  } else if (closed) {
    FinishLeg(fd, Status::IoError(leg.in.find("\r\n\r\n") ==
                                          std::string::npos
                                      ? "connection closed before response "
                                        "headers"
                                      : "connection closed mid-body"));
  }
}

void HttpFrontend::HandleLegEvent(int fd, uint32_t events) {
  auto it = legs_.find(fd);
  if (it == legs_.end()) return;  // closed earlier this batch
  if (it->second->waiting()) {
    DriveLeg(fd, events);
    return;
  }
  // An idle connection turned readable or broke: the peer closed it (or
  // sent bytes nobody asked for). It can never be reused.
  std::vector<int>& idle = idle_legs_[it->second->port];
  idle.erase(std::remove(idle.begin(), idle.end(), fd), idle.end());
  CloseLeg(fd);
}

void HttpFrontend::FinishLeg(int fd, Result<HttpClientResponse> reply,
                             bool reusable) {
  Leg& leg = *legs_.at(fd);
  // From the next loop step: Exchange itself may be on the stack.
  deferred_.push_back(
      [done = std::move(leg.done), reply = std::move(reply)]() mutable {
        done(std::move(reply));
      });
  leg.done = nullptr;
  --waiting_legs_;
  if (!reusable) {
    CloseLeg(fd);
    return;
  }
  leg.out.clear();
  leg.in.clear();
  idle_legs_[leg.port].push_back(fd);
}

void HttpFrontend::CloseLeg(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  legs_.erase(fd);
}

int HttpFrontend::ExpireLegs() {
  const uint64_t now = TraceNowNanos();
  uint64_t next = UINT64_MAX;
  std::vector<int> expired;
  for (const auto& [fd, leg] : legs_) {
    if (!leg->waiting()) continue;
    if (leg->deadline_ns <= now) {
      expired.push_back(fd);
    } else {
      next = std::min(next, leg->deadline_ns);
    }
  }
  for (const int fd : expired) {
    FinishLeg(fd, Status::IoError(StrFormat(
                      "no progress within the %u ms shard timeout",
                      legs_.at(fd)->timeout_ms)));
  }
  if (next == UINT64_MAX) return expired.empty() ? -1 : 0;
  return static_cast<int>((next - now + 999999) / 1000000);
}

// --- Tracing and the event log -----------------------------------------------

void HttpFrontend::FinishTrace(const TraceRequest& trace, uint64_t elapsed_us,
                               const TraceRecorder& recorder,
                               Response* response) {
  counters_.traced_requests.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < recorder.num_spans(); ++i) {
    const TraceSpan& span = recorder.span(i);
    stage_latency_[static_cast<size_t>(span.stage)].Record(
        span.duration_ns / 1000);
  }
  for (uint32_t c = 0; c < kNumTraceCounters; ++c) {
    const uint64_t value = recorder.counter(static_cast<TraceCounter>(c));
    if (value > 0) {
      stage_counters_[c].fetch_add(value, std::memory_order_relaxed);
    }
  }
  const bool slow =
      options_.slow_query_us > 0 && elapsed_us >= options_.slow_query_us;
  const bool sampled_capture = trace.sampled && options_.slow_query_us == 0;
  if (slow || sampled_capture) {
    CaptureTrace(recorder, trace.target, elapsed_us);
  }
  std::string& body = response->body;
  if (trace.inline_json && body.size() > 2 && body.front() == '{' &&
      body.back() == '}') {
    // Splice the trace into the JSON envelope. Only the explicit ?trace=1
    // opt-in ever changes a response body.
    body.insert(body.size() - 1, ",\"trace\":" + recorder.ToJson());
  }
  if (trace.header) {
    response->headers.emplace_back("X-Simrank-Trace-Json", recorder.ToJson());
  }
}

void HttpFrontend::CaptureTrace(const TraceRecorder& recorder,
                                std::string_view target,
                                uint64_t duration_micros) {
  SlowQueryEntry entry;
  entry.unix_micros = WallClockMicros();
  entry.duration_micros = duration_micros;
  entry.trace_id = recorder.trace_id();
  entry.target = std::string(target);
  entry.trace_json = recorder.ToJson();
  if (diagnostics_.log() != nullptr) {
    std::string line = StrFormat(
        "{\"type\":\"trace\",\"unix_micros\":%llu,\"target\":\"",
        static_cast<unsigned long long>(entry.unix_micros));
    JsonEscape(target, &line);
    line += StrFormat(
        "\",\"duration_us\":%llu,\"trace\":",
        static_cast<unsigned long long>(duration_micros));
    line += entry.trace_json;
    line += '}';
    diagnostics_.log()->Append(std::move(line));
  }
  slow_log_.Record(std::move(entry));
}

void HttpFrontend::LogAccess(const Connection& conn, int status,
                             size_t body_bytes) {
  const uint64_t micros =
      conn.access_start_ns == 0
          ? 0
          : (TraceNowNanos() - conn.access_start_ns) / 1000;
  std::string line = StrFormat(
      "{\"type\":\"access\",\"unix_micros\":%llu,\"method\":\"",
      static_cast<unsigned long long>(WallClockMicros()));
  JsonEscape(conn.access_method, &line);
  line += "\",\"path\":\"";
  JsonEscape(conn.access_path, &line);
  line += StrFormat("\",\"status\":%d,\"bytes\":%zu,\"micros\":%llu",
                    status, body_bytes,
                    static_cast<unsigned long long>(micros));
  if (conn.access_trace_id != 0) {
    line += StrFormat(",\"trace_id\":\"%s\"",
                      TraceIdToHex(conn.access_trace_id).c_str());
  }
  line += '}';
  diagnostics_.log()->Append(std::move(line));
}

}  // namespace simrank
