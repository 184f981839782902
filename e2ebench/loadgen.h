// Open-loop load generation over loopback HTTP, and the latency statistics
// the end-to-end benchmark reports. Header-only so the unit tests include
// exactly the code the benchmark runs.
//
// Statistics. Percentiles are exact nearest-rank values over recorded
// samples (the p-th percentile of N sorted samples is the ceil(p·N)-th),
// never histogram bucket edges. A tail is reported only where the sample
// supports it: p99 needs at least ten samples beyond it, i.e. N >= 1000.
// Every reported figure comes from short windows of its phase: the lowest
// window p50, the lowest window p99, the highest window completion rate.
// On a shared virtual machine other tenants and host scheduling slow whole
// stretches of a run by 15-40%, and only ever slow it: across ten runs of
// one commit, whole-phase figures spread by up to 50%, the quietest
// windows by a third to a half of that. A window with too few samples is
// merged into its neighbour, so every window p99 keeps its ten samples
// beyond it.
//
// Generation. One thread drives every connection. Request i of an
// open-loop lane is due at start + i / rate whatever happened to earlier
// requests (independent users do not wait for each other), it goes to the
// lane connection with the fewest outstanding requests (the server answers
// pipelined requests in order), and its latency runs from its due time, so
// a stall is charged to every request it delays. Between sends the thread
// sleeps in ppoll with a nanosecond timeout and a 1 ns timer slack. It
// never spins: on a 4-core box a spinning generator takes a core the
// server needs and shows up as a millisecond-scale p99 that is a CFS
// timeslice, not the program under test. How late each send left its due
// time is recorded, so a run whose generator fell behind can be rejected.
// A closed-loop lane instead keeps a fixed number of requests in flight on
// each connection, which saturates the server: its completion rate is the
// capacity.
#ifndef OIPSIM_E2EBENCH_LOADGEN_H_
#define OIPSIM_E2EBENCH_LOADGEN_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace simrank::e2e {

// ------------------------------------------------------------ statistics

/// Samples a p99 needs so that at least ten lie beyond it.
inline constexpr size_t kMinTailSamples = 1000;
/// Samples a tail keeps beyond it.
inline constexpr size_t kTailBeyond = 10;

inline uint64_t NowNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Nearest-rank percentile of an ascending, non-empty sample: the
/// ceil(q·N)-th smallest value, q in (0, 1]. The epsilon keeps q·N that is
/// integral in exact arithmetic (0.99 · 1000) from rounding up a rank.
inline double NearestRank(std::span<const double> sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) -
                                              1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// Nearest-rank percentile of an unsorted sample (copied and sorted).
inline double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, q);
}

/// Median of a non-empty set of summary values (mean of the two middle
/// values for an even count, as Python's statistics.median).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// The highest percentile an ascending sample supports: p99 once N >=
/// kMinTailSamples, otherwise the value with exactly kTailBeyond samples
/// above it. Requires N > kTailBeyond.
inline double TailValue(std::span<const double> sorted) {
  if (sorted.size() >= kMinTailSamples) return NearestRank(sorted, 0.99);
  return sorted[sorted.size() - kTailBeyond - 1];
}

/// One completed (or failed) operation of a phase.
struct Sample {
  /// Due time, relative to the phase start.
  uint64_t due_ns = 0;
  /// Due time to response, in microseconds; +inf for a failed request.
  double latency_us = 0;
};

inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// Nearest-rank q-percentile of each window of `samples` (ascending due
/// time), windows of `window_ns` by due time. A window holding fewer than
/// `min_samples` is merged into the next one, and a short final window
/// into the previous one; empty when the whole sample is too small for one
/// window.
inline std::vector<double> WindowPercentiles(std::span<const Sample> samples,
                                             uint64_t window_ns, double q,
                                             size_t min_samples) {
  std::vector<std::vector<double>> windows;
  std::vector<double> current;
  uint64_t window_end = window_ns;
  for (const Sample& sample : samples) {
    while (sample.due_ns >= window_end) {
      if (current.size() >= min_samples) {
        windows.push_back(std::move(current));
        current.clear();
      }
      window_end += window_ns;
    }
    current.push_back(sample.latency_us);
  }
  if (!current.empty()) {
    if (current.size() >= min_samples || windows.empty()) {
      windows.push_back(std::move(current));
    } else {
      windows.back().insert(windows.back().end(), current.begin(),
                            current.end());
    }
  }
  std::vector<double> values;
  for (std::vector<double>& window : windows) {
    if (window.size() < min_samples) continue;
    std::sort(window.begin(), window.end());
    values.push_back(NearestRank(window, q));
  }
  return values;
}

/// Per-window p99s; every window keeps at least ten samples beyond its
/// p99.
inline std::vector<double> WindowP99s(std::span<const Sample> samples,
                                      uint64_t window_ns) {
  return WindowPercentiles(samples, window_ns, 0.99, kMinTailSamples);
}

/// The reported tail of a phase: its lowest per-window p99, or, when the
/// phase has fewer than kMinTailSamples samples, the value with
/// kTailBeyond samples above it. Requires more than kTailBeyond samples.
inline double TailLatency(std::span<const Sample> samples,
                          uint64_t window_ns) {
  const std::vector<double> p99s = WindowP99s(samples, window_ns);
  if (!p99s.empty()) return *std::min_element(p99s.begin(), p99s.end());
  std::vector<double> all;
  all.reserve(samples.size());
  for (const Sample& sample : samples) all.push_back(sample.latency_us);
  std::sort(all.begin(), all.end());
  return TailValue(all);
}

/// Samples a window needs before its median is reported on its own.
inline constexpr size_t kMinMedianSamples = 20;

/// The reported median of a phase: its lowest per-window median (nearest
/// rank, failures as +inf), or the whole phase's when it has fewer than
/// kMinMedianSamples samples. Requires a non-empty sample.
inline double MedianLatency(std::span<const Sample> samples,
                            uint64_t window_ns) {
  std::vector<double> medians =
      WindowPercentiles(samples, window_ns, 0.5, kMinMedianSamples);
  if (medians.empty()) {
    medians = WindowPercentiles(samples, UINT64_MAX, 0.5, 1);
  }
  return *std::min_element(medians.begin(), medians.end());
}

/// Successful completions per second in each full window of `window_ns`
/// (by send time) within `duration_ns`.
inline std::vector<double> WindowRates(std::span<const Sample> samples,
                                       uint64_t window_ns,
                                       uint64_t duration_ns) {
  std::vector<double> rates(duration_ns / window_ns, 0.0);
  for (const Sample& sample : samples) {
    const uint64_t w = sample.due_ns / window_ns;
    if (w < rates.size() && std::isfinite(sample.latency_us)) rates[w] += 1;
  }
  for (double& rate : rates) rate /= static_cast<double>(window_ns) / 1e9;
  return rates;
}

/// The reported capacity of a saturated phase: its highest window
/// completion rate. Requires duration_ns >= window_ns.
inline double PeakRate(std::span<const Sample> samples, uint64_t window_ns,
                       uint64_t duration_ns) {
  const std::vector<double> rates =
      WindowRates(samples, window_ns, duration_ns);
  return *std::max_element(rates.begin(), rates.end());
}

// ------------------------------------------------------------- generator

/// One request stream of a phase: its schedule, the connections it may
/// use, and how to render and inspect request i.
struct Lane {
  /// Open loop: request i < count is due at start + i / rate.
  double rate = 0;
  uint64_t count = 0;
  /// Closed loop when nonzero: every lane connection keeps `depth`
  /// requests in flight for `duration_ns` (at most `count` in all), each
  /// sent as soon as an earlier one is answered and timed from its send.
  /// This saturates the server, so completions per second measure its
  /// capacity.
  uint32_t depth = 0;
  uint64_t duration_ns = 0;
  /// Indices into the generator's connections.
  std::vector<size_t> connections;
  /// Appends the complete HTTP request i to `out`.
  std::function<void(uint64_t i, std::string* out)> render;
  /// Optional: called for every response with its status, the
  /// X-Simrank-Trace-Json header value (empty when absent) and the body.
  std::function<void(uint64_t i, int status, std::string_view trace_json,
                     std::string_view body)>
      inspect;
};

/// What one lane of a phase measured.
struct LaneResult {
  /// One per issued request, in due order.
  std::vector<Sample> samples;
  /// Send time minus due time of each issued request, microseconds.
  std::vector<double> late_us;
  uint64_t scheduled = 0;
  uint64_t issued = 0;
  uint64_t failed = 0;
};

/// Single-threaded load generator over keep-alive loopback connections:
/// open-loop lanes on a schedule, closed-loop lanes at saturation. Not
/// thread-safe; owns its sockets.
class LoadGenerator {
 public:
  /// Connects `connections` sockets to 127.0.0.1:port. Returns false
  /// (with `error` set) when a connection fails.
  bool Connect(uint16_t port, size_t connections, std::string* error) {
    // A 1 ns timer slack makes the ppoll timeout precise instead of
    // rounded up by the default 50 us slack.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    port_ = port;
    conns_.resize(connections);
    for (Conn& conn : conns_) {
      if (!Open(&conn, error)) return false;
    }
    return true;
  }

  LoadGenerator() = default;
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;
  ~LoadGenerator() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  /// Runs one phase: issues every lane's requests, then waits up to
  /// `drain_ns` after the last send for the responses; what is still
  /// outstanding then fails. Returns one result per lane.
  std::vector<LaneResult> Run(std::vector<Lane>& lanes, uint64_t drain_ns) {
    // A connection abandoned by an earlier phase may still carry stale
    // responses; start over on a fresh one.
    for (Conn& conn : conns_) {
      std::string ignored;
      if (conn.dead) Open(&conn, &ignored);
    }
    std::vector<LaneResult> result(lanes.size());
    lane_outstanding_.assign(lanes.size(), 0);
    std::vector<uint64_t> next(lanes.size(), 0);
    std::vector<double> period_ns(lanes.size(), 0);
    for (size_t l = 0; l < lanes.size(); ++l) {
      if (lanes[l].depth > 0) continue;
      period_ns[l] = 1e9 / lanes[l].rate;
      result[l].samples.reserve(lanes[l].count);
      result[l].late_us.reserve(lanes[l].count);
    }
    // A short lead so the first due time is not already in the past.
    const uint64_t start = NowNanos() + 200000;
    bool sending = true;
    uint64_t drain_deadline = 0;
    std::vector<pollfd> pfds(conns_.size());
    while (true) {
      const uint64_t now = NowNanos();
      if (sending) {
        bool remaining = false;
        for (size_t l = 0; l < lanes.size(); ++l) {
          Lane& lane = lanes[l];
          if (lane.depth > 0) {
            // Closed loop: refill every connection to `depth` until the
            // lane's time is up; latency runs from the send.
            const bool open = now < start + lane.duration_ns;
            if (now < start) {
              remaining = true;
              continue;
            }
            while (open && next[l] < lane.count &&
                   lane_outstanding_[l] <
                       lane.depth * lane.connections.size()) {
              Issue(lane, l, next[l], now, start, now, &result);
              ++next[l];
            }
            remaining = remaining || (open && next[l] < lane.count);
            continue;
          }
          while (next[l] < lane.count &&
                 start + DueOffset(period_ns[l], next[l]) <= now) {
            Issue(lane, l, next[l], start + DueOffset(period_ns[l], next[l]),
                  start, now, &result);
            ++next[l];
          }
          remaining = remaining || next[l] < lane.count;
        }
        sending = remaining;
        if (!sending) drain_deadline = now + drain_ns;
      }
      FlushAll();
      uint64_t outstanding = 0;
      for (const Conn& conn : conns_) outstanding += conn.fifo.size();
      if (!sending && outstanding == 0) break;
      if (!sending && now > drain_deadline) {
        AbandonOutstanding(&result);
        break;
      }
      // Sleep until the next due time (or, with nothing left to send,
      // until a response arrives), waking early for socket activity.
      int64_t timeout_ns = 5000000;
      if (sending) {
        uint64_t next_due = UINT64_MAX;
        for (size_t l = 0; l < lanes.size(); ++l) {
          if (lanes[l].depth > 0) {
            // Closed lanes refill on responses; wake for the start and
            // the end of their time.
            next_due = std::min(next_due, now < start
                                              ? start
                                              : start + lanes[l].duration_ns);
          } else if (next[l] < lanes[l].count) {
            next_due = std::min(next_due,
                                start + DueOffset(period_ns[l], next[l]));
          }
        }
        timeout_ns = next_due > now ? static_cast<int64_t>(next_due - now)
                                    : 0;
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        pfds[c].fd = conns_[c].dead ? -1 : conns_[c].fd;
        pfds[c].events = static_cast<short>(
            POLLIN | (conns_[c].wbuf_sent < conns_[c].wbuf.size() ? POLLOUT
                                                                  : 0));
        pfds[c].revents = 0;
      }
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
      ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
      const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      if (ready <= 0) continue;
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) {
          ReadResponses(lanes, c, &result);
        }
      }
    }
    for (size_t l = 0; l < lanes.size(); ++l) {
      result[l].scheduled =
          lanes[l].depth > 0 ? result[l].issued : lanes[l].count;
    }
    return result;
  }

 private:
  struct Pending {
    uint32_t lane = 0;
    uint64_t index = 0;
    uint64_t due_abs = 0;
  };

  struct Conn {
    int fd = -1;
    bool dead = false;
    std::string wbuf;
    size_t wbuf_sent = 0;
    std::string rbuf;
    std::deque<Pending> fifo;
  };

  /// (Re)opens `conn` as a nonblocking TCP_NODELAY socket to port_.
  bool Open(Conn* conn, std::string* error) {
    if (conn->fd >= 0) ::close(conn->fd);
    *conn = Conn{};
    conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (conn->fd < 0) {
      *error = std::strerror(errno);
      conn->dead = true;
      return false;
    }
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int so_error = 0;
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      so_error = errno;
      if (so_error == EINPROGRESS) {
        pollfd pfd{conn->fd, POLLOUT, 0};
        socklen_t len = sizeof(so_error);
        if (::poll(&pfd, 1, 2000) != 1 ||
            ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &so_error, &len) !=
                0) {
          so_error = ETIMEDOUT;
        }
      }
    }
    if (so_error != 0) {
      *error = std::strerror(so_error);
      conn->dead = true;
      return false;
    }
    return true;
  }

  static uint64_t DueOffset(double period_ns, uint64_t i) {
    return static_cast<uint64_t>(period_ns * static_cast<double>(i));
  }

  /// Renders request i of lane l onto its least-loaded connection.
  void Issue(Lane& lane, size_t l, uint64_t i, uint64_t due, uint64_t start,
             uint64_t now, std::vector<LaneResult>* result) {
    LaneResult& out = (*result)[l];
    Conn* best = nullptr;
    for (const size_t c : lane.connections) {
      Conn& conn = conns_[c];
      if (conn.dead) continue;
      if (best == nullptr || conn.fifo.size() < best->fifo.size()) {
        best = &conn;
      }
    }
    out.issued++;
    out.late_us.push_back(static_cast<double>(now - due) / 1e3);
    out.samples.push_back(Sample{due - start, kFailedLatency});
    if (best == nullptr) {
      out.failed++;
      return;
    }
    lane.render(i, &best->wbuf);
    best->fifo.push_back(Pending{static_cast<uint32_t>(l), i, due});
    lane_outstanding_[l]++;
  }

  void FlushAll() {
    for (Conn& conn : conns_) {
      while (!conn.dead && conn.wbuf_sent < conn.wbuf.size()) {
        const ssize_t wrote =
            ::send(conn.fd, conn.wbuf.data() + conn.wbuf_sent,
                   conn.wbuf.size() - conn.wbuf_sent, MSG_NOSIGNAL);
        if (wrote > 0) {
          conn.wbuf_sent += static_cast<size_t>(wrote);
        } else if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (wrote < 0 && errno == EINTR) {
          continue;
        } else {
          conn.dead = true;
        }
      }
      if (conn.wbuf_sent == conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.wbuf_sent = 0;
      }
    }
  }

  /// Marks every request still outstanding as failed (dead connection or
  /// drain deadline).
  void AbandonOutstanding(std::vector<LaneResult>* result) {
    for (Conn& conn : conns_) {
      for (const Pending& pending : conn.fifo) {
        (*result)[pending.lane].failed++;
        lane_outstanding_[pending.lane]--;
      }
      conn.fifo.clear();
      // Responses may still arrive for what was abandoned; the
      // connection can no longer be matched to requests.
      conn.dead = true;
    }
  }

  void ReadResponses(std::vector<Lane>& lanes, size_t c,
                     std::vector<LaneResult>* result) {
    Conn& conn = conns_[c];
    char chunk[65536];
    while (true) {
      const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn.rbuf.append(chunk, static_cast<size_t>(got));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      conn.dead = true;  // EOF or reset
      break;
    }
    const uint64_t done = NowNanos();
    size_t offset = 0;
    while (!conn.fifo.empty()) {
      int status = 0;
      std::string_view trace_json;
      std::string_view body;
      const size_t used = ParseResponse(conn.rbuf, offset, &status,
                                        &trace_json, &body);
      if (used == 0) break;
      offset += used;
      const Pending pending = conn.fifo.front();
      conn.fifo.pop_front();
      lane_outstanding_[pending.lane]--;
      Lane& lane = lanes[pending.lane];
      LaneResult& out = (*result)[pending.lane];
      Sample& sample = out.samples[pending.index];
      if (status >= 200 && status < 300) {
        sample.latency_us = static_cast<double>(done - pending.due_abs) / 1e3;
      } else {
        out.failed++;
      }
      if (lane.inspect) lane.inspect(pending.index, status, trace_json, body);
    }
    conn.rbuf.erase(0, offset);
    if (conn.dead) {
      for (const Pending& pending : conn.fifo) {
        (*result)[pending.lane].failed++;
        lane_outstanding_[pending.lane]--;
      }
      conn.fifo.clear();
    }
  }

  /// Parses one complete response at `offset`; returns its length, or 0
  /// when the buffer does not yet hold all of it.
  static size_t ParseResponse(const std::string& buf, size_t offset,
                              int* status, std::string_view* trace_json,
                              std::string_view* body) {
    const size_t header_end = buf.find("\r\n\r\n", offset);
    if (header_end == std::string::npos) return 0;
    const std::string_view head(buf.data() + offset, header_end - offset);
    // "HTTP/1.1 200 OK"
    const size_t space = head.find(' ');
    if (space == std::string_view::npos) return 0;
    *status = std::atoi(std::string(head.substr(space + 1, 3)).c_str());
    size_t content_length = 0;
    size_t line = head.find("\r\n");
    while (line != std::string_view::npos) {
      const size_t start = line + 2;
      const size_t stop = head.find("\r\n", start);
      const std::string_view field =
          head.substr(start, stop == std::string_view::npos
                                 ? std::string_view::npos
                                 : stop - start);
      const size_t colon = field.find(':');
      if (colon != std::string_view::npos) {
        const std::string_view name = field.substr(0, colon);
        std::string_view value = field.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        if (EqualsIgnoreCase(name, "content-length")) {
          content_length = std::strtoull(std::string(value).c_str(),
                                         nullptr, 10);
        } else if (EqualsIgnoreCase(name, "x-simrank-trace-json")) {
          *trace_json = value;
        }
      }
      line = stop;
    }
    const size_t body_start = header_end + 4;
    if (buf.size() < body_start + content_length) return 0;
    *body = std::string_view(buf.data() + body_start, content_length);
    return body_start + content_length - offset;
  }

  static bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      const char x = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
      if (x != b[i]) return false;
    }
    return true;
  }

  uint16_t port_ = 0;
  std::vector<Conn> conns_;
  /// Requests in flight per lane of the running phase.
  std::vector<uint64_t> lane_outstanding_;
};

}  // namespace simrank::e2e

#endif  // OIPSIM_E2EBENCH_LOADGEN_H_
