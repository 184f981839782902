#include "simrank/cluster/router.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <tuple>
#include <utility>

#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/server/server.h"

#if defined(__unix__) || defined(__APPLE__)
#define OIPSIM_ROUTER_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace simrank {
namespace {

/// Parses a 16-hex-digit fingerprint header value.
bool ParseHexFingerprint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 16);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

/// Wall-clock seconds since the Unix epoch.
uint64_t UnixSeconds() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// X-Simrank-Trace with this thread's trace id when it is traced, so the
/// shard returns its sub-trace; empty otherwise.
std::vector<std::pair<std::string, std::string>> TraceHeaders() {
  std::vector<std::pair<std::string, std::string>> headers;
  if (const TraceRecorder* recorder = CurrentTraceRecorder()) {
    headers.emplace_back("X-Simrank-Trace",
                         TraceIdToHex(recorder->trace_id()));
  }
  return headers;
}

#if OIPSIM_ROUTER_HAVE_SOCKETS
bool SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}
#endif

}  // namespace

Status RouterOptions::Validate() const {
  if (bind_address.empty()) {
    return Status::InvalidArgument("router bind address must not be empty");
  }
  OIPSIM_RETURN_IF_ERROR(plan.Validate());
  if (shards.size() != plan.shards.size()) {
    return Status::InvalidArgument(
        StrFormat("plan has %zu shards but %zu shard endpoints were given",
                  plan.shards.size(), shards.size()));
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].shard_id != i) {
      return Status::InvalidArgument(
          StrFormat("shard endpoints must be declared in id order; "
                    "position %zu declares shard %u",
                    i, shards[i].shard_id));
    }
    if (shards[i].primary_port == 0) {
      return Status::InvalidArgument(
          StrFormat("shard %zu has no primary port", i));
    }
  }
  if (timeout_ms == 0) {
    return Status::InvalidArgument("--timeout-ms must be positive");
  }
  if (max_batch_pairs == 0) {
    return Status::InvalidArgument(
        "--max-batch-pairs must be positive: a zero cap rejects every batch");
  }
  if (scrape_interval_ms > 0 && scrape_timeout_ms == 0) {
    return Status::InvalidArgument(
        "--scrape-timeout-ms must be positive when fleet scraping is on");
  }
  return diagnostics.Validate();
}

std::vector<ScoredVertex> MergeTopK(
    const std::vector<std::vector<ScoredVertex>>& parts, uint32_t k) {
  std::vector<ScoredVertex> merged;
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  merged.reserve(total);
  for (const auto& part : parts) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(), ScoredVertexBefore);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

/// A mutex-guarded stack of keep-alive connections to one port. Acquire
/// pops an idle connection or dials a new one; Release returns it after a
/// clean exchange. Connections that saw a transport error, or hold a reply
/// nobody read, are never returned — the next Acquire dials fresh.
class SimRankRouter::ClientPool {
 public:
  ClientPool(uint16_t port, uint32_t timeout_ms)
      : port_(port), timeout_ms_(timeout_ms) {}

  Result<LoopbackHttpClient> Acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        LoopbackHttpClient client = std::move(idle_.back());
        idle_.pop_back();
        return client;
      }
    }
    return LoopbackHttpClient::Connect(port_, timeout_ms_);
  }

  void Release(LoopbackHttpClient client) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(client));
  }

 private:
  const uint16_t port_;
  const uint32_t timeout_ms_;
  std::mutex mutex_;
  std::vector<LoopbackHttpClient> idle_;
};

SimRankRouter::SimRankRouter(RouterOptions options)
    : options_(std::move(options)) {}

SimRankRouter::~SimRankRouter() { Shutdown(); }

RouterStats SimRankRouter::stats() const {
  RouterStats stats;
  stats.requests_total = stat_requests_total_.load(std::memory_order_relaxed);
  stats.requests_pair = stat_requests_pair_.load(std::memory_order_relaxed);
  stats.requests_single_source =
      stat_requests_single_source_.load(std::memory_order_relaxed);
  stats.requests_topk = stat_requests_topk_.load(std::memory_order_relaxed);
  stats.requests_batch_pair =
      stat_requests_batch_pair_.load(std::memory_order_relaxed);
  stats.requests_update =
      stat_requests_update_.load(std::memory_order_relaxed);
  stats.requests_stats = stat_requests_stats_.load(std::memory_order_relaxed);
  stats.requests_healthz =
      stat_requests_healthz_.load(std::memory_order_relaxed);
  stats.requests_metrics =
      stat_requests_metrics_.load(std::memory_order_relaxed);
  stats.responses_2xx = stat_responses_2xx_.load(std::memory_order_relaxed);
  stats.responses_4xx = stat_responses_4xx_.load(std::memory_order_relaxed);
  stats.responses_5xx = stat_responses_5xx_.load(std::memory_order_relaxed);
  stats.failovers = stat_failovers_.load(std::memory_order_relaxed);
  stats.conflicts_retried =
      stat_conflicts_retried_.load(std::memory_order_relaxed);
  stats.shard_errors = stat_shard_errors_.load(std::memory_order_relaxed);
  stats.traced_requests =
      stat_traced_requests_.load(std::memory_order_relaxed);
  stats.requests_cluster_health =
      stat_requests_cluster_health_.load(std::memory_order_relaxed);
  stats.requests_debug_profile =
      stat_requests_debug_profile_.load(std::memory_order_relaxed);
  stats.requests_debug_timeseries =
      stat_requests_debug_timeseries_.load(std::memory_order_relaxed);
  stats.scrape_rounds = stat_scrape_rounds_.load(std::memory_order_relaxed);
  stats.scrape_failures =
      stat_scrape_failures_.load(std::memory_order_relaxed);
  return stats;
}

void SimRankRouter::CountResponse(int status) {
  if (status >= 200 && status < 300) {
    stat_responses_2xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (status >= 400 && status < 500) {
    stat_responses_4xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (status >= 500) {
    stat_responses_5xx_.fetch_add(1, std::memory_order_relaxed);
  }
}

#if OIPSIM_ROUTER_HAVE_SOCKETS

Status SimRankRouter::Bind() {
  OIPSIM_RETURN_IF_ERROR(options_.Validate());
  pools_.clear();
  for (const RouterShard& shard : options_.shards) {
    ShardPools& pools = pools_.emplace_back();
    pools.primary =
        std::make_unique<ClientPool>(shard.primary_port, options_.timeout_ms);
    if (shard.replica_port != 0) {
      pools.replica = std::make_unique<ClientPool>(shard.replica_port,
                                                   options_.timeout_ms);
    }
  }
  {
    // One scrape target per fleet process; the vector never resizes after
    // Bind, so the scrape thread updates entries in place.
    std::lock_guard<std::mutex> lock(targets_mutex_);
    targets_.clear();
    for (const RouterShard& shard : options_.shards) {
      TargetState primary;
      primary.shard_id = shard.shard_id;
      primary.port = shard.primary_port;
      targets_.push_back(std::move(primary));
      if (shard.replica_port != 0) {
        TargetState replica;
        replica.shard_id = shard.shard_id;
        replica.replica = true;
        replica.port = shard.replica_port;
        targets_.push_back(std::move(replica));
      }
    }
  }
  OIPSIM_RETURN_IF_ERROR(diagnostics_.Open(options_.diagnostics));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("cannot parse bind address '%s'",
                  options_.bind_address.c_str()));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = StrFormat(
        "cannot bind %s:%u: %s", options_.bind_address.c_str(),
        options_.port, std::strerror(errno));
    ::close(fd);
    return Status::IoError(message);
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    return Status::IoError("getsockname() failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status SimRankRouter::Start() {
  if (listen_fd_ < 0) {
    return Status::InvalidArgument("Start() requires a successful Bind()");
  }
  stop_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  StartDiagnostics();
  return Status::OK();
}

void SimRankRouter::Shutdown() {
  StopDiagnostics();
  stop_.store(true, std::memory_order_relaxed);
  // shutdown() wakes the blocked accept(); the fd is closed and cleared
  // only after the accept thread, which reads it, has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::list<ConnectionThread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    threads.swap(connection_threads_);
  }
  for (ConnectionThread& handler : threads) {
    if (handler.thread.joinable()) handler.thread.join();
  }
}

void SimRankRouter::AcceptLoop() {
  ScopedProfiledThread profiled("router-accept");
  while (!stop_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Shutdown, or a fatal error
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    // A short receive timeout keeps idle keep-alive handlers polling the
    // stop flag instead of blocking in recv forever.
    timeval tv = {};
    tv.tv_usec = 200 * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::lock_guard<std::mutex> lock(threads_mutex_);
    // Join the handlers whose connections have ended, so threads stay
    // bounded by the open connections rather than by all ever accepted.
    std::erase_if(connection_threads_, [](ConnectionThread& handler) {
      if (!handler.done.load(std::memory_order_acquire)) return false;
      handler.thread.join();
      return true;
    });
    ConnectionThread& handler = connection_threads_.emplace_back();
    handler.thread = std::thread([this, fd, &handler] {
      HandleConnection(fd);
      handler.done.store(true, std::memory_order_release);
    });
  }
}

void SimRankRouter::HandleConnection(int fd) {
  ScopedProfiledThread profiled("router-conn");
  std::string buffer;
  while (true) {
    HttpRequest request;
    const HttpParseStatus parsed =
        ParseHttpRequest(buffer, options_.http, &request);
    if (parsed.outcome == HttpParseStatus::kComplete) {
      stat_requests_total_.fetch_add(1, std::memory_order_relaxed);
      // Trace activation mirrors the single-node server: ?trace=1 splices
      // the merged trace into the JSON envelope, an X-Simrank-Trace header
      // returns it out-of-band in X-Simrank-Trace-Json (bodies stay
      // byte-identical). Either way the recorder is bound to this
      // connection thread for the whole routed request, and every shard
      // exchange carries the trace id so shard sub-traces come back as
      // children of the router trace.
      const std::string* trace_param = request.FindParam("trace");
      const bool trace_inline =
          trace_param != nullptr && *trace_param == "1";
      uint64_t trace_id = 0;
      bool trace_header = false;
      if (const std::string* header = request.FindHeader("x-simrank-trace");
          header != nullptr) {
        trace_header = ParseTraceId(*header, &trace_id);
      }
      const bool traced = trace_inline || trace_header;
      std::optional<TraceRecorder> recorder;
      if (traced) recorder.emplace(trace_id);
      RouterResponse response;
      {
        TraceBinding binding(traced ? &*recorder : nullptr);
        TraceScope root(TraceStage::kRequest, request.path);
        response = Route(request);
      }
      if (traced && response.traced) {
        stat_traced_requests_.fetch_add(1, std::memory_order_relaxed);
        if (trace_inline && response.body.size() > 2 &&
            response.body.front() == '{' && response.body.back() == '}') {
          response.body.insert(response.body.size() - 1,
                               ",\"trace\":" + recorder->ToJson());
        }
        if (trace_header) {
          response.headers.emplace_back("X-Simrank-Trace-Json",
                                        recorder->ToJson());
        }
      }
      CountResponse(response.status);
      HttpResponseOptions response_options;
      response_options.keep_alive = request.keep_alive;
      response_options.content_type = response.content_type;
      response_options.extra_headers = std::move(response.headers);
      if (!SendAll(fd, BuildHttpResponse(response.status, response.body,
                                         response_options))) {
        break;
      }
      buffer.erase(0, parsed.consumed);
      if (!request.keep_alive) break;
      continue;
    }
    if (parsed.outcome == HttpParseStatus::kError) {
      HttpResponseOptions response_options;
      response_options.keep_alive = false;
      SendAll(fd, BuildHttpResponse(
                      parsed.error_status,
                      ErrorBody("BadRequest", parsed.error_message),
                      response_options));
      break;
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    char chunk[4096];
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      buffer.append(chunk, static_cast<size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;  // receive timeout: re-check the stop flag
    }
    break;  // peer closed or hard error
  }
  ::close(fd);
}

Result<SimRankRouter::ShardReply> SimRankRouter::SendToPort(
    ClientPool& pool, bool post, const std::string& target,
    std::string_view body) {
  Result<LoopbackHttpClient> client = pool.Acquire();
  if (!client.ok()) return Complete(pool, client, client.status());
  const auto headers = TraceHeaders();
  return Complete(pool, client,
                  post ? client->Post(target, body,
                                      "application/octet-stream", headers)
                       : client->Get(target, headers));
}

Result<SimRankRouter::ShardReply> SimRankRouter::Complete(
    ClientPool& pool, Result<LoopbackHttpClient>& client,
    Result<HttpClientResponse> response) {
  if (!response.ok()) {
    stat_shard_errors_.fetch_add(1, std::memory_order_relaxed);
    if (client.ok()) client = response.status();  // drops the connection
    return response.status();
  }
  pool.Release(std::move(*client));
  ShardReply reply;
  reply.status = response->status;
  reply.body = std::move(response->body);
  const std::string* fingerprint =
      response->FindHeader("x-graph-fingerprint");
  const std::string* sequence = response->FindHeader("x-overlay-sequence");
  const std::string* epoch = response->FindHeader("x-plan-epoch");
  if (fingerprint != nullptr && sequence != nullptr && epoch != nullptr &&
      ParseHexFingerprint(*fingerprint, &reply.fingerprint) &&
      ParseUint64(*sequence, &reply.sequence) &&
      ParseUint64(*epoch, &reply.epoch)) {
    reply.have_versions = true;
  }
  if (TraceRecorder* recorder = CurrentTraceRecorder()) {
    recorder->Add(TraceCounter::kShardsContacted, 1);
    if (const std::string* child =
            response->FindHeader("x-simrank-trace-json");
        child != nullptr) {
      recorder->AddChildTrace(*child);
    }
  }
  return reply;
}

Result<SimRankRouter::ShardReply> SimRankRouter::FailOver(
    uint32_t shard_id, Result<ShardReply> reply, bool post,
    const std::string& target, std::string_view body) {
  ClientPool* replica = pools_[shard_id].replica.get();
  if (reply.ok() || replica == nullptr) return reply;
  stat_failovers_.fetch_add(1, std::memory_order_relaxed);
  return SendToPort(*replica, post, target, body);
}

Result<SimRankRouter::ShardReply> SimRankRouter::ReadFromShard(
    uint32_t shard_id, bool post, const std::string& target,
    std::string_view body) {
  return FailOver(shard_id,
                  SendToPort(*pools_[shard_id].primary, post, target, body),
                  post, target, body);
}

std::vector<Result<SimRankRouter::ShardReply>> SimRankRouter::Scatter(
    uint32_t first_shard, uint32_t end_shard, const std::string& target,
    std::string_view body) {
  TraceRecorder* const recorder = CurrentTraceRecorder();
  const auto headers = TraceHeaders();
  // Every request goes out before any reply is read, so the shards
  // compute concurrently.
  std::vector<Result<LoopbackHttpClient>> legs;
  std::vector<uint64_t> sent_ns;
  for (uint32_t shard = first_shard; shard < end_shard; ++shard) {
    sent_ns.push_back(recorder != nullptr ? TraceNowNanos() : 0);
    Result<LoopbackHttpClient>& leg =
        legs.emplace_back(pools_[shard].primary->Acquire());
    if (leg.ok()) {
      const Status sent = leg->SendPost(target, body,
                                        "application/octet-stream", headers);
      if (!sent.ok()) leg = sent;
    }
  }
  // Every leg is read (or its connection dropped by Complete) before the
  // caller sees any reply: a pooled connection holding an unread reply
  // would answer the next request with it.
  std::vector<Result<ShardReply>> replies;
  for (uint32_t shard = first_shard; shard < end_shard; ++shard) {
    Result<LoopbackHttpClient>& leg = legs[shard - first_shard];
    Result<HttpClientResponse> response =
        leg.ok() ? leg->ReadResponse()
                 : Result<HttpClientResponse>(leg.status());
    replies.push_back(FailOver(
        shard, Complete(*pools_[shard].primary, leg, std::move(response)),
        /*post=*/true, target, body));
    if (recorder != nullptr) {
      const uint64_t start = sent_ns[shard - first_shard];
      recorder->AddCompletedSpan(TraceStage::kShardExchange, start,
                                 TraceNowNanos() - start,
                                 StrFormat("shard=%u", shard));
    }
  }
  return replies;
}

bool SimRankRouter::ExchangeRow(VertexId v, const std::string& target_prefix,
                                uint32_t first_shard, uint32_t end_shard,
                                std::vector<ShardReply>* replies,
                                RouterResponse* error) {
  enum class Verdict { kUse, kRetry, kFail };
  const uint32_t owner = options_.plan.OwnerOf(v);
  // The one reply check for the row and every scattered leg; `row` is
  // null for the row itself.
  auto check = [this, owner, error](uint32_t shard, Result<ShardReply>& reply,
                                    const ShardReply* row) {
    if (!reply.ok()) {
      *error = Unavailable(StrFormat("shard %u unreachable: %s", shard,
                                     reply.status().message().c_str()));
      return Verdict::kFail;
    }
    if (reply->status == 409) return Verdict::kRetry;
    if (reply->status != 200) {
      error->status = reply->status;
      error->body = std::move(reply->body);
      return Verdict::kFail;
    }
    if (!reply->have_versions || reply->epoch != options_.plan.epoch) {
      error->status = 500;
      error->body = ErrorBody(
          "Internal",
          StrFormat("shard %u is serving plan epoch %llu, router has %llu",
                    shard, static_cast<unsigned long long>(reply->epoch),
                    static_cast<unsigned long long>(options_.plan.epoch)));
      return Verdict::kFail;
    }
    if (row != nullptr && reply->fingerprint != row->fingerprint) {
      error->status = 500;
      error->body = ErrorBody(
          "Internal",
          StrFormat("shard %u reports graph fingerprint %s but the row "
                    "owner, shard %u, reports %s at the same overlay "
                    "sequence; the cluster has diverged",
                    shard, FormatFingerprint(reply->fingerprint).c_str(),
                    owner, FormatFingerprint(row->fingerprint).c_str()));
      return Verdict::kFail;
    }
    return Verdict::kUse;
  };
  for (uint32_t attempt = 0; attempt <= options_.retries; ++attempt) {
    Result<ShardReply> row = Status::IoError("not attempted");
    {
      TraceScope scope(TraceStage::kRowFetch, StrFormat("shard=%u", owner));
      row = ReadFromShard(owner, /*post=*/false,
                          StrFormat("/internal/walks?v=%u", v),
                          std::string_view());
    }
    Verdict verdict = check(owner, row, nullptr);
    if (verdict == Verdict::kUse) {
      std::vector<Result<ShardReply>> legs = Scatter(
          first_shard, end_shard,
          StrFormat("%s&seq=%llu", target_prefix.c_str(),
                    static_cast<unsigned long long>(row->sequence)),
          row->body);
      replies->clear();
      for (uint32_t i = 0; i < legs.size() && verdict == Verdict::kUse;
           ++i) {
        verdict = check(first_shard + i, legs[i], &*row);
        if (verdict == Verdict::kUse) replies->push_back(std::move(*legs[i]));
      }
    }
    if (verdict == Verdict::kUse) return true;
    if (verdict == Verdict::kFail) return false;
    // An update landed between the row fetch and the scatter.
    stat_conflicts_retried_.fetch_add(1, std::memory_order_relaxed);
    TraceAdd(TraceCounter::kConflictRetries, 1);
  }
  *error = Unavailable(
      "overlay sequence kept moving during the shard exchange; retry after "
      "the update burst settles");
  return false;
}

SimRankRouter::RouterResponse SimRankRouter::Unavailable(
    const std::string& message) {
  RouterResponse response;
  response.status = 503;
  response.body = ErrorBody("Unavailable", message);
  response.headers.emplace_back(
      "Retry-After", StrFormat("%u", options_.retry_after_seconds));
  return response;
}

bool SimRankRouter::ScorePair(VertexId a, VertexId b, double* score,
                              RouterResponse* error) {
  const uint32_t owner_a = options_.plan.OwnerOf(a);
  const uint32_t owner_b = options_.plan.OwnerOf(b);
  if (owner_a == owner_b) {
    TraceScope exchange(TraceStage::kShardExchange,
                        StrFormat("shard=%u", owner_a));
    auto reply = ReadFromShard(owner_a, /*post=*/false,
                               StrFormat("/v1/pair?a=%u&b=%u", a, b),
                               std::string_view());
    if (!reply.ok()) {
      *error = Unavailable(StrFormat("shard %u unreachable: %s", owner_a,
                                     reply.status().message().c_str()));
      return false;
    }
    if (reply->status != 200) {
      error->status = reply->status;
      error->body = std::move(reply->body);
      return false;
    }
    // The shard emits shortest-round-trip doubles; this parse is
    // bit-exact, so re-serializing reproduces the shard's text.
    *score = FindJsonNumber(reply->body, "score");
    return true;
  }
  std::vector<ShardReply> replies;
  if (!ExchangeRow(a, StrFormat("/internal/pair?b=%u", b), owner_b,
                   owner_b + 1, &replies, error)) {
    return false;
  }
  if (replies[0].body.size() != sizeof(double)) {
    error->status = 500;
    error->body = ErrorBody(
        "Internal", StrFormat("shard %u returned a %zu-byte pair score",
                              owner_b, replies[0].body.size()));
    return false;
  }
  std::memcpy(score, replies[0].body.data(), sizeof(double));
  return true;
}

bool SimRankRouter::ParseQuery(const HttpRequest& request,
                               ServerEndpoint endpoint, PublicQuery* query,
                               RouterResponse* response) const {
  const uint32_t n = options_.plan.n;
  Status status = ParsePublicQuery(request, endpoint, query);
  // The server traces every query it dispatches, out-of-range ones too.
  response->traced = status.ok();
  if (status.ok()) {
    if (endpoint == ServerEndpoint::kPair) {
      status = CheckVertexInRange(query->a, n);
      if (status.ok()) status = CheckVertexInRange(query->b, n);
    } else if (endpoint == ServerEndpoint::kSingleSource ||
               endpoint == ServerEndpoint::kTopK) {
      status = CheckVertexInRange(query->v, n);
    }
  }
  if (status.ok()) return true;
  response->status = 400;
  response->body =
      ErrorBody(StatusCodeToString(status.code()), status.message());
  return false;
}

SimRankRouter::RouterResponse SimRankRouter::HandlePair(
    const HttpRequest& request) {
  RouterResponse response;
  PublicQuery query;
  if (!ParseQuery(request, ServerEndpoint::kPair, &query, &response)) {
    return response;
  }
  const VertexId a = query.a;
  const VertexId b = query.b;
  double score = 0.0;
  if (!ScorePair(a, b, &score, &response)) return response;
  JsonWriter json;
  json.BeginObject()
      .Key("a")
      .Uint(a)
      .Key("b")
      .Uint(b)
      .Key("score")
      .Double(score)
      .EndObject();
  response.status = 200;
  response.body = json.str();
  return response;
}

SimRankRouter::RouterResponse SimRankRouter::HandleSingleSource(
    const HttpRequest& request) {
  RouterResponse response;
  PublicQuery query;
  if (!ParseQuery(request, ServerEndpoint::kSingleSource, &query, &response)) {
    return response;
  }
  const VertexId v = query.v;
  std::vector<ShardReply> replies;
  if (!ExchangeRow(v, StrFormat("/internal/partial?v=%u", v), 0,
                   static_cast<uint32_t>(pools_.size()), &replies,
                   &response)) {
    return response;
  }
  TraceScope merge(TraceStage::kMerge);
  // The shard ranges partition [0, n) in order, so the concatenated
  // slices are the full single-node score row, bit for bit.
  std::string scores;
  for (size_t i = 0; i < replies.size(); ++i) {
    const ShardRange& range = options_.plan.shards[i];
    const size_t expected =
        static_cast<size_t>(range.end - range.begin) * sizeof(double);
    if (replies[i].body.size() != expected) {
      response.status = 500;
      response.body = ErrorBody(
          "Internal",
          StrFormat("shard %zu returned %zu score bytes, expected %zu", i,
                    replies[i].body.size(), expected));
      return response;
    }
    scores += replies[i].body;
  }
  JsonWriter json;
  json.BeginObject().Key("v").Uint(v).Key("scores").BeginArray();
  const double* values = reinterpret_cast<const double*>(scores.data());
  const size_t count = scores.size() / sizeof(double);
  for (size_t i = 0; i < count; ++i) json.Double(values[i]);
  json.EndArray().EndObject();
  response.status = 200;
  response.body = json.str();
  return response;
}

SimRankRouter::RouterResponse SimRankRouter::HandleTopK(
    const HttpRequest& request) {
  RouterResponse response;
  PublicQuery query;
  if (!ParseQuery(request, ServerEndpoint::kTopK, &query, &response)) {
    return response;
  }
  const VertexId v = query.v;
  const uint32_t k = query.k;
  std::vector<ShardReply> replies;
  if (!ExchangeRow(v, StrFormat("/internal/topk?v=%u&k=%u", v, k), 0,
                   static_cast<uint32_t>(pools_.size()), &replies,
                   &response)) {
    return response;
  }
  TraceScope merge(TraceStage::kMerge);
  std::vector<std::vector<ScoredVertex>> parts(replies.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    const std::string& body = replies[i].body;
    if (body.size() % 12 != 0) {
      response.status = 500;
      response.body = ErrorBody(
          "Internal",
          StrFormat("shard %zu returned a %zu-byte top-k body (not a "
                    "multiple of 12)",
                    i, body.size()));
      return response;
    }
    parts[i].resize(body.size() / 12);
    for (size_t r = 0; r < parts[i].size(); ++r) {
      std::memcpy(&parts[i][r].vertex, body.data() + r * 12,
                  sizeof(uint32_t));
      std::memcpy(&parts[i][r].score, body.data() + r * 12 + 4,
                  sizeof(double));
    }
  }
  const std::vector<ScoredVertex> top = MergeTopK(parts, k);
  JsonWriter json;
  json.BeginObject()
      .Key("v")
      .Uint(v)
      .Key("k")
      .Uint(k)
      .Key("results")
      .BeginArray();
  for (const ScoredVertex& scored : top) {
    json.BeginObject()
        .Key("vertex")
        .Uint(scored.vertex)
        .Key("score")
        .Double(scored.score)
        .EndObject();
  }
  json.EndArray().EndObject();
  response.status = 200;
  response.body = json.str();
  return response;
}

SimRankRouter::RouterResponse SimRankRouter::HandleBatchPair(
    const HttpRequest& request) {
  RouterResponse response;
  PublicQuery query;
  if (!ParseQuery(request, ServerEndpoint::kBatchPair, &query, &response)) {
    return response;
  }
  auto pairs = ParsePairBatch(request.body, options_.max_batch_pairs);
  if (!pairs.ok()) {
    response.status = 400;
    response.body =
        ErrorBody("InvalidArgument", pairs.status().message());
    return response;
  }
  for (const auto& [a, b] : *pairs) {
    if (a >= options_.plan.n || b >= options_.plan.n) {
      response.status = 400;
      response.body = ErrorBody(
          "OutOfRange",
          StrFormat("pair (%u, %u) exceeds the plan's %u vertices", a, b,
                    options_.plan.n));
      return response;
    }
  }
  std::vector<double> scores;
  scores.reserve(pairs->size());
  for (const auto& [a, b] : *pairs) {
    double score = 0.0;
    if (!ScorePair(a, b, &score, &response)) return response;
    scores.push_back(score);
  }
  JsonWriter json;
  json.BeginObject()
      .Key("count")
      .Uint(scores.size())
      .Key("scores")
      .BeginArray();
  for (const double score : scores) json.Double(score);
  json.EndArray().EndObject();
  response.status = 200;
  response.body = json.str();
  return response;
}

SimRankRouter::RouterResponse SimRankRouter::HandleUpdate(
    const HttpRequest& request) {
  RouterResponse response;
  PublicQuery query;
  if (!ParseQuery(request, ServerEndpoint::kUpdate, &query, &response)) {
    return response;
  }
  // Broadcast in shard order. Every shard appends the batch to its own WAL
  // before answering, so a 200 here means the update is durable everywhere.
  // A shard failing *after* an earlier one applied leaves the cluster
  // mid-batch — that is a loud 500, not a silent retry, because blind
  // re-submission would double-apply on the shards that already took it.
  struct ShardResult {
    double applied = 0;
    double sequence = 0;
    double patched_vertices = 0;
    double changed_slots = 0;
    double wal_records = 0;
    std::string fingerprint;
  };
  std::vector<ShardResult> results;
  for (size_t i = 0; i < options_.shards.size(); ++i) {
    auto reply = SendToPort(*pools_[i].primary, /*post=*/true, "/v1/update",
                            request.body);
    if (!reply.ok()) {
      if (i == 0) {
        return Unavailable(
            StrFormat("shard 0 primary unreachable, nothing applied: %s",
                      reply.status().message().c_str()));
      }
      response.status = 500;
      response.body = ErrorBody(
          "Internal",
          StrFormat("shard %zu primary unreachable after %zu shard(s) "
                    "already applied the batch; the cluster needs "
                    "reconciliation before further updates",
                    i, i));
      return response;
    }
    if (reply->status != 200) {
      if (i == 0) {
        // Nothing has been applied anywhere; the first shard's verdict
        // (bad batch, overloaded, ...) is the client's answer.
        response.status = reply->status;
        response.body = std::move(reply->body);
        return response;
      }
      response.status = 500;
      response.body = ErrorBody(
          "Internal",
          StrFormat("shard %zu rejected the batch (HTTP %d) after %zu "
                    "shard(s) already applied it; the cluster needs "
                    "reconciliation before further updates",
                    i, reply->status, i));
      return response;
    }
    ShardResult result;
    result.applied = FindJsonNumber(reply->body, "applied");
    result.sequence = FindJsonNumber(reply->body, "sequence");
    result.patched_vertices =
        FindJsonNumber(reply->body, "patched_vertices");
    result.changed_slots = FindJsonNumber(reply->body, "changed_slots");
    result.wal_records = FindJsonNumber(reply->body, "wal_records");
    const std::string needle = "\"graph_fingerprint\":\"";
    const size_t at = reply->body.find(needle);
    if (at != std::string::npos) {
      result.fingerprint = reply->body.substr(at + needle.size(), 16);
    }
    results.push_back(std::move(result));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].applied != results[0].applied ||
        results[i].sequence != results[0].sequence ||
        results[i].wal_records != results[0].wal_records ||
        results[i].fingerprint != results[0].fingerprint) {
      response.status = 500;
      response.body = ErrorBody(
          "Internal",
          StrFormat("shard %zu applied the batch but reports a different "
                    "sequence/fingerprint than shard 0; the cluster has "
                    "diverged",
                    i));
      return response;
    }
  }
  // patched_vertices / changed_slots are per-shard work and sum across the
  // cluster; applied / sequence / fingerprint / wal_records must agree.
  double patched_vertices = 0;
  double changed_slots = 0;
  for (const ShardResult& result : results) {
    patched_vertices += result.patched_vertices;
    changed_slots += result.changed_slots;
  }
  JsonWriter json;
  json.BeginObject()
      .Key("applied")
      .Uint(static_cast<uint64_t>(results[0].applied))
      .Key("sequence")
      .Uint(static_cast<uint64_t>(results[0].sequence))
      .Key("patched_vertices")
      .Uint(static_cast<uint64_t>(patched_vertices))
      .Key("changed_slots")
      .Uint(static_cast<uint64_t>(changed_slots))
      .Key("graph_fingerprint")
      .String(results[0].fingerprint)
      .Key("wal_records")
      .Uint(static_cast<uint64_t>(results[0].wal_records))
      .EndObject();
  response.status = 200;
  response.body = json.str();
  return response;
}

MetricSet SimRankRouter::CollectStats() const {
  const RouterStats stats = this->stats();
  MetricSet m;
  m.Info("role", "router")
      .Gauge("plan_epoch", "simrank_router_plan_epoch", options_.plan.epoch)
      .Gauge("plan_shards", "simrank_router_shards",
             options_.plan.shards.size())
      .Info("n", options_.plan.n)
      .Info("graph_fingerprint",
            FormatFingerprint(options_.plan.graph_fingerprint))
      .Gauge("uptime_seconds", "simrank_router_uptime_seconds",
             UptimeSeconds());
  CollectBuildInfo(m, PromLabel("role", "router"));
  m.Counter("requests.total", "", stats.requests_total);
  auto request_counter = [&m](const char* endpoint, uint64_t count) {
    m.Counter(std::string("requests.") + endpoint,
              "simrank_router_requests_total", count,
              PromLabel("endpoint", endpoint));
  };
  request_counter("pair", stats.requests_pair);
  request_counter("single_source", stats.requests_single_source);
  request_counter("topk", stats.requests_topk);
  request_counter("batch_pair", stats.requests_batch_pair);
  request_counter("update", stats.requests_update);
  request_counter("stats", stats.requests_stats);
  request_counter("healthz", stats.requests_healthz);
  request_counter("metrics", stats.requests_metrics);
  request_counter("cluster_health", stats.requests_cluster_health);
  request_counter("debug_profile", stats.requests_debug_profile);
  request_counter("debug_timeseries", stats.requests_debug_timeseries);
  const bool scraping = options_.scrape_interval_ms > 0;
  m.Counter("responses.2xx", "simrank_router_responses_total",
            stats.responses_2xx, PromLabel("class", "2xx"))
      .Counter("responses.4xx", "simrank_router_responses_total",
               stats.responses_4xx, PromLabel("class", "4xx"))
      .Counter("responses.5xx", "simrank_router_responses_total",
               stats.responses_5xx, PromLabel("class", "5xx"))
      .Counter("cluster.failovers", "simrank_router_failovers_total",
               stats.failovers)
      .Counter("cluster.conflicts_retried", "simrank_router_conflicts_total",
               stats.conflicts_retried)
      .Counter("cluster.shard_errors", "simrank_router_shard_errors_total",
               stats.shard_errors)
      .Counter("cluster.scrape_rounds",
               scraping ? "simrank_fleet_scrape_rounds_total" : "",
               stats.scrape_rounds)
      .Counter("cluster.scrape_failures",
               scraping ? "simrank_fleet_scrape_failures_total" : "",
               stats.scrape_failures)
      .Counter("trace.traced_requests", "simrank_router_traced_requests_total",
               stats.traced_requests);
  ProcessMemoryStats memory;
  if (ReadProcessMemoryStats(&memory)) {
    m.Gauge("", "simrank_router_resident_bytes", memory.resident_bytes);
  }
  if (scraping) {
    const uint64_t now_s = UnixSeconds();
    for (const TargetState& target : SnapshotTargets()) {
      const std::string labels =
          PromLabel("shard", std::to_string(target.shard_id)) + "," +
          PromLabel("role", target.replica ? "replica" : "primary");
      const uint64_t age =
          target.last_success_unix_s == 0
              ? 0
              : now_s - std::min(now_s, target.last_success_unix_s);
      m.Gauge("", "simrank_fleet_target_healthy", target.healthy, labels)
          .Gauge("", "simrank_fleet_scrape_age_seconds", age, labels);
    }
  }
  return m;
}

std::vector<PromFamily> SimRankRouter::MetricFamilies() const {
  // Fleet aggregation: every family each target exports, with shard/role
  // labels injected, so one scrape of the router sees the whole cluster.
  std::vector<PromFamily> families = CollectStats().Families();
  for (const TargetState& target : SnapshotTargets()) {
    if (target.families != nullptr) MergeFamilies(*target.families, &families);
  }
  return families;
}

std::vector<SimRankRouter::TargetState> SimRankRouter::SnapshotTargets()
    const {
  std::lock_guard<std::mutex> lock(targets_mutex_);
  return targets_;
}

void SimRankRouter::ScrapeOnce() {
  const uint64_t now_s = UnixSeconds();
  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(targets_mutex_);
    count = targets_.size();
  }
  for (size_t i = 0; i < count; ++i) {
    uint16_t port = 0;
    std::string shard_labels;  // opens every re-exported label block
    {
      std::lock_guard<std::mutex> lock(targets_mutex_);
      port = targets_[i].port;
      shard_labels = StrFormat("{shard=\"%u\",role=\"%s\"",
                               targets_[i].shard_id,
                               targets_[i].replica ? "replica" : "primary");
    }
    // Dedicated short-timeout connections, never the query pools: a dead
    // shard must cost the scraper one scrape_timeout_ms, not poison a
    // pooled keep-alive connection a query would pick up next.
    std::string text;
    std::string error;
    auto client =
        LoopbackHttpClient::Connect(port, options_.scrape_timeout_ms);
    if (!client.ok()) {
      error = client.status().message();
    } else {
      auto response = client->Get("/metrics");
      if (!response.ok()) {
        error = response.status().message();
      } else if (response->status != 200) {
        error = StrFormat("/metrics answered HTTP %d", response->status);
      } else {
        text = std::move(response->body);
      }
    }
    double overlay_sequence = 0;
    double wal_records = 0;
    double loop_lag_seconds = 0;
    double uptime_seconds = 0;
    double resident_bytes = 0;
    std::shared_ptr<std::vector<PromFamily>> families;
    if (error.empty()) {
      families = std::make_shared<std::vector<PromFamily>>(
          ParsePrometheusText(text));
      for (PromFamily& family : *families) {
        for (PromSample& sample : family.samples) {
          sample.labels = sample.labels.empty()
                              ? shard_labels + "}"
                              : shard_labels + "," + sample.labels.substr(1);
          if (sample.name == "simrank_overlay_sequence_current") {
            overlay_sequence = sample.value;
          } else if (sample.name == "simrank_wal_records") {
            wal_records = sample.value;
          } else if (sample.name == "simrank_loop_lag_seconds") {
            loop_lag_seconds = sample.value;
          } else if (sample.name == "simrank_uptime_seconds") {
            uptime_seconds = sample.value;
          } else if (sample.name == "simrank_resident_bytes") {
            resident_bytes = sample.value;
          }
        }
      }
    } else {
      stat_scrape_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(targets_mutex_);
    TargetState& target = targets_[i];
    target.last_attempt_unix_s = now_s;
    if (error.empty()) {
      target.healthy = true;
      target.consecutive_failures = 0;
      target.error.clear();
      target.last_success_unix_s = now_s;
      target.overlay_sequence = overlay_sequence;
      target.wal_records = wal_records;
      target.loop_lag_seconds = loop_lag_seconds;
      target.uptime_seconds = uptime_seconds;
      target.resident_bytes = resident_bytes;
      target.families = std::move(families);
    } else {
      // Unhealthy from the very first failed scrape: a killed shard is
      // reflected within one scrape interval.
      target.healthy = false;
      ++target.consecutive_failures;
      target.error = std::move(error);
      target.families.reset();
    }
  }
}

void SimRankRouter::ScrapeLoop() {
  ScopedProfiledThread profiled("fleet-scrape");
  const auto interval =
      std::chrono::milliseconds(options_.scrape_interval_ms);
  while (!scrape_stop_.load(std::memory_order_acquire)) {
    ScrapeOnce();
    stat_scrape_rounds_.fetch_add(1, std::memory_order_relaxed);
    const auto next = std::chrono::steady_clock::now() + interval;
    // Short slices keep Shutdown prompt at long scrape intervals.
    while (!scrape_stop_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

void SimRankRouter::StartDiagnostics() {
  if (options_.scrape_interval_ms > 0 &&
      scrape_stop_.load(std::memory_order_acquire)) {
    scrape_stop_.store(false, std::memory_order_release);
    scrape_thread_ = std::thread([this] { ScrapeLoop(); });
  }
  diagnostics_.Start([this] { return MetricFamilies(); });
}

void SimRankRouter::StopDiagnostics() {
  scrape_stop_.store(true, std::memory_order_release);
  if (scrape_thread_.joinable()) scrape_thread_.join();
  diagnostics_.Stop();
}

SimRankRouter::RouterResponse SimRankRouter::BuildClusterHealth() {
  const std::vector<TargetState> targets = SnapshotTargets();
  const uint64_t now_s = UnixSeconds();
  JsonWriter json;
  json.BeginObject();
  json.Key("plan_epoch").Uint(options_.plan.epoch);
  json.Key("plan_shards").Uint(options_.plan.shards.size());
  json.Key("scraping").Bool(options_.scrape_interval_ms > 0);
  json.Key("scrape_interval_ms").Uint(options_.scrape_interval_ms);
  json.Key("scrape_rounds")
      .Uint(stat_scrape_rounds_.load(std::memory_order_relaxed));
  bool all_healthy = options_.scrape_interval_ms > 0;
  auto emit_target = [&](const TargetState& target, const char* key,
                         bool have_lag, double wal_lag) {
    json.Key(key).BeginObject();
    json.Key("port").Uint(target.port);
    json.Key("role").String(target.replica ? "replica" : "primary");
    json.Key("healthy").Bool(target.healthy);
    json.Key("consecutive_failures").Uint(target.consecutive_failures);
    if (!target.error.empty()) json.Key("error").String(target.error);
    if (target.last_success_unix_s > 0) {
      json.Key("last_scrape_age_seconds")
          .Uint(now_s >= target.last_success_unix_s
                    ? now_s - target.last_success_unix_s
                    : 0);
    }
    json.Key("overlay_sequence")
        .Uint(static_cast<uint64_t>(target.overlay_sequence));
    json.Key("wal_records").Uint(static_cast<uint64_t>(target.wal_records));
    if (have_lag) json.Key("wal_lag_records").Double(wal_lag);
    json.Key("loop_lag_seconds").Double(target.loop_lag_seconds);
    json.Key("uptime_seconds").Double(target.uptime_seconds);
    json.Key("resident_bytes")
        .Uint(static_cast<uint64_t>(target.resident_bytes));
    json.EndObject();
  };
  json.Key("shards").BeginArray();
  for (const RouterShard& shard : options_.shards) {
    const TargetState* primary = nullptr;
    const TargetState* replica = nullptr;
    for (const TargetState& target : targets) {
      if (target.shard_id != shard.shard_id) continue;
      (target.replica ? replica : primary) = &target;
    }
    json.BeginObject();
    json.Key("shard_id").Uint(shard.shard_id);
    const ShardRange& range = options_.plan.shards[shard.shard_id];
    json.Key("vertex_begin").Uint(range.begin);
    json.Key("vertex_end").Uint(range.end);
    if (primary != nullptr) {
      emit_target(*primary, "primary", /*have_lag=*/false, 0);
      if (!primary->healthy) all_healthy = false;
    }
    if (replica != nullptr) {
      // WAL shipping lag: records the primary has durably appended that
      // the replica has not yet applied. Meaningful only when both
      // scrapes are fresh.
      const bool have_lag = primary != nullptr && primary->healthy &&
                            replica->healthy;
      const double lag =
          have_lag ? primary->wal_records - replica->wal_records : 0;
      emit_target(*replica, "replica", have_lag, lag < 0 ? 0 : lag);
      if (!replica->healthy) all_healthy = false;
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("healthy").Bool(all_healthy);
  json.EndObject();
  RouterResponse response;
  response.status = 200;
  response.body = json.str();
  return response;
}

SimRankRouter::RouterResponse SimRankRouter::Route(
    const HttpRequest& request) {
  RouterResponse response;
  auto method_not_allowed = [&request, &response](const char* allowed) {
    response.status = 405;
    response.body = ErrorBody(
        "MethodNotAllowed",
        StrFormat("%s only accepts %s", request.path.c_str(), allowed));
    response.headers.emplace_back("Allow", allowed);
    return response;
  };
  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";
  if (request.path == "/healthz") {
    stat_requests_healthz_.fetch_add(1, std::memory_order_relaxed);
    response.status = 200;
    response.body = "{\"status\":\"ok\"}";
    return response;
  }
  if (request.path == "/v1/stats") {
    stat_requests_stats_.fetch_add(1, std::memory_order_relaxed);
    response.status = 200;
    response.body = CollectStats().ToJson();
    return response;
  }
  if (request.path == "/metrics") {
    stat_requests_metrics_.fetch_add(1, std::memory_order_relaxed);
    response.status = 200;
    response.content_type = "text/plain; version=0.0.4";
    response.body = PrometheusText(MetricFamilies());
    return response;
  }
  if (request.path == "/v1/cluster/health") {
    stat_requests_cluster_health_.fetch_add(1, std::memory_order_relaxed);
    if (!is_get) return method_not_allowed("GET");
    return BuildClusterHealth();
  }
  if (request.path == "/v1/debug/profile") {
    stat_requests_debug_profile_.fetch_add(1, std::memory_order_relaxed);
    if (!is_get) return method_not_allowed("GET");
    double seconds = 0.0;
    uint32_t hz = 0;
    if (const Status params = ParseProfileParams(request, &seconds, &hz);
        !params.ok()) {
      response.status = 400;
      response.body = ErrorBody("InvalidArgument", params.message());
      return response;
    }
    // Blocks only this connection's thread. The profiler runs one session
    // at a time, so a concurrent request fails here and answers 409.
    auto profiled = CpuProfiler::Instance().ProfileFor(seconds, hz);
    if (!profiled.ok()) {
      response.status = 409;
      response.body = ErrorBody("Busy", profiled.status().message());
      return response;
    }
    response.status = 200;
    response.content_type = "text/plain";
    response.body = RenderProfileReport(*profiled);
    return response;
  }
  if (request.path == "/v1/debug/timeseries") {
    stat_requests_debug_timeseries_.fetch_add(1, std::memory_order_relaxed);
    if (!is_get) return method_not_allowed("GET");
    std::tie(response.status, response.body) =
        AnswerTimeseries(diagnostics_.history(), request);
    return response;
  }
  if (request.path == "/v1/pair" || request.path == "/v1/single_source" ||
      request.path == "/v1/topk") {
    if (!is_get) return method_not_allowed("GET");
    if (request.path == "/v1/pair") {
      stat_requests_pair_.fetch_add(1, std::memory_order_relaxed);
      return HandlePair(request);
    }
    if (request.path == "/v1/single_source") {
      stat_requests_single_source_.fetch_add(1, std::memory_order_relaxed);
      return HandleSingleSource(request);
    }
    stat_requests_topk_.fetch_add(1, std::memory_order_relaxed);
    return HandleTopK(request);
  }
  if (request.path == "/v1/batch_pair" || request.path == "/v1/update") {
    if (!is_post) return method_not_allowed("POST");
    if (request.path == "/v1/batch_pair") {
      stat_requests_batch_pair_.fetch_add(1, std::memory_order_relaxed);
      return HandleBatchPair(request);
    }
    stat_requests_update_.fetch_add(1, std::memory_order_relaxed);
    return HandleUpdate(request);
  }
  response.status = 404;
  response.body = ErrorBody("NotFound", "no such endpoint: " + request.path);
  return response;
}

#else  // !OIPSIM_ROUTER_HAVE_SOCKETS

Status SimRankRouter::Bind() {
  return Status::Unimplemented("SimRankRouter requires POSIX sockets");
}
Status SimRankRouter::Start() {
  return Status::Unimplemented("SimRankRouter requires POSIX sockets");
}
void SimRankRouter::Shutdown() {}
void SimRankRouter::AcceptLoop() {}
void SimRankRouter::HandleConnection(int) {}

#endif  // OIPSIM_ROUTER_HAVE_SOCKETS

}  // namespace simrank
