#include "simrank/cluster/router.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/obs/profiler.h"
#include "simrank/server/server.h"

namespace simrank {
namespace {

/// Wall-clock seconds since the Unix epoch.
uint64_t UnixSeconds() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// A 500 naming the shard whose 200 reply could not be decoded.
HttpFrontend::Response MalformedReply(size_t shard, std::string_view what) {
  HttpFrontend::Response response;
  response.body = ErrorBody(
      "Internal", StrFormat("shard %zu answered 200 without %.*s", shard,
                            static_cast<int>(what.size()), what.data()));
  return response;
}

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

namespace {

ServerOptions FrontendOptions(const RouterOptions& options) {
  ServerOptions frontend;
  frontend.bind_address = options.bind_address;
  frontend.port = options.port;
  frontend.http = options.http;
  frontend.diagnostics = options.diagnostics;
  frontend.retry_after_seconds = options.retry_after_seconds;
  return frontend;
}

}  // namespace

SimRankRouter::SimRankRouter(RouterOptions options)
    : options_(std::move(options)),
      frontend_options_(FrontendOptions(options_)),
      frontend_(
          frontend_options_, [this] { return CollectStats(); },
          [this] { return MetricFamilies(); }) {
  frontend_.AddRoutes(Routes());
}

SimRankRouter::~SimRankRouter() { Shutdown(); }

RouterStats SimRankRouter::stats() const {
  auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  const FrontendCounters& frontend = frontend_.counters();
  RouterStats stats;
  stats.requests_total = load(frontend.requests_total);
  stats.requests_pair = load(stat_requests_pair_);
  stats.requests_single_source = load(stat_requests_single_source_);
  stats.requests_topk = load(stat_requests_topk_);
  stats.requests_batch_pair = load(stat_requests_batch_pair_);
  stats.requests_update = load(stat_requests_update_);
  stats.requests_stats = load(frontend.requests_stats);
  stats.requests_healthz = load(frontend.requests_healthz);
  stats.requests_metrics = load(frontend.requests_metrics);
  stats.responses_2xx = load(frontend.responses_2xx);
  stats.responses_4xx = load(frontend.responses_4xx);
  stats.responses_5xx = load(frontend.responses_5xx);
  stats.failovers = load(stat_failovers_);
  stats.conflicts_retried = load(stat_conflicts_retried_);
  stats.shard_errors = load(stat_shard_errors_);
  stats.traced_requests = load(frontend.traced_requests);
  stats.requests_cluster_health = load(stat_requests_cluster_health_);
  stats.requests_debug_profile = load(frontend.requests_debug_profile);
  stats.requests_debug_timeseries = load(frontend.requests_debug_timeseries);
  stats.scrape_rounds = load(stat_scrape_rounds_);
  stats.scrape_failures = load(stat_scrape_failures_);
  return stats;
}

Status SimRankRouter::Bind() {
  OIPSIM_RETURN_IF_ERROR(options_.Validate());
  {
    // One scrape target per fleet process; the vector never resizes after
    // Bind, so the scrape thread updates entries in place.
    std::lock_guard<std::mutex> lock(targets_mutex_);
    targets_.clear();
    for (const RouterShard& shard : options_.shards) {
      const uint16_t ports[] = {shard.primary_port, shard.replica_port};
      for (int role = 0; role < 2 && ports[role] != 0; ++role) {
        TargetState& target = targets_.emplace_back();
        target.shard_id = shard.shard_id;
        target.replica = role == 1;
        target.port = ports[role];
      }
    }
  }
  return frontend_.Bind();
}

Status SimRankRouter::Start() {
  if (frontend_.port() == 0) {
    return Status::InvalidArgument("Start() requires a successful Bind()");
  }
  loop_thread_ = std::thread([this] { frontend_.Serve(); });
  if (options_.scrape_interval_ms > 0) {
    scrape_stop_.store(false, std::memory_order_release);
    scrape_thread_ = std::thread([this] { ScrapeLoop(); });
  }
  return Status::OK();
}

void SimRankRouter::Shutdown() {
  scrape_stop_.store(true, std::memory_order_release);
  if (scrape_thread_.joinable()) scrape_thread_.join();
  frontend_.Shutdown();
  if (loop_thread_.joinable()) loop_thread_.join();
}

std::vector<HttpFrontend::Route> SimRankRouter::Routes() {
  using Handler = void (SimRankRouter::*)(Connection*, const HttpRequest&);
  auto route = [this](const char* path, const char* method, Handler handler) {
    return HttpFrontend::Route{
        path, method, HttpFrontend::kNoAdmission,
        [this, handler](Connection* conn, const HttpRequest& request, int) {
          (this->*handler)(conn, request);
        }};
  };
  std::vector<HttpFrontend::Route> routes = {
      route("/v1/pair", "GET", &SimRankRouter::HandlePair),
      route("/v1/topk", "GET", &SimRankRouter::HandleTopK),
      route("/v1/single_source", "GET", &SimRankRouter::HandleSingleSource),
      route("/v1/batch_pair", "POST", &SimRankRouter::HandleBatchPair),
      route("/v1/update", "POST", &SimRankRouter::HandleUpdate),
  };
  routes.push_back({"/v1/cluster/health", "GET", HttpFrontend::kNoAdmission,
                    [this](Connection* conn, const HttpRequest&, int) {
                      stat_requests_cluster_health_.fetch_add(
                          1, std::memory_order_relaxed);
                      frontend_.Answer(conn, 200, BuildClusterHealth());
                    }});
  return routes;
}

SimRankRouter::CallPtr SimRankRouter::StartCall(Connection* conn,
                                                const HttpRequest& request,
                                                ServerEndpoint endpoint,
                                                PublicQuery* query) {
  Status status = ParsePublicQuery(request, endpoint, query);
  if (!status.ok()) {
    frontend_.Answer(conn, 400, ErrorBody(StatusCodeToString(status.code()),
                                          status.message()));
    return nullptr;
  }
  // The server traces every query it dispatches, out-of-range ones too.
  auto call = std::make_shared<Call>();
  frontend_.ActivateTrace(conn, request, query->trace_inline, &call->trace);
  if (call->trace.traced()) {
    call->recorder = std::make_unique<TraceRecorder>(call->trace.id);
    call->root_span =
        call->recorder->OpenSpan(TraceStage::kRequest, request.path);
  }
  const uint32_t n = options_.plan.n;
  if (endpoint == ServerEndpoint::kPair) {
    status = CheckVertexInRange(query->a, n);
    if (status.ok()) status = CheckVertexInRange(query->b, n);
  } else if (endpoint == ServerEndpoint::kSingleSource ||
             endpoint == ServerEndpoint::kTopK) {
    status = CheckVertexInRange(query->v, n);
  }
  if (!status.ok()) {
    AnswerNow(conn, *call,
              {400, ErrorBody(StatusCodeToString(status.code()),
                              status.message())});
    return nullptr;
  }
  return call;
}

void SimRankRouter::CloseTrace(Call& call, Response* response) {
  if (call.recorder == nullptr) return;
  call.recorder->CloseSpan(call.root_span);
  // The router neither samples traces nor captures slow ones (its
  // frontend keeps ServerOptions' defaults), so the duration is unused.
  frontend_.FinishTrace(call.trace, /*elapsed_us=*/0, *call.recorder,
                        response);
}

void SimRankRouter::AnswerNow(Connection* conn, Call& call,
                              Response response) {
  CloseTrace(call, &response);
  frontend_.Answer(conn, response);
}

void SimRankRouter::Finish(const CallPtr& call, Response response) {
  CloseTrace(*call, &response);
  frontend_.Resume(call->conn, response);
}

HttpHeaders SimRankRouter::TraceHeaders(const Call& call) {
  if (call.recorder == nullptr) return {};
  return {{"X-Simrank-Trace", TraceIdToHex(call.recorder->trace_id())}};
}

SimRankRouter::ShardReply SimRankRouter::ToShardReply(
    Call& call, HttpClientResponse response) {
  ShardReply reply;
  reply.status = response.status;
  reply.body = std::move(response.body);
  const std::string* fingerprint = response.FindHeader("x-graph-fingerprint");
  const std::string* sequence = response.FindHeader("x-overlay-sequence");
  const std::string* epoch = response.FindHeader("x-plan-epoch");
  reply.have_versions =
      fingerprint != nullptr && sequence != nullptr && epoch != nullptr &&
      ParseFingerprint(*fingerprint, &reply.fingerprint) &&
      ParseUint64(*sequence, &reply.sequence) &&
      ParseUint64(*epoch, &reply.epoch);
  if (call.recorder != nullptr) {
    call.recorder->Add(TraceCounter::kShardsContacted, 1);
    if (const std::string* child =
            response.FindHeader("x-simrank-trace-json")) {
      call.recorder->AddChildTrace(*child);
    }
  }
  return reply;
}

void SimRankRouter::ReadFromShard(const CallPtr& call, uint32_t shard_id,
                                  std::string request, ReplyDone done,
                                  bool replica) {
  const RouterShard& shard = options_.shards[shard_id];
  const bool can_fail_over = !replica && shard.replica_port != 0;
  // A copy for the replica, only when there is one to fail over to.
  std::string retry = can_fail_over ? request : std::string();
  frontend_.Exchange(
      replica ? shard.replica_port : shard.primary_port, std::move(request),
      options_.timeout_ms,
      [this, call, shard_id, can_fail_over, retry = std::move(retry),
       done = std::move(done)](Result<HttpClientResponse> reply) mutable {
        if (reply.ok()) {
          done(ToShardReply(*call, std::move(*reply)));
          return;
        }
        stat_shard_errors_.fetch_add(1, std::memory_order_relaxed);
        if (!can_fail_over) {
          done(reply.status());
          return;
        }
        stat_failovers_.fetch_add(1, std::memory_order_relaxed);
        ReadFromShard(call, shard_id, std::move(retry), std::move(done),
                      /*replica=*/true);
      });
}

void SimRankRouter::Scatter(const CallPtr& call, uint32_t first_shard,
                            uint32_t end_shard, const std::string& request,
                            LegsDone done) {
  struct Legs {
    std::vector<Result<ShardReply>> replies;
    /// Each leg's send time and duration, for its span.
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    uint32_t pending = 0;
    LegsDone done;
  };
  const uint32_t count = end_shard - first_shard;
  auto legs = std::make_shared<Legs>(
      Legs{std::vector<Result<ShardReply>>(count, Status::IoError("unsent")),
           std::vector<std::pair<uint64_t, uint64_t>>(count), count,
           std::move(done)});
  // Every request goes out before any reply is read, so the shards
  // compute concurrently; the legs then wait concurrently as well.
  for (uint32_t i = 0; i < count; ++i) {
    legs->spans[i].first = TraceNowNanos();
    ReadFromShard(call, first_shard + i, request,
                  [call, legs, i, first_shard](Result<ShardReply> reply) {
                    legs->replies[i] = std::move(reply);
                    legs->spans[i].second =
                        TraceNowNanos() - legs->spans[i].first;
                    if (--legs->pending > 0) return;
                    for (uint32_t leg = 0; call->recorder != nullptr &&
                                           leg < legs->spans.size();
                         ++leg) {
                      call->recorder->AddCompletedSpan(
                          TraceStage::kShardExchange, legs->spans[leg].first,
                          legs->spans[leg].second,
                          StrFormat("shard=%u", first_shard + leg));
                    }
                    legs->done(std::move(legs->replies));
                  });
  }
}

void SimRankRouter::ExchangeRow(const CallPtr& call, VertexId v,
                                std::string target_prefix,
                                uint32_t first_shard, uint32_t end_shard,
                                uint32_t attempt, RowDone done) {
  enum class Verdict { kUse, kRetry, kFail };
  const uint32_t owner = options_.plan.OwnerOf(v);
  // The one reply check for the row and every scattered leg; `row` is
  // null for the row itself.
  auto check = [this, owner](uint32_t shard, Result<ShardReply>& reply,
                             const ShardReply* row, Response* error) {
    if (!reply.ok()) {
      *error = Unavailable(StrFormat("shard %u unreachable: %s", shard,
                                     reply.status().message().c_str()));
      return Verdict::kFail;
    }
    if (reply->status == 409) return Verdict::kRetry;
    if (reply->status != 200) {
      *error = Response{reply->status, std::move(reply->body)};
      return Verdict::kFail;
    }
    if (!reply->have_versions || reply->epoch != options_.plan.epoch) {
      error->body = ErrorBody(
          "Internal",
          StrFormat("shard %u is serving plan epoch %llu, router has %llu",
                    shard, static_cast<unsigned long long>(reply->epoch),
                    static_cast<unsigned long long>(options_.plan.epoch)));
      return Verdict::kFail;
    }
    if (row != nullptr && reply->fingerprint != row->fingerprint) {
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
  // An update landed between the row fetch and the scatter: re-fetch, or
  // degrade to 503 once the retries are spent.
  auto retry = [this, call, v, first_shard, end_shard, attempt](
                   std::string prefix, RowDone next) {
    stat_conflicts_retried_.fetch_add(1, std::memory_order_relaxed);
    if (call->recorder != nullptr) {
      call->recorder->Add(TraceCounter::kConflictRetries, 1);
    }
    if (attempt < options_.retries) {
      ExchangeRow(call, v, std::move(prefix), first_shard, end_shard,
                  attempt + 1, std::move(next));
      return;
    }
    Finish(call, Unavailable("overlay sequence kept moving during the "
                             "shard exchange; retry after the update burst "
                             "settles"));
  };
  const uint64_t fetch_ns = call->recorder != nullptr ? TraceNowNanos() : 0;
  ReadFromShard(
      call, owner,
      BuildHttpRequest("GET", StrFormat("/internal/walks?v=%u", v), {}, {},
                       TraceHeaders(*call)),
      [this, call, owner, first_shard, end_shard, fetch_ns, check, retry,
       target_prefix = std::move(target_prefix),
       done = std::move(done)](Result<ShardReply> row) mutable {
        if (call->recorder != nullptr) {
          call->recorder->AddCompletedSpan(TraceStage::kRowFetch, fetch_ns,
                                           TraceNowNanos() - fetch_ns,
                                           StrFormat("shard=%u", owner));
        }
        Response error;
        const Verdict verdict = check(owner, row, nullptr, &error);
        if (verdict == Verdict::kFail) {
          Finish(call, std::move(error));
          return;
        }
        if (verdict == Verdict::kRetry) {
          retry(std::move(target_prefix), std::move(done));
          return;
        }
        const std::string request = BuildHttpRequest(
            "POST",
            StrFormat("%s&seq=%llu", target_prefix.c_str(),
                      static_cast<unsigned long long>(row->sequence)),
            row->body, "application/octet-stream", TraceHeaders(*call));
        Scatter(call, first_shard, end_shard, request,
                [this, call, first_shard, check, retry, row = std::move(*row),
                 target_prefix = std::move(target_prefix),
                 done = std::move(done)](
                    std::vector<Result<ShardReply>> legs) mutable {
                  Response error;
                  std::vector<ShardReply> replies;
                  for (uint32_t i = 0; i < legs.size(); ++i) {
                    const Verdict verdict =
                        check(first_shard + i, legs[i], &row, &error);
                    if (verdict == Verdict::kFail) {
                      Finish(call, std::move(error));
                      return;
                    }
                    if (verdict == Verdict::kRetry) {
                      retry(std::move(target_prefix), std::move(done));
                      return;
                    }
                    replies.push_back(std::move(*legs[i]));
                  }
                  done(std::move(replies));
                });
      });
}

SimRankRouter::Response SimRankRouter::Unavailable(
    const std::string& message) const {
  Response response{503, ErrorBody("Unavailable", message)};
  response.headers.emplace_back(
      "Retry-After", StrFormat("%u", options_.retry_after_seconds));
  return response;
}

void SimRankRouter::ScorePair(const CallPtr& call, VertexId a, VertexId b,
                              ScoreDone done) {
  const uint32_t owner_a = options_.plan.OwnerOf(a);
  const uint32_t owner_b = options_.plan.OwnerOf(b);
  if (owner_a == owner_b) {
    const uint64_t start = call->recorder != nullptr ? TraceNowNanos() : 0;
    ReadFromShard(
        call, owner_a,
        BuildHttpRequest("GET", StrFormat("/v1/pair?a=%u&b=%u", a, b), {},
                         {}, TraceHeaders(*call)),
        [this, call, owner_a, start,
         done = std::move(done)](Result<ShardReply> reply) {
          if (call->recorder != nullptr) {
            call->recorder->AddCompletedSpan(
                TraceStage::kShardExchange, start, TraceNowNanos() - start,
                StrFormat("shard=%u", owner_a));
          }
          double score = 0.0;
          if (!reply.ok()) {
            Finish(call,
                   Unavailable(StrFormat("shard %u unreachable: %s", owner_a,
                                         reply.status().message().c_str())));
          } else if (reply->status != 200) {
            Finish(call, {reply->status, std::move(reply->body)});
          } else if (!ReadJsonNumber(reply->body, "score", &score)) {
            Finish(call, MalformedReply(owner_a, "a \"score\""));
          } else {
            done(score);
          }
        });
    return;
  }
  ExchangeRow(call, a, StrFormat("/internal/pair?b=%u", b), owner_b,
              owner_b + 1, 0,
              [this, call, owner_b,
               done = std::move(done)](std::vector<ShardReply> replies) {
                if (replies[0].body.size() != sizeof(double)) {
                  Finish(call,
                         {500, ErrorBody("Internal",
                                         StrFormat("shard %u returned a "
                                                   "%zu-byte pair score",
                                                   owner_b,
                                                   replies[0].body.size()))});
                  return;
                }
                double score = 0.0;
                std::memcpy(&score, replies[0].body.data(), sizeof(double));
                done(score);
              });
}

void SimRankRouter::HandlePair(Connection* conn, const HttpRequest& request) {
  stat_requests_pair_.fetch_add(1, std::memory_order_relaxed);
  PublicQuery query;
  CallPtr call = StartCall(conn, request, ServerEndpoint::kPair, &query);
  if (call == nullptr) return;
  call->conn = frontend_.Park(conn);
  const VertexId a = query.a;
  const VertexId b = query.b;
  ScorePair(call, a, b, [this, call, a, b](double score) {
    Finish(call, {200, PairBody(a, b, score)});
  });
}

void SimRankRouter::HandleSingleSource(Connection* conn,
                                       const HttpRequest& request) {
  stat_requests_single_source_.fetch_add(1, std::memory_order_relaxed);
  PublicQuery query;
  CallPtr call =
      StartCall(conn, request, ServerEndpoint::kSingleSource, &query);
  if (call == nullptr) return;
  call->conn = frontend_.Park(conn);
  const VertexId v = query.v;
  ExchangeRow(
      call, v, StrFormat("/internal/partial?v=%u", v), 0,
      static_cast<uint32_t>(options_.shards.size()), 0,
      [this, call, v](std::vector<ShardReply> replies) {
        // An n-entry row is O(n) to serialize: on a worker, not the loop.
        frontend_.Submit(
            call->conn, HttpFrontend::kNoAdmission,
            std::chrono::steady_clock::now(),
            [this, call, v, replies = std::move(replies)] {
              Response response;
              {
                TraceBinding binding(call->recorder.get());
                TraceScope merge(TraceStage::kMerge);
                // The shard ranges partition [0, n) in order, so the
                // concatenated slices are the full single-node score row,
                // bit for bit.
                std::vector<double> scores(options_.plan.n);
                for (size_t i = 0; i < replies.size(); ++i) {
                  const ShardRange& range = options_.plan.shards[i];
                  const std::string& body = replies[i].body;
                  const size_t bytes =
                      (range.end - range.begin) * sizeof(double);
                  if (body.size() != bytes) {
                    response.body = ErrorBody(
                        "Internal",
                        StrFormat("shard %zu returned %zu score bytes, "
                                  "expected %zu",
                                  i, body.size(), bytes));
                    break;
                  }
                  std::memcpy(scores.data() + range.begin, body.data(),
                              bytes);
                }
                if (response.body.empty()) {
                  response = Response{200, SingleSourceBody(v, scores)};
                }
              }
              CloseTrace(*call, &response);
              return response;
            });
      });
}

void SimRankRouter::HandleTopK(Connection* conn, const HttpRequest& request) {
  stat_requests_topk_.fetch_add(1, std::memory_order_relaxed);
  PublicQuery query;
  CallPtr call = StartCall(conn, request, ServerEndpoint::kTopK, &query);
  if (call == nullptr) return;
  call->conn = frontend_.Park(conn);
  const VertexId v = query.v;
  const uint32_t k = query.k;
  ExchangeRow(
      call, v, StrFormat("/internal/topk?v=%u&k=%u", v, k), 0,
      static_cast<uint32_t>(options_.shards.size()), 0,
      [this, call, v, k](std::vector<ShardReply> replies) {
        Response response;
        {
          TraceBinding binding(call->recorder.get());
          TraceScope merge(TraceStage::kMerge);
          std::vector<std::vector<ScoredVertex>> parts(replies.size());
          for (size_t i = 0; i < replies.size() && response.body.empty();
               ++i) {
            const std::string& body = replies[i].body;
            if (body.size() % 12 != 0) {
              response.body = ErrorBody(
                  "Internal",
                  StrFormat("shard %zu returned a %zu-byte top-k body (not "
                            "a multiple of 12)",
                            i, body.size()));
              break;
            }
            parts[i].resize(body.size() / 12);
            for (size_t r = 0; r < parts[i].size(); ++r) {
              std::memcpy(&parts[i][r].vertex, body.data() + r * 12,
                          sizeof(uint32_t));
              std::memcpy(&parts[i][r].score, body.data() + r * 12 + 4,
                          sizeof(double));
            }
          }
          if (response.body.empty()) {
            response = Response{200, TopKBody(v, k, MergeTopK(parts, k))};
          }
        }
        Finish(call, std::move(response));
      });
}

struct SimRankRouter::BatchState {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  std::vector<double> scores;
};

void SimRankRouter::HandleBatchPair(Connection* conn,
                                    const HttpRequest& request) {
  stat_requests_batch_pair_.fetch_add(1, std::memory_order_relaxed);
  PublicQuery query;
  CallPtr call = StartCall(conn, request, ServerEndpoint::kBatchPair, &query);
  if (call == nullptr) return;
  auto pairs = ParsePairBatch(request.body, options_.max_batch_pairs);
  if (!pairs.ok()) {
    AnswerNow(conn, *call,
              {400, ErrorBody("InvalidArgument", pairs.status().message())});
    return;
  }
  for (const auto& [a, b] : *pairs) {
    if (a >= options_.plan.n || b >= options_.plan.n) {
      AnswerNow(conn, *call,
                {400, ErrorBody("OutOfRange",
                                StrFormat("pair (%u, %u) exceeds the plan's "
                                          "%u vertices",
                                          a, b, options_.plan.n))});
      return;
    }
  }
  call->conn = frontend_.Park(conn);
  auto state = std::make_shared<BatchState>();
  state->pairs = std::move(*pairs);
  state->scores.reserve(state->pairs.size());
  ScoreNext(call, std::move(state));
}

void SimRankRouter::ScoreNext(const CallPtr& call,
                              std::shared_ptr<BatchState> state) {
  const size_t next = state->scores.size();
  if (next < state->pairs.size()) {
    const auto [a, b] = state->pairs[next];
    ScorePair(call, a, b, [this, call, state](double score) {
      state->scores.push_back(score);
      ScoreNext(call, state);
    });
    return;
  }
  // Up to max_batch_pairs scores: serialized on a worker, like a row.
  frontend_.Submit(call->conn, HttpFrontend::kNoAdmission,
                   std::chrono::steady_clock::now(), [this, call, state] {
                     Response response{200, BatchPairBody(state->scores)};
                     CloseTrace(*call, &response);
                     return response;
                   });
}

struct SimRankRouter::UpdateState {
  std::string body;
  /// Shard 0's applied, sequence and wal_records, which every shard must
  /// report too, and the cluster's patched_vertices and changed_slots,
  /// which are per-shard work and sum.
  std::array<uint64_t, 5> counts = {};
  std::string fingerprint;
  /// The first shard that disagreed with shard 0, or 0.
  uint32_t diverged = 0;
};

void SimRankRouter::HandleUpdate(Connection* conn,
                                 const HttpRequest& request) {
  stat_requests_update_.fetch_add(1, std::memory_order_relaxed);
  PublicQuery query;
  CallPtr call = StartCall(conn, request, ServerEndpoint::kUpdate, &query);
  if (call == nullptr) return;
  call->conn = frontend_.Park(conn);
  auto state = std::make_shared<UpdateState>();
  state->body = request.body;
  Broadcast(call, std::move(state), 0);
}

void SimRankRouter::Broadcast(const CallPtr& call,
                              std::shared_ptr<UpdateState> state,
                              uint32_t shard_id) {
  if (shard_id == options_.shards.size()) {
    Finish(call,
           state->diverged == 0
               ? Response{200, UpdateBody(state->counts, state->fingerprint)}
               : Response{500,
                          ErrorBody("Internal",
                                    StrFormat("shard %u applied the batch "
                                              "but reports a different "
                                              "sequence/fingerprint than "
                                              "shard 0; the cluster has "
                                              "diverged",
                                              state->diverged))});
    return;
  }
  // In shard order. Every shard appends the batch to its own WAL before
  // answering, so a 200 here means the update is durable everywhere. A
  // shard failing *after* an earlier one applied leaves the cluster
  // mid-batch — that is a loud 500, not a silent retry, because blind
  // re-submission would double-apply on the shards that already took it.
  frontend_.Exchange(
      options_.shards[shard_id].primary_port,
      BuildHttpRequest("POST", "/v1/update", state->body,
                       "application/octet-stream", TraceHeaders(*call)),
      options_.timeout_ms,
      [this, call, state, shard_id](Result<HttpClientResponse> response) {
        auto mid_batch = [&](const std::string& failure, const char* batch) {
          Finish(call, {500, ErrorBody(
                                 "Internal",
                                 StrFormat("shard %u %s after %u shard(s) "
                                           "already applied %s; the cluster "
                                           "needs reconciliation before "
                                           "further updates",
                                           shard_id, failure.c_str(),
                                           shard_id, batch))});
        };
        if (!response.ok()) {
          stat_shard_errors_.fetch_add(1, std::memory_order_relaxed);
          if (shard_id > 0) {
            mid_batch("primary unreachable", "the batch");
            return;
          }
          Finish(call, Unavailable(StrFormat(
                           "shard 0 primary unreachable, nothing applied: %s",
                           response.status().message().c_str())));
          return;
        }
        ShardReply reply = ToShardReply(*call, std::move(*response));
        if (reply.status != 200) {
          if (shard_id > 0) {
            mid_batch(StrFormat("rejected the batch (HTTP %d)", reply.status),
                      "it");
            return;
          }
          // Nothing has been applied anywhere; the first shard's verdict
          // (bad batch, overloaded, ...) is the client's answer.
          Finish(call, {reply.status, std::move(reply.body)});
          return;
        }
        static constexpr const char* kFields[] = {
            "applied", "sequence", "patched_vertices", "changed_slots",
            "wal_records"};
        std::array<uint64_t, 5> counts = {};
        for (size_t f = 0; f < counts.size(); ++f) {
          double value = 0;
          if (!ReadJsonNumber(reply.body, kFields[f], &value)) {
            Finish(call, MalformedReply(
                             shard_id,
                             StrFormat("a numeric \"%s\"", kFields[f])));
            return;
          }
          counts[f] = static_cast<uint64_t>(value);
        }
        const std::string needle = "\"graph_fingerprint\":\"";
        const size_t at = reply.body.find(needle);
        if (at == std::string::npos ||
            reply.body.size() < at + needle.size() + 16) {
          Finish(call, MalformedReply(shard_id, "a \"graph_fingerprint\""));
          return;
        }
        const std::string fingerprint =
            reply.body.substr(at + needle.size(), 16);
        if (shard_id == 0) {
          state->counts = counts;
          state->fingerprint = fingerprint;
        } else {
          if (state->diverged == 0 &&
              (counts[0] != state->counts[0] ||
               counts[1] != state->counts[1] ||
               counts[4] != state->counts[4] ||
               fingerprint != state->fingerprint)) {
            state->diverged = shard_id;
          }
          state->counts[2] += counts[2];
          state->counts[3] += counts[3];
        }
        Broadcast(call, state, shard_id + 1);
      });
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
    bool replication_halted = false;
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
          } else if (sample.name == "simrank_replication_halted") {
            replication_halted = sample.value != 0;
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
      // A replica whose WAL tailer halted answers scrapes but serves a
      // graph its primary has moved past: unhealthy, and its record
      // count no longer measures a lag.
      target.healthy = !replication_halted;
      target.consecutive_failures = 0;
      target.error =
          replication_halted
              ? "WAL replication halted: the replica no longer follows its "
                "primary (its /v1/stats replication.last_error says why)"
              : "";
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

std::string SimRankRouter::BuildClusterHealth() const {
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
      // scrapes are fresh and the replica still follows (a halt reads
      // unhealthy).
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
  return json.str();
}

}  // namespace simrank
