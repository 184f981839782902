// Scatter-gather query router for a sharded SimRank cluster.
//
// The router owns the shard plan and is the only process clients talk to.
// It speaks the same public /v1/* dialect as a single-node simrank_server
// and answers bitwise-identically to one — the merge is exact, not
// approximate:
//
//   - pair(a, b) with both endpoints on one shard is forwarded verbatim;
//     a cross-shard pair fetches a's walk row from its owner
//     (/internal/walks) and has b's owner score it (/internal/pair), the
//     double crossing the wire in native binary.
//   - single_source(v) fetches v's row once, scatters it to every shard
//     (/internal/partial), and concatenates the returned per-range score
//     slices in shard order — the shard slices are disjoint and
//     reproduce the single-node row exactly.
//   - topk(v, k) scatters the row the same way (/internal/topk), then merges
//     the per-shard top-k candidate lists under ScoredVertexBefore — the
//     identical (score desc, vertex asc) total order the single-node
//     engine sorts with, so cross-shard ties break the same way.
//   - batch_pair routes each pair as above and re-emits the scores; the
//     shortest-round-trip double text a shard emitted parses back
//     bit-exact, so even the forwarded path re-serializes identically.
//   - update is broadcast to every primary in shard order; each shard
//     appends the batch to its own WAL before answering, so an acked
//     update is durable on all shards. Divergent per-shard results
//     (sequence, fingerprint) fail the request loudly.
//
// The router is a route table on the same HttpFrontend the server runs
// on (server/http_frontend.h), so there is one HTTP server in the
// codebase: one event loop owns every client connection and every shard
// connection. A routed request parks its connection and starts shard
// exchanges that the loop drives without blocking; each reply resumes the
// request from a callback on the loop, and the last step answers. A
// scatter writes the request to every shard's primary on a keep-alive
// connection the loop owns, so the shards compute concurrently, and its
// legs wait concurrently too: a dead shard fails at connect or EOF at
// once, a hung one (alive, not answering) costs one timeout_ms, and k hung
// shards in one scatter still cost one. Pair and top-k merges finish on
// the loop; a single-source row and a batch_pair body, which are O(n) to
// serialize, are serialized on the frontend's worker pool. The router's
// threads are the loop, the worker pool, the fleet scraper and the
// diagnostics threads; none is started per connection or per request.
//
// Consistency across the scatter is pinned by overlay sequence: the row
// fetch reports the owner's sequence, every scattered request carries it,
// and a shard whose sequence has moved answers 409 — the router re-fetches
// and retries, then degrades to 503 + Retry-After. A plan-epoch mismatch
// in any shard response is a deployment error, and a graph fingerprint
// that differs from the row owner's means the shards have diverged; both
// fail loudly with 500.
//
// Reads fail over: when a shard's primary is unreachable (connect error or
// timeout), the router retries the same read against the shard's replica,
// counting the failover in /v1/stats and /metrics. Writes never fail over
// (replicas reject them with 403; they catch up by tailing the primary's
// WAL stream).
#ifndef OIPSIM_SIMRANK_CLUSTER_ROUTER_H_
#define OIPSIM_SIMRANK_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "simrank/cluster/shard_plan.h"
#include "simrank/common/macros.h"
#include "simrank/common/status.h"
#include "simrank/extra/topk.h"
#include "simrank/obs/diagnostics.h"
#include "simrank/obs/metric_set.h"
#include "simrank/obs/trace.h"
#include "simrank/server/http.h"
#include "simrank/server/http_client.h"
#include "simrank/server/http_frontend.h"
#include "simrank/server/server.h"

namespace simrank {

/// Where one shard of the plan is served: a primary and an optional
/// replica (0 = none), both on loopback.
struct RouterShard {
  uint32_t shard_id = 0;
  uint16_t primary_port = 0;
  uint16_t replica_port = 0;
};

struct RouterOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port (see SimRankRouter::port()).
  uint16_t port = 0;
  /// The plan this router serves; every response's X-Plan-Epoch is checked
  /// against plan.epoch.
  ShardPlan plan;
  /// One entry per plan shard, in shard-id order.
  std::vector<RouterShard> shards;
  /// A shard exchange that makes no progress for this long fails (and
  /// fails over to the replica); bounds the damage of a hung shard to one
  /// timeout per attempt, however many shards one scatter waits on.
  uint32_t timeout_ms = 2000;
  /// Extra attempts after an overlay-sequence conflict (409) before the
  /// router degrades to 503.
  uint32_t retries = 1;
  /// Retry-After value on 503 responses.
  uint32_t retry_after_seconds = 1;
  /// Upper bound on pairs in one /v1/batch_pair body; positive.
  uint32_t max_batch_pairs = 4096;
  HttpLimits http;

  /// Fleet scraping: every interval the router GETs each shard's (and
  /// replica's) /metrics with its own short timeout, feeding
  /// /v1/cluster/health and the fleet-aggregated section of the router's
  /// /metrics. 0 disables the scrape thread.
  uint32_t scrape_interval_ms = 1000;
  uint32_t scrape_timeout_ms = 500;

  /// History of the router's own (aggregated) metrics, served at
  /// /v1/debug/timeseries, and the event log, as on the server: an
  /// "access" record per answered request, and "profile" records with
  /// continuous profiling. Frontend settings RouterOptions has no field
  /// for (the connection and in-flight caps, the worker count, the
  /// watchdog) take ServerOptions' defaults.
  DiagnosticsOptions diagnostics;

  Status Validate() const;
};

/// Router-side counters, readable concurrently with serving.
struct RouterStats {
  uint64_t requests_total = 0;
  uint64_t requests_pair = 0;
  uint64_t requests_single_source = 0;
  uint64_t requests_topk = 0;
  uint64_t requests_batch_pair = 0;
  uint64_t requests_update = 0;
  uint64_t requests_stats = 0;
  uint64_t requests_healthz = 0;
  uint64_t requests_metrics = 0;
  uint64_t responses_2xx = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  /// Reads answered by a replica after the primary failed.
  uint64_t failovers = 0;
  /// Fan-out rounds re-run after a 409 overlay-sequence conflict.
  uint64_t conflicts_retried = 0;
  /// Transport errors talking to shards (before any failover).
  uint64_t shard_errors = 0;
  /// Requests served with a live trace recorder (?trace=1 or an
  /// X-Simrank-Trace header).
  uint64_t traced_requests = 0;
  uint64_t requests_cluster_health = 0;
  uint64_t requests_debug_profile = 0;
  uint64_t requests_debug_timeseries = 0;
  /// Fleet scrape rounds completed / individual target scrapes that
  /// failed (connect error, timeout, non-200).
  uint64_t scrape_rounds = 0;
  uint64_t scrape_failures = 0;
};

/// Merges per-shard top-k candidate lists into the global top-k under
/// ScoredVertexBefore — the exact comparator (score desc, vertex asc)
/// TopKFromRow sorts with, so the merged ranking equals the single-node
/// ranking whenever each part contains its range's top-min(k, range) and
/// the parts' vertex sets are disjoint.
std::vector<ScoredVertex> MergeTopK(
    const std::vector<std::vector<ScoredVertex>>& parts, uint32_t k);

/// The router process: a route table on one HttpFrontend. Bind() then
/// Start(), which runs the event loop on a thread of its own; Shutdown()
/// drains the loop (parked requests finish their exchanges and answer)
/// and joins it.
class SimRankRouter {
 public:
  explicit SimRankRouter(RouterOptions options);
  ~SimRankRouter();

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(SimRankRouter);

  /// Validates options and binds + listens on bind_address:port.
  Status Bind();

  /// Starts the event loop and the fleet scraper. Requires a successful
  /// Bind().
  Status Start();

  /// Drains and joins the event loop, stops the scraper. Idempotent.
  void Shutdown();

  /// The bound port (resolves port 0 after Bind()).
  uint16_t port() const { return frontend_.port(); }

  const RouterOptions& options() const { return options_; }

  RouterStats stats() const;

 private:
  using Connection = HttpFrontend::Connection;
  using Response = HttpFrontend::Response;

  /// One shard reply with its parsed version headers. A traced exchange
  /// has already attached the shard's sub-trace to the recorder.
  struct ShardReply {
    int status = 0;
    std::string body;
    uint64_t sequence = 0;
    uint64_t fingerprint = 0;
    uint64_t epoch = 0;
    bool have_versions = false;
  };

  /// One routed request across the loop steps (and the worker step) that
  /// run it; each step binds its recorder.
  struct Call {
    HttpFrontend::ConnectionRef conn;
    TraceRequest trace;
    /// Null when untraced.
    std::unique_ptr<TraceRecorder> recorder;
    /// The root `request` span, open until the answer.
    int root_span = -1;
  };
  using CallPtr = std::shared_ptr<Call>;
  using ReplyDone = std::function<void(Result<ShardReply>)>;
  using LegsDone = std::function<void(std::vector<Result<ShardReply>>)>;
  /// Run on success only: a step that fails answers the call itself.
  using RowDone = std::function<void(std::vector<ShardReply> replies)>;
  using ScoreDone = std::function<void(double score)>;

  std::vector<HttpFrontend::Route> Routes();

  /// Parses `request` as public endpoint `endpoint` (ParsePublicQuery),
  /// activates its trace and range-checks its vertex ids against the plan
  /// in the engine's order, so a malformed or out-of-range query is
  /// answered exactly as a single node answers it. Returns null, having
  /// answered, on failure.
  CallPtr StartCall(Connection* conn, const HttpRequest& request,
                    ServerEndpoint endpoint, PublicQuery* query);
  /// Closes the call's trace into `response`: the root span, then
  /// HttpFrontend::FinishTrace. On the loop or a worker.
  void CloseTrace(Call& call, Response* response);
  /// Answers a call that never parked (loop thread).
  void AnswerNow(Connection* conn, Call& call, Response response);
  /// Answers a parked call (loop thread).
  void Finish(const CallPtr& call, Response response);

  /// X-Simrank-Trace with the call's trace id when it is traced, so the
  /// shard returns its sub-trace.
  static HttpHeaders TraceHeaders(const Call& call);
  /// Parses a shard reply's version headers and attaches its sub-trace.
  static ShardReply ToShardReply(Call& call, HttpClientResponse response);

  /// `request` (full HTTP bytes) to shard `shard_id`'s primary and, when
  /// that fails in transport and the shard has a replica, to the replica,
  /// counted as a failover. Every transport error counts in shard_errors.
  void ReadFromShard(const CallPtr& call, uint32_t shard_id,
                     std::string request, ReplyDone done,
                     bool replica = false);

  /// Sends `request` to shards [first_shard, end_shard) at once, each leg
  /// failing over like ReadFromShard, and calls `done` with every leg's
  /// reply in shard order once all legs have one. Records one
  /// shard_exchange span per leg, from send to reply.
  void Scatter(const CallPtr& call, uint32_t first_shard, uint32_t end_shard,
               const std::string& request, LegsDone done);

  /// Fetches v's walk row from its owner, then scatters
  /// `target_prefix&seq=<the row's overlay sequence>` with the row as body
  /// to shards [first_shard, end_shard). Answers 503 for an unreachable
  /// shard, passes any non-200 answer other than 409 through, and answers
  /// 500 for a plan epoch other than the router's or a graph fingerprint
  /// other than the row owner's. A 409 re-fetches the row and retries, up
  /// to `retries` times, then 503. On success `done` gets the 200 replies
  /// in shard order; a failure answers the call.
  void ExchangeRow(const CallPtr& call, VertexId v, std::string target_prefix,
                   uint32_t first_shard, uint32_t end_shard, uint32_t attempt,
                   RowDone done);

  /// Scores one pair, cross-shard if needed; a failure answers the call.
  void ScorePair(const CallPtr& call, VertexId a, VertexId b, ScoreDone done);

  void HandlePair(Connection* conn, const HttpRequest& request);
  void HandleSingleSource(Connection* conn, const HttpRequest& request);
  void HandleTopK(Connection* conn, const HttpRequest& request);
  void HandleBatchPair(Connection* conn, const HttpRequest& request);
  void HandleUpdate(Connection* conn, const HttpRequest& request);
  /// /v1/update's broadcast: shard `shard_id` onward, in shard order.
  struct UpdateState;
  void Broadcast(const CallPtr& call, std::shared_ptr<UpdateState> state,
                 uint32_t shard_id);
  /// /v1/batch_pair's pairs, one after another.
  struct BatchState;
  void ScoreNext(const CallPtr& call, std::shared_ptr<BatchState> state);

  /// The router's own statistics, for /v1/stats and /metrics.
  MetricSet CollectStats() const;
  /// CollectStats' families followed by every scraped target's: the
  /// router's /metrics and its metrics history.
  std::vector<PromFamily> MetricFamilies() const;
  std::string BuildClusterHealth() const;

  /// The latest scrape of one fleet target (a shard primary or replica).
  struct TargetState {
    uint32_t shard_id = 0;
    bool replica = false;
    uint16_t port = 0;
    /// False until the first successful scrape, and again from the first
    /// failed one — a killed shard shows unhealthy within one interval —
    /// or while a replica reports its WAL replication halted.
    bool healthy = false;
    uint64_t last_attempt_unix_s = 0;
    uint64_t last_success_unix_s = 0;
    uint64_t consecutive_failures = 0;
    std::string error;  // last failure or the halt, "" while healthy
    /// Gauges lifted from the scraped exposition for the health summary.
    double overlay_sequence = 0;
    double wal_records = 0;
    double loop_lag_seconds = 0;
    double uptime_seconds = 0;
    double resident_bytes = 0;
    /// The scraped families with shard/role labels injected, re-exported
    /// in the fleet section of the router's /metrics; null after a failed
    /// scrape. Shared, so a snapshot copies a pointer.
    std::shared_ptr<const std::vector<PromFamily>> families;
  };

  void ScrapeLoop();
  void ScrapeOnce();
  /// Copies the current per-target states (scrape-thread writes them
  /// under targets_mutex_).
  std::vector<TargetState> SnapshotTargets() const;

  Response Unavailable(const std::string& message) const;

  RouterOptions options_;
  /// The frontend's settings: the router's address, port, HTTP limits,
  /// diagnostics and Retry-After, ServerOptions' defaults otherwise.
  ServerOptions frontend_options_;

  std::atomic<uint64_t> stat_requests_pair_{0};
  std::atomic<uint64_t> stat_requests_single_source_{0};
  std::atomic<uint64_t> stat_requests_topk_{0};
  std::atomic<uint64_t> stat_requests_batch_pair_{0};
  std::atomic<uint64_t> stat_requests_update_{0};
  std::atomic<uint64_t> stat_failovers_{0};
  std::atomic<uint64_t> stat_conflicts_retried_{0};
  std::atomic<uint64_t> stat_shard_errors_{0};
  std::atomic<uint64_t> stat_requests_cluster_health_{0};
  std::atomic<uint64_t> stat_scrape_rounds_{0};
  std::atomic<uint64_t> stat_scrape_failures_{0};

  mutable std::mutex targets_mutex_;
  std::vector<TargetState> targets_;
  std::atomic<bool> scrape_stop_{true};
  std::thread scrape_thread_;

  /// After everything its callbacks and jobs touch: its destructor joins
  /// the workers first.
  HttpFrontend frontend_;
  std::thread loop_thread_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_CLUSTER_ROUTER_H_
