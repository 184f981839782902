// Scatter-gather query router for a sharded SimRank cluster.
//
// The router owns the shard plan and is the only process clients talk to.
// It speaks the same public /v1/* dialect as a single-node simrank_server
// and answers bitwise-identically to one — the composition is exact, not
// approximate:
//
//   - single_source(v) and topk(v, k) fetch v's walk row once and scatter
//     it to every shard (/internal/row); each answers the nonzeros of v's
//     score row in its own range (EncodeRowSlice). The ranges partition
//     [0, n) in shard order, so the slices appended in shard order are the
//     single node's SparseRow, bit for bit, and the router answers from it
//     with the server's own code (SingleSourceBody, TopKFromSparseRow), so
//     cross-shard ties break the same way.
//   - The router caches that row (RowCache, QueryEngine's default 1,024
//     rows), stamped with the version its shards answered at (ShardVersion:
//     plan epoch, graph fingerprint, overlay sequence). A later
//     single_source or topk of v, or a pair with v as either endpoint
//     (SparseRow::Score), answers from it after one exchange: the walk-row
//     fetch carries the stamp, and v's owner answers 304 Not Modified on
//     its event loop while it still serves that version. Otherwise it
//     answers its 200 walk row, which goes on down the miss path, so a
//     stale row costs no extra exchange.
//   - pair(a, b) with neither row cached and both endpoints on one shard
//     is forwarded verbatim; a cross-shard pair fetches a's walk row from
//     its owner (/internal/walks) and has b's owner score it
//     (/internal/pair), the double crossing the wire in native binary.
//   - batch_pair routes each pair as above and re-emits the scores; the
//     shortest-round-trip double text a shard emitted parses back
//     bit-exact, so even the forwarded path re-serializes identically.
//   - update is broadcast to every primary in shard order; each shard
//     appends the batch to its own WAL before answering, so an acked
//     update is durable on all shards. Divergent per-shard results
//     (sequence, fingerprint) fail the request loudly.
//
// A cache hit is exact against every batch a router acknowledged: the ack
// waits for every shard, the row's owner included, and every batch moves
// the owner's overlay sequence, so an unchanged owner version means no
// acknowledged batch is missing from the row. A write that bypasses the
// routers onto a non-owner shard is divergence a hit cannot see; a miss
// still answers it 500.
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
// shards in one scatter still cost one. Pair and top-k answers finish on
// the loop; a single-source row and a batch_pair body, which are O(n) to
// serialize, are serialized on the frontend's worker pool. The router's
// threads are the loop, the worker pool, the fleet scraper and the
// diagnostics threads; none is started per connection or per request.
//
// The /internal/* frames are native-endian and unversioned: a router and
// its shards run the same build.
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
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "simrank/cluster/shard_plan.h"
#include "simrank/common/macros.h"
#include "simrank/common/status.h"
#include "simrank/index/row_cache.h"
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
  /// for (the in-flight caps, the worker count, the watchdog) take
  /// ServerOptions' defaults.
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
  /// The row cache. Each routed read makes one counted lookup: a hit is
  /// answered from a cached row whose owner confirmed its version, a miss
  /// found none.
  RowCache<ShardVersion>::Stats cache;
  /// The misses whose row was resident but whose owner answered the
  /// revalidation with a 200: it had moved on.
  uint64_t cache_stale = 0;
};

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

  using Row = RowCache<ShardVersion>::Row;
  using CachedRow = RowCache<ShardVersion>::Entry;

  /// One shard reply with its parsed version headers (none when any is
  /// missing or malformed). A traced exchange has already attached the
  /// shard's sub-trace to the recorder.
  struct ShardReply {
    int status = 0;
    std::string body;
    std::optional<ShardVersion> version;
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
  // Run on success only: a step that fails answers the call itself.
  using WalksDone = std::function<void(ShardReply walks)>;
  /// The scattered legs' replies, in shard order, and the version they
  /// answered at.
  using RowDone =
      std::function<void(ShardVersion version, std::vector<ShardReply>)>;
  using RowReady = std::function<void(Row row)>;
  using ScoreDone = std::function<void(double score)>;

  enum class Verdict { kUse, kRetry, kFail };

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

  /// The one check of a walk-row reply (`row` null) and of every
  /// scattered leg: 503 for an unreachable shard, a retry for a leg's 409,
  /// any other status but 200 passed through, and 500 for a plan epoch
  /// other than the router's or a leg's graph fingerprint other than
  /// `row`'s, which shard `row_owner` answered.
  Verdict CheckReply(uint32_t shard, Result<ShardReply>& reply,
                     const ShardReply* row, uint32_t row_owner,
                     Response* error) const;

  /// Fetches v's walk row from its owner (/internal/walks), conditional on
  /// `stamp` when given, and records a row_fetch span. `done` gets the
  /// owner's 200, or its 304 when the owner still serves `stamp`; any
  /// other answer fails CheckReply, which answers the call.
  void FetchWalks(const CallPtr& call, VertexId v,
                  std::optional<ShardVersion> stamp, WalksDone done);

  /// Scatters `target_prefix&seq=<the row's overlay sequence>` with `row`,
  /// v's 200 walk reply, as the body to shards [first_shard, end_shard),
  /// checking every leg (CheckReply). A 409 re-fetches the row and
  /// retries, up to `retries` times, then 503. On success `done` gets the
  /// legs' replies; a failure answers the call.
  void ScatterRow(const CallPtr& call, VertexId v, ShardReply row,
                  std::string target_prefix, uint32_t first_shard,
                  uint32_t end_shard, uint32_t attempt, RowDone done);

  /// The one counted cache lookup of a read answered from v's row, once
  /// v's owner has answered `walks` to a fetch conditional on `cached`
  /// (or unconditional, `cached` empty): the cached row when its stamp is
  /// the owner's version, else null. After a 304 it is the `cached` row,
  /// served even if it was evicted meanwhile: the owner vouched for it.
  Row LookUp(Call& call, VertexId v, const ShardReply& walks,
             const std::optional<CachedRow>& cached);

  /// v's score row: the cached one after one revalidating exchange, else
  /// assembled from every shard's /internal/row slice and cached. A
  /// failure answers the call.
  void ReadRow(const CallPtr& call, VertexId v, RowReady done);

  /// Scores one pair: from a cached row of either endpoint after one
  /// revalidating exchange, else cross-shard if needed. A failure answers
  /// the call.
  void ScorePair(const CallPtr& call, VertexId a, VertexId b, ScoreDone done);

  void HandlePair(Connection* conn, const HttpRequest& request);
  /// /v1/single_source and /v1/topk, answered from v's row (ReadRow).
  void HandleRow(Connection* conn, const HttpRequest& request,
                 ServerEndpoint endpoint);
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
  /// The frontend's settings: the router's address, port, diagnostics
  /// and Retry-After, ServerOptions' defaults otherwise.
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
  std::atomic<uint64_t> stat_cache_stale_{0};

  /// The rows ReadRow assembled, each stamped with the version its shards
  /// answered at. Touched on the loop only (the stats read it anywhere).
  RowCache<ShardVersion> row_cache_;

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
