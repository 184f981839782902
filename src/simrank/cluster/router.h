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
// A scatter runs on the connection thread that serves the request: it
// writes the request to every shard's primary on a pooled keep-alive
// connection before reading any reply, so the shards compute
// concurrently, then reads the replies in shard order. No thread is
// started per request. A dead shard fails at connect or EOF at once; a
// hung one (alive, not answering) costs one timeout_ms, and k hung shards
// in one scatter cost up to k, one after another.
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
#include <list>
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
#include "simrank/obs/metrics_history.h"
#include "simrank/obs/profiler.h"
#include "simrank/obs/trace.h"
#include "simrank/server/http.h"
#include "simrank/server/http_client.h"
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
  /// Per-operation socket timeout on shard connections; bounds the damage
  /// of a dead shard to one timeout per attempt.
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
  /// /v1/debug/timeseries, and continuous profiling into the event log,
  /// as on the server. The router's log holds only profile records.
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

/// The router process: a blocking thread-per-connection HTTP frontend over
/// keep-alive client pools to the shards. Each connection thread runs its
/// requests' shard exchanges itself; the only other threads are the
/// accept loop and the fleet scraper. Bind() then Start(); Shutdown()
/// stops accepting, joins every connection thread and closes the pools.
class SimRankRouter {
 public:
  explicit SimRankRouter(RouterOptions options);
  ~SimRankRouter();

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(SimRankRouter);

  /// Validates options and binds + listens on bind_address:port.
  Status Bind();

  /// Spawns the accept loop. Requires a successful Bind().
  Status Start();

  /// Stops accepting, wakes and joins all threads. Idempotent.
  void Shutdown();

  /// The bound port (resolves port 0 after Bind()).
  uint16_t port() const { return port_; }

  const RouterOptions& options() const { return options_; }

  RouterStats stats() const;

 private:
  /// One routed response: status, body, plus any extra headers
  /// (Retry-After on 503). Bodies are JSON unless content_type says
  /// otherwise (/metrics, /v1/debug/profile).
  struct RouterResponse {
    int status = 500;
    std::string body;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string content_type = "application/json";
    /// Set once the request's parameters parsed: like the server, which
    /// traces only the queries it dispatches, the router attaches a
    /// requested trace only to those.
    bool traced = false;
  };

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

  /// A keep-alive connection pool to one shard process.
  class ClientPool;
  /// The pools of one plan shard; `replica` is null without a replica.
  struct ShardPools {
    std::unique_ptr<ClientPool> primary;
    std::unique_ptr<ClientPool> replica;
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  RouterResponse Route(const HttpRequest& request);
  void CountResponse(int status);

  /// One request to `pool`'s port on a pooled connection. Transport
  /// errors return a non-ok status (the connection is dropped, not
  /// pooled). When the calling thread is traced, the request carries
  /// X-Simrank-Trace and the shard's X-Simrank-Trace-Json reply is
  /// attached to the recorder.
  Result<ShardReply> SendToPort(ClientPool& pool, bool post,
                                const std::string& target,
                                std::string_view body);

  /// Finishes an exchange on `client`, taken from `pool`, whose reply read
  /// gave `response`: a reply releases the connection to the pool and is
  /// parsed (and traced, see SendToPort); a transport error drops the
  /// connection and counts in shard_errors.
  Result<ShardReply> Complete(ClientPool& pool,
                              Result<LoopbackHttpClient>& client,
                              Result<HttpClientResponse> response);

  /// `reply` from shard `shard_id`'s primary, or — when it failed in
  /// transport and the shard has a replica — the same request answered
  /// by the replica, counted as a failover.
  Result<ShardReply> FailOver(uint32_t shard_id, Result<ShardReply> reply,
                              bool post, const std::string& target,
                              std::string_view body);

  /// A read against shard `shard_id`: primary first, replica on transport
  /// failure (counted as a failover).
  Result<ShardReply> ReadFromShard(uint32_t shard_id, bool post,
                                   const std::string& target,
                                   std::string_view body);

  /// POSTs `body` to `target` on shards [first_shard, end_shard): writes
  /// every primary's request before reading any reply, then reads the
  /// replies in shard order, failing a leg over like ReadFromShard. Every
  /// leg is read before returning. Records one shard_exchange span per
  /// leg, from send to reply.
  std::vector<Result<ShardReply>> Scatter(uint32_t first_shard,
                                          uint32_t end_shard,
                                          const std::string& target,
                                          std::string_view body);

  /// Fetches v's walk row from its owner, then scatters
  /// `target_prefix&seq=<the row's overlay sequence>` with the row as body
  /// to shards [first_shard, end_shard). Answers 503 for an unreachable
  /// shard, passes any non-200 answer other than 409 through, and answers
  /// 500 for a plan epoch other than the router's or a graph fingerprint
  /// other than the row owner's. A 409 re-fetches the row and retries, up
  /// to `retries` times, then 503. On success `*replies` holds the 200
  /// replies in shard order.
  bool ExchangeRow(VertexId v, const std::string& target_prefix,
                   uint32_t first_shard, uint32_t end_shard,
                   std::vector<ShardReply>* replies, RouterResponse* error);

  /// Parses `request` as public endpoint `endpoint` (ParsePublicQuery)
  /// and range-checks its vertex ids against the plan in the engine's
  /// order, so a malformed or out-of-range query is answered exactly as a
  /// single node answers it. On failure fills `response`, returns false.
  bool ParseQuery(const HttpRequest& request, ServerEndpoint endpoint,
                  PublicQuery* query, RouterResponse* response) const;
  RouterResponse HandlePair(const HttpRequest& request);
  RouterResponse HandleSingleSource(const HttpRequest& request);
  RouterResponse HandleTopK(const HttpRequest& request);
  RouterResponse HandleBatchPair(const HttpRequest& request);
  RouterResponse HandleUpdate(const HttpRequest& request);
  /// The router's own statistics, for /v1/stats and /metrics.
  MetricSet CollectStats() const;
  /// CollectStats' families followed by every scraped target's: the
  /// router's /metrics and its metrics history.
  std::vector<PromFamily> MetricFamilies() const;
  RouterResponse BuildClusterHealth();

  /// The latest scrape of one fleet target (a shard primary or replica).
  struct TargetState {
    uint32_t shard_id = 0;
    bool replica = false;
    uint16_t port = 0;
    /// False until the first successful scrape, and again from the first
    /// failed one — a killed shard shows unhealthy within one interval.
    bool healthy = false;
    uint64_t last_attempt_unix_s = 0;
    uint64_t last_success_unix_s = 0;
    uint64_t consecutive_failures = 0;
    std::string error;  // last failure, "" while healthy
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
  void StartDiagnostics();
  void StopDiagnostics();

  /// Scores one pair, cross-shard if needed. Returns the score through
  /// `*score`; a non-200 RouterResponse otherwise.
  bool ScorePair(VertexId a, VertexId b, double* score,
                 RouterResponse* error);

  RouterResponse Unavailable(const std::string& message);

  RouterOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  /// A connection handler and the flag it sets as its last act, so the
  /// accept loop joins finished handlers instead of keeping every one.
  struct ConnectionThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex threads_mutex_;
  /// A list: handlers hold a reference to their own (address-stable) node.
  std::list<ConnectionThread> connection_threads_;
  /// Indexed by shard id; built in Bind() and read-only afterwards.
  std::vector<ShardPools> pools_;

  std::atomic<uint64_t> stat_requests_total_{0};
  std::atomic<uint64_t> stat_requests_pair_{0};
  std::atomic<uint64_t> stat_requests_single_source_{0};
  std::atomic<uint64_t> stat_requests_topk_{0};
  std::atomic<uint64_t> stat_requests_batch_pair_{0};
  std::atomic<uint64_t> stat_requests_update_{0};
  std::atomic<uint64_t> stat_requests_stats_{0};
  std::atomic<uint64_t> stat_requests_healthz_{0};
  std::atomic<uint64_t> stat_requests_metrics_{0};
  std::atomic<uint64_t> stat_responses_2xx_{0};
  std::atomic<uint64_t> stat_responses_4xx_{0};
  std::atomic<uint64_t> stat_responses_5xx_{0};
  std::atomic<uint64_t> stat_failovers_{0};
  std::atomic<uint64_t> stat_conflicts_retried_{0};
  std::atomic<uint64_t> stat_shard_errors_{0};
  std::atomic<uint64_t> stat_traced_requests_{0};
  std::atomic<uint64_t> stat_requests_cluster_health_{0};
  std::atomic<uint64_t> stat_requests_debug_profile_{0};
  std::atomic<uint64_t> stat_requests_debug_timeseries_{0};
  std::atomic<uint64_t> stat_scrape_rounds_{0};
  std::atomic<uint64_t> stat_scrape_failures_{0};

  mutable std::mutex targets_mutex_;
  std::vector<TargetState> targets_;
  std::atomic<bool> scrape_stop_{true};
  std::thread scrape_thread_;
  Diagnostics diagnostics_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_CLUSTER_ROUTER_H_
