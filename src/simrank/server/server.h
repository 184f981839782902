// The single-node SimRank server: a route table over one HttpFrontend
// (server/http_frontend.h) answering queries from a QueryEngine.
//
// Query work that computes never runs on the event loop: a validated
// request is submitted to the frontend's worker pool under admission
// control, and the connection keeps reading-writing other traffic until
// the worker's response is handed back. Cheap introspection endpoints
// (/healthz, /v1/stats) and pairs answered by a cached row are answered
// on the loop, so they respond even when every worker is busy — that is
// what makes the stats endpoint usable as an overload probe.
//
// Admission control protects cold rows: a request beyond the global
// in-flight cap is rejected with 429, one beyond its endpoint's in-flight
// limit with 503, both carrying Retry-After — the request queue is
// bounded by construction and the server never buffers work it cannot
// serve. Rejections are serialized on the loop thread, so they stay fast
// and allocation-light under fanout.
//
// Endpoints (JSON unless noted):
//   GET  /v1/pair?a=&b=        s(a, b)
//   GET  /v1/single_source?v=  the full row s(v, .)
//   GET  /v1/topk?v=&k=        k most similar vertices (default k=10)
//   POST /v1/batch_pair        body: "A B" per line -> {"scores":[...]}
//   POST /v1/update            body: "+ SRC DST"/"- SRC DST" per line;
//                              patches the live index (requires an
//                              IndexUpdater, 503 otherwise)
//   POST /v1/compact           merges base+overlay into the configured
//                              index file and resets the WAL
//   GET  /v1/stats             request/admission/cache/index/update
//                              counters + per-endpoint latency histograms
//   GET  /metrics              the statistics of /v1/stats that have a
//                              Prometheus family (see CollectStats), as
//                              text exposition (text/plain)
//   GET  /healthz              liveness probe (text/plain)
//   GET  /v1/debug/slow        captured slow/sampled query traces (ring)
//   GET  /v1/debug/profile     sampling CPU profile: arms SIGPROF timers
//                              for ?seconds=N (default 2), returns
//                              flamegraph collapsed-stack text; 409 when
//                              a session is already running
//   GET  /v1/debug/timeseries  metrics history ring as JSON
//                              (?metric=NAME&window=SECONDS; no args
//                              lists the available families)
//   GET  /v1/wal?from=&fingerprint=
//                              WAL records from `from` on (text), for a
//                              replica whose graph is at `fingerprint`;
//                              409 when record from-1 did not end there
// /healthz, /v1/stats, /metrics, /v1/wal, /v1/debug/slow and
// /v1/debug/timeseries are answered inline; /v1/debug/profile parks the
// connection and answers from a dedicated capture thread (the loop keeps
// serving while the profile runs, and profiling a loaded server is the
// whole point). A /v1/pair or /v1/topk whose answer sits in a fresh
// cached row is answered inline too — one row load, no worker hand-off,
// no in-flight slot — and so is a shard's /internal/walks revalidation
// whose stamp is the version it serves (304 Not Modified, no body);
// everything else dispatches to the worker pool under admission control.
// Update/compact serialize inside the IndexUpdater while reads keep
// flowing against RCU overlay snapshots — queries are never blocked by an
// in-flight update, and a query admitted mid-update serves either the
// pre- or post-batch index, never a mixture.
//
// Lifecycle: Bind() (port 0 picks a free port, see port()), then Serve()
// blocks until Shutdown() — which is async-signal-safe, so a SIGINT/
// SIGTERM handler may call it directly. Shutdown drains: the listener
// closes first, in-flight queries finish and flush, then Serve returns.
#ifndef OIPSIM_SIMRANK_SERVER_SERVER_H_
#define OIPSIM_SIMRANK_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "simrank/cluster/shard_plan.h"
#include "simrank/common/latency_histogram.h"
#include "simrank/common/status.h"
#include "simrank/extra/topk.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/obs/diagnostics.h"
#include "simrank/obs/metric_set.h"
#include "simrank/obs/metrics_history.h"
#include "simrank/obs/slow_query_log.h"
#include "simrank/obs/trace.h"
#include "simrank/obs/watchdog.h"
#include "simrank/server/http.h"
#include "simrank/server/http_frontend.h"

namespace simrank {

namespace internal {
/// Parsed arguments of one dispatchable query, and which /internal/*
/// exchange op it carries (both defined in server.cc).
struct QueryArgs;
enum class InternalOp : uint8_t;
}  // namespace internal

/// The dispatchable endpoints (inline endpoints are not admission-
/// controlled and not enumerated here).
enum class ServerEndpoint : uint8_t {
  kPair = 0,
  kSingleSource,
  kTopK,
  kBatchPair,
  kUpdate,
  kCompact,
};
inline constexpr uint32_t kNumServerEndpoints = 6;

/// Returns the path of `endpoint` ("/v1/pair", ...).
const char* ServerEndpointPath(ServerEndpoint endpoint);

/// Short label of `endpoint` ("pair", "batch_pair", ...) — stats JSON keys
/// and Prometheus label values.
const char* ServerEndpointName(ServerEndpoint endpoint);

/// The query-string parameters of a public endpoint.
struct PublicQuery {
  VertexId a = 0;
  VertexId b = 0;
  VertexId v = 0;
  /// /v1/topk's result count.
  uint32_t k = 10;
  /// ?trace=1: the trace JSON goes into the response envelope.
  bool trace_inline = false;
};

/// Parses the parameters of public endpoint `endpoint` the one way the
/// server and the router do: only that endpoint's parameters plus
/// ?trace=0|1, none twice, vertex ids (and k) as uint32. The error's
/// message is the 400 answer's. Vertex ranges are checked later, with
/// CheckVertexInRange's answer.
Status ParsePublicQuery(const HttpRequest& request, ServerEndpoint endpoint,
                        PublicQuery* out);

/// Parses a /v1/batch_pair body: one "A B" pair per line, '#' comments and
/// blank lines ignored. Shared by the server's worker and the router
/// (which must split a batch across shards pair by pair).
Result<std::vector<std::pair<VertexId, VertexId>>> ParsePairBatch(
    std::string_view body, uint32_t max_pairs);

// The bodies of the public answers, the server's and the router's: the
// same answer is the same bytes.

std::string PairBody(VertexId a, VertexId b, double score);
/// All row.n scores, "0" for every vertex the row does not list.
std::string SingleSourceBody(VertexId v, const SparseRow& row);
std::string TopKBody(VertexId v, uint32_t k,
                     std::span<const ScoredVertex> top);
std::string BatchPairBody(std::span<const double> scores);
/// /v1/update's summary; `counts` are applied, sequence,
/// patched_vertices, changed_slots and wal_records.
std::string UpdateBody(const std::array<uint64_t, 5>& counts,
                       std::string_view graph_fingerprint);

/// The /internal/row frame a shard answers with: the entries of `row` in
/// [begin, end), ascending, as packed native-endian {u32 vertex, f64
/// score} records. The doubles cross the wire as the estimator's bits, so
/// a router that appends every shard's frame in shard order holds the
/// single node's row exactly.
std::string EncodeRowSlice(const SparseRow& row, VertexId begin,
                           VertexId end);
/// Appends one /internal/row frame for [begin, end) to `row`. The bytes
/// come from another process, so they are checked: an error names a frame
/// that is not a whole number of records, lists a vertex outside
/// [begin, end), or lists its vertices out of strictly ascending order.
Status AppendRowSlice(std::string_view frame, VertexId begin, VertexId end,
                      SparseRow* row);

/// The version a shard answers an /internal/* exchange at: its plan epoch
/// and the graph fingerprint and overlay sequence of the snapshot that
/// answered. Every /internal/* answer carries it in the X-Plan-Epoch,
/// X-Graph-Fingerprint and X-Overlay-Sequence headers. A router stamps
/// each row it caches with the version its shards answered at, and
/// revalidates the row by sending the stamp back as /internal/walks'
/// `stamp` parameter: the owner answers 304 Not Modified while it still
/// serves that version.
struct ShardVersion {
  uint64_t epoch = 0;
  uint64_t fingerprint = 0;
  uint64_t sequence = 0;

  bool operator==(const ShardVersion&) const = default;
};

/// The `stamp` parameter's form: "EPOCH-FINGERPRINT-SEQUENCE", the
/// fingerprint as 16 lowercase hex digits.
std::string FormatShardVersion(const ShardVersion& version);
/// Parses FormatShardVersion's form; false on anything else.
bool ParseShardVersion(std::string_view text, ShardVersion* out);

/// The JSON error envelope of every non-2xx answer:
/// {"error":{"code":CODE,"message":MESSAGE}}.
std::string ErrorBody(std::string_view code, std::string_view message);

/// Declares /v1/stats' "build_info" object (version, compiler, build type,
/// C++ standard, SIMD tier, io_uring support) and the simrank_build_info
/// gauge, whose labels end with `extra_labels` (e.g. `role="router"`).
void CollectBuildInfo(MetricSet& stats, std::string_view extra_labels = {});

/// Serving knobs. Defaults suit a loopback deployment; Validate() gates
/// every field.
struct ServerOptions {
  /// Listening address; queries carry no authentication, so binding
  /// non-loopback addresses is the operator's deliberate choice.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 lets the kernel pick one (read it back via port()).
  uint16_t port = 8080;
  /// Worker threads executing queries; 0 means hardware concurrency.
  uint32_t threads = 0;
  /// Global cap on dispatched-but-unfinished queries; the 429 boundary.
  uint32_t max_inflight = 64;
  /// Per-endpoint cap on dispatched-but-unfinished queries; the 503
  /// boundary (a single-source fanout cannot starve cheap pair traffic).
  uint32_t max_endpoint_inflight = 32;
  /// Retry-After value on 429/503 responses, in seconds.
  uint32_t retry_after_seconds = 1;
  /// Synthetic per-query service time, in milliseconds. Zero in
  /// production; the admission-control tests and the throughput bench use
  /// it to hold queries in flight deterministically.
  uint32_t handler_delay_ms = 0;
  /// Upper bound on pairs in one /v1/batch_pair body.
  uint32_t max_batch_pairs = 4096;
  /// Where POST /v1/compact writes the merged index (typically the served
  /// index path itself: the rename is atomic and an mmap backend keeps
  /// serving the old inode). Required for compaction over HTTP.
  std::string compact_path;
  /// Compress the segments of compacted indexes (match the base file's
  /// encoding to keep byte-identity with a fresh build using that flag).
  bool compact_compress = false;
  /// Where compaction persists the updated graph (binary format). The WAL
  /// reset makes the original --graph file stale, so a restart points
  /// --graph here; compaction refuses to run when this is unset.
  std::string compact_graph_path;

  /// Shard role. With `sharded`, the server owns exactly
  /// shard_plan.shards[shard_id]'s vertex range: /v1/pair and
  /// /v1/batch_pair answer only when every queried vertex is in range
  /// (421 Misdirected Request otherwise), /v1/single_source and /v1/topk
  /// are 421 outright on a partial shard (their answers span every
  /// shard; the router composes them), and the /internal/* exchange
  /// endpoints the router fans out to come alive. Bind() cross-checks the
  /// plan's n and graph fingerprint against the served index, so a shard
  /// started with the wrong plan (or the wrong shard file) fails loudly.
  bool sharded = false;
  ShardPlan shard_plan;
  uint32_t shard_id = 0;
  /// Replica role: this server mirrors a primary by tailing its WAL, so
  /// direct writes are refused — /v1/update and /v1/compact answer 403
  /// (the WAL tailer applies batches through the IndexUpdater directly,
  /// not over HTTP).
  bool replica = false;

  /// Tracing knobs (all default off — the near-free null-recorder path).
  /// A request is traced when any of these asks for it:
  ///   - the client sent `?trace=1` (trace JSON inlined in the envelope),
  ///   - the client sent an `X-Simrank-Trace: <hex id>` header (trace JSON
  ///     returned in the `X-Simrank-Trace-Json` response header, body
  ///     untouched — the router's propagation channel),
  ///   - it won the `trace_sample` coin flip,
  ///   - `slow_query_us` > 0 (every dispatched request is traced so the
  ///     slow ones have a trace to capture).
  /// Sampled traces and traces slower than `slow_query_us` land in the
  /// slow-query ring (GET /v1/debug/slow, slow_ring_capacity entries,
  /// at least 1) and, with an event log, as "trace" records. Every trace
  /// folds into the per-stage latency histograms and stage counters in
  /// /v1/stats and /metrics.
  double trace_sample = 0.0;
  uint64_t slow_query_us = 0;
  uint32_t slow_ring_capacity = 64;

  /// Self-diagnosis knobs (obs/). The /v1/debug/profile endpoint is
  /// always live; these tune the background pieces. With an event log,
  /// every answered request also appends an "access" record (method,
  /// path, status, bytes, micros, trace id), written off the event loop.
  DiagnosticsOptions diagnostics;
  /// Watchdog monitor cadence and the epoll-loop heartbeat lag that
  /// counts as a stall (warned once per episode, with the loop thread's
  /// stack). watchdog_interval_ms = 0 disables the monitor thread.
  uint32_t watchdog_interval_ms = 100;
  uint64_t watchdog_stall_us = 1000000;
  /// Test hook: when nonzero, GET /v1/debug/stall?ms=N (N capped by this
  /// value) sleeps on the loop thread — a deterministic injected stall
  /// for the watchdog tests. Zero in production; the endpoint is then
  /// 404.
  uint32_t debug_stall_limit_ms = 0;

  Status Validate() const;
};

/// Monotonic counters since construction, readable from any thread.
struct ServerStats {
  /// Dispatchable requests routed per endpoint (admitted or rejected).
  uint64_t requests[kNumServerEndpoints] = {};
  uint64_t requests_stats = 0;
  uint64_t requests_healthz = 0;
  uint64_t requests_metrics = 0;
  /// GET /v1/wal polls served (WAL shipping to replicas).
  uint64_t requests_wal = 0;
  /// GET /v1/debug/slow polls served.
  uint64_t requests_debug_slow = 0;
  /// GET /v1/debug/profile sessions requested / GET /v1/debug/timeseries
  /// polls served.
  uint64_t requests_debug_profile = 0;
  uint64_t requests_debug_timeseries = 0;
  /// Requests that ran with a live trace recorder.
  uint64_t traced_requests = 0;
  /// Traces captured into the slow-query ring (threshold or sampled).
  uint64_t slow_captured = 0;
  /// Responses by status class; a 304 (a row revalidation) counts with
  /// the 2xx.
  uint64_t responses_2xx = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  /// Admission rejections: global cap (429) and endpoint cap (503).
  uint64_t rejected_inflight = 0;
  uint64_t rejected_endpoint = 0;
  /// 421 Misdirected Request responses (shard role: the queried vertex
  /// range is not this shard's).
  uint64_t rejected_misdirected = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  /// Dispatched queries not yet completed.
  uint64_t inflight = 0;
};

/// The single-node server. The engine (and its index) must outlive the
/// server. Linux-only (epoll/eventfd).
class SimRankServer {
 public:
  /// `updater` (optional) enables the live-update endpoints; it must
  /// outlive the server and be bound to the same index the engine serves.
  SimRankServer(QueryEngine& engine, const ServerOptions& options,
                IndexUpdater* updater = nullptr);

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(SimRankServer);

  /// Validates options, binds and listens. Must precede Serve().
  Status Bind();

  /// The bound port (the kernel's choice when options.port was 0).
  uint16_t port() const { return frontend_.port(); }

  /// Runs the event loop on the calling thread until Shutdown(). Returns
  /// OK after a clean drain.
  Status Serve() { return frontend_.Serve(); }

  /// Requests a graceful stop: stop accepting, finish in-flight queries,
  /// flush, return from Serve. Callable from any thread and from signal
  /// handlers (it only touches an atomic and an eventfd write).
  void Shutdown() { frontend_.Shutdown(); }

  /// Faults in the storage pages of `vertices` (mmap backends) and
  /// populates the row cache, so first traffic hits warm rows. Call
  /// between Bind and Serve.
  Status Warm(std::span<const VertexId> vertices);

  /// Counter snapshot; safe concurrently with Serve.
  ServerStats stats() const;

  /// Latency snapshot of one dispatchable endpoint (dispatch to
  /// completion, including queue wait; inline cached-pair answers
  /// included); safe concurrently with Serve.
  LatencyHistogram::Snapshot latency(ServerEndpoint endpoint) const {
    return latency_[static_cast<size_t>(endpoint)].snapshot();
  }

  /// Latency snapshot of one trace stage, folded from traced requests
  /// only; safe concurrently with Serve.
  LatencyHistogram::Snapshot stage_latency(TraceStage stage) const {
    return frontend_.stage_latency(stage);
  }

  /// The slow-query ring (always constructed; empty when nothing was
  /// captured).
  const SlowQueryLog& slow_log() const { return frontend_.slow_log(); }

  /// Watchdog view: epoll-loop heartbeat lag, worker queue depth, stall
  /// count; safe concurrently with Serve.
  Watchdog::Snapshot watchdog_snapshot() const {
    return frontend_.watchdog_snapshot();
  }

  /// Dispatch-to-start latency (queue wait before a worker picks a query
  /// up); safe concurrently with Serve.
  LatencyHistogram::Snapshot dispatch_latency() const {
    return frontend_.dispatch_latency();
  }

  /// The metrics history ring; null when disabled.
  const MetricsHistory* metrics_history() const {
    return frontend_.metrics_history();
  }

 private:
  using Connection = HttpFrontend::Connection;

  std::vector<HttpFrontend::Route> Routes();
  /// Refuses what this server's role cannot answer (a replica's writes
  /// 403, a partial shard's whole-row reads 421, writes without an
  /// updater 503), parses and traces the query, then answers a cached pair
  /// or top-k on the loop or submits the query to a worker under
  /// admission control.
  void DispatchQuery(Connection* conn, const HttpRequest& request,
                     ServerEndpoint endpoint, internal::InternalOp op);
  /// Answers on the loop thread what costs no computing: a public pair or
  /// top-k query a fresh cached row holds (QueryEngine::PairFromCache /
  /// TopKFromCache), and an /internal/walks revalidation whose stamp is
  /// the version this shard serves (304 Not Modified, no body). Returns
  /// false, having queued nothing, otherwise.
  bool AnswerOnLoop(Connection* conn, ServerEndpoint endpoint,
                    const internal::QueryArgs& args,
                    std::chrono::steady_clock::time_point started);
  /// The tail every answered query shares, inline or worker-run: records
  /// the endpoint latency since `started` and, given a trace, finishes it
  /// (HttpFrontend::FinishTrace). Any thread.
  void FinishQuery(ServerEndpoint endpoint, const internal::QueryArgs& args,
                   std::chrono::steady_clock::time_point started,
                   const TraceRecorder* recorder,
                   HttpFrontend::Response* response);
  /// Every statistic /v1/stats, /metrics and the metrics history show.
  /// Runs on the loop thread (/v1/stats, /metrics) and on the sampler
  /// thread, so it reads only atomics, snapshots and options.
  MetricSet CollectStats() const;
  std::string BuildSlowBody() const;

  QueryEngine& engine_;
  ServerOptions options_;
  /// Optional live-update hook; null disables /v1/update and /v1/compact.
  IndexUpdater* updater_ = nullptr;

  /// Counters (relaxed atomics: read by stats() from other threads).
  mutable std::atomic<uint64_t> stat_requests_[kNumServerEndpoints] = {};
  mutable std::atomic<uint64_t> stat_requests_wal_{0};
  mutable std::atomic<uint64_t> stat_requests_debug_slow_{0};

  /// Dispatch-to-completion latency per dispatchable endpoint (lock-free;
  /// workers record, stats/metrics snapshot).
  LatencyHistogram latency_[kNumServerEndpoints];

  /// Declared last: its destructor joins the workers, which run this
  /// server's queries, before the members above go away.
  HttpFrontend frontend_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_SERVER_SERVER_H_
