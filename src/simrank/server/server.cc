#include "simrank/server/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/simd.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"

#if defined(__linux__)
#define OIPSIM_HAVE_EPOLL 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace simrank {
namespace internal {

/// Parsed arguments of one dispatchable query; only the fields of the
/// request's endpoint are meaningful. POST bodies travel raw and are
/// parsed in the worker, so a large batch never stalls the event loop.
struct QueryArgs {
  VertexId a = 0;
  VertexId b = 0;
  VertexId v = 0;
  uint32_t k = 10;
  /// Which /internal/* exchange op this dispatch carries (kNone for the
  /// public endpoints). Internal ops share the public endpoints'
  /// admission classes: walks/partial count against single_source, topk
  /// against topk, pair against pair.
  enum class Internal : uint8_t { kNone, kWalks, kPartial, kTopK, kPair };
  Internal internal = Internal::kNone;
  /// Overlay sequence the router pinned this exchange to (internal ops
  /// except walks): the shard answers 409 when its published sequence
  /// differs, so a scatter-gather never merges mixed-version slices.
  uint64_t seq = 0;
  std::string body;
  /// Tracing decisions, made on the loop thread so the worker needs no
  /// access to the request. `trace_inline` is the only one allowed to
  /// change a response body.
  bool trace_inline = false;   // ?trace=1: trace JSON into the envelope
  bool trace_header = false;   // X-Simrank-Trace: trace in response header
  bool trace_sampled = false;  // coin flip / slow-query threshold
  uint64_t trace_id = 0;
  /// Request path, kept only for traced requests (slow-ring target).
  std::string target;

  bool traced() const { return trace_inline || trace_header || trace_sampled; }
};

}  // namespace internal

namespace {

using internal::QueryArgs;

/// Backpressure bounds: when a connection's unsent responses or unparsed
/// input exceed these, the loop stops *reading* it (TCP pushes back on the
/// peer) until the backlog drains — no connection can buffer the server
/// into the ground, which is what lets server.h promise bounded queues.
constexpr size_t kMaxPendingOutputBytes = 4u << 20;
constexpr size_t kInputBufferSlackBytes = 64u << 10;

/// HTTP status + body for a query or update that failed inside the engine
/// or updater. Parse errors are client errors here: the only parsed input
/// is the request body.
std::pair<int, std::string> EngineErrorResponse(const Status& status) {
  const int http_status =
      (status.code() == StatusCode::kOutOfRange ||
       status.code() == StatusCode::kInvalidArgument ||
       status.code() == StatusCode::kParseError)
          ? 400
          : (status.code() == StatusCode::kNotFound ? 404 : 500);
  return {http_status,
          ErrorBody(StatusCodeToString(status.code()), status.message())};
}

/// The 200 body of a pair answer. The worker and the loop's cached-pair
/// path both serialize through here, so they send the same bytes.
std::string PairBody(VertexId a, VertexId b, double score) {
  TraceScope serialize(TraceStage::kSerialize);
  JsonWriter json;
  json.BeginObject()
      .Key("a")
      .Uint(a)
      .Key("b")
      .Uint(b)
      .Key("score")
      .Double(score)
      .EndObject();
  return json.str();
}

std::pair<int, std::string> ExecutePair(QueryEngine& engine,
                                        const QueryArgs& args) {
  auto score = engine.Pair(args.a, args.b);
  if (!score.ok()) return EngineErrorResponse(score.status());
  return {200, PairBody(args.a, args.b, *score)};
}

std::pair<int, std::string> ExecuteSingleSource(QueryEngine& engine,
                                                const QueryArgs& args) {
  auto row = engine.SingleSource(args.v);
  if (!row.ok()) return EngineErrorResponse(row.status());
  TraceScope serialize(TraceStage::kSerialize);
  JsonWriter json;
  json.BeginObject().Key("v").Uint(args.v).Key("scores").BeginArray();
  for (const double score : **row) json.Double(score);
  json.EndArray().EndObject();
  return {200, json.str()};
}

std::pair<int, std::string> ExecuteTopK(QueryEngine& engine,
                                        const QueryArgs& args) {
  auto top = engine.TopK(args.v, args.k);
  if (!top.ok()) return EngineErrorResponse(top.status());
  TraceScope serialize(TraceStage::kSerialize);
  JsonWriter json;
  json.BeginObject()
      .Key("v")
      .Uint(args.v)
      .Key("k")
      .Uint(args.k)
      .Key("results")
      .BeginArray();
  for (const auto& scored : *top) {
    json.BeginObject()
        .Key("vertex")
        .Uint(scored.vertex)
        .Key("score")
        .Double(scored.score)
        .EndObject();
  }
  json.EndArray().EndObject();
  return {200, json.str()};
}

/// Rejects parameters the endpoint does not define (and duplicates), so a
/// typo like `/v1/pair?a=1&c=2` fails loudly instead of querying b=0.
bool CheckAllowedParams(const HttpRequest& request,
                        std::initializer_list<const char*> allowed,
                        std::string* error) {
  std::vector<std::string_view> seen;
  for (const auto& [key, value] : request.params) {
    bool known = false;
    for (const char* name : allowed) known = known || key == name;
    if (!known) {
      *error = StrFormat("unknown parameter '%s'", key.c_str());
      return false;
    }
    for (const std::string_view earlier : seen) {
      if (earlier == key) {
        *error = StrFormat("duplicate parameter '%s'", key.c_str());
        return false;
      }
    }
    seen.push_back(key);
  }
  return true;
}

}  // namespace

Result<std::vector<std::pair<VertexId, VertexId>>> ParsePairBatch(
    std::string_view body, uint32_t max_pairs) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  int line_no = 0;
  for (std::string_view line : StrSplit(body, '\n')) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = StrTrim(line);
    if (line.empty()) continue;
    const size_t space = line.find_first_of(" \t");
    uint64_t a = 0;
    uint64_t b = 0;
    if (space == std::string_view::npos ||
        !ParseUint64(StrTrim(line.substr(0, space)), &a) ||
        !ParseUint64(StrTrim(line.substr(space + 1)), &b) ||
        a > UINT32_MAX || b > UINT32_MAX) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected two vertex ids per line", line_no));
    }
    if (pairs.size() >= max_pairs) {
      return Status::InvalidArgument(StrFormat(
          "batch exceeds the %u-pair limit; split it", max_pairs));
    }
    pairs.emplace_back(static_cast<VertexId>(a), static_cast<VertexId>(b));
  }
  if (pairs.empty()) {
    return Status::InvalidArgument("empty pair batch");
  }
  return pairs;
}

std::string ErrorBody(std::string_view code, std::string_view message) {
  JsonWriter json;
  json.BeginObject()
      .Key("error")
      .BeginObject()
      .Key("code")
      .String(code)
      .Key("message")
      .String(message)
      .EndObject()
      .EndObject();
  return json.str();
}

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

void CollectBuildInfo(MetricSet& stats, std::string_view extra_labels) {
  // What exactly is running: resolved at build (version, compiler) and at
  // startup (SIMD tier), so a fleet dashboard can spot a stale or
  // differently-capable node at a glance. No read path uses io_uring; its
  // names stay, reporting false.
  const BuildInfo& build = GetBuildInfo();
  const char* simd = SimdLevelName(ActiveSimdLevel());
  stats.Info("build_info.version", build.git_describe)
      .Info("build_info.compiler", build.compiler)
      .Info("build_info.build_type", build.build_type)
      .Info("build_info.cxx_standard", build.cxx_standard)
      .Info("build_info.simd", simd)
      .Info("build_info.io_uring_compiled", false)
      .Info("build_info.io_uring_enabled", false);
  std::string labels = StrFormat(
      "version=\"%s\",compiler=\"%s\",build_type=\"%s\",simd=\"%s\","
      "io_uring=\"false\"",
      build.git_describe, build.compiler, build.build_type, simd);
  if (!extra_labels.empty()) labels += "," + std::string(extra_labels);
  stats.Gauge("", "simrank_build_info", 1, std::move(labels));
}

namespace {

std::pair<int, std::string> ExecuteBatchPair(QueryEngine& engine,
                                             const QueryArgs& args,
                                             const ServerOptions& options) {
  auto pairs = ParsePairBatch(args.body, options.max_batch_pairs);
  if (!pairs.ok()) return EngineErrorResponse(pairs.status());
  if (options.sharded) {
    // A shard answers only pairs it can answer exactly: both endpoints in
    // range (their walk rows are complete here). Anything else belongs to
    // the router.
    const ShardRange& range = options.shard_plan.shards[options.shard_id];
    for (const auto& [a, b] : *pairs) {
      if (!range.Contains(a) || !range.Contains(b)) {
        return {421,
                ErrorBody("Misdirected",
                          StrFormat("pair (%u, %u) is not fully inside this "
                                    "shard's vertex range [%u, %u); ask the "
                                    "router",
                                    a, b, range.begin, range.end))};
      }
    }
  }
  const auto answers = engine.BatchPair(*pairs);
  for (const auto& answer : answers) {
    if (!answer.ok()) return EngineErrorResponse(answer.status());
  }
  TraceScope serialize(TraceStage::kSerialize);
  JsonWriter json;
  json.BeginObject()
      .Key("count")
      .Uint(answers.size())
      .Key("scores")
      .BeginArray();
  for (const auto& answer : answers) json.Double(*answer);
  json.EndArray().EndObject();
  return {200, json.str()};
}

std::pair<int, std::string> ExecuteUpdate(IndexUpdater& updater,
                                          const QueryArgs& args) {
  auto updates = ParseEdgeUpdates(args.body);
  if (!updates.ok()) return EngineErrorResponse(updates.status());
  const Status applied = updater.ApplyUpdates(*updates);
  if (!applied.ok()) return EngineErrorResponse(applied);
  const IndexUpdateStats stats = updater.stats();
  JsonWriter json;
  json.BeginObject()
      .Key("applied")
      .Uint(updates->size())
      .Key("sequence")
      .Uint(stats.overlay_sequence)
      .Key("patched_vertices")
      .Uint(stats.patched_vertices)
      .Key("changed_slots")
      .Uint(stats.changed_slots)
      .Key("graph_fingerprint")
      .String(FormatFingerprint(stats.current_graph_fingerprint))
      .Key("wal_records")
      .Uint(stats.wal_records)
      .EndObject();
  return {200, json.str()};
}

std::pair<int, std::string> ExecuteCompact(IndexUpdater& updater,
                                           const ServerOptions& options) {
  if (options.compact_path.empty() || options.compact_graph_path.empty()) {
    return {503, ErrorBody("Unavailable",
                           "no compaction target configured "
                           "(--compact-to / --compact-graph-to)")};
  }
  WalkIndex::SaveOptions save;
  save.compress = options.compact_compress;
  // The updated graph is persisted alongside the index before the WAL
  // reset — afterwards the WAL can no longer re-derive it from the
  // original --graph file, so a restart points --graph at the emitted
  // file.
  const Status status =
      updater.Compact(options.compact_path, save, /*reset_wal=*/true,
                      options.compact_graph_path);
  if (!status.ok()) return EngineErrorResponse(status);
  const IndexUpdateStats stats = updater.stats();
  JsonWriter json;
  json.BeginObject()
      .Key("path")
      .String(options.compact_path)
      .Key("graph_path")
      .String(options.compact_graph_path)
      .Key("sequence")
      .Uint(stats.overlay_sequence)
      .Key("graph_fingerprint")
      .String(FormatFingerprint(stats.current_graph_fingerprint))
      .EndObject();
  return {200, json.str()};
}

/// A consistent view for one internal exchange: the (store, overlay)
/// pair the computation uses, pinned in one read, plus the sequence and
/// graph fingerprint that overlay carries (before the first batch: 0 and
/// the index's own fingerprint). Both come off the pinned overlay, so the
/// headers always describe the state that answered.
struct OverlayView {
  WalkIndex::Snapshot at;
  uint64_t fingerprint = 0;
  uint64_t sequence = 0;
};

OverlayView SnapshotOverlay(const WalkIndex& index) {
  OverlayView view;
  view.at = index.snapshot();
  const DeltaOverlay* overlay = view.at.overlay.get();
  view.fingerprint = overlay != nullptr ? overlay->graph_fingerprint()
                                        : index.graph_fingerprint();
  view.sequence = overlay != nullptr ? overlay->sequence() : 0;
  return view;
}

/// What a worker hands back for an /internal/* exchange: status and body
/// like the public executors, plus a content type and the version headers
/// the router cross-checks.
struct ExchangeResponse {
  int status = 500;
  std::string body;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;
};

std::vector<std::pair<std::string, std::string>> ExchangeHeaders(
    const OverlayView& view, const ServerOptions& options) {
  return {{"X-Graph-Fingerprint", FormatFingerprint(view.fingerprint)},
          {"X-Overlay-Sequence",
           StrFormat("%llu", static_cast<unsigned long long>(view.sequence))},
          {"X-Plan-Epoch",
           StrFormat("%llu", static_cast<unsigned long long>(
                                 options.shard_plan.epoch))}};
}

/// The /internal/* exchange ops (shard role only). Bodies are binary —
/// native-endian walk rows in, native-endian score slices out — so the
/// doubles that cross the wire are the exact bits the estimators
/// produced; the router's merge is then bitwise by construction.
ExchangeResponse ExecuteInternal(QueryEngine& engine,
                                 const ServerOptions& options,
                                 const QueryArgs& args) {
  const WalkIndex& index = engine.index();
  const ShardRange& range = options.shard_plan.shards[options.shard_id];
  const OverlayView view = SnapshotOverlay(index);
  const WalkStore& store = *view.at.store;
  const DeltaOverlay* overlay = view.at.overlay.get();
  ExchangeResponse out;
  out.headers = ExchangeHeaders(view, options);
  const uint32_t n = index.n();
  const size_t words =
      static_cast<size_t>(index.options().num_fingerprints) *
      (index.options().walk_length + 1);

  if (args.internal == QueryArgs::Internal::kWalks) {
    if (!range.Contains(args.v)) {
      out.status = 421;
      out.body = ErrorBody(
          "Misdirected",
          StrFormat("vertex %u is outside this shard's range [%u, %u)",
                    args.v, range.begin, range.end));
      return out;
    }
    std::vector<uint32_t> scratch;
    const Result<const uint32_t*> row =
        MaterializeRow(store, overlay, args.v, &scratch);
    OIPSIM_CHECK_MSG(row.ok(), "corrupt walk segment while serving: %s",
                     row.status().ToString().c_str());
    out.status = 200;
    out.content_type = "application/octet-stream";
    out.body.assign(reinterpret_cast<const char*>(*row),
                    words * sizeof(uint32_t));
    return out;
  }

  // The remaining ops compute against the sequence the router pinned; a
  // publish that raced the fan-out turns into a 409 the router retries.
  if (args.seq != view.sequence) {
    out.status = 409;
    out.body = ErrorBody(
        "Conflict",
        StrFormat("overlay sequence moved: request pinned %llu, serving "
                  "%llu; re-fetch the row and retry",
                  static_cast<unsigned long long>(args.seq),
                  static_cast<unsigned long long>(view.sequence)));
    return out;
  }
  if (args.body.size() != words * sizeof(uint32_t)) {
    out.status = 400;
    out.body = ErrorBody(
        "InvalidArgument",
        StrFormat("walk row body must be %zu bytes (R*(L+1) u32 words), "
                  "got %zu",
                  words * sizeof(uint32_t), args.body.size()));
    return out;
  }
  std::vector<uint32_t> row(words);
  std::memcpy(row.data(), args.body.data(), args.body.size());

  if (args.internal == QueryArgs::Internal::kPair) {
    if (!range.Contains(args.b)) {
      out.status = 421;
      out.body = ErrorBody(
          "Misdirected",
          StrFormat("vertex %u is outside this shard's range [%u, %u)",
                    args.b, range.begin, range.end));
      return out;
    }
    // row[0] is step 0 of fingerprint 0 — always the row's own vertex.
    const double score =
        row[0] == args.b
            ? 1.0
            : index.EstimatePairWithRow(row, args.b, store, overlay);
    out.status = 200;
    out.content_type = "application/octet-stream";
    out.body.assign(reinterpret_cast<const char*>(&score), sizeof(score));
    return out;
  }

  if (args.v >= n) {
    out.status = 400;
    out.body = ErrorBody(
        "OutOfRange",
        StrFormat("vertex %u out of range (index has %u vertices)", args.v,
                  n));
    return out;
  }
  if (row[0] != args.v) {
    out.status = 400;
    out.body = ErrorBody(
        "InvalidArgument",
        StrFormat("walk row belongs to vertex %u, not the queried %u",
                  row[0], args.v));
    return out;
  }
  const std::vector<double> full =
      index.EstimateSingleSourceWithRow(args.v, row, store, overlay);
  if (args.internal == QueryArgs::Internal::kPartial) {
    out.status = 200;
    out.content_type = "application/octet-stream";
    out.body.assign(
        reinterpret_cast<const char*>(full.data() + range.begin),
        static_cast<size_t>(range.end - range.begin) * sizeof(double));
    return out;
  }

  // kTopK: this shard's top-k of its slice, as packed {u32 vertex,
  // f64 score} records in rank order.
  const std::vector<ScoredVertex> top = TopKFromRowSlice(
      std::span<const double>(full).subspan(range.begin,
                                            range.end - range.begin),
      range.begin, args.v, args.k);
  out.status = 200;
  out.content_type = "application/octet-stream";
  out.body.reserve(top.size() * 12);
  for (const ScoredVertex& scored : top) {
    char record[12];
    std::memcpy(record, &scored.vertex, sizeof(uint32_t));
    std::memcpy(record + 4, &scored.score, sizeof(double));
    out.body.append(record, sizeof(record));
  }
  return out;
}

/// Renders one /v1/wal poll: the primary side of WAL shipping. Text
/// framing over the same `+/- SRC DST` line format the update endpoint
/// accepts:
///   wal COUNT CURRENT_FINGERPRINT
///   record INDEX POST_FINGERPRINT NUM_UPDATES
///   + SRC DST            (NUM_UPDATES lines)
///   ...
///   end
std::string BuildWalStreamBody(const IndexUpdater& updater, uint64_t from) {
  const std::vector<WalRecord> records = updater.WalRecordsFrom(from);
  const IndexUpdateStats stats = updater.stats();
  std::string out = StrFormat(
      "wal %zu %s\n", records.size(),
      FormatFingerprint(stats.current_graph_fingerprint).c_str());
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    out += StrFormat(
        "record %llu %s %zu\n",
        static_cast<unsigned long long>(from + i),
        FormatFingerprint(record.post_graph_fingerprint).c_str(),
        record.updates.size());
    out += FormatEdgeUpdates(record.updates);
  }
  out += "end\n";
  return out;
}

}  // namespace

const char* ServerEndpointPath(ServerEndpoint endpoint) {
  switch (endpoint) {
    case ServerEndpoint::kPair:
      return "/v1/pair";
    case ServerEndpoint::kSingleSource:
      return "/v1/single_source";
    case ServerEndpoint::kTopK:
      return "/v1/topk";
    case ServerEndpoint::kBatchPair:
      return "/v1/batch_pair";
    case ServerEndpoint::kUpdate:
      return "/v1/update";
    case ServerEndpoint::kCompact:
      return "/v1/compact";
  }
  return "?";
}

const char* ServerEndpointName(ServerEndpoint endpoint) {
  switch (endpoint) {
    case ServerEndpoint::kPair:
      return "pair";
    case ServerEndpoint::kSingleSource:
      return "single_source";
    case ServerEndpoint::kTopK:
      return "topk";
    case ServerEndpoint::kBatchPair:
      return "batch_pair";
    case ServerEndpoint::kUpdate:
      return "update";
    case ServerEndpoint::kCompact:
      return "compact";
  }
  return "?";
}

Status ServerOptions::Validate() const {
  if (bind_address.empty()) {
    return Status::InvalidArgument("server bind address must not be empty");
  }
  if (threads > 4096) {
    return Status::InvalidArgument(
        StrFormat("--threads=%u is not a sane worker count", threads));
  }
  if (max_inflight == 0) {
    return Status::InvalidArgument(
        "--max-inflight must be positive: a zero cap rejects every query");
  }
  if (max_endpoint_inflight == 0) {
    return Status::InvalidArgument(
        "--endpoint-inflight must be positive: a zero cap rejects every "
        "query");
  }
  if (max_connections == 0) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  if (max_batch_pairs == 0) {
    return Status::InvalidArgument(
        "max_batch_pairs must be positive: a zero cap rejects every batch");
  }
  if (!(trace_sample >= 0.0 && trace_sample <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "--trace-sample=%g is not a probability in [0, 1]", trace_sample));
  }
  if (slow_ring_capacity == 0 || slow_ring_capacity > 65536) {
    return Status::InvalidArgument(
        StrFormat("--slow-ring=%u is not in [1, 65536]: the ring holds "
                  "captured trace JSON in memory",
                  slow_ring_capacity));
  }
  OIPSIM_RETURN_IF_ERROR(diagnostics.Validate());
  if (watchdog_interval_ms > 60000) {
    return Status::InvalidArgument(
        StrFormat("--watchdog-interval-ms=%u is longer than any plausible "
                  "stall",
                  watchdog_interval_ms));
  }
  if (watchdog_interval_ms > 0 && watchdog_stall_us == 0) {
    return Status::InvalidArgument(
        "--watchdog-stall-us must be positive when the watchdog is armed");
  }
  if (debug_stall_limit_ms > 10000) {
    return Status::InvalidArgument(
        StrFormat("--debug-stall-limit-ms=%u would let a request freeze the "
                  "loop for over 10s",
                  debug_stall_limit_ms));
  }
  if (sharded) {
    OIPSIM_RETURN_IF_ERROR(shard_plan.Validate());
    if (shard_id >= shard_plan.shards.size()) {
      return Status::InvalidArgument(
          StrFormat("shard id %u is not in the plan (it declares %zu "
                    "shards)",
                    shard_id, shard_plan.shards.size()));
    }
  }
  return Status::OK();
}

/// Per-connection state owned by the event loop. A connection handles one
/// dispatched query at a time (`awaiting`); pipelined requests stay
/// buffered in `in` until the response of the previous one is queued, so
/// responses always leave in request order.
struct SimRankServer::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::string in;
  std::string out;
  size_t out_sent = 0;
  /// A query is dispatched and its completion not yet queued.
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
  /// by RouteRequest (only with an event log), consumed and
  /// cleared by QueueResponse. One dispatched query at a time per
  /// connection keeps this a single slot.
  uint64_t access_start_ns = 0;
  uint64_t access_trace_id = 0;
  std::string access_method;
  std::string access_path;
};

/// A finished query's response: handed back to the loop thread by a
/// worker, or built on it for an inline cached-pair answer.
struct SimRankServer::Completion {
  int fd = -1;
  uint64_t connection_id = 0;
  ServerEndpoint endpoint = ServerEndpoint::kPair;
  int status = 500;
  std::string body;
  /// Internal exchange responses are binary and carry version headers;
  /// public responses keep the JSON defaults.
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;
  /// True for worker-pool completions that passed admission control and
  /// hold an inflight slot; false for out-of-band completions (the
  /// deferred /v1/debug/profile capture), which must not decrement
  /// counters they never incremented.
  bool admission = true;
};

SimRankServer::SimRankServer(QueryEngine& engine,
                             const ServerOptions& options,
                             IndexUpdater* updater)
    : engine_(engine),
      options_(options),
      updater_(updater),
      slow_log_(options.slow_ring_capacity),
      pool_(options.threads) {}

SimRankServer::~SimRankServer() {
  // Diagnostics threads poll pool_ and call CollectStats; stop them
  // here, before member destructors run (pool_ is declared after them and
  // would be destroyed first).
  StopDiagnostics();
  // Workers may still be executing queries if Serve was never run to
  // completion; let them finish (they only touch the engine, the
  // completion queue and wake_fd_) before the fds go away.
  pool_.Wait();
#if OIPSIM_HAVE_EPOLL
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
#endif
}

#if OIPSIM_HAVE_EPOLL

Status SimRankServer::Bind() {
  OIPSIM_RETURN_IF_ERROR(options_.Validate());
  if (options_.sharded) {
    // The plan must be the one the served shard file was split under: same
    // vertex universe, same base graph. Serving a shard against the wrong
    // plan would silently cross-wire the cluster's answers.
    const WalkIndex& index = engine_.index();
    if (options_.shard_plan.n != index.n()) {
      return Status::InvalidArgument(
          StrFormat("shard plan partitions n=%u but the served index has "
                    "n=%u vertices",
                    options_.shard_plan.n, index.n()));
    }
    if (options_.shard_plan.graph_fingerprint !=
        index.graph_fingerprint()) {
      return Status::InvalidArgument(StrFormat(
          "shard plan is bound to graph %s but the served index was built "
          "from %s",
          FormatFingerprint(options_.shard_plan.graph_fingerprint).c_str(),
          FormatFingerprint(index.graph_fingerprint()).c_str()));
    }
  }
  if (listen_fd_ >= 0) {
    return Status::InvalidArgument("Bind() called twice");
  }
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

void SimRankServer::Shutdown() {
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    // Async-signal-safe: a plain write on an eventfd. The return value is
    // irrelevant — a full counter already wakes the loop.
    [[maybe_unused]] const auto ignored =
        ::write(wake_fd_, &one, sizeof(one));
  }
}

Status SimRankServer::Serve() {
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
      // else drains through its completion + flush.
      std::vector<Connection*> idle;
      for (auto& [fd, conn] : connections_) {
        if (!conn->awaiting && conn->out_sent == conn->out.size()) {
          idle.push_back(conn.get());
        }
      }
      for (Connection* conn : idle) CloseConnection(conn);
      if (connections_.empty() && inflight_ == 0) {
        StopDiagnostics();
        return Status::OK();
      }
    }
    const int ready =
        ::epoll_wait(epoll_fd_, events, 64,
                     /*timeout_ms=*/draining_ ? 50 : idle_timeout_ms);
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
      if (it == connections_.end()) continue;  // closed earlier this batch
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
    DrainCompletions();
  }
}

void SimRankServer::HandleAccept() {
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
    stat_connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections_.size() >= options_.max_connections) {
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
    stat_connections_open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SimRankServer::HandleReadable(Connection* conn) {
  char buffer[4096];
  // The budget covers a full head plus the largest admissible body — a
  // request the parser would accept must be able to buffer completely, or
  // the read-side backpressure below would deadlock it.
  const size_t input_cap = options_.http.max_request_bytes +
                           options_.http.max_body_bytes +
                           kInputBufferSlackBytes;
  while (conn->in.size() < input_cap) {
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

void SimRankServer::ProcessBufferedRequests(Connection* conn) {
  // One dispatched query per connection at a time; the rest of the
  // pipeline waits buffered so responses preserve request order. Parsing
  // also pauses while the unsent-output backlog is over the cap — a
  // pipelining client that never reads cannot make `out` grow without
  // bound, it just stops being read itself.
  while (!conn->awaiting && !conn->close_after_flush &&
         conn->out.size() - conn->out_sent < kMaxPendingOutputBytes) {
    HttpRequest request;
    const HttpParseStatus parsed =
        ParseHttpRequest(conn->in, options_.http, &request);
    if (parsed.outcome == HttpParseStatus::kNeedMore) break;
    if (parsed.outcome == HttpParseStatus::kError) {
      conn->request_keep_alive = false;
      QueueErrorResponse(conn, parsed.error_status, parsed.error_message);
      break;
    }
    conn->in.erase(0, parsed.consumed);
    conn->request_keep_alive = request.keep_alive;
    RouteRequest(conn, request);
  }
  if (MaybeCloseAfterEof(conn)) return;
  UpdateEpoll(conn);
}

/// After a half-close, the connection lives exactly until its buffered
/// requests are answered and flushed. Returns true when it closed `conn`.
bool SimRankServer::MaybeCloseAfterEof(Connection* conn) {
  if (!conn->peer_eof) return false;
  if (conn->awaiting || conn->out_sent < conn->out.size()) return false;
  // Nothing in flight, everything flushed; whatever remains buffered is an
  // incomplete request head that can never complete.
  CloseConnection(conn);
  return true;
}

void SimRankServer::RouteRequest(Connection* conn,
                                 const HttpRequest& request) {
  if (diagnostics_.log() != nullptr) {
    conn->access_start_ns = TraceNowNanos();
    conn->access_trace_id = 0;
    conn->access_method = request.method;
    conn->access_path = request.path;
  }
  // /v1/debug/profile parks the connection while a dedicated capture
  // thread runs the sampling session; everything about it (method checks,
  // params, the 409 busy answer) is handled out of line.
  if (request.path == "/v1/debug/profile") {
    HandleProfileRequest(conn, request);
    return;
  }
  // Inline endpoints: answered on the loop thread, GET only.
  const bool is_inline = request.path == "/healthz" ||
                         request.path == "/v1/stats" ||
                         request.path == "/metrics" ||
                         request.path == "/v1/wal" ||
                         request.path == "/v1/debug/slow" ||
                         request.path == "/v1/debug/timeseries" ||
                         (options_.debug_stall_limit_ms > 0 &&
                          request.path == "/v1/debug/stall");
  // The /internal/* exchange endpoints exist only in the shard role; a
  // standalone server 404s them like any unknown path.
  const bool is_internal =
      options_.sharded && (request.path == "/internal/walks" ||
                           request.path == "/internal/partial" ||
                           request.path == "/internal/topk" ||
                           request.path == "/internal/pair");
  // Dispatchable endpoints and the method each accepts.
  ServerEndpoint endpoint = ServerEndpoint::kPair;
  bool known = false;
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    const auto candidate = static_cast<ServerEndpoint>(i);
    if (request.path == ServerEndpointPath(candidate)) {
      endpoint = candidate;
      known = true;
      break;
    }
  }
  if (!is_inline && !known && !is_internal) {
    QueueResponse(conn, 404,
                  ErrorBody("NotFound", "no such endpoint: " + request.path));
    return;
  }
  const bool wants_post =
      (known && (endpoint == ServerEndpoint::kBatchPair ||
                 endpoint == ServerEndpoint::kUpdate ||
                 endpoint == ServerEndpoint::kCompact)) ||
      (is_internal && request.path != "/internal/walks");
  const char* allowed = wants_post ? "POST" : "GET";
  if (request.method != allowed) {
    QueueResponse(conn, 405,
                  ErrorBody("MethodNotAllowed",
                            StrFormat("%s only accepts %s",
                                      request.path.c_str(), allowed)),
                  {{"Allow", allowed}});
    return;
  }
  if (!wants_post && !request.body.empty()) {
    QueueErrorResponse(conn, 400, "GET endpoints take no request body");
    return;
  }

  if (request.path == "/healthz") {
    stat_requests_healthz_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn, 200, "ok\n", {}, "text/plain");
    return;
  }
  if (request.path == "/v1/stats") {
    stat_requests_stats_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn, 200, CollectStats().ToJson());
    return;
  }
  if (request.path == "/metrics") {
    stat_requests_metrics_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn, 200, PrometheusText(CollectStats().Families()), {},
                  "text/plain; version=0.0.4");
    return;
  }
  if (request.path == "/v1/debug/slow") {
    stat_requests_debug_slow_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(conn, 200, BuildSlowBody());
    return;
  }
  if (request.path == "/v1/debug/timeseries") {
    stat_requests_debug_timeseries_.fetch_add(1, std::memory_order_relaxed);
    const auto [status, body] =
        AnswerTimeseries(diagnostics_.history(), request);
    QueueResponse(conn, status, body);
    return;
  }
  if (request.path == "/v1/debug/stall") {
    // Test-only (armed by --debug-stall-limit-ms): block the loop thread
    // itself so watchdog stall detection can be exercised deterministically.
    uint64_t ms = options_.debug_stall_limit_ms;
    const std::string* raw_ms = request.FindParam("ms");
    if (raw_ms != nullptr && !ParseUint64(*raw_ms, &ms)) {
      QueueErrorResponse(conn, 400,
                         "parameter 'ms' must be a duration in milliseconds");
      return;
    }
    ms = std::min<uint64_t>(ms, options_.debug_stall_limit_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    QueueResponse(conn, 200,
                  StrFormat("{\"stalled_ms\":%llu}",
                            static_cast<unsigned long long>(ms)));
    return;
  }
  if (request.path == "/v1/wal") {
    stat_requests_wal_.fetch_add(1, std::memory_order_relaxed);
    if (updater_ == nullptr) {
      QueueResponse(conn, 503,
                    ErrorBody("Unavailable",
                              "this server keeps no WAL (started without "
                              "--graph/--wal); nothing to ship"));
      return;
    }
    uint64_t from = 0;
    const std::string* raw = request.FindParam("from");
    if (raw != nullptr && !ParseUint64(*raw, &from)) {
      QueueErrorResponse(conn, 400,
                         "parameter 'from' must be a record index");
      return;
    }
    // Served inline: WalRecordsFrom copies under its own mutex and never
    // waits behind a patch, so a replica's poll cadence cannot be starved
    // by busy workers.
    QueueResponse(conn, 200, BuildWalStreamBody(*updater_, from), {},
                  "text/plain");
    return;
  }

  if (options_.replica && (endpoint == ServerEndpoint::kUpdate ||
                           endpoint == ServerEndpoint::kCompact)) {
    QueueResponse(
        conn, 403,
        ErrorBody("Forbidden",
                  "this server is a replica; it applies batches by tailing "
                  "its primary's WAL, never by direct writes"));
    return;
  }
  if (options_.sharded && !is_internal) {
    const ShardRange& range =
        options_.shard_plan.shards[options_.shard_id];
    const bool partial_shard =
        range.begin != 0 || range.end != engine_.index().n();
    if (partial_shard && (endpoint == ServerEndpoint::kSingleSource ||
                          endpoint == ServerEndpoint::kTopK)) {
      QueueResponse(
          conn, 421,
          ErrorBody("Misdirected",
                    StrFormat("%s spans every shard; this shard serves "
                              "only [%u, %u) — ask the router",
                              request.path.c_str(), range.begin,
                              range.end)));
      return;
    }
  }

  if ((endpoint == ServerEndpoint::kUpdate ||
       endpoint == ServerEndpoint::kCompact) &&
      updater_ == nullptr) {
    QueueResponse(
        conn, 503,
        ErrorBody("Unavailable",
                  "dynamic updates are disabled: the server was started "
                  "without an update log (--graph/--wal)"));
    return;
  }
  if (is_internal) {
    // Internal exchanges ride the public admission classes of the work
    // they stand in for: row fetch / partial row under single_source,
    // slice top-k under topk, one-sided pair under pair.
    endpoint = request.path == "/internal/topk" ? ServerEndpoint::kTopK
               : request.path == "/internal/pair"
                   ? ServerEndpoint::kPair
                   : ServerEndpoint::kSingleSource;
  }
  DispatchQuery(conn, endpoint, request);
}

namespace {

/// Parses the required uint32 parameter `name`, appending a 400-worthy
/// message to `error` when missing or malformed.
bool ParseVertexParam(const HttpRequest& request, const char* name,
                      uint32_t* out, std::string* error) {
  const std::string* raw = request.FindParam(name);
  if (raw == nullptr) {
    *error = StrFormat("missing required parameter '%s'", name);
    return false;
  }
  uint64_t value = 0;
  if (!ParseUint64(*raw, &value) || value > UINT32_MAX) {
    *error = StrFormat("parameter '%s' must be a vertex id, got '%s'", name,
                       raw->c_str());
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

/// Parses the required uint64 parameter `name` (overlay sequences).
bool ParseSeqParam(const HttpRequest& request, const char* name,
                   uint64_t* out, std::string* error) {
  const std::string* raw = request.FindParam(name);
  if (raw == nullptr) {
    *error = StrFormat("missing required parameter '%s'", name);
    return false;
  }
  if (!ParseUint64(*raw, out)) {
    *error = StrFormat("parameter '%s' must be an unsigned integer, got "
                       "'%s'",
                       name, raw->c_str());
    return false;
  }
  return true;
}

}  // namespace

Status ParsePublicQuery(const HttpRequest& request, ServerEndpoint endpoint,
                        PublicQuery* out) {
  const bool is_get = endpoint == ServerEndpoint::kPair ||
                      endpoint == ServerEndpoint::kSingleSource ||
                      endpoint == ServerEndpoint::kTopK;
  if (is_get && !request.body.empty()) {
    return Status::InvalidArgument("GET endpoints take no request body");
  }
  std::string error;
  bool ok = false;
  switch (endpoint) {
    case ServerEndpoint::kPair:
      ok = CheckAllowedParams(request, {"a", "b", "trace"}, &error) &&
           ParseVertexParam(request, "a", &out->a, &error) &&
           ParseVertexParam(request, "b", &out->b, &error);
      break;
    case ServerEndpoint::kSingleSource:
      ok = CheckAllowedParams(request, {"v", "trace"}, &error) &&
           ParseVertexParam(request, "v", &out->v, &error);
      break;
    case ServerEndpoint::kTopK:
      ok = CheckAllowedParams(request, {"v", "k", "trace"}, &error) &&
           ParseVertexParam(request, "v", &out->v, &error);
      if (ok && request.FindParam("k") != nullptr) {
        ok = ParseVertexParam(request, "k", &out->k, &error);
      }
      break;
    case ServerEndpoint::kBatchPair:
    case ServerEndpoint::kUpdate:
    case ServerEndpoint::kCompact:
      // Body endpoints take no query parameters beyond the trace opt-in;
      // the body itself is parsed where the work runs.
      ok = CheckAllowedParams(request, {"trace"}, &error);
      break;
  }
  if (!ok) return Status::InvalidArgument(error);
  // ?trace=1 inlines the trace JSON into the response envelope — the
  // only tracing channel allowed to change a body.
  if (const std::string* trace = request.FindParam("trace")) {
    if (*trace != "0" && *trace != "1") {
      return Status::InvalidArgument(StrFormat(
          "parameter 'trace' must be 0 or 1, got '%s'", trace->c_str()));
    }
    out->trace_inline = *trace == "1";
  }
  return Status::OK();
}

void SimRankServer::DispatchQuery(Connection* conn, ServerEndpoint endpoint,
                                  const HttpRequest& request) {
  const auto slot = static_cast<size_t>(endpoint);
  stat_requests_[slot].fetch_add(1, std::memory_order_relaxed);

  QueryArgs args;
  std::string error;
  bool params_ok = false;
  if (StartsWith(request.path, "/internal/")) {
    if (request.path == "/internal/walks") {
      args.internal = QueryArgs::Internal::kWalks;
      params_ok = CheckAllowedParams(request, {"v"}, &error) &&
                  ParseVertexParam(request, "v", &args.v, &error);
    } else if (request.path == "/internal/partial") {
      args.internal = QueryArgs::Internal::kPartial;
      params_ok = CheckAllowedParams(request, {"v", "seq"}, &error) &&
                  ParseVertexParam(request, "v", &args.v, &error) &&
                  ParseSeqParam(request, "seq", &args.seq, &error);
    } else if (request.path == "/internal/topk") {
      args.internal = QueryArgs::Internal::kTopK;
      params_ok = CheckAllowedParams(request, {"v", "k", "seq"}, &error) &&
                  ParseVertexParam(request, "v", &args.v, &error) &&
                  ParseSeqParam(request, "seq", &args.seq, &error);
      if (params_ok && request.FindParam("k") != nullptr) {
        params_ok = ParseVertexParam(request, "k", &args.k, &error);
      }
    } else {
      args.internal = QueryArgs::Internal::kPair;
      params_ok = CheckAllowedParams(request, {"b", "seq"}, &error) &&
                  ParseVertexParam(request, "b", &args.b, &error) &&
                  ParseSeqParam(request, "seq", &args.seq, &error);
    }
    args.body = request.body;
  } else {
    PublicQuery query;
    const Status parsed = ParsePublicQuery(request, endpoint, &query);
    params_ok = parsed.ok();
    if (!params_ok) error = parsed.message();
    args.a = query.a;
    args.b = query.b;
    args.v = query.v;
    args.k = query.k;
    args.trace_inline = query.trace_inline;
    args.body = request.body;
  }
  if (!params_ok) {
    QueueErrorResponse(conn, 400, error);
    return;
  }
  // X-Simrank-Trace activates tracing without touching the body: the
  // trace comes back in the X-Simrank-Trace-Json response header. This is
  // how the router threads one trace id through its shard fan-out (the
  // /internal/* bodies are binary and must stay byte-exact).
  if (const std::string* header = request.FindHeader("x-simrank-trace")) {
    uint64_t id = 0;
    if (ParseTraceId(*header, &id)) {
      args.trace_header = true;
      args.trace_id = id;
    }
  }
  // Ambient tracing: every request when a slow-query threshold is armed
  // (the slow ones must already have a trace by the time they turn out
  // slow), else a trace_sample coin flip.
  if (options_.slow_query_us > 0) {
    args.trace_sampled = true;
  } else if (options_.trace_sample > 0.0) {
    // xorshift64*: cheap, loop-thread-only, statistical only.
    sample_state_ ^= sample_state_ >> 12;
    sample_state_ ^= sample_state_ << 25;
    sample_state_ ^= sample_state_ >> 27;
    const uint64_t draw = sample_state_ * 0x2545F4914F6CDD1Dull;
    args.trace_sampled =
        static_cast<double>(draw >> 11) * 0x1.0p-53 < options_.trace_sample;
  }
  const bool traced = args.traced();
  if (traced) {
    if (args.trace_id == 0) args.trace_id = GenerateTraceId();
    // Reassembled path + query (the parser splits the raw target) so slow
    // captures name the exact request.
    args.target = request.path;
    for (size_t i = 0; i < request.params.size(); ++i) {
      args.target += i == 0 ? '?' : '&';
      args.target += request.params[i].first;
      args.target += '=';
      args.target += request.params[i].second;
    }
    if (diagnostics_.log() != nullptr) conn->access_trace_id = args.trace_id;
  }
  if (options_.sharded && args.internal == QueryArgs::Internal::kNone &&
      endpoint == ServerEndpoint::kPair) {
    // A shard's pair answer is exact only when both rows are local.
    const ShardRange& range =
        options_.shard_plan.shards[options_.shard_id];
    if (!range.Contains(args.a) || !range.Contains(args.b)) {
      QueueResponse(
          conn, 421,
          ErrorBody("Misdirected",
                    StrFormat("pair (%u, %u) is not fully inside this "
                              "shard's vertex range [%u, %u); ask the "
                              "router",
                              args.a, args.b, range.begin, range.end)));
      return;
    }
  }

  const auto dispatched_at = std::chrono::steady_clock::now();
  // A pair whose answer sits in a fresh cached row costs one row load:
  // answer it here, with no worker hand-off and no admission (like
  // /healthz). A miss, and every other query, goes to the pool.
  if (endpoint == ServerEndpoint::kPair &&
      args.internal == QueryArgs::Internal::kNone &&
      AnswerPairFromCache(conn, args, dispatched_at)) {
    return;
  }

  // Admission control: bounded queues, never buffered overload. The global
  // cap answers 429 (the client is fanning out faster than the pool
  // drains), the per-endpoint cap 503 (this endpoint specifically is
  // saturated); both tell the client when to come back.
  const std::vector<std::pair<std::string, std::string>> retry_after = {
      {"Retry-After", StrFormat("%u", options_.retry_after_seconds)}};
  if (inflight_ >= options_.max_inflight) {
    stat_rejected_inflight_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(
        conn, 429,
        ErrorBody("Overloaded",
                  StrFormat("server is at its in-flight cap (%u); retry",
                            options_.max_inflight)),
        retry_after);
    return;
  }
  if (endpoint_inflight_[slot] >= options_.max_endpoint_inflight) {
    stat_rejected_endpoint_.fetch_add(1, std::memory_order_relaxed);
    QueueResponse(
        conn, 503,
        ErrorBody("Overloaded",
                  StrFormat("endpoint %s is at its in-flight cap (%u); retry",
                            ServerEndpointPath(endpoint),
                            options_.max_endpoint_inflight)),
        retry_after);
    return;
  }

  ++inflight_;
  ++endpoint_inflight_[slot];
  stat_inflight_.store(inflight_, std::memory_order_relaxed);
  conn->awaiting = true;
  const int fd = conn->fd;
  const uint64_t connection_id = conn->id;
  // One clock read per *traced* dispatch; untraced requests skip it.
  const uint64_t dispatch_ns = traced ? TraceNowNanos() : 0;
  pool_.Submit([this, fd, connection_id, endpoint, dispatched_at,
                dispatch_ns, args = std::move(args)] {
    // Queue-wait component of latency: dispatch to the moment a worker
    // actually picks the query up. Recorded before the synthetic
    // handler delay so tests measure real scheduling, not the injection.
    dispatch_latency_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - dispatched_at)
            .count()));
    if (options_.handler_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.handler_delay_ms));
    }
    const bool traced = args.traced();
    std::optional<TraceRecorder> recorder;
    if (traced) recorder.emplace(args.trace_id);
    Completion completion;
    completion.fd = fd;
    completion.connection_id = connection_id;
    completion.endpoint = endpoint;
    {
      // Bound for the duration of the query: every TraceScope/TraceAdd
      // down in the engine lands in this recorder (or no-ops when null).
      TraceBinding binding(traced ? &*recorder : nullptr);
      if (traced) {
        recorder->AddCompletedSpan(TraceStage::kQueueWait, dispatch_ns,
                                   TraceNowNanos() - dispatch_ns);
      }
      TraceScope root(TraceStage::kRequest, ServerEndpointName(endpoint));
      if (args.internal != QueryArgs::Internal::kNone) {
        ExchangeResponse exchange =
            ExecuteInternal(engine_, options_, args);
        completion.status = exchange.status;
        completion.body = std::move(exchange.body);
        completion.content_type = std::move(exchange.content_type);
        completion.headers = std::move(exchange.headers);
      } else {
        std::pair<int, std::string> result;
        switch (endpoint) {
          case ServerEndpoint::kPair:
            result = ExecutePair(engine_, args);
            break;
          case ServerEndpoint::kSingleSource:
            result = ExecuteSingleSource(engine_, args);
            break;
          case ServerEndpoint::kTopK:
            result = ExecuteTopK(engine_, args);
            break;
          case ServerEndpoint::kBatchPair:
            result = ExecuteBatchPair(engine_, args, options_);
            break;
          case ServerEndpoint::kUpdate:
            result = ExecuteUpdate(*updater_, args);
            break;
          case ServerEndpoint::kCompact:
            result = ExecuteCompact(*updater_, options_);
            break;
        }
        completion.status = result.first;
        completion.body = std::move(result.second);
      }
    }
    FinishQuery(endpoint, args, dispatched_at,
                traced ? &*recorder : nullptr, &completion);
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back(std::move(completion));
    }
    const uint64_t one = 1;
    [[maybe_unused]] const auto ignored =
        ::write(wake_fd_, &one, sizeof(one));
  });
}

bool SimRankServer::AnswerPairFromCache(
    Connection* conn, const QueryArgs& args,
    std::chrono::steady_clock::time_point started) {
  // Traced like the worker path, minus its queue_wait span.
  const bool traced = args.traced();
  std::optional<TraceRecorder> recorder;
  if (traced) recorder.emplace(args.trace_id);
  Completion completion;
  {
    TraceBinding binding(traced ? &*recorder : nullptr);
    TraceScope root(TraceStage::kRequest,
                    ServerEndpointName(ServerEndpoint::kPair));
    const std::optional<double> score = engine_.PairFromCache(args.a, args.b);
    if (!score.has_value()) return false;
    completion.status = 200;
    completion.body = PairBody(args.a, args.b, *score);
  }
  FinishQuery(ServerEndpoint::kPair, args, started,
              traced ? &*recorder : nullptr, &completion);
  // `awaiting` stays false: pipelined requests behind this one are parsed
  // in the same pass, and their responses queue after this one.
  QueueResponse(conn, completion.status, completion.body, completion.headers,
                completion.content_type);
  return true;
}

void SimRankServer::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    if (completion.admission) {
      --inflight_;
      --endpoint_inflight_[static_cast<size_t>(completion.endpoint)];
      stat_inflight_.store(inflight_, std::memory_order_relaxed);
    }
    auto it = connections_.find(completion.fd);
    if (it == connections_.end() ||
        it->second->id != completion.connection_id) {
      continue;  // the client hung up mid-query; drop the answer
    }
    Connection* conn = it->second.get();
    conn->awaiting = false;
    QueueResponse(conn, completion.status, completion.body,
                  completion.headers, completion.content_type);
    // The response is queued; pipelined follow-ups may now proceed (this
    // also closes half-closed connections once they flush).
    ProcessBufferedRequests(conn);
  }
}

void SimRankServer::HandleProfileRequest(Connection* conn,
                                         const HttpRequest& request) {
  stat_requests_debug_profile_.fetch_add(1, std::memory_order_relaxed);
  if (request.method != "GET") {
    QueueResponse(conn, 405,
                  ErrorBody("MethodNotAllowed",
                            "/v1/debug/profile only accepts GET"),
                  {{"Allow", "GET"}});
    return;
  }
  if (!request.body.empty()) {
    QueueErrorResponse(conn, 400, "GET endpoints take no request body");
    return;
  }
  double seconds = 0.0;
  uint32_t hz = 0;
  if (const Status params = ParseProfileParams(request, &seconds, &hz);
      !params.ok()) {
    QueueErrorResponse(conn, 400, params.message());
    return;
  }
  bool expected = false;
  if (!profile_busy_.compare_exchange_strong(expected, true)) {
    QueueResponse(conn, 409,
                  ErrorBody("Busy",
                            "a profiling session is already running; retry "
                            "when it finishes"));
    return;
  }
  // Park the connection and capture on a dedicated thread: the session
  // sleeps for `seconds`, which must not block the loop or hold a worker.
  conn->awaiting = true;
  const int fd = conn->fd;
  const uint64_t connection_id = conn->id;
  std::lock_guard<std::mutex> lock(profile_threads_mutex_);
  // The previous session (if any) released profile_busy_ before pushing
  // its completion, so these joins only wait out its final microseconds.
  for (std::thread& thread : profile_threads_) {
    if (thread.joinable()) thread.join();
  }
  profile_threads_.clear();
  profile_threads_.emplace_back([this, fd, connection_id, seconds, hz] {
    auto profiled = CpuProfiler::Instance().ProfileFor(seconds, hz);
    profile_busy_.store(false, std::memory_order_release);
    Completion completion;
    completion.fd = fd;
    completion.connection_id = connection_id;
    completion.admission = false;
    if (!profiled.ok()) {
      // The profiler itself was busy (e.g. a continuous-profiling period
      // is mid-capture) or the platform lacks support.
      completion.status = 409;
      completion.body = ErrorBody("Busy", profiled.status().message());
    } else {
      completion.status = 200;
      completion.content_type = "text/plain";
      completion.body = RenderProfileReport(*profiled);
    }
    {
      std::lock_guard<std::mutex> completions_lock(completions_mutex_);
      completions_.push_back(std::move(completion));
    }
    const uint64_t one = 1;
    [[maybe_unused]] const auto ignored =
        ::write(wake_fd_, &one, sizeof(one));
  });
}

void SimRankServer::StartDiagnostics() {
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
  diagnostics_.Start([this] { return CollectStats().Families(); });
}

void SimRankServer::StopDiagnostics() {
  watchdog_.Stop();
  diagnostics_.Stop();
  std::lock_guard<std::mutex> lock(profile_threads_mutex_);
  for (std::thread& thread : profile_threads_) {
    if (thread.joinable()) thread.join();
  }
  profile_threads_.clear();
}

void SimRankServer::QueueResponse(
    Connection* conn, int status, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers,
    std::string_view content_type) {
  const bool keep =
      conn->request_keep_alive && !draining_ && !conn->close_after_flush;
  HttpResponseOptions response_options;
  response_options.keep_alive = keep;
  response_options.content_type = content_type;
  response_options.extra_headers = extra_headers;
  conn->out += BuildHttpResponse(status, body, response_options);
  if (!keep) conn->close_after_flush = true;
  CountResponse(status);
  if (diagnostics_.log() != nullptr && !conn->access_method.empty()) {
    LogAccess(*conn, status, body.size());
    conn->access_method.clear();
  }
  UpdateEpoll(conn);
}

void SimRankServer::QueueErrorResponse(Connection* conn, int status,
                                       std::string_view message) {
  const char* code = status == 400 ? "InvalidArgument" : "BadRequest";
  QueueResponse(conn, status, ErrorBody(code, message));
}

void SimRankServer::HandleWritable(Connection* conn) {
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

void SimRankServer::UpdateEpoll(Connection* conn) {
  // Backpressure: a connection over its input or unsent-output budget is
  // not read until the backlog drains (ProcessBufferedRequests and
  // HandleWritable re-run this as they consume).
  const bool over_budget =
      conn->in.size() >= options_.http.max_request_bytes +
                             options_.http.max_body_bytes +
                             kInputBufferSlackBytes ||
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

void SimRankServer::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->fd);
  stat_connections_open_.fetch_sub(1, std::memory_order_relaxed);
}

#else  // !OIPSIM_HAVE_EPOLL

Status SimRankServer::Bind() {
  return Status::Unimplemented(
      "SimRankServer requires Linux epoll/eventfd");
}
Status SimRankServer::Serve() {
  return Status::Unimplemented(
      "SimRankServer requires Linux epoll/eventfd");
}
void SimRankServer::Shutdown() { stop_.store(true); }
void SimRankServer::HandleAccept() {}
void SimRankServer::HandleReadable(Connection*) {}
void SimRankServer::HandleWritable(Connection*) {}
void SimRankServer::ProcessBufferedRequests(Connection*) {}
bool SimRankServer::MaybeCloseAfterEof(Connection*) { return false; }
void SimRankServer::RouteRequest(Connection*, const HttpRequest&) {}
void SimRankServer::DispatchQuery(Connection*, ServerEndpoint,
                                  const HttpRequest&) {}
bool SimRankServer::AnswerPairFromCache(
    Connection*, const QueryArgs&, std::chrono::steady_clock::time_point) {
  return false;
}
void SimRankServer::DrainCompletions() {}
void SimRankServer::HandleProfileRequest(Connection*, const HttpRequest&) {}
void SimRankServer::StartDiagnostics() {}
void SimRankServer::StopDiagnostics() {}
void SimRankServer::QueueResponse(
    Connection*, int, std::string_view,
    const std::vector<std::pair<std::string, std::string>>&) {}
void SimRankServer::QueueErrorResponse(Connection*, int, std::string_view) {}
void SimRankServer::UpdateEpoll(Connection*) {}
void SimRankServer::CloseConnection(Connection*) {}

#endif  // OIPSIM_HAVE_EPOLL

Status SimRankServer::Warm(std::span<const VertexId> vertices) {
  const uint32_t n = engine_.index().n();
  for (const VertexId v : vertices) {
    if (v >= n) {
      return Status::OutOfRange(StrFormat(
          "warm vertex %u out of range (index has %u vertices)", v, n));
    }
  }
  // Page-cache first (one madvise sweep on mmap backends), then the row
  // cache: the SingleSource misses below fault warm pages, not cold disk.
  engine_.index().snapshot().store->Prefetch(vertices);
  for (const VertexId v : vertices) {
    auto row = engine_.SingleSource(v);
    if (!row.ok()) return row.status();
  }
  return Status::OK();
}

ServerStats SimRankServer::stats() const {
  ServerStats stats;
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    stats.requests[i] = stat_requests_[i].load(std::memory_order_relaxed);
  }
  stats.requests_stats =
      stat_requests_stats_.load(std::memory_order_relaxed);
  stats.requests_healthz =
      stat_requests_healthz_.load(std::memory_order_relaxed);
  stats.requests_metrics =
      stat_requests_metrics_.load(std::memory_order_relaxed);
  stats.requests_wal = stat_requests_wal_.load(std::memory_order_relaxed);
  stats.requests_debug_slow =
      stat_requests_debug_slow_.load(std::memory_order_relaxed);
  stats.requests_debug_profile =
      stat_requests_debug_profile_.load(std::memory_order_relaxed);
  stats.requests_debug_timeseries =
      stat_requests_debug_timeseries_.load(std::memory_order_relaxed);
  stats.traced_requests =
      stat_traced_requests_.load(std::memory_order_relaxed);
  stats.slow_captured = slow_log_.total_recorded();
  stats.responses_2xx = stat_responses_2xx_.load(std::memory_order_relaxed);
  stats.responses_4xx = stat_responses_4xx_.load(std::memory_order_relaxed);
  stats.responses_5xx = stat_responses_5xx_.load(std::memory_order_relaxed);
  stats.rejected_inflight =
      stat_rejected_inflight_.load(std::memory_order_relaxed);
  stats.rejected_endpoint =
      stat_rejected_endpoint_.load(std::memory_order_relaxed);
  stats.rejected_misdirected =
      stat_rejected_misdirected_.load(std::memory_order_relaxed);
  stats.connections_accepted =
      stat_connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_open =
      stat_connections_open_.load(std::memory_order_relaxed);
  stats.inflight = stat_inflight_.load(std::memory_order_relaxed);
  return stats;
}

void SimRankServer::CountResponse(int status) {
  if (status < 300) {
    stat_responses_2xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (status < 500) {
    stat_responses_4xx_.fetch_add(1, std::memory_order_relaxed);
  } else {
    stat_responses_5xx_.fetch_add(1, std::memory_order_relaxed);
  }
  if (status == 421) {
    stat_rejected_misdirected_.fetch_add(1, std::memory_order_relaxed);
  }
}

MetricSet SimRankServer::CollectStats() const {
  const ServerStats stats = this->stats();
  const QueryEngine::CacheStats cache = engine_.cache_stats();
  const WalkIndex& index = engine_.index();
  MetricSet m;
  m.Gauge("server.inflight", "simrank_inflight", stats.inflight)
      .Info("server.max_inflight", options_.max_inflight)
      .Info("server.max_endpoint_inflight", options_.max_endpoint_inflight)
      .Info("server.threads", pool_.num_threads())
      .Info("server.draining", draining_.load(std::memory_order_relaxed))
      .Gauge("server.uptime_seconds", "simrank_uptime_seconds",
             UptimeSeconds());
  CollectBuildInfo(m);

  const Watchdog::Snapshot dog = watchdog_.snapshot();
  m.Info("watchdog.armed", options_.watchdog_interval_ms > 0)
      .Duration("watchdog.loop_lag_us", "simrank_loop_lag_seconds",
                dog.loop_lag_us)
      .Duration("watchdog.max_loop_lag_us", "simrank_loop_lag_max_seconds",
                dog.max_loop_lag_us)
      .Gauge("watchdog.queue_depth", "simrank_queue_depth", dog.queue_depth)
      .Gauge("watchdog.max_queue_depth", "simrank_queue_depth_max",
             dog.max_queue_depth)
      .Counter("watchdog.stalls", "simrank_loop_stalls_total", dog.stalls)
      .Duration("watchdog.last_stall_us", "", dog.last_stall_us)
      // Dispatch-to-start latency: the queue wait workers observed.
      .Histogram("watchdog.dispatch_latency_us",
                 "simrank_dispatch_latency_seconds",
                 dispatch_latency_.snapshot());
  ProcessMemoryStats memory;
  if (ReadProcessMemoryStats(&memory)) {
    m.Gauge("process_memory.resident_bytes", "simrank_resident_bytes",
            memory.resident_bytes)
        .Gauge("process_memory.virtual_bytes", "simrank_virtual_bytes",
               memory.virtual_bytes)
        .Gauge("process_memory.peak_resident_bytes",
               "simrank_peak_resident_bytes", memory.peak_resident_bytes)
        .Gauge("process_memory.data_bytes", "", memory.data_bytes);
  }

  auto request_counter = [&m](const char* endpoint, uint64_t count) {
    m.Counter(std::string("requests.") + endpoint, "simrank_requests_total",
              count, PromLabel("endpoint", endpoint));
  };
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    request_counter(ServerEndpointName(static_cast<ServerEndpoint>(i)),
                    stats.requests[i]);
  }
  request_counter("stats", stats.requests_stats);
  request_counter("healthz", stats.requests_healthz);
  request_counter("metrics", stats.requests_metrics);
  request_counter("wal", stats.requests_wal);
  request_counter("debug_slow", stats.requests_debug_slow);
  request_counter("debug_profile", stats.requests_debug_profile);
  request_counter("debug_timeseries", stats.requests_debug_timeseries);
  m.Counter("responses.2xx", "simrank_responses_total", stats.responses_2xx,
            PromLabel("class", "2xx"))
      .Counter("responses.4xx", "simrank_responses_total",
               stats.responses_4xx, PromLabel("class", "4xx"))
      .Counter("responses.5xx", "simrank_responses_total",
               stats.responses_5xx, PromLabel("class", "5xx"))
      .Counter("admission.rejected_inflight", "simrank_rejected_total",
               stats.rejected_inflight, PromLabel("reason", "inflight"))
      .Counter("admission.rejected_endpoint", "simrank_rejected_total",
               stats.rejected_endpoint, PromLabel("reason", "endpoint"))
      .Counter("admission.rejected_misdirected", "simrank_rejected_total",
               stats.rejected_misdirected,
               PromLabel("reason", "misdirected"))
      .Counter("connections.accepted", "simrank_connections_accepted_total",
               stats.connections_accepted)
      .Gauge("connections.open", "simrank_connections_open",
             stats.connections_open)
      .Counter("cache.hits", "simrank_cache_hits_total", cache.hits)
      .Counter("cache.misses", "simrank_cache_misses_total", cache.misses)
      .Counter("cache.evictions", "simrank_cache_evictions_total",
               cache.evictions)
      .Counter("cache.restamped", "simrank_cache_restamped_total",
               cache.restamped);
  // Per-endpoint dispatch-to-completion latency.
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    const char* name = ServerEndpointName(static_cast<ServerEndpoint>(i));
    m.Histogram(std::string("latency_us.") + name,
                "simrank_request_duration_seconds", latency_[i].snapshot(),
                PromLabel("endpoint", name));
  }

  // Tracing: per-stage latency and work counters, folded from traced
  // requests only (untraced requests contribute nothing here).
  m.Info("trace.sample_rate", options_.trace_sample)
      .Info("trace.slow_query_us", options_.slow_query_us)
      .Counter("trace.traced_requests", "simrank_traced_requests_total",
               stats.traced_requests)
      .Counter("trace.slow_captured", "simrank_slow_queries_total",
               stats.slow_captured)
      .Info("trace.slow_ring_capacity", slow_log_.capacity());
  for (uint32_t i = 0; i < kNumTraceStages; ++i) {
    const char* name = TraceStageName(static_cast<TraceStage>(i));
    m.Histogram(std::string("trace.stages.") + name,
                "simrank_stage_duration_seconds", stage_latency_[i].snapshot(),
                PromLabel("stage", name));
  }
  for (uint32_t c = 0; c < kNumTraceCounters; ++c) {
    const char* name = TraceCounterName(static_cast<TraceCounter>(c));
    m.Counter(std::string("trace.counters.") + name,
              "simrank_stage_counter_total",
              stage_counters_[c].load(std::memory_order_relaxed),
              PromLabel("counter", name));
  }

  if (updater_ != nullptr) {
    const IndexUpdateStats updates = updater_->stats();
    m.Counter("updates.batches_applied", "simrank_update_batches_total",
              updates.batches_applied)
        .Counter("updates.batches_replayed", "", updates.batches_replayed)
        .Counter("updates.edges_inserted", "simrank_update_edges_total",
                 updates.edges_inserted, PromLabel("op", "insert"))
        .Counter("updates.edges_deleted", "simrank_update_edges_total",
                 updates.edges_deleted, PromLabel("op", "delete"))
        .Counter("updates.walks_resimulated",
                 "simrank_update_walks_resimulated_total",
                 updates.walks_resimulated)
        .Counter("updates.walks_changed", "", updates.walks_changed)
        .Counter("updates.rows_invalidated",
                 "simrank_update_rows_invalidated_total",
                 updates.rows_invalidated)
        .Gauge("updates.overlay_sequence", "simrank_overlay_sequence",
               updates.overlay_sequence)
        .Gauge("updates.patched_vertices", "simrank_overlay_patched_vertices",
               updates.patched_vertices)
        .Gauge("updates.patched_walks", "simrank_overlay_patches",
               updates.patched_walks)
        .Gauge("updates.changed_slots", "", updates.changed_slots)
        .Gauge("updates.delta_entries", "simrank_overlay_delta_entries",
               updates.delta_entries)
        .Gauge("updates.overlay_bytes", "simrank_overlay_bytes",
               updates.overlay_bytes)
        .Gauge("updates.graph_edges", "", updates.graph_edges)
        .Info("updates.graph_fingerprint",
              FormatFingerprint(updates.current_graph_fingerprint))
        .Gauge("updates.wal_records", "simrank_wal_records",
               updates.wal_records)
        .Gauge("updates.wal_bytes", "simrank_wal_bytes", updates.wal_bytes)
        .Counter("updates.wal_syncs", "simrank_wal_syncs_total",
                 updates.wal_syncs)
        .Counter("updates.wal_truncated_bytes", "",
                 updates.wal_truncated_bytes)
        .Counter("updates.compaction.completed", "simrank_compactions_total",
                 updates.compactions)
        .Counter("updates.compaction.auto_triggered",
                 "simrank_auto_compactions_total", updates.auto_compactions)
        .Counter("updates.compaction.auto_failures",
                 "simrank_auto_compact_failures_total",
                 updates.auto_compact_failures)
        .Duration("updates.compaction.last_total_us", "",
                  updates.last_compaction_micros)
        .Duration("updates.compaction.last_pause_us",
                  "simrank_compaction_pause_seconds",
                  updates.last_compaction_pause_micros)
        // Durations of completed compactions (manual + auto).
        .Histogram("updates.compaction",
                   "simrank_compaction_duration_seconds",
                   updater_->compaction_histogram().snapshot());
  }

  const bool clustered = options_.sharded || options_.replica;
  if (clustered) {
    m.Info("cluster.role", options_.replica ? "replica" : "primary")
        .Gauge("", "simrank_shard_replica", options_.replica ? 1 : 0);
    if (options_.sharded) {
      const ShardRange& range =
          options_.shard_plan.shards[options_.shard_id];
      m.Gauge("cluster.shard_id", "simrank_shard_id", options_.shard_id)
          .Gauge("cluster.vertex_begin", "simrank_shard_vertex_begin",
                 range.begin)
          .Gauge("cluster.vertex_end", "simrank_shard_vertex_end", range.end)
          .Gauge("cluster.plan_epoch", "simrank_shard_plan_epoch",
                 options_.shard_plan.epoch)
          .Info("cluster.plan_shards", options_.shard_plan.shards.size());
    }
  }
  // One pin for the index rows: the store named below is the one that
  // serves, also after a compaction replaced the load-time one.
  const WalkIndex::Snapshot serving = index.snapshot();
  m.Gauge(clustered ? "cluster.overlay_sequence" : "",
          "simrank_overlay_sequence_current",
          serving.overlay == nullptr ? 0 : serving.overlay->sequence())
      .Gauge("index.vertices", "simrank_index_vertices", index.n())
      .Info("index.fingerprints", index.options().num_fingerprints)
      .Info("index.walk_length", index.options().walk_length)
      .Info("index.damping", index.options().damping)
      .Info("index.seed", index.options().seed)
      .Info("index.graph_fingerprint",
            FormatFingerprint(index.graph_fingerprint()))
      .Info("index.backend", serving.store->backend_name())
      .Gauge("", "simrank_index_info", 1,
             PromLabel("backend", serving.store->backend_name()))
      .Info("index.simd", SimdLevelName(ActiveSimdLevel()))
      .Info("index.io_uring", false)
      .Gauge("index.resident_bytes", "simrank_index_resident_bytes",
             serving.store->ResidentBytes());
  return m;
}

namespace {

uint64_t WallClockMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string SimRankServer::BuildSlowBody() const {
  // Hand-built (not JsonWriter): the captured traces are already
  // serialized JSON objects and are embedded verbatim.
  const std::vector<SlowQueryEntry> entries = slow_log_.Snapshot();
  std::string out = StrFormat(
      "{\"capacity\":%zu,\"total_recorded\":%llu,\"threshold_us\":%llu,"
      "\"entries\":[",
      slow_log_.capacity(),
      static_cast<unsigned long long>(slow_log_.total_recorded()),
      static_cast<unsigned long long>(options_.slow_query_us));
  for (size_t i = 0; i < entries.size(); ++i) {
    const SlowQueryEntry& entry = entries[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"unix_micros\":%llu,\"duration_us\":%llu,\"trace_id\":\"%s\","
        "\"target\":\"",
        static_cast<unsigned long long>(entry.unix_micros),
        static_cast<unsigned long long>(entry.duration_micros),
        TraceIdToHex(entry.trace_id).c_str());
    JsonEscape(entry.target, &out);
    out += "\",\"trace\":";
    out += entry.trace_json;
    out += '}';
  }
  out += "]}";
  return out;
}

void SimRankServer::FinishQuery(ServerEndpoint endpoint,
                                const QueryArgs& args,
                                std::chrono::steady_clock::time_point started,
                                const TraceRecorder* recorder,
                                Completion* completion) {
  const auto elapsed_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  latency_[static_cast<size_t>(endpoint)].Record(elapsed_us);
  if (recorder == nullptr) return;
  stat_traced_requests_.fetch_add(1, std::memory_order_relaxed);
  FoldTrace(*recorder);
  const bool slow =
      options_.slow_query_us > 0 && elapsed_us >= options_.slow_query_us;
  const bool sampled_capture =
      args.trace_sampled && options_.slow_query_us == 0;
  if (slow || sampled_capture) {
    CaptureTrace(*recorder, args.target, elapsed_us);
  }
  std::string& body = completion->body;
  if (args.trace_inline && body.size() > 2 && body.front() == '{' &&
      body.back() == '}') {
    // Splice the trace into the JSON envelope. Only the explicit ?trace=1
    // opt-in ever changes a response body.
    body.insert(body.size() - 1, ",\"trace\":" + recorder->ToJson());
  }
  if (args.trace_header) {
    completion->headers.emplace_back("X-Simrank-Trace-Json",
                                     recorder->ToJson());
  }
}

void SimRankServer::FoldTrace(const TraceRecorder& recorder) {
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
}

void SimRankServer::CaptureTrace(const TraceRecorder& recorder,
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

void SimRankServer::LogAccess(const Connection& conn, int status,
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
