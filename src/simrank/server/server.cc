#include "simrank/server/server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/simd.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"

namespace simrank {
namespace internal {

/// Which /internal/* exchange op a dispatch carries (kNone for the public
/// endpoints). Internal ops share the public endpoints' admission
/// classes: walks and row count against single_source, pair against pair.
enum class InternalOp : uint8_t { kNone, kWalks, kRow, kPair };

/// Parsed arguments of one dispatchable query: the public parameters plus
/// what the internal ops and the worker need. Only the fields of the
/// request's endpoint are meaningful. POST bodies travel raw and are
/// parsed in the worker, so a large batch never stalls the event loop.
struct QueryArgs : PublicQuery {
  InternalOp internal = InternalOp::kNone;
  /// Overlay sequence the router pinned this exchange to (internal ops
  /// except walks): the shard answers 409 when its published sequence
  /// differs, so a scatter-gather never merges mixed-version slices.
  uint64_t seq = 0;
  /// /internal/walks' optional `stamp`: the version of the router's
  /// cached row, answered 304 while this shard still serves it.
  std::optional<ShardVersion> stamp;
  std::string body;
  /// Decided on the loop thread, so the worker needs no access to the
  /// request.
  TraceRequest trace;
};

}  // namespace internal

namespace {

using internal::InternalOp;
using internal::QueryArgs;

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

std::pair<int, std::string> ExecutePair(QueryEngine& engine,
                                        const QueryArgs& args) {
  auto score = engine.Pair(args.a, args.b);
  if (!score.ok()) return EngineErrorResponse(score.status());
  TraceScope serialize(TraceStage::kSerialize);
  return {200, PairBody(args.a, args.b, *score)};
}

std::pair<int, std::string> ExecuteSingleSource(QueryEngine& engine,
                                                const QueryArgs& args) {
  auto row = engine.SingleSource(args.v);
  if (!row.ok()) return EngineErrorResponse(row.status());
  TraceScope serialize(TraceStage::kSerialize);
  return {200, SingleSourceBody(args.v, **row)};
}

std::pair<int, std::string> ExecuteTopK(QueryEngine& engine,
                                        const QueryArgs& args) {
  auto top = engine.TopK(args.v, args.k);
  if (!top.ok()) return EngineErrorResponse(top.status());
  TraceScope serialize(TraceStage::kSerialize);
  return {200, TopKBody(args.v, args.k, *top)};
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

std::string PairBody(VertexId a, VertexId b, double score) {
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

std::string SingleSourceBody(VertexId v, const SparseRow& row) {
  JsonWriter json;
  json.BeginObject().Key("v").Uint(v).Key("scores").BeginArray();
  auto listed = row.entries.begin();
  for (VertexId b = 0; b < row.n; ++b) {
    const bool hit = listed != row.entries.end() && listed->vertex == b;
    json.Double(hit ? (listed++)->score : 0.0);
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string TopKBody(VertexId v, uint32_t k,
                     std::span<const ScoredVertex> top) {
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
  return json.str();
}

std::string BatchPairBody(std::span<const double> scores) {
  JsonWriter json;
  json.BeginObject()
      .Key("count")
      .Uint(scores.size())
      .Key("scores")
      .BeginArray();
  for (const double score : scores) json.Double(score);
  json.EndArray().EndObject();
  return json.str();
}

std::string UpdateBody(const std::array<uint64_t, 5>& counts,
                       std::string_view graph_fingerprint) {
  JsonWriter json;
  json.BeginObject()
      .Key("applied")
      .Uint(counts[0])
      .Key("sequence")
      .Uint(counts[1])
      .Key("patched_vertices")
      .Uint(counts[2])
      .Key("changed_slots")
      .Uint(counts[3])
      .Key("graph_fingerprint")
      .String(graph_fingerprint)
      .Key("wal_records")
      .Uint(counts[4])
      .EndObject();
  return json.str();
}

namespace {
constexpr size_t kRowRecordBytes = sizeof(uint32_t) + sizeof(double);
}  // namespace

std::string EncodeRowSlice(const SparseRow& row, VertexId begin,
                           VertexId end) {
  auto before_id = [](const ScoredVertex& e, VertexId id) {
    return e.vertex < id;
  };
  const auto first = std::lower_bound(row.entries.begin(), row.entries.end(),
                                      begin, before_id);
  const auto last = std::lower_bound(first, row.entries.end(), end, before_id);
  std::string frame(static_cast<size_t>(last - first) * kRowRecordBytes, '\0');
  char* record = frame.data();
  for (auto it = first; it != last; ++it, record += kRowRecordBytes) {
    std::memcpy(record, &it->vertex, sizeof(uint32_t));
    std::memcpy(record + sizeof(uint32_t), &it->score, sizeof(double));
  }
  return frame;
}

Status AppendRowSlice(std::string_view frame, VertexId begin, VertexId end,
                      SparseRow* row) {
  if (frame.size() % kRowRecordBytes != 0) {
    return Status::ParseError(StrFormat(
        "a %zu-byte frame is not a whole number of %zu-byte records",
        frame.size(), kRowRecordBytes));
  }
  for (size_t at = 0; at < frame.size(); at += kRowRecordBytes) {
    ScoredVertex scored;
    std::memcpy(&scored.vertex, frame.data() + at, sizeof(uint32_t));
    std::memcpy(&scored.score, frame.data() + at + sizeof(uint32_t),
                sizeof(double));
    if (scored.vertex < begin || scored.vertex >= end) {
      return Status::ParseError(
          StrFormat("vertex %u is outside the slice [%u, %u)", scored.vertex,
                    begin, end));
    }
    // Earlier frames list only vertices below `begin`.
    if (!row->entries.empty() && scored.vertex <= row->entries.back().vertex) {
      return Status::ParseError(
          StrFormat("vertex %u follows vertex %u: not strictly ascending",
                    scored.vertex, row->entries.back().vertex));
    }
    row->entries.push_back(scored);
  }
  return Status::OK();
}

std::string FormatShardVersion(const ShardVersion& version) {
  return StrFormat("%llu-%s-%llu",
                   static_cast<unsigned long long>(version.epoch),
                   FormatFingerprint(version.fingerprint).c_str(),
                   static_cast<unsigned long long>(version.sequence));
}

bool ParseShardVersion(std::string_view text, ShardVersion* out) {
  const std::vector<std::string> parts = StrSplit(text, '-');
  ShardVersion version;
  if (parts.size() != 3 || !ParseUint64(parts[0], &version.epoch) ||
      !ParseFingerprint(parts[1], &version.fingerprint) ||
      !ParseUint64(parts[2], &version.sequence)) {
    return false;
  }
  *out = version;
  return true;
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
  std::vector<double> scores;
  scores.reserve(pairs->size());
  for (const auto& answer : engine.BatchPair(*pairs)) {
    if (!answer.ok()) return EngineErrorResponse(answer.status());
    scores.push_back(*answer);
  }
  TraceScope serialize(TraceStage::kSerialize);
  return {200, BatchPairBody(scores)};
}

std::pair<int, std::string> ExecuteUpdate(IndexUpdater& updater,
                                          const QueryArgs& args) {
  auto updates = ParseEdgeUpdates(args.body);
  if (!updates.ok()) return EngineErrorResponse(updates.status());
  const Status applied = updater.ApplyUpdates(*updates);
  if (!applied.ok()) return EngineErrorResponse(applied);
  const IndexUpdateStats stats = updater.stats();
  return {200, UpdateBody({updates->size(), stats.overlay_sequence,
                           stats.patched_vertices, stats.changed_slots,
                           stats.wal_records},
                          FormatFingerprint(stats.current_graph_fingerprint))};
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
/// pair the computation uses, pinned in one read, plus the version that
/// answers (the overlay's sequence and graph fingerprint; before the first
/// batch 0 and the index's own fingerprint). Both come off the pinned
/// overlay, so the headers always describe the state that answered.
struct OverlayView {
  WalkIndex::Snapshot at;
  ShardVersion version;
};

OverlayView SnapshotOverlay(const WalkIndex& index,
                            const ServerOptions& options) {
  OverlayView view;
  view.at = index.snapshot();
  const DeltaOverlay* overlay = view.at.overlay.get();
  view.version.epoch = options.shard_plan.epoch;
  view.version.fingerprint = overlay != nullptr ? overlay->graph_fingerprint()
                                                : index.graph_fingerprint();
  view.version.sequence = overlay != nullptr ? overlay->sequence() : 0;
  return view;
}

/// The version headers of every /internal/* answer, which the router
/// cross-checks.
HttpHeaders ExchangeHeaders(const ShardVersion& version) {
  auto text = [](uint64_t value) {
    return StrFormat("%llu", static_cast<unsigned long long>(value));
  };
  return {{"X-Graph-Fingerprint", FormatFingerprint(version.fingerprint)},
          {"X-Overlay-Sequence", text(version.sequence)},
          {"X-Plan-Epoch", text(version.epoch)}};
}

/// The /internal/* exchange ops (shard role only). Bodies are binary —
/// native-endian walk rows in, native-endian scores out — so the doubles
/// that cross the wire are the exact bits the estimators produced; the
/// router's row is then bitwise by construction.
HttpFrontend::Response ExecuteInternal(QueryEngine& engine,
                                       const ServerOptions& options,
                                       const QueryArgs& args) {
  const WalkIndex& index = engine.index();
  const ShardRange& range = options.shard_plan.shards[options.shard_id];
  const OverlayView view = SnapshotOverlay(index, options);
  const WalkStore& store = *view.at.store;
  const DeltaOverlay* overlay = view.at.overlay.get();
  HttpFrontend::Response out;
  out.headers = ExchangeHeaders(view.version);
  const uint32_t n = index.n();
  const size_t words =
      static_cast<size_t>(index.options().num_fingerprints) *
      (index.options().walk_length + 1);

  if (args.internal == InternalOp::kWalks) {
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
  if (args.seq != view.version.sequence) {
    out.status = 409;
    out.body = ErrorBody(
        "Conflict",
        StrFormat("overlay sequence moved: request pinned %llu, serving "
                  "%llu; re-fetch the row and retry",
                  static_cast<unsigned long long>(args.seq),
                  static_cast<unsigned long long>(view.version.sequence)));
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

  if (args.internal == InternalOp::kPair) {
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
  // kRow: this shard's slice of v's row. Only v's owner lists v itself.
  out.status = 200;
  out.content_type = "application/octet-stream";
  out.body = EncodeRowSlice(
      index.EstimateSingleSourceWithRow(args.v, row, store, overlay),
      range.begin, range.end);
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
std::string BuildWalStreamBody(const IndexUpdater& updater, uint64_t from,
                               const std::vector<WalRecord>& records) {
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

namespace {

struct EndpointNames {
  const char* path;
  const char* name;
};
constexpr EndpointNames kEndpoints[kNumServerEndpoints] = {
    {"/v1/pair", "pair"},
    {"/v1/single_source", "single_source"},
    {"/v1/topk", "topk"},
    {"/v1/batch_pair", "batch_pair"},
    {"/v1/update", "update"},
    {"/v1/compact", "compact"},
};

}  // namespace

const char* ServerEndpointPath(ServerEndpoint endpoint) {
  return kEndpoints[static_cast<size_t>(endpoint)].path;
}

const char* ServerEndpointName(ServerEndpoint endpoint) {
  return kEndpoints[static_cast<size_t>(endpoint)].name;
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

SimRankServer::SimRankServer(QueryEngine& engine,
                             const ServerOptions& options,
                             IndexUpdater* updater)
    : engine_(engine),
      options_(options),
      updater_(updater),
      frontend_(
          options_, [this] { return CollectStats(); },
          [this] { return CollectStats().Families(); }) {
  static_assert(kNumServerEndpoints <= HttpFrontend::kMaxAdmissionClasses);
  frontend_.AddRoutes(Routes());
}

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
  return frontend_.Bind();
}

std::vector<HttpFrontend::Route> SimRankServer::Routes() {
  // A query route's admission class is its endpoint.
  auto query = [this](InternalOp op) {
    return [this, op](Connection* conn, const HttpRequest& request,
                      int admission) {
      DispatchQuery(conn, request, static_cast<ServerEndpoint>(admission), op);
    };
  };
  std::vector<HttpFrontend::Route> routes;
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    const auto endpoint = static_cast<ServerEndpoint>(i);
    const bool post = endpoint == ServerEndpoint::kBatchPair ||
                      endpoint == ServerEndpoint::kUpdate ||
                      endpoint == ServerEndpoint::kCompact;
    routes.push_back({ServerEndpointPath(endpoint), post ? "POST" : "GET",
                      static_cast<int>(i), query(InternalOp::kNone)});
  }
  // The /internal/* exchange endpoints exist only in the shard role; a
  // standalone server 404s them like any unknown path. Each rides the
  // public admission class of the work it stands in for: walk-row fetch
  // and row slice under single_source (a slice costs the same for
  // /v1/single_source and /v1/topk), one-sided pair under pair.
  if (options_.sharded) {
    const std::pair<const char*, InternalOp> ops[] = {
        {"/internal/walks", InternalOp::kWalks},
        {"/internal/row", InternalOp::kRow},
        {"/internal/pair", InternalOp::kPair}};
    for (const auto& [path, op] : ops) {
      const ServerEndpoint endpoint = op == InternalOp::kPair
                                          ? ServerEndpoint::kPair
                                          : ServerEndpoint::kSingleSource;
      routes.push_back({path, op == InternalOp::kWalks ? "GET" : "POST",
                        static_cast<int>(endpoint), query(op)});
    }
  }
  routes.push_back(
      {"/v1/wal", "GET", HttpFrontend::kNoAdmission,
       [this](Connection* conn, const HttpRequest& request, int) {
         stat_requests_wal_.fetch_add(1, std::memory_order_relaxed);
         if (updater_ == nullptr) {
           frontend_.Answer(conn, 503,
                            ErrorBody("Unavailable",
                                      "this server keeps no WAL (started "
                                      "without --graph/--wal); nothing to "
                                      "ship"));
           return;
         }
         uint64_t from = 0;
         uint64_t fingerprint = 0;
         const std::string* raw = request.FindParam("from");
         const std::string* raw_fingerprint = request.FindParam("fingerprint");
         if (raw != nullptr && !ParseUint64(*raw, &from)) {
           frontend_.AnswerError(conn, 400,
                                 "parameter 'from' must be a record index");
           return;
         }
         if (raw_fingerprint != nullptr &&
             !ParseFingerprint(*raw_fingerprint, &fingerprint)) {
           frontend_.AnswerError(conn, 400,
                                 "parameter 'fingerprint' must be a graph "
                                 "fingerprint (16 hex digits)");
           return;
         }
         // Served inline: WalRecordsFrom copies under its own mutex and
         // never waits behind a patch, so a replica's poll cadence cannot
         // be starved by busy workers.
         auto records = updater_->WalRecordsFrom(from, fingerprint);
         if (!records.ok()) {
           frontend_.Answer(conn, 409, ErrorBody("Conflict",
                                                 records.status().message()));
           return;
         }
         frontend_.Answer(conn, 200,
                          BuildWalStreamBody(*updater_, from, *records), {},
                          "text/plain");
       }});
  routes.push_back(
      {"/v1/debug/slow", "GET", HttpFrontend::kNoAdmission,
       [this](Connection* conn, const HttpRequest&, int) {
         stat_requests_debug_slow_.fetch_add(1, std::memory_order_relaxed);
         frontend_.Answer(conn, 200, BuildSlowBody());
       }});
  if (options_.debug_stall_limit_ms > 0) {
    // Test-only (armed by --debug-stall-limit-ms): block the loop thread
    // itself so watchdog stall detection can be exercised deterministically.
    routes.push_back(
        {"/v1/debug/stall", "GET", HttpFrontend::kNoAdmission,
         [this](Connection* conn, const HttpRequest& request, int) {
           uint64_t ms = options_.debug_stall_limit_ms;
           const std::string* raw_ms = request.FindParam("ms");
           if (raw_ms != nullptr && !ParseUint64(*raw_ms, &ms)) {
             frontend_.AnswerError(
                 conn, 400,
                 "parameter 'ms' must be a duration in milliseconds");
             return;
           }
           ms = std::min<uint64_t>(ms, options_.debug_stall_limit_ms);
           std::this_thread::sleep_for(std::chrono::milliseconds(ms));
           frontend_.Answer(conn, 200,
                            StrFormat("{\"stalled_ms\":%llu}",
                                      static_cast<unsigned long long>(ms)));
         }});
  }
  return routes;
}

namespace {

/// Parses the required parameter `name` into `*out` (a vertex id, a k or
/// an overlay sequence), setting a 400-worthy `error` when it is missing,
/// malformed or wider than `*out`.
template <typename T>
bool ParseUintParam(const HttpRequest& request, const char* name, T* out,
                    std::string* error) {
  const std::string* raw = request.FindParam(name);
  if (raw == nullptr) {
    *error = StrFormat("missing required parameter '%s'", name);
    return false;
  }
  uint64_t value = 0;
  if (!ParseUint64(*raw, &value) || value > std::numeric_limits<T>::max()) {
    *error = StrFormat(sizeof(T) == 4
                           ? "parameter '%s' must be a vertex id, got '%s'"
                           : "parameter '%s' must be an unsigned integer, "
                             "got '%s'",
                       name, raw->c_str());
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Parses an /internal/* exchange's parameters into `args`.
bool ParseInternalParams(const HttpRequest& request, InternalOp op,
                         QueryArgs* args, std::string* error) {
  switch (op) {
    case InternalOp::kWalks: {
      if (!CheckAllowedParams(request, {"v", "stamp"}, error) ||
          !ParseUintParam(request, "v", &args->v, error)) {
        return false;
      }
      const std::string* stamp = request.FindParam("stamp");
      if (stamp == nullptr) return true;
      args->stamp.emplace();
      if (!ParseShardVersion(*stamp, &*args->stamp)) {
        *error = StrFormat("parameter 'stamp' must be EPOCH-FINGERPRINT-"
                           "SEQUENCE (FINGERPRINT 16 hex digits), got '%s'",
                           stamp->c_str());
        return false;
      }
      return true;
    }
    case InternalOp::kRow:
      return CheckAllowedParams(request, {"v", "seq"}, error) &&
             ParseUintParam(request, "v", &args->v, error) &&
             ParseUintParam(request, "seq", &args->seq, error);
    case InternalOp::kPair:
      return CheckAllowedParams(request, {"b", "seq"}, error) &&
             ParseUintParam(request, "b", &args->b, error) &&
             ParseUintParam(request, "seq", &args->seq, error);
    case InternalOp::kNone:
      break;
  }
  return false;
}

}  // namespace

Status ParsePublicQuery(const HttpRequest& request, ServerEndpoint endpoint,
                        PublicQuery* out) {
  std::string error;
  bool ok = false;
  switch (endpoint) {
    case ServerEndpoint::kPair:
      ok = CheckAllowedParams(request, {"a", "b", "trace"}, &error) &&
           ParseUintParam(request, "a", &out->a, &error) &&
           ParseUintParam(request, "b", &out->b, &error);
      break;
    case ServerEndpoint::kSingleSource:
      ok = CheckAllowedParams(request, {"v", "trace"}, &error) &&
           ParseUintParam(request, "v", &out->v, &error);
      break;
    case ServerEndpoint::kTopK:
      ok = CheckAllowedParams(request, {"v", "k", "trace"}, &error) &&
           ParseUintParam(request, "v", &out->v, &error) &&
           (request.FindParam("k") == nullptr ||
            ParseUintParam(request, "k", &out->k, &error));
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

void SimRankServer::DispatchQuery(Connection* conn,
                                  const HttpRequest& request,
                                  ServerEndpoint endpoint, InternalOp op) {
  const bool write = endpoint == ServerEndpoint::kUpdate ||
                     endpoint == ServerEndpoint::kCompact;
  if (write && options_.replica) {
    frontend_.Answer(
        conn, 403,
        ErrorBody("Forbidden",
                  "this server is a replica; it applies batches by tailing "
                  "its primary's WAL, never by direct writes"));
    return;
  }
  if (op == InternalOp::kNone && options_.sharded &&
      (endpoint == ServerEndpoint::kSingleSource ||
       endpoint == ServerEndpoint::kTopK)) {
    const ShardRange& range = options_.shard_plan.shards[options_.shard_id];
    if (range.begin != 0 || range.end != engine_.index().n()) {
      frontend_.Answer(
          conn, 421,
          ErrorBody("Misdirected",
                    StrFormat("%s spans every shard; this shard serves "
                              "only [%u, %u) — ask the router",
                              request.path.c_str(), range.begin,
                              range.end)));
      return;
    }
  }
  if (write && updater_ == nullptr) {
    frontend_.Answer(
        conn, 503,
        ErrorBody("Unavailable",
                  "dynamic updates are disabled: the server was started "
                  "without an update log (--graph/--wal)"));
    return;
  }
  const auto slot = static_cast<size_t>(endpoint);
  stat_requests_[slot].fetch_add(1, std::memory_order_relaxed);

  QueryArgs args;
  args.internal = op;
  std::string error;
  bool params_ok = false;
  if (op != InternalOp::kNone) {
    params_ok = ParseInternalParams(request, op, &args, &error);
  } else {
    const Status parsed = ParsePublicQuery(request, endpoint, &args);
    params_ok = parsed.ok();
    if (!params_ok) error = parsed.message();
  }
  args.body = request.body;
  if (!params_ok) {
    frontend_.AnswerError(conn, 400, error);
    return;
  }
  frontend_.ActivateTrace(conn, request, args.trace_inline, &args.trace);
  if (options_.sharded && op == InternalOp::kNone &&
      endpoint == ServerEndpoint::kPair) {
    // A shard's pair answer is exact only when both rows are local.
    const ShardRange& range =
        options_.shard_plan.shards[options_.shard_id];
    if (!range.Contains(args.a) || !range.Contains(args.b)) {
      frontend_.Answer(
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
  // What costs no computing is answered here, with no worker hand-off and
  // no admission (like /healthz): a pair or a top-k whose answer sits in a
  // fresh cached row (a binary search or a bounded selection over the
  // row's nonzeros), and a walk-row revalidation this shard answers 304. A
  // miss, and every other query, goes to the pool.
  if (AnswerOnLoop(conn, endpoint, args, dispatched_at)) return;
  if (!frontend_.Admit(conn, static_cast<int>(slot),
                       ServerEndpointPath(endpoint))) {
    return;
  }
  // One clock read per *traced* dispatch; untraced requests skip it.
  const uint64_t dispatch_ns = args.trace.traced() ? TraceNowNanos() : 0;
  frontend_.Submit(
      frontend_.Park(conn), static_cast<int>(slot), dispatched_at,
      [this, endpoint, dispatched_at, dispatch_ns, args = std::move(args)] {
        // After the queue wait is recorded, so tests measure real
        // scheduling, not the injection.
        if (options_.handler_delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options_.handler_delay_ms));
        }
        const bool traced = args.trace.traced();
        std::optional<TraceRecorder> recorder;
        if (traced) recorder.emplace(args.trace.id);
        HttpFrontend::Response response;
        {
          // Bound for the duration of the query: every TraceScope/TraceAdd
          // down in the engine lands in this recorder (or no-ops when
          // null).
          TraceBinding binding(traced ? &*recorder : nullptr);
          if (traced) {
            recorder->AddCompletedSpan(TraceStage::kQueueWait, dispatch_ns,
                                       TraceNowNanos() - dispatch_ns);
          }
          TraceScope root(TraceStage::kRequest, ServerEndpointName(endpoint));
          if (args.internal != InternalOp::kNone) {
            response = ExecuteInternal(engine_, options_, args);
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
            response.status = result.first;
            response.body = std::move(result.second);
          }
        }
        FinishQuery(endpoint, args, dispatched_at,
                    traced ? &*recorder : nullptr, &response);
        return response;
      });
}

bool SimRankServer::AnswerOnLoop(
    Connection* conn, ServerEndpoint endpoint, const QueryArgs& args,
    std::chrono::steady_clock::time_point started) {
  const bool revalidation = args.internal == InternalOp::kWalks;
  if (revalidation ? !args.stamp.has_value()
                   : args.internal != InternalOp::kNone ||
                         (endpoint != ServerEndpoint::kPair &&
                          endpoint != ServerEndpoint::kTopK)) {
    return false;
  }
  // Traced like the worker path, minus its queue_wait span.
  const bool traced = args.trace.traced();
  std::optional<TraceRecorder> recorder;
  if (traced) recorder.emplace(args.trace.id);
  HttpFrontend::Response response(200, {});
  {
    TraceBinding binding(traced ? &*recorder : nullptr);
    TraceScope root(TraceStage::kRequest, ServerEndpointName(endpoint));
    if (revalidation) {
      // The router's cached row of v is still this shard's while the
      // snapshot it would answer from has the row's version. A vertex
      // outside the range gets the worker's 421, a moved version its 200
      // walk row.
      const OverlayView view = SnapshotOverlay(engine_.index(), options_);
      if (!options_.shard_plan.shards[options_.shard_id].Contains(args.v) ||
          view.version != *args.stamp) {
        return false;
      }
      response.status = 304;
      response.headers = ExchangeHeaders(view.version);
    } else if (endpoint == ServerEndpoint::kPair) {
      const std::optional<double> score =
          engine_.PairFromCache(args.a, args.b);
      if (!score.has_value()) return false;
      TraceScope serialize(TraceStage::kSerialize);
      response.body = PairBody(args.a, args.b, *score);
    } else {
      const std::optional<std::vector<ScoredVertex>> top =
          engine_.TopKFromCache(args.v, args.k);
      if (!top.has_value()) return false;
      TraceScope serialize(TraceStage::kSerialize);
      response.body = TopKBody(args.v, args.k, *top);
    }
  }
  FinishQuery(endpoint, args, started, traced ? &*recorder : nullptr,
              &response);
  // The connection is not parked: pipelined requests behind this one are
  // parsed in the same pass, and their responses queue after this one.
  frontend_.Answer(conn, response);
  return true;
}

void SimRankServer::FinishQuery(ServerEndpoint endpoint,
                                const QueryArgs& args,
                                std::chrono::steady_clock::time_point started,
                                const TraceRecorder* recorder,
                                HttpFrontend::Response* response) {
  const auto elapsed_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  latency_[static_cast<size_t>(endpoint)].Record(elapsed_us);
  if (recorder != nullptr) {
    frontend_.FinishTrace(args.trace, elapsed_us, *recorder, response);
  }
}

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
  auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  const FrontendCounters& frontend = frontend_.counters();
  ServerStats stats;
  for (uint32_t i = 0; i < kNumServerEndpoints; ++i) {
    stats.requests[i] = load(stat_requests_[i]);
  }
  stats.requests_stats = load(frontend.requests_stats);
  stats.requests_healthz = load(frontend.requests_healthz);
  stats.requests_metrics = load(frontend.requests_metrics);
  stats.requests_wal = load(stat_requests_wal_);
  stats.requests_debug_slow = load(stat_requests_debug_slow_);
  stats.requests_debug_profile = load(frontend.requests_debug_profile);
  stats.requests_debug_timeseries = load(frontend.requests_debug_timeseries);
  stats.traced_requests = load(frontend.traced_requests);
  stats.slow_captured = frontend_.slow_log().total_recorded();
  stats.responses_2xx = load(frontend.responses_2xx);
  stats.responses_4xx = load(frontend.responses_4xx);
  stats.responses_5xx = load(frontend.responses_5xx);
  stats.rejected_inflight = load(frontend.rejected_inflight);
  stats.rejected_endpoint = load(frontend.rejected_endpoint);
  stats.rejected_misdirected = load(frontend.rejected_misdirected);
  stats.connections_accepted = load(frontend.connections_accepted);
  stats.connections_open = load(frontend.connections_open);
  stats.inflight = load(frontend.inflight);
  return stats;
}

MetricSet SimRankServer::CollectStats() const {
  const ServerStats stats = this->stats();
  const QueryEngine::CacheStats cache = engine_.cache_stats();
  const WalkIndex& index = engine_.index();
  MetricSet m;
  m.Gauge("server.inflight", "simrank_inflight", stats.inflight)
      .Info("server.max_inflight", options_.max_inflight)
      .Info("server.max_endpoint_inflight", options_.max_endpoint_inflight)
      .Info("server.threads", frontend_.num_threads())
      .Info("server.draining", frontend_.draining())
      .Gauge("server.uptime_seconds", "simrank_uptime_seconds",
             UptimeSeconds());
  CollectBuildInfo(m);

  const Watchdog::Snapshot dog = frontend_.watchdog_snapshot();
  m.Info("watchdog.armed", options_.watchdog_interval_ms > 0)
      .Duration("watchdog.loop_lag_us", "simrank_loop_lag_seconds",
                dog.loop_lag_us)
      .Duration("watchdog.max_loop_lag_us", "simrank_loop_lag_max_seconds",
                dog.max_loop_lag_us)
      .Gauge("watchdog.queue_depth", "simrank_queue_depth", dog.queue_depth)
      .Gauge("watchdog.max_queue_depth", "simrank_queue_depth_max",
             dog.max_queue_depth)
      .Counter("watchdog.stalls", "simrank_loop_stalls_total", dog.stalls)
      .Duration("watchdog.last_stall_us", "simrank_loop_last_stall_seconds",
                dog.last_stall_us)
      // Dispatch-to-start latency: the queue wait workers observed.
      .Histogram("watchdog.dispatch_latency_us",
                 "simrank_dispatch_latency_seconds",
                 frontend_.dispatch_latency());
  ProcessMemoryStats memory;
  if (ReadProcessMemoryStats(&memory)) {
    m.Gauge("process_memory.resident_bytes", "simrank_resident_bytes",
            memory.resident_bytes)
        .Gauge("process_memory.virtual_bytes", "simrank_virtual_bytes",
               memory.virtual_bytes)
        .Gauge("process_memory.peak_resident_bytes",
               "simrank_peak_resident_bytes", memory.peak_resident_bytes)
        .Gauge("process_memory.data_bytes", "simrank_data_bytes",
               memory.data_bytes);
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
               cache.restamped)
      .Gauge("cache.rows", "simrank_cache_rows", cache.rows)
      .Gauge("cache.resident_bytes", "simrank_cache_resident_bytes",
             cache.resident_bytes);
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
      .Info("trace.slow_ring_capacity", frontend_.slow_log().capacity());
  for (uint32_t i = 0; i < kNumTraceStages; ++i) {
    const auto stage = static_cast<TraceStage>(i);
    const char* name = TraceStageName(stage);
    m.Histogram(std::string("trace.stages.") + name,
                "simrank_stage_duration_seconds",
                frontend_.stage_latency(stage), PromLabel("stage", name));
  }
  for (uint32_t c = 0; c < kNumTraceCounters; ++c) {
    const auto counter = static_cast<TraceCounter>(c);
    const char* name = TraceCounterName(counter);
    m.Counter(std::string("trace.counters.") + name,
              "simrank_stage_counter_total", frontend_.stage_counter(counter),
              PromLabel("counter", name));
  }

  if (updater_ != nullptr) {
    const IndexUpdateStats updates = updater_->stats();
    m.Counter("updates.batches_applied", "simrank_update_batches_total",
              updates.batches_applied)
        .Counter("updates.batches_replayed",
                 "simrank_update_batches_replayed_total",
                 updates.batches_replayed)
        .Counter("updates.edges_inserted", "simrank_update_edges_total",
                 updates.edges_inserted, PromLabel("op", "insert"))
        .Counter("updates.edges_deleted", "simrank_update_edges_total",
                 updates.edges_deleted, PromLabel("op", "delete"))
        .Counter("updates.walks_resimulated",
                 "simrank_update_walks_resimulated_total",
                 updates.walks_resimulated)
        .Counter("updates.walks_changed", "simrank_update_walks_changed_total",
                 updates.walks_changed)
        .Counter("updates.rows_invalidated",
                 "simrank_update_rows_invalidated_total",
                 updates.rows_invalidated)
        .Gauge("updates.overlay_sequence", "simrank_overlay_sequence",
               updates.overlay_sequence)
        .Gauge("updates.patched_vertices", "simrank_overlay_patched_vertices",
               updates.patched_vertices)
        .Gauge("updates.patched_walks", "simrank_overlay_patches",
               updates.patched_walks)
        .Gauge("updates.changed_slots", "simrank_overlay_changed_slots",
               updates.changed_slots)
        .Gauge("updates.delta_entries", "simrank_overlay_delta_entries",
               updates.delta_entries)
        .Gauge("updates.overlay_bytes", "simrank_overlay_bytes",
               updates.overlay_bytes)
        .Gauge("updates.graph_edges", "simrank_graph_edges",
               updates.graph_edges)
        .Info("updates.graph_fingerprint",
              FormatFingerprint(updates.current_graph_fingerprint))
        .Gauge("updates.wal_records", "simrank_wal_records",
               updates.wal_records)
        .Gauge("updates.wal_bytes", "simrank_wal_bytes", updates.wal_bytes)
        .Counter("updates.wal_syncs", "simrank_wal_syncs_total",
                 updates.wal_syncs)
        .Counter("updates.wal_truncated_bytes",
                 "simrank_wal_truncated_bytes_total",
                 updates.wal_truncated_bytes)
        .Counter("updates.compaction.completed", "simrank_compactions_total",
                 updates.compactions)
        .Counter("updates.compaction.auto_triggered",
                 "simrank_auto_compactions_total", updates.auto_compactions)
        .Counter("updates.compaction.auto_failures",
                 "simrank_auto_compact_failures_total",
                 updates.auto_compact_failures)
        .Duration("updates.compaction.last_total_us",
                  "simrank_compaction_last_duration_seconds",
                  updates.last_compaction_micros)
        .Duration("updates.compaction.last_pause_us",
                  "simrank_compaction_pause_seconds",
                  updates.last_compaction_pause_micros)
        // Durations of completed compactions (manual + auto).
        .Histogram("updates.compaction",
                   "simrank_compaction_duration_seconds",
                   updater_->compaction_histogram().snapshot());
    if (options_.replica) {
      // A halted WAL tailer leaves this replica serving a graph its
      // primary has moved past; a scraping router reads the gauge.
      m.Gauge("replication.halted", "simrank_replication_halted",
              updates.replication_halted ? 1 : 0)
          .Info("replication.last_error", updates.replication_error);
    }
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

std::string SimRankServer::BuildSlowBody() const {
  // Hand-built (not JsonWriter): the captured traces are already
  // serialized JSON objects and are embedded verbatim.
  const SlowQueryLog& slow_log = frontend_.slow_log();
  const std::vector<SlowQueryEntry> entries = slow_log.Snapshot();
  std::string out = StrFormat(
      "{\"capacity\":%zu,\"total_recorded\":%llu,\"threshold_us\":%llu,"
      "\"entries\":[",
      slow_log.capacity(),
      static_cast<unsigned long long>(slow_log.total_recorded()),
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

}  // namespace simrank
