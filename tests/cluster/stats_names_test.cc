// Golden names of the stats surfaces. A standalone server with an updater,
// a sharded primary, its WAL-tailing replica and a scraping router run a
// fixed script; then every /v1/stats key path and every /metrics family
// (type and label set) each of them exports is compared against the lists
// below. Dashboards and scrapers key on these names, so the lists may only
// gain lines: a name that disappears is a break, not a cleanup.
//
// List format: a 4-character surface tag, a space, then the name. The tag
// has S (standalone server), P (shard primary), R (replica) and T (router)
// in fixed positions, '-' where the surface does not export the name.
// /metrics lines are "family type {labels}": a histogram family is listed
// once per label set, without its _bucket/_sum/_count suffixes and without
// `le`; the values of simrank_build_info's build labels are ignored ("_").
// The router's fleet section is checked against the P and R lines with
// shard/role labels injected, exactly as the router re-exports them.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "simrank/cluster/router.h"
#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/shard_split.h"
#include "simrank/cluster/wal_tailer.h"
#include "simrank/common/string_util.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/obs/metrics_history.h"
#include "simrank/server/http_client.h"
#include "simrank/server/server.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

enum Surface { kStandalone, kPrimary, kReplica, kRouter, kNumSurfaces };
constexpr char kSurfaceTags[] = "SPRT";

constexpr const char* kStatsPaths = R"(
SPR- admission.rejected_endpoint
SPR- admission.rejected_inflight
SPR- admission.rejected_misdirected
SPRT build_info.build_type
SPRT build_info.compiler
SPRT build_info.cxx_standard
SPRT build_info.io_uring_compiled
SPRT build_info.io_uring_enabled
SPRT build_info.simd
SPRT build_info.version
SPR- cache.evictions
SPR- cache.hits
SPR- cache.misses
SPR- cache.resident_bytes
SPR- cache.restamped
SPR- cache.rows
---T cluster.conflicts_retried
---T cluster.failovers
-PR- cluster.overlay_sequence
-PR- cluster.plan_epoch
-PR- cluster.plan_shards
-PR- cluster.role
---T cluster.scrape_failures
---T cluster.scrape_rounds
---T cluster.shard_errors
-PR- cluster.shard_id
-PR- cluster.vertex_begin
-PR- cluster.vertex_end
SPR- connections.accepted
SPR- connections.open
---T graph_fingerprint
SPR- index.backend
SPR- index.damping
SPR- index.fingerprints
SPR- index.graph_fingerprint
SPR- index.io_uring
SPR- index.resident_bytes
SPR- index.seed
SPR- index.simd
SPR- index.vertices
SPR- index.walk_length
SPR- latency_us.batch_pair.buckets
SPR- latency_us.batch_pair.count
SPR- latency_us.batch_pair.p50_us
SPR- latency_us.batch_pair.p99_us
SPR- latency_us.batch_pair.sum_us
SPR- latency_us.compact.buckets
SPR- latency_us.compact.count
SPR- latency_us.compact.p50_us
SPR- latency_us.compact.p99_us
SPR- latency_us.compact.sum_us
SPR- latency_us.pair.buckets
SPR- latency_us.pair.count
SPR- latency_us.pair.p50_us
SPR- latency_us.pair.p99_us
SPR- latency_us.pair.sum_us
SPR- latency_us.single_source.buckets
SPR- latency_us.single_source.count
SPR- latency_us.single_source.p50_us
SPR- latency_us.single_source.p99_us
SPR- latency_us.single_source.sum_us
SPR- latency_us.topk.buckets
SPR- latency_us.topk.count
SPR- latency_us.topk.p50_us
SPR- latency_us.topk.p99_us
SPR- latency_us.topk.sum_us
SPR- latency_us.update.buckets
SPR- latency_us.update.count
SPR- latency_us.update.p50_us
SPR- latency_us.update.p99_us
SPR- latency_us.update.sum_us
---T n
---T plan_epoch
---T plan_shards
SPR- process_memory.data_bytes
SPR- process_memory.peak_resident_bytes
SPR- process_memory.resident_bytes
SPR- process_memory.virtual_bytes
--R- replication.halted
--R- replication.last_error
SPRT requests.batch_pair
---T requests.cluster_health
SPR- requests.compact
SPRT requests.debug_profile
SPR- requests.debug_slow
SPRT requests.debug_timeseries
SPRT requests.healthz
SPRT requests.metrics
SPRT requests.pair
SPRT requests.single_source
SPRT requests.stats
SPRT requests.topk
---T requests.total
SPRT requests.update
SPR- requests.wal
SPRT responses.2xx
SPRT responses.4xx
SPRT responses.5xx
---T role
SPR- server.draining
SPR- server.inflight
SPR- server.max_endpoint_inflight
SPR- server.max_inflight
SPR- server.threads
SPR- server.uptime_seconds
SPR- trace.counters.bucket_entries
SPR- trace.counters.bytes_read
SPR- trace.counters.cache_hits
SPR- trace.counters.cache_misses
SPR- trace.counters.conflict_retries
SPR- trace.counters.overlay_rows_merged
SPR- trace.counters.rows_decoded
SPR- trace.counters.shards_contacted
SPR- trace.counters.slots_probed
SPR- trace.sample_rate
SPR- trace.slow_captured
SPR- trace.slow_query_us
SPR- trace.slow_ring_capacity
SPR- trace.stages.accumulate.buckets
SPR- trace.stages.accumulate.count
SPR- trace.stages.accumulate.p50_us
SPR- trace.stages.accumulate.p99_us
SPR- trace.stages.accumulate.sum_us
SPR- trace.stages.cache_lookup.buckets
S--- trace.stages.cache_lookup.count
-PR- trace.stages.cache_lookup.count
S--- trace.stages.cache_lookup.p50_us
-PR- trace.stages.cache_lookup.p50_us
S--- trace.stages.cache_lookup.p99_us
-PR- trace.stages.cache_lookup.p99_us
S--- trace.stages.cache_lookup.sum_us
-PR- trace.stages.cache_lookup.sum_us
SPR- trace.stages.cold_read.buckets
SPR- trace.stages.cold_read.count
SPR- trace.stages.cold_read.p50_us
SPR- trace.stages.cold_read.p99_us
SPR- trace.stages.cold_read.sum_us
SPR- trace.stages.decode.buckets
SPR- trace.stages.decode.count
SPR- trace.stages.decode.p50_us
SPR- trace.stages.decode.p99_us
SPR- trace.stages.decode.sum_us
SPR- trace.stages.index_probe.buckets
SP-- trace.stages.index_probe.count
--R- trace.stages.index_probe.count
SP-- trace.stages.index_probe.p50_us
--R- trace.stages.index_probe.p50_us
SP-- trace.stages.index_probe.p99_us
--R- trace.stages.index_probe.p99_us
SP-- trace.stages.index_probe.sum_us
--R- trace.stages.index_probe.sum_us
SPR- trace.stages.merge.buckets
SPR- trace.stages.merge.count
SPR- trace.stages.merge.p50_us
SPR- trace.stages.merge.p99_us
SPR- trace.stages.merge.sum_us
SPR- trace.stages.overlay_merge.buckets
SPR- trace.stages.overlay_merge.count
SPR- trace.stages.overlay_merge.p50_us
SPR- trace.stages.overlay_merge.p99_us
SPR- trace.stages.overlay_merge.sum_us
SPR- trace.stages.queue_wait.buckets
SP-- trace.stages.queue_wait.count
--R- trace.stages.queue_wait.count
SP-- trace.stages.queue_wait.p50_us
--R- trace.stages.queue_wait.p50_us
SP-- trace.stages.queue_wait.p99_us
--R- trace.stages.queue_wait.p99_us
SP-- trace.stages.queue_wait.sum_us
--R- trace.stages.queue_wait.sum_us
SPR- trace.stages.request.buckets
SP-- trace.stages.request.count
--R- trace.stages.request.count
SP-- trace.stages.request.p50_us
--R- trace.stages.request.p50_us
SP-- trace.stages.request.p99_us
--R- trace.stages.request.p99_us
SP-- trace.stages.request.sum_us
--R- trace.stages.request.sum_us
SPR- trace.stages.row_fetch.buckets
SPR- trace.stages.row_fetch.count
SPR- trace.stages.row_fetch.p50_us
SPR- trace.stages.row_fetch.p99_us
SPR- trace.stages.row_fetch.sum_us
SPR- trace.stages.serialize.buckets
S--- trace.stages.serialize.count
-PR- trace.stages.serialize.count
S--- trace.stages.serialize.p50_us
-PR- trace.stages.serialize.p50_us
S--- trace.stages.serialize.p99_us
-PR- trace.stages.serialize.p99_us
S--- trace.stages.serialize.sum_us
-PR- trace.stages.serialize.sum_us
SPR- trace.stages.shard_exchange.buckets
SPR- trace.stages.shard_exchange.count
SPR- trace.stages.shard_exchange.p50_us
SPR- trace.stages.shard_exchange.p99_us
SPR- trace.stages.shard_exchange.sum_us
SPRT trace.traced_requests
SPR- updates.batches_applied
SPR- updates.batches_replayed
SPR- updates.changed_slots
SPR- updates.compaction.auto_failures
SPR- updates.compaction.auto_triggered
SPR- updates.compaction.buckets
SPR- updates.compaction.completed
SPR- updates.compaction.count
SPR- updates.compaction.last_pause_us
SPR- updates.compaction.last_total_us
SPR- updates.compaction.p50_us
SPR- updates.compaction.p99_us
SPR- updates.compaction.sum_us
SPR- updates.delta_entries
SPR- updates.edges_deleted
SPR- updates.edges_inserted
SPR- updates.graph_edges
SPR- updates.graph_fingerprint
SPR- updates.overlay_bytes
SPR- updates.overlay_sequence
SPR- updates.patched_vertices
SPR- updates.patched_walks
SPR- updates.rows_invalidated
SPR- updates.wal_bytes
SPR- updates.wal_records
SPR- updates.wal_syncs
SPR- updates.wal_truncated_bytes
SPR- updates.walks_changed
SPR- updates.walks_resimulated
---T uptime_seconds
SPR- watchdog.armed
SPR- watchdog.dispatch_latency_us.buckets
SPR- watchdog.dispatch_latency_us.count
SPR- watchdog.dispatch_latency_us.p50_us
SPR- watchdog.dispatch_latency_us.p99_us
SPR- watchdog.dispatch_latency_us.sum_us
SPR- watchdog.last_stall_us
SPR- watchdog.loop_lag_us
SPR- watchdog.max_loop_lag_us
SPR- watchdog.max_queue_depth
SPR- watchdog.queue_depth
SPR- watchdog.stalls
)";

constexpr const char* kMetricFamilies = R"(
SPR- simrank_auto_compact_failures_total counter {}
SPR- simrank_auto_compactions_total counter {}
---T simrank_build_info gauge {version="_",compiler="_",build_type="_",simd="_",io_uring="_",role="router"}
SPR- simrank_build_info gauge {version="_",compiler="_",build_type="_",simd="_",io_uring="_"}
SPR- simrank_cache_evictions_total counter {}
SPR- simrank_cache_hits_total counter {}
SPR- simrank_cache_misses_total counter {}
SPR- simrank_cache_resident_bytes gauge {}
SPR- simrank_cache_restamped_total counter {}
SPR- simrank_cache_rows gauge {}
SPR- simrank_compaction_duration_seconds histogram {}
SPR- simrank_compaction_last_duration_seconds gauge {}
SPR- simrank_compaction_pause_seconds gauge {}
SPR- simrank_compactions_total counter {}
SPR- simrank_connections_accepted_total counter {}
SPR- simrank_connections_open gauge {}
SPR- simrank_data_bytes gauge {}
SPR- simrank_dispatch_latency_seconds histogram {}
---T simrank_fleet_scrape_age_seconds gauge {shard="0",role="primary"}
---T simrank_fleet_scrape_age_seconds gauge {shard="0",role="replica"}
---T simrank_fleet_scrape_failures_total counter {}
---T simrank_fleet_scrape_rounds_total counter {}
---T simrank_fleet_target_healthy gauge {shard="0",role="primary"}
---T simrank_fleet_target_healthy gauge {shard="0",role="replica"}
SPR- simrank_graph_edges gauge {}
SPR- simrank_index_info gauge {backend="in-memory"}
SPR- simrank_index_resident_bytes gauge {}
SPR- simrank_index_vertices gauge {}
SPR- simrank_inflight gauge {}
SPR- simrank_loop_lag_max_seconds gauge {}
SPR- simrank_loop_lag_seconds gauge {}
SPR- simrank_loop_last_stall_seconds gauge {}
SPR- simrank_loop_stalls_total counter {}
SPR- simrank_overlay_bytes gauge {}
SPR- simrank_overlay_changed_slots gauge {}
SPR- simrank_overlay_delta_entries gauge {}
SPR- simrank_overlay_patched_vertices gauge {}
SPR- simrank_overlay_patches gauge {}
SPR- simrank_overlay_sequence gauge {}
SPR- simrank_overlay_sequence_current gauge {}
SPR- simrank_peak_resident_bytes gauge {}
SPR- simrank_queue_depth gauge {}
SPR- simrank_queue_depth_max gauge {}
SPR- simrank_rejected_total counter {reason="endpoint"}
SPR- simrank_rejected_total counter {reason="inflight"}
SPR- simrank_rejected_total counter {reason="misdirected"}
--R- simrank_replication_halted gauge {}
SPR- simrank_request_duration_seconds histogram {endpoint="batch_pair"}
SPR- simrank_request_duration_seconds histogram {endpoint="compact"}
SPR- simrank_request_duration_seconds histogram {endpoint="pair"}
SPR- simrank_request_duration_seconds histogram {endpoint="single_source"}
SPR- simrank_request_duration_seconds histogram {endpoint="topk"}
SPR- simrank_request_duration_seconds histogram {endpoint="update"}
SPR- simrank_requests_total counter {endpoint="batch_pair"}
SPR- simrank_requests_total counter {endpoint="compact"}
SPR- simrank_requests_total counter {endpoint="debug_profile"}
SPR- simrank_requests_total counter {endpoint="debug_slow"}
SPR- simrank_requests_total counter {endpoint="debug_timeseries"}
SPR- simrank_requests_total counter {endpoint="healthz"}
SPR- simrank_requests_total counter {endpoint="metrics"}
SPR- simrank_requests_total counter {endpoint="pair"}
SPR- simrank_requests_total counter {endpoint="single_source"}
SPR- simrank_requests_total counter {endpoint="stats"}
SPR- simrank_requests_total counter {endpoint="topk"}
SPR- simrank_requests_total counter {endpoint="update"}
SPR- simrank_requests_total counter {endpoint="wal"}
SPR- simrank_resident_bytes gauge {}
SPR- simrank_responses_total counter {class="2xx"}
SPR- simrank_responses_total counter {class="4xx"}
SPR- simrank_responses_total counter {class="5xx"}
---T simrank_router_conflicts_total counter {}
---T simrank_router_failovers_total counter {}
---T simrank_router_plan_epoch gauge {}
---T simrank_router_requests_total counter {endpoint="batch_pair"}
---T simrank_router_requests_total counter {endpoint="cluster_health"}
---T simrank_router_requests_total counter {endpoint="debug_profile"}
---T simrank_router_requests_total counter {endpoint="debug_timeseries"}
---T simrank_router_requests_total counter {endpoint="healthz"}
---T simrank_router_requests_total counter {endpoint="metrics"}
---T simrank_router_requests_total counter {endpoint="pair"}
---T simrank_router_requests_total counter {endpoint="single_source"}
---T simrank_router_requests_total counter {endpoint="stats"}
---T simrank_router_requests_total counter {endpoint="topk"}
---T simrank_router_requests_total counter {endpoint="update"}
---T simrank_router_resident_bytes gauge {}
---T simrank_router_responses_total counter {class="2xx"}
---T simrank_router_responses_total counter {class="4xx"}
---T simrank_router_responses_total counter {class="5xx"}
---T simrank_router_shard_errors_total counter {}
---T simrank_router_shards gauge {}
---T simrank_router_traced_requests_total counter {}
---T simrank_router_uptime_seconds gauge {}
-PR- simrank_shard_id gauge {}
-PR- simrank_shard_plan_epoch gauge {}
-PR- simrank_shard_replica gauge {}
-PR- simrank_shard_vertex_begin gauge {}
-PR- simrank_shard_vertex_end gauge {}
SPR- simrank_slow_queries_total counter {}
SPR- simrank_stage_counter_total counter {counter="bucket_entries"}
SPR- simrank_stage_counter_total counter {counter="bytes_read"}
SPR- simrank_stage_counter_total counter {counter="cache_hits"}
SPR- simrank_stage_counter_total counter {counter="cache_misses"}
SPR- simrank_stage_counter_total counter {counter="conflict_retries"}
SPR- simrank_stage_counter_total counter {counter="overlay_rows_merged"}
SPR- simrank_stage_counter_total counter {counter="rows_decoded"}
SPR- simrank_stage_counter_total counter {counter="shards_contacted"}
SPR- simrank_stage_counter_total counter {counter="slots_probed"}
SPR- simrank_stage_duration_seconds histogram {stage="accumulate"}
SPR- simrank_stage_duration_seconds histogram {stage="cache_lookup"}
SPR- simrank_stage_duration_seconds histogram {stage="cold_read"}
SPR- simrank_stage_duration_seconds histogram {stage="decode"}
SPR- simrank_stage_duration_seconds histogram {stage="index_probe"}
SPR- simrank_stage_duration_seconds histogram {stage="merge"}
SPR- simrank_stage_duration_seconds histogram {stage="overlay_merge"}
SPR- simrank_stage_duration_seconds histogram {stage="queue_wait"}
SPR- simrank_stage_duration_seconds histogram {stage="request"}
SPR- simrank_stage_duration_seconds histogram {stage="row_fetch"}
SPR- simrank_stage_duration_seconds histogram {stage="serialize"}
SPR- simrank_stage_duration_seconds histogram {stage="shard_exchange"}
SPR- simrank_traced_requests_total counter {}
SPR- simrank_update_batches_replayed_total counter {}
SPR- simrank_update_batches_total counter {}
SPR- simrank_update_edges_total counter {op="delete"}
SPR- simrank_update_edges_total counter {op="insert"}
SPR- simrank_update_rows_invalidated_total counter {}
SPR- simrank_update_walks_changed_total counter {}
SPR- simrank_update_walks_resimulated_total counter {}
SPR- simrank_uptime_seconds gauge {}
SPR- simrank_virtual_bytes gauge {}
SPR- simrank_wal_bytes gauge {}
SPR- simrank_wal_records gauge {}
SPR- simrank_wal_syncs_total counter {}
SPR- simrank_wal_truncated_bytes_total counter {}
)";

using NameSets = std::array<std::set<std::string>, kNumSurfaces>;

NameSets ParseGolden(std::string_view list) {
  NameSets sets;
  for (std::string_view line : StrSplit(list, '\n')) {
    if (line.empty()) continue;
    OIPSIM_CHECK_MSG(line.size() > 5 && line[4] == ' ', "bad golden line %s",
                     std::string(line).c_str());
    for (int s = 0; s < kNumSurfaces; ++s) {
      if (line[s] == kSurfaceTags[s]) {
        sets[s].emplace(line.substr(5));
      } else {
        OIPSIM_CHECK_MSG(line[s] == '-', "bad golden tag in %s",
                         std::string(line).c_str());
      }
    }
  }
  return sets;
}

// ---------------------------------------------------------------------------
// /v1/stats: dotted key paths of every leaf (an array is one leaf).

void SkipString(const std::string& json, size_t* pos) {
  OIPSIM_CHECK(json[*pos] == '"');
  for (++*pos; json[*pos] != '"'; ++*pos) {
    if (json[*pos] == '\\') ++*pos;
  }
  ++*pos;
}

std::string ReadString(const std::string& json, size_t* pos) {
  const size_t begin = *pos + 1;
  SkipString(json, pos);
  return json.substr(begin, *pos - 1 - begin);
}

void SkipScalar(const std::string& json, size_t* pos) {
  while (*pos < json.size() && json[*pos] != ',' && json[*pos] != '}' &&
         json[*pos] != ']') {
    ++*pos;
  }
}

void SkipArray(const std::string& json, size_t* pos) {
  int depth = 0;
  do {
    if (json[*pos] == '"') {
      SkipString(json, pos);
      continue;
    }
    if (json[*pos] == '[' || json[*pos] == '{') ++depth;
    if (json[*pos] == ']' || json[*pos] == '}') --depth;
    ++*pos;
  } while (depth > 0);
}

void CollectPaths(const std::string& json, size_t* pos,
                  const std::string& prefix, std::set<std::string>* out) {
  if (json[*pos] != '{') {
    if (json[*pos] == '"') {
      SkipString(json, pos);
    } else if (json[*pos] == '[') {
      SkipArray(json, pos);
    } else {
      SkipScalar(json, pos);
    }
    out->insert(prefix);
    return;
  }
  ++*pos;  // '{'
  while (json[*pos] != '}') {
    if (json[*pos] == ',') ++*pos;
    const std::string key = ReadString(json, pos);
    OIPSIM_CHECK(json[*pos] == ':');
    ++*pos;
    CollectPaths(json, pos, prefix.empty() ? key : prefix + "." + key, out);
  }
  ++*pos;  // '}'
}

std::set<std::string> StatsPaths(uint16_t port) {
  auto response = HttpGet(port, "/v1/stats");
  OIPSIM_CHECK(response.ok() && response->status == 200);
  std::set<std::string> paths;
  size_t pos = 0;
  CollectPaths(response->body, &pos, "", &paths);
  OIPSIM_CHECK(pos == response->body.size());
  return paths;
}

// ---------------------------------------------------------------------------
// /metrics: one "family type {labels}" line per family and label set.

std::string NormalizeLabels(const std::string& family,
                            const std::string& raw) {
  static constexpr std::string_view kBuildLabels[] = {
      "version", "compiler", "build_type", "simd", "io_uring"};
  std::string out = "{";
  size_t pos = raw.empty() ? 0 : 1;
  while (pos + 1 < raw.size()) {
    const size_t eq = raw.find('=', pos);
    OIPSIM_CHECK(eq != std::string::npos && raw[eq + 1] == '"');
    const std::string key = raw.substr(pos, eq - pos);
    size_t value_end = eq + 1;
    SkipString(raw, &value_end);
    std::string value = raw.substr(eq + 1, value_end - eq - 1);
    pos = value_end + 1;  // past ',' or '}'
    if (key == "le") continue;
    if (family == "simrank_build_info" &&
        std::find(std::begin(kBuildLabels), std::end(kBuildLabels), key) !=
            std::end(kBuildLabels)) {
      value = "\"_\"";
    }
    if (out.size() > 1) out += ',';
    out += key + "=" + value;
  }
  return out + "}";
}

std::set<std::string> MetricLines(uint16_t port) {
  auto response = HttpGet(port, "/metrics");
  OIPSIM_CHECK(response.ok() && response->status == 200);
  std::set<std::string> lines;
  for (const PromFamily& family : ParsePrometheusText(response->body)) {
    for (const PromSample& sample : family.samples) {
      lines.insert(family.name + " " + family.type + " " +
                   NormalizeLabels(family.name, sample.labels));
    }
  }
  return lines;
}

/// `line` as the router re-exports it for the target `shard`/`role`.
std::string InjectShard(const std::string& line, const char* role) {
  const size_t brace = line.find('{');
  const std::string injected =
      StrFormat("shard=\"0\",role=\"%s\"", role);
  const std::string rest = line.substr(brace + 1);
  return line.substr(0, brace + 1) + injected +
         (rest == "}" ? rest : "," + rest);
}

// ---------------------------------------------------------------------------
// The fleet: one-shard plan, primary + replica, a standalone server with
// compaction configured, and a router scraping every 50 ms.

WalkIndex LoadIndex(const std::string& path) {
  auto index = WalkIndex::Load(path);
  OIPSIM_CHECK(index.ok());
  return std::move(index).value();
}

struct Node {
  Node(const std::string& index_path, const DiGraph& graph,
       ServerOptions options, const std::string& wal_path)
      : index(LoadIndex(index_path)), engine(index) {
    std::remove(wal_path.c_str());
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = wal_path;
    auto opened = IndexUpdater::Open(index, graph, updater_options);
    OIPSIM_CHECK(opened.ok());
    updater = std::move(*opened);
    options.port = 0;
    server = std::make_unique<SimRankServer>(engine, options, updater.get());
    OIPSIM_CHECK(server->Bind().ok());
    serve_thread = std::thread([this] { server->Serve(); });
  }

  ~Node() {
    server->Shutdown();
    serve_thread.join();
  }

  uint16_t port() const { return server->port(); }

  WalkIndex index;
  QueryEngine engine;
  std::unique_ptr<IndexUpdater> updater;
  std::unique_ptr<SimRankServer> server;
  std::thread serve_thread;
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() +
         StrFormat("stats-names-%d-", static_cast<int>(::getpid())) + name;
}

void ExpectStatus(uint16_t port, bool post, const std::string& target,
                  const std::string& body, int status) {
  auto response = post ? HttpPost(port, target, body) : HttpGet(port, target);
  ASSERT_TRUE(response.ok()) << target;
  EXPECT_EQ(response->status, status) << target << ": " << response->body;
}

/// Reports every name in `expected` but not in `actual` and vice versa, as
/// list lines tagged for `surface`.
void ExpectSameNames(const std::set<std::string>& expected,
                     const std::set<std::string>& actual, int surface,
                     const char* what) {
  std::string tag = "----";
  tag[surface] = kSurfaceTags[surface];
  std::string missing;
  std::string unexpected;
  for (const std::string& name : expected) {
    if (actual.count(name) == 0) missing += tag + " " + name + "\n";
  }
  for (const std::string& name : actual) {
    if (expected.count(name) == 0) unexpected += tag + " " + name + "\n";
  }
  EXPECT_TRUE(missing.empty()) << what << " lost names:\n" << missing;
  EXPECT_TRUE(unexpected.empty()) << what << " gained names not in the list:\n"
                                  << unexpected;
}

TEST(StatsNamesTest, EverySurfaceExportsExactlyTheListedNames) {
  const DiGraph graph = testing::RandomGraph(40, 160, 3);
  {
    WalkIndexOptions index_options;
    index_options.num_fingerprints = 32;
    index_options.walk_length = 8;
    auto full = WalkIndex::Build(graph, index_options);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(full->Save(TempPath("full.widx")).ok());
  }
  const WalkIndex full = LoadIndex(TempPath("full.widx"));
  auto plan = ShardPlan::EvenSplit(full.n(), full.graph_fingerprint(), 1);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(WriteShardIndex(full.store(), plan->shards[0],
                              TempPath("shard-0.widx"), false)
                  .ok());

  ServerOptions standalone_options;
  standalone_options.compact_path = TempPath("compacted.widx");
  standalone_options.compact_graph_path = TempPath("compacted.graph.bin");
  Node standalone(TempPath("full.widx"), graph, standalone_options,
                  TempPath("standalone.wal"));

  ServerOptions shard_options;
  shard_options.sharded = true;
  shard_options.shard_plan = *plan;
  Node primary(TempPath("shard-0.widx"), graph, shard_options,
               TempPath("primary.wal"));
  shard_options.replica = true;
  Node replica(TempPath("shard-0.widx"), graph, shard_options,
               TempPath("replica.wal"));
  WalTailerOptions tailer_options;
  tailer_options.source_port = primary.port();
  tailer_options.poll_interval_ms = 10;
  WalTailer tailer(*replica.updater, tailer_options);
  ASSERT_TRUE(tailer.Start().ok());

  RouterOptions router_options;
  router_options.plan = *plan;
  router_options.shards.push_back(
      RouterShard{0, primary.port(), replica.port()});
  router_options.scrape_interval_ms = 50;
  SimRankRouter router(std::move(router_options));
  ASSERT_TRUE(router.Bind().ok());
  ASSERT_TRUE(router.Start().ok());

  // The script: every read kind (one traced), a batch, an update, a
  // compaction, and each debug endpoint once.
  for (const uint16_t port : {standalone.port(), router.port()}) {
    ExpectStatus(port, false, "/v1/pair?a=0&b=1", "", 200);
    ExpectStatus(port, false, "/v1/topk?v=0&k=3&trace=1", "", 200);
    ExpectStatus(port, false, "/v1/single_source?v=2", "", 200);
    ExpectStatus(port, true, "/v1/batch_pair", "0 1\n2 3\n", 200);
  }
  ExpectStatus(standalone.port(), true, "/v1/update", "+ 0 39\n", 200);
  ExpectStatus(router.port(), true, "/v1/update", "+ 0 39\n", 200);
  ExpectStatus(standalone.port(), true, "/v1/compact", "", 200);
  ExpectStatus(standalone.port(), false, "/v1/debug/slow", "", 200);
  ExpectStatus(router.port(), false, "/v1/cluster/health", "", 200);
  for (const uint16_t port : {standalone.port(), router.port()}) {
    ExpectStatus(port, false, "/v1/debug/profile?seconds=0.05", "", 200);
    ExpectStatus(port, false, "/v1/debug/timeseries", "", 200);
  }

  // One full scrape round after the script.
  const uint64_t rounds = router.stats().scrape_rounds;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (router.stats().scrape_rounds < rounds + 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const uint16_t ports[kNumSurfaces] = {standalone.port(), primary.port(),
                                        replica.port(), router.port()};
  const NameSets stats_golden = ParseGolden(kStatsPaths);
  const NameSets metrics_golden = ParseGolden(kMetricFamilies);
  std::set<std::string> router_metrics = metrics_golden[kRouter];
  for (const std::string& line : metrics_golden[kPrimary]) {
    router_metrics.insert(InjectShard(line, "primary"));
  }
  for (const std::string& line : metrics_golden[kReplica]) {
    router_metrics.insert(InjectShard(line, "replica"));
  }
  for (int s = 0; s < kNumSurfaces; ++s) {
    SCOPED_TRACE(std::string(1, kSurfaceTags[s]));
    ExpectSameNames(stats_golden[s], StatsPaths(ports[s]), s, "/v1/stats");
    ExpectSameNames(s == kRouter ? router_metrics : metrics_golden[s],
                    MetricLines(ports[s]), s, "/metrics");
  }

  router.Shutdown();
  tailer.Stop();
}

}  // namespace
}  // namespace simrank
