// simrank_server — HTTP serving frontend over a prebuilt walk index.
//
//   simrank_server serve --index=PATH [flags]   (--help lists the flags)
//
// Serves GET /v1/pair, /v1/single_source, /v1/topk, POST /v1/batch_pair,
// /v1/stats, /metrics and /healthz (see src/simrank/server/server.h for
// the endpoint and admission-control semantics). --port=0 lets the kernel
// pick a free port; the bound address is printed on stderr once the
// listener is up. --warm names a file of vertex ids (whitespace separated,
// '#' comments) whose storage pages are prefetched and whose rows are
// cached before the first request.
//
// --graph + --wal enable the live-update endpoints POST /v1/update and
// POST /v1/compact: the graph file must be the one the index was built
// from (fingerprint-checked), the WAL is created or replayed at startup —
// after a crash the server comes back serving every acknowledged batch.
// /v1/compact rewrites --compact-to (default: the served index path, via
// an atomic rename — an mmap backend keeps serving the old inode) with
// the base file's segment encoding, persists the updated graph to
// --compact-graph-to (default: <compact-to>.graph.bin; restart with
// --graph pointing there), and resets the WAL. SIGINT/SIGTERM
// shut down gracefully: in-flight queries finish and flush before the
// process exits 0.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/wal_tailer.h"
#include "simrank/common/flags.h"
#include "simrank/common/status.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/index/walk_store.h"
#include "simrank/obs/diagnostics.h"
#include "simrank/server/server.h"

namespace {

using simrank::Status;

constexpr char kSummary[] =
    "Serves GET /v1/pair?a=&b=, /v1/single_source?v=, /v1/topk?v=&k=,\n"
    "POST /v1/batch_pair, /v1/stats, /metrics and /healthz over a walk\n"
    "index. Requests beyond --max-inflight get 429, beyond the per-endpoint\n"
    "cap 503, both with Retry-After. --graph + --wal also enable POST\n"
    "/v1/update and /v1/compact (live edge updates with WAL durability).\n"
    "Any query accepts ?trace=1 (spans inline in the response) or an\n"
    "X-Simrank-Trace header (trace in the X-Simrank-Trace-Json response\n"
    "header). GET /v1/debug/profile?seconds=N returns a collapsed-stack CPU\n"
    "profile and GET /v1/debug/timeseries the metrics history.";

/// Reads a warm list: vertex ids separated by whitespace, '#' starts a
/// comment running to end of line.
simrank::Result<std::vector<simrank::VertexId>> ReadWarmList(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open warm list: " + path);
  std::vector<simrank::VertexId> vertices;
  for (std::string line; std::getline(in, line);) {
    std::istringstream tokens(line.substr(0, line.find('#')));
    for (std::string token; tokens >> token;) {
      simrank::VertexId vertex = 0;
      if (!simrank::ParseFlagValue(token, &vertex).ok()) {
        return Status::InvalidArgument(
            simrank::StrFormat("warm list %s: '%s' is not a vertex id",
                               path.c_str(), token.c_str()));
      }
      vertices.push_back(vertex);
    }
  }
  return vertices;
}

simrank::SimRankServer* g_server = nullptr;

void HandleSignal(int) {
  // Shutdown is async-signal-safe: an atomic store plus an eventfd write.
  if (g_server != nullptr) g_server->Shutdown();
}

int RealMain(int argc, char** argv) {
  // Tool-only settings; every other flag sets a library option directly.
  std::string index_path;
  std::string graph_path;
  std::string warm_path;
  std::string shard_plan_path;
  simrank::WalkIndex::LoadOptions load_options;
  simrank::ServerOptions server_options;
  simrank::QueryEngineOptions engine_options;
  engine_options.num_threads = 1;  // batch APIs unused; the server pools
  simrank::IndexUpdaterOptions updater_options;
  simrank::WalTailerOptions tailer_options;

  simrank::FlagSet flags("simrank_server serve", kSummary);
  flags.Add("--index", "PATH", &index_path, "walk index to serve")
      .Required()
      .Switch("--mmap", &load_options.use_mmap,
              "serve from the mapped file instead of loading it into RAM")
      .Add("--load-threads", "T", &load_options.num_threads,
           "threads decoding the index into RAM; 0 = hardware concurrency")
      .Add("--port", "PORT", &server_options.port,
           "TCP port; 0 picks a free one, printed on stderr")
      .Add("--bind", "ADDR", &server_options.bind_address,
           "listening IPv4 address")
      .Add("--threads", "T", &server_options.threads,
           "query worker threads; 0 = hardware concurrency")
      .Add("--max-inflight", "N", &server_options.max_inflight,
           "dispatched queries beyond this answer 429")
      .Add("--endpoint-inflight", "N", &server_options.max_endpoint_inflight,
           "dispatched queries per endpoint beyond this answer 503")
      .Add("--cache-shards", "S", &engine_options.cache_shards,
           "row cache shards")
      .Add("--cache-capacity", "C", &engine_options.cache_capacity_per_shard,
           "cached rows per shard")
      .Add("--warm", "FILE", &warm_path,
           "vertex ids whose pages and rows are loaded before serving")
      .Add("--graph", "PATH", &graph_path,
           "the graph the index was built from; with --wal enables "
           "/v1/update and /v1/compact")
      .Add("--wal", "PATH", &updater_options.wal_path,
           "write-ahead log of update batches, replayed at startup")
      .Add("--compact-to", "PATH", &server_options.compact_path,
           "where compaction writes the merged index (empty: the served "
           "index)")
      .Add("--compact-graph-to", "PATH", &server_options.compact_graph_path,
           "where compaction writes the updated graph (empty: "
           "<compact-to>.graph.bin)")
      .Switch("--no-sync-wal", &updater_options.sync_wal,
              "skip the WAL fsync of each commit group")
      .Add("--group-commit-window-us", "US",
           &updater_options.group_commit_window_us,
           "how long a group-commit leader waits for more batches to "
           "share its fsync")
      .Add("--update-threads", "T", &updater_options.num_threads,
           "threads patching walks and compacting; 0 = one per usable "
           "CPU (answers are identical for any value)")
      .Add("--overlay-budget", "BYTES", &updater_options.overlay_budget_bytes,
           "compact in the background past this many overlay bytes; "
           "0 = unbounded")
      .Add("--auto-compact-fraction", "F",
           &updater_options.auto_compact_patched_fraction,
           "compact in the background once this share of all n*R walks "
           "is patched; 0 = off")
      .Add("--shard-plan", "PLAN", &shard_plan_path,
           "serve one shard of this cluster plan (see simrank_router)")
      .Add("--shard-id", "N", &server_options.shard_id,
           "the plan shard served; queries outside its range answer 421")
      .Switch("--replica", &server_options.replica,
              "mirror a primary: public writes answer 403")
      .Add("--tail-from", "PORT", &tailer_options.source_port,
           "keep a replica current by tailing this primary's /v1/wal; "
           "0 = off")
      .Add("--trace-sample", "F", &server_options.trace_sample,
           "fraction of requests traced at random")
      .Add("--slow-query-us", "US", &server_options.slow_query_us,
           "trace every request and keep those slower than US in GET "
           "/v1/debug/slow; 0 = off")
      .Add("--slow-ring", "N", &server_options.slow_ring_capacity,
           "captured traces GET /v1/debug/slow keeps")
      .Add("--watchdog-interval-ms", "MS",
           &server_options.watchdog_interval_ms,
           "event-loop watchdog cadence; 0 disables it")
      .Add("--watchdog-stall-us", "US", &server_options.watchdog_stall_us,
           "loop lag the watchdog logs as a stall, with the loop's stack")
      .Add("--debug-stall-limit-ms", "MS",
           &server_options.debug_stall_limit_ms,
           "arm the GET /v1/debug/stall test hook up to MS; 0 = off");
  simrank::AddDiagnosticsFlags(flags, &server_options.diagnostics);
  const bool serve = argc >= 2 && std::string_view(argv[1]) == "serve";
  if (auto code = flags.ParseCommandLine(argc, argv, serve ? 2 : 1)) {
    return *code;
  }
  if (!serve) {
    return flags.Fail("the first argument must be the serve subcommand");
  }
  const bool live_updates = !updater_options.wal_path.empty();
  if (live_updates == graph_path.empty()) {
    return flags.Fail(
        "--graph and --wal enable live updates together: the updater needs "
        "the base graph to re-simulate walks and the WAL to make batches "
        "durable");
  }
  if (!live_updates) {
    for (const char* name :
         {"--compact-to", "--compact-graph-to", "--no-sync-wal",
          "--group-commit-window-us", "--update-threads",
          "--overlay-budget", "--auto-compact-fraction", "--tail-from"}) {
      if (flags.seen(name)) {
        return flags.Fail(
            std::string(name) + " requires --graph and --wal");
      }
    }
  }
  if (flags.seen("--shard-id") && shard_plan_path.empty()) {
    return flags.Fail("--shard-id requires --shard-plan");
  }
  if (tailer_options.source_port != 0 && !server_options.replica) {
    return flags.Fail(
        "--tail-from requires --replica: a server accepting both public "
        "updates and a shipped WAL would fork its graph");
  }

  if (!shard_plan_path.empty()) {
    auto plan = simrank::ShardPlan::LoadFile(shard_plan_path);
    if (!plan.ok()) {
      std::fprintf(stderr, "cannot load shard plan: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    server_options.sharded = true;
    server_options.shard_plan = std::move(*plan);
  }
  if (Status valid = server_options.Validate(); !valid.ok()) {
    return flags.Fail(valid.message());
  }
  if (!engine_options.Valid()) {
    return flags.Fail("--cache-shards and --cache-capacity must be positive");
  }

  auto index = simrank::WalkIndex::Load(index_path, load_options);
  if (!index.ok()) {
    std::fprintf(stderr, "cannot load index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  simrank::QueryEngine engine(*index, engine_options);

  std::unique_ptr<simrank::IndexUpdater> updater;
  if (live_updates) {
    auto graph = simrank::ReadGraphAuto(graph_path);
    if (!graph.ok()) {
      std::fprintf(stderr, "cannot load graph: %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }
    if (server_options.compact_path.empty()) {
      server_options.compact_path = index_path;
    }
    if (server_options.compact_graph_path.empty()) {
      server_options.compact_graph_path =
          server_options.compact_path + ".graph.bin";
    }
    // Compacted files keep the served file's segment encoding, so a
    // compact-then-restart cycle stays byte-reproducible. A probe failure
    // here is fatal: silently defaulting to raw would flip a compressed
    // index's encoding on the next compaction.
    auto info = simrank::ReadWalkIndexInfo(index_path);
    if (!info.ok()) {
      std::fprintf(stderr, "cannot probe index encoding: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    server_options.compact_compress = info->compressed;
    // Auto-compaction (armed by --overlay-budget or
    // --auto-compact-fraction) reuses the manual /v1/compact targets,
    // keeps their segment encoding, and — because the graph is persisted
    // too — resets the WAL to the compacted state.
    updater_options.auto_compact_path = server_options.compact_path;
    updater_options.auto_compact_compress = server_options.compact_compress;
    updater_options.auto_compact_graph_path =
        server_options.compact_graph_path;
    if (server_options.sharded) {
      // A shard's index stores out-of-range vertices as dead rows; the
      // range filter keeps the updater from re-simulating (and thereby
      // reviving) walks this shard does not own.
      const simrank::ShardRange& range =
          server_options.shard_plan.shards[server_options.shard_id];
      updater_options.vertex_begin = range.begin;
      updater_options.vertex_end = range.end;
    }
    auto opened = simrank::IndexUpdater::Open(*index, std::move(*graph),
                                              updater_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open updater: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    updater = std::move(*opened);
    const simrank::IndexUpdateStats stats = updater->stats();
    std::fprintf(stderr,
                 "update log %s: %llu batch(es) replayed, overlay "
                 "sequence %llu%s\n",
                 updater_options.wal_path.c_str(),
                 static_cast<unsigned long long>(stats.batches_replayed),
                 static_cast<unsigned long long>(stats.overlay_sequence),
                 stats.wal_truncated_bytes > 0 ? " (torn tail dropped)"
                                               : "");
  }
  simrank::SimRankServer server(engine, server_options, updater.get());

  auto status = server.Bind();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  if (!warm_path.empty()) {
    auto warm = ReadWarmList(warm_path);
    if (!warm.ok()) {
      std::fprintf(stderr, "%s\n", warm.status().ToString().c_str());
      return 1;
    }
    auto warmed = server.Warm(*warm);
    if (!warmed.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n",
                   warmed.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "warmed %zu vertices from %s\n", warm->size(),
                 warm_path.c_str());
  }

  std::unique_ptr<simrank::WalTailer> tailer;
  if (tailer_options.source_port != 0) {
    tailer = std::make_unique<simrank::WalTailer>(*updater, tailer_options);
    auto started = tailer->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "cannot start WAL tailer: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "tailing WAL of 127.0.0.1:%u\n",
                 tailer_options.source_port);
  }

  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::fprintf(stderr,
               "simrank_server: index %s (n=%u, R=%u, L=%u, %s backend), "
               "listening on %s:%u\n",
               index_path.c_str(), index->n(),
               index->options().num_fingerprints,
               index->options().walk_length,
               index->snapshot().store->backend_name(),
               server_options.bind_address.c_str(), server.port());

  status = server.Serve();
  g_server = nullptr;
  if (tailer != nullptr) {
    tailer->Stop();
    const simrank::WalTailerStats tail_stats = tailer->stats();
    if (tail_stats.halted) {
      std::fprintf(stderr, "WAL tailer halted: %s\n",
                   tail_stats.last_error.c_str());
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "server failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const simrank::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "simrank_server: shut down cleanly (%llu requests served, "
               "%llu rejected)\n",
               static_cast<unsigned long long>(
                   stats.responses_2xx + stats.responses_4xx +
                   stats.responses_5xx),
               static_cast<unsigned long long>(stats.rejected_inflight +
                                               stats.rejected_endpoint));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
