// Serving-frontend benchmark: closed-loop loopback clients against
// simrank_server's event loop, per-endpoint QPS and latency percentiles.
//
// The scenario continues bench/index_throughput's: the same 10k-vertex
// web-style graph and walk index, but now queried over real sockets
// through the epoll frontend instead of direct QueryEngine calls, so the
// numbers include HTTP parsing, JSON encoding, admission control and the
// worker handoff. Before any number prints, a correctness gate fetches a
// sample of every endpoint over HTTP and asserts the served scores are
// *bitwise* equal to direct QueryEngine results (the JSON layer emits
// shortest-round-trip doubles precisely so this comparison is exact).
// Each client thread then runs a closed loop — send, block for the
// response, repeat — over a keep-alive connection; per-request latencies
// aggregate into p50/p99.
//
// With --router the same workload runs against a 2-shard cluster instead:
// the index is split with WriteShardIndex, two shard servers come up, and
// the clients talk to a scatter-gather simrank_router. The identical
// correctness gate runs first — the router must answer bitwise-equal to
// the direct QueryEngine over the full index — so the reported QPS/p50/
// p99 quantify the fan-out overhead of answers already proven exact.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "simrank/cluster/router.h"
#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/shard_split.h"
#include "simrank/common/rng.h"
#include "simrank/common/string_util.h"
#include "simrank/common/table_printer.h"
#include "simrank/common/timer.h"
#include "simrank/gen/generators.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/server/http_client.h"
#include "simrank/server/server.h"

namespace simrank::bench {
namespace {

constexpr uint32_t kVertices = 10000;
constexpr uint32_t kHotVertices = 64;
constexpr uint32_t kClients = 4;
constexpr uint32_t kGateQueries = 24;
constexpr uint32_t kTopK = 10;

DiGraph MakeGraph() {
  gen::WebGraphParams params;
  params.n = kVertices;
  params.out_degree = 3;
  params.copy_prob = 0.5;
  params.in_copy_prob = 0.3;
  params.seed = 7;
  auto graph = gen::WebGraph(params);
  OIPSIM_CHECK(graph.ok());
  return std::move(graph).value();
}


void CheckBitwise(double served, double expected, const char* what) {
  OIPSIM_CHECK_MSG(
      std::memcmp(&served, &expected, sizeof(double)) == 0,
      "%s: served %.17g differs from direct QueryEngine %.17g", what,
      served, expected);
}

/// Asserts HTTP responses are bitwise-identical to direct engine calls on
/// a sample of every endpoint. `reference` is a second engine over the
/// same index, so cache state on the served engine cannot mask a
/// discrepancy (the estimates are deterministic either way). Rows and
/// top-k lists are also checked against the full row scan
/// (EstimateSingleSourceScan + TopKFromRow), which shares no code with
/// the engine's sparse rows.
void CorrectnessGate(uint16_t port, QueryEngine& reference,
                     const std::vector<VertexId>& hot) {
  auto client = LoopbackHttpClient::Connect(port);
  OIPSIM_CHECK(client.ok());
  Rng rng(1234);
  for (uint32_t i = 0; i < kGateQueries; ++i) {
    const VertexId a = hot[rng.NextUint64(hot.size())];
    const VertexId b =
        static_cast<VertexId>(rng.NextUint64(reference.index().n()));
    auto response = client->Get(StrFormat("/v1/pair?a=%u&b=%u", a, b));
    OIPSIM_CHECK_MSG(response.ok() && response->status == 200,
                     "pair query failed: %s",
                     response.ok() ? response->body.c_str()
                                   : response.status().ToString().c_str());
    CheckBitwise(FindJsonNumber(response->body, "score"),
                 *reference.Pair(a, b), "/v1/pair");
  }
  for (uint32_t i = 0; i < kGateQueries; ++i) {
    const VertexId v = hot[i % hot.size()];
    auto response = client->Get(StrFormat("/v1/single_source?v=%u", v));
    OIPSIM_CHECK(response.ok() && response->status == 200);
    const std::vector<double> expected = (*reference.SingleSource(v))->Dense();
    const std::vector<double> scan =
        reference.index().EstimateSingleSourceScan(v);
    const std::vector<double> served =
        FindJsonNumberArray(response->body, "scores");
    OIPSIM_CHECK_MSG(served.size() == expected.size() &&
                         scan.size() == expected.size(),
                     "single_source row of %u has %zu entries, expected n",
                     v, served.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      CheckBitwise(served[j], expected[j], "/v1/single_source");
      CheckBitwise(served[j], scan[j], "/v1/single_source vs the row scan");
    }
  }
  for (uint32_t i = 0; i < kGateQueries; ++i) {
    const VertexId v = hot[(i * 7) % hot.size()];
    auto response = client->Get(StrFormat("/v1/topk?v=%u&k=%u", v, kTopK));
    OIPSIM_CHECK(response.ok() && response->status == 200);
    const auto expected = *reference.TopK(v, kTopK);
    OIPSIM_CHECK_MSG(
        expected == TopKFromRow(reference.index().EstimateSingleSourceScan(v),
                                v, kTopK),
        "the engine's top-%u of %u differs from the row scan's", kTopK, v);
    size_t cursor = 0;
    for (const ScoredVertex& scored : expected) {
      const double vertex =
          FindJsonNumber(response->body, "vertex", &cursor);
      OIPSIM_CHECK_MSG(static_cast<VertexId>(vertex) == scored.vertex,
                       "topk of %u ranks vertex %u where %u belongs", v,
                       static_cast<VertexId>(vertex), scored.vertex);
      CheckBitwise(FindJsonNumber(response->body, "score", &cursor),
                   scored.score, "/v1/topk");
    }
  }
  // POST /v1/batch_pair: one body of kGateQueries pairs, answers in
  // request order, each bitwise-equal to the engine's batch API.
  {
    std::vector<std::pair<VertexId, VertexId>> pairs;
    std::string body;
    for (uint32_t i = 0; i < kGateQueries; ++i) {
      const VertexId a = hot[rng.NextUint64(hot.size())];
      const VertexId b =
          static_cast<VertexId>(rng.NextUint64(reference.index().n()));
      pairs.emplace_back(a, b);
      body += StrFormat("%u %u\n", a, b);
    }
    auto response = client->Post("/v1/batch_pair", body);
    OIPSIM_CHECK_MSG(response.ok() && response->status == 200,
                     "batch_pair failed: %s",
                     response.ok() ? response->body.c_str()
                                   : response.status().ToString().c_str());
    const auto expected = reference.BatchPair(pairs);
    const std::vector<double> served =
        FindJsonNumberArray(response->body, "scores");
    OIPSIM_CHECK_MSG(served.size() == expected.size(),
                     "batch_pair answered %zu of %zu pairs", served.size(),
                     expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      OIPSIM_CHECK(expected[i].ok());
      CheckBitwise(served[i], *expected[i], "/v1/batch_pair");
    }
  }
}

struct EndpointLoad {
  const char* label;
  /// Request targets cycled by every client.
  std::vector<std::string> targets;
  uint32_t requests_per_client;
};

struct LoadResult {
  double seconds = 0;
  uint64_t requests = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Closed loop: kClients threads, each its own keep-alive connection,
/// next request issued only after the previous response fully arrived.
LoadResult RunClosedLoop(uint16_t port, const EndpointLoad& load) {
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<std::thread> clients;
  WallTimer wall;
  wall.Start();
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = LoopbackHttpClient::Connect(port);
      OIPSIM_CHECK(client.ok());
      latencies[c].reserve(load.requests_per_client);
      for (uint32_t i = 0; i < load.requests_per_client; ++i) {
        const std::string& target =
            load.targets[(c + i) % load.targets.size()];
        WallTimer timer;
        timer.Start();
        auto response = client->Get(target);
        timer.Stop();
        OIPSIM_CHECK_MSG(response.ok() && response->status == 200,
                         "%s failed under load", target.c_str());
        latencies[c].push_back(timer.ElapsedMicros());
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  wall.Stop();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  LoadResult result;
  result.seconds = wall.ElapsedSeconds();
  result.requests = all.size();
  result.p50_us = all[all.size() / 2];
  result.p99_us = all[all.size() * 99 / 100];
  return result;
}

/// One in-process shard server over a WriteShardIndex file.
struct BenchShard {
  BenchShard(const std::string& path, const ShardPlan& plan,
             uint32_t shard_id) {
    auto loaded = WalkIndex::Load(path);
    OIPSIM_CHECK(loaded.ok());
    index = std::make_unique<WalkIndex>(std::move(loaded).value());
    engine = std::make_unique<QueryEngine>(*index);
    ServerOptions options;
    options.port = 0;
    options.threads = 0;
    options.max_inflight = 256;
    options.max_endpoint_inflight = 128;
    options.sharded = true;
    options.shard_plan = plan;
    options.shard_id = shard_id;
    server = std::make_unique<SimRankServer>(*engine, options);
    OIPSIM_CHECK(server->Bind().ok());
    serve_thread = std::thread([this] { OIPSIM_CHECK(server->Serve().ok()); });
  }

  ~BenchShard() {
    server->Shutdown();
    serve_thread.join();
  }

  std::unique_ptr<WalkIndex> index;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<SimRankServer> server;
  std::thread serve_thread;
};

}  // namespace

int Main(bool router_mode) {
  std::printf("# server_throughput: n=%u web graph, %u closed-loop "
              "clients, loopback HTTP%s\n",
              kVertices, kClients,
              router_mode ? ", 2-shard scatter-gather router" : "");
  DiGraph graph = MakeGraph();

  WalkIndexOptions options;
  options.num_fingerprints = 128;
  options.walk_length = 8;
  options.damping = 0.6;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());

  QueryEngine engine(*index);
  QueryEngine reference(*index);

  // The serving frontend under test: either one server over the full
  // index, or two shard servers behind a router.
  std::unique_ptr<SimRankServer> server;
  std::thread serve_thread;
  std::vector<std::unique_ptr<BenchShard>> shards;
  std::unique_ptr<SimRankRouter> router;
  std::vector<std::string> shard_paths;
  uint16_t serving_port = 0;
  if (router_mode) {
    auto plan =
        ShardPlan::EvenSplit(index->n(), index->graph_fingerprint(), 2);
    OIPSIM_CHECK(plan.ok());
    RouterOptions router_options;
    router_options.plan = *plan;
    for (const ShardRange& range : plan->shards) {
      const std::string path = StrFormat(
          "/tmp/simrank-bench-%d-shard-%u.widx", getpid(), range.shard_id);
      OIPSIM_CHECK(
          WriteShardIndex(index->store(), range, path, false).ok());
      shard_paths.push_back(path);
      shards.push_back(
          std::make_unique<BenchShard>(path, *plan, range.shard_id));
      router_options.shards.push_back(
          RouterShard{range.shard_id, shards.back()->server->port(), 0});
    }
    router = std::make_unique<SimRankRouter>(std::move(router_options));
    OIPSIM_CHECK(router->Bind().ok());
    OIPSIM_CHECK(router->Start().ok());
    serving_port = router->port();
    std::printf("# router on 127.0.0.1:%u, shards on :%u :%u\n",
                serving_port, shards[0]->server->port(),
                shards[1]->server->port());
  } else {
    ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = 0;  // hardware concurrency
    server_options.max_inflight = 256;
    server_options.max_endpoint_inflight = 128;
    server = std::make_unique<SimRankServer>(engine, server_options);
    OIPSIM_CHECK(server->Bind().ok());
    serve_thread = std::thread([&server] {
      OIPSIM_CHECK(server->Serve().ok());
    });
    serving_port = server->port();
    std::printf("# serving on 127.0.0.1:%u\n", serving_port);
  }

  // Hot-set workload, as in index_throughput.
  Rng rng(99);
  std::vector<VertexId> hot;
  for (uint32_t i = 0; i < kHotVertices; ++i) {
    hot.push_back(static_cast<VertexId>(rng.NextUint64(graph.n())));
  }

  CorrectnessGate(serving_port, reference, hot);
  std::printf("# correctness gate: pair/single_source/topk/batch_pair "
              "responses bitwise-equal to direct QueryEngine on %u "
              "samples each%s\n",
              kGateQueries,
              router_mode ? " (merged across 2 shards)" : "");

  EndpointLoad pair_load{"/v1/pair", {}, 2000};
  EndpointLoad single_source_load{"/v1/single_source", {}, 150};
  EndpointLoad topk_load{"/v1/topk", {}, 400};
  for (uint32_t i = 0; i < kHotVertices; ++i) {
    const VertexId v = hot[i];
    pair_load.targets.push_back(StrFormat(
        "/v1/pair?a=%u&b=%u", v,
        static_cast<VertexId>(rng.NextUint64(graph.n()))));
    single_source_load.targets.push_back(
        StrFormat("/v1/single_source?v=%u", v));
    topk_load.targets.push_back(StrFormat("/v1/topk?v=%u&k=%u", v, kTopK));
  }

  TablePrinter table(
      {"endpoint", "requests", "QPS", "p50 latency", "p99 latency"});
  for (const EndpointLoad& load :
       {pair_load, single_source_load, topk_load}) {
    const LoadResult result = RunClosedLoop(serving_port, load);
    table.AddRow({load.label, FormatCount(result.requests),
                  StrFormat("%.0f", result.requests / result.seconds),
                  FormatDuration(result.p50_us / 1e6),
                  FormatDuration(result.p99_us / 1e6)});
  }
  std::printf("%s\n", table.Render().c_str());

  auto stats_response = HttpGet(serving_port, "/v1/stats");
  OIPSIM_CHECK(stats_response.ok() && stats_response->status == 200);
  std::printf("# /v1/stats: %s\n", stats_response->body.c_str());

  if (router_mode) {
    router->Shutdown();
    shards.clear();
    for (const std::string& path : shard_paths) std::remove(path.c_str());
  } else {
    server->Shutdown();
    serve_thread.join();
  }
  std::printf("%s drained cleanly; all responses bitwise-equal to "
              "direct QueryEngine results\n",
              router_mode ? "router and shards" : "server");
  return 0;
}

}  // namespace simrank::bench

int main(int argc, char** argv) {
  bool router_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--router") {
      router_mode = true;
    } else {
      std::fprintf(stderr, "usage: %s [--router]\n", argv[0]);
      return 2;
    }
  }
  return simrank::bench::Main(router_mode);
}
