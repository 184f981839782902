// Tracing overhead gate: proves the tracing subsystem is near-free when
// off and quantifies its cost when on. Key figures land in
// BENCH_trace.json; the binary exits non-zero if the gate fails, so CI
// can run it as a regression check.
//
// The off path of every tracing hook is one thread-local pointer load
// and a predicted-not-taken branch (TraceScope does not even read the
// clock when no recorder is bound). A no-trace build of the same commit
// differs from the shipped binary *only* by those hooks, so the p50
// regression of a tracing-disabled server versus that baseline is
// bounded by hooks-per-request x per-hook cost. Both factors are
// measured directly here:
//
//   1. a micro loop times the null-recorder TraceScope (open + close),
//   2. a closed-loop pair workload over loopback HTTP measures the
//      tracing-disabled p50,
//
// and the gate asserts hooks * null_scope < 1% of the disabled p50 —
// the ISSUE's "<1% vs no-trace baseline" bound, derived from the only
// code a baseline build lacks. The same workload is then re-run with
// every request traced (X-Simrank-Trace header) so the *on* cost is
// visible too, and a final check asserts traced and untraced response
// bodies are byte-identical (the header channel never touches bodies).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/rng.h"
#include "simrank/common/string_util.h"
#include "simrank/common/timer.h"
#include "simrank/gen/generators.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/obs/trace.h"
#include "simrank/server/http_client.h"
#include "simrank/server/server.h"

namespace simrank::bench {
namespace {

constexpr uint32_t kVertices = 5000;
constexpr uint32_t kHotVertices = 64;
constexpr uint32_t kClients = 4;
constexpr uint32_t kRequestsPerClient = 1500;
constexpr uint64_t kScopeIterations = 50'000'000;
// TraceScope hooks a pair request crosses with tracing off: request
// root, queue wait, cache lookup, serialize, plus the counter hooks.
// Generous on purpose — overcounting only tightens the gate.
constexpr uint32_t kHooksPerRequest = 16;

template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

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

/// Per-hook cost with no recorder bound: the exact instructions a
/// no-trace build would not execute.
double MeasureNullScopeNanos() {
  // Warm the TLS slot, then time open+close pairs.
  for (uint64_t i = 0; i < 1000; ++i) {
    TraceScope scope(TraceStage::kCacheLookup);
    DoNotOptimize(scope);
  }
  WallTimer timer;
  timer.Start();
  for (uint64_t i = 0; i < kScopeIterations; ++i) {
    TraceScope scope(TraceStage::kCacheLookup);
    DoNotOptimize(scope);
  }
  timer.Stop();
  return timer.ElapsedSeconds() * 1e9 / kScopeIterations;
}

struct LoadResult {
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
};

/// Closed-loop pair workload; when `traced`, every request carries an
/// X-Simrank-Trace header so the server records and returns a full trace.
LoadResult RunPairLoad(uint16_t port, const std::vector<std::string>& targets,
                       bool traced) {
  std::vector<std::pair<std::string, std::string>> headers;
  if (traced) headers.emplace_back("X-Simrank-Trace", "feedc0de");
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<std::thread> clients;
  WallTimer wall;
  wall.Start();
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = LoopbackHttpClient::Connect(port);
      OIPSIM_CHECK(client.ok());
      latencies[c].reserve(kRequestsPerClient);
      for (uint32_t i = 0; i < kRequestsPerClient; ++i) {
        const std::string& target = targets[(c + i) % targets.size()];
        WallTimer timer;
        timer.Start();
        auto response = client->Get(target, headers);
        timer.Stop();
        OIPSIM_CHECK_MSG(response.ok() && response->status == 200,
                         "%s failed under load", target.c_str());
        if (traced) {
          OIPSIM_CHECK_MSG(
              response->FindHeader("x-simrank-trace-json") != nullptr,
              "traced request returned no X-Simrank-Trace-Json header");
        }
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
  result.p50_us = all[all.size() / 2];
  result.p99_us = all[all.size() * 99 / 100];
  result.qps = all.size() / wall.ElapsedSeconds();
  return result;
}

}  // namespace

int Main() {
  std::printf("# trace_overhead: n=%u web graph, %u closed-loop clients, "
              "%u pair requests each\n",
              kVertices, kClients, kRequestsPerClient);

  const double null_scope_ns = MeasureNullScopeNanos();
  std::printf("# null-recorder TraceScope: %.2f ns per open+close\n",
              null_scope_ns);

  DiGraph graph = MakeGraph();
  WalkIndexOptions options;
  options.num_fingerprints = 128;
  options.walk_length = 8;
  options.damping = 0.6;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());
  QueryEngine engine(*index);

  ServerOptions server_options;
  server_options.port = 0;
  server_options.threads = 0;
  SimRankServer server(engine, server_options);
  OIPSIM_CHECK(server.Bind().ok());
  std::thread serve_thread([&server] { OIPSIM_CHECK(server.Serve().ok()); });

  Rng rng(99);
  std::vector<std::string> targets;
  for (uint32_t i = 0; i < kHotVertices; ++i) {
    targets.push_back(StrFormat(
        "/v1/pair?a=%u&b=%u",
        static_cast<VertexId>(rng.NextUint64(graph.n())),
        static_cast<VertexId>(rng.NextUint64(graph.n()))));
  }

  // Tracing must not change a single response byte unless ?trace=1 asks
  // for an inline splice.
  {
    auto client = LoopbackHttpClient::Connect(server.port());
    OIPSIM_CHECK(client.ok());
    auto plain = client->Get(targets[0]);
    auto traced = client->Get(
        targets[0], {{"X-Simrank-Trace", "feedc0de"}});
    OIPSIM_CHECK(plain.ok() && traced.ok());
    OIPSIM_CHECK_MSG(plain->body == traced->body,
                     "traced response body differs from untraced");
  }

  const LoadResult disabled =
      RunPairLoad(server.port(), targets, /*traced=*/false);
  const LoadResult traced =
      RunPairLoad(server.port(), targets, /*traced=*/true);
  server.Shutdown();
  serve_thread.join();

  // The gate: per-request off-path overhead versus a no-trace build.
  const double overhead_us = kHooksPerRequest * null_scope_ns / 1000.0;
  const double overhead_fraction = overhead_us / disabled.p50_us;
  std::printf(
      "# pair p50: %.1f us disabled, %.1f us traced (%.0f / %.0f QPS)\n",
      disabled.p50_us, traced.p50_us, disabled.qps, traced.qps);
  std::printf("# off-path bound: %u hooks x %.2f ns = %.3f us "
              "(%.4f%% of disabled p50, gate < 1%%)\n",
              kHooksPerRequest, null_scope_ns, overhead_us,
              overhead_fraction * 100.0);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("trace_overhead");
  WriteBenchEnvironment(json);
  json.Key("null_scope_ns").Double(null_scope_ns);
  json.Key("hooks_per_request").Uint(kHooksPerRequest);
  json.Key("pair_p50_us_disabled").Double(disabled.p50_us);
  json.Key("pair_p99_us_disabled").Double(disabled.p99_us);
  json.Key("pair_p50_us_traced").Double(traced.p50_us);
  json.Key("pair_p99_us_traced").Double(traced.p99_us);
  json.Key("qps_disabled").Double(disabled.qps);
  json.Key("qps_traced").Double(traced.qps);
  json.Key("overhead_bound_fraction").Double(overhead_fraction);
  json.Key("gate_passed").Bool(overhead_fraction < 0.01);
  json.EndObject();
  std::FILE* out = std::fopen("BENCH_trace.json", "w");
  OIPSIM_CHECK(out != nullptr);
  std::fprintf(out, "%s\n", json.str().c_str());
  std::fclose(out);
  std::printf("# wrote BENCH_trace.json\n");

  OIPSIM_CHECK_MSG(overhead_fraction < 0.01,
                   "tracing-disabled overhead bound %.4f%% breaches the "
                   "1%% gate",
                   overhead_fraction * 100.0);
  std::printf("tracing-disabled overhead gate passed; traced and "
              "untraced bodies byte-identical\n");
  return 0;
}

}  // namespace simrank::bench

int main() { return simrank::bench::Main(); }
