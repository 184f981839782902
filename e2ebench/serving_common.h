// Shared pieces of the serving workloads: the seeded graph and request
// streams, the bitwise correctness gate, and an in-process shard server.
//
// The gate is the one check every serving number stands on: a response
// counts as correct only when its scores are *bitwise* equal to a direct
// QueryEngine call over the same index (the server emits shortest
// round-trip doubles, so the text parses back exactly). It runs on a
// sample of the request stream before any timed phase, and again on
// responses sampled while the load runs.
#ifndef OIPSIM_E2EBENCH_SERVING_COMMON_H_
#define OIPSIM_E2EBENCH_SERVING_COMMON_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "simrank/cluster/shard_plan.h"
#include "simrank/common/rng.h"
#include "simrank/common/status.h"
#include "simrank/common/string_util.h"
#include "simrank/gen/generators.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/server/http_client.h"
#include "simrank/server/server.h"

namespace simrank::e2e {

/// Top-k size of every /v1/topk read.
inline constexpr uint32_t kTopK = 10;

/// The web-style graph family of bench/server_throughput and
/// bench/index_throughput, at size `n`, drawn from `seed`.
inline DiGraph MakeWebGraph(uint32_t n, uint64_t seed) {
  gen::WebGraphParams params;
  params.n = n;
  params.out_degree = 3;
  params.copy_prob = 0.5;
  params.in_copy_prob = 0.3;
  params.seed = seed;
  auto graph = gen::WebGraph(params);
  OIPSIM_CHECK(graph.ok());
  return std::move(graph).value();
}

/// SplitMix64 finalizer: a stateless hash, so request i of a stream is a
/// pure function of (seed, i) and any prefix can be replayed.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One read of the mix: s(a, b), or the top-k of a.
struct ReadOp {
  bool topk = false;
  VertexId a = 0;
  VertexId b = 0;
};

/// The seeded read stream: 80% /v1/pair and 20% /v1/topk. With a hot set
/// the pair's first vertex and the top-k vertex come from it; otherwise
/// every vertex is uniform over [0, n).
class ReadStream {
 public:
  ReadStream(uint64_t seed, uint32_t n, std::vector<VertexId> hot)
      : seed_(Mix64(seed ^ 0x7265616473ULL)), n_(n), hot_(std::move(hot)) {}

  ReadOp At(uint64_t i) const {
    const uint64_t x = Mix64(seed_ + i);
    const uint64_t y = Mix64(x);
    ReadOp op;
    op.topk = x % 5 == 0;
    op.a = hot_.empty() ? static_cast<VertexId>((x >> 8) % n_)
                        : hot_[(x >> 8) % hot_.size()];
    op.b = static_cast<VertexId>(y % n_);
    return op;
  }

  const std::vector<VertexId>& hot() const { return hot_; }

 private:
  uint64_t seed_;
  uint32_t n_;
  std::vector<VertexId> hot_;
};

/// `count` distinct hot vertices drawn from `seed`.
inline std::vector<VertexId> MakeHotSet(uint64_t seed, uint32_t n,
                                        uint32_t count) {
  Rng rng(Mix64(seed ^ 0x686f74ULL));
  const std::vector<uint32_t> picked =
      rng.SampleWithoutReplacement(n, std::min(count, n));
  return std::vector<VertexId>(picked.begin(), picked.end());
}

/// The request target of `op`.
inline std::string ReadTarget(const ReadOp& op) {
  return op.topk ? StrFormat("/v1/topk?v=%u&k=%u", op.a, kTopK)
                 : StrFormat("/v1/pair?a=%u&b=%u", op.a, op.b);
}

/// Appends the pipelined HTTP/1.1 request of `op`; `trace_id` nonzero adds
/// the X-Simrank-Trace header (the trace returns in a response header,
/// the body is unchanged).
inline void RenderRead(const ReadOp& op, uint64_t trace_id,
                       std::string* out) {
  out->append("GET ");
  out->append(ReadTarget(op));
  out->append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (trace_id != 0) {
    out->append("X-Simrank-Trace: ");
    out->append(StrFormat("%llx", static_cast<unsigned long long>(trace_id)));
    out->append("\r\n");
  }
  out->append("\r\n");
}

/// Appends a POST /v1/update request carrying `batch`.
inline void RenderUpdate(std::span<const EdgeUpdate> batch,
                         std::string* out) {
  const std::string body = FormatEdgeUpdates(batch);
  out->append(StrFormat("POST /v1/update HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: text/plain\r\nContent-Length: %zu"
                        "\r\n\r\n",
                        body.size()));
  out->append(body);
}

/// A stream of update batches against `graph`, each `inserts` fresh
/// insertions plus `deletes` deletions of base edges. No edge is touched
/// twice in the whole stream, so every batch is valid whatever order the
/// server applies them in (writes travel on more than one connection) and
/// the final graph is the base plus every acknowledged batch.
inline std::vector<std::vector<EdgeUpdate>> MakeUpdateStream(
    const DiGraph& graph, uint64_t seed, size_t batches, uint32_t inserts,
    uint32_t deletes) {
  Rng rng(Mix64(seed ^ 0x7570646174ULL));
  std::unordered_set<uint64_t> touched;
  auto key = [](VertexId src, VertexId dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  };
  std::vector<std::vector<EdgeUpdate>> stream(batches);
  for (std::vector<EdgeUpdate>& batch : stream) {
    while (batch.size() < inserts) {
      const auto src = static_cast<VertexId>(rng.NextUint64(graph.n()));
      const auto dst = static_cast<VertexId>(rng.NextUint64(graph.n()));
      if (src == dst || graph.HasEdge(src, dst) ||
          !touched.insert(key(src, dst)).second) {
        continue;
      }
      batch.push_back(EdgeUpdate{EdgeUpdate::Op::kInsert, src, dst});
    }
    while (batch.size() < inserts + deletes) {
      const auto src = static_cast<VertexId>(rng.NextUint64(graph.n()));
      const auto out = graph.OutNeighbors(src);
      if (out.empty()) continue;
      const VertexId dst = out[rng.NextUint64(out.size())];
      if (!touched.insert(key(src, dst)).second) continue;
      batch.push_back(EdgeUpdate{EdgeUpdate::Op::kDelete, src, dst});
    }
  }
  return stream;
}

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// OK when `body` is bitwise the answer `reference` gives for `op`.
inline Status CheckReadResponse(const ReadOp& op, const std::string& body,
                                QueryEngine& reference) {
  if (!op.topk) {
    auto expected = reference.Pair(op.a, op.b);
    if (!expected.ok()) return expected.status();
    if (body.find("\"score\":") == std::string::npos ||
        !SameBits(FindJsonNumber(body, "score"), *expected)) {
      return Status::Internal(StrFormat(
          "/v1/pair?a=%u&b=%u answered %s, direct QueryEngine %.17g", op.a,
          op.b, body.c_str(), *expected));
    }
    return Status::OK();
  }
  auto expected = reference.TopK(op.a, kTopK);
  if (!expected.ok()) return expected.status();
  size_t entries = 0;
  for (size_t at = body.find("\"vertex\":"); at != std::string::npos;
       at = body.find("\"vertex\":", at + 1)) {
    ++entries;
  }
  if (entries != expected->size()) {
    return Status::Internal(StrFormat("topk of %u has %zu entries, expected "
                                      "%zu",
                                      op.a, entries, expected->size()));
  }
  size_t cursor = 0;
  for (const ScoredVertex& scored : *expected) {
    const double vertex = FindJsonNumber(body, "vertex", &cursor);
    const double score = FindJsonNumber(body, "score", &cursor);
    if (static_cast<VertexId>(vertex) != scored.vertex ||
        !SameBits(score, scored.score)) {
      return Status::Internal(StrFormat(
          "topk of %u ranks vertex %u (%.17g) where the direct QueryEngine "
          "has %u (%.17g)",
          op.a, static_cast<VertexId>(vertex), score, scored.vertex,
          scored.score));
    }
  }
  return Status::OK();
}

/// The bitwise gate over HTTP: every op's response must be 200 and
/// bitwise-equal to `reference`, a separate engine over an index holding
/// the same walks (so the served engine's cache cannot mask a difference).
inline Status CorrectnessGate(uint16_t port, QueryEngine& reference,
                              const std::vector<ReadOp>& ops) {
  auto client = LoopbackHttpClient::Connect(port);
  if (!client.ok()) return client.status();
  for (const ReadOp& op : ops) {
    auto response = client->Get(ReadTarget(op));
    if (!response.ok()) return response.status();
    if (response->status != 200) {
      return Status::Internal(StrFormat("%s answered %d: %s",
                                        ReadTarget(op).c_str(),
                                        response->status,
                                        response->body.c_str()));
    }
    OIPSIM_RETURN_IF_ERROR(CheckReadResponse(op, response->body, reference));
  }
  return Status::OK();
}

/// One in-process shard server over a WriteShardIndex file, with one
/// worker thread.
struct BenchShard {
  BenchShard(const std::string& path, const ShardPlan& plan,
             uint32_t shard_id) {
    auto loaded = WalkIndex::Load(path);
    OIPSIM_CHECK_MSG(loaded.ok(), "%s", loaded.status().ToString().c_str());
    index = std::make_unique<WalkIndex>(std::move(loaded).value());
    QueryEngineOptions engine_options;
    engine_options.num_threads = 1;  // batch APIs unused, as in the server
    engine = std::make_unique<QueryEngine>(*index, engine_options);
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
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

  BenchShard(const BenchShard&) = delete;
  BenchShard& operator=(const BenchShard&) = delete;

  std::unique_ptr<WalkIndex> index;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<SimRankServer> server;
  std::thread serve_thread;
};

}  // namespace simrank::e2e

#endif  // OIPSIM_E2EBENCH_SERVING_COMMON_H_
