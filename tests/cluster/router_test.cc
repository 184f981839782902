// End-to-end tests of the sharded cluster: real shard servers (each over
// a WriteShardIndex file), a real scatter-gather router, a single-node
// comparison server over the full index — responses must match bitwise —
// plus WAL-shipping replication and read failover.
#include "simrank/cluster/router.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/shard_split.h"
#include "simrank/cluster/wal_tailer.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/server/http_client.h"
#include "simrank/server/http_frontend.h"
#include "simrank/server/server.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

std::atomic<uint32_t> g_fixture_counter{0};

WalkIndex BuildIndex(const DiGraph& graph, uint32_t fingerprints) {
  WalkIndexOptions options;
  options.num_fingerprints = fingerprints;
  options.walk_length = 8;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());
  return std::move(index).value();
}

/// One running server process-equivalent: an index loaded from a shard (or
/// full) file, an engine, a WAL-backed updater and a SimRankServer on its
/// own thread.
struct ServerNode {
  ServerNode(const std::string& index_path, const DiGraph& graph,
             ServerOptions options, const std::string& wal_path)
      : index(LoadIndex(index_path)), engine(index) {
    std::remove(wal_path.c_str());
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = wal_path;
    if (options.sharded) {
      const ShardRange& range = options.shard_plan.shards[options.shard_id];
      updater_options.vertex_begin = range.begin;
      updater_options.vertex_end = range.end;
    }
    auto opened = IndexUpdater::Open(index, graph, updater_options);
    OIPSIM_CHECK(opened.ok());
    updater = std::move(*opened);
    options.port = 0;
    server = std::make_unique<SimRankServer>(engine, options, updater.get());
    OIPSIM_CHECK(server->Bind().ok());
    serve_thread = std::thread([this] { server->Serve(); });
  }

  ~ServerNode() { Stop(); }

  void Stop() {
    if (serve_thread.joinable()) {
      server->Shutdown();
      serve_thread.join();
    }
  }

  uint16_t port() const { return server->port(); }

  static WalkIndex LoadIndex(const std::string& path) {
    auto index = WalkIndex::Load(path);
    OIPSIM_CHECK(index.ok());
    return std::move(index).value();
  }

  WalkIndex index;
  QueryEngine engine;
  std::unique_ptr<IndexUpdater> updater;
  std::unique_ptr<SimRankServer> server;
  std::thread serve_thread;
};

/// A full 2..k-shard cluster with a router, next to a single-node server
/// over the same (full) index — the bitwise reference for every response.
class ClusterFixture {
 public:
  explicit ClusterFixture(DiGraph graph, uint32_t num_shards = 2,
                          bool with_replica0 = false,
                          uint32_t fingerprints = 48)
      : tag_(StrFormat("cluster-%u", g_fixture_counter.fetch_add(1))),
        graph_(std::move(graph)) {
    const WalkIndex full = BuildIndex(graph_, fingerprints);
    full_path_ = TempPath("full.widx");
    OIPSIM_CHECK(full.Save(full_path_).ok());
    auto plan = ShardPlan::EvenSplit(full.n(), full.graph_fingerprint(),
                                     num_shards);
    OIPSIM_CHECK(plan.ok());
    plan_ = std::move(*plan);

    // The single-node reference server (and a direct reference engine).
    single_ = std::make_unique<ServerNode>(full_path_, graph_,
                                           ServerOptions{},
                                           TempPath("single.wal"));

    // The shards.
    RouterOptions router_options;
    router_options.plan = plan_;
    for (const ShardRange& range : plan_.shards) {
      const std::string shard_path =
          TempPath(StrFormat("shard-%u.widx", range.shard_id));
      OIPSIM_CHECK(WriteShardIndex(full.store(), range, shard_path, false)
                       .ok());
      ServerOptions options;
      options.sharded = true;
      options.shard_plan = plan_;
      options.shard_id = range.shard_id;
      shards_.push_back(std::make_unique<ServerNode>(
          shard_path, graph_, options,
          TempPath(StrFormat("shard-%u.wal", range.shard_id))));
      router_options.shards.push_back(
          RouterShard{range.shard_id, shards_.back()->port(), 0});
    }

    // Optionally a replica of shard 0, tailing its primary's WAL.
    if (with_replica0) {
      ServerOptions options;
      options.sharded = true;
      options.shard_plan = plan_;
      options.shard_id = 0;
      options.replica = true;
      replica_ = std::make_unique<ServerNode>(TempPath("shard-0.widx"),
                                              graph_, options,
                                              TempPath("replica-0.wal"));
      WalTailerOptions tailer_options;
      tailer_options.source_port = shards_[0]->port();
      tailer_options.poll_interval_ms = 10;
      tailer_ = std::make_unique<WalTailer>(*replica_->updater,
                                            tailer_options);
      OIPSIM_CHECK(tailer_->Start().ok());
      router_options.shards[0].replica_port = replica_->port();
    }

    router_ = std::make_unique<SimRankRouter>(std::move(router_options));
    OIPSIM_CHECK(router_->Bind().ok());
    OIPSIM_CHECK(router_->Start().ok());
  }

  ~ClusterFixture() {
    router_->Shutdown();
    if (tailer_ != nullptr) tailer_->Stop();
  }

  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + tag_ + "-" + name;
  }

  uint16_t router_port() const { return router_->port(); }
  uint16_t single_port() const { return single_->port(); }
  SimRankRouter& router() { return *router_; }
  const ShardPlan& plan() const { return plan_; }
  const DiGraph& graph() const { return graph_; }
  ServerNode& shard(size_t i) { return *shards_[i]; }
  ServerNode* replica() { return replica_.get(); }
  WalTailer* tailer() { return tailer_.get(); }
  QueryEngine& reference() { return single_->engine; }

  /// Asserts the router's response to `target` is bitwise identical (status
  /// and body) to the single-node server's.
  void ExpectSameAsSingleNode(const std::string& target) {
    auto routed = HttpGet(router_port(), target);
    auto direct = HttpGet(single_port(), target);
    ASSERT_TRUE(routed.ok()) << target << ": " << routed.status().ToString();
    ASSERT_TRUE(direct.ok()) << target;
    EXPECT_EQ(routed->status, direct->status) << target;
    EXPECT_EQ(routed->body, direct->body) << target;
  }

  /// An edge absent from the base graph: the first in (src, dst) order,
  /// or the one `skip` places after it.
  Edge FreshEdge(uint32_t skip = 0) const {
    for (VertexId src = 0; src < graph_.n(); ++src) {
      for (VertexId dst = 0; dst < graph_.n(); ++dst) {
        if (src != dst && !graph_.HasEdge(src, dst) && skip-- == 0) {
          return Edge{src, dst};
        }
      }
    }
    OIPSIM_CHECK_MSG(false, "no fresh edge");
    return Edge{};
  }

 private:
  std::string tag_;
  DiGraph graph_;
  std::string full_path_;
  ShardPlan plan_;
  std::unique_ptr<ServerNode> single_;
  std::vector<std::unique_ptr<ServerNode>> shards_;
  std::unique_ptr<ServerNode> replica_;
  std::unique_ptr<WalTailer> tailer_;
  std::unique_ptr<SimRankRouter> router_;
};

/// Hub 0 points at leaves 1..9; 10 and 11 are isolated (dead walks). Every
/// leaf pair meets at the hub on step 1, so all leaf-leaf scores tie
/// exactly — cross-shard tie-breaking has to reproduce the single-node
/// (score desc, vertex asc) order or the mismatch is visible.
DiGraph TieGraph() {
  DiGraph::Builder builder(12);
  for (VertexId leaf = 1; leaf <= 9; ++leaf) builder.AddEdge(0, leaf);
  return std::move(builder).Build();
}

TEST(RouterTest, PairMatchesSingleNodeBitwise) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  const uint32_t boundary = cluster.plan().shards[0].end;
  // Same-shard, cross-shard, boundary-straddling and diagonal pairs.
  const std::pair<VertexId, VertexId> pairs[] = {
      {0, 1},
      {boundary, boundary + 1},
      {boundary - 1, boundary},
      {3, boundary + 7},
      {boundary + 5, 2},
      {boundary, boundary},
      {4, 4},
  };
  for (const auto& [a, b] : pairs) {
    cluster.ExpectSameAsSingleNode(StrFormat("/v1/pair?a=%u&b=%u", a, b));
  }
}

TEST(RouterTest, SingleSourceAndTopKMatchSingleNodeBitwise) {
  ClusterFixture cluster(testing::OverlappyGraph(60, 4, 9));
  const uint32_t boundary = cluster.plan().shards[0].end;
  for (const VertexId v : {0u, 17u, boundary - 1, boundary, 59u}) {
    cluster.ExpectSameAsSingleNode(StrFormat("/v1/single_source?v=%u", v));
    cluster.ExpectSameAsSingleNode(StrFormat("/v1/topk?v=%u&k=7", v));
    cluster.ExpectSameAsSingleNode(
        StrFormat("/v1/topk?v=%u&k=%u", v, cluster.graph().n()));
  }
}

TEST(RouterTest, ConcurrentScattersStayBitwise) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  const uint32_t n = cluster.graph().n();
  std::vector<std::string> targets;
  std::vector<std::string> expected;
  for (VertexId v = 0; v < n; v += 7) {
    for (const std::string& target :
         {StrFormat("/v1/topk?v=%u&k=5", v),
          StrFormat("/v1/single_source?v=%u", v),
          StrFormat("/v1/pair?a=%u&b=%u", v, n - 1 - v)}) {
      auto direct = HttpGet(cluster.single_port(), target);
      ASSERT_TRUE(direct.ok());
      ASSERT_EQ(direct->status, 200) << target;
      targets.push_back(target);
      expected.push_back(std::move(direct->body));
    }
  }
  // Four clients, all scattering through the router's one event loop and
  // its shard connections at once.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&cluster, &targets, &expected, &mismatches] {
      auto client = LoopbackHttpClient::Connect(cluster.router_port());
      OIPSIM_CHECK(client.ok());
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < targets.size(); ++i) {
          auto routed = client->Get(targets[i]);
          if (!routed.ok() || routed->status != 200 ||
              routed->body != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RouterTest, TopKTieOrderSpansShardsLikeSingleNode) {
  // 12 vertices, 2 shards of 6: leaves 2..5 live on shard 0 and 6..9 on
  // shard 1, all with bit-equal scores from leaf 1's viewpoint.
  ClusterFixture cluster(TieGraph(), /*num_shards=*/2);
  ASSERT_EQ(cluster.plan().shards[0].end, 6u);

  // k = 5 cuts the tie group mid-boundary: 2, 3, 4, 5 from shard 0 and 6
  // from shard 1 — ascending vertex order among the tied, like TopKFromRow.
  auto response = HttpGet(cluster.router_port(), "/v1/topk?v=1&k=5");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto expected = cluster.reference().TopK(1, 5);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 5u);
  size_t cursor = 0;
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*expected)[i].vertex, i + 2) << "reference order";
    const double vertex = FindJsonNumber(response->body, "vertex", &cursor);
    const double score = FindJsonNumber(response->body, "score", &cursor);
    EXPECT_EQ(static_cast<VertexId>(vertex), (*expected)[i].vertex);
    EXPECT_EQ(std::memcmp(&score, &(*expected)[i].score, sizeof(double)), 0);
  }

  // Whole-body comparisons, including dead-walk queries (isolated 10, 11)
  // and k covering every vertex.
  for (const char* target :
       {"/v1/topk?v=1&k=5", "/v1/topk?v=1&k=12", "/v1/topk?v=10&k=4",
        "/v1/topk?v=11&k=12", "/v1/topk?v=0&k=6",
        "/v1/single_source?v=10"}) {
    cluster.ExpectSameAsSingleNode(target);
  }
}

TEST(RouterTest, BatchPairMatchesSingleNodeBitwise) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  const uint32_t boundary = cluster.plan().shards[0].end;
  std::string body;
  for (VertexId a = 0; a < 20; a += 3) {
    body += StrFormat("%u %u\n", a, (a * 7 + boundary) % cluster.graph().n());
  }
  auto routed = HttpPost(cluster.router_port(), "/v1/batch_pair", body);
  auto direct = HttpPost(cluster.single_port(), "/v1/batch_pair", body);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(routed->status, 200) << routed->body;
  EXPECT_EQ(routed->body, direct->body);
}

TEST(RouterTest, ErrorPathsMirrorTheSingleNodeSurface) {
  ClusterFixture cluster(testing::RandomGraph(40, 160, 3));
  // Parameter checks are the single node's, status and body: unknown,
  // repeated or malformed parameters, bad trace values, out-of-range ids
  // with the engine's message, and k=0 (an empty top-k, not an error).
  for (const char* target :
       {"/v1/pair?a=0&b=1&x=2", "/v1/single_source?v=0&bogus=1",
        "/v1/topk?v=0&k=3&v=1", "/v1/pair?a=0&a=5&b=1",
        "/v1/pair?a=0&b=1&trace=2", "/v1/single_source?v=1&trace=yes",
        "/v1/topk?v=0&k=0", "/v1/topk?v=0&k=x", "/v1/topk?v=0&k=4294967296",
        "/v1/pair?a=0&b=999", "/v1/pair?a=999&b=x", "/v1/pair?a=40&b=0",
        "/v1/pair?a=0", "/v1/single_source?v=x", "/v1/single_source?v=40",
        "/v1/topk?v=4294967295", "/v1/topk", "/v1/pair?a=0&a=1&trace=1",
        "/v1/topk?v=x&trace=1", "/v1/nope?trace=1"}) {
    cluster.ExpectSameAsSingleNode(target);
  }
  // A GET with a body is refused alike.
  auto get_with_body = [](uint16_t port) {
    auto client = LoopbackHttpClient::Connect(port);
    OIPSIM_CHECK(client.ok());
    OIPSIM_CHECK(client
                     ->SendRaw("GET /v1/pair?a=0&b=1 HTTP/1.1\r\nHost: x\r\n"
                               "Content-Length: 2\r\n\r\nab")
                     .ok());
    return client->ReadResponse();
  };
  auto routed = get_with_body(cluster.router_port());
  auto direct = get_with_body(cluster.single_port());
  ASSERT_TRUE(routed.ok() && direct.ok());
  EXPECT_EQ(routed->status, 400);
  EXPECT_EQ(routed->status, direct->status);
  EXPECT_EQ(routed->body, direct->body);
  // The introspection endpoints run the same checks: one frontend.
  auto stats_with_body = [](uint16_t port) {
    auto client = LoopbackHttpClient::Connect(port);
    OIPSIM_CHECK(client.ok());
    OIPSIM_CHECK(client
                     ->SendRaw("GET /v1/stats HTTP/1.1\r\nHost: x\r\n"
                               "Content-Length: 2\r\n\r\nab")
                     .ok());
    return client->ReadResponse();
  };
  for (const bool stats : {false, true}) {
    auto routed_probe = stats ? stats_with_body(cluster.router_port())
                              : HttpPost(cluster.router_port(), "/healthz", "x");
    auto direct_probe = stats ? stats_with_body(cluster.single_port())
                              : HttpPost(cluster.single_port(), "/healthz", "x");
    ASSERT_TRUE(routed_probe.ok() && direct_probe.ok());
    EXPECT_EQ(routed_probe->status, stats ? 400 : 405);
    EXPECT_EQ(routed_probe->status, direct_probe->status);
    EXPECT_EQ(routed_probe->body, direct_probe->body);
  }
  // Unknown parameters on the body endpoints too.
  auto routed_post = HttpPost(cluster.router_port(), "/v1/batch_pair?x=1",
                              "0 1\n");
  auto direct_post = HttpPost(cluster.single_port(), "/v1/batch_pair?x=1",
                              "0 1\n");
  ASSERT_TRUE(routed_post.ok() && direct_post.ok());
  EXPECT_EQ(routed_post->status, 400);
  EXPECT_EQ(routed_post->status, direct_post->status);
  EXPECT_EQ(routed_post->body, direct_post->body);

  // Out-of-range and malformed parameters are 400 at the router — they
  // never reach a shard.
  EXPECT_EQ(HttpGet(cluster.router_port(), "/v1/pair?a=0&b=999")->status,
            400);
  EXPECT_EQ(HttpGet(cluster.router_port(), "/v1/pair?a=0")->status, 400);
  EXPECT_EQ(HttpGet(cluster.router_port(), "/v1/single_source?v=x")->status,
            400);
  EXPECT_EQ(HttpGet(cluster.router_port(), "/v1/nope")->status, 404);
  EXPECT_EQ(HttpPost(cluster.router_port(), "/v1/batch_pair", "")->status,
            400);
  // Method mismatches.
  EXPECT_EQ(HttpPost(cluster.router_port(), "/v1/pair?a=0&b=1", "x")->status,
            405);
  EXPECT_EQ(HttpGet(cluster.router_port(), "/v1/batch_pair")->status, 405);
}

TEST(RouterTest, ShardRejectsOutOfRangeQueriesWith421) {
  ClusterFixture cluster(testing::RandomGraph(40, 160, 3));
  const uint16_t shard0 = cluster.shard(0).port();
  const uint32_t boundary = cluster.plan().shards[0].end;
  // In-range pair answers; anything touching the other shard's range is
  // 421 Misdirected Request.
  EXPECT_EQ(HttpGet(shard0, "/v1/pair?a=0&b=1")->status, 200);
  EXPECT_EQ(
      HttpGet(shard0, StrFormat("/v1/pair?a=0&b=%u", boundary))->status,
      421);
  // Global-answer endpoints are misdirected outright on a partial shard.
  EXPECT_EQ(HttpGet(shard0, "/v1/single_source?v=0")->status, 421);
  EXPECT_EQ(HttpGet(shard0, "/v1/topk?v=0&k=3")->status, 421);

  // The shard's stats expose its role, range, epoch and the rejections.
  auto stats = HttpGet(shard0, "/v1/stats");
  ASSERT_TRUE(stats.ok());
  const std::string& body = stats->body;
  EXPECT_NE(body.find("\"cluster\":{"), std::string::npos);
  EXPECT_NE(body.find("\"role\":\"primary\""), std::string::npos);
  EXPECT_EQ(FindJsonNumber(body, "shard_id"), 0.0);
  EXPECT_EQ(FindJsonNumber(body, "vertex_begin"), 0.0);
  EXPECT_EQ(FindJsonNumber(body, "vertex_end"),
            static_cast<double>(boundary));
  EXPECT_EQ(FindJsonNumber(body, "plan_epoch"), 1.0);
  EXPECT_EQ(FindJsonNumber(body, "rejected_misdirected"), 3.0);

  auto metrics = HttpGet(shard0, "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find(
                "simrank_rejected_total{reason=\"misdirected\"} 3"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_shard_id 0"), std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_shard_plan_epoch 1"),
            std::string::npos);
}

TEST(RouterTest, UpdateBroadcastKeepsEveryAnswerBitwise) {
  ClusterFixture cluster(testing::RandomGraph(50, 200, 7));
  const Edge fresh = cluster.FreshEdge();
  const std::string body = StrFormat("+ %u %u\n", fresh.src, fresh.dst);

  // The same batch through the router (broadcast to every shard primary)
  // and directly into the single-node server.
  auto routed = HttpPost(cluster.router_port(), "/v1/update", body);
  auto direct = HttpPost(cluster.single_port(), "/v1/update", body);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(routed->status, 200) << routed->body;
  ASSERT_EQ(direct->status, 200) << direct->body;
  EXPECT_EQ(FindJsonNumber(routed->body, "applied"), 1.0);
  EXPECT_EQ(FindJsonNumber(routed->body, "sequence"), 1.0);
  EXPECT_EQ(FindJsonNumber(routed->body, "wal_records"), 1.0);
  // Same post-update fingerprint as the single node.
  EXPECT_EQ(FindJsonNumber(routed->body, "sequence"),
            FindJsonNumber(direct->body, "sequence"));
  const size_t fp_at = routed->body.find("\"graph_fingerprint\"");
  ASSERT_NE(fp_at, std::string::npos);
  EXPECT_NE(direct->body.find(routed->body.substr(fp_at, 40)),
            std::string::npos);

  // Every shard applied and logged the batch.
  for (size_t s = 0; s < cluster.plan().shards.size(); ++s) {
    const IndexUpdateStats stats = cluster.shard(s).updater->stats();
    EXPECT_EQ(stats.batches_applied, 1u) << "shard " << s;
    EXPECT_EQ(stats.wal_records, 1u) << "shard " << s;
  }

  // Post-update reads stay bitwise equal to the single node.
  const uint32_t boundary = cluster.plan().shards[0].end;
  cluster.ExpectSameAsSingleNode(
      StrFormat("/v1/pair?a=%u&b=%u", fresh.src, fresh.dst));
  cluster.ExpectSameAsSingleNode(
      StrFormat("/v1/single_source?v=%u", fresh.dst));
  cluster.ExpectSameAsSingleNode(StrFormat("/v1/topk?v=%u&k=9", fresh.dst));
  cluster.ExpectSameAsSingleNode(
      StrFormat("/v1/single_source?v=%u", boundary));

  // A bad batch (duplicate edge) is rejected everywhere; nothing advances.
  auto rejected = HttpPost(cluster.router_port(), "/v1/update", body);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 400) << rejected->body;
  for (size_t s = 0; s < cluster.plan().shards.size(); ++s) {
    EXPECT_EQ(cluster.shard(s).updater->stats().batches_applied, 1u);
  }
}

TEST(RouterTest, DivergedShardsFailEveryCrossShardRead) {
  ClusterFixture cluster(testing::RandomGraph(50, 200, 7));
  // A different batch straight into each primary: both shards reach
  // overlay sequence 1, over different graphs.
  for (uint32_t s = 0; s < 2; ++s) {
    const Edge fresh = cluster.FreshEdge(/*skip=*/s);
    auto applied = HttpPost(cluster.shard(s).port(), "/v1/update",
                            StrFormat("+ %u %u\n", fresh.src, fresh.dst));
    ASSERT_TRUE(applied.ok());
    ASSERT_EQ(applied->status, 200) << applied->body;
  }
  const uint32_t boundary = cluster.plan().shards[0].end;
  for (const std::string& target :
       {std::string("/v1/single_source?v=0"), std::string("/v1/topk?v=0&k=5"),
        StrFormat("/v1/pair?a=0&b=%u", boundary)}) {
    auto routed = HttpGet(cluster.router_port(), target);
    ASSERT_TRUE(routed.ok()) << target;
    EXPECT_EQ(routed->status, 500) << target << ": " << routed->body;
  }
}

TEST(RouterTest, ReadsDuringAnUpdateBurstNeverReportDivergence) {
  // A shard's /internal/* headers pair a graph fingerprint with an overlay
  // sequence. Both must describe the state that answered, also while a
  // batch is between its WAL sync and its publish; otherwise two shards at
  // the same sequence report different graphs and the router fails the
  // read as diverged (500). Reads may still run out of retries (503).
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  // Batch i inserts fresh edges 2i and 2i+1 and deletes batch i-1's two.
  std::vector<Edge> fresh;
  for (uint32_t k = 0; k < 100; ++k) fresh.push_back(cluster.FreshEdge(k * 7));
  std::vector<std::string> batches;
  for (size_t i = 0; i < fresh.size() / 2; ++i) {
    std::string body;
    for (size_t k = 2 * i; k < 2 * i + 2; ++k) {
      body += StrFormat("+ %u %u\n", fresh[k].src, fresh[k].dst);
    }
    for (size_t k = 2 * i - 2; i > 0 && k < 2 * i; ++k) {
      body += StrFormat("- %u %u\n", fresh[k].src, fresh[k].dst);
    }
    batches.push_back(std::move(body));
  }

  std::atomic<bool> writing{true};
  std::atomic<int> diverged{0};
  std::atomic<int> unexpected{0};
  std::atomic<int> answered{0};
  std::thread reader([&] {
    auto client = LoopbackHttpClient::Connect(cluster.router_port());
    OIPSIM_CHECK(client.ok());
    const uint32_t shard0_end = cluster.plan().shards[0].end;
    for (uint32_t i = 0; writing.load(); ++i) {
      const VertexId v = (i * 5) % shard0_end;
      const std::string target =
          i % 2 == 0 ? StrFormat("/v1/topk?v=%u&k=5", v)
                     : StrFormat("/v1/single_source?v=%u", v);
      auto routed = client->Get(target);
      if (!routed.ok()) {
        unexpected.fetch_add(1);
        continue;
      }
      if (routed->status == 500) {
        diverged.fetch_add(1);
      } else if (routed->status == 200) {
        answered.fetch_add(1);
      } else if (routed->status != 503) {
        unexpected.fetch_add(1);
      }
    }
  });
  size_t applied = 0;
  for (const std::string& body : batches) {
    auto routed = HttpPost(cluster.router_port(), "/v1/update", body);
    auto direct = HttpPost(cluster.single_port(), "/v1/update", body);
    if (!routed.ok() || !direct.ok() || routed->status != 200 ||
        direct->status != 200) {
      break;
    }
    ++applied;
  }
  writing.store(false);
  reader.join();
  ASSERT_EQ(applied, batches.size());
  EXPECT_EQ(diverged.load(), 0) << "of " << answered.load() << " answered";
  EXPECT_EQ(unexpected.load(), 0);

  for (VertexId v = 0; v < cluster.graph().n(); v += 9) {
    cluster.ExpectSameAsSingleNode(StrFormat("/v1/topk?v=%u&k=5", v));
    cluster.ExpectSameAsSingleNode(StrFormat("/v1/single_source?v=%u", v));
  }
}

TEST(RouterTest, ReplicaTailsWalAndServesFailoverReads) {
  ClusterFixture cluster(testing::RandomGraph(50, 200, 7),
                         /*num_shards=*/2, /*with_replica0=*/true);
  // Replicas refuse direct writes.
  EXPECT_EQ(
      HttpPost(cluster.replica()->port(), "/v1/update", "+ 0 1\n")->status,
      403);
  auto replica_stats = HttpGet(cluster.replica()->port(), "/v1/stats");
  ASSERT_TRUE(replica_stats.ok());
  EXPECT_NE(replica_stats->body.find("\"role\":\"replica\""),
            std::string::npos);

  // An update through the router lands on the shard-0 primary and ships
  // to the replica through its WAL tail. The single-node reference gets
  // the same batch so post-update comparisons stay meaningful.
  const Edge fresh = cluster.FreshEdge();
  const std::string batch = StrFormat("+ %u %u\n", fresh.src, fresh.dst);
  auto update = HttpPost(cluster.router_port(), "/v1/update", batch);
  ASSERT_TRUE(update.ok());
  ASSERT_EQ(update->status, 200) << update->body;
  ASSERT_EQ(HttpPost(cluster.single_port(), "/v1/update", batch)->status,
            200);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.replica()->updater->stats().batches_applied < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replica never caught up: "
        << cluster.tailer()->stats().last_error;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(cluster.tailer()->stats().halted);
  EXPECT_EQ(cluster.replica()->updater->stats().current_graph_fingerprint,
            cluster.shard(0).updater->stats().current_graph_fingerprint);

  // A row shard 0 owns, cached at the post-update version.
  const std::string cached_read = "/v1/topk?v=3&k=8";
  cluster.ExpectSameAsSingleNode(cached_read);

  // Kill the shard-0 primary: reads touching its range fail over to the
  // replica and still answer bitwise-identically (updated state included).
  cluster.shard(0).Stop();
  cluster.ExpectSameAsSingleNode("/v1/pair?a=0&b=1");
  cluster.ExpectSameAsSingleNode(
      StrFormat("/v1/single_source?v=%u", fresh.dst));
  cluster.ExpectSameAsSingleNode("/v1/topk?v=2&k=8");
  // The cached row is revalidated on the replica, which serves the same
  // version: a hit, still bitwise.
  const uint64_t hits = cluster.router().stats().cache.hits;
  cluster.ExpectSameAsSingleNode(cached_read);
  EXPECT_EQ(cluster.router().stats().cache.hits, hits + 1);
  const RouterStats stats = cluster.router().stats();
  EXPECT_GE(stats.failovers, 3u);
  EXPECT_GE(stats.shard_errors, 3u);

  // The router's stats and metrics reflect the failovers.
  auto router_stats = HttpGet(cluster.router_port(), "/v1/stats");
  ASSERT_TRUE(router_stats.ok());
  EXPECT_GE(FindJsonNumber(router_stats->body, "failovers"), 3.0);
  auto metrics = HttpGet(cluster.router_port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("simrank_router_failovers_total"),
            std::string::npos);

  // Writes never fail over: with a primary down the update degrades.
  auto blocked = HttpPost(cluster.router_port(), "/v1/update", "+ 1 0\n");
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->status, 503) << blocked->body;
  ASSERT_NE(blocked->FindHeader("retry-after"), nullptr);
}

TEST(RouterTest, StatsAndMetricsDescribeTheCluster) {
  ClusterFixture cluster(testing::RandomGraph(40, 160, 3));
  ASSERT_EQ(HttpGet(cluster.router_port(), "/healthz")->status, 200);
  ASSERT_EQ(HttpGet(cluster.router_port(), "/v1/pair?a=0&b=39")->status,
            200);
  auto stats = HttpGet(cluster.router_port(), "/v1/stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->status, 200);
  const std::string& body = stats->body;
  EXPECT_NE(body.find("\"role\":\"router\""), std::string::npos);
  EXPECT_EQ(FindJsonNumber(body, "plan_epoch"), 1.0);
  EXPECT_EQ(FindJsonNumber(body, "plan_shards"), 2.0);
  EXPECT_EQ(FindJsonNumber(body, "n"), 40.0);
  EXPECT_EQ(FindJsonNumber(body, "pair"), 1.0);
  EXPECT_EQ(FindJsonNumber(body, "healthz"), 1.0);

  auto metrics = HttpGet(cluster.router_port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find(
                "simrank_router_requests_total{endpoint=\"pair\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_router_shards 2"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_router_plan_epoch 1"),
            std::string::npos);
}

TEST(RouterTest, MetricsCountEveryEndpointTheStatsCount) {
  ClusterFixture cluster(testing::RandomGraph(40, 160, 3));
  for (const char* target : {"/v1/cluster/health", "/v1/debug/timeseries",
                             "/v1/debug/profile?seconds=0.05"}) {
    ASSERT_TRUE(HttpGet(cluster.router_port(), target).ok()) << target;
  }
  auto metrics = HttpGet(cluster.router_port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  for (const char* endpoint :
       {"cluster_health", "debug_timeseries", "debug_profile"}) {
    EXPECT_NE(metrics->body.find(StrFormat(
                  "simrank_router_requests_total{endpoint=\"%s\"} 1\n",
                  endpoint)),
              std::string::npos)
        << endpoint << "\n"
        << metrics->body;
  }
}

TEST(RouterTest, ThreeShardClusterStaysBitwise) {
  ClusterFixture cluster(testing::OverlappyGraph(45, 3, 13),
                         /*num_shards=*/3);
  for (const VertexId v : {0u, 14u, 15u, 29u, 30u, 44u}) {
    cluster.ExpectSameAsSingleNode(StrFormat("/v1/single_source?v=%u", v));
    cluster.ExpectSameAsSingleNode(StrFormat("/v1/topk?v=%u&k=11", v));
  }
  cluster.ExpectSameAsSingleNode("/v1/pair?a=1&b=44");
  cluster.ExpectSameAsSingleNode("/v1/pair?a=16&b=31");
}

TEST(RouterTest, CachedReadsAfterAnAcknowledgedUpdateMatchTheSingleNode) {
  ClusterFixture cluster(testing::RandomGraph(50, 200, 7));
  const uint32_t boundary = cluster.plan().shards[0].end;
  const VertexId v = 3;  // owned by shard 0
  const std::string topk = StrFormat("/v1/topk?v=%u&k=9", v);
  const std::string pair = StrFormat("/v1/pair?a=%u&b=%u", boundary + 4, v);
  // The top-k caches v's row; the cross-shard pair is answered from it.
  cluster.ExpectSameAsSingleNode(topk);
  cluster.ExpectSameAsSingleNode(pair);
  cluster.ExpectSameAsSingleNode(topk);
  EXPECT_EQ(cluster.router().stats().cache.hits, 2u);
  auto before = HttpGet(cluster.single_port(), topk);
  ASSERT_TRUE(before.ok());

  // A fresh in-edge of v changes v's walks, so its row.
  VertexId src = 0;
  while (src == v || cluster.graph().HasEdge(src, v)) ++src;
  const std::string batch = StrFormat("+ %u %u\n", src, v);
  auto routed = HttpPost(cluster.router_port(), "/v1/update", batch);
  ASSERT_TRUE(routed.ok());
  ASSERT_EQ(routed->status, 200) << routed->body;
  ASSERT_EQ(HttpPost(cluster.single_port(), "/v1/update", batch)->status, 200);
  auto after = HttpGet(cluster.single_port(), topk);
  ASSERT_TRUE(after.ok());
  ASSERT_NE(after->body, before->body) << "the batch left v's row unchanged";

  // The pair's revalidation finds the owner at the batch's version: its
  // new walk row scores the pair, and the stale row is erased. So the
  // top-k misses and caches the new row.
  cluster.ExpectSameAsSingleNode(pair);
  cluster.ExpectSameAsSingleNode(topk);
  const RouterStats stats = cluster.router().stats();
  EXPECT_EQ(stats.cache_stale, 1u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.misses, 3u);
  // The top-k cached the new row: the next read of it hits.
  cluster.ExpectSameAsSingleNode(pair);
  EXPECT_EQ(cluster.router().stats().cache.hits, 3u);
}

TEST(RouterTest, CachedReadsCostOneShardRequest) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  const uint32_t boundary = cluster.plan().shards[0].end;
  // Dispatched requests summed over both shards, the 304s included.
  auto shard_requests = [&cluster] {
    uint64_t total = 0;
    for (size_t s = 0; s < 2; ++s) {
      for (const uint64_t count : cluster.shard(s).server->stats().requests) {
        total += count;
      }
    }
    return total;
  };
  const std::string topk = "/v1/topk?v=5&k=6";
  uint64_t before = shard_requests();
  cluster.ExpectSameAsSingleNode(topk);  // the row fetch and two slices
  EXPECT_EQ(shard_requests() - before, 3u);
  before = shard_requests();
  cluster.ExpectSameAsSingleNode(topk);
  EXPECT_EQ(shard_requests() - before, 1u);
  // Cross-shard pairs from v's row, as either endpoint.
  for (const std::string& pair :
       {StrFormat("/v1/pair?a=5&b=%u", boundary + 3),
        StrFormat("/v1/pair?a=%u&b=5", boundary + 3)}) {
    before = shard_requests();
    cluster.ExpectSameAsSingleNode(pair);
    EXPECT_EQ(shard_requests() - before, 1u) << pair;
  }

  const RouterStats stats = cluster.router().stats();
  EXPECT_EQ(stats.cache.hits, 3u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache_stale, 0u);
  EXPECT_EQ(stats.cache.rows, 1u);
  EXPECT_GT(stats.cache.resident_bytes, 0u);
  // The owner's 304s count with its successes.
  EXPECT_EQ(cluster.shard(0).server->stats().responses_4xx, 0u);
  auto body = HttpGet(cluster.router_port(), "/v1/stats");
  ASSERT_TRUE(body.ok());
  size_t cursor = body->body.find("\"cache\":{");
  ASSERT_NE(cursor, std::string::npos);
  EXPECT_EQ(FindJsonNumber(body->body, "hits", &cursor), 3.0);
  auto metrics = HttpGet(cluster.router_port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("simrank_router_cache_hits_total 3\n"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_router_cache_rows 1\n"),
            std::string::npos);
}

TEST(RouterTest, ShardAnswersAMatchingWalkStampWith304OnItsLoop) {
  const DiGraph graph = testing::RandomGraph(40, 160, 3);
  const std::string prefix =
      ::testing::TempDir() + StrFormat("stamp-%u-", g_fixture_counter++);
  const WalkIndex full = BuildIndex(graph, 32);
  auto plan = ShardPlan::EvenSplit(full.n(), full.graph_fingerprint(), 2);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(WriteShardIndex(full.store(), plan->shards[0],
                              prefix + "shard-0.widx", false)
                  .ok());
  ServerOptions options;
  options.sharded = true;
  options.shard_plan = *plan;
  options.threads = 1;
  options.handler_delay_ms = 500;
  ServerNode shard(prefix + "shard-0.widx", graph, options,
                   prefix + "shard-0.wal");
  const ShardVersion current{plan->epoch, full.graph_fingerprint(), 0};
  auto walks = [&shard](const std::string& stamp) {
    return HttpGet(shard.port(), "/internal/walks?v=2&stamp=" + stamp);
  };

  // An unconditional fetch holds the only worker for half a second.
  std::atomic<bool> held{true};
  std::thread holder([&shard, &held] {
    auto row = HttpGet(shard.port(), "/internal/walks?v=1");
    OIPSIM_CHECK(row.ok() && row->status == 200);
    held.store(false);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shard.server->stats().inflight == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The matching stamp: 304 with the version headers and no body, from
  // the loop, while the worker is still held.
  auto fresh = walks(FormatShardVersion(current));
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(held.load()) << "the 304 waited for the worker";
  EXPECT_EQ(fresh->status, 304);
  EXPECT_TRUE(fresh->body.empty());
  ASSERT_NE(fresh->FindHeader("x-graph-fingerprint"), nullptr);
  EXPECT_EQ(*fresh->FindHeader("x-graph-fingerprint"),
            FormatFingerprint(full.graph_fingerprint()));
  ASSERT_NE(fresh->FindHeader("x-overlay-sequence"), nullptr);
  EXPECT_EQ(*fresh->FindHeader("x-overlay-sequence"), "0");
  ASSERT_NE(fresh->FindHeader("x-plan-epoch"), nullptr);
  EXPECT_EQ(*fresh->FindHeader("x-plan-epoch"),
            StrFormat("%llu", static_cast<unsigned long long>(plan->epoch)));

  // Malformed stamps are 400.
  const std::string fingerprint = FormatFingerprint(full.graph_fingerprint());
  for (const std::string& stamp :
       {std::string(), std::string("1-2-3"), "1-" + fingerprint,
        "x-" + fingerprint + "-0", "1-" + fingerprint + "-0-0",
        "1-" + fingerprint.substr(1) + "-0"}) {
    auto bad = walks(stamp);
    ASSERT_TRUE(bad.ok());
    EXPECT_EQ(bad->status, 400) << stamp << ": " << bad->body;
  }
  // A stale stamp gets the walk row an unconditional fetch gets, and a
  // vertex outside the range its 421, whatever the stamp.
  ShardVersion stale = current;
  stale.sequence = 7;
  auto moved = walks(FormatShardVersion(stale));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->status, 200);
  auto plain = HttpGet(shard.port(), "/internal/walks?v=2");
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->status, 200);
  EXPECT_EQ(moved->body, plain->body);
  EXPECT_EQ(HttpGet(shard.port(),
                    StrFormat("/internal/walks?v=%u&stamp=%s",
                              plan->shards[1].begin,
                              FormatShardVersion(current).c_str()))
                ->status,
            421);
  holder.join();

  // Every fetch counts as a request; the 304 counts with the successes.
  const ServerStats stats = shard.server->stats();
  EXPECT_EQ(stats.requests[static_cast<size_t>(ServerEndpoint::kSingleSource)],
            11u);
  EXPECT_EQ(stats.responses_2xx, 4u);
}

/// Threads of this process (entries of /proc/self/task).
size_t CountThreads() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// Mapped virtual memory of this process in KiB (VmSize): an exited but
/// never-joined thread keeps its stack mapped.
uint64_t VirtualKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtoull(line.c_str() + 7, nullptr, 10);
    }
  }
  return 0;
}

TEST(RouterTest, ConnectionHandlersAreJoinedAsConnectionsEnd) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  ASSERT_EQ(HttpGet(cluster.router_port(), "/healthz")->status, 200);
  const size_t threads_before = CountThreads();
  const uint64_t virtual_before = VirtualKiB();
  constexpr int kConnections = 2000;
  for (int i = 0; i < kConnections; ++i) {
    auto response = HttpGet(cluster.router_port(), "/healthz");
    ASSERT_TRUE(response.ok()) << "connection " << i;
    ASSERT_EQ(response->status, 200);
  }
  // A handler may still be winding down its just-closed connection; the
  // rest were joined as later connections arrived.
  EXPECT_LE(CountThreads(), threads_before + 8);
  // 2000 unjoined 8 MiB stacks would add ~16 GiB of mappings.
  EXPECT_LE(VirtualKiB(), virtual_before + 512 * 1024);
}

TEST(RouterTest, HeldConnectionsStartNoThreads) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  ASSERT_EQ(HttpGet(cluster.router_port(), "/healthz")->status, 200);
  const size_t threads_before = CountThreads();
  std::vector<LoopbackHttpClient> clients;
  for (int i = 0; i < 256; ++i) {
    auto client = LoopbackHttpClient::Connect(cluster.router_port());
    ASSERT_TRUE(client.ok()) << "connection " << i;
    auto response = client->Get("/healthz");
    ASSERT_TRUE(response.ok()) << "connection " << i;
    ASSERT_EQ(response->status, 200);
    clients.push_back(std::move(*client));
  }
  // Every connection is open and kept alive; the router's one event loop
  // holds them all.
  EXPECT_LE(CountThreads(), threads_before + 8);
}

/// A listening socket that never accepts: connections complete into its
/// backlog and requests are buffered, but nothing ever answers.
class HungShard {
 public:
  HungShard() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    OIPSIM_CHECK(fd_ >= 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    OIPSIM_CHECK(
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0);
    OIPSIM_CHECK(::listen(fd_, 16) == 0);
    socklen_t length = sizeof(addr);
    OIPSIM_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr),
                               &length) == 0);
    port_ = ntohs(addr.sin_port);
  }
  ~HungShard() { ::close(fd_); }
  HungShard(const HungShard&) = delete;
  HungShard& operator=(const HungShard&) = delete;
  uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

TEST(RouterTest, HungShardsInOneScatterCostOneTimeout) {
  // Shard 0 is live and owns the queried row; shards 1 and 2 hang.
  const DiGraph graph = testing::RandomGraph(45, 180, 5);
  const std::string tag = StrFormat("hung-%u-", g_fixture_counter++);
  const WalkIndex full = BuildIndex(graph, 32);
  auto plan = ShardPlan::EvenSplit(full.n(), full.graph_fingerprint(), 3);
  ASSERT_TRUE(plan.ok());
  const std::string shard_path = ::testing::TempDir() + tag + "shard-0.widx";
  ASSERT_TRUE(
      WriteShardIndex(full.store(), plan->shards[0], shard_path, false).ok());
  ServerOptions shard_options;
  shard_options.sharded = true;
  shard_options.shard_plan = *plan;
  ServerNode live(shard_path, graph, shard_options,
                  ::testing::TempDir() + tag + "shard-0.wal");
  HungShard hung1;
  HungShard hung2;
  RouterOptions options;
  options.plan = *plan;
  options.shards = {RouterShard{0, live.port(), 0},
                    RouterShard{1, hung1.port(), 0},
                    RouterShard{2, hung2.port(), 0}};
  options.timeout_ms = 400;
  options.scrape_interval_ms = 0;
  SimRankRouter router(std::move(options));
  ASSERT_TRUE(router.Bind().ok());
  ASSERT_TRUE(router.Start().ok());

  const auto start = std::chrono::steady_clock::now();
  auto response = HttpGet(router.port(), "/v1/topk?v=0&k=5");
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 503) << response->body;
  EXPECT_NE(response->FindHeader("retry-after"), nullptr);
  // Both hung legs wait at once: one timeout, not one per hung shard.
  EXPECT_LT(elapsed_ms, 600) << "two hung shards cost " << elapsed_ms << " ms";
  router.Shutdown();
}

TEST(RouterTest, BatchAgainstADeadShardAnswers503AndKeepsServing) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  const uint32_t boundary = cluster.plan().shards[0].end;
  cluster.shard(1).Stop();
  // A full batch: same-shard pairs on the live shard, one after another,
  // then a pair owned by the dead one.
  const uint32_t max_pairs = RouterOptions().max_batch_pairs;
  std::string body;
  for (uint32_t i = 0; i + 1 < max_pairs; ++i) {
    body += StrFormat("%u %u\n", i % boundary, (i * 7 + 1) % boundary);
  }
  body += StrFormat("0 %u\n", boundary);
  auto routed = HttpPost(cluster.router_port(), "/v1/batch_pair", body);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->status, 503) << routed->body;
  // A batch whose every pair hits the dead shard fails at its first.
  std::string dead;
  for (uint32_t i = 0; i < max_pairs; ++i) {
    dead += StrFormat("%u %u\n", boundary, boundary + 1);
  }
  auto all_dead = HttpPost(cluster.router_port(), "/v1/batch_pair", dead);
  ASSERT_TRUE(all_dead.ok());
  EXPECT_EQ(all_dead->status, 503) << all_dead->body;
  // The router keeps serving what the live shard owns.
  cluster.ExpectSameAsSingleNode("/v1/pair?a=0&b=1");
  ASSERT_EQ(HttpGet(cluster.router_port(), "/healthz")->status, 200);
}

/// One {u32 vertex, f64 score} record of an /internal/row frame.
std::string RowRecord(uint32_t vertex, double score) {
  std::string record(12, '\0');
  std::memcpy(record.data(), &vertex, sizeof(vertex));
  std::memcpy(record.data() + 4, &score, sizeof(score));
  return record;
}

/// A stand-in shard of a one-shard plan over 10 vertices (epoch 1). It
/// answers every pair and update with `200 {}`, and every walk row with a
/// row and the version headers. Its /internal/row frame for row v is
/// well-formed for v = 0; for v = 1, 2 and 3 it is 13 bytes, lists vertex
/// 10 (outside [0, 10)) and lists two vertices out of order.
class MalformedShard {
 public:
  MalformedShard()
      : frontend_(
            options_, [] { return MetricSet(); },
            [] { return std::vector<PromFamily>(); }) {
    options_.port = 0;
    auto empty = [this](HttpFrontend::Connection* conn, const HttpRequest&,
                        int) { frontend_.Answer(conn, 200, "{}"); };
    const HttpHeaders versions = {{"X-Graph-Fingerprint", "0000000000000001"},
                                  {"X-Overlay-Sequence", "0"},
                                  {"X-Plan-Epoch", "1"}};
    auto walks = [this, versions](HttpFrontend::Connection* conn,
                                  const HttpRequest& request, int) {
      uint32_t row[4] = {};
      row[0] = static_cast<uint32_t>(std::stoul(*request.FindParam("v")));
      frontend_.Answer(conn, 200,
                       std::string_view(reinterpret_cast<char*>(row),
                                        sizeof(row)),
                       versions, "application/octet-stream");
    };
    auto row = [this, versions](HttpFrontend::Connection* conn,
                                const HttpRequest& request, int) {
      const std::string frames[] = {
          RowRecord(0, 1.0) + RowRecord(4, 0.25),
          RowRecord(0, 1.0) + "\x01",
          RowRecord(2, 1.0) + RowRecord(10, 0.25),
          RowRecord(5, 0.5) + RowRecord(3, 1.0)};
      frontend_.Answer(conn, 200,
                       frames[std::stoul(*request.FindParam("v")) % 4],
                       versions, "application/octet-stream");
    };
    frontend_.AddRoutes(
        {{"/v1/pair", "GET", HttpFrontend::kNoAdmission, empty},
         {"/v1/update", "POST", HttpFrontend::kNoAdmission, empty},
         {"/internal/walks", "GET", HttpFrontend::kNoAdmission, walks},
         {"/internal/row", "POST", HttpFrontend::kNoAdmission, row}});
    OIPSIM_CHECK(frontend_.Bind().ok());
    thread_ = std::thread([this] { frontend_.Serve(); });
  }
  ~MalformedShard() {
    frontend_.Shutdown();
    thread_.join();
  }
  uint16_t port() const { return frontend_.port(); }

 private:
  ServerOptions options_;
  HttpFrontend frontend_;
  std::thread thread_;
};

TEST(RouterTest, MalformedShardRepliesAnswer500) {
  MalformedShard shard;
  auto plan = ShardPlan::EvenSplit(10, 0x1, 1);
  ASSERT_TRUE(plan.ok());
  RouterOptions options;
  options.plan = *plan;
  options.shards = {RouterShard{0, shard.port(), 0}};
  options.scrape_interval_ms = 0;
  SimRankRouter router(std::move(options));
  ASSERT_TRUE(router.Bind().ok());
  ASSERT_TRUE(router.Start().ok());
  auto pair = HttpGet(router.port(), "/v1/pair?a=0&b=1");
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->status, 500);
  EXPECT_NE(pair->body.find("shard 0"), std::string::npos) << pair->body;
  auto update = HttpPost(router.port(), "/v1/update", "+ 0 1\n");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->status, 500);
  EXPECT_NE(update->body.find("shard 0"), std::string::npos) << update->body;
  // Row frames: a well-formed one answers, and each malformed one is a 500
  // naming the shard, for a top-k and a single-source alike.
  for (const char* endpoint : {"/v1/topk", "/v1/single_source"}) {
    for (VertexId v = 0; v < 4; ++v) {
      auto read = HttpGet(router.port(), StrFormat("%s?v=%u", endpoint, v));
      ASSERT_TRUE(read.ok());
      SCOPED_TRACE(StrFormat("%s?v=%u: %s", endpoint, v, read->body.c_str()));
      EXPECT_EQ(read->status, v == 0 ? 200 : 500);
      if (v > 0) EXPECT_NE(read->body.find("shard 0"), std::string::npos);
    }
  }
  auto healthz = HttpGet(router.port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);
  router.Shutdown();
}

TEST(ReplicationTest, ReplicaHaltsWhenThePrimaryResetsItsWal) {
  const DiGraph graph = testing::RandomGraph(50, 200, 7);
  const std::string prefix =
      ::testing::TempDir() + StrFormat("reset-%u-", g_fixture_counter++);
  ASSERT_TRUE(BuildIndex(graph, 32).Save(prefix + "full.widx").ok());
  ServerOptions primary_options;
  primary_options.compact_path = prefix + "compacted.widx";
  primary_options.compact_graph_path = prefix + "compacted.graph.bin";
  ServerNode primary(prefix + "full.widx", graph, primary_options,
                     prefix + "primary.wal");
  ServerOptions replica_options;
  replica_options.replica = true;
  ServerNode replica(prefix + "full.widx", graph, replica_options,
                     prefix + "replica.wal");
  WalTailerOptions tailer_options;
  tailer_options.source_port = primary.port();
  tailer_options.poll_interval_ms = 10;
  WalTailer tailer(*replica.updater, tailer_options);
  ASSERT_TRUE(tailer.Start().ok());
  // A one-shard router scraping both, for /v1/cluster/health.
  auto plan = ShardPlan::EvenSplit(graph.n(),
                                   primary.index.graph_fingerprint(), 1);
  ASSERT_TRUE(plan.ok());
  RouterOptions router_options;
  router_options.plan = *plan;
  router_options.shards = {RouterShard{0, primary.port(), replica.port()}};
  router_options.scrape_interval_ms = 20;
  SimRankRouter router(std::move(router_options));
  ASSERT_TRUE(router.Bind().ok());
  ASSERT_TRUE(router.Start().ok());
  // The replica's entry of the health body ("" until it is listed).
  auto replica_health = [&router] {
    auto health = HttpGet(router.port(), "/v1/cluster/health");
    if (!health.ok()) return std::string();
    const size_t at = health->body.find("\"replica\":{");
    return at == std::string::npos ? std::string()
                                   : health->body.substr(at);
  };

  std::vector<Edge> fresh;
  for (VertexId src = 0; src < graph.n() && fresh.size() < 4; ++src) {
    if (src != 1 && !graph.HasEdge(src, 1)) fresh.push_back(Edge{src, 1});
  }
  ASSERT_EQ(fresh.size(), 4u);
  auto apply = [&](const Edge& edge) {
    auto applied = HttpPost(primary.port(), "/v1/update",
                            StrFormat("+ %u %u\n", edge.src, edge.dst));
    ASSERT_TRUE(applied.ok());
    ASSERT_EQ(applied->status, 200) << applied->body;
  };
  auto wait_for = [](auto done, const char* what) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  apply(fresh[0]);
  apply(fresh[1]);
  wait_for([&] { return replica.updater->stats().batches_applied == 2; },
           "the replica never caught up");
  const uint64_t caught_up =
      replica.updater->stats().current_graph_fingerprint;
  EXPECT_EQ(caught_up, primary.updater->stats().current_graph_fingerprint);
  wait_for(
      [&] {
        return replica_health().find("\"wal_lag_records\":0") !=
               std::string::npos;
      },
      "the router never saw the replica caught up");
  EXPECT_NE(replica_health().find("\"healthy\":true"), std::string::npos);

  // The compaction renumbers the primary's WAL; two more batches take its
  // record count back to the replica's.
  auto compacted = HttpPost(primary.port(), "/v1/compact", "");
  ASSERT_TRUE(compacted.ok());
  ASSERT_EQ(compacted->status, 200) << compacted->body;
  apply(fresh[2]);
  apply(fresh[3]);
  wait_for([&] { return tailer.stats().halted; },
           "the tailer never noticed the reset log");
  EXPECT_NE(tailer.stats().last_error.find("reset"), std::string::npos)
      << tailer.stats().last_error;
  EXPECT_EQ(replica.updater->stats().current_graph_fingerprint, caught_up);
  // The replica reports the halt, and the router reads it unhealthy with
  // no lag: its record count no longer measures one.
  auto stats = HttpGet(replica.port(), "/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("\"replication\":{\"halted\":1,"),
            std::string::npos)
      << stats->body;
  EXPECT_NE(stats->body.find("reset under this replica"), std::string::npos);
  wait_for(
      [&] {
        return replica_health().find("\"healthy\":false") !=
               std::string::npos;
      },
      "the router never saw the halt");
  const std::string halted = replica_health();
  EXPECT_EQ(halted.find("wal_lag_records"), std::string::npos) << halted;
  EXPECT_NE(halted.find("\"error\":\"WAL replication halted"),
            std::string::npos)
      << halted;
  EXPECT_TRUE(halted.ends_with("\"healthy\":false}")) << halted;
  router.Shutdown();
  tailer.Stop();
}

TEST(RouterOptionsTest, ValidateRejectsInconsistentTopologies) {
  auto plan = ShardPlan::EvenSplit(10, 0x1, 2);
  ASSERT_TRUE(plan.ok());
  RouterOptions options;
  options.plan = *plan;
  options.shards = {RouterShard{0, 9001, 0}, RouterShard{1, 9002, 0}};
  EXPECT_TRUE(options.Validate().ok());

  // Shard count mismatch.
  options.shards.pop_back();
  EXPECT_FALSE(options.Validate().ok());

  // Out-of-order / wrong ids.
  options.shards = {RouterShard{1, 9001, 0}, RouterShard{0, 9002, 0}};
  EXPECT_FALSE(options.Validate().ok());

  // A shard without a primary.
  options.shards = {RouterShard{0, 9001, 0}, RouterShard{1, 0, 0}};
  EXPECT_FALSE(options.Validate().ok());

  // Zero timeout.
  options.shards = {RouterShard{0, 9001, 0}, RouterShard{1, 9002, 0}};
  options.timeout_ms = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(RouterOptionsTest, ValidateRejectsZeroBatchCapLikeTheServer) {
  auto plan = ShardPlan::EvenSplit(10, 0x1, 2);
  ASSERT_TRUE(plan.ok());
  RouterOptions options;
  options.plan = *plan;
  options.shards = {RouterShard{0, 9001, 0}, RouterShard{1, 9002, 0}};
  options.max_batch_pairs = 0;
  EXPECT_FALSE(options.Validate().ok());
  ServerOptions server_options;
  server_options.max_batch_pairs = 0;
  EXPECT_FALSE(server_options.Validate().ok());
}

TEST(RouterOptionsTest, ValidateCapsMetricsHistoryLikeTheServer) {
  auto plan = ShardPlan::EvenSplit(10, 0x1, 2);
  ASSERT_TRUE(plan.ok());
  RouterOptions options;
  options.plan = *plan;
  options.shards = {RouterShard{0, 9001, 0}, RouterShard{1, 9002, 0}};
  ServerOptions server_options;
  // An hour at 1 ms is 3.6M points per series, past the 2^20 cap.
  options.diagnostics.metrics_history_window_s = 3600;
  options.diagnostics.metrics_history_interval_ms = 1;
  server_options.diagnostics.metrics_history_window_s = 3600;
  server_options.diagnostics.metrics_history_interval_ms = 1;
  const Status routed = options.Validate();
  EXPECT_FALSE(routed.ok());
  EXPECT_EQ(routed.ToString(), server_options.Validate().ToString());
}

/// A router over shards nothing serves, fleet scraping off: enough for
/// its own debug surface, which never contacts a shard.
std::unique_ptr<SimRankRouter> StartShardlessRouter(RouterOptions options) {
  auto plan = ShardPlan::EvenSplit(10, 0x1, 2);
  OIPSIM_CHECK(plan.ok());
  options.plan = *plan;
  options.shards = {RouterShard{0, 9001, 0}, RouterShard{1, 9002, 0}};
  options.scrape_interval_ms = 0;
  auto router = std::make_unique<SimRankRouter>(std::move(options));
  OIPSIM_CHECK(router->Bind().ok());
  OIPSIM_CHECK(router->Start().ok());
  return router;
}

#if defined(__linux__)
TEST(RouterDebugTest, ProfileReturnsCollapsedStacks) {
  auto router = StartShardlessRouter({});
  auto response =
      HttpGet(router->port(), "/v1/debug/profile?seconds=0.2&hz=211");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  EXPECT_EQ(response->body.rfind("# profile ", 0), 0u) << response->body;
  EXPECT_NE(response->body.find("frequency_hz=211"), std::string::npos);
  ASSERT_NE(response->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*response->FindHeader("content-type"), "text/plain");
}
#endif  // __linux__

TEST(RouterDebugTest, ProfileValidatesParamsAndMethodLikeTheServer) {
  auto router = StartShardlessRouter({});
  for (const char* target :
       {"/v1/debug/profile?seconds=0", "/v1/debug/profile?hz=0",
        "/v1/debug/profile?bogus=1"}) {
    auto response = HttpGet(router->port(), target);
    ASSERT_TRUE(response.ok()) << target;
    EXPECT_EQ(response->status, 400) << target;
  }
  auto post = HttpPost(router->port(), "/v1/debug/profile", "{}");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 405);
  ASSERT_NE(post->FindHeader("allow"), nullptr);
  EXPECT_EQ(*post->FindHeader("allow"), "GET");
}

TEST(RouterDebugTest, TimeseriesServesTheRouterHistory) {
  RouterOptions options;
  options.diagnostics.metrics_history_interval_ms = 20;  // fast sampling
  auto router = StartShardlessRouter(options);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (true) {
    auto list = HttpGet(router->port(), "/v1/debug/timeseries");
    ASSERT_TRUE(list.ok());
    ASSERT_EQ(list->status, 200);
    if (list->body.find("simrank_router_uptime_seconds") !=
        std::string::npos) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << list->body;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  auto series = HttpGet(
      router->port(),
      "/v1/debug/timeseries?metric=simrank_router_uptime_seconds");
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->status, 200);
  EXPECT_NE(series->body.find("\"points\""), std::string::npos)
      << series->body;

  auto bad = HttpGet(router->port(), "/v1/debug/timeseries?metric=g&window=abc");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
}

TEST(RouterDebugTest, TimeseriesAnswers503WithHistoryDisabled) {
  RouterOptions options;
  options.diagnostics.metrics_history_window_s = 0;
  auto router = StartShardlessRouter(options);
  auto response = HttpGet(router->port(), "/v1/debug/timeseries");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 503);
}

TEST(RouterTraceTest, RoutedTraceMergesShardSubTraces) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  const VertexId v = cluster.plan().shards[0].end;  // owned by shard 1
  // Traced first: the row is not cached yet, so this read scatters. The
  // plain read after it is answered from the cached row.
  auto traced = HttpGet(cluster.router_port(),
                        StrFormat("/v1/single_source?v=%u&trace=1", v));
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced->status, 200);
  auto plain =
      HttpGet(cluster.router_port(), StrFormat("/v1/single_source?v=%u", v));
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->status, 200);
  const std::string& body = traced->body;
  // The routed envelope is the plain body plus one spliced trace object.
  const std::string prefix = plain->body.substr(0, plain->body.size() - 1);
  ASSERT_EQ(body.substr(0, prefix.size()), prefix);
  ASSERT_NE(body.find(",\"trace\":{\"trace_id\":\""), std::string::npos);

  // Router-side stages: the row fetch from v's owner, one exchange span
  // per shard (timed from send to reply), and the merge.
  EXPECT_NE(body.find("\"stage\":\"row_fetch\""), std::string::npos);
  EXPECT_NE(body.find("\"stage\":\"merge\""), std::string::npos);
  size_t cursor = body.find("\"stage\":\"request\"");
  ASSERT_NE(cursor, std::string::npos);
  const double root_duration = FindJsonNumber(body, "duration_ns", &cursor);
  EXPECT_GT(root_duration, 0.0);
  for (const char* detail : {"\"detail\":\"shard=0\"",
                             "\"detail\":\"shard=1\""}) {
    size_t at = body.find("\"stage\":\"shard_exchange\"");
    ASSERT_NE(at, std::string::npos);
    ASSERT_NE(body.find(detail), std::string::npos);
  }
  // Every shard exchange fits inside the routed request.
  size_t at = 0;
  int exchanges = 0;
  while ((at = body.find("\"stage\":\"shard_exchange\"", at)) !=
         std::string::npos) {
    size_t span_cursor = at;
    const double duration =
        FindJsonNumber(body, "duration_ns", &span_cursor);
    EXPECT_GT(duration, 0.0);
    EXPECT_LE(duration, root_duration);
    ++exchanges;
    ++at;
  }
  EXPECT_EQ(exchanges, 2);

  // The row fetch plus both fanned exchanges each contacted a shard and
  // brought back that shard's own trace as a child document.
  cursor = body.find("\"counters\":{");
  ASSERT_NE(cursor, std::string::npos);
  EXPECT_EQ(FindJsonNumber(body, "shards_contacted", &cursor), 3.0);
  const size_t children_at = body.find("\"children\":[");
  ASSERT_NE(children_at, std::string::npos);
  int children = 0;
  at = children_at;
  while ((at = body.find("{\"trace_id\":\"", at)) != std::string::npos) {
    ++children;
    ++at;
  }
  EXPECT_EQ(children, 3);
  // Shard sub-traces carry shard-side stages the router never records.
  EXPECT_NE(body.find("\"stage\":\"queue_wait\"", children_at),
            std::string::npos);

  // A cached read: the cache lookup, one revalidating row fetch whose
  // child trace is the owner's (answered on its loop: no queue_wait), one
  // hit, and no scatter.
  auto hit = HttpGet(cluster.router_port(),
                     StrFormat("/v1/single_source?v=%u&trace=1", v));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->status, 200);
  const std::string& hit_body = hit->body;
  EXPECT_EQ(hit_body.substr(0, prefix.size()), prefix);
  EXPECT_NE(hit_body.find("\"stage\":\"cache_lookup\""), std::string::npos);
  EXPECT_NE(hit_body.find("\"stage\":\"row_fetch\""), std::string::npos);
  EXPECT_NE(hit_body.find("\"detail\":\"shard=1\""), std::string::npos);
  EXPECT_EQ(hit_body.find("\"stage\":\"shard_exchange\""), std::string::npos);
  EXPECT_EQ(hit_body.find("\"stage\":\"merge\""), std::string::npos);
  cursor = hit_body.find("\"counters\":{");
  ASSERT_NE(cursor, std::string::npos);
  size_t hits_cursor = cursor;
  EXPECT_EQ(FindJsonNumber(hit_body, "cache_hits", &hits_cursor), 1.0);
  EXPECT_EQ(FindJsonNumber(hit_body, "shards_contacted", &cursor), 1.0);
  const size_t hit_children_at = hit_body.find("\"children\":[");
  ASSERT_NE(hit_children_at, std::string::npos);
  EXPECT_NE(hit_body.find("{\"trace_id\":\"", hit_children_at),
            std::string::npos);
  EXPECT_EQ(hit_body.find("\"stage\":\"queue_wait\"", hit_children_at),
            std::string::npos);
}

TEST(RouterTraceTest, HeaderChannelKeepsRoutedBodyIdentical) {
  ClusterFixture cluster(testing::RandomGraph(60, 240, 11));
  const uint32_t boundary = cluster.plan().shards[0].end;
  // A cross-shard pair: a on shard 0, b on shard 1.
  const std::string target =
      StrFormat("/v1/pair?a=%u&b=%u", boundary - 1, boundary);
  auto client = LoopbackHttpClient::Connect(cluster.router_port());
  ASSERT_TRUE(client.ok());
  auto plain = client->Get(target);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->status, 200);
  auto traced = client->Get(target, {{"X-Simrank-Trace", "1234abcd"}});
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced->status, 200);
  EXPECT_EQ(traced->body, plain->body)
      << "the header channel must never perturb a routed body";
  const std::string* json = traced->FindHeader("x-simrank-trace-json");
  ASSERT_NE(json, nullptr);
  EXPECT_NE(json->find("\"trace_id\":\"000000001234abcd\""),
            std::string::npos);
  EXPECT_NE(json->find("\"stage\":\"row_fetch\""), std::string::npos);
  EXPECT_NE(json->find("\"stage\":\"shard_exchange\""), std::string::npos);
  EXPECT_NE(json->find("\"children\":["), std::string::npos);

  // Traced requests surface in the router's stats and metrics.
  auto stats = HttpGet(cluster.router_port(), "/v1/stats");
  ASSERT_TRUE(stats.ok());
  size_t cursor = stats->body.find("\"trace\":{");
  ASSERT_NE(cursor, std::string::npos);
  EXPECT_GE(FindJsonNumber(stats->body, "traced_requests", &cursor), 1.0);
  auto metrics = HttpGet(cluster.router_port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("simrank_router_traced_requests_total"),
            std::string::npos);
}

}  // namespace
}  // namespace simrank
