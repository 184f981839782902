// End-to-end tests of the epoll serving frontend: real sockets against a
// real QueryEngine, concurrent clients, admission control, shutdown.
#include "simrank/server/server.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/server/http_client.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

/// A server over a small deterministic graph, running on its own thread.
/// With `with_updater`, a WAL-backed IndexUpdater is bound to the index
/// and the live-update endpoints are enabled.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options = {},
                         uint32_t fingerprints = 64,
                         bool with_updater = false)
      : graph_(testing::RandomGraph(60, 240, 11)),
        index_(BuildIndex(graph_, fingerprints)),
        engine_(index_),
        reference_engine_(index_) {
    options.port = 0;  // every fixture gets its own free port
    if (with_updater) {
      wal_path_ = ::testing::TempDir() +
                  StrFormat("server-fixture-%u.wal", options.max_inflight);
      std::remove(wal_path_.c_str());
      if (options.compact_path.empty()) {
        options.compact_path = wal_path_ + ".compacted.widx";
      }
      if (options.compact_graph_path.empty()) {
        options.compact_graph_path = options.compact_path + ".graph.bin";
      }
      IndexUpdaterOptions updater_options;
      updater_options.wal_path = wal_path_;
      auto updater = IndexUpdater::Open(index_, graph_, updater_options);
      OIPSIM_CHECK(updater.ok());
      updater_ = std::move(*updater);
    }
    compact_path_ = options.compact_path;
    server_ =
        std::make_unique<SimRankServer>(engine_, options, updater_.get());
    OIPSIM_CHECK(server_->Bind().ok());
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  ~ServerFixture() { StopAndJoin(); }

  void StopAndJoin() {
    if (serve_thread_.joinable()) {
      server_->Shutdown();
      serve_thread_.join();
    }
  }

  uint16_t port() const { return server_->port(); }
  SimRankServer& server() { return *server_; }
  const DiGraph& graph() const { return graph_; }
  const WalkIndex& index() const { return index_; }
  IndexUpdater* updater() { return updater_.get(); }
  /// The engine the server answers from.
  QueryEngine& engine() { return engine_; }
  const std::string& compact_path() const { return compact_path_; }
  /// A second engine over the same index: direct answers unperturbed by
  /// the served engine's cache state (they must agree bitwise anyway).
  QueryEngine& reference() { return reference_engine_; }
  const Status& serve_status() const { return serve_status_; }

  /// An edge not present in the current graph.
  Edge FreshEdge() {
    const DiGraph current =
        updater_ != nullptr ? updater_->CurrentGraph() : graph_;
    for (VertexId src = 0; src < current.n(); ++src) {
      for (VertexId dst = 0; dst < current.n(); ++dst) {
        if (src != dst && !current.HasEdge(src, dst)) {
          return Edge{src, dst};
        }
      }
    }
    OIPSIM_CHECK_MSG(false, "no fresh edge in fixture graph");
    return Edge{};
  }

 private:
  static WalkIndex BuildIndex(const DiGraph& graph, uint32_t fingerprints) {
    WalkIndexOptions options;
    options.num_fingerprints = fingerprints;
    auto index = WalkIndex::Build(graph, options);
    OIPSIM_CHECK(index.ok());
    return std::move(index).value();
  }

  DiGraph graph_;
  WalkIndex index_;
  QueryEngine engine_;
  QueryEngine reference_engine_;
  std::string wal_path_;
  std::string compact_path_;
  std::unique_ptr<IndexUpdater> updater_;
  std::unique_ptr<SimRankServer> server_;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST(ServerTest, PairMatchesDirectEngineBitwise) {
  ServerFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (VertexId a = 0; a < fixture.graph().n(); a += 7) {
    for (VertexId b = 1; b < fixture.graph().n(); b += 11) {
      auto response = client->Get(
          StrFormat("/v1/pair?a=%u&b=%u", a, b));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->status, 200) << response->body;
      const double served = FindJsonNumber(response->body, "score");
      auto direct = fixture.reference().Pair(a, b);
      ASSERT_TRUE(direct.ok());
      const double expected = *direct;
      EXPECT_EQ(std::memcmp(&served, &expected, sizeof(double)), 0)
          << "pair (" << a << ", " << b << "): served " << served
          << " direct " << expected;
    }
  }
}

TEST(ServerTest, SingleSourceRowMatchesBitwise) {
  ServerFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  for (VertexId v : {0u, 17u, 59u}) {
    auto response = client->Get(StrFormat("/v1/single_source?v=%u", v));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
    auto direct = fixture.reference().SingleSource(v);
    ASSERT_TRUE(direct.ok());
    const std::vector<double>& expected = **direct;
    const std::vector<double> served =
        FindJsonNumberArray(response->body, "scores");
    ASSERT_EQ(served.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::memcmp(&served[i], &expected[i], sizeof(double)), 0)
          << "row " << v << " entry " << i;
    }
  }
}

TEST(ServerTest, TopKMatchesDirectEngineBitwise) {
  ServerFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  for (VertexId v : {3u, 42u}) {
    auto response = client->Get(StrFormat("/v1/topk?v=%u&k=5", v));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
    auto direct = fixture.reference().TopK(v, 5);
    ASSERT_TRUE(direct.ok());
    size_t cursor = 0;
    for (const ScoredVertex& scored : *direct) {
      const double vertex =
          FindJsonNumber(response->body, "vertex", &cursor);
      const double served =
          FindJsonNumber(response->body, "score", &cursor);
      EXPECT_EQ(static_cast<VertexId>(vertex), scored.vertex);
      EXPECT_EQ(std::memcmp(&served, &scored.score, sizeof(double)), 0)
          << "topk of " << v << " at vertex " << scored.vertex;
    }
  }
}

TEST(ServerTest, ConcurrentClientsGetConsistentAnswers) {
  ServerOptions options;
  options.threads = 4;
  ServerFixture fixture(options);
  constexpr uint32_t kClients = 4;
  constexpr uint32_t kRequests = 40;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&fixture, &failures, c] {
      auto client = LoopbackHttpClient::Connect(fixture.port());
      if (!client.ok()) {
        failures[c] = 1;
        return;
      }
      for (uint32_t i = 0; i < kRequests; ++i) {
        const VertexId a = (c * 13 + i) % fixture.graph().n();
        const VertexId b = (c * 7 + i * 3) % fixture.graph().n();
        auto response =
            client->Get(StrFormat("/v1/pair?a=%u&b=%u", a, b));
        if (!response.ok() || response->status != 200) {
          failures[c] = 2;
          return;
        }
        const double served = FindJsonNumber(response->body, "score");
        auto direct = fixture.reference().Pair(a, b);
        const double expected = *direct;
        if (std::memcmp(&served, &expected, sizeof(double)) != 0) {
          failures[c] = 3;
          return;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (uint32_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  const ServerStats stats = fixture.server().stats();
  EXPECT_GE(stats.responses_2xx, kClients * kRequests);
  EXPECT_EQ(stats.responses_5xx, 0u);
}

TEST(ServerTest, RejectsWith429OverInflightCap) {
  ServerOptions options;
  options.threads = 2;
  options.max_inflight = 1;
  options.handler_delay_ms = 300;
  options.retry_after_seconds = 7;
  ServerFixture fixture(options);

  auto slow = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(slow.ok());
  // Dispatch the first query; it holds the single in-flight slot for
  // handler_delay_ms.
  ASSERT_TRUE(
      slow->SendRaw("GET /v1/pair?a=0&b=1 HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto rejected = HttpGet(fixture.port(), "/v1/pair?a=2&b=3");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status, 429) << rejected->body;
  ASSERT_NE(rejected->FindHeader("retry-after"), nullptr);
  EXPECT_EQ(*rejected->FindHeader("retry-after"), "7");

  // Inline endpoints still answer while the pool is saturated.
  auto health = HttpGet(fixture.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);

  // The admitted query completes normally.
  auto first = slow->ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, 200);

  const ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.rejected_inflight, 1u);
  EXPECT_EQ(stats.rejected_endpoint, 0u);
}

TEST(ServerTest, RejectsWith503OverEndpointCap) {
  ServerOptions options;
  options.threads = 4;
  options.max_inflight = 16;
  options.max_endpoint_inflight = 1;
  options.handler_delay_ms = 300;
  ServerFixture fixture(options);

  auto slow = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(
      slow->SendRaw("GET /v1/pair?a=0&b=1 HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Same endpoint: over its cap -> 503.
  auto rejected = HttpGet(fixture.port(), "/v1/pair?a=2&b=3");
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 503) << rejected->body;
  EXPECT_NE(rejected->FindHeader("retry-after"), nullptr);

  // A different endpoint still has budget.
  auto other = HttpGet(fixture.port(), "/v1/topk?v=1&k=3");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->status, 200) << other->body;

  auto first = slow->ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);

  const ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.rejected_endpoint, 1u);
}

TEST(ServerTest, BadParamsAndRoutes) {
  ServerFixture fixture;
  struct Case {
    const char* target;
    int expected_status;
  };
  const Case cases[] = {
      {"/v1/pair?a=0", 400},           // missing b
      {"/v1/pair?a=x&b=1", 400},       // non-numeric
      {"/v1/pair?a=0&b=1&c=2", 400},   // unknown parameter
      {"/v1/pair?a=0&a=1&b=2", 400},   // duplicate parameter
      {"/v1/pair?a=0&b=4294967296", 400},  // beyond uint32
      {"/v1/pair?a=0&b=999", 400},     // out of range for the index
      {"/v1/single_source", 400},      // missing v
      {"/v1/topk?v=1&k=zz", 400},      // malformed k
      {"/v1/nope?v=1", 404},           // unknown endpoint
      {"/", 404},
  };
  for (const Case& test_case : cases) {
    auto response = HttpGet(fixture.port(), test_case.target);
    ASSERT_TRUE(response.ok()) << test_case.target;
    EXPECT_EQ(response->status, test_case.expected_status)
        << test_case.target << " -> " << response->body;
    EXPECT_NE(response->body.find("\"error\""), std::string::npos)
        << test_case.target;
  }

  // Non-GET methods are 405 with Allow.
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRaw("DELETE /v1/pair HTTP/1.1\r\n\r\n").ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 405);
  ASSERT_NE(response->FindHeader("allow"), nullptr);
  EXPECT_EQ(*response->FindHeader("allow"), "GET");
}

TEST(ServerTest, MalformedRequestGets400AndClose) {
  ServerFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRaw("NOT-HTTP\r\n\r\n").ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
  ASSERT_NE(response->FindHeader("connection"), nullptr);
  EXPECT_EQ(*response->FindHeader("connection"), "close");
}

TEST(ServerTest, PipelinedRequestsAnswerInOrder) {
  ServerFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->SendRaw("GET /v1/pair?a=1&b=2 HTTP/1.1\r\n\r\n"
                            "GET /v1/pair?a=3&b=4 HTTP/1.1\r\n\r\n"
                            "GET /healthz HTTP/1.1\r\n\r\n")
                  .ok());
  auto first = client->ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);
  EXPECT_NE(first->body.find("\"a\":1"), std::string::npos);
  auto second = client->ReadResponse();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->body.find("\"a\":3"), std::string::npos);
  auto third = client->ReadResponse();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->body, "ok\n");
}

TEST(ServerTest, HalfCloseStillAnswersEveryBufferedRequest) {
  // The send-all/shutdown(SHUT_WR)/read-all client pattern: EOF must not
  // drop requests that were already on the wire.
  ServerFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->SendRaw("GET /v1/pair?a=1&b=2 HTTP/1.1\r\n\r\n"
                            "GET /v1/pair?a=3&b=4 HTTP/1.1\r\n\r\n")
                  .ok());
  ASSERT_TRUE(client->ShutdownWrite().ok());
  auto first = client->ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, 200);
  EXPECT_NE(first->body.find("\"a\":1"), std::string::npos);
  auto second = client->ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status, 200);
  EXPECT_NE(second->body.find("\"a\":3"), std::string::npos);
  // Then the server closes: no third response.
  EXPECT_FALSE(client->ReadResponse().ok());
}

TEST(ServerTest, LongPipelineDrainsCompletely) {
  // Many inline-answered requests in one burst: exercises the resume
  // path where parsing pauses on the output-backlog cap and continues as
  // responses flush.
  ServerFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  constexpr int kPipelined = 50;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    burst += "GET /healthz HTTP/1.1\r\n\r\n";
  }
  ASSERT_TRUE(client->SendRaw(burst).ok());
  for (int i = 0; i < kPipelined; ++i) {
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << "response " << i;
    EXPECT_EQ(response->status, 200);
  }
}

TEST(ServerTest, StatsEndpointReportsCountersAndIndexInfo) {
  ServerFixture fixture;
  ASSERT_TRUE(HttpGet(fixture.port(), "/v1/pair?a=0&b=1").ok());
  ASSERT_TRUE(HttpGet(fixture.port(), "/v1/topk?v=0&k=3").ok());
  auto response = HttpGet(fixture.port(), "/v1/stats");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  const std::string& body = response->body;
  EXPECT_EQ(FindJsonNumber(body, "pair"), 1.0);
  EXPECT_EQ(FindJsonNumber(body, "topk"), 1.0);
  EXPECT_EQ(FindJsonNumber(body, "vertices"),
            static_cast<double>(fixture.graph().n()));
  EXPECT_EQ(FindJsonNumber(body, "fingerprints"), 64.0);
  EXPECT_NE(body.find("\"backend\":\"in-memory\""), std::string::npos);
  EXPECT_NE(body.find("\"graph_fingerprint\":\""), std::string::npos);
  EXPECT_NE(body.find("\"cache\":{"), std::string::npos);
}

TEST(ServerTest, BatchPairMatchesDirectEngineBitwise) {
  ServerOptions options;
  options.max_batch_pairs = 16;
  ServerFixture fixture(options);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  std::string body = "# batch\n";
  for (VertexId a = 0; a < 12; ++a) {
    pairs.emplace_back(a, (a * 5 + 2) % fixture.graph().n());
    body += StrFormat("%u %u\n", pairs.back().first, pairs.back().second);
  }
  auto response = HttpPost(fixture.port(), "/v1/batch_pair", body);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  const std::vector<double> served =
      FindJsonNumberArray(response->body, "scores");
  const auto expected = fixture.reference().BatchPair(pairs);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i].ok());
    const double want = *expected[i];
    EXPECT_EQ(std::memcmp(&served[i], &want, sizeof(double)), 0)
        << "pair " << i;
  }

  // Error paths: empty body, malformed line, out-of-range id, over the
  // pair cap, GET instead of POST.
  EXPECT_EQ(HttpPost(fixture.port(), "/v1/batch_pair", "")->status, 400);
  EXPECT_EQ(HttpPost(fixture.port(), "/v1/batch_pair", "0\n")->status,
            400);
  EXPECT_EQ(
      HttpPost(fixture.port(), "/v1/batch_pair", "0 99999\n")->status,
      400);
  std::string oversized;
  for (int i = 0; i < 17; ++i) oversized += "0 1\n";
  EXPECT_EQ(HttpPost(fixture.port(), "/v1/batch_pair", oversized)->status,
            400);
  auto get_response = HttpGet(fixture.port(), "/v1/batch_pair");
  ASSERT_TRUE(get_response.ok());
  EXPECT_EQ(get_response->status, 405);
  EXPECT_EQ(*get_response->FindHeader("allow"), "POST");
}

TEST(ServerTest, UpdateEndpointPatchesTheLiveIndex) {
  ServerFixture fixture(ServerOptions{}, /*fingerprints=*/48,
                        /*with_updater=*/true);
  const Edge fresh = fixture.FreshEdge();

  // The row of the touched vertex, served before the update.
  auto before = HttpGet(fixture.port(),
                        StrFormat("/v1/single_source?v=%u", fresh.dst));
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->status, 200);

  auto response = HttpPost(fixture.port(), "/v1/update",
                           StrFormat("+ %u %u\n", fresh.src, fresh.dst));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  EXPECT_EQ(FindJsonNumber(response->body, "applied"), 1.0);
  EXPECT_EQ(FindJsonNumber(response->body, "sequence"), 1.0);
  EXPECT_NE(response->body.find("\"graph_fingerprint\":\""),
            std::string::npos);

  // Post-update queries serve the patched index, bitwise equal to a
  // rebuild on the updated graph.
  auto rebuilt = WalkIndex::Build(fixture.updater()->CurrentGraph(),
                                  fixture.index().options());
  ASSERT_TRUE(rebuilt.ok());
  auto after = HttpGet(fixture.port(),
                       StrFormat("/v1/single_source?v=%u", fresh.dst));
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->status, 200);
  const std::vector<double> served =
      FindJsonNumberArray(after->body, "scores");
  const std::vector<double> expected =
      rebuilt->EstimateSingleSource(fresh.dst);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&served[i], &expected[i], sizeof(double)), 0)
        << "entry " << i;
  }

  // Stats gained the updates section.
  auto stats = HttpGet(fixture.port(), "/v1/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(FindJsonNumber(stats->body, "batches_applied"), 1.0);
  EXPECT_EQ(FindJsonNumber(stats->body, "overlay_sequence"), 1.0);

  // Invalid bodies and invalid batches are 400s; the graph is unchanged.
  EXPECT_EQ(HttpPost(fixture.port(), "/v1/update", "nonsense")->status,
            400);
  EXPECT_EQ(HttpPost(fixture.port(), "/v1/update",
                     StrFormat("+ %u %u\n", fresh.src, fresh.dst))
                ->status,
            400);  // duplicate edge
  EXPECT_EQ(HttpPost(fixture.port(), "/v1/update", "+ 0 99999\n")->status,
            400);
  auto stats_after = HttpGet(fixture.port(), "/v1/stats");
  EXPECT_EQ(FindJsonNumber(stats_after->body, "batches_applied"), 1.0);
}

TEST(ServerTest, UpdateEndpointsDisabledWithoutUpdater) {
  ServerFixture fixture;
  auto update = HttpPost(fixture.port(), "/v1/update", "+ 0 1\n");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->status, 503);
  EXPECT_NE(update->body.find("disabled"), std::string::npos);
  auto compact = HttpPost(fixture.port(), "/v1/compact", "");
  ASSERT_TRUE(compact.ok());
  EXPECT_EQ(compact->status, 503);
  // GET endpoints reject request bodies outright.
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->SendRaw("GET /v1/pair?a=0&b=1 HTTP/1.1\r\n"
                            "Content-Length: 3\r\n\r\nabc")
                  .ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 400);
}

TEST(ServerTest, CompactEndpointWritesByteIdenticalIndex) {
  ServerFixture fixture(ServerOptions{}, /*fingerprints=*/48,
                        /*with_updater=*/true);
  const Edge fresh = fixture.FreshEdge();
  ASSERT_EQ(HttpPost(fixture.port(), "/v1/update",
                     StrFormat("+ %u %u\n", fresh.src, fresh.dst))
                ->status,
            200);
  auto response = HttpPost(fixture.port(), "/v1/compact", "");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  EXPECT_NE(response->body.find(fixture.compact_path()),
            std::string::npos);

  // The written file is byte-identical to a fresh build on the updated
  // graph, and the WAL was reset (sequence stays, records are gone).
  auto rebuilt = WalkIndex::Build(fixture.updater()->CurrentGraph(),
                                  fixture.index().options());
  ASSERT_TRUE(rebuilt.ok());
  const std::string fresh_path = fixture.compact_path() + ".fresh";
  ASSERT_TRUE(rebuilt->Save(fresh_path).ok());
  auto read_bytes = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    OIPSIM_CHECK(f != nullptr);
    std::string bytes;
    char chunk[4096];
    size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.append(chunk, got);
    }
    std::fclose(f);
    return bytes;
  };
  EXPECT_EQ(read_bytes(fixture.compact_path()), read_bytes(fresh_path));
  EXPECT_EQ(fixture.updater()->stats().wal_records, 0u);
  // The updated graph was persisted alongside (binary format) and matches
  // the compacted index's fingerprint — the restart pair is complete.
  EXPECT_NE(response->body.find("\"graph_path\""), std::string::npos);
  auto emitted = ReadGraphAuto(fixture.compact_path() + ".graph.bin");
  ASSERT_TRUE(emitted.ok());
  auto compacted_index = WalkIndex::Load(fixture.compact_path());
  ASSERT_TRUE(compacted_index.ok());
  EXPECT_TRUE(compacted_index->ValidateGraph(*emitted).ok());
}

TEST(ServerTest, MetricsEndpointTwinsStats) {
  ServerFixture fixture;
  ASSERT_EQ(HttpGet(fixture.port(), "/v1/pair?a=0&b=1")->status, 200);
  ASSERT_EQ(HttpGet(fixture.port(), "/v1/topk?v=0&k=3")->status, 200);
  auto response = HttpGet(fixture.port(), "/metrics");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  const std::string& body = response->body;
  EXPECT_NE(body.find("# TYPE simrank_requests_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("simrank_requests_total{endpoint=\"pair\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("simrank_requests_total{endpoint=\"topk\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("simrank_responses_total{class=\"2xx\"}"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE simrank_request_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      body.find(
          "simrank_request_duration_seconds_bucket{endpoint=\"pair\","
          "le=\"+Inf\"} 1"),
      std::string::npos);
  EXPECT_NE(body.find("simrank_request_duration_seconds_count{endpoint="
                      "\"pair\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("simrank_cache_hits_total"), std::string::npos);
  EXPECT_NE(body.find("simrank_index_vertices 60"), std::string::npos);
  // text/plain exposition, answered inline.
  ASSERT_NE(response->FindHeader("content-type"), nullptr);
  EXPECT_NE(response->FindHeader("content-type")->find("text/plain"),
            std::string::npos);
}

TEST(ServerTest, LatencyHistogramsSurfaceInStats) {
  ServerFixture fixture;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(HttpGet(fixture.port(),
                      StrFormat("/v1/pair?a=%d&b=9", i))
                  ->status,
              200);
  }
  auto response = HttpGet(fixture.port(), "/v1/stats");
  ASSERT_TRUE(response.ok());
  const std::string& body = response->body;
  ASSERT_NE(body.find("\"latency_us\":{"), std::string::npos);
  // The pair endpoint recorded every dispatch.
  const size_t pair_at = body.find("\"latency_us\"");
  size_t cursor = body.find("\"pair\"", pair_at);
  ASSERT_NE(cursor, std::string::npos);
  EXPECT_EQ(FindJsonNumber(body, "count", &cursor), 5.0);
  const LatencyHistogram::Snapshot snapshot =
      fixture.server().latency(ServerEndpoint::kPair);
  EXPECT_EQ(snapshot.count, 5u);
  uint64_t bucket_total = 0;
  for (uint32_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    bucket_total += snapshot.buckets[b];
  }
  EXPECT_EQ(bucket_total, 5u);
  EXPECT_GT(snapshot.QuantileUpperMicros(0.5), 0u);
}

TEST(ServerTest, ConcurrentUpdatesAndQueriesOverHttp) {
  ServerOptions options;
  options.threads = 3;
  ServerFixture fixture(options, /*fingerprints=*/32,
                        /*with_updater=*/true);

  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  for (int reader = 0; reader < 2; ++reader) {
    readers.emplace_back([&fixture, &stop, reader] {
      auto client = LoopbackHttpClient::Connect(fixture.port());
      ASSERT_TRUE(client.ok());
      uint32_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const VertexId v = (reader * 13 + i) % 60;
        auto response =
            client->Get(StrFormat("/v1/single_source?v=%u", v));
        ASSERT_TRUE(response.ok());
        ASSERT_EQ(response->status, 200);
        ++i;
      }
    });
  }

  auto update_client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(update_client.ok());
  std::vector<Edge> inserted;
  for (int batch = 0; batch < 4; ++batch) {
    const Edge fresh = fixture.FreshEdge();
    inserted.push_back(fresh);
    auto response = update_client->Post(
        "/v1/update", StrFormat("+ %u %u\n", fresh.src, fresh.dst));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200) << response->body;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // Final state equals a rebuild on the updated graph.
  auto rebuilt = WalkIndex::Build(fixture.updater()->CurrentGraph(),
                                  fixture.index().options());
  ASSERT_TRUE(rebuilt.ok());
  for (const Edge& edge : inserted) {
    auto response = HttpGet(
        fixture.port(), StrFormat("/v1/pair?a=%u&b=%u", edge.src, edge.dst));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200);
    const double served = FindJsonNumber(response->body, "score");
    const double expected = rebuilt->EstimatePair(edge.src, edge.dst);
    EXPECT_EQ(std::memcmp(&served, &expected, sizeof(double)), 0);
  }
}

TEST(ServerTest, CleanShutdownDrainsAndServeReturnsOk) {
  auto fixture = std::make_unique<ServerFixture>();
  const uint16_t port = fixture->port();
  ASSERT_EQ(HttpGet(port, "/healthz")->status, 200);
  fixture->StopAndJoin();
  EXPECT_TRUE(fixture->serve_status().ok())
      << fixture->serve_status().ToString();
  // The listener is gone: new connections are refused.
  auto after = LoopbackHttpClient::Connect(port);
  EXPECT_FALSE(after.ok());
}

TEST(ServerTest, ShutdownWaitsForInflightQueries) {
  ServerOptions options;
  options.threads = 2;
  options.handler_delay_ms = 200;
  auto fixture = std::make_unique<ServerFixture>(options);
  auto client = LoopbackHttpClient::Connect(fixture->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->SendRaw("GET /v1/pair?a=0&b=1 HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fixture->server().Shutdown();
  // The in-flight query still completes and flushes before Serve returns.
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  fixture->StopAndJoin();
  EXPECT_TRUE(fixture->serve_status().ok());
}

/// Sends `targets` as one pipelined burst on a fresh connection and reads
/// every response, in order.
std::vector<HttpClientResponse> PipelinedGets(
    uint16_t port, const std::vector<std::string>& targets) {
  auto client = LoopbackHttpClient::Connect(port);
  OIPSIM_CHECK(client.ok());
  std::string burst;
  for (const std::string& target : targets) {
    burst += "GET " + target + " HTTP/1.1\r\n\r\n";
  }
  OIPSIM_CHECK(client->SendRaw(burst).ok());
  std::vector<HttpClientResponse> responses;
  for (size_t i = 0; i < targets.size(); ++i) {
    auto response = client->ReadResponse();
    OIPSIM_CHECK(response.ok());
    responses.push_back(std::move(*response));
  }
  return responses;
}

/// Worker dispatches so far: inline answers record no queue wait.
uint64_t Dispatched(ServerFixture& fixture) {
  return fixture.server().dispatch_latency().count;
}

// Each inline-pair case compares a server with warmed rows against a
// second, cold server, which answers every pair through its workers.

TEST(ServerInlinePairTest, PipelinedHitsAndMissesMatchColdServerInOrder) {
  ServerFixture warm;
  ServerFixture cold;
  for (const VertexId v : {5u, 17u}) {
    ASSERT_TRUE(warm.engine().SingleSource(v).ok());
  }
  const std::vector<std::string> targets = {
      "/v1/pair?a=5&b=9",    // hit on a's row
      "/v1/pair?a=1&b=2",    // miss
      "/v1/pair?a=9&b=17",   // hit on b's row
      "/v1/pair?a=17&b=5",   // hit
      "/v1/pair?a=3&b=4",    // miss
      "/v1/pair?a=5&b=999",  // out of range: the worker's 400
      "/healthz",
      "/v1/topk?v=5&k=3",
      "/v1/pair?a=40&b=17",  // hit behind a dispatched query
  };
  const uint64_t dispatched_before = Dispatched(warm);
  const std::vector<HttpClientResponse> served =
      PipelinedGets(warm.port(), targets);
  const std::vector<HttpClientResponse> expected =
      PipelinedGets(cold.port(), targets);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(served[i].status, expected[i].status) << targets[i];
    EXPECT_EQ(served[i].headers, expected[i].headers) << targets[i];
    EXPECT_EQ(served[i].body, expected[i].body) << targets[i];
  }
  EXPECT_EQ(served[5].status, 400);
  // Only the two misses, the 400 and the top-k reached a worker.
  EXPECT_EQ(Dispatched(warm) - dispatched_before, 4u);
  EXPECT_EQ(warm.server().latency(ServerEndpoint::kPair).count, 7u);
}

TEST(ServerInlinePairTest, CachedPairSkipsAdmissionMissesKeepIt) {
  ServerOptions options;
  options.threads = 1;
  options.max_inflight = 1;
  options.handler_delay_ms = 300;
  ServerFixture fixture(options);
  ServerFixture cold;
  ASSERT_TRUE(fixture.engine().SingleSource(5).ok());

  // An uncached pair takes the only worker and the only in-flight slot.
  auto slow = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(
      slow->SendRaw("GET /v1/pair?a=0&b=1 HTTP/1.1\r\n\r\n").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A cached pair still answers, from the loop.
  auto hit = HttpGet(fixture.port(), "/v1/pair?a=9&b=5");
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->status, 200) << hit->body;
  // An uncached one still meets admission control.
  auto rejected = HttpGet(fixture.port(), "/v1/pair?a=2&b=3");
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 429) << rejected->body;

  auto first = slow->ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, 200);
  EXPECT_EQ(hit->body, HttpGet(cold.port(), "/v1/pair?a=9&b=5")->body);
  const ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.rejected_inflight, 1u);
  EXPECT_EQ(stats.requests[static_cast<size_t>(ServerEndpoint::kPair)], 3u);
}

TEST(ServerInlinePairTest, CacheStatsMatchWorkerPathAccounting) {
  ServerFixture fixture;
  ServerFixture cold;
  // The same stream run directly on a fresh engine: the accounting of a
  // server whose every read calls Pair/TopK on a worker.
  QueryEngine direct(fixture.index());
  struct Read {
    bool topk;
    VertexId a;
    VertexId b;
  };
  const Read stream[] = {{true, 5, 0},    {false, 5, 9},   {false, 9, 5},
                         {false, 1, 2},   {false, 9, 9},   {true, 9, 0},
                         {false, 9, 5},   {false, 30, 9},  {false, 30, 31},
                         {false, 5, 999}, {true, 30, 0},   {false, 31, 30}};
  auto client = LoopbackHttpClient::Connect(fixture.port());
  auto cold_client = LoopbackHttpClient::Connect(cold.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(cold_client.ok());
  for (const Read& read : stream) {
    const std::string target =
        read.topk ? StrFormat("/v1/topk?v=%u&k=3", read.a)
                  : StrFormat("/v1/pair?a=%u&b=%u", read.a, read.b);
    auto served = client->Get(target);
    auto expected = cold_client->Get(target);
    ASSERT_TRUE(served.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(served->body, expected->body) << target;
    if (read.topk) {
      (void)direct.TopK(read.a, 3);
    } else {
      (void)direct.Pair(read.a, read.b);
    }
  }
  const QueryEngine::CacheStats served = fixture.engine().cache_stats();
  const QueryEngine::CacheStats expected = direct.cache_stats();
  EXPECT_GT(served.hits, 0u);
  EXPECT_EQ(served.hits, expected.hits);
  EXPECT_EQ(served.misses, expected.misses);
  EXPECT_EQ(served.evictions, expected.evictions);
}

TEST(ServerInlinePairTest, UpdateStalesCachedRowForInlinePairs) {
  ServerFixture fixture(ServerOptions{}, /*fingerprints=*/48,
                        /*with_updater=*/true);
  const Edge fresh = fixture.FreshEdge();
  const VertexId v = fresh.dst;
  const VertexId other = (v + 7) % fixture.graph().n();
  const std::string target = StrFormat("/v1/pair?a=%u&b=%u", v, other);
  ASSERT_TRUE(fixture.engine().SingleSource(v).ok());
  uint64_t dispatched = Dispatched(fixture);
  ASSERT_EQ(HttpGet(fixture.port(), target)->status, 200);
  EXPECT_EQ(Dispatched(fixture), dispatched);  // answered from the row

  ASSERT_EQ(HttpPost(fixture.port(), "/v1/update",
                     StrFormat("+ %u %u\n", fresh.src, fresh.dst))
                ->status,
            200);
  auto rebuilt = WalkIndex::Build(fixture.updater()->CurrentGraph(),
                                  fixture.index().options());
  ASSERT_TRUE(rebuilt.ok());
  const double expected = rebuilt->EstimatePair(v, other);

  // The pre-update row is not served: a worker computes the answer.
  dispatched = Dispatched(fixture);
  auto after = HttpGet(fixture.port(), target);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->status, 200);
  double served = FindJsonNumber(after->body, "score");
  EXPECT_EQ(std::memcmp(&served, &expected, sizeof(double)), 0);
  EXPECT_EQ(Dispatched(fixture), dispatched + 1);

  // Re-cached under the new overlay, the inline answer is the rebuild's.
  ASSERT_TRUE(fixture.engine().SingleSource(v).ok());
  dispatched = Dispatched(fixture);
  auto rewarmed = HttpGet(fixture.port(), target);
  ASSERT_TRUE(rewarmed.ok());
  served = FindJsonNumber(rewarmed->body, "score");
  EXPECT_EQ(std::memcmp(&served, &expected, sizeof(double)), 0);
  EXPECT_EQ(Dispatched(fixture), dispatched);
}

TEST(ServerInlinePairTest, TracedHitHasNoQueueWait) {
  ServerFixture warm;
  ServerFixture cold;
  ASSERT_TRUE(warm.engine().SingleSource(5).ok());
  const std::string target = "/v1/pair?a=5&b=9";
  auto plain = HttpGet(warm.port(), target);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->status, 200);
  EXPECT_EQ(plain->body, HttpGet(cold.port(), target)->body);

  auto traced = HttpGet(warm.port(), target + "&trace=1");
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced->status, 200);
  const std::string prefix = plain->body.substr(0, plain->body.size() - 1);
  EXPECT_EQ(traced->body.substr(0, prefix.size()), prefix);
  EXPECT_NE(traced->body.find("\"stage\":\"request\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"stage\":\"cache_lookup\""),
            std::string::npos);
  EXPECT_NE(traced->body.find("\"stage\":\"serialize\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"cache_hits\":1"), std::string::npos);
  EXPECT_EQ(traced->body.find("queue_wait"), std::string::npos);
  // The cold server's trace of the same pair went through a worker.
  auto cold_traced = HttpGet(cold.port(), target + "&trace=1");
  ASSERT_TRUE(cold_traced.ok());
  EXPECT_NE(cold_traced->body.find("\"stage\":\"queue_wait\""),
            std::string::npos);

  // The header channel leaves an inline body untouched too.
  auto client = LoopbackHttpClient::Connect(warm.port());
  ASSERT_TRUE(client.ok());
  auto header_traced = client->Get(target, {{"X-Simrank-Trace", "beef"}});
  ASSERT_TRUE(header_traced.ok());
  EXPECT_EQ(header_traced->body, plain->body);
  const std::string* json = header_traced->FindHeader("x-simrank-trace-json");
  ASSERT_NE(json, nullptr);
  EXPECT_NE(json->find("\"trace_id\":\"000000000000beef\""),
            std::string::npos);
  EXPECT_EQ(json->find("queue_wait"), std::string::npos);

  // Inline traces fold into the stage histograms like worker traces.
  EXPECT_EQ(warm.server().stats().traced_requests, 2u);
  EXPECT_GE(warm.server().stage_latency(TraceStage::kCacheLookup).count, 2u);
  EXPECT_EQ(warm.server().stage_latency(TraceStage::kQueueWait).count, 0u);
}

TEST(ServerTraceTest, InlineTraceSplicesIntoEnvelope) {
  ServerFixture fixture;
  auto plain = HttpGet(fixture.port(), "/v1/pair?a=0&b=1");
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->status, 200);
  auto traced = HttpGet(fixture.port(), "/v1/pair?a=0&b=1&trace=1");
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced->status, 200);
  // The traced envelope is the plain body with one ,"trace":{...} object
  // spliced before the closing brace — everything before it is unchanged.
  const std::string prefix = plain->body.substr(0, plain->body.size() - 1);
  EXPECT_EQ(traced->body.substr(0, prefix.size()), prefix);
  EXPECT_NE(traced->body.find(",\"trace\":{\"trace_id\":\""),
            std::string::npos);
  EXPECT_NE(traced->body.find("\"spans\":["), std::string::npos);
  EXPECT_NE(traced->body.find("\"stage\":\"request\""), std::string::npos);
  EXPECT_NE(traced->body.find("\"stage\":\"queue_wait\""),
            std::string::npos);
  EXPECT_NE(traced->body.find("\"stage\":\"serialize\""),
            std::string::npos);
  EXPECT_NE(traced->body.find("\"counters\":{"), std::string::npos);
  // The engine's cache instrumentation fed the trace: 0/1 was never
  // queried before, so the lookup missed.
  EXPECT_NE(traced->body.find("\"cache_misses\":"), std::string::npos);
  EXPECT_EQ(traced->body.back(), '}');

  // ?trace=0 is an explicit off; anything else is a client error.
  auto off = HttpGet(fixture.port(), "/v1/pair?a=0&b=1&trace=0");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->body, plain->body);
  auto bad = HttpGet(fixture.port(), "/v1/pair?a=0&b=1&trace=2");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
}

TEST(ServerTraceTest, HeaderChannelLeavesBodyUntouched) {
  ServerFixture fixture;
  auto client = LoopbackHttpClient::Connect(fixture.port());
  ASSERT_TRUE(client.ok());
  auto plain = client->Get("/v1/topk?v=3&k=5");
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->status, 200);
  auto traced =
      client->Get("/v1/topk?v=3&k=5", {{"X-Simrank-Trace", "abc123"}});
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(traced->status, 200);
  EXPECT_EQ(traced->body, plain->body)
      << "the header channel must never perturb a response body";
  const std::string* json = traced->FindHeader("x-simrank-trace-json");
  ASSERT_NE(json, nullptr);
  // The caller's trace id is echoed back, zero-padded to 16 digits.
  EXPECT_NE(json->find("\"trace_id\":\"0000000000abc123\""),
            std::string::npos);
  EXPECT_NE(json->find("\"stage\":\"request\""), std::string::npos);
  // A malformed trace id is ignored, not an error.
  auto ignored =
      client->Get("/v1/topk?v=3&k=5", {{"X-Simrank-Trace", "zzz"}});
  ASSERT_TRUE(ignored.ok());
  EXPECT_EQ(ignored->status, 200);
  EXPECT_EQ(ignored->FindHeader("x-simrank-trace-json"), nullptr);
}

TEST(ServerTraceTest, DisabledResponsesBitwiseIdenticalAcrossBackends) {
  // Four servers over the same saved index — {raw, compressed} x
  // {in-memory, mmap} — all with the tracing subsystem armed (sampling
  // on every request) plus the plain fixture as reference. Tracing must
  // not change one body byte on any backend.
  ServerFixture reference;
  const std::string base = ::testing::TempDir() + "trace-backends";
  struct Combo {
    std::string path;
    bool compress;
    bool mmap;
  };
  std::vector<Combo> combos = {{base + "-raw.widx", false, false},
                               {base + "-raw.widx", false, true},
                               {base + "-comp.widx", true, false},
                               {base + "-comp.widx", true, true}};
  WalkIndex::SaveOptions save;
  save.compress = false;
  ASSERT_TRUE(reference.index().Save(combos[0].path, save).ok());
  save.compress = true;
  ASSERT_TRUE(reference.index().Save(combos[2].path, save).ok());

  const std::vector<std::string> targets = {
      "/v1/pair?a=7&b=21", "/v1/single_source?v=9", "/v1/topk?v=4&k=6"};
  std::vector<std::string> expected;
  for (const std::string& target : targets) {
    auto response = HttpGet(reference.port(), target);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->status, 200);
    expected.push_back(response->body);
  }

  for (const Combo& combo : combos) {
    WalkIndex::LoadOptions load;
    load.use_mmap = combo.mmap;
    auto index = WalkIndex::Load(combo.path, load);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    QueryEngine engine(*index);
    ServerOptions options;
    options.port = 0;
    options.trace_sample = 1.0;  // every request traced, nothing inline
    SimRankServer server(engine, options);
    ASSERT_TRUE(server.Bind().ok());
    std::thread serve([&server] { ASSERT_TRUE(server.Serve().ok()); });
    auto client = LoopbackHttpClient::Connect(server.port());
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < targets.size(); ++i) {
      auto sampled = client->Get(targets[i]);
      ASSERT_TRUE(sampled.ok());
      ASSERT_EQ(sampled->status, 200);
      EXPECT_EQ(sampled->body, expected[i])
          << targets[i] << " differs on "
          << (combo.compress ? "compressed" : "raw") << "/"
          << (combo.mmap ? "mmap" : "in-memory");
      auto header_traced =
          client->Get(targets[i], {{"X-Simrank-Trace", "feed"}});
      ASSERT_TRUE(header_traced.ok());
      EXPECT_EQ(header_traced->body, expected[i]);
    }
    server.Shutdown();
    serve.join();
  }
  std::remove(combos[0].path.c_str());
  std::remove(combos[2].path.c_str());
}

TEST(ServerTraceTest, SlowQueryRingCapturesAndServes) {
  ServerOptions options;
  options.slow_query_us = 1;  // every real query is slower than 1us
  options.slow_ring_capacity = 4;
  ServerFixture fixture(options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(
        HttpGet(fixture.port(), StrFormat("/v1/pair?a=%d&b=9", i))->status,
        200);
  }
  auto slow = HttpGet(fixture.port(), "/v1/debug/slow");
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->status, 200);
  const std::string& body = slow->body;
  size_t cursor = 0;
  EXPECT_EQ(FindJsonNumber(body, "capacity", &cursor), 4.0);
  cursor = 0;
  EXPECT_EQ(FindJsonNumber(body, "total_recorded", &cursor), 6.0);
  cursor = 0;
  EXPECT_EQ(FindJsonNumber(body, "threshold_us", &cursor), 1.0);
  // The ring kept the latest 4, each with its target and full trace.
  EXPECT_NE(body.find("\"target\":\"/v1/pair?a=5&b=9\""),
            std::string::npos);
  EXPECT_EQ(body.find("\"target\":\"/v1/pair?a=0&b=9\""), std::string::npos)
      << "oldest entries must be evicted";
  EXPECT_NE(body.find("\"trace\":{\"trace_id\":\""), std::string::npos);
  EXPECT_NE(body.find("\"stage\":\"request\""), std::string::npos);

  // The captures surface in stats, and every traced request fed the
  // per-stage histograms.
  auto stats = HttpGet(fixture.port(), "/v1/stats");
  ASSERT_TRUE(stats.ok());
  cursor = 0;
  EXPECT_EQ(FindJsonNumber(stats->body, "slow_captured", &cursor), 6.0);
  EXPECT_NE(stats->body.find("\"trace\":{"), std::string::npos);
  EXPECT_NE(stats->body.find("\"stages\":{"), std::string::npos);
  EXPECT_NE(stats->body.find("\"request\":{"), std::string::npos);
  auto metrics = HttpGet(fixture.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find(
                "# TYPE simrank_stage_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics->body.find(
                "simrank_stage_duration_seconds_bucket{stage=\"request\","),
            std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_slow_queries_total 6"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("simrank_traced_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find(
                "simrank_stage_counter_total{counter=\"cache_misses\"}"),
            std::string::npos);
}

TEST(ServerTraceTest, AccessAndTraceLogsWriteJsonl) {
  const std::string log_path = ::testing::TempDir() + "events.jsonl";
  std::remove(log_path.c_str());
  {
    ServerOptions options;
    options.diagnostics.log_path = log_path;
    options.slow_query_us = 1;
    ServerFixture fixture(options);
    ASSERT_EQ(HttpGet(fixture.port(), "/v1/pair?a=0&b=1")->status, 200);
    ASSERT_EQ(HttpGet(fixture.port(), "/healthz")->status, 200);
    ASSERT_EQ(HttpGet(fixture.port(), "/nope")->status, 404);
  }  // server destruction drains the log

  auto read_file = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    OIPSIM_CHECK_MSG(f != nullptr, "missing log %s", path.c_str());
    std::string content;
    char chunk[4096];
    size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      content.append(chunk, got);
    }
    std::fclose(f);
    return content;
  };
  // The loop writes access records and the workers trace records into the
  // one log; each check below sees only the lines of its own type, so a
  // trace record's "trace_id" cannot satisfy an access check.
  const std::string log = read_file(log_path);
  auto records_of_type = [&log](const std::string& type) {
    std::string records;
    for (const std::string& line : StrSplit(log, '\n')) {
      if (StartsWith(line, "{\"type\":\"" + type + "\",")) {
        records += line + '\n';
      }
    }
    return records;
  };
  const std::string access = records_of_type("access");
  // One line per request — query, healthz and the 404 all flow through
  // the same response path.
  EXPECT_NE(access.find("\"method\":\"GET\",\"path\":\"/v1/pair\","
                        "\"status\":200"),
            std::string::npos);
  EXPECT_NE(access.find("\"path\":\"/healthz\",\"status\":200"),
            std::string::npos);
  EXPECT_NE(access.find("\"path\":\"/nope\",\"status\":404"),
            std::string::npos);
  EXPECT_NE(access.find("\"unix_micros\":"), std::string::npos);
  EXPECT_NE(access.find("\"micros\":"), std::string::npos);
  // The dispatched query was traced (slow capture), so its access line
  // carries the trace id for correlation with the trace log.
  EXPECT_NE(access.find("\"trace_id\":\""), std::string::npos);

  const std::string trace = records_of_type("trace");
  EXPECT_NE(trace.find("\"target\":\"/v1/pair?a=0&b=1\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"trace\":{\"trace_id\":\""), std::string::npos);
  std::remove(log_path.c_str());
}

TEST(ServerTraceTest, ValidateRejectsBadTraceOptions) {
  ServerOptions options;
  options.trace_sample = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options = ServerOptions();
  options.trace_sample = -0.1;
  EXPECT_FALSE(options.Validate().ok());
  options = ServerOptions();
  options.slow_ring_capacity = 1 << 20;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServerTraceTest, ValidateRejectsEmptySlowRing) {
  ServerOptions options;
  options.slow_ring_capacity = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServerOptionsTest, ValidateRejectsZeroCaps) {
  ServerOptions options;
  options.max_inflight = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServerOptions();
  options.max_endpoint_inflight = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = ServerOptions();
  options.bind_address = "";
  EXPECT_FALSE(options.Validate().ok());
  EXPECT_TRUE(ServerOptions().Validate().ok());
}

}  // namespace
}  // namespace simrank
