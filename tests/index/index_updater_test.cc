#include "simrank/index/index_updater.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "simrank/graph/graph_io.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/query_engine.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

WalkIndexOptions SmallOptions() {
  WalkIndexOptions options;
  options.num_fingerprints = 48;
  options.walk_length = 6;
  options.damping = 0.6;
  return options;
}

/// Builds, saves with `compress`, reloads through the chosen backend — the
/// load-then-update paths the updater must serve.
WalkIndex BuildSaveLoad(const DiGraph& graph, const WalkIndexOptions& options,
                        bool compress, bool use_mmap,
                        const std::string& tag) {
  auto built = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(built.ok());
  const std::string path = TempPath("updater-" + tag + ".widx");
  WalkIndex::SaveOptions save;
  save.compress = compress;
  OIPSIM_CHECK(built->Save(path, save).ok());
  WalkIndex::LoadOptions load;
  load.use_mmap = use_mmap;
  auto loaded = WalkIndex::Load(path, load);
  OIPSIM_CHECK(loaded.ok());
  return std::move(loaded).value();
}

/// Asserts every query shape against `index` (with its published overlay)
/// is bitwise identical to the freshly `rebuilt` index.
void ExpectBitwiseEquivalent(const WalkIndex& index,
                             const WalkIndex& rebuilt) {
  const uint32_t n = index.n();
  for (VertexId v = 0; v < n; ++v) {
    const std::vector<double> patched = index.EstimateSingleSource(v);
    const std::vector<double> fresh = rebuilt.EstimateSingleSource(v);
    ASSERT_EQ(patched.size(), fresh.size());
    ASSERT_EQ(std::memcmp(patched.data(), fresh.data(),
                          patched.size() * sizeof(double)),
              0)
        << "single-source row of " << v << " diverges from rebuild";
    const std::vector<double> scan = index.EstimateSingleSourceScan(v);
    ASSERT_EQ(std::memcmp(patched.data(), scan.data(),
                          patched.size() * sizeof(double)),
              0)
        << "scan and inverted paths disagree under overlay at " << v;
    for (VertexId b = 0; b < n; ++b) {
      const double pair = index.EstimatePair(v, b);
      const double fresh_pair = rebuilt.EstimatePair(v, b);
      ASSERT_EQ(std::memcmp(&pair, &fresh_pair, sizeof(double)), 0)
          << "pair (" << v << ", " << b << ") diverges from rebuild";
    }
  }
}

/// `count` edges absent from `graph` (self-loops excluded), so strict
/// insert validation holds on any fixture.
std::vector<Edge> FreshEdges(const DiGraph& graph, size_t count) {
  std::vector<Edge> fresh;
  for (VertexId src = 0; src < graph.n() && fresh.size() < count; ++src) {
    for (VertexId dst = graph.n(); dst-- > 0 && fresh.size() < count;) {
      if (src != dst && !graph.HasEdge(src, dst)) {
        fresh.push_back(Edge{src, dst});
      }
    }
  }
  OIPSIM_CHECK_EQ(fresh.size(), count);
  return fresh;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  OIPSIM_CHECK(f != nullptr);
  std::vector<uint8_t> bytes;
  char chunk[4096];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(f);
  return bytes;
}

struct BackendParam {
  bool compress;
  bool use_mmap;
};

class IndexUpdaterBackendTest
    : public ::testing::TestWithParam<BackendParam> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, IndexUpdaterBackendTest,
    ::testing::Values(BackendParam{false, false}, BackendParam{true, false},
                      BackendParam{false, true}, BackendParam{true, true}),
    [](const ::testing::TestParamInfo<BackendParam>& info) {
      return std::string(info.param.compress ? "Compressed" : "Raw") +
             (info.param.use_mmap ? "Mmap" : "InMemory");
    });

TEST_P(IndexUpdaterBackendTest, UpdateThenQueryEqualsRebuildThenQuery) {
  const DiGraph graph = testing::RandomGraph(40, 160, 3);
  const WalkIndexOptions options = SmallOptions();
  const std::string tag =
      std::string(GetParam().compress ? "c" : "r") +
      (GetParam().use_mmap ? "m" : "i");
  WalkIndex index = BuildSaveLoad(graph, options, GetParam().compress,
                                  GetParam().use_mmap, tag);

  const std::string wal_path = TempPath("updater-equiv-" + tag + ".wal");
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();

  // Three batches: inserts, deletes, and a mix touching the same region.
  // Fresh edges are picked by scanning so the strict validation holds on
  // any fixture graph.
  const std::vector<Edge> fresh = FreshEdges(graph, 3);
  const std::vector<std::vector<EdgeUpdate>> batches = {
      {{EdgeUpdate::Op::kInsert, fresh[0].src, fresh[0].dst},
       {EdgeUpdate::Op::kInsert, fresh[1].src, fresh[1].dst}},
      {{EdgeUpdate::Op::kDelete, graph.Edges()[3].src,
        graph.Edges()[3].dst}},
      {{EdgeUpdate::Op::kInsert, fresh[2].src, fresh[2].dst},
       {EdgeUpdate::Op::kDelete, fresh[0].src, fresh[0].dst}},
  };
  for (const auto& batch : batches) {
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
    auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
    ASSERT_TRUE(rebuilt.ok());
    ExpectBitwiseEquivalent(index, *rebuilt);
    EXPECT_EQ(index.overlay_sequence(), (*updater)->stats().overlay_sequence);
  }

  // Compact must be byte-identical to a fresh save of the rebuilt index,
  // for the encoding the base file used.
  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(rebuilt.ok());
  const std::string compacted = TempPath("updater-compact-" + tag + ".widx");
  const std::string fresh_path = TempPath("updater-fresh-" + tag + ".widx");
  WalkIndex::SaveOptions save;
  save.compress = GetParam().compress;
  ASSERT_TRUE((*updater)->Compact(compacted, save).ok());
  ASSERT_TRUE(rebuilt->Save(fresh_path, save).ok());
  EXPECT_EQ(ReadFileBytes(compacted), ReadFileBytes(fresh_path));
}

TEST(IndexUpdaterTest, DeadWalksReviveAndDie) {
  // In the paper graph f, g, i have no in-neighbours: every walk reaching
  // them dies. Giving f an in-edge revives those walks; deleting it kills
  // them again — both must match a rebuild exactly.
  const DiGraph graph = testing::PaperExampleGraph();
  WalkIndexOptions options = SmallOptions();
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();

  const std::string wal_path = TempPath("updater-revive.wal");
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());

  ASSERT_TRUE(
      (*updater)
          ->ApplyUpdates({{{EdgeUpdate::Op::kInsert, testing::kA,
                            testing::kF}}})
          .ok());
  auto revived = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(revived.ok());
  ExpectBitwiseEquivalent(index, *revived);

  ASSERT_TRUE(
      (*updater)
          ->ApplyUpdates({{{EdgeUpdate::Op::kDelete, testing::kA,
                            testing::kF}}})
          .ok());
  auto killed = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(killed.ok());
  ExpectBitwiseEquivalent(index, *killed);
  // The graph is back to the original and every patch cancelled out — but
  // the (empty) overlay still publishes with an advanced sequence, so
  // rows cached under intermediate overlays can never read as fresh.
  EXPECT_EQ((*updater)->stats().patched_vertices, 0u);
  auto overlay = index.overlay_snapshot();
  ASSERT_NE(overlay, nullptr);
  EXPECT_EQ(overlay->sequence(), 2u);
  EXPECT_EQ(overlay->patched_walk_count(), 0u);
  EXPECT_EQ(overlay->changed_slot_count(), 0u);
  EXPECT_EQ(index.overlay_sequence(), 2u);
}

TEST(IndexUpdaterTest, WalReplayRestoresOverlayAfterRestart) {
  const DiGraph graph = testing::RandomGraph(30, 120, 9);
  const WalkIndexOptions options = SmallOptions();
  const std::string wal_path = TempPath("updater-replay.wal");
  std::remove(wal_path.c_str());

  const std::vector<Edge> fresh = FreshEdges(graph, 2);
  const std::vector<EdgeUpdate> batch1 = {
      {EdgeUpdate::Op::kInsert, fresh[0].src, fresh[0].dst}};
  const std::vector<EdgeUpdate> batch2 = {
      {EdgeUpdate::Op::kDelete, fresh[0].src, fresh[0].dst},
      {EdgeUpdate::Op::kInsert, fresh[1].src, fresh[1].dst}};

  // Session 1: apply two batches, then "crash" (drop everything).
  {
    auto built = WalkIndex::Build(graph, options);
    ASSERT_TRUE(built.ok());
    WalkIndex index = std::move(built).value();
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = wal_path;
    auto updater = IndexUpdater::Open(index, graph, updater_options);
    ASSERT_TRUE(updater.ok());
    ASSERT_TRUE((*updater)->ApplyUpdates(batch1).ok());
    ASSERT_TRUE((*updater)->ApplyUpdates(batch2).ok());
  }

  // Session 2: a fresh index + WAL replay serves the updated state.
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());
  EXPECT_EQ((*updater)->stats().batches_replayed, 2u);
  EXPECT_EQ(index.overlay_sequence(), 2u);

  auto expected_graph = ApplyEdgeUpdates(graph, batch1);
  ASSERT_TRUE(expected_graph.ok());
  expected_graph = ApplyEdgeUpdates(*expected_graph, batch2);
  ASSERT_TRUE(expected_graph.ok());
  auto rebuilt = WalkIndex::Build(*expected_graph, options);
  ASSERT_TRUE(rebuilt.ok());
  ExpectBitwiseEquivalent(index, *rebuilt);
}

TEST(IndexUpdaterTest, TruncatedWalReplaysOnlyCompleteBatches) {
  const DiGraph graph = testing::RandomGraph(30, 120, 9);
  const WalkIndexOptions options = SmallOptions();
  const std::string wal_path = TempPath("updater-torn.wal");
  std::remove(wal_path.c_str());

  const std::vector<Edge> fresh = FreshEdges(graph, 2);
  const std::vector<EdgeUpdate> batch1 = {
      {EdgeUpdate::Op::kInsert, fresh[0].src, fresh[0].dst}};
  uint64_t after_first = 0;
  {
    auto built = WalkIndex::Build(graph, options);
    ASSERT_TRUE(built.ok());
    WalkIndex index = std::move(built).value();
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = wal_path;
    auto updater = IndexUpdater::Open(index, graph, updater_options);
    ASSERT_TRUE(updater.ok());
    ASSERT_TRUE((*updater)->ApplyUpdates(batch1).ok());
    after_first = (*updater)->stats().wal_bytes;
    ASSERT_TRUE(
        (*updater)
            ->ApplyUpdates(
                {{{EdgeUpdate::Op::kInsert, fresh[1].src, fresh[1].dst}}})
            .ok());
  }
  // Tear the second record mid-write.
  {
    const std::vector<uint8_t> bytes = ReadFileBytes(wal_path);
    ASSERT_GT(bytes.size(), after_first);
    const size_t torn = after_first + (bytes.size() - after_first) / 2;
    std::FILE* f = std::fopen(wal_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, torn, f), torn);
    std::fclose(f);
  }
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());
  EXPECT_EQ((*updater)->stats().batches_replayed, 1u);
  EXPECT_GT((*updater)->stats().wal_truncated_bytes, 0u);

  auto expected_graph = ApplyEdgeUpdates(graph, batch1);
  ASSERT_TRUE(expected_graph.ok());
  auto rebuilt = WalkIndex::Build(*expected_graph, options);
  ASSERT_TRUE(rebuilt.ok());
  ExpectBitwiseEquivalent(index, *rebuilt);
}

TEST(IndexUpdaterTest, CompactWithResetRebindsTheWal) {
  const DiGraph graph = testing::RandomGraph(25, 90, 4);
  const WalkIndexOptions options = SmallOptions();
  const std::string wal_path = TempPath("updater-compact-reset.wal");
  const std::string compacted = TempPath("updater-compact-reset.widx");
  std::remove(wal_path.c_str());

  DiGraph updated_graph;
  {
    auto built = WalkIndex::Build(graph, options);
    ASSERT_TRUE(built.ok());
    WalkIndex index = std::move(built).value();
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = wal_path;
    auto updater = IndexUpdater::Open(index, graph, updater_options);
    ASSERT_TRUE(updater.ok());
    const std::vector<Edge> fresh = FreshEdges(graph, 1);
    ASSERT_TRUE(
        (*updater)
            ->ApplyUpdates({{{EdgeUpdate::Op::kInsert, fresh[0].src,
                              fresh[0].dst}}})
            .ok());
    ASSERT_TRUE((*updater)
                    ->Compact(compacted, WalkIndex::SaveOptions{},
                              /*reset_wal=*/true)
                    .ok());
    updated_graph = (*updater)->CurrentGraph();
  }

  // The compacted file + reset WAL form a consistent restart pair.
  auto loaded = WalkIndex::Load(compacted);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->ValidateGraph(updated_graph).ok());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater =
      IndexUpdater::Open(*loaded, updated_graph, updater_options);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  EXPECT_EQ((*updater)->stats().batches_replayed, 0u);

  // The *base* graph no longer matches the reset WAL.
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex base_index = std::move(built).value();
  auto stale = IndexUpdater::Open(base_index, graph, updater_options);
  EXPECT_FALSE(stale.ok());
}

TEST(IndexUpdaterTest, OpenValidation) {
  const DiGraph graph = testing::RandomGraph(20, 60, 2);
  const DiGraph other = testing::RandomGraph(20, 60, 5);
  auto built = WalkIndex::Build(graph, SmallOptions());
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();

  IndexUpdaterOptions no_wal;
  EXPECT_FALSE(IndexUpdater::Open(index, graph, no_wal).ok());

  IndexUpdaterOptions updater_options;
  updater_options.wal_path = TempPath("updater-validate.wal");
  std::remove(updater_options.wal_path.c_str());
  EXPECT_FALSE(IndexUpdater::Open(index, other, updater_options).ok());

  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());
  const std::vector<Edge> fresh = FreshEdges(graph, 1);
  ASSERT_TRUE((*updater)
                  ->ApplyUpdates({{{EdgeUpdate::Op::kInsert, fresh[0].src,
                                    fresh[0].dst}}})
                  .ok());
  // A second updater on an index that already carries an overlay.
  EXPECT_FALSE(
      IndexUpdater::Open(index, (*updater)->CurrentGraph(), updater_options)
          .ok());

  // Empty batches and invalid updates are rejected without side effects.
  const IndexUpdateStats before = (*updater)->stats();
  EXPECT_FALSE((*updater)->ApplyUpdates({}).ok());
  EXPECT_FALSE((*updater)
                   ->ApplyUpdates({{{EdgeUpdate::Op::kInsert, fresh[0].src,
                                     fresh[0].dst}}})
                   .ok());  // duplicate edge
  EXPECT_EQ((*updater)->stats().batches_applied, before.batches_applied);
  EXPECT_EQ(index.overlay_sequence(), before.overlay_sequence);
}

TEST(IndexUpdaterTest, OpenRejectsPatchedFractionOutsideUnitInterval) {
  const DiGraph graph = testing::RandomGraph(20, 60, 2);
  auto built = WalkIndex::Build(graph, SmallOptions());
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = TempPath("updater-fraction.wal");
  updater_options.auto_compact_path = TempPath("updater-fraction.widx");
  for (const double fraction : {-0.5, 1.0, 2.0}) {
    std::remove(updater_options.wal_path.c_str());
    updater_options.auto_compact_patched_fraction = fraction;
    EXPECT_FALSE(IndexUpdater::Open(index, graph, updater_options).ok())
        << fraction;
  }
  std::remove(updater_options.wal_path.c_str());
}

TEST(IndexUpdaterTest, ConcurrentQueriesDuringUpdatesAreSafe) {
  // Readers hammer the engine while a writer applies batches; TSan is the
  // real assertion here, plus: rows served mid-update must equal either
  // the pre- or some post-batch state (they are snapshots, never blends),
  // and the final state must equal a rebuild.
  const DiGraph graph = testing::RandomGraph(32, 128, 8);
  WalkIndexOptions options = SmallOptions();
  options.num_fingerprints = 24;
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();
  QueryEngine engine(index);

  const std::string wal_path = TempPath("updater-concurrent.wal");
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 3; ++reader) {
    readers.emplace_back([&engine, &stop, reader] {
      uint32_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = static_cast<VertexId>((reader * 11 + i) % 32);
        auto row = engine.SingleSource(v);
        ASSERT_TRUE(row.ok());
        auto pair = engine.Pair(v, static_cast<VertexId>((v + 7) % 32));
        ASSERT_TRUE(pair.ok());
        ++i;
      }
    });
  }

  const std::vector<Edge> fresh = FreshEdges(graph, 3);
  const std::vector<std::vector<EdgeUpdate>> batches = {
      {{EdgeUpdate::Op::kInsert, fresh[0].src, fresh[0].dst}},
      {{EdgeUpdate::Op::kInsert, fresh[1].src, fresh[1].dst}},
      {{EdgeUpdate::Op::kDelete, fresh[0].src, fresh[0].dst}},
      {{EdgeUpdate::Op::kInsert, fresh[2].src, fresh[2].dst}},
  };
  for (const auto& batch : batches) {
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
    engine.InvalidateCache();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(rebuilt.ok());
  ExpectBitwiseEquivalent(index, *rebuilt);
  // Post-update queries through the engine see the new state.
  QueryEngine fresh_engine(*rebuilt);
  for (VertexId v = 0; v < 32; v += 5) {
    auto served = engine.SingleSource(v);
    auto expected = fresh_engine.SingleSource(v);
    ASSERT_TRUE(served.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(std::memcmp((*served)->data(), (*expected)->data(),
                          (*served)->size() * sizeof(double)),
              0);
  }
}

}  // namespace
}  // namespace simrank
