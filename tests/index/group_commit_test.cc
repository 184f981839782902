// Group commit: concurrently submitted update batches share one WAL fsync
// without giving up durability — every acknowledged batch survives a
// reopen-and-replay.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "simrank/graph/graph_io.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/walk_index.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

WalkIndexOptions SmallOptions() {
  WalkIndexOptions options;
  options.num_fingerprints = 48;
  options.walk_length = 6;
  return options;
}

WalkIndex BuildIndex(const DiGraph& graph) {
  auto index = WalkIndex::Build(graph, SmallOptions());
  OIPSIM_CHECK(index.ok());
  return std::move(index).value();
}

std::string FreshWalPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "group-commit-" + name;
  std::remove(path.c_str());
  return path;
}

/// `count` distinct edges absent from `graph` — all insertable in any
/// order, so concurrent one-edge batches stay valid however they
/// interleave.
std::vector<Edge> FreshEdges(const DiGraph& graph, size_t count) {
  std::vector<Edge> fresh;
  for (VertexId src = 0; src < graph.n() && fresh.size() < count; ++src) {
    for (VertexId dst = 0; dst < graph.n() && fresh.size() < count; ++dst) {
      if (src != dst && !graph.HasEdge(src, dst)) {
        fresh.push_back(Edge{src, dst});
      }
    }
  }
  OIPSIM_CHECK_EQ(fresh.size(), count);
  return fresh;
}

TEST(GroupCommitTest, SequentialBatchesEachGetTheirOwnFsync) {
  const DiGraph graph = testing::RandomGraph(40, 160, 19);
  WalkIndex index = BuildIndex(graph);
  IndexUpdaterOptions options;
  options.wal_path = FreshWalPath("sequential.wal");
  auto updater = IndexUpdater::Open(index, graph, options);
  ASSERT_TRUE(updater.ok());
  const std::vector<Edge> fresh = FreshEdges(graph, 3);
  for (const Edge& edge : fresh) {
    const EdgeUpdate update{EdgeUpdate::Op::kInsert, edge.src, edge.dst};
    ASSERT_TRUE((*updater)->ApplyUpdates({&update, 1}).ok());
  }
  // No concurrency: each batch leads its own group, with its own fsync.
  const IndexUpdateStats stats = (*updater)->stats();
  EXPECT_EQ(stats.batches_applied, 3u);
  EXPECT_EQ(stats.wal_records, 3u);
  EXPECT_EQ(stats.wal_syncs, 3u);
}

TEST(GroupCommitTest, ConcurrentBatchesCoalesceIntoFewerFsyncs) {
  const DiGraph graph = testing::RandomGraph(40, 160, 19);
  WalkIndex index = BuildIndex(graph);
  IndexUpdaterOptions options;
  options.wal_path = FreshWalPath("concurrent.wal");
  // A long leader window so the follower batches reliably join the
  // leader's group instead of racing past it.
  options.group_commit_window_us = 500000;
  auto updater = IndexUpdater::Open(index, graph, options);
  ASSERT_TRUE(updater.ok());

  const std::vector<Edge> fresh = FreshEdges(graph, 3);
  std::vector<std::thread> writers;
  std::vector<Status> results(fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    writers.emplace_back([&, i] {
      // Stagger the followers into the leader's window.
      if (i > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50 * i));
      }
      const EdgeUpdate update{EdgeUpdate::Op::kInsert, fresh[i].src,
                              fresh[i].dst};
      results[i] = (*updater)->ApplyUpdates({&update, 1});
    });
  }
  for (std::thread& writer : writers) writer.join();
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok()) << "batch " << i << ": "
                                 << results[i].ToString();
  }

  const IndexUpdateStats stats = (*updater)->stats();
  EXPECT_EQ(stats.batches_applied, 3u);
  EXPECT_EQ(stats.wal_records, 3u);
  // The whole point: fewer fsyncs than batches. (Normally 1; 2 tolerates
  // a spurious leader wakeup splitting the group.)
  EXPECT_LE(stats.wal_syncs, 2u);
  EXPECT_GE(stats.wal_syncs, 1u);

  // Coalescing did not cost equivalence: the patched index matches a
  // rebuild on the updated graph.
  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), SmallOptions());
  ASSERT_TRUE(rebuilt.ok());
  for (const Edge& edge : fresh) {
    const std::vector<double> patched = index.EstimateSingleSource(edge.dst);
    const std::vector<double> expected =
        rebuilt->EstimateSingleSource(edge.dst);
    ASSERT_EQ(patched.size(), expected.size());
    EXPECT_EQ(std::memcmp(patched.data(), expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << "row " << edge.dst;
  }
}

TEST(GroupCommitTest, GroupedBatchesAreDurableAcrossReopen) {
  const DiGraph graph = testing::RandomGraph(40, 160, 19);
  const std::string wal_path = FreshWalPath("durable.wal");
  const std::vector<Edge> fresh = FreshEdges(graph, 4);
  {
    WalkIndex index = BuildIndex(graph);
    IndexUpdaterOptions options;
    options.wal_path = wal_path;
    options.group_commit_window_us = 100000;
    auto updater = IndexUpdater::Open(index, graph, options);
    ASSERT_TRUE(updater.ok());
    std::vector<std::thread> writers;
    for (size_t i = 0; i < fresh.size(); ++i) {
      writers.emplace_back([&, i] {
        const EdgeUpdate update{EdgeUpdate::Op::kInsert, fresh[i].src,
                                fresh[i].dst};
        ASSERT_TRUE((*updater)->ApplyUpdates({&update, 1}).ok());
      });
    }
    for (std::thread& writer : writers) writer.join();
    EXPECT_EQ((*updater)->stats().wal_records, 4u);
    // Updater and index dropped here: only the WAL survives.
  }

  // Reopen over a fresh base index: the WAL replays every acknowledged
  // batch and the replayed state equals a rebuild on the updated graph.
  WalkIndex index = BuildIndex(graph);
  IndexUpdaterOptions options;
  options.wal_path = wal_path;
  auto reopened = IndexUpdater::Open(index, graph, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const IndexUpdateStats stats = (*reopened)->stats();
  EXPECT_EQ(stats.batches_applied, 4u);
  EXPECT_EQ(stats.batches_replayed, 4u);
  const DiGraph updated = (*reopened)->CurrentGraph();
  for (const Edge& edge : fresh) {
    EXPECT_TRUE(updated.HasEdge(edge.src, edge.dst));
  }
  auto rebuilt = WalkIndex::Build(updated, SmallOptions());
  ASSERT_TRUE(rebuilt.ok());
  for (const Edge& edge : fresh) {
    const std::vector<double> replayed =
        index.EstimateSingleSource(edge.dst);
    const std::vector<double> expected =
        rebuilt->EstimateSingleSource(edge.dst);
    ASSERT_EQ(replayed.size(), expected.size());
    EXPECT_EQ(std::memcmp(replayed.data(), expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << "row " << edge.dst;
  }
}

TEST(GroupCommitTest, NoSyncWalSkipsEveryFsync) {
  const DiGraph graph = testing::RandomGraph(40, 160, 19);
  WalkIndex index = BuildIndex(graph);
  IndexUpdaterOptions options;
  options.wal_path = FreshWalPath("nosync.wal");
  options.sync_wal = false;
  auto updater = IndexUpdater::Open(index, graph, options);
  ASSERT_TRUE(updater.ok());
  const std::vector<Edge> fresh = FreshEdges(graph, 2);
  for (const Edge& edge : fresh) {
    const EdgeUpdate update{EdgeUpdate::Op::kInsert, edge.src, edge.dst};
    ASSERT_TRUE((*updater)->ApplyUpdates({&update, 1}).ok());
  }
  const IndexUpdateStats stats = (*updater)->stats();
  EXPECT_EQ(stats.batches_applied, 2u);
  EXPECT_EQ(stats.wal_syncs, 0u);
}

}  // namespace
}  // namespace simrank
