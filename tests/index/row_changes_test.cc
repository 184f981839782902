// Row-change sets: each update batch publishes the vertices whose
// single-source row it can change, and QueryEngine keeps serving (after
// re-stamping) every cached row outside them. These tests check that the
// sets cover every row a batch really changes, and that the engine serves
// only rows bitwise equal to a fresh estimate on the overlay it read.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "simrank/index/delta_overlay.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

WalkIndex BuildIndex(const DiGraph& graph, uint32_t fingerprints,
                     uint32_t walk_length) {
  WalkIndexOptions options;
  options.num_fingerprints = fingerprints;
  options.walk_length = walk_length;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());
  return std::move(index).value();
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "row-changes-" + name;
  std::remove(path.c_str());
  return path;
}

std::unique_ptr<IndexUpdater> OpenUpdater(WalkIndex& index,
                                          const DiGraph& graph,
                                          IndexUpdaterOptions options) {
  auto updater = IndexUpdater::Open(index, graph, options);
  OIPSIM_CHECK(updater.ok());
  return std::move(updater).value();
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

uint64_t SequenceOf(const std::shared_ptr<const DeltaOverlay>& overlay) {
  return overlay == nullptr ? 0 : overlay->sequence();
}

/// `inserts` absent and `deletes` present edges of `graph`, all distinct
/// (self loops excluded).
std::vector<EdgeUpdate> RandomBatch(const DiGraph& graph, std::mt19937_64& rng,
                                    int inserts, int deletes) {
  std::vector<EdgeUpdate> batch;
  auto fits = [&](VertexId src, VertexId dst) {
    if (src == dst) return false;
    for (const EdgeUpdate& u : batch) {
      if (u.src == src && u.dst == dst) return false;
    }
    return true;
  };
  std::uniform_int_distribution<VertexId> pick(0, graph.n() - 1);
  while (inserts > 0) {
    const VertexId src = pick(rng);
    const VertexId dst = pick(rng);
    if (!fits(src, dst) || graph.HasEdge(src, dst)) continue;
    batch.push_back({EdgeUpdate::Op::kInsert, src, dst});
    --inserts;
  }
  while (deletes > 0) {
    const VertexId dst = pick(rng);
    const auto in = graph.InNeighbors(dst);
    if (in.empty()) continue;
    const VertexId src = in[rng() % in.size()];
    if (!fits(src, dst)) continue;
    batch.push_back({EdgeUpdate::Op::kDelete, src, dst});
    --deletes;
  }
  return batch;
}

/// Applies `batch` and checks the published set against every row: a row
/// that changed bitwise must be in it. Returns the set's size.
size_t ApplyAndCheckSet(const WalkIndex& index, IndexUpdater& updater,
                        std::span<const EdgeUpdate> batch) {
  const auto before = index.overlay_snapshot();
  std::vector<std::vector<double>> rows(index.n());
  for (VertexId v = 0; v < index.n(); ++v) {
    rows[v] = index.EstimateSingleSource(v, before.get());
  }
  const Status applied = updater.ApplyUpdates(batch);
  EXPECT_TRUE(applied.ok()) << applied.ToString();
  const auto after = index.overlay_snapshot();
  EXPECT_EQ(SequenceOf(after), SequenceOf(before) + 1);
  size_t in_set = 0;
  for (VertexId v = 0; v < index.n(); ++v) {
    const bool claimed_unchanged =
        after->RowUnchangedSince(v, SequenceOf(before));
    if (!claimed_unchanged) ++in_set;
    if (claimed_unchanged) {
      EXPECT_TRUE(SameBits(index.EstimateSingleSource(v, after.get()),
                           rows[v]))
          << "row " << v << " changed in batch " << after->sequence()
          << " but is not in its row-change set";
    }
  }
  return in_set;
}

class RowChangesSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RowChangesSweepTest, SetCoversEveryChangedRow) {
  DiGraph graph = testing::RandomGraph(1000, 2000, 11);
  WalkIndex index = BuildIndex(graph, 16, 5);
  IndexUpdaterOptions options;
  options.wal_path = TempPath("sweep.wal");
  options.sync_wal = false;
  options.num_threads = GetParam();
  auto updater = OpenUpdater(index, graph, options);
  std::mt19937_64 rng(3);
  size_t batches = 0;
  size_t set_total = 0;
  auto apply = [&](const std::vector<EdgeUpdate>& batch) {
    set_total += ApplyAndCheckSet(index, *updater, batch);
    ++batches;
  };

  // Inserts and deletes; later batches move walks earlier ones patched.
  for (int i = 0; i < 6; ++i) {
    apply(RandomBatch(updater->CurrentGraph(), rng, 2, 2));
  }

  // A dead end: deleting every in-edge of y kills all of y's walks at
  // step 1 and every walk that reaches y one step later.
  const DiGraph current = updater->CurrentGraph();
  VertexId y = 0;
  while (current.InDegree(y) < 2) ++y;
  std::vector<EdgeUpdate> kill;
  for (const VertexId src : current.InNeighbors(y)) {
    kill.push_back({EdgeUpdate::Op::kDelete, src, y});
  }
  apply(kill);
  const auto dead = index.overlay_snapshot();
  std::vector<uint32_t> scratch;
  const uint32_t* y_walks =
      *MaterializeRow(index.ServingStore(dead.get()), dead.get(), y, &scratch);
  for (uint32_t r = 0; r < 16; ++r) {
    ASSERT_EQ(y_walks[r * 6 + 1], WalkIndex::kDeadWalk) << "walk " << r;
  }
  // ... and reviving y moves the same walks again.
  apply({{EdgeUpdate::Op::kInsert, kill[0].src, y}});

  // An already-patched walk that moves again: two batches in a row
  // change x's in-list, so x's walks, patched by the first, are
  // re-simulated from step 1 by the second.
  const VertexId x = y + 1;
  std::vector<EdgeUpdate> first;
  for (VertexId src = 0; first.empty(); ++src) {
    if (src != x && !updater->CurrentGraph().HasEdge(src, x)) {
      first.push_back({EdgeUpdate::Op::kInsert, src, x});
    }
  }
  apply(first);
  const auto once = index.overlay_snapshot();
  std::vector<EdgeUpdate> second;
  for (VertexId src = first[0].src + 1; second.empty(); ++src) {
    if (src != x && !updater->CurrentGraph().HasEdge(src, x)) {
      second.push_back({EdgeUpdate::Op::kInsert, src, x});
    }
  }
  apply(second);
  const auto twice = index.overlay_snapshot();
  bool moved_again = false;
  for (uint32_t r = 0; r < 16 && !moved_again; ++r) {
    const DeltaOverlay::WalkPatch* a = once->FindPatch(x, r);
    const DeltaOverlay::WalkPatch* b = twice->FindPatch(x, r);
    moved_again = a != nullptr && b != nullptr &&
                  (a->t0 != b->t0 || a->suffix != b->suffix);
  }
  EXPECT_TRUE(moved_again);

  for (int i = 0; i < 4; ++i) {
    apply(RandomBatch(updater->CurrentGraph(), rng, 3, 1));
  }

  // The sets are exact supersets, not "every row": most rows survive a
  // batch of a few edges even on this small graph.
  EXPECT_LT(set_total, batches * index.n() / 2);
  EXPECT_EQ(updater->stats().rows_invalidated, set_total);
}

INSTANTIATE_TEST_SUITE_P(Threads, RowChangesSweepTest,
                         ::testing::Values(1u, 3u));

TEST(RowChangesTest, SetIsIndependentOfThreadCount) {
  DiGraph graph = testing::RandomGraph(200, 700, 12);
  WalkIndex serial = BuildIndex(graph, 16, 5);
  WalkIndex parallel = BuildIndex(graph, 16, 5);
  IndexUpdaterOptions options;
  options.sync_wal = false;
  options.wal_path = TempPath("serial.wal");
  options.num_threads = 1;
  auto serial_updater = OpenUpdater(serial, graph, options);
  options.wal_path = TempPath("parallel.wal");
  options.num_threads = 4;
  auto parallel_updater = OpenUpdater(parallel, graph, options);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 8; ++i) {
    const auto batch =
        RandomBatch(serial_updater->CurrentGraph(), rng, 3, 2);
    ASSERT_TRUE(serial_updater->ApplyUpdates(batch).ok());
    ASSERT_TRUE(parallel_updater->ApplyUpdates(batch).ok());
    const auto a = serial.overlay_snapshot();
    const auto b = parallel.overlay_snapshot();
    for (VertexId v = 0; v < graph.n(); ++v) {
      ASSERT_EQ(a->RowUnchangedSince(v, a->sequence() - 1),
                b->RowUnchangedSince(v, b->sequence() - 1))
          << "vertex " << v << " batch " << i;
    }
  }
  EXPECT_EQ(serial_updater->stats().rows_invalidated,
            parallel_updater->stats().rows_invalidated);
}

TEST(RowChangesTest, EngineServesOnlyRowsValidUnderItsSnapshot) {
  // Every row warm; then single batches, three concurrent batches under
  // group commit, and compactions, while readers run. After each round
  // every served row must be bitwise a fresh estimate on the current
  // overlay, and a reader whose snapshot did not move during its call
  // must have been served exactly that snapshot's answer.
  DiGraph graph = testing::RandomGraph(400, 1200, 13);
  WalkIndex index = BuildIndex(graph, 32, 6);
  QueryEngineOptions engine_options;
  engine_options.cache_shards = 8;
  engine_options.cache_capacity_per_shard = 128;  // holds every row
  engine_options.num_threads = 1;
  QueryEngine engine(index, engine_options);
  IndexUpdaterOptions options;
  options.wal_path = TempPath("engine.wal");
  options.num_threads = 2;
  options.group_commit_window_us = 20000;  // let all three batches join
  auto updater = OpenUpdater(index, graph, options);
  const std::string compact_path = TempPath("engine.widx");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_checks{0};
  std::atomic<uint64_t> reader_mismatches{0};
  auto reader = [&](uint64_t seed) {
    std::mt19937_64 rng(seed);
    while (!stop.load()) {
      const VertexId v = static_cast<VertexId>(rng() % graph.n());
      const VertexId u = static_cast<VertexId>(rng() % graph.n());
      const auto before = index.overlay_snapshot();
      auto row = engine.SingleSource(v);
      const std::optional<double> pair = engine.PairFromCache(u, v);
      const auto after = index.overlay_snapshot();
      if (!row.ok() || before != after) continue;
      ++reader_checks;
      if (!SameBits(**row, index.EstimateSingleSource(v, before.get()))) {
        ++reader_mismatches;
      }
      if (pair.has_value()) {
        const double expected = index.EstimatePair(u, v, before.get());
        if (std::memcmp(&*pair, &expected, sizeof(double)) != 0) {
          ++reader_mismatches;
        }
      }
    }
  };
  std::vector<std::thread> readers;
  for (uint64_t seed = 1; seed <= 2; ++seed) readers.emplace_back(reader, seed);

  std::mt19937_64 rng(7);
  uint64_t row_mismatches = 0;
  for (int round = 0; round < 12; ++round) {
    const DiGraph current = updater->CurrentGraph();
    if (round % 3 == 1) {
      // Three disjoint batches at once: one group, one fsync, three
      // sequences, each with its own set.
      const auto all = RandomBatch(current, rng, 3, 3);
      std::vector<std::thread> writers;
      for (size_t i = 0; i < 3; ++i) {
        writers.emplace_back([&, i] {
          const std::vector<EdgeUpdate> batch{all[i], all[i + 3]};
          EXPECT_TRUE(updater->ApplyUpdates(batch).ok());
        });
      }
      for (std::thread& writer : writers) writer.join();
    } else {
      ASSERT_TRUE(
          updater->ApplyUpdates(RandomBatch(current, rng, 2, 2)).ok());
    }
    if (round % 3 == 2) {
      ASSERT_TRUE(updater->Compact(compact_path, {}).ok());
    }
    const auto overlay = index.overlay_snapshot();
    for (VertexId v = 0; v < graph.n(); ++v) {
      auto served = engine.SingleSource(v);
      ASSERT_TRUE(served.ok());
      if (!SameBits(**served, index.EstimateSingleSource(v, overlay.get()))) {
        ++row_mismatches;
      }
    }
  }
  stop = true;
  for (std::thread& thread : readers) thread.join();

  EXPECT_EQ(row_mismatches, 0u);
  EXPECT_EQ(reader_mismatches, 0u);
  EXPECT_GT(reader_checks.load(), 0u);
  const IndexUpdateStats stats = updater->stats();
  EXPECT_EQ(stats.batches_applied, 8u * 1 + 4u * 3);
  EXPECT_LT(stats.wal_syncs, stats.batches_applied);  // a group formed
  EXPECT_EQ(stats.compactions, 4u);
  // The mechanism was used: rows were carried across batches.
  EXPECT_GT(engine.cache_stats().restamped, 0u);
}

/// A graph whose vertices 0 and 1 have no edges at all: their walks die at
/// step 1, so no batch that leaves them alone can put them in a set.
DiGraph GraphWithIsolatedPair() {
  DiGraph base = testing::RandomGraph(40, 160, 14);
  DiGraph::Builder builder(40);
  for (VertexId dst = 2; dst < 40; ++dst) {
    for (const VertexId src : base.InNeighbors(dst)) {
      if (src >= 2) builder.AddEdge(src, dst);
    }
  }
  return std::move(builder).Build();
}

TEST(RowChangesTest, RowStampedBeforeTheOldestKeptSetIsAMiss) {
  const DiGraph graph = GraphWithIsolatedPair();
  WalkIndex index = BuildIndex(graph, 16, 5);
  QueryEngine engine(index);
  IndexUpdaterOptions options;
  options.wal_path = TempPath("window.wal");
  options.sync_wal = false;
  auto updater = OpenUpdater(index, graph, options);
  ASSERT_TRUE(engine.SingleSource(0).ok());
  ASSERT_TRUE(engine.SingleSource(1).ok());

  // Toggle one edge far from 0 and 1: each toggle is one batch.
  VertexId src = 2;
  VertexId dst = 3;
  while (graph.HasEdge(src, dst)) ++dst;
  auto toggle = [&](uint64_t i) {
    const EdgeUpdate::Op op =
        i % 2 == 0 ? EdgeUpdate::Op::kInsert : EdgeUpdate::Op::kDelete;
    ASSERT_TRUE(updater->ApplyUpdates({{{op, src, dst}}}).ok());
  };
  const uint64_t window = DeltaOverlay::kRowChangeWindow;
  for (uint64_t i = 0; i < window; ++i) toggle(i);

  // Stamp 0, sets 1..window kept: row 0 is carried across all of them.
  auto before = engine.cache_stats();
  ASSERT_TRUE(engine.SingleSource(0).ok());
  EXPECT_EQ(engine.cache_stats().hits, before.hits + 1);
  EXPECT_EQ(engine.cache_stats().restamped, before.restamped + 1);

  // One more batch drops set 1: row 1, still stamped 0, is a miss; row 0,
  // re-stamped to `window`, is still a hit.
  toggle(window);
  before = engine.cache_stats();
  auto row = engine.SingleSource(1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(engine.cache_stats().hits, before.hits);
  EXPECT_EQ(engine.cache_stats().misses, before.misses + 1);
  EXPECT_TRUE(SameBits(**row, index.EstimateSingleSource(1)));
  ASSERT_TRUE(engine.SingleSource(0).ok());
  EXPECT_EQ(engine.cache_stats().hits, before.hits + 1);
  EXPECT_EQ(engine.cache_stats().restamped, before.restamped + 1);
}

TEST(RowChangesTest, ReaderPinnedToOlderSnapshotSkipsNewerStampedRow) {
  DiGraph graph = testing::RandomGraph(60, 200, 15);
  WalkIndex index = BuildIndex(graph, 32, 6);
  QueryEngine engine(index);
  IndexUpdaterOptions options;
  options.wal_path = TempPath("pinned.wal");
  options.sync_wal = false;
  auto updater = OpenUpdater(index, graph, options);
  std::mt19937_64 rng(9);
  ASSERT_TRUE(
      updater->ApplyUpdates(RandomBatch(graph, rng, 1, 1)).ok());
  const auto older = index.overlay_snapshot();

  // Batch 2 inserts an edge into v, so v's row differs between the two.
  const DiGraph current = updater->CurrentGraph();
  VertexId v = 0;
  VertexId src = 1;
  while (current.HasEdge(src, v)) ++src;
  ASSERT_TRUE(
      updater->ApplyUpdates({{{EdgeUpdate::Op::kInsert, src, v}}}).ok());
  const auto newer = index.overlay_snapshot();
  const std::vector<double> old_row = index.EstimateSingleSource(v, older.get());
  const std::vector<double> new_row = index.EstimateSingleSource(v, newer.get());
  ASSERT_FALSE(SameBits(old_row, new_row));
  ASSERT_TRUE(engine.SingleSource(v).ok());  // resident, stamped 2

  // Serving `older` again stands for a reader that pinned it before
  // batch 2 landed: the row stamped 2 must not answer it.
  index.PublishOverlay(older);
  EXPECT_FALSE(engine.PairFromCache(v, 7).has_value());
  const auto before = engine.cache_stats();
  auto row = engine.SingleSource(v);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(SameBits(**row, old_row));
  EXPECT_EQ(engine.cache_stats().hits, before.hits);
  EXPECT_EQ(engine.cache_stats().misses, before.misses + 1);

  index.PublishOverlay(newer);
  row = engine.SingleSource(v);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(SameBits(**row, new_row));
}

}  // namespace
}  // namespace simrank
