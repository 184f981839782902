// Parallel walk patching, O(degree) graph maintenance and bounded
// overlays with background auto-compaction.
//
// The contracts under test:
//   - thread-count independence: the overlay (and therefore every query
//     answer and every compacted file) is bitwise identical whether a
//     batch is patched serially or by 2/4/8 workers, over both store
//     backends and both segment encodings;
//   - the in-place adjacency (sorted per-vertex lists + commutative
//     fingerprint accumulators) stays equal to a DiGraph rebuilt through
//     ApplyEdgeUpdates after every accepted batch, and untouched by
//     rejected ones;
//   - an overlay crossing --overlay-budget (or the patched-fraction
//     heuristic) triggers exactly the background compaction behavior:
//     answers stay bitwise a rebuild's, the WAL is re-seeded, the emitted
//     files restart cleanly, and updates keep applying afterwards;
//   - updates, queries and compactions may run concurrently (the TSan CI
//     job runs this suite);
//   - every published overlay is canonical, a function of the served walks
//     alone: whatever batches, groups and compactions led to it, each
//     walk's patch spans exactly the steps that differ from the store and
//     each slot diff holds exactly those steps' entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "simrank/common/rng.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/delta_overlay.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/walk_index.h"
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

/// A deterministic stream of mixed batches, each valid against the graph
/// as evolved by its predecessors.
std::vector<std::vector<EdgeUpdate>> MakeStream(const DiGraph& start,
                                                uint64_t seed,
                                                uint32_t batches,
                                                uint32_t edges) {
  std::vector<std::vector<EdgeUpdate>> stream;
  Rng rng(seed);
  DiGraph current = start;
  for (uint32_t i = 0; i < batches; ++i) {
    std::vector<EdgeUpdate> batch;
    while (batch.size() < edges) {
      const auto src = static_cast<VertexId>(rng.NextUint64(current.n()));
      const auto dst = static_cast<VertexId>(rng.NextUint64(current.n()));
      const bool want_delete = batch.size() % 2 == 1;
      bool duplicate = false;
      for (const EdgeUpdate& u : batch) {
        duplicate = duplicate || (u.src == src && u.dst == dst);
      }
      if (duplicate) continue;
      if (want_delete) {
        const auto out = current.OutNeighbors(src);
        if (out.empty()) continue;
        const VertexId victim = out[rng.NextUint64(out.size())];
        bool victim_duplicate = false;
        for (const EdgeUpdate& u : batch) {
          victim_duplicate =
              victim_duplicate || (u.src == src && u.dst == victim);
        }
        if (victim_duplicate) continue;
        batch.push_back(EdgeUpdate{EdgeUpdate::Op::kDelete, src, victim});
      } else {
        if (current.HasEdge(src, dst)) continue;
        batch.push_back(EdgeUpdate{EdgeUpdate::Op::kInsert, src, dst});
      }
    }
    stream.push_back(batch);
    auto next = ApplyEdgeUpdates(current, stream.back());
    OIPSIM_CHECK(next.ok());
    current = std::move(*next);
  }
  return stream;
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

std::vector<std::vector<double>> AllRows(const WalkIndex& index) {
  std::vector<std::vector<double>> rows;
  rows.reserve(index.n());
  for (VertexId v = 0; v < index.n(); ++v) {
    rows.push_back(index.EstimateSingleSource(v));
  }
  return rows;
}

void ExpectRowsBitwiseEqual(const std::vector<std::vector<double>>& a,
                            const std::vector<std::vector<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    ASSERT_EQ(a[v].size(), b[v].size());
    ASSERT_EQ(std::memcmp(a[v].data(), b[v].data(),
                          a[v].size() * sizeof(double)),
              0)
        << "row " << v << " diverges";
  }
}

/// Checks that `index`'s published overlay is the canonical one for the
/// walks it serves, and that `updater` reports its sizes: for every walk,
/// FindPatch is null exactly when the served walk equals the store's, and
/// otherwise spans exactly the first..last differing step and holds the
/// served positions; every slot diff is exactly {store → served} over the
/// differing steps; the size counters equal a recount.
void ExpectCanonicalOverlay(const WalkIndex& index,
                            const IndexUpdater& updater) {
  const std::shared_ptr<const DeltaOverlay> overlay = index.overlay_snapshot();
  ASSERT_NE(overlay, nullptr);
  const WalkStore& store = index.ServingStore(overlay.get());
  const uint32_t R = store.meta().num_fingerprints;
  const uint32_t L = store.meta().walk_length;
  const size_t row = static_cast<size_t>(L) + 1;
  std::vector<DeltaOverlay::SlotDelta> expected(static_cast<size_t>(R) * L);
  uint64_t patched_walks = 0;
  uint64_t patched_vertices = 0;
  std::vector<uint32_t> base_scratch;
  std::vector<uint32_t> served_scratch;
  for (VertexId v = 0; v < index.n(); ++v) {
    const Result<const uint32_t*> base_row = store.Row(v, &base_scratch);
    ASSERT_TRUE(base_row.ok());
    const std::vector<uint32_t> base(*base_row,
                                     *base_row + store.WalkWords());
    const Result<const uint32_t*> served_row =
        MaterializeRow(store, overlay.get(), v, &served_scratch);
    ASSERT_TRUE(served_row.ok());
    const uint32_t* served = *served_row;
    bool vertex_patched = false;
    for (uint32_t r = 0; r < R; ++r) {
      uint32_t first = 0;
      uint32_t last = 0;
      for (uint32_t t = 1; t <= L; ++t) {
        const uint32_t from = base[r * row + t];
        const uint32_t to = served[r * row + t];
        if (from == to) continue;
        if (first == 0) first = t;
        last = t;
        DeltaOverlay::SlotDelta& slot = expected[r * L + (t - 1)];
        if (from != WalkStore::kDeadWalk) slot.removed.push_back({from, v});
        if (to != WalkStore::kDeadWalk) slot.added.push_back({to, v});
      }
      const DeltaOverlay::WalkPatch* patch = overlay->FindPatch(v, r);
      if (first == 0) {
        EXPECT_EQ(patch, nullptr)
            << "walk (" << v << ", " << r << ") equals the store";
        continue;
      }
      ASSERT_NE(patch, nullptr) << "walk (" << v << ", " << r << ")";
      ++patched_walks;
      vertex_patched = true;
      EXPECT_EQ(patch->t0, first) << "walk (" << v << ", " << r << ")";
      EXPECT_EQ(patch->suffix,
                std::vector<uint32_t>(served + r * row + first,
                                      served + r * row + last + 1))
          << "walk (" << v << ", " << r << ")";
    }
    patched_vertices += vertex_patched ? 1 : 0;
  }
  uint64_t changed_slots = 0;
  uint64_t delta_entries = 0;
  for (uint32_t r = 0; r < R; ++r) {
    for (uint32_t t = 1; t <= L; ++t) {
      DeltaOverlay::SlotDelta& want = expected[r * L + (t - 1)];
      std::sort(want.removed.begin(), want.removed.end());
      std::sort(want.added.begin(), want.added.end());
      const DeltaOverlay::SlotDelta* delta = overlay->Delta(r, t);
      if (want.removed.empty() && want.added.empty()) {
        EXPECT_EQ(delta, nullptr) << "slot (" << r << ", " << t << ")";
        continue;
      }
      ASSERT_NE(delta, nullptr) << "slot (" << r << ", " << t << ")";
      EXPECT_TRUE(delta->removed == want.removed)
          << "slot (" << r << ", " << t << ")";
      EXPECT_TRUE(delta->added == want.added)
          << "slot (" << r << ", " << t << ")";
      ++changed_slots;
      delta_entries += want.removed.size() + want.added.size();
    }
  }
  const IndexUpdateStats stats = updater.stats();
  EXPECT_EQ(stats.overlay_sequence, overlay->sequence());
  EXPECT_EQ(stats.patched_walks, patched_walks);
  EXPECT_EQ(stats.patched_vertices, patched_vertices);
  EXPECT_EQ(stats.changed_slots, changed_slots);
  EXPECT_EQ(stats.delta_entries, delta_entries);
}

/// Three batches, each one insert of an absent edge and one delete of a
/// present edge of `graph`, over six distinct edges: valid in any order,
/// so they can be submitted concurrently.
std::vector<std::vector<EdgeUpdate>> DisjointBatches(const DiGraph& graph,
                                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeUpdate> inserts;
  std::vector<EdgeUpdate> deletes;
  auto fresh = [&](VertexId src, VertexId dst) {
    for (const std::vector<EdgeUpdate>* list : {&inserts, &deletes}) {
      for (const EdgeUpdate& u : *list) {
        if (u.src == src && u.dst == dst) return false;
      }
    }
    return src != dst;
  };
  while (inserts.size() < 3 || deletes.size() < 3) {
    const auto src = static_cast<VertexId>(rng.NextUint64(graph.n()));
    const auto dst = static_cast<VertexId>(rng.NextUint64(graph.n()));
    if (!fresh(src, dst)) continue;
    if (graph.HasEdge(src, dst)) {
      if (deletes.size() < 3) {
        deletes.push_back({EdgeUpdate::Op::kDelete, src, dst});
      }
    } else if (inserts.size() < 3) {
      inserts.push_back({EdgeUpdate::Op::kInsert, src, dst});
    }
  }
  return {{inserts[0], deletes[0]},
          {inserts[1], deletes[1]},
          {inserts[2], deletes[2]}};
}

class CanonicalOverlayTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CanonicalOverlayTest, EveryPublishedOverlayIsCanonical) {
  const DiGraph graph = testing::RandomGraph(120, 480, 21);
  const WalkIndexOptions options = SmallOptions();
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();
  const std::string tag = std::to_string(GetParam());
  const std::string wal_path = TempPath("canonical-" + tag + ".wal");
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  updater_options.num_threads = GetParam();
  updater_options.group_commit_window_us = 20000;  // lets the group form
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();

  // Random batches, with a compaction between two of them: the rebased
  // overlay and the batches on top of it are canonical too.
  const std::vector<std::vector<EdgeUpdate>> stream =
      MakeStream(graph, /*seed=*/43, /*batches=*/8, /*edges=*/4);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE((*updater)->ApplyUpdates(stream[i]).ok());
    ExpectCanonicalOverlay(index, **updater);
    if (i == 3) {
      ASSERT_TRUE((*updater)
                      ->Compact(TempPath("canonical-" + tag + ".widx"), {})
                      .ok());
      ExpectCanonicalOverlay(index, **updater);
    }
  }

  // One group of three batches submitted at once: one publish for all.
  const std::vector<std::vector<EdgeUpdate>> group =
      DisjointBatches((*updater)->CurrentGraph(), /*seed=*/47);
  std::vector<std::thread> writers;
  for (const std::vector<EdgeUpdate>& batch : group) {
    writers.emplace_back([&updater, &batch] {
      EXPECT_TRUE((*updater)->ApplyUpdates(batch).ok());
    });
  }
  for (std::thread& writer : writers) writer.join();
  ExpectCanonicalOverlay(index, **updater);

  // Batches on top of the group, then the state still equals a rebuild.
  for (const auto& batch : MakeStream((*updater)->CurrentGraph(),
                                      /*seed=*/53, /*batches=*/3,
                                      /*edges=*/4)) {
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
    ExpectCanonicalOverlay(index, **updater);
  }
  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(rebuilt.ok());
  ExpectRowsBitwiseEqual(AllRows(index), AllRows(*rebuilt));
}

INSTANTIATE_TEST_SUITE_P(Threads, CanonicalOverlayTest,
                         ::testing::Values(1u, 3u));

struct BackendParam {
  bool compress;
  bool use_mmap;
};

class ParallelPatchBackendTest
    : public ::testing::TestWithParam<BackendParam> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, ParallelPatchBackendTest,
    ::testing::Values(BackendParam{false, false}, BackendParam{true, false},
                      BackendParam{false, true}, BackendParam{true, true}),
    [](const ::testing::TestParamInfo<BackendParam>& info) {
      return std::string(info.param.compress ? "Compressed" : "Raw") +
             (info.param.use_mmap ? "Mmap" : "InMemory");
    });

TEST_P(ParallelPatchBackendTest, AnyThreadCountIsBitwiseSerial) {
  const DiGraph graph = testing::RandomGraph(40, 160, 3);
  const WalkIndexOptions options = SmallOptions();
  const std::string tag =
      std::string(GetParam().compress ? "c" : "r") +
      (GetParam().use_mmap ? "m" : "i");
  const std::vector<std::vector<EdgeUpdate>> stream =
      MakeStream(graph, /*seed=*/31, /*batches=*/4, /*edges=*/6);

  // Shared base file: every replay loads the identical store.
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  const std::string base_path = TempPath("par-base-" + tag + ".widx");
  WalkIndex::SaveOptions save;
  save.compress = GetParam().compress;
  ASSERT_TRUE(built->Save(base_path, save).ok());

  std::vector<std::vector<double>> reference_rows;
  std::vector<uint8_t> reference_bytes;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    WalkIndex::LoadOptions load;
    load.use_mmap = GetParam().use_mmap;
    auto index = WalkIndex::Load(base_path, load);
    ASSERT_TRUE(index.ok());

    const std::string wal_path =
        TempPath("par-" + tag + std::to_string(threads) + ".wal");
    std::remove(wal_path.c_str());
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = wal_path;
    updater_options.num_threads = threads;
    auto updater = IndexUpdater::Open(*index, graph, updater_options);
    ASSERT_TRUE(updater.ok()) << updater.status().ToString();
    for (const auto& batch : stream) {
      ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
    }

    const std::vector<std::vector<double>> rows = AllRows(*index);
    const std::string compacted =
        TempPath("par-out-" + tag + std::to_string(threads) + ".widx");
    ASSERT_TRUE((*updater)->Compact(compacted, save).ok());
    std::vector<uint8_t> bytes = ReadFileBytes(compacted);
    std::remove(compacted.c_str());

    if (threads == 1) {
      // Serial ground truth: also a rebuild of the evolved graph.
      auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
      ASSERT_TRUE(rebuilt.ok());
      ExpectRowsBitwiseEqual(rows, AllRows(*rebuilt));
      reference_rows = rows;
      reference_bytes = std::move(bytes);
    } else {
      ExpectRowsBitwiseEqual(rows, reference_rows);
      ASSERT_EQ(bytes, reference_bytes)
          << threads << "-thread compacted file diverges from serial";
    }
  }
}

TEST(IncrementalGraphTest, MatchesRebuiltDiGraphUnderFuzz) {
  const DiGraph start = testing::RandomGraph(60, 240, 5);
  const WalkIndexOptions options = SmallOptions();
  auto built = WalkIndex::Build(start, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();

  const std::string wal_path = TempPath("incgraph.wal");
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  updater_options.num_threads = 2;
  auto updater = IndexUpdater::Open(index, start, updater_options);
  ASSERT_TRUE(updater.ok());

  const std::vector<std::vector<EdgeUpdate>> stream =
      MakeStream(start, /*seed=*/91, /*batches=*/24, /*edges=*/5);
  DiGraph expected = start;
  for (const auto& batch : stream) {
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
    auto next = ApplyEdgeUpdates(expected, batch);
    ASSERT_TRUE(next.ok());
    expected = std::move(*next);

    // The O(degree)-maintained adjacency equals the from-scratch graph:
    // same edges, same ids, same commutative fingerprint.
    const DiGraph current = (*updater)->CurrentGraph();
    ASSERT_EQ(current.n(), expected.n());
    ASSERT_EQ(current.m(), expected.m());
    ASSERT_EQ(current.Edges(), expected.Edges());
    EXPECT_EQ((*updater)->stats().current_graph_fingerprint,
              GraphFingerprint(expected));
  }

  // A rejected batch (duplicate insert) must leave graph and fingerprint
  // untouched — validation happens before any in-place mutation.
  const Edge existing = expected.Edges().front();
  const uint64_t fingerprint_before =
      (*updater)->stats().current_graph_fingerprint;
  EXPECT_FALSE(
      (*updater)
          ->ApplyUpdates(
              {{EdgeUpdate{EdgeUpdate::Op::kInsert, 0, 1},
                EdgeUpdate{EdgeUpdate::Op::kInsert, existing.src,
                           existing.dst}}})
          .ok());
  EXPECT_EQ((*updater)->stats().current_graph_fingerprint,
            fingerprint_before);
  EXPECT_EQ((*updater)->CurrentGraph().Edges(), expected.Edges());
}

TEST(AutoCompactionTest, BudgetTriggersBackgroundCompaction) {
  const DiGraph graph = testing::RandomGraph(40, 160, 7);
  const WalkIndexOptions options = SmallOptions();
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();

  const std::string wal_path = TempPath("autocompact.wal");
  const std::string compact_path = TempPath("autocompact.widx");
  const std::string graph_path = TempPath("autocompact.graph");
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  updater_options.num_threads = 2;
  // Any non-empty overlay exceeds one byte, so every publish trips the
  // trigger; the worker coalesces while one compaction runs.
  updater_options.overlay_budget_bytes = 1;
  updater_options.auto_compact_path = compact_path;
  updater_options.auto_compact_graph_path = graph_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();

  const std::vector<std::vector<EdgeUpdate>> stream =
      MakeStream(graph, /*seed=*/13, /*batches=*/6, /*edges=*/4);
  for (const auto& batch : stream) {
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
  }
  (*updater)->DrainBackgroundCompaction();

  const IndexUpdateStats stats = (*updater)->stats();
  EXPECT_GE(stats.auto_compactions, 1u);
  EXPECT_EQ(stats.auto_compact_failures, 0u);
  EXPECT_EQ(stats.compactions, stats.auto_compactions);
  EXPECT_GT(stats.last_compaction_micros, 0u);
  EXPECT_GE((*updater)->compaction_histogram().snapshot().count,
            stats.compactions);

  // Serving state survives the swaps bitwise: still exactly a rebuild of
  // the final graph, and the sequence kept counting (cached rows stay
  // coherent).
  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(rebuilt.ok());
  ExpectRowsBitwiseEqual(AllRows(index), AllRows(*rebuilt));
  EXPECT_EQ(index.overlay_sequence(), stream.size());

  // Updates keep applying after the swap — patches now express against
  // the merged store.
  const std::vector<std::vector<EdgeUpdate>> more =
      MakeStream((*updater)->CurrentGraph(), /*seed=*/14, /*batches=*/2,
                 /*edges=*/3);
  for (const auto& batch : more) {
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
  }
  (*updater)->DrainBackgroundCompaction();
  auto rebuilt_after = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(rebuilt_after.ok());
  ExpectRowsBitwiseEqual(AllRows(index), AllRows(*rebuilt_after));

  // The emitted (index, graph, WAL) triple restarts cleanly: the WAL was
  // re-seeded with only the batches the compacted file does not embody.
  const DiGraph final_graph = (*updater)->CurrentGraph();
  updater->reset();  // joins the background thread, releases the WAL
  auto compacted_graph = ReadBinary(graph_path);
  ASSERT_TRUE(compacted_graph.ok());
  auto reloaded = WalkIndex::Load(compact_path, {});
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  IndexUpdaterOptions restart_options;
  restart_options.wal_path = wal_path;
  auto restarted = IndexUpdater::Open(*reloaded, std::move(*compacted_graph),
                                      restart_options);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ((*restarted)->CurrentGraph().Edges(), final_graph.Edges());
  auto rebuilt_final = WalkIndex::Build(final_graph, options);
  ASSERT_TRUE(rebuilt_final.ok());
  ExpectRowsBitwiseEqual(AllRows(*reloaded), AllRows(*rebuilt_final));
}

TEST(AutoCompactionTest, PatchedFractionHeuristicTriggers) {
  const DiGraph graph = testing::RandomGraph(30, 120, 11);
  const WalkIndexOptions options = SmallOptions();
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();

  const std::string wal_path = TempPath("autofrac.wal");
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  // No byte budget; any patched walk exceeds this fraction of n·R.
  updater_options.auto_compact_patched_fraction = 1e-9;
  updater_options.auto_compact_path = TempPath("autofrac.widx");
  // No graph path: the WAL must be left whole.
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();

  const std::vector<std::vector<EdgeUpdate>> stream =
      MakeStream(graph, /*seed=*/17, /*batches=*/3, /*edges=*/3);
  for (const auto& batch : stream) {
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
  }
  (*updater)->DrainBackgroundCompaction();
  const IndexUpdateStats stats = (*updater)->stats();
  EXPECT_GE(stats.auto_compactions, 1u);
  EXPECT_EQ(stats.auto_compact_failures, 0u);
  // WAL untouched: every accepted batch still recorded.
  EXPECT_EQ(stats.wal_records, stream.size());

  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(rebuilt.ok());
  ExpectRowsBitwiseEqual(AllRows(index), AllRows(*rebuilt));
}

TEST(AutoCompactionTest, ArmingRequiresAPath) {
  const DiGraph graph = testing::PaperExampleGraph();
  const WalkIndexOptions options = SmallOptions();
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = TempPath("autoarm.wal");
  updater_options.overlay_budget_bytes = 1024;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  EXPECT_FALSE(updater.ok());
}

// The TSan target of this suite: updates, point + row queries, manual
// compactions and budget-armed background compactions all concurrently.
TEST(ConcurrentUpdateTest, UpdatesQueriesAndCompactionsRace) {
  const DiGraph graph = testing::RandomGraph(30, 120, 19);
  WalkIndexOptions options = SmallOptions();
  options.num_fingerprints = 24;
  auto built = WalkIndex::Build(graph, options);
  ASSERT_TRUE(built.ok());
  WalkIndex index = std::move(built).value();

  const std::string wal_path = TempPath("race.wal");
  const std::string compact_path = TempPath("race.widx");
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  updater_options.sync_wal = false;
  updater_options.num_threads = 2;
  updater_options.overlay_budget_bytes = 1;
  updater_options.auto_compact_path = compact_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();

  const std::vector<std::vector<EdgeUpdate>> stream =
      MakeStream(graph, /*seed=*/23, /*batches=*/12, /*edges=*/3);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (uint32_t reader = 0; reader < 2; ++reader) {
    readers.emplace_back([&index, &done, reader] {
      Rng rng(100 + reader);
      while (!done.load(std::memory_order_acquire)) {
        const auto a = static_cast<VertexId>(rng.NextUint64(index.n()));
        const auto b = static_cast<VertexId>(rng.NextUint64(index.n()));
        volatile double pair = index.EstimatePair(a, b);
        (void)pair;
        volatile double row = index.EstimateSingleSource(a)[b];
        (void)row;
      }
    });
  }
  std::thread compactor([&updater, &compact_path] {
    WalkIndex::SaveOptions save;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE((*updater)->Compact(compact_path, save).ok());
    }
  });
  for (const auto& batch : stream) {
    ASSERT_TRUE((*updater)->ApplyUpdates(batch).ok());
  }
  compactor.join();
  (*updater)->DrainBackgroundCompaction();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
  ASSERT_TRUE(rebuilt.ok());
  ExpectRowsBitwiseEqual(AllRows(index), AllRows(*rebuilt));
}

}  // namespace
}  // namespace simrank
