#include "simrank/index/query_engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>

#include "simrank/core/naive.h"
#include "simrank/extra/topk.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/lru_cache.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

WalkIndex BuildIndex(const DiGraph& graph, uint32_t fingerprints = 256) {
  WalkIndexOptions options;
  options.num_fingerprints = fingerprints;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());
  return std::move(index).value();
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsedPerShard) {
  ShardedLruCache<int, int> cache(/*num_shards=*/1,
                                  /*capacity_per_shard=*/2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_TRUE(cache.Get(1).has_value());  // refresh 1; 2 becomes LRU
  cache.Put(3, 30);                       // evicts 2
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCacheTest, PutRefreshesExistingKey) {
  ShardedLruCache<int, int> cache(2, 4);
  cache.Put(7, 1);
  cache.Put(7, 2);
  auto hit = cache.Get(7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 2);
}

TEST(QueryEngineTest, PairMatchesIndexEstimate) {
  DiGraph graph = testing::RandomGraph(30, 120, 5);
  WalkIndex index = BuildIndex(graph, 64);
  QueryEngine engine(index);
  for (VertexId a = 0; a < graph.n(); a += 3) {
    for (VertexId b = 0; b < graph.n(); b += 4) {
      auto score = engine.Pair(a, b);
      ASSERT_TRUE(score.ok());
      EXPECT_DOUBLE_EQ(*score, index.EstimatePair(a, b));
    }
  }
}

TEST(QueryEngineTest, SingleSourceIsCachedAndStable) {
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildIndex(graph, 64);
  QueryEngine engine(index);
  auto first = engine.SingleSource(3);
  ASSERT_TRUE(first.ok());
  auto second = engine.SingleSource(3);
  ASSERT_TRUE(second.ok());
  // Hit returns the identical cached row object.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_GE(engine.cache_stats().hits, 1u);
  for (VertexId b = 0; b < graph.n(); ++b) {
    EXPECT_DOUBLE_EQ((**first)[b], index.EstimatePair(3, b));
  }
}

TEST(QueryEngineTest, PairIsServedFromCachedRow) {
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildIndex(graph, 64);
  QueryEngine engine(index);
  ASSERT_TRUE(engine.SingleSource(2).ok());
  const auto misses_before = engine.cache_stats().misses;
  const auto hits_before = engine.cache_stats().hits;
  auto score = engine.Pair(2, 5);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(*score, index.EstimatePair(2, 5));
  EXPECT_EQ(engine.cache_stats().hits, hits_before + 1);
  EXPECT_EQ(engine.cache_stats().misses, misses_before);
}

TEST(QueryEngineTest, TopKMatchesNaiveTopKOnPaperFixture) {
  // Acceptance criterion: the indexed top-5 for each vertex reproduces the
  // exact (naive) top-5 ordering within estimator tolerance. With 8192
  // fingerprints and the fixed seed this is deterministic.
  DiGraph graph = testing::PaperExampleGraph();
  SimRankOptions exact_options;
  exact_options.damping = 0.6;
  exact_options.iterations = 16;
  auto exact = NaiveSimRank(graph, exact_options);
  ASSERT_TRUE(exact.ok());

  WalkIndexOptions options;
  options.num_fingerprints = 8192;
  options.walk_length = 14;
  auto index = WalkIndex::Build(graph, options);
  ASSERT_TRUE(index.ok());
  QueryEngine engine(*index);

  constexpr uint32_t kK = 5;
  for (VertexId v = 0; v < graph.n(); ++v) {
    auto approx = engine.TopK(v, kK);
    ASSERT_TRUE(approx.ok());
    auto truth = TopKSimilar(*exact, v, kK);
    ASSERT_EQ(approx->size(), truth.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      // Adjacent ranks separated by more than the estimator error must
      // appear in the exact order; estimated scores must track the exact
      // ones closely.
      EXPECT_NEAR((*approx)[i].score, truth[i].score, 0.05)
          << "query " << v << " rank " << i;
    }
    // The sets of returned ids must coincide whenever the k-th score is
    // separated from the (k+1)-th; on this fixture it always is, so demand
    // identical ordering outright.
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ((*approx)[i].vertex, truth[i].vertex)
          << "query " << v << " rank " << i;
    }
  }
}

TEST(QueryEngineTest, BatchMatchesSequentialQueries) {
  DiGraph graph = testing::RandomGraph(25, 100, 9);
  WalkIndex index = BuildIndex(graph, 64);
  QueryEngineOptions options;
  options.num_threads = 4;
  QueryEngine engine(index, options);

  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId a = 0; a < graph.n(); ++a) {
    pairs.emplace_back(a, (a * 7 + 3) % graph.n());
  }
  auto batch = engine.BatchPair(pairs);
  ASSERT_EQ(batch.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    EXPECT_DOUBLE_EQ(*batch[i],
                     index.EstimatePair(pairs[i].first, pairs[i].second));
  }

  std::vector<VertexId> sources = {0, 5, 10, 15, 20, 5, 0};
  auto batch_topk = engine.BatchTopK(sources, 4);
  ASSERT_EQ(batch_topk.size(), sources.size());
  QueryEngine sequential(index);
  for (size_t i = 0; i < sources.size(); ++i) {
    ASSERT_TRUE(batch_topk[i].ok());
    auto expected = sequential.TopK(sources[i], 4);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*batch_topk[i], *expected) << "source " << sources[i];
  }
}

TEST(QueryEngineTest, OutOfRangeQueriesReturnErrors) {
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildIndex(graph, 16);
  QueryEngine engine(index);
  EXPECT_EQ(engine.Pair(0, 99).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.Pair(99, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(engine.SingleSource(graph.n()).ok());
  EXPECT_FALSE(engine.TopK(graph.n(), 3).ok());
  auto batch = engine.BatchPair({{0, 1}, {0, 99}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_FALSE(batch[1].ok());
}

TEST(QueryEngineTest, MmapBackedEngineAnswersIdentically) {
  // The engine must serve bit-identical answers whether the index is fully
  // resident or mmap-backed (the estimators are shared; mmap decodes each
  // walk row instead of reading it in place).
  DiGraph graph = testing::RandomGraph(30, 120, 5);
  WalkIndex index = BuildIndex(graph, 64);
  const std::string path = ::testing::TempDir() + "/qe_mmap.widx";
  WalkIndex::SaveOptions save;
  save.compress = true;
  ASSERT_TRUE(index.Save(path, save).ok());
  WalkIndex::LoadOptions load;
  load.use_mmap = true;
  auto mapped = WalkIndex::Load(path, load);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_STREQ(mapped->store().backend_name(), "mmap");

  QueryEngine resident_engine(index);
  QueryEngine mapped_engine(*mapped);
  for (VertexId v = 0; v < graph.n(); v += 3) {
    auto expected = resident_engine.TopK(v, 5);
    auto actual = mapped_engine.TopK(v, 5);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(*actual, *expected) << "source " << v;
  }
  for (VertexId a = 0; a < graph.n(); a += 4) {
    for (VertexId b = 0; b < graph.n(); b += 5) {
      auto expected = resident_engine.Pair(a, b);
      auto actual = mapped_engine.Pair(a, b);
      ASSERT_TRUE(expected.ok() && actual.ok());
      EXPECT_DOUBLE_EQ(*actual, *expected)
          << "pair (" << a << "," << b << ")";
    }
  }
}

TEST(QueryEngineTest, CacheEvictsUnderPressure) {
  DiGraph graph = testing::RandomGraph(40, 160, 3);
  WalkIndex index = BuildIndex(graph, 16);
  QueryEngineOptions options;
  options.cache_shards = 1;
  options.cache_capacity_per_shard = 2;
  QueryEngine engine(index, options);
  for (VertexId v = 0; v < 10; ++v) {
    ASSERT_TRUE(engine.SingleSource(v).ok());
  }
  EXPECT_GT(engine.cache_stats().evictions, 0u);
}

TEST(ShardedLruCacheTest, JudgedGetCountsOnlyServedValuesAsHits) {
  ShardedLruCache<int, int> cache(2, 4);
  cache.Put(1, 10);
  cache.Put(2, 20);
  // kServe may rewrite the value in place; the rewrite sticks.
  auto served = cache.Get(1, [](int& value) {
    value += 1;
    return CacheVerdict::kServe;
  });
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, 11);
  EXPECT_EQ(cache.stats().hits, 1u);
  // kKeep is a miss that leaves the value resident.
  EXPECT_FALSE(
      cache.Get(2, [](int&) { return CacheVerdict::kKeep; }).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 2u);
  // kDrop is a miss that erases it.
  EXPECT_FALSE(
      cache.Get(2, [](int&) { return CacheVerdict::kDrop; }).has_value());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1), std::optional<int>(11));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ShardedLruCacheTest, ClearDropsEverythingKeepsCounters) {
  ShardedLruCache<int, int> cache(4, 2);
  for (int i = 0; i < 8; ++i) cache.Put(i, i);
  ASSERT_TRUE(cache.Get(7).has_value());
  const auto before = cache.stats();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(7).has_value());
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  // Reusable after the clear.
  cache.Put(1, 11);
  ASSERT_TRUE(cache.Get(1).has_value());
}

TEST(QueryEngineTest, StaleRowsReadAsMissesAfterOverlayPublish) {
  // The engine stamps cached rows with the overlay sequence; an update
  // makes every older row unservable even before any explicit
  // invalidation — the window between overlay swap and cache flush can
  // never serve a pre-update row.
  DiGraph graph = testing::RandomGraph(30, 120, 5);
  WalkIndex index = BuildIndex(graph, 32);
  QueryEngine engine(index);
  // Pick an absent edge whose insertion we will serve through.
  Edge fresh{0, 0};
  for (VertexId dst = 1; dst < graph.n(); ++dst) {
    if (!graph.HasEdge(0, dst)) {
      fresh = Edge{0, dst};
      break;
    }
  }
  ASSERT_NE(fresh.dst, 0u);
  // Cache the touched vertex's row pre-update.
  ASSERT_TRUE(engine.SingleSource(fresh.dst).ok());

  const std::string wal_path =
      ::testing::TempDir() + "query-engine-stale.wal";
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());
  ASSERT_TRUE((*updater)
                  ->ApplyUpdates({{{EdgeUpdate::Op::kInsert, fresh.src,
                                    fresh.dst}}})
                  .ok());

  // Deliberately NO InvalidateCache(): the stale stamp alone must force a
  // recompute that matches a rebuilt index bitwise.
  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(),
                                  index.options());
  ASSERT_TRUE(rebuilt.ok());
  auto served = engine.SingleSource(fresh.dst);
  ASSERT_TRUE(served.ok());
  const std::vector<double> expected =
      rebuilt->EstimateSingleSource(fresh.dst);
  ASSERT_EQ((*served)->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ((**served)[i], expected[i]) << "entry " << i;
  }
  // Pair served off cached rows obeys the same staleness rule.
  auto pair = engine.Pair(fresh.dst, fresh.src);
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(*pair, rebuilt->EstimatePair(fresh.dst, fresh.src));
}

TEST(QueryEngineTest, StaleResidentRowCountsAMissNotAHit) {
  // A hit is a row served from the cache. A resident row that a batch
  // changed is recomputed instead, so it must count as a miss.
  DiGraph graph = testing::RandomGraph(30, 120, 5);
  WalkIndex index = BuildIndex(graph, 32);
  QueryEngine engine(index);
  VertexId src = 0;
  const VertexId v = 4;
  while (src == v || graph.HasEdge(src, v)) ++src;
  ASSERT_TRUE(engine.SingleSource(v).ok());

  const std::string wal_path =
      ::testing::TempDir() + "query-engine-stale-count.wal";
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());
  const std::vector<double> before = index.EstimateSingleSource(v);
  // The batch changes v's in-list, and with it v's row.
  ASSERT_TRUE(
      (*updater)->ApplyUpdates({{{EdgeUpdate::Op::kInsert, src, v}}}).ok());
  ASSERT_NE(index.EstimateSingleSource(v), before);

  // Deliberately no InvalidateCache(): the row is still resident.
  const auto stats = engine.cache_stats();
  ASSERT_TRUE(engine.SingleSource(v).ok());
  EXPECT_EQ(engine.cache_stats().hits, stats.hits);
  EXPECT_EQ(engine.cache_stats().misses, stats.misses + 1);
}

TEST(QueryEngineTest, PairFromCacheNeverComputesAndCountsLikePair) {
  DiGraph graph = testing::RandomGraph(30, 120, 7);
  WalkIndex index = BuildIndex(graph, 32);
  QueryEngine engine(index);
  QueryEngine reference(index);
  // Nothing resident: a miss, and nothing counted — the Pair call that
  // answers instead counts its own lookups.
  EXPECT_FALSE(engine.PairFromCache(3, 7).has_value());
  EXPECT_FALSE(engine.PairFromCache(3, 999).has_value());
  EXPECT_EQ(engine.cache_stats().hits + engine.cache_stats().misses, 0u);

  // With row 7 resident in both engines, every pair touching 7 is a hit,
  // bitwise Pair's answer, with Pair's accounting (a's lookup first).
  ASSERT_TRUE(engine.SingleSource(7).ok());
  ASSERT_TRUE(reference.SingleSource(7).ok());
  const std::pair<VertexId, VertexId> pairs[] = {
      {7, 3}, {3, 7}, {7, 7}, {12, 7}};
  for (const auto& [a, b] : pairs) {
    const std::optional<double> cached = engine.PairFromCache(a, b);
    ASSERT_TRUE(cached.has_value()) << a << "," << b;
    auto direct = reference.Pair(a, b);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(std::memcmp(&*cached, &*direct, sizeof(double)), 0)
        << a << "," << b;
  }
  EXPECT_EQ(engine.cache_stats().hits, reference.cache_stats().hits);
  EXPECT_EQ(engine.cache_stats().misses, reference.cache_stats().misses);

  // An update stales row 7: the probe misses rather than serve it.
  const std::string wal_path =
      ::testing::TempDir() + "query-engine-probe.wal";
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());
  VertexId src = 0;
  while (src == 7 || graph.HasEdge(src, 7)) ++src;
  ASSERT_TRUE(
      (*updater)->ApplyUpdates({{{EdgeUpdate::Op::kInsert, src, 7}}}).ok());
  EXPECT_FALSE(engine.PairFromCache(7, 3).has_value());
  EXPECT_FALSE(engine.PairFromCache(3, 7).has_value());
}

TEST(QueryEngineTest, SequenceStaysMonotoneAcrossCancellingBatches) {
  // A batch that cancels every patch out must not reset the overlay
  // sequence: a row cached at sequence 1 would otherwise read as fresh
  // once a later batch re-used sequence 1.
  DiGraph graph = testing::RandomGraph(30, 120, 6);
  WalkIndex index = BuildIndex(graph, 32);
  QueryEngine engine(index);
  std::vector<Edge> fresh;
  for (VertexId src = 0; src < graph.n() && fresh.size() < 2; ++src) {
    for (VertexId dst = 0; dst < graph.n() && fresh.size() < 2; ++dst) {
      if (src != dst && !graph.HasEdge(src, dst)) {
        fresh.push_back(Edge{src, dst});
      }
    }
  }
  ASSERT_EQ(fresh.size(), 2u);

  const std::string wal_path =
      ::testing::TempDir() + "query-engine-monotone.wal";
  std::remove(wal_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  auto updater = IndexUpdater::Open(index, graph, updater_options);
  ASSERT_TRUE(updater.ok());

  // Sequence 1: insert e; cache a row under it.
  ASSERT_TRUE((*updater)
                  ->ApplyUpdates({{{EdgeUpdate::Op::kInsert, fresh[0].src,
                                    fresh[0].dst}}})
                  .ok());
  ASSERT_TRUE(engine.SingleSource(fresh[1].dst).ok());
  // Sequence 2: delete e — patches cancel, overlay is empty but live.
  ASSERT_TRUE((*updater)
                  ->ApplyUpdates({{{EdgeUpdate::Op::kDelete, fresh[0].src,
                                    fresh[0].dst}}})
                  .ok());
  EXPECT_EQ(index.overlay_sequence(), 2u);
  // Sequence 3: insert f; the sequence-1 row must not be served.
  ASSERT_TRUE((*updater)
                  ->ApplyUpdates({{{EdgeUpdate::Op::kInsert, fresh[1].src,
                                    fresh[1].dst}}})
                  .ok());
  EXPECT_EQ(index.overlay_sequence(), 3u);
  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(),
                                  index.options());
  ASSERT_TRUE(rebuilt.ok());
  auto served = engine.SingleSource(fresh[1].dst);
  ASSERT_TRUE(served.ok());
  const std::vector<double> expected =
      rebuilt->EstimateSingleSource(fresh[1].dst);
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ((**served)[i], expected[i]) << "entry " << i;
  }
}


}  // namespace
}  // namespace simrank
