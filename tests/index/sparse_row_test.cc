// Sparse single-source rows against the dense oracle. For every vertex of
// small graphs, the estimator's sparse row, its dense form, the engine's
// pair lookups and its top-k lists must be bitwise what the full row scan
// (EstimateSingleSourceScan) and TopKFromRow give — a path that shares no
// code with the sparse one. Covered: the in-memory and mmap stores (raw
// and compressed), an overlay with patches, vertices whose walks die at
// once, tied scores, k above the row's nonzeros and k >= n, 1 and 3
// engine threads, and the scalar and default SIMD tiers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "simrank/common/simd.h"
#include "simrank/extra/topk.h"
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

WalkIndex LoadIndex(const std::string& path, bool use_mmap) {
  WalkIndex::LoadOptions load;
  load.use_mmap = use_mmap;
  auto index = WalkIndex::Load(path, load);
  OIPSIM_CHECK(index.ok());
  return std::move(index).value();
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "sparse-row-" + name;
  std::remove(path.c_str());
  return path;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(const std::vector<ScoredVertex>& a,
              const std::vector<ScoredVertex>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertex != b[i].vertex || !SameBits(a[i].score, b[i].score)) {
      return false;
    }
  }
  return true;
}

/// Forces SIMRANK_SIMD_LEVEL for a scope (nullptr: the default tier).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(const char* level) {
    if (level != nullptr) setenv("SIMRANK_SIMD_LEVEL", level, 1);
    ReloadSimdLevelFromEnv();
  }
  ~ScopedSimdLevel() {
    unsetenv("SIMRANK_SIMD_LEVEL");
    ReloadSimdLevelFromEnv();
  }
};

/// What one check saw, so the callers can assert their case was covered.
struct Coverage {
  uint32_t dead_rows = 0;       // rows listing only the query vertex
  uint32_t tied_rows = 0;       // rows with two equal nonzero scores
  uint32_t zero_filled = 0;     // top-k lists that ran into zero scores
};

/// Checks every vertex of `index`, as it serves now, against the scan;
/// counts what it saw into `coverage`.
void ExpectMatchesScan(const WalkIndex& index, uint32_t threads,
                       Coverage* coverage) {
  const uint32_t n = index.n();
  const WalkIndex::Snapshot at = index.snapshot();
  QueryEngineOptions options;
  options.num_threads = threads;
  QueryEngine engine(index, options);
  std::vector<VertexId> all(n);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<uint32_t> ks = {0, 1, 3, n - 1, n, n + 5, UINT32_MAX};
  std::vector<std::vector<Result<std::vector<ScoredVertex>>>> batches;
  for (const uint32_t k : ks) batches.push_back(engine.BatchTopK(all, k));

  for (VertexId v = 0; v < n; ++v) {
    SCOPED_TRACE(::testing::Message() << "vertex " << v);
    const std::vector<double> scan = index.EstimateSingleSourceScan(v);
    const SparseRow sparse =
        index.EstimateSingleSourceSparse(v, *at.store, at.overlay.get());
    ASSERT_EQ(sparse.n, n);
    // Ascending, positive, v listed at 1.0, and exactly the nonzeros.
    uint32_t nonzeros = 0;
    for (const double score : scan) nonzeros += score != 0.0 ? 1 : 0;
    ASSERT_EQ(sparse.entries.size(), nonzeros);
    for (size_t i = 0; i < sparse.entries.size(); ++i) {
      EXPECT_GT(sparse.entries[i].score, 0.0);
      if (i > 0) {
        EXPECT_LT(sparse.entries[i - 1].vertex, sparse.entries[i].vertex);
      }
    }
    EXPECT_EQ(sparse.Score(v), 1.0);
    ASSERT_TRUE(SameBits(sparse.Dense(), scan));
    ASSERT_TRUE(SameBits(index.EstimateSingleSource(v), scan));
    if (sparse.entries.size() == 1) ++coverage->dead_rows;
    for (size_t i = 0; i < sparse.entries.size(); ++i) {
      for (size_t j = i + 1; j < sparse.entries.size(); ++j) {
        if (sparse.entries[i].vertex != v && sparse.entries[j].vertex != v &&
            sparse.entries[i].score == sparse.entries[j].score) {
          ++coverage->tied_rows;
          i = j = sparse.entries.size();
        }
      }
    }

    for (size_t q = 0; q < ks.size(); ++q) {
      const uint32_t k = ks[q];
      SCOPED_TRACE(::testing::Message() << "k " << k);
      const std::vector<ScoredVertex> expected = TopKFromRow(scan, v, k);
      auto top = engine.TopK(v, k);
      ASSERT_TRUE(top.ok());
      EXPECT_TRUE(SameBits(*top, expected));
      ASSERT_TRUE(batches[q][v].ok());
      EXPECT_TRUE(SameBits(*batches[q][v], expected));
      EXPECT_TRUE(SameBits(TopKFromSparseRow(sparse, v, k), expected));
      if (k >= nonzeros && n > nonzeros) ++coverage->zero_filled;
      // The loop's bounded answer: exactly TopK, or nothing when it would
      // need the zero fill.
      const auto cached = engine.TopKFromCache(v, k);
      if (k < nonzeros) {
        ASSERT_TRUE(cached.has_value());
        EXPECT_TRUE(SameBits(*cached, expected));
      } else {
        EXPECT_FALSE(cached.has_value());
      }
    }
    // With v's row cached, every pair with v is a lookup in it.
    for (VertexId b = 0; b < n; ++b) {
      const std::optional<double> pair = engine.PairFromCache(v, b);
      ASSERT_TRUE(pair.has_value());
      EXPECT_TRUE(SameBits(*pair, scan[b])) << "pair " << v << "," << b;
    }
  }
}

struct Case {
  const char* tier;  // nullptr: the default tier
  uint32_t threads;
};

class SparseRowTest : public ::testing::TestWithParam<Case> {
 protected:
  SparseRowTest() : simd_(GetParam().tier) {}

  ScopedSimdLevel simd_;
};

TEST_P(SparseRowTest, EveryStoreMatchesTheScan) {
  // Sparse enough that some vertices have no in-neighbours (their walks
  // die at step 1) and few fingerprints, so equal scores are common.
  const DiGraph graph = testing::RandomGraph(48, 90, 5);
  uint32_t sources = 0;
  for (VertexId v = 0; v < graph.n(); ++v) {
    sources += graph.InNeighbors(v).empty() ? 1 : 0;
  }
  ASSERT_GT(sources, 0u);
  const WalkIndex built = BuildIndex(graph, 8, 6);
  const std::string raw = TempPath("raw.widx");
  const std::string packed = TempPath("packed.widx");
  ASSERT_TRUE(built.Save(raw).ok());
  ASSERT_TRUE(built.Save(packed, {.compress = true}).ok());

  Coverage coverage;
  ExpectMatchesScan(built, GetParam().threads, &coverage);
  EXPECT_GT(coverage.dead_rows, 0u);
  EXPECT_GT(coverage.tied_rows, 0u);
  EXPECT_GT(coverage.zero_filled, 0u);
  ExpectMatchesScan(LoadIndex(raw, false), GetParam().threads, &coverage);
  ExpectMatchesScan(LoadIndex(raw, true), GetParam().threads, &coverage);
  ExpectMatchesScan(LoadIndex(packed, true), GetParam().threads, &coverage);
}

TEST_P(SparseRowTest, OverlayWithPatchesMatchesTheScan) {
  const DiGraph graph = testing::PaperExampleGraph();
  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "in-memory");
    const std::string path = TempPath("overlay.widx");
    ASSERT_TRUE(BuildIndex(graph, 16, 5).Save(path).ok());
    WalkIndex index = LoadIndex(path, use_mmap);
    IndexUpdaterOptions options;
    options.wal_path = TempPath("overlay.wal");
    options.sync_wal = false;
    auto updater = IndexUpdater::Open(index, graph, options);
    ASSERT_TRUE(updater.ok());
    // f, g and i have no in-neighbours: give f one, and take one of b's.
    ASSERT_TRUE((*updater)
                    ->ApplyUpdates({{{EdgeUpdate::Op::kInsert,
                                      testing::kA, testing::kF},
                                     {EdgeUpdate::Op::kDelete, testing::kE,
                                      testing::kB}}})
                    .ok());
    ASSERT_GT((*updater)->stats().patched_walks, 0u);
    Coverage coverage;
    ExpectMatchesScan(index, GetParam().threads, &coverage);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndThreads, SparseRowTest,
    ::testing::Values(Case{"scalar", 1}, Case{"scalar", 3}, Case{nullptr, 1},
                      Case{nullptr, 3}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.tier == nullptr ? "default" : "scalar") +
             "_" + std::to_string(info.param.threads) + "threads";
    });

TEST(SparseRowTopKTest, SelectionMatchesTheDenseRow) {
  // The query listed or not, ties and zero fill.
  SparseRow row;
  row.n = 12;
  row.entries = {{1, 0.25}, {3, 0.5}, {4, 1.0}, {6, 0.25}, {9, 0.5}};
  const std::vector<double> dense = row.Dense();
  for (const VertexId query : {4u, 5u, 9u}) {
    for (const uint32_t k : {0u, 1u, 2u, 5u, 12u, UINT32_MAX}) {
      EXPECT_TRUE(SameBits(TopKFromSparseRow(row, query, k),
                           TopKFromRow(dense, query, k)))
          << "query " << query << " k " << k;
    }
  }
}

}  // namespace
}  // namespace simrank
