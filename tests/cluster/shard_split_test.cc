// WriteShardIndex: byte-determinism and the bitwise-slice property the
// scatter-gather merge rests on.
#include "simrank/cluster/shard_split.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simrank/cluster/shard_plan.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/walk_index.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
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
}

/// Vertex `v`'s walk row in `index`'s store, as its owning shard ships it.
std::vector<uint32_t> WalkRow(const WalkIndex& index, VertexId v) {
  std::vector<uint32_t> scratch;
  const Result<const uint32_t*> row = index.store().Row(v, &scratch);
  OIPSIM_CHECK(row.ok());
  return {*row, *row + index.store().WalkWords()};
}

WalkIndex BuildSmallIndex(const DiGraph& graph) {
  WalkIndexOptions options;
  options.num_fingerprints = 48;
  options.walk_length = 8;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());
  return std::move(index).value();
}

TEST(ShardSplitTest, OutputBytesAreDeterministic) {
  const DiGraph graph = testing::RandomGraph(40, 160, 5);
  const WalkIndex index = BuildSmallIndex(graph);
  const ShardRange range{0, 10, 25};
  const std::string a = TempPath("split-det-a.widx");
  const std::string b = TempPath("split-det-b.widx");
  const std::string full = TempPath("split-det-full.widx");
  for (const bool compress : {false, true}) {
    ASSERT_TRUE(WriteShardIndex(index.store(), range, a, compress).ok());
    ASSERT_TRUE(WriteShardIndex(index.store(), range, b, compress).ok());
    const std::string expected = ReadFileBytes(a);
    EXPECT_EQ(ReadFileBytes(b), expected) << "compress=" << compress;
    // Splitting a loaded index, through either backend, writes the same
    // bytes as splitting the built one.
    WalkIndex::SaveOptions save;
    save.compress = compress;
    ASSERT_TRUE(index.Save(full, save).ok());
    for (const bool use_mmap : {false, true}) {
      WalkIndex::LoadOptions load;
      load.use_mmap = use_mmap;
      auto loaded = WalkIndex::Load(full, load);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_TRUE(WriteShardIndex(loaded->store(), range, b, compress).ok());
      EXPECT_EQ(ReadFileBytes(b), expected)
          << "compress=" << compress << " mmap=" << use_mmap;
    }
  }
}

TEST(ShardSplitTest, ShardIndexOpensWithGlobalMeta) {
  const DiGraph graph = testing::RandomGraph(40, 160, 5);
  const WalkIndex index = BuildSmallIndex(graph);
  const ShardRange range{1, 20, 40};
  const std::string path = TempPath("split-meta.widx");
  ASSERT_TRUE(WriteShardIndex(index.store(), range, path, false).ok());
  auto shard = WalkIndex::Load(path);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  // Global vertex count and the base graph's fingerprint: existing tools
  // (and a WAL bound to the full index) open the shard file unchanged.
  EXPECT_EQ(shard->n(), index.n());
  EXPECT_EQ(shard->graph_fingerprint(), index.graph_fingerprint());
  EXPECT_EQ(shard->options().num_fingerprints,
            index.options().num_fingerprints);
  EXPECT_EQ(shard->options().walk_length, index.options().walk_length);
  EXPECT_TRUE(shard->ValidateGraph(graph).ok());
}

TEST(ShardSplitTest, SingleSourceSliceIsBitwiseEqualToFullIndex) {
  const DiGraph graph = testing::OverlappyGraph(60, 4, 9);
  const WalkIndex index = BuildSmallIndex(graph);
  auto plan = ShardPlan::EvenSplit(index.n(), index.graph_fingerprint(), 3);
  ASSERT_TRUE(plan.ok());

  std::vector<WalkIndex> shards;
  for (const ShardRange& range : plan->shards) {
    const std::string path =
        TempPath(StrFormat("split-slice-%u.widx", range.shard_id));
    ASSERT_TRUE(WriteShardIndex(index.store(), range, path, false).ok());
    auto shard = WalkIndex::Load(path);
    ASSERT_TRUE(shard.ok());
    shards.push_back(std::move(shard).value());
  }

  for (VertexId v = 0; v < index.n(); v += 7) {
    const std::vector<double> full = index.EstimateSingleSource(v);
    // The owner ships v's materialized row; every shard scores its own
    // range from it. Concatenating the slices reproduces the full row.
    const uint32_t owner = plan->OwnerOf(v);
    const std::vector<uint32_t> row = WalkRow(shards[owner], v);
    std::vector<double> stitched(index.n(), 0.0);
    for (size_t s = 0; s < shards.size(); ++s) {
      const ShardRange& range = plan->shards[s];
      const std::vector<double> partial =
          shards[s].EstimateSingleSourceWithRow(v, row, nullptr);
      ASSERT_EQ(partial.size(), full.size());
      std::memcpy(stitched.data() + range.begin, partial.data() + range.begin,
                  (range.end - range.begin) * sizeof(double));
    }
    ASSERT_EQ(std::memcmp(stitched.data(), full.data(),
                          full.size() * sizeof(double)),
              0)
        << "stitched row of " << v << " diverges from the full index";
  }
}

TEST(ShardSplitTest, InRangePairIsBitwiseEqualToFullIndex) {
  const DiGraph graph = testing::RandomGraph(50, 220, 21);
  const WalkIndex index = BuildSmallIndex(graph);
  const ShardRange range{0, 0, 25};
  const std::string path = TempPath("split-pair.widx");
  ASSERT_TRUE(WriteShardIndex(index.store(), range, path, false).ok());
  auto shard = WalkIndex::Load(path);
  ASSERT_TRUE(shard.ok());
  for (VertexId a = range.begin; a < range.end; a += 3) {
    for (VertexId b = range.begin; b < range.end; b += 5) {
      const double local = shard->EstimatePair(a, b);
      const double full = index.EstimatePair(a, b);
      EXPECT_EQ(std::memcmp(&local, &full, sizeof(double)), 0)
          << "pair (" << a << ", " << b << ")";
    }
  }
}

TEST(ShardSplitTest, CrossShardPairViaRowExchangeIsBitwise) {
  const DiGraph graph = testing::RandomGraph(50, 220, 21);
  const WalkIndex index = BuildSmallIndex(graph);
  const ShardRange left{0, 0, 25};
  const ShardRange right{1, 25, 50};
  const std::string left_path = TempPath("split-xpair-l.widx");
  const std::string right_path = TempPath("split-xpair-r.widx");
  ASSERT_TRUE(WriteShardIndex(index.store(), left, left_path, false).ok());
  ASSERT_TRUE(WriteShardIndex(index.store(), right, right_path, false).ok());
  auto shard_l = WalkIndex::Load(left_path);
  auto shard_r = WalkIndex::Load(right_path);
  ASSERT_TRUE(shard_l.ok());
  ASSERT_TRUE(shard_r.ok());
  for (VertexId a = left.begin; a < left.end; a += 4) {
    for (VertexId b = right.begin; b < right.end; b += 6) {
      // a's owner materializes the row; b's owner scores it.
      const std::vector<uint32_t> row = WalkRow(*shard_l, a);
      const double scored = shard_r->EstimatePairWithRow(row, b, nullptr);
      const double full = index.EstimatePair(a, b);
      EXPECT_EQ(std::memcmp(&scored, &full, sizeof(double)), 0)
          << "cross-shard pair (" << a << ", " << b << ")";
    }
  }
}

TEST(ShardSplitTest, RejectsARangeOutsideTheStore) {
  const DiGraph graph = testing::RandomGraph(20, 60, 3);
  const WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("split-bad.widx");
  EXPECT_FALSE(
      WriteShardIndex(index.store(), ShardRange{0, 10, 25}, path, false)
          .ok());
  EXPECT_FALSE(
      WriteShardIndex(index.store(), ShardRange{0, 5, 5}, path, false).ok());
}

}  // namespace
}  // namespace simrank
