#include "simrank/index/walk_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "simrank/common/stream_hash.h"
#include "simrank/index/segment_reader.h"
#include "simrank/index/walk_index.h"
#include "testing/fixtures.h"

namespace simrank {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<int64_t>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

WalkIndex BuildSmallIndex(const DiGraph& graph) {
  WalkIndexOptions options;
  options.num_fingerprints = 24;
  options.walk_length = 7;
  options.damping = 0.7;
  options.seed = 5;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());
  return std::move(index).value();
}

/// Vertex `v`'s walk row in `index`'s store, copied out.
std::vector<uint32_t> WalkRow(const WalkIndex& index, VertexId v) {
  std::vector<uint32_t> scratch;
  const Result<const uint32_t*> row = index.store().Row(v, &scratch);
  OIPSIM_CHECK(row.ok());
  return {*row, *row + index.store().WalkWords()};
}

/// Saves `index`, then opens it through both backends and checks every
/// walk row and every estimator agrees bitwise with the freshly built
/// index.
void CheckRoundTrip(const DiGraph& graph, const WalkIndex& index,
                    bool compress, const std::string& tag) {
  const std::string path = TempPath("store_roundtrip_" + tag + ".widx");
  WalkIndex::SaveOptions save;
  save.compress = compress;
  ASSERT_TRUE(index.Save(path, save).ok());

  auto ram = WalkIndex::Load(path);
  ASSERT_TRUE(ram.ok()) << ram.status().ToString();
  WalkIndex::LoadOptions mmap_load;
  mmap_load.use_mmap = true;
  auto mapped = WalkIndex::Load(path, mmap_load);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  EXPECT_EQ(std::string(ram->store().backend_name()), "in-memory");
  EXPECT_EQ(std::string(mapped->store().backend_name()), "mmap");

  for (VertexId v = 0; v < graph.n(); ++v) {
    const std::vector<uint32_t> built_row = WalkRow(index, v);
    EXPECT_EQ(WalkRow(*ram, v), built_row) << tag << " ram row " << v;
    EXPECT_EQ(WalkRow(*mapped, v), built_row) << tag << " mmap row " << v;
  }

  for (VertexId a = 0; a < graph.n(); ++a) {
    for (VertexId b = 0; b < graph.n(); ++b) {
      const double expected = index.EstimatePair(a, b);
      EXPECT_DOUBLE_EQ(ram->EstimatePair(a, b), expected)
          << tag << " pair (" << a << "," << b << ")";
      EXPECT_DOUBLE_EQ(mapped->EstimatePair(a, b), expected)
          << tag << " pair (" << a << "," << b << ")";
    }
  }
  for (VertexId v = 0; v < graph.n(); ++v) {
    const auto scan = index.EstimateSingleSourceScan(v);
    const auto built_inverted = index.EstimateSingleSource(v);
    const auto ram_inverted = ram->EstimateSingleSource(v);
    const auto mapped_inverted = mapped->EstimateSingleSource(v);
    const auto mapped_scan = mapped->EstimateSingleSourceScan(v);
    ASSERT_EQ(scan.size(), graph.n());
    ASSERT_EQ(mapped_scan.size(), graph.n());
    // Bitwise, not approximate: the inverted path must replay the exact
    // accumulation order of the scan.
    EXPECT_EQ(0, std::memcmp(scan.data(), built_inverted.data(),
                             scan.size() * sizeof(double)))
        << tag << " built inverted row " << v;
    EXPECT_EQ(0, std::memcmp(scan.data(), ram_inverted.data(),
                             scan.size() * sizeof(double)))
        << tag << " ram inverted row " << v;
    EXPECT_EQ(0, std::memcmp(scan.data(), mapped_inverted.data(),
                             scan.size() * sizeof(double)))
        << tag << " mmap inverted row " << v;
    EXPECT_EQ(0, std::memcmp(mapped_scan.data(), mapped_inverted.data(),
                             scan.size() * sizeof(double)))
        << tag << " mmap scan row " << v;
  }
}

TEST(WalkStoreTest, RoundTripsUncompressedAcrossBackends) {
  DiGraph graph = testing::RandomGraph(50, 200, 11);
  WalkIndex index = BuildSmallIndex(graph);
  CheckRoundTrip(graph, index, /*compress=*/false, "raw");
}

TEST(WalkStoreTest, RoundTripsCompressedAcrossBackends) {
  DiGraph graph = testing::RandomGraph(50, 200, 11);
  WalkIndex index = BuildSmallIndex(graph);
  CheckRoundTrip(graph, index, /*compress=*/true, "compressed");
}

TEST(WalkStoreTest, RoundTripsGraphsWithDeadWalks) {
  // A path-ish sparse graph leaves many vertices without in-neighbours, so
  // walks die early — the segment lengths and inverted slots shrink.
  DiGraph graph = testing::RandomGraph(40, 45, 3);
  WalkIndex index = BuildSmallIndex(graph);
  CheckRoundTrip(graph, index, /*compress=*/true, "dead_walks");
}

TEST(WalkStoreTest, ResaveThroughAnyBackendIsByteIdentical) {
  DiGraph graph = testing::OverlappyGraph(30, 4, 9);
  WalkIndex index = BuildSmallIndex(graph);
  for (bool compress : {false, true}) {
    WalkIndex::SaveOptions save;
    save.compress = compress;
    const std::string tag = compress ? "c" : "r";
    const std::string original = TempPath("store_resave_" + tag + ".widx");
    ASSERT_TRUE(index.Save(original, save).ok());

    auto ram = WalkIndex::Load(original);
    ASSERT_TRUE(ram.ok());
    WalkIndex::LoadOptions mmap_load;
    mmap_load.use_mmap = true;
    auto mapped = WalkIndex::Load(original, mmap_load);
    ASSERT_TRUE(mapped.ok());

    const std::string via_ram = TempPath("store_resave_ram_" + tag);
    const std::string via_mmap = TempPath("store_resave_mmap_" + tag);
    ASSERT_TRUE(ram->Save(via_ram, save).ok());
    ASSERT_TRUE(mapped->Save(via_mmap, save).ok());
    const std::string expected = ReadFileBytes(original);
    EXPECT_EQ(ReadFileBytes(via_ram), expected) << tag;
    EXPECT_EQ(ReadFileBytes(via_mmap), expected) << tag;
  }
}

TEST(WalkStoreTest, BucketsMatchTheWalkRows) {
  DiGraph graph = testing::RandomGraph(35, 120, 21);
  WalkIndex index = BuildSmallIndex(graph);
  const WalkStore& store = index.store();
  const uint32_t n = graph.n();
  const uint32_t L = index.options().walk_length;
  std::vector<std::vector<uint32_t>> rows;
  for (VertexId v = 0; v < n; ++v) rows.push_back(WalkRow(index, v));
  for (uint32_t r = 0; r < index.options().num_fingerprints; ++r) {
    for (uint32_t t = 1; t <= L; ++t) {
      const size_t word = static_cast<size_t>(r) * (L + 1) + t;
      // The slot must list exactly the alive walks, sorted by (position,
      // vertex).
      const WalkStore::SlotView slot = store.Slot(r, t);
      size_t alive = 0;
      for (uint32_t v = 0; v < n; ++v) {
        alive += rows[v][word] != WalkStore::kDeadWalk;
      }
      ASSERT_EQ(slot.count, alive);
      for (size_t i = 0; i + 1 < slot.count; ++i) {
        ASSERT_LE(slot.positions[i], slot.positions[i + 1]);
        if (slot.positions[i] == slot.positions[i + 1]) {
          ASSERT_LT(slot.vertices[i], slot.vertices[i + 1]);
        }
      }
      for (size_t i = 0; i < slot.count; ++i) {
        ASSERT_EQ(rows[slot.vertices[i]][word], slot.positions[i]);
      }
      // Every bucket returns exactly the vertices parked at the position.
      for (uint32_t p = 0; p < n; ++p) {
        auto bucket = store.Bucket(r, t, p);
        std::vector<uint32_t> expected;
        for (uint32_t v = 0; v < n; ++v) {
          if (rows[v][word] == p) expected.push_back(v);
        }
        ASSERT_EQ(bucket.size(), expected.size())
            << "slot (" << r << "," << t << ") position " << p;
        for (size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(bucket[i], expected[i]);
        }
      }
    }
  }
}

TEST(WalkStoreTest, MmapOpenKeepsOnlyHeaderAndDirectoryResident) {
  DiGraph graph = testing::RandomGraph(80, 400, 2);
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_resident.widx");
  ASSERT_TRUE(index.Save(path).ok());
  const uint64_t file_bytes = ReadFileBytes(path).size();

  WalkIndex::LoadOptions mmap_load;
  mmap_load.use_mmap = true;
  auto mapped = WalkIndex::Load(path, mmap_load);
  ASSERT_TRUE(mapped.ok());
  // The mmap backend pins the header page plus the directory; the payload
  // must not count toward its resident footprint.
  EXPECT_LT(mapped->SizeBytes(), file_bytes / 2);
  // The in-memory backend holds at least the decoded walk rows.
  auto ram = WalkIndex::Load(path);
  ASSERT_TRUE(ram.ok());
  EXPECT_GE(ram->SizeBytes(),
            static_cast<uint64_t>(graph.n()) *
                index.options().num_fingerprints *
                (index.options().walk_length + 1) * sizeof(uint32_t));
}

// ---------------------------------------------------------------- errors

TEST(WalkStoreTest, LoadNamesFoundAndSupportedVersions) {
  // A v1 index: same magic, version word 1 — the pre-v2 flat format.
  std::string v1_bytes(512, '\0');
  const uint32_t magic = 0x58444957;
  const uint32_t version = 1;
  std::memcpy(v1_bytes.data(), &magic, sizeof(magic));
  std::memcpy(v1_bytes.data() + 4, &version, sizeof(version));
  const std::string v1_path = TempPath("store_v1.widx");
  WriteFileBytes(v1_path, v1_bytes);
  for (bool use_mmap : {false, true}) {
    WalkIndex::LoadOptions load;
    load.use_mmap = use_mmap;
    auto loaded = WalkIndex::Load(v1_path, load);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("version 1"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("version 2"),
              std::string::npos)
        << loaded.status().ToString();
  }

  // An unknown future version gets the same found-vs-supported shape.
  const uint32_t version99 = 99;
  std::memcpy(v1_bytes.data() + 4, &version99, sizeof(version99));
  const std::string v99_path = TempPath("store_v99.widx");
  WriteFileBytes(v99_path, v1_bytes);
  auto future = WalkIndex::Load(v99_path);
  ASSERT_FALSE(future.ok());
  EXPECT_NE(future.status().message().find("version 99"),
            std::string::npos)
      << future.status().ToString();
}

TEST(WalkStoreTest, LoadRejectsNonIndexFiles) {
  const std::string garbage_path = TempPath("store_garbage.widx");
  WriteFileBytes(garbage_path, "definitely not an index");
  for (bool use_mmap : {false, true}) {
    WalkIndex::LoadOptions load;
    load.use_mmap = use_mmap;
    auto loaded = WalkIndex::Load(garbage_path, load);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("not a walk index"),
              std::string::npos)
        << loaded.status().ToString();
  }
  EXPECT_FALSE(WalkIndex::Load("/no/such/index.widx").ok());
}

TEST(WalkStoreTest, LoadReportsTruncationOffsets) {
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_truncate.widx");
  ASSERT_TRUE(index.Save(path).ok());
  const std::string bytes = ReadFileBytes(path);

  // Cut inside the payload: the header survives, so the error must name
  // the declared size and where the data stops.
  const std::string cut_payload = TempPath("store_truncate_payload.widx");
  WriteFileBytes(cut_payload, bytes.substr(0, bytes.size() - 100));
  for (bool use_mmap : {false, true}) {
    WalkIndex::LoadOptions load;
    load.use_mmap = use_mmap;
    auto loaded = WalkIndex::Load(cut_payload, load);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("truncated"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("data missing from offset"),
              std::string::npos)
        << loaded.status().ToString();
  }

  // Cut inside the header itself.
  const std::string cut_header = TempPath("store_truncate_header.widx");
  WriteFileBytes(cut_header, bytes.substr(0, 64));
  auto loaded = WalkIndex::Load(cut_header);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("truncated walk index header"),
            std::string::npos)
      << loaded.status().ToString();

  // Trailing garbage is corruption too, not silently ignored.
  const std::string padded = TempPath("store_trailing.widx");
  WriteFileBytes(padded, bytes + "extra");
  auto padded_loaded = WalkIndex::Load(padded);
  ASSERT_FALSE(padded_loaded.ok());
  EXPECT_NE(padded_loaded.status().message().find("trailing"),
            std::string::npos)
      << padded_loaded.status().ToString();
}

TEST(WalkStoreTest, CorruptHeaderAndDirectoryFailBothBackends) {
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_corrupt_src.widx");
  ASSERT_TRUE(index.Save(path).ok());
  const std::string bytes = ReadFileBytes(path);

  // Flip a bit in the walk-length header field.
  std::string bad_header = bytes;
  bad_header[16] ^= 0x01;
  const std::string bad_header_path = TempPath("store_bad_header.widx");
  WriteFileBytes(bad_header_path, bad_header);
  // Flip a bit inside the segment directory (page 1) — and one inside the
  // header page's padding (bytes 104..4095), which the directory
  // checksum's extent must cover too.
  std::string bad_directory = bytes;
  bad_directory[4096 + 9] ^= 0x10;
  const std::string bad_directory_path = TempPath("store_bad_dir.widx");
  WriteFileBytes(bad_directory_path, bad_directory);
  std::string bad_padding = bytes;
  bad_padding[200] ^= 0x04;
  const std::string bad_padding_path = TempPath("store_bad_pad.widx");
  WriteFileBytes(bad_padding_path, bad_padding);

  for (bool use_mmap : {false, true}) {
    WalkIndex::LoadOptions load;
    load.use_mmap = use_mmap;
    auto header_loaded = WalkIndex::Load(bad_header_path, load);
    ASSERT_FALSE(header_loaded.ok());
    EXPECT_NE(header_loaded.status().message().find(
                  "header checksum mismatch"),
              std::string::npos)
        << header_loaded.status().ToString();
    auto directory_loaded = WalkIndex::Load(bad_directory_path, load);
    ASSERT_FALSE(directory_loaded.ok());
    EXPECT_NE(directory_loaded.status().message().find(
                  "directory checksum mismatch"),
              std::string::npos)
        << directory_loaded.status().ToString();
    auto padding_loaded = WalkIndex::Load(bad_padding_path, load);
    ASSERT_FALSE(padding_loaded.ok());
    EXPECT_NE(padding_loaded.status().message().find(
                  "directory checksum mismatch"),
              std::string::npos)
        << padding_loaded.status().ToString();
  }
}

TEST(WalkStoreTest, CorruptPayloadIsCaughtAtOpenOrOnVerify) {
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_corrupt_payload_src.widx");
  ASSERT_TRUE(index.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip a byte near the end of the file — inside the inverted region.
  bytes[bytes.size() - 3] ^= 0x20;
  const std::string corrupt_path = TempPath("store_corrupt_payload.widx");
  WriteFileBytes(corrupt_path, bytes);

  // The fully-verifying backend refuses at open.
  auto ram = WalkIndex::Load(corrupt_path);
  ASSERT_FALSE(ram.ok());
  EXPECT_NE(ram.status().message().find("payload checksum mismatch"),
            std::string::npos)
      << ram.status().ToString();

  // The mmap backend deliberately does not read the payload at open; the
  // corruption surfaces on the explicit full sweep.
  WalkIndex::LoadOptions mmap_load;
  mmap_load.use_mmap = true;
  auto mapped = WalkIndex::Load(corrupt_path, mmap_load);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE(mapped->store().VerifyPayload().ok());
  // An untampered file passes the same sweep.
  auto clean = WalkIndex::Load(path, mmap_load);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->store().VerifyPayload().ok());
}

TEST(WalkStoreTest, MalformedSegmentBytesFailDecodeWithOffset) {
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_bad_segment_src.widx");
  WalkIndex::SaveOptions save;
  save.compress = true;
  ASSERT_TRUE(index.Save(path, save).ok());
  auto info = ReadWalkIndexInfo(path);
  ASSERT_TRUE(info.ok());
  std::string bytes = ReadFileBytes(path);
  // The segment region starts after the directory pages; stomp its first
  // bytes with maximal varint continuation so vertex 0 cannot decode.
  const size_t segments_offset =
      info->file_bytes - info->inverted_bytes - info->segment_bytes;
  for (size_t i = 0; i < 16; ++i) {
    bytes[segments_offset + i] = static_cast<char>(0x80);
  }
  const std::string corrupt_path = TempPath("store_bad_segment.widx");
  WriteFileBytes(corrupt_path, bytes);

  WalkIndex::LoadOptions mmap_load;
  mmap_load.use_mmap = true;
  auto mapped = WalkIndex::Load(corrupt_path, mmap_load);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::vector<uint32_t> scratch;
  const Status decode = mapped->store().Row(0, &scratch).status();
  ASSERT_FALSE(decode.ok());
  EXPECT_EQ(decode.code(), StatusCode::kParseError);
  EXPECT_NE(decode.message().find("byte offset"), std::string::npos)
      << decode.ToString();
  // The in-memory backend rejects the same file at open (the payload
  // checksum no longer matches).
  EXPECT_FALSE(WalkIndex::Load(corrupt_path).ok());
}

TEST(WalkStoreTest, CraftedHeaderWithHugeDimensionsIsRejected) {
  // num_fingerprints · walk_length · n chosen so the directory size wraps
  // without 128-bit arithmetic; the regions check must reject it before
  // any allocation. The header checksum is made valid so the dimension
  // check (not the checksum) is what rejects the file.
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_huge_src.widx");
  ASSERT_TRUE(index.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint32_t huge = 0x80000000u;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));    // n
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));   // R
  const uint32_t length = 3;  // keeps L under the format cap
  std::memcpy(bytes.data() + 16, &length, sizeof(length));  // L
  // Recompute the header checksum the same way the writer does.
  StreamHasher hasher(0x5349574b32484452ULL);
  hasher.AbsorbBytes(reinterpret_cast<const uint8_t*>(bytes.data()), 96);
  const uint64_t checksum = hasher.digest();
  std::memcpy(bytes.data() + 96, &checksum, sizeof(checksum));
  const std::string huge_path = TempPath("store_huge.widx");
  WriteFileBytes(huge_path, bytes);
  for (bool use_mmap : {false, true}) {
    WalkIndex::LoadOptions load;
    load.use_mmap = use_mmap;
    auto loaded = WalkIndex::Load(huge_path, load);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("inconsistent regions"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(WalkStoreTest, WalkLengthBeyondTheFormatCapIsRejected) {
  // A tiny file whose header declares a small, file-backed n·R but a huge
  // walk length: without the cap, decoding would demand a walk table
  // thousands of times the file size. The header checksum is made valid
  // so the cap (not the checksum) is what rejects the file.
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_huge_l_src.widx");
  ASSERT_TRUE(index.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint32_t huge_length = kMaxWalkLength + 1;
  std::memcpy(bytes.data() + 16, &huge_length, sizeof(huge_length));
  StreamHasher hasher(0x5349574b32484452ULL);
  hasher.AbsorbBytes(reinterpret_cast<const uint8_t*>(bytes.data()), 96);
  const uint64_t checksum = hasher.digest();
  std::memcpy(bytes.data() + 96, &checksum, sizeof(checksum));
  const std::string huge_path = TempPath("store_huge_l.widx");
  WriteFileBytes(huge_path, bytes);
  for (bool use_mmap : {false, true}) {
    WalkIndex::LoadOptions load;
    load.use_mmap = use_mmap;
    auto loaded = WalkIndex::Load(huge_path, load);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("format maximum"),
              std::string::npos)
        << loaded.status().ToString();
  }
  // Build enforces the same cap, so the formats stay round-trippable.
  WalkIndexOptions options;
  options.walk_length = kMaxWalkLength + 1;
  EXPECT_FALSE(options.Valid());
  EXPECT_FALSE(WalkIndex::Build(graph, options).ok());
}

TEST(WalkStoreTest, OverflowingPositionDeltaFailsDecodeCleanly) {
  // A compressed segment whose first walk declares one step with a zigzag
  // delta near 2^64: the decoder must reject it as out of range before
  // any signed arithmetic could overflow.
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_bad_delta_src.widx");
  WalkIndex::SaveOptions save;
  save.compress = true;
  ASSERT_TRUE(index.Save(path, save).ok());
  auto info = ReadWalkIndexInfo(path);
  ASSERT_TRUE(info.ok());
  std::string bytes = ReadFileBytes(path);
  const size_t segments_offset =
      info->file_bytes - info->inverted_bytes - info->segment_bytes;
  // len = 1, then the 10-byte varint of 0xFFFFFFFFFFFFFFFE (zigzag of
  // INT64_MAX).
  const uint8_t payload[11] = {0x01, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF,
                               0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  std::memcpy(bytes.data() + segments_offset, payload, sizeof(payload));
  const std::string corrupt_path = TempPath("store_bad_delta.widx");
  WriteFileBytes(corrupt_path, bytes);

  WalkIndex::LoadOptions mmap_load;
  mmap_load.use_mmap = true;
  auto mapped = WalkIndex::Load(corrupt_path, mmap_load);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::vector<uint32_t> scratch;
  const Status decode = mapped->store().Row(0, &scratch).status();
  ASSERT_FALSE(decode.ok());
  EXPECT_NE(decode.message().find("delta out of range"), std::string::npos)
      << decode.ToString();
}

TEST(WalkStoreTest, HeaderDeclaringUnbackedWalkTableIsRejected) {
  // A crafted header — magic, version and header checksum all valid —
  // declaring n·R·(L+1) walks over an empty segment region. Without the
  // minimum-segment-bytes guard this would drive a ~64 MB (or, scaled up,
  // multi-TB) allocation for bytes that plainly are not in the file.
  constexpr uint32_t kN = 4096;
  constexpr uint32_t kR = 1;
  constexpr uint32_t kL = 4096;
  const uint64_t directory_bytes = (uint64_t{kN} + 1 + kR * kL + 1) * 8;
  const uint64_t segments_offset =
      (4096 + directory_bytes + 4095) / 4096 * 4096;
  const uint64_t file_size = segments_offset;  // both regions empty

  std::string bytes(file_size, '\0');
  auto put32 = [&](size_t at, uint32_t value) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  };
  auto put64 = [&](size_t at, uint64_t value) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  };
  put32(0, 0x58444957u);  // magic
  put32(4, 2u);           // version
  put32(8, kN);
  put32(12, kR);
  put32(16, kL);
  put32(20, 0u);  // flags
  put64(24, 7u);  // seed
  const double damping = 0.6;
  uint64_t damping_bits = 0;
  std::memcpy(&damping_bits, &damping, sizeof(damping_bits));
  put64(32, damping_bits);
  put64(40, 0u);  // graph fingerprint
  put64(48, 4096u);
  put64(56, segments_offset);
  put64(64, segments_offset);  // inverted region also empty
  put64(72, file_size);
  put64(80, 0u);  // payload checksum (never reached)
  put64(88, 0u);  // directory checksum (never reached)
  StreamHasher hasher(0x5349574b32484452ULL);
  hasher.AbsorbBytes(reinterpret_cast<const uint8_t*>(bytes.data()), 96);
  put64(96, hasher.digest());

  const std::string path = TempPath("store_unbacked.widx");
  WriteFileBytes(path, bytes);
  for (bool use_mmap : {false, true}) {
    WalkIndex::LoadOptions load;
    load.use_mmap = use_mmap;
    auto loaded = WalkIndex::Load(path, load);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("too small for the declared "
                                             "geometry"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(WalkStoreTest, OversizedDecodeRefusedInMemoryButServableViaMmap) {
  // A fully consistent (all three checksums valid) compressed index whose
  // all-dead walks and huge-but-legal walk length decode to ~2.4 GiB from
  // a ~5 MiB file. The in-memory backend must refuse the materialization
  // under its load budget; the mmap backend — which never decodes more
  // than the rows a query reads — must serve it.
  constexpr uint32_t kN = 1024;
  constexpr uint32_t kR = 64;
  constexpr uint32_t kL = 10000;
  const uint64_t slots = uint64_t{kR} * kL;
  const uint64_t dir_bytes = (uint64_t{kN} + 1 + slots + 1) * 8;
  auto align_up = [](uint64_t v) { return (v + 4095) / 4096 * 4096; };
  const uint64_t seg_off = align_up(4096 + dir_bytes);
  const uint64_t seg_bytes = uint64_t{kN} * kR;  // one 0x00 varint per walk
  const uint64_t inv_off = align_up(seg_off + seg_bytes);
  const uint64_t file_size = inv_off;  // every inverted slot is empty

  std::string bytes(file_size, '\0');
  auto put32 = [&](size_t at, uint32_t value) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  };
  auto put64 = [&](size_t at, uint64_t value) {
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  };
  put32(0, 0x58444957u);
  put32(4, 2u);
  put32(8, kN);
  put32(12, kR);
  put32(16, kL);
  put32(20, 1u);  // compressed segments
  put64(24, 7u);  // seed
  const double damping = 0.6;
  uint64_t damping_bits = 0;
  std::memcpy(&damping_bits, &damping, sizeof(damping_bits));
  put64(32, damping_bits);
  put64(40, 0u);  // graph fingerprint
  put64(48, 4096u);
  put64(56, seg_off);
  put64(64, inv_off);
  put64(72, file_size);
  for (uint32_t v = 0; v <= kN; ++v) {
    put64(4096 + uint64_t{v} * 8, uint64_t{v} * kR);
  }
  const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
  StreamHasher payload_hasher(0x5349574b32504159ULL);
  payload_hasher.AbsorbBytes(data + seg_off, inv_off - seg_off);
  payload_hasher.AbsorbBytes(data + inv_off, 0);
  put64(80, payload_hasher.digest());
  StreamHasher dir_hasher(0x5349574b32444952ULL);
  dir_hasher.AbsorbBytes(data + 104, seg_off - 104);
  put64(88, dir_hasher.digest());
  StreamHasher header_hasher(0x5349574b32484452ULL);
  header_hasher.AbsorbBytes(data, 96);
  put64(96, header_hasher.digest());

  const std::string path = TempPath("store_oversized.widx");
  WriteFileBytes(path, bytes);

  auto ram = WalkIndex::Load(path);
  ASSERT_FALSE(ram.ok());
  EXPECT_NE(ram.status().message().find("refusing the in-memory load"),
            std::string::npos)
      << ram.status().ToString();
  EXPECT_NE(ram.status().message().find("mmap"), std::string::npos);

  WalkIndex::LoadOptions mmap_load;
  mmap_load.use_mmap = true;
  auto mapped = WalkIndex::Load(path, mmap_load);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->store().VerifyPayload().ok());
  // All walks are dead at step 1, so every off-diagonal estimate is 0.
  EXPECT_DOUBLE_EQ(mapped->EstimatePair(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(mapped->EstimatePair(5, 5), 1.0);
}

TEST(WalkStoreTest, InfoReflectsTheSavedHeader) {
  DiGraph graph = testing::RandomGraph(25, 90, 4);
  WalkIndex index = BuildSmallIndex(graph);
  for (bool compress : {false, true}) {
    const std::string path =
        TempPath(compress ? "store_info_c.widx" : "store_info_r.widx");
    WalkIndex::SaveOptions save;
    save.compress = compress;
    ASSERT_TRUE(index.Save(path, save).ok());
    auto info = ReadWalkIndexInfo(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->version, 2u);
    EXPECT_EQ(info->compressed, compress);
    EXPECT_EQ(info->meta.n, graph.n());
    EXPECT_EQ(info->meta.num_fingerprints,
              index.options().num_fingerprints);
    EXPECT_EQ(info->meta.walk_length, index.options().walk_length);
    EXPECT_DOUBLE_EQ(info->meta.damping, index.options().damping);
    EXPECT_EQ(info->meta.seed, index.options().seed);
    EXPECT_EQ(info->meta.graph_fingerprint, index.graph_fingerprint());
    EXPECT_EQ(info->file_bytes, ReadFileBytes(path).size());
    EXPECT_EQ(info->raw_walk_bytes,
              static_cast<uint64_t>(graph.n()) *
                  index.options().num_fingerprints *
                  (index.options().walk_length + 1) * sizeof(uint32_t));
    EXPECT_GT(info->segment_bytes, 0u);
    EXPECT_GT(info->inverted_bytes, 0u);
  }
  EXPECT_FALSE(ReadWalkIndexInfo("/no/such/index.widx").ok());
}

TEST(WalkStoreTest, ParallelOpenMatchesSerialBitwise) {
  // Big enough that the parallel path actually splits into blocks.
  DiGraph graph = testing::RandomGraph(257, 1400, 23);
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_parallel_open.widx");
  WalkIndex::SaveOptions save;
  save.compress = true;
  ASSERT_TRUE(index.Save(path, save).ok());

  auto serial = InMemoryWalkStore::Open(path, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const WalkStoreMeta& meta = (*serial)->meta();
  const size_t words = (*serial)->WalkWords();
  std::vector<uint32_t> scratch;
  for (const uint32_t threads : {2u, 3u, 8u}) {
    auto parallel = InMemoryWalkStore::Open(path, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    for (VertexId v = 0; v < meta.n; ++v) {
      ASSERT_EQ(std::memcmp(*(*serial)->Row(v, &scratch),
                            *(*parallel)->Row(v, &scratch),
                            words * sizeof(uint32_t)),
                0)
          << "walk row " << v << " differs at " << threads << " threads";
    }
    EXPECT_EQ((*serial)->ResidentBytes(), (*parallel)->ResidentBytes());
    for (uint32_t r = 0; r < meta.num_fingerprints; ++r) {
      for (uint32_t t = 1; t <= meta.walk_length; ++t) {
        const WalkStore::SlotView lhs = (*serial)->Slot(r, t);
        const WalkStore::SlotView rhs = (*parallel)->Slot(r, t);
        ASSERT_EQ(lhs.count, rhs.count);
        ASSERT_EQ(std::memcmp(lhs.positions, rhs.positions,
                              lhs.count * sizeof(uint32_t)),
                  0);
        ASSERT_EQ(std::memcmp(lhs.vertices, rhs.vertices,
                              lhs.count * sizeof(uint32_t)),
                  0);
      }
    }
  }
}

TEST(WalkStoreTest, ParallelOpenReportsTheSerialFirstCorruptVertex) {
  // Two corrupt segments with checksums made consistent again, so the
  // decode (not the checksum sweep) is what fails: every thread count
  // must report the *first* corrupt vertex, exactly like the serial pass.
  DiGraph graph = testing::RandomGraph(64, 300, 9);
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_parallel_corrupt_src.widx");
  WalkIndex::SaveOptions save;
  save.compress = true;
  ASSERT_TRUE(index.Save(path, save).ok());
  auto info = ReadWalkIndexInfo(path);
  ASSERT_TRUE(info.ok());
  std::string bytes = ReadFileBytes(path);
  const size_t segments_offset =
      info->file_bytes - info->inverted_bytes - info->segment_bytes;
  const size_t inverted_offset = info->file_bytes - info->inverted_bytes;
  const auto* seg_rel =
      reinterpret_cast<const uint64_t*>(bytes.data() + 4096);
  // Five 0xFF bytes: an over-long varint32, malformed for any suffix.
  for (const uint32_t victim : {19u, 47u}) {
    for (size_t i = 0; i < 5; ++i) {
      bytes[segments_offset + seg_rel[victim] + i] =
          static_cast<char>(0xFF);
    }
  }
  // Re-seal payload and header checksums the way the writer computes them.
  StreamHasher payload_hasher(0x5349574b32504159ULL);
  payload_hasher.AbsorbBytes(
      reinterpret_cast<const uint8_t*>(bytes.data()) + segments_offset,
      info->segment_bytes);
  payload_hasher.AbsorbBytes(
      reinterpret_cast<const uint8_t*>(bytes.data()) + inverted_offset,
      info->inverted_bytes);
  const uint64_t payload_checksum = payload_hasher.digest();
  std::memcpy(bytes.data() + 80, &payload_checksum,
              sizeof(payload_checksum));
  StreamHasher header_hasher(0x5349574b32484452ULL);
  header_hasher.AbsorbBytes(reinterpret_cast<const uint8_t*>(bytes.data()),
                            96);
  const uint64_t header_checksum = header_hasher.digest();
  std::memcpy(bytes.data() + 96, &header_checksum,
              sizeof(header_checksum));
  const std::string corrupt_path = TempPath("store_parallel_corrupt.widx");
  WriteFileBytes(corrupt_path, bytes);

  auto serial = InMemoryWalkStore::Open(corrupt_path, 1);
  ASSERT_FALSE(serial.ok());
  EXPECT_NE(serial.status().message().find("vertex 19"), std::string::npos)
      << serial.status().ToString();
  for (const uint32_t threads : {2u, 8u}) {
    auto parallel = InMemoryWalkStore::Open(corrupt_path, threads);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status(), serial.status())
        << "threads=" << threads << ": "
        << parallel.status().ToString();
  }
}

TEST(WalkStoreTest, PrefetchIsAHintThatChangesNothing) {
  DiGraph graph = testing::PaperExampleGraph();
  WalkIndex index = BuildSmallIndex(graph);
  const std::string path = TempPath("store_prefetch.widx");
  WalkIndex::SaveOptions save;
  save.compress = true;
  ASSERT_TRUE(index.Save(path, save).ok());
  WalkIndex::LoadOptions mmap_load;
  mmap_load.use_mmap = true;
  auto mapped = WalkIndex::Load(path, mmap_load);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // Duplicates, unsorted input and out-of-range ids are all tolerated: a
  // stale warm list must never take the server down.
  const std::vector<VertexId> warm = {8, 0, 3, 3, 1, 1000000};
  mapped->store().Prefetch(warm);
  index.store().Prefetch(warm);  // in-memory backend: explicit no-op
  for (VertexId a = 0; a < graph.n(); ++a) {
    for (VertexId b = 0; b < graph.n(); ++b) {
      EXPECT_EQ(mapped->EstimatePair(a, b), index.EstimatePair(a, b));
    }
  }
}

TEST(WalkStoreTest, BatchedReaderPrefetchChangesNothing) {
  // Same hint-only contract as above, but with the io_uring batched
  // reader explicitly on and off, both encodings, and hostile warm lists
  // (out of order, duplicated, out of range, and touching the last
  // vertex, whose page-aligned segment run extends past EOF and must be
  // clamped before it becomes a real read).
  DiGraph graph = testing::RandomGraph(50, 210, 41);
  WalkIndex index = BuildSmallIndex(graph);
  const bool uring_was_enabled = SegmentReader::IoUringEnabled();
  for (const bool compress : {false, true}) {
    for (const bool uring : {false, true}) {
      SCOPED_TRACE(std::string(compress ? "compressed" : "raw") +
                   (uring ? "/uring" : "/no-uring"));
      SegmentReader::SetIoUringEnabled(uring);
      const std::string path =
          TempPath(std::string("store_reader_prefetch_") +
                   (compress ? "c" : "r") + (uring ? "u" : "p") + ".widx");
      WalkIndex::SaveOptions save;
      save.compress = compress;
      ASSERT_TRUE(index.Save(path, save).ok());
      WalkIndex::LoadOptions mmap_load;
      mmap_load.use_mmap = true;
      auto mapped = WalkIndex::Load(path, mmap_load);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

      const std::vector<VertexId> warm = {
          graph.n() - 1, 7, 7, 0, 23, 5, 1u << 30, graph.n() - 1, 2};
      mapped->store().Prefetch(warm);
      mapped->store().Prefetch(std::vector<VertexId>{});  // empty list
      for (VertexId a = 0; a < graph.n(); a += 3) {
        for (VertexId b = 0; b < graph.n(); b += 2) {
          ASSERT_EQ(mapped->EstimatePair(a, b), index.EstimatePair(a, b))
              << a << "," << b;
        }
      }
      // The slot prefetch (fired by the first mmap single-source) is a
      // hint too: full rows stay bitwise equal to the in-memory backend.
      for (VertexId v = 0; v < graph.n(); v += 7) {
        ASSERT_EQ(mapped->EstimateSingleSource(v),
                  index.EstimateSingleSource(v));
      }
    }
  }
  SegmentReader::SetIoUringEnabled(uring_was_enabled);
}

}  // namespace
}  // namespace simrank
