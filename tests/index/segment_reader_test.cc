#include "simrank/index/segment_reader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "simrank/common/status.h"

namespace simrank {
namespace {

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "_" +
                    info->name() + "_" + name;
  // Parameterized suite/test names contain '/' — not directory parts here.
  std::replace(tag.begin(), tag.end(), '/', '_');
  return ::testing::TempDir() + tag;
}

// Writes a `size`-byte file for the reader to prefetch.
void WriteFile(const std::string& path, size_t size) {
  const std::vector<char> bytes(size, 'x');
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SegmentReaderTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    uring_was_enabled_ = SegmentReader::IoUringEnabled();
    SegmentReader::SetIoUringEnabled(GetParam());
  }
  void TearDown() override {
    SegmentReader::SetIoUringEnabled(uring_was_enabled_);
  }

 private:
  bool uring_was_enabled_ = false;
};

TEST_P(SegmentReaderTest, MissingFileFailsToOpen) {
  auto reader = SegmentReader::Open(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(reader.ok());
}

TEST_P(SegmentReaderTest, PrefetchIsAHarmlessHint) {
  const std::string path = TempPath("prefetch.bin");
  const uint64_t size = 128 * 1024;
  WriteFile(path, size);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().message();

  const std::vector<SegmentReader::Range> two = {{0, 64 * 1024},
                                                 {100 * 1024, 28 * 1024}};
  (*reader)->Prefetch(two);
  (*reader)->Prefetch(std::vector<SegmentReader::Range>{});  // empty is fine
  const std::vector<SegmentReader::Range> whole = {{0, size}};
  (*reader)->Prefetch(whole);
}

INSTANTIATE_TEST_SUITE_P(UringOnOff, SegmentReaderTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "UringEnabled"
                                             : "UringDisabled";
                         });

}  // namespace
}  // namespace simrank
