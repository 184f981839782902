// Shared pieces of the BENCH_*.json writers: the environment a figure was
// measured in, and exact sample percentiles.
//
// Every BENCH file records the hardware threads, the active SIMD tier,
// whether io_uring served its reads and the build's git describe, so a
// reader — and scripts/check_bench.py, which skips scaling gates on boxes
// narrower than the tested width — can tell which comparisons hold.
#ifndef OIPSIM_BENCH_BENCH_ENV_H_
#define OIPSIM_BENCH_BENCH_ENV_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "simrank/common/build_info.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/simd.h"

namespace simrank::bench {

/// Writes hardware_threads, simd_level, io_uring_used and git_describe as
/// keys of the JSON object `json` is inside.
inline void WriteBenchEnvironment(JsonWriter& json, bool io_uring_used) {
  json.Key("hardware_threads").Uint(std::thread::hardware_concurrency());
  json.Key("simd_level").String(SimdLevelName(ActiveSimdLevel()));
  json.Key("io_uring_used").Bool(io_uring_used);
  json.Key("git_describe").String(GetBuildInfo().git_describe);
}

/// Nearest-rank percentile of `samples` for q in (0, 1]: the smallest
/// sample with at least q of all samples at or below it. 0 when empty.
inline uint64_t NearestRank(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const size_t index = std::clamp<size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

}  // namespace simrank::bench

#endif  // OIPSIM_BENCH_BENCH_ENV_H_
