// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// one propagation step of each SimRank backend, DMST construction, the
// sparse sandwich product, symmetric-difference merges and the SVD.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "simrank/benchlib/datasets.h"
#include "simrank/common/simd.h"
#include "simrank/common/varint.h"
#include "simrank/core/dmst.h"
#include "simrank/core/oip.h"
#include "simrank/core/parallel.h"
#include "simrank/core/psum.h"
#include "simrank/gen/generators.h"
#include "simrank/graph/set_ops.h"
#include "simrank/linalg/sparse_matrix.h"
#include "simrank/linalg/svd.h"

namespace simrank {
namespace {

DiGraph BenchGraph() {
  gen::WebGraphParams params;
  params.n = 512;
  params.out_degree = 6;
  params.copy_prob = 0.75;
  params.in_copy_prob = 0.6;
  params.seed = 123;
  auto graph = gen::WebGraph(params);
  OIPSIM_CHECK(graph.ok());
  return std::move(graph).value();
}

void BM_PsumPropagate(benchmark::State& state) {
  DiGraph graph = BenchGraph();
  DenseMatrix current = DenseMatrix::Identity(graph.n());
  DenseMatrix next(graph.n(), graph.n());
  for (auto _ : state) {
    internal::PsumPropagate(graph, current, &next, 0.6, true, 0.0, nullptr);
    benchmark::DoNotOptimize(next.Row(0));
  }
  state.SetItemsProcessed(state.iterations() * graph.n() * graph.n());
}
BENCHMARK(BM_PsumPropagate);

void BM_OipPropagate(benchmark::State& state) {
  DiGraph graph = BenchGraph();
  auto mst = DmstReduce(graph);
  OIPSIM_CHECK(mst.ok());
  internal::OipScratch scratch;
  internal::PrepareScratch(*mst, graph.n(), &scratch);
  DenseMatrix current = DenseMatrix::Identity(graph.n());
  DenseMatrix next(graph.n(), graph.n());
  for (auto _ : state) {
    internal::OipPropagate(*mst, current, &next, 0.6, true, nullptr,
                           &scratch);
    benchmark::DoNotOptimize(next.Row(0));
  }
  state.SetItemsProcessed(state.iterations() * graph.n() * graph.n());
}
BENCHMARK(BM_OipPropagate);

void BM_OipPropagateBlocked(benchmark::State& state) {
  DiGraph graph = BenchGraph();
  auto mst = DmstReduce(graph);
  OIPSIM_CHECK(mst.ok());
  PropagationExecutor executor(static_cast<uint32_t>(state.range(0)));
  internal::OipPropagationKernel kernel(graph, *mst, executor);
  DenseMatrix current = DenseMatrix::Identity(graph.n());
  DenseMatrix next(graph.n(), graph.n());
  for (auto _ : state) {
    RunPropagation(kernel, executor, current, &next, 0.6,
                   /*pin_diagonal=*/true, nullptr);
    benchmark::DoNotOptimize(next.Row(0));
  }
  state.SetItemsProcessed(state.iterations() * graph.n() * graph.n());
}
BENCHMARK(BM_OipPropagateBlocked)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DmstReduce(benchmark::State& state) {
  DiGraph graph = BenchGraph();
  for (auto _ : state) {
    auto mst = DmstReduce(graph);
    benchmark::DoNotOptimize(mst->total_cost);
  }
}
BENCHMARK(BM_DmstReduce);

void BM_SparseSandwich(benchmark::State& state) {
  DiGraph graph = BenchGraph();
  SparseMatrix q = SparseMatrix::BackwardTransition(graph);
  DenseMatrix s = DenseMatrix::Identity(graph.n());
  for (auto _ : state) {
    DenseMatrix out = q.SandwichDense(s);
    benchmark::DoNotOptimize(out.Row(0));
  }
}
BENCHMARK(BM_SparseSandwich);

void BM_SymmetricDifference(benchmark::State& state) {
  DiGraph graph = BenchGraph();
  // All pairs among the first 64 non-empty in-neighbour sets.
  std::vector<VertexId> sample;
  for (VertexId v = 0; v < graph.n() && sample.size() < 64; ++v) {
    if (graph.InDegree(v) > 0) sample.push_back(v);
  }
  for (auto _ : state) {
    uint64_t total = 0;
    for (VertexId a : sample) {
      for (VertexId b : sample) {
        total += SymmetricDifferenceSize(graph.InNeighbors(a),
                                         graph.InNeighbors(b));
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SymmetricDifference);

void BM_RandomizedSvd(benchmark::State& state) {
  DiGraph graph = BenchGraph();
  SparseMatrix q = SparseMatrix::BackwardTransition(graph);
  SvdOptions options;
  options.rank = 32;
  for (auto _ : state) {
    auto svd = RandomizedSvd(q, options);
    benchmark::DoNotOptimize(svd->sigma);
  }
}
BENCHMARK(BM_RandomizedSvd);

// ---------------------------------------------------------------------------
// Serve-path vector kernels, benchmarked per tier (Arg: 0 = scalar,
// 1 = SSE4, 2 = AVX2). Each run first checks the tier produces bitwise the
// same output as the scalar reference, then times it; unsupported tiers
// skip instead of silently clamping.

bool ResolveTier(benchmark::State& state, SimdLevel* level) {
  const auto requested = static_cast<uint8_t>(state.range(0));
  if (requested > static_cast<uint8_t>(MaxSupportedSimdLevel())) {
    state.SkipWithError("tier not supported by this CPU");
    return false;
  }
  *level = static_cast<SimdLevel>(requested);
  state.SetLabel(SimdLevelName(*level));
  return true;
}

// The scalar tail every tier shares: finishes whatever the vector kernel
// did not commit (mirrors walk_store.cc's decode loop on valid input).
size_t ScalarDeltaFinish(const uint8_t** cursor, const uint8_t* end,
                         uint32_t prev, uint32_t* out, size_t count) {
  size_t done = 0;
  while (done < count) {
    uint64_t zigzag = 0;
    if (!DecodeVarint64(cursor, end, &zigzag)) break;
    prev = static_cast<uint32_t>(static_cast<int64_t>(prev) +
                                 ZigZagDecode64(zigzag));
    out[done++] = prev;
  }
  return done;
}

void BM_VarintBlockDecode(benchmark::State& state) {
  SimdLevel level;
  if (!ResolveTier(state, &level)) return;
  constexpr uint32_t kN = 1u << 20;
  constexpr size_t kCount = 8192;
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> step(-20, 20);
  std::vector<uint8_t> bytes;
  std::vector<uint32_t> expected;
  uint32_t prev = kN / 2;
  uint32_t value = prev;
  for (size_t i = 0; i < kCount; ++i) {
    int delta = step(rng);
    if (static_cast<int64_t>(value) + delta < 0 ||
        static_cast<int64_t>(value) + delta >= kN) {
      delta = -delta;
    }
    AppendVarint64(&bytes, ZigZagEncode64(delta));
    value = static_cast<uint32_t>(static_cast<int64_t>(value) + delta);
    expected.push_back(value);
  }
  const uint8_t* const start = bytes.data();
  const uint8_t* const end = start + bytes.size();
  std::vector<uint32_t> out(kCount);

  auto decode = [&]() {
    const uint8_t* cursor = start;
    const size_t bulk =
        DecodeDeltaRun(level, &cursor, end, prev, kN, out.data(), kCount);
    return bulk + ScalarDeltaFinish(&cursor, end,
                                    bulk == 0 ? prev : out[bulk - 1],
                                    out.data() + bulk, kCount - bulk);
  };
  if (decode() != kCount || out != expected) {
    state.SkipWithError("tier output differs from scalar reference");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kCount);
  state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_VarintBlockDecode)->Arg(0)->Arg(1)->Arg(2);

void BM_BucketIntersect(benchmark::State& state) {
  SimdLevel level;
  if (!ResolveTier(state, &level)) return;
  // A realistic inverted slot: many duplicate positions, sorted ascending.
  constexpr size_t kCount = 1u << 16;
  constexpr uint32_t kPositions = 4096;
  std::mt19937 rng(37);
  std::vector<uint32_t> values(kCount);
  for (auto& v : values) {
    v = std::uniform_int_distribution<uint32_t>(0, kPositions - 1)(rng);
  }
  std::sort(values.begin(), values.end());
  std::vector<uint32_t> keys(1024);
  for (auto& k : keys) {
    k = std::uniform_int_distribution<uint32_t>(0, kPositions - 1)(rng);
  }
  for (uint32_t key : keys) {
    const EqualRange got = EqualRangeU32(level, values.data(), kCount, key);
    const auto [lo, hi] = std::equal_range(values.begin(), values.end(), key);
    if (got.begin != static_cast<size_t>(lo - values.begin()) ||
        got.end != static_cast<size_t>(hi - values.begin())) {
      state.SkipWithError("tier output differs from scalar reference");
      return;
    }
  }
  for (auto _ : state) {
    size_t total = 0;
    for (uint32_t key : keys) {
      const EqualRange range =
          EqualRangeU32(level, values.data(), kCount, key);
      total += range.end - range.begin;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_BucketIntersect)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace simrank

BENCHMARK_MAIN();
