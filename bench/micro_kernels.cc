// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// one propagation step of each SimRank backend, DMST construction, the
// sparse sandwich product, symmetric-difference merges, the SVD, the
// segment decode per SIMD tier and the walk index's bucket searches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <string>

#include "simrank/benchlib/datasets.h"
#include "simrank/common/simd.h"
#include "simrank/common/varint.h"
#include "simrank/core/dmst.h"
#include "simrank/core/oip.h"
#include "simrank/core/parallel.h"
#include "simrank/core/psum.h"
#include "simrank/gen/generators.h"
#include "simrank/graph/set_ops.h"
#include "simrank/index/walk_index.h"
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
// The serve path's segment decode kernel, benchmarked per tier (Arg: 0 =
// scalar, 1 = SSE4, 2 = AVX2). Each run first checks the tier produces
// bitwise the same output as the scalar reference, then times it;
// unsupported tiers skip instead of silently clamping.

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

// ---------------------------------------------------------------------------
// The bucket searches of single-source rows (WalkStore::ResolveBuckets),
// one search at a time (Arg 1) and grouped with Arg searches in flight, so
// kRangeGroup can be re-measured. The slot set is serve_cold's graph family
// and walk length at half its vertices and fingerprints: a 20k-vertex web
// graph, R = 64, L = 8, so a row's live slots fill several groups, a slot
// holds up to 20k positions and the slots (up to ~80 MB) outgrow the L2
// cache. Each row's searches run as one batch, then its spans are
// visited, as the estimator does. Each run first checks every span
// against std::equal_range.

struct RowProbes {
  WalkIndex index;
  /// Every live slot of 256 uniform rows, row by row in (r, t) order.
  std::vector<RangeProbe> probes;
  /// Row i's probes are [row_ends[i - 1], row_ends[i]).
  std::vector<size_t> row_ends;
};

const RowProbes& ColdRows() {
  static const RowProbes* const rows = [] {
    gen::WebGraphParams params;
    params.n = 20000;
    params.out_degree = 3;
    params.copy_prob = 0.5;
    params.in_copy_prob = 0.3;
    params.seed = 3;
    auto graph = gen::WebGraph(params);
    OIPSIM_CHECK(graph.ok());
    WalkIndexOptions options;
    options.num_fingerprints = 64;
    options.walk_length = 8;
    auto index = WalkIndex::Build(*graph, options);
    OIPSIM_CHECK(index.ok());
    auto* built = new RowProbes{std::move(index).value(), {}, {}};
    const std::shared_ptr<const WalkStore> store =
        built->index.snapshot().store;
    const size_t width = options.walk_length + 1;
    std::mt19937 rng(41);
    std::vector<uint32_t> scratch;
    for (int q = 0; q < 256; ++q) {
      const auto v = std::uniform_int_distribution<VertexId>(
          0, params.n - 1)(rng);
      const uint32_t* row = *store->Row(v, &scratch);
      for (uint32_t r = 0; r < options.num_fingerprints; ++r) {
        for (uint32_t t = 1; t <= options.walk_length; ++t) {
          const uint32_t position = row[r * width + t];
          if (position == WalkStore::kDeadWalk) break;
          const WalkStore::SlotView slot = store->Slot(r, t);
          built->probes.push_back(
              {slot.positions, slot.vertices, slot.count, position});
        }
      }
      built->row_ends.push_back(built->probes.size());
    }
    return built;
  }();
  return *rows;
}

template <size_t Group>
uint64_t ResolveAndVisitRows(std::vector<RangeProbe>* probes,
                             const std::vector<size_t>& row_ends) {
  uint64_t total = 0;
  size_t begin = 0;
  for (const size_t end : row_ends) {
    ResolveEqualRanges<Group>(std::span(probes->data() + begin, end - begin));
    for (size_t i = begin; i < end; ++i) {
      const RangeProbe& probe = (*probes)[i];
      for (size_t j = probe.begin; j < probe.end; ++j) {
        total += probe.payload[j];
      }
    }
    begin = end;
  }
  return total;
}

void BM_ResolveBuckets(benchmark::State& state) {
  const RowProbes& rows = ColdRows();
  std::vector<RangeProbe> probes = rows.probes;
  const auto group = static_cast<size_t>(state.range(0));
  auto run = [&]() -> uint64_t {
    switch (group) {
      case 1:
        return ResolveAndVisitRows<1>(&probes, rows.row_ends);
      case 8:
        return ResolveAndVisitRows<8>(&probes, rows.row_ends);
      case 16:
        return ResolveAndVisitRows<16>(&probes, rows.row_ends);
      case 32:
        return ResolveAndVisitRows<32>(&probes, rows.row_ends);
      case 64:
        return ResolveAndVisitRows<64>(&probes, rows.row_ends);
    }
    OIPSIM_CHECK_MSG(false, "no instantiation for group %zu", group);
    return 0;
  };
  run();
  for (const RangeProbe& probe : probes) {
    const auto [lo, hi] = std::equal_range(
        probe.sorted, probe.sorted + probe.count, probe.key);
    if (probe.begin != static_cast<size_t>(lo - probe.sorted) ||
        probe.end != static_cast<size_t>(hi - probe.sorted)) {
      state.SkipWithError("span differs from std::equal_range");
      return;
    }
  }
  state.SetLabel(group == 1 ? "one at a time"
                            : "G=" + std::to_string(group));
  for (auto _ : state) benchmark::DoNotOptimize(run());
  state.SetItemsProcessed(state.iterations() * probes.size());
}
BENCHMARK(BM_ResolveBuckets)->Arg(1)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
}  // namespace simrank

BENCHMARK_MAIN();
