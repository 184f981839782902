// Walk-index serving benchmark: build cost and query throughput of the
// persistent fingerprint index versus the exact on-demand single-pair
// evaluator (extra/single_pair).
//
// The scenario is the ROADMAP's serving workload: a 10k-vertex web-style
// graph, point queries arriving for a skewed set of hot vertices. We
// measure
//   1. index build time (1 thread vs. hardware threads) and size,
//   2. storage backends on the saved v2 file: cold-open time and resident
//      bytes of the fully-verifying in-memory load vs. the mmap open
//      (which must not read the payload),
//   3. pair-query latency: exact single-pair vs. indexed (cold) vs.
//      indexed against a warm row cache,
//   4. single-source latency: legacy full-row scan vs. the inverted
//      position index on both backends — after asserting the inverted
//      rows are bitwise identical to the scan's,
//   5. single-source / top-k throughput cold vs. cached.
// The acceptance bar for this harness: cached indexed pair queries at
// least 10x faster than the exact single-pair path.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_env.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/index/segment_reader.h"
#include "simrank/common/rng.h"
#include "simrank/common/string_util.h"
#include "simrank/common/thread_pool.h"
#include "simrank/common/table_printer.h"
#include "simrank/common/timer.h"
#include "simrank/extra/single_pair.h"
#include "simrank/gen/generators.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/index/walk_store.h"

namespace simrank::bench {
namespace {

constexpr uint32_t kVertices = 10000;
constexpr uint32_t kHotVertices = 64;
constexpr uint32_t kPairQueries = 200;
/// The exact path costs seconds per query at K=8 even on this sparse
/// graph (its memoised pair space explodes with depth), so the baseline is
/// averaged over a small subsample of the workload.
constexpr uint32_t kExactQueries = 5;
constexpr uint32_t kTopK = 10;

DiGraph MakeGraph() {
  gen::WebGraphParams params;
  params.n = kVertices;
  params.out_degree = 3;
  params.copy_prob = 0.5;
  params.in_copy_prob = 0.3;
  params.seed = 7;
  auto graph = gen::WebGraph(params);
  OIPSIM_CHECK(graph.ok());
  return std::move(graph).value();
}

double BuildSeconds(const DiGraph& graph, WalkIndexOptions options,
                    uint32_t threads) {
  options.num_threads = threads;
  WallTimer timer;
  timer.Start();
  auto index = WalkIndex::Build(graph, options);
  timer.Stop();
  OIPSIM_CHECK(index.ok());
  return timer.ElapsedSeconds();
}

struct Workload {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  std::vector<VertexId> sources;
};

/// Queries concentrated on a hot set, as serving traffic is.
Workload MakeWorkload(uint32_t n) {
  Workload workload;
  Rng rng(99);
  std::vector<VertexId> hot;
  for (uint32_t i = 0; i < kHotVertices; ++i) {
    hot.push_back(static_cast<VertexId>(rng.NextUint64(n)));
  }
  for (uint32_t i = 0; i < kPairQueries; ++i) {
    workload.pairs.emplace_back(hot[rng.NextUint64(hot.size())],
                                static_cast<VertexId>(rng.NextUint64(n)));
  }
  workload.sources = hot;
  return workload;
}

}  // namespace

int Main() {
  std::printf("# index_throughput: n=%u web graph, %u hot vertices\n",
              kVertices, kHotVertices);
  DiGraph graph = MakeGraph();
  std::printf("# graph: %u vertices, %llu edges, avg in-degree %.2f\n",
              graph.n(), static_cast<unsigned long long>(graph.m()),
              graph.AverageInDegree());

  WalkIndexOptions options;
  options.num_fingerprints = 128;
  options.walk_length = 8;
  options.damping = 0.6;

  // --- build cost ---------------------------------------------------------
  const uint32_t hw = ThreadPool::ResolveThreadCount(0);
  const double serial_build = BuildSeconds(graph, options, 1);
  const double parallel_build =
      hw > 1 ? BuildSeconds(graph, options, hw) : serial_build;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());

  TablePrinter build_table({"phase", "threads", "time", "index MiB"});
  build_table.AddRow({"build", "1", FormatDuration(serial_build),
                      StrFormat("%.1f", index->SizeBytes() / 1048576.0)});
  build_table.AddRow({"build", StrFormat("%u", hw),
                      FormatDuration(parallel_build),
                      StrFormat("%.1f", index->SizeBytes() / 1048576.0)});
  std::printf("%s\n", build_table.Render().c_str());

  Workload workload = MakeWorkload(graph.n());

  // --- storage backends: cold open + resident set ------------------------
  // The acceptance bar of the v2 refactor: the mmap backend opens the
  // saved index without reading the payload, so its cold-open time and
  // resident bytes are both orders of magnitude below the in-memory load.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string index_path =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/oipsim_index_throughput.widx";
  WalkIndex::SaveOptions save_options;
  save_options.compress = true;
  OIPSIM_CHECK(index->Save(index_path, save_options).ok());
  auto file_info = ReadWalkIndexInfo(index_path);
  OIPSIM_CHECK(file_info.ok());

  WallTimer ram_open_timer;
  ram_open_timer.Start();
  auto ram_index = WalkIndex::Load(index_path);
  ram_open_timer.Stop();
  OIPSIM_CHECK(ram_index.ok());

  WalkIndex::LoadOptions mmap_options;
  mmap_options.use_mmap = true;
  WallTimer mmap_open_timer;
  mmap_open_timer.Start();
  auto mmap_index = WalkIndex::Load(index_path, mmap_options);
  mmap_open_timer.Stop();
  OIPSIM_CHECK(mmap_index.ok());

  // Resident deltas accounted through the shared MemoryTracker, like the
  // kernels' scratch accounting: both backends registered, peak = both
  // resident at once (a server warming a replacement index).
  MemoryTracker backend_memory;
  ScopedTrackedBytes ram_resident(&backend_memory, ram_index->SizeBytes());
  ScopedTrackedBytes mmap_resident(&backend_memory,
                                   mmap_index->SizeBytes());
  std::printf("# saved v2 index: %s file (%s segments, %s inverted), "
              "backend resident peak %s\n",
              FormatBytes(file_info->file_bytes).c_str(),
              FormatBytes(file_info->segment_bytes).c_str(),
              FormatBytes(file_info->inverted_bytes).c_str(),
              FormatBytes(backend_memory.peak_bytes()).c_str());
  TablePrinter backend_table(
      {"backend", "cold open", "resident", "resident/file"});
  backend_table.AddRow(
      {"in-memory (full verify)",
       FormatDuration(ram_open_timer.ElapsedSeconds()),
       FormatBytes(ram_index->SizeBytes()),
       StrFormat("%.1f%%", 100.0 * ram_index->SizeBytes() /
                               file_info->file_bytes)});
  backend_table.AddRow(
      {"mmap (header+directory)",
       FormatDuration(mmap_open_timer.ElapsedSeconds()),
       FormatBytes(mmap_index->SizeBytes()),
       StrFormat("%.1f%%", 100.0 * mmap_index->SizeBytes() /
                               file_info->file_bytes)});
  std::printf("%s\n", backend_table.Render().c_str());

  // --- single-source: full-row scan vs inverted index --------------------
  // Correctness gate before any comparison is printed: on every hot
  // vertex the inverted-index row must be bitwise identical to the legacy
  // scan, on both backends.
  for (VertexId v : workload.sources) {
    const auto scan_row = ram_index->EstimateSingleSourceScan(v);
    const auto inverted_row = ram_index->EstimateSingleSource(v);
    const auto mmap_row = mmap_index->EstimateSingleSource(v);
    OIPSIM_CHECK_MSG(
        scan_row.size() == inverted_row.size() &&
            std::memcmp(scan_row.data(), inverted_row.data(),
                        scan_row.size() * sizeof(double)) == 0,
        "inverted single-source row differs from the scan at vertex %u", v);
    OIPSIM_CHECK_MSG(
        scan_row.size() == mmap_row.size() &&
            std::memcmp(scan_row.data(), mmap_row.data(),
                        scan_row.size() * sizeof(double)) == 0,
        "mmap single-source row differs from the scan at vertex %u", v);
  }
  std::printf("# single-source rows bitwise identical: scan == inverted "
              "== mmap on all %zu hot vertices\n",
              workload.sources.size());

  double scan_seconds = 0.0, inverted_seconds = 0.0, mmap_seconds = 0.0;
  {
    WallTimer timer;
    timer.Start();
    for (VertexId v : workload.sources) {
      (void)ram_index->EstimateSingleSourceScan(v);
    }
    timer.Stop();
    scan_seconds = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    timer.Start();
    for (VertexId v : workload.sources) {
      (void)ram_index->EstimateSingleSource(v);
    }
    timer.Stop();
    inverted_seconds = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    timer.Start();
    for (VertexId v : workload.sources) {
      (void)mmap_index->EstimateSingleSource(v);
    }
    timer.Stop();
    mmap_seconds = timer.ElapsedSeconds();
  }
  const double queries = static_cast<double>(workload.sources.size());
  TablePrinter ss_table(
      {"single-source path", "time/query", "speedup vs scan"});
  ss_table.AddRow({"full-row scan (in-memory)",
                   FormatDuration(scan_seconds / queries), "1x"});
  ss_table.AddRow({"inverted index (in-memory)",
                   FormatDuration(inverted_seconds / queries),
                   StrFormat("%.3gx", scan_seconds / inverted_seconds)});
  ss_table.AddRow({"inverted index (mmap)",
                   FormatDuration(mmap_seconds / queries),
                   StrFormat("%.3gx", scan_seconds / mmap_seconds)});
  std::printf("%s\n", ss_table.Render().c_str());

  // --- exact single-pair baseline ----------------------------------------
  // Same accuracy target as the index: K iterations = walk_length.
  SimRankOptions exact_options;
  exact_options.damping = options.damping;
  exact_options.iterations = options.walk_length;
  WallTimer exact_timer;
  exact_timer.Start();
  double exact_sum = 0.0;
  for (uint32_t i = 0; i < kExactQueries; ++i) {
    const auto& [a, b] = workload.pairs[i];
    auto value = SinglePairSimRank(graph, a, b, exact_options);
    OIPSIM_CHECK(value.ok());
    exact_sum += *value;
  }
  exact_timer.Stop();
  const double exact_per_query =
      exact_timer.ElapsedSeconds() / kExactQueries;

  // --- indexed pair queries, cold cache ----------------------------------
  QueryEngineOptions engine_options;
  engine_options.num_threads = 1;
  double cold_sum = 0.0;
  WallTimer cold_timer;
  {
    QueryEngine cold_engine(*index, engine_options);
    cold_timer.Start();
    for (const auto& [a, b] : workload.pairs) {
      auto value = cold_engine.Pair(a, b);
      OIPSIM_CHECK(value.ok());
      cold_sum += *value;
    }
    cold_timer.Stop();
  }
  const double cold_per_query =
      cold_timer.ElapsedSeconds() / workload.pairs.size();

  // --- indexed pair queries against a warm row cache ---------------------
  QueryEngine warm_engine(*index, engine_options);
  for (VertexId v : workload.sources) {
    OIPSIM_CHECK(warm_engine.SingleSource(v).ok());
  }
  double warm_sum = 0.0;
  WallTimer warm_timer;
  warm_timer.Start();
  for (const auto& [a, b] : workload.pairs) {
    auto value = warm_engine.Pair(a, b);
    OIPSIM_CHECK(value.ok());
    warm_sum += *value;
  }
  warm_timer.Stop();
  const double warm_per_query =
      warm_timer.ElapsedSeconds() / workload.pairs.size();

  TablePrinter pair_table(
      {"pair path", "time/query", "queries/sec", "speedup vs exact"});
  auto add_pair_row = [&pair_table, exact_per_query](const char* label,
                                                     double per_query) {
    pair_table.AddRow({label, FormatDuration(per_query),
                       StrFormat("%.3g", 1.0 / per_query),
                       StrFormat("%.3gx", exact_per_query / per_query)});
  };
  add_pair_row("exact single-pair", exact_per_query);
  add_pair_row("index (cold cache)", cold_per_query);
  add_pair_row("index (warm cache)", warm_per_query);
  std::printf("%s\n", pair_table.Render().c_str());

  // --- single-source / top-k ---------------------------------------------
  QueryEngine topk_engine(*index, engine_options);
  WallTimer ss_cold_timer;
  ss_cold_timer.Start();
  for (VertexId v : workload.sources) {
    OIPSIM_CHECK(topk_engine.TopK(v, kTopK).ok());
  }
  ss_cold_timer.Stop();
  WallTimer ss_warm_timer;
  ss_warm_timer.Start();
  for (VertexId v : workload.sources) {
    OIPSIM_CHECK(topk_engine.TopK(v, kTopK).ok());
  }
  ss_warm_timer.Stop();
  const double ss_cold =
      ss_cold_timer.ElapsedSeconds() / workload.sources.size();
  const double ss_warm =
      ss_warm_timer.ElapsedSeconds() / workload.sources.size();

  TablePrinter topk_table({"top-k path", "time/query", "queries/sec"});
  topk_table.AddRow({"top-10 (cold cache)", FormatDuration(ss_cold),
                     StrFormat("%.0f", 1.0 / ss_cold)});
  topk_table.AddRow({"top-10 (warm cache)", FormatDuration(ss_warm),
                     StrFormat("%.0f", 1.0 / ss_warm)});
  std::printf("%s\n", topk_table.Render().c_str());

  // --- cold serve: page-cache drop to first answer ------------------------
  // The serve-path question a restart poses: with the index file evicted
  // (posix_fadvise DONTNEED), how long from open to the first single-source
  // answer, and through the whole hot sweep? Measured with the io_uring
  // batched reader on and off; the answers themselves are checked equal.
  auto drop_page_cache = [&index_path]() {
    const int fd = ::open(index_path.c_str(), O_RDONLY);
    OIPSIM_CHECK(fd >= 0);
    ::fsync(fd);  // dirty pages cannot be dropped
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  };
  struct ColdServe {
    double open_seconds = 0.0;
    double first_answer_seconds = 0.0;
    double sweep_seconds = 0.0;
    bool used_uring = false;
    double first_row_sum = 0.0;
  };
  auto cold_serve = [&](bool enable_uring) {
    SegmentReader::SetIoUringEnabled(enable_uring);
    drop_page_cache();
    ColdServe measured;
    WallTimer open_timer;
    open_timer.Start();
    auto cold_index = WalkIndex::Load(index_path, mmap_options);
    open_timer.Stop();
    OIPSIM_CHECK(cold_index.ok());
    measured.open_seconds = open_timer.ElapsedSeconds();
    measured.used_uring = cold_index->store().UsesIoUring();
    WallTimer first_timer;
    first_timer.Start();
    const auto first_row =
        cold_index->EstimateSingleSource(workload.sources[0]);
    first_timer.Stop();
    measured.first_answer_seconds = first_timer.ElapsedSeconds();
    for (double s : first_row) measured.first_row_sum += s;
    WallTimer sweep_timer;
    sweep_timer.Start();
    for (VertexId v : workload.sources) {
      (void)cold_index->EstimateSingleSource(v);
    }
    sweep_timer.Stop();
    measured.sweep_seconds = sweep_timer.ElapsedSeconds();
    return measured;
  };
  const bool uring_was_enabled = SegmentReader::IoUringEnabled();
  // Throwaway pass: the first drop-and-serve after saving the index pays
  // for straggling writeback/journal flushes, whichever backend runs it.
  (void)cold_serve(false);
  const ColdServe uring_serve = cold_serve(true);
  const ColdServe fallback_serve = cold_serve(false);
  SegmentReader::SetIoUringEnabled(uring_was_enabled);
  OIPSIM_CHECK_MSG(uring_serve.first_row_sum == fallback_serve.first_row_sum,
                   "cold first answers differ between read backends");
  TablePrinter cold_table({"cold serve (mmap, dropped cache)", "open",
                           "first answer", "hot sweep"});
  cold_table.AddRow(
      {uring_serve.used_uring ? "io_uring batched reads"
                              : "io_uring requested (unavailable)",
       FormatDuration(uring_serve.open_seconds),
       FormatDuration(uring_serve.first_answer_seconds),
       FormatDuration(uring_serve.sweep_seconds)});
  cold_table.AddRow({"fadvise fallback",
                     FormatDuration(fallback_serve.open_seconds),
                     FormatDuration(fallback_serve.first_answer_seconds),
                     FormatDuration(fallback_serve.sweep_seconds)});
  std::printf("%s\n", cold_table.Render().c_str());

  // Machine-readable serve summary for CI trend lines.
  {
    JsonWriter json;
    json.BeginObject();
    json.Key("bench").String("index_throughput");
    WriteBenchEnvironment(json, uring_serve.used_uring);
    json.Key("io_uring_build_support")
        .Bool(SegmentReader::BuildSupportsIoUring());
    json.Key("cold_serve").BeginObject();
    auto emit_cold = [&json](const char* key, const ColdServe& serve) {
      json.Key(key).BeginObject();
      json.Key("open_seconds").Double(serve.open_seconds);
      json.Key("first_answer_seconds").Double(serve.first_answer_seconds);
      json.Key("hot_sweep_seconds").Double(serve.sweep_seconds);
      json.EndObject();
    };
    emit_cold("io_uring", uring_serve);
    emit_cold("fallback", fallback_serve);
    json.EndObject();
    json.Key("single_source_seconds_per_query").BeginObject();
    json.Key("scan_in_memory").Double(scan_seconds / queries);
    json.Key("inverted_in_memory").Double(inverted_seconds / queries);
    json.Key("inverted_mmap").Double(mmap_seconds / queries);
    json.EndObject();
    json.Key("pair_seconds_per_query").BeginObject();
    json.Key("exact").Double(exact_per_query);
    json.Key("index_cold").Double(cold_per_query);
    json.Key("index_warm").Double(warm_per_query);
    json.EndObject();
    json.Key("topk_seconds_per_query").BeginObject();
    json.Key("cold").Double(ss_cold);
    json.Key("warm").Double(ss_warm);
    json.EndObject();
    json.EndObject();
    std::FILE* out = std::fopen("BENCH_serve.json", "w");
    OIPSIM_CHECK(out != nullptr);
    std::fprintf(out, "%s\n", json.str().c_str());
    std::fclose(out);
    std::printf("# wrote BENCH_serve.json\n");
  }

  const auto stats = warm_engine.cache_stats();
  std::printf("# warm cache: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions));
  // Checksums keep the optimizer honest and double as sanity checks: the
  // cold and warm paths answered the same 200 queries identically, and the
  // index tracks the exact scores on the baseline subsample.
  double index_subsample_sum = 0.0;
  for (uint32_t i = 0; i < kExactQueries; ++i) {
    index_subsample_sum +=
        index->EstimatePair(workload.pairs[i].first,
                            workload.pairs[i].second);
  }
  std::printf("# checksum: cold=%.6f warm=%.6f | subsample exact=%.6f "
              "index=%.6f\n",
              cold_sum, warm_sum, exact_sum, index_subsample_sum);
  const double speedup = exact_per_query / warm_per_query;
  std::printf("cached indexed pair queries: %.1fx the exact single-pair "
              "path (target >= 10x)\n",
              speedup);
  return speedup >= 10.0 ? 0 : 1;
}

}  // namespace simrank::bench

int main() { return simrank::bench::Main(); }
