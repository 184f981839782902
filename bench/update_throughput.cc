// Dynamic-update benchmark: local walk patching vs. full index rebuild.
//
// The scenario extends bench/index_throughput's: the same 10k-vertex
// web-style graph and walk index, now hit by a stream of small edge-update
// batches. For each batch we measure
//   1. the updater's patch latency (discovery through the inverted index,
//      suffix re-simulation, overlay publish — the WAL append runs
//      unsynced so the number is the pure patch path), and
//   2. a from-scratch WalkIndex::Build on the updated graph, the cost the
//      patch replaces.
// Before any timing prints, an equivalence gate asserts the patched index
// is *bitwise identical* to the rebuild: sampled pair estimates and full
// single-source rows compare exactly, and Compact()'s output file is
// byte-for-byte equal to a fresh Save of the rebuilt index — for raw and
// compressed encodings both.
//
// The acceptance bar for this harness: single-edge updates (the
// canonical streaming case) at least 50x faster than the rebuild;
// larger batches print as ungated context rows showing how the per-batch
// fixed costs amortize while the patched-walk count grows.
//
// Two further phases exercise the streaming machinery:
//   - thread scaling: the same recorded batch stream patched serially and
//     at 2/4/8 workers; compacted files must be byte-identical across
//     thread counts (always), and with >= 8 hardware threads the 8-worker
//     stream must run >= 4x faster than serial (gated);
//   - sustained mixed load: a writer streams batches while reader threads
//     query, with a small --overlay-budget equivalent armed so background
//     auto-compactions fire mid-stream. Reports update QPS, patch and
//     under-load query latency quantiles and the compaction pause, then
//     gates on bitwise equivalence against a rebuild of the final graph.
// Key figures land in BENCH_update.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_env.h"
#include "simrank/common/json_writer.h"
#include "simrank/common/rng.h"
#include "simrank/common/string_util.h"
#include "simrank/common/table_printer.h"
#include "simrank/common/timer.h"
#include "simrank/gen/generators.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/walk_index.h"

namespace simrank::bench {
namespace {

constexpr uint32_t kVertices = 10000;
/// The gated scenario: single-edge batches, the canonical streaming case.
constexpr uint32_t kGatedBatches = 4;
/// Ungated context rows showing how patch cost amortizes with batch size.
constexpr uint32_t kContextBatchEdges[] = {8, 32};
constexpr uint32_t kSampleRows = 16;
constexpr uint32_t kSamplePairs = 256;
constexpr double kRequiredSpeedup = 50.0;
/// Thread-scaling phase: recorded stream of this many single-edge batches,
/// replayed per worker count.
constexpr uint32_t kScalingBatches = 32;
constexpr uint32_t kScalingThreadCounts[] = {1, 2, 4, 8};
/// Gate for the 8-worker replay, applied only with >= 8 hardware threads
/// (the byte-identity check across counts always applies).
constexpr double kRequiredParallelSpeedup = 4.0;
/// Sustained phase: writer batches and reader threads.
constexpr uint32_t kSustainedBatches = 120;
constexpr uint32_t kSustainedBatchEdges = 4;
constexpr uint32_t kSustainedReaders = 2;
/// Overlay budget small enough that the sustained stream trips background
/// auto-compaction several times.
constexpr uint64_t kSustainedOverlayBudget = 192 * 1024;

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

/// A batch of `edges` updates against `graph`: half fresh insertions,
/// half deletions of existing edges (a single-edge batch alternates).
std::vector<EdgeUpdate> MakeBatch(const DiGraph& graph, Rng& rng,
                                  uint32_t edges) {
  std::vector<EdgeUpdate> updates;
  while (updates.size() < (edges + 1) / 2) {
    const auto src = static_cast<VertexId>(rng.NextUint64(graph.n()));
    const auto dst = static_cast<VertexId>(rng.NextUint64(graph.n()));
    if (graph.HasEdge(src, dst)) continue;
    bool duplicate = false;
    for (const EdgeUpdate& u : updates) {
      duplicate = duplicate || (u.src == src && u.dst == dst);
    }
    if (duplicate) continue;
    updates.push_back(EdgeUpdate{EdgeUpdate::Op::kInsert, src, dst});
  }
  while (updates.size() < edges) {
    const auto src = static_cast<VertexId>(rng.NextUint64(graph.n()));
    const auto out = graph.OutNeighbors(src);
    if (out.empty()) continue;
    const VertexId dst = out[rng.NextUint64(out.size())];
    bool duplicate = false;
    for (const EdgeUpdate& u : updates) {
      duplicate = duplicate || (u.src == src && u.dst == dst);
    }
    if (duplicate) continue;
    updates.push_back(EdgeUpdate{EdgeUpdate::Op::kDelete, src, dst});
  }
  return updates;
}

void CheckBitwiseRow(const std::vector<double>& patched,
                     const std::vector<double>& rebuilt, VertexId v) {
  OIPSIM_CHECK_MSG(patched.size() == rebuilt.size(),
                   "row of %u: size mismatch", v);
  OIPSIM_CHECK_MSG(std::memcmp(patched.data(), rebuilt.data(),
                               patched.size() * sizeof(double)) == 0,
                   "row of %u: patched index diverges from rebuild", v);
}

std::vector<uint8_t> ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  OIPSIM_CHECK_MSG(f != nullptr, "cannot open %s", path.c_str());
  std::vector<uint8_t> bytes;
  char chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(f);
  return bytes;
}

/// cmp-style byte equality of the compacted file against a fresh Save of
/// the rebuilt index, for one encoding.
void CheckCompactEquivalence(IndexUpdater& updater,
                             const WalkIndex& rebuilt, bool compress,
                             const std::string& dir) {
  const std::string compacted =
      dir + (compress ? "/compacted-c.widx" : "/compacted.widx");
  const std::string fresh = dir + (compress ? "/fresh-c.widx" : "/fresh.widx");
  WalkIndex::SaveOptions save;
  save.compress = compress;
  OIPSIM_CHECK(updater.Compact(compacted, save).ok());
  OIPSIM_CHECK(rebuilt.Save(fresh, save).ok());
  const std::vector<uint8_t> a = ReadFileOrDie(compacted);
  const std::vector<uint8_t> b = ReadFileOrDie(fresh);
  OIPSIM_CHECK_MSG(a.size() == b.size() &&
                       std::memcmp(a.data(), b.data(), a.size()) == 0,
                   "compacted %s index is not byte-identical to a fresh "
                   "build on the updated graph",
                   compress ? "compressed" : "raw");
}

/// Pre-records a deterministic stream of batches: each generated against
/// the graph as evolved by its predecessors, so every replay (whatever
/// the worker count) sees the identical valid stream.
std::vector<std::vector<EdgeUpdate>> RecordBatchStream(const DiGraph& start,
                                                       uint64_t seed,
                                                       uint32_t batches,
                                                       uint32_t edges) {
  std::vector<std::vector<EdgeUpdate>> stream;
  stream.reserve(batches);
  Rng rng(seed);
  DiGraph current = start;
  for (uint32_t i = 0; i < batches; ++i) {
    stream.push_back(MakeBatch(current, rng, edges));
    auto next = ApplyEdgeUpdates(current, stream.back());
    OIPSIM_CHECK(next.ok());
    current = std::move(*next);
  }
  return stream;
}

struct ScalingResult {
  uint32_t threads = 0;
  double seconds = 0;
};

/// Replays the recorded stream at each worker count over a fresh copy of
/// the base index; compacted output must be byte-identical across counts.
/// Returns per-count wall time for the whole stream.
std::vector<ScalingResult> RunThreadScaling(
    const DiGraph& graph, const WalkIndexOptions& options,
    const std::vector<std::vector<EdgeUpdate>>& stream,
    const std::string& dir) {
  std::vector<ScalingResult> results;
  std::vector<uint8_t> reference_bytes;
  for (const uint32_t threads : kScalingThreadCounts) {
    auto index = WalkIndex::Build(graph, options);
    OIPSIM_CHECK(index.ok());
    const std::string wal_path =
        dir + StrFormat("/update_scaling_%u.wal", threads);
    std::remove(wal_path.c_str());
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = wal_path;
    updater_options.sync_wal = false;  // the pure patch path, as above
    updater_options.num_threads = threads;
    auto updater = IndexUpdater::Open(*index, graph, updater_options);
    OIPSIM_CHECK_MSG(updater.ok(), "%s",
                     updater.status().ToString().c_str());

    WallTimer timer;
    timer.Start();
    for (const std::vector<EdgeUpdate>& batch : stream) {
      OIPSIM_CHECK((*updater)->ApplyUpdates(batch).ok());
    }
    timer.Stop();
    results.push_back(ScalingResult{threads, timer.ElapsedSeconds()});

    // The whole point of the determinism contract: the compacted file —
    // base + every patch the stream produced — is byte-identical for any
    // worker count.
    const std::string compacted =
        dir + StrFormat("/update_scaling_%u.widx", threads);
    WalkIndex::SaveOptions save;
    OIPSIM_CHECK((*updater)->Compact(compacted, save).ok());
    std::vector<uint8_t> bytes = ReadFileOrDie(compacted);
    std::remove(compacted.c_str());
    std::remove(wal_path.c_str());
    if (reference_bytes.empty()) {
      reference_bytes = std::move(bytes);
    } else {
      OIPSIM_CHECK_MSG(
          bytes.size() == reference_bytes.size() &&
              std::memcmp(bytes.data(), reference_bytes.data(),
                          bytes.size()) == 0,
          "%u-thread patching diverges bytewise from serial", threads);
    }
  }
  return results;
}

struct SustainedResult {
  double update_qps = 0;
  double edge_qps = 0;
  uint64_t patch_p50_us = 0;
  uint64_t patch_p99_us = 0;
  uint64_t query_p99_idle_us = 0;
  uint64_t query_p99_under_load_us = 0;
  uint64_t auto_compactions = 0;
  double compaction_pause_ms = 0;
  double compaction_total_ms = 0;
};

/// Mixed read/write phase: readers hammer pair and single-source queries
/// while a writer streams batches with a small overlay budget armed, so
/// background auto-compactions fire mid-stream. Queries never block on
/// updates or compactions; the final state must be bitwise equal to a
/// rebuild of the final graph.
SustainedResult RunSustained(const DiGraph& graph,
                             const WalkIndexOptions& options,
                             const std::string& dir) {
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());
  const std::string wal_path = dir + "/update_sustained.wal";
  const std::string compact_path = dir + "/update_sustained.widx";
  const std::string compact_graph_path = dir + "/update_sustained.graph";
  std::remove(wal_path.c_str());
  std::remove(compact_path.c_str());
  std::remove(compact_graph_path.c_str());
  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  updater_options.sync_wal = false;
  updater_options.num_threads = 0;  // hardware concurrency
  updater_options.overlay_budget_bytes = kSustainedOverlayBudget;
  updater_options.auto_compact_path = compact_path;
  updater_options.auto_compact_graph_path = compact_graph_path;
  auto updater = IndexUpdater::Open(*index, graph, updater_options);
  OIPSIM_CHECK_MSG(updater.ok(), "%s",
                   updater.status().ToString().c_str());

  // Every latency sample is kept (per reader, merged after the join), so
  // the reported percentiles are exact.
  std::vector<std::vector<uint64_t>> query_idle(kSustainedReaders);
  std::vector<std::vector<uint64_t>> query_loaded(kSustainedReaders);
  std::vector<uint64_t> patch;

  std::atomic<bool> writing{false};
  std::atomic<bool> done{false};
  auto reader = [&](uint32_t id) {
    Rng rng(1000 + id);
    while (!done.load(std::memory_order_relaxed)) {
      const auto a = static_cast<VertexId>(rng.NextUint64(graph.n()));
      const auto b = static_cast<VertexId>(rng.NextUint64(graph.n()));
      WallTimer timer;
      timer.Start();
      // The same mix the serve path is dominated by: mostly pairs, an
      // occasional full row.
      if (rng.NextUint64(16) == 0) {
        volatile double sink = index->EstimateSingleSource(a)[b];
        (void)sink;
      } else {
        volatile double sink = index->EstimatePair(a, b);
        (void)sink;
      }
      timer.Stop();
      const auto micros =
          static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
      (writing.load(std::memory_order_relaxed) ? query_loaded : query_idle)[id]
          .push_back(micros);
    }
  };
  std::vector<std::thread> readers;
  readers.reserve(kSustainedReaders);
  for (uint32_t i = 0; i < kSustainedReaders; ++i) {
    readers.emplace_back(reader, i);
  }
  // A short idle window first: the baseline the under-load p99 is
  // compared against.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  Rng rng(777);
  writing.store(true, std::memory_order_relaxed);
  WallTimer write_timer;
  write_timer.Start();
  for (uint32_t i = 0; i < kSustainedBatches; ++i) {
    const DiGraph current = (*updater)->CurrentGraph();
    const std::vector<EdgeUpdate> batch =
        MakeBatch(current, rng, kSustainedBatchEdges);
    WallTimer timer;
    timer.Start();
    OIPSIM_CHECK((*updater)->ApplyUpdates(batch).ok());
    timer.Stop();
    patch.push_back(static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
  }
  write_timer.Stop();
  writing.store(false, std::memory_order_relaxed);
  (*updater)->DrainBackgroundCompaction();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  const IndexUpdateStats stats = (*updater)->stats();
  OIPSIM_CHECK_MSG(stats.auto_compactions > 0,
                   "sustained stream never tripped the %llu-byte overlay "
                   "budget; the phase is not exercising auto-compaction",
                   static_cast<unsigned long long>(kSustainedOverlayBudget));
  OIPSIM_CHECK_MSG(stats.auto_compact_failures == 0,
                   "background auto-compaction failed mid-stream");

  // Equivalence gate: after the stream (and however many background
  // compactions landed mid-flight), the served state must still be
  // bitwise a rebuild of the final graph.
  auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
  OIPSIM_CHECK(rebuilt.ok());
  Rng sample_rng(99);
  for (uint32_t i = 0; i < kSampleRows; ++i) {
    const auto v = static_cast<VertexId>(sample_rng.NextUint64(graph.n()));
    CheckBitwiseRow(index->EstimateSingleSource(v),
                    rebuilt->EstimateSingleSource(v), v);
  }

  SustainedResult result;
  result.update_qps = kSustainedBatches / write_timer.ElapsedSeconds();
  result.edge_qps = result.update_qps * kSustainedBatchEdges;
  auto merged = [](const std::vector<std::vector<uint64_t>>& per_reader) {
    std::vector<uint64_t> all;
    for (const std::vector<uint64_t>& samples : per_reader) {
      all.insert(all.end(), samples.begin(), samples.end());
    }
    return all;
  };
  result.patch_p50_us = NearestRank(patch, 0.5);
  result.patch_p99_us = NearestRank(patch, 0.99);
  result.query_p99_idle_us = NearestRank(merged(query_idle), 0.99);
  result.query_p99_under_load_us = NearestRank(merged(query_loaded), 0.99);
  result.auto_compactions = stats.auto_compactions;
  result.compaction_pause_ms = stats.last_compaction_pause_micros / 1e3;
  result.compaction_total_ms = stats.last_compaction_micros / 1e3;

  std::remove(wal_path.c_str());
  std::remove(compact_path.c_str());
  std::remove(compact_graph_path.c_str());
  return result;
}

}  // namespace

int Main() {
  std::printf("# update_throughput: n=%u web graph, %u single-edge "
              "batches (gated) + larger context batches\n",
              kVertices, kGatedBatches);
  DiGraph graph = MakeGraph();
  std::printf("# graph: %u vertices, %llu edges\n", graph.n(),
              static_cast<unsigned long long>(graph.m()));

  WalkIndexOptions options;
  options.num_fingerprints = 256;
  options.walk_length = 12;
  options.damping = 0.6;
  auto index = WalkIndex::Build(graph, options);
  OIPSIM_CHECK(index.ok());

  const char* tmpdir_env = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmpdir_env != nullptr ? tmpdir_env : "/tmp");
  const std::string wal_path = dir + "/update_throughput.wal";
  std::remove(wal_path.c_str());

  IndexUpdaterOptions updater_options;
  updater_options.wal_path = wal_path;
  // The pure patch path; a production updater fsyncs (see README for the
  // durability story), a rebuild does not even write a file.
  updater_options.sync_wal = false;
  auto updater = IndexUpdater::Open(*index, graph, updater_options);
  OIPSIM_CHECK_MSG(updater.ok(), "%s",
                   updater.status().ToString().c_str());

  Rng rng(4242);
  TablePrinter table({"batch", "edges", "walks patched", "patch time",
                      "rebuild time", "speedup"});
  double total_patch = 0;
  double total_rebuild = 0;
  uint32_t batch_number = 0;
  // One measured batch: patch, rebuild, equivalence gate, table row.
  // Returns the speedup.
  auto run_batch = [&](uint32_t edges, bool last) {
    const DiGraph current = (*updater)->CurrentGraph();
    const std::vector<EdgeUpdate> updates = MakeBatch(current, rng, edges);
    const IndexUpdateStats before = (*updater)->stats();

    WallTimer patch_timer;
    patch_timer.Start();
    OIPSIM_CHECK((*updater)->ApplyUpdates(updates).ok());
    patch_timer.Stop();

    // The cost the patch replaces: a full rebuild on the updated graph.
    WallTimer rebuild_timer;
    rebuild_timer.Start();
    auto rebuilt = WalkIndex::Build((*updater)->CurrentGraph(), options);
    rebuild_timer.Stop();
    OIPSIM_CHECK(rebuilt.ok());

    // --- equivalence gate, before any timing prints ---------------------
    ++batch_number;
    Rng sample_rng(batch_number);
    for (uint32_t i = 0; i < kSamplePairs; ++i) {
      const auto a = static_cast<VertexId>(sample_rng.NextUint64(graph.n()));
      const auto b = static_cast<VertexId>(sample_rng.NextUint64(graph.n()));
      const double patched = index->EstimatePair(a, b);
      const double fresh = rebuilt->EstimatePair(a, b);
      OIPSIM_CHECK_MSG(std::memcmp(&patched, &fresh, sizeof(double)) == 0,
                       "pair (%u, %u): patched %.17g != rebuilt %.17g", a,
                       b, patched, fresh);
    }
    // Rows for every vertex the batch touched, plus random ones.
    std::vector<VertexId> rows;
    for (const EdgeUpdate& update : updates) rows.push_back(update.dst);
    for (uint32_t i = 0; i < kSampleRows; ++i) {
      rows.push_back(static_cast<VertexId>(sample_rng.NextUint64(graph.n())));
    }
    for (const VertexId v : rows) {
      CheckBitwiseRow(index->EstimateSingleSource(v),
                      rebuilt->EstimateSingleSource(v), v);
    }

    const IndexUpdateStats after = (*updater)->stats();
    const double speedup =
        rebuild_timer.ElapsedSeconds() / patch_timer.ElapsedSeconds();
    table.AddRow(
        {StrFormat("%u", batch_number), StrFormat("%u", edges),
         FormatCount(after.walks_resimulated - before.walks_resimulated),
         FormatDuration(patch_timer.ElapsedSeconds()),
         FormatDuration(rebuild_timer.ElapsedSeconds()),
         StrFormat("%.0fx", speedup)});

    if (last) {
      // Compact must reproduce the rebuild byte for byte, both encodings.
      CheckCompactEquivalence(**updater, *rebuilt, /*compress=*/false, dir);
      CheckCompactEquivalence(**updater, *rebuilt, /*compress=*/true, dir);
      std::printf("# equivalence gate: %u sampled pairs, %zu rows per "
                  "batch bitwise-equal to rebuild; compacted files "
                  "byte-identical (raw + compressed)\n",
                  kSamplePairs, rows.size());
    }
    return std::pair(patch_timer.ElapsedSeconds(),
                     rebuild_timer.ElapsedSeconds());
  };

  for (uint32_t batch = 0; batch < kGatedBatches; ++batch) {
    const auto [patch_seconds, rebuild_seconds] =
        run_batch(/*edges=*/1, /*last=*/false);
    total_patch += patch_seconds;
    total_rebuild += rebuild_seconds;
  }
  // Context rows: larger batches amortize the per-batch fixed costs but
  // patch more walks; they ride the same equivalence gate, only the 50x
  // bar is specific to the single-edge stream.
  const size_t num_context = sizeof(kContextBatchEdges) / sizeof(uint32_t);
  for (size_t i = 0; i < num_context; ++i) {
    run_batch(kContextBatchEdges[i], /*last=*/i + 1 == num_context);
  }
  std::printf("%s\n", table.Render().c_str());

  const double aggregate = total_rebuild / total_patch;
  std::printf("gated single-edge batches: patch %.3f ms vs rebuild "
              "%.1f ms per batch (%.0fx)\n",
              total_patch * 1e3 / kGatedBatches,
              total_rebuild * 1e3 / kGatedBatches, aggregate);
  OIPSIM_CHECK_MSG(aggregate >= kRequiredSpeedup,
                   "small-batch updates are only %.1fx faster than "
                   "rebuild; the bar is %.0fx",
                   aggregate, kRequiredSpeedup);
  std::printf("acceptance: %.0fx >= %.0fx required speedup\n", aggregate,
              kRequiredSpeedup);

  // --- thread scaling ----------------------------------------------------
  std::printf("\n# thread scaling: %u single-edge batches per worker "
              "count (compacted output byte-identical across counts)\n",
              kScalingBatches);
  const std::vector<std::vector<EdgeUpdate>> stream =
      RecordBatchStream(graph, /*seed=*/5150, kScalingBatches, /*edges=*/1);
  const std::vector<ScalingResult> scaling =
      RunThreadScaling(graph, options, stream, dir);
  TablePrinter scaling_table({"threads", "stream time", "vs serial"});
  for (const ScalingResult& r : scaling) {
    scaling_table.AddRow({StrFormat("%u", r.threads),
                          FormatDuration(r.seconds),
                          StrFormat("%.2fx", scaling[0].seconds / r.seconds)});
  }
  std::printf("%s\n", scaling_table.Render().c_str());
  const double parallel_speedup =
      scaling.front().seconds / scaling.back().seconds;
  const uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware >= 8) {
    OIPSIM_CHECK_MSG(parallel_speedup >= kRequiredParallelSpeedup,
                     "8-worker patching is only %.2fx serial on a "
                     "%u-thread machine; the bar is %.1fx",
                     parallel_speedup, hardware, kRequiredParallelSpeedup);
    std::printf("acceptance: %.2fx >= %.1fx at 8 workers\n",
                parallel_speedup, kRequiredParallelSpeedup);
  } else {
    std::printf("# %u hardware thread(s): the %.1fx-at-8-workers gate "
                "needs >= 8; byte-identity across counts still checked\n",
                hardware, kRequiredParallelSpeedup);
  }

  // --- sustained mixed read/write ----------------------------------------
  std::printf("\n# sustained: %u batches of %u edges vs %u readers, "
              "overlay budget %llu bytes (background auto-compaction)\n",
              kSustainedBatches, kSustainedBatchEdges, kSustainedReaders,
              static_cast<unsigned long long>(kSustainedOverlayBudget));
  const SustainedResult sustained = RunSustained(graph, options, dir);
  std::printf(
      "updates: %.0f batches/s (%.0f edges/s), patch p50 %llu us, "
      "p99 %llu us\n",
      sustained.update_qps, sustained.edge_qps,
      static_cast<unsigned long long>(sustained.patch_p50_us),
      static_cast<unsigned long long>(sustained.patch_p99_us));
  std::printf(
      "queries: p99 %llu us idle -> %llu us under write load\n",
      static_cast<unsigned long long>(sustained.query_p99_idle_us),
      static_cast<unsigned long long>(sustained.query_p99_under_load_us));
  std::printf(
      "auto-compactions: %llu fired; last took %.1f ms total, paused "
      "updates %.2f ms; final state bitwise-equal to rebuild\n",
      static_cast<unsigned long long>(sustained.auto_compactions),
      sustained.compaction_total_ms, sustained.compaction_pause_ms);

  {
    JsonWriter json;
    json.BeginObject();
    json.Key("bench").String("update_throughput");
    WriteBenchEnvironment(json);
    json.Key("single_edge").BeginObject();
    json.Key("patch_ms_per_batch").Double(total_patch * 1e3 /
                                          kGatedBatches);
    json.Key("rebuild_ms_per_batch").Double(total_rebuild * 1e3 /
                                            kGatedBatches);
    json.Key("speedup_vs_rebuild").Double(aggregate);
    json.EndObject();
    json.Key("thread_scaling").BeginObject();
    for (const ScalingResult& r : scaling) {
      json.Key(StrFormat("stream_seconds_%ut", r.threads).c_str())
          .Double(r.seconds);
    }
    json.Key("speedup_8t_vs_serial").Double(parallel_speedup);
    json.EndObject();
    json.Key("sustained").BeginObject();
    json.Key("update_batches_per_second").Double(sustained.update_qps);
    json.Key("update_edges_per_second").Double(sustained.edge_qps);
    json.Key("patch_p50_us").Uint(sustained.patch_p50_us);
    json.Key("patch_p99_us").Uint(sustained.patch_p99_us);
    json.Key("query_p99_idle_us").Uint(sustained.query_p99_idle_us);
    json.Key("query_p99_under_load_us")
        .Uint(sustained.query_p99_under_load_us);
    json.Key("auto_compactions").Uint(sustained.auto_compactions);
    json.Key("compaction_pause_ms").Double(sustained.compaction_pause_ms);
    json.Key("compaction_total_ms").Double(sustained.compaction_total_ms);
    json.EndObject();
    json.EndObject();
    std::FILE* out = std::fopen("BENCH_update.json", "w");
    OIPSIM_CHECK(out != nullptr);
    std::fprintf(out, "%s\n", json.str().c_str());
    std::fclose(out);
    std::printf("# wrote BENCH_update.json\n");
  }
  return 0;
}

}  // namespace simrank::bench

int main() { return simrank::bench::Main(); }
