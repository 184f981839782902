// simrank_cli — command-line SimRank over an edge-list file.
//
//   simrank_cli GRAPH [flags]                     all-pairs SimRank
//   simrank_cli build-index GRAPH --index=PATH [flags]
//   simrank_cli query GRAPH --index=PATH (--query=V | --pair=A,B) [flags]
//   simrank_cli index-info INDEX
//   simrank_cli update GRAPH --index=PATH --wal=WAL --updates=FILE [flags]
//   simrank_cli compact GRAPH --index=PATH --wal=WAL --out=NEW.widx [flags]
//   simrank_cli shard-plan GRAPH --index=PATH --shards=N --out-dir=DIR
//
// Each mode has its own flag table (`--help` after the mode lists it); a
// flag that belongs to another mode is an unknown flag here. The all-pairs
// mode runs the paper's engines (--algo values come from the algorithm
// registry in core/engine.h); the index modes build and serve the walk
// index; update/compact patch it (see src/simrank/index/index_updater.h).
//
// `shard-plan` splits a v2 index into per-shard index files (one per
// contiguous vertex range), a shared binary graph copy and the plan file
// that binds them — byte-deterministic, so re-splitting reproduces the
// same shard files. simrank_server serves one shard with
// --shard-plan/--shard-id; simrank_router fans queries back out.
//
// `update` appends an edge batch ("+ SRC DST" / "- SRC DST" per line) to
// the WAL and reports the local patch it induces; GRAPH is the *base*
// graph the index was built from (any earlier WAL batches are replayed
// first). --write-graph emits the updated graph in the binary format,
// which round-trips ids exactly — `build-index` on it reproduces the
// compacted index byte for byte. `compact` replays the WAL and writes
// base+overlay as a fresh v2 file, byte-identical to `build-index` on the
// updated graph; --reset-wal then re-binds the WAL to the compacted
// index.
//
// GRAPH is a whitespace edge list ("src dst" per line, '#'/'%' comments
// allowed, SNAP-style) or a binary graph written by --write-graph.
// Without --query, the all-pairs mode prints run statistics only; with
// --query, the top-k most similar vertices. With --csv, it writes the
// query row (or, if no query, the full score matrix for graphs up to 2000
// vertices) as CSV.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/shard_split.h"
#include "simrank/common/csv_writer.h"
#include "simrank/common/flags.h"
#include "simrank/common/string_util.h"
#include "simrank/common/table_printer.h"
#include "simrank/common/thread_pool.h"
#include "simrank/common/timer.h"
#include "simrank/core/engine.h"
#include "simrank/extra/topk.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/edge_update.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/query_engine.h"
#include "simrank/index/walk_index.h"
#include "simrank/index/walk_store.h"

namespace {

using simrank::FlagSet;
using simrank::Status;

/// The model knobs the all-pairs engines and build-index share.
void AddModelFlags(FlagSet& flags, simrank::SimRankOptions* model) {
  flags.Add("--damping", "C", &model->damping, "SimRank damping factor")
      .Add("--seed", "S", &model->seed, "root seed of the randomized parts");
}

simrank::Result<simrank::DiGraph> LoadGraph(const std::string& path) {
  // Sniffs the binary magic, so `update --write-graph` output feeds
  // straight back into any subcommand.
  auto graph = simrank::ReadGraphAuto(path);
  if (graph.ok()) {
    std::fprintf(stderr,
                 "graph: %u vertices, %llu edges, avg in-degree %.2f\n",
                 graph->n(), static_cast<unsigned long long>(graph->m()),
                 graph->AverageInDegree());
  } else {
    std::fprintf(stderr, "cannot load graph: %s\n",
                 graph.status().ToString().c_str());
  }
  return graph;
}

int RunBuildIndex(int argc, char** argv) {
  std::string graph_path;
  std::string index_path;
  simrank::SimRankOptions model;
  simrank::WalkIndexOptions index_options;
  double eps = 0.0;
  simrank::WalkIndex::SaveOptions save_options;
  FlagSet flags("simrank_cli build-index",
                "Builds the walk index of GRAPH and writes it as a v2 file.");
  flags.Positional("GRAPH", &graph_path)
      .Add("--index", "PATH", &index_path, "where to write the index")
      .Required();
  AddModelFlags(flags, &model);
  flags
      .Add("--fingerprints", "R", &index_options.num_fingerprints,
           "independent walks per vertex")
      .Add("--walk-length", "L", &index_options.walk_length,
           "walk truncation length")
      .Add("--eps", "E", &eps,
           "derive --fingerprints and --walk-length from this accuracy "
           "target (delta 0.01) instead")
      .Add("--threads", "T", &index_options.num_threads,
           "build threads; 0 = hardware concurrency (the file is identical "
           "for any value)")
      .Custom("--format", "v2",
              "index file format; v2 is the only writable one",
              [](std::string_view format) {
                // The flag exists so scripts can pin the format and get a
                // clear error if they ever ask for the retired v1.
                if (format == "v2") return Status::OK();
                return Status::InvalidArgument(
                    "unknown index format; supported: v2 (v1 flat indexes "
                    "are write-obsolete, see README)");
              })
      .Switch("--compress", &save_options.compress,
              "delta+varint-compress the walk segments");
  if (auto code = flags.ParseCommandLine(argc, argv, 2)) return *code;
  const bool from_accuracy = flags.seen("--eps");
  if (from_accuracy &&
      (flags.seen("--fingerprints") || flags.seen("--walk-length"))) {
    return flags.Fail(
        "--eps derives --fingerprints and --walk-length from the accuracy "
        "target; give either --eps or the raw knobs, not both");
  }
  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) return 1;
  if (from_accuracy) {
    const uint32_t threads = index_options.num_threads;
    index_options =
        simrank::WalkIndexOptions::FromAccuracy(eps, /*delta=*/0.01, model);
    index_options.num_threads = threads;
    if (!index_options.Valid()) {
      std::fprintf(stderr, "--eps=%g is not a provisionable accuracy "
                   "target (need 0 < eps < 1, and the derived fingerprint "
                   "count and walk length must be representable)\n",
                   eps);
      return 1;
    }
    std::fprintf(stderr,
                 "accuracy target eps=%g (delta=0.01): %u fingerprints, "
                 "walk length %u\n",
                 eps, index_options.num_fingerprints,
                 index_options.walk_length);
  } else {
    index_options.damping = model.damping;
    index_options.seed = model.seed;
  }
  simrank::WallTimer timer;
  timer.Start();
  auto index = simrank::WalkIndex::Build(*graph, index_options);
  timer.Stop();
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  auto status = index->Save(index_path, save_options);
  if (!status.ok()) {
    std::fprintf(stderr, "index save failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "built index: %u fingerprints x %u steps, %.1f MiB "
               "resident, %s build, wrote %s (v2%s)\n",
               index_options.num_fingerprints, index_options.walk_length,
               static_cast<double>(index->SizeBytes()) / (1024.0 * 1024.0),
               simrank::FormatDuration(timer.ElapsedSeconds()).c_str(),
               index_path.c_str(),
               save_options.compress ? ", compressed segments" : "");
  return 0;
}

int RunIndexInfo(int argc, char** argv) {
  std::string index_path;
  FlagSet flags("simrank_cli index-info",
                "Prints the header of a walk index file.");
  flags.Positional("INDEX", &index_path);
  if (auto code = flags.ParseCommandLine(argc, argv, 2)) return *code;
  auto info = simrank::ReadWalkIndexInfo(index_path);
  if (!info.ok()) {
    std::fprintf(stderr, "cannot read index header: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  simrank::TablePrinter table({"field", "value"});
  table.AddRow({"path", index_path});
  table.AddRow({"format version", simrank::StrFormat("%u", info->version)});
  table.AddRow({"segments",
                info->compressed ? "delta+varint compressed" : "raw"});
  table.AddRow({"vertices (= segment count)",
                simrank::FormatCount(info->meta.n)});
  table.AddRow({"fingerprints (R)",
                simrank::FormatCount(info->meta.num_fingerprints)});
  table.AddRow({"walk length (L)",
                simrank::FormatCount(info->meta.walk_length)});
  table.AddRow({"damping", simrank::StrFormat("%g", info->meta.damping)});
  table.AddRow({"seed", simrank::StrFormat(
                            "%llu", static_cast<unsigned long long>(
                                        info->meta.seed))});
  table.AddRow({"graph fingerprint",
                simrank::FormatFingerprint(info->meta.graph_fingerprint)});
  table.AddSeparator();
  table.AddRow({"file size", simrank::FormatBytes(info->file_bytes)});
  table.AddRow({"segment directory",
                simrank::FormatBytes(info->directory_bytes)});
  table.AddRow({"walk segments (on disk)",
                simrank::FormatBytes(info->segment_bytes)});
  table.AddRow({"inverted index (on disk)",
                simrank::FormatBytes(info->inverted_bytes)});
  table.AddRow({"raw walk table (decoded)",
                simrank::FormatBytes(info->raw_walk_bytes)});
  if (info->segment_bytes > 0) {
    table.AddRow({"segment compression",
                  simrank::StrFormat("%.2fx",
                                     static_cast<double>(
                                         info->raw_walk_bytes) /
                                         info->segment_bytes)});
  }
  table.Print();
  return 0;
}

int RunQuery(int argc, char** argv) {
  std::string graph_path;
  std::string index_path;
  simrank::WalkIndex::LoadOptions load_options;
  simrank::QueryEngineOptions engine_options;
  // One query per invocation: no batch fan-out, so a single-worker pool.
  engine_options.num_threads = 1;
  std::optional<simrank::VertexId> query;
  uint32_t topk = 10;
  std::optional<std::pair<simrank::VertexId, simrank::VertexId>> pair;
  FlagSet flags("simrank_cli query",
                "Answers one query from the walk index of GRAPH.");
  flags.Positional("GRAPH", &graph_path)
      .Add("--index", "PATH", &index_path, "walk index built from GRAPH")
      .Required()
      .Switch("--mmap", &load_options.use_mmap,
              "serve from the mapped file instead of loading it into RAM")
      .Add("--cache-shards", "S", &engine_options.cache_shards,
           "row cache shards")
      .Add("--cache-capacity", "C", &engine_options.cache_capacity_per_shard,
           "cached rows per shard")
      .Add("--query", "V", &query, "print the vertices most similar to V")
      .Add("--topk", "K", &topk, "how many vertices --query prints")
      .Custom("--pair", "A,B", "print the estimate of s(A, B)",
              [&pair](std::string_view value) {
                const size_t comma = value.find(',');
                if (comma == std::string_view::npos) {
                  return Status::InvalidArgument("expected A,B");
                }
                std::pair<simrank::VertexId, simrank::VertexId> parsed;
                OIPSIM_RETURN_IF_ERROR(simrank::ParseFlagValue(
                    value.substr(0, comma), &parsed.first));
                OIPSIM_RETURN_IF_ERROR(simrank::ParseFlagValue(
                    value.substr(comma + 1), &parsed.second));
                pair = parsed;
                return Status::OK();
              });
  if (auto code = flags.ParseCommandLine(argc, argv, 2)) return *code;
  if (query.has_value() == pair.has_value()) {
    return flags.Fail("query needs exactly one of --query=V or --pair=A,B");
  }
  if (flags.seen("--topk") && !query.has_value()) {
    return flags.Fail("--topk requires --query");
  }
  if (!engine_options.Valid()) {
    return flags.Fail("--cache-shards and --cache-capacity must be positive");
  }
  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) return 1;
  auto index = simrank::WalkIndex::Load(index_path, load_options);
  if (!index.ok()) {
    std::fprintf(stderr, "cannot load index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  auto valid = index->ValidateGraph(*graph);
  if (!valid.ok()) {
    std::fprintf(stderr, "index does not match graph: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  simrank::QueryEngine engine(*index, engine_options);

  if (pair.has_value()) {
    auto score = engine.Pair(pair->first, pair->second);
    if (!score.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   score.status().ToString().c_str());
      return 1;
    }
    std::printf("s(%u, %u) = %.6f\n", pair->first, pair->second, *score);
    return 0;
  }

  auto top = engine.TopK(*query, topk);
  if (!top.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 top.status().ToString().c_str());
    return 1;
  }
  std::printf("# top-%u similar to %u (walk index estimate)\n", topk,
              *query);
  for (const auto& sv : *top) {
    std::printf("%u\t%.6f\n", sv.vertex, sv.score);
  }
  return 0;
}

/// What update and compact share: the base graph and index, the WAL and
/// the updater's thread count.
struct UpdaterArgs {
  std::string graph_path;
  std::string index_path;
  simrank::WalkIndex::LoadOptions load_options;
  simrank::IndexUpdaterOptions updater_options;
};

void AddUpdaterFlags(FlagSet& flags, UpdaterArgs* args) {
  // Hardware concurrency by default, like build-index.
  args->updater_options.num_threads = 0;
  flags.Positional("GRAPH", &args->graph_path)
      .Add("--index", "PATH", &args->index_path,
           "walk index built from GRAPH")
      .Required()
      .Add("--wal", "WAL", &args->updater_options.wal_path,
           "write-ahead log; batches already in it are replayed first")
      .Required()
      .Switch("--mmap", &args->load_options.use_mmap,
              "read the index from the mapped file instead of RAM")
      .Add("--threads", "T", &args->updater_options.num_threads,
           "threads patching walks and merging; 0 = one per usable CPU "
           "(output identical for any value)");
}

/// The index (heap-allocated: the updater keeps a reference to it) and
/// its bound updater.
struct OpenedUpdater {
  std::unique_ptr<simrank::WalkIndex> index;
  std::unique_ptr<simrank::IndexUpdater> updater;
};

/// Loads the base graph and index and binds the updater (replaying the
/// WAL).
simrank::Result<OpenedUpdater> OpenUpdater(const UpdaterArgs& args) {
  auto graph = LoadGraph(args.graph_path);
  if (!graph.ok()) return graph.status();
  auto loaded = simrank::WalkIndex::Load(args.index_path, args.load_options);
  if (!loaded.ok()) return loaded.status();
  OpenedUpdater opened;
  opened.index =
      std::make_unique<simrank::WalkIndex>(std::move(*loaded));
  auto updater = simrank::IndexUpdater::Open(
      *opened.index, std::move(*graph), args.updater_options);
  if (!updater.ok()) return updater.status();
  opened.updater = std::move(*updater);
  return opened;
}

int RunUpdate(int argc, char** argv) {
  UpdaterArgs args;
  std::string updates_path;
  std::string write_graph_path;
  FlagSet flags("simrank_cli update",
                "Appends an edge batch to the WAL and reports the patch it "
                "induces.");
  AddUpdaterFlags(flags, &args);
  flags
      .Add("--updates", "FILE", &updates_path,
           "the batch: '+ SRC DST' / '- SRC DST' per line")
      .Required()
      .Add("--write-graph", "OUT", &write_graph_path,
           "write the updated graph in the id-exact binary format")
      .Switch("--no-sync-wal", &args.updater_options.sync_wal,
              "skip the fsync after the WAL append");
  if (auto code = flags.ParseCommandLine(argc, argv, 2)) return *code;
  auto updates = simrank::ReadEdgeUpdates(updates_path);
  if (!updates.ok()) {
    std::fprintf(stderr, "cannot read update batch: %s\n",
                 updates.status().ToString().c_str());
    return 1;
  }
  auto updater = OpenUpdater(args);
  if (!updater.ok()) {
    std::fprintf(stderr, "cannot open updater: %s\n",
                 updater.status().ToString().c_str());
    return 1;
  }
  const simrank::IndexUpdateStats before = updater->updater->stats();
  simrank::WallTimer timer;
  timer.Start();
  auto status = updater->updater->ApplyUpdates(*updates);
  timer.Stop();
  if (!status.ok()) {
    std::fprintf(stderr, "update failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const simrank::IndexUpdateStats after = updater->updater->stats();
  std::fprintf(
      stderr,
      "applied %zu update(s) in %s (%llu batch(es) replayed first): "
      "%llu walk(s) re-simulated, %llu changed; overlay sequence %llu, "
      "%llu patched vertex segment(s), %llu inverted-slot diff(s); "
      "graph now %llu edges, fingerprint %s; WAL %s (%llu record(s))\n",
      updates->size(),
      simrank::FormatDuration(timer.ElapsedSeconds()).c_str(),
      static_cast<unsigned long long>(before.batches_replayed),
      static_cast<unsigned long long>(after.walks_resimulated -
                                      before.walks_resimulated),
      static_cast<unsigned long long>(after.walks_changed -
                                      before.walks_changed),
      static_cast<unsigned long long>(after.overlay_sequence),
      static_cast<unsigned long long>(after.patched_vertices),
      static_cast<unsigned long long>(after.changed_slots),
      static_cast<unsigned long long>(after.graph_edges),
      simrank::FormatFingerprint(after.current_graph_fingerprint).c_str(),
      args.updater_options.wal_path.c_str(),
      static_cast<unsigned long long>(after.wal_records));
  if (!write_graph_path.empty()) {
    auto written = simrank::WriteBinary(updater->updater->CurrentGraph(),
                                        write_graph_path);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write updated graph: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote updated graph (binary format) to %s\n",
                 write_graph_path.c_str());
  }
  return 0;
}

int RunCompact(int argc, char** argv) {
  UpdaterArgs args;
  std::string out_path;
  simrank::WalkIndex::SaveOptions save;
  bool reset_wal = false;
  FlagSet flags("simrank_cli compact",
                "Replays the WAL and writes base+overlay as a fresh v2 "
                "index.");
  AddUpdaterFlags(flags, &args);
  flags.Add("--out", "PATH", &out_path, "where to write the merged index")
      .Required()
      .Switch("--compress", &save.compress,
              "delta+varint-compress the walk segments")
      .Switch("--reset-wal", &reset_wal,
              "re-bind the WAL to the compacted index");
  if (auto code = flags.ParseCommandLine(argc, argv, 2)) return *code;
  auto updater = OpenUpdater(args);
  if (!updater.ok()) {
    std::fprintf(stderr, "cannot open updater: %s\n",
                 updater.status().ToString().c_str());
    return 1;
  }
  const simrank::IndexUpdateStats stats = updater->updater->stats();
  simrank::WallTimer timer;
  timer.Start();
  auto status = updater->updater->Compact(out_path, save, reset_wal);
  timer.Stop();
  if (!status.ok()) {
    std::fprintf(stderr, "compact failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(
      stderr,
      "compacted %llu batch(es) (%llu patched vertex segment(s)) into %s "
      "in %s (v2%s, graph fingerprint %s)%s\n",
      static_cast<unsigned long long>(stats.batches_applied),
      static_cast<unsigned long long>(stats.patched_vertices),
      out_path.c_str(),
      simrank::FormatDuration(timer.ElapsedSeconds()).c_str(),
      save.compress ? ", compressed segments" : "",
      simrank::FormatFingerprint(stats.current_graph_fingerprint).c_str(),
      reset_wal ? "; WAL reset" : "");
  return 0;
}

/// `shard-plan`: split one v2 index into per-shard index files plus the
/// plan that binds them — the offline step of bringing up a cluster.
int RunShardPlan(int argc, char** argv) {
  std::string graph_path;
  std::string index_path;
  std::string out_dir;
  uint32_t num_shards = 0;
  uint64_t epoch = 1;
  bool compress = false;
  simrank::WalkIndex::LoadOptions load_options;
  FlagSet flags("simrank_cli shard-plan",
                "Splits a v2 index into per-shard index files, a shared "
                "binary graph copy\nand the plan that binds them.");
  flags.Positional("GRAPH", &graph_path)
      .Add("--index", "PATH", &index_path, "v2 index built from GRAPH")
      .Required()
      .Add("--shards", "N", &num_shards, "contiguous vertex ranges")
      .Required()
      .Add("--out-dir", "DIR", &out_dir,
           "where shard-<id>.widx, graph.bin and plan.txt go")
      .Required()
      .Add("--epoch", "E", &epoch, "plan epoch")
      .Switch("--compress", &compress,
              "delta+varint-compress the shards' walk segments")
      .Switch("--mmap", &load_options.use_mmap,
              "read the index from the mapped file instead of RAM");
  if (auto code = flags.ParseCommandLine(argc, argv, 2)) return *code;

  auto index = simrank::WalkIndex::Load(index_path, load_options);
  if (!index.ok()) {
    std::fprintf(stderr, "cannot load index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) return 1;
  auto valid = index->ValidateGraph(*graph);
  if (!valid.ok()) {
    std::fprintf(stderr, "index does not match graph: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  const uint64_t fingerprint = index->graph_fingerprint();

  auto plan =
      simrank::ShardPlan::EvenSplit(index->n(), fingerprint, num_shards, epoch);
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot build plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }

  simrank::WallTimer timer;
  timer.Start();
  for (const simrank::ShardRange& range : plan->shards) {
    const std::string shard_path =
        simrank::StrFormat("%s/shard-%u.widx", out_dir.c_str(),
                           range.shard_id);
    auto written =
        simrank::WriteShardIndex(index->store(), range, shard_path,
                                 compress);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", shard_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "shard %u: vertices [%u, %u) -> %s\n",
                 range.shard_id, range.begin, range.end,
                 shard_path.c_str());
  }
  // One shared graph copy in the id-exact binary format: every shard
  // server re-simulates walks against the *full* graph, and the binary
  // round-trip keeps its fingerprint identical.
  const std::string graph_out = out_dir + "/graph.bin";
  auto graph_written = simrank::WriteBinary(*graph, graph_out);
  if (!graph_written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", graph_out.c_str(),
                 graph_written.ToString().c_str());
    return 1;
  }
  const std::string plan_out = out_dir + "/plan.txt";
  auto plan_written = plan->SaveFile(plan_out);
  if (!plan_written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", plan_out.c_str(),
                 plan_written.ToString().c_str());
    return 1;
  }
  timer.Stop();
  std::fprintf(
      stderr,
      "split %s into %zu shard(s) in %s: plan %s (epoch %llu, "
      "fingerprint %s), graph copy %s\n",
      index_path.c_str(), plan->shards.size(),
      simrank::FormatDuration(timer.ElapsedSeconds()).c_str(),
      plan_out.c_str(), static_cast<unsigned long long>(plan->epoch),
      simrank::FormatFingerprint(fingerprint).c_str(), graph_out.c_str());
  return 0;
}

/// The modes named by the first argument; anything else is a GRAPH for
/// the all-pairs mode.
constexpr struct {
  const char* name;
  int (*run)(int argc, char** argv);
} kSubcommands[] = {
    {"build-index", RunBuildIndex}, {"query", RunQuery},
    {"index-info", RunIndexInfo},   {"update", RunUpdate},
    {"compact", RunCompact},        {"shard-plan", RunShardPlan},
};

int RunAllPairs(int argc, char** argv) {
  std::string graph_path;
  simrank::EngineOptions engine;
  std::optional<simrank::VertexId> query;
  uint32_t topk = 10;
  std::string csv_path;
  std::string summary =
      "Runs one of the paper's all-pairs engines over GRAPH.\n\nalgorithms:\n";
  for (const simrank::AlgorithmInfo& info : simrank::AlgorithmRegistry()) {
    summary += simrank::StrFormat("  %-8s %-10s %s%s\n", info.flag, info.name,
                                  info.summary,
                                  info.parallel ? "" : " (single-threaded)");
  }
  summary += "\nsubcommands (each takes --help):";
  for (const auto& subcommand : kSubcommands) {
    summary += std::string(" ") + subcommand.name;
  }
  FlagSet flags("simrank_cli", summary);
  flags.Positional("GRAPH", &graph_path)
      .Custom("--algo", "NAME",
              "engine: " + simrank::AlgorithmFlagList() + " (default " +
                  simrank::FindAlgorithm(engine.algorithm)->flag + ")",
              [&engine](std::string_view name) {
                const simrank::AlgorithmInfo* info =
                    simrank::FindAlgorithmByFlag(name);
                if (info == nullptr) {
                  return Status::InvalidArgument(
                      "unknown algorithm; available: " +
                      simrank::AlgorithmFlagList());
                }
                engine.algorithm = info->algorithm;
                return Status::OK();
              });
  AddModelFlags(flags, &engine.simrank);
  flags
      .Add("--epsilon", "EPS", &engine.simrank.epsilon,
           "accuracy target that derives K when --iters is 0")
      .Add("--iters", "K", &engine.simrank.iterations,
           "iterations; 0 = derived from --epsilon")
      .Add("--threads", "T", &engine.simrank.threads,
           "propagation threads; 0 = hardware concurrency (scores identical "
           "for any value)")
      .Add("--query", "V", &query, "print the vertices most similar to V")
      .Add("--topk", "K", &topk, "how many vertices --query prints")
      .Add("--csv", "OUT", &csv_path,
           "write the --query row, or without --query the score matrix, "
           "as CSV");
  if (auto code = flags.ParseCommandLine(argc, argv, 1)) return *code;
  if (flags.seen("--topk") && !query.has_value()) {
    return flags.Fail(
        "--topk requires --query: without a query vertex there is no "
        "ranking to truncate");
  }
  // One seed for every randomized part, mtx-SR's SVD included.
  if (flags.seen("--seed")) engine.mtx.svd_seed = engine.simrank.seed;
  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) return 1;

  auto run = simrank::ComputeSimRank(*graph, engine);
  if (!run.ok()) {
    std::fprintf(stderr, "SimRank failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "%s: %u iterations, %.3f s (setup %.3f s), %llu additions, "
               "%llu B intermediate, %u thread(s)\n",
               simrank::AlgorithmName(engine.algorithm),
               run->stats.iterations, run->stats.seconds_total(),
               run->stats.seconds_setup,
               static_cast<unsigned long long>(run->stats.ops.total_adds()),
               static_cast<unsigned long long>(run->stats.aux_peak_bytes),
               simrank::ThreadPool::ResolveThreadCount(
                   engine.simrank.threads));

  if (query.has_value()) {
    if (*query >= graph->n()) {
      std::fprintf(stderr, "query vertex out of range\n");
      return 1;
    }
    auto top = simrank::TopKSimilar(run->scores, *query, topk);
    std::printf("# top-%u similar to %u\n", topk, *query);
    for (const auto& sv : top) {
      std::printf("%u\t%.6f\n", sv.vertex, sv.score);
    }
  }

  if (!csv_path.empty()) {
    simrank::CsvWriter csv({"src", "dst", "score"});
    if (query.has_value()) {
      const simrank::VertexId q = *query;
      for (uint32_t v = 0; v < graph->n(); ++v) {
        csv.AddRow({simrank::StrFormat("%u", q), simrank::StrFormat("%u", v),
                    simrank::StrFormat("%.8f", run->scores(q, v))});
      }
    } else {
      if (graph->n() > 2000) {
        std::fprintf(stderr,
                     "refusing to dump full matrix for n > 2000; "
                     "use --query\n");
        return 1;
      }
      for (uint32_t a = 0; a < graph->n(); ++a) {
        for (uint32_t b = 0; b < graph->n(); ++b) {
          if (run->scores(a, b) == 0.0) continue;
          csv.AddRow({simrank::StrFormat("%u", a),
                      simrank::StrFormat("%u", b),
                      simrank::StrFormat("%.8f", run->scores(a, b))});
        }
      }
    }
    auto status = csv.WriteToFile(csv_path);
    if (!status.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu rows)\n", csv_path.c_str(),
                 csv.num_rows());
  }
  return 0;
}

int RealMain(int argc, char** argv) {
  if (argc >= 2) {
    for (const auto& subcommand : kSubcommands) {
      if (std::string_view(argv[1]) == subcommand.name) {
        return subcommand.run(argc, argv);
      }
    }
  }
  return RunAllPairs(argc, argv);
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
