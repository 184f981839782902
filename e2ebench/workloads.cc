#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "serving_common.h"
#include "simrank/cluster/router.h"
#include "simrank/cluster/shard_plan.h"
#include "simrank/cluster/shard_split.h"
#include "simrank/common/build_info.h"
#include "simrank/common/memory_tracker.h"
#include "simrank/common/simd.h"
#include "simrank/core/engine.h"
#include "simrank/index/index_updater.h"
#include "simrank/index/update_wal.h"
#include "simrank/obs/trace.h"

namespace simrank::e2e {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Loopback keep-alive connections of the generator.
constexpr size_t kConnections = 4;
/// Saturation phase: reads kept in flight on each connection.
constexpr uint32_t kReadDepth = 8;
constexpr uint32_t kHotVertices = 512;
constexpr uint32_t kBatchInserts = 2;
constexpr uint32_t kBatchDeletes = 2;
/// Stream prefix the pre-run gate checks over HTTP.
constexpr uint64_t kGateOps = 64;
/// Every kCheckEvery-th read answered under load is checked bitwise too.
constexpr uint64_t kCheckEvery = 997;
/// Stream prefix the traced pass replays through each layer.
constexpr uint64_t kReplayOps = 20000;
/// Idle round trips per RTT probe.
constexpr size_t kRttProbes = 2000;
constexpr uint64_t kOverlayBudgetBytes = 4ull << 20;
/// Responses still outstanding this long after the last send fail.
constexpr uint64_t kDrainNanos = 3000000000ull;

// Shares of RunOptions::seconds. End-to-end pass: warm-up (discarded),
// nominal (the latency metrics), saturation (capacity). Traced pass:
// warm-up, untraced and traced nominal phases, then the per-layer replays.
constexpr double kWarmupShare = 0.1;
constexpr double kNominalShare = 0.55;
constexpr double kSaturationShare = 0.3;
// Windows: p50s over 0.05 s, p99s over 0.5 s and completion rates over
// 0.15 s at 12 s — enough samples each (windows merge below the minimum)
// and enough windows that some are quiet. Of the window sizes tried
// (0.05-0.5 s), these gave the smallest spread across ten runs of one
// commit on the slowest-repeating workload.
constexpr double kMedianWindowShare = 1.0 / 240;
constexpr double kTailWindowShare = 1.0 / 24;
constexpr int kSaturationWindows = 24;
constexpr double kTracedPhaseShare = 0.2;
constexpr double kReplayShare = 0.1;

/// One serving workload. The measured operation is the read; the
/// saturation phase runs reads closed-loop while writes keep their rate.
struct ServeSpec {
  const char* name;
  uint32_t n;
  /// Reads draw their first vertex from kHotVertices hot vertices (rows
  /// stay cached); otherwise uniform over all n.
  bool hot_keys;
  /// Serve a saved raw v2 file through MmapWalkStore.
  bool mmap;
  /// Two shard servers behind a SimRankRouter.
  bool routed;
  double read_rate;
  /// Update batches per second (0: no writer), each kBatchInserts fresh
  /// insertions and kBatchDeletes deletions of base edges.
  double write_rate;
  /// Tail latency limit of reads; the generator's p99 lateness must stay
  /// within a tenth of it.
  double limit_us;
};

// Nominal rates sit near a quarter of each deployment's one-CPU capacity.
constexpr ServeSpec kServeSpecs[] = {
    {"serve_hot", 10000, true, false, false, 10000, 0, 1000},
    {"serve_cold", 40000, false, true, false, 3000, 0, 5000},
    {"serve_update", 10000, true, false, false, 3000, 10, 5000},
    {"serve_routed", 10000, true, false, true, 2500, 0, 2000},
};

constexpr const char* kAllPairs = "allpairs";

WalkIndexOptions IndexOptions() {
  WalkIndexOptions options;
  options.num_fingerprints = 128;
  options.walk_length = 8;
  options.damping = 0.6;
  return options;
}

double Seconds(uint64_t nanos) { return static_cast<double>(nanos) / 1e9; }

double PeakRssMiB() {
  ProcessMemoryStats memory;
  ReadProcessMemoryStats(&memory);
  return static_cast<double>(memory.peak_resident_bytes) / (1 << 20);
}

/// Sum of the durations of every `stage` span in a trace JSON document
/// (children included), each passed to `fn` in microseconds.
template <typename Fn>
void ForEachSpan(std::string_view json, std::string_view stage, Fn fn) {
  const std::string needle = "\"stage\":\"" + std::string(stage) + "\"";
  for (size_t at = json.find(needle); at != std::string_view::npos;
       at = json.find(needle, at + 1)) {
    const size_t duration = json.find("\"duration_ns\":", at);
    if (duration == std::string_view::npos) return;
    fn(std::strtod(std::string(json.substr(duration + 14, 24)).c_str(),
                   nullptr) /
       1e3);
  }
}

std::vector<std::pair<std::string, std::string>> Environment(
    bool io_uring_used) {
  return {
      {"hardware_threads",
       std::to_string(std::thread::hardware_concurrency())},
      {"simd_level", SimdLevelName(ActiveSimdLevel())},
      {"io_uring_used", io_uring_used ? "true" : "false"},
      {"git_describe", GetBuildInfo().git_describe},
      {"build_type", GetBuildInfo().build_type},
  };
}

/// Every per-layer metric, zero until a layer that the workload runs
/// measures it.
std::vector<Metric> PerLayerTemplate() {
  return {
      {"loadgen.late_p99_us", 0, "us"},
      {"loadgen.achieved_ratio", 0, "ratio"},
      {"index.pair_us", 0, "us"},
      {"index.row_us", 0, "us"},
      {"index.bytes_read_per_row", 0, "B"},
      {"index.bucket_entries_per_row", 0, "count"},
      {"index.overlay_row_us", 0, "us"},
      {"engine.pair_us", 0, "us"},
      {"engine.topk_us", 0, "us"},
      {"engine.cache_hit_ratio", 0, "ratio"},
      {"engine.cache_lookups", 0, "count"},
      {"engine.cache_evictions", 0, "count"},
      {"server.rtt_us", 0, "us"},
      {"server.self_us", 0, "us"},
      {"server.queue_wait_p99_us", 0, "us"},
      {"server.serialize_p50_us", 0, "us"},
      {"server.loop_lag_max_us", 0, "us"},
      {"server.rejected", 0, "count"},
      {"cluster.rtt_us", 0, "us"},
      {"cluster.self_us", 0, "us"},
      {"cluster.shard_requests_per_query", 0, "count"},
      {"cluster.cross_shard_pair_ratio", 0, "ratio"},
      {"updater.apply_ms_p50", 0, "ms"},
      {"updater.apply_ms_tail", 0, "ms"},
      {"updater.walks_resimulated_per_batch", 0, "count"},
      {"updater.syncs_per_batch", 0, "count"},
      {"updater.compactions", 0, "count"},
      {"updater.compaction_ms", 0, "ms"},
      {"updater.compaction_pause_ms", 0, "ms"},
      {"updater.overlay_bytes_max", 0, "B"},
      {"wal.append_sync_us", 0, "us"},
      {"core.setup_s", 0, "s"},
      {"core.iterate_s", 0, "s"},
      {"core.adds", 0, "count"},
      {"core.aux_peak_bytes", 0, "B"},
      {"trace.overhead_p50_us", 0, "us"},
  };
}

void SetMetric(std::vector<Metric>* metrics, std::string_view name,
               double value) {
  for (Metric& metric : *metrics) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  OIPSIM_CHECK_MSG(false, "unknown metric %s", std::string(name).c_str());
}

double GetMetric(const std::vector<Metric>& metrics, std::string_view name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  OIPSIM_CHECK_MSG(false, "unknown metric %s", std::string(name).c_str());
  return 0;
}

/// Median of the per-call times (nearest rank), in the unit of `values`.
double P50(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Percentile(values, 0.5);
}

/// Where a serving workload runs. The calling thread is confined to the
/// last CPU it may use while the deployment is set up, so every thread the
/// program starts inherits that CPU; the generator — the calling thread —
/// then shares it at real-time priority (SCHED_FIFO 1, where the process
/// may use it), so a send is never late behind program work. A background
/// thread started through OnSecondCpu lives on the CPU before it.
/// On the small virtual machines this benchmark targets, a wake-up that
/// crosses CPUs costs ~20 us and lands in one of two modes per run: with
/// the program free to use every CPU, or on a CPU apart from the
/// generator, the p50 and capacity of identical runs moved by up to 2x; on
/// one shared CPU they repeated within 2-16%. The serving numbers
/// therefore measure one core's cost per request, not multi-core scaling.
/// Restores the calling thread's CPUs and policy on destruction.
class Placement {
 public:
  Placement() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      second_ = cpu_;
      cpu_ = cpu;
    }
    pinned_ = cpu_ >= 0 && Confine(cpu_);
  }
  ~Placement() {
    if (realtime_) {
      sched_param normal{};
      sched_setscheduler(0, SCHED_OTHER, &normal);
    }
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  /// Runs `start` — which starts a background thread — with the calling
  /// thread on a second CPU, so that thread lives there; with one CPU
  /// allowed, just runs it.
  template <typename Fn>
  auto OnSecondCpu(Fn start) {
    if (!pinned_ || second_ < 0) return start();
    Confine(second_);
    auto result = start();
    Confine(cpu_);
    return result;
  }

  /// Raises the calling thread, the generator, to real-time priority;
  /// false when the process may not.
  bool PrioritizeGenerator() {
    sched_param param{};
    param.sched_priority = 1;
    // Threads the generator starts later (index rebuilds, replays) keep
    // the normal policy.
    realtime_ =
        sched_setscheduler(0, SCHED_FIFO | SCHED_RESET_ON_FORK, &param) == 0;
    return realtime_;
  }

 private:
  static bool Confine(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }

  cpu_set_t saved_;
  int cpu_ = -1;
  int second_ = -1;
  bool pinned_ = false;
  bool realtime_ = false;
};

/// One deployment of a serving workload: the graph, the served index, and
/// either a server (with an optional updater) or two shard servers behind
/// a router. Tears down in dependency order.
struct Deployment {
  DiGraph graph;
  std::unique_ptr<WalkIndex> index;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<IndexUpdater> updater;
  std::unique_ptr<SimRankServer> server;
  std::thread serve_thread;
  ShardPlan plan;
  std::vector<std::unique_ptr<BenchShard>> shards;
  std::unique_ptr<SimRankRouter> router;
  std::vector<std::string> files;
  uint16_t port = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ~Deployment() {
    if (router != nullptr) router->Shutdown();
    shards.clear();
    if (server != nullptr) server->Shutdown();
    if (serve_thread.joinable()) serve_thread.join();
    server.reset();
    updater.reset();
    engine.reset();
    index.reset();
    for (const std::string& file : files) std::remove(file.c_str());
  }
};

/// Counters sampled around a phase, for per-phase deltas.
struct Counters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t shard_requests = 0;
  uint64_t routed_queries = 0;
  uint64_t compactions = 0;
};

class ServeRun {
 public:
  ServeRun(const ServeSpec& spec, const RunOptions& options)
      : spec_(spec),
        options_(options),
        n_(options.tiny ? spec.n / 10 : spec.n),
        stream_(options.seed, n_,
                spec.hot_keys ? MakeHotSet(options.seed, n_, kHotVertices)
                              : std::vector<VertexId>{}),
        median_window_ns_(static_cast<uint64_t>(kMedianWindowShare *
                                                options.seconds * 1e9)),
        tail_window_ns_(static_cast<uint64_t>(kTailWindowShare *
                                              options.seconds * 1e9)) {
    if (spec_.write_rate > 0) {
      const size_t batches =
          static_cast<size_t>(std::ceil(options.seconds * spec_.write_rate)) +
          64;
      writes_ = MakeUpdateStream(MakeWebGraph(n_, options.seed),
                                 options.seed, batches, kBatchInserts,
                                 kBatchDeletes);
    }
  }

  RunReport Run() {
    RunReport report;
    std::vector<double> setup_s;
    const int setups = options_.traced ? 1 : kSetups;
    for (int i = 0; i < setups; ++i) {
      deployment_.reset();  // the previous set-up is torn down untimed
      const uint64_t start = NowNanos();
      const Status status = Setup();
      setup_s.push_back(Seconds(NowNanos() - start));
      if (!status.ok()) return Fail(report, "setup: " + status.ToString());
    }
    Deployment& d = *deployment_;
    report.env = Environment(d.index->store().UsesIoUring());

    reference_engine_ = std::make_unique<QueryEngine>(*d.index);
    std::vector<ReadOp> gate_ops;
    for (uint64_t i = 0; i < kGateOps; ++i) gate_ops.push_back(stream_.At(i));
    Status gate = CorrectnessGate(d.port, *reference_engine_, gate_ops);
    if (!gate.ok()) return Fail(report, "pre-run gate: " + gate.ToString());

    report.env.emplace_back("generator_priority", cpu_.PrioritizeGenerator()
                                                      ? "realtime"
                                                      : "normal");
    std::string error;
    if (!generator_.Connect(d.port, kConnections, &error)) {
      return Fail(report, "connect: " + error);
    }
    Phase(kWarmupShare, false, false);
    if (options_.traced) {
      Traced(report);
    } else {
      EndToEnd(report, setup_s);
    }
    if (!report.correct) return report;

    if (spec_.write_rate > 0) {
      gate = UpdateGate();
      if (!gate.ok()) return Fail(report, "post-run gate: " + gate.ToString());
    } else {
      for (const auto& [op, body] : kept_) {
        gate = CheckReadResponse(op, body, *reference_engine_);
        if (!gate.ok()) return Fail(report, "under load: " + gate.ToString());
      }
    }
    report.attempted = attempted_;
    report.failed = failed_;
    return report;
  }

 private:
  struct PhaseOutcome {
    std::vector<LaneResult> lanes;
    /// p99 of the send lateness over every lane.
    double late_p99_us = 0;

    /// Reads are lane 0; writes, when the workload has them, lane 1.
    const LaneResult& reads() const { return lanes.front(); }
  };

  RunReport& Fail(RunReport& report, std::string error) {
    report.correct = false;
    report.error = std::move(error);
    report.attempted = attempted_;
    report.failed = failed_;
    return report;
  }

  Status Setup() {
    auto d = std::make_unique<Deployment>();
    d->graph = MakeWebGraph(n_, options_.seed);
    {
      auto built = WalkIndex::Build(d->graph, IndexOptions());
      if (!built.ok()) return built.status();
      if (!spec_.mmap) {
        d->index = std::make_unique<WalkIndex>(std::move(built).value());
      } else {
        const std::string path = options_.work_dir + "/cold.widx";
        d->files.push_back(path);
        OIPSIM_RETURN_IF_ERROR(built->Save(path));
      }
    }
    if (spec_.mmap) {
      WalkIndex::LoadOptions load;
      load.use_mmap = true;
      auto loaded = WalkIndex::Load(d->files.back(), load);
      if (!loaded.ok()) return loaded.status();
      d->index = std::make_unique<WalkIndex>(std::move(loaded).value());
    }

    if (spec_.routed) {
      auto plan = ShardPlan::EvenSplit(d->index->n(),
                                       d->index->graph_fingerprint(), 2);
      if (!plan.ok()) return plan.status();
      d->plan = *plan;
      RouterOptions router_options;
      router_options.plan = d->plan;
      for (const ShardRange& range : d->plan.shards) {
        const std::string path = StrFormat(
            "%s/shard-%u.widx", options_.work_dir.c_str(), range.shard_id);
        d->files.push_back(path);
        OIPSIM_RETURN_IF_ERROR(
            WriteShardIndex(d->index->store(), range, path, false));
        d->shards.push_back(
            std::make_unique<BenchShard>(path, d->plan, range.shard_id));
        router_options.shards.push_back(
            RouterShard{range.shard_id, d->shards.back()->server->port(), 0});
      }
      d->router = std::make_unique<SimRankRouter>(std::move(router_options));
      OIPSIM_RETURN_IF_ERROR(d->router->Bind());
      OIPSIM_RETURN_IF_ERROR(d->router->Start());
      d->port = d->router->port();
      deployment_ = std::move(d);
      return Status::OK();
    }

    QueryEngineOptions engine_options;
    engine_options.num_threads = 1;  // batch APIs unused, as in the server
    d->engine = std::make_unique<QueryEngine>(*d->index, engine_options);
    if (spec_.write_rate > 0) {
      IndexUpdaterOptions updater_options;
      updater_options.wal_path = options_.work_dir + "/update.wal";
      updater_options.overlay_budget_bytes = kOverlayBudgetBytes;
      updater_options.auto_compact_path = options_.work_dir + "/compact.widx";
      updater_options.auto_compact_graph_path =
          options_.work_dir + "/compact.graph";
      for (const std::string* path :
           {&updater_options.wal_path, &updater_options.auto_compact_path,
            &updater_options.auto_compact_graph_path}) {
        std::remove(path->c_str());
        d->files.push_back(*path);
      }
      // The updater's background compaction thread starts in Open and
      // gets a CPU of its own, as maintenance would on a multi-core
      // server: on the serving CPU each ~2 s rebuild would halt serving.
      auto updater = cpu_.OnSecondCpu([&] {
        return IndexUpdater::Open(*d->index, d->graph, updater_options);
      });
      if (!updater.ok()) return updater.status();
      d->updater = std::move(updater).value();
    }
    ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = 2;
    d->server = std::make_unique<SimRankServer>(*d->engine, server_options,
                                                d->updater.get());
    OIPSIM_RETURN_IF_ERROR(d->server->Bind());
    if (spec_.hot_keys) {
      OIPSIM_RETURN_IF_ERROR(d->server->Warm(stream_.hot()));
    }
    SimRankServer* server = d->server.get();
    d->serve_thread =
        std::thread([server] { OIPSIM_CHECK(server->Serve().ok()); });
    d->port = server->port();
    deployment_ = std::move(d);
    return Status::OK();
  }

  /// Runs one phase of `share` × seconds at the nominal rates and advances
  /// both streams past what it issued. With `saturate` reads run
  /// closed-loop instead. With `traced` every read carries an
  /// X-Simrank-Trace header and its spans are harvested.
  PhaseOutcome Phase(double share, bool traced, bool saturate) {
    const double seconds = share * options_.seconds;
    const uint64_t read_base = read_next_;
    const uint64_t write_base = write_next_;
    std::vector<Lane> lanes;
    {
      Lane lane;
      lane.rate = spec_.read_rate;
      lane.count = static_cast<uint64_t>(spec_.read_rate * seconds);
      if (saturate) {
        lane.depth = kReadDepth;
        lane.duration_ns = static_cast<uint64_t>(seconds * 1e9);
        lane.count = UINT64_MAX;
      }
      // Writes, when there are any, have the last connection to themselves.
      lane.connections = spec_.write_rate == 0
                             ? std::vector<size_t>{0, 1, 2, 3}
                             : std::vector<size_t>{0, 1, 2};
      lane.render = [this, read_base, traced](uint64_t i, std::string* out) {
        RenderRead(stream_.At(read_base + i), traced ? read_base + i + 1 : 0,
                   out);
      };
      const bool keep = spec_.write_rate == 0;
      lane.inspect = [this, read_base, traced, keep](
                         uint64_t i, int status, std::string_view trace_json,
                         std::string_view body) {
        if (traced) {
          ForEachSpan(trace_json, "queue_wait",
                      [this](double us) { queue_wait_us_.push_back(us); });
          ForEachSpan(trace_json, "serialize",
                      [this](double us) { serialize_us_.push_back(us); });
        }
        if (keep && status == 200 && (read_base + i) % kCheckEvery == 0) {
          kept_.emplace_back(stream_.At(read_base + i), std::string(body));
        }
      };
      lanes.push_back(std::move(lane));
    }
    if (spec_.write_rate > 0) {
      Lane lane;
      lane.rate = spec_.write_rate;
      lane.count = std::min<uint64_t>(
          static_cast<uint64_t>(spec_.write_rate * seconds),
          writes_.size() - write_base);
      lane.connections = {3};
      lane.render = [this, write_base](uint64_t i, std::string* out) {
        RenderUpdate(writes_[write_base + i], out);
      };
      lane.inspect = [this, write_base](uint64_t i, int status,
                                        std::string_view, std::string_view) {
        if (status >= 200 && status < 300) acked_.push_back(write_base + i);
      };
      lanes.push_back(std::move(lane));
    }

    PhaseOutcome outcome;
    outcome.lanes = generator_.Run(lanes, kDrainNanos);
    std::vector<double> late;
    for (const LaneResult& lane : outcome.lanes) {
      attempted_ += lane.issued;
      failed_ += lane.failed;
      late.insert(late.end(), lane.late_us.begin(), lane.late_us.end());
    }
    read_next_ += outcome.reads().issued;
    if (spec_.write_rate > 0) write_next_ += outcome.lanes[1].issued;
    outcome.late_p99_us = late.empty() ? 0.0 : Percentile(late, 0.99);
    return outcome;
  }

  void EndToEnd(RunReport& report, const std::vector<double>& setup_s) {
    PhaseOutcome nominal = Phase(kNominalShare, false, false);
    const LaneResult& measured = nominal.reads();
    if (measured.samples.size() <= kTailBeyond) {
      Fail(report, "nominal phase issued too few operations for a tail");
      return;
    }
    const double p50 = MedianLatency(measured.samples, median_window_ns_);
    const double tail = TailLatency(measured.samples, tail_window_ns_);
    report.valid = nominal.late_p99_us <= 0.1 * spec_.limit_us;

    PhaseOutcome saturation = Phase(kSaturationShare, false, true);
    const LaneResult& saturated = saturation.reads();
    const auto duration_ns =
        static_cast<uint64_t>(kSaturationShare * options_.seconds * 1e9);
    const double max_rate = PeakRate(
        saturated.samples, duration_ns / kSaturationWindows, duration_ns);

    report.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_ms", p50 / 1e3, "ms"},
        {"max_rate", max_rate, "1/s"},
        {"rss_mb", PeakRssMiB(), "MiB"},
    };
    // The tail is reported but not gated: whatever the estimator, its
    // spread across ten runs of one commit was 0.1-0.8 on a shared 4-vCPU
    // virtual machine (burst- and host-driven), beyond any usable bound.
    report.context = {
        {"tail_ms", tail / 1e3, "ms"},
        {"nominal_rate", spec_.read_rate, "1/s"},
        {"limit_ms", spec_.limit_us / 1e3, "ms"},
        {"nominal_samples", static_cast<double>(measured.samples.size()),
         "count"},
        {"tail_windows",
         static_cast<double>(WindowP99s(measured.samples, tail_window_ns_).size()),
         "count"},
        {"late_p99_us", nominal.late_p99_us, "us"},
        {"saturation_samples", static_cast<double>(saturated.samples.size()),
         "count"},
        {"write_stream_left",
         static_cast<double>(writes_.size() - std::min(writes_.size(),
                                                       write_next_)),
         "count"},
    };
    if (spec_.write_rate > 0) {
      // Durable-ack latency of POST /v1/update. Context, not a metric:
      // every workload reports every metric, and only this one writes.
      std::vector<double> ack_us;
      for (const Sample& sample : nominal.lanes[1].samples) {
        ack_us.push_back(sample.latency_us);
      }
      std::sort(ack_us.begin(), ack_us.end());
      if (ack_us.size() > kTailBeyond) {
        report.context.push_back(
            {"write_p50_ms", NearestRank(ack_us, 0.5) / 1e3, "ms"});
        report.context.push_back({"write_tail_ms", TailValue(ack_us) / 1e3,
                                  "ms"});
      }
    }
  }

  Counters Snapshot() const {
    const Deployment& d = *deployment_;
    Counters counters;
    auto add_cache = [&counters](const QueryEngine& engine) {
      const QueryEngine::CacheStats stats = engine.cache_stats();
      counters.cache_hits += stats.hits;
      counters.cache_misses += stats.misses;
      counters.cache_evictions += stats.evictions;
    };
    if (d.engine != nullptr) add_cache(*d.engine);
    for (const auto& shard : d.shards) {
      add_cache(*shard->engine);
      const ServerStats stats = shard->server->stats();
      for (const uint64_t requests : stats.requests) {
        counters.shard_requests += requests;
      }
    }
    if (d.router != nullptr) {
      const RouterStats stats = d.router->stats();
      counters.routed_queries = stats.requests_pair + stats.requests_topk;
    }
    if (d.updater != nullptr) {
      counters.compactions = d.updater->stats().compactions;
    }
    return counters;
  }

  /// The per-layer pass: an untraced and a traced nominal phase (their p50
  /// difference is the tracing cost), idle round trips, then the stream
  /// prefix replayed through each layer's public entry point.
  void Traced(RunReport& report) {
    Deployment& d = *deployment_;
    std::vector<Metric> metrics = PerLayerTemplate();

    std::atomic<bool> sampling{true};
    std::atomic<uint64_t> overlay_max{0};
    std::thread sampler;
    if (d.updater != nullptr) {
      sampler = std::thread([&] {
        while (sampling.load()) {
          overlay_max.store(std::max(overlay_max.load(),
                                     d.updater->stats().overlay_bytes));
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }
    const Counters before = Snapshot();
    PhaseOutcome untraced = Phase(kTracedPhaseShare, false, false);
    const Counters after = Snapshot();
    PhaseOutcome traced = Phase(kTracedPhaseShare, true, false);
    sampling.store(false);
    if (sampler.joinable()) sampler.join();

    // Only reads carry the trace header, so the overhead is read p50
    // traced minus untraced.
    const double p50_untraced =
        MedianLatency(untraced.reads().samples, median_window_ns_);
    const double p50_traced =
        MedianLatency(traced.reads().samples, median_window_ns_);
    const LaneResult& lane = untraced.reads();
    report.valid = untraced.late_p99_us <= 0.1 * spec_.limit_us;
    SetMetric(&metrics, "loadgen.late_p99_us", untraced.late_p99_us);
    SetMetric(&metrics, "loadgen.achieved_ratio",
              static_cast<double>(lane.issued - lane.failed) /
                  static_cast<double>(lane.scheduled));
    SetMetric(&metrics, "trace.overhead_p50_us", p50_traced - p50_untraced);

    const uint64_t lookups = (after.cache_hits + after.cache_misses) -
                             (before.cache_hits + before.cache_misses);
    SetMetric(&metrics, "engine.cache_lookups", static_cast<double>(lookups));
    SetMetric(&metrics, "engine.cache_hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(after.cache_hits -
                                                 before.cache_hits) /
                                 static_cast<double>(lookups));
    SetMetric(&metrics, "engine.cache_evictions",
              static_cast<double>(after.cache_evictions -
                                  before.cache_evictions));
    if (!queue_wait_us_.empty()) {
      SetMetric(&metrics, "server.queue_wait_p99_us",
                Percentile(queue_wait_us_, 0.99));
    }
    if (!serialize_us_.empty()) {
      SetMetric(&metrics, "server.serialize_p50_us", P50(serialize_us_));
    }
    uint64_t loop_lag = 0;
    uint64_t rejected = 0;
    auto add_server = [&](const SimRankServer& server) {
      loop_lag = std::max(loop_lag,
                          server.watchdog_snapshot().max_loop_lag_us);
      const ServerStats stats = server.stats();
      rejected += stats.rejected_inflight + stats.rejected_endpoint;
    };
    if (d.server != nullptr) add_server(*d.server);
    for (const auto& shard : d.shards) add_server(*shard->server);
    SetMetric(&metrics, "server.loop_lag_max_us", static_cast<double>(loop_lag));
    SetMetric(&metrics, "server.rejected", static_cast<double>(rejected));

    const uint64_t deadline =
        NowNanos() +
        static_cast<uint64_t>(kReplayShare * options_.seconds * 1e9);
    ReplayIndexAndEngine(&metrics, deadline);
    Status status = ProbeRoundTrips(&metrics);
    if (!status.ok()) {
      Fail(report, "rtt probe: " + status.ToString());
      return;
    }
    if (d.router != nullptr) {
      SetMetric(&metrics, "cluster.shard_requests_per_query",
                static_cast<double>(after.shard_requests -
                                    before.shard_requests) /
                    static_cast<double>(after.routed_queries -
                                        before.routed_queries));
      uint64_t pairs = 0;
      uint64_t cross = 0;
      for (uint64_t i = 0; i < kReplayOps; ++i) {
        const ReadOp op = stream_.At(i);
        if (op.topk) continue;
        ++pairs;
        cross += d.plan.OwnerOf(op.a) != d.plan.OwnerOf(op.b);
      }
      SetMetric(&metrics, "cluster.cross_shard_pair_ratio",
                static_cast<double>(cross) / static_cast<double>(pairs));
    }
    if (d.updater != nullptr) {
      const IndexUpdateStats stats = d.updater->stats();
      SetMetric(&metrics, "updater.compactions",
                static_cast<double>(stats.compactions - before.compactions));
      SetMetric(&metrics, "updater.compaction_ms",
                stats.last_compaction_micros / 1e3);
      SetMetric(&metrics, "updater.compaction_pause_ms",
                stats.last_compaction_pause_micros / 1e3);
      SetMetric(&metrics, "updater.overlay_bytes_max",
                static_cast<double>(overlay_max.load()));
      status = ReplayUpdates(&metrics);
      if (!status.ok()) {
        Fail(report, "update replay: " + status.ToString());
        return;
      }
    }
    report.metrics = std::move(metrics);
    report.context = {{"p50_untraced_us", p50_untraced, "us"},
                      {"p50_traced_us", p50_traced, "us"},
                      {"traced_spans", static_cast<double>(
                                           queue_wait_us_.size()),
                       "count"}};
  }

  /// WalkIndex and QueryEngine calls over the stream prefix, each timed
  /// alone; row work counts come from a TraceRecorder bound around a
  /// second, untimed pass over the same rows.
  void ReplayIndexAndEngine(std::vector<Metric>* metrics, uint64_t deadline) {
    const Deployment& d = *deployment_;
    const WalkIndex& index = *d.index;
    const std::shared_ptr<const DeltaOverlay> overlay =
        index.overlay_snapshot();
    std::vector<double> pair_us;
    std::vector<double> row_us;
    std::vector<double> overlay_row_us;
    std::vector<VertexId> rows;
    volatile double sink = 0;
    for (uint64_t i = 0; i < kReplayOps && NowNanos() < deadline; ++i) {
      const ReadOp op = stream_.At(i);
      uint64_t start = NowNanos();
      if (!op.topk) {
        sink = index.EstimatePair(op.a, op.b, nullptr);
        pair_us.push_back(static_cast<double>(NowNanos() - start) / 1e3);
        continue;
      }
      sink = index.EstimateSingleSource(op.a, nullptr)[op.b];
      row_us.push_back(static_cast<double>(NowNanos() - start) / 1e3);
      rows.push_back(op.a);
      if (overlay != nullptr) {
        start = NowNanos();
        sink = index.EstimateSingleSource(op.a, overlay.get())[op.b];
        overlay_row_us.push_back(static_cast<double>(NowNanos() - start) /
                                 1e3);
      }
    }
    (void)sink;
    SetMetric(metrics, "index.pair_us", P50(pair_us));
    SetMetric(metrics, "index.row_us", P50(row_us));
    SetMetric(metrics, "index.overlay_row_us", P50(overlay_row_us));
    uint64_t bytes = 0;
    uint64_t entries = 0;
    for (const VertexId v : rows) {
      TraceRecorder recorder(1);
      TraceBinding binding(&recorder);
      index.EstimateSingleSource(v, nullptr);
      bytes += recorder.counter(TraceCounter::kBytesRead);
      entries += recorder.counter(TraceCounter::kBucketEntries);
    }
    if (!rows.empty()) {
      SetMetric(metrics, "index.bytes_read_per_row",
                static_cast<double>(bytes) / static_cast<double>(rows.size()));
      SetMetric(metrics, "index.bucket_entries_per_row",
                static_cast<double>(entries) /
                    static_cast<double>(rows.size()));
    }

    // A fresh engine with the deployment's cache size and warm-up, fed the
    // same prefix in order, so hits and misses follow the stream.
    QueryEngine engine(index);
    if (spec_.hot_keys) {
      for (const VertexId v : stream_.hot()) (void)engine.SingleSource(v);
    }
    std::vector<double> engine_pair_us;
    std::vector<double> engine_topk_us;
    const uint64_t engine_deadline =
        deadline + static_cast<uint64_t>(kReplayShare * options_.seconds *
                                         1e9);
    for (uint64_t i = 0; i < kReplayOps && NowNanos() < engine_deadline;
         ++i) {
      const ReadOp op = stream_.At(i);
      const uint64_t start = NowNanos();
      if (op.topk) {
        (void)engine.TopK(op.a, kTopK);
        engine_topk_us.push_back(static_cast<double>(NowNanos() - start) /
                                 1e3);
      } else {
        (void)engine.Pair(op.a, op.b);
        engine_pair_us.push_back(static_cast<double>(NowNanos() - start) /
                                 1e3);
      }
    }
    SetMetric(metrics, "engine.pair_us", P50(engine_pair_us));
    SetMetric(metrics, "engine.topk_us", P50(engine_topk_us));
  }

  /// Idle round trips, one request at a time, of the stream's pairs: to
  /// the server (or, routed, to the shard owning both vertices) and,
  /// routed, the same pairs through the router.
  Status ProbeRoundTrips(std::vector<Metric>* metrics) {
    const Deployment& d = *deployment_;
    auto probe = [](uint16_t port, const std::vector<ReadOp>& ops,
                    std::vector<double>* rtt_us) -> Status {
      auto client = LoopbackHttpClient::Connect(port);
      if (!client.ok()) return client.status();
      for (const ReadOp& op : ops) {
        const uint64_t start = NowNanos();
        auto response = client->Get(ReadTarget(op));
        const uint64_t stop = NowNanos();
        if (!response.ok()) return response.status();
        if (response->status != 200) {
          return Status::Internal(StrFormat("%s answered %d",
                                            ReadTarget(op).c_str(),
                                            response->status));
        }
        rtt_us->push_back(static_cast<double>(stop - start) / 1e3);
      }
      return Status::OK();
    };
    std::vector<std::vector<ReadOp>> by_shard(std::max<size_t>(
        1, d.shards.size()));
    std::vector<ReadOp> all;
    for (uint64_t i = 0; i < kReplayOps && all.size() < kRttProbes; ++i) {
      const ReadOp op = stream_.At(i);
      if (op.topk) continue;
      if (d.router != nullptr) {
        const uint32_t owner = d.plan.OwnerOf(op.a);
        if (owner != d.plan.OwnerOf(op.b)) continue;
        by_shard[owner].push_back(op);
      } else {
        by_shard[0].push_back(op);
      }
      all.push_back(op);
    }
    std::vector<double> server_rtt;
    for (size_t s = 0; s < by_shard.size(); ++s) {
      const uint16_t port =
          d.router != nullptr ? d.shards[s]->server->port() : d.port;
      OIPSIM_RETURN_IF_ERROR(probe(port, by_shard[s], &server_rtt));
    }
    const double server_p50 = P50(server_rtt);
    SetMetric(metrics, "server.rtt_us", server_p50);
    SetMetric(metrics, "server.self_us",
              server_p50 - GetMetric(*metrics, "engine.pair_us"));
    if (d.router != nullptr) {
      std::vector<double> routed_rtt;
      OIPSIM_RETURN_IF_ERROR(probe(d.port, all, &routed_rtt));
      SetMetric(metrics, "cluster.rtt_us", P50(routed_rtt));
      SetMetric(metrics, "cluster.self_us", P50(routed_rtt) - server_p50);
    }
    return Status::OK();
  }

  /// The update stream prefix applied to a fresh copy of the base index
  /// through IndexUpdater::ApplyUpdates (fsync on), and the same records
  /// appended to a bare UpdateWal with sync.
  Status ReplayUpdates(std::vector<Metric>* metrics) {
    const Deployment& d = *deployment_;
    const uint64_t deadline =
        NowNanos() +
        static_cast<uint64_t>(kReplayShare * options_.seconds * 1e9);
    auto index = WalkIndex::Build(d.graph, IndexOptions());
    if (!index.ok()) return index.status();
    IndexUpdaterOptions updater_options;
    updater_options.wal_path = options_.work_dir + "/replay.wal";
    std::remove(updater_options.wal_path.c_str());
    auto updater = IndexUpdater::Open(*index, d.graph, updater_options);
    if (!updater.ok()) return updater.status();
    std::vector<double> apply_ms;
    size_t batches = 0;
    while (batches < writes_.size() &&
           (batches <= kTailBeyond || NowNanos() < deadline)) {
      const uint64_t start = NowNanos();
      OIPSIM_RETURN_IF_ERROR((*updater)->ApplyUpdates(writes_[batches]));
      apply_ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
      ++batches;
    }
    const IndexUpdateStats stats = (*updater)->stats();
    updater->reset();
    std::remove(updater_options.wal_path.c_str());
    std::sort(apply_ms.begin(), apply_ms.end());
    SetMetric(metrics, "updater.apply_ms_p50", NearestRank(apply_ms, 0.5));
    SetMetric(metrics, "updater.apply_ms_tail", TailValue(apply_ms));
    SetMetric(metrics, "updater.walks_resimulated_per_batch",
              static_cast<double>(stats.walks_resimulated) /
                  static_cast<double>(batches));
    SetMetric(metrics, "updater.syncs_per_batch",
              static_cast<double>(stats.wal_syncs) /
                  static_cast<double>(batches));

    const std::string wal_path = options_.work_dir + "/probe.wal";
    std::remove(wal_path.c_str());
    WalBaseIdentity identity;
    identity.n = index->n();
    identity.num_fingerprints = index->options().num_fingerprints;
    identity.walk_length = index->options().walk_length;
    identity.seed = index->options().seed;
    identity.damping = index->options().damping;
    identity.graph_fingerprint = index->graph_fingerprint();
    UpdateWal::Options wal_options;
    wal_options.sync_every_append = true;
    auto opened = UpdateWal::Open(wal_path, identity, wal_options);
    if (!opened.ok()) return opened.status();
    std::vector<double> append_us;
    for (size_t b = 0; b < batches; ++b) {
      WalRecord record;
      record.updates = writes_[b];
      const uint64_t start = NowNanos();
      OIPSIM_RETURN_IF_ERROR(opened->wal.Append(record));
      append_us.push_back(static_cast<double>(NowNanos() - start) / 1e3);
    }
    std::remove(wal_path.c_str());
    SetMetric(metrics, "wal.append_sync_us", P50(append_us));
    return Status::OK();
  }

  /// After the writes drain: the server must answer bitwise like an index
  /// rebuilt on the updated graph, the graph must be the base plus every
  /// acknowledged batch, and every acknowledged batch must be applied.
  Status UpdateGate() {
    Deployment& d = *deployment_;
    d.updater->DrainBackgroundCompaction();
    const IndexUpdateStats stats = d.updater->stats();
    if (stats.batches_applied != acked_.size()) {
      return Status::Internal(StrFormat(
          "%llu batches applied but %zu acknowledged",
          static_cast<unsigned long long>(stats.batches_applied),
          acked_.size()));
    }
    if (stats.auto_compact_failures != 0) {
      return Status::Internal("background auto-compaction failed");
    }
    std::sort(acked_.begin(), acked_.end());
    DiGraph expected = d.graph;
    for (const uint64_t b : acked_) {
      auto next = ApplyEdgeUpdates(expected, writes_[b]);
      if (!next.ok()) return next.status();
      expected = std::move(next).value();
    }
    const DiGraph current = d.updater->CurrentGraph();
    if (!(current == expected)) {
      return Status::Internal(
          "the served graph is not the base plus the acknowledged batches");
    }
    auto rebuilt = WalkIndex::Build(current, IndexOptions());
    if (!rebuilt.ok()) return rebuilt.status();
    QueryEngine reference(*rebuilt);
    std::vector<ReadOp> ops;
    for (uint64_t i = 0; i < kGateOps; ++i) ops.push_back(stream_.At(i));
    OIPSIM_RETURN_IF_ERROR(CorrectnessGate(d.port, reference, ops));
    for (const ReadOp& op : ops) {
      if (!op.topk) continue;
      const std::vector<double> served = d.index->EstimateSingleSource(op.a);
      const std::vector<double> fresh = rebuilt->EstimateSingleSource(op.a);
      if (served.size() != fresh.size() ||
          std::memcmp(served.data(), fresh.data(),
                      served.size() * sizeof(double)) != 0) {
        return Status::Internal(StrFormat(
            "row of %u differs from an index rebuilt on the updated graph",
            op.a));
      }
    }
    return Status::OK();
  }

  const ServeSpec& spec_;
  const RunOptions& options_;
  /// Declared before every member that starts threads: they start after
  /// it confines the calling thread, and are gone before it restores it.
  Placement cpu_;
  const uint32_t n_;
  const ReadStream stream_;
  const uint64_t median_window_ns_;
  const uint64_t tail_window_ns_;
  std::vector<std::vector<EdgeUpdate>> writes_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<QueryEngine> reference_engine_;
  LoadGenerator generator_;
  uint64_t read_next_ = 0;
  uint64_t write_next_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<uint64_t> acked_;
  std::vector<std::pair<ReadOp, std::string>> kept_;
  std::vector<double> queue_wait_us_;
  std::vector<double> serialize_us_;
};

// -------------------------------------------------------------- allpairs

/// The paper's algorithm: OIP-SR on the web graph of
/// bench/parallel_scaling, called back to back.
RunReport RunAllPairs(const RunOptions& options) {
  RunReport report;
  report.env = Environment(false);
  const uint32_t n = options.tiny ? 256 : 2048;
  EngineOptions engine_options;
  engine_options.algorithm = Algorithm::kOip;
  engine_options.simrank.damping = 0.6;
  engine_options.simrank.iterations = 8;

  // Set-up: the graph and the threads=1 reference run every timed call
  // must reproduce bitwise.
  std::vector<double> setup_s;
  DiGraph graph;
  SimRankRun reference;
  for (int i = 0; i < (options.traced ? 1 : kSetups); ++i) {
    const uint64_t start = NowNanos();
    gen::WebGraphParams params;
    params.n = n;
    params.out_degree = 8;
    params.copy_prob = 0.8;
    params.seed = Mix64(options.seed);
    auto generated = gen::WebGraph(params);
    if (!generated.ok()) {
      report.correct = false;
      report.error = generated.status().ToString();
      return report;
    }
    graph = std::move(generated).value();
    engine_options.simrank.threads = 1;
    auto run = ComputeSimRank(graph, engine_options);
    if (!run.ok()) {
      report.correct = false;
      report.error = run.status().ToString();
      return report;
    }
    reference = std::move(run).value();
    setup_s.push_back(Seconds(NowNanos() - start));
  }

  engine_options.simrank.threads = 4;
  std::vector<double> call_s;
  std::vector<double> core_setup_s;
  std::vector<double> core_iterate_s;
  KernelStats last;
  const uint64_t start = NowNanos();
  const auto budget = static_cast<uint64_t>(0.9 * options.seconds * 1e9);
  while (call_s.size() < 3 || NowNanos() - start < budget) {
    const uint64_t call_start = NowNanos();
    auto run = ComputeSimRank(graph, engine_options);
    call_s.push_back(Seconds(NowNanos() - call_start));
    report.attempted++;
    if (!run.ok()) {
      report.failed++;
      continue;
    }
    if (!(run->scores == reference.scores) ||
        run->stats.ops.total_adds() != reference.stats.ops.total_adds()) {
      report.correct = false;
      report.error = "threads=4 OIP-SR differs from the threads=1 reference";
      return report;
    }
    core_setup_s.push_back(run->stats.seconds_setup);
    core_iterate_s.push_back(run->stats.seconds_iterate);
    last = run->stats;
  }
  const double elapsed = Seconds(NowNanos() - start);
  std::vector<double> sorted = call_s;
  std::sort(sorted.begin(), sorted.end());
  if (options.traced) {
    report.metrics = PerLayerTemplate();
    SetMetric(&report.metrics, "core.setup_s", P50(core_setup_s));
    SetMetric(&report.metrics, "core.iterate_s", P50(core_iterate_s));
    SetMetric(&report.metrics, "core.adds",
              static_cast<double>(last.ops.total_adds()));
    SetMetric(&report.metrics, "core.aux_peak_bytes",
              static_cast<double>(last.aux_peak_bytes));
  } else {
    report.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_ms", NearestRank(sorted, 0.5) * 1e3, "ms"},
        {"max_rate", static_cast<double>(call_s.size()) / elapsed, "1/s"},
        {"rss_mb", PeakRssMiB(), "MiB"},
    };
  }
  report.context = {{"tail_ms", TailValue(sorted) * 1e3, "ms"},
                    {"n", static_cast<double>(n), "count"},
                    {"m", static_cast<double>(graph.m()), "count"},
                    {"calls", static_cast<double>(call_s.size()), "count"},
                    {"threads", 4, "count"}};
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all;
    for (const ServeSpec& spec : kServeSpecs) all.push_back(spec.name);
    all.push_back(kAllPairs);
    return all;
  }();
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  if (options.workload == kAllPairs) return RunAllPairs(options);
  for (const ServeSpec& spec : kServeSpecs) {
    if (options.workload == spec.name) return ServeRun(spec, options).Run();
  }
  RunReport report;
  report.correct = false;
  report.error = "unknown workload " + options.workload;
  return report;
}

}  // namespace simrank::e2e
