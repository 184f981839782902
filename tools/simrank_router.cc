// simrank_router — scatter-gather frontend for a sharded SimRank cluster.
//
//   simrank_router --plan=PLAN --shard 0=PORT[,REPLICA] --shard 1=... [flags]
//                  (--help lists the flags)
//
// Speaks the same public /v1/* dialect as a single-node simrank_server —
// /v1/pair, /v1/single_source, /v1/topk, /v1/batch_pair, /v1/update,
// /v1/stats, /metrics, /healthz — and answers bitwise-identically to one,
// fanning queries to the shard servers listed with --shard (each serving
// one range of the plan via simrank_server --shard-plan/--shard-id).
// Reads fail over to a shard's replica when the primary is unreachable;
// updates are broadcast to every primary with per-shard WAL durability
// before the router acks. See src/simrank/cluster/router.h for the
// merge-exactness and consistency story.
#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>

#include "simrank/cluster/router.h"
#include "simrank/cluster/shard_plan.h"
#include "simrank/common/flags.h"
#include "simrank/obs/diagnostics.h"

namespace {

using simrank::Status;

constexpr char kSummary[] =
    "Routes /v1/pair, /v1/single_source, /v1/topk, /v1/batch_pair and\n"
    "/v1/update across the shard servers of PLAN, answering bitwise-\n"
    "identically to a single-node simrank_server over the full index.\n"
    "The router scrapes every target's /metrics, serves the fleet roll-up\n"
    "at GET /v1/cluster/health, and re-exports every shard sample with\n"
    "shard/role labels from its own /metrics. GET /v1/debug/profile and\n"
    "/v1/debug/timeseries diagnose the router itself.";

/// Parses one --shard value, "ID=PRIMARY[,REPLICA]".
Status ParseShardSpec(std::string_view spec, simrank::RouterShard* out) {
  const size_t eq = spec.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("expected ID=PORT[,REPLICA]");
  }
  OIPSIM_RETURN_IF_ERROR(simrank::ParseFlagValue(spec.substr(0, eq),
                                                 &out->shard_id));
  const std::string_view ports = spec.substr(eq + 1);
  const size_t comma = ports.find(',');
  OIPSIM_RETURN_IF_ERROR(simrank::ParseFlagValue(ports.substr(0, comma),
                                                 &out->primary_port));
  if (comma == std::string_view::npos) return Status::OK();
  return simrank::ParseFlagValue(ports.substr(comma + 1),
                                 &out->replica_port);
}

int RealMain(int argc, char** argv) {
  simrank::RouterOptions options;
  std::string plan_path;
  simrank::FlagSet flags("simrank_router", kSummary);
  flags.Add("--plan", "PLAN", &plan_path, "the cluster's shard plan")
      .Required()
      .Custom("--shard", "ID=PORT[,REPLICA]",
              "shard ID's primary port, then an optional replica port "
              "reads fail over to; one per plan shard, in id order",
              [&options](std::string_view spec) {
                simrank::RouterShard shard;
                OIPSIM_RETURN_IF_ERROR(ParseShardSpec(spec, &shard));
                options.shards.push_back(shard);
                return Status::OK();
              })
      .Repeatable()
      .Required()
      .Add("--port", "PORT", &options.port,
           "TCP port; 0 picks a free one, printed on stderr")
      .Add("--bind", "ADDR", &options.bind_address, "listening IPv4 address")
      .Add("--timeout-ms", "MS", &options.timeout_ms,
           "socket timeout per shard operation")
      .Add("--retries", "N", &options.retries,
           "re-runs of a fan-out after an overlay-sequence conflict (409) "
           "before answering 503")
      .Add("--retry-after", "S", &options.retry_after_seconds,
           "Retry-After of 503 answers")
      .Add("--max-batch-pairs", "N", &options.max_batch_pairs,
           "pairs allowed in one /v1/batch_pair body")
      .Add("--scrape-interval-ms", "MS", &options.scrape_interval_ms,
           "fleet /metrics scrape interval; 0 disables scraping")
      .Add("--scrape-timeout-ms", "MS", &options.scrape_timeout_ms,
           "timeout of one target's scrape");
  simrank::AddDiagnosticsFlags(flags, &options.diagnostics);
  if (auto code = flags.ParseCommandLine(argc, argv, 1)) return *code;
  auto plan = simrank::ShardPlan::LoadFile(plan_path);
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load shard plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  options.plan = std::move(*plan);
  if (Status valid = options.Validate(); !valid.ok()) {
    return flags.Fail(valid.message());
  }

  // SIGINT and SIGTERM stay blocked in every thread (the router's threads
  // inherit this mask) and are taken below with sigwait, so a signal that
  // arrives before the main thread waits is kept pending, not lost.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  simrank::SimRankRouter router(std::move(options));
  auto status = router.Bind();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start router: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  status = router.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start router: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(
      stderr,
      "simrank_router: plan %s (epoch %llu, n=%u, %zu shards), listening "
      "on %s:%u\n",
      plan_path.c_str(),
      static_cast<unsigned long long>(router.options().plan.epoch),
      router.options().plan.n, router.options().plan.shards.size(),
      router.options().bind_address.c_str(), router.port());

  // The event loop runs on its own thread; park this one until a signal
  // requests a stop, then drain and join everything.
  int signal = 0;
  sigwait(&stop_signals, &signal);
  router.Shutdown();
  const simrank::RouterStats stats = router.stats();
  std::fprintf(stderr,
               "simrank_router: shut down cleanly (%llu requests, "
               "%llu failovers)\n",
               static_cast<unsigned long long>(stats.requests_total),
               static_cast<unsigned long long>(stats.failovers));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
