// The end-to-end benchmark's workloads: each sets up one deployment of the
// library from generated inputs, proves its answers bitwise-correct, then
// measures it from outside through the public APIs.
#ifndef OIPSIM_E2EBENCH_WORKLOADS_H_
#define OIPSIM_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace simrank::e2e {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  /// Drives the graph, the hot set, the request stream and the update
  /// stream; the same seed gives the same inputs.
  uint64_t seed = 1;
  /// Measured time of the run; every phase is a fixed share of it.
  double seconds = 12;
  /// Run the per-layer pass instead of the end-to-end one.
  bool traced = false;
  /// Directory for index, shard and WAL files; must exist.
  std::string work_dir = ".";
  /// Shrink the graphs (unit tests).
  bool tiny = false;
};

struct RunReport {
  /// Every correctness gate passed.
  bool correct = true;
  /// The first failed gate, when !correct.
  std::string error;
  /// The generator sent on time: its p99 lateness stayed within 10% of
  /// the workload's latency limit.
  bool valid = true;
  /// Operations issued and, of those, failed (non-2xx, transport error or
  /// unanswered), over every timed phase.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics, or per-layer metrics with RunOptions::traced.
  std::vector<Metric> metrics;
  /// Settings and side measurements behind the metrics (rates, limits,
  /// ladder steps, sample counts).
  std::vector<Metric> context;
  /// Machine and build facts: hardware threads, SIMD tier, io_uring use,
  /// git describe.
  std::vector<std::pair<std::string, std::string>> env;
};

/// Every workload name, in the order `--workload=all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. An unknown name yields !correct.
RunReport RunWorkload(const RunOptions& options);

}  // namespace simrank::e2e

#endif  // OIPSIM_E2EBENCH_WORKLOADS_H_
