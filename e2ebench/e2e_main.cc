// bench_e2e: the repository's end-to-end benchmark.
//
//   bench_e2e --workload=NAME|all [--seed=N] [--seconds=S] [--traced]
//             [--work-dir=DIR]
//
// Runs one workload (README.md lists them and why each exists) and prints
// one JSON object on the last line of stdout: the correctness verdict,
// operations attempted and failed, every metric by name and unit, and the
// machine and build it ran on. --workload=all re-executes this binary once
// per workload, so set-up time and peak memory stay per workload.
// --traced runs the per-layer pass instead of the end-to-end one. The exit
// status is nonzero when a correctness gate failed.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "simrank/common/json_writer.h"
#include "workloads.h"

extern char** environ;

namespace simrank::e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12;
  bool traced = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&arg](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? arg.data() + flag.size()
                                                : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      args->seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--work-dir=")) {
      args->work_dir = v;
    } else if (arg == "--traced") {
      args->traced = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

void PrintReport(const Args& args, const RunReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("workload").String(args.workload);
  json.Key("seed").Uint(args.seed);
  json.Key("seconds").Double(args.seconds);
  json.Key("traced").Bool(args.traced);
  json.Key("correct").Bool(report.correct);
  if (!report.correct) json.Key("error").String(report.error);
  json.Key("valid").Bool(report.valid);
  json.Key("attempted").Uint(report.attempted);
  json.Key("failed").Uint(report.failed);
  for (const auto& [key, metrics] :
       {std::pair{"metrics", &report.metrics},
        std::pair{"context", &report.context}}) {
    json.Key(key).BeginObject();
    for (const Metric& metric : *metrics) {
      json.Key(metric.name).BeginObject();
      json.Key("value").Double(metric.value);
      json.Key("unit").String(metric.unit);
      json.EndObject();
    }
    json.EndObject();
  }
  json.Key("env").BeginObject();
  for (const auto& [key, value] : report.env) json.Key(key).String(value);
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

/// Runs every workload in its own child process; nonzero if any failed.
int RunAll(int argc, char** argv) {
  int exit_code = 0;
  for (const std::string& name : WorkloadNames()) {
    std::vector<std::string> storage = {"/proc/self/exe",
                                        "--workload=" + name};
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]).substr(0, 11) != "--workload=") {
        storage.push_back(argv[i]);
      }
    }
    std::vector<char*> child_argv;
    for (std::string& arg : storage) child_argv.push_back(arg.data());
    child_argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                    child_argv.data(), environ) != 0) {
      std::perror("posix_spawn");
      return 1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) exit_code = 1;
  }
  return exit_code;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=NAME|all [--seed=N] [--seconds=S] "
                 "[--traced] [--work-dir=DIR]\nworkloads:",
                 argv[0]);
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (args.workload == "all") return RunAll(argc, argv);

  // Index, shard and WAL files go to a private directory, removed after.
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir) /
      ("e2e-" + args.workload + "-" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  RunOptions options;
  options.workload = args.workload;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.traced = args.traced;
  options.work_dir = dir.string();
  const RunReport report = RunWorkload(options);
  std::filesystem::remove_all(dir);
  if (!report.correct) {
    std::fprintf(stderr, "%s: correctness gate failed: %s\n",
                 args.workload.c_str(), report.error.c_str());
  }
  if (!report.valid) {
    std::fprintf(stderr,
                 "%s: generator lateness exceeded 10%% of the latency "
                 "limit; the run is invalid\n",
                 args.workload.c_str());
  }
  PrintReport(args, report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace simrank::e2e

int main(int argc, char** argv) { return simrank::e2e::Main(argc, argv); }
