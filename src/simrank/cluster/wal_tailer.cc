#include "simrank/cluster/wal_tailer.h"

#include <chrono>
#include <vector>

#include "simrank/common/logging.h"
#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"
#include "simrank/index/edge_update.h"
#include "simrank/server/http_client.h"

namespace simrank {

Status WalTailer::Start() {
  if (options_.source_port == 0) {
    return Status::InvalidArgument("WalTailer needs a source port");
  }
  bool expected = true;
  if (!stop_.compare_exchange_strong(expected, false)) {
    return Status::InvalidArgument("WalTailer is already running");
  }
  thread_ = std::thread([this] { PollLoop(); });
  return Status::OK();
}

void WalTailer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

WalTailerStats WalTailer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

Result<uint64_t> WalTailer::ApplyStream(std::string_view body) {
  const std::vector<std::string> lines = StrSplit(body, '\n');
  size_t cursor = 0;
  auto next_line = [&]() -> std::string_view {
    while (cursor < lines.size()) {
      const std::string_view line = StrTrim(lines[cursor++]);
      if (!line.empty()) return line;
    }
    return std::string_view();
  };

  std::string_view header = next_line();
  if (header.substr(0, 4) != "wal ") {
    return Status::ParseError("WAL stream does not start with 'wal'");
  }
  uint64_t announced = 0;
  {
    const std::string_view rest = header.substr(4);
    const size_t space = rest.find(' ');
    if (space == std::string_view::npos ||
        !ParseUint64(rest.substr(0, space), &announced)) {
      return Status::ParseError("malformed 'wal' header line");
    }
  }

  uint64_t applied = 0;
  for (uint64_t i = 0; i < announced; ++i) {
    const std::string_view record_line = next_line();
    if (record_line.substr(0, 7) != "record ") {
      return Status::ParseError("expected a 'record' line in WAL stream");
    }
    const std::vector<std::string> fields =
        StrSplit(std::string(record_line.substr(7)), ' ');
    uint64_t index = 0;
    uint64_t post_fingerprint = 0;
    uint64_t num_updates = 0;
    if (fields.size() != 3 || !ParseUint64(fields[0], &index) ||
        !ParseFingerprint(fields[1], &post_fingerprint) ||
        !ParseUint64(fields[2], &num_updates) || num_updates == 0) {
      return Status::ParseError("malformed 'record' line in WAL stream");
    }
    std::string batch_text;
    for (uint64_t u = 0; u < num_updates; ++u) {
      const std::string_view update_line = next_line();
      if (update_line.empty()) {
        return Status::ParseError("WAL record truncated mid-batch");
      }
      batch_text.append(update_line);
      batch_text.push_back('\n');
    }
    const uint64_t local = updater_.stats().wal_records;
    if (index < local) continue;  // already applied (restart overlap)
    if (index > local) {
      // The primary's stream skipped ahead of this replica — e.g. a
      // compaction reset the primary's WAL. Re-seed the replica from the
      // compacted index instead of guessing.
      return Status::InvalidArgument(
          StrFormat("WAL stream gap: primary shipped record %llu but this "
                    "replica has only %llu",
                    static_cast<unsigned long long>(index),
                    static_cast<unsigned long long>(local)));
    }
    auto updates = ParseEdgeUpdates(batch_text);
    if (!updates.ok()) return updates.status();
    OIPSIM_RETURN_IF_ERROR(
        updater_.ApplyReplicated(*updates, post_fingerprint));
    ++applied;
  }
  const std::string_view trailer = next_line();
  if (trailer != "end") {
    return Status::ParseError("WAL stream not terminated by 'end'");
  }
  return applied;
}

void WalTailer::PollLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // The poll names the state it continues from, so a primary whose log
    // was reset under this replica answers 409 instead of an empty tail.
    const IndexUpdateStats local = updater_.stats();
    auto client =
        LoopbackHttpClient::Connect(options_.source_port, options_.timeout_ms);
    Result<HttpClientResponse> response =
        client.ok()
            ? client->Get(StrFormat(
                  "/v1/wal?from=%llu&fingerprint=%s",
                  static_cast<unsigned long long>(local.wal_records),
                  FormatFingerprint(local.current_graph_fingerprint).c_str()))
            : Result<HttpClientResponse>(client.status());
    const bool shipped = response.ok() && response->status == 200;
    const bool reset = response.ok() && response->status == 409;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.polls;
      if (!shipped && !reset) ++stats_.poll_errors;
    }
    if (shipped || reset) {
      Result<uint64_t> applied =
          reset ? Result<uint64_t>(Status::InvalidArgument(
                      "the primary's WAL was reset under this replica: " +
                      response->body))
                : ApplyStream(response->body);
      if (!applied.ok()) {
        // Divergence, a stream gap or a reset log is permanent: halt
        // instead of retrying into the same wall, and keep the reason
        // visible, here and in the replica's own stats.
        const std::string error = applied.status().ToString();
        OIPSIM_LOG(kError) << "WAL tailer of port " << options_.source_port
                           << " halted: " << error;
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.halted = true;
          stats_.last_error = error;
        }
        updater_.HaltReplication(error);
        break;
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.records_applied += *applied;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.poll_interval_ms));
  }
}

}  // namespace simrank
