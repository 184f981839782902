// WAL-shipping replication: the replica side.
//
// A replica is an ordinary shard server started from the same shard index
// file as its primary, with updates disabled at the public surface (it
// answers 403 on /v1/update). The tailer is what keeps it current: a
// background thread that polls the primary's `GET /v1/wal?from=` stream —
// `from` is the replica's own WAL record count, so the poll position
// survives a replica restart for free — and applies each shipped record
// through IndexUpdater::ApplyReplicated.
//
// Safety comes from the fingerprint chain, not from the transport: every
// WAL record carries the post-batch graph fingerprint, and ApplyReplicated
// refuses a batch whose locally computed post-fingerprint differs, and
// every poll names the replica's graph fingerprint next to `from`: the
// primary answers 409 unless its record from-1 ended at that graph. A
// replica that was started from the wrong index, or whose primary (or
// itself) compacted and reset the WAL numbering under it, stops
// replicating with a loud, logged error instead of serving silently stale
// or wrong walks. Records are also applied strictly in index order — a
// gap in the stream halts the tailer rather than skipping. Re-seeding a
// halted replica means restarting it from the compacted index.
#ifndef OIPSIM_SIMRANK_CLUSTER_WAL_TAILER_H_
#define OIPSIM_SIMRANK_CLUSTER_WAL_TAILER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "simrank/common/macros.h"
#include "simrank/common/status.h"
#include "simrank/index/index_updater.h"

namespace simrank {

struct WalTailerOptions {
  /// Loopback port of the primary to tail.
  uint16_t source_port = 0;
  /// Poll interval between /v1/wal requests.
  uint32_t poll_interval_ms = 50;
  /// Per-operation socket timeout on the poll connection.
  uint32_t timeout_ms = 2000;
};

struct WalTailerStats {
  uint64_t polls = 0;
  /// Records fetched and applied through ApplyReplicated.
  uint64_t records_applied = 0;
  /// Failed polls (primary down) — transient; the tailer keeps polling.
  uint64_t poll_errors = 0;
  /// True once a non-transient error (fingerprint divergence, stream gap,
  /// a reset log) has halted replication; last_error describes it.
  bool halted = false;
  std::string last_error;
};

/// Tails one primary's WAL into one replica's updater. Start() spawns the
/// poll thread; Stop() joins it. The updater must outlive the tailer. The
/// replica's engine needs no notice of applied records: its cached rows
/// are checked against each batch's row-change set (query_engine.h).
class WalTailer {
 public:
  WalTailer(IndexUpdater& updater, const WalTailerOptions& options)
      : updater_(updater), options_(options) {}

  ~WalTailer() { Stop(); }

  OIPSIM_DISALLOW_COPY_AND_ASSIGN(WalTailer);

  Status Start();

  /// Stops polling and joins. Idempotent.
  void Stop();

  WalTailerStats stats() const;

  /// Applies one fetched /v1/wal body (exposed for tests; Start()'s poll
  /// loop calls this). Returns the number of records applied, or the
  /// first non-transient error.
  Result<uint64_t> ApplyStream(std::string_view body);

 private:
  void PollLoop();

  IndexUpdater& updater_;
  const WalTailerOptions options_;
  std::atomic<bool> stop_{true};
  std::thread thread_;

  mutable std::mutex stats_mutex_;
  WalTailerStats stats_;
};

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_CLUSTER_WAL_TAILER_H_
