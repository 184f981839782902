// Per-request span tracing for the serving stack.
//
// A TraceRecorder is a fixed-capacity, allocation-free span buffer owned
// by exactly one thread for the lifetime of one request. Instrumented
// code never takes a recorder parameter: it consults a thread-local
// plain pointer (null = tracing off), so the disabled path costs one TLS
// load and one predictable branch per site, and the enabled path costs
// two monotonic clock reads per span plus plain stores. Counters are
// plain uint64 adds with no clock read, cheap enough for per-slot /
// per-byte accounting inside the probe loops.
//
// The recorder is deliberately not propagated into ThreadPool workers:
// fan-out code (batch queries) measures child durations locally and
// records them after the join via AddCompletedSpan, keeping every
// recorder single-threaded. The router's scatter records its overlapping
// per-shard legs the same way, each from send to reply, once all legs
// are in. A routed request's recorder moves between the event loop and a
// worker, but only one step of the request runs at a time, and each step
// binds it.
//
// Serialization is one compact JSON document (spans as a parent-indexed
// tree, counters, raw child traces from downstream shards) with no
// newlines, so a trace travels intact in an HTTP header — the channel
// the router uses to collect shard sub-traces without perturbing
// response bodies byte-for-byte.
#ifndef OIPSIM_SIMRANK_OBS_TRACE_H_
#define OIPSIM_SIMRANK_OBS_TRACE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace simrank {

/// Pipeline stages a request can spend time in. Server-side stages come
/// first, then engine stages, then router stages.
enum class TraceStage : uint8_t {
  kRequest = 0,    // whole request, root span
  kQueueWait,      // dispatch to worker pickup
  kCacheLookup,    // row-cache probe
  kIndexProbe,     // inverted-index probe + accumulate loop
  kColdRead,       // segment prefetch / cold store read
  kDecode,         // walk-row varint decode
  kOverlayMerge,   // delta-overlay row merge
  kSerialize,      // response body construction
  kRowFetch,       // router: fetch source row from owning shard
  kShardExchange,  // router: one shard round-trip (detail = shard)
  kMerge,          // router: assemble the row from the shards' slices
  kNumStages,
};

inline constexpr uint32_t kNumTraceStages =
    static_cast<uint32_t>(TraceStage::kNumStages);

const char* TraceStageName(TraceStage stage);

/// Work counters accumulated over a request, no clock reads.
enum class TraceCounter : uint8_t {
  kCacheHits = 0,
  kCacheMisses,
  kRowsDecoded,
  kBytesRead,
  kSlotsProbed,
  kBucketEntries,
  kOverlayRowsMerged,
  kShardsContacted,
  kConflictRetries,
  kNumCounters,
};

inline constexpr uint32_t kNumTraceCounters =
    static_cast<uint32_t>(TraceCounter::kNumCounters);

const char* TraceCounterName(TraceCounter counter);

/// CLOCK_MONOTONIC now, in nanoseconds.
uint64_t TraceNowNanos();

/// Process-unique 64-bit trace id (never zero).
uint64_t GenerateTraceId();

/// 16-hex-digit form of a trace id.
std::string TraceIdToHex(uint64_t id);

/// Parses a 1..16 hex digit trace id; returns false (and leaves `*id`
/// untouched) on malformed input or a zero id.
bool ParseTraceId(std::string_view text, uint64_t* id);

/// One recorded interval. `parent` indexes into the recorder's span
/// array; -1 marks the root.
struct TraceSpan {
  static constexpr uint32_t kDetailCapacity = 24;

  TraceStage stage = TraceStage::kRequest;
  int16_t parent = -1;
  uint64_t start_ns = 0;     // relative to the recorder's first span
  uint64_t duration_ns = 0;  // 0 while still open
  char detail[kDetailCapacity] = {};  // optional label, truncated
};

/// Fixed-capacity span recorder for one request. All methods must be
/// called from the single thread that owns the request; none allocate
/// except AddChildTrace (which only runs on the already-traced router
/// merge path).
class TraceRecorder {
 public:
  static constexpr uint32_t kMaxSpans = 64;
  static constexpr uint32_t kMaxOpenDepth = 16;

  explicit TraceRecorder(uint64_t trace_id)
      : trace_id_(trace_id == 0 ? GenerateTraceId() : trace_id) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  uint64_t trace_id() const { return trace_id_; }

  /// Opens a nested span; the innermost still-open span becomes its
  /// parent. Returns the span index, or -1 if the buffer is full (the
  /// drop is counted and reported in the JSON).
  int OpenSpan(TraceStage stage, std::string_view detail = {});

  /// Closes the span returned by OpenSpan. Passing -1 is a no-op so
  /// callers can close unconditionally.
  void CloseSpan(int index);

  /// Records an already-measured interval (e.g. timed on a fan-out
  /// thread and reported after the join, or overlapping its siblings like
  /// the router's scatter legs). `start_ns` is an absolute TraceNowNanos()
  /// reading.
  void AddCompletedSpan(TraceStage stage, uint64_t start_ns,
                        uint64_t duration_ns, std::string_view detail = {});

  void Add(TraceCounter counter, uint64_t delta) {
    counters_[static_cast<uint32_t>(counter)] += delta;
  }

  /// Attaches a downstream trace (a shard's serialized trace JSON) to be
  /// embedded under "children". Ignores anything not shaped like a JSON
  /// object.
  void AddChildTrace(std::string json);

  uint32_t num_spans() const { return num_spans_; }
  const TraceSpan& span(uint32_t i) const { return spans_[i]; }
  uint64_t counter(TraceCounter c) const {
    return counters_[static_cast<uint32_t>(c)];
  }
  uint32_t dropped_spans() const { return dropped_spans_; }
  const std::vector<std::string>& children() const { return children_; }

  /// The whole trace as one single-line JSON object:
  ///   {"trace_id":"…","spans":[{"stage":"…","parent":-1,"start_ns":N,
  ///    "duration_ns":N,"detail":"…"},…],"counters":{…},
  ///    "dropped_spans":N,"children":[…]}
  /// "detail" is omitted when empty, "dropped_spans"/"children" when
  /// zero/absent. Contains no newline bytes.
  std::string ToJson() const;

 private:
  uint64_t trace_id_;
  uint64_t base_ns_ = 0;  // absolute time of the first span
  uint32_t num_spans_ = 0;
  uint32_t dropped_spans_ = 0;
  uint32_t open_depth_ = 0;
  int16_t open_stack_[kMaxOpenDepth];
  TraceSpan spans_[kMaxSpans];
  uint64_t counters_[kNumTraceCounters] = {};
  std::vector<std::string> children_;
};

namespace internal {
extern thread_local TraceRecorder* tls_trace_recorder;
}  // namespace internal

/// The recorder bound to this thread, or null when tracing is off. The
/// null check is the entire cost of an untraced instrumentation site.
inline TraceRecorder* CurrentTraceRecorder() {
  return internal::tls_trace_recorder;
}

/// Binds `recorder` to this thread for the enclosing scope, restoring
/// the previous binding (normally null) on exit.
class TraceBinding {
 public:
  explicit TraceBinding(TraceRecorder* recorder)
      : previous_(internal::tls_trace_recorder) {
    internal::tls_trace_recorder = recorder;
  }
  ~TraceBinding() { internal::tls_trace_recorder = previous_; }

  TraceBinding(const TraceBinding&) = delete;
  TraceBinding& operator=(const TraceBinding&) = delete;

 private:
  TraceRecorder* previous_;
};

/// RAII span over the current thread's recorder; a complete no-op (no
/// clock read) when tracing is off.
class TraceScope {
 public:
  explicit TraceScope(TraceStage stage, std::string_view detail = {})
      : recorder_(CurrentTraceRecorder()) {
    if (recorder_ != nullptr) {
      index_ = recorder_->OpenSpan(stage, detail);
    }
  }
  ~TraceScope() {
    if (recorder_ != nullptr) {
      recorder_->CloseSpan(index_);
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* recorder_;
  int index_ = -1;
};

/// Counter bump on the current recorder; one TLS load + branch when off.
inline void TraceAdd(TraceCounter counter, uint64_t delta) {
  if (TraceRecorder* recorder = CurrentTraceRecorder()) {
    recorder->Add(counter, delta);
  }
}

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_OBS_TRACE_H_
