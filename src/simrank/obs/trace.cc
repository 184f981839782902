#include "simrank/obs/trace.h"

#include <time.h>

#include <atomic>
#include <random>

#include "simrank/common/json_writer.h"
#include "simrank/common/macros.h"
#include "simrank/common/string_util.h"

namespace simrank {

namespace internal {
thread_local TraceRecorder* tls_trace_recorder = nullptr;
}  // namespace internal

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kRequest:
      return "request";
    case TraceStage::kQueueWait:
      return "queue_wait";
    case TraceStage::kCacheLookup:
      return "cache_lookup";
    case TraceStage::kIndexProbe:
      return "index_probe";
    case TraceStage::kColdRead:
      return "cold_read";
    case TraceStage::kDecode:
      return "decode";
    case TraceStage::kOverlayMerge:
      return "overlay_merge";
    case TraceStage::kSerialize:
      return "serialize";
    case TraceStage::kRowFetch:
      return "row_fetch";
    case TraceStage::kShardExchange:
      return "shard_exchange";
    case TraceStage::kMerge:
      return "merge";
    case TraceStage::kNumStages:
      break;
  }
  return "unknown";
}

const char* TraceCounterName(TraceCounter counter) {
  switch (counter) {
    case TraceCounter::kCacheHits:
      return "cache_hits";
    case TraceCounter::kCacheMisses:
      return "cache_misses";
    case TraceCounter::kRowsDecoded:
      return "rows_decoded";
    case TraceCounter::kBytesRead:
      return "bytes_read";
    case TraceCounter::kSlotsProbed:
      return "slots_probed";
    case TraceCounter::kBucketEntries:
      return "bucket_entries";
    case TraceCounter::kOverlayRowsMerged:
      return "overlay_rows_merged";
    case TraceCounter::kShardsContacted:
      return "shards_contacted";
    case TraceCounter::kConflictRetries:
      return "conflict_retries";
    case TraceCounter::kNumCounters:
      break;
  }
  return "unknown";
}

uint64_t TraceNowNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t GenerateTraceId() {
  static const uint64_t seed = [] {
    std::random_device device;
    return (static_cast<uint64_t>(device()) << 32) ^ device();
  }();
  static std::atomic<uint64_t> counter{1};
  uint64_t id = 0;
  while (id == 0) {
    id = SplitMix64(seed ^ counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

std::string TraceIdToHex(uint64_t id) {
  static const char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[id & 0xf];
    id >>= 4;
  }
  return out;
}

bool ParseTraceId(std::string_view text, uint64_t* id) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  if (value == 0) return false;
  *id = value;
  return true;
}

namespace {

void CopyDetail(std::string_view detail, char* out) {
  const size_t n =
      detail.size() < TraceSpan::kDetailCapacity - 1
          ? detail.size()
          : static_cast<size_t>(TraceSpan::kDetailCapacity - 1);
  std::memcpy(out, detail.data(), n);
  out[n] = '\0';
}

}  // namespace

int TraceRecorder::OpenSpan(TraceStage stage, std::string_view detail) {
  if (num_spans_ >= kMaxSpans || open_depth_ >= kMaxOpenDepth) {
    ++dropped_spans_;
    return -1;
  }
  const uint64_t now = TraceNowNanos();
  if (num_spans_ == 0) base_ns_ = now;
  const int index = static_cast<int>(num_spans_++);
  TraceSpan& span = spans_[index];
  span.stage = stage;
  span.parent =
      open_depth_ > 0 ? open_stack_[open_depth_ - 1] : int16_t{-1};
  span.start_ns = now - base_ns_;
  span.duration_ns = 0;
  if (!detail.empty()) CopyDetail(detail, span.detail);
  open_stack_[open_depth_++] = static_cast<int16_t>(index);
  return index;
}

void TraceRecorder::CloseSpan(int index) {
  if (index < 0 || static_cast<uint32_t>(index) >= num_spans_) return;
  TraceSpan& span = spans_[index];
  const uint64_t now = TraceNowNanos();
  const uint64_t absolute_start = base_ns_ + span.start_ns;
  span.duration_ns = now > absolute_start ? now - absolute_start : 0;
  // Pop through the open stack until this span is gone; scopes close
  // LIFO, so normally this pops exactly one entry.
  while (open_depth_ > 0 &&
         open_stack_[open_depth_ - 1] != static_cast<int16_t>(index)) {
    --open_depth_;
  }
  if (open_depth_ > 0) --open_depth_;
}

void TraceRecorder::AddCompletedSpan(TraceStage stage, uint64_t start_ns,
                                     uint64_t duration_ns,
                                     std::string_view detail) {
  if (num_spans_ >= kMaxSpans) {
    ++dropped_spans_;
    return;
  }
  if (num_spans_ == 0) base_ns_ = start_ns;
  TraceSpan& span = spans_[num_spans_++];
  span.stage = stage;
  span.parent =
      open_depth_ > 0 ? open_stack_[open_depth_ - 1] : int16_t{-1};
  span.start_ns = start_ns > base_ns_ ? start_ns - base_ns_ : 0;
  span.duration_ns = duration_ns;
  if (!detail.empty()) CopyDetail(detail, span.detail);
}

void TraceRecorder::AddChildTrace(std::string json) {
  // Only accept something shaped like a single-line JSON object; a
  // malformed child would corrupt the merged document.
  if (json.empty() || json.front() != '{' || json.back() != '}' ||
      json.find('\n') != std::string::npos) {
    return;
  }
  children_.push_back(std::move(json));
}

std::string TraceRecorder::ToJson() const {
  std::string out;
  out.reserve(256 + 96 * num_spans_);
  out += "{\"trace_id\":\"";
  out += TraceIdToHex(trace_id_);
  out += "\",\"spans\":[";
  for (uint32_t i = 0; i < num_spans_; ++i) {
    const TraceSpan& span = spans_[i];
    if (i > 0) out += ',';
    out += "{\"stage\":\"";
    out += TraceStageName(span.stage);
    out += "\",\"parent\":";
    out += StrFormat("%d", static_cast<int>(span.parent));
    out += ",\"start_ns\":";
    out += StrFormat("%llu", static_cast<unsigned long long>(span.start_ns));
    out += ",\"duration_ns\":";
    out +=
        StrFormat("%llu", static_cast<unsigned long long>(span.duration_ns));
    if (span.detail[0] != '\0') {
      out += ",\"detail\":\"";
      JsonEscape(span.detail, &out);
      out += '"';
    }
    out += '}';
  }
  out += "],\"counters\":{";
  bool first = true;
  for (uint32_t c = 0; c < kNumTraceCounters; ++c) {
    if (counters_[c] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += TraceCounterName(static_cast<TraceCounter>(c));
    out += "\":";
    out += StrFormat("%llu", static_cast<unsigned long long>(counters_[c]));
  }
  out += '}';
  if (dropped_spans_ > 0) {
    out += ",\"dropped_spans\":";
    out += StrFormat("%u", dropped_spans_);
  }
  if (!children_.empty()) {
    out += ",\"children\":[";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += ',';
      out += children_[i];
    }
    out += ']';
  }
  out += '}';
  return out;
}

}  // namespace simrank
