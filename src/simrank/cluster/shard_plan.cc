#include "simrank/cluster/shard_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "simrank/common/string_util.h"
#include "simrank/graph/graph_io.h"

namespace simrank {
namespace {

constexpr std::string_view kPlanMagicLine = "simrank-shard-plan v1";

}  // namespace

Status ShardPlan::Validate() const {
  if (n == 0) {
    return Status::InvalidArgument("shard plan covers an empty graph");
  }
  if (shards.empty()) {
    return Status::InvalidArgument("shard plan declares no shards");
  }
  VertexId expected_begin = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardRange& range = shards[i];
    if (range.shard_id != i) {
      return Status::InvalidArgument(StrFormat(
          "shard plan ids must be 0..%zu in order; declaration %zu has id "
          "%u",
          shards.size() - 1, i, range.shard_id));
    }
    if (range.begin != expected_begin) {
      return Status::InvalidArgument(StrFormat(
          "shard %u starts at %u, expected %u: ranges must be contiguous "
          "from 0",
          range.shard_id, range.begin, expected_begin));
    }
    if (range.end <= range.begin) {
      return Status::InvalidArgument(
          StrFormat("shard %u range [%u, %u) is empty", range.shard_id,
                    range.begin, range.end));
    }
    expected_begin = range.end;
  }
  if (expected_begin != n) {
    return Status::InvalidArgument(StrFormat(
        "shard ranges cover [0, %u) but the plan declares n=%u",
        expected_begin, n));
  }
  return Status::OK();
}

uint32_t ShardPlan::OwnerOf(VertexId v) const {
  OIPSIM_CHECK_MSG(v < n, "OwnerOf(%u) beyond the plan's n=%u", v, n);
  const auto it = std::upper_bound(
      shards.begin(), shards.end(), v,
      [](VertexId value, const ShardRange& range) {
        return value < range.end;
      });
  OIPSIM_CHECK(it != shards.end() && it->Contains(v));
  return it->shard_id;
}

std::string ShardPlan::Format() const {
  std::string out(kPlanMagicLine);
  out += '\n';
  out += StrFormat("epoch %llu\n", static_cast<unsigned long long>(epoch));
  out += StrFormat("graph_fingerprint %s\n",
                   FormatFingerprint(graph_fingerprint).c_str());
  out += StrFormat("n %u\n", n);
  out += StrFormat("shards %zu\n", shards.size());
  for (const ShardRange& range : shards) {
    out += StrFormat("shard %u %u %u\n", range.shard_id, range.begin,
                     range.end);
  }
  return out;
}

Result<ShardPlan> ShardPlan::Parse(std::string_view text) {
  ShardPlan plan;
  plan.epoch = 0;
  bool saw_magic = false;
  bool saw_epoch = false;
  bool saw_fingerprint = false;
  bool saw_n = false;
  uint64_t declared_shards = 0;
  bool saw_shards = false;
  size_t line_number = 0;
  for (const std::string& raw : StrSplit(text, '\n')) {
    ++line_number;
    const std::string_view line = StrTrim(raw);
    if (line.empty() || line[0] == '#') continue;
    auto malformed = [&](const char* what) {
      return Status::ParseError(StrFormat(
          "shard plan line %zu: %s: '%.*s'", line_number, what,
          static_cast<int>(line.size()), line.data()));
    };
    if (!saw_magic) {
      if (line != kPlanMagicLine) {
        return Status::ParseError(StrFormat(
            "not a shard plan: first line must be '%.*s'",
            static_cast<int>(kPlanMagicLine.size()), kPlanMagicLine.data()));
      }
      saw_magic = true;
      continue;
    }
    const std::vector<std::string> fields =
        StrSplit(std::string(line), ' ');
    if (fields[0] == "epoch" && fields.size() == 2) {
      if (!ParseUint64(fields[1], &plan.epoch) || plan.epoch == 0) {
        return malformed("epoch must be a positive integer");
      }
      saw_epoch = true;
    } else if (fields[0] == "graph_fingerprint" && fields.size() == 2) {
      if (!ParseFingerprint(fields[1], &plan.graph_fingerprint)) {
        return malformed("fingerprint must be 16 lower-case hex digits");
      }
      saw_fingerprint = true;
    } else if (fields[0] == "n" && fields.size() == 2) {
      uint64_t value = 0;
      if (!ParseUint64(fields[1], &value) || value == 0 ||
          value > UINT32_MAX) {
        return malformed("n must be a positive 32-bit integer");
      }
      plan.n = static_cast<uint32_t>(value);
      saw_n = true;
    } else if (fields[0] == "shards" && fields.size() == 2) {
      if (!ParseUint64(fields[1], &declared_shards)) {
        return malformed("shards must be an integer count");
      }
      saw_shards = true;
    } else if (fields[0] == "shard" && fields.size() == 4) {
      uint64_t id = 0, begin = 0, end = 0;
      if (!ParseUint64(fields[1], &id) || !ParseUint64(fields[2], &begin) ||
          !ParseUint64(fields[3], &end) || id > UINT32_MAX ||
          begin > UINT32_MAX || end > UINT32_MAX) {
        return malformed("expected 'shard ID BEGIN END'");
      }
      plan.shards.push_back(ShardRange{static_cast<uint32_t>(id),
                                       static_cast<VertexId>(begin),
                                       static_cast<VertexId>(end)});
    } else {
      return malformed("unknown declaration");
    }
  }
  if (!saw_magic) {
    return Status::ParseError("empty shard plan (missing magic line)");
  }
  if (!saw_epoch || !saw_fingerprint || !saw_n || !saw_shards) {
    return Status::ParseError(
        "shard plan must declare epoch, graph_fingerprint, n and shards");
  }
  if (declared_shards != plan.shards.size()) {
    return Status::ParseError(StrFormat(
        "shard plan declares %llu shards but lists %zu",
        static_cast<unsigned long long>(declared_shards),
        plan.shards.size()));
  }
  OIPSIM_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

Result<ShardPlan> ShardPlan::LoadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open shard plan: " + path);
  }
  std::string text;
  char chunk[4096];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::IoError("read error on shard plan: " + path);
  }
  auto plan = Parse(text);
  if (!plan.ok()) {
    return Status(plan.status().code(),
                  path + ": " + plan.status().message());
  }
  return plan;
}

Status ShardPlan::SaveFile(const std::string& path) const {
  OIPSIM_RETURN_IF_ERROR(Validate());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot write shard plan: " + path);
  }
  const std::string text = Format();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    return Status::IoError("short write on shard plan: " + path);
  }
  return Status::OK();
}

Result<ShardPlan> ShardPlan::EvenSplit(uint32_t n,
                                       uint64_t graph_fingerprint,
                                       uint32_t num_shards, uint64_t epoch) {
  if (num_shards == 0 || num_shards > n) {
    return Status::InvalidArgument(StrFormat(
        "cannot split %u vertices into %u non-empty shards", n, num_shards));
  }
  ShardPlan plan;
  plan.epoch = epoch;
  plan.graph_fingerprint = graph_fingerprint;
  plan.n = n;
  const uint32_t quotient = n / num_shards;
  const uint32_t remainder = n % num_shards;
  VertexId begin = 0;
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    const VertexId end = begin + quotient + (shard < remainder ? 1 : 0);
    plan.shards.push_back(ShardRange{shard, begin, end});
    begin = end;
  }
  return plan;
}

}  // namespace simrank
