#include "simrank/graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "simrank/common/stream_hash.h"
#include "simrank/common/string_util.h"

namespace simrank {

namespace {

constexpr uint32_t kBinaryMagic = 0x4F495053;  // "OIPS"

struct ParsedEdges {
  uint32_t n = 0;
  std::vector<Edge> edges;
};

Result<ParsedEdges> ParseEdgeLines(std::istream& in, bool compact_ids) {
  ParsedEdges parsed;
  std::unordered_map<uint64_t, VertexId> relabel;
  uint64_t max_id = 0;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '%') continue;

    // Split on arbitrary whitespace.
    std::istringstream fields{std::string(trimmed)};
    std::string src_str, dst_str, extra;
    fields >> src_str >> dst_str;
    if (dst_str.empty()) {
      return Status::ParseError(
          StrFormat("line %d: expected 'src dst'", line_no));
    }
    if (fields >> extra) {
      return Status::ParseError(
          StrFormat("line %d: trailing field '%s'", line_no, extra.c_str()));
    }
    uint64_t src_raw = 0, dst_raw = 0;
    if (!ParseUint64(src_str, &src_raw) || !ParseUint64(dst_str, &dst_raw)) {
      return Status::ParseError(
          StrFormat("line %d: malformed vertex id", line_no));
    }
    VertexId src, dst;
    if (compact_ids) {
      auto intern = [&relabel](uint64_t raw) {
        auto [it, inserted] =
            relabel.emplace(raw, static_cast<VertexId>(relabel.size()));
        (void)inserted;
        return it->second;
      };
      src = intern(src_raw);
      dst = intern(dst_raw);
    } else {
      if (src_raw > UINT32_MAX - 1 || dst_raw > UINT32_MAX - 1) {
        return Status::ParseError(
            StrFormat("line %d: vertex id exceeds uint32 range", line_no));
      }
      src = static_cast<VertexId>(src_raw);
      dst = static_cast<VertexId>(dst_raw);
      max_id = std::max({max_id, src_raw, dst_raw});
    }
    parsed.edges.push_back(Edge{src, dst});
  }
  parsed.n = compact_ids
                 ? static_cast<uint32_t>(relabel.size())
                 : (parsed.edges.empty() ? 0
                                         : static_cast<uint32_t>(max_id + 1));
  return parsed;
}

}  // namespace

Result<DiGraph> ParseEdgeList(const std::string& text, bool compact_ids) {
  std::istringstream in(text);
  Result<ParsedEdges> parsed = ParseEdgeLines(in, compact_ids);
  if (!parsed.ok()) return parsed.status();
  DiGraph::Builder builder(parsed->n);
  builder.AddEdges(parsed->edges);
  return std::move(builder).Build();
}

Result<DiGraph> ReadEdgeList(const std::string& path, bool compact_ids) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  Result<ParsedEdges> parsed = ParseEdgeLines(in, compact_ids);
  if (!parsed.ok()) return parsed.status();
  DiGraph::Builder builder(parsed->n);
  builder.AddEdges(parsed->edges);
  return std::move(builder).Build();
}

Status WriteEdgeList(const DiGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "# oipsim edge list: n=" << graph.n() << " m=" << graph.m() << "\n";
  for (VertexId v = 0; v < graph.n(); ++v) {
    for (VertexId u : graph.OutNeighbors(v)) {
      out << v << ' ' << u << '\n';
    }
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status WriteBinary(const DiGraph& graph, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for writing: " + path);
  uint32_t n = graph.n();
  uint64_t m = graph.m();
  bool ok = std::fwrite(&kBinaryMagic, sizeof(kBinaryMagic), 1, f) == 1 &&
            std::fwrite(&n, sizeof(n), 1, f) == 1 &&
            std::fwrite(&m, sizeof(m), 1, f) == 1;
  for (VertexId v = 0; ok && v < n; ++v) {
    for (VertexId u : graph.OutNeighbors(v)) {
      uint32_t pair[2] = {v, u};
      ok = std::fwrite(pair, sizeof(pair), 1, f) == 1;
    }
  }
  int close_rc = std::fclose(f);
  if (!ok || close_rc != 0) return Status::IoError("short write: " + path);
  return Status::OK();
}

uint64_t EdgeFingerprint(VertexId src, VertexId dst) {
  // splitmix64 finalizer over the packed pair: every output bit depends
  // on every input bit, which is what makes the commutative (sum, xor)
  // accumulation collision-resistant in practice.
  uint64_t z = (static_cast<uint64_t>(src) << 32) | dst;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t ComposeGraphFingerprint(uint32_t n, uint64_t m, uint64_t edge_sum,
                                 uint64_t edge_xor) {
  StreamHasher hasher;
  hasher.Absorb(n);
  hasher.Absorb(m);
  hasher.Absorb(edge_sum);
  hasher.Absorb(edge_xor);
  return hasher.digest();
}

uint64_t GraphFingerprint(const DiGraph& graph) {
  uint64_t edge_sum = 0;
  uint64_t edge_xor = 0;
  for (VertexId v = 0; v < graph.n(); ++v) {
    for (VertexId u : graph.OutNeighbors(v)) {
      const uint64_t h = EdgeFingerprint(v, u);
      edge_sum += h;
      edge_xor ^= h;
    }
  }
  return ComposeGraphFingerprint(graph.n(), graph.m(), edge_sum, edge_xor);
}

Result<DiGraph> ReadBinary(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open: " + path);
  uint32_t magic = 0, n = 0;
  uint64_t m = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 &&
            std::fread(&n, sizeof(n), 1, f) == 1 &&
            std::fread(&m, sizeof(m), 1, f) == 1;
  if (!ok || magic != kBinaryMagic) {
    std::fclose(f);
    return Status::ParseError("bad header in binary graph: " + path);
  }
  DiGraph::Builder builder(n);
  for (uint64_t i = 0; i < m; ++i) {
    uint32_t pair[2];
    if (std::fread(pair, sizeof(pair), 1, f) != 1) {
      std::fclose(f);
      return Status::ParseError("truncated binary graph: " + path);
    }
    if (pair[0] >= n || pair[1] >= n) {
      std::fclose(f);
      return Status::ParseError("vertex id out of range in: " + path);
    }
    builder.AddEdge(pair[0], pair[1]);
  }
  std::fclose(f);
  return std::move(builder).Build();
}

Result<DiGraph> ReadGraphAuto(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open: " + path);
  uint32_t magic = 0;
  const bool has_magic = std::fread(&magic, sizeof(magic), 1, f) == 1;
  std::fclose(f);
  if (has_magic && magic == kBinaryMagic) return ReadBinary(path);
  return ReadEdgeList(path);
}

std::string FormatFingerprint(uint64_t fingerprint) {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(fingerprint));
}

bool ParseFingerprint(std::string_view text, uint64_t* fingerprint) {
  return text.size() == 16 &&
         text.find_first_not_of("0123456789abcdef") == std::string_view::npos &&
         std::from_chars(text.data(), text.data() + text.size(), *fingerprint,
                         16)
                 .ec == std::errc();
}

}  // namespace simrank
