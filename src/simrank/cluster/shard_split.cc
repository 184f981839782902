#include "simrank/cluster/shard_split.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "simrank/common/string_util.h"

namespace simrank {

Status WriteShardIndex(const WalkStore& store, const ShardRange& range,
                       const std::string& out_path, bool compress) {
  const WalkStoreMeta& meta = store.meta();
  const uint32_t n = meta.n;
  const uint32_t L = meta.walk_length;
  const uint32_t R = meta.num_fingerprints;
  if (range.end > n || range.begin >= range.end) {
    return Status::InvalidArgument(StrFormat(
        "shard range [%u, %u) is not a non-empty subrange of [0, %u)",
        range.begin, range.end, n));
  }

  // The shard's walk table: in-range vertices keep their rows, every other
  // vertex gets the dead-from-step-1 row that a from-scratch build
  // produces for a vertex with no in-neighbours.
  const size_t words = store.WalkWords();
  std::vector<uint32_t> walks(words * n, WalkStore::kDeadWalk);
  std::vector<uint32_t> scratch;
  for (VertexId v = 0; v < n; ++v) {
    uint32_t* out = walks.data() + static_cast<size_t>(v) * words;
    if (!range.Contains(v)) {
      for (uint32_t r = 0; r < R; ++r) {
        out[static_cast<size_t>(r) * (L + 1)] = v;
      }
      continue;
    }
    const Result<const uint32_t*> row = store.Row(v, &scratch);
    if (!row.ok()) return row.status();
    std::copy_n(*row, words, out);
  }

  // Same meta (global n, global graph fingerprint): the shard stays
  // recognizably part of the one served graph, and the full index's WAL
  // identity binds to it unchanged.
  InMemoryWalkStore shard(meta, std::move(walks), /*num_threads=*/1);
  WalkStoreSaveOptions save;
  save.compress = compress;
  return SaveWalkStore(shard, out_path, save);
}

}  // namespace simrank
