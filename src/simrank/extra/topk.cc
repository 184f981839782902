#include "simrank/extra/topk.h"

#include <algorithm>

#include "simrank/common/macros.h"

namespace simrank {

std::vector<ScoredVertex> TopKFromRow(std::span<const double> row,
                                      VertexId query, uint32_t k,
                                      bool exclude_query) {
  const auto n = static_cast<uint32_t>(row.size());
  std::vector<ScoredVertex> all;
  all.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    if (exclude_query && v == query) continue;
    all.push_back(ScoredVertex{v, row[v]});
  }
  const size_t keep = std::min<size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<int64_t>(keep),
                    all.end(), ScoredVertexBefore);
  all.resize(keep);
  return all;
}

double SparseRow::Score(VertexId b) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), b,
      [](const ScoredVertex& e, VertexId id) { return e.vertex < id; });
  return it != entries.end() && it->vertex == b ? it->score : 0.0;
}

std::vector<double> SparseRow::Dense() const {
  std::vector<double> dense(n, 0.0);
  for (const ScoredVertex& e : entries) dense[e.vertex] = e.score;
  return dense;
}

std::vector<ScoredVertex> TopKFromSparseRow(const SparseRow& row,
                                            VertexId query, uint32_t k,
                                            VertexId begin, VertexId end) {
  auto before_id = [](const ScoredVertex& e, VertexId id) {
    return e.vertex < id;
  };
  const auto first = std::lower_bound(row.entries.begin(), row.entries.end(),
                                      begin, before_id);
  const auto last = std::lower_bound(first, row.entries.end(), end, before_id);
  std::vector<ScoredVertex> top;
  for (auto it = first; it != last; ++it) {
    if (it->vertex != query) top.push_back(*it);
  }
  const size_t keep = std::min<size_t>(k, top.size());
  std::partial_sort(top.begin(), top.begin() + static_cast<int64_t>(keep),
                    top.end(), ScoredVertexBefore);
  top.resize(keep);
  // Every zero ties every other, so they follow by ascending id.
  auto listed = first;
  for (VertexId b = begin; b < end && top.size() < k; ++b) {
    while (listed != last && listed->vertex < b) ++listed;
    if (b == query || (listed != last && listed->vertex == b)) continue;
    top.push_back(ScoredVertex{b, 0.0});
  }
  return top;
}

std::vector<ScoredVertex> TopKSimilar(const DenseMatrix& scores,
                                      VertexId query, uint32_t k,
                                      bool exclude_query) {
  OIPSIM_CHECK_LT(query, scores.rows());
  return TopKFromRow({scores.Row(query), scores.cols()}, query, k,
                     exclude_query);
}

std::vector<VertexId> TopKIds(const DenseMatrix& scores, VertexId query,
                              uint32_t k, bool exclude_query) {
  std::vector<VertexId> ids;
  for (const ScoredVertex& sv : TopKSimilar(scores, query, k, exclude_query)) {
    ids.push_back(sv.vertex);
  }
  return ids;
}

}  // namespace simrank
