// Top-k similarity queries over a computed score matrix or a single score
// row (e.g. a single-source estimate from the walk index).
#ifndef OIPSIM_SIMRANK_EXTRA_TOPK_H_
#define OIPSIM_SIMRANK_EXTRA_TOPK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "simrank/graph/digraph.h"
#include "simrank/linalg/dense_matrix.h"

namespace simrank {

/// One ranked answer of a top-k query.
struct ScoredVertex {
  VertexId vertex = 0;
  double score = 0.0;

  friend bool operator==(const ScoredVertex&, const ScoredVertex&) = default;
};

/// Top-k over an explicit score row s(query, ·) of length n. Descending
/// score, ties broken by ascending id; the query vertex is excluded when
/// `exclude_query` is true. This is the primitive behind TopKSimilar and
/// the walk-index QueryEngine.
std::vector<ScoredVertex> TopKFromRow(std::span<const double> row,
                                      VertexId query, uint32_t k,
                                      bool exclude_query = true);

/// A score row s(query, ·) of length n kept sparse: the vertices with a
/// nonzero score, ascending by id. Every vertex not listed scores +0.0,
/// so Dense() is the dense row bit for bit. A walk-index single-source
/// row lists the query vertex itself, at 1.0.
struct SparseRow {
  uint32_t n = 0;
  std::vector<ScoredVertex> entries;

  /// s(query, b) by binary search; +0.0 for a vertex not listed.
  double Score(VertexId b) const;
  /// The n-entry row, zeros filled in.
  std::vector<double> Dense() const;
  /// Heap bytes the row holds: what caching it costs.
  size_t HeapBytes() const {
    return sizeof(SparseRow) + entries.capacity() * sizeof(ScoredVertex);
  }
};

/// TopKFromRow(row.Dense(), query, k) bit for bit, query excluded. Every
/// listed score is positive, so the listed vertices rank first; when k
/// exceeds them the rest are zero-score vertices in ascending id order.
/// Costs O(m log k) over the m listed vertices, plus the zero fill.
std::vector<ScoredVertex> TopKFromSparseRow(const SparseRow& row,
                                            VertexId query, uint32_t k);

/// Returns the k vertices most similar to `query` (descending score, ties
/// broken by ascending id for determinism). The query vertex itself is
/// excluded when `exclude_query` is true (the common "find my neighbours"
/// use, e.g. the paper's top-30 co-author list of Fig. 6h).
std::vector<ScoredVertex> TopKSimilar(const DenseMatrix& scores,
                                      VertexId query, uint32_t k,
                                      bool exclude_query = true);

/// Extracts the ranking (vertex ids only) from TopKSimilar.
std::vector<VertexId> TopKIds(const DenseMatrix& scores, VertexId query,
                              uint32_t k, bool exclude_query = true);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_EXTRA_TOPK_H_
