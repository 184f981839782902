// Graph serialisation: SNAP-style edge-list text files and a compact
// binary format for generated benchmark datasets.
#ifndef OIPSIM_SIMRANK_GRAPH_GRAPH_IO_H_
#define OIPSIM_SIMRANK_GRAPH_GRAPH_IO_H_

#include <string>
#include <string_view>

#include "simrank/common/status.h"
#include "simrank/graph/digraph.h"

namespace simrank {

/// Reads a whitespace-separated edge list ("src dst" per line). Lines that
/// are empty or start with '#' or '%' are skipped (SNAP/Matrix-Market
/// comment conventions). Vertex ids may be arbitrary non-negative integers;
/// when `compact_ids` is true they are relabelled densely in first-seen
/// order, otherwise the max id defines n and ids are used as-is.
Result<DiGraph> ReadEdgeList(const std::string& path,
                             bool compact_ids = true);

/// Parses an edge list from an in-memory string (same format as
/// ReadEdgeList). Useful for tests and fixtures.
Result<DiGraph> ParseEdgeList(const std::string& text,
                              bool compact_ids = true);

/// Writes "src dst" lines, one directed edge per line, with a header
/// comment carrying n and m.
Status WriteEdgeList(const DiGraph& graph, const std::string& path);

/// Writes the compact binary format: magic, n, m, then m (src,dst) pairs of
/// uint32. Reading validates magic and bounds.
Status WriteBinary(const DiGraph& graph, const std::string& path);

/// Reads the compact binary format written by WriteBinary.
Result<DiGraph> ReadBinary(const std::string& path);

/// Reads either graph format, sniffing the binary magic: WriteBinary
/// output round-trips exactly (ids and isolated vertices preserved —
/// what the dynamic-update tooling needs for bitwise-reproducible
/// rebuilds), anything else parses as an edge list with ReadEdgeList's
/// defaults.
Result<DiGraph> ReadGraphAuto(const std::string& path);

/// Deterministic 64-bit structural hash over n and the edge *set*. Equal
/// graphs hash equal across runs and platforms of equal endianness. Used
/// by derived on-disk artefacts (e.g. the walk index of
/// index/walk_index.h) to verify they were built from the graph they are
/// being served against.
///
/// The hash is commutative in the edges: it combines per-edge mixes
/// (EdgeFingerprint) through order-independent accumulators, so a dynamic
/// maintainer can keep it current in O(1) per edge insertion or deletion
/// (IndexUpdater does) instead of re-hashing the whole edge list per
/// batch. GraphFingerprint(g) == ComposeGraphFingerprint over g's edges,
/// always.
uint64_t GraphFingerprint(const DiGraph& graph);

/// Strong 64-bit mix of one directed edge — the unit the commutative
/// fingerprint accumulates. Full splitmix64-style finalization: edge sets
/// that differ in one edge differ in the (sum, xor) accumulator pair
/// except with negligible probability.
uint64_t EdgeFingerprint(VertexId src, VertexId dst);

/// Folds the order-independent accumulators into the canonical
/// fingerprint: `edge_sum` is the wrapping sum and `edge_xor` the xor of
/// EdgeFingerprint over all m edges. Incremental maintenance is
/// sum += / -= and xor ^= per edge, then one Compose call.
uint64_t ComposeGraphFingerprint(uint32_t n, uint64_t m, uint64_t edge_sum,
                                 uint64_t edge_xor);

/// Canonical rendering of a structural fingerprint — 16 zero-padded hex
/// digits — shared by mismatch diagnostics and `simrank_cli index-info` so
/// a fingerprint printed by one tool can be grepped in another's output.
std::string FormatFingerprint(uint64_t fingerprint);

/// Parses exactly 16 lower-case hex digits (FormatFingerprint's output);
/// false on anything else.
bool ParseFingerprint(std::string_view text, uint64_t* fingerprint);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_GRAPH_GRAPH_IO_H_
