// Flat compressed-sparse-row adjacency for viewmap-scale graphs.
//
// The investigation hot path (TrustRank power iteration, Algorithm-1
// flood fill, isolation BFS) iterates every edge of every viewmap many
// times per request. A vector-of-vectors adjacency costs one heap node
// per member and a pointer chase per node visit; CSR keeps the whole
// graph in two contiguous arrays — node i's neighbors are
// edges[offsets[i] .. offsets[i+1]), ascending — so the power iteration
// streams cache-linearly and the graph is built in one allocation pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace viewmap::sys {

/// Immutable CSR adjacency over nodes [0, n). Undirected graphs store
/// both directions (edge_slots() == 2 × undirected edge count).
class CsrGraph {
 public:
  /// Empty graph with zero nodes.
  CsrGraph() = default;

  /// Takes ownership of prebuilt arrays: n+1 offsets, front() == 0,
  /// non-decreasing, back() == edges.size(), every edge target < n.
  /// Throws std::invalid_argument otherwise.
  CsrGraph(std::vector<std::size_t> offsets, std::vector<std::uint32_t> edges);

  /// One-pass conversion from nested adjacency (the shape the
  /// abstract-graph tests, benches, and attack experiments build). Convert
  /// once, then hand the graph to trust_rank() and algorithm1().
  static CsrGraph from_adjacency(std::span<const std::vector<std::uint32_t>> adjacency);

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i) const noexcept {
    return {edges_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] std::size_t degree(std::size_t i) const noexcept {
    return offsets_[i + 1] - offsets_[i];
  }
  /// Directed edge slots (2× the undirected edge count).
  [[nodiscard]] std::size_t edge_slots() const noexcept { return edges_.size(); }

  /// The flat arrays, exposed for the hot loops and the edge-set
  /// equivalence tests.
  [[nodiscard]] std::span<const std::size_t> offsets() const noexcept { return offsets_; }
  [[nodiscard]] std::span<const std::uint32_t> edges() const noexcept { return edges_; }

  friend bool operator==(const CsrGraph&, const CsrGraph&) = default;

 private:
  std::vector<std::size_t> offsets_;  ///< n+1 entries; empty ⇔ n == 0
  std::vector<std::uint32_t> edges_;
};

}  // namespace viewmap::sys
