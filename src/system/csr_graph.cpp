#include "system/csr_graph.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace viewmap::sys {

CsrGraph::CsrGraph(std::vector<std::size_t> offsets, std::vector<std::uint32_t> edges)
    : offsets_(std::move(offsets)), edges_(std::move(edges)) {
  if (offsets_.empty()) {
    if (!edges_.empty())
      throw std::invalid_argument("CsrGraph: edges without offsets");
    return;
  }
  if (offsets_.front() != 0 || offsets_.back() != edges_.size())
    throw std::invalid_argument("CsrGraph: offsets do not frame the edge array");
  const std::size_t n = offsets_.size() - 1;
  for (std::size_t i = 0; i < n; ++i)
    if (offsets_[i] > offsets_[i + 1])
      throw std::invalid_argument("CsrGraph: offsets must be non-decreasing");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
      if (edges_[k] >= n) throw std::invalid_argument("CsrGraph: edge target out of range");
      if (k > offsets_[i] && edges_[k - 1] > edges_[k])
        throw std::invalid_argument("CsrGraph: neighbor rows must be ascending");
    }
  }
}

CsrGraph CsrGraph::from_adjacency(
    std::span<const std::vector<std::uint32_t>> adjacency) {
  const std::size_t n = adjacency.size();
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] = offsets[i] + adjacency[i].size();
  std::vector<std::uint32_t> edges;
  edges.reserve(offsets.back());
  for (const auto& nbrs : adjacency) {
    const auto row = edges.insert(edges.end(), nbrs.begin(), nbrs.end());
    std::sort(row, edges.end());
  }
  return CsrGraph(std::move(offsets), std::move(edges));
}

}  // namespace viewmap::sys
