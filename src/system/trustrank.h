// TrustRank over viewmaps (paper §5.2.2, Algorithm 1).
//
// Trusted VPs act as trust seeds with the full initial probability mass;
// power iteration  P ← δ·M·P + (1−δ)·d  propagates scores across
// viewlinks, where M distributes a VP's score equally over its undirected
// edges and δ = 0.8. Fake layers receive trust only through the few edges
// attackers control, so their scores are bounded (Lemmas 1–2).
//
// The core runs on the flat CSR adjacency (system/csr_graph.h) with flat
// score arrays — the edge loop streams offsets/edges linearly, no
// per-node heap hops, no bounds-checked access, and no per-call copy of
// the viewmap's adjacency (the Viewmap overload consumes its CSR view
// directly).
//
// Each iteration runs in pull form: share[v] = δ·P[v]/deg(v) once per
// node, then next[u] = (1−δ)·d[u] + Σ share[v] over u's row, four rows
// at a time so four independent add chains are in flight. Because
// CsrGraph rows ascend, each next[u] adds the same terms in the same
// order as the push form (every v, in node order, adding its share to
// each neighbor), so the scores and iteration counts are bit-identical
// to it — provided the adjacency is symmetric (u lists v exactly as
// often as v lists u), as every undirected viewmap is. On an asymmetric
// graph the pull form computes Mᵀ·P instead of M·P; no check is made.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "system/viewmap_graph.h"

namespace viewmap::sys {

struct TrustRankConfig {
  double damping = 0.8;    ///< δ, empirically set in the paper
  double tolerance = 1e-12;  ///< L1 convergence threshold
  int max_iterations = 10'000;
};

struct TrustRankResult {
  std::vector<double> scores;  ///< P, indexed by viewmap member
  int iterations = 0;
  bool converged = false;
};

/// Runs TrustRank on a symmetric CSR adjacency — the zero-copy hot path.
/// `seeds` receive the uniform (1−δ) reinjection mass; they must be
/// non-empty, in range and distinct (validated once, before the
/// iteration; std::invalid_argument otherwise).
[[nodiscard]] TrustRankResult trust_rank(const CsrGraph& graph,
                                         std::span<const std::size_t> seeds,
                                         const TrustRankConfig& cfg = {});

/// Convenience overload seeded at the viewmap's trusted members. Runs
/// directly on the viewmap's CSR — no adjacency copy of any kind.
[[nodiscard]] TrustRankResult trust_rank(const Viewmap& map,
                                         const TrustRankConfig& cfg = {});

}  // namespace viewmap::sys
