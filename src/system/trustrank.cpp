#include "system/trustrank.h"

#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace viewmap::sys {

TrustRankResult trust_rank(const CsrGraph& graph, std::span<const std::size_t> seeds,
                           const TrustRankConfig& cfg) {
  const std::size_t n = graph.size();
  if (seeds.empty()) throw std::invalid_argument("trust_rank: no trust seeds");
  if (cfg.damping <= 0.0 || cfg.damping >= 1.0)
    throw std::invalid_argument("trust_rank: damping must be in (0,1)");
  for (const std::size_t s : seeds)
    if (s >= n) throw std::invalid_argument("trust_rank: seed index out of range");

  std::vector<double> d(n, 0.0);
  const double seed_mass = 1.0 / static_cast<double>(seeds.size());
  for (const std::size_t s : seeds) d[s] = seed_mass;

  TrustRankResult result;
  result.scores = d;  // P initialized to d (Algorithm 1)
  std::vector<double> next(n, 0.0);

  // Hot loop on the raw flat arrays: offsets/edges stream linearly and
  // the score reads/writes are plain indexed loads — seeds were
  // validated above and CsrGraph guarantees every edge target < n, so
  // nothing here needs a checked access.
  const std::size_t* offsets = graph.offsets().data();
  const std::uint32_t* edges = graph.edges().data();
  double* score = result.scores.data();

  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    // next = δ·M·P + (1−δ)·d, with M[u][v] = 1/deg(v) along undirected
    // edges: each VP pushes its score equally over its incident edges.
    for (std::size_t u = 0; u < n; ++u) next[u] = (1.0 - cfg.damping) * d[u];
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t begin = offsets[v];
      const std::size_t end = offsets[v + 1];
      if (begin == end) continue;
      const double share = cfg.damping * score[v] / static_cast<double>(end - begin);
      for (std::size_t k = begin; k < end; ++k) next[edges[k]] += share;
    }

    double delta = 0.0;
    for (std::size_t u = 0; u < n; ++u) delta += std::abs(next[u] - score[u]);
    result.scores.swap(next);
    score = result.scores.data();
    result.iterations = iter + 1;
    if (delta < cfg.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

TrustRankResult trust_rank(const Viewmap& map, const TrustRankConfig& cfg) {
  // The investigation-path entry point — the low-level overloads stay
  // span-free so direct benchmarks measure the bare iteration.
  obs::SpanScope obs_span("trust_rank");
  const auto seeds = map.trusted_indices();
  return trust_rank(map.graph(), seeds, cfg);
}

}  // namespace viewmap::sys
