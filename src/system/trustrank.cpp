#include "system/trustrank.h"

#include <algorithm>
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
  for (const std::size_t s : seeds) {
    if (d[s] != 0.0) throw std::invalid_argument("trust_rank: repeated seed index");
    d[s] = seed_mass;
  }

  TrustRankResult result;
  result.scores = d;  // P initialized to d (Algorithm 1)
  std::vector<double> next(n, 0.0);
  std::vector<double> share(n, 0.0);

  // Hot loop on the raw flat arrays: offsets/edges stream linearly and
  // the score reads/writes are plain indexed loads — seeds were
  // validated above and CsrGraph guarantees every edge target < n, so
  // nothing here needs a checked access.
  const std::size_t* offsets = graph.offsets().data();
  const std::uint32_t* edges = graph.edges().data();
  const double teleport = 1.0 - cfg.damping;
  double* score = result.scores.data();

  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    // next = δ·M·P + (1−δ)·d, with M[u][v] = 1/deg(v) along undirected
    // edges: each VP's score is shared equally over its incident edges,
    // and each VP pulls the shares of its neighbors in ascending order.
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t deg = offsets[v + 1] - offsets[v];
      if (deg != 0) share[v] = cfg.damping * score[v] / static_cast<double>(deg);
    }
    double delta = 0.0;
    std::size_t u = 0;
    // Four rows at a time: four independent add chains in flight over
    // the rows' common length, then each row's own tail.
    for (; u + 4 <= n; u += 4) {
      const std::uint32_t* row[4];
      std::size_t len[4];
      double sum[4];
      for (std::size_t r = 0; r < 4; ++r) {
        row[r] = edges + offsets[u + r];
        len[r] = offsets[u + r + 1] - offsets[u + r];
        sum[r] = teleport * d[u + r];
      }
      const std::size_t common = std::min({len[0], len[1], len[2], len[3]});
      for (std::size_t k = 0; k < common; ++k) {
        sum[0] += share[row[0][k]];
        sum[1] += share[row[1][k]];
        sum[2] += share[row[2][k]];
        sum[3] += share[row[3][k]];
      }
      for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t k = common; k < len[r]; ++k) sum[r] += share[row[r][k]];
        next[u + r] = sum[r];
        delta += std::abs(sum[r] - score[u + r]);
      }
    }
    for (; u < n; ++u) {
      double sum = teleport * d[u];
      for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) sum += share[edges[k]];
      next[u] = sum;
      delta += std::abs(sum - score[u]);
    }

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
