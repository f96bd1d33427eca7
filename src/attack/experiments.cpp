#include "attack/experiments.h"

#include "system/verifier.h"

namespace viewmap::attack {

TrialOutcome judge(const AttackGraph& g, const sys::TrustRankConfig& cfg) {
  TrialOutcome out;
  out.ran = true;

  const auto site = g.site_members();
  for (std::size_t i : site)
    (g.fake[i] ? out.site_fakes : out.site_honest) += 1;

  const sys::CsrGraph graph = sys::CsrGraph::from_adjacency(g.adj);
  const auto ranks = sys::trust_rank(graph, g.trusted, cfg);
  const auto verdict = sys::algorithm1(graph, ranks.scores, site);
  for (std::size_t i : verdict.legitimate)
    if (g.fake[i]) ++out.fakes_accepted;
  out.correct = out.fakes_accepted == 0 && !verdict.legitimate.empty() &&
                !g.fake[verdict.top_scored];
  return out;
}

TrialOutcome run_geometric_trial(const GeometricConfig& geo_cfg, const AttackPlan& plan,
                                 const sys::TrustRankConfig& tr_cfg, Rng& rng) {
  AttackGraph g = make_geometric_viewmap(geo_cfg, rng);
  auto attackers = inject_fakes(g, plan, geo_cfg.link_radius_m, rng);
  if (!attackers) return {};
  return judge(g, tr_cfg);
}

TrialOutcome run_graph_trial(const AttackGraph& honest_base, const AttackPlan& plan,
                             double link_radius_m, const sys::TrustRankConfig& tr_cfg,
                             Rng& rng) {
  AttackGraph g = honest_base;
  auto attackers = inject_fakes(g, plan, link_radius_m, rng);
  if (!attackers) return {};
  return judge(g, tr_cfg);
}

double geometric_accuracy(const GeometricConfig& geo_cfg, const AttackPlan& plan,
                          const sys::TrustRankConfig& tr_cfg, int runs, Rng& rng) {
  int done = 0;
  int correct = 0;
  int attempts = 0;
  const int max_attempts = runs * 4;  // hop buckets can be sparse
  while (done < runs && attempts < max_attempts) {
    ++attempts;
    const TrialOutcome out = run_geometric_trial(geo_cfg, plan, tr_cfg, rng);
    if (!out.ran) continue;
    ++done;
    if (out.correct) ++correct;
  }
  return done > 0 ? static_cast<double>(correct) / done : 0.0;
}

}  // namespace viewmap::attack
