#include "system/verifier.h"

#include <algorithm>
#include <queue>

#include "obs/trace.h"

namespace viewmap::sys {

Algorithm1Verdict algorithm1(const CsrGraph& graph, std::span<const double> scores,
                             std::span<const std::size_t> site_members) {
  Algorithm1Verdict verdict;
  if (site_members.empty()) return verdict;

  // Highest-scored VP u in X.
  std::size_t u = site_members.front();
  for (std::size_t i : site_members)
    if (scores[i] > scores[u]) u = i;
  verdict.top_scored = u;

  // W: VPs in X reachable from u strictly via VPs in X.
  std::vector<bool> in_site(graph.size(), false);
  for (std::size_t i : site_members) in_site[i] = true;

  std::vector<bool> legit(graph.size(), false);
  legit[u] = true;
  std::queue<std::size_t> frontier;
  frontier.push(u);
  while (!frontier.empty()) {
    const std::size_t v = frontier.front();
    frontier.pop();
    for (std::uint32_t w : graph.neighbors(v)) {
      if (in_site[w] && !legit[w]) {
        legit[w] = true;
        frontier.push(w);
      }
    }
  }
  for (std::size_t i : site_members)
    if (legit[i]) verdict.legitimate.push_back(i);
  return verdict;
}

bool VerificationResult::is_legitimate(std::size_t member_index) const {
  return std::find(legitimate.begin(), legitimate.end(), member_index) !=
         legitimate.end();
}

VerificationResult verify(const Viewmap& map, const geo::Rect& site) {
  VerificationResult result;
  result.site_members = map.members_visiting(site);
  if (result.site_members.empty()) return result;

  // Both stages read the viewmap's CSR in place — the old per-verify
  // vector-of-vectors rebuild is gone.
  result.ranks = trust_rank(map);
  const Algorithm1Verdict verdict = [&] {
    obs::SpanScope obs_span("algorithm1");
    return algorithm1(map.graph(), result.ranks.scores, result.site_members);
  }();

  std::vector<bool> legit(map.size(), false);
  for (std::size_t i : verdict.legitimate) legit[i] = true;
  for (std::size_t i : result.site_members)
    (legit[i] ? result.legitimate : result.rejected).push_back(i);
  return result;
}

}  // namespace viewmap::sys
