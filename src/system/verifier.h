// VP verification — Algorithm 1 of the paper (§5.2.2).
//
// Given a viewmap and an investigation site X:
//   1. compute TrustRank scores seeded at the trusted VPs,
//   2. mark the highest-scored VP u in X LEGITIMATE,
//   3. mark every VP in X reachable from u *through VPs in X* LEGITIMATE,
//   4. everything else claiming to be in X is rejected (treated as fake).
// The single-layer insight: honest VPs near the incident share u's layer;
// fabricated layers either lack a path to u inside X or score lower.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "system/trustrank.h"
#include "system/viewmap_graph.h"

namespace viewmap::sys {

/// Steps 2–3 of Algorithm 1 on an abstract graph: pick the top-scored
/// site member, flood-fill through site members only. Exposed separately
/// so the security benches can drive it over synthetic and traffic-derived
/// graphs without materializing full ViewProfiles.
struct Algorithm1Verdict {
  std::size_t top_scored = 0;            ///< member index of u
  std::vector<std::size_t> legitimate;   ///< W ∪ {u}
};

/// CSR entry — what Verifier::verify runs on the viewmap's own graph
/// view, with no adjacency copy.
[[nodiscard]] Algorithm1Verdict algorithm1(const CsrGraph& graph,
                                           std::span<const double> scores,
                                           std::span<const std::size_t> site_members);

struct VerificationResult {
  /// Viewmap member indices inside the site, as discovered (set X).
  std::vector<std::size_t> site_members;
  /// Subset of X judged legitimate (videos worth soliciting).
  std::vector<std::size_t> legitimate;
  /// Subset of X rejected as fake.
  std::vector<std::size_t> rejected;
  /// Full TrustRank output, exposed for analysis benches.
  TrustRankResult ranks;

  [[nodiscard]] bool is_legitimate(std::size_t member_index) const;
};

class Verifier {
 public:
  explicit Verifier(TrustRankConfig cfg = {}) : cfg_(cfg) {}

  /// Pure function of the viewmap: TrustRank and the Algorithm-1 flood
  /// fill both consume the viewmap's CSR view directly (zero adjacency
  /// copies on this path). A viewmap built over a DbSnapshot pins it,
  /// so verification (and the result's member indices) cannot race
  /// concurrent ingest or retention eviction — the whole investigation
  /// chain reads one immutable view.
  [[nodiscard]] VerificationResult verify(const Viewmap& map,
                                          const geo::Rect& site) const;

 private:
  TrustRankConfig cfg_;
};

}  // namespace viewmap::sys
