// Packed-kernel viewmap construction (the sharded all-pairs sweep) vs
// the retained O(n²) reference builder, and the flat CSR machinery
// underneath it.
//
// The load-bearing property: for ANY member layout, link forgery
// included, the packed kernel + sharded sweep + CSR pipeline and the
// naive sweep through the profiles' own predicates emit the
// bit-identical edge set — same CSR offsets, same edge array, for every
// thread count. The randomized layouts stress what the bbox prune, the
// packed predicate and the anchor-range sharding can get wrong: dense
// pileups where nearly every pair reaches the Bloom test, sparse
// city-scale spread where most pairs fail the prune, pairs at exactly
// the link radius, adjacent-attacker forgeries (mutual Bloom links
// between far-apart profiles that proximity must reject), the dense
// downtown regime with half-full filters and offset start times, and
// profiles whose timestamps have gaps or repeats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <ranges>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/fake_vp.h"
#include "common/rng.h"
#include "system/csr_graph.h"
#include "system/trustrank.h"
#include "system/verifier.h"
#include "system/viewmap_graph.h"

namespace viewmap::sys {
namespace {

constexpr double kRadius = 400.0;  // ViewmapConfig default link radius

std::vector<const vp::ViewProfile*> pointers(const std::vector<vp::ViewProfile>& fleet) {
  std::vector<const vp::ViewProfile*> out;
  out.reserve(fleet.size());
  for (const auto& p : fleet) out.push_back(&p);
  return out;
}

/// Random straight-line trajectories over [-extent, extent]², then a
/// link pass: mutual Bloom membership for random pairs near AND far
/// (far forgeries must be rejected by proximity in both builders), plus
/// some one-way insertions (must never link).
std::vector<vp::ViewProfile> random_fleet(std::size_t n, double extent, Rng& rng) {
  std::vector<vp::ViewProfile> fleet;
  fleet.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 a{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
    const geo::Vec2 b{a.x + rng.uniform(-600.0, 600.0), a.y + rng.uniform(-600.0, 600.0)};
    fleet.push_back(attack::make_fake_profile(0, a, b, rng));
  }
  for (std::size_t k = 0; k < 3 * n; ++k) {
    const std::size_t i = rng.index(n);
    const std::size_t j = rng.index(n);
    if (i == j) continue;
    vp::link_mutually(fleet[i], fleet[j]);
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rng.index(n);
    const std::size_t j = rng.index(n);
    if (i == j) continue;
    fleet[i].add_neighbor_digest(fleet[j].digests().front());  // one-way only
  }
  return fleet;
}

/// Builds with the naive reference once and with the packed sweep at
/// each given thread count, and requires the bit-identical CSR.
void expect_equivalent(const std::vector<vp::ViewProfile>& fleet,
                       std::initializer_list<std::size_t> thread_counts) {
  const geo::Rect cover{{-1e7, -1e7}, {1e7, 1e7}};
  const std::vector<bool> trusted(fleet.size(), false);
  const Viewmap ref =
      ViewmapBuilder().build_from_members_reference(pointers(fleet), trusted, 0, cover);

  for (const std::size_t build_threads : thread_counts) {
    ViewmapConfig cfg;
    cfg.build_threads = build_threads;
    const Viewmap packed =
        ViewmapBuilder(cfg).build_from_members(pointers(fleet), trusted, 0, cover);
    ASSERT_EQ(packed.size(), ref.size());
    EXPECT_EQ(packed.graph(), ref.graph())
        << "edge sets diverge at n=" << fleet.size() << " threads=" << build_threads;
    EXPECT_EQ(packed.edge_count(), ref.edge_count());
  }
}

TEST(ViewmapBuildEquivalence, SparseCityScaleLayouts) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    // ~150 VPs over ~8×8 km: most pairs fail the bbox prune.
    expect_equivalent(random_fleet(150, 4000.0, rng), {1});
  }
}

TEST(ViewmapBuildEquivalence, DenseSingleCellPileup) {
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    Rng rng(seed);
    // Everybody within about one link radius: nearly every pair passes
    // the bbox prune, so the Bloom and proximity tests decide them all.
    expect_equivalent(random_fleet(180, 350.0, rng), {1});
  }
}

TEST(ViewmapBuildEquivalence, ParallelBuildMatchesSerialAndReference) {
  for (std::uint64_t seed : {7u, 8u}) {
    Rng rng(seed);
    const auto fleet = random_fleet(220, 500.0, rng);
    expect_equivalent(fleet, {1, 4});  // 4 threads shard the sweep
  }
}

TEST(ViewmapBuildEquivalence, SmallMemberSetsUseAllPairsPathIdentically) {
  // Empty, single and tiny member sets: all below the parallel cutoff,
  // so the sweep runs serial even when two threads are configured.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{20}, std::size_t{47}, std::size_t{48}}) {
    Rng rng(40 + n);
    expect_equivalent(random_fleet(n, 600.0, rng), {2});
  }
}

TEST(ViewmapBuildEquivalence, CellBoundaryStraddlersAtExactRadius) {
  // Stationary profiles in columns exactly one link radius apart: every
  // adjacent-column pair is at distance exactly R (edges require
  // distance ≤ R, so these are the knife-edge pairs the bbox prune must
  // not reject), and same-column pairs are co-located.
  Rng rng(60);
  std::vector<vp::ViewProfile> fleet;
  for (int col = 0; col < 10; ++col)
    for (int k = 0; k < 6; ++k) {
      const geo::Vec2 at{col * kRadius, 0.0};
      fleet.push_back(attack::make_fake_profile(0, at, at, rng));
    }
  for (std::size_t i = 0; i < fleet.size(); ++i)
    for (std::size_t j = i + 1; j < fleet.size(); ++j)
      if (rng.index(3) == 0) vp::link_mutually(fleet[i], fleet[j]);
  expect_equivalent(fleet, {1, 3});

  // Sanity: linked exact-radius pairs do produce edges.
  ViewmapConfig cfg;
  const ViewmapBuilder builder(cfg);
  const Viewmap map = builder.build_from_members(
      pointers(fleet), std::vector<bool>(fleet.size(), false), 0,
      {{-1e6, -1e6}, {1e6, 1e6}});
  EXPECT_GT(map.edge_count(), 0u);
}

TEST(ViewmapBuildEquivalence, OffsetStartTimesWithinTheMinuteKeepTheirEdges) {
  // Upload screening requires 60 CONTIGUOUS seconds, not minute
  // alignment, so one shard can hold profiles whose start times are
  // offset within the minute. ever_within() aligns digests by
  // wall-clock timestamp (index 30 of one against index 0 of another);
  // the packed proximity scan must shift by the start-time difference
  // the same way — a scan aligned by digest index would compare the
  // wrong seconds and silently drop real viewlinks. 16×10 stationary
  // profiles at 300 m spacing with four start offsets: adjacent
  // neighbors are within the 400 m link radius, at every shift.
  Rng rng(65);
  std::vector<vp::ViewProfile> fleet;
  for (int k = 0; k < 160; ++k) {
    const TimeSec start = (k % 4) * 15;  // starts at :00 :15 :30 :45
    const geo::Vec2 at{static_cast<double>(k % 16) * 300.0,
                      static_cast<double>(k / 16) * 300.0};
    fleet.push_back(attack::make_fake_profile(start, at, at, rng));
  }
  for (std::size_t i = 0; i < fleet.size(); ++i)
    for (std::size_t j = i + 1; j < fleet.size(); ++j)
      if (rng.index(4) == 0) vp::link_mutually(fleet[i], fleet[j]);
  expect_equivalent(fleet, {1, 3});

  // The sharpest construct: convoy pairs on the same 40 m/s path with a
  // 45 s start offset, positioned to be CO-LOCATED in wall time. Only
  // the leader's last 15 seconds overlap the follower's first 15, where
  // the two are at the same spot; compared index by index they are
  // always 1,800 m apart, so only the time-aligned scan keeps the edge.
  std::vector<vp::ViewProfile> convoy;
  for (int lane = 0; lane < 100; ++lane) {
    const double y = lane * 500.0;  // > link radius: lanes independent
    convoy.push_back(
        attack::make_fake_profile(0, {0.0, y}, {2360.0, y}, rng));  // 40 m/s
    convoy.push_back(
        attack::make_fake_profile(45, {1800.0, y}, {4160.0, y}, rng));
    vp::link_mutually(convoy[convoy.size() - 2], convoy.back());
  }
  expect_equivalent(convoy, {1});
  const ViewmapBuilder builder;
  EXPECT_TRUE(builder.viewlinked(convoy[0], convoy[1]));
  const Viewmap map = builder.build_from_members(
      pointers(convoy), std::vector<bool>(convoy.size(), false), 0,
      {{-1e7, -1e7}, {1e7, 1e7}});
  // Every lane's offset pair must have kept its viewlink.
  EXPECT_GE(map.edge_count(), 100u);
}

TEST(ViewmapBuildEquivalence, AdjacentAttackerForgeriesRejectedIdentically) {
  // Colluders 10 km from the honest cluster forge mutual links to
  // clones of honest trajectories (§6.3.1-style): proximity kills the
  // edges, and the packed sweep must agree with the reference on
  // exactly which survive.
  Rng rng(61);
  auto fleet = random_fleet(120, 400.0, rng);
  const std::size_t honest = fleet.size();
  for (std::size_t k = 0; k < 30; ++k) {
    const geo::Vec2 a{10000.0 + rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
    fleet.push_back(attack::make_fake_profile(0, a, {a.x + 200.0, a.y}, rng));
    vp::link_mutually(fleet.back(), fleet[rng.index(honest)]);
  }
  expect_equivalent(fleet, {1, 4});
}

/// Rebuilds `p` with new digest timestamps (same positions, id and
/// filter): the screen admits only 60 contiguous seconds, but the
/// builders take any member set.
vp::ViewProfile retimed(const vp::ViewProfile& p, const std::vector<TimeSec>& times) {
  std::vector<dsrc::ViewDigest> digests(p.digests().begin(), p.digests().end());
  for (std::size_t s = 0; s < digests.size(); ++s) digests[s].time = times[s];
  return vp::ViewProfile(std::move(digests), p.neighbor_bloom());
}

/// The dense downtown regime the service builds in: `n` vehicles on a
/// 110 m road grid over a `side` × `side` block, start times offset −59…
/// +59 s (so some pairs are ≥ 60 s apart and share no second), every 8th
/// profile re-timed with a gap or repeated timestamps, then every pair
/// within kRadius at some shared second linked mutually, nearest first,
/// capped at vp::kMaxNeighbors per vehicle. Filters end up about half
/// full, so most in-range pairs pass the Bloom test by false positive.
std::vector<vp::ViewProfile> dense_downtown(std::size_t n, double side, Rng& rng) {
  constexpr double kBlock = 110.0;
  const auto roads = static_cast<std::int64_t>(side / kBlock);
  std::vector<vp::ViewProfile> fleet;
  fleet.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double road = static_cast<double>(rng.uniform_int(0, roads)) * kBlock;
    const double from = rng.uniform(0.0, side);
    const double travel = rng.uniform(-900.0, 900.0);  // ≤ 15 m/s either way
    const bool along_x = rng.index(2) == 0;
    const geo::Vec2 a = along_x ? geo::Vec2{from, road} : geo::Vec2{road, from};
    const geo::Vec2 b = along_x ? geo::Vec2{from + travel, road} : geo::Vec2{road, from + travel};
    const TimeSec start = rng.uniform_int(-59, 59);
    fleet.push_back(attack::make_fake_profile(start - 1, a, b, rng));  // seconds start…start+59
    if (k % 8 != 7) continue;
    std::vector<TimeSec> times;
    const TimeSec t0 = fleet.back().start_time();
    for (TimeSec s = 0; s < kDigestsPerProfile; ++s)
      times.push_back(k % 16 == 7 ? t0 + s + (s >= 30 ? 7 : 0)  // a 7 s gap
                                  : t0 + s / 2);                 // each second twice
    fleet.back() = retimed(fleet.back(), times);
  }

  // Closest approach at a shared second. Every timestamp lies in
  // [−59, 125]: index positions by second (first digest of a second).
  constexpr TimeSec kFirst = -64;
  constexpr std::size_t kSlots = 200;
  constexpr double kAbsent = std::numeric_limits<double>::quiet_NaN();  // never near
  std::vector<std::vector<geo::Vec2>> at(n, std::vector<geo::Vec2>(kSlots, {kAbsent, kAbsent}));
  for (std::size_t i = 0; i < n; ++i)
    for (const auto& vd : std::views::reverse(fleet[i].digests()))
      at[i][static_cast<std::size_t>(vd.time - kFirst)] = {vd.loc_x, vd.loc_y};
  std::vector<std::tuple<double, std::size_t, std::size_t>> in_range;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      double best = kRadius * kRadius;
      bool near = false;
      for (std::size_t t = 0; t < kSlots; ++t) {
        const double dx = at[i][t].x - at[j][t].x;
        const double dy = at[i][t].y - at[j][t].y;
        const double d2 = dx * dx + dy * dy;
        if (d2 <= best) {
          best = d2;
          near = true;
        }
      }
      if (near) in_range.emplace_back(best, i, j);
    }
  std::sort(in_range.begin(), in_range.end());
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [d2, i, j] : in_range) {
    if (degree[i] == vp::kMaxNeighbors || degree[j] == vp::kMaxNeighbors) continue;
    vp::link_mutually(fleet[i], fleet[j]);
    ++degree[i];
    ++degree[j];
  }
  return fleet;
}

TEST(ViewmapBuildEquivalence, DenseDowntownWithHalfFullFilters) {
  Rng rng(66);
  // 1,024 vehicles on 1.2 km²: most pairs pass the bbox prune, the
  // density every perfbench build sees.
  const auto fleet = dense_downtown(1024, 1100.0, rng);
  double fill = 0.0;
  for (const auto& p : fleet) fill += p.neighbor_bloom().fill_ratio();
  fill /= static_cast<double>(fleet.size());
  EXPECT_GT(fill, 0.35);
  EXPECT_LT(fill, 0.7);
  expect_equivalent(fleet, {1, 4});
  const ViewmapBuilder builder;
  const Viewmap map = builder.build_from_members(
      pointers(fleet), std::vector<bool>(fleet.size(), false), 0,
      {{-1e6, -1e6}, {1e6, 1e6}});
  EXPECT_GT(map.edge_count(), 100 * fleet.size());
}

TEST(ViewmapBuildEquivalence, SpreadDowntownWithHalfFullFilters) {
  Rng rng(67);
  // Same traffic at about a sixth of the density: the bbox prune rejects
  // far more pairs before the Bloom test.
  const auto fleet = dense_downtown(1000, 2600.0, rng);
  expect_equivalent(fleet, {1, 4});
}

TEST(ViewmapBuildEquivalence, PrunesKeepPairsThatRoundOntoTheRadius) {
  // ever_within() subtracts floats: an exact gap of 400 + 2⁻¹⁶ m rounds
  // (ties to even) to exactly R = 400, and 400 + 2⁻¹⁷ rounds down to it.
  // viewlinked() links such pairs, so neither builder may prune them —
  // the bbox prune compares exact coordinates, padded by the prune
  // reach.
  const std::vector<std::pair<geo::Vec2, geo::Vec2>> pairs{
      {{200.0 + 0x1p-16, 0.0}, {-200.0, 0.0}},
      {{400.0, 0.0}, {-0x1p-17, 0.0}},
  };
  const geo::Rect cover{{-1e7, -1e7}, {1e7, 1e7}};
  for (const auto& [a, b] : pairs) {
    Rng rng(69);
    std::vector<vp::ViewProfile> fleet;
    fleet.push_back(attack::make_fake_profile(0, a, a, rng));
    fleet.push_back(attack::make_fake_profile(0, b, b, rng));
    vp::link_mutually(fleet[0], fleet[1]);
    const ViewmapBuilder builder;
    ASSERT_TRUE(builder.viewlinked(fleet[0], fleet[1]));
    // The pair alone, then among 60 stationary profiles 10 km apart
    // whose boxes the prune rejects. One more profile with NaN positions
    // (build_from_members() takes unscreened members) overlaps every box,
    // and must link to nothing.
    for (const bool spread : {false, true}) {
      if (spread) {
        for (int k = 1; k <= 60; ++k) {
          const geo::Vec2 at{10000.0 * k, 10000.0};
          fleet.push_back(attack::make_fake_profile(0, at, at, rng));
        }
        const vp::ViewProfile lost = attack::make_fake_profile(0, b, b, rng);
        std::vector<dsrc::ViewDigest> digests(lost.digests().begin(), lost.digests().end());
        for (auto& vd : digests) vd.loc_x = vd.loc_y = std::numeric_limits<float>::quiet_NaN();
        fleet.emplace_back(std::move(digests), lost.neighbor_bloom());
        vp::link_mutually(fleet[0], fleet.back());
      }
      expect_equivalent(fleet, {1});
      const Viewmap map = builder.build_from_members(
          pointers(fleet), std::vector<bool>(fleet.size(), false), 0, cover);
      EXPECT_EQ(map.neighbors(0).size(), 1u)
          << "pair at x=" << a.x << " and x=" << b.x << ", n=" << fleet.size();
    }
  }
}

TEST(ViewmapBuildEquivalence, EqualIdsNeverLink) {
  // Two profiles with one VP id — a clone beside its original, mutually
  // linked and co-located — are no viewlink for viewlinked() and for
  // neither builder, at 21 members (serial) and 121 (sharded when 4
  // threads are configured).
  for (const std::size_t n : {std::size_t{20}, std::size_t{120}}) {
    Rng rng(68 + n);
    auto fleet = random_fleet(n, 300.0, rng);
    std::vector<dsrc::ViewDigest> digests(fleet[0].digests().begin(),
                                          fleet[0].digests().end());
    for (auto& vd : digests) vd.loc_x += 25.0f;
    fleet.emplace_back(std::move(digests), bloom::BloomFilter(vp::kBloomBits, vp::kBloomHashes));
    vp::link_mutually(fleet[0], fleet.back());
    vp::link_mutually(fleet[1], fleet.back());

    const ViewmapBuilder builder;
    ASSERT_EQ(fleet[0].vp_id(), fleet.back().vp_id());
    EXPECT_FALSE(builder.viewlinked(fleet[0], fleet.back()));
    expect_equivalent(fleet, {1, 4});
    const Viewmap map = builder.build_from_members(
        pointers(fleet), std::vector<bool>(fleet.size(), false), 0,
        {{-1e6, -1e6}, {1e6, 1e6}});
    for (std::uint32_t i = 0; i < fleet.size(); ++i)
      for (std::uint32_t j = i + 1; j < fleet.size(); ++j) {
        const auto nbrs = map.neighbors(i);
        EXPECT_EQ(std::binary_search(nbrs.begin(), nbrs.end(), j),
                  builder.viewlinked(fleet[i], fleet[j]))
            << "pair " << i << "," << j << " at n=" << fleet.size();
      }
  }
}

// ── CSR machinery ────────────────────────────────────────────────────

TEST(CsrGraph, FromAdjacencyRoundTrip) {
  const std::vector<std::vector<std::uint32_t>> adj{{1, 2}, {0}, {0}, {}};
  const CsrGraph g = CsrGraph::from_adjacency(adj);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edge_slots(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
  ASSERT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(0)[1], 2u);
  EXPECT_TRUE(g.neighbors(3).empty());
}

TEST(CsrGraph, RejectsMalformedArrays) {
  EXPECT_THROW(CsrGraph({0, 2}, {1}), std::invalid_argument);      // frame mismatch
  EXPECT_THROW(CsrGraph({0, 1}, {5}), std::invalid_argument);      // target ≥ n
  EXPECT_THROW(CsrGraph({1, 1}, {}), std::invalid_argument);       // front ≠ 0
  EXPECT_THROW(CsrGraph({0, 2, 1, 3}, {0, 1, 2}), std::invalid_argument);  // decreasing
  EXPECT_NO_THROW(CsrGraph({0, 1, 2}, {1, 0}));
  EXPECT_NO_THROW(CsrGraph({}, {}));  // zero-node graph
}

TEST(CsrGraph, ViewmapNeighborsAreBoundsChecked) {
  Rng rng(62);
  const auto fleet = random_fleet(5, 300.0, rng);
  const ViewmapBuilder builder;
  const Viewmap map = builder.build_from_members(
      pointers(fleet), std::vector<bool>(5, false), 0, {{-1e6, -1e6}, {1e6, 1e6}});
  EXPECT_THROW((void)map.neighbors(5), std::out_of_range);
}

TEST(TrustRankCsr, MatchesNestedAdjacencyPowerIteration) {
  // The CSR core against an independent naive power iteration (the
  // pre-CSR implementation's arithmetic, re-stated here): identical
  // floating-point results, not just "close".
  Rng rng(63);
  const std::size_t n = 40;
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::size_t k = 0; k < 3 * n; ++k) {
    const auto i = static_cast<std::uint32_t>(rng.index(n));
    const auto j = static_cast<std::uint32_t>(rng.index(n));
    if (i == j) continue;
    if (std::find(adj[i].begin(), adj[i].end(), j) != adj[i].end()) continue;
    adj[i].push_back(j);
    adj[j].push_back(i);
  }
  const std::vector<std::size_t> seeds{0, 7};
  const TrustRankConfig cfg;
  const auto result = trust_rank(CsrGraph::from_adjacency(adj), seeds, cfg);

  std::vector<double> d(n, 0.0);
  for (std::size_t s : seeds) d[s] = 1.0 / static_cast<double>(seeds.size());
  std::vector<double> scores = d;
  std::vector<double> next(n, 0.0);
  int iters = 0;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    for (std::size_t u = 0; u < n; ++u) next[u] = (1.0 - cfg.damping) * d[u];
    for (std::size_t v = 0; v < n; ++v) {
      if (adj[v].empty()) continue;
      const double share = cfg.damping * scores[v] / static_cast<double>(adj[v].size());
      for (std::uint32_t u : adj[v]) next[u] += share;
    }
    double delta = 0.0;
    for (std::size_t u = 0; u < n; ++u) delta += std::abs(next[u] - scores[u]);
    scores.swap(next);
    iters = iter + 1;
    if (delta < cfg.tolerance) break;
  }
  EXPECT_EQ(result.iterations, iters);
  ASSERT_EQ(result.scores.size(), scores.size());
  for (std::size_t u = 0; u < n; ++u) EXPECT_EQ(result.scores[u], scores[u]);
}

TEST(TrustRankCsr, SeedValidationAndViewmapZeroCopyPath) {
  const CsrGraph g = CsrGraph::from_adjacency(
      std::vector<std::vector<std::uint32_t>>{{1}, {0}});
  EXPECT_THROW((void)trust_rank(g, std::vector<std::size_t>{2}, {}),
               std::invalid_argument);

  // End to end through the Viewmap overload: scores come straight off
  // the viewmap's own CSR.
  Rng rng(64);
  auto fleet = random_fleet(60, 300.0, rng);
  std::vector<bool> trusted(fleet.size(), false);
  trusted[0] = true;
  const ViewmapBuilder builder;
  const Viewmap map = builder.build_from_members(pointers(fleet), trusted, 0,
                                                 {{-1e6, -1e6}, {1e6, 1e6}});
  const auto ranks = trust_rank(map);
  ASSERT_EQ(ranks.scores.size(), map.size());
  const auto direct = trust_rank(map.graph(), map.trusted_indices());
  EXPECT_EQ(ranks.scores, direct.scores);
}

}  // namespace
}  // namespace viewmap::sys
