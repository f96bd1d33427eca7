// Packed-kernel viewmap construction (the sharded all-pairs sweep) vs
// the retained O(n²) reference builder, the flat CSR machinery
// underneath it, and pull-form TrustRank over it against a push loop.
//
// The load-bearing property: for ANY member layout, link forgery
// included, the packed kernel + sharded sweep + CSR pipeline and the
// naive sweep through the profiles' own predicates emit the
// bit-identical edge set — same CSR offsets, same edge array, at every
// pool width. The randomized layouts stress what the bbox prune, the
// packed predicate and the anchor-range sharding can get wrong: dense
// pileups where nearly every pair reaches the Bloom test, sparse
// city-scale spread where most pairs fail the prune, pairs at exactly
// the link radius, adjacent-attacker forgeries (mutual Bloom links
// between far-apart profiles that proximity must reject), the dense
// downtown regime with half-full filters and offset start times, and
// profiles whose timestamps have gaps or repeats.
//
// The viewlink memo must not change that: builds over shards admitted
// through VpTimeline::upload — cold, warm, across late uploads and
// copy-on-write clones, from four threads at once, with a foreign member
// that shares an id, and with the memo budget exhausted — all emit the
// reference's CSR.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <latch>
#include <limits>
#include <mutex>
#include <ranges>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/fake_vp.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "index/timeline.h"
#include "system/csr_graph.h"
#include "system/trustrank.h"
#include "system/verifier.h"
#include "system/viewmap_graph.h"

namespace viewmap::sys {
namespace {

constexpr double kRadius = dsrc::kRadioRangeM;

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

/// Builds with the naive reference once and with the packed sweep on a
/// pool of each given width, and requires the bit-identical CSR.
void expect_equivalent(const std::vector<vp::ViewProfile>& fleet,
                       std::initializer_list<unsigned> widths) {
  const std::vector<bool> trusted(fleet.size(), false);
  const Viewmap ref = ViewmapBuilder().build_from_members_reference(pointers(fleet), trusted, 0);

  for (const unsigned width : widths) {
    common::WorkerPool pool(width);
    const Viewmap packed = ViewmapBuilder(pool).build_from_members(pointers(fleet), trusted, 0);
    ASSERT_EQ(packed.size(), ref.size());
    EXPECT_EQ(packed.graph(), ref.graph())
        << "edge sets diverge at n=" << fleet.size() << " pool width=" << width;
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
    expect_equivalent(fleet, {1, 2, 3, 4, 8});  // up to 8 tasks shard the sweep
  }
}

TEST(ViewmapBuildEquivalence, TaskRangesEndingInAnchorsWithoutUpperNeighbors) {
  // 300 stationary VPs within 100 m of each other; only the hubs are
  // Bloom-linked, each to every VP after it: the first ten, and two late
  // hubs (250 and 280) inside the last task's anchor range at every
  // width tested. Every other anchor has lower neighbors only, so each
  // task range ends in an anchor without an upper neighbor and the
  // middle tasks keep nothing at all — CSR assembly must still find the
  // late hubs' lists behind them.
  constexpr std::size_t kVps = 300;
  const std::vector<std::size_t> hubs{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 280};
  Rng rng(70);
  std::vector<vp::ViewProfile> fleet;
  for (std::size_t k = 0; k < kVps; ++k) {
    const geo::Vec2 at{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    fleet.push_back(attack::make_fake_profile(0, at, at, rng));
  }
  for (const std::size_t h : hubs)
    for (std::size_t j = h + 1; j < kVps; ++j) vp::link_mutually(fleet[h], fleet[j]);

  const Viewmap ref = ViewmapBuilder().build_from_members_reference(
      pointers(fleet), std::vector<bool>(kVps, false), 0);
  for (std::size_t i = 0; i + 1 < kVps; ++i) {
    const auto row = ref.neighbors(i);
    ASSERT_FALSE(row.empty());
    const bool hub = std::find(hubs.begin(), hubs.end(), i) != hubs.end();
    EXPECT_EQ(row.back() > i, hub) << "anchor " << i;
  }
  expect_equivalent(fleet, {1, 2, 3, 4, 8});
}

TEST(ViewmapBuildEquivalence, SmallMemberSetsUseAllPairsPathIdentically) {
  // Empty, single and tiny member sets: all below the parallel cutoff,
  // so the sweep runs serial even on a pool of two.
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
  const ViewmapBuilder builder;
  const Viewmap map = builder.build_from_members(
      pointers(fleet), std::vector<bool>(fleet.size(), false), 0);
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
      pointers(convoy), std::vector<bool>(convoy.size(), false), 0);
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
      pointers(fleet), std::vector<bool>(fleet.size(), false), 0);
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
          pointers(fleet), std::vector<bool>(fleet.size(), false), 0);
      EXPECT_EQ(map.neighbors(0).size(), 1u)
          << "pair at x=" << a.x << " and x=" << b.x << ", n=" << fleet.size();
    }
  }
}

TEST(ViewmapBuildEquivalence, EqualIdsNeverLink) {
  // Two profiles with one VP id — a clone beside its original, mutually
  // linked and co-located — are no viewlink for viewlinked() and for
  // neither builder, at 21 members (serial) and 121 (sharded on a pool
  // of 4).
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
        pointers(fleet), std::vector<bool>(fleet.size(), false), 0);
    for (std::uint32_t i = 0; i < fleet.size(); ++i)
      for (std::uint32_t j = i + 1; j < fleet.size(); ++j) {
        const auto nbrs = map.neighbors(i);
        EXPECT_EQ(std::binary_search(nbrs.begin(), nbrs.end(), j),
                  builder.viewlinked(fleet[i], fleet[j]))
            << "pair " << i << "," << j << " at n=" << fleet.size();
      }
  }
}

// ── the viewlink verdict memo ────────────────────────────────────────

constexpr geo::Rect kEverywhere{{-1e7, -1e7}, {1e7, 1e7}};

/// Minute 0 of dense downtown traffic (about 300 VPs on 0.8 km²) as the
/// upload screen admits it: dense_downtown() profiles that start in
/// minute 0 and cover 60 contiguous seconds, in a seeded order. Made
/// once; every memo test uploads copies into a timeline of its own.
const std::vector<vp::ViewProfile>& minute_zero() {
  static const std::vector<vp::ViewProfile> fleet = [] {
    Rng rng(70);
    std::vector<vp::ViewProfile> out;
    for (auto& p : dense_downtown(700, 900.0, rng))
      if (p.unit_time() == 0 && vp::well_formed(p)) out.push_back(std::move(p));
    return out;
  }();
  return fleet;
}

/// Uploads fleet[from, to) into `timeline`: fleet[0] as the trusted seed
/// (it also sets the clock), the rest anonymously.
void upload(index::VpTimeline& timeline, const std::vector<vp::ViewProfile>& fleet,
            std::size_t from, std::size_t to) {
  for (std::size_t k = from; k < to; ++k)
    ASSERT_EQ(timeline.upload(fleet[k], /*trusted=*/k == 0),
              index::VpTimeline::Admission::kAccepted);
}

std::uint64_t pairs_of(std::size_t n) { return n * (n - 1) / 2; }

/// Builds `members` of `snap`'s minute 0 through its memo, requires the
/// reference's CSR and accounts for every pair, and returns the counts.
PairCounts memo_build(const ViewmapBuilder& builder, const index::DbSnapshot& snap,
                      const std::vector<const vp::ViewProfile*>& members) {
  const std::vector<bool> trusted(members.size(), false);
  const Viewmap ref = builder.build_from_members_reference(members, trusted, 0);
  const Viewmap map = builder.build_from_members(members, trusted, 0, snap.shard(0));
  EXPECT_EQ(map.graph(), ref.graph()) << "memo build diverges at n=" << members.size();
  const PairCounts counts = map.pair_counts();
  EXPECT_EQ(counts.tested + counts.memoized, pairs_of(members.size()));
  return counts;
}

TEST(ViewlinkMemo, ColdWarmAndMemoOffBuildsMatchTheReference) {
  const auto& fleet = minute_zero();
  ASSERT_GT(fleet.size(), 200u);
  const std::size_t bytes_before = viewlink_memo_bytes();
  {
    index::VpTimeline timeline;
    upload(timeline, fleet, 0, fleet.size());
    const index::DbSnapshot snap = timeline.snapshot();
    const ViewmapBuilder builder;
    const auto west = snap.query(0, {{-1e3, -1e3}, {450.0, 1e3}});
    const auto all = snap.query(0, kEverywhere);
    ASSERT_GT(west.size(), 50u);
    ASSERT_LT(west.size(), all.size());

    const PairCounts cold = memo_build(builder, snap, west);
    EXPECT_EQ(cold.memoized, 0u);
    EXPECT_GT(viewlink_memo_bytes(), bytes_before);
    const PairCounts warm = memo_build(builder, snap, west);
    EXPECT_EQ(warm.tested, 0u);

    // The memo-off twin: the same call without a shard.
    const std::vector<bool> trusted(west.size(), false);
    const Viewmap off = builder.build_from_members(west, trusted, 0);
    EXPECT_EQ(off.graph(),
              builder.build_from_members_reference(west, trusted, 0).graph());
    EXPECT_EQ(off.pair_counts().tested, pairs_of(west.size()));
    EXPECT_EQ(off.pair_counts().memoized, 0u);

    // The whole minute reads exactly the west pairs from the memo.
    const PairCounts whole = memo_build(builder, snap, all);
    EXPECT_EQ(whole.memoized, pairs_of(west.size()));
    EXPECT_EQ(memo_build(builder, snap, all).tested, 0u);

    // build() itself, over a site: every pair is memoized by now.
    const Viewmap via_site = builder.build(snap, {{300.0, 300.0}, {400.0, 400.0}}, 0);
    EXPECT_EQ(via_site.pair_counts().tested, 0u);
    std::vector<const vp::ViewProfile*> members;
    for (std::size_t i = 0; i < via_site.size(); ++i) members.push_back(&via_site.member(i));
    EXPECT_EQ(via_site.graph(),
              builder.build_from_members_reference(members, std::vector<bool>(members.size()),
                                                   0)
                  .graph());
  }
  // Retention drops the memo with the last shard of its minute.
  EXPECT_EQ(viewlink_memo_bytes(), bytes_before);
}

TEST(ViewlinkMemo, LateUploadsShareTheMemoAndFallOutsideIt) {
  const auto& fleet = minute_zero();
  const std::size_t first = fleet.size() * 3 / 4;
  index::VpTimeline timeline;
  upload(timeline, fleet, 0, first);
  const ViewmapBuilder builder;
  const index::DbSnapshot snap1 = timeline.snapshot();
  const auto all1 = snap1.query(0, kEverywhere);
  EXPECT_EQ(memo_build(builder, snap1, all1).memoized, 0u);

  // A few late uploads into the pinned minute: the clone shares the memo,
  // and only pairs with a new profile run the kernel.
  const std::size_t few = first / 10;
  upload(timeline, fleet, first, first + few);
  const index::DbSnapshot snap2 = timeline.snapshot();
  ASSERT_NE(snap2.shard(0), snap1.shard(0));
  EXPECT_EQ(snap2.shard(0)->viewlink_memo, snap1.shard(0)->viewlink_memo);
  const auto all2 = snap2.query(0, kEverywhere);
  ASSERT_EQ(all2.size(), first + few);
  const PairCounts late = memo_build(builder, snap2, all2);
  EXPECT_EQ(late.memoized, pairs_of(first));
  EXPECT_EQ(late.tested, pairs_of(first + few) - pairs_of(first));

  // However many arrive later, the memo stays the one the first build
  // made: the new profiles' pairs are tested, the old ones' memoized.
  upload(timeline, fleet, first + few, fleet.size());
  const index::DbSnapshot snap3 = timeline.snapshot();
  const auto all3 = snap3.query(0, kEverywhere);
  ASSERT_GT((all3.size() - all1.size()) * 4, all3.size());
  for (int build = 0; build < 2; ++build) {
    const PairCounts grown = memo_build(builder, snap3, all3);
    EXPECT_EQ(grown.memoized, pairs_of(first));
    EXPECT_EQ(grown.tested, pairs_of(all3.size()) - pairs_of(first));
  }
  // The oldest version still pinned reads the memo through the shared
  // cell.
  EXPECT_EQ(memo_build(builder, snap1, all1).tested, 0u);
}

TEST(ViewlinkMemo, FourThreadsBuildOneMinuteConcurrently) {
  const auto& fleet = minute_zero();
  index::VpTimeline timeline;
  upload(timeline, fleet, 0, fleet.size());
  const index::DbSnapshot snap = timeline.snapshot();
  const std::vector<geo::Rect> areas{kEverywhere,
                                     {{-1e3, -1e3}, {450.0, 1e3}},
                                     {{450.0, -1e3}, {1e3, 1e3}},
                                     {{-1e3, 200.0}, {1e3, 700.0}}};
  std::vector<std::vector<const vp::ViewProfile*>> members;
  std::vector<CsrGraph> expected;
  const ViewmapBuilder reference;
  for (const geo::Rect& area : areas) {
    members.push_back(snap.query(0, area));
    expected.push_back(reference
                           .build_from_members_reference(members.back(),
                                                         std::vector<bool>(members.back().size()),
                                                         0)
                           .graph());
  }
  // Every thread starts with the first, unmemoized build of the minute,
  // so the memo's install races too; sharded and serial sweeps mix, and
  // two threads share one pool.
  std::atomic<int> mismatches{0};
  std::latch start(4);
  common::WorkerPool serial(1);
  common::WorkerPool sharded(2);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      const ViewmapBuilder builder(t % 2 == 0 ? serial : sharded);
      start.arrive_and_wait();
      for (std::size_t round = 0; round < 3; ++round)
        for (std::size_t k = 0; k < areas.size(); ++k) {
          const std::size_t a = (k + t) % areas.size();
          const Viewmap map = builder.build_from_members(
              members[a], std::vector<bool>(members[a].size()), 0, snap.shard(0));
          if (map.graph() != expected[a]) mismatches.fetch_add(1);
        }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(memo_build(ViewmapBuilder(), snap, members[0]).tested, 0u);
}

TEST(ViewlinkMemo, ForeignMemberWithACollidingIdIsTested) {
  const auto& fleet = minute_zero();
  index::VpTimeline timeline;
  upload(timeline, fleet, 0, fleet.size());
  const index::DbSnapshot snap = timeline.snapshot();
  auto members = snap.query(0, kEverywhere);
  const ViewmapBuilder builder;
  EXPECT_EQ(memo_build(builder, snap, members).memoized, 0u);

  // The best-linked member's twin: same frames (so the same id and
  // trajectory), an empty filter, so it links to nothing. Matched by id
  // alone it would inherit the original's edges from the memo.
  const Viewmap warm = builder.build_from_members(
      members, std::vector<bool>(members.size()), 0, snap.shard(0));
  std::size_t k = 0;
  for (std::size_t i = 0; i < warm.size(); ++i)
    if (warm.neighbors(i).size() > warm.neighbors(k).size()) k = i;
  ASSERT_GT(warm.neighbors(k).size(), 0u);
  const vp::ViewProfile twin(
      std::vector<dsrc::ViewDigest>(members[k]->digests().begin(), members[k]->digests().end()),
      bloom::BloomFilter(vp::kBloomBits, vp::kBloomHashes));
  ASSERT_EQ(twin.vp_id(), members[k]->vp_id());

  const vp::ViewProfile* original = members[k];
  members[k] = &twin;
  const PairCounts swapped = memo_build(builder, snap, members);
  EXPECT_EQ(swapped.tested, members.size() - 1);
  // Both the original and its twin: the twin's pairs, the equal-id pair
  // among them, still run the kernel.
  members.insert(members.begin() + static_cast<std::ptrdiff_t>(k) + 1, original);
  const PairCounts both = memo_build(builder, snap, members);
  EXPECT_EQ(both.tested, members.size() - 1);
  // Members out of id order: every pair's slots descend, so every pair
  // runs the kernel, unrecorded, and the CSR still matches.
  std::reverse(members.begin(), members.end());
  EXPECT_EQ(memo_build(builder, snap, members).memoized, 0u);
}

}  // namespace

// Claims on kViewlinkMemoBudget (system/viewmap_graph.cpp), declared by
// no header; the test takes the whole budget with them.
bool claim_viewlink_memo_bytes(std::size_t bytes) noexcept;
void release_viewlink_memo_bytes(std::size_t bytes) noexcept;

namespace {

TEST(ViewlinkMemo, ExhaustedBudgetBuildsMemoOff) {
  const auto& fleet = minute_zero();
  const std::size_t bytes_before = viewlink_memo_bytes();
  index::VpTimeline timeline;
  upload(timeline, fleet, 0, fleet.size());
  const ViewmapBuilder builder;
  {
    const std::size_t rest = kViewlinkMemoBudget - bytes_before;
    ASSERT_TRUE(claim_viewlink_memo_bytes(rest));
    EXPECT_FALSE(claim_viewlink_memo_bytes(1));
    const index::DbSnapshot snap = timeline.snapshot();
    const auto all = snap.query(0, kEverywhere);
    EXPECT_EQ(memo_build(builder, snap, all).memoized, 0u);
    EXPECT_EQ(memo_build(builder, snap, all).memoized, 0u);
    release_viewlink_memo_bytes(rest);
    index::TimeShard::ViewlinkMemoCell& cell = *snap.shard(0)->viewlink_memo;
    std::lock_guard lock(cell.mutex);
    EXPECT_EQ(cell.memo, nullptr);
  }
  EXPECT_EQ(viewlink_memo_bytes(), bytes_before);
  {
    const index::DbSnapshot snap = timeline.snapshot();
    const auto all = snap.query(0, kEverywhere);
    EXPECT_EQ(memo_build(builder, snap, all).memoized, 0u);
    EXPECT_EQ(memo_build(builder, snap, all).tested, 0u);
    EXPECT_GT(viewlink_memo_bytes(), bytes_before);
  }
  // Eviction drops the minute, and its memo with it.
  EXPECT_GT(timeline.evict_older_than(kUnitTimeSec), 0u);
  EXPECT_EQ(viewlink_memo_bytes(), bytes_before);
}

// ── non-finite investigation sites ───────────────────────────────────

TEST(ViewmapBuilderSite, NonFiniteSitesAreRejectedAndFarSitesKeepASeed) {
  // Two linked vehicles 60 m apart, the first of them trusted.
  Rng rng(76);
  vp::ViewProfile a = attack::make_fake_profile(0, {0.0, 0.0}, {700.0, 0.0}, rng);
  vp::ViewProfile b = attack::make_fake_profile(0, {60.0, 0.0}, {760.0, 0.0}, rng);
  vp::link_mutually(a, b);
  index::VpTimeline timeline;
  ASSERT_EQ(timeline.upload(a, true), index::VpTimeline::Admission::kAccepted);
  ASSERT_EQ(timeline.upload(b, false), index::VpTimeline::Admission::kAccepted);
  const index::DbSnapshot snap = timeline.snapshot();
  const ViewmapBuilder builder;

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, kInf, -kInf})
    for (int corner = 0; corner < 4; ++corner) {
      geo::Rect site{{500.0, -100.0}, {800.0, 100.0}};
      double* coords[] = {&site.min.x, &site.min.y, &site.max.x, &site.max.y};
      *coords[corner] = bad;
      EXPECT_THROW((void)builder.build(snap, site, 0), std::invalid_argument)
          << "coordinate " << corner << " = " << bad;
    }

  // Finite, but so far out that every distance to it overflows to +inf:
  // the first trusted VP seeds the coverage.
  const geo::Rect far{{-1.6e308, -1.6e308}, {-1.4e308, -1.4e308}};
  ASSERT_TRUE(std::isinf(geo::distance(a.location_at(0), far.center())));
  const Viewmap map = builder.build(snap, far, 0);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.trusted_indices().size(), 1u);
  EXPECT_EQ(map.edge_count(), 1u);
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

TEST(CsrGraph, FromAdjacencySortsEachRow) {
  const std::vector<std::vector<std::uint32_t>> adj{{3, 1, 2, 1}, {0, 0}, {0}, {0}};
  const CsrGraph g = CsrGraph::from_adjacency(adj);
  const std::vector<std::vector<std::uint32_t>> sorted{{1, 1, 2, 3}, {0, 0}, {0}, {0}};
  for (std::size_t i = 0; i < sorted.size(); ++i)
    EXPECT_TRUE(std::ranges::equal(g.neighbors(i), sorted[i])) << "row " << i;
}

TEST(CsrGraph, RowsMustAscendButMayRepeatANeighbor) {
  EXPECT_THROW(CsrGraph({0, 2, 2, 2}, {2, 1}), std::invalid_argument);  // row 0 descends
  EXPECT_THROW(CsrGraph({0, 1, 4, 4}, {1, 0, 2, 0}), std::invalid_argument);
  EXPECT_NO_THROW(CsrGraph({0, 2, 4}, {1, 1, 0, 0}));  // a doubled edge
  EXPECT_NO_THROW(CsrGraph({0, 2, 3, 4}, {1, 2, 0, 0}));
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
      pointers(fleet), std::vector<bool>(5, false), 0);
  EXPECT_THROW((void)map.neighbors(5), std::out_of_range);
}

/// TrustRank restated as the naive push loop over nested adjacency (the
/// pre-CSR implementation's arithmetic): every node, in node order, adds
/// its share to each neighbor it lists, whatever order its row is in.
TrustRankResult push_trust_rank(const std::vector<std::vector<std::uint32_t>>& adj,
                                std::span<const std::size_t> seeds,
                                const TrustRankConfig& cfg) {
  const std::size_t n = adj.size();
  std::vector<double> d(n, 0.0);
  for (std::size_t s : seeds) d[s] = 1.0 / static_cast<double>(seeds.size());
  TrustRankResult out;
  out.scores = d;
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    for (std::size_t u = 0; u < n; ++u) next[u] = (1.0 - cfg.damping) * d[u];
    for (std::size_t v = 0; v < n; ++v) {
      if (adj[v].empty()) continue;
      const double share = cfg.damping * out.scores[v] / static_cast<double>(adj[v].size());
      for (std::uint32_t u : adj[v]) next[u] += share;
    }
    double delta = 0.0;
    for (std::size_t u = 0; u < n; ++u) delta += std::abs(next[u] - out.scores[u]);
    out.scores.swap(next);
    out.iterations = iter + 1;
    if (delta < cfg.tolerance) {
      out.converged = true;
      break;
    }
  }
  return out;
}

/// The CSR core against push_trust_rank(): identical floating-point
/// results and iteration counts, not just "close".
void expect_same_ranks(const std::vector<std::vector<std::uint32_t>>& adj,
                       std::span<const std::size_t> seeds, const TrustRankConfig& cfg = {}) {
  const auto pulled = trust_rank(CsrGraph::from_adjacency(adj), seeds, cfg);
  const auto pushed = push_trust_rank(adj, seeds, cfg);
  EXPECT_EQ(pulled.iterations, pushed.iterations) << "n=" << adj.size();
  EXPECT_EQ(pulled.converged, pushed.converged) << "n=" << adj.size();
  ASSERT_EQ(pulled.scores.size(), pushed.scores.size());
  for (std::size_t u = 0; u < adj.size(); ++u)
    EXPECT_EQ(pulled.scores[u], pushed.scores[u]) << "n=" << adj.size() << " node " << u;
}

/// A random symmetric multigraph on n nodes in unsorted rows: about a
/// quarter of the nodes isolated, the rest joined by random edges with
/// repeats (multi-edges) and self-loops (listed twice in their row).
std::vector<std::vector<std::uint32_t>> random_multigraph(std::size_t n, Rng& rng) {
  std::vector<std::vector<std::uint32_t>> adj(n);
  std::vector<std::uint32_t> joined;
  for (std::uint32_t v = 0; v < n; ++v)
    if (rng.index(4) != 0) joined.push_back(v);
  if (!joined.empty()) {
    const std::size_t edges = n + rng.index(3 * n + 1);
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    for (std::size_t k = 0; k < edges; ++k) {
      if (k == 0 || rng.index(5) != 0) {  // else repeat the previous edge
        i = joined[rng.index(joined.size())];
        j = joined[rng.index(joined.size())];
      }
      adj[i].push_back(j);
      adj[j].push_back(i);
    }
  }
  for (auto& row : adj)
    for (std::size_t k = row.size(); k > 1; --k) std::swap(row[k - 1], row[rng.index(k)]);
  return adj;
}

/// Up to three distinct seeds of [0, n).
std::vector<std::size_t> random_seeds(std::size_t n, Rng& rng) {
  std::vector<std::size_t> nodes(n);
  for (std::size_t v = 0; v < n; ++v) nodes[v] = v;
  for (std::size_t k = n; k > 1; --k) std::swap(nodes[k - 1], nodes[rng.index(k)]);
  nodes.resize(1 + rng.index(std::min<std::size_t>(n, 3)));
  return nodes;
}

TEST(TrustRankCsr, MatchesNestedAdjacencyPowerIteration) {
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
  expect_same_ranks(adj, std::vector<std::size_t>{0, 7});

  // Pull form sums each row four at a time: every tail of the 4-row
  // blocks (n = 1…9), then larger graphs, on multigraphs with isolated
  // nodes, repeated edges and self-loops, from unsorted input rows.
  for (const std::size_t size : {1, 2, 3, 4, 5, 6, 7, 8, 9, 40, 1000}) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto graph = random_multigraph(size, rng);
      expect_same_ranks(graph, random_seeds(size, rng));
    }
  }

  // The workload's own graph: a dense downtown viewmap, most member
  // pairs linked, its rows handed to the push loop reversed.
  const auto fleet = dense_downtown(1024, 1100.0, rng);
  std::vector<bool> trusted(fleet.size(), false);
  trusted[0] = trusted[300] = trusted[900] = true;
  const Viewmap map = ViewmapBuilder().build_from_members(pointers(fleet), trusted, 0);
  ASSERT_GT(map.edge_count(), 100 * fleet.size());
  std::vector<std::vector<std::uint32_t>> adj_map(map.size());
  for (std::size_t u = 0; u < map.size(); ++u)
    adj_map[u].assign(map.neighbors(u).rbegin(), map.neighbors(u).rend());
  expect_same_ranks(adj_map, map.trusted_indices());
}

TEST(TrustRankCsr, RejectsRepeatedSeeds) {
  // A repeated seed would take 1/|seeds| of d twice over, so d's total
  // mass would fall below 1.
  const CsrGraph g = CsrGraph::from_adjacency(
      std::vector<std::vector<std::uint32_t>>{{1}, {0, 2}, {1}});
  EXPECT_THROW((void)trust_rank(g, std::vector<std::size_t>{0, 0}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)trust_rank(g, std::vector<std::size_t>{2, 0, 2}, {}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)trust_rank(g, std::vector<std::size_t>{2, 0, 1}, {}));
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
  const Viewmap map = builder.build_from_members(pointers(fleet), trusted, 0);
  const auto ranks = trust_rank(map);
  ASSERT_EQ(ranks.scores.size(), map.size());
  const auto direct = trust_rank(map.graph(), map.trusted_indices());
  EXPECT_EQ(ranks.scores, direct.scores);
}

}  // namespace
}  // namespace viewmap::sys
