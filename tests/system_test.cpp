// Unit tests: VP database, viewmap construction, TrustRank, verifier.
#include <gtest/gtest.h>

#include "attack/fake_vp.h"
#include "common/rng.h"
#include "system/trustrank.h"
#include "system/verifier.h"
#include "system/viewmap_graph.h"
#include "system/vp_database.h"
#include "vp/video.h"
#include "vp/vp_builder.h"

namespace viewmap::sys {
namespace {

/// Builds a convoy of `count` vehicles driving east with full pairwise VD
/// exchange between adjacent vehicles (spacing 50 m). Returns the finished
/// generation results, in convoy order.
std::vector<vp::VpGenerationResult> make_convoy(int count, TimeSec unit, Rng& rng,
                                                double spacing = 50.0) {
  std::vector<vp::VpBuilder> builders;
  builders.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) builders.emplace_back(unit, rng);

  vp::SyntheticVideoSource source(77, 32);
  std::vector<std::uint8_t> chunk;
  std::vector<dsrc::ViewDigest> vds(static_cast<std::size_t>(count));
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    source.generate_chunk(unit, s, chunk);
    for (int i = 0; i < count; ++i)
      vds[static_cast<std::size_t>(i)] =
          builders[static_cast<std::size_t>(i)].tick({s * 10.0, i * spacing}, chunk);
    // Adjacent convoy members hear each other every second.
    for (int i = 0; i + 1 < count; ++i) {
      builders[static_cast<std::size_t>(i)].accept_neighbor(
          vds[static_cast<std::size_t>(i + 1)], {s * 10.0, i * spacing});
      builders[static_cast<std::size_t>(i + 1)].accept_neighbor(
          vds[static_cast<std::size_t>(i)], {s * 10.0, (i + 1) * spacing});
    }
  }
  std::vector<vp::VpGenerationResult> out;
  out.reserve(static_cast<std::size_t>(count));
  for (auto& b : builders) out.push_back(b.finish());
  return out;
}

TEST(VpDatabase, UploadScreensAndDeduplicates) {
  Rng rng(1);
  auto convoy = make_convoy(2, 0, rng);
  VpDatabase db;
  EXPECT_TRUE(db.upload(convoy[0].profile));
  EXPECT_FALSE(db.upload(convoy[0].profile));  // duplicate id
  EXPECT_EQ(db.size(), 1u);
  EXPECT_NE(db.find(convoy[0].profile.vp_id()), nullptr);
  EXPECT_EQ(db.find(convoy[1].profile.vp_id()), nullptr);
}

TEST(VpDatabase, RejectsMalformedUpload) {
  Rng rng(2);
  auto convoy = make_convoy(1, 0, rng);
  auto digests = std::vector<dsrc::ViewDigest>(convoy[0].profile.digests().begin(),
                                               convoy[0].profile.digests().end());
  digests[10].loc_x += 10000.0f;  // teleport
  vp::ViewProfile bad(std::move(digests),
                      bloom::BloomFilter(vp::kBloomBits, vp::kBloomHashes));
  VpDatabase db;
  EXPECT_FALSE(db.upload(std::move(bad)));
}

TEST(VpDatabase, QueryByTimeAndArea) {
  Rng rng(3);
  auto m0 = make_convoy(2, 0, rng);
  auto m1 = make_convoy(2, 60, rng);
  VpDatabase db;
  for (auto& g : m0) db.upload(g.profile);
  for (auto& g : m1) db.upload(g.profile);

  const DbSnapshot snap = db.snapshot();
  const geo::Rect everywhere{{-1e6, -1e6}, {1e6, 1e6}};
  EXPECT_EQ(snap.query(0, everywhere).size(), 2u);
  EXPECT_EQ(snap.query(60, everywhere).size(), 2u);
  EXPECT_EQ(snap.query(120, everywhere).size(), 0u);
  const geo::Rect nowhere{{5000, 5000}, {6000, 6000}};
  EXPECT_EQ(snap.query(0, nowhere).size(), 0u);
}

TEST(VpDatabase, TrustedRegistry) {
  Rng rng(4);
  auto convoy = make_convoy(2, 0, rng);
  VpDatabase db;
  db.upload_trusted(convoy[0].profile);
  db.upload(convoy[1].profile);
  EXPECT_TRUE(db.is_trusted(convoy[0].profile.vp_id()));
  EXPECT_FALSE(db.is_trusted(convoy[1].profile.vp_id()));
  const DbSnapshot snap = db.snapshot();
  EXPECT_EQ(snap.trusted_at(0).size(), 1u);
  EXPECT_EQ(snap.trusted_at(60).size(), 0u);
}

TEST(ViewmapBuilder, ConvoyFormsChainGraph) {
  Rng rng(5);
  auto convoy = make_convoy(4, 0, rng);
  VpDatabase db;
  db.upload_trusted(convoy[0].profile);
  for (std::size_t i = 1; i < convoy.size(); ++i) db.upload(convoy[i].profile);

  const ViewmapBuilder builder;
  const geo::Rect site{{0, 100}, {600, 200}};  // around vehicles 2-3
  const Viewmap map = builder.build(db.snapshot(), site, 0);

  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.edge_count(), 3u);  // chain 0-1-2-3
  EXPECT_EQ(map.trusted_indices().size(), 1u);
  EXPECT_EQ(map.isolated_from_trusted(), 0u);
}

TEST(ViewmapBuilder, NoTrustedVpThrows) {
  Rng rng(6);
  auto convoy = make_convoy(2, 0, rng);
  VpDatabase db;
  for (auto& g : convoy) db.upload(g.profile);
  const ViewmapBuilder builder;
  EXPECT_THROW(builder.build(db.snapshot(), {{0, 0}, {10, 10}}, 0), std::runtime_error);
}

TEST(ViewmapBuilder, ViewlinkRequiresBothDirections) {
  Rng rng(7);
  // Two profiles close in space but without any VD exchange.
  auto a = make_convoy(1, 0, rng, 0.0);
  auto b = make_convoy(1, 0, rng, 0.0);
  const ViewmapBuilder builder;
  EXPECT_FALSE(builder.viewlinked(a[0].profile, b[0].profile));

  // One-way insertion is not enough.
  a[0].profile.add_neighbor_digest(b[0].profile.digests().front());
  EXPECT_FALSE(builder.viewlinked(a[0].profile, b[0].profile));

  // Mutual insertion, still close ⇒ linked.
  b[0].profile.add_neighbor_digest(a[0].profile.digests().front());
  EXPECT_TRUE(builder.viewlinked(a[0].profile, b[0].profile));
}

TEST(ViewmapBuilder, ViewlinkRequiresProximity) {
  Rng rng(8);
  auto convoy = make_convoy(2, 0, rng, /*spacing=*/10000.0);  // 10 km apart
  // Forge mutual Bloom membership — distance must still preclude the edge.
  vp::link_mutually(convoy[0].profile, convoy[1].profile);
  const ViewmapBuilder builder;
  EXPECT_FALSE(builder.viewlinked(convoy[0].profile, convoy[1].profile));
}

TEST(TrustRank, ConservesMassOnConnectedGraph) {
  // Triangle with one seed.
  std::vector<std::vector<std::uint32_t>> adj{{1, 2}, {0, 2}, {0, 1}};
  const std::vector<std::size_t> seeds{0};
  const auto result = trust_rank(CsrGraph::from_adjacency(adj), seeds, {});
  ASSERT_TRUE(result.converged);
  double total = 0;
  for (double s : result.scores) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(result.scores[0], result.scores[1]);
  EXPECT_NEAR(result.scores[1], result.scores[2], 1e-12);  // symmetry
}

TEST(TrustRank, ScoreDecaysWithHopDistance) {
  // Path graph seeded at one end: scores must be monotone decreasing.
  const std::size_t n = 8;
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    adj[i].push_back(i + 1);
    adj[i + 1].push_back(i);
  }
  const auto result =
      trust_rank(CsrGraph::from_adjacency(adj), std::vector<std::size_t>{0}, {});
  for (std::size_t i = 2; i < n; ++i) EXPECT_LT(result.scores[i], result.scores[i - 1]);
}

TEST(TrustRank, DisconnectedComponentGetsNothing) {
  std::vector<std::vector<std::uint32_t>> adj{{1}, {0}, {3}, {2}};
  const auto result =
      trust_rank(CsrGraph::from_adjacency(adj), std::vector<std::size_t>{0}, {});
  EXPECT_GT(result.scores[1], 0.0);
  EXPECT_EQ(result.scores[2], 0.0);
  EXPECT_EQ(result.scores[3], 0.0);
}

TEST(TrustRank, RejectsBadInputs) {
  const CsrGraph g = CsrGraph::from_adjacency(std::vector<std::vector<std::uint32_t>>{{}});
  EXPECT_THROW(trust_rank(g, std::vector<std::size_t>{}, {}), std::invalid_argument);
  TrustRankConfig bad;
  bad.damping = 1.5;
  EXPECT_THROW(trust_rank(g, std::vector<std::size_t>{0}, bad), std::invalid_argument);
}

TEST(Algorithm1, FloodFillRestrictedToSite) {
  // 0-1-2-3 path; site = {1, 3}. From top-scored 1, node 3 is reachable
  // only through 2 ∉ X, so 3 must be rejected.
  std::vector<std::vector<std::uint32_t>> adj{{1}, {0, 2}, {1, 3}, {2}};
  const std::vector<double> scores{0.5, 0.3, 0.15, 0.05};
  const std::vector<std::size_t> site{1, 3};
  const auto verdict = algorithm1(CsrGraph::from_adjacency(adj), scores, site);
  EXPECT_EQ(verdict.top_scored, 1u);
  EXPECT_EQ(verdict.legitimate, (std::vector<std::size_t>{1}));
}

TEST(Algorithm1, ConnectedSiteAllLegitimate) {
  std::vector<std::vector<std::uint32_t>> adj{{1}, {0, 2}, {1}};
  const std::vector<double> scores{0.6, 0.3, 0.1};
  const std::vector<std::size_t> site{0, 1, 2};
  const auto verdict = algorithm1(CsrGraph::from_adjacency(adj), scores, site);
  EXPECT_EQ(verdict.legitimate.size(), 3u);
}

TEST(Verifier, EndToEndConvoyAllLegitimate) {
  Rng rng(9);
  auto convoy = make_convoy(5, 0, rng);
  VpDatabase db;
  db.upload_trusted(convoy[0].profile);
  for (std::size_t i = 1; i < convoy.size(); ++i) db.upload(convoy[i].profile);

  const ViewmapBuilder builder;
  const geo::Rect site{{-10, -10}, {600, 260}};
  const Viewmap map = builder.build(db.snapshot(), site, 0);
  const Verifier verifier;
  const auto result = verifier.verify(map, site);
  EXPECT_EQ(result.site_members.size(), 5u);
  EXPECT_EQ(result.legitimate.size(), 5u);
  EXPECT_TRUE(result.rejected.empty());
}

TEST(Verifier, FakeLayerRejected) {
  Rng rng(10);
  auto convoy = make_convoy(5, 0, rng);

  // Attacker fabricates a fake VP claiming to be in the site, linked only
  // to... nothing honest (it cannot forge two-way links, §5.2.2).
  Rng attacker_rng(11);
  auto fake = attack::make_fake_profile(0, {200, 100}, {260, 100}, attacker_rng);

  VpDatabase db;
  db.upload_trusted(convoy[0].profile);
  for (std::size_t i = 1; i < convoy.size(); ++i) db.upload(convoy[i].profile);
  EXPECT_TRUE(db.upload(std::move(fake)));  // well-formed, so accepted

  const ViewmapBuilder builder;
  const geo::Rect site{{-10, -10}, {600, 260}};
  const Viewmap map = builder.build(db.snapshot(), site, 0);
  const Verifier verifier;
  const auto result = verifier.verify(map, site);

  ASSERT_EQ(result.site_members.size(), 6u);
  EXPECT_EQ(result.legitimate.size(), 5u);
  ASSERT_EQ(result.rejected.size(), 1u);
  // The rejected one is the fake (zero trust score, disconnected layer).
  EXPECT_EQ(result.ranks.scores[result.rejected[0]], 0.0);
}

TEST(Verifier, SaturatedBloomCannotForgeLink) {
  Rng rng(12);
  auto convoy = make_convoy(2, 0, rng);
  Rng attacker_rng(13);
  // All-ones Bloom claims to have heard everyone (§6.3.2)…
  auto fake = attack::make_saturated_profile(0, {0, 25}, {590, 25}, attacker_rng);
  const ViewmapBuilder builder;
  // …but the two-way check needs the *honest* VP to have heard the fake,
  // which it did not.
  EXPECT_FALSE(builder.viewlinked(convoy[0].profile, fake));
}

}  // namespace
}  // namespace viewmap::sys
