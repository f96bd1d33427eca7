// Unit tests: attack graphs, fake injection, verification experiments.
#include <gtest/gtest.h>

#include "attack/attack_graph.h"
#include "attack/experiments.h"
#include "attack/fake_vp.h"

namespace viewmap::attack {
namespace {

GeometricConfig small_cfg() {
  GeometricConfig cfg;
  cfg.legit_count = 300;
  cfg.area_m = 1500;
  cfg.link_radius_m = 150;
  cfg.site_half_m = 120;
  return cfg;
}

TEST(AttackGraph, GeometricConstructionInvariants) {
  Rng rng(1);
  const auto g = make_geometric_viewmap(small_cfg(), rng);
  EXPECT_EQ(g.size(), 300u);
  ASSERT_EQ(g.trusted.size(), 1u);
  EXPECT_FALSE(g.fake[g.trusted[0]]);
  EXPECT_FALSE(g.site_members().empty());

  // Edges are symmetric and respect the link radius.
  for (std::size_t u = 0; u < g.size(); ++u) {
    for (std::uint32_t v : g.adj[u]) {
      EXPECT_LE(geo::distance(g.pos[u], g.pos[v]), 150.0 + 1e-9);
      const auto& back = g.adj[v];
      EXPECT_NE(std::find(back.begin(), back.end(), static_cast<std::uint32_t>(u)),
                back.end());
    }
  }
}

TEST(AttackGraph, HopsFromTrustedBfs) {
  AttackGraph g;
  g.pos = {{0, 0}, {1, 0}, {2, 0}, {50, 50}};
  g.adj.resize(4);
  g.fake.assign(4, false);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.trusted = {0};
  const auto hops = g.hops_from_trusted();
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 2u);
  EXPECT_EQ(hops[3], SIZE_MAX);  // disconnected
}

TEST(InjectFakes, NeverLinksFakeToHonestNonAttacker) {
  Rng rng(2);
  auto g = make_geometric_viewmap(small_cfg(), rng);
  const std::size_t base = g.size();
  AttackPlan plan;
  plan.fake_count = 200;
  plan.attacker_count = 10;
  const auto attackers = inject_fakes(g, plan, 150, rng);
  ASSERT_TRUE(attackers.has_value());
  EXPECT_EQ(g.size(), base + 200);

  std::vector<bool> is_attacker(g.size(), false);
  for (std::size_t a : *attackers) is_attacker[a] = true;
  for (std::size_t f = base; f < g.size(); ++f) {
    ASSERT_TRUE(g.fake[f]);
    for (std::uint32_t nbr : g.adj[f]) {
      // Fake edges reach only other fakes or attacker-controlled VPs.
      EXPECT_TRUE(g.fake[nbr] || is_attacker[nbr])
          << "fake " << f << " linked to honest non-attacker " << nbr;
    }
  }
}

TEST(InjectFakes, FakeEdgesRespectClaimedProximity) {
  Rng rng(3);
  auto g = make_geometric_viewmap(small_cfg(), rng);
  AttackPlan plan;
  plan.fake_count = 150;
  plan.attacker_count = 8;
  ASSERT_TRUE(inject_fakes(g, plan, 150, rng).has_value());
  for (std::size_t u = 0; u < g.size(); ++u) {
    for (std::uint32_t v : g.adj[u]) {
      if (g.fake[u] || g.fake[v]) {
        EXPECT_LE(geo::distance(g.pos[u], g.pos[v]), 150.0 * 1.25)
            << "chain spacing must stay within the validated DSRC radius";
      }
    }
  }
}

TEST(InjectFakes, SomeFakesReachTheSite) {
  Rng rng(4);
  auto g = make_geometric_viewmap(small_cfg(), rng);
  AttackPlan plan;
  plan.fake_count = 300;
  plan.attacker_count = 10;
  ASSERT_TRUE(inject_fakes(g, plan, 150, rng).has_value());
  std::size_t site_fakes = 0;
  for (std::size_t i : g.site_members()) site_fakes += g.fake[i];
  EXPECT_GT(site_fakes, 0u);  // otherwise the attack is vacuous
}

TEST(InjectFakes, EmptyHopBucketReturnsNullopt) {
  Rng rng(5);
  auto g = make_geometric_viewmap(small_cfg(), rng);
  AttackPlan plan;
  plan.hop_bucket = {{900, 1000}};  // no node is 900 hops away
  EXPECT_FALSE(inject_fakes(g, plan, 150, rng).has_value());
}

TEST(Judge, CleanViewmapIsCorrect) {
  Rng rng(6);
  const auto g = make_geometric_viewmap(small_cfg(), rng);
  const auto outcome = judge(g, {});
  EXPECT_TRUE(outcome.ran);
  EXPECT_TRUE(outcome.correct);
  EXPECT_EQ(outcome.fakes_accepted, 0u);
  EXPECT_EQ(outcome.site_fakes, 0u);
  EXPECT_GT(outcome.site_honest, 0u);
}

TEST(Judge, DistantAttackersAreRejected) {
  // Attackers far (in hops) from the trusted seed rarely win (Fig. 12
  // shows ≈99-100% accuracy outside the nearest bucket).
  Rng rng(7);
  sys::TrustRankConfig tr;
  tr.tolerance = 1e-10;
  AttackPlan plan;
  plan.fake_count = 600;  // 200% of legit
  plan.attacker_count = 15;
  plan.hop_bucket = {{8, 20}};
  int correct = 0, ran = 0;
  for (int i = 0; i < 20; ++i) {
    const auto out = run_geometric_trial(small_cfg(), plan, tr, rng);
    if (!out.ran) continue;
    ++ran;
    correct += out.correct;
  }
  ASSERT_GT(ran, 10);
  EXPECT_GE(static_cast<double>(correct) / ran, 0.9);
}

TEST(GeometricAccuracy, ReturnsFractionInUnitInterval) {
  Rng rng(8);
  sys::TrustRankConfig tr;
  tr.tolerance = 1e-8;
  AttackPlan plan;
  plan.fake_count = 100;
  plan.attacker_count = 5;
  const double acc = geometric_accuracy(small_cfg(), plan, tr, 5, rng);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(FakeVp, WellFormedButUnlinked) {
  Rng rng(9);
  const auto fake = make_fake_profile(60, {0, 0}, {300, 0}, rng);
  EXPECT_TRUE(vp::well_formed(fake));
  EXPECT_EQ(fake.unit_time(), 60);
  EXPECT_EQ(fake.neighbor_bloom().popcount(), 0u);
}

TEST(FakeVp, ForgeLinkOnlyWorksBetweenControlledProfiles) {
  Rng rng(10);
  auto f1 = make_fake_profile(0, {0, 0}, {100, 0}, rng);
  auto f2 = make_fake_profile(0, {50, 0}, {150, 0}, rng);
  EXPECT_FALSE(f1.heard(f2));
  forge_link(f1, f2);
  EXPECT_TRUE(f1.heard(f2));
  EXPECT_TRUE(f2.heard(f1));
}

TEST(FakeVp, SaturatedProfileClaimsEverything) {
  Rng rng(11);
  const auto sat = make_saturated_profile(0, {0, 0}, {10, 0}, rng);
  const auto other = make_fake_profile(0, {5, 0}, {15, 0}, rng);
  EXPECT_TRUE(sat.heard(other));   // claims to have heard anyone
  EXPECT_FALSE(other.heard(sat));  // but cannot make others claim it back
}

}  // namespace
}  // namespace viewmap::attack
