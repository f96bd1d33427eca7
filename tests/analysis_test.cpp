// Tests that the paper's §6.3.1 analysis holds for our TrustRank
// implementation:
//
//   Lemma 1     — the total trust score of VPs at ≥ L links from the
//                 trusted seed is at most δ^L.
//   Corollary 1 — injecting more fakes dilutes the per-fake trust score:
//                 the maximum fake score inside the site decreases (on
//                 average) as the fake count grows.
//
// Plus a full-protocol version of the chain attack: real ViewProfiles,
// real Bloom filters, real viewmap construction.
#include <gtest/gtest.h>

#include "attack/attack_graph.h"
#include "attack/fake_vp.h"
#include "common/rng.h"
#include "system/service.h"
#include "system/trustrank.h"
#include "vp/video.h"
#include "vp/vp_builder.h"

namespace viewmap {
namespace {

TEST(Lemma1, TrustBeyondLHopsBoundedByDeltaPowL) {
  // Random geometric graphs; for every L, sum of scores over nodes with
  // hop distance ≥ L must be ≤ δ^L (+ numerical slack).
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    attack::GeometricConfig cfg;
    cfg.legit_count = 400;
    cfg.area_m = 2000;
    cfg.link_radius_m = 160;
    const auto g = attack::make_geometric_viewmap(cfg, rng);

    sys::TrustRankConfig tr;  // δ = 0.8
    const auto result = sys::trust_rank(sys::CsrGraph::from_adjacency(g.adj), g.trusted, tr);
    const auto hops = g.hops_from_trusted();

    for (std::size_t L = 1; L <= 12; ++L) {
      double far_mass = 0.0;
      for (std::size_t i = 0; i < g.size(); ++i)
        if (hops[i] != SIZE_MAX && hops[i] >= L) far_mass += result.scores[i];
      EXPECT_LE(far_mass, std::pow(tr.damping, static_cast<double>(L)) + 1e-9)
          << "seed " << seed << " L " << L;
    }
  }
}

TEST(Corollary1, MoreFakesMeansLowerPerFakeScore) {
  // Average the best fake score inside the site over several graphs, for
  // growing fake budgets. The per-fake ceiling must fall roughly like
  // 1/n (we assert strict monotonicity of the 4x-spaced averages).
  const std::vector<std::size_t> budgets{250, 1000, 4000};
  std::vector<double> avg_best(budgets.size(), 0.0);
  const int graphs = 6;
  Rng rng(99);
  sys::TrustRankConfig tr;
  tr.tolerance = 1e-10;

  for (int trial = 0; trial < graphs; ++trial) {
    attack::GeometricConfig cfg;
    cfg.legit_count = 500;
    cfg.area_m = 2000;
    cfg.link_radius_m = 160;
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      Rng graph_rng(1000 + static_cast<std::uint64_t>(trial));  // same base graph per budget
      auto g = attack::make_geometric_viewmap(cfg, graph_rng);
      attack::AttackPlan plan;
      plan.fake_count = budgets[b];
      plan.attacker_count = 10;
      Rng attack_rng(2000 + static_cast<std::uint64_t>(trial));
      if (!attack::inject_fakes(g, plan, cfg.link_radius_m, attack_rng)) continue;

      const auto result = sys::trust_rank(sys::CsrGraph::from_adjacency(g.adj), g.trusted, tr);
      double best_fake = 0.0;
      for (std::size_t i : g.site_members())
        if (g.fake[i]) best_fake = std::max(best_fake, result.scores[i]);
      avg_best[b] += best_fake;
    }
  }
  for (std::size_t b = 1; b < budgets.size(); ++b)
    EXPECT_LT(avg_best[b], avg_best[b - 1])
        << "per-fake trust must dilute as the fake population grows";
}

TEST(FullProtocol, MultiHopFakeChainIntoSiteRejected) {
  // Five honest vehicles in convoy; the attacker holds ONE legitimately
  // generated VP at the convoy's tail and chains three fake VPs (real
  // ViewProfiles, forged mutual Bloom links) toward the site at the head.
  Rng rng(7);
  const int honest = 5;
  std::vector<vp::VpBuilder> builders;
  for (int i = 0; i <= honest; ++i) builders.emplace_back(0, rng);  // +1: attacker

  vp::SyntheticVideoSource source(3, 16);
  std::vector<std::uint8_t> chunk;
  auto pos = [](int vehicle, int sec) {
    return geo::Vec2{sec * 8.0, vehicle * 60.0};
  };
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    source.generate_chunk(0, s, chunk);
    std::vector<dsrc::ViewDigest> vds;
    for (int i = 0; i <= honest; ++i)
      vds.push_back(builders[static_cast<std::size_t>(i)].tick(pos(i, s), chunk));
    for (int i = 0; i < honest; ++i) {  // chain exchanges, incl. attacker at tail
      builders[static_cast<std::size_t>(i)].accept_neighbor(
          vds[static_cast<std::size_t>(i + 1)], pos(i, s));
      builders[static_cast<std::size_t>(i + 1)].accept_neighbor(
          vds[static_cast<std::size_t>(i)], pos(i + 1, s));
    }
  }

  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  std::vector<Id16> honest_ids;
  vp::ViewProfile attacker_legit = [&] {
    std::optional<vp::ViewProfile> result;
    for (int i = 0; i <= honest; ++i) {
      auto gen = builders[static_cast<std::size_t>(i)].finish();
      if (i == 0) {
        service.register_trusted(gen.profile);
        honest_ids.push_back(gen.profile.vp_id());
      } else if (i < honest) {
        honest_ids.push_back(gen.profile.vp_id());
        service.upload_channel().submit(gen.profile.serialize());
      } else {
        result = std::move(gen.profile);  // vehicle `honest` is the attacker
      }
    }
    return std::move(*result);
  }();

  // Fake chain from the attacker's position (y = 300) to the site around
  // vehicle 1 (y = 60), spaced within the validated DSRC radius.
  Rng attacker_rng(8);
  auto f1 = attack::make_fake_profile(0, {100, 300}, {300, 240}, attacker_rng);
  auto f2 = attack::make_fake_profile(0, {120, 200}, {320, 150}, attacker_rng);
  auto f3 = attack::make_fake_profile(0, {140, 90}, {340, 60}, attacker_rng);
  attack::forge_link(attacker_legit, f1);
  attack::forge_link(f1, f2);
  attack::forge_link(f2, f3);
  const Id16 f3_id = f3.vp_id();

  service.upload_channel().submit(attacker_legit.serialize());
  service.upload_channel().submit(f1.serialize());
  service.upload_channel().submit(f2.serialize());
  service.upload_channel().submit(f3.serialize());
  EXPECT_EQ(service.ingest_uploads(), 4u + static_cast<std::size_t>(honest) - 1u);

  // Site around vehicles 0-1 (y ≤ 120): f3 claims to be there too.
  const geo::Rect site{{-10, -10}, {600, 120}};
  const auto report = service.investigate(site, 0);

  // The fake in the site is rejected; honest site members are solicited.
  EXPECT_FALSE(service.board().is_posted(f3_id, sys::RequestKind::kVideo));
  EXPECT_TRUE(service.board().is_posted(honest_ids[1], sys::RequestKind::kVideo));
  ASSERT_FALSE(report.verification.rejected.empty());
}

}  // namespace
}  // namespace viewmap
