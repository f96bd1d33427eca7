// Integration tests: the full ViewMap pipeline over simulated city traffic
// — vehicles record/exchange/compile VPs with guards, upload anonymously,
// the system builds viewmaps, verifies, solicits, validates videos, and
// pays untraceable rewards. Privacy and security properties are asserted
// on the same dataset.
#include <gtest/gtest.h>

#include "attack/fake_vp.h"
#include "reward/client.h"
#include "sim/simulator.h"
#include "system/service.h"
#include "track/privacy_eval.h"

namespace viewmap {
namespace {

struct CityWorld : ::testing::Test {
  static constexpr int kVehicles = 20;
  static constexpr int kMinutes = 3;

  static sim::SimResult& simulation() {
    static sim::SimResult result = [] {
      Rng city_rng(101);
      road::GridCityConfig ccfg;
      ccfg.extent_m = 1200;
      ccfg.block_m = 200;
      ccfg.building_fill = 0.5;
      auto city = road::make_grid_city(ccfg, city_rng);

      sim::SimConfig cfg;
      cfg.seed = 103;
      cfg.vehicle_count = kVehicles;
      cfg.minutes = kMinutes;
      cfg.video_bytes_per_second = 24;
      cfg.keep_videos = true;
      sim::TrafficSimulator sim(std::move(city), cfg);
      return sim.run();
    }();
    return result;
  }
};

TEST_F(CityWorld, AnonymousUploadPathFillsDatabase) {
  const auto& result = simulation();
  sys::ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  sys::ViewMapService service(cfg);

  // Vehicle 0 doubles as the police car: its actual VPs become trusted.
  std::size_t submitted = 0;
  for (const auto& rec : result.profiles) {
    if (!rec.guard && rec.creator == 0) {
      EXPECT_TRUE(service.register_trusted(rec.profile));
    } else {
      service.upload_channel().submit(rec.profile.serialize());
      ++submitted;
    }
  }
  EXPECT_EQ(service.ingest_uploads(), submitted);
  EXPECT_EQ(service.database().size(), result.profiles.size());
  EXPECT_EQ(service.database().trusted_count(), static_cast<std::size_t>(kMinutes));
}

TEST_F(CityWorld, InvestigationFindsWitnessesAndValidatesVideo) {
  const auto& result = simulation();
  sys::ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  sys::ViewMapService service(cfg);

  for (const auto& rec : result.profiles) {
    if (!rec.guard && rec.creator == 0)
      service.register_trusted(rec.profile);
    else
      service.upload_channel().submit(rec.profile.serialize());
  }
  service.ingest_uploads();

  // Incident at minute 1 around vehicle 3's position then.
  const sim::OwnedVp* witness = nullptr;
  for (const auto& o : result.owned)
    if (o.vehicle == 3 && o.unit_time == 60) witness = &o;
  ASSERT_NE(witness, nullptr);
  const auto witness_profile = service.database().find(witness->vp_id);
  ASSERT_NE(witness_profile, nullptr);
  const geo::Vec2 c = witness_profile->location_at(30);
  const geo::Rect site{{c.x - 150, c.y - 150}, {c.x + 150, c.y + 150}};

  const auto report = service.investigate(site, 60);
  EXPECT_GT(report.viewmap.size(), 0u);
  EXPECT_FALSE(report.verification.site_members.empty());

  // The witness itself must be among the solicited VPs (it is legitimate
  // and inside the site).
  const auto pending = service.pending_video_requests({{witness->vp_id}});
  ASSERT_EQ(pending.size(), 1u);

  // Upload the matching recorded video; the cascaded hash must check out.
  const vp::RecordedVideo* video = nullptr;
  for (std::size_t i = 0; i < result.owned.size(); ++i)
    if (result.owned[i].vehicle == 3 && result.owned[i].unit_time == 60)
      video = &result.videos[i];
  ASSERT_NE(video, nullptr);
  EXPECT_TRUE(service.submit_video(witness->vp_id, *video));

  // Review + reward round trip.
  service.conclude_review(witness->vp_id, true, 2);
  const auto n = service.begin_reward_claim(witness->vp_id, witness->secret);
  ASSERT_TRUE(n.has_value());
  reward::RewardClient client(service.cash_public_key(), 7);
  const auto sigs = service.sign_reward_batch(witness->vp_id,
                                              client.prepare(static_cast<std::size_t>(*n)));
  ASSERT_TRUE(sigs.has_value());
  for (const auto& token : client.unblind_batch(*sigs))
    EXPECT_EQ(service.bank().redeem(token), reward::RedeemOutcome::kAccepted);
}

TEST_F(CityWorld, GuardVpsNeverMatchSolicitations) {
  // Guard VPs were deleted on the vehicle after upload (§5.1.2): even if
  // the system solicits one, no vehicle holds a matching video or secret.
  const auto& result = simulation();
  std::unordered_set<std::string> owned_ids;
  for (const auto& o : result.owned)
    owned_ids.insert(std::string(o.vp_id.bytes.begin(), o.vp_id.bytes.end()));
  for (const auto& rec : result.profiles) {
    const std::string key(rec.profile.vp_id().bytes.begin(),
                          rec.profile.vp_id().bytes.end());
    EXPECT_EQ(owned_ids.contains(key), !rec.guard);
  }
}

TEST_F(CityWorld, GuardsDegradeTrackingOnServiceDatabase) {
  const auto& result = simulation();
  const auto with_guards = track::evaluate_privacy(result, true);
  const auto without = track::evaluate_privacy(result, false);
  EXPECT_LE(with_guards.mean_success.back(), without.mean_success.back());
}

TEST_F(CityWorld, FakeChainIntoSiteIsRejectedByRealPipeline) {
  const auto& result = simulation();
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);

  for (const auto& rec : result.profiles) {
    if (!rec.guard && rec.creator == 0)
      service.register_trusted(rec.profile);
    else
      service.upload_channel().submit(rec.profile.serialize());
  }

  // Attacker: a colluding pair of fake VPs claiming positions near
  // vehicle 5 at minute 0, linked to each other but to no honest VP.
  const auto* v5 = [&]() -> const vp::ViewProfile* {
    for (const auto& rec : result.profiles)
      if (!rec.guard && rec.creator == 5 && rec.profile.unit_time() == 0)
        return &rec.profile;
    return nullptr;
  }();
  ASSERT_NE(v5, nullptr);
  const geo::Vec2 c = v5->location_at(30);
  Rng rng(999);
  auto f1 = attack::make_fake_profile(0, {c.x - 40, c.y}, {c.x + 20, c.y}, rng);
  auto f2 = attack::make_fake_profile(0, {c.x - 20, c.y + 10}, {c.x + 40, c.y + 10}, rng);
  attack::forge_link(f1, f2);
  const Id16 f1_id = f1.vp_id();
  const Id16 f2_id = f2.vp_id();
  service.upload_channel().submit(f1.serialize());
  service.upload_channel().submit(f2.serialize());
  service.ingest_uploads();

  const geo::Rect site{{c.x - 150, c.y - 150}, {c.x + 150, c.y + 150}};
  const auto report = service.investigate(site, 0);

  // Both fakes claimed in-site positions; neither may be solicited.
  EXPECT_FALSE(service.board().is_posted(f1_id, sys::RequestKind::kVideo));
  EXPECT_FALSE(service.board().is_posted(f2_id, sys::RequestKind::kVideo));
  // And at least the victim's real VP is solicited.
  EXPECT_TRUE(service.board().is_posted(v5->vp_id(), sys::RequestKind::kVideo));
}

TEST_F(CityWorld, ViewmapMembershipIsHigh) {
  // Fig. 22f: only a few percent of VPs end up isolated from viewmaps.
  const auto& result = simulation();
  sys::VpDatabase db;
  const vp::ViewProfile* trusted = nullptr;
  for (const auto& rec : result.profiles) {
    if (!rec.guard && rec.creator == 0 && rec.profile.unit_time() == 0) {
      db.upload(rec.profile, true);
      trusted = &rec.profile;
    } else {
      db.upload(rec.profile, false);
    }
  }
  ASSERT_NE(trusted, nullptr);
  const sys::ViewmapBuilder builder;
  const geo::Rect everywhere{{-1e5, -1e5}, {1e5, 1e5}};
  const auto map = builder.build(db.snapshot(), everywhere, 0);
  EXPECT_GT(map.size(), 10u);
  const double isolated =
      static_cast<double>(map.isolated_from_trusted()) / static_cast<double>(map.size());
  EXPECT_LT(isolated, 0.35);  // dense city minute: most VPs join the mesh
}

}  // namespace
}  // namespace viewmap
