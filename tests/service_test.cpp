// Tests: ViewMapService facade — upload path, investigation, solicitation,
// video validation, reward protocol (paper Fig. 2 pipeline).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "attack/fake_vp.h"
#include "reward/client.h"
#include "sim/simulator.h"
#include "system/investigation_server.h"
#include "system/service.h"

namespace viewmap::sys {
namespace {

/// A compact world: 4 vehicles in convoy on an open road (vehicle 0 acts
/// as the police car), with retained videos and secrets.
struct World {
  World() {
    sim::SimConfig cfg;
    cfg.seed = 5;
    cfg.vehicle_count = 0;  // explicit fleet below
    cfg.minutes = 1;
    cfg.guards_enabled = false;
    cfg.keep_videos = true;
    cfg.video_bytes_per_second = 32;

    road::CityMap open;
    open.bounds = {{0, -100}, {5000, 100}};
    std::vector<sim::VehicleMotion> fleet;
    for (int i = 0; i < 4; ++i)
      fleet.push_back(
          sim::VehicleMotion::scripted({{i * 60.0, 0}, {5000 + i * 60.0, 0}}, 15.0));
    sim::TrafficSimulator sim(std::move(open), cfg, std::move(fleet));
    result = sim.run();
  }

  [[nodiscard]] const sim::ProfileRecord& record_of(VehicleId v) const {
    for (const auto& rec : result.profiles)
      if (!rec.guard && rec.creator == v) return rec;
    throw std::logic_error("no record");
  }
  [[nodiscard]] const sim::OwnedVp& owned_of(VehicleId v) const {
    for (const auto& o : result.owned)
      if (o.vehicle == v) return o;
    throw std::logic_error("no owned");
  }
  [[nodiscard]] const vp::RecordedVideo& video_of(VehicleId v) const {
    for (std::size_t i = 0; i < result.owned.size(); ++i)
      if (result.owned[i].vehicle == v) return result.videos[i];
    throw std::logic_error("no video");
  }

  sim::SimResult result;
};

ServiceConfig test_cfg() {
  ServiceConfig cfg;
  cfg.rsa_bits = 1024;  // test speed
  return cfg;
}

TEST(Service, IngestAcceptsValidAndDropsGarbage) {
  World world;
  ViewMapService service(test_cfg());
  service.upload_channel().submit(world.record_of(1).profile.serialize());
  service.upload_channel().submit({1, 2, 3});  // malformed
  service.upload_channel().submit(world.record_of(2).profile.serialize());
  service.upload_channel().submit(world.record_of(2).profile.serialize());  // dup
  EXPECT_EQ(service.ingest_uploads(), 2u);
  EXPECT_EQ(service.database().size(), 2u);
}

TEST(Service, InvestigationSolicitsLegitimateSiteVps) {
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  for (VehicleId v = 1; v < 4; ++v)
    service.upload_channel().submit(world.record_of(v).profile.serialize());
  service.ingest_uploads();

  // Site around the convoy's first-minute stretch.
  const geo::Rect site{{0, -50}, {1200, 50}};
  const auto report = service.investigate(site, 0);

  EXPECT_EQ(report.viewmap.size(), 4u);
  EXPECT_EQ(report.verification.legitimate.size(), 4u);
  // Trusted VP's own video is not solicited.
  EXPECT_EQ(report.solicited.size(), 3u);
  for (const Id16& id : report.solicited)
    EXPECT_TRUE(service.board().is_posted(id, RequestKind::kVideo));
}

TEST(Service, BoardNeverRevealsSiteOrTime) {
  // Structural: the notice board API carries VP identifiers only.
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  service.upload_channel().submit(world.record_of(1).profile.serialize());
  service.ingest_uploads();
  const auto report = service.investigate({{0, -50}, {1200, 50}}, 0);
  const auto posted = service.board().posted(RequestKind::kVideo);
  for (const Id16& id : posted)
    EXPECT_EQ(sizeof(id), 16u);  // an opaque identifier, nothing else
}

TEST(Service, VideoSubmissionValidatesHashChain) {
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  service.upload_channel().submit(world.record_of(1).profile.serialize());
  service.ingest_uploads();
  (void)service.investigate({{0, -50}, {1200, 50}}, 0);

  const Id16 id = world.owned_of(1).vp_id;
  ASSERT_TRUE(service.board().is_posted(id, RequestKind::kVideo));

  // Wrong vehicle's video fails the cascaded-hash check.
  EXPECT_FALSE(service.submit_video(id, world.video_of(2)));
  // The right video passes and enters human review.
  EXPECT_TRUE(service.submit_video(id, world.video_of(1)));
  EXPECT_FALSE(service.board().is_posted(id, RequestKind::kVideo));
  ASSERT_EQ(service.review_queue().size(), 1u);
  EXPECT_EQ(service.review_queue()[0], id);
}

TEST(Service, UnsolicitedVideoRejected) {
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  service.upload_channel().submit(world.record_of(1).profile.serialize());
  service.ingest_uploads();
  // No investigation ⇒ nothing posted ⇒ uploads rejected outright.
  EXPECT_FALSE(service.submit_video(world.owned_of(1).vp_id, world.video_of(1)));
}

TEST(Service, PendingRequestsFilter) {
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  for (VehicleId v = 1; v < 4; ++v)
    service.upload_channel().submit(world.record_of(v).profile.serialize());
  service.ingest_uploads();
  (void)service.investigate({{0, -50}, {1200, 50}}, 0);

  const std::vector<Id16> mine{world.owned_of(2).vp_id};
  const auto pending = service.pending_video_requests(mine);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], mine[0]);
}

TEST(Service, RewardProtocolEndToEnd) {
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  service.upload_channel().submit(world.record_of(1).profile.serialize());
  service.ingest_uploads();
  (void)service.investigate({{0, -50}, {1200, 50}}, 0);

  const Id16 id = world.owned_of(1).vp_id;
  ASSERT_TRUE(service.submit_video(id, world.video_of(1)));
  service.conclude_review(id, /*approved=*/true, /*units=*/3);
  ASSERT_TRUE(service.board().is_posted(id, RequestKind::kReward));

  // Ownership proof: correct Q succeeds, wrong Q fails.
  vp::VpSecret wrong{};
  EXPECT_FALSE(service.begin_reward_claim(id, wrong).has_value());
  const auto granted = service.begin_reward_claim(id, world.owned_of(1).secret);
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(*granted, 3);

  // Blind-sign + unblind + redeem.
  reward::RewardClient client(service.cash_public_key(), 77);
  const auto blinded = client.prepare(static_cast<std::size_t>(*granted));
  const auto signatures = service.sign_reward_batch(id, blinded);
  ASSERT_TRUE(signatures.has_value());
  const auto cash = client.unblind_batch(*signatures);
  for (const auto& token : cash)
    EXPECT_EQ(service.bank().redeem(token), reward::RedeemOutcome::kAccepted);

  // Claim is consumed: no second batch.
  EXPECT_FALSE(service.sign_reward_batch(id, blinded).has_value());
  EXPECT_FALSE(service.board().is_posted(id, RequestKind::kReward));
}

TEST(Service, RejectedReviewGrantsNothing) {
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  service.upload_channel().submit(world.record_of(1).profile.serialize());
  service.ingest_uploads();
  (void)service.investigate({{0, -50}, {1200, 50}}, 0);
  const Id16 id = world.owned_of(1).vp_id;
  ASSERT_TRUE(service.submit_video(id, world.video_of(1)));
  service.conclude_review(id, /*approved=*/false, 0);
  EXPECT_FALSE(service.board().is_posted(id, RequestKind::kReward));
  EXPECT_FALSE(service.begin_reward_claim(id, world.owned_of(1).secret).has_value());
}

TEST(Service, FakeVpInSiteIsNotSolicited) {
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  for (VehicleId v = 1; v < 4; ++v)
    service.upload_channel().submit(world.record_of(v).profile.serialize());
  Rng rng(13);
  auto fake = attack::make_fake_profile(0, {500, 0}, {560, 0}, rng);
  const Id16 fake_id = fake.vp_id();
  service.upload_channel().submit(fake.serialize());
  EXPECT_EQ(service.ingest_uploads(), 4u);  // fake passes the *structural* screen

  const auto report = service.investigate({{0, -50}, {1200, 50}}, 0);
  EXPECT_EQ(report.verification.rejected.size(), 1u);
  EXPECT_FALSE(service.board().is_posted(fake_id, RequestKind::kVideo));
}

TEST(Service, MinutesAtTheEndsOfTimeNeitherOverflowNorStallTheServer) {
  // The minute loops once stepped past TimeSec's maximum (signed
  // overflow, then a walk of ~1.5e17 minutes) and computed a minute start
  // below its minimum. Both ends now finish or fail at once, and the
  // next request is served.
  World world;
  ViewMapService service(test_cfg());
  service.register_trusted(world.record_of(0).profile);
  for (VehicleId v = 1; v < 4; ++v)
    service.upload_channel().submit(world.record_of(v).profile.serialize());
  service.ingest_uploads();
  const geo::Rect site{{0, -50}, {1200, 50}};
  constexpr TimeSec kMax = std::numeric_limits<TimeSec>::max();
  constexpr TimeSec kMin = std::numeric_limits<TimeSec>::min();

  // The period's two minutes hold no VP: walked and empty.
  EXPECT_TRUE(service.investigate_period(site, kMax - 30, kMax).empty());
  EXPECT_THROW((void)service.investigate_period(site, kFirstUnitStart - 1, kFirstUnitStart),
               std::invalid_argument);
  EXPECT_NO_THROW((void)service.investigate_period(site, kFirstUnitStart, kFirstUnitStart + 1));
  EXPECT_EQ(service.investigate_period(site, 0, kUnitTimeSec).size(), 1u);
  EXPECT_TRUE(service.investigate_period(site, 30, 30).empty());  // touches no minute

  ServerConfig scfg;
  scfg.workers = 1;
  auto& server = service.start_server(scfg);
  auto last_minute = server.submit(site, kMax);
  ASSERT_TRUE(last_minute.valid());
  EXPECT_TRUE(last_minute.get().empty());
  auto before_first_minute = server.submit(site, kMin);
  ASSERT_TRUE(before_first_minute.valid());
  EXPECT_THROW(before_first_minute.get(), std::invalid_argument);
  const auto served = server.submit(site, 0).get();
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].viewmap.size(), 4u);
  EXPECT_EQ(server.stats().failed, 1u);
}

}  // namespace
}  // namespace viewmap::sys
