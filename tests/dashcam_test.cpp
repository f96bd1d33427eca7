// Tests: the Dashcam device abstraction — minute lifecycle, upload queue,
// guard amnesia, solicitation answering, end-to-end against the service.
#include <gtest/gtest.h>

#include "road/city.h"
#include "system/service.h"
#include "vp/dashcam.h"

namespace viewmap::vp {
namespace {

struct DashcamFixture : ::testing::Test {
  DashcamFixture()
      : city(make_city()), router(city.roads) {}

  static road::CityMap make_city() {
    Rng r(5);
    road::GridCityConfig cfg;
    cfg.extent_m = 1000;
    cfg.block_m = 200;
    cfg.building_fill = 0.0;
    return road::make_grid_city(cfg, r);
  }

  Dashcam make_cam(std::uint64_t seed, bool guards = true) {
    DashcamConfig cfg;
    cfg.video_seed = seed;
    cfg.guards_enabled = guards;
    return Dashcam(cfg, &router, Rng(seed));
  }

  /// Drives two cams side by side for `minutes` with mutual VD exchange.
  void drive_pair(Dashcam& a, Dashcam& b, int minutes) {
    for (TimeSec now = 1; now <= minutes * kUnitTimeSec; ++now) {
      // Seconds 1..60 of each minute map to monotone positions 0..59 so
      // trajectories stay physically plausible within a profile.
      const auto step = static_cast<double>((now - 1) % kUnitTimeSec);
      const geo::Vec2 pa{200.0 + step * 5.0, 200.0};
      const geo::Vec2 pb{230.0 + step * 5.0, 200.0};
      const auto vda = a.tick(now, pa);
      const auto vdb = b.tick(now, pb);
      a.receive(vdb);
      b.receive(vda);
    }
  }

  road::CityMap city;
  road::Router router;
};

TEST_F(DashcamFixture, OneVpPerMinutePlusGuards) {
  auto a = make_cam(1);
  auto b = make_cam(2);
  drive_pair(a, b, 2);
  EXPECT_EQ(a.minutes_recorded(), 2u);
  const auto uploads = a.drain_uploads();
  // 2 actual VPs + 2 guards (⌈0.1·1⌉ per minute with one neighbor).
  EXPECT_EQ(uploads.size(), 4u);
  for (const auto& payload : uploads) {
    const auto profile = ViewProfile::parse(payload);
    EXPECT_TRUE(well_formed(profile));
  }
  EXPECT_TRUE(a.drain_uploads().empty());  // queue drained
}

TEST_F(DashcamFixture, GuardsAreForgottenActualsAnswerable) {
  auto a = make_cam(3);
  auto b = make_cam(4);
  drive_pair(a, b, 1);
  const auto uploads = a.drain_uploads();
  ASSERT_EQ(uploads.size(), 2u);

  const auto answerable = a.answerable_vp_ids();
  ASSERT_EQ(answerable.size(), 1u);
  std::size_t answerable_found = 0;
  for (const auto& payload : uploads) {
    const auto profile = ViewProfile::parse(payload);
    if (profile.vp_id() == answerable[0]) {
      ++answerable_found;
    } else {
      // The guard: device must hold neither secret nor video for it.
      EXPECT_EQ(a.secret_of(profile.vp_id()), nullptr);
      EXPECT_EQ(a.video_of(profile.vp_id()), nullptr);
    }
  }
  EXPECT_EQ(answerable_found, 1u);
  EXPECT_NE(a.secret_of(answerable[0]), nullptr);
  EXPECT_NE(a.video_of(answerable[0]), nullptr);
}

TEST_F(DashcamFixture, SecretMatchesVpId) {
  auto a = make_cam(5, /*guards=*/false);
  auto b = make_cam(6, false);
  drive_pair(a, b, 1);
  const auto ids = a.answerable_vp_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(a.secret_of(ids[0])->vp_id(), ids[0]);
}

TEST_F(DashcamFixture, RingBufferForgetsOldVideos) {
  DashcamConfig cfg;
  cfg.video_seed = 7;
  cfg.guards_enabled = false;
  cfg.storage_minutes = 2;
  Dashcam a(cfg, &router, Rng(7));
  Dashcam b = make_cam(8, false);
  drive_pair(a, b, 4);
  EXPECT_EQ(a.minutes_recorded(), 4u);
  // Secrets persist for all 4 VPs, but only the last 2 videos survive.
  std::size_t with_video = 0;
  for (const auto& id : a.answerable_vp_ids())
    with_video += a.video_of(id) != nullptr ? 1u : 0u;
  EXPECT_EQ(with_video, 2u);
}

TEST_F(DashcamFixture, EndToEndWithService) {
  auto witness = make_cam(9);
  auto passerby = make_cam(10);
  drive_pair(witness, passerby, 1);

  // Passerby doubles as the authority vehicle for this test.
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  for (auto& payload : passerby.drain_uploads()) {
    const auto profile = ViewProfile::parse(payload);
    if (passerby.secret_of(profile.vp_id()) != nullptr)
      service.register_trusted(profile);  // its actual VP
    else
      service.upload_channel().submit(std::move(payload));
  }
  for (auto& payload : witness.drain_uploads())
    service.upload_channel().submit(std::move(payload));
  service.ingest_uploads();

  const geo::Rect site{{150, 150}, {600, 250}};
  const auto report = service.investigate(site, 0);
  EXPECT_GE(report.solicited.size(), 1u);

  // The witness polls the board and answers with its video.
  const auto mine = witness.answerable_vp_ids();
  const auto pending = service.pending_video_requests(mine);
  ASSERT_EQ(pending.size(), 1u);
  const auto* video = witness.video_of(pending[0]);
  ASSERT_NE(video, nullptr);
  EXPECT_TRUE(service.submit_video(pending[0], *video));

  // Reward claim with the retained secret.
  service.conclude_review(pending[0], true, 1);
  const auto granted =
      service.begin_reward_claim(pending[0], *witness.secret_of(pending[0]));
  EXPECT_TRUE(granted.has_value());
}

TEST_F(DashcamFixture, NoRouterMeansNoGuards) {
  DashcamConfig cfg;
  cfg.video_seed = 11;
  cfg.guards_enabled = true;
  Dashcam a(cfg, /*router=*/nullptr, Rng(11));
  Dashcam b = make_cam(12, false);
  drive_pair(a, b, 1);
  EXPECT_EQ(a.drain_uploads().size(), 1u);  // actual VP only
}

TEST_F(DashcamFixture, MidMinuteStartYieldsNoPartialVp) {
  auto a = make_cam(13, false);
  // Start at second 30 of a minute: the partial minute produces no VP.
  for (TimeSec now = 31; now <= 2 * kUnitTimeSec; ++now)
    (void)a.tick(now, {100, 100});
  EXPECT_EQ(a.minutes_recorded(), 1u);  // only the complete minute
  EXPECT_EQ(a.drain_uploads().size(), 1u);
}

}  // namespace
}  // namespace viewmap::vp
