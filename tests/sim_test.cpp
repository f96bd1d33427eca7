// Unit tests: mobility, traffic simulator, staged scenarios.
#include <gtest/gtest.h>

#include "sim/mobility.h"
#include "sim/scenarios.h"
#include "sim/simulator.h"

namespace viewmap::sim {
namespace {

TEST(Mobility, ScriptedFollowsPathAtSpeed) {
  auto m = VehicleMotion::scripted({{0, 0}, {100, 0}}, 10.0);
  Rng rng(1);
  m.advance(1.0, rng);
  EXPECT_NEAR(m.position().x, 10.0, 1e-9);
  EXPECT_NEAR(m.heading().x, 1.0, 1e-9);
  for (int i = 0; i < 20; ++i) m.advance(1.0, rng);
  EXPECT_NEAR(m.position().x, 100.0, 1e-9);  // holds at the end
}

TEST(Mobility, ScriptedLoopWraps) {
  auto m = VehicleMotion::scripted({{0, 0}, {30, 0}}, 10.0, /*loop=*/true);
  Rng rng(2);
  for (int i = 0; i < 4; ++i) m.advance(1.0, rng);  // 40 m along a 30 m path
  EXPECT_NEAR(m.position().x, 10.0, 1e-9);
}

TEST(Mobility, StationaryNeverMoves) {
  auto m = VehicleMotion::stationary({5, 6});
  Rng rng(3);
  m.advance(10.0, rng);
  EXPECT_EQ(m.position(), (geo::Vec2{5, 6}));
  EXPECT_EQ(m.heading(), (geo::Vec2{0, 0}));
}

TEST(Mobility, RandomTripsStayOnMapAndKeepMoving) {
  Rng city_rng(4);
  road::GridCityConfig cfg;
  cfg.extent_m = 1000;
  cfg.block_m = 200;
  const auto city = road::make_grid_city(cfg, city_rng);
  Rng rng(5);
  auto m = VehicleMotion::random_trips(city.roads, 15.0, rng);

  geo::Vec2 prev = m.position();
  double moved = 0;
  for (int s = 0; s < 300; ++s) {
    m.advance(1.0, rng);
    const geo::Vec2 p = m.position();
    EXPECT_GE(p.x, -1e-6);
    EXPECT_LE(p.x, 1000 + 1e-6);
    EXPECT_GE(p.y, -1e-6);
    EXPECT_LE(p.y, 1000 + 1e-6);
    moved += geo::distance(prev, p);
    prev = p;
  }
  // 15 m/s for 300 s ⇒ ~4.5 km driven (modulo trip re-planning instants).
  EXPECT_GT(moved, 3000.0);
}

SimConfig small_cfg() {
  SimConfig cfg;
  cfg.seed = 7;
  cfg.vehicle_count = 12;
  cfg.minutes = 2;
  cfg.video_bytes_per_second = 16;
  return cfg;
}

road::CityMap small_city(std::uint64_t seed = 8) {
  Rng rng(seed);
  road::GridCityConfig cfg;
  cfg.extent_m = 800;
  cfg.block_m = 200;
  cfg.building_fill = 0.5;
  return road::make_grid_city(cfg, rng);
}

TEST(Simulator, ProducesOneActualVpPerVehicleMinute) {
  TrafficSimulator sim(small_city(), small_cfg());
  const auto result = sim.run();
  std::size_t actual = 0, guards = 0;
  for (const auto& rec : result.profiles) (rec.guard ? guards : actual) += 1;
  EXPECT_EQ(actual, 12u * 2u);
  EXPECT_EQ(result.owned.size(), 12u * 2u);
  // In a dense 800 m map every vehicle has neighbors, so guards exist.
  EXPECT_GT(guards, 0u);
}

TEST(Simulator, ProfilesPassUploadScreen) {
  TrafficSimulator sim(small_city(), small_cfg());
  const auto result = sim.run();
  for (const auto& rec : result.profiles)
    EXPECT_TRUE(vp::well_formed(rec.profile)) << (rec.guard ? "guard" : "actual");
}

TEST(Simulator, DeterministicAcrossRuns) {
  TrafficSimulator a(small_city(42), small_cfg());
  TrafficSimulator b(small_city(42), small_cfg());
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.profiles.size(), rb.profiles.size());
  for (std::size_t i = 0; i < ra.profiles.size(); ++i)
    EXPECT_EQ(ra.profiles[i].profile, rb.profiles[i].profile);
  EXPECT_EQ(ra.vd_deliveries, rb.vd_deliveries);
}

TEST(Simulator, GuardsDisabledMeansNoGuards) {
  auto cfg = small_cfg();
  cfg.guards_enabled = false;
  TrafficSimulator sim(small_city(), cfg);
  const auto result = sim.run();
  for (const auto& rec : result.profiles) EXPECT_FALSE(rec.guard);
}

TEST(Simulator, KeepVideosRetainsValidatableRecordings) {
  auto cfg = small_cfg();
  cfg.keep_videos = true;
  cfg.vehicle_count = 3;
  TrafficSimulator sim(small_city(), cfg);
  const auto result = sim.run();
  ASSERT_EQ(result.videos.size(), result.owned.size());
  // Videos are parallel to `owned` and hash-chain-consistent with the
  // corresponding actual profile (checked end-to-end in service_test).
  for (std::size_t i = 0; i < result.videos.size(); ++i)
    EXPECT_EQ(result.videos[i].start_time, result.owned[i].unit_time);
}

TEST(Simulator, ContactStatsAccumulate) {
  TrafficSimulator sim(small_city(), small_cfg());
  const auto result = sim.run();
  EXPECT_GT(result.contact_seconds.count(), 0u);
  EXPECT_GT(result.contact_seconds.mean(), 0.0);
  EXPECT_GT(result.vd_deliveries, 0u);
  EXPECT_EQ(result.vd_broadcasts, 12u * 2u * 60u);
}

TEST(Simulator, TwoVehicleConvoyLinksEveryMinute) {
  SimConfig cfg;
  cfg.seed = 9;
  cfg.minutes = 3;
  cfg.guards_enabled = false;
  cfg.collect_pair_stats = true;
  cfg.video_bytes_per_second = 16;

  road::CityMap open;
  open.bounds = {{0, -100}, {10000, 100}};
  std::vector<VehicleMotion> fleet;
  fleet.push_back(VehicleMotion::scripted({{0, 0}, {10000, 0}}, 15.0));
  fleet.push_back(VehicleMotion::scripted({{80, 0}, {10080, 0}}, 15.0));

  TrafficSimulator sim(std::move(open), cfg, std::move(fleet));
  const auto result = sim.run();
  ASSERT_EQ(result.pair_minutes.size(), 3u);
  for (const auto& obs : result.pair_minutes) {
    EXPECT_TRUE(obs.vp_linked);  // open road, 80 m: always linked
    EXPECT_TRUE(obs.los_ever);
    EXPECT_TRUE(obs.on_video);   // trailing car faces the leading one
  }
}

TEST(Simulator, ParkedFractionProducesStationaryWitnesses) {
  auto cfg = small_cfg();
  cfg.parked_fraction = 0.5;
  cfg.vehicle_count = 20;
  TrafficSimulator sim(small_city(77), cfg);
  const auto result = sim.run();
  // Parked recorders are full protocol participants: every vehicle still
  // yields one actual VP per minute…
  std::size_t actual = 0;
  for (const auto& rec : result.profiles) actual += rec.guard ? 0u : 1u;
  EXPECT_EQ(actual, 20u * 2u);
  // …and some of them never moved over the whole run.
  std::size_t stationary = 0;
  for (const auto& rec : result.profiles) {
    if (rec.guard) continue;
    if (geo::distance(rec.profile.first_location(), rec.profile.last_location()) < 1e-6)
      ++stationary;
  }
  EXPECT_GT(stationary, 0u);
  EXPECT_LT(stationary, actual);  // and some drove
}

TEST(Scenarios, AllFourteenTable2RowsPresent) {
  const auto all = table2_scenarios(1);
  ASSERT_EQ(all.size(), 14u);
  EXPECT_EQ(all[0].name, "Open road");
  EXPECT_EQ(all[13].name, "Parking structure");
  for (const auto& s : all) EXPECT_EQ(s.fleet.size(), 2u);
}

TEST(Scenarios, LosAndNlosExtremesBehave) {
  // Spot-check the two extreme rows; the full table is a bench.
  auto all = table2_scenarios(2);
  const auto open = run_staged(std::move(all[0]), 5, 11);
  EXPECT_GT(open.vp_linkage_ratio, 0.95);
  EXPECT_GT(open.on_video_ratio, 0.95);

  const auto building = run_staged(std::move(all[1]), 5, 12);
  EXPECT_LT(building.vp_linkage_ratio, 0.1);
  EXPECT_LT(building.on_video_ratio, 0.01);
}

TEST(Scenarios, ConditionNames) {
  EXPECT_STREQ(to_string(SightCondition::kLos), "LOS");
  EXPECT_STREQ(to_string(SightCondition::kNlos), "NLOS");
  EXPECT_STREQ(to_string(SightCondition::kMixed), "LOS/NLOS");
}

}  // namespace
}  // namespace viewmap::sim
