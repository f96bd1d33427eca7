// Unit tests: guard VP fabrication and the §6.2.2 coverage formula.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "road/city.h"
#include "vp/guard.h"
#include "vp/video.h"

namespace viewmap::vp {
namespace {

struct GuardFixture : ::testing::Test {
  GuardFixture() : rng(1), city(make_city()), router(city.roads), factory(router) {}

  static road::CityMap make_city() {
    Rng r(99);
    road::GridCityConfig cfg;
    cfg.extent_m = 1000;
    cfg.block_m = 200;
    cfg.building_fill = 0.0;  // roads only
    return road::make_grid_city(cfg, r);
  }

  /// Builds an actual VP for a vehicle driving east, that heard one
  /// neighbor driving nearby.
  VpGenerationResult make_actual_with_neighbor(geo::Vec2 own_start,
                                               geo::Vec2 neighbor_start) {
    VpBuilder own(0, rng);
    VpBuilder nbr(0, rng);
    SyntheticVideoSource source(5, 32);
    std::vector<std::uint8_t> chunk;
    for (int s = 0; s < kDigestsPerProfile; ++s) {
      source.generate_chunk(0, s, chunk);
      (void)own.tick(own_start + geo::Vec2{s * 8.0, 0}, chunk);
      const auto vd = nbr.tick(neighbor_start + geo::Vec2{s * 8.0, 0}, chunk);
      own.accept_neighbor(vd, own_start + geo::Vec2{s * 8.0, 0});
    }
    (void)nbr.finish();
    return own.finish();
  }

  Rng rng;
  road::CityMap city;
  road::Router router;
  GuardVpFactory factory;
};

TEST(GuardMath, GuardCount) {
  EXPECT_EQ(guard_count(0.1, 0), 0u);
  EXPECT_EQ(guard_count(0.1, 1), 1u);   // ⌈0.1⌉
  EXPECT_EQ(guard_count(0.1, 10), 1u);
  EXPECT_EQ(guard_count(0.1, 11), 2u);
  EXPECT_EQ(guard_count(0.5, 7), 4u);
}

TEST(GuardMath, UncoveredProbabilityPaperOperatingPoint) {
  // §6.2.2: α = 0.1 drives P_t below 0.01 within 5 minutes of driving.
  // The formula needs a moderately dense neighborhood (m ≈ 50) — in
  // sparse traffic coverage takes longer, as Fig. 10/11 show.
  EXPECT_LT(uncovered_probability(0.1, 50, 5), 0.01);
  // Less cover with smaller α.
  EXPECT_GT(uncovered_probability(0.05, 50, 5), uncovered_probability(0.1, 50, 5));
  // More minutes always help.
  EXPECT_LT(uncovered_probability(0.1, 50, 10), uncovered_probability(0.1, 50, 5));
}

TEST_F(GuardFixture, GuardStartsAtSeedAndEndsAtOwner) {
  auto gen = make_actual_with_neighbor({100, 200}, {100, 240});
  ASSERT_EQ(gen.neighbors.size(), 1u);

  auto guard = factory.make_guard(gen.neighbors[0], gen.profile.last_location(), 0, rng);
  ASSERT_TRUE(guard.has_value());

  const geo::Vec2 seed_start = gen.neighbors[0].advertised_start();
  EXPECT_NEAR(guard->first_location().x, seed_start.x, 1.0);
  EXPECT_NEAR(guard->first_location().y, seed_start.y, 1.0);
  const geo::Vec2 own_end = gen.profile.last_location();
  EXPECT_NEAR(guard->last_location().x, own_end.x, 1.0);
  EXPECT_NEAR(guard->last_location().y, own_end.y, 1.0);
}

TEST_F(GuardFixture, GuardIsStructurallyIndistinguishable) {
  auto gen = make_actual_with_neighbor({100, 200}, {100, 240});
  auto guard = factory.make_guard(gen.neighbors[0], gen.profile.last_location(), 0, rng);
  ASSERT_TRUE(guard.has_value());
  // The system's upload screen must accept guards like actual VPs —
  // indistinguishability is the whole point (§5.1.2).
  EXPECT_TRUE(well_formed(*guard));
  EXPECT_EQ(guard->digests().size(), static_cast<std::size_t>(kDigestsPerProfile));
  EXPECT_EQ(guard->unit_time(), 0);
}

TEST_F(GuardFixture, MakeGuardsLinksMutually) {
  auto gen = make_actual_with_neighbor({100, 200}, {100, 240});
  auto guards = factory.make_guards_for(gen.profile, gen.neighbors, 0, rng);
  ASSERT_EQ(guards.size(), 1u);  // ⌈0.1·1⌉ = 1
  EXPECT_TRUE(gen.profile.heard(guards[0]));
  EXPECT_TRUE(guards[0].heard(gen.profile));
}

TEST_F(GuardFixture, NoNeighborsNoGuards) {
  VpBuilder own(0, rng);
  SyntheticVideoSource source(6, 32);
  std::vector<std::uint8_t> chunk;
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    source.generate_chunk(0, s, chunk);
    (void)own.tick({100 + s * 8.0, 200}, chunk);
  }
  auto gen = own.finish();
  auto guards = factory.make_guards_for(gen.profile, gen.neighbors, 0, rng);
  EXPECT_TRUE(guards.empty());
}

TEST_F(GuardFixture, GuardSpeedIsPlausible) {
  auto gen = make_actual_with_neighbor({100, 200}, {300, 400});
  ASSERT_EQ(gen.neighbors.size(), 1u);
  auto guard = factory.make_guard(gen.neighbors[0], gen.profile.last_location(), 0, rng);
  ASSERT_TRUE(guard.has_value());
  const auto digests = guard->digests();
  for (std::size_t i = 1; i < digests.size(); ++i) {
    const double dx = digests[i].loc_x - digests[i - 1].loc_x;
    const double dy = digests[i].loc_y - digests[i - 1].loc_y;
    EXPECT_LE(std::hypot(dx, dy), vp::kMaxSpeedMps);
  }
}

TEST_F(GuardFixture, AlphaScalesGuardVolume) {
  // Fig. 9: VPs created per vehicle-minute = 1 + ⌈α·m⌉.
  for (double alpha : {0.1, 0.3, 0.5}) {
    for (std::size_t m : {20u, 100u, 200u}) {
      const std::size_t total = 1 + guard_count(alpha, m);
      EXPECT_EQ(total, 1 + static_cast<std::size_t>(std::ceil(alpha * static_cast<double>(m))));
    }
  }
}

}  // namespace
}  // namespace viewmap::vp
