// Guard-VP indistinguishability (paper §5.1.2: "In an effort to make
// guard VPs indistinguishable from actual VPs…").
//
// The privacy argument collapses if the system can classify uploads as
// guard vs. actual. These tests check the observable features available
// to the system — structural validity, speed statistics, hash-field
// byte distributions, Bloom fill — and assert that guards fall inside the
// actual-VP feature envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "sim/simulator.h"
#include "system/service.h"
#include "system/viewmap_graph.h"

namespace viewmap {
namespace {

struct Features {
  double mean_speed = 0.0;       ///< m/s between consecutive VDs
  double speed_stddev = 0.0;
  double hash_byte_mean = 0.0;   ///< ≈127.5 for uniformly random bytes
  double bloom_fill = 0.0;
};

Features extract(const vp::ViewProfile& profile) {
  Features f;
  RunningStats speed;
  RunningStats hash_bytes;
  const auto digests = profile.digests();
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (i > 0) {
      const double dx = digests[i].loc_x - digests[i - 1].loc_x;
      const double dy = digests[i].loc_y - digests[i - 1].loc_y;
      speed.add(std::hypot(dx, dy));
    }
    for (auto b : digests[i].hash.bytes) hash_bytes.add(b);
  }
  f.mean_speed = speed.mean();
  f.speed_stddev = speed.stddev();
  f.hash_byte_mean = hash_bytes.mean();
  f.bloom_fill = profile.neighbor_bloom().fill_ratio();
  return f;
}

struct IndistinguishabilityFixture : ::testing::Test {
  static sim::SimResult& world() {
    static sim::SimResult result = [] {
      Rng city_rng(61);
      road::GridCityConfig ccfg;
      ccfg.extent_m = 1500;
      ccfg.block_m = 250;
      ccfg.building_fill = 0.4;
      auto city = road::make_grid_city(ccfg, city_rng);
      sim::SimConfig cfg;
      cfg.seed = 62;
      cfg.vehicle_count = 25;
      cfg.minutes = 3;
      cfg.video_bytes_per_second = 16;
      sim::TrafficSimulator sim(std::move(city), cfg);
      return sim.run();
    }();
    return result;
  }
};

TEST_F(IndistinguishabilityFixture, GuardsPassEveryStructuralCheckActualsPass) {
  std::size_t guards = 0;
  for (const auto& rec : world().profiles) {
    EXPECT_TRUE(vp::well_formed(rec.profile));
    guards += rec.guard;
  }
  ASSERT_GT(guards, 0u);
}

TEST_F(IndistinguishabilityFixture, GuardSpeedsInsideActualEnvelope) {
  RunningStats actual_speed;
  for (const auto& rec : world().profiles)
    if (!rec.guard) actual_speed.add(extract(rec.profile).mean_speed);

  // Guards must not be outliers: their mean per-second displacement lies
  // within the span actual traffic produces (plus slack for routes that
  // cut across the grid).
  for (const auto& rec : world().profiles) {
    if (!rec.guard) continue;
    const double v = extract(rec.profile).mean_speed;
    EXPECT_LE(v, actual_speed.max() * 1.5 + 5.0);
    EXPECT_GE(v, 0.0);
  }
}

TEST_F(IndistinguishabilityFixture, HashFieldsLookUniformInBothPopulations) {
  // Actual hashes are SHA-256 truncations; guard hashes are RNG bytes.
  // Both must look uniform (mean byte ≈ 127.5) — a skew in either would
  // be a classifier feature.
  for (const auto& rec : world().profiles) {
    const double mean = extract(rec.profile).hash_byte_mean;
    EXPECT_NEAR(mean, 127.5, 8.0) << (rec.guard ? "guard" : "actual");
  }
}

TEST_F(IndistinguishabilityFixture, BloomFillOverlapsBetweenPopulations) {
  // Every guard is mutually linked with its creator's actual VP, so both
  // populations carry non-empty, modest Bloom fills. Disjoint fill ranges
  // would distinguish them; overlapping ranges are required.
  double actual_min = 1.0, actual_max = 0.0;
  double guard_min = 1.0, guard_max = 0.0;
  for (const auto& rec : world().profiles) {
    const double fill = extract(rec.profile).bloom_fill;
    if (rec.guard) {
      guard_min = std::min(guard_min, fill);
      guard_max = std::max(guard_max, fill);
    } else {
      actual_min = std::min(actual_min, fill);
      actual_max = std::max(actual_max, fill);
    }
    EXPECT_GT(fill, 0.0);  // nobody uploads an empty neighborhood here
  }
  EXPECT_LE(actual_min, guard_max);
  EXPECT_LE(guard_min, actual_max);
}

TEST_F(IndistinguishabilityFixture, GuardsAreViewlinkedToTheirCreators) {
  // From the system's perspective a guard arrives as a normally-linked
  // member of the mesh, not as an isolated oddity.
  sys::VpDatabase db;
  for (const auto& rec : world().profiles) db.upload(rec.profile, false);
  const sys::ViewmapBuilder builder;
  for (const auto& rec : world().profiles) {
    if (!rec.guard) continue;
    // Find the creator's actual VP for the same minute.
    for (const auto& other : world().profiles) {
      if (other.guard || other.creator != rec.creator ||
          other.profile.unit_time() != rec.profile.unit_time())
        continue;
      EXPECT_TRUE(builder.viewlinked(rec.profile, other.profile));
    }
  }
}

}  // namespace
}  // namespace viewmap
