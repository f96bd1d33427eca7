// Unit tests: synthetic video, ViewProfile, VpBuilder state machine.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "vp/video.h"
#include "vp/view_profile.h"
#include "vp/vp_builder.h"

namespace viewmap::vp {
namespace {

/// Drives one builder through a full minute along a straight path.
VpGenerationResult build_profile(TimeSec unit, geo::Vec2 start, geo::Vec2 step,
                                 Rng& rng, std::uint64_t bps = 64,
                                 std::uint64_t video_seed = 9) {
  VpBuilder builder(unit, rng);
  SyntheticVideoSource source(video_seed, bps);
  std::vector<std::uint8_t> chunk;
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    source.generate_chunk(unit, s, chunk);
    (void)builder.tick(start + step * static_cast<double>(s), chunk);
  }
  return builder.finish();
}

TEST(Video, ChunksDeterministic) {
  const SyntheticVideoSource a(42, 128), b(42, 128), c(43, 128);
  std::vector<std::uint8_t> ca, cb, cc;
  a.generate_chunk(60, 5, ca);
  b.generate_chunk(60, 5, cb);
  c.generate_chunk(60, 5, cc);
  EXPECT_EQ(ca, cb);
  EXPECT_NE(ca, cc);
  a.generate_chunk(120, 5, cb);
  EXPECT_NE(ca, cb);  // different minute
}

TEST(Video, RecordMinuteMatchesChunks) {
  const SyntheticVideoSource src(7, 100);
  const RecordedVideo video = src.record_minute(180);
  EXPECT_EQ(video.size(), 6000u);
  ASSERT_EQ(video.chunk_offsets.size(), 61u);
  std::vector<std::uint8_t> chunk;
  src.generate_chunk(180, 30, chunk);
  const auto got = video.chunk(30);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), chunk.begin(), chunk.end()));
}

TEST(Video, StorageRingEvictsOldest) {
  DashcamStorage storage(3);
  SyntheticVideoSource src(1, 16);
  for (TimeSec t : {0, 60, 120, 180}) storage.store(src.record_minute(t));
  EXPECT_EQ(storage.size(), 3u);
  EXPECT_EQ(storage.find(0), nullptr);  // §2: oldest recorded over
  EXPECT_NE(storage.find(60), nullptr);
  EXPECT_NE(storage.find(180), nullptr);
  EXPECT_EQ(storage.oldest_minute(), std::optional<TimeSec>(60));
}

TEST(ViewProfile, StorageOverheadMatchesPaper) {
  // §6.1: 60×72 B of VDs + 256 B Bloom + 8 B secret = 4584 B per VP.
  EXPECT_EQ(kVpWireSize, 60u * 72u + 256u);
  EXPECT_EQ(kVpStorageBytes, 4584u);
}

TEST(ViewProfile, BuilderProducesWellFormedProfile) {
  Rng rng(1);
  auto gen = build_profile(120, {0, 0}, {10, 0}, rng);
  const ViewProfile& p = gen.profile;
  EXPECT_EQ(p.digests().size(), static_cast<std::size_t>(kDigestsPerProfile));
  EXPECT_EQ(p.start_time(), 121);
  EXPECT_EQ(p.end_time(), 180);
  EXPECT_EQ(p.unit_time(), 120);
  EXPECT_EQ(p.vp_id(), gen.secret.vp_id());
  EXPECT_TRUE(well_formed(p));
}

TEST(ViewProfile, SerializationRoundTrip) {
  Rng rng(2);
  auto gen = build_profile(0, {5, 5}, {3, 4}, rng);
  const auto payload = gen.profile.serialize();
  EXPECT_EQ(payload.size(), kVpWireSize);
  const ViewProfile parsed = ViewProfile::parse(payload);
  EXPECT_EQ(parsed, gen.profile);
}

TEST(ViewProfile, VisitsAndLocations) {
  Rng rng(3);
  auto gen = build_profile(0, {0, 0}, {10, 0}, rng);
  EXPECT_EQ(gen.profile.first_location(), (geo::Vec2{0, 0}));
  EXPECT_EQ(gen.profile.last_location(), (geo::Vec2{590, 0}));
  EXPECT_TRUE(gen.profile.visits({{100, -10}, {200, 10}}));
  EXPECT_FALSE(gen.profile.visits({{100, 50}, {200, 100}}));
}

TEST(ViewProfile, EverWithinUsesTimeAlignment) {
  Rng rng(4);
  auto a = build_profile(0, {0, 0}, {10, 0}, rng);
  auto b = build_profile(0, {0, 300}, {10, 0}, rng);   // parallel, 300 m apart
  auto c = build_profile(0, {0, 5000}, {10, 0}, rng);  // far away
  EXPECT_TRUE(a.profile.ever_within(b.profile, 350));
  EXPECT_FALSE(a.profile.ever_within(b.profile, 200));
  EXPECT_FALSE(a.profile.ever_within(c.profile, 400));
}

TEST(VpBuilder, RequiresUnitBoundaryAndExactly60Ticks) {
  Rng rng(5);
  EXPECT_THROW(VpBuilder(61, rng), std::invalid_argument);

  VpBuilder builder(60, rng);
  std::vector<std::uint8_t> chunk(8);
  EXPECT_THROW((void)builder.finish(), std::logic_error);  // too early
  for (int s = 0; s < kDigestsPerProfile; ++s) (void)builder.tick({0, 0}, chunk);
  EXPECT_THROW((void)builder.tick({0, 0}, chunk), std::logic_error);  // too many
}

TEST(VpBuilder, NeighborFirstAndLastVdKept) {
  Rng rng(6);
  VpBuilder builder(0, rng);
  VpBuilder other(0, rng);
  std::vector<std::uint8_t> chunk(8);

  dsrc::ViewDigest first_vd, last_vd;
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    (void)builder.tick({0, 0}, chunk);
    const auto vd = other.tick({50, 0}, chunk);
    if (s == 0 || s == 20 || s == 59) {
      EXPECT_TRUE(builder.accept_neighbor(vd, {0, 0}));
      if (s == 0) first_vd = vd;
      if (s == 59) last_vd = vd;
    }
  }
  EXPECT_EQ(builder.neighbor_count(), 1u);
  auto gen = builder.finish();
  ASSERT_EQ(gen.neighbors.size(), 1u);
  EXPECT_EQ(gen.neighbors[0].first, first_vd);
  ASSERT_TRUE(gen.neighbors[0].last.has_value());
  EXPECT_EQ(*gen.neighbors[0].last, last_vd);
  // Bloom contains first and last, not necessarily the middle VD.
  EXPECT_TRUE(gen.profile.neighbor_bloom().maybe_contains(first_vd.serialize()));
  EXPECT_TRUE(gen.profile.neighbor_bloom().maybe_contains(last_vd.serialize()));
}

TEST(VpBuilder, RejectsImplausibleVds) {
  Rng rng(7);
  VpBuilder builder(0, rng);
  std::vector<std::uint8_t> chunk(8);
  (void)builder.tick({0, 0}, chunk);

  dsrc::ViewDigest vd;
  vd.vp_id.bytes[0] = 9;
  vd.time = 1;
  vd.loc_x = 10000.0f;  // way outside DSRC radius
  vd.loc_y = 0.0f;
  EXPECT_FALSE(builder.accept_neighbor(vd, {0, 0}));

  vd.loc_x = 50.0f;
  vd.time = 500;  // stale timestamp
  EXPECT_FALSE(builder.accept_neighbor(vd, {0, 0}));

  vd.time = 1;  // now acceptable
  EXPECT_TRUE(builder.accept_neighbor(vd, {0, 0}));
}

TEST(VpBuilder, IgnoresOwnEcho) {
  Rng rng(8);
  VpBuilder builder(0, rng);
  std::vector<std::uint8_t> chunk(8);
  const auto own = builder.tick({0, 0}, chunk);
  EXPECT_FALSE(builder.accept_neighbor(own, {0, 0}));
  EXPECT_EQ(builder.neighbor_count(), 0u);
}

TEST(VpBuilder, EnforcesNeighborCap) {
  Rng rng(9);
  VpBuilder builder(0, rng);
  std::vector<std::uint8_t> chunk(8);
  (void)builder.tick({0, 0}, chunk);

  for (std::size_t i = 0; i < kMaxNeighbors + 50; ++i) {
    dsrc::ViewDigest vd;
    vd.time = 1;
    vd.loc_x = 10.0f;
    vd.second = 1;
    Rng id_rng(i + 1000);
    id_rng.fill_bytes(vd.vp_id.bytes);
    builder.accept_neighbor(vd, {0, 0});
  }
  EXPECT_EQ(builder.neighbor_count(), kMaxNeighbors);  // §6.3.2 fn.10
}

TEST(VpBuilder, TwoVehiclesFormTwoWayLink) {
  Rng rng(10);
  VpBuilder a(0, rng), b(0, rng);
  SyntheticVideoSource sa(1, 32), sb(2, 32);
  std::vector<std::uint8_t> chunk;
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    sa.generate_chunk(0, s, chunk);
    const auto vda = a.tick({s * 5.0, 0}, chunk);
    sb.generate_chunk(0, s, chunk);
    const auto vdb = b.tick({s * 5.0, 30}, chunk);
    EXPECT_TRUE(a.accept_neighbor(vdb, {s * 5.0, 0}));
    EXPECT_TRUE(b.accept_neighbor(vda, {s * 5.0, 30}));
  }
  auto ga = a.finish();
  auto gb = b.finish();
  EXPECT_TRUE(ga.profile.heard(gb.profile));
  EXPECT_TRUE(gb.profile.heard(ga.profile));
  EXPECT_TRUE(ga.profile.ever_within(gb.profile, 400));
}

TEST(WellFormed, RejectsTeleportingProfile) {
  Rng rng(11);
  auto gen = build_profile(0, {0, 0}, {10, 0}, rng);
  auto digests =
      std::vector<dsrc::ViewDigest>(gen.profile.digests().begin(),
                                    gen.profile.digests().end());
  digests[30].loc_x = 5000.0f;  // 5 km jump within one second
  const ViewProfile teleporter(std::move(digests),
                               bloom::BloomFilter(kBloomBits, kBloomHashes));
  EXPECT_FALSE(well_formed(teleporter));
}

TEST(WellFormed, RejectsShrinkingFile) {
  Rng rng(12);
  auto gen = build_profile(0, {0, 0}, {1, 0}, rng);
  auto digests =
      std::vector<dsrc::ViewDigest>(gen.profile.digests().begin(),
                                    gen.profile.digests().end());
  digests[10].file_size = 1;  // video cannot shrink while recording
  const ViewProfile shrinker(std::move(digests),
                             bloom::BloomFilter(kBloomBits, kBloomHashes));
  EXPECT_FALSE(well_formed(shrinker));
}

TEST(VpSecret, IdDerivation) {
  Rng rng(13);
  const VpSecret s = make_vp_secret(rng);
  EXPECT_EQ(s.vp_id(), s.vp_id());
  const VpSecret s2 = make_vp_secret(rng);
  EXPECT_NE(s.vp_id(), s2.vp_id());
}

TEST(LinkMutually, CreatesTwoWayBloomMembership) {
  Rng rng(14);
  auto a = build_profile(0, {0, 0}, {1, 0}, rng);
  auto b = build_profile(0, {20, 0}, {1, 0}, rng);
  EXPECT_FALSE(a.profile.heard(b.profile));
  link_mutually(a.profile, b.profile);
  EXPECT_TRUE(a.profile.heard(b.profile));
  EXPECT_TRUE(b.profile.heard(a.profile));
}

}  // namespace
}  // namespace viewmap::vp
