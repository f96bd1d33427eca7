// Unit tests: synthetic video, ViewProfile, VpBuilder state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/sha256.h"
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

/// A fixed profile built without randomness: a straight trajectory,
/// one id, distinct per-second hash bytes, an empty Bloom filter.
ViewProfile golden_profile() {
  std::vector<dsrc::ViewDigest> digests(kDigestsPerProfile);
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    auto& vd = digests[static_cast<std::size_t>(s)];
    vd.time = 6'001 + s;
    vd.loc_x = 100.0f + 12.5f * static_cast<float>(s);
    vd.loc_y = -40.0f + 0.25f * static_cast<float>(s);
    vd.file_size = 4096u * static_cast<std::uint64_t>(s + 1);
    vd.initial_x = 100.0f;
    vd.initial_y = -40.0f;
    for (std::size_t i = 0; i < vd.vp_id.bytes.size(); ++i)
      vd.vp_id.bytes[i] = static_cast<std::uint8_t>(0x5a ^ i);
    for (std::size_t i = 0; i < vd.hash.bytes.size(); ++i)
      vd.hash.bytes[i] = static_cast<std::uint8_t>(16 * s + static_cast<int>(i));
    vd.second = static_cast<std::uint16_t>(s + 1);
  }
  return ViewProfile(std::move(digests), bloom::BloomFilter(kBloomBits, kBloomHashes));
}

/// A seeded random profile: finite fields, one id, random Bloom bits.
/// Not well_formed — the wire format does not care.
ViewProfile random_profile(Rng& rng) {
  std::vector<dsrc::ViewDigest> digests(kDigestsPerProfile);
  Id16 id;
  rng.fill_bytes(id.bytes);
  for (auto& vd : digests) {
    vd.time = static_cast<TimeSec>(rng.next_u64());
    vd.loc_x = static_cast<float>(rng.uniform(-1e5, 1e5));
    vd.loc_y = static_cast<float>(rng.uniform(-1e5, 1e5));
    vd.file_size = rng.next_u64();
    vd.initial_x = static_cast<float>(rng.uniform(-1e5, 1e5));
    vd.initial_y = static_cast<float>(rng.uniform(-1e5, 1e5));
    vd.vp_id = id;
    rng.fill_bytes(vd.hash.bytes);
    vd.second = static_cast<std::uint16_t>(rng.next_u64());
  }
  std::vector<std::uint8_t> bits(kBloomBytes);
  rng.fill_bytes(bits);
  return ViewProfile(std::move(digests), bloom::BloomFilter::from_bytes(bits, kBloomHashes));
}

TEST(BloomProbes, MatchGoldenPositions) {
  // Pinned from a build that hashed each frame with a one-shot
  // EVP_Digest over a freshly serialized vector. The packed and the
  // reference viewmap builders share bloom_probes(), so edges_match
  // cannot see a framing or hashing change; this table can.
  static constexpr std::array<std::uint16_t, 3 * kDigestsPerProfile> kGolden = {
    1664, 655, 1694,
    1222, 11, 848,
    769, 140, 1559,
    1337, 366, 1443,
    1974, 915, 1904,
    412, 1051, 1690,
    937, 430, 1971,
    1159, 608, 57,
    1790, 1371, 952,
    85, 276, 467,
    1839, 126, 461,
    1281, 736, 191,
    58, 1679, 1252,
    89, 1062, 2035,
    1913, 1618, 1323,
    607, 1276, 1945,
    1315, 1488, 1661,
    1887, 1344, 801,
    1143, 1082, 1021,
    749, 1932, 1067,
    636, 975, 1314,
    71, 104, 137,
    1232, 443, 1702,
    1692, 1637, 1582,
    576, 1343, 62,
    1831, 16, 249,
    1870, 1863, 1856,
    1278, 715, 152,
    836, 731, 626,
    215, 1954, 1645,
    943, 1612, 233,
    1844, 435, 1074,
    1054, 1303, 1552,
    963, 790, 617,
    888, 983, 1078,
    1527, 406, 1333,
    64, 303, 542,
    1620, 1901, 134,
    1091, 1388, 1685,
    1269, 1420, 1571,
    2040, 1735, 1430,
    1465, 76, 735,
    206, 1147, 40,
    1647, 390, 1181,
    1572, 1715, 1858,
    1832, 205, 626,
    1606, 159, 760,
    1140, 807, 474,
    283, 1250, 169,
    1657, 1438, 1219,
    237, 450, 663,
    73, 960, 1847,
    193, 218, 243,
    804, 1219, 1634,
    1818, 1403, 988,
    1836, 1083, 330,
    1279, 800, 321,
    178, 995, 1812,
    1666, 1499, 1332,
    2022, 515, 1056,
  };
  const ViewProfile p = golden_profile();
  EXPECT_EQ(to_hex(crypto::sha256(p.digests()[0].serialize()).bytes),
            "80ce594967d650a90e94218d88fdde44468e84763c3b3cd98b5205daa4342a4e");
  const BloomProbes& table = p.bloom_probes();
  for (std::size_t s = 0; s < table.at.size(); ++s)
    for (std::size_t h = 0; h < table.at[s].size(); ++h)
      EXPECT_EQ(table.at[s][h], kGolden[3 * s + h]) << "second " << s << " hash " << h;
}

TEST(BloomProbes, PositionsAreWhatInsertAndQueryTest) {
  // Any 72 bytes parse; re-serializing zeroes the padding. The positions
  // probe_positions() derives from that frame must be exactly the bits
  // insert() sets and maybe_contains() reads.
  Rng rng(21);
  std::vector<std::uint8_t> raw(dsrc::kViewDigestWireSize);
  for (int i = 0; i < 1000; ++i) {
    rng.fill_bytes(raw);
    const auto frame = dsrc::ViewDigest::parse(raw).serialize();
    std::array<std::size_t, kBloomHashes> pos{};
    bloom::BloomFilter::probe_positions(frame, kBloomBits, kBloomHashes, pos);

    bloom::BloomFilter inserted(kBloomBits, kBloomHashes);
    inserted.insert(frame);
    std::vector<std::uint8_t> bits(kBloomBytes);
    for (const std::size_t b : pos) bits[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
    ASSERT_EQ(inserted.data(), bits) << "frame " << i;
    EXPECT_TRUE(inserted.maybe_contains(frame));

    // Clearing any one probed bit must make the element absent.
    for (const std::size_t b : pos) {
      auto holed = bits;
      holed[b / 8] &= static_cast<std::uint8_t>(~(1u << (b % 8)));
      EXPECT_FALSE(bloom::BloomFilter::from_bytes(holed, kBloomHashes).maybe_contains(frame));
    }
  }
}

TEST(ViewProfile, WireIsFramesThenBloomBits) {
  Rng rng(22);
  for (int i = 0; i < 50; ++i) {
    const ViewProfile p = random_profile(rng);
    std::vector<std::uint8_t> expected;
    for (const auto& vd : p.digests()) {
      const auto frame = vd.serialize();
      expected.insert(expected.end(), frame.begin(), frame.end());
    }
    expected.insert(expected.end(), p.neighbor_bloom().data().begin(),
                    p.neighbor_bloom().data().end());
    const auto wire = p.serialize();
    ASSERT_EQ(wire, expected) << "profile " << i;
    EXPECT_EQ(ViewProfile::parse(wire), p);

    // The memoized table is the per-frame probe positions, narrowed.
    const BloomProbes& table = p.bloom_probes();
    for (std::size_t s = 0; s < p.digests().size(); ++s) {
      std::array<std::size_t, kBloomHashes> pos{};
      bloom::BloomFilter::probe_positions(p.digests()[s].serialize(), kBloomBits,
                                          kBloomHashes, pos);
      EXPECT_TRUE(std::equal(pos.begin(), pos.end(), table.at[s].begin()));
    }
  }
}

}  // namespace
}  // namespace viewmap::vp
