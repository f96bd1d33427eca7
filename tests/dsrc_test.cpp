// Unit tests: VD wire format, radio model, broadcast channel.
#include <gtest/gtest.h>

#include <limits>

#include "common/hex.h"
#include "common/rng.h"
#include "dsrc/channel.h"
#include "dsrc/radio.h"
#include "dsrc/view_digest.h"

namespace viewmap::dsrc {
namespace {

ViewDigest sample_vd() {
  ViewDigest vd;
  vd.time = 1234;
  vd.loc_x = 10.5f;
  vd.loc_y = -3.25f;
  vd.file_size = 873813;
  vd.initial_x = 1.0f;
  vd.initial_y = 2.0f;
  vd.vp_id.bytes[0] = 0xaa;
  vd.vp_id.bytes[15] = 0xbb;
  vd.hash.bytes[7] = 0xcc;
  vd.second = 17;
  return vd;
}

TEST(ViewDigest, WireSizeIsExactly72Bytes) {
  // §6.1: "the length of our VD message is thus only 72 bytes".
  EXPECT_EQ(sample_vd().serialize().size(), kViewDigestWireSize);
  EXPECT_EQ(kViewDigestWireSize, 72u);
}

TEST(ViewDigest, SerializationRoundTrip) {
  const ViewDigest vd = sample_vd();
  const auto frame = vd.serialize();
  const ViewDigest parsed = ViewDigest::parse(frame);
  EXPECT_EQ(parsed, vd);
}

TEST(ViewDigest, ParseRejectsBadSize) {
  std::vector<std::uint8_t> frame(71);
  EXPECT_THROW(ViewDigest::parse(frame), std::invalid_argument);
  frame.resize(73);
  EXPECT_THROW(ViewDigest::parse(frame), std::invalid_argument);
}

TEST(ViewDigest, DistinctDigestsSerializeDistinctly) {
  ViewDigest a = sample_vd();
  ViewDigest b = a;
  b.second = 18;
  EXPECT_NE(a.serialize(), b.serialize());
}

TEST(ViewDigest, FrameBytesAreGolden) {
  // The §6.1 layout byte for byte, pinned from a build that serialized
  // through ByteWriter: little-endian fields in declaration order, then
  // six zero padding bytes. A negative time, an all-ones file size, and
  // distinct id and hash bytes make any reordering or width slip show.
  ViewDigest vd;
  vd.time = -1'234'567'890'123LL;
  vd.loc_x = 10.5f;
  vd.loc_y = -3.25f;
  vd.file_size = std::numeric_limits<std::uint64_t>::max();
  vd.initial_x = 1234.5f;
  vd.initial_y = -7.75f;
  for (std::size_t i = 0; i < vd.vp_id.bytes.size(); ++i)
    vd.vp_id.bytes[i] = static_cast<std::uint8_t>(0x10 + i);
  for (std::size_t i = 0; i < vd.hash.bytes.size(); ++i)
    vd.hash.bytes[i] = static_cast<std::uint8_t>(0xe0 + i);
  vd.second = 60;
  const auto frame = vd.serialize();
  EXPECT_EQ(to_hex(frame),
            "35fb048ee0feffff"                   // time
            "00002841000050c0"                   // loc_x, loc_y
            "ffffffffffffffff"                   // file_size
            "00509a440000f8c0"                   // initial_x, initial_y
            "101112131415161718191a1b1c1d1e1f"   // vp_id
            "e0e1e2e3e4e5e6e7e8e9eaebecedeeef"   // hash
            "3c00"                               // second
            "000000000000");                     // padding
  EXPECT_EQ(ViewDigest::parse(frame), vd);
}

TEST(AcceptancePolicy, TimeWindow) {
  ViewDigest vd = sample_vd();
  vd.time = 100;
  vd.loc_x = 0;
  vd.loc_y = 0;
  EXPECT_TRUE(vd_acceptable(vd, 100, 0, 0));
  EXPECT_TRUE(vd_acceptable(vd, 101, 0, 0));
  EXPECT_FALSE(vd_acceptable(vd, 102, 0, 0));  // stale
  EXPECT_FALSE(vd_acceptable(vd, 98, 0, 0));   // from the future
}

TEST(AcceptancePolicy, DsrcRadius) {
  ViewDigest vd = sample_vd();
  vd.time = 100;
  vd.loc_x = 0;
  vd.loc_y = 0;
  EXPECT_TRUE(vd_acceptable(vd, 100, 399, 0));
  EXPECT_FALSE(vd_acceptable(vd, 100, 401, 0));  // claims impossible range
}

TEST(Radio, PathLossMonotoneInDistance) {
  const RadioModel radio;
  double prev = radio.mean_rssi_dbm(1, true);
  for (double d = 50; d <= 400; d += 50) {
    const double rssi = radio.mean_rssi_dbm(d, true);
    EXPECT_LT(rssi, prev);
    prev = rssi;
  }
}

TEST(Radio, NlosPenaltyApplies) {
  const RadioModel radio;
  EXPECT_NEAR(radio.mean_rssi_dbm(100, true) - radio.mean_rssi_dbm(100, false),
              radio.config().nlos_penalty_db, 1e-9);
}

TEST(Radio, PdrCurveShape) {
  // Fig. 16: ≈1 above -80 dBm, ≈0 below -100 dBm, steep in between.
  EXPECT_GT(RadioModel::mean_pdr(-75.0), 0.95);
  EXPECT_GT(RadioModel::mean_pdr(-80.0), 0.9);
  EXPECT_LT(RadioModel::mean_pdr(-100.0), 0.1);
  EXPECT_LT(RadioModel::mean_pdr(-110.0), 0.01);
  const double mid = RadioModel::mean_pdr(-90.0);
  EXPECT_GT(mid, 0.3);
  EXPECT_LT(mid, 0.7);
}

TEST(Radio, OpenRoadDeliversAcross400m) {
  // §7.2.1: open-road VLR > 99% out to 400 m. A full minute of broadcasts
  // must get at least one frame through at max range.
  const RadioModel radio;
  Rng rng(1);
  int minutes_linked = 0;
  for (int minute = 0; minute < 100; ++minute) {
    bool got = false;
    for (int s = 0; s < 60 && !got; ++s)
      got = radio.try_deliver(400.0, true, false, rng);
    minutes_linked += got;
  }
  EXPECT_GE(minutes_linked, 99);
}

TEST(Radio, BuildingBlockageKillsDelivery) {
  const RadioModel radio;
  Rng rng(2);
  int delivered = 0;
  for (int i = 0; i < 6000; ++i) delivered += radio.try_deliver(120.0, false, false, rng);
  EXPECT_LT(delivered, 12);  // < 0.2% of frames behind a building at 120 m
}

TEST(Radio, MaxRangeIsHardCutoff) {
  const RadioModel radio;
  Rng rng(3);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(radio.try_deliver(401.0, true, false, rng));
}

TEST(Radio, TrafficBlockageProbability) {
  EXPECT_DOUBLE_EQ(traffic_blockage_probability(100, 0.0), 0.0);
  EXPECT_NEAR(traffic_blockage_probability(100, 0.01), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_GT(traffic_blockage_probability(300, 0.01),
            traffic_blockage_probability(100, 0.01));
}

TEST(Channel, LosFollowsObstacles) {
  const geo::ObstacleIndex index(std::vector<geo::Rect>{{{40, -10}, {60, 10}}});
  const BroadcastChannel channel;
  const ChannelEnvironment env{&index, 0.0};
  EXPECT_FALSE(channel.line_of_sight({0, 0}, {100, 0}, env));
  EXPECT_TRUE(channel.line_of_sight({0, 20}, {100, 20}, env));
}

TEST(Channel, DeliveryContrastLosVsNlos) {
  const geo::ObstacleIndex index(std::vector<geo::Rect>{{{40, -10}, {60, 10}}});
  const BroadcastChannel channel;
  const ChannelEnvironment env{&index, 0.0};
  Rng rng(5);
  int los_ok = 0, nlos_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    los_ok += channel.try_deliver({0, 20}, {100, 20}, env, rng);
    nlos_ok += channel.try_deliver({0, 0}, {100, 0}, env, rng);
  }
  EXPECT_GT(los_ok, 1900);
  EXPECT_LT(nlos_ok, 20);
}

TEST(Channel, EnclosedEndpointAttenuatesFurther) {
  // A vehicle inside a structure (tunnel/garage) must be far less
  // reachable than one merely shadowed by it.
  const geo::ObstacleIndex inside_idx(std::vector<geo::Rect>{{{-5, -5}, {30, 5}}});
  const BroadcastChannel channel;
  const ChannelEnvironment env{&inside_idx, 0.0};
  Rng rng(6);
  int ok = 0;
  for (int i = 0; i < 4000; ++i) ok += channel.try_deliver({0, 0}, {25, 0}, env, rng);
  EXPECT_LT(ok, 8);  // NLOS + enclosed at 25 m: essentially dead
}

}  // namespace
}  // namespace viewmap::dsrc
