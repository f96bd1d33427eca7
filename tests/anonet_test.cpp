// Unit tests: anonymous upload channel (Tor stand-in).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "anonet/channel.h"

namespace viewmap::anonet {
namespace {

std::vector<std::uint8_t> payload(std::uint8_t tag) { return {tag, tag, tag}; }

TEST(AnonymousChannel, DrainDeliversEverything) {
  AnonymousChannel ch(1);
  for (std::uint8_t i = 0; i < 10; ++i) ch.submit(payload(i));
  EXPECT_EQ(ch.pending(), 10u);
  const auto out = ch.drain();
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(ch.pending(), 0u);
}

TEST(AnonymousChannel, SessionIdsAreFreshPerUpload) {
  AnonymousChannel ch(2);
  for (std::uint8_t i = 0; i < 64; ++i) ch.submit(payload(i));
  const auto out = ch.drain();
  std::set<std::uint64_t> ids;
  for (const auto& d : out) ids.insert(d.session_id);
  EXPECT_EQ(ids.size(), out.size());  // never reused — unlinkable sessions
}

TEST(AnonymousChannel, MixDecorrelatesOrder) {
  AnonymousChannel ch(3);
  for (std::uint8_t i = 0; i < 32; ++i) ch.submit(payload(i));
  const auto out = ch.drain();
  // Probability of preserved order under a fair shuffle is 1/32!.
  bool in_order = true;
  for (std::size_t i = 0; i < out.size(); ++i)
    in_order = in_order && out[i].payload[0] == static_cast<std::uint8_t>(i);
  EXPECT_FALSE(in_order);
  // But every payload arrives exactly once.
  std::set<std::uint8_t> tags;
  for (const auto& d : out) tags.insert(d.payload[0]);
  EXPECT_EQ(tags.size(), 32u);
}

TEST(AnonymousChannel, DeliveryCarriesNoSenderInformation) {
  // Structural check: Delivery exposes exactly a session id and payload.
  static_assert(sizeof(Delivery) ==
                sizeof(std::uint64_t) + sizeof(std::vector<std::uint8_t>));
  AnonymousChannel ch(5);
  ch.submit(payload(1));
  const auto out = ch.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, payload(1));
}

}  // namespace
}  // namespace viewmap::anonet
