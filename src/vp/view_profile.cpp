#include "vp/view_profile.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "crypto/sha256.h"

namespace viewmap::vp {

ViewProfile::ViewProfile(std::vector<dsrc::ViewDigest> digests,
                         bloom::BloomFilter neighbor_bloom)
    : digests_(std::move(digests)), bloom_(std::move(neighbor_bloom)) {
  if (digests_.size() != static_cast<std::size_t>(kDigestsPerProfile))
    throw std::invalid_argument("ViewProfile: need exactly 60 digests");
  for (const auto& vd : digests_)
    if (vd.vp_id != digests_.front().vp_id)
      throw std::invalid_argument("ViewProfile: mixed VP identifiers");
  if (bloom_.bit_size() != kBloomBits || bloom_.hash_count() != kBloomHashes)
    throw std::invalid_argument("ViewProfile: non-protocol Bloom configuration");
}

// The probe cache is derived state over the immutable digests: copies
// recompute on demand, moves adopt the source's table, assignment drops
// the stale one. bloom_ mutation (add_neighbor_digest) never touches it
// — probes hash this profile's own digests, not its filter.

ViewProfile::ViewProfile(const ViewProfile& other)
    : digests_(other.digests_), bloom_(other.bloom_) {}

ViewProfile::ViewProfile(ViewProfile&& other) noexcept
    : digests_(std::move(other.digests_)),
      bloom_(std::move(other.bloom_)),
      probes_(other.probes_.exchange(nullptr, std::memory_order_acq_rel)) {}

ViewProfile& ViewProfile::operator=(const ViewProfile& other) {
  if (this != &other) {
    // Cache first: if a copy below throws, the object must not be left
    // holding a probe table computed for different digests.
    delete probes_.exchange(nullptr, std::memory_order_acq_rel);
    digests_ = other.digests_;
    bloom_ = other.bloom_;
  }
  return *this;
}

ViewProfile& ViewProfile::operator=(ViewProfile&& other) noexcept {
  if (this != &other) {
    digests_ = std::move(other.digests_);
    bloom_ = std::move(other.bloom_);
    delete probes_.exchange(other.probes_.exchange(nullptr, std::memory_order_acq_rel),
                            std::memory_order_acq_rel);
  }
  return *this;
}

ViewProfile::~ViewProfile() { delete probes_.load(std::memory_order_acquire); }

const BloomProbes& ViewProfile::bloom_probes() const {
  if (const BloomProbes* hit = probes_.load(std::memory_order_acquire))
    return *hit;
  auto fresh = std::make_unique<BloomProbes>();
  std::size_t wide[static_cast<std::size_t>(kBloomHashes)];
  for (std::size_t s = 0; s < digests_.size(); ++s) {
    bloom::BloomFilter::probe_positions(digests_[s].serialize(), kBloomBits,
                                        kBloomHashes, wide);
    for (std::size_t h = 0; h < static_cast<std::size_t>(kBloomHashes); ++h)
      fresh->at[s][h] = static_cast<std::uint16_t>(wide[h]);
  }
  const BloomProbes* expected = nullptr;
  if (probes_.compare_exchange_strong(expected, fresh.get(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
    return *fresh.release();
  return *expected;  // lost the benign race; another thread published
}

geo::Vec2 ViewProfile::location_at(int second_index) const {
  const auto& vd = digests_.at(static_cast<std::size_t>(second_index));
  return {vd.loc_x, vd.loc_y};
}

bool ViewProfile::visits(const geo::Rect& area) const noexcept {
  for (const auto& vd : digests_)
    if (area.contains({vd.loc_x, vd.loc_y})) return true;
  return false;
}

bool ViewProfile::ever_within(const ViewProfile& other, double radius_m) const noexcept {
  // Time-aligned comparison: both VPs cover the same minute second-by-
  // second (GPS-synchronized recording), so index i of one aligns with
  // the digest of the same wall-clock second in the other. Compared in
  // squared distance — this scan runs per candidate pair on the viewmap
  // construction hot path.
  if (radius_m < 0.0) return false;
  const double radius_sq = radius_m * radius_m;
  for (std::size_t i = 0; i < digests_.size(); ++i) {
    for (std::size_t j = 0; j < other.digests_.size(); ++j) {
      if (digests_[i].time != other.digests_[j].time) continue;
      const double dx = digests_[i].loc_x - other.digests_[j].loc_x;
      const double dy = digests_[i].loc_y - other.digests_[j].loc_y;
      if (dx * dx + dy * dy <= radius_sq) return true;
      break;  // at most one j matches a given i
    }
  }
  return false;
}

bool ViewProfile::heard(const ViewProfile& other) const {
  // Equivalent to probing each of other's serialized VDs, but through
  // other's memoized probe table: no hashing on the membership path.
  for (const auto& probe : other.bloom_probes().at)
    if (bloom_.test_positions(probe)) return true;
  return false;
}

std::vector<std::uint8_t> ViewProfile::serialize() const {
  std::vector<std::uint8_t> out(kVpWireSize);
  serialize_into(std::span<std::uint8_t, kVpWireSize>(out));
  return out;
}

void ViewProfile::serialize_into(std::span<std::uint8_t, kVpWireSize> out) const {
  const auto& bits = bloom_.data();
  if (digests_.size() * dsrc::kViewDigestWireSize + bits.size() != out.size())
    throw std::logic_error("ViewProfile: wire size drifted from spec");
  std::uint8_t* p = out.data();
  for (const auto& vd : digests_) {
    const auto frame = vd.serialize();
    std::memcpy(p, frame.data(), frame.size());
    p += frame.size();
  }
  std::memcpy(p, bits.data(), bits.size());
}

ViewProfile ViewProfile::parse(std::span<const std::uint8_t> data) {
  if (data.size() != kVpWireSize)
    throw std::invalid_argument("ViewProfile: bad payload size");
  std::vector<dsrc::ViewDigest> digests;
  digests.reserve(kDigestsPerProfile);
  std::size_t off = 0;
  for (int i = 0; i < kDigestsPerProfile; ++i) {
    digests.push_back(dsrc::ViewDigest::parse(data.subspan(off, dsrc::kViewDigestWireSize)));
    off += dsrc::kViewDigestWireSize;
  }
  auto bloom = bloom::BloomFilter::from_bytes(data.subspan(off, kBloomBytes), kBloomHashes);
  return ViewProfile(std::move(digests), std::move(bloom));
}

bool well_formed(const ViewProfile& vp) noexcept {
  const auto digests = vp.digests();
  // Range first, so the arithmetic below cannot overflow: the last
  // timestamp t0 + 59 and the minute start unit_start(t0) must both be
  // representable.
  constexpr TimeSec kMaxStart =
      std::numeric_limits<TimeSec>::max() - (kDigestsPerProfile - 1);
  const TimeSec t0 = digests[0].time;
  if (t0 < kFirstUnitStart || t0 > kMaxStart) return false;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const auto& vd = digests[i];
    if (vd.second != static_cast<std::uint16_t>(i + 1)) return false;
    if (vd.time != t0 + static_cast<TimeSec>(i)) return false;
    // Checked first: NaN slips past every comparison below (a NaN step
    // is never "too fast"), and inf − inf is NaN.
    if (!std::isfinite(vd.loc_x) || !std::isfinite(vd.loc_y) ||
        !std::isfinite(vd.initial_x) || !std::isfinite(vd.initial_y))
      return false;
    if (i > 0) {
      const double dx = vd.loc_x - digests[i - 1].loc_x;
      const double dy = vd.loc_y - digests[i - 1].loc_y;
      if (std::sqrt(dx * dx + dy * dy) > kMaxSpeedMps) return false;
      if (vd.file_size < digests[i - 1].file_size) return false;
      if (vd.initial_x != digests[0].initial_x || vd.initial_y != digests[0].initial_y)
        return false;
    }
  }
  // The advertised initial location must match the trajectory start.
  return digests[0].initial_x == digests[0].loc_x &&
         digests[0].initial_y == digests[0].loc_y;
}

Id16 VpSecret::vp_id() const { return crypto::derive_vp_id(q); }

VpSecret make_vp_secret(Rng& rng) {
  VpSecret s;
  rng.fill_bytes(s.q);
  return s;
}

void ViewProfile::add_neighbor_digest(const dsrc::ViewDigest& vd) {
  bloom_.insert(vd.serialize());
}

void link_mutually(ViewProfile& a, ViewProfile& b) {
  a.add_neighbor_digest(b.digests().front());
  a.add_neighbor_digest(b.digests().back());
  b.add_neighbor_digest(a.digests().front());
  b.add_neighbor_digest(a.digests().back());
}

}  // namespace viewmap::vp
