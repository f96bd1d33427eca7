// View Profile (VP): the anonymized stand-in for a 1-minute video
// (paper §4, §5.1.1).
//
// A VP compiles (i) the minute's 60 view digests — time/location trajectory
// plus the cascaded video fingerprint — and (ii) a Bloom filter summarizing
// the neighbor VDs heard over DSRC. VPs, not users, are the entities the
// system searches, verifies, and rewards.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "common/types.h"
#include "dsrc/view_digest.h"
#include "geo/geometry.h"

namespace viewmap::vp {

/// Deployment Bloom configuration (§6.3.2): m = 2048 bits keeps the
/// two-way false-linkage rate ≈0.1% at 300 neighbors. k is fixed at the
/// near-optimal 3 for ≤250 neighbors × 2 VDs — both sides of a membership
/// check must agree on k, so it is a protocol constant, not per-VP.
inline constexpr std::size_t kBloomBits = 2048;
inline constexpr int kBloomHashes = 3;
inline constexpr std::size_t kBloomBytes = kBloomBits / 8;

/// §6.3.2 footnote 10: cap on neighbors accepted per vehicle per minute
/// (mitigates Bloom poisoning by VD floods).
inline constexpr std::size_t kMaxNeighbors = 250;

/// Serialized VP payload: 60 VDs + Bloom bit-array.
inline constexpr std::size_t kVpWireSize =
    static_cast<std::size_t>(kDigestsPerProfile) * dsrc::kViewDigestWireSize + kBloomBytes;

/// §6.1 storage accounting: payload + the owner's 8-byte secret number.
inline constexpr std::size_t kVpStorageBytes = kVpWireSize + 8;
static_assert(kVpStorageBytes == 4584, "must match paper §6.1");

/// Precomputed Bloom probe positions for every VD of one profile under
/// the protocol constants (kBloomBits, kBloomHashes). Positions fit 16
/// bits (kBloomBits = 2048), so the whole table is 360 bytes.
static_assert(kBloomBits <= 65536,
              "BloomProbes stores positions as uint16; widen Probe before "
              "growing the protocol filter");
struct BloomProbes {
  using Probe = std::array<std::uint16_t, static_cast<std::size_t>(kBloomHashes)>;
  std::array<Probe, static_cast<std::size_t>(kDigestsPerProfile)> at{};
};

class ViewProfile {
 public:
  /// Constructs from exactly 60 digests sharing one VP identifier.
  /// Throws std::invalid_argument on malformed input.
  ViewProfile(std::vector<dsrc::ViewDigest> digests, bloom::BloomFilter neighbor_bloom);

  // Value semantics (the probe cache is derived state: copies drop it,
  // moves carry it, equality ignores it).
  ViewProfile(const ViewProfile& other);
  ViewProfile(ViewProfile&& other) noexcept;
  ViewProfile& operator=(const ViewProfile& other);
  ViewProfile& operator=(ViewProfile&& other) noexcept;
  ~ViewProfile();

  [[nodiscard]] const Id16& vp_id() const noexcept { return digests_.front().vp_id; }
  [[nodiscard]] std::span<const dsrc::ViewDigest> digests() const noexcept {
    return digests_;
  }
  [[nodiscard]] const bloom::BloomFilter& neighbor_bloom() const noexcept {
    return bloom_;
  }

  [[nodiscard]] TimeSec start_time() const noexcept { return digests_.front().time; }
  [[nodiscard]] TimeSec end_time() const noexcept { return digests_.back().time; }
  /// Minute this VP covers (viewmaps are built per unit-time, §5.2.1).
  [[nodiscard]] TimeSec unit_time() const noexcept { return unit_start(start_time()); }

  [[nodiscard]] geo::Vec2 location_at(int second_index) const;
  [[nodiscard]] geo::Vec2 first_location() const { return location_at(0); }
  [[nodiscard]] geo::Vec2 last_location() const {
    return location_at(kDigestsPerProfile - 1);
  }

  /// Does any of the 60 claimed positions fall inside `area`?
  [[nodiscard]] bool visits(const geo::Rect& area) const noexcept;

  /// Were this VP and `other` ever within `radius_m` at time-aligned
  /// seconds? (The §5.2.1 location-proximity precondition for viewlinks —
  /// precludes long-distance edges.)
  [[nodiscard]] bool ever_within(const ViewProfile& other, double radius_m) const noexcept;

  /// Does this VP's Bloom filter claim to have heard any of `other`'s VDs?
  /// One direction of the §5.2.1 two-way membership test.
  [[nodiscard]] bool heard(const ViewProfile& other) const;

  /// The probe positions of this profile's own 60 VDs — what a
  /// membership check against ANY other profile's filter tests (the
  /// protocol fixes (bits, k), so positions transfer between filters).
  /// Digests are immutable after construction, so the table is computed
  /// once — lazily, on first use — and memoized; the 60 SHA-256 hashes
  /// are never redone however many viewmaps the profile lands in. The
  /// cold call serializes each frame on the stack and hashes it through
  /// the per-thread context of crypto::sha256: 12–15 µs per profile on
  /// one core of a 4-core SHA-NI Xeon (bench_micro BM_ColdProbeTable).
  /// Thread-safe: concurrent first calls race benignly (one result is
  /// published, the rest discarded).
  [[nodiscard]] const BloomProbes& bloom_probes() const;

  /// Records a neighbor VD into this profile's Bloom filter. Only the
  /// owning vehicle calls this, and only at generation time.
  void add_neighbor_digest(const dsrc::ViewDigest& vd);

  /// The kVpWireSize-byte payload: the 60 VD frames, then the Bloom
  /// bit-array.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// The same bytes, written into caller-owned storage: no allocation, so
  /// a caller serializing many profiles can reuse one buffer.
  void serialize_into(std::span<std::uint8_t, kVpWireSize> out) const;
  static ViewProfile parse(std::span<const std::uint8_t> data);

  friend bool operator==(const ViewProfile& a, const ViewProfile& b) {
    return a.digests_ == b.digests_ && a.bloom_ == b.bloom_;
  }

 private:
  std::vector<dsrc::ViewDigest> digests_;  // exactly kDigestsPerProfile
  bloom::BloomFilter bloom_;
  /// Lazily published probe table (see bloom_probes()); owned.
  mutable std::atomic<const BloomProbes*> probes_{nullptr};
};

/// Fastest per-second step a well-formed trajectory may claim: ~250 km/h,
/// a generous physical bound.
inline constexpr double kMaxSpeedMps = 70.0;

/// The structural screen every VP passes before it may enter the
/// database (index::VpTimeline::upload, and again on recovery): 60
/// digests, one id, seconds 1..60, timestamps one apart whose minute
/// start is representable, finite positions, consecutive locations at
/// most kMaxSpeedMps apart, non-decreasing file sizes, and an advertised
/// initial location equal to the trajectory start. Total over every
/// parsed payload: it checks ranges before any arithmetic on them.
[[nodiscard]] bool well_formed(const ViewProfile& vp) noexcept;

/// The owner-retained secret behind a VP: Q_u with R_u = H(Q_u) (§5.1.1).
/// Q never leaves the vehicle until the reward claim (§5.3).
struct VpSecret {
  std::array<std::uint8_t, 8> q{};

  [[nodiscard]] Id16 vp_id() const;
};

/// Draws a fresh secret and its identifier.
[[nodiscard]] VpSecret make_vp_secret(Rng& rng);

/// Inserts each profile's boundary VDs (first/last) into the other's Bloom
/// filter — the mutual neighborship a vehicle fabricates between its own
/// actual VP and the guard VPs it creates (§5.1.2).
void link_mutually(ViewProfile& a, ViewProfile& b);

}  // namespace viewmap::vp
