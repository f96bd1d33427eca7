// Per-vehicle VP generation state machine (paper §5.1.1).
//
// Driving loop, once per second while recording minute u:
//   1. vehicle records chunk u[i-1..i] and advances the cascaded hash,
//   2. vehicle broadcasts its own VD_i,
//   3. vehicle screens and stores VDs heard from neighbors (first + last
//      per neighbor, at most 250 neighbors).
// At second 60 the builder compiles the VDs and the neighbor Bloom filter
// into VP_u and hands back everything guard-VP creation needs.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dsrc/view_digest.h"
#include "geo/geometry.h"
#include "vp/view_profile.h"

namespace viewmap::vp {

/// What a vehicle remembers about one neighbor: the first and last VD it
/// received with a given R value (§5.1.1 "A temporarily stores at most two
/// valid VDs per neighbor").
struct NeighborRecord {
  dsrc::ViewDigest first;
  std::optional<dsrc::ViewDigest> last;  ///< unset if only one VD was heard

  /// Initial location the neighbor advertised (L_1) — the seed for a guard
  /// VP trajectory (§5.1.2).
  [[nodiscard]] geo::Vec2 advertised_start() const noexcept {
    return {first.initial_x, first.initial_y};
  }
};

/// Result of completing one minute of recording.
struct VpGenerationResult {
  ViewProfile profile;              ///< the actual VP_u
  VpSecret secret;                  ///< Q_u, retained by the owner
  std::vector<NeighborRecord> neighbors;  ///< inputs for guard creation
};

class VpBuilder {
 public:
  /// Starts a fresh minute. `minute_start` must be a unit-time boundary.
  VpBuilder(TimeSec minute_start, Rng& rng);

  /// Step 1+2 of the loop: record this second's chunk, return the VD the
  /// vehicle broadcasts. Call exactly 60 times with consecutive seconds.
  [[nodiscard]] dsrc::ViewDigest tick(geo::Vec2 position,
                                      std::span<const std::uint8_t> chunk);

  /// Step 3: screen a received VD against the §5.1.1 acceptance policy
  /// (time window + DSRC radius) and store it. Returns false if rejected.
  bool accept_neighbor(const dsrc::ViewDigest& vd, geo::Vec2 own_position);

  [[nodiscard]] int seconds_done() const noexcept { return second_; }
  [[nodiscard]] std::size_t neighbor_count() const noexcept { return neighbors_.size(); }
  [[nodiscard]] const Id16& vp_id() const noexcept { return vp_id_; }

  /// Compiles VP_u after the 60th tick. Consumes the builder state.
  [[nodiscard]] VpGenerationResult finish();

 private:
  VpSecret secret_;
  Id16 vp_id_;
  TimeSec minute_start_;
  int second_ = 0;  // seconds completed so far (i in 1..60 after tick)
  std::uint64_t file_size_ = 0;
  geo::Vec2 initial_pos_{};
  crypto::CascadedHasher hasher_;
  std::vector<dsrc::ViewDigest> own_digests_;
  std::unordered_map<Id16, NeighborRecord, Id16Hasher> neighbors_;
};

}  // namespace viewmap::vp
