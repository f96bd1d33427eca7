// View Digest (VD): the per-second DSRC broadcast message (paper §5.1.1).
//
//   A −→ ∗ :  T_i, L_i, F_i, L_1, R_u, H(T_i | L_i | F_i | H_{i-1} | u[i-1..i])
//
// §6.1 fixes the wire size at 72 bytes (time 8, location 8, file size 8,
// initial location 8, VP identifier 16, cascaded hash 16, plus the
// second-index and padding), small enough to piggyback on a DSRC beacon.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "crypto/hash_chain.h"

namespace viewmap::dsrc {

/// Exact serialized size of a VD frame (§6.1).
inline constexpr std::size_t kViewDigestWireSize = 72;

struct ViewDigest {
  TimeSec time = 0;            ///< T_i — second this digest covers
  float loc_x = 0.0f;          ///< L_i — broadcaster position (m)
  float loc_y = 0.0f;
  std::uint64_t file_size = 0; ///< F_i — cumulative video bytes
  float initial_x = 0.0f;      ///< L_1 — video's start position (guard-VP seed)
  float initial_y = 0.0f;
  Id16 vp_id;                  ///< R_u
  Hash16 hash;                 ///< H_i — cascaded hash
  std::uint16_t second = 0;    ///< i ∈ [1, 60]

  friend bool operator==(const ViewDigest&, const ViewDigest&) = default;

  /// 72-byte wire frame; also the Bloom-filter element for neighbor
  /// summaries (both sides must serialize identically for the membership
  /// check to work, so the element *is* the frame). Returned by value in
  /// the caller's storage: no allocation.
  [[nodiscard]] std::array<std::uint8_t, kViewDigestWireSize> serialize() const;

  /// Parses a frame. Throws std::invalid_argument on bad size and
  /// std::out_of_range on truncation.
  static ViewDigest parse(std::span<const std::uint8_t> frame);

  /// Metadata view used by the hash chain.
  [[nodiscard]] crypto::ChainStepMeta chain_meta() const noexcept {
    return {time, loc_x, loc_y, file_size};
  }
};

/// The plausibility window the *receiver* applies before accepting a VD
/// (§5.1.1 "Accepting neighbor VDs"): a timestamp within 1 s of `now`,
/// and a claimed location within the DSRC radio radius (kRadioRangeM,
/// dsrc/radio.h) of the receiver at (rx_x, rx_y).
[[nodiscard]] bool vd_acceptable(const ViewDigest& vd, TimeSec now, double rx_x,
                                 double rx_y) noexcept;

}  // namespace viewmap::dsrc
