// Fundamental value types shared across all ViewMap modules.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace viewmap {

/// Wall-clock time in whole seconds since an arbitrary epoch.
/// ViewMap slices time into 60-second "unit times"; videos start on the
/// minute (paper §5.1.1, GPS-synchronized recording).
using TimeSec = std::int64_t;

/// Duration of one video unit / one viewmap slice (paper: 1 minute).
inline constexpr TimeSec kUnitTimeSec = 60;

/// Seconds-within-unit index i runs 1..60 in the paper's notation.
inline constexpr int kDigestsPerProfile = 60;

/// The earliest minute start TimeSec can hold: its minimum rounded
/// toward zero to a whole unit. The seconds before it belong to a
/// minute that starts outside the range.
inline constexpr TimeSec kFirstUnitStart =
    std::numeric_limits<TimeSec>::min() / kUnitTimeSec * kUnitTimeSec;

/// Start of the unit-time (minute) containing `t`. Requires
/// t >= kFirstUnitStart; callers taking `t` from a request check it.
constexpr TimeSec unit_start(TimeSec t) noexcept {
  return t - (t % kUnitTimeSec + kUnitTimeSec) % kUnitTimeSec;
}

/// 16-byte opaque identifier. Used for VP identifiers R = H(Q) truncated
/// to 128 bits (paper §6.1: VP identifier field is 16 bytes).
struct Id16 {
  std::array<std::uint8_t, 16> bytes{};

  friend bool operator==(const Id16&, const Id16&) = default;
  friend auto operator<=>(const Id16&, const Id16&) = default;

  [[nodiscard]] bool is_zero() const noexcept {
    for (auto b : bytes)
      if (b != 0) return false;
    return true;
  }
};

/// 16-byte truncated hash value (cascaded VD hash field, §6.1).
struct Hash16 {
  std::array<std::uint8_t, 16> bytes{};

  friend bool operator==(const Hash16&, const Hash16&) = default;
  friend auto operator<=>(const Hash16&, const Hash16&) = default;
};

/// Full SHA-256 digest.
struct Hash32 {
  std::array<std::uint8_t, 32> bytes{};

  friend bool operator==(const Hash32&, const Hash32&) = default;
  friend auto operator<=>(const Hash32&, const Hash32&) = default;

  /// First 16 bytes; ViewMap's wire formats carry truncated hashes.
  [[nodiscard]] Hash16 truncated() const noexcept {
    Hash16 h;
    for (int i = 0; i < 16; ++i) h.bytes[static_cast<std::size_t>(i)] = bytes[static_cast<std::size_t>(i)];
    return h;
  }
};

/// Identifier of a vehicle inside the simulator. Never leaves a vehicle:
/// the ViewMap system must not learn it (that is the point of the paper).
using VehicleId = std::uint32_t;

struct Id16Hasher {
  std::size_t operator()(const Id16& id) const noexcept {
    std::uint64_t x;
    static_assert(sizeof x <= sizeof id.bytes);
    __builtin_memcpy(&x, id.bytes.data(), sizeof x);
    return std::hash<std::uint64_t>{}(x);
  }
};

}  // namespace viewmap
