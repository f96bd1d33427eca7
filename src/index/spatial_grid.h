// Uniform-grid spatial index over claimed VP locations (one per shard).
//
// Investigations ask for "every VP with a claimed location inside this
// site rectangle" (§5.2.1). A VP claims 60 positions — one per second of
// its minute — so the grid maps each distinct cell a trajectory touches to
// the VPs that touch it. Queries collect the cells overlapping the site
// and return a *candidate superset*: every VP that visits the area is
// returned, some returned VPs may only pass near it. Callers finish with
// the exact `ViewProfile::visits()` predicate, so index and linear scan
// agree bit-for-bit (property-tested in tests/index_test.cpp).
//
// The cell pitch is 250 m — one city block in the simulated grid city and
// well under the 400 m DSRC radius, so a typical investigation site
// touches a handful of cells.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "geo/geometry.h"
#include "vp/view_profile.h"

namespace viewmap::index {

/// Pitch of every shard's SpatialGrid, in meters.
inline constexpr double kShardGridCellM = 250.0;

// ── shared uniform-grid cell math ────────────────────────────────────
// Every grid in the system (the per-shard SpatialGrid below, the
// viewmap builder's per-build candidate grid) keys cells by packed
// signed 32-bit coordinates, clamped identically on insert and query so
// a clamped outlier still lands in the cell a clamped query covers.

/// Cell coordinate of a position along one axis, for pitch `cell_m`.
[[nodiscard]] inline std::int32_t grid_cell_coord(double meters, double cell_m) noexcept {
  const double c = std::floor(meters / cell_m);
  if (c <= static_cast<double>(std::numeric_limits<std::int32_t>::min()))
    return std::numeric_limits<std::int32_t>::min();
  if (c >= static_cast<double>(std::numeric_limits<std::int32_t>::max()))
    return std::numeric_limits<std::int32_t>::max();
  return static_cast<std::int32_t>(c);
}

/// Packs a cell coordinate pair into one 64-bit hash key.
[[nodiscard]] constexpr std::uint64_t grid_pack_cell(std::int32_t cx,
                                                     std::int32_t cy) noexcept {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32 |
         static_cast<std::uint32_t>(cy);
}

/// Inverse of grid_pack_cell: (cx, cy) of a packed key.
[[nodiscard]] constexpr std::int32_t grid_cell_x(std::uint64_t key) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(key >> 32));
}
[[nodiscard]] constexpr std::int32_t grid_cell_y(std::uint64_t key) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(key));
}

class SpatialGrid {
 public:
  /// Registers every distinct cell of the profile's claimed trajectory.
  /// The pointer must stay valid for the grid's lifetime (shards own their
  /// profiles in a node-based map, so pointers are stable).
  void insert(const vp::ViewProfile* profile);

  /// Removes every reference to the profile (also after a partial,
  /// exception-interrupted insert — the shard commit's rollback path).
  void erase(const vp::ViewProfile* profile) noexcept;

  /// Appends all VPs whose trajectory touches a cell overlapping `area`
  /// (deduplicated; superset of the exact answer). When the rectangle
  /// spans more cells than the grid holds, falls back to scanning the
  /// occupied cells instead of the rectangle.
  void collect_candidates(const geo::Rect& area,
                          std::vector<const vp::ViewProfile*>& out) const;

  [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }
  /// Total (cell, VP) incidences — gauges trajectory spread vs cell size.
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_; }

 private:
  using CellKey = std::uint64_t;

  static std::int32_t cell_coord(double meters) noexcept {
    return grid_cell_coord(meters, kShardGridCellM);
  }
  static CellKey pack(std::int32_t cx, std::int32_t cy) noexcept {
    return grid_pack_cell(cx, cy);
  }

  std::unordered_map<CellKey, std::vector<const vp::ViewProfile*>> cells_;
  std::size_t entries_ = 0;
};

}  // namespace viewmap::index
