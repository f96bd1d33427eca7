// Concrete fake View Profiles (full-protocol attacks).
//
// For end-to-end tests the abstract graphs are not enough: these builders
// produce real ViewProfile objects that cheat locations/times (§6.3.1) or
// saturate Bloom filters (§6.3.2), to be thrown at the real upload,
// viewmap-construction, and verification pipeline.
#pragma once

#include "common/rng.h"
#include "common/types.h"
#include "geo/geometry.h"
#include "vp/view_profile.h"

namespace viewmap::attack {

/// A structurally well-formed VP claiming a straight-line trajectory
/// start→end over the given minute, with random hash fields (there is no
/// video) and an empty neighbor Bloom filter. Passes vp::well_formed as
/// long as the implied speed is plausible.
[[nodiscard]] vp::ViewProfile make_fake_profile(TimeSec minute_start, geo::Vec2 start,
                                                geo::Vec2 end, Rng& rng);

/// Forges a two-way viewlink between two attacker-controlled profiles by
/// inserting each other's boundary VDs — exactly what colluders can do,
/// and what they cannot do to an honest third party's profile.
inline void forge_link(vp::ViewProfile& a, vp::ViewProfile& b) {
  vp::link_mutually(a, b);
}

/// §6.3.2 "all-ones bit-array" attacker: claims neighborship with the
/// whole world by saturating its Bloom filter.
[[nodiscard]] vp::ViewProfile make_saturated_profile(TimeSec minute_start,
                                                     geo::Vec2 start, geo::Vec2 end,
                                                     Rng& rng);

}  // namespace viewmap::attack
