#include "system/vp_database.h"

namespace viewmap::sys {

bool VpDatabase::upload(vp::ViewProfile profile) {
  if (!policy_.well_formed(profile)) return false;
  // Anonymous claims outside the plausible window around the trusted
  // clock never enter a shard (and never influence retention).
  if (!timeline_.admissible(profile.unit_time())) return false;
  return timeline_.insert(std::move(profile), /*trusted=*/false);
}

bool VpDatabase::upload_trusted(vp::ViewProfile profile) {
  if (!policy_.well_formed(profile)) return false;
  return timeline_.insert(std::move(profile), /*trusted=*/true);
}

bool VpDatabase::is_trusted(const Id16& vp_id) const noexcept {
  return timeline_.is_trusted(vp_id);
}

}  // namespace viewmap::sys
