#include "vp/vp_builder.h"

#include <stdexcept>

namespace viewmap::vp {

VpBuilder::VpBuilder(TimeSec minute_start, Rng& rng)
    : secret_(make_vp_secret(rng)),
      vp_id_(secret_.vp_id()),
      minute_start_(minute_start),
      hasher_(vp_id_) {
  if (minute_start != unit_start(minute_start))
    throw std::invalid_argument("VpBuilder: minute_start not on a unit boundary");
  own_digests_.reserve(kDigestsPerProfile);
}

dsrc::ViewDigest VpBuilder::tick(geo::Vec2 position,
                                 std::span<const std::uint8_t> chunk) {
  if (second_ >= kDigestsPerProfile)
    throw std::logic_error("VpBuilder: minute already complete");
  if (second_ == 0) initial_pos_ = position;
  ++second_;
  file_size_ += chunk.size();

  dsrc::ViewDigest vd;
  vd.time = minute_start_ + second_;  // T_i at the end of second i
  vd.loc_x = static_cast<float>(position.x);
  vd.loc_y = static_cast<float>(position.y);
  vd.file_size = file_size_;
  vd.initial_x = static_cast<float>(initial_pos_.x);
  vd.initial_y = static_cast<float>(initial_pos_.y);
  vd.vp_id = vp_id_;
  vd.second = static_cast<std::uint16_t>(second_);
  vd.hash = hasher_.step(vd.chain_meta(), chunk);
  own_digests_.push_back(vd);
  return vd;
}

bool VpBuilder::accept_neighbor(const dsrc::ViewDigest& vd, geo::Vec2 own_position) {
  if (vd.vp_id == vp_id_) return false;  // own echo
  const TimeSec now = minute_start_ + second_;
  if (!dsrc::vd_acceptable(vd, now, own_position.x, own_position.y)) return false;

  auto it = neighbors_.find(vd.vp_id);
  if (it == neighbors_.end()) {
    if (neighbors_.size() >= kMaxNeighbors) return false;  // §6.3.2 fn.10
    neighbors_.emplace(vd.vp_id, NeighborRecord{vd, std::nullopt});
  } else {
    it->second.last = vd;  // keep first; latest received becomes "last"
  }
  return true;
}

VpGenerationResult VpBuilder::finish() {
  if (second_ != kDigestsPerProfile)
    throw std::logic_error("VpBuilder: finish before 60 ticks");

  bloom::BloomFilter filter(kBloomBits, kBloomHashes);
  std::vector<NeighborRecord> records;
  records.reserve(neighbors_.size());
  for (auto& [id, rec] : neighbors_) {
    filter.insert(rec.first.serialize());
    if (rec.last) filter.insert(rec.last->serialize());
    records.push_back(rec);
  }

  VpGenerationResult result{
      ViewProfile(std::move(own_digests_), std::move(filter)), secret_,
      std::move(records)};
  // Reset to a safe moved-from state; the builder is spent.
  second_ = kDigestsPerProfile;
  neighbors_.clear();
  return result;
}

}  // namespace viewmap::vp
