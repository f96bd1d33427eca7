#include "index/db_snapshot.h"

#include <algorithm>
#include <array>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace viewmap::index {

namespace {

bool id_less(const vp::ViewProfile* a, const vp::ViewProfile* b) {
  return a->vp_id() < b->vp_id();
}

}  // namespace

void TimeShard::stream_content(
    const std::function<void(std::span<const std::uint8_t>)>& sink) const {
  ByteWriter header(24);
  header.put_i64(unit_time);
  header.put_u64(profiles.size());
  header.put_u64(trusted.size());
  sink(header.bytes());

  // Deterministic order: ascending id, matching DbSnapshot::all() within
  // one shard.
  std::vector<const vp::ViewProfile*> ordered;
  ordered.reserve(profiles.size());
  for (const auto& [id, profile] : profiles) ordered.push_back(profile.get());
  std::sort(ordered.begin(), ordered.end(), id_less);
  // One buffer for every profile: the sink consumes each chunk before
  // the next serialize_into overwrites it.
  std::array<std::uint8_t, vp::kVpWireSize> wire{};
  for (const auto* profile : ordered) {
    profile->serialize_into(wire);
    sink(wire);
  }

  std::vector<Id16> trusted_ordered(trusted.begin(), trusted.end());
  std::sort(trusted_ordered.begin(), trusted_ordered.end());
  for (const Id16& id : trusted_ordered) sink(id.bytes);
}

Hash32 TimeShard::content_digest() const {
  std::lock_guard lock(digest_mutex_);
  if (digest_valid_) return digest_;
  crypto::Sha256 hasher;
  stream_content([&hasher](std::span<const std::uint8_t> chunk) { hasher.update(chunk); });
  digest_ = hasher.finish();
  digest_valid_ = true;
  return digest_;
}

std::uint64_t TimeShard::next_generation() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

const TimeShard* DbSnapshot::shard_at(TimeSec unit_time) const noexcept {
  // The raw pointer stays valid: state_ owns the shard either way.
  return shard(unit_time).get();
}

std::shared_ptr<const TimeShard> DbSnapshot::shard(TimeSec unit_time) const noexcept {
  if (!state_) return nullptr;
  const auto& shards = state_->shards;
  auto it = std::lower_bound(
      shards.begin(), shards.end(), unit_time,
      [](const std::shared_ptr<const TimeShard>& s, TimeSec t) { return s->unit_time < t; });
  if (it == shards.end() || (*it)->unit_time != unit_time) return nullptr;
  return *it;
}

std::optional<std::uint64_t> DbSnapshot::shard_generation(TimeSec unit_time) const {
  const TimeShard* s = shard_at(unit_time);
  if (s == nullptr) return std::nullopt;
  return s->generation();
}

bool DbSnapshot::is_trusted(const Id16& vp_id) const noexcept {
  if (!state_) return false;
  for (const auto& shard : state_->shards)
    if (shard->trusted.contains(vp_id)) return true;
  return false;
}

std::vector<const vp::ViewProfile*> DbSnapshot::query(TimeSec unit_time,
                                                      const geo::Rect& area) const {
  std::vector<const vp::ViewProfile*> out;
  const TimeShard* shard = shard_at(unit_time);
  if (shard == nullptr) return out;
  for (const auto& [id, profile] : shard->profiles)
    if (profile->visits(area)) out.push_back(profile.get());
  std::sort(out.begin(), out.end(), id_less);
  return out;
}

std::vector<const vp::ViewProfile*> DbSnapshot::trusted_at(TimeSec unit_time) const {
  std::vector<const vp::ViewProfile*> out;
  const TimeShard* shard = shard_at(unit_time);
  if (shard == nullptr) return out;
  out.reserve(shard->trusted.size());
  for (const Id16& id : shard->trusted) out.push_back(shard->profiles.at(id).get());
  std::sort(out.begin(), out.end(), id_less);
  return out;
}

std::vector<const vp::ViewProfile*> DbSnapshot::all() const {
  std::vector<const vp::ViewProfile*> out;
  if (!state_) return out;
  out.reserve(state_->vp_count);
  // Shards are unit-time-ordered already; sort within each shard by id.
  for (const auto& shard : state_->shards) {
    const std::size_t first = out.size();
    for (const auto& [id, profile] : shard->profiles) out.push_back(profile.get());
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(), id_less);
  }
  return out;
}

std::size_t DbSnapshot::size() const noexcept { return state_ ? state_->vp_count : 0; }

std::size_t DbSnapshot::trusted_count() const noexcept {
  return state_ ? state_->trusted_count : 0;
}

TimeSec DbSnapshot::trusted_now() const noexcept {
  return state_ ? state_->clock : std::numeric_limits<TimeSec>::min();
}

std::vector<ShardStats> DbSnapshot::shard_stats() const {
  std::vector<ShardStats> out;
  if (!state_) return out;
  out.reserve(state_->shards.size());
  for (const auto& shard : state_->shards) out.push_back(shard->stats());
  return out;
}

std::size_t DbSnapshot::shard_count() const noexcept {
  return state_ ? state_->shards.size() : 0;
}

std::vector<DbSnapshot::ShardDigest> DbSnapshot::shard_digests() const {
  std::vector<ShardDigest> out;
  if (!state_) return out;
  out.reserve(state_->shards.size());
  for (const auto& shard : state_->shards)
    out.push_back({shard->unit_time, shard->content_digest()});
  return out;
}

std::vector<std::uint8_t> DbSnapshot::canonical_bytes() const {
  ByteWriter out;
  for (const auto& shard : shards())
    shard->stream_content([&out](std::span<const std::uint8_t> chunk) { out.put_bytes(chunk); });
  out.put_i64(trusted_now());
  return std::move(out).take();
}

std::span<const std::shared_ptr<const TimeShard>> DbSnapshot::shards() const noexcept {
  if (!state_) return {};
  return state_->shards;
}

}  // namespace viewmap::index
