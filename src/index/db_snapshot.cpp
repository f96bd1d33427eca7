#include "index/db_snapshot.h"

#include <algorithm>

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
  for (const auto* profile : ordered) sink(profile->serialize());

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

Hash32 TimeShard::cache_key() const {
  {
    std::lock_guard lock(digest_mutex_);
    if (digest_valid_) return digest_;
  }
  // Digest not known: encode the generation stamp. The tag byte keeps the
  // encoding out of the zero-hash key reserved for "no shard", and a real
  // SHA-256 digest landing on a stamp encoding (22 fixed zero bytes)
  // happens with probability ~2^-176 — never by construction.
  Hash32 key;
  const std::uint64_t g = generation_;
  for (std::size_t i = 0; i < 8; ++i)
    key.bytes[i] = static_cast<std::uint8_t>(g >> (8 * i));
  key.bytes[31] = 0x67;  // 'g' — generation-stamp key, not a digest
  return key;
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

std::optional<Hash32> DbSnapshot::shard_cache_key(TimeSec unit_time) const {
  const std::shared_ptr<const TimeShard> s = shard(unit_time);
  if (s == nullptr) return std::nullopt;
  return s->cache_key();
}

const vp::ViewProfile* DbSnapshot::find(const Id16& vp_id) const {
  if (!state_) return nullptr;
  const State* s = state_.get();
  std::call_once(s->id_index_once, [s] {
    s->id_index.reserve(s->vp_count);
    // Shard order ⇒ a duplicate id keeps its earliest-unit-time profile,
    // matching the per-shard probe this index replaced.
    for (const auto& shard : s->shards)
      for (const auto& [id, profile] : shard->profiles)
        s->id_index.emplace(id, profile.get());
  });
  const auto it = s->id_index.find(vp_id);
  return it == s->id_index.end() ? nullptr : it->second;
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
  shard->grid.collect_candidates(area, out);
  // The grid yields a cell-granular superset; finish with the exact
  // predicate so results match the reference linear scan bit-for-bit.
  std::erase_if(out, [&](const vp::ViewProfile* p) { return !p->visits(area); });
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

std::vector<Id16> DbSnapshot::trusted_ids() const {
  std::vector<Id16> out;
  if (!state_) return out;
  out.reserve(state_->trusted_count);
  for (const auto& shard : state_->shards) {
    const std::size_t first = out.size();
    for (const Id16& id : shard->trusted) out.push_back(id);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
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
