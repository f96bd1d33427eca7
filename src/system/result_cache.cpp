#include "system/result_cache.h"

#include <array>
#include <bit>
#include <utility>

#include "obs/metrics.h"

namespace viewmap::sys {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// The key as hashing and equality both read it: the site's doubles by
/// bit pattern, so +0.0 and −0.0 differ and a NaN site equals itself.
std::array<std::uint64_t, 6> key_words(const ResultCache::Key& k) noexcept {
  return {static_cast<std::uint64_t>(k.unit_time),
          std::bit_cast<std::uint64_t>(k.site.min.x),
          std::bit_cast<std::uint64_t>(k.site.min.y),
          std::bit_cast<std::uint64_t>(k.site.max.x),
          std::bit_cast<std::uint64_t>(k.site.max.y),
          k.generation};
}

}  // namespace

bool operator==(const ResultCache::Key& a, const ResultCache::Key& b) noexcept {
  return key_words(a) == key_words(b);
}

std::size_t ResultCache::KeyHasher::operator()(const Key& k) const noexcept {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t w : key_words(k)) h = fnv_u64(h, w);
  return static_cast<std::size_t>(h);
}

ResultCache::ResultCache(obs::MetricsRegistry& registry,
                         const ResultCacheConfig& cfg)
    : cfg_(cfg),
      hits_c_(&registry.counter("viewmap_cache_hits_total")),
      misses_c_(&registry.counter("viewmap_cache_misses_total")),
      insertions_c_(&registry.counter("viewmap_cache_insertions_total")),
      evictions_c_(&registry.counter("viewmap_cache_evictions_total")),
      bytes_g_(&registry.gauge("viewmap_cache_bytes")),
      entries_g_(&registry.gauge("viewmap_cache_entries")) {}

std::size_t ResultCache::estimate_bytes(const CachedInvestigation& e) noexcept {
  const Viewmap& map = e.viewmap;
  const VerificationResult& v = e.verification;
  std::size_t n = 0;
  n += map.size() * sizeof(void*);        // member pointer array
  n += map.size() / 8 + 8;                // trusted bitset
  n += map.graph().offsets().size() * sizeof(std::size_t);
  n += map.graph().edges().size() * sizeof(std::uint32_t);
  n += (v.site_members.size() + v.legitimate.size() + v.rejected.size()) *
       sizeof(std::size_t);
  n += v.ranks.scores.size() * sizeof(double);
  n += e.solicited.size() * sizeof(Id16);
  n += 320;  // node, map slot, control blocks, vector headers
  return n;
}

std::shared_ptr<const CachedInvestigation> ResultCache::find(const Key& key) {
  if (!enabled()) return nullptr;
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second.list == ListId::kB1 ||
      it->second.list == ListId::kB2) {
    // A ghost hit is still a miss for the caller; the adaptive nudge
    // happens when the rebuilt entry comes back through insert().
    misses_c_->add();
    return nullptr;
  }
  Slot& slot = it->second;
  // Second touch: whatever list it was on, it is frequent now.
  if (slot.list == ListId::kT1) {
    t1_bytes_ -= slot.it->bytes;
    t2_bytes_ += slot.it->bytes;
    t2_.splice(t2_.begin(), t1_, slot.it);
    slot.list = ListId::kT2;
  } else {
    t2_.splice(t2_.begin(), t2_, slot.it);
  }
  hits_c_->add();
  return slot.it->value;  // the report copy happens outside the lock
}

void ResultCache::insert(const Key& key, std::shared_ptr<CachedInvestigation> value) {
  if (!enabled() || value == nullptr) return;
  const std::size_t bytes = estimate_bytes(*value);
  value->bytes = bytes;
  if (bytes > cfg_.capacity_bytes) return;  // would evict the whole cache
  std::shared_ptr<const CachedInvestigation> stored = std::move(value);

  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    switch (it->second.list) {
      case ListId::kT1:
      case ListId::kT2:
        // Already resident: a racing builder got here first with a
        // bit-identical report (same generation ⇒ same inputs). Keep it.
        return;
      case ListId::kB1:
        // The recency list would have kept this key — grow its share.
        p_ = std::min(cfg_.capacity_bytes, p_ + std::max<std::size_t>(bytes, 1));
        detach(key, ListId::kB1, it->second.it);
        break;
      case ListId::kB2:
        // The frequency list would have kept it — shrink T1's share.
        p_ = p_ > bytes ? p_ - bytes : 0;
        detach(key, ListId::kB2, it->second.it);
        break;
    }
    // A ghost re-insert was "seen twice": resident on T2.
    t2_.push_front(Node{key, std::move(stored), bytes});
    t2_bytes_ += bytes;
    index_.emplace(key, Slot{ListId::kT2, t2_.begin()});
  } else {
    t1_.push_front(Node{key, std::move(stored), bytes});
    t1_bytes_ += bytes;
    index_.emplace(key, Slot{ListId::kT1, t1_.begin()});
  }
  insertions_c_->add();
  enforce_bounds();
  publish_gauges();
}

void ResultCache::clear() {
  std::lock_guard lock(mu_);
  index_.clear();
  t1_.clear();
  t2_.clear();
  b1_.clear();
  b2_.clear();
  t1_bytes_ = t2_bytes_ = b1_bytes_ = b2_bytes_ = 0;
  p_ = 0;
  publish_gauges();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.hits = hits_c_->value();
  s.misses = misses_c_->value();
  s.insertions = insertions_c_->value();
  s.evictions = evictions_c_->value();
  s.resident_bytes = t1_bytes_ + t2_bytes_;
  s.resident_entries = t1_.size() + t2_.size();
  s.ghost_entries = b1_.size() + b2_.size();
  return s;
}

void ResultCache::detach(const Key& key, ListId list, NodeList::iterator it) {
  switch (list) {
    case ListId::kT1: t1_bytes_ -= it->bytes; t1_.erase(it); break;
    case ListId::kT2: t2_bytes_ -= it->bytes; t2_.erase(it); break;
    case ListId::kB1: b1_bytes_ -= it->bytes; b1_.erase(it); break;
    case ListId::kB2: b2_bytes_ -= it->bytes; b2_.erase(it); break;
  }
  index_.erase(key);
}

void ResultCache::evict_one_resident() {
  // ARC replace(): T1 yields while it holds more than its target p,
  // T2 yields otherwise. The evicted key leaves a ghost with its byte
  // weight so a later re-insert can steer p.
  const bool from_t1 = !t1_.empty() && (t1_bytes_ > p_ || t2_.empty());
  NodeList& from = from_t1 ? t1_ : t2_;
  NodeList& ghost = from_t1 ? b1_ : b2_;
  auto victim = std::prev(from.end());
  const std::size_t bytes = victim->bytes;
  victim->value.reset();  // the report itself (and its pinned shard) dies here
  ghost.splice(ghost.begin(), from, victim);
  index_[victim->key] = Slot{from_t1 ? ListId::kB1 : ListId::kB2, victim};
  if (from_t1) {
    t1_bytes_ -= bytes;
    b1_bytes_ += bytes;
  } else {
    t2_bytes_ -= bytes;
    b2_bytes_ += bytes;
  }
  evictions_c_->add();
}

void ResultCache::drop_ghost_lru(NodeList& list, std::size_t& bytes) {
  auto victim = std::prev(list.end());
  bytes -= victim->bytes;
  index_.erase(victim->key);
  list.erase(victim);
}

void ResultCache::enforce_bounds() {
  // Hard invariant first: resident bytes never exceed the budget.
  while (t1_bytes_ + t2_bytes_ > cfg_.capacity_bytes && !(t1_.empty() && t2_.empty()))
    evict_one_resident();
  // Ghost bounds (classic ARC, in bytes): |T1|+|B1| ≤ c, total ≤ 2c.
  while (t1_bytes_ + b1_bytes_ > cfg_.capacity_bytes && !b1_.empty())
    drop_ghost_lru(b1_, b1_bytes_);
  while (t1_bytes_ + t2_bytes_ + b1_bytes_ + b2_bytes_ > 2 * cfg_.capacity_bytes &&
         !b2_.empty())
    drop_ghost_lru(b2_, b2_bytes_);
}

void ResultCache::publish_gauges() const {
  bytes_g_->set(static_cast<std::int64_t>(t1_bytes_ + t2_bytes_));
  entries_g_->set(static_cast<std::int64_t>(t1_.size() + t2_.size()));
}

}  // namespace viewmap::sys
