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
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_c_->add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_c_->add();
  return it->second->value;  // the report copy happens outside the lock
}

void ResultCache::insert(const Key& key,
                         std::shared_ptr<const CachedInvestigation> value) {
  if (!enabled() || value == nullptr) return;
  const std::size_t bytes = estimate_bytes(*value);
  if (bytes > cfg_.capacity_bytes) return;  // would evict the whole cache

  std::lock_guard lock(mu_);
  // Already resident: a racing builder got here first with a
  // bit-identical report (same generation ⇒ same inputs). Keep it.
  if (index_.contains(key)) return;
  lru_.push_front(Node{key, std::move(value), bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  insertions_c_->add();
  while (bytes_ > cfg_.capacity_bytes) {
    const Node& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();  // the report itself (and its pinned shard) dies here
    evictions_c_->add();
  }
  publish_gauges();
}

void ResultCache::clear() {
  std::lock_guard lock(mu_);
  index_.clear();
  lru_.clear();
  bytes_ = 0;
  publish_gauges();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.hits = hits_c_->value();
  s.misses = misses_c_->value();
  s.insertions = insertions_c_->value();
  s.evictions = evictions_c_->value();
  s.resident_bytes = bytes_;
  s.resident_entries = lru_.size();
  return s;
}

void ResultCache::publish_gauges() const {
  bytes_g_->set(static_cast<std::int64_t>(bytes_));
  entries_g_->set(static_cast<std::int64_t>(lru_.size()));
}

}  // namespace viewmap::sys
