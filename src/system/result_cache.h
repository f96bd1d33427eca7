// ResultCache — generation-keyed cache of completed investigations.
//
// A public service at scale sees hot incidents: many overlapping
// (site, unit-time) requests while the underlying minute shards rarely
// change. The shard's change stamp (TimeShard::generation,
// index/db_snapshot.h — O(1), redrawn by every mutation) makes exact
// invalidation free: two investigations with the same site rectangle,
// the same unit-time, and the same shard generation consume
// byte-identical inputs, so the second one can return the first one's
// report verbatim — no member select, no grid candidate pass, no edge
// build, no power iteration.
// Any ingest or eviction touching the minute changes the key, which
// misses (a checkpoint changes no key); stale entries are never
// *served*, only aged out.
//
// Replacement is one least-recently-used list bounded in bytes: a hit
// moves its entry to the front, and an insert evicts from the back until
// the resident bytes fit capacity_bytes.
//
// An entry shares its viewmap's CSR with the report that seeded it and
// with every report served from it (Viewmap holds the graph behind a
// shared_ptr), so an insert or a hit copies the member, verdict and
// solicitation arrays, never the edge array.
//
// Thread-safety: one mutex guards the list and the key map. The stored
// reports are shared_ptr<const …>, so the report copy on a hit happens
// outside the lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "geo/geometry.h"
#include "system/verifier.h"
#include "system/viewmap_graph.h"

namespace viewmap::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace viewmap::obs

namespace viewmap::sys {

struct ResultCacheConfig {
  /// Resident-entry byte budget (estimate_bytes accounting). 0 disables
  /// the cache: find() always misses without counting, insert() is a
  /// no-op, and the service behaves exactly as it does without a cache.
  std::size_t capacity_bytes = 64u << 20;
};

/// The cacheable part of an InvestigationReport. The trace is excluded
/// deliberately: it is timing-valued and records the serving path (a
/// cached report's new trace says "result_cache_hit" instead of the
/// build spans), so report bit-identity is defined over these three
/// fields. The Viewmap pins its minute's shard, so a cached entry keeps
/// that shard's profiles alive until evicted — bounded by the entry
/// count times the shard size, see src/system/README.md.
struct CachedInvestigation {
  Viewmap viewmap;
  VerificationResult verification;
  std::vector<Id16> solicited;
};

class ResultCache {
 public:
  /// (site cell, unit-time, shard generation) — the full input
  /// fingerprint of one investigation. `generation` is
  /// DbSnapshot::shard_generation() of the minute, or 0 when the
  /// snapshot holds no shard for it (stamps start at 1).
  struct Key {
    geo::Rect site{};
    TimeSec unit_time = 0;
    std::uint64_t generation = 0;

    /// Bitwise, the same definition KeyHasher hashes: a NaN site equals
    /// itself, and +0.0 and −0.0 sites are different keys.
    friend bool operator==(const Key& a, const Key& b) noexcept;
  };

  struct KeyHasher {
    std::size_t operator()(const Key& k) const noexcept;
  };

  /// The cache's figures (see stats()): the four counters as the
  /// registry holds them, the resident figures from the list.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t resident_bytes = 0;
    std::size_t resident_entries = 0;
  };

  /// Registers the viewmap_cache_* counters and gauges in `registry`
  /// (not owned; must outlive the cache) and publishes into them always.
  /// The registry is the only place the counters live, so two caches
  /// sharing one registry share their counters.
  explicit ResultCache(obs::MetricsRegistry& registry,
                       const ResultCacheConfig& cfg = {});

  [[nodiscard]] bool enabled() const noexcept { return cfg_.capacity_bytes > 0; }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return cfg_.capacity_bytes;
  }

  /// Hit: moves the entry to the front of the list and returns it. Miss
  /// (or disabled): null. Never blocks on anything but the cache mutex.
  [[nodiscard]] std::shared_ptr<const CachedInvestigation> find(const Key& key);

  /// Inserts a freshly built report at the front, then evicts from the
  /// back until the resident bytes fit the budget. A key already
  /// resident is left as is (two racing builders produced bit-identical
  /// reports — the generation key guarantees it — so first-in wins). Entries
  /// larger than the whole budget are not cached. No-op when disabled.
  void insert(const Key& key, std::shared_ptr<const CachedInvestigation> value);

  /// Drops everything (tests, operator reset). The counters survive.
  void clear();

  /// Reads the hit/miss/insertion/eviction counters from the registry and
  /// the resident figures from the list, all under the cache
  /// mutex — every counter bump happens under it too, so one Stats is a
  /// consistent cut.
  [[nodiscard]] Stats stats() const;

  /// Byte cost of one cached entry: the report's arrays plus a fixed
  /// per-entry overhead. The CSR counted here is shared with the live
  /// reports of the same build, so while one of them lives the entry
  /// costs less than its estimate. Deliberately excludes the pinned
  /// shard (shared across entries of the same minute; documented
  /// separately).
  [[nodiscard]] static std::size_t estimate_bytes(const CachedInvestigation& e) noexcept;

 private:
  struct Node {
    Key key;
    std::shared_ptr<const CachedInvestigation> value;
    std::size_t bytes = 0;  ///< estimate_bytes(*value), fixed at insert
  };

  void publish_gauges() const;  // assumes mu_ is held

  ResultCacheConfig cfg_;

  mutable std::mutex mu_;
  std::list<Node> lru_;  ///< most recently used at the front
  std::unordered_map<Key, std::list<Node>::iterator, KeyHasher> index_;
  std::size_t bytes_ = 0;  ///< sum of the resident nodes' bytes

  // Registry handles, resolved once in the constructor.
  obs::Counter* hits_c_ = nullptr;
  obs::Counter* misses_c_ = nullptr;
  obs::Counter* insertions_c_ = nullptr;
  obs::Counter* evictions_c_ = nullptr;
  obs::Gauge* bytes_g_ = nullptr;
  obs::Gauge* entries_g_ = nullptr;
};

}  // namespace viewmap::sys
