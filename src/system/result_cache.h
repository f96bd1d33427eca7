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
// Replacement is ARC-style (modeled on the NDN-DPDK content store's
// direct/indirect lists), adapted to byte accounting: resident entries
// live on a recency list (T1, seen once) or a frequency list (T2, seen
// twice or more); evicted keys leave a byte-free ghost on B1/B2, and a
// re-insert that hits a ghost steers the adaptive target `p` toward the
// list that would have kept it. Resident bytes never exceed
// capacity_bytes; ghosts are bounded by the same budget again.
//
// Thread-safety: one mutex guards the lists and the key map. The stored
// reports are shared_ptr<const …>, so the (comparatively expensive)
// report copy on a hit happens outside the lock.
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
  /// estimate_bytes() of the three fields above, fixed at insert.
  std::size_t bytes = 0;
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
  /// registry holds them, the resident/ghost figures from the lists.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;   ///< resident entries pushed out (to ghosts)
    std::size_t resident_bytes = 0;
    std::size_t resident_entries = 0;
    std::size_t ghost_entries = 0;
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

  /// Hit: promotes the entry to the frequency list's MRU position and
  /// returns it. Miss (or disabled): null. Never blocks on anything but
  /// the cache mutex.
  [[nodiscard]] std::shared_ptr<const CachedInvestigation> find(const Key& key);

  /// Inserts a freshly built report. Sets value->bytes. A key already
  /// resident is left as is (two racing builders produced bit-identical
  /// reports — the generation key guarantees it — so first-in wins). Entries
  /// larger than the whole budget are not cached. No-op when disabled.
  void insert(const Key& key, std::shared_ptr<CachedInvestigation> value);

  /// Drops everything (tests, operator reset). The counters survive.
  void clear();

  /// Reads the hit/miss/insertion/eviction counters from the registry and
  /// the resident and ghost figures from the lists, all under the cache
  /// mutex — every counter bump happens under it too, so one Stats is a
  /// consistent cut.
  [[nodiscard]] Stats stats() const;

  /// Byte cost of one cached entry: the report's owned arrays plus a
  /// fixed per-entry overhead. Deliberately excludes the pinned shard
  /// (shared across entries of the same minute; documented separately).
  [[nodiscard]] static std::size_t estimate_bytes(const CachedInvestigation& e) noexcept;

 private:
  enum class ListId : std::uint8_t { kT1, kT2, kB1, kB2 };

  struct Node {
    Key key;
    std::shared_ptr<const CachedInvestigation> value;  ///< null on B1/B2
    std::size_t bytes = 0;  ///< resident bytes, or the bytes it had when evicted
  };

  using NodeList = std::list<Node>;
  struct Slot {
    ListId list;
    NodeList::iterator it;
  };

  // All private helpers assume mu_ is held.
  void detach(const Key& key, ListId list, NodeList::iterator it);
  void evict_one_resident();
  void drop_ghost_lru(NodeList& list, std::size_t& bytes);
  void enforce_bounds();
  void publish_gauges() const;

  ResultCacheConfig cfg_;

  mutable std::mutex mu_;
  std::unordered_map<Key, Slot, KeyHasher> index_;
  NodeList t1_, t2_, b1_, b2_;                    // MRU at front, LRU at back
  std::size_t t1_bytes_ = 0, t2_bytes_ = 0;       // resident
  std::size_t b1_bytes_ = 0, b2_bytes_ = 0;       // ghosts (bookkeeping only)
  std::size_t p_ = 0;  ///< adaptive byte target for T1, in [0, capacity]

  // Registry handles, resolved once in the constructor.
  obs::Counter* hits_c_ = nullptr;
  obs::Counter* misses_c_ = nullptr;
  obs::Counter* insertions_c_ = nullptr;
  obs::Counter* evictions_c_ = nullptr;
  obs::Gauge* bytes_g_ = nullptr;
  obs::Gauge* entries_g_ = nullptr;
};

}  // namespace viewmap::sys
