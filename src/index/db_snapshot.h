// Immutable, refcounted point-in-time views of the VP timeline.
//
// The service must answer investigations while anonymous uploads stream
// in and retention eviction reclaims old shards (paper §4–5). Handing out
// raw pointers into live shards forces readers to serialize against the
// ingest path; instead, readers take a DbSnapshot — an RCU-style pinned
// view built from the timeline's published shards:
//
//   * A TimeShard is immutable once published behind a std::shared_ptr.
//     Writers that must touch a shard some snapshot still references
//     clone it first (copy-on-write) and publish the clone; the snapshot
//     keeps the original.
//   * Eviction merely drops the timeline's reference. A shard pinned by
//     a snapshot stays alive — bit-identical — until the last snapshot
//     referencing it is destroyed, then its memory is released.
//
// Lifetime contract: every pointer returned by query()/trusted_at()/
// all() is valid for as long as *any* copy of the snapshot
// that produced it is alive. There is no "do not hold across ingest"
// caveat; hold a snapshot as long as you like. Memory cost: a snapshot
// pins at most the shards that existed when it was taken; shards the
// live timeline has since replaced (copy-on-write) or evicted are the
// only ones it keeps alive beyond the timeline's own footprint.
//
// Snapshots are cheap (O(live shards) shared_ptr copies under the
// timeline's stripe locks — profiles are never copied), are plain values
// (copy/move freely), and are safe to share across threads: all state
// reachable from a snapshot is const.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "geo/geometry.h"
#include "vp/view_profile.h"

namespace viewmap::sys {
class ViewlinkMemo;  // system/viewmap_graph.h
}  // namespace viewmap::sys

namespace viewmap::index {

/// Per-shard census row (inspection tooling, persistence stats).
struct ShardStats {
  TimeSec unit_time = 0;
  std::size_t vp_count = 0;
  std::size_t trusted_count = 0;
};

/// One unit-time worth of storage. Published behind std::shared_ptr and
/// immutable while pinned: the timeline clones before mutating any shard
/// a snapshot still pins (see VpTimeline). Profiles are themselves
/// individually refcounted, so cloning a shard copies maps of pointers,
/// never the ~4.6 KB profiles.
struct TimeShard {
  TimeSec unit_time = 0;
  std::unordered_map<Id16, std::shared_ptr<const vp::ViewProfile>, Id16Hasher> profiles;
  std::unordered_set<Id16, Id16Hasher> trusted;
  /// Count of live DbSnapshots pinning this shard. This — not the
  /// shared_ptr use_count — is the writers' copy-on-write trigger:
  /// pinning happens under the timeline's stripe lock, unpinning is a
  /// release decrement (snapshot destruction, any thread), and a writer
  /// mutates in place only after an acquire load observes 0, which
  /// orders every released reader's reads before the writer's writes.
  /// use_count() cannot serve here: its observer is a relaxed load with
  /// no such ordering. Holding the shared_ptr without a pin (a Viewmap
  /// does) keeps the *profile objects* alive but does NOT license
  /// reading the maps, which a writer may then be mutating.
  mutable std::atomic<std::size_t> pins{0};

  /// Where this minute's viewlink verdict memo lives (sys::ViewlinkMemo,
  /// system/viewmap_graph.cpp): 2 bits per pair of the profiles it indexes,
  /// filled by the viewmap builds over this shard. It caches verdicts —
  /// pure functions of two immutable profiles and the link radius — so
  /// it is not shard content: digests and generations ignore it.
  ///
  /// The cell, not the memo, is what a COW clone copies, so a whole
  /// lineage (a shard and every clone descended from it) shares one
  /// memo. A build that installs the memo on a pinned shard thus also
  /// installs it for the clones late uploads made meanwhile. That is
  /// sound because a lineage only ever adds profiles and profiles are
  /// immutable: whatever version a memo was made from, its slots are
  /// either profiles of the reading shard or matched by none of its
  /// members. Retention drops the memo with the lineage's last shard.
  struct ViewlinkMemoCell {
    std::mutex mutex;  ///< guards memo; held to read it or to make the first one
    std::shared_ptr<const sys::ViewlinkMemo> memo;
  };
  const std::shared_ptr<ViewlinkMemoCell> viewlink_memo = std::make_shared<ViewlinkMemoCell>();

  explicit TimeShard(TimeSec unit) : unit_time(unit) {}
  /// COW clone: copies the content and shares the viewlink memo cell,
  /// starts unpinned, with an invalid digest cache and a fresh
  /// generation stamp (the clone exists precisely because it is about to
  /// be mutated).
  TimeShard(const TimeShard& other)
      : unit_time(other.unit_time),
        profiles(other.profiles),
        trusted(other.trusted),
        viewlink_memo(other.viewlink_memo) {}

  [[nodiscard]] ShardStats stats() const {
    return {unit_time, profiles.size(), trusted.size()};
  }

  /// Streams this shard's canonical content bytes into `sink`, in one or
  /// more chunks, each valid only for the duration of its sink call:
  ///
  ///   unit_time i64 LE | vp_count u64 LE | trusted_count u64 LE |
  ///   vp_count × ViewProfile wire payload (ascending id) |
  ///   trusted_count × Id16 (ascending)
  ///
  /// This byte stream IS the segment-file content section
  /// (store/segment_store) and the preimage of content_digest() — one
  /// serializer, so the digest can never disagree with what a checkpoint
  /// writes. Deterministic: equal shard content ⇒ equal bytes, whatever
  /// insertion order produced it.
  void stream_content(const std::function<void(std::span<const std::uint8_t>)>& sink) const;

  /// SHA-256 over stream_content() — the shard's content identity. The
  /// segment store keys incremental checkpoints on it: an unchanged shard
  /// keeps its digest, so its sealed segment is reused by reference
  /// instead of rewritten. Cached: computed at most once per distinct
  /// content. Call only while the shard is pinned by a snapshot (writers
  /// then copy-on-write instead of mutating in place, which also means
  /// they never race the cache below); concurrent calls from many
  /// snapshot holders are fine.
  [[nodiscard]] Hash32 content_digest() const;

  /// The shard's change stamp — the investigation result cache's key.
  /// Equal stamps ⇒ unchanged content: a stamp is drawn from a process-
  /// global counter (starting at 1) at construction, by every COW clone
  /// and by every in-place mutation (invalidate_digest()), so stamps are
  /// never reused across objects or edits. A checkpoint computing the
  /// content digest leaves it alone. O(1); call only while the shard is
  /// pinned by a snapshot.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

  /// Writers call this (under the owning time-stripe lock) whenever they
  /// mutate the shard in place. In-place mutation happens only on
  /// unpinned shards, so no concurrent content_digest()/generation()
  /// reader can exist — the stripe lock orders these plain stores before
  /// any later pin.
  void invalidate_digest() noexcept {
    digest_valid_ = false;
    generation_ = next_generation();
  }

  /// Pre-seeds the digest cache with an externally-known content digest.
  /// Only valid on a shard the caller owns exclusively (recovery builds
  /// shards off-thread before publishing them — see
  /// VpTimeline::adopt_shard), and only when `digest` really is the
  /// SHA-256 of this shard's stream_content() — the segment store seeds
  /// the manifest digest iff every profile of the segment was adopted
  /// unchanged, so the first checkpoint after a restart reuses every
  /// sealed segment without re-serializing a byte.
  void seed_digest(const Hash32& digest) noexcept {
    digest_ = digest;
    digest_valid_ = true;
  }

 private:
  /// Next value of the process-global generation counter (monotone,
  /// starts at 1, so 0 never names a shard).
  static std::uint64_t next_generation() noexcept;

  /// content_digest() cache. The mutex only arbitrates concurrent
  /// snapshot readers computing the digest at the same time; writers
  /// never touch it (see invalidate_digest()).
  mutable std::mutex digest_mutex_;
  mutable bool digest_valid_ = false;
  mutable Hash32 digest_{};
  /// Change stamp behind generation(): fresh at construction (both ctors
  /// — the COW clone deliberately does not copy it) and on every
  /// invalidate_digest(). Plain (non-atomic) under the same discipline as
  /// digest_valid_: written only at construction or under the stripe lock
  /// on an unpinned shard.
  std::uint64_t generation_ = next_generation();
};

/// A pinned, immutable view of a VpTimeline (see file comment). Obtained
/// from VpTimeline::snapshot(); the default-constructed snapshot is a
/// valid empty database.
class DbSnapshot {
 public:
  DbSnapshot() = default;

  [[nodiscard]] bool is_trusted(const Id16& vp_id) const noexcept;

  /// All VPs covering `unit_time` with any claimed location inside
  /// `area`, ordered by id. Exact: one pass over the minute's shard with
  /// the ViewProfile::visits() predicate, O(VPs in that minute). A site
  /// typically holds most of its minute (see index/README.md), so a
  /// per-shard spatial index would skip little.
  [[nodiscard]] std::vector<const vp::ViewProfile*> query(TimeSec unit_time,
                                                          const geo::Rect& area) const;
  /// All trusted VPs covering `unit_time`, ordered by id.
  [[nodiscard]] std::vector<const vp::ViewProfile*> trusted_at(TimeSec unit_time) const;

  /// Every VP in the snapshot, ordered by (unit-time, id) — the order
  /// canonical_bytes() and the segment store serialize in.
  [[nodiscard]] std::vector<const vp::ViewProfile*> all() const;

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t trusted_count() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// The trusted retention clock as of snapshot time (TimeSec min when it
  /// had never been set).
  [[nodiscard]] TimeSec trusted_now() const noexcept;
  [[nodiscard]] bool has_trusted_clock() const noexcept {
    return trusted_now() != std::numeric_limits<TimeSec>::min();
  }

  /// Per-shard census, ordered by unit-time.
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;
  [[nodiscard]] std::size_t shard_count() const noexcept;

  /// Content identity of one pinned shard, ordered by unit-time via
  /// shard_digests(). The digest is what incremental persistence keys
  /// segment reuse on (see TimeShard::content_digest and
  /// store/segment_store).
  struct ShardDigest {
    TimeSec unit_time = 0;
    Hash32 digest{};
  };
  /// Content digests of every pinned shard, ordered by unit-time. Cost:
  /// SHA-256 over each shard whose digest is not already cached; a shard
  /// untouched since the last call across *any* snapshot answers from its
  /// cache without re-serializing a byte.
  [[nodiscard]] std::vector<ShardDigest> shard_digests() const;

  /// The snapshot's full state as bytes: a fresh stream_content() of
  /// every pinned shard in unit-time order, then trusted_now() (i64 LE).
  /// Equal bytes ⇔ equal databases — the oracle recovery is tested and
  /// benchmarked against. Unlike shard_digests() it never answers from a
  /// cached digest (recovery seeds those from the manifest), so every
  /// loaded profile is re-serialized. O(database) — not for hot paths.
  [[nodiscard]] std::vector<std::uint8_t> canonical_bytes() const;

  /// The pinned shards themselves, ordered by unit-time. Persistence and
  /// tests iterate these directly instead of materializing all(); the
  /// shared_ptrs make the pin observable (weak_ptr expiry ⇔ release).
  [[nodiscard]] std::span<const std::shared_ptr<const TimeShard>> shards() const noexcept;

  /// The pinned shard covering `unit_time` (null when none). Lets
  /// single-minute consumers — a Viewmap spans exactly one unit-time —
  /// keep just their shard alive instead of the whole snapshot.
  [[nodiscard]] std::shared_ptr<const TimeShard> shard(TimeSec unit_time) const noexcept;

  /// TimeShard::generation() of the shard covering `unit_time`, or
  /// std::nullopt when the snapshot holds no such shard. This is the
  /// invalidation key of the investigation result cache
  /// (system/result_cache.h): any ingest touching the minute changes it,
  /// and an evicted minute has no shard. O(log shards); never serializes
  /// or hashes shard content.
  [[nodiscard]] std::optional<std::uint64_t> shard_generation(TimeSec unit_time) const;

 private:
  friend class VpTimeline;

  struct State {
    std::vector<std::shared_ptr<const TimeShard>> shards;  ///< sorted by unit_time
    std::size_t vp_count = 0;
    std::size_t trusted_count = 0;
    TimeSec clock = std::numeric_limits<TimeSec>::min();

    State() = default;
    State(const State&) = delete;
    State& operator=(const State&) = delete;
    /// Unpin everything this snapshot was reading. The release pairs
    /// with the writers' acquire load of TimeShard::pins.
    ~State() {
      for (const auto& shard : shards)
        shard->pins.fetch_sub(1, std::memory_order_release);
    }
  };

  explicit DbSnapshot(std::shared_ptr<const State> state) : state_(std::move(state)) {}

  /// The shard covering `unit_time`, or nullptr.
  [[nodiscard]] const TimeShard* shard_at(TimeSec unit_time) const noexcept;

  std::shared_ptr<const State> state_;  ///< null ⇔ empty snapshot
};

}  // namespace viewmap::index
