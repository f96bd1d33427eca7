// Time-sharded VP store with retention-window eviction.
//
// ViewMap slices everything by unit-time (1 minute, §5.2.1) and its data
// ages out naturally — dashcams themselves only retain 2-3 weeks of video
// (§2), so VPs older than the retention window can never be solicited and
// are dead weight. The timeline therefore shards storage by unit-time:
//
//   unit-time ──► shared_ptr<TimeShard> { profiles, trusted ids }
//
// An investigation query (site rect, unit-time) touches exactly one shard
// and scans it — O(VPs that minute) instead of O(all VPs ever stored).
// Retention eviction drops whole shards.
//
// Retention clock: eviction is measured from a *trusted* clock, never
// from timestamps claimed inside anonymous uploads. The clock advances
// monotonically from two sources only: authenticated (trusted) inserts
// and explicit advance_clock() calls by the operator. Until it is set,
// enforce_retention() evicts nothing — otherwise one well-formed
// anonymous upload claiming a far-future minute could age out every
// real shard. admissible() is the matching upload screen: anonymous
// claims outside [clock − window, clock + skew] are rejected before
// they ever reach a shard.
//
// Admission: upload() is the one way a VP enters a shard — the
// structural screen (vp::well_formed), the timeliness screen for
// anonymous uploads, then the insert. Recovery's adopt_shard is the
// only bulk path, fed by the segment store's own screen.
//
// Concurrency: upload/is_trusted/snapshot take striped locks — ids are
// striped by id hash, shards by unit-time hash — so concurrent ingest
// threads working on different minutes (or different ids within a
// minute) rarely contend and never take a global lock. No thread holds
// an id-stripe mutex and a time-stripe mutex at once; snapshot, the one
// multi-stripe holder, takes the time stripes in index order. The global id map
// makes duplicate-id detection work across shards (the NoticeBoard and
// the reward path look VPs up by id). It holds only live and in-flight
// ids: eviction releases the ids of every shard it drops, one lock per
// id stripe, after its time-stripe locks are released — O(evicted ids),
// paid beside the shard's own destruction. An evicted id stays a
// duplicate until it is released; after that it may be uploaded again.
//
// Read surface: there is none on the live timeline beyond O(1) scalar
// accessors, find() (which returns an owning shared_ptr) and is_trusted.
// Bulk reads go through snapshot() → DbSnapshot, an immutable pinned
// view whose results stay valid — across further ingest, eviction, and
// the timeline's own destruction — until the snapshot is released (RCU
// discipline; see index/db_snapshot.h). Writers honor snapshots by
// copy-on-write: an insert into a shard some snapshot still pins
// clones the shard (maps of refcounted profile pointers — cheap) and
// publishes the clone; eviction just drops the timeline's reference.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "geo/geometry.h"
#include "index/db_snapshot.h"
#include "vp/view_profile.h"

namespace viewmap::obs {
class MetricsRegistry;  // obs/metrics.h
class Counter;
class Gauge;
}  // namespace viewmap::obs

namespace viewmap::index {

struct RetentionConfig {
  /// How far behind the trusted clock a shard may fall before
  /// enforce_retention() drops it. Default: 3 weeks (§2 dashcam storage).
  TimeSec window_sec = 21 * 24 * 3600;
  /// How far ahead of the trusted clock an anonymous upload may claim its
  /// unit-time and still pass admissible() — generous dashcam clock-skew
  /// allowance; anything further is structurally implausible.
  TimeSec max_future_skew_sec = 3600;
};

struct TimelineConfig {
  RetentionConfig retention{};
  /// When set, the timeline publishes a live-shard gauge and eviction
  /// counters here. Null disables all instrumentation. Not owned; must
  /// outlive the timeline.
  obs::MetricsRegistry* metrics = nullptr;
};

class VpTimeline {
 public:
  explicit VpTimeline(TimelineConfig cfg = {});
  ~VpTimeline();

  VpTimeline(VpTimeline&& other) noexcept;
  VpTimeline& operator=(VpTimeline&& other) noexcept;
  VpTimeline(const VpTimeline&) = delete;
  VpTimeline& operator=(const VpTimeline&) = delete;

  /// Which step of the admission screen decided an upload.
  enum class Admission : std::uint8_t {
    kAccepted,   ///< stored
    kMalformed,  ///< failed vp::well_formed
    kUntimely,   ///< anonymous claim outside admissible()
    kDuplicate,  ///< id is live, in flight, or evicted but not yet released
  };

  /// The one admission path (paper §4): every VP that enters a shard
  /// comes through here, except recovery's bulk adopt_shard, whose
  /// profiles the store screens itself. Runs vp::well_formed, then — for
  /// anonymous uploads only — admissible() on the claimed unit-time,
  /// then the insert. Trusted uploads arrive authenticated: they skip
  /// the timeliness screen and advance the retention clock to their
  /// unit-time (so a device with a corrupt far-future RTC poisons the
  /// clock — reset_clock() is the recovery path). Thread-safe.
  Admission upload(vp::ViewProfile profile, bool trusted);

  /// Bulk shard adoption — the recovery fast path. The caller hands over
  /// a fully-built, already-screened shard (profiles map, trusted set)
  /// it owns exclusively; the timeline claims every id, removes
  /// collisions (an id already claimed elsewhere keeps its earlier
  /// profile — the same first-wins rule upload() applies), and publishes the shard
  /// in one time-stripe critical section instead of one insert per
  /// profile. When the unit-time slot is already occupied the survivors
  /// are merged into the existing shard (copy-on-write when pinned).
  /// Counters and — when the shard carries trusted ids — the trusted
  /// clock are updated exactly as `profiles.size()` individual inserts
  /// would have.
  /// Returns the number of profiles dropped as id collisions; any drop
  /// or merge invalidates the shard's digest cache. Thread-safe against
  /// concurrent inserts/snapshots, but the shard argument must not be
  /// reachable by any other thread.
  std::size_t adopt_shard(std::shared_ptr<TimeShard> shard);

  /// An immutable pinned view of every live shard — the read API.
  /// Results obtained from the snapshot stay valid for the snapshot's
  /// lifetime regardless of concurrent ingest or eviction. Cost:
  /// O(live shards) shared_ptr copies under the stripe locks; no
  /// profile data is copied. Thread-safe.
  [[nodiscard]] DbSnapshot snapshot() const;

  /// Point lookup returning an *owning* reference: the profile stays
  /// alive (and bit-identical) for as long as the caller holds the
  /// pointer, even if its shard is evicted meanwhile. Thread-safe.
  [[nodiscard]] std::shared_ptr<const vp::ViewProfile> find(const Id16& vp_id) const;
  [[nodiscard]] bool is_trusted(const Id16& vp_id) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t trusted_count() const noexcept {
    return trusted_count_.load(std::memory_order_relaxed);
  }
  /// Advances the trusted service clock (monotonic max; moves only
  /// forward). Trusted inserts call this implicitly with their unit-time;
  /// the operator feeds wall-clock through it. Anonymous uploads never
  /// touch it.
  void advance_clock(TimeSec now) noexcept;
  /// Operator recovery: force-sets the clock, non-monotonically. Needed
  /// when an authority device with a corrupt RTC (or a compromised one)
  /// advanced the clock far into the future — advance_clock() alone could
  /// never bring it back. Routine advancement must use advance_clock().
  void reset_clock(TimeSec now) noexcept {
    clock_.store(now, std::memory_order_relaxed);
  }
  /// The trusted clock, or TimeSec min when it has never been set.
  [[nodiscard]] TimeSec trusted_now() const noexcept {
    return clock_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool has_trusted_clock() const noexcept {
    return trusted_now() != std::numeric_limits<TimeSec>::min();
  }

  /// Drops every shard with unit-time < cutoff. Returns evicted VP count.
  /// Thread-safe, including against concurrent upload(): a profile and
  /// the size/trusted counters commit atomically under the shard's lock,
  /// so eviction never observes one without the other. Shards pinned by
  /// snapshots stay alive until their last snapshot is released; the
  /// timeline itself stops referencing them immediately.
  std::size_t evict_older_than(TimeSec cutoff_unit);
  /// Drops every shard outside the plausible window around the trusted
  /// clock: older than clock − window AND newer than clock + skew. The
  /// future side reclaims implausible claims admitted while the clock was
  /// still unset — without it they would be unevictable forever. A no-op
  /// until advance_clock() (or a trusted insert) has set the clock.
  std::size_t enforce_retention();

  /// Live shards, ordered by unit-time.
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;

  [[nodiscard]] const TimelineConfig& config() const noexcept { return cfg_; }

 private:
  static constexpr std::size_t kIdStripes = 16;
  static constexpr std::size_t kTimeStripes = 8;

  struct IdStripe {
    mutable std::mutex mutex;
    /// Id → unit-time of its shard, for every live id and every id whose
    /// insert has claimed it but not yet reached its shard. An evicted
    /// shard's ids are erased by the evictor.
    std::unordered_map<Id16, TimeSec, Id16Hasher> ids;
  };
  /// Ids grouped by id stripe, so a bulk claim or release takes each
  /// stripe mutex once.
  using IdBuckets = std::array<std::vector<Id16>, kIdStripes>;

  struct TimeStripe {
    mutable std::mutex mutex;
    /// Values are never null. A shard is writable in place exactly when
    /// its pin count observed under this mutex is 0 — snapshots pin
    /// under the same mutex and unpin with a release the writer's
    /// acquire load pairs with (see TimeShard::pins); any live pin makes
    /// a writer copy-on-write (see insert()).
    std::unordered_map<TimeSec, std::shared_ptr<TimeShard>> shards;
  };

  [[nodiscard]] IdStripe& id_stripe(const Id16& id) const {
    return *id_stripes_[Id16Hasher{}(id) % kIdStripes];
  }
  [[nodiscard]] TimeStripe& time_stripe(TimeSec unit) const {
    return *time_stripes_[static_cast<std::uint64_t>(unit) / kUnitTimeSec % kTimeStripes];
  }

  /// Stores a screened profile (upload()'s last step; takes it by
  /// reference so the hand-over costs no extra move). Returns false when
  /// the id is already claimed (see Admission::kDuplicate).
  bool insert(vp::ViewProfile&& profile, bool trusted);

  /// The timeliness screen for anonymous uploads: is a claimed unit-time
  /// plausible relative to the trusted clock? True whenever the clock is
  /// unset (no trusted reference to compare against — and then nothing
  /// can be evicted either). Otherwise the claim must lie within
  /// [clock − retention window, clock + max_future_skew_sec].
  [[nodiscard]] bool admissible(TimeSec unit_time) const noexcept;

  struct RetentionBounds {
    TimeSec oldest;
    TimeSec newest;
  };
  /// Saturating [now − window, now + skew]. One computation shared by the
  /// admission screen and the evictor, so the two can never disagree on
  /// the window edges.
  [[nodiscard]] RetentionBounds retention_bounds(TimeSec now) const noexcept;
  /// Drops every shard whose unit-time falls outside [oldest, newest].
  std::size_t evict_outside(TimeSec oldest, TimeSec newest);

  void fresh_stripes();
  /// Erases every listed id from its stripe's map.
  void release_ids(const IdBuckets& ids);
  void wire_metrics();

  TimelineConfig cfg_;
  std::vector<std::unique_ptr<IdStripe>> id_stripes_;
  std::vector<std::unique_ptr<TimeStripe>> time_stripes_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> trusted_count_{0};
  /// Trusted retention clock; min() = never set. Advanced only by
  /// advance_clock() — i.e. trusted inserts and the operator.
  std::atomic<TimeSec> clock_{std::numeric_limits<TimeSec>::min()};

  /// Registry handles, resolved once in wire_metrics(); all null when
  /// cfg_.metrics is null. shard_count_ mirrors this instance's
  /// contribution to the (process-wide) shard gauge so the destructor
  /// and move-assignment can withdraw exactly what this instance added —
  /// the gauge may be shared with a successor timeline during recovery.
  obs::Gauge* shards_gauge_ = nullptr;
  obs::Counter* eviction_passes_ = nullptr;
  obs::Counter* evicted_vps_ = nullptr;
  std::atomic<std::size_t> shard_count_{0};
};

}  // namespace viewmap::index
