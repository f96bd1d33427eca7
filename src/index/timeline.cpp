#include "index/timeline.h"

#include <algorithm>
#include <array>

#include "obs/metrics.h"

namespace viewmap::index {

VpTimeline::VpTimeline(TimelineConfig cfg) : cfg_(cfg) {
  fresh_stripes();
  wire_metrics();
}

void VpTimeline::wire_metrics() {
  if (cfg_.metrics == nullptr) return;
  shards_gauge_ = &cfg_.metrics->gauge("viewmap_timeline_shards");
  eviction_passes_ = &cfg_.metrics->counter("viewmap_timeline_eviction_passes_total");
  evicted_vps_ = &cfg_.metrics->counter("viewmap_timeline_evicted_vps_total");
}

VpTimeline::~VpTimeline() {
  // Withdraw this instance's shards from the shared gauge: a recovered
  // timeline move-assigned over this one keeps its own contribution, so
  // the gauge tracks live shards across database generations.
  if (shards_gauge_ != nullptr)
    shards_gauge_->sub(static_cast<std::int64_t>(shard_count_.load()));
}

void VpTimeline::fresh_stripes() {
  id_stripes_.clear();
  time_stripes_.clear();
  id_stripes_.reserve(kIdStripes);
  time_stripes_.reserve(kTimeStripes);
  for (std::size_t i = 0; i < kIdStripes; ++i)
    id_stripes_.push_back(std::make_unique<IdStripe>());
  for (std::size_t i = 0; i < kTimeStripes; ++i)
    time_stripes_.push_back(std::make_unique<TimeStripe>());
}

VpTimeline::VpTimeline(VpTimeline&& other) noexcept
    : cfg_(other.cfg_),
      id_stripes_(std::move(other.id_stripes_)),
      time_stripes_(std::move(other.time_stripes_)),
      size_(other.size_.load()),
      trusted_count_(other.trusted_count_.load()),
      clock_(other.clock_.load()),
      shards_gauge_(other.shards_gauge_),
      eviction_passes_(other.eviction_passes_),
      evicted_vps_(other.evicted_vps_),
      shard_count_(other.shard_count_.load()) {
  other.fresh_stripes();
  other.size_ = 0;
  other.trusted_count_ = 0;
  other.clock_ = std::numeric_limits<TimeSec>::min();
  // Gauge contribution moves with the shards; other now owns none.
  other.shard_count_ = 0;
}

VpTimeline& VpTimeline::operator=(VpTimeline&& other) noexcept {
  if (this == &other) return *this;
  // Withdraw the shards being replaced before adopting other's handles —
  // other's contribution (possibly on the same gauge) transfers as-is.
  if (shards_gauge_ != nullptr)
    shards_gauge_->sub(static_cast<std::int64_t>(shard_count_.load()));
  shards_gauge_ = other.shards_gauge_;
  eviction_passes_ = other.eviction_passes_;
  evicted_vps_ = other.evicted_vps_;
  shard_count_ = other.shard_count_.load();
  other.shard_count_ = 0;
  cfg_ = other.cfg_;
  id_stripes_ = std::move(other.id_stripes_);
  time_stripes_ = std::move(other.time_stripes_);
  size_ = other.size_.load();
  trusted_count_ = other.trusted_count_.load();
  clock_ = other.clock_.load();
  other.fresh_stripes();
  other.size_ = 0;
  other.trusted_count_ = 0;
  other.clock_ = std::numeric_limits<TimeSec>::min();
  return *this;
}

VpTimeline::Admission VpTimeline::upload(vp::ViewProfile profile, bool trusted) {
  if (!vp::well_formed(profile)) return Admission::kMalformed;
  // Anonymous claims outside the plausible window around the trusted
  // clock never enter a shard (and never influence retention).
  if (!trusted && !admissible(profile.unit_time())) return Admission::kUntimely;
  return insert(std::move(profile), trusted) ? Admission::kAccepted
                                             : Admission::kDuplicate;
}

bool VpTimeline::insert(vp::ViewProfile&& profile, bool trusted) {
  const Id16 id = profile.vp_id();
  const TimeSec unit = profile.unit_time();

  // Phase 1: claim the id globally (duplicate screen across all shards).
  // Every entry is a live id, an in-flight claim or an evicted id not yet
  // released, so any entry makes this upload a duplicate.
  IdStripe& is = id_stripe(id);
  {
    std::lock_guard lock(is.mutex);
    if (!is.ids.try_emplace(id, unit).second) return false;
  }

  // Phase 2: commit to the minute's shard. Only this id's claimant can be
  // here, so the shard emplace cannot collide. Allocation failure must not
  // strand the phase-1 claim (it would block its id forever), so unwind
  // rolls back shard state under the time lock, then the claim under the
  // id lock — never both held.
  TimeStripe& ts = time_stripe(unit);
  bool created_shard = false;
  try {
    auto owned = std::make_shared<const vp::ViewProfile>(std::move(profile));
    std::lock_guard lock(ts.mutex);
    auto sit = ts.shards.find(unit);
    bool created = false;
    if (sit == ts.shards.end()) {
      // Built before the map slot exists so a bad_alloc cannot leave a
      // null shard published.
      auto fresh_shard = std::make_shared<TimeShard>(unit);
      sit = ts.shards.emplace(unit, std::move(fresh_shard)).first;
      created = true;
    } else if (sit->second->pins.load(std::memory_order_acquire) > 0) {
      // The shard is pinned by at least one snapshot: copy-on-write.
      // Cloning copies maps of refcounted profile pointers, never
      // profile payloads. Snapshot holders keep the original, bit-identical.
      // The acquire pairs with the release unpin of snapshots already
      // destroyed — observing 0 means their reads are ordered before
      // our in-place writes (see TimeShard::pins).
      sit->second = std::make_shared<TimeShard>(*sit->second);
    }
    TimeShard& shard = *sit->second;
    // Every path from here mutates (or unwinds a mutation of) this shard,
    // and the shard is unpinned — fresh, a COW clone, or observed at pin
    // count 0 — so the cache store cannot race a digest reader.
    shard.invalidate_digest();
    auto [pit, inserted] = shard.profiles.emplace(id, std::move(owned));
    (void)inserted;
    try {
      if (trusted) {
        shard.trusted.insert(id);
        trusted_count_.fetch_add(1, std::memory_order_relaxed);
      }
      // Counters commit under the same shard lock as the profile, so a
      // concurrent eviction sees either both or neither — its fetch_sub
      // can never precede this add and wrap the size_t counters.
      size_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      shard.profiles.erase(pit);
      if (created) ts.shards.erase(sit);
      throw;
    }
    created_shard = created;
  } catch (...) {
    std::lock_guard lock(is.mutex);
    is.ids.erase(id);
    throw;
  }
  if (created_shard) {
    shard_count_.fetch_add(1, std::memory_order_relaxed);
    if (shards_gauge_ != nullptr) shards_gauge_->add(1);
  }
  // Trusted uploads arrive authenticated, so their timestamps may drive
  // the retention clock. Anonymous claims never touch it.
  if (trusted) advance_clock(unit);
  return true;
}

std::size_t VpTimeline::adopt_shard(std::shared_ptr<TimeShard> shard) {
  if (shard == nullptr || shard->profiles.empty()) return 0;
  const TimeSec unit = shard->unit_time;

  // ── Phase 1: claim every id — the same claim insert() takes, so a
  // concurrent insert of a colliding id is rejected rather than racing the
  // publish below. Ids are bucketed per stripe so each stripe mutex is
  // taken once, not once per profile.
  IdBuckets buckets;
  for (const auto& [id, profile] : shard->profiles)
    buckets[Id16Hasher{}(id) % kIdStripes].push_back(id);

  std::vector<Id16> drops;
  /// Exactly the ids this call claimed, per stripe — the set a failed
  /// publish unwinds. Dropped ids are never touched.
  IdBuckets claimed;
  for (std::size_t s = 0; s < kIdStripes; ++s) {
    if (buckets[s].empty()) continue;
    IdStripe& is = *id_stripes_[s];
    std::lock_guard lock(is.mutex);
    for (const Id16& id : buckets[s]) {
      if (is.ids.try_emplace(id, unit).second)
        claimed[s].push_back(id);
      else
        drops.push_back(id);  // live, in flight or being evicted: first wins
    }
  }

  // The caller owns the shard exclusively, so collisions are removed
  // without any lock; the digest cache dies with the first removal (the
  // shard no longer matches the segment it was built from).
  for (const Id16& id : drops) {
    shard->trusted.erase(id);
    shard->profiles.erase(id);
  }
  if (!drops.empty()) shard->invalidate_digest();

  const std::size_t adopted = shard->profiles.size();
  const std::size_t trusted_added = shard->trusted.size();
  if (adopted == 0) return drops.size();  // everything collided; no claims held

  // ── Phase 2: publish the whole shard in one critical section. An
  // occupied slot (a live service adopting into a non-empty minute) takes
  // the merge path: survivors move into the existing shard, cloned first
  // when pinned — exactly insert()'s copy-on-write rule.
  bool created_shard = false;
  try {
    TimeStripe& ts = time_stripe(unit);
    std::lock_guard lock(ts.mutex);
    auto sit = ts.shards.find(unit);
    if (sit == ts.shards.end()) {
      ts.shards.emplace(unit, shard);
      created_shard = true;
    } else {
      if (sit->second->pins.load(std::memory_order_acquire) > 0)
        sit->second = std::make_shared<TimeShard>(*sit->second);
      TimeShard& dst = *sit->second;
      dst.invalidate_digest();
      std::size_t merged = 0;
      try {
        for (const auto& [id, profile] : shard->profiles) {
          dst.profiles.emplace(id, profile);  // claims guarantee the id is new to dst
          if (shard->trusted.contains(id)) dst.trusted.insert(id);
          ++merged;
        }
      } catch (...) {
        // Unwind the partial merge so dst is exactly its pre-call content.
        std::size_t undone = 0;
        for (const auto& [id, profile] : shard->profiles) {
          if (undone++ == merged) break;
          dst.trusted.erase(id);
          dst.profiles.erase(id);
        }
        throw;
      }
    }
  } catch (...) {
    release_ids(claimed);
    throw;
  }
  if (created_shard) {
    shard_count_.fetch_add(1, std::memory_order_relaxed);
    if (shards_gauge_ != nullptr) shards_gauge_->add(1);
  }
  size_.fetch_add(adopted, std::memory_order_relaxed);
  trusted_count_.fetch_add(trusted_added, std::memory_order_relaxed);

  if (trusted_added > 0) advance_clock(unit);
  return drops.size();
}

void VpTimeline::advance_clock(TimeSec now) noexcept {
  TimeSec prev = clock_.load(std::memory_order_relaxed);
  while (now > prev &&
         !clock_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
  }
}

VpTimeline::RetentionBounds VpTimeline::retention_bounds(TimeSec now) const noexcept {
  constexpr TimeSec kFloor = std::numeric_limits<TimeSec>::min();
  constexpr TimeSec kCeil = std::numeric_limits<TimeSec>::max();
  const TimeSec window = std::max<TimeSec>(cfg_.retention.window_sec, 0);
  const TimeSec skew = std::max<TimeSec>(cfg_.retention.max_future_skew_sec, 0);
  // Saturating arithmetic: a clock near either extreme must not wrap.
  return {now < kFloor + window ? kFloor : now - window,
          now > kCeil - skew ? kCeil : now + skew};
}

bool VpTimeline::admissible(TimeSec unit_time) const noexcept {
  const TimeSec now = clock_.load(std::memory_order_relaxed);
  if (now == std::numeric_limits<TimeSec>::min()) return true;  // no reference
  const auto [oldest, newest] = retention_bounds(now);
  return unit_time >= oldest && unit_time <= newest;
}

DbSnapshot VpTimeline::snapshot() const {
  auto state = std::make_shared<DbSnapshot::State>();
  {
    // One consistent cut: hold every time-stripe lock (in index order)
    // while collecting shard references. O(live shards) pointer copies;
    // the copies are what make every collected shard copy-on-write for
    // later writers.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(kTimeStripes);
    for (const auto& stripe : time_stripes_) locks.emplace_back(stripe->mutex);
    std::size_t shard_count = 0;
    for (const auto& stripe : time_stripes_) shard_count += stripe->shards.size();
    state->shards.reserve(shard_count);
    for (const auto& stripe : time_stripes_)
      for (const auto& [unit, shard] : stripe->shards) {
        state->shards.push_back(shard);
        // Pin after the push so ~State's unpin loop always mirrors the
        // collected set, even if a later push_back throws.
        shard->pins.fetch_add(1, std::memory_order_relaxed);
      }
  }
  // The collected shards are immutable from here on (any writer now
  // observes pins > 0 and clones), so ordering and counting can run
  // outside the locks.
  std::sort(state->shards.begin(), state->shards.end(),
            [](const auto& a, const auto& b) { return a->unit_time < b->unit_time; });
  for (const auto& shard : state->shards) {
    state->vp_count += shard->profiles.size();
    state->trusted_count += shard->trusted.size();
  }
  state->clock = trusted_now();
  return DbSnapshot(std::move(state));
}

std::shared_ptr<const vp::ViewProfile> VpTimeline::find(const Id16& vp_id) const {
  TimeSec unit;
  {
    IdStripe& is = id_stripe(vp_id);
    std::lock_guard lock(is.mutex);
    auto it = is.ids.find(vp_id);
    if (it == is.ids.end()) return nullptr;
    unit = it->second;
  }
  TimeStripe& ts = time_stripe(unit);
  std::lock_guard lock(ts.mutex);
  auto sit = ts.shards.find(unit);
  if (sit == ts.shards.end()) return nullptr;  // evicted, id not yet released
  auto pit = sit->second->profiles.find(vp_id);
  return pit == sit->second->profiles.end() ? nullptr : pit->second;
}

bool VpTimeline::is_trusted(const Id16& vp_id) const {
  TimeSec unit;
  {
    IdStripe& is = id_stripe(vp_id);
    std::lock_guard lock(is.mutex);
    auto it = is.ids.find(vp_id);
    if (it == is.ids.end()) return false;
    unit = it->second;
  }
  TimeStripe& ts = time_stripe(unit);
  std::lock_guard lock(ts.mutex);
  auto sit = ts.shards.find(unit);
  return sit != ts.shards.end() && sit->second->trusted.contains(vp_id);
}

std::size_t VpTimeline::evict_older_than(TimeSec cutoff_unit) {
  return evict_outside(cutoff_unit, std::numeric_limits<TimeSec>::max());
}

std::size_t VpTimeline::evict_outside(TimeSec oldest, TimeSec newest) {
  std::size_t evicted = 0;
  std::size_t trusted_evicted = 0;
  // Shard references are dropped after every lock is released: when the
  // timeline holds the last reference, destruction is the expensive part
  // and nothing else needs to wait for it; when a snapshot still pins a
  // shard, dropping the reference is all eviction does — the memory
  // lives exactly until the last snapshot releases it.
  std::vector<std::shared_ptr<TimeShard>> graveyard;
  for (const auto& stripe : time_stripes_) {
    std::lock_guard lock(stripe->mutex);
    for (auto it = stripe->shards.begin(); it != stripe->shards.end();) {
      if (it->first < oldest || it->first > newest) {
        evicted += it->second->profiles.size();
        trusted_evicted += it->second->trusted.size();
        graveyard.push_back(std::move(it->second));
        it = stripe->shards.erase(it);
      } else {
        ++it;
      }
    }
  }
  size_.fetch_sub(evicted, std::memory_order_relaxed);
  trusted_count_.fetch_sub(trusted_evicted, std::memory_order_relaxed);
  shard_count_.fetch_sub(graveyard.size(), std::memory_order_relaxed);
  if (eviction_passes_ != nullptr) {
    eviction_passes_->add();
    if (evicted != 0) evicted_vps_->add(evicted);
    if (!graveyard.empty())
      shards_gauge_->sub(static_cast<std::int64_t>(graveyard.size()));
  }
  // Release the evicted ids, one lock per id stripe and no time lock
  // held. No pin is needed: a shard off the map is out of every writer's
  // reach, so its profiles map is stable. Until its id is released, a
  // re-upload of it is a duplicate.
  IdBuckets released;
  for (const auto& shard : graveyard)
    for (const auto& [id, profile] : shard->profiles)
      released[Id16Hasher{}(id) % kIdStripes].push_back(id);
  release_ids(released);
  return evicted;
}

std::size_t VpTimeline::enforce_retention() {
  // Measured strictly from the trusted clock: anonymous uploads can claim
  // any unit-time they like without aging out anyone else's shards. The
  // future side of the window reclaims implausible claims that slipped in
  // while the clock was still unset.
  const TimeSec now = clock_.load(std::memory_order_relaxed);
  if (now == std::numeric_limits<TimeSec>::min()) return 0;  // clock unset
  const auto [oldest, newest] = retention_bounds(now);
  return evict_outside(oldest, newest);
}

void VpTimeline::release_ids(const IdBuckets& ids) {
  for (std::size_t s = 0; s < kIdStripes; ++s) {
    if (ids[s].empty()) continue;
    IdStripe& is = *id_stripes_[s];
    std::lock_guard lock(is.mutex);
    for (const Id16& id : ids[s]) is.ids.erase(id);
  }
}

std::vector<ShardStats> VpTimeline::shard_stats() const {
  std::vector<ShardStats> out;
  for (const auto& stripe : time_stripes_) {
    std::lock_guard lock(stripe->mutex);
    for (const auto& [unit, shard] : stripe->shards) out.push_back(shard->stats());
  }
  std::sort(out.begin(), out.end(),
            [](const ShardStats& a, const ShardStats& b) { return a.unit_time < b.unit_time; });
  return out;
}

}  // namespace viewmap::index
