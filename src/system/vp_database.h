// The system's View Profile database (paper §4).
//
// Stores anonymously uploaded VPs (actual and guard VPs are
// indistinguishable and treated identically — §5.2.1 fn.4) plus trusted
// VPs from authority vehicles. Uploads pass a structural well-formedness
// screen; nothing about the uploader is retained.
//
// Storage is the spatio-temporal index (src/index/): VPs live in
// per-unit-time shards, each spatially indexed over the claimed
// trajectories, with a retention window matching how long dashcams keep
// video. upload() is thread-safe and lock-striped so the batched ingest
// engine can commit from many threads at once (see index/ingest_engine.h).
//
// Reads go through snapshot(): an immutable pinned view of the database
// whose query results stay valid — across concurrent uploads, retention
// eviction, even destruction of this VpDatabase — until the snapshot is
// released. One investigation takes one snapshot; there is no pointer-
// lifetime caveat anywhere on the read surface. A snapshot's memory
// semantics: it pins the shards it was built from, so shards evicted (or
// copy-on-write-replaced) while it is held stay alive exactly until its
// last copy is destroyed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "geo/geometry.h"
#include "index/timeline.h"
#include "vp/view_profile.h"

namespace viewmap::sys {

/// The snapshot type served by VpDatabase::snapshot() (see
/// index/db_snapshot.h for the full read API and lifetime contract).
using DbSnapshot = index::DbSnapshot;

class VpDatabase {
 public:
  explicit VpDatabase(vp::VpUploadPolicy policy = {},
                      index::TimelineConfig index_cfg = {})
      : policy_(policy), timeline_(index_cfg) {}

  /// Screens and stores an anonymous VP. Returns false when the VP is
  /// malformed, claims a unit-time implausibly far from the trusted clock
  /// (see advance_clock), or its identifier collides with an existing
  /// entry.
  bool upload(vp::ViewProfile profile);

  /// Registers a trusted VP (police car etc.). Trusted uploads arrive over
  /// an authenticated channel, so no anonymity screen — but the same
  /// structural rules apply. Advances the retention clock to the VP's
  /// unit-time (authenticated timestamps are trusted; a device with a
  /// corrupt far-future RTC therefore poisons the clock — reset_clock()
  /// is the recovery path).
  bool upload_trusted(vp::ViewProfile profile);

  /// Feeds the trusted retention clock (monotonic; see
  /// index::VpTimeline::advance_clock). Retention eviction and the upload
  /// timeliness screen are measured from this clock — never from
  /// timestamps claimed inside anonymous uploads.
  void advance_clock(TimeSec now) noexcept { timeline_.advance_clock(now); }
  /// Operator recovery: force-sets the clock non-monotonically (see
  /// index::VpTimeline::reset_clock).
  void reset_clock(TimeSec now) noexcept { timeline_.reset_clock(now); }

  [[nodiscard]] TimeSec trusted_now() const noexcept { return timeline_.trusted_now(); }

  /// The read API: an immutable pinned view of the whole database.
  /// query()/find()/trusted_at()/all() results obtained from the snapshot
  /// stay valid for the snapshot's lifetime, fully concurrent with
  /// uploads and retention eviction. Cheap — O(live shards) refcount
  /// bumps, no profile copies.
  [[nodiscard]] DbSnapshot snapshot() const { return timeline_.snapshot(); }

  /// Point lookup returning an owning reference: the profile stays alive
  /// for as long as the caller holds it, independent of eviction. Null
  /// when absent.
  [[nodiscard]] std::shared_ptr<const vp::ViewProfile> find(const Id16& vp_id) const {
    return timeline_.find(vp_id);
  }
  [[nodiscard]] bool is_trusted(const Id16& vp_id) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return timeline_.size(); }
  [[nodiscard]] std::size_t trusted_count() const noexcept {
    return timeline_.trusted_count();
  }

  /// The structural screen applied to every upload (the ingest engine
  /// runs it in its worker threads).
  [[nodiscard]] const vp::VpUploadPolicy& policy() const noexcept { return policy_; }

  /// The underlying spatio-temporal index (ingest engine, persistence,
  /// inspection tooling). Inserting through the timeline directly skips
  /// the upload screen — only do that with screened profiles.
  [[nodiscard]] index::VpTimeline& timeline() noexcept { return timeline_; }
  [[nodiscard]] const index::VpTimeline& timeline() const noexcept { return timeline_; }

  /// Per-unit-time shard census, ordered by unit-time.
  [[nodiscard]] std::vector<index::ShardStats> shard_stats() const {
    return timeline_.shard_stats();
  }

  /// Drops shards older than the configured retention window, measured
  /// from the trusted clock (no-op until advance_clock()/upload_trusted()
  /// has set it). Returns evicted VP count. Held snapshots are unaffected:
  /// they keep their shards alive until released.
  std::size_t enforce_retention() { return timeline_.enforce_retention(); }

 private:
  vp::VpUploadPolicy policy_;
  index::VpTimeline timeline_;
};

}  // namespace viewmap::sys
