// ViewMapService — the public-service system facade (paper Fig. 2).
//
// Ties the pipeline together end to end:
//   anonymous VP uploads → VP database → viewmap construction →
//   Algorithm-1 verification → video solicitation → cascaded-hash video
//   validation → human review → untraceable reward issuance.
//
// The facade is what example programs and integration tests drive; each
// stage is also usable on its own (see the per-module headers).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "anonet/channel.h"
#include "index/ingest_engine.h"
#include "index/timeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reward/bank.h"
#include "system/result_cache.h"
#include "system/solicitation.h"
#include "system/verifier.h"
#include "system/viewmap_graph.h"
#include "vp/video.h"
#include "vp/view_profile.h"

namespace viewmap::store {
class SegmentStore;       // store/segment_store.h
struct CheckpointStats;   //   (callers of the persistence API include it)
struct RecoveryStats;
}  // namespace viewmap::store

namespace viewmap::sys {

class InvestigationServer;  // system/investigation_server.h
struct ServerConfig;

/// The paper's §4 VP database is the spatio-temporal timeline itself:
/// VpTimeline::upload is its one admission screen (index/timeline.h).
using VpDatabase = index::VpTimeline;
/// The snapshot type served by VpDatabase::snapshot() (see
/// index/db_snapshot.h for the full read API and lifetime contract).
using DbSnapshot = index::DbSnapshot;

struct ServiceConfig {
  viewmap::index::TimelineConfig index{};  ///< retention window + metrics
  int rsa_bits = 2048;
  /// Generation-keyed investigation result cache (system/result_cache.h):
  /// a repeat investigate() over an unchanged minute shard returns the
  /// cached report instead of rebuilding — bit-identical by key
  /// construction. Enabled by default; capacity_bytes=0 turns it off
  /// (`viewmapd --cache_mb=0`).
  ResultCacheConfig result_cache{};
};

/// Outcome of one investigation over one unit-time.
struct InvestigationReport {
  Viewmap viewmap;
  VerificationResult verification;
  std::vector<Id16> solicited;  ///< VP ids posted as 'request for video'
  /// Per-phase timing of this investigation (snapshot_pin when served by
  /// the investigation server, member_select, edge_build, csr_build,
  /// trust_rank, algorithm1, solicit). The same trace competes for the
  /// service Tracer's slowest-N ring.
  obs::Trace trace;
};

class ViewMapService {
 public:
  explicit ViewMapService(const ServiceConfig& cfg = {});
  /// Stops the investigation server (if started) before members die.
  ~ViewMapService();
  ViewMapService(const ViewMapService&) = delete;
  ViewMapService& operator=(const ViewMapService&) = delete;

  // ── upload path ────────────────────────────────────────────────────
  /// The anonymous channel users submit serialized VPs through.
  [[nodiscard]] anonet::AnonymousChannel& upload_channel() noexcept { return channel_; }

  /// Drains the channel into the database through the concurrent ingest
  /// engine (parallel parse + screen, striped-lock shard commit, retention
  /// eviction). Returns how many VPs were accepted (malformed, untimely,
  /// or duplicate payloads are dropped). Retention runs after the batch,
  /// measured from the trusted clock (see advance_clock). Safe to run
  /// concurrently with investigate()/investigate_period(): reads go
  /// through pinned DbSnapshots, which eviction cannot invalidate.
  std::size_t ingest_uploads();

  /// Feeds the trusted wall-clock that drives retention eviction and the
  /// upload timeliness screen. register_trusted() advances it implicitly;
  /// anonymous uploads never do.
  void advance_clock(TimeSec now) noexcept { db_.advance_clock(now); }
  /// Operator recovery for a poisoned clock (e.g. an authority device with
  /// a corrupt far-future RTC): force-sets it non-monotonically.
  void reset_clock(TimeSec now) noexcept { db_.reset_clock(now); }

  /// Cumulative ingest statistics over the service's lifetime — a plain
  /// read of the ingest counters in the service's own metrics registry,
  /// which is where they are kept. Safe to call from any thread at any
  /// time; each field is a race-free sharded-counter sum, exact once
  /// ingest quiesces.
  [[nodiscard]] index::IngestStats ingest_totals() const noexcept;

  /// Authenticated path for authority vehicles (police cars): the same
  /// admission screen minus the timeliness check, and the VP's unit-time
  /// advances the trusted clock. True when the VP was stored.
  bool register_trusted(vp::ViewProfile profile);

  [[nodiscard]] const VpDatabase& database() const noexcept { return db_; }

  // ── persistence (store/segment_store.h) ────────────────────────────
  /// Seals one incremental checkpoint of the database into `store`: pins
  /// one DbSnapshot and writes segments only for shards that are new or
  /// changed since the store's previous manifest. Fully concurrent with
  /// ingest_uploads(), retention eviction, direct investigations, and a
  /// running InvestigationServer — the snapshot is immutable however long
  /// the write takes, so each checkpoint is byte-deterministic for the
  /// database version it pinned. One checkpointer at a time per store
  /// (same single-caller contract as ingest_uploads()).
  store::CheckpointStats checkpoint(store::SegmentStore& store) const;

  /// Replaces the database with the newest recoverable checkpoint in
  /// `store`, preserving this service's index (retention) configuration
  /// so screening and eviction resume exactly as configured. Restart
  /// path only: must not run concurrently with anything else touching
  /// the service (stop_server() first).
  store::RecoveryStats restore_from(const store::SegmentStore& store);

  /// Point-in-time variant: restores exactly the checkpoint sealed under
  /// manifest `sequence` (see SegmentStore::recover(sequence)). Unlike
  /// the newest-recoverable overload this never falls back — a missing
  /// or damaged named manifest throws and the live database is left
  /// untouched. Same restart-path-only contract as above.
  store::RecoveryStats restore_from(const store::SegmentStore& store,
                                    std::uint64_t sequence);

  // ── investigation path ─────────────────────────────────────────────
  /// Builds the viewmap for (site, unit_time), verifies it, and posts
  /// 'request for video' for every legitimate VP found inside the site.
  /// Takes one DbSnapshot for the whole investigation, so it runs fully
  /// concurrent with ingest_uploads() and retention eviction; the
  /// returned report stays valid indefinitely (the viewmap pins the
  /// snapshot).
  [[nodiscard]] InvestigationReport investigate(const geo::Rect& site,
                                                TimeSec unit_time);
  /// Same, over a caller-supplied snapshot — lets one pinned view serve
  /// many investigations (investigate_period(), replay tooling). Safe to
  /// call from many threads at once: it reads the snapshot and const
  /// configuration, and publishes solicitations through the thread-safe
  /// NoticeBoard — this is the entry point the investigation server's
  /// workers drive in parallel.
  [[nodiscard]] InvestigationReport investigate(const DbSnapshot& snap,
                                                const geo::Rect& site,
                                                TimeSec unit_time);

  /// §5.2.1: an incident period is investigated as "a series of viewmaps
  /// each corresponding to a single unit-time". Takes ONE snapshot for
  /// the whole period (every minute sees the same consistent database
  /// state) and runs investigate() for every minute that [begin, end)
  /// touches; minutes without a trusted VP (unverifiable) are skipped.
  /// Throws std::invalid_argument when begin < kFirstUnitStart (its
  /// minute starts before TimeSec's range).
  [[nodiscard]] std::vector<InvestigationReport> investigate_period(
      const geo::Rect& site, TimeSec begin, TimeSec end);
  /// Same, over a caller-supplied snapshot (the investigation server's
  /// workers serve whole request batches from one pinned view this way).
  /// Thread-safe like the snapshot investigate() overload.
  [[nodiscard]] std::vector<InvestigationReport> investigate_period(
      const DbSnapshot& snap, const geo::Rect& site, TimeSec begin, TimeSec end);

  [[nodiscard]] const NoticeBoard& board() const noexcept { return board_; }

  // ── investigation server (system/investigation_server.h) ──────────
  /// Starts the multi-threaded investigation front: a worker pool
  /// draining a bounded request queue of submit()/submit_period()
  /// investigations, fully concurrent with ingest_uploads() and
  /// retention. Returns the running server; if one is already running it
  /// is returned unchanged (stop_server() first to apply a new config).
  ///
  /// Lifecycle contract: start_server()/stop_server()/server() manage
  /// the server *object* and must be driven from one control thread
  /// (like ingest_uploads()); they are not synchronized against each
  /// other. The running server's own API (submit/pause/stop/stats/…) is
  /// fully thread-safe — any number of submitter threads is fine.
  InvestigationServer& start_server();
  InvestigationServer& start_server(const ServerConfig& cfg);
  /// Rejects new submissions, drains queued requests, joins the workers,
  /// destroys the server. No-op when no server is running.
  void stop_server();
  /// The running server, or nullptr.
  [[nodiscard]] InvestigationServer* server() noexcept { return server_.get(); }

  /// User side poll: which of my VP ids have a pending video request?
  [[nodiscard]] std::vector<Id16> pending_video_requests(
      std::span<const Id16> my_vp_ids) const;

  // ── video path ─────────────────────────────────────────────────────
  /// Anonymous video upload. Validates the cascaded hash chain against the
  /// stored VP; on success the video enters the human-review queue and the
  /// request is withdrawn from the board.
  bool submit_video(const Id16& vp_id, const vp::RecordedVideo& video);

  /// Videos awaiting human review (investigators pop from here).
  [[nodiscard]] std::span<const Id16> review_queue() const noexcept { return review_; }

  /// Human review verdict. Approval posts 'request for reward' worth
  /// `units` of virtual cash.
  void conclude_review(const Id16& vp_id, bool approved, int units);

  // ── reward path (Appendix A) ───────────────────────────────────────
  /// Step 1: the owner proves ownership by revealing Q (R = H(Q)). On
  /// success returns the cash amount n granted for this video.
  [[nodiscard]] std::optional<int> begin_reward_claim(const Id16& vp_id,
                                                      const vp::VpSecret& secret);

  /// Step 3: blind-sign the claimant's batch. The claim must have begun
  /// and the batch size must equal the granted amount.
  [[nodiscard]] std::optional<std::vector<crypto::BigBytes>> sign_reward_batch(
      const Id16& vp_id, std::span<const crypto::BigBytes> blinded);

  [[nodiscard]] const crypto::RsaPublicKey& cash_public_key() const noexcept {
    return bank_.public_key();
  }
  [[nodiscard]] reward::Bank& bank() noexcept { return bank_; }

  // ── observability (obs/metrics.h, obs/trace.h) ─────────────────────
  /// The registry every subsystem publishes into, owned by the service
  /// — the one place each service counter lives; the stats structs
  /// (ingest_totals(), InvestigationServer::stats(), ResultCache::stats())
  /// read it. Stable for the service's lifetime; see src/obs/README.md
  /// for the metric name catalogue.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  /// Prometheus-style text exposition of every metric, plus nothing
  /// else — pipe to a file or scrape endpoint.
  void dump_metrics(std::ostream& os) const;
  /// Keeper of the slowest-N investigation traces.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const noexcept { return tracer_; }
  /// The investigation result cache (never null; disabled when
  /// ServiceConfig::result_cache.capacity_bytes is 0). stats() is how
  /// tests and the bench assert hit rates and the byte bound.
  [[nodiscard]] ResultCache& result_cache() noexcept { return cache_; }
  [[nodiscard]] const ResultCache& result_cache() const noexcept { return cache_; }

 private:
  /// Declared first: every member below may hold pointers into it.
  /// Mutable: the const checkpoint() wires its store in (adopt_metrics);
  /// the registry is observability state, not service state.
  mutable obs::MetricsRegistry metrics_;
  ServiceConfig cfg_;
  anonet::AnonymousChannel channel_;
  VpDatabase db_;
  ViewmapBuilder builder_;
  NoticeBoard board_;
  reward::Bank bank_;
  obs::Tracer tracer_;
  ResultCache cache_;  ///< generation-keyed investigation result cache
  index::IngestMetrics ingest_metrics_;  ///< registry handles + name catalogue
  obs::Histogram* investigate_us_ = nullptr;
  obs::Histogram* cache_hit_us_ = nullptr;  ///< latency of cache-served hits
  obs::Counter* pairs_tested_ = nullptr;    ///< viewlink kernel runs, per build
  obs::Counter* pairs_memoized_ = nullptr;  ///< pairs read from viewlink memos
  obs::Gauge* memo_bytes_ = nullptr;        ///< viewlink_memo_bytes() after a build
  /// Debug-build enforcement of the ingest_uploads() single-caller
  /// contract (see common/reentrancy.h). Header always declares it so
  /// NDEBUG and debug TUs agree on the object layout.
  std::atomic<bool> ingest_entered_{false};
  std::vector<Id16> review_;
  std::unordered_map<Id16, int, Id16Hasher> granted_;  ///< open claims: id → n
  /// Declared last: its workers reference the members above, so it must
  /// be destroyed first (the destructor also stops it explicitly).
  std::unique_ptr<InvestigationServer> server_;
};

}  // namespace viewmap::sys
