#include "system/service.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/reentrancy.h"
#include "obs/metrics.h"
#include "store/segment_store.h"
#include "system/investigation_server.h"

namespace viewmap::sys {

namespace {

/// Points the component configs the service constructs its members from
/// at the service's registry — the single place the registry fans out to
/// every subsystem.
ServiceConfig wire_config(ServiceConfig cfg, obs::MetricsRegistry& registry) {
  cfg.index.metrics = &registry;
  return cfg;
}

}  // namespace

ViewMapService::ViewMapService(const ServiceConfig& cfg)
    : cfg_(wire_config(cfg, metrics_)),
      channel_(/*seed=*/0x5eed),
      db_(cfg_.index),
      bank_(cfg_.rsa_bits),
      cache_(metrics_, cfg_.result_cache),
      ingest_metrics_(index::IngestMetrics::wire(metrics_)),
      investigate_us_(&metrics_.histogram("viewmap_investigate_us")),
      cache_hit_us_(&metrics_.histogram("viewmap_cache_hit_us")),
      pairs_tested_(&metrics_.counter("viewmap_viewlink_pairs_tested_total")),
      pairs_memoized_(&metrics_.counter("viewmap_viewlink_pairs_memoized_total")),
      memo_bytes_(&metrics_.gauge("viewmap_viewlink_memo_bytes")) {}

index::IngestStats ViewMapService::ingest_totals() const noexcept {
  return ingest_metrics_.totals();
}

void ViewMapService::dump_metrics(std::ostream& os) const { metrics_.render(os); }

// Out of line: the header only forward-declares InvestigationServer.
ViewMapService::~ViewMapService() { stop_server(); }

InvestigationServer& ViewMapService::start_server() {
  return start_server(ServerConfig{});
}

InvestigationServer& ViewMapService::start_server(const ServerConfig& cfg) {
  if (server_ == nullptr)
    server_ = std::make_unique<InvestigationServer>(*this, cfg);
  return *server_;
}

void ViewMapService::stop_server() {
  if (server_ == nullptr) return;
  server_->stop();
  server_.reset();
}

std::size_t ViewMapService::ingest_uploads() {
#ifndef NDEBUG
  // Catch two control threads draining at once: the daemon is built on
  // the single-caller contract (IngestService is the one drainer), so a
  // second concurrent caller is a wiring bug worth failing loudly.
  ReentrancyGuard guard(ingest_entered_, "ViewMapService::ingest_uploads()");
#endif
  // The engine is stateless, so a per-call instance keeps the service
  // free of self-referential members; it publishes into the handles
  // wired once at construction, whose counters are the running totals
  // (ingest_totals()).
  index::IngestEngine engine(db_, ingest_metrics_);
  const index::IngestStats batch = engine.drain(channel_);
  return batch.accepted;
}

bool ViewMapService::register_trusted(vp::ViewProfile profile) {
  return db_.upload(std::move(profile), /*trusted=*/true) ==
         VpDatabase::Admission::kAccepted;
}

store::CheckpointStats ViewMapService::checkpoint(store::SegmentStore& store) const {
  // First contact wires the store into this service's registry (no-op if
  // the store already publishes elsewhere); all checkpoint/fsync metrics
  // are recorded inside SegmentStore itself.
  store.adopt_metrics(&metrics_);
  // One pinned snapshot for the whole checkpoint: immutable while ingest,
  // eviction, and investigations keep mutating the live database.
  return store.checkpoint(db_.snapshot());
}

store::RecoveryStats ViewMapService::restore_from(const store::SegmentStore& store) {
  store.adopt_metrics(&metrics_);
  store::RecoveryStats stats;
  // cfg_.index carries this service's registry, so the recovered
  // timeline publishes its shard gauge here too (the old timeline
  // withdraws its own contribution as it is destroyed).
  db_ = store.recover(&stats, cfg_.index);
  return stats;
}

store::RecoveryStats ViewMapService::restore_from(
    const store::SegmentStore& store, std::uint64_t sequence) {
  store.adopt_metrics(&metrics_);
  store::RecoveryStats stats;
  // recover(sequence) throws on a missing/damaged manifest *before* the
  // assignment, so a failed point-in-time restore leaves db_ intact.
  db_ = store.recover(sequence, &stats, cfg_.index);
  return stats;
}

InvestigationReport ViewMapService::investigate(const geo::Rect& site,
                                                TimeSec unit_time) {
  // One snapshot per investigation: everything below reads a pinned,
  // immutable view, so ingest and eviction proceed concurrently.
  return investigate(db_.snapshot(), site, unit_time);
}

InvestigationReport ViewMapService::investigate(const DbSnapshot& snap,
                                                const geo::Rect& site,
                                                TimeSec unit_time) {
  char label[96];
  std::snprintf(label, sizeof label, "investigate site=(%.0f,%.0f) unit=%lld",
                site.min.x, site.min.y, static_cast<long long>(unit_time));
  // The root of this request's trace: SpanScopes inside the builder,
  // TrustRank, and the verifier attach themselves to it via the
  // thread-local active trace, and a snapshot_pin span stashed by the
  // investigation server (when it is the caller) becomes its first span.
  obs::TraceScope scope(&tracer_, label);

  // Cache key: (site, unit-time, shard generation). The builder reads
  // exactly snap.shard(unit_time)'s contents, and an equal generation
  // stamp proves those contents are unchanged since a previous build
  // (see TimeShard::generation; O(1), never hashing on this path), so
  // that build's report can be returned bit-identically (trace excluded
  // — it records the serving path). A missing shard keys as generation
  // 0: such builds share one key per (site, unit_time), correctly,
  // because they all see the same empty member set.
  ResultCache::Key key{};
  const bool cacheable = cache_.enabled();
  if (cacheable) {
    key.site = site;
    key.unit_time = unit_time;
    key.generation = snap.shard_generation(unit_time).value_or(0);
    if (const std::shared_ptr<const CachedInvestigation> hit = cache_.find(key)) {
      std::optional<InvestigationReport> report;
      {
        obs::SpanScope span("result_cache_hit");
        // Re-post the solicitations: post() is idempotent, and a
        // cache-off investigate() over the same inputs would re-post
        // too — including after submit_video() withdrew a notice.
        for (const Id16& id : hit->solicited) board_.post(id, RequestKind::kVideo);
        report.emplace(
            InvestigationReport{hit->viewmap, hit->verification, hit->solicited});
      }
      report->trace = scope.finish();
      investigate_us_->record(report->trace.total_us);
      cache_hit_us_->record(report->trace.total_us);
      return std::move(*report);
    }
  }

  Viewmap map = builder_.build(snap, site, unit_time);
  pairs_tested_->add(map.pair_counts().tested);
  pairs_memoized_->add(map.pair_counts().memoized);
  memo_bytes_->set(static_cast<std::int64_t>(viewlink_memo_bytes()));
  VerificationResult verdict = verify(map, site);

  std::vector<Id16> solicited;
  {
    obs::SpanScope span("solicit");
    solicited.reserve(verdict.legitimate.size());
    for (std::size_t i : verdict.legitimate) {
      if (map.is_trusted(i)) continue;  // authorities' own videos need no request
      const Id16 id = map.member(i).vp_id();
      board_.post(id, RequestKind::kVideo);
      solicited.push_back(id);
    }
  }

  if (cacheable) {
    // Copy, don't move: the report below still owns the originals. The
    // Viewmap copy shares the CSR and the pinned shard, so it copies the
    // member and verdict arrays only.
    cache_.insert(key, std::make_shared<CachedInvestigation>(
                           CachedInvestigation{map, verdict, solicited}));
  }

  InvestigationReport report{std::move(map), std::move(verdict), std::move(solicited)};
  report.trace = scope.finish();
  investigate_us_->record(report.trace.total_us);
  return report;
}

std::vector<InvestigationReport> ViewMapService::investigate_period(
    const geo::Rect& site, TimeSec begin, TimeSec end) {
  // One snapshot per period: every minute's viewmap is built over the
  // same consistent database state.
  return investigate_period(db_.snapshot(), site, begin, end);
}

std::vector<InvestigationReport> ViewMapService::investigate_period(
    const DbSnapshot& snap, const geo::Rect& site, TimeSec begin, TimeSec end) {
  if (begin < kFirstUnitStart)
    throw std::invalid_argument("investigate_period: begin precedes the first whole minute");
  std::vector<InvestigationReport> reports;
  if (begin >= end) return reports;
  // Walk the minute starts up to the last one, never past it: stepping
  // beyond the minute of end − 1 could overflow near TimeSec's maximum.
  const TimeSec last = unit_start(end - 1);
  for (TimeSec t = unit_start(begin);; t += kUnitTimeSec) {
    if (!snap.trusted_at(t).empty())  // no trust seed, no verification
      reports.push_back(investigate(snap, site, t));
    if (t == last) break;
  }
  return reports;
}

std::vector<Id16> ViewMapService::pending_video_requests(
    std::span<const Id16> my_vp_ids) const {
  std::vector<Id16> out;
  for (const Id16& id : my_vp_ids)
    if (board_.is_posted(id, RequestKind::kVideo)) out.push_back(id);
  return out;
}

bool ViewMapService::submit_video(const Id16& vp_id, const vp::RecordedVideo& video) {
  if (!board_.is_posted(vp_id, RequestKind::kVideo)) return false;
  // An owning reference: the validation below is immune to a concurrent
  // retention pass evicting the profile's shard.
  const std::shared_ptr<const vp::ViewProfile> profile = db_.find(vp_id);
  if (profile == nullptr) return false;
  if (!validate_solicited_video(*profile, video)) return false;
  board_.withdraw(vp_id, RequestKind::kVideo);
  review_.push_back(vp_id);
  return true;
}

void ViewMapService::conclude_review(const Id16& vp_id, bool approved, int units) {
  review_.erase(std::remove(review_.begin(), review_.end(), vp_id), review_.end());
  if (approved && units > 0) {
    board_.post(vp_id, RequestKind::kReward);
    granted_[vp_id] = units;
  }
}

std::optional<int> ViewMapService::begin_reward_claim(const Id16& vp_id,
                                                      const vp::VpSecret& secret) {
  if (!board_.is_posted(vp_id, RequestKind::kReward)) return std::nullopt;
  if (secret.vp_id() != vp_id) return std::nullopt;  // ownership proof failed
  auto it = granted_.find(vp_id);
  if (it == granted_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::vector<crypto::BigBytes>> ViewMapService::sign_reward_batch(
    const Id16& vp_id, std::span<const crypto::BigBytes> blinded) {
  auto it = granted_.find(vp_id);
  if (it == granted_.end()) return std::nullopt;
  if (blinded.size() != static_cast<std::size_t>(it->second)) return std::nullopt;
  auto signatures = bank_.sign_blinded(blinded);
  // The claim is consumed: one reward per reviewed video.
  granted_.erase(it);
  board_.withdraw(vp_id, RequestKind::kReward);
  return signatures;
}

}  // namespace viewmap::sys
