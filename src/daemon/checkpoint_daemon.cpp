#include "daemon/checkpoint_daemon.h"

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <string_view>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "store/segment_store.h"
#include "system/service.h"

namespace viewmap::daemon {

namespace {

/// Slice long waits so the thread heartbeats (and notices stop/poke)
/// at least once a second.
constexpr std::chrono::milliseconds kMaxSlice{1000};

/// Longest wait ever drawn: half the steady clock's range (~146 years),
/// so `steady_clock::now() + wait` cannot wrap.
constexpr std::int64_t kMaxWaitMs =
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::duration::max())
        .count() / 2;

bool same_digests(const std::vector<index::DbSnapshot::ShardDigest>& a,
                  const std::vector<index::DbSnapshot::ShardDigest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].unit_time != b[i].unit_time || a[i].digest != b[i].digest)
      return false;
  return true;
}

}  // namespace

CheckpointDaemon::CheckpointDaemon(sys::ViewMapService& service,
                                   store::SegmentStore& store,
                                   CheckpointConfig cfg)
    : service_(service),
      store_(store),
      cfg_(cfg),
      heartbeat_(service.metrics(), "checkpoint") {
  if (cfg_.jitter_pct > 100)
    throw std::invalid_argument("CheckpointConfig::jitter_pct must be 0-100");
  auto& reg = service_.metrics();
  store_.adopt_metrics(&reg);
  written_c_ = &reg.counter("viewmap_daemon_checkpoints_total",
                            {{"result", "written"}});
  skipped_c_ = &reg.counter("viewmap_daemon_checkpoints_total",
                            {{"result", "skipped"}});
  sequence_g_ = &reg.gauge("viewmap_daemon_checkpoint_sequence");
  failures_enospc_ = &reg.counter("viewmap_daemon_checkpoint_failures_total",
                                  {{"reason", "enospc"}});
  failures_eio_ = &reg.counter("viewmap_daemon_checkpoint_failures_total",
                               {{"reason", "eio"}});
  failures_permission_ = &reg.counter("viewmap_daemon_checkpoint_failures_total",
                                      {{"reason", "permission"}});
  failures_other_ = &reg.counter("viewmap_daemon_checkpoint_failures_total",
                                 {{"reason", "other"}});
  consecutive_g_ = &reg.gauge("viewmap_daemon_checkpoint_consecutive_failures");
}

CheckpointDaemon::~CheckpointDaemon() { abort(); }

bool CheckpointDaemon::start() {
  std::lock_guard lock(mutex_);
  if (thread_.joinable()) return false;
  stop_requested_ = false;
  final_checkpoint_ = false;
  poked_ = false;
  heartbeat_.beat();
  thread_ = std::thread([this] { run(); });
  return true;
}

bool CheckpointDaemon::finish_and_stop() {
  return stop_impl(/*final_checkpoint=*/true);
}

void CheckpointDaemon::abort() { stop_impl(/*final_checkpoint=*/false); }

bool CheckpointDaemon::stop_impl(bool final_checkpoint) {
  {
    std::lock_guard lock(mutex_);
    if (!thread_.joinable()) return final_ok_;
    stop_requested_ = true;
    final_checkpoint_ = final_checkpoint;
  }
  cv_.notify_all();
  thread_.join();
  return final_ok_;
}

void CheckpointDaemon::poke() {
  {
    std::lock_guard lock(mutex_);
    poked_ = true;
  }
  cv_.notify_all();
}

bool CheckpointDaemon::running() const {
  std::lock_guard lock(mutex_);
  return thread_.joinable();
}

// The cycle outcome counters, the streak gauge and last_error_ change
// together under mutex_, so each read below sees whole cycles: a caller
// that observes failures() == n also observes that failure's streak.
std::uint64_t CheckpointDaemon::written() const {
  std::lock_guard lock(mutex_);
  return written_c_->value();
}

std::uint64_t CheckpointDaemon::skipped() const {
  std::lock_guard lock(mutex_);
  return skipped_c_->value();
}

std::uint64_t CheckpointDaemon::failures() const {
  std::lock_guard lock(mutex_);
  return failures_enospc_->value() + failures_eio_->value() +
         failures_permission_->value() + failures_other_->value();
}

std::uint64_t CheckpointDaemon::consecutive_failures() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::uint64_t>(consecutive_g_->value());
}

std::string CheckpointDaemon::last_error() const {
  std::lock_guard lock(mutex_);
  return last_error_;
}

std::chrono::milliseconds CheckpointDaemon::jittered(std::chrono::milliseconds base) {
  const std::int64_t b = std::clamp<std::int64_t>(base.count(), 1, kMaxWaitMs);
  if (cfg_.jitter_pct == 0) return std::chrono::milliseconds(b);
  // b · pct / 100 without forming b · pct; pct ≤ 100 keeps span ≤ b.
  const auto pct = static_cast<std::int64_t>(cfg_.jitter_pct);
  const std::int64_t span = std::max<std::int64_t>(1, b / 100 * pct + b % 100 * pct / 100);
  // base − span … base + span, uniform; b + span ≤ 2 · kMaxWaitMs fits.
  const std::int64_t offset = static_cast<std::int64_t>(
      jitter_rng_.next_u64() % static_cast<std::uint64_t>(2 * span + 1)) - span;
  return std::chrono::milliseconds(std::clamp<std::int64_t>(b + offset, 1, kMaxWaitMs));
}

std::chrono::milliseconds CheckpointDaemon::next_wait() {
  return jittered(cfg_.interval);
}

std::chrono::milliseconds CheckpointDaemon::next_backoff(
    std::chrono::milliseconds prev, bool permanent) {
  if (permanent) return kRetryBackoffMax;
  if (prev < kRetryBackoffMin) return kRetryBackoffMin;
  return std::min(prev * 2, kRetryBackoffMax);
}

bool CheckpointDaemon::cycle() {
  try {
    if (const int err = failpoint::inject("daemon.checkpoint.cycle"); err != 0)
      throw store::StoreError("checkpoint_daemon: cycle failed (injected)", err);
    // One pinned snapshot for digesting and (maybe) writing: the
    // comparison and the checkpoint describe the same database version.
    const index::DbSnapshot snap = service_.database().snapshot();
    auto digests = snap.shard_digests();
    if (have_last_ && same_digests(digests, last_digests_)) {
      std::lock_guard lock(mutex_);
      skipped_c_->add();
      consecutive_g_->set(0);
      last_error_.clear();
      return true;
    }
    const store::CheckpointStats stats = store_.checkpoint(snap);
    last_digests_ = std::move(digests);
    have_last_ = true;
    sequence_g_->set(static_cast<std::int64_t>(stats.sequence));
    std::lock_guard lock(mutex_);
    written_c_->add();
    consecutive_g_->set(0);
    last_error_.clear();
    return true;
  } catch (const std::exception& e) {
    // A failed checkpoint is survivable by construction: the store's
    // manifest rename is the commit point, so the previous sealed
    // checkpoint is untouched and retrying later is always safe.
    const auto* se = dynamic_cast<const store::StoreError*>(&e);
    last_failure_transient_ = se == nullptr || se->transient();
    obs::Counter* reason = failures_other_;
    if (se != nullptr) {
      const std::string_view r = se->reason();
      if (r == "enospc") reason = failures_enospc_;
      else if (r == "eio") reason = failures_eio_;
      else if (r == "permission") reason = failures_permission_;
    }
    std::lock_guard lock(mutex_);
    reason->add();
    consecutive_g_->add(1);
    last_error_ = e.what();
    return false;
  }
}

void CheckpointDaemon::run() {
  // 0 = healthy cadence; otherwise the current retry backoff step.
  std::chrono::milliseconds backoff{0};
  for (;;) {
    const auto wait = backoff.count() > 0 ? jittered(backoff) : next_wait();
    const auto deadline = std::chrono::steady_clock::now() + wait;
    bool stopping = false;
    bool do_final = false;
    {
      std::unique_lock lock(mutex_);
      while (!stop_requested_ && !poked_ &&
             std::chrono::steady_clock::now() < deadline) {
        heartbeat_.beat();
        const auto remaining = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - std::chrono::steady_clock::now());
        cv_.wait_for(lock, std::min(remaining, kMaxSlice));
      }
      poked_ = false;
      stopping = stop_requested_;
      do_final = final_checkpoint_;
    }
    if (stopping) {
      // The final cycle runs HERE, after stop was observed at the wait
      // phase — never skipped because stop arrived while a periodic
      // cycle (possibly pinned before ingest settled) was in flight.
      // That stale-snapshot window is exactly what the SIGTERM-during-
      // checkpoint lifecycle test exercises. SIGTERM may also land
      // mid-retry-backoff: the wait loop above wakes immediately and the
      // final checkpoint gets its own bounded attempts regardless of how
      // many periodic retries already failed.
      if (do_final) {
        bool ok = false;
        std::chrono::milliseconds final_backoff{0};
        for (unsigned attempt = 0; attempt < kFinalCheckpointAttempts && !ok; ++attempt) {
          heartbeat_.beat();
          if (attempt > 0) {
            final_backoff = next_backoff(final_backoff, !last_failure_transient_);
            std::this_thread::sleep_for(jittered(final_backoff));
          }
          ok = cycle();
        }
        final_ok_ = ok;
      }
      return;
    }
    heartbeat_.beat();
    backoff = cycle() ? std::chrono::milliseconds{0}
                      : next_backoff(backoff, !last_failure_transient_);
  }
}

}  // namespace viewmap::daemon
