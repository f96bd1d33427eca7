#include "daemon/ingest_service.h"

#include <stdexcept>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "system/service.h"

namespace viewmap::daemon {
namespace {

/// Longest idle wait of the drain loop, so heartbeats keep coming.
constexpr std::chrono::milliseconds kIdleSlice{200};
/// Wait before the pass after one that threw.
constexpr std::chrono::milliseconds kFailedPassRetry{10};

}  // namespace

IngestService::IngestService(sys::ViewMapService& service,
                             IngestServiceConfig cfg)
    : service_(service), cfg_(cfg), heartbeat_(service.metrics(), "ingest") {
  if (cfg_.max_pending_uploads == 0)
    throw std::invalid_argument("IngestService: max_pending_uploads must be >= 1");
  auto& reg = service_.metrics();
  passes_ = &reg.counter("viewmap_daemon_ingest_passes_total");
  failures_ = &reg.counter("viewmap_daemon_ingest_failures_total");
  rejected_ = &reg.counter("viewmap_daemon_submit_rejected_total");
  backlog_ = &reg.gauge("viewmap_daemon_ingest_backlog");
}

IngestService::~IngestService() { abort(); }

bool IngestService::start() {
  std::lock_guard lock(mutex_);
  if (thread_.joinable()) return false;
  stop_requested_ = false;
  drain_final_ = false;
  heartbeat_.beat();
  running_.store(true, std::memory_order_release);
  accepting_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

void IngestService::drain_and_stop() { stop_impl(/*drain_remaining=*/true); }

void IngestService::abort() { stop_impl(/*drain_remaining=*/false); }

void IngestService::stop_impl(bool drain_remaining) {
  {
    std::lock_guard lock(mutex_);
    // Once this store is visible under the mutex no further payload can
    // be admitted: submit() enqueues only under the same mutex, after
    // re-checking the flag. That makes the drain loop's final
    // pending() == 0 check exact, not best-effort.
    accepting_.store(false, std::memory_order_release);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
    drain_final_ = drain_remaining;
  }
  // Unblock everyone: submitters give up (accepting_ is off), the drain
  // loop sees stop_requested_ and runs its exit path.
  work_cv_.notify_all();
  space_cv_.notify_all();
  thread_.join();
  running_.store(false, std::memory_order_release);
}

bool IngestService::submit(std::vector<std::uint8_t> payload) {
  auto& channel = service_.upload_channel();
  std::unique_lock lock(mutex_);
  while (accepting_.load(std::memory_order_acquire) &&
         channel.pending() >= cfg_.max_pending_uploads)
    space_cv_.wait(lock);
  if (!accepting_.load(std::memory_order_acquire)) {
    rejected_->add();
    return false;
  }
  channel.submit(std::move(payload));
  lock.unlock();
  work_cv_.notify_one();
  return true;
}

void IngestService::run() {
  auto& channel = service_.upload_channel();
  for (;;) {
    heartbeat_.beat();
    // A throwing drain pass must not take the thread (and with it the
    // whole daemon) down: the payloads stay queued in the channel, so
    // waiting a moment and re-draining loses nothing. Real throws here
    // are resource exhaustion inside ingest; the failpoint stands in
    // for them in the chaos suite.
    std::size_t accepted = 0;
    try {
      if (const int err = failpoint::inject("daemon.ingest.pass"); err != 0)
        throw std::runtime_error("ingest_service: drain pass failed (injected)");
      accepted = service_.ingest_uploads();
    } catch (const std::exception&) {
      failures_->add();
      std::unique_lock lock(mutex_);
      if (stop_requested_ && !drain_final_) return;
      work_cv_.wait_for(lock, kFailedPassRetry);
      continue;
    }
    backlog_->set(static_cast<std::int64_t>(channel.pending()));
    // The drain freed channel slots — wake submitters parked on the
    // occupancy bound.
    space_cv_.notify_all();
    if (accepted > 0) {
      passes_->add();
      continue;  // stay hot while work keeps arriving
    }
    std::unique_lock lock(mutex_);
    if (stop_requested_) {
      if (!drain_final_) return;
      // Graceful exit: accepting_ is off and submit() enqueues only
      // under this mutex, so pending() can no longer grow — re-drain
      // until a pass leaves the channel empty.
      if (channel.pending() == 0) return;
      continue;
    }
    // submit() enqueues under this mutex, so a payload that arrived after
    // the pass is pending here, and one that arrives later notifies.
    work_cv_.wait_for(lock, kIdleSlice,
                      [&] { return stop_requested_ || channel.pending() != 0; });
  }
}

}  // namespace viewmap::daemon
