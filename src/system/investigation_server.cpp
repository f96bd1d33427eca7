#include "system/investigation_server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace viewmap::sys {

namespace {

std::uint64_t us_since(std::chrono::steady_clock::time_point start) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// The steady_clock instant by which a request must start; max() ⇔ none.
/// now() + deadline is computed in nanoseconds, so a deadline beyond the
/// clock's headroom (~292 years) saturates instead of overflowing int64.
/// The headroom is compared in milliseconds: converting a huge deadline
/// to nanoseconds would itself overflow.
std::chrono::steady_clock::time_point start_by(std::chrono::milliseconds deadline) {
  using Clock = std::chrono::steady_clock;
  if (deadline.count() <= 0) return Clock::time_point::max();
  const auto now = Clock::now();
  if (deadline >= std::chrono::duration_cast<std::chrono::milliseconds>(
                      Clock::time_point::max() - now))
    return Clock::time_point::max();
  return now + deadline;
}

}  // namespace

InvestigationServer::InvestigationServer(ViewMapService& service,
                                         const ServerConfig& cfg)
    : service_(service), cfg_(cfg) {
  if (cfg_.workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.workers = hw == 0 ? 1 : hw;
  }
  cfg_.queue_capacity = std::max<std::size_t>(cfg_.queue_capacity, 1);

  // Resolve every registry handle before any worker exists.
  obs::MetricsRegistry& reg = service_.metrics();
  submitted_c_ = &reg.counter("viewmap_server_submitted_total");
  completed_c_ = &reg.counter("viewmap_server_completed_total");
  rejected_c_ = &reg.counter("viewmap_server_rejected_total");
  reports_c_ = &reg.counter("viewmap_server_reports_total");
  batches_c_ = &reg.counter("viewmap_server_batches_total");
  snapshots_c_ = &reg.counter("viewmap_server_snapshots_total");
  failed_c_ = &reg.counter("viewmap_server_failed_total");
  expired_c_ = &reg.counter("viewmap_server_deadline_expired_total");
  busy_us_c_ = &reg.counter("viewmap_server_busy_us_total");
  idle_us_c_ = &reg.counter("viewmap_server_idle_us_total");
  queue_depth_g_ = &reg.gauge("viewmap_server_queue_depth");
  queue_peak_g_ = &reg.gauge("viewmap_server_queue_peak");
  request_us_ = &reg.histogram("viewmap_server_request_us");
  queue_depth_g_->set(0);

  workers_.reserve(cfg_.workers);
  try {
    for (std::size_t i = 0; i < cfg_.workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    stop();  // join the workers that did spawn before rethrowing
    throw;
  }
}

InvestigationServer::~InvestigationServer() { stop(); }

std::future<InvestigationServer::Reports> InvestigationServer::submit(
    const geo::Rect& site, TimeSec unit_time, const SubmitOptions& opts) {
  // A unit_time before kFirstUnitStart has no minute start; it goes to
  // the worker as is, and investigate_period()'s rejection fails the
  // future. The last minute is cut at TimeSec's maximum.
  const TimeSec begin = unit_time < kFirstUnitStart ? unit_time : unit_start(unit_time);
  const TimeSec end = begin > std::numeric_limits<TimeSec>::max() - kUnitTimeSec
                          ? std::numeric_limits<TimeSec>::max()
                          : begin + kUnitTimeSec;
  return submit_period(site, begin, end, opts);
}

std::future<InvestigationServer::Reports> InvestigationServer::submit_period(
    const geo::Rect& site, TimeSec begin, TimeSec end, const SubmitOptions& opts) {
  Request req{site, begin, end, start_by(opts.deadline), {}};
  std::future<Reports> fut = req.promise.get_future();
  auto& queue = queues_[static_cast<std::size_t>(opts.priority)];
  {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [this] {
      return queued() < cfg_.queue_capacity || stopping_;
    });
    if (stopping_) {
      rejected_c_->add();
      return {};  // invalid future ⇔ rejected, nothing queued
    }
    queue.push_back(std::move(req));
    submitted_c_->add();
    const std::size_t depth = queued();
    queue_depth_g_->set(static_cast<std::int64_t>(depth));
    queue_peak_g_->update_max(static_cast<std::int64_t>(depth));
  }
  not_empty_.notify_one();
  return fut;
}

void InvestigationServer::pause() {
  std::lock_guard lock(mutex_);
  if (!stopping_) paused_ = true;  // stop() has priority: the queue must drain
}

void InvestigationServer::resume() {
  {
    std::lock_guard lock(mutex_);
    paused_ = false;
  }
  not_empty_.notify_all();
}

void InvestigationServer::stop() {
  // The pool is claimed under the lock, joined outside it: two threads
  // calling stop() on a live server each get a disjoint set of threads
  // to join — never the same std::thread. (Destroying the server itself
  // concurrently is a lifecycle question; see ViewMapService's
  // start_server/stop_server contract.)
  std::vector<std::thread> claimed;
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    paused_ = false;  // stop overrides pause: the queue must drain
    claimed.swap(workers_);
  }
  not_empty_.notify_all();
  not_full_.notify_all();  // blocked submitters wake up and get rejected
  for (auto& worker : claimed)
    if (worker.joinable()) worker.join();
}

std::size_t InvestigationServer::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queued();
}

std::size_t InvestigationServer::worker_count() const {
  std::lock_guard lock(mutex_);
  return workers_.size();
}

ServerStats InvestigationServer::stats() const {
  ServerStats s;
  s.submitted = submitted_c_->value();
  s.completed = completed_c_->value();
  s.rejected = rejected_c_->value();
  s.reports = reports_c_->value();
  s.batches = batches_c_->value();
  s.snapshots = snapshots_c_->value();
  s.failed = failed_c_->value();
  s.expired = expired_c_->value();
  s.peak_queue = static_cast<std::size_t>(queue_peak_g_->value());
  return s;
}

void InvestigationServer::worker_loop() {
  for (;;) {
    // Engaged only on dequeue: a default-constructed Request would
    // allocate a promise state just to overwrite it.
    std::optional<Request> req;
    {
      std::unique_lock lock(mutex_);
      // stopping_ overrides paused_ so a pause() racing stop() can never
      // strand queued requests (and stop() in workers' join).
      const auto idle_start = std::chrono::steady_clock::now();
      not_empty_.wait(lock, [this] {
        return (queued() != 0 && (!paused_ || stopping_)) ||
               (stopping_ && queued() == 0);
      });
      idle_us_c_->add(us_since(idle_start));
      if (queued() == 0) return;  // stopping, fully drained
      // Highest priority class first (kLive → kNormal → kBatch), FIFO
      // within a class.
      auto& queue = *std::find_if(queues_.rbegin(), queues_.rend(),
                                  [](const auto& q) { return !q.empty(); });
      req.emplace(std::move(queue.front()));
      queue.pop_front();
      queue_depth_g_->set(static_cast<std::int64_t>(queued()));
      batches_c_->add();
    }
    not_full_.notify_one();
    const auto busy_start = std::chrono::steady_clock::now();
    serve(*req);
    busy_us_c_->add(us_since(busy_start));
  }
}

void InvestigationServer::serve(Request& req) {
  // Stats commit BEFORE the promise resolves: a caller returning from
  // future::get() always observes this request in stats().completed.
  const auto start = std::chrono::steady_clock::now();
  if (start > req.deadline) {
    // Expired while queued: fail fast, don't pin or burn a worker on it.
    completed_c_->add();
    expired_c_->add();
    request_us_->record(us_since(start));
    req.promise.set_exception(std::make_exception_ptr(DeadlineExpired{}));
    return;
  }
  try {
    if (failpoint::any_armed() && failpoint::evaluate("server.snapshot").fires())
      throw std::runtime_error("injected snapshot-acquisition failure");
    const index::DbSnapshot snap = service_.database().snapshot();
    snapshots_c_->add();
    // The pin precedes the traced investigate() entry point; stash its
    // duration so the request's first trace adopts it as a span.
    obs::stash_span("snapshot_pin", us_since(start));
    Reports reports = service_.investigate_period(snap, req.site, req.begin, req.end);
    completed_c_->add();
    reports_c_->add(reports.size());
    request_us_->record(us_since(start));
    req.promise.set_value(std::move(reports));
  } catch (...) {
    completed_c_->add();
    failed_c_->add();
    request_us_->record(us_since(start));
    req.promise.set_exception(std::current_exception());
  }
}

}  // namespace viewmap::sys
