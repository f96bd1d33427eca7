// Multi-threaded investigation front (the "public service" of §5).
//
// ViewMap is pitched as an automated service: investigation requests
// arrive continuously while the anonymous upload stream never pauses.
// A DbSnapshot makes a single investigate() safe against concurrent
// ingest and retention eviction; this server is the front — a
// bounded MPMC request queue drained by a pool of worker threads, so N
// investigations proceed in parallel with each other AND with one live
// ingest_uploads() loop.
//
//   submit(site, unit_time)            ┐ bounded queue   ┌ worker 0 ─ pin
//   submit_period(site, begin, end)    ├───────────────▶ │ snapshot, build
//   … any number of submitter threads  ┘  (capacity K)   │ viewmap, verify,
//                                                        │ post solicitations
//                                                        └ worker N−1 …
//
// Each request resolves — through the std::future submit() returns — to
// exactly the reports ViewMapService::investigate_period() would have
// produced: one InvestigationReport per whole unit-time in [begin, end)
// that has a trust seed, each built over one immutable DbSnapshot and
// therefore valid indefinitely (the viewmap pins its shard).
//
// Snapshot discipline. A worker dequeues one request at a time, pins one
// fresh DbSnapshot for it, serves every minute of the request from that
// snapshot, and releases it before dequeuing again. A pin is O(live
// shards) stripe-locked pointer copies — microseconds against a viewmap
// build of milliseconds to seconds — so there is nothing worth
// amortizing across requests. A worker holds no snapshot while idle, so
// a parked server never prolongs the life of evicted shards or forces
// copy-on-write on the ingest path. A request that expired in the queue
// fails before any pin.
//
// Scheduling. The queue is three FIFOs, one per RequestPriority class;
// workers always drain the highest non-empty class first, so a kLive
// (SLA / live-incident) request overtakes any backlog of kBatch scans
// at the next dequeue. A request may also carry a start deadline
// (SubmitOptions::deadline); one dequeued too late fails fast with
// DeadlineExpired instead of wasting a worker — see stats().expired.
//
// Backpressure. The queue is bounded (queue_capacity). When it is full,
// submit() blocks the submitter until a slot frees. A post-stop()
// submission — including one blocked when stop() began — returns a
// future for which valid() == false; nothing is enqueued and
// stats().rejected counts it. pause()/resume() idle the workers without
// stopping intake (maintenance, tests); stop() rejects new submissions,
// drains every queued request, and joins the pool. The destructor
// stop()s.
//
// Concurrency contract. submit*/pause/resume/stop/queue_depth/stats are
// all thread-safe. Workers call ViewMapService::investigate(snap, …),
// whose shared state is internally synchronized: the NoticeBoard, the
// result cache, the minutes' viewlink memos and the process WorkerPool.
// The viewlink radius and the TrustRank settings are constants, so no
// per-service build configuration exists to share. Workers never touch
// the service's ingest-side members, so the one rule for the embedding
// application is unchanged from ViewMapService's own: drive
// ingest_uploads() from one thread at a time.
//
// Parallelism composes on two axes: this pool runs N *requests*
// concurrently, and each worker's viewmap build can additionally shard
// its all-pairs sweep over the process common::WorkerPool, whose width
// caps the helper threads all builds and ingest add together; a worker
// claims its own sweep tasks, so it never waits on a busy pool. Both
// read only pinned snapshot state, so they compose with each other and
// with live ingest/eviction (TSan-covered in tests/server_test.cpp).
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "geo/geometry.h"
#include "system/service.h"

namespace viewmap::obs {
class Counter;  // obs/metrics.h
class Gauge;
class Histogram;
}  // namespace viewmap::obs

namespace viewmap::sys {

/// Scheduling class of one submitted request. Workers always drain the
/// highest non-empty class first (FIFO within a class), so a kLive
/// request submitted behind a backlog of kBatch scans is served next —
/// SLA traffic preempts historical work at dequeue granularity (an
/// in-flight request is never interrupted).
enum class RequestPriority : std::uint8_t {
  kBatch = 0,   ///< historical/backfill scans: yield to everything else
  kNormal = 1,  ///< the default
  kLive = 2,    ///< live-incident / SLA traffic: served first
};

/// Per-request scheduling options for submit()/submit_period().
struct SubmitOptions {
  RequestPriority priority = RequestPriority::kNormal;
  /// Max time the request may wait before a worker *starts* serving it.
  /// Zero (the default) means no deadline. A request dequeued after its
  /// deadline fails fast: its future throws DeadlineExpired, and
  /// stats().expired counts it — distinct from post-stop rejection
  /// (invalid future) and from serve failure (stats().failed).
  std::chrono::milliseconds deadline{0};
};

/// What a deadline-expired request's future throws: the server looked at
/// the request only after its deadline passed and refused to burn a
/// worker on an answer nobody is waiting for anymore.
class DeadlineExpired : public std::runtime_error {
 public:
  DeadlineExpired() : std::runtime_error("investigation deadline expired in queue") {}
};

struct ServerConfig {
  /// Worker threads draining the queue. 0 ⇒ hardware_concurrency (min 1).
  std::size_t workers = 0;
  /// Bounded queue capacity; a submission beyond it blocks until a
  /// worker frees a slot (or stop() rejects it).
  std::size_t queue_capacity = 256;
};

/// Monotonic counters since the service was built. stats() is a plain
/// read of the viewmap_server_* counters and the viewmap_server_queue_peak
/// gauge in the service's metrics registry, the only place they are
/// kept. They count across every server a service has run, so after a
/// stop_server()/start_server() cycle they include the earlier server's
/// work; for a service that starts one server (the daemon, the benches,
/// the tests, the tools) that is the same as counting from server start.
/// Every field is a race-free sharded-counter sum — no torn multi-field
/// reads — though fields of one snapshot may be skewed by concurrent
/// progress; each is exact once the server quiesces.
struct ServerStats {
  std::size_t submitted = 0;   ///< requests accepted into the queue
  std::size_t completed = 0;   ///< requests resolved (value or exception)
  std::size_t rejected = 0;    ///< post-stop submissions
  std::size_t reports = 0;     ///< InvestigationReports produced in total
  std::size_t batches = 0;     ///< dequeue rounds workers ran; a batch
                               ///< is one request
  std::size_t snapshots = 0;   ///< DbSnapshots pinned: one per request a
                               ///< worker started serving (≤ batches;
                               ///< expired requests pin none)
  std::size_t failed = 0;      ///< completed with an exception (snapshot
                               ///< acquisition or serve failure; ⊂ completed)
  std::size_t expired = 0;     ///< completed via DeadlineExpired (⊂ completed)
  std::size_t peak_queue = 0;  ///< queue-depth high-water mark
};

class InvestigationServer {
 public:
  using Reports = std::vector<InvestigationReport>;

  /// Starts the worker pool immediately. The service must outlive the
  /// server (ViewMapService::start_server() owns one and guarantees it).
  explicit InvestigationServer(ViewMapService& service, const ServerConfig& cfg = {});
  ~InvestigationServer();
  InvestigationServer(const InvestigationServer&) = delete;
  InvestigationServer& operator=(const InvestigationServer&) = delete;

  /// One unit-time investigation. Equivalent to submit_period over
  /// [unit_start(t), unit_start(t) + one unit), cut at TimeSec's maximum.
  /// The future throws std::invalid_argument when t < kFirstUnitStart.
  [[nodiscard]] std::future<Reports> submit(const geo::Rect& site, TimeSec unit_time,
                                            const SubmitOptions& opts = {});
  /// §5.2.1 period investigation: one report per whole unit-time in
  /// [begin, end) that has a trust seed (seedless minutes are skipped,
  /// exactly as investigate_period() does). An invalid returned future
  /// (valid() == false) means the server was stopping, so the request
  /// was rejected, not queued; a valid future may still throw
  /// DeadlineExpired when opts.deadline passed before a worker got to it,
  /// or what investigate_period() throws (std::invalid_argument for a
  /// begin before kFirstUnitStart).
  [[nodiscard]] std::future<Reports> submit_period(const geo::Rect& site,
                                                   TimeSec begin, TimeSec end,
                                                   const SubmitOptions& opts = {});

  /// Idle the workers after their in-flight request; the queue still
  /// accepts (and fills — backpressure becomes observable). Idempotent.
  void pause();
  void resume();
  /// Stops intake (further submits are rejected), drains every queued
  /// request, joins the pool. Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] std::size_t queue_depth() const;
  /// Live worker threads (0 once stop() has claimed the pool).
  [[nodiscard]] std::size_t worker_count() const;
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Request {
    geo::Rect site;
    TimeSec begin = 0;
    TimeSec end = 0;
    /// steady_clock deadline for *starting* service; max() ⇔ none.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    std::promise<Reports> promise;
  };

  void worker_loop();
  /// Serves one dequeued request from a freshly pinned snapshot (or
  /// fails it as expired without pinning); fulfills its promise with
  /// reports or with the thrown exception.
  void serve(Request& req);

  ViewMapService& service_;
  ServerConfig cfg_;

  /// Total queued requests across all priority classes. mutex_ held.
  [[nodiscard]] std::size_t queued() const noexcept {
    return queues_[0].size() + queues_[1].size() + queues_[2].size();
  }

  mutable std::mutex mutex_;  ///< guards queues_, paused_, stopping_, workers_
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  /// One FIFO per priority class, indexed by RequestPriority; dequeue
  /// scans kLive → kNormal → kBatch. The capacity bound applies to the
  /// sum — a full queue blocks submitters regardless of class (priority
  /// decides service order, not admission).
  std::array<std::deque<Request>, 3> queues_;
  bool paused_ = false;
  bool stopping_ = false;

  /// Registry handles (the service always has a registry, so never
  /// null). Counters are cumulative across server generations — see
  /// ServerStats.
  obs::Counter* submitted_c_ = nullptr;
  obs::Counter* completed_c_ = nullptr;
  obs::Counter* rejected_c_ = nullptr;
  obs::Counter* reports_c_ = nullptr;
  obs::Counter* batches_c_ = nullptr;
  obs::Counter* snapshots_c_ = nullptr;
  obs::Counter* failed_c_ = nullptr;   ///< requests completed exceptionally
  obs::Counter* expired_c_ = nullptr;  ///< requests failed via DeadlineExpired
  obs::Counter* busy_us_c_ = nullptr;  ///< worker µs spent serving requests
  obs::Counter* idle_us_c_ = nullptr;  ///< worker µs blocked on the queue
  obs::Gauge* queue_depth_g_ = nullptr;
  obs::Gauge* queue_peak_g_ = nullptr;
  obs::Histogram* request_us_ = nullptr;

  std::vector<std::thread> workers_;
};

}  // namespace viewmap::sys
