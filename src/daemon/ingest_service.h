// Always-on ingest: the daemon thread that owns ViewMapService's
// single-caller upload drain.
//
// ViewMapService::ingest_uploads() is documented (and now debug-
// enforced, see common/reentrancy.h) as one-caller-at-a-time. In the
// library-embedding shape that caller is the test or bench driving the
// service; in the always-on daemon it is exactly one thread — this one.
// Uploader threads talk to the *channel* (internally synchronized, see
// anonet/channel.h) through submit(), which adds the one thing the raw
// channel lacks: backpressure. An unbounded pending vector under a
// saturating uploader is an OOM with extra steps, so submit() bounds the
// channel at max_pending_uploads and blocks the uploader until the
// drain catches up — loss-free; submit() refuses only while stopping.
//
// The drain loop runs passes back to back while they accept work. After
// a pass that accepts nothing it waits, under the mutex submit()
// enqueues under, until a payload is pending or a stop is requested —
// so a submit is never missed, however it races the pass — and at most
// 200 ms, so a quiet daemon still passes five times a second. Each
// loop pass bumps viewmap_daemon_heartbeats_total{component="ingest"} —
// the signal the lifecycle watchdog reads to tell "idle" from "wedged".
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace viewmap::obs {
class Counter;
class Gauge;
}  // namespace viewmap::obs
namespace viewmap::sys {
class ViewMapService;
}  // namespace viewmap::sys

namespace viewmap::daemon {

struct IngestServiceConfig {
  /// Channel occupancy bound enforced by submit(), which blocks the
  /// uploader at the bound. ≥ 1; the constructor throws
  /// std::invalid_argument on 0.
  std::size_t max_pending_uploads = 4096;
};

class IngestService {
 public:
  /// Registers its metrics in `service.metrics()`. Nothing runs until
  /// start(). Throws std::invalid_argument when cfg.max_pending_uploads
  /// is 0.
  IngestService(sys::ViewMapService& service, IngestServiceConfig cfg);
  /// abort()s — a destructor must not block on a drain nobody asked for.
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Spawns the drain thread. False if already started (double-start is
  /// a lifecycle bug, not a crash).
  bool start();

  /// Graceful shutdown: rejects new submit()s, keeps draining until the
  /// channel is empty, then joins. Every payload accepted before the
  /// call is ingested when this returns. Idempotent.
  void drain_and_stop();

  /// Crash-path shutdown: rejects new submit()s and joins after the
  /// current pass, leaving any still-pending payloads in the channel —
  /// the in-process stand-in for kill -9 (those payloads are exactly the
  /// ones a real crash would lose). Idempotent.
  void abort();

  /// Uploader-facing enqueue with backpressure: blocks while the channel
  /// holds max_pending_uploads payloads, until the drain frees a slot.
  /// Returns false (and counts a rejection) only when the service is
  /// stopping. Thread-safe, any number of callers.
  bool submit(std::vector<std::uint8_t> payload);

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

 private:
  void run();
  void stop_impl(bool drain_remaining);

  sys::ViewMapService& service_;
  IngestServiceConfig cfg_;

  obs::Counter* heartbeats_ = nullptr;
  obs::Counter* passes_ = nullptr;      ///< drain passes that accepted work
  obs::Counter* failures_ = nullptr;    ///< drain passes that threw (retried)
  obs::Counter* rejected_ = nullptr;    ///< submit()s refused while stopping
  obs::Gauge* backlog_ = nullptr;       ///< channel pending() after each pass

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< submit → drain loop
  std::condition_variable space_cv_;  ///< drain loop → blocked submitters
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};
  bool stop_requested_ = false;  ///< under mutex_
  bool drain_final_ = false;     ///< under mutex_: drain to empty on exit
  std::thread thread_;
};

}  // namespace viewmap::daemon
