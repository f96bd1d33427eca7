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
// The drain loop adapts to load: every pass that accepts work resets an
// exponential idle backoff; an empty channel doubles it up to
// idle_backoff_max, so a quiet daemon costs a few wakeups per second
// while a busy one drains continuously. Each loop pass bumps
// viewmap_daemon_heartbeats_total{component="ingest"} — the signal the
// lifecycle watchdog reads to tell "idle" from "wedged".
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
  /// First idle sleep after the channel runs dry; doubles per idle pass.
  std::chrono::milliseconds idle_backoff_min{1};
  /// Idle sleep ceiling — also the worst-case submit→ingest latency on
  /// a quiet daemon (a submit() notifies the drain, so in practice the
  /// sleeper wakes immediately).
  std::chrono::milliseconds idle_backoff_max{200};
  /// Channel occupancy bound enforced by submit(), which blocks the
  /// uploader at the bound. 0 ⇒ unbounded (library behaviour — only
  /// sensible under a trusted workload).
  std::size_t max_pending_uploads = 4096;
};

class IngestService {
 public:
  /// Registers its metrics in `service.metrics()`. Nothing runs until
  /// start().
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
