// ServiceLifecycle: the composition root of the always-on daemon.
//
// Owns one ViewMapService plus the threads that make it a service
// instead of a library: the IngestService drain, the CheckpointDaemon,
// the service's own InvestigationServer pool and the scrape endpoint.
// Sequences them through
//
//   Init ──start()──▶ Running ──drain()──▶ Draining ──stop()──▶ Stopped
//
// start() first restores from the segment store (point-in-time when
// recover_sequence names a manifest, newest otherwise), *then* starts
// threads — recovery must finish before anything mutates the database.
//
// Shutdown ordering is the load-bearing part (argued in
// src/daemon/README.md): drain() flips the state first (healthz goes
// not-ready, submits start rejecting), stops ingest second (drains the
// channel to empty), the investigation server third, and the
// checkpointer LAST — its final cycle therefore seals a manifest
// containing every VP any submitter was ever told was accepted. The
// scrape endpoint outlives the drain so operators can watch it happen;
// stop() takes it down.
//
// kill_for_test() is the in-process stand-in for kill -9: every thread
// is abort()ed — no channel drain, no final checkpoint — so the store
// holds exactly what the last periodic cycle sealed, which is precisely
// the state a crash leaves. The soak tests alternate it with fresh
// ServiceLifecycle instances on the same directory to hammer the PR 5
// recovery invariant.
//
// Health is computed when it is read, a pure function of the clock and
// what the components report; no thread samples anything. It is a
// second axis, orthogonal to lifecycle state: a Running daemon is
// healthy / degraded / failing. Degraded means "serving, but a
// durability cycle has failed since the last success — data since the
// last sealed manifest is at risk if we crash now"; failing means
// kFailingAfter consecutive checkpoint failures, or a wedged component:
// a running ingest, checkpoint or scrape thread whose Heartbeat is
// kStallAfter old (each beats even when idle, so "quiet" and "wedged"
// are distinguishable). An operator/orchestrator should act on failing.
// /healthz returns 200 only for a healthy Running daemon; the body
// carries health=, wedged= and reason= lines. Every read also sets
// viewmap_daemon_health (0/1/2) and viewmap_daemon_wedged{component},
// and the scrape endpoint reads health before each GET /metrics, so the
// exported gauges are current in every scrape. The first successful
// checkpoint snaps health straight back to healthy — the state machine
// has no memory beyond the consecutive-failure gauge it reads.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <memory>
#include <string>
#include <utility>

#include "daemon/checkpoint_daemon.h"
#include "daemon/ingest_service.h"
#include "daemon/scrape_endpoint.h"
#include "store/segment_store.h"
#include "system/investigation_server.h"
#include "system/service.h"

namespace viewmap::daemon {

enum class LifecycleState : int {
  kInit = 0,
  kRunning = 1,
  kDraining = 2,
  kStopped = 3,
};

[[nodiscard]] const char* to_string(LifecycleState s) noexcept;

/// Health of a Running daemon (see header comment). Ordered: higher is
/// worse, and the exported viewmap_daemon_health gauge is the enum value.
enum class HealthState : int {
  kHealthy = 0,
  kDegraded = 1,
  kFailing = 2,
};

[[nodiscard]] const char* to_string(HealthState s) noexcept;

/// Consecutive checkpoint failures at which health turns failing; the
/// first failure already turns it degraded.
inline constexpr std::uint64_t kFailingAfter = 5;

/// A running component whose Heartbeat is this old is wedged (failing).
/// Generous: a loaded 1-core box legitimately schedules threads coarsely.
inline constexpr std::chrono::milliseconds kStallAfter{10000};

struct DaemonConfig {
  sys::ServiceConfig service{};
  /// Investigation front.
  sys::ServerConfig server{};
  /// Segment-store directory. Empty ⇒ no persistence: no recovery on
  /// start, no checkpoint thread (a pure in-memory service).
  std::string store_dir;
  store::SegmentStoreConfig store{};
  /// 0 ⇒ recover newest-recoverable; otherwise restore exactly this
  /// manifest sequence (throws out of start() if absent/damaged).
  std::uint64_t recover_sequence = 0;
  IngestServiceConfig ingest{};
  CheckpointConfig checkpoint{};
  /// Port 0 (the default) binds an OS-assigned port; read it back via
  /// scrape_port().
  ScrapeConfig scrape{};
};

class ServiceLifecycle {
 public:
  /// Constructs the service (and store when configured) but starts no
  /// thread: state() == kInit until start().
  explicit ServiceLifecycle(DaemonConfig cfg);
  /// stop()s (which drains first when still Running).
  ~ServiceLifecycle();

  ServiceLifecycle(const ServiceLifecycle&) = delete;
  ServiceLifecycle& operator=(const ServiceLifecycle&) = delete;

  /// Init → Running: sweep stale checkpoint temps, restore from the
  /// store, then start ingest, checkpointer, investigation server and
  /// scrape endpoint — in that order. False when not in Init
  /// (double start, restart of a stopped instance — construct a fresh
  /// one). Throws when recovery or the scrape bind fails; no thread is
  /// left running on throw.
  bool start();

  /// Running → Draining: stop intake and settle all accepted work (see
  /// header comment for the ordering argument). The scrape endpoint
  /// stays up. False when the final checkpoint failed after all its
  /// retries — every thread is still joined and the store still holds
  /// its last good manifest, but work accepted since is NOT sealed;
  /// last_error() says why (viewmapd turns this into a non-zero exit).
  /// True when not Running (nothing to lose — no-op).
  bool drain();

  /// → Stopped: drain() first when still Running, then stop the scrape
  /// endpoint. Returns the drain verdict (false ⇔ a final
  /// checkpoint was attempted and failed; see drain()). Safe before
  /// start() and idempotent — repeat calls report the recorded outcome.
  bool stop();

  /// Crash simulation: abort every thread with no drain and no final
  /// checkpoint, → Stopped. The store is left exactly as the last
  /// sealed manifest describes — the on-disk state of kill -9.
  void kill_for_test();

  [[nodiscard]] LifecycleState state() const noexcept {
    return static_cast<LifecycleState>(state_.load(std::memory_order_acquire));
  }

  [[nodiscard]] sys::ViewMapService& service() noexcept { return service_; }
  [[nodiscard]] IngestService& ingest() noexcept { return *ingest_; }
  [[nodiscard]] CheckpointDaemon* checkpointer() noexcept {
    return checkpointer_.get();
  }
  [[nodiscard]] store::SegmentStore* store() noexcept { return store_.get(); }
  /// 0 when the scrape endpoint is not running.
  [[nodiscard]] std::uint16_t scrape_port() const noexcept {
    return scrape_.port();
  }
  /// Stats of the restore start() performed; recovered() false when the
  /// store was empty or absent (fresh database).
  [[nodiscard]] bool recovered() const noexcept { return recovered_; }
  [[nodiscard]] const store::RecoveryStats& recovery() const noexcept {
    return recovery_;
  }

  /// Health state machine (see header comment) as of `now`: kFailing
  /// when a component is wedged or the checkpointer reports
  /// kFailingAfter consecutive failures, kDegraded after one, kHealthy
  /// otherwise. Also sets viewmap_daemon_health and
  /// viewmap_daemon_wedged{component}. Thread-safe (scrape thread +
  /// tests).
  [[nodiscard]] HealthState health_state(
      std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now()) const;

  /// healthz payload as of `now`: 200 ⇔ Running AND kHealthy. The body
  /// reports state=, health=, any wedged= components, a reason= line
  /// while checkpoints fail, and one last_error= line: why the final
  /// checkpoint failed, else the newest failure of the current streak.
  [[nodiscard]] std::pair<bool, std::string> health(
      std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now()) const;

  /// what() of the failure that made drain()/stop() return false; empty
  /// while clean. Thread-safe.
  [[nodiscard]] std::string last_error() const;

  /// Stale `*.tmp` files swept by start() before recovery (crash debris
  /// from an interrupted checkpoint of a previous process).
  [[nodiscard]] std::size_t swept_temps() const noexcept { return swept_temps_; }

  // ── process signal plumbing (used by viewmapd) ─────────────────────
  /// Installs SIGTERM/SIGINT handlers that set a process-wide flag (a
  /// handler can do nothing else safely); the main loop polls
  /// shutdown_requested() and runs drain()+stop() itself.
  static void install_signal_handlers();
  [[nodiscard]] static bool shutdown_requested() noexcept;
  static void request_shutdown() noexcept;  ///< what the handlers call
  static void clear_shutdown() noexcept;    ///< tests re-arm the flag

 private:
  void set_state(LifecycleState s) noexcept;

  /// The components health watches, in kComponents order.
  static constexpr std::array<const char*, 3> kComponents{"ingest", "checkpoint",
                                                          "scrape"};
  struct Verdict {
    HealthState health = HealthState::kHealthy;
    std::array<bool, kComponents.size()> wedged{};
    std::uint64_t consecutive_failures = 0;  ///< the checkpoint streak read
  };
  /// Computes health as of `now` and exports it to the gauges.
  Verdict evaluate(std::chrono::steady_clock::time_point now) const;

  DaemonConfig cfg_;
  sys::ViewMapService service_;
  std::unique_ptr<store::SegmentStore> store_;
  std::unique_ptr<IngestService> ingest_;
  std::unique_ptr<CheckpointDaemon> checkpointer_;
  ScrapeEndpoint scrape_;

  store::RecoveryStats recovery_{};
  bool recovered_ = false;
  std::size_t swept_temps_ = 0;

  std::atomic<int> state_{static_cast<int>(LifecycleState::kInit)};
  obs::Gauge* state_g_ = nullptr;
  obs::Gauge* health_g_ = nullptr;
  std::array<obs::Gauge*, kComponents.size()> wedged_g_{};  ///< viewmap_daemon_wedged

  /// Shutdown verdict + its error, shared between the draining thread
  /// and health()/last_error() readers.
  mutable std::mutex error_mutex_;
  bool clean_ = true;            ///< under error_mutex_
  std::string last_error_;       ///< under error_mutex_
};

}  // namespace viewmap::daemon
