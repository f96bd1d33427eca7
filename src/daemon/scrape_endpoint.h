// Minimal HTTP scrape endpoint: one blocking thread, two routes.
//
// The obs layer renders a byte-deterministic Prometheus-style text
// exposition (MetricsRegistry::render()); this module puts it on a TCP
// port. Deliberately primitive — a poll()-driven accept loop serving one
// request per connection on one thread — because a scrape every few
// seconds is the entire load profile, and a real HTTP stack is exactly
// the kind of dependency this repo does not take.
//
//   GET /metrics  → 200 text/plain, the registry exposition (byte-
//                   identical to ViewMapService::dump_metrics() for a
//                   quiesced service — the sharded counters converge the
//                   instant writers pause; tests assert the equality).
//                   The health probe runs first, so the health gauges it
//                   sets are current in every scrape.
//   GET /healthz  → 200 when the supplied health callback says the
//                   daemon is Running and nothing is wedged, 503
//                   otherwise; the body names the lifecycle state either
//                   way, so orchestration sees Draining as not-ready
//                   while the drain completes.
//   anything else → 404.
//
// The accept loop polls with a 100 ms timeout and re-checks a stop flag
// each lap, beating the "scrape" Heartbeat — closing a listening socket
// does not reliably wake a blocked accept(), so we never block in
// accept() without poll() saying a connection is already waiting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "daemon/heartbeat.h"

namespace viewmap::daemon {

struct ScrapeConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 ⇒ OS-assigned; read the result back via port().
  std::uint16_t port = 0;
};

/// (healthy, body): healthy selects 200 vs 503, body is served verbatim
/// (lifecycle state line + wedged components, see ServiceLifecycle).
using HealthProbe = std::function<std::pair<bool, std::string>()>;

class ScrapeEndpoint {
 public:
  /// `registry` and the probe must outlive the endpoint. Nothing is
  /// bound until start().
  ScrapeEndpoint(const obs::MetricsRegistry& registry, HealthProbe health,
                 ScrapeConfig cfg, obs::MetricsRegistry& own_metrics);
  ~ScrapeEndpoint();  // stop()

  ScrapeEndpoint(const ScrapeEndpoint&) = delete;
  ScrapeEndpoint& operator=(const ScrapeEndpoint&) = delete;

  /// Binds, listens, spawns the serving thread. False when already
  /// started; throws std::runtime_error when the
  /// bind itself fails (a daemon that silently serves nothing is worse
  /// than one that fails to start).
  bool start();

  /// Stops accepting, joins the thread, closes the socket. Idempotent.
  void stop();

  /// The bound port (the OS-assigned one when cfg.port was 0); 0 when
  /// not running.
  [[nodiscard]] std::uint16_t port() const noexcept {
    return port_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const Heartbeat& heartbeat() const noexcept { return heartbeat_; }

 private:
  void run();
  void serve_one(int client_fd);

  const obs::MetricsRegistry& registry_;
  HealthProbe health_;
  ScrapeConfig cfg_;
  Heartbeat heartbeat_;
  obs::Counter* requests_ = nullptr;

  std::atomic<bool> stop_flag_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint16_t> port_{0};
  int listen_fd_ = -1;
  std::thread thread_;
};

}  // namespace viewmap::daemon
