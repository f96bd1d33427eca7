// Heartbeat: a daemon thread's liveness beacon.
//
// Each beat() bumps viewmap_daemon_heartbeats_total{component=…} and
// stamps the steady clock. ServiceLifecycle judges "wedged" from the
// stamp whenever health is read (a running component whose last beat is
// kStallAfter old), so no thread samples the counters. Threads beat even
// when idle (their long waits are sliced), which is what makes "quiet"
// and "wedged" distinguishable.
#pragma once

#include <atomic>
#include <chrono>

#include "obs/metrics.h"

namespace viewmap::daemon {

class Heartbeat {
 public:
  /// Registers the component's heartbeat counter in `registry`.
  Heartbeat(obs::MetricsRegistry& registry, const char* component)
      : beats_(&registry.counter("viewmap_daemon_heartbeats_total",
                                 {{"component", component}})) {}

  /// Thread-safe; called by the beating thread, and by its owner's
  /// start() so a freshly started component is never judged stale.
  void beat() noexcept {
    last_.store(std::chrono::steady_clock::now().time_since_epoch().count());
    beats_->add();
  }

  /// When beat() last ran (the clock's epoch if it never ran).
  [[nodiscard]] std::chrono::steady_clock::time_point last() const noexcept {
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(last_.load()));
  }

 private:
  obs::Counter* beats_;
  std::atomic<std::chrono::steady_clock::rep> last_{0};
};

}  // namespace viewmap::daemon
