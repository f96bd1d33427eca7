#include "daemon/lifecycle.h"

#include <csignal>

#include "obs/metrics.h"

namespace viewmap::daemon {

namespace {
/// Signal handlers may only touch lock-free atomics; the lifecycle's
/// main loop polls this.
std::atomic<bool> g_shutdown{false};
extern "C" void handle_shutdown_signal(int) { g_shutdown.store(true); }
}  // namespace

const char* to_string(LifecycleState s) noexcept {
  switch (s) {
    case LifecycleState::kInit: return "init";
    case LifecycleState::kRunning: return "running";
    case LifecycleState::kDraining: return "draining";
    case LifecycleState::kStopped: return "stopped";
  }
  return "unknown";
}

const char* to_string(HealthState s) noexcept {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kFailing: return "failing";
  }
  return "unknown";
}

ServiceLifecycle::ServiceLifecycle(DaemonConfig cfg)
    : cfg_(std::move(cfg)), service_(cfg_.service) {
  auto& reg = service_.metrics();
  state_g_ = &reg.gauge("viewmap_daemon_state");
  state_g_->set(static_cast<int>(LifecycleState::kInit));
  health_g_ = &reg.gauge("viewmap_daemon_health");
  health_g_->set(static_cast<int>(HealthState::kHealthy));

  if (!cfg_.store_dir.empty()) {
    store_ = std::make_unique<store::SegmentStore>(cfg_.store_dir, cfg_.store);
    checkpointer_ =
        std::make_unique<CheckpointDaemon>(service_, *store_, cfg_.checkpoint);
  }
  ingest_ = std::make_unique<IngestService>(service_, cfg_.ingest);
  if (cfg_.scrape.enabled) {
    scrape_ = std::make_unique<ScrapeEndpoint>(
        reg, [this] { return health(); }, cfg_.scrape, reg);
  }

  // Register the wedged gauges up front so a scrape before the first
  // watchdog pass still sees them (at 0).
  for (const char* component : {"ingest", "checkpoint", "scrape"}) {
    Watched w;
    w.component = component;
    w.beats = reg.find_counter(obs::MetricsRegistry::full_name(
        "viewmap_daemon_heartbeats_total", {{"component", component}}));
    w.wedged =
        &reg.gauge("viewmap_daemon_wedged", {{"component", component}});
    w.wedged->set(0);
    if (w.beats != nullptr) watched_.push_back(std::move(w));
  }
}

ServiceLifecycle::~ServiceLifecycle() { stop(); }

void ServiceLifecycle::set_state(LifecycleState s) noexcept {
  state_.store(static_cast<int>(s), std::memory_order_release);
  state_g_->set(static_cast<int>(s));
}

bool ServiceLifecycle::start() {
  if (state() != LifecycleState::kInit) return false;

  if (store_ != nullptr) {
    // Crash debris first: a checkpoint interrupted by the previous
    // process's death may have left a half-written `*.tmp` behind.
    // recover() is contractually read-only, so the sweep is its own
    // explicit step (still before any thread could start a checkpoint).
    swept_temps_ = store_->sweep_temps();
    if (cfg_.recover_sequence != 0) {
      recovery_ = service_.restore_from(*store_, cfg_.recover_sequence);
      recovered_ = true;
    } else if (store_->latest_sequence() != 0) {
      recovery_ = service_.restore_from(*store_);
      recovered_ = true;
    }
    // Empty store: nothing to recover, first checkpoint will seed it.
  }

  ingest_->start();
  if (checkpointer_ != nullptr) checkpointer_->start();
  if (cfg_.start_server) service_.start_server(cfg_.server);
  if (scrape_ != nullptr) {
    try {
      scrape_->start();
    } catch (...) {
      // Leave no thread running behind a failed start.
      ingest_->abort();
      if (checkpointer_ != nullptr) checkpointer_->abort();
      service_.stop_server();
      throw;
    }
  }
  start_watchdog();
  set_state(LifecycleState::kRunning);
  return true;
}

bool ServiceLifecycle::drain() {
  if (state() != LifecycleState::kRunning) return true;
  // 1) Flip the state first: healthz goes not-ready and new submits are
  //    rejected while the settle below runs.
  set_state(LifecycleState::kDraining);
  // 2) Ingest: stop intake, drain the channel to empty. After this,
  //    every payload a submitter was told was accepted is in the
  //    database.
  ingest_->drain_and_stop();
  // 3) Investigation server: reject new requests, serve out the queue,
  //    join the pool. Readers only — order vs. (4) is about not
  //    destroying the pool mid-request, not about data.
  service_.stop_server();
  // 4) Checkpointer LAST: its final cycle runs after (2), so the newest
  //    manifest contains every accepted VP — the clean-drain guarantee.
  //    When every final attempt fails, that guarantee is broken: record
  //    it so stop()/viewmapd report an unclean shutdown instead of
  //    silently dropping the tail.
  if (checkpointer_ != nullptr && !checkpointer_->finish_and_stop()) {
    std::lock_guard lock(error_mutex_);
    clean_ = false;
    last_error_ = "final checkpoint failed: " + checkpointer_->last_error();
  }
  // The scrape endpoint stays up: operators watch the drain complete.
  std::lock_guard lock(error_mutex_);
  return clean_;
}

bool ServiceLifecycle::stop() {
  const LifecycleState s = state();
  if (s == LifecycleState::kStopped) {
    std::lock_guard lock(error_mutex_);
    return clean_;
  }
  if (s == LifecycleState::kRunning) drain();
  stop_watchdog();
  if (scrape_ != nullptr) scrape_->stop();
  set_state(LifecycleState::kStopped);
  std::lock_guard lock(error_mutex_);
  return clean_;
}

void ServiceLifecycle::kill_for_test() {
  if (state() == LifecycleState::kStopped) return;
  // No drain, no final checkpoint, no queue settle: on-disk state stays
  // whatever the last periodic cycle sealed — the crash image.
  ingest_->abort();
  if (checkpointer_ != nullptr) checkpointer_->abort();
  service_.stop_server();
  stop_watchdog();
  if (scrape_ != nullptr) scrape_->stop();
  set_state(LifecycleState::kStopped);
}

HealthState ServiceLifecycle::health_state() const {
  bool wedged_any = false;
  for (const auto& w : watched_)
    if (w.wedged->value() != 0) wedged_any = true;
  const std::uint64_t consecutive =
      checkpointer_ != nullptr ? checkpointer_->consecutive_failures() : 0;
  HealthState h = HealthState::kHealthy;
  if (wedged_any || consecutive >= cfg_.health.failing_after)
    h = HealthState::kFailing;
  else if (consecutive >= cfg_.health.degraded_after)
    h = HealthState::kDegraded;
  health_g_->set(static_cast<int>(h));
  return h;
}

std::pair<bool, std::string> ServiceLifecycle::health() const {
  const LifecycleState s = state();
  const HealthState h = health_state();
  std::string body = "state=";
  body += to_string(s);
  body += '\n';
  body += "health=";
  body += to_string(h);
  body += '\n';
  for (const auto& w : watched_) {
    if (w.wedged->value() != 0) body += "wedged=" + w.component + '\n';
  }
  if (h != HealthState::kHealthy && checkpointer_ != nullptr) {
    const std::uint64_t consecutive = checkpointer_->consecutive_failures();
    if (consecutive > 0) {
      body += "reason=checkpoint-failures:" + std::to_string(consecutive) + '\n';
      body += "last_error=" + checkpointer_->last_error() + '\n';
    }
  }
  {
    std::lock_guard lock(error_mutex_);
    if (!clean_) body += "last_error=" + last_error_ + '\n';
  }
  const bool healthy =
      s == LifecycleState::kRunning && h == HealthState::kHealthy;
  body += healthy ? "ok\n" : "not-ready\n";
  return {healthy, body};
}

std::string ServiceLifecycle::last_error() const {
  std::lock_guard lock(error_mutex_);
  return last_error_;
}

void ServiceLifecycle::start_watchdog() {
  if (!cfg_.watchdog.enabled) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto& w : watched_) {
    w.last_value = w.beats->value();
    w.last_change = now;
  }
  {
    std::lock_guard lock(watchdog_mutex_);
    watchdog_stop_ = false;
  }
  watchdog_ = std::thread([this] { watchdog_run(); });
}

void ServiceLifecycle::stop_watchdog() {
  {
    std::lock_guard lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void ServiceLifecycle::watchdog_run() {
  for (;;) {
    {
      std::unique_lock lock(watchdog_mutex_);
      watchdog_cv_.wait_for(lock, cfg_.watchdog.interval,
                            [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& w : watched_) {
      const std::uint64_t v = w.beats->value();
      if (v != w.last_value) {
        w.last_value = v;
        w.last_change = now;
        w.wedged->set(0);
      } else if (now - w.last_change >= cfg_.watchdog.stall_after) {
        w.wedged->set(1);
      }
    }
    // Keep the exported health gauge moving even when nobody scrapes
    // /healthz — alerting reads the metric, not the endpoint.
    (void)health_state();
  }
}

// ── signals ──────────────────────────────────────────────────────────

void ServiceLifecycle::install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = handle_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

bool ServiceLifecycle::shutdown_requested() noexcept {
  return g_shutdown.load(std::memory_order_acquire);
}

void ServiceLifecycle::request_shutdown() noexcept {
  g_shutdown.store(true, std::memory_order_release);
}

void ServiceLifecycle::clear_shutdown() noexcept {
  g_shutdown.store(false, std::memory_order_release);
}

}  // namespace viewmap::daemon
