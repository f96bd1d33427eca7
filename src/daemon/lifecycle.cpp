#include "daemon/lifecycle.h"

#include <algorithm>
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
    : cfg_(std::move(cfg)),
      service_(cfg_.service),
      scrape_(service_.metrics(), [this] { return health(); }, cfg_.scrape,
              service_.metrics()) {
  auto& reg = service_.metrics();
  state_g_ = &reg.gauge("viewmap_daemon_state");
  state_g_->set(static_cast<int>(LifecycleState::kInit));
  health_g_ = &reg.gauge("viewmap_daemon_health");
  health_g_->set(static_cast<int>(HealthState::kHealthy));
  for (std::size_t i = 0; i < kComponents.size(); ++i)
    wedged_g_[i] = &reg.gauge("viewmap_daemon_wedged", {{"component", kComponents[i]}});

  if (!cfg_.store_dir.empty()) {
    store_ = std::make_unique<store::SegmentStore>(cfg_.store_dir, cfg_.store);
    checkpointer_ =
        std::make_unique<CheckpointDaemon>(service_, *store_, cfg_.checkpoint);
  }
  ingest_ = std::make_unique<IngestService>(service_, cfg_.ingest);
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
  service_.start_server(cfg_.server);
  try {
    scrape_.start();
  } catch (...) {
    // Leave no thread running behind a failed start.
    ingest_->abort();
    if (checkpointer_ != nullptr) checkpointer_->abort();
    service_.stop_server();
    throw;
  }
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
  scrape_.stop();
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
  scrape_.stop();
  set_state(LifecycleState::kStopped);
}

ServiceLifecycle::Verdict ServiceLifecycle::evaluate(
    std::chrono::steady_clock::time_point now) const {
  const auto stalled = [now](bool running, const Heartbeat& h) {
    return running && now - h.last() >= kStallAfter;
  };
  Verdict v;
  v.wedged = {stalled(ingest_->running(), ingest_->heartbeat()),
              checkpointer_ != nullptr &&
                  stalled(checkpointer_->running(), checkpointer_->heartbeat()),
              stalled(scrape_.running(), scrape_.heartbeat())};
  v.consecutive_failures =
      checkpointer_ != nullptr ? checkpointer_->consecutive_failures() : 0;
  const bool wedged_any = std::ranges::find(v.wedged, true) != v.wedged.end();
  if (wedged_any || v.consecutive_failures >= kFailingAfter)
    v.health = HealthState::kFailing;
  else if (v.consecutive_failures > 0)
    v.health = HealthState::kDegraded;
  for (std::size_t i = 0; i < kComponents.size(); ++i) wedged_g_[i]->set(v.wedged[i]);
  health_g_->set(static_cast<int>(v.health));
  return v;
}

HealthState ServiceLifecycle::health_state(
    std::chrono::steady_clock::time_point now) const {
  return evaluate(now).health;
}

std::pair<bool, std::string> ServiceLifecycle::health(
    std::chrono::steady_clock::time_point now) const {
  const LifecycleState s = state();
  const Verdict v = evaluate(now);
  std::string body = "state=";
  body += to_string(s);
  body += '\n';
  body += "health=";
  body += to_string(v.health);
  body += '\n';
  for (std::size_t i = 0; i < kComponents.size(); ++i)
    if (v.wedged[i]) body += std::string("wedged=") + kComponents[i] + '\n';
  if (v.consecutive_failures > 0)
    body += "reason=checkpoint-failures:" + std::to_string(v.consecutive_failures) + '\n';
  {
    // One last_error= line: a failed final checkpoint's verdict already
    // quotes the streak's newest error.
    std::lock_guard lock(error_mutex_);
    if (!clean_)
      body += "last_error=" + last_error_ + '\n';
    else if (v.consecutive_failures > 0)
      body += "last_error=" + checkpointer_->last_error() + '\n';
  }
  const bool healthy =
      s == LifecycleState::kRunning && v.health == HealthState::kHealthy;
  body += healthy ? "ok\n" : "not-ready\n";
  return {healthy, body};
}

std::string ServiceLifecycle::last_error() const {
  std::lock_guard lock(error_mutex_);
  return last_error_;
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
