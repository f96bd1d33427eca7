// Always-on daemon (src/daemon/): soak/crash harness + lifecycle edges.
//
// The core of this suite is the kill-and-recover soak: a lifecycle-
// managed daemon under live ingest, concurrent investigations, and
// retention eviction is kill_for_test()ed mid-flight over and over, and
// every restart must satisfy the PR 5 recovery invariant — land exactly
// on the newest sealed manifest (no fallback), load every profile the
// manifest promises, reject none. Clean SIGTERM-style drains are held
// to a stronger bar: the recovered database must equal the live one
// bit-for-bit (DbSnapshot::canonical_bytes, every shard re-serialized),
// because the final checkpoint runs after ingest has settled.
//
// Satellites: scrape endpoint byte-identity with dump_metrics(),
// healthz tracking lifecycle state, backpressured submit, the
// ReentrancyGuard crash (single-threaded death test, skipped under
// TSan), and the lifecycle edge matrix from the issue — double start,
// stop before start, drain with a full investigation queue, a
// checkpoint daemon firing during drain, SIGTERM racing an in-flight
// checkpoint.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/fake_vp.h"
#include "common/failpoint.h"
#include "common/reentrancy.h"
#include "common/rng.h"
#include "daemon/lifecycle.h"
#include "obs/metrics.h"
#include "store/segment_store.h"

#if defined(__SANITIZE_THREAD__)
#define VIEWMAP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VIEWMAP_TSAN 1
#endif
#endif

namespace viewmap::daemon {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Unique scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("viewmap_daemon_" + std::string(tag) + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// Fast daemon config for tests: tiny checkpoint interval, no fsync,
/// deterministic jitter, scrape off unless a test turns it on.
DaemonConfig test_config(const std::string& store_dir) {
  DaemonConfig cfg;
  cfg.service.rsa_bits = 1024;
  cfg.service.index.retention.window_sec = 5 * kUnitTimeSec;  // evict fast
  cfg.store_dir = store_dir;
  cfg.store.fsync = false;  // durability is modelled logically in tests
  cfg.checkpoint.interval = 5ms;
  cfg.checkpoint.jitter_pct = 0;
  cfg.ingest.idle_backoff_max = 5ms;  // keep submit→ingest latency tiny
  cfg.server.workers = 1;
  cfg.scrape.enabled = false;
  cfg.watchdog.interval = 50ms;
  return cfg;
}

std::vector<std::uint8_t> db_bytes(const sys::VpDatabase& db) {
  return db.snapshot().canonical_bytes();
}

/// Submits `n` synthetic VPs for `unit` through the daemon's
/// backpressured path; returns how many were admitted.
std::size_t feed(ServiceLifecycle& d, TimeSec unit, std::size_t n, Rng& rng) {
  std::size_t ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 start{rng.uniform(-200.0, 1000.0), rng.uniform(-60.0, 60.0)};
    const geo::Vec2 end{start.x + rng.uniform(200.0, 600.0),
                        start.y + rng.uniform(-20.0, 20.0)};
    if (d.ingest().submit(
            attack::make_fake_profile(unit, start, end, rng).serialize()))
      ++ok;
  }
  return ok;
}

/// Polls until the daemon's checkpointer has written at least `n`
/// manifests this instance (poking it along), or fails the test.
void await_checkpoints(ServiceLifecycle& d, std::uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (d.checkpointer()->written() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "checkpointer wrote " << d.checkpointer()->written() << "/" << n;
    d.checkpointer()->poke();
    std::this_thread::sleep_for(1ms);
  }
}

/// One-shot HTTP GET against 127.0.0.1:port; returns the raw response.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << "connect to " << port;
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

// ── tentpole: soak / crash harness ───────────────────────────────────

TEST(DaemonSoak, KillAndRecoverCycles) {
  TempDir dir("soak");
  Rng rng(7);
  constexpr int kCycles = 22;
  TimeSec unit = 0;
  std::size_t prev_manifest_profiles = 0;

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ServiceLifecycle d(test_config(dir.str()));
    ASSERT_TRUE(d.start()) << "cycle " << cycle;

    // ── recovery invariant (PR 5): land on the newest sealed manifest,
    //    no fallback, every promised profile loaded, none rejected.
    if (cycle > 0) {
      ASSERT_TRUE(d.recovered()) << "cycle " << cycle;
      const auto& r = d.recovery();
      EXPECT_EQ(r.manifests_tried, 1u) << "fallback in cycle " << cycle;
      EXPECT_EQ(r.sequence, d.store()->latest_sequence());
      EXPECT_EQ(r.profiles_loaded, r.manifest_profiles);
      EXPECT_EQ(r.profiles_rejected, 0u);
      // The crash lost at most what landed after the last seal — never
      // what the sealed manifest promised.
      EXPECT_GE(r.profiles_loaded, prev_manifest_profiles > 0 ? 1u : 0u);
    }

    // ── live load: trusted clock advance (drives retention eviction),
    //    anonymous ingest, one concurrent investigation.
    unit += kUnitTimeSec;
    ASSERT_TRUE(d.service().register_trusted(
        attack::make_fake_profile(unit, {0, 0}, {800, 0}, rng)));
    const std::size_t admitted = feed(d, unit, 40, rng);
    EXPECT_EQ(admitted, 40u);
    auto report = d.service().server()->submit({{-100, -80}, {900, 80}}, unit);

    // At least one checkpoint must seal the new unit's data before the
    // "crash", so every cycle exercises a non-empty recovery.
    await_checkpoints(d, 1);
    if (report.valid()) (void)report.get();

    const auto& r = d.recovery();
    prev_manifest_profiles = cycle > 0 ? r.profiles_loaded : 1;
    d.kill_for_test();
    EXPECT_EQ(d.state(), LifecycleState::kStopped);
  }

  // After 20+ crash cycles the store must still recover cleanly.
  store::SegmentStore store(dir.str());
  store::RecoveryStats stats;
  const sys::VpDatabase db = store.recover(&stats);
  EXPECT_EQ(stats.manifests_tried, 1u);
  EXPECT_EQ(stats.profiles_rejected, 0u);
  EXPECT_EQ(stats.profiles_loaded, stats.manifest_profiles);
  // Retention evicted old units across restarts: the recovered database
  // cannot have accumulated all 22 × 41 profiles.
  EXPECT_LT(db.size(), 22u * 41u);
  EXPECT_GT(db.size(), 0u);
}

TEST(DaemonSoak, CleanDrainIsBitForBit) {
  TempDir dir("drain");
  Rng rng(11);
  auto cfg = test_config(dir.str());
  cfg.checkpoint.interval = 1h;  // only the final drain checkpoint writes

  ServiceLifecycle d(cfg);
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  EXPECT_EQ(feed(d, 0, 120, rng), 120u);
  d.drain();
  EXPECT_EQ(d.state(), LifecycleState::kDraining);

  // Every accepted VP is in the live database (the drain settled ingest
  // first) and the final checkpoint sealed exactly that database.
  EXPECT_EQ(d.service().database().size(), 121u);
  store::SegmentStore store(dir.str());
  const sys::VpDatabase recovered = store.recover();
  EXPECT_TRUE(db_bytes(recovered) == db_bytes(d.service().database()))
      << "recovered database is not bit-for-bit the live one";
  d.stop();
  EXPECT_EQ(d.state(), LifecycleState::kStopped);
}

// ── chaos: failpoint-injected checkpoint failures ────────────────────

/// test_config plus a fast retry ladder, tight health thresholds, and a
/// cadence that only moves when poked — each test controls exactly when
/// a checkpoint attempt meets an armed failpoint.
DaemonConfig chaos_config(const std::string& store_dir) {
  auto cfg = test_config(store_dir);
  cfg.checkpoint.interval = 1h;
  cfg.checkpoint.retry_backoff_min = 1ms;
  cfg.checkpoint.retry_backoff_max = 5ms;
  cfg.health.degraded_after = 1;
  cfg.health.failing_after = 3;
  return cfg;
}

/// Pokes the checkpointer until its failure counter reaches `n`.
void await_failures(ServiceLifecycle& d, std::uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (d.checkpointer()->failures() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "checkpointer failed " << d.checkpointer()->failures() << "/" << n;
    d.checkpointer()->poke();
    std::this_thread::sleep_for(1ms);
  }
}

TEST(DaemonChaos, CheckpointFailsThenRecovers) {
  TempDir dir("chaos_recover");
  Rng rng(23);
  failpoint::disarm_all();

  ServiceLifecycle d(chaos_config(dir.str()));
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  EXPECT_EQ(feed(d, 0, 30, rng), 30u);
  while (d.service().upload_channel().pending() != 0)
    std::this_thread::sleep_for(1ms);

  // A bounded ENOSPC burst: exactly 4 checkpoint attempts fail, the
  // daemon must keep its thread alive and walk the retry ladder.
  failpoint::arm_from_spec("store.write.data=enospc@window:0:4");
  await_failures(d, 4);
  EXPECT_TRUE(d.checkpointer()->running());
  EXPECT_EQ(d.checkpointer()->written(), 0u);
  EXPECT_GE(d.checkpointer()->consecutive_failures(), 4u);
  EXPECT_FALSE(d.checkpointer()->last_error().empty());
  EXPECT_NE(d.health_state(), HealthState::kHealthy);

  // Failures are classified: the enospc reason counter moved, the
  // consecutive gauge tracks the streak.
  auto& reg = d.service().metrics();
  const auto* enospc = reg.find_counter(obs::MetricsRegistry::full_name(
      "viewmap_daemon_checkpoint_failures_total", {{"reason", "enospc"}}));
  ASSERT_NE(enospc, nullptr);
  EXPECT_GE(enospc->value(), 4u);
  EXPECT_GE(reg.gauge("viewmap_daemon_checkpoint_consecutive_failures").value(),
            4);

  // Window exhausted: the next attempt seals, the streak resets, health
  // snaps back, and the sequence gauge resumes from the failure pit.
  failpoint::disarm_all();
  await_checkpoints(d, 1);
  EXPECT_EQ(d.checkpointer()->consecutive_failures(), 0u);
  EXPECT_EQ(d.health_state(), HealthState::kHealthy);
  EXPECT_EQ(reg.gauge("viewmap_daemon_checkpoint_consecutive_failures").value(),
            0);
  EXPECT_EQ(reg.gauge("viewmap_daemon_checkpoint_sequence").value(),
            static_cast<std::int64_t>(d.store()->latest_sequence()));

  // Nothing was lost: the sealed store is bit-for-bit the live database.
  store::SegmentStore store(dir.str());
  EXPECT_EQ(db_bytes(store.recover()), db_bytes(d.service().database()));
  // And no failed attempt leaked a temp file.
  for (const auto& entry : fs::directory_iterator(dir.str()))
    EXPECT_FALSE(entry.path().filename().string().ends_with(".tmp"))
        << entry.path().filename();
  d.kill_for_test();
}

TEST(DaemonChaos, HealthzGoesDegradedAndBack) {
  TempDir dir("chaos_healthz");
  Rng rng(29);
  failpoint::disarm_all();
  auto cfg = chaos_config(dir.str());
  cfg.scrape.enabled = true;
  cfg.scrape.port = 0;

  ServiceLifecycle d(cfg);
  ASSERT_TRUE(d.start());
  const std::uint16_t port = d.scrape_port();
  ASSERT_NE(port, 0);

  // Healthy daemon: 200.
  EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);

  // Inject a failure streak: /healthz must flip to 503 and name the
  // reason and the last error.
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  EXPECT_EQ(feed(d, 0, 20, rng), 20u);
  while (d.service().upload_channel().pending() != 0)
    std::this_thread::sleep_for(1ms);
  failpoint::arm_from_spec("store.write.data=eio@window:0:2");
  await_failures(d, 1);
  const std::string degraded = http_get(port, "/healthz");
  EXPECT_NE(degraded.find("503"), std::string::npos);
  EXPECT_NE(degraded.find("health=degraded"), std::string::npos);
  EXPECT_NE(degraded.find("reason=checkpoint-failures:"), std::string::npos);
  EXPECT_NE(degraded.find("last_error="), std::string::npos);

  // Streak past failing_after: health escalates.
  await_failures(d, 2);
  failpoint::disarm_all();

  // Recovery: next sealed checkpoint returns /healthz to 200.
  await_checkpoints(d, 1);
  const std::string healthy = http_get(port, "/healthz");
  EXPECT_NE(healthy.find("200 OK"), std::string::npos);
  EXPECT_NE(healthy.find("health=healthy"), std::string::npos);
  d.kill_for_test();
}

TEST(DaemonChaos, FinalCheckpointFailurePropagatesOutOfStop) {
  TempDir dir("chaos_final");
  Rng rng(31);
  failpoint::disarm_all();
  auto cfg = chaos_config(dir.str());
  cfg.checkpoint.final_attempts = 2;

  ServiceLifecycle d(cfg);
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  EXPECT_EQ(feed(d, 0, 25, rng), 25u);
  while (d.service().upload_channel().pending() != 0)
    std::this_thread::sleep_for(1ms);

  // Enter the retry pit first (a failure is mid-backoff), then stop:
  // the in-process equivalent of SIGTERM arriving mid-retry. Every
  // final attempt fails too — the daemon must come down with every
  // thread joined and the failure must surface, not vanish.
  failpoint::arm_from_spec("store.write.data=enospc");  // always
  await_failures(d, 1);
  EXPECT_FALSE(d.drain());
  EXPECT_FALSE(d.stop());
  EXPECT_EQ(d.state(), LifecycleState::kStopped);
  EXPECT_FALSE(d.checkpointer()->running());
  EXPECT_FALSE(d.ingest().running());
  EXPECT_NE(d.last_error().find("final checkpoint failed"), std::string::npos);
  // Idempotent: a repeat stop() reports the recorded verdict.
  EXPECT_FALSE(d.stop());
  failpoint::disarm_all();

  // The store still recovers to its last sealed state (nothing sealed
  // here — the window covered every cycle — so it recovers empty) and
  // holds no temp debris.
  for (const auto& entry : fs::directory_iterator(dir.str()))
    EXPECT_FALSE(entry.path().filename().string().ends_with(".tmp"))
        << entry.path().filename();

  // Same shutdown with the fault cleared: the verdict is clean again on
  // a fresh instance.
  ServiceLifecycle d2(chaos_config(dir.str()));
  ASSERT_TRUE(d2.start());
  EXPECT_EQ(feed(d2, 0, 10, rng), 10u);
  EXPECT_TRUE(d2.drain());
  EXPECT_TRUE(d2.stop());
  EXPECT_TRUE(d2.last_error().empty());
}

TEST(DaemonChaos, StartSweepsStaleCheckpointTemps) {
  TempDir dir("chaos_sweep");
  failpoint::disarm_all();
  {
    // Seed crash debris the way an interrupted checkpoint would.
    std::ofstream a(fs::path(dir.str()) / "seg-dead.vseg2.tmp");
    a << "junk";
    std::ofstream b(fs::path(dir.str()) / "manifest-000009.vman.tmp");
    b << "junk";
  }
  ServiceLifecycle d(test_config(dir.str()));
  ASSERT_TRUE(d.start());
  EXPECT_EQ(d.swept_temps(), 2u);
  EXPECT_FALSE(fs::exists(fs::path(dir.str()) / "seg-dead.vseg2.tmp"));
  EXPECT_FALSE(fs::exists(fs::path(dir.str()) / "manifest-000009.vman.tmp"));
  d.kill_for_test();
}

TEST(DaemonChaos, IngestSurvivesInjectedDrainFailures) {
  TempDir dir("chaos_ingest");
  Rng rng(37);
  failpoint::disarm_all();
  ServiceLifecycle d(chaos_config(dir.str()));
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  const std::size_t base = d.service().database().size();

  // The first two drain passes throw; payloads stay queued and the
  // retry with backoff must deliver every one of them.
  failpoint::arm_from_spec("daemon.ingest.pass=error@window:0:2");
  EXPECT_EQ(feed(d, 0, 15, rng), 15u);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (d.service().database().size() < base + 15u) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(d.ingest().running());
  EXPECT_GE(failpoint::stats("daemon.ingest.pass").fires, 2u);
  failpoint::disarm_all();
  d.kill_for_test();
}

// ── lifecycle edges ──────────────────────────────────────────────────

TEST(Lifecycle, DoubleStartRefused) {
  TempDir dir("dbl");
  ServiceLifecycle d(test_config(dir.str()));
  ASSERT_TRUE(d.start());
  EXPECT_FALSE(d.start());
  EXPECT_EQ(d.state(), LifecycleState::kRunning);
  d.stop();
}

TEST(Lifecycle, StopBeforeStart) {
  TempDir dir("sbs");
  ServiceLifecycle d(test_config(dir.str()));
  d.stop();  // Init → Stopped, nothing was running
  EXPECT_EQ(d.state(), LifecycleState::kStopped);
  EXPECT_FALSE(d.start());  // a stopped instance does not restart
}

TEST(Lifecycle, DrainWithFullInvestigationQueue) {
  TempDir dir("fullq");
  Rng rng(13);
  auto cfg = test_config(dir.str());
  cfg.server.workers = 1;
  cfg.server.queue_capacity = 2;
  cfg.server.overflow = sys::OverflowPolicy::kReject;

  ServiceLifecycle d(cfg);
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  EXPECT_EQ(feed(d, 0, 60, rng), 60u);
  // Flood far past capacity so the queue is saturated as drain begins.
  std::vector<std::future<sys::InvestigationServer::Reports>> futures;
  for (int i = 0; i < 40; ++i)
    futures.push_back(d.service().server()->submit({{-100, -80}, {900, 80}}, 0));
  d.drain();  // must settle the queue, not deadlock on it
  EXPECT_EQ(d.state(), LifecycleState::kDraining);
  std::size_t served = 0;
  for (auto& f : futures)
    if (f.valid()) {
      (void)f.get();
      ++served;
    }
  EXPECT_GT(served, 0u);  // queued work was drained, not dropped
  d.stop();
}

TEST(Lifecycle, CheckpointFiringDuringDrain) {
  TempDir dir("ckdrain");
  Rng rng(17);
  auto cfg = test_config(dir.str());
  cfg.checkpoint.interval = 1ms;  // fire as often as the scheduler allows

  ServiceLifecycle d(cfg);
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  EXPECT_EQ(feed(d, 0, 80, rng), 80u);
  std::this_thread::sleep_for(10ms);  // let periodic cycles overlap drain
  d.drain();
  store::SegmentStore store(dir.str());
  store::RecoveryStats stats;
  const sys::VpDatabase recovered = store.recover(&stats);
  EXPECT_EQ(stats.manifests_tried, 1u) << "drain left a damaged newest manifest";
  EXPECT_TRUE(db_bytes(recovered) == db_bytes(d.service().database()))
      << "recovered database is not bit-for-bit the live one";
  d.stop();
}

TEST(Lifecycle, SigtermDuringInFlightCheckpoint) {
  TempDir dir("sigterm");
  Rng rng(19);
  auto cfg = test_config(dir.str());
  cfg.checkpoint.interval = 1ms;

  ServiceLifecycle::install_signal_handlers();
  ServiceLifecycle::clear_shutdown();
  ServiceLifecycle d(cfg);
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  EXPECT_EQ(feed(d, 0, 80, rng), 80u);
  await_checkpoints(d, 1);  // cycles are in flight right now
  ASSERT_EQ(::raise(SIGTERM), 0);
  EXPECT_TRUE(ServiceLifecycle::shutdown_requested());
  // What viewmapd's main loop does on the flag:
  d.drain();
  d.stop();
  ServiceLifecycle::clear_shutdown();

  store::SegmentStore store(dir.str());
  store::RecoveryStats stats;
  const sys::VpDatabase recovered = store.recover(&stats);
  EXPECT_EQ(stats.manifests_tried, 1u) << "newest manifest invalid after SIGTERM";
  EXPECT_EQ(stats.profiles_rejected, 0u);
  EXPECT_TRUE(db_bytes(recovered) == db_bytes(d.service().database()))
      << "recovered database is not bit-for-bit the live one";
}

TEST(Lifecycle, PointInTimeStartRestoresNamedCheckpoint) {
  TempDir dir("pit");
  Rng rng(31);
  auto cfg = test_config(dir.str());
  cfg.store.keep_manifests = 8;  // retain the history a named restore needs
  cfg.checkpoint.interval = 1h;  // only drain checkpoints write

  std::uint64_t first_seq = 0;
  std::size_t first_size = 0;
  {
    ServiceLifecycle d(cfg);
    ASSERT_TRUE(d.start());
    ASSERT_TRUE(d.service().register_trusted(
        attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
    EXPECT_EQ(feed(d, 0, 10, rng), 10u);
    d.drain();
    d.stop();
    first_seq = store::SegmentStore(dir.str()).latest_sequence();
    first_size = 11;
  }
  {
    ServiceLifecycle d(cfg);
    ASSERT_TRUE(d.start());
    EXPECT_EQ(feed(d, 0, 25, rng), 25u);
    d.drain();
    d.stop();
  }
  // Start a third daemon pinned to the FIRST checkpoint, not the newest.
  cfg.recover_sequence = first_seq;
  ServiceLifecycle d(cfg);
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.recovered());
  EXPECT_EQ(d.recovery().sequence, first_seq);
  EXPECT_EQ(d.service().database().size(), first_size);
  d.stop();
}

// ── scrape endpoint ──────────────────────────────────────────────────

TEST(Scrape, MetricsByteIdenticalToDump) {
  // Standalone endpoint over a quiesced service, with the endpoint's own
  // counters in a separate registry so scraping does not perturb the
  // exposition being scraped.
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  Rng rng(23);
  ASSERT_TRUE(service.register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  for (int i = 0; i < 20; ++i)
    service.upload_channel().submit(
        attack::make_fake_profile(0, {double(i * 10), 0},
                                  {double(i * 10) + 300, 0}, rng)
            .serialize());
  ASSERT_EQ(service.ingest_uploads(), 20u);

  obs::MetricsRegistry own;
  ScrapeEndpoint ep(
      service.metrics(), [] { return std::pair{true, std::string("ok\n")}; },
      ScrapeConfig{}, own);
  ASSERT_TRUE(ep.start());
  const std::string scraped = body_of(http_get(ep.port(), "/metrics"));

  std::ostringstream dumped;
  service.dump_metrics(dumped);
  EXPECT_EQ(scraped, dumped.str());
  EXPECT_NE(scraped.find("viewmap_ingest_accepted_total"), std::string::npos);

  EXPECT_NE(http_get(ep.port(), "/nope").find("404"), std::string::npos);
  ep.stop();
  EXPECT_EQ(ep.port(), 0);
}

TEST(Scrape, RequestLineSplitAcrossTcpSegmentsStillRoutes) {
  // Regression: serve_one used to issue a single recv and route on
  // whatever fragment arrived, so a GET split across TCP segments (small
  // sender buffers, Nagle-off scrapers) answered a bogus 404. The server
  // must keep reading until the request line's "\r\n" arrives.
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  obs::MetricsRegistry own;
  ScrapeEndpoint ep(
      service.metrics(), [] { return std::pair{true, std::string("ok\n")}; },
      ScrapeConfig{}, own);
  ASSERT_TRUE(ep.start());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  // Two writes with a pause in between: the first carries no "\r\n" at
  // all, so the old single-recv server had only "GET /met" to route on.
  const std::string part1 = "GET /met";
  const std::string part2 = "rics HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, part1.data(), part1.size(), 0),
            static_cast<ssize_t>(part1.size()));
  std::this_thread::sleep_for(50ms);
  ASSERT_EQ(::send(fd, part2.data(), part2.size(), 0),
            static_cast<ssize_t>(part2.size()));

  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  EXPECT_NE(response.find("200 OK"), std::string::npos) << response.substr(0, 200);
  EXPECT_NE(body_of(response).find("viewmap_investigate_us"), std::string::npos);
  ep.stop();
}

TEST(Scrape, HealthzTracksLifecycleState) {
  TempDir dir("healthz");
  auto cfg = test_config(dir.str());
  cfg.scrape.enabled = true;  // port 0 → OS-assigned

  ServiceLifecycle d(cfg);
  ASSERT_TRUE(d.start());
  const std::uint16_t port = d.scrape_port();
  ASSERT_NE(port, 0);

  const std::string running = http_get(port, "/healthz");
  EXPECT_NE(running.find("200"), std::string::npos);
  EXPECT_NE(running.find("state=running"), std::string::npos);

  d.drain();  // scrape stays up through the drain
  const std::string draining = http_get(port, "/healthz");
  EXPECT_NE(draining.find("503"), std::string::npos);
  EXPECT_NE(draining.find("state=draining"), std::string::npos);

  d.stop();
  EXPECT_EQ(d.scrape_port(), 0);
}

// ── ingest backpressure ──────────────────────────────────────────────

TEST(Ingest, SubmitLifecycleAndBackpressure) {
  TempDir dir("bp");
  Rng rng(29);
  auto cfg = test_config(dir.str());
  cfg.ingest.max_pending_uploads = 8;  // tiny bound, kBlock default

  ServiceLifecycle d(cfg);
  // Before start: the daemon is not accepting.
  EXPECT_FALSE(d.ingest().submit(
      attack::make_fake_profile(0, {0, 0}, {300, 0}, rng).serialize()));

  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  // Two submitters flood well past the bound; kBlock means every submit
  // eventually lands (none rejected, none lost).
  constexpr std::size_t kPerThread = 150;
  std::atomic<std::size_t> admitted{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t)
    submitters.emplace_back([&d, &admitted, t] {
      Rng local(100 + t);
      admitted += feed(d, 0, kPerThread, local);
    });
  for (auto& th : submitters) th.join();
  EXPECT_EQ(admitted.load(), 2 * kPerThread);

  d.drain();  // settles the channel: everything admitted is ingested
  EXPECT_EQ(d.service().database().size(), 2 * kPerThread + 1);
  // After drain: rejected again.
  EXPECT_FALSE(d.ingest().submit(
      attack::make_fake_profile(0, {0, 0}, {300, 0}, rng).serialize()));
  d.stop();
}

// ── single-caller re-entrancy guard ──────────────────────────────────

#if !defined(VIEWMAP_TSAN)
using ReentrancyDeathTest = ::testing::Test;

TEST(ReentrancyDeathTest, SecondEntrantAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::atomic<bool> flag{false};
  ReentrancyGuard outer(flag, "test-region");
  EXPECT_DEATH({ ReentrancyGuard inner(flag, "test-region"); },
               "re-entered single-caller test-region");
}

TEST(ReentrancyDeathTest, ReleaseThenReenterIsFine) {
  std::atomic<bool> flag{false};
  { ReentrancyGuard g(flag, "r"); }
  { ReentrancyGuard g(flag, "r"); }  // no abort: the region was left
  EXPECT_FALSE(flag.load());
}
#endif

}  // namespace
}  // namespace viewmap::daemon
