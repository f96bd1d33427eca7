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
// The chaos cases arm failpoints inside the checkpoint and ingest paths;
// their soak drives every fault family through alternating kill and
// drain cycles, and they reach every health state — degraded, failing,
// and wedged (read at a `now` past the stall, so no test sleeps it out).
//
// Also: scrape endpoint byte-identity with dump_metrics(), healthz
// tracking lifecycle state, backpressured submit, the ReentrancyGuard
// crash (single-threaded death test, skipped under TSan), and the
// lifecycle edge matrix — double start, stop before start, drain with a
// full investigation queue, a checkpoint daemon firing during drain,
// SIGTERM racing an in-flight checkpoint.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
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
/// no jitter; the scrape endpoint binds an OS-assigned loopback port.
DaemonConfig test_config(const std::string& store_dir) {
  DaemonConfig cfg;
  cfg.service.rsa_bits = 1024;
  cfg.service.index.retention.window_sec = 5 * kUnitTimeSec;  // evict fast
  cfg.store_dir = store_dir;
  cfg.store.fsync = false;  // durability is modelled logically in tests
  cfg.checkpoint.interval = 5ms;
  cfg.checkpoint.jitter_pct = 0;
  cfg.server.workers = 1;
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

/// One HTTP exchange with 127.0.0.1:port: connects, sends `pieces` as
/// separate writes, half-closes (so the server sees end-of-request at
/// once instead of waiting out its read deadline), and reads the reply
/// until the server closes. Returns the raw reply bytes; `reset` reports a
/// connection reset instead of an orderly close.
std::string exchange(std::uint16_t port, const std::vector<std::string>& pieces,
                     bool& reset) {
  reset = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  for (const std::string& piece : pieces)
    if (::send(fd, piece.data(), piece.size(), MSG_NOSIGNAL) < 0) break;
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    reset = n < 0;
    break;
  }
  ::close(fd);
  return response;
}

/// One-shot HTTP GET against 127.0.0.1:port; returns the raw response.
std::string http_get(std::uint16_t port, const std::string& path) {
  bool reset = false;
  return exchange(port, {"GET " + path + " HTTP/1.0\r\n\r\n"}, reset);
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

/// Checkpoint temp files (`*.tmp`) in `dir`.
std::size_t temps_in(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().ends_with(".tmp")) ++n;
  return n;
}

/// The registry exposition /metrics serves, rendered in-process.
std::string exposition(ServiceLifecycle& d) {
  std::ostringstream os;
  d.service().dump_metrics(os);
  return os.str();
}

// ── tentpole: soak / crash harness ───────────────────────────────────

TEST(DaemonSoak, KillAndRecoverCycles) {
  TempDir dir("soak");
  Rng rng(7);
  constexpr int kCycles = 22;
  TimeSec unit = 0;
  std::size_t prev_manifest_profiles = 0;
  // The newest sealed manifest when the previous cycle was killed. Read
  // after kill_for_test(), when no checkpointer runs any more — reading
  // it after the next start() would race that instance's checkpointer.
  std::uint64_t sealed_at_kill = 0;

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ServiceLifecycle d(test_config(dir.str()));
    ASSERT_TRUE(d.start()) << "cycle " << cycle;

    // ── recovery invariant (PR 5): land on the newest sealed manifest,
    //    no fallback, every promised profile loaded, none rejected.
    if (cycle > 0) {
      ASSERT_TRUE(d.recovered()) << "cycle " << cycle;
      const auto& r = d.recovery();
      EXPECT_EQ(r.manifests_tried, 1u) << "fallback in cycle " << cycle;
      EXPECT_EQ(r.sequence, sealed_at_kill) << "cycle " << cycle;
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
    sealed_at_kill = d.store()->latest_sequence();
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

/// test_config with a cadence that only moves when poked — each test
/// controls exactly when a checkpoint attempt meets an armed failpoint,
/// and pokes it through the retry backoff.
DaemonConfig chaos_config(const std::string& store_dir) {
  auto cfg = test_config(store_dir);
  cfg.checkpoint.interval = 1h;
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

  // An ENOSPC burst: every checkpoint attempt fails until the point is
  // disarmed below; the daemon must keep its thread alive and walk the
  // retry ladder. Unbounded, not a self-ending window: on a loaded host
  // the retry after the last windowed failure could seal before the
  // checks below run.
  failpoint::arm_from_spec("store.write.data=enospc");
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

  // Burst over: the next attempt seals, the streak resets, health snaps
  // back, and the sequence gauge resumes from the failure pit.
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
  EXPECT_EQ(temps_in(dir.str()), 0u);
  d.kill_for_test();
}

TEST(DaemonChaos, HealthzGoesDegradedAndBack) {
  TempDir dir("chaos_healthz");
  Rng rng(29);
  failpoint::disarm_all();
  // Unpoked, the retries after the first failure wait 100 ms, 200 ms,
  // 400 ms …, so the scrape below lands long before the streak reaches
  // kFailingAfter: it reads degraded, not failing.
  ServiceLifecycle d(chaos_config(dir.str()));
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
  // The streak lasts until the point is disarmed; with a self-ending
  // window the next retry could seal before the scrape below runs.
  failpoint::arm_from_spec("store.write.data=eio");
  await_failures(d, 1);
  const std::string degraded = http_get(port, "/healthz");
  EXPECT_NE(degraded.find("503"), std::string::npos);
  EXPECT_NE(degraded.find("health=degraded"), std::string::npos);
  EXPECT_NE(degraded.find("reason=checkpoint-failures:"), std::string::npos);
  EXPECT_NE(degraded.find("last_error="), std::string::npos);

  // A longer streak, then the fault clears.
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
  ServiceLifecycle d(chaos_config(dir.str()));
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
  // The healthz body names the failure once: the final verdict quotes
  // the streak's newest error, so the streak's own line is not repeated.
  const std::string body = d.health().second;
  EXPECT_EQ(occurrences(body, "last_error="), 1u) << body;
  EXPECT_NE(body.find("last_error=final checkpoint failed"), std::string::npos) << body;
  // Idempotent: a repeat stop() reports the recorded verdict.
  EXPECT_FALSE(d.stop());
  failpoint::disarm_all();

  // The store still recovers to its last sealed state (nothing sealed
  // here — the window covered every cycle — so it recovers empty) and
  // holds no temp debris.
  EXPECT_EQ(temps_in(dir.str()), 0u);

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
  // retry with backoff must deliver every one of them. The wait covers
  // both: a pass that cleared the failpoint check just before arming can
  // deliver the whole feed before the two failing passes have run.
  failpoint::arm_from_spec("daemon.ingest.pass=error@window:0:2");
  EXPECT_EQ(feed(d, 0, 15, rng), 15u);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (d.service().database().size() < base + 15u ||
         failpoint::stats("daemon.ingest.pass").fires < 2u) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "fires " << failpoint::stats("daemon.ingest.pass").fires;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(d.ingest().running());
  EXPECT_EQ(d.service().database().size(), base + 15u);
  failpoint::disarm_all();
  d.kill_for_test();
}

TEST(DaemonChaos, HealthTurnsFailingAtTheStreakBoundAndBack) {
  TempDir dir("chaos_failing");
  Rng rng(41);
  failpoint::disarm_all();
  ServiceLifecycle d(chaos_config(dir.str()));
  ASSERT_TRUE(d.start());
  const std::uint16_t port = d.scrape_port();
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  EXPECT_EQ(feed(d, 0, 20, rng), 20u);

  // Every cycle fails until disarmed, so the streak only grows. /metrics
  // is read first: only the scrape's own health read can have moved the
  // gauge, since nothing else has read health yet.
  failpoint::arm_from_spec("daemon.checkpoint.cycle=eio");
  await_failures(d, kFailingAfter);
  EXPECT_NE(body_of(http_get(port, "/metrics")).find("\nviewmap_daemon_health 2\n"),
            std::string::npos);
  EXPECT_EQ(d.health_state(), HealthState::kFailing);
  const std::string failing = http_get(port, "/healthz");
  EXPECT_TRUE(failing.starts_with("HTTP/1.1 503 ")) << failing;
  EXPECT_NE(failing.find("health=failing"), std::string::npos) << failing;

  // The first success snaps all three back; /metrics again comes first,
  // so its 0 is the scrape's own refresh of the gauge the reads above set
  // to 2.
  failpoint::disarm_all();
  await_checkpoints(d, 1);
  EXPECT_NE(body_of(http_get(port, "/metrics")).find("\nviewmap_daemon_health 0\n"),
            std::string::npos);
  EXPECT_EQ(d.health_state(), HealthState::kHealthy);
  const std::string healthy = http_get(port, "/healthz");
  EXPECT_TRUE(healthy.starts_with("HTTP/1.1 200 ")) << healthy;
  EXPECT_NE(healthy.find("health=healthy"), std::string::npos) << healthy;
  d.kill_for_test();
}

TEST(DaemonChaos, HeldCheckpointThreadIsWedgedUntilItBeatsAgain) {
  // Health judges a stall when it is read, against the `now` it is given:
  // no 10 s sleep. Hold the checkpoint thread inside one cycle, then read
  // health at kStallAfter past the moment the hold began. The ingest and
  // scrape threads keep beating meanwhile, so once each has beaten after
  // that moment, checkpoint alone is wedged.
  TempDir dir("wedge");
  failpoint::disarm_all();
  ServiceLifecycle d(test_config(dir.str()));  // a cycle every 5 ms
  ASSERT_TRUE(d.start());
  failpoint::arm_from_spec("daemon.checkpoint.cycle=delay:1500@once");
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (failpoint::stats("daemon.checkpoint.cycle").fires == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  // The checkpoint thread beat last before it entered the held cycle.
  const auto at = std::chrono::steady_clock::now() + kStallAfter;
  const auto wedged_lines = [](const std::string& body) {
    std::string lines;
    for (auto pos = body.find("wedged="); pos != std::string::npos;
         pos = body.find("wedged=", pos + 1))
      lines += body.substr(pos, body.find('\n', pos) + 1 - pos);
    return lines;
  };
  std::pair<bool, std::string> healthz = d.health(at);
  while (wedged_lines(healthz.second) != "wedged=checkpoint\n") {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << healthz.second;
    std::this_thread::sleep_for(5ms);
    healthz = d.health(at);
  }
  // That read also set the gauges /metrics exports.
  EXPECT_FALSE(healthz.first);
  EXPECT_NE(healthz.second.find("health=failing"), std::string::npos);
  const std::string held = exposition(d);
  EXPECT_NE(held.find("viewmap_daemon_wedged{component=\"checkpoint\"} 1\n"),
            std::string::npos);
  EXPECT_NE(held.find("viewmap_daemon_wedged{component=\"ingest\"} 0\n"),
            std::string::npos);
  EXPECT_NE(held.find("viewmap_daemon_wedged{component=\"scrape\"} 0\n"),
            std::string::npos);
  EXPECT_NE(held.find("\nviewmap_daemon_health 2\n"), std::string::npos);

  // Once the hold ends the thread beats again, and the same `now` reads
  // healthy: the verdict follows the heartbeat, not the clock.
  while (d.health_state(at) != HealthState::kHealthy) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(d.health(at).first);
  const std::string released = exposition(d);
  EXPECT_NE(released.find("viewmap_daemon_wedged{component=\"checkpoint\"} 0\n"),
            std::string::npos);
  EXPECT_NE(released.find("\nviewmap_daemon_health 0\n"), std::string::npos);
  failpoint::disarm_all();
  d.stop();
}

TEST(DaemonChaos, EveryFaultFamilyAcrossKillAndDrainCycles) {
  // The chaos soak. Each cycle builds a fresh daemon on one store
  // directory, with fsync on so the fsync point can fire, and arms one
  // fault family inside the checkpoint path: ENOSPC on segment data,
  // fsync EIO, rename EIO, torn short writes, whole-cycle faults, ENOSPC
  // on open. It feeds uploads, then pokes the checkpointer through
  // kFailuresPerCycle failed cycles: the daemon must stay up and health
  // must leave healthy. Disarmed, the next cycle must seal and health
  // must come back. Cycles alternate kill_for_test with drain + stop; after
  // each, a cold recover must reproduce the live database's canonical
  // bytes and the directory must hold no temp file.
  TempDir dir("chaos_soak");
  Rng rng(31415);
  failpoint::disarm_all();
  DaemonConfig cfg;
  cfg.service.rsa_bits = 1024;
  cfg.store_dir = dir.str();
  cfg.checkpoint.interval = 25ms;
  cfg.checkpoint.jitter_pct = 0;
  cfg.server.workers = 1;
  ASSERT_TRUE(cfg.store.fsync);

  constexpr std::uint64_t kFailuresPerCycle = 4;
  constexpr std::size_t kVpsPerCycle = 200;
  const std::string window = "@window:0:" + std::to_string(kFailuresPerCycle);
  const std::vector<std::string> families{
      "store.write.data=enospc", "store.write.fsync=eio",
      "store.rename=eio",        "store.write.data=short",
      "daemon.checkpoint.cycle=eio", "store.write.open=enospc"};
  const auto settled = [](ServiceLifecycle& d) {
    const index::IngestStats t = d.service().ingest_totals();
    return t.accepted + t.rejected_malformed + t.rejected_untimely +
           t.rejected_duplicate;
  };

  std::uint64_t injected = 0;
  std::size_t leaked_temps = 0;
  for (std::size_t cycle = 0; cycle < families.size(); ++cycle) {
    SCOPED_TRACE(families[cycle]);
    ServiceLifecycle d(cfg);
    ASSERT_TRUE(d.start());
    leaked_temps += d.swept_temps();  // debris the previous cycle left

    // Armed before the feed: the first checkpoint that tries to seal the
    // new shards walks straight into the fault window.
    failpoint::arm_from_spec(families[cycle] + window);
    const std::size_t before = settled(d);
    for (std::size_t i = 0; i < kVpsPerCycle; ++i) {
      const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(30));
      const geo::Vec2 start{rng.uniform(-8000.0, 8000.0), rng.uniform(-8000.0, 8000.0)};
      const geo::Vec2 end{start.x + rng.uniform(-1500.0, 1500.0),
                          start.y + rng.uniform(-1500.0, 1500.0)};
      ASSERT_TRUE(d.ingest().submit(
          attack::make_fake_profile(unit, start, end, rng).serialize()));
    }
    auto deadline = std::chrono::steady_clock::now() + 10s;
    while (settled(d) < before + kVpsPerCycle) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(1ms);
    }

    // Eat the whole window. Every thread stays alive throughout, and
    // health visibly leaves healthy. The last failure is left to the
    // backoff, not a poke, so that no poke is pending after it.
    bool survived = true;
    bool left_healthy = false;
    for (std::uint64_t failed = 0; failed < kFailuresPerCycle;
         failed = d.checkpointer()->failures()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "failed cycles " << failed;
      if (failed + 1 < kFailuresPerCycle) d.checkpointer()->poke();
      left_healthy = left_healthy || d.health_state() != HealthState::kHealthy;
      survived = survived && d.state() == LifecycleState::kRunning &&
                 d.ingest().running() && d.checkpointer()->running();
      std::this_thread::sleep_for(1ms);
    }
    left_healthy = left_healthy || d.health_state() != HealthState::kHealthy;
    EXPECT_TRUE(survived);
    EXPECT_TRUE(left_healthy);
    injected += failpoint::total_fires();
    failpoint::disarm_all();

    // Every failed attempt must have unlinked its temps. The next sealed
    // checkpoint's gc() would sweep a leaked one unseen, so look with the
    // checkpoint thread stopped (its next attempt was a backoff away).
    d.checkpointer()->abort();
    leaked_temps += temps_in(dir.str());
    ASSERT_TRUE(d.checkpointer()->start());

    // The next successful cycle, written or provably skipped, snaps
    // health back.
    const auto sealed = [&d] {
      return d.checkpointer()->written() + d.checkpointer()->skipped();
    };
    const std::uint64_t sealed_in_window = sealed();
    while (sealed() <= sealed_in_window) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      d.checkpointer()->poke();
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(d.health_state(), HealthState::kHealthy);
    EXPECT_EQ(d.state(), LifecycleState::kRunning);

    // The database is quiescent: its canonical bytes are what a cold
    // recover must reproduce.
    const auto expected = db_bytes(d.service().database());
    if (cycle % 2 == 0) {
      d.kill_for_test();
    } else {
      EXPECT_TRUE(d.drain());
      EXPECT_TRUE(d.stop());
    }
    leaked_temps += temps_in(dir.str());
    store::RecoveryStats rec;
    const sys::VpDatabase recovered = store::SegmentStore(dir.str()).recover(&rec);
    EXPECT_EQ(rec.profiles_rejected, 0u);
    EXPECT_TRUE(db_bytes(recovered) == expected)
        << "recovered database is not bit-for-bit the live one";
  }
  EXPECT_EQ(leaked_temps, 0u);
  EXPECT_GE(injected, 20u);
}

// ── lifecycle edges ──────────────────────────────────────────────────

TEST(CheckpointJitter, DaemonsBuiltBackToBackDrawDifferentWaits) {
  // A fleet restarted together must not fsync in lockstep: each daemon
  // seeds its own jitter, so two built one after the other disagree on
  // their first waits.
  TempDir dir("jitter");
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  store::SegmentStore store(dir.str());
  CheckpointConfig cfg;
  cfg.interval = 10000ms;
  cfg.jitter_pct = 10;
  CheckpointDaemon first(service, store, cfg);
  CheckpointDaemon second(service, store, cfg);
  std::vector<std::chrono::milliseconds> a, b;
  for (int i = 0; i < 4; ++i) {
    a.push_back(first.next_wait());
    b.push_back(second.next_wait());
    for (const auto w : {a.back(), b.back()}) {
      EXPECT_GE(w, 9000ms);
      EXPECT_LE(w, 11000ms);
    }
  }
  EXPECT_NE(a, b);
}

TEST(CheckpointJitter, ExtremeSettingsDrawWaitsThatCannotWrapTheClock) {
  TempDir dir("jitter_max");
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  store::SegmentStore store(dir.str());
  CheckpointConfig cfg;
  cfg.jitter_pct = 101;
  EXPECT_THROW({ CheckpointDaemon rejected(service, store, cfg); }, std::invalid_argument);

  // The largest interval viewmapd accepts, at full jitter: every draw is
  // at least 1 ms, and its deadline lies after now, never wrapped before.
  cfg.interval = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::duration::max());
  cfg.jitter_pct = 100;
  CheckpointDaemon daemon(service, store, cfg);
  for (int i = 0; i < 1000; ++i) {
    const auto wait = daemon.next_wait();
    ASSERT_GE(wait, 1ms);
    const auto now = std::chrono::steady_clock::now();
    ASSERT_GT(now + wait, now);
  }
}

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

/// Empty when `response` is a well-formed scrape reply (status 200, 404,
/// 500 or 503 and a Content-Length equal to the body's length); else
/// what is wrong with it.
std::string reply_defect(const std::string& response) {
  static constexpr std::string_view kStatuses[] = {"200 ", "404 ", "500 ",
                                                   "503 "};
  const std::string_view r(response);
  if (!r.starts_with("HTTP/1.1 ")) return "no HTTP/1.1 status line";
  const std::string_view status = r.substr(9, 4);
  if (std::find(std::begin(kStatuses), std::end(kStatuses), status) ==
      std::end(kStatuses))
    return "unexpected status " + std::string(status);
  const auto head_end = r.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return "unterminated header";
  const std::string_view head = r.substr(0, head_end);
  const auto cl = head.find("\r\nContent-Length: ");
  if (cl == std::string_view::npos) return "no Content-Length";
  const std::size_t declared = std::strtoull(
      std::string(head.substr(cl + 18)).c_str(), nullptr, 10);
  const std::size_t body = r.size() - head_end - 4;
  if (declared != body)
    return "Content-Length " + std::to_string(declared) + " but body " +
           std::to_string(body);
  return {};
}

TEST(Scrape, HeadersSentAfterTheReplyDoNotResetTheConnection) {
  // The server answers as soon as the request line is in. A client that
  // writes its headers afterwards (bash's printf over /dev/tcp writes one
  // line per write) must be able to finish writing and read the whole
  // reply: closing with those bytes unread used to reset the connection,
  // so the client's next write failed and the reply could be lost.
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
  for (const std::string line : {"GET /healthz HTTP/1.1\r\n", "Host: localhost\r\n",
                                 "Connection: close\r\n\r\n"}) {
    EXPECT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(line.size()))
        << "writing " << line.substr(0, line.size() - 2) << ": " << std::strerror(errno);
    std::this_thread::sleep_for(50ms);  // the server answers in between
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  EXPECT_EQ(n, 0) << "connection reset: " << std::strerror(errno);
  ::close(fd);
  EXPECT_EQ(reply_defect(response), "");
  EXPECT_TRUE(response.starts_with("HTTP/1.1 200 ")) << response.substr(0, 100);
  ep.stop();
}

TEST(Scrape, SeededRequestMutationsAnswerOrHangUp) {
  // The scrape port is a trust boundary: anything that can reach it can
  // send it any bytes. Several hundred fixed-seed mutations of the two
  // real request lines — truncations, oversized lines, NUL and high
  // bytes, missing CRLF, random byte flips — each split across 1–3
  // writes. Every case must end in a hang-up or a well-formed reply, and
  // the endpoint must still serve a clean scrape afterwards.
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  obs::MetricsRegistry own;
  ScrapeEndpoint ep(
      service.metrics(), [] { return std::pair{true, std::string("ok\n")}; },
      ScrapeConfig{}, own);
  ASSERT_TRUE(ep.start());

  const std::string seeds[] = {"GET /metrics HTTP/1.1\r\n\r\n",
                               "GET /healthz HTTP/1.1\r\n\r\n"};
  Rng rng(0x5c2a9e);
  constexpr int kCases = 400;
  int answered = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string req = seeds[rng.index(2)];
    switch (rng.index(6)) {
      case 0:  // truncation
        req.resize(rng.index(req.size() + 1));
        break;
      case 1: {  // oversized line: far past the server's read buffer
        const std::size_t extra = 1024 + rng.index(3000);
        req.insert(4 + rng.index(req.size() - 4),
                   std::string(extra, static_cast<char>('a' + rng.index(26))));
        break;
      }
      case 2:  // NUL and high bytes
        for (std::size_t k = 1 + rng.index(4); k > 0; --k)
          req[rng.index(req.size())] =
              static_cast<char>(rng.index(2) == 0 ? 0 : 0x80 + rng.index(128));
        break;
      case 3:  // missing CRLF: drop every CR, or every line ending
        std::erase(req, '\r');
        if (rng.index(2) == 0) std::erase(req, '\n');
        break;
      case 4:  // random byte flips
        for (std::size_t k = 1 + rng.index(3); k > 0; --k)
          req[rng.index(req.size())] ^= static_cast<char>(1 + rng.index(255));
        break;
      default:  // the request as is
        break;
    }
    std::vector<std::string> pieces;
    const std::size_t writes = 1 + rng.index(3);
    std::size_t from = 0;
    for (std::size_t w = 1; w < writes && from < req.size(); ++w) {
      const std::size_t to = from + rng.index(req.size() - from + 1);
      pieces.push_back(req.substr(from, to - from));
      from = to;
    }
    pieces.push_back(req.substr(from));

    bool reset = false;
    const std::string response = exchange(ep.port(), pieces, reset);
    if (response.empty()) continue;  // the server hung up
    // A reset may cut a reply short (the server closes with an oversized
    // line still unread), so only an orderly close must carry it whole.
    if (reset) {
      EXPECT_EQ(response.substr(0, 9),
                std::string("HTTP/1.1 ").substr(0, response.size()))
          << "case " << c;
      continue;
    }
    EXPECT_EQ(reply_defect(response), "") << "case " << c;
    ++answered;
  }
  EXPECT_GT(answered, kCases / 4);  // the mutations did not all hang up

  const std::string clean = http_get(ep.port(), "/metrics");
  EXPECT_EQ(reply_defect(clean), "");
  EXPECT_TRUE(clean.starts_with("HTTP/1.1 200 "));
  ep.stop();
}

TEST(Scrape, HealthzTracksLifecycleState) {
  TempDir dir("healthz");
  ServiceLifecycle d(test_config(dir.str()));
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
  cfg.ingest.max_pending_uploads = 8;  // tiny bound; a full queue blocks

  auto unbounded = cfg;
  unbounded.ingest.max_pending_uploads = 0;  // refused: no unbounded channel
  EXPECT_THROW(ServiceLifecycle{unbounded}, std::invalid_argument);

  ServiceLifecycle d(cfg);
  // Before start: the daemon is not accepting.
  EXPECT_FALSE(d.ingest().submit(
      attack::make_fake_profile(0, {0, 0}, {300, 0}, rng).serialize()));

  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  // Two submitters flood well past the bound; blocking means every
  // submit eventually lands (none rejected, none lost).
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

TEST(Ingest, IdleDrainPicksUpEverySubmit) {
  // An idle drain waits up to 200 ms between passes; a submit must end
  // that wait, not sit it out. Each payload lands while the drain waits:
  // the first after a second of idling, the rest just after the pass
  // that ingested the one before found the channel empty.
  TempDir dir("idle");
  Rng rng(37);
  ServiceLifecycle d(test_config(dir.str()));
  ASSERT_TRUE(d.start());
  ASSERT_TRUE(d.service().register_trusted(
      attack::make_fake_profile(0, {0, 0}, {800, 0}, rng)));
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int k = 0; k < 20; ++k) {
    const geo::Vec2 at{50.0 * k, 0.0};
    payloads.push_back(attack::make_fake_profile(0, at, {at.x + 300.0, 0.0}, rng).serialize());
  }
  std::this_thread::sleep_for(1s);
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    const std::size_t before = d.service().database().size();
    const auto submitted = std::chrono::steady_clock::now();
    ASSERT_TRUE(d.ingest().submit(std::move(payloads[k])));
    while (d.service().database().size() == before) {
      ASSERT_LT(std::chrono::steady_clock::now() - submitted, 100ms)
          << "submit " << k << " waited out the idle slice";
      std::this_thread::sleep_for(100us);
    }
  }
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
