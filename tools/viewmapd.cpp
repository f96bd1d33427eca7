// viewmapd — the always-on ViewMap service daemon.
//
// Wires a ServiceLifecycle (ingest thread + checkpoint thread +
// investigation server + scrape endpoint + watchdog, src/daemon/) behind
// a config file and flags, installs SIGTERM/SIGINT handlers, and runs
// until signalled (or for --run_seconds, for harnesses).
//
// Usage:
//   viewmapd [--config=FILE] [--store=DIR] [--port=N] [--bind=ADDR]
//            [--workers=N] [--checkpoint_interval_ms=N] [--jitter=PCT]
//            [--keep_manifests=N] [--recover_seq=N] [--run_seconds=N]
//            [--soak_rate=N] [--unit_every_ms=N] [--investigate_every_ms=N]
//            [--cache_mb=N] [--failpoints=SPEC]
//
// --cache_mb bounds the digest-keyed investigation result cache
// (src/system/result_cache.h) in MiB; 0 disables it. Default 64.
//
// --failpoints (or the VIEWMAP_FAILPOINTS environment variable) arms
// fault-injection points for manual chaos: SPEC is the
// `point=action[@trigger][;…]` grammar of src/common/failpoint.h, e.g.
//   --failpoints='store.write.fsync=eio@every:3'
// The daemon is expected to SURVIVE whatever the spec throws at it —
// /healthz degrades during failure windows and recovers after.
//
// The config file is `key=value` per line (# comments); keys are the
// long flag names without the leading dashes. Flags override the file.
//
// Soak mode (--soak_rate=N > 0) generates N synthetic VPs/second of
// live ingest through the daemon's backpressured submit path, advances
// the trusted clock one unit-time every --unit_every_ms (compressed
// time: retention eviction runs continuously), and — when
// --investigate_every_ms > 0 — keeps concurrent investigations flowing.
// That is the workload the CI smoke and the soak harness run kill -9
// cycles against.
//
// Startup prints one parseable line per fact the harnesses assert on:
//   viewmapd: scrape listening on 127.0.0.1:PORT
//   viewmapd: recovered seq=N profiles=M      (or: fresh database)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/fake_vp.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "daemon/lifecycle.h"
#include "geo/geometry.h"

using namespace viewmap;

namespace {

struct Options {
  std::string store_dir;
  std::string bind = "127.0.0.1";
  std::uint64_t port = 0;
  std::uint64_t workers = 2;
  std::uint64_t checkpoint_interval_ms = 5000;
  std::uint64_t jitter = 10;
  std::uint64_t keep_manifests = 2;
  std::uint64_t recover_seq = 0;
  std::uint64_t run_seconds = 0;  ///< 0 = until SIGTERM/SIGINT
  std::uint64_t soak_rate = 0;    ///< synthetic VPs/second; 0 = off
  std::uint64_t unit_every_ms = 1000;
  std::uint64_t investigate_every_ms = 0;
  std::uint64_t cache_mb = 64;  ///< result-cache budget; 0 disables it
  std::uint64_t seed = 42;
  std::string failpoints;  ///< failpoint spec; empty = none
};

bool apply(Options& o, const std::string& key, const std::string& value) {
  const auto u64 = [&value] { return std::strtoull(value.c_str(), nullptr, 10); };
  if (key == "store") o.store_dir = value;
  else if (key == "bind") o.bind = value;
  else if (key == "port") o.port = u64();
  else if (key == "workers") o.workers = u64();
  else if (key == "checkpoint_interval_ms") o.checkpoint_interval_ms = u64();
  else if (key == "jitter") o.jitter = u64();
  else if (key == "keep_manifests") o.keep_manifests = u64();
  else if (key == "recover_seq") o.recover_seq = u64();
  else if (key == "run_seconds") o.run_seconds = u64();
  else if (key == "soak_rate") o.soak_rate = u64();
  else if (key == "unit_every_ms") o.unit_every_ms = u64();
  else if (key == "investigate_every_ms") o.investigate_every_ms = u64();
  else if (key == "cache_mb") o.cache_mb = u64();
  else if (key == "seed") o.seed = u64();
  else if (key == "failpoints") o.failpoints = value;
  else return false;
  return true;
}

bool load_config_file(Options& o, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "viewmapd: cannot read config %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos || !apply(o, line.substr(0, eq), line.substr(eq + 1))) {
      std::fprintf(stderr, "viewmapd: bad config line: %s\n", line.c_str());
      return false;
    }
  }
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config=FILE] [--store=DIR] [--port=N] "
               "[--bind=ADDR]\n"
               "       [--workers=N] [--checkpoint_interval_ms=N] "
               "[--jitter=PCT]\n"
               "       [--keep_manifests=N] [--recover_seq=N] "
               "[--run_seconds=N]\n"
               "       [--soak_rate=N] [--unit_every_ms=N] "
               "[--investigate_every_ms=N] [--cache_mb=N] [--seed=N]\n"
               "       [--failpoints=point=action[@trigger][;...]]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  // First pass: config file only, so flags override it.
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--config=", 9) == 0 &&
        !load_config_file(opt, argv[i] + 9))
      return 2;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--config=", 9) == 0) continue;
    if (std::strncmp(arg, "--", 2) != 0) return usage(argv[0]);
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr || !apply(opt, std::string(arg + 2, eq), eq + 1))
      return usage(argv[0]);
  }

  daemon::DaemonConfig cfg;
  cfg.service.rsa_bits = 1024;  // synthetic identities; not a deployment CA
  cfg.server.workers = static_cast<std::size_t>(opt.workers);
  cfg.store_dir = opt.store_dir;
  cfg.store.keep_manifests = static_cast<std::size_t>(
      opt.keep_manifests == 0 ? 1 : opt.keep_manifests);
  cfg.recover_sequence = opt.recover_seq;
  cfg.checkpoint.interval = std::chrono::milliseconds(opt.checkpoint_interval_ms);
  cfg.checkpoint.jitter_pct = static_cast<unsigned>(opt.jitter);
  cfg.scrape.bind_address = opt.bind;
  cfg.scrape.port = static_cast<std::uint16_t>(opt.port);
  // --cache_mb=0 turns the digest-keyed result cache off entirely (a
  // zero-byte budget admits nothing; the service then skips the lookup).
  cfg.service.result_cache.capacity_bytes =
      static_cast<std::size_t>(opt.cache_mb) << 20;
  cfg.service.result_cache.enabled = opt.cache_mb > 0;

  // Chaos arming before any thread starts, so the very first checkpoint
  // cycle can already hit an armed point. Flag wins over environment.
  try {
    std::size_t armed = 0;
    if (!opt.failpoints.empty())
      armed = failpoint::arm_from_spec(opt.failpoints);
    else
      armed = failpoint::arm_from_env();
    if (armed > 0) {
      std::string names;
      for (const auto& p : failpoint::armed_points()) {
        if (!names.empty()) names += ',';
        names += p;
      }
      std::printf("viewmapd: failpoints armed: %s\n", names.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "viewmapd: bad failpoint spec: %s\n", e.what());
    return 2;
  }

  daemon::ServiceLifecycle::install_signal_handlers();
  daemon::ServiceLifecycle daemon_instance(cfg);
  try {
    daemon_instance.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "viewmapd: start failed: %s\n", e.what());
    return 1;
  }

  std::printf("viewmapd: scrape listening on %s:%u\n", opt.bind.c_str(),
              static_cast<unsigned>(daemon_instance.scrape_port()));
  if (daemon_instance.recovered()) {
    // One parseable line per restart: which manifest the daemon resumed
    // from, what it cost, and how wide the recovery pool ran — the smoke
    // harness asserts the seq/rejected fields and the cold-restart time.
    const auto& r = daemon_instance.recovery();
    std::printf(
        "viewmapd: recovered seq=%llu profiles=%zu rejected=%zu "
        "segments=%zu threads=%u ms=%.1f\n",
        static_cast<unsigned long long>(r.sequence), r.profiles_loaded,
        r.profiles_rejected, r.segments_loaded, r.threads_used, static_cast<double>(r.total_us) / 1000.0);
  } else {
    std::printf("viewmapd: fresh database\n");
  }
  std::fflush(stdout);

  // ── main loop: soak load + signal poll ─────────────────────────────
  Rng rng(opt.seed);
  TimeSec unit = 0;
  sys::ViewMapService& svc = daemon_instance.service();
  // Seed the trusted clock so timeliness screening accepts the soak VPs.
  if (opt.soak_rate > 0)
    svc.register_trusted(attack::make_fake_profile(unit, {0, 0}, {800, 0}, rng));

  const auto started = std::chrono::steady_clock::now();
  auto next_unit = started + std::chrono::milliseconds(opt.unit_every_ms);
  auto next_investigation =
      started + std::chrono::milliseconds(
                    opt.investigate_every_ms ? opt.investigate_every_ms : 1);
  const auto tick = std::chrono::milliseconds(50);
  std::uint64_t submitted = 0;

  while (!daemon::ServiceLifecycle::shutdown_requested()) {
    const auto now = std::chrono::steady_clock::now();
    if (opt.run_seconds > 0 &&
        now - started >= std::chrono::seconds(opt.run_seconds))
      break;

    if (opt.soak_rate > 0) {
      // Catch the submission count up to rate × elapsed.
      const auto elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(now - started)
              .count();
      const std::uint64_t target =
          opt.soak_rate * static_cast<std::uint64_t>(elapsed_ms) / 1000;
      while (submitted < target) {
        const geo::Vec2 start{rng.uniform(-200.0, 1000.0),
                              rng.uniform(-60.0, 60.0)};
        const geo::Vec2 end{start.x + rng.uniform(200.0, 600.0),
                            start.y + rng.uniform(-20.0, 20.0)};
        (void)daemon_instance.ingest().submit(
            attack::make_fake_profile(unit, start, end, rng).serialize());
        ++submitted;
      }
      if (now >= next_unit) {
        unit += kUnitTimeSec;
        svc.register_trusted(
            attack::make_fake_profile(unit, {0, 0}, {800, 0}, rng));
        next_unit += std::chrono::milliseconds(opt.unit_every_ms);
      }
      if (opt.investigate_every_ms > 0 && now >= next_investigation &&
          svc.server() != nullptr) {
        (void)svc.server()->submit({{-100, -80}, {900, 80}}, unit);
        next_investigation += std::chrono::milliseconds(opt.investigate_every_ms);
      }
    }
    std::this_thread::sleep_for(tick);
  }

  std::printf("viewmapd: draining\n");
  std::fflush(stdout);
  daemon_instance.drain();
  if (!daemon_instance.stop()) {
    // All threads are joined and the store still holds its last sealed
    // manifest — but the final checkpoint failed, so data accepted since
    // then is NOT durable. That must be an operator-visible failure, not
    // a quiet exit 0.
    std::fprintf(stderr, "viewmapd: unclean stop: %s\n",
                 daemon_instance.last_error().c_str());
    std::printf("viewmapd: stopped UNCLEAN (submitted=%llu)\n",
                static_cast<unsigned long long>(submitted));
    return 1;
  }
  std::printf("viewmapd: stopped (submitted=%llu)\n",
              static_cast<unsigned long long>(submitted));
  return 0;
}
