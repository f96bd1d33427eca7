// Periodic checkpointer: the daemon thread that owns the one-
// checkpointer-per-store contract.
//
// Every `interval` (± jitter, so a fleet of daemons restarted together
// doesn't fsync in lockstep) the thread pins one DbSnapshot and seals it
// into the SegmentStore. Before writing it compares the snapshot's
// shard_digests() against the digests of the last checkpoint it wrote:
// identical content ⇒ the write is skipped outright. The comparison is
// content identity (cached SHA-256 per shard, see DbSnapshot), not a
// heuristic — a skipped cycle is *proof* the newest manifest already
// equals the live database, which is why the final shutdown checkpoint
// may also skip without weakening the clean-drain guarantee.
//
// Shutdown has two shapes, mirroring IngestService: finish_and_stop()
// runs one final cycle after ingest has drained (so the newest manifest
// captures every accepted VP), abort() stops without it — the in-process
// stand-in for a crash, leaving whatever the last periodic cycle sealed.
//
// Long intervals are waited out in ≤1 s slices, each beating the
// "checkpoint" Heartbeat: the lifecycle's health must be able to tell
// "waiting out a 5-minute interval" from "wedged inside fsync".
//
// Failure handling: a cycle that throws (disk full, EIO, an armed
// failpoint) must NEVER take the daemon down — the store guarantees a
// failed checkpoint leaves the previous sealed manifest intact, so the
// correct response is to keep serving and retry. Failed cycles are
// retried with capped exponential backoff (kRetryBackoffMin doubling to
// kRetryBackoffMax, ± the same jitter as the cadence; a permanent
// store::StoreError jumps straight to the cap — hammering a read-only
// filesystem helps nobody). Each failure bumps
// viewmap_daemon_checkpoint_failures_total{reason} and the
// viewmap_daemon_checkpoint_consecutive_failures gauge (health turns
// degraded/failing on it, see ServiceLifecycle); the first success
// zeroes the gauge and resumes the normal cadence. poke() cuts a backoff
// short, which is how tests walk the ladder without waiting it out.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "daemon/heartbeat.h"
#include "index/db_snapshot.h"

namespace viewmap::obs {
class Counter;
class Gauge;
}  // namespace viewmap::obs
namespace viewmap::store {
class SegmentStore;
}  // namespace viewmap::store
namespace viewmap::sys {
class ViewMapService;
}  // namespace viewmap::sys

namespace viewmap::daemon {

struct CheckpointConfig {
  std::chrono::milliseconds interval{30000};
  /// Each cycle's wait is interval ± this percentage, drawn per cycle.
  /// 0–100; the daemon's constructor throws std::invalid_argument above.
  unsigned jitter_pct = 10;
};

/// Retry cadence after a failed cycle: the first retry waits
/// kRetryBackoffMin, doubling per consecutive failure, capped at
/// kRetryBackoffMax (jittered by jitter_pct like the normal cadence).
inline constexpr std::chrono::milliseconds kRetryBackoffMin{100};
inline constexpr std::chrono::milliseconds kRetryBackoffMax{5000};

/// How many times the FINAL checkpoint (finish_and_stop) is attempted
/// before giving up and reporting an unclean stop.
inline constexpr unsigned kFinalCheckpointAttempts = 3;

class CheckpointDaemon {
 public:
  /// Wires `store` into the service's registry (adopt_metrics) and
  /// registers its own metrics there. Nothing runs until start().
  /// Throws std::invalid_argument when cfg.jitter_pct exceeds 100.
  CheckpointDaemon(sys::ViewMapService& service, store::SegmentStore& store,
                   CheckpointConfig cfg);
  /// abort()s — destruction must not write a checkpoint nobody asked for.
  ~CheckpointDaemon();

  CheckpointDaemon(const CheckpointDaemon&) = delete;
  CheckpointDaemon& operator=(const CheckpointDaemon&) = delete;

  /// Spawns the checkpoint thread. False if already started.
  bool start();

  /// Graceful shutdown: waits out any in-flight cycle, runs one final
  /// cycle (which may skip — see header comment), joins. True: the final
  /// checkpoint sealed (or provably skipped) and the newest manifest is
  /// content-identical to the live database as of the call. False: all
  /// kFinalCheckpointAttempts attempts failed — the thread is still joined
  /// and the store still holds its last good checkpoint, but data
  /// ingested since is not sealed; last_error() says why. Idempotent (a
  /// repeat call reports the first call's outcome).
  [[nodiscard]] bool finish_and_stop();

  /// Crash-path shutdown: joins after the in-flight cycle (a thread
  /// cannot be torn mid-fsync in-process) with NO final checkpoint —
  /// everything ingested since the last sealed manifest is lost, exactly
  /// like kill -9. Idempotent.
  void abort();

  /// Nudges the thread to run a cycle now instead of at the next
  /// deadline (tests, operator-forced checkpoint).
  void poke();

  [[nodiscard]] bool running() const;

  [[nodiscard]] const Heartbeat& heartbeat() const noexcept { return heartbeat_; }

  /// Cycles that sealed a manifest / that skipped as unchanged / that
  /// failed: plain reads of viewmap_daemon_checkpoints_total{result} and
  /// the sum of viewmap_daemon_checkpoint_failures_total{reason} in the
  /// service's registry, the only place they are kept. They count every
  /// daemon built on the service; ServiceLifecycle builds one per
  /// service, so that is this daemon's count.
  [[nodiscard]] std::uint64_t written() const;
  [[nodiscard]] std::uint64_t skipped() const;
  [[nodiscard]] std::uint64_t failures() const;

  /// Failed cycles since the last success (0 = healthy): the
  /// viewmap_daemon_checkpoint_consecutive_failures gauge. The health
  /// state machine reads this from the lifecycle/scrape threads.
  [[nodiscard]] std::uint64_t consecutive_failures() const;

  /// what() of the most recent cycle failure; empty after a success (or
  /// if none ever failed).
  [[nodiscard]] std::string last_error() const;

  /// Draws the wait before the next cycle: interval ± jitter_pct, at
  /// least 1 ms and at most half the steady clock's range, so
  /// steady_clock::now() + wait cannot wrap. Each daemon seeds its own
  /// generator from std::random_device, so daemons restarted together
  /// draw different waits. The checkpoint thread is
  /// the only caller while it runs; call it elsewhere only before
  /// start().
  [[nodiscard]] std::chrono::milliseconds next_wait();

 private:
  void run();
  bool cycle();
  bool stop_impl(bool final_checkpoint);
  /// Doubles `prev` from kRetryBackoffMin toward kRetryBackoffMax;
  /// `permanent` jumps straight to the cap.
  [[nodiscard]] static std::chrono::milliseconds next_backoff(
      std::chrono::milliseconds prev, bool permanent);
  [[nodiscard]] std::chrono::milliseconds jittered(
      std::chrono::milliseconds base);

  sys::ViewMapService& service_;
  store::SegmentStore& store_;
  CheckpointConfig cfg_;

  Heartbeat heartbeat_;
  obs::Counter* written_c_ = nullptr;
  obs::Counter* skipped_c_ = nullptr;
  obs::Gauge* sequence_g_ = nullptr;  ///< newest manifest this daemon sealed
  /// viewmap_daemon_checkpoint_failures_total{reason=…}, pre-registered
  /// for every StoreError::reason() label so exposition is deterministic.
  obs::Counter* failures_enospc_ = nullptr;
  obs::Counter* failures_eio_ = nullptr;
  obs::Counter* failures_permission_ = nullptr;
  obs::Counter* failures_other_ = nullptr;
  obs::Gauge* consecutive_g_ = nullptr;  ///< viewmap_daemon_checkpoint_consecutive_failures

  /// Digests of the snapshot behind the last checkpoint this daemon
  /// wrote (or skipped against). Thread-private: only run() touches it.
  std::vector<index::DbSnapshot::ShardDigest> last_digests_;
  bool have_last_ = false;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;   ///< under mutex_
  bool final_checkpoint_ = false; ///< under mutex_
  bool poked_ = false;            ///< under mutex_
  std::string last_error_;        ///< under mutex_
  /// Last failure's transient/permanent classification. Thread-private:
  /// only run() reads it (to pick the next backoff step).
  bool last_failure_transient_ = true;
  /// Outcome of the final checkpoint; written by run() before it
  /// returns, read by stop_impl() after join() (the join orders it).
  bool final_ok_ = true;
  Rng jitter_rng_{std::random_device{}()};  ///< draws the per-cycle jitter
  std::thread thread_;
};

}  // namespace viewmap::daemon
