// Incremental, crash-consistent VP persistence: sealed shard segments +
// atomically-published manifests.
//
// A deployed ViewMap service checkpoints continuously over weeks of VP
// history (§2: dashcam retention is 2–3 weeks), so persistence must be
// *incremental* and *crash-consistent* — never an O(database) rewrite per
// save, never a state with no safe point mid-write. This module stores a
// database as:
//
//   dir/
//     seg-<digest16 hex>.vseg2  one sealed segment per unit-time shard,
//                               named by its content digest
//     manifest-<seq hex>.vman   one small root per checkpoint: the list
//                               of (unit-time, digest, counts) it is
//                               composed of, plus the trusted clock
//     *.tmp                     in-flight writes (crash debris; GC'd)
//
// Segment:        "VSG2" | u32 2 | unit_time i64 | vp_count u64 |
//                 trusted_count u64 | arena_len u64 |
//                 vp_count × (offset u64, len u32) offset table |
//                 payload arena (ascending id) |
//                 trusted_count × Id16 (ascending) |
//                 Hash32 content digest | u32 CRC32C(all preceding bytes)
//   The arena holds the profiles in ascending-id order, so header fields
//   + arena + trusted ids ARE the canonical content bytes
//   (TimeShard::stream_content) and the stored digest equals
//   TimeShard::content_digest(). See src/store/README.md for the layout
//   rationale and the validation rules.
// Manifest file:  "VMAN" | u32 2 | u64 sequence | i64 trusted_clock |
//                 u64 shard_count | shard_count × entry | SHA-256(above)
//   entry      =  unit_time i64 | vp_count u64 | trusted_count u64 |
//                 u32 segment format (always 2) | Hash32 content digest
//
// Only this one format is readable. Anything else — a version-1
// manifest, an entry naming another segment format, a stream-format
// `.vseg` file — fails validation like any damaged checkpoint: recovery
// falls back past it, and throws when nothing loadable is left.
//
// Incrementality: a checkpoint walks the snapshot's shards and asks each
// for its content digest (cached on the shard — an untouched shard
// answers without re-serializing a byte, see TimeShard::content_digest).
// A digest whose segment file already exists is *sealed by reference*:
// the new manifest lists it, nothing is rewritten. Only new/changed
// shards cost serialization + I/O, so checkpoint cost is O(churn), not
// O(database).
//
// Crash consistency: every file is written to a .tmp sibling, fsynced,
// and atomically renamed into its final name — a file under a final name
// is always complete. Segments are content-addressed and therefore never
// overwritten in place; the manifest for sequence N is a NEW file, so no
// previously-sealed checkpoint is ever touched. The manifest rename is
// the commit point: a crash at any byte offset before it leaves every
// older manifest (and every segment it references — GC keeps them, see
// below) intact, so recovery lands exactly on the last sealed
// checkpoint. Recovery walks manifests newest-first and returns the
// first that validates end to end (manifest checksum, per-segment magic/
// digest/count checks, per-profile structural screen); a damaged newest
// checkpoint falls back to its predecessor instead of crashing or
// loading malformed VPs.
//
// GC: after each checkpoint (or via gc()), the newest `keep_manifests`
// manifests survive together with every segment any of them references;
// older manifests, unreferenced segments, and stale .tmp files are
// unlinked. Retention eviction therefore works across restarts for free:
// an evicted shard simply stops being referenced, and its segment is
// reclaimed once the last manifest naming it rotates out. If a kept
// manifest cannot be parsed, segment GC is skipped for that round (its
// references are unknown — deleting would turn one corrupt file into
// data loss).
//
// Concurrency contract: checkpoint()/gc() mutate the directory and must
// be driven by one thread at a time (the same single-caller discipline
// as ViewMapService::ingest_uploads()); the snapshot argument makes a
// checkpoint fully concurrent with live ingest, eviction, and
// investigations. recover() only reads and is safe from any thread.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/worker_pool.h"
#include "index/db_snapshot.h"
#include "index/timeline.h"

namespace viewmap::obs {
class MetricsRegistry;  // obs/metrics.h
class Counter;
class Histogram;
}  // namespace viewmap::obs

namespace viewmap::store {

/// I/O failure from the store's durable-write path, carrying the errno
/// and a transient-vs-permanent classification so callers (the
/// checkpoint daemon's retry loop, health reporting) can react without
/// parsing message strings. Corruption/validation failures during
/// recovery stay plain std::runtime_error — retrying those is pointless.
class StoreError : public std::runtime_error {
 public:
  StoreError(const std::string& what, int err)
      : std::runtime_error(err != 0 ? what + " (" + std::strerror(err) + ")" : what),
        errno_(err) {}

  [[nodiscard]] int errno_value() const noexcept { return errno_; }

  /// Transient failures are worth retrying on the same store: the
  /// condition can clear without operator action (disk-full after GC or
  /// log rotation, interrupted syscalls, kernel back-pressure, a flaky
  /// device returning EIO). Permanent ones (read-only filesystem,
  /// permissions, a path that vanished) need intervention — retry still
  /// happens (an operator remount DOES fix EROFS) but backoff jumps
  /// straight to its cap instead of ramping.
  [[nodiscard]] bool transient() const noexcept {
    switch (errno_) {
      case ENOSPC:
      case EDQUOT:
      case EIO:
      case EAGAIN:
      case EINTR:
      case ENOMEM:
      case EBUSY:
      case ETIMEDOUT:
        return true;
      default:
        return false;
    }
  }

  /// Low-cardinality label for the failures-by-reason counter.
  [[nodiscard]] const char* reason() const noexcept {
    switch (errno_) {
      case ENOSPC:
      case EDQUOT:
        return "enospc";
      case EIO:
        return "eio";
      case EROFS:
      case EACCES:
      case EPERM:
        return "permission";
      default:
        return "other";
    }
  }

 private:
  int errno_ = 0;
};

/// The one segment format: "VSG2" packed segments (.vseg2). Written into
/// every segment header and into every manifest entry's format column.
inline constexpr std::uint32_t kSegmentFormatVersion = 2;
inline constexpr std::uint32_t kManifestFormatVersion = 2;

/// One durable filesystem mutation a checkpoint performed, in order.
/// Test instrumentation (SegmentStoreConfig::op_log): the fault-injection
/// harness replays every prefix of this sequence — truncating the write
/// it lands inside — to prove recovery from a crash at any byte offset.
/// Paths are file names relative to the store directory, so a recorded
/// sequence can be replayed into a scratch directory.
struct RecordedOp {
  enum class Kind { kWriteFile, kRename, kRemove };
  Kind kind = Kind::kWriteFile;
  std::string name;                 ///< target (write/remove) or rename source
  std::string to;                   ///< rename destination
  std::vector<std::uint8_t> bytes;  ///< full contents written (kWriteFile)
};

struct SegmentStoreConfig {
  /// How many checkpoint manifests (newest-first) survive GC — the
  /// recovery fallback depth. Minimum 1 (the constructor raises 0 to
  /// 1); the default keeps the sealed predecessor so a corrupted newest
  /// checkpoint never strands the store.
  std::size_t keep_manifests = 2;
  /// fsync file data before each rename and the directory after — the
  /// barrier that makes the recorded operation order the on-disk order.
  /// Off only in tests/benches that model durability logically.
  bool fsync = true;
  /// Paranoia knob: additionally recompute the full SHA-256 content
  /// digest of every segment during recovery. The default check —
  /// whole-file CRC32C plus the embedded-digest/manifest comparison —
  /// already catches torn writes, bit rot, and stale-file swaps at
  /// memory-bandwidth cost instead of hash cost.
  bool deep_verify = false;
  /// Test instrumentation: when set, every durable mutation is appended
  /// here in execution order. Not owned.
  std::vector<RecordedOp>* op_log = nullptr;
};

struct CheckpointStats {
  std::uint64_t sequence = 0;        ///< manifest sequence number sealed
  std::size_t shards_total = 0;      ///< shards in the pinned snapshot
  std::size_t segments_written = 0;  ///< new/changed shards serialized
  std::size_t segments_reused = 0;   ///< sealed by reference, zero I/O
  std::uint64_t bytes_written = 0;   ///< segment + manifest bytes this call
  std::uint64_t segment_bytes_total = 0;  ///< full size of all referenced segments
  std::size_t files_removed = 0;     ///< GC'd manifests/segments/temps
};

struct RecoveryStats {
  std::uint64_t sequence = 0;        ///< manifest the store recovered to
  std::size_t manifests_tried = 0;   ///< >1 ⇔ fallback happened
  std::size_t segments_loaded = 0;
  std::uint64_t manifest_profiles = 0;  ///< VP count the manifest promises
  std::size_t profiles_loaded = 0;
  std::size_t profiles_rejected = 0;  ///< failed the structural screen
  std::size_t trusted_marked = 0;
  unsigned threads_used = 0;         ///< min(pool width, segments): recovery's parallelism bound
  /// Per-phase timings. read/validate/parse are summed across workers
  /// (CPU time — exceeds wall clock when parallel); adopt and total are
  /// wall clock on the recovering thread.
  std::uint64_t read_us = 0;
  std::uint64_t validate_us = 0;
  std::uint64_t parse_us = 0;
  std::uint64_t adopt_us = 0;
  std::uint64_t total_us = 0;
};

class SegmentStore {
 public:
  /// Recovery reads, validates and parses segments on `pool`; adoption
  /// stays ordered and serial, so the recovered database is
  /// bit-identical whatever its width (the determinism tests prove it).
  explicit SegmentStore(std::string dir, SegmentStoreConfig cfg = {},
                        common::WorkerPool& pool = common::WorkerPool::process());

  /// Seals one checkpoint of the pinned snapshot: writes segments for
  /// new/changed shards only, reuses sealed segments by digest, then
  /// atomically publishes the manifest and garbage-collects. Throws
  /// std::runtime_error on I/O failure — the store is then still exactly
  /// its previous checkpoint (nothing final was overwritten).
  CheckpointStats checkpoint(const index::DbSnapshot& snap);

  /// Loads the newest recoverable checkpoint into a fresh timeline
  /// (optionally with the caller's index config, so retention and the
  /// timeliness screen behave identically after a restart). A store
  /// with no manifest at all — including a directory never created —
  /// yields an empty database; a directory that exists but cannot be
  /// listed, or whose manifests are all damaged, throws
  /// std::runtime_error (an I/O failure must never masquerade as a
  /// fresh store). Damaged newest checkpoints fall back
  /// (RecoveryStats::manifests_tried > 1).
  [[nodiscard]] index::VpTimeline recover(RecoveryStats* stats = nullptr,
                                          index::TimelineConfig index_cfg = {}) const;

  /// Point-in-time restore: loads exactly the checkpoint sealed under
  /// manifest `sequence` — the daemon's "restart from a chosen
  /// checkpoint" path, and the investigation path for historical
  /// database states (run with keep_manifests > 2 to retain history).
  /// Unlike the newest-first recover() above this never falls back: a
  /// missing or damaged named manifest throws std::runtime_error,
  /// because silently landing on a different checkpoint than the one the
  /// operator named would defeat the point of naming it.
  [[nodiscard]] index::VpTimeline recover(std::uint64_t sequence,
                                          RecoveryStats* stats = nullptr,
                                          index::TimelineConfig index_cfg = {}) const;

  /// Manifest sequences present on disk, ascending — the menu a
  /// point-in-time recover(sequence) picks from. Presence does not imply
  /// loadability (that is recover's job to verify).
  [[nodiscard]] std::vector<std::uint64_t> manifest_sequences() const;

  /// Newest manifest sequence present (0 = none). Scans the directory.
  [[nodiscard]] std::uint64_t latest_sequence() const;

  /// Removes everything the retention rules above say is dead. Returns
  /// files unlinked. checkpoint() calls this automatically.
  std::size_t gc();

  /// Unlinks crash debris only: stale `*.tmp` files from an interrupted
  /// checkpoint (ours alone — `.vseg2.tmp` / `.vman.tmp`;
  /// foreign files are untouched). Returns files removed. Safe on a
  /// directory that does not exist (returns 0). Call it before starting
  /// a checkpoint cadence on a recovered store — recover() itself stays
  /// read-only per its concurrency contract, so the sweep is an explicit
  /// mutation under the same single-writer discipline as checkpoint().
  std::size_t sweep_temps();

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] const SegmentStoreConfig& config() const noexcept { return cfg_; }

  /// The one metrics wiring path: publishes this store's checkpoint/
  /// recovery counters and fsync latency (see src/obs/README.md for the
  /// names) into `registry` unless a registry is already wired (then a
  /// no-op — first wins, so a store shared between services keeps one
  /// consistent set of counters). Until then the store publishes
  /// nothing. ViewMapService calls this on every checkpoint()/
  /// restore_from() and CheckpointDaemon in its constructor, which is
  /// why it is const: the handles are caching state, not store content.
  /// Call from the single control thread that drives checkpoint()/
  /// recover() — it is not synchronized. `registry` is not owned and
  /// must outlive the store.
  void adopt_metrics(obs::MetricsRegistry* registry) const;

  /// The ".vseg2" segment file name for a content digest.
  [[nodiscard]] static std::string segment_file_name(const Hash32& digest);
  [[nodiscard]] static std::string manifest_file_name(std::uint64_t sequence);

 private:
  struct ManifestEntry {
    TimeSec unit_time = 0;
    std::uint64_t vp_count = 0;
    std::uint64_t trusted_count = 0;
    Hash32 digest{};
  };
  struct Manifest {
    std::uint64_t sequence = 0;
    TimeSec trusted_clock = 0;
    std::vector<ManifestEntry> entries;
  };

  /// Manifest sequences present on disk, descending.
  [[nodiscard]] std::vector<std::uint64_t> list_manifests_desc() const;
  /// Parses + checksum-validates a manifest file. Throws on any damage.
  [[nodiscard]] Manifest read_manifest(std::uint64_t sequence) const;
  /// Loads every segment of `manifest` into `db`: the worker pool
  /// reads/validates/parses segments into
  /// ready-to-adopt shards; the calling thread then adopts them in
  /// manifest order (deterministic whatever the pool width). Throws on
  /// any segment damage (missing file, bad magic/version, CRC / digest /
  /// count / offset-table mismatch) — when several segments are damaged,
  /// deterministically the earliest one in manifest order.
  void load_segments(const Manifest& manifest, index::VpTimeline& db,
                     RecoveryStats& stats) const;
  /// Parses + fully validates exactly one checkpoint into a fresh
  /// timeline. Throws on any damage; shared by the fallback walk and the
  /// point-in-time recover(sequence).
  [[nodiscard]] index::VpTimeline load_checkpoint(std::uint64_t sequence,
                                                  index::TimelineConfig index_cfg,
                                                  RecoveryStats& stats) const;
  /// Publishes one successful recovery into the wired registry (no-op
  /// until adopt_metrics()).
  void record_recovery(const RecoveryStats& stats) const;

  void write_file(const std::string& name, std::span<const std::uint8_t> bytes);
  /// write_file to `name + ".tmp"` then atomic-rename to `name` — and on
  /// ANY failure unlink the temp before rethrowing, so a failed
  /// checkpoint never leaves `.tmp` debris for retries to trip over.
  void publish_file(const std::string& name, std::span<const std::uint8_t> bytes);
  void rename_file(const std::string& from, const std::string& to);
  bool remove_file(const std::string& name);
  void fsync_dir() const;
  [[nodiscard]] std::string full_path(const std::string& name) const;

  /// Registry handles — all null until adopt_metrics() wires a registry.
  /// Mutable: they cache where to report, they are not store content,
  /// and recovery instrumentation runs in const methods.
  struct StoreMetrics {
    obs::Counter* checkpoints = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Counter* segments_written = nullptr;
    obs::Counter* segments_reused = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* recovered_profiles = nullptr;
    obs::Histogram* checkpoint_us = nullptr;
    obs::Histogram* fsync_us = nullptr;
    obs::Histogram* recover_us = nullptr;
    /// Per-phase recovery timings (one record per recovery, the summed
    /// worker micros from RecoveryStats) — makes a slow restart
    /// attributable to I/O vs validation vs parse vs adoption.
    obs::Histogram* recover_read_us = nullptr;
    obs::Histogram* recover_validate_us = nullptr;
    obs::Histogram* recover_parse_us = nullptr;
    obs::Histogram* recover_adopt_us = nullptr;
  };

  std::string dir_;
  SegmentStoreConfig cfg_;
  common::WorkerPool& pool_;
  mutable StoreMetrics m_;
};

}  // namespace viewmap::store
