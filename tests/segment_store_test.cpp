// Segment store: incremental sealed-shard checkpoints + crash-consistent
// manifests (store/segment_store.h).
//
// The fault-injection harness is the core of this suite: every checkpoint
// records its durable filesystem mutations (RecordedOp log), and the
// harness replays every prefix of that sequence — truncating the write it
// lands inside — to prove that a crash at any byte offset recovers to the
// last sealed checkpoint, bit-for-bit, with zero malformed profiles. A
// corruption corpus (bit flips, truncations, wrong magic, stale or
// missing segments, torn renames) then damages sealed stores directly
// and asserts recovery either falls back to the sealed predecessor or
// fails with a clear error — never crashes, never loads a malformed VP.
// The corpus includes offset-table lies with a re-stamped CRC and
// CRC-consistent arena tampering vs deep_verify. Legacy inputs — a
// version-1 manifest, an entry naming the retired stream segment format,
// stream `.vseg` files — must fall back or fail cleanly like any other
// damage. Satellites: the {ingest, evict, checkpoint, restart}
// interleaving property test, parallel-recovery determinism across
// worker-pool widths, and the TSan stresses where checkpoint() races live
// ingest + retention eviction + an InvestigationServer worker pool and
// the recovery pool feeds a live service.
//
// The equality oracle throughout is DbSnapshot::canonical_bytes(): every
// shard re-serialized (never a cached or manifest-seeded digest) plus the
// trusted clock.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "attack/fake_vp.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/bytes.h"
#include "common/worker_pool.h"
#include "crypto/crc32c.h"
#include "crypto/sha256.h"
#include "store/segment_store.h"
#include "system/investigation_server.h"
#include "system/service.h"

namespace viewmap::store {
namespace {

namespace fs = std::filesystem;

constexpr auto kAccepted = sys::VpDatabase::Admission::kAccepted;

// ── helpers ──────────────────────────────────────────────────────────

/// Unique scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("viewmap_segstore_" + std::string(tag) + "_" + std::to_string(::getpid()) +
             "_" + std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

vp::ViewProfile make_profile(TimeSec unit, geo::Vec2 start, Rng& rng) {
  return attack::make_fake_profile(unit, start, {start.x + 200.0, start.y}, rng);
}

using Bytes = std::vector<std::uint8_t>;

/// The equality oracle: two databases are "the same" iff their canonical
/// bytes match.
Bytes db_bytes(const sys::VpDatabase& db) { return db.snapshot().canonical_bytes(); }

SegmentStoreConfig fast_config() {
  SegmentStoreConfig cfg;
  cfg.fsync = false;  // tests model durability logically via the op log
  return cfg;
}

// ── fault-injection machinery ────────────────────────────────────────

/// Byte-exact image of a store directory.
using DirImage = std::map<std::string, std::vector<std::uint8_t>>;

DirImage capture_dir(const fs::path& dir) {
  DirImage image;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    image[entry.path().filename().string()] =
        std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  }
  return image;
}

void write_raw(const fs::path& file, std::span<const std::uint8_t> bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void materialize(const fs::path& dir, const DirImage& image) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : image) write_raw(dir / name, bytes);
}

/// Applies the first `full_ops` recorded operations verbatim, then — when
/// `partial_bytes` targets a kWriteFile op at index full_ops — that op's
/// write truncated to `partial_bytes`. This models a crash mid-write:
/// renames and removes are atomic, so they are either applied or not.
void apply_ops(const fs::path& dir, const std::vector<RecordedOp>& ops,
               std::size_t full_ops, std::size_t partial_bytes = 0,
               bool with_partial = false) {
  for (std::size_t i = 0; i < full_ops; ++i) {
    const RecordedOp& op = ops[i];
    switch (op.kind) {
      case RecordedOp::Kind::kWriteFile:
        write_raw(dir / op.name, op.bytes);
        break;
      case RecordedOp::Kind::kRename:
        fs::rename(dir / op.name, dir / op.to);
        break;
      case RecordedOp::Kind::kRemove:
        fs::remove(dir / op.name);
        break;
    }
  }
  if (with_partial) {
    ASSERT_LT(full_ops, ops.size());
    ASSERT_EQ(ops[full_ops].kind, RecordedOp::Kind::kWriteFile);
    write_raw(dir / ops[full_ops].name,
              std::span<const std::uint8_t>(ops[full_ops].bytes).subspan(0, partial_bytes));
  }
}

/// Recovers the scratch directory and returns the canonical bytes of the
/// result. Any throw propagates — callers assert either equality with a
/// sealed state or a clean std::runtime_error.
Bytes recover_bytes(const fs::path& dir) {
  SegmentStore store(dir.string(), fast_config());
  return db_bytes(store.recover());
}

/// The index of the manifest-publishing rename — the commit point: every
/// prefix strictly before it must recover the previous checkpoint, every
/// prefix at or past it the new one.
std::size_t manifest_commit_index(const std::vector<RecordedOp>& ops) {
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (ops[i].kind == RecordedOp::Kind::kRename && ops[i].to.starts_with("manifest-"))
      return i;
  ADD_FAILURE() << "op log contains no manifest rename";
  return ops.size();
}

/// Truncation points for a write of `size` bytes: every offset through
/// the header region (where every format field lives), then a dense
/// stride through the payload, plus both edges. A prime stride hits
/// every residue of the 4576-byte profile record across a few profiles.
std::vector<std::size_t> truncation_points(std::size_t size) {
  std::vector<std::size_t> points;
  const std::size_t dense = std::min<std::size_t>(size, 64);
  for (std::size_t off = 0; off < dense; ++off) points.push_back(off);
  for (std::size_t off = dense; off < size; off += 31) points.push_back(off);
  if (size > 1) points.push_back(size - 1);
  return points;
}

/// The harness: given a directory image of the previous sealed
/// checkpoint and the op log of the next one, replays every crash point
/// and asserts recovery lands exactly on `prev_bytes` (before the
/// manifest commit) or `next_bytes` (at/after it).
void replay_all_crash_points(const DirImage& base, const std::vector<RecordedOp>& ops,
                             const Bytes& prev_bytes, const Bytes& next_bytes,
                             const char* what) {
  TempDir scratch("replay");
  const std::size_t commit = manifest_commit_index(ops);
  std::size_t states = 0;
  for (std::size_t i = 0; i <= ops.size(); ++i) {
    const Bytes& expect = i > commit ? next_bytes : prev_bytes;
    // Crash exactly between op i-1 and op i.
    materialize(scratch.path(), base);
    apply_ops(scratch.path(), ops, i);
    EXPECT_EQ(recover_bytes(scratch.path()), expect)
        << what << ": crash before op " << i;
    ++states;
    // Crash inside op i, at every sampled byte offset.
    if (i < ops.size() && ops[i].kind == RecordedOp::Kind::kWriteFile) {
      for (const std::size_t off : truncation_points(ops[i].bytes.size())) {
        materialize(scratch.path(), base);
        apply_ops(scratch.path(), ops, i, off, /*with_partial=*/true);
        EXPECT_EQ(recover_bytes(scratch.path()), expect)
            << what << ": crash inside op " << i << " at byte " << off;
        ++states;
      }
    }
  }
  // Make sure the harness actually exercised a meaningful state space.
  EXPECT_GT(states, ops.size());
}

// ── corruption-corpus builders (satellite) ───────────────────────────
// Each builder takes a healthy sealed directory and damages it one
// specific way; the corpus test asserts every damaged store either
// recovers to the sealed predecessor or throws a clear error.

void corrupt_flip_byte(const fs::path& dir, const std::string& name, std::size_t off) {
  auto image = capture_dir(dir);
  auto& bytes = image.at(name);
  ASSERT_LT(off, bytes.size());
  bytes[off] ^= 0x40;
  write_raw(dir / name, bytes);
}

void corrupt_truncate(const fs::path& dir, const std::string& name, std::size_t keep) {
  auto image = capture_dir(dir);
  auto& bytes = image.at(name);
  bytes.resize(std::min(keep, bytes.size()));
  write_raw(dir / name, bytes);
}

void corrupt_wrong_magic(const fs::path& dir, const std::string& name) {
  auto image = capture_dir(dir);
  auto& bytes = image.at(name);
  ASSERT_GE(bytes.size(), 4u);
  bytes[0] = 'N';
  bytes[1] = 'O';
  bytes[2] = 'P';
  bytes[3] = 'E';
  write_raw(dir / name, bytes);
}

void corrupt_remove(const fs::path& dir, const std::string& name) {
  fs::remove(dir / name);
}

/// Stale segment reference: the manifest names a digest whose file now
/// holds a different (internally valid) segment's bytes.
void corrupt_swap_contents(const fs::path& dir, const std::string& victim,
                           const std::string& donor) {
  auto image = capture_dir(dir);
  write_raw(dir / victim, image.at(donor));
}

// Byte-surgery constants for the segment layout (see store/segment_store.h):
// 40-byte prefix (magic, version, unit_time, vp_count, trusted_count,
// arena_len), then vp_count × 12-byte (offset u64, len u32) table
// entries, the arena, trusted ids, and a 36-byte trailer (digest + CRC).
constexpr std::size_t kPackedPrefix = 40;
constexpr std::size_t kPackedEntry = 12;

/// Re-stamps the trailing whole-file CRC32C after a deliberate byte
/// edit, so corpus entries can attack the *structural* validation layer
/// (offset-table lies) rather than being caught by the checksum.
void fix_crc(const fs::path& dir, const std::string& name) {
  auto image = capture_dir(dir);
  auto& bytes = image.at(name);
  ASSERT_GE(bytes.size(), 4u);
  const std::uint32_t crc = crypto::crc32c(
      std::span<const std::uint8_t>(bytes).subspan(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  write_raw(dir / name, bytes);
}

/// Overwrites the offset field of offset-table entry `index`.
void patch_table_offset(const fs::path& dir, const std::string& name,
                           std::size_t index, std::uint64_t new_offset) {
  auto image = capture_dir(dir);
  auto& bytes = image.at(name);
  const std::size_t at = kPackedPrefix + index * kPackedEntry;
  ASSERT_LE(at + 8, bytes.size());
  for (int i = 0; i < 8; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(new_offset >> (8 * i));
  write_raw(dir / name, bytes);
}

/// Overwrites the length field of offset-table entry `index`.
void patch_table_length(const fs::path& dir, const std::string& name,
                           std::size_t index, std::uint32_t new_length) {
  auto image = capture_dir(dir);
  auto& bytes = image.at(name);
  const std::size_t at = kPackedPrefix + index * kPackedEntry + 8;
  ASSERT_LE(at + 4, bytes.size());
  for (int i = 0; i < 4; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(new_length >> (8 * i));
  write_raw(dir / name, bytes);
}

// ── basic round trips ────────────────────────────────────────────────

TEST(SegmentStore, CheckpointRecoverRoundTrip) {
  TempDir dir("roundtrip");
  Rng rng(1);
  sys::VpDatabase db;
  for (int m = 0; m < 3; ++m)
    for (int i = 0; i < 2; ++i)
      ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {i * 400.0, m * 100.0}, rng), false),
                kAccepted);
  ASSERT_EQ(db.upload(make_profile(kUnitTimeSec, {0.0, 900.0}, rng), true), kAccepted);

  SegmentStore store(dir.str(), fast_config());
  const auto stats = store.checkpoint(db.snapshot());
  EXPECT_EQ(stats.sequence, 1u);
  EXPECT_EQ(stats.shards_total, 3u);
  EXPECT_EQ(stats.segments_written, 3u);
  EXPECT_EQ(stats.segments_reused, 0u);
  EXPECT_GT(stats.bytes_written, 7 * vp::kVpWireSize);

  RecoveryStats rec;
  const auto loaded = store.recover(&rec);
  EXPECT_EQ(rec.sequence, 1u);
  EXPECT_EQ(rec.manifests_tried, 1u);
  EXPECT_EQ(rec.segments_loaded, 3u);
  EXPECT_EQ(rec.profiles_loaded, 7u);
  EXPECT_EQ(rec.profiles_rejected, 0u);
  EXPECT_EQ(rec.manifest_profiles, 7u);
  EXPECT_EQ(rec.trusted_marked, 1u);
  EXPECT_EQ(loaded.trusted_count(), 1u);
  EXPECT_EQ(loaded.trusted_now(), db.trusted_now());
  EXPECT_EQ(db_bytes(loaded), db_bytes(db));
}

TEST(SegmentStore, EmptyAndFreshStores) {
  TempDir dir("fresh");
  SegmentStore store(dir.str(), fast_config());
  EXPECT_EQ(store.latest_sequence(), 0u);
  RecoveryStats rec;
  const auto loaded = store.recover(&rec);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(rec.manifests_tried, 0u);

  // An empty database checkpoints and recovers too (manifest, no segments).
  sys::VpDatabase empty;
  empty.advance_clock(777 * kUnitTimeSec);
  const auto stats = store.checkpoint(empty.snapshot());
  EXPECT_EQ(stats.segments_written, 0u);
  const auto again = store.recover();
  EXPECT_EQ(again.size(), 0u);
  EXPECT_EQ(again.trusted_now(), 777 * kUnitTimeSec);
}

TEST(SegmentStore, UnlistableStorePathThrowsInsteadOfReportingEmpty) {
  // A directory that exists but cannot be iterated (here: the path is a
  // regular file) is an I/O failure, not a fresh store — returning an
  // empty database would let restore_from() silently replace weeks of
  // checkpointed history.
  TempDir dir("unlistable");
  const fs::path not_a_dir = dir.path() / "file";
  const std::vector<std::uint8_t> junk{1};
  write_raw(not_a_dir, junk);
  SegmentStore store(not_a_dir.string(), fast_config());
  EXPECT_THROW((void)store.recover(), std::runtime_error);
  EXPECT_THROW((void)store.latest_sequence(), std::runtime_error);
}

TEST(SegmentStore, IncrementalCheckpointWritesOnlyChangedShards) {
  TempDir dir("incremental");
  Rng rng(2);
  sys::VpDatabase db;
  for (int m = 0; m < 4; ++m)
    for (int i = 0; i < 3; ++i)
      ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {i * 400.0, m * 100.0}, rng), false),
                kAccepted);

  SegmentStore store(dir.str(), fast_config());
  const auto first = store.checkpoint(db.snapshot());
  EXPECT_EQ(first.segments_written, 4u);

  // Touch exactly one minute.
  ASSERT_EQ(db.upload(make_profile(2 * kUnitTimeSec, {5000.0, 0.0}, rng), false), kAccepted);
  const auto second = store.checkpoint(db.snapshot());
  EXPECT_EQ(second.sequence, 2u);
  EXPECT_EQ(second.shards_total, 4u);
  EXPECT_EQ(second.segments_written, 1u);
  EXPECT_EQ(second.segments_reused, 3u);
  // Incremental I/O: one shard's segment + the manifest, nowhere near a
  // full rewrite.
  EXPECT_LT(second.bytes_written, first.bytes_written / 2);
  EXPECT_EQ(db_bytes(store.recover()), db_bytes(db));

  // Nothing changed: the next checkpoint writes only a manifest.
  const auto third = store.checkpoint(db.snapshot());
  EXPECT_EQ(third.segments_written, 0u);
  EXPECT_EQ(third.segments_reused, 4u);
  EXPECT_LT(third.bytes_written, 1024u);
  EXPECT_EQ(db_bytes(store.recover()), db_bytes(db));
}

TEST(SegmentStore, EvictionUnreferencesSegmentsAndGcReclaims) {
  TempDir dir("eviction");
  Rng rng(3);
  index::TimelineConfig tcfg;
  tcfg.retention.window_sec = 2 * kUnitTimeSec;
  sys::VpDatabase db(tcfg);
  db.advance_clock(2 * kUnitTimeSec);
  for (int m = 0; m < 3; ++m)
    ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {m * 300.0, 0.0}, rng), false), kAccepted);

  SegmentStore store(dir.str(), fast_config());
  (void)store.checkpoint(db.snapshot());
  const auto digests = db.snapshot().shard_digests();
  ASSERT_EQ(digests.size(), 3u);
  const std::string evicted_segment = SegmentStore::segment_file_name(digests[0].digest);
  ASSERT_TRUE(fs::exists(dir.path() / evicted_segment));

  // Walk the clock so minute 0 ages out, then rotate two checkpoints: the
  // first still keeps the old manifest (fallback depth 2), the second
  // pushes it out and its exclusive segment with it.
  db.advance_clock(3 * kUnitTimeSec);
  EXPECT_GT(db.enforce_retention(), 0u);
  (void)store.checkpoint(db.snapshot());
  EXPECT_TRUE(fs::exists(dir.path() / evicted_segment));  // predecessor still refs it
  const auto stats = store.checkpoint(db.snapshot());
  EXPECT_GT(stats.files_removed, 0u);
  EXPECT_FALSE(fs::exists(dir.path() / evicted_segment));
  // Retention survives the restart: the recovered database has only the
  // in-window shards.
  const auto loaded = store.recover(nullptr, tcfg);
  EXPECT_EQ(db_bytes(loaded), db_bytes(db));
  EXPECT_EQ(loaded.snapshot().shard_count(), 2u);
}

TEST(SegmentStore, KeepManifestsBoundsHistory) {
  TempDir dir("keep");
  Rng rng(4);
  sys::VpDatabase db;
  SegmentStoreConfig cfg = fast_config();
  cfg.keep_manifests = 3;
  SegmentStore store(dir.str(), cfg);
  for (int round = 0; round < 5; ++round) {
    ASSERT_EQ(db.upload(make_profile(0, {round * 500.0, 0.0}, rng), false), kAccepted);
    (void)store.checkpoint(db.snapshot());
  }
  std::size_t manifests = 0;
  for (const auto& entry : fs::directory_iterator(dir.path()))
    manifests += entry.path().filename().string().starts_with("manifest-") ? 1 : 0;
  EXPECT_EQ(manifests, 3u);
  EXPECT_EQ(store.latest_sequence(), 5u);
}

TEST(SegmentStore, PointInTimeRecoverLandsOnTheNamedManifest) {
  TempDir dir("pit");
  Rng rng(40);
  sys::VpDatabase db;
  SegmentStoreConfig cfg = fast_config();
  cfg.keep_manifests = 4;  // retain the history the named restores walk
  SegmentStore store(dir.str(), cfg);
  std::map<std::uint64_t, Bytes> sealed;  // sequence → canonical bytes
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(db.upload(
        make_profile(round * kUnitTimeSec, {round * 300.0, 0.0}, rng), false), kAccepted);
    const auto stats = store.checkpoint(db.snapshot());
    sealed[stats.sequence] = db_bytes(db);
  }
  EXPECT_EQ(store.manifest_sequences(),
            (std::vector<std::uint64_t>{1, 2, 3}));

  // Every retained checkpoint — including the middle of history, which
  // newest-first recover() can never land on — restores bit-for-bit.
  for (const auto& [seq, bytes] : sealed) {
    RecoveryStats rec;
    const sys::VpDatabase loaded = store.recover(seq, &rec);
    EXPECT_EQ(rec.sequence, seq);
    EXPECT_EQ(rec.manifests_tried, 1u);
    EXPECT_EQ(rec.profiles_loaded, rec.manifest_profiles);
    EXPECT_EQ(rec.profiles_rejected, 0u);
    EXPECT_TRUE(db_bytes(loaded) == bytes)
        << "sequence " << seq << " did not restore bit-for-bit";
  }
}

TEST(SegmentStore, PointInTimeRecoverMissingSequenceThrows) {
  TempDir dir("pitmissing");
  Rng rng(41);
  sys::VpDatabase db;
  SegmentStore store(dir.str(), fast_config());
  ASSERT_EQ(db.upload(make_profile(0, {0.0, 0.0}, rng), false), kAccepted);
  (void)store.checkpoint(db.snapshot());

  const std::uint64_t absent = 99;
  EXPECT_THROW((void)store.recover(absent), std::runtime_error);
  // GC'd history is equally absent: only the kept manifests are menu.
  const std::uint64_t sealed = 1;
  EXPECT_NO_THROW((void)store.recover(sealed));
}

TEST(SegmentStore, PointInTimeRecoverNeverFallsBack) {
  TempDir dir("pitdamaged");
  Rng rng(42);
  sys::VpDatabase db;
  SegmentStore store(dir.str(), fast_config());
  ASSERT_EQ(db.upload(make_profile(0, {0.0, 0.0}, rng), false), kAccepted);
  (void)store.checkpoint(db.snapshot());
  const Bytes sealed_bytes = db_bytes(db);
  ASSERT_EQ(db.upload(make_profile(kUnitTimeSec, {400.0, 0.0}, rng), false), kAccepted);
  (void)store.checkpoint(db.snapshot());

  // Damage the newest manifest. Newest-first recover() falls back to
  // checkpoint 1; naming sequence 2 must throw instead of silently
  // landing the caller on a checkpoint they did not ask for.
  const std::vector<std::uint8_t> junk{'j', 'u', 'n', 'k'};
  write_raw(dir.path() / "manifest-0000000000000002.vman", junk);
  RecoveryStats rec;
  const sys::VpDatabase fallback = store.recover(&rec);
  EXPECT_EQ(rec.sequence, 1u);
  EXPECT_EQ(rec.manifests_tried, 2u);
  EXPECT_TRUE(db_bytes(fallback) == sealed_bytes);
  const std::uint64_t named = 2;
  EXPECT_THROW((void)store.recover(named), std::runtime_error);
}

TEST(SegmentStore, ClockRecoverySurvivesCheckpoint) {
  TempDir dir("clock");
  Rng rng(5);
  sys::VpDatabase db;
  ASSERT_EQ(db.upload(make_profile(kUnitTimeSec, {0.0, 0.0}, rng), true), kAccepted);
  db.reset_clock(10);  // operator walked a poisoned clock back
  SegmentStore store(dir.str(), fast_config());
  (void)store.checkpoint(db.snapshot());
  // Replaying the trusted profile advances the clock to 60 during load;
  // the manifest value must win or the recovery is silently undone.
  EXPECT_EQ(store.recover().trusted_now(), 10);
}

// ── digest seeding and the parallel recovery pool ────────────────────

TEST(SegmentStore, PackedCheckpointRoundTripAndDigestSeeding) {
  TempDir dir("v2roundtrip");
  Rng rng(60);
  sys::VpDatabase db;
  for (int m = 0; m < 3; ++m)
    for (int i = 0; i < 2; ++i)
      ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {i * 400.0, m * 100.0}, rng), false),
                kAccepted);
  ASSERT_EQ(db.upload(make_profile(kUnitTimeSec, {0.0, 900.0}, rng), true), kAccepted);

  SegmentStore store(dir.str(), fast_config());
  const auto stats = store.checkpoint(db.snapshot());
  EXPECT_EQ(stats.segments_written, 3u);
  // Every segment landed under its digest's .vseg2 name.
  for (const auto& d : db.snapshot().shard_digests()) {
    EXPECT_TRUE(SegmentStore::segment_file_name(d.digest).ends_with(".vseg2"));
    EXPECT_TRUE(fs::exists(dir.path() / SegmentStore::segment_file_name(d.digest)));
  }

  RecoveryStats rec;
  const auto loaded = store.recover(&rec);
  EXPECT_EQ(rec.segments_loaded, 3u);
  EXPECT_EQ(rec.profiles_loaded, 7u);
  EXPECT_EQ(rec.profiles_rejected, 0u);
  EXPECT_EQ(rec.trusted_marked, 1u);
  EXPECT_GE(rec.threads_used, 1u);
  EXPECT_EQ(db_bytes(loaded), db_bytes(db));

  // Digest seeding: adopted shards carry their manifest digests, so the
  // first checkpoint after a restart re-hashes nothing and rewrites
  // nothing — it reuses every sealed segment by name.
  const auto again = store.checkpoint(loaded.snapshot());
  EXPECT_EQ(again.segments_written, 0u);
  EXPECT_EQ(again.segments_reused, 3u);

  // Same content ⇒ same digests ⇒ same names ⇒ same bytes: checkpointing
  // the recovered database into a fresh directory reproduces the sealed
  // store bit-for-bit (manifest sequence included).
  TempDir copy("v2copy");
  SegmentStore copy_store(copy.str(), fast_config());
  (void)copy_store.checkpoint(loaded.snapshot());
  DirImage original = capture_dir(dir.path());
  original.erase(SegmentStore::manifest_file_name(2));  // `again`'s manifest
  EXPECT_TRUE(capture_dir(copy.path()) == original)
      << "re-checkpointing a recovered database is not byte-identical";

  // deep_verify re-hashes canonical content on the way in; on a healthy
  // store it must change nothing but the cost.
  SegmentStoreConfig deep = fast_config();
  deep.deep_verify = true;
  SegmentStore deep_store(dir.str(), deep);
  EXPECT_EQ(db_bytes(deep_store.recover()), db_bytes(db));
}

TEST(SegmentStore, ParallelRecoveryIsDeterministicAcrossThreadCounts) {
  TempDir dir("v2threads");
  Rng rng(63);
  sys::VpDatabase db;
  // Two-writer history: three shards sealed first, then three more
  // minutes plus a trusted mark sealed by a second store instance, so the
  // recovered manifest mixes reused and freshly written segments.
  for (int m = 0; m < 3; ++m)
    for (int i = 0; i < 3; ++i)
      ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {i * 400.0, m * 90.0}, rng), false),
                kAccepted);
  {
    SegmentStore first(dir.str(), fast_config());
    (void)first.checkpoint(db.snapshot());
  }
  for (int m = 3; m < 6; ++m)
    for (int i = 0; i < 3; ++i)
      ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {i * 400.0, m * 90.0}, rng), false),
                kAccepted);
  ASSERT_EQ(db.upload(make_profile(2 * kUnitTimeSec, {0.0, 1200.0}, rng), true), kAccepted);
  {
    SegmentStore writer(dir.str(), fast_config());
    (void)writer.checkpoint(db.snapshot());
  }

  const Bytes expected = db_bytes(db);
  RecoveryStats base;
  for (const unsigned width : {1u, 2u, 4u}) {
    common::WorkerPool pool(width);
    SegmentStore store(dir.str(), fast_config(), pool);
    RecoveryStats rec;
    const auto loaded = store.recover(&rec);
    // Bit-identical database AND identical recovery accounting, however
    // wide the pool — adoption order is manifest order, not finish order.
    EXPECT_EQ(db_bytes(loaded), expected) << "width=" << width;
    EXPECT_EQ(rec.threads_used, width);
    if (width == 1) {
      base = rec;
      continue;
    }
    EXPECT_EQ(rec.sequence, base.sequence) << "width=" << width;
    EXPECT_EQ(rec.segments_loaded, base.segments_loaded) << "width=" << width;
    EXPECT_EQ(rec.profiles_loaded, base.profiles_loaded) << "width=" << width;
    EXPECT_EQ(rec.profiles_rejected, base.profiles_rejected) << "width=" << width;
    EXPECT_EQ(rec.trusted_marked, base.trusted_marked) << "width=" << width;
  }
}

TEST(SegmentStore, DamagedSegmentErrorsNameFileAndOffsetAtAnyPoolWidth) {
  TempDir dir("v2err");
  Rng rng(64);
  sys::VpDatabase db;
  for (int m = 0; m < 4; ++m) {
    ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {m * 350.0, 0.0}, rng), false), kAccepted);
    ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {m * 350.0, 600.0}, rng), false), kAccepted);
  }
  SegmentStore writer(dir.str(), fast_config());
  (void)writer.checkpoint(db.snapshot());
  const auto digests = db.snapshot().shard_digests();
  ASSERT_EQ(digests.size(), 4u);
  const std::string first = SegmentStore::segment_file_name(digests[0].digest);
  const std::string third = SegmentStore::segment_file_name(digests[2].digest);

  // Damage two referenced segments differently. Point-in-time recovery
  // must throw (never fall back), the message must name the damaged
  // file and its offending table entry's file offset, and the *same*
  // error — the earliest manifest entry's — must surface no matter how
  // many workers raced over the entries.
  patch_table_offset(dir.path(), first, 1, 0);  // entry 1 overlaps entry 0
  fix_crc(dir.path(), first);
  corrupt_truncate(dir.path(), third, 50);
  std::map<unsigned, std::string> messages;
  for (const unsigned width : {1u, 2u, 4u}) {
    common::WorkerPool pool(width);
    SegmentStore store(dir.str(), fast_config(), pool);
    const std::uint64_t sealed = 1;
    try {
      (void)store.recover(sealed);
      FAIL() << "recover(1) of a damaged checkpoint must throw (width=" << width << ")";
    } catch (const std::runtime_error& e) {
      messages[width] = e.what();
    }
  }
  EXPECT_EQ(messages[1], messages[2]);
  EXPECT_EQ(messages[1], messages[4]);
  EXPECT_NE(messages[1].find(first), std::string::npos) << messages[1];
  EXPECT_NE(messages[1].find("table entry 1"), std::string::npos) << messages[1];
  EXPECT_NE(messages[1].find("file offset"), std::string::npos) << messages[1];
}

// ── shard content digests ────────────────────────────────────────────

TEST(ShardDigest, InsertionOrderInsensitiveAndContentSensitive) {
  Rng rng(6);
  std::vector<vp::ViewProfile> fleet;
  for (int i = 0; i < 4; ++i) fleet.push_back(make_profile(0, {i * 350.0, 0.0}, rng));

  sys::VpDatabase forward;
  sys::VpDatabase backward;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ASSERT_EQ(forward.upload(fleet[i], false), kAccepted);
    ASSERT_EQ(backward.upload(fleet[fleet.size() - 1 - i], false), kAccepted);
  }
  const auto a = forward.snapshot().shard_digests();
  const auto b = backward.snapshot().shard_digests();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  // Same content ⇒ same digest, however it was inserted.
  EXPECT_EQ(a[0].digest, b[0].digest);
  EXPECT_EQ(a[0].unit_time, 0);

  // Mutation changes the digest; the cache must not serve stale bytes.
  ASSERT_EQ(forward.upload(make_profile(0, {9000.0, 0.0}, rng), false), kAccepted);
  const auto c = forward.snapshot().shard_digests();
  EXPECT_NE(c[0].digest, a[0].digest);

  // Trusted marking is content too (it changes what recovery restores).
  sys::VpDatabase trusted_db;
  ASSERT_EQ(trusted_db.upload(fleet[0], true), kAccepted);
  sys::VpDatabase anon_db;
  ASSERT_EQ(anon_db.upload(fleet[0], false), kAccepted);
  EXPECT_NE(trusted_db.snapshot().shard_digests()[0].digest,
            anon_db.snapshot().shard_digests()[0].digest);
}

// ── fault injection: crash at every byte offset ──────────────────────

TEST(SegmentStoreFaults, EveryCrashPointRecoversTheLastSealedCheckpoint) {
  for (const std::uint64_t seed : {7u, 65u}) {
    TempDir dir("prefix");
    Rng rng(seed);
    index::TimelineConfig tcfg;
    tcfg.retention.window_sec = 3 * kUnitTimeSec;
    sys::VpDatabase db(tcfg);
    db.advance_clock(2 * kUnitTimeSec);
    for (int m = 0; m < 2; ++m)
      for (int i = 0; i < 2; ++i)
        ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {i * 400.0, m * 150.0}, rng), false),
                  kAccepted);

    // Seal checkpoint 1, the recovery floor for the first replay, through
    // a separate store instance — a previous process's history.
    {
      SegmentStore first(dir.str(), fast_config());
      (void)first.checkpoint(db.snapshot());
    }
    const Bytes sealed1 = db_bytes(db);
    const DirImage base1 = capture_dir(dir.path());

    std::vector<RecordedOp> ops;
    SegmentStoreConfig cfg = fast_config();
    cfg.op_log = &ops;
    SegmentStore store(dir.str(), cfg);

    // Transition 1 → 2: one changed shard, one brand-new shard, while the
    // unchanged shard is sealed by reference.
    ASSERT_EQ(db.upload(make_profile(0, {7000.0, 0.0}, rng), false), kAccepted);
    ASSERT_EQ(db.upload(make_profile(2 * kUnitTimeSec, {0.0, 2500.0}, rng), false), kAccepted);
    (void)store.checkpoint(db.snapshot());
    const Bytes sealed2 = db_bytes(db);
    ASSERT_GE(ops.size(), 6u);  // 2 segments (write+rename), manifest (write+rename)
    bool saw_segment_write = false;
    for (const auto& op : ops)
      saw_segment_write |= op.kind == RecordedOp::Kind::kWriteFile &&
                           op.name.find(".vseg2") != std::string::npos;
    EXPECT_TRUE(saw_segment_write);
    replay_all_crash_points(base1, ops, sealed1, sealed2, "transition 1->2");

    // Transition 2 → 3: eviction + churn, so the op log includes GC
    // removes of a rotated-out manifest interleaved with segment writes.
    const DirImage base2 = capture_dir(dir.path());
    db.advance_clock(4 * kUnitTimeSec);
    EXPECT_GT(db.enforce_retention(), 0u);
    ASSERT_EQ(db.upload(make_profile(3 * kUnitTimeSec, {100.0, 100.0}, rng), false), kAccepted);
    ops.clear();
    (void)store.checkpoint(db.snapshot());
    const Bytes sealed3 = db_bytes(db);
    bool saw_remove = false;
    for (const auto& op : ops) saw_remove |= op.kind == RecordedOp::Kind::kRemove;
    EXPECT_TRUE(saw_remove);
    replay_all_crash_points(base2, ops, sealed2, sealed3, "transition 2->3");
  }
}

// ── corruption corpus ────────────────────────────────────────────────

/// Fixture state: a sealed store with checkpoints 1 and 2 where
/// checkpoint 2 added one two-profile shard (so offset-table surgery has
/// two extents to play against each other): `fresh_segment` is referenced
/// only by manifest 2 and `shared_segment` by both.
struct SealedPair {
  DirImage image;                    ///< healthy directory bytes
  Bytes sealed1, sealed2;            ///< canonical bytes of each checkpoint
  std::string manifest1, manifest2;  ///< file names
  std::string shared_segment, fresh_segment;
};

SealedPair build_sealed_pair(const fs::path& dir) {
  Rng rng(8);
  sys::VpDatabase db;
  SegmentStore store(dir.string(), fast_config());
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(db.upload(make_profile(0, {i * 400.0, 0.0}, rng), false), kAccepted);
  (void)store.checkpoint(db.snapshot());
  SealedPair out;
  out.sealed1 = db_bytes(db);
  out.shared_segment =
      SegmentStore::segment_file_name(db.snapshot().shard_digests()[0].digest);

  EXPECT_EQ(db.upload(make_profile(kUnitTimeSec, {0.0, 700.0}, rng), false), kAccepted);
  EXPECT_EQ(db.upload(make_profile(kUnitTimeSec, {900.0, 700.0}, rng), false), kAccepted);
  (void)store.checkpoint(db.snapshot());
  out.sealed2 = db_bytes(db);
  out.fresh_segment =
      SegmentStore::segment_file_name(db.snapshot().shard_digests()[1].digest);
  out.manifest1 = SegmentStore::manifest_file_name(1);
  out.manifest2 = SegmentStore::manifest_file_name(2);
  out.image = capture_dir(dir);
  EXPECT_TRUE(out.image.contains(out.manifest1));
  EXPECT_TRUE(out.image.contains(out.manifest2));
  EXPECT_TRUE(out.image.contains(out.shared_segment));
  EXPECT_TRUE(out.image.contains(out.fresh_segment));
  return out;
}

/// Asserts recover() of `dir` throws a `segment_store:` runtime_error —
/// no crash, nothing malformed loaded — and returns its message.
std::string expect_unrecoverable(const fs::path& dir) {
  try {
    SegmentStore store(dir.string(), fast_config());
    (void)store.recover();
    ADD_FAILURE() << "recover() of an unrecoverable store must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("segment_store:"), std::string::npos) << e.what();
    return e.what();
  }
  return {};
}

TEST(SegmentStoreFaults, CorruptionCorpusRecoversOrFailsCleanly) {
  TempDir dir("corpus");
  const SealedPair sealed = build_sealed_pair(dir.path());
  TempDir scratch("corpus_scratch");

  const auto reset = [&] { materialize(scratch.path(), sealed.image); };

  // Bit flips anywhere in the newest manifest → fall back to checkpoint 1.
  const std::size_t manifest_size = sealed.image.at(sealed.manifest2).size();
  for (std::size_t off = 0; off < manifest_size; off += 7) {
    reset();
    corrupt_flip_byte(scratch.path(), sealed.manifest2, off);
    EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1)
        << "manifest flip at byte " << off;
  }

  // Truncations of the newest manifest at every prefix length → 1.
  for (std::size_t keep = 0; keep < manifest_size; keep += 5) {
    reset();
    corrupt_truncate(scratch.path(), sealed.manifest2, keep);
    EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1)
        << "manifest truncated to " << keep;
  }

  // Whole-file CRC: a flip anywhere in the newest-only segment — prefix,
  // offset table, arena, digest, the CRC itself — makes checkpoint 2
  // unloadable → 1.
  const std::size_t fresh_size = sealed.image.at(sealed.fresh_segment).size();
  ASSERT_EQ(fresh_size, kPackedPrefix + 2 * kPackedEntry + 2 * vp::kVpWireSize + 36);
  for (const std::size_t off :
       {std::size_t{0}, std::size_t{5}, std::size_t{9}, std::size_t{41}, std::size_t{52},
        kPackedPrefix + 2 * kPackedEntry + 100, fresh_size / 2, fresh_size - 40,
        fresh_size - 2, fresh_size - 1}) {
    reset();
    corrupt_flip_byte(scratch.path(), sealed.fresh_segment, off);
    EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1)
        << "fresh segment flip at byte " << off;
  }

  // Truncations: empty file, mid-prefix, mid-offset-table, mid-arena,
  // into the trailer, one byte short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, std::size_t{45}, kPackedPrefix + kPackedEntry + 6,
        fresh_size / 3, fresh_size / 2, fresh_size - 5, fresh_size - 1}) {
    reset();
    corrupt_truncate(scratch.path(), sealed.fresh_segment, keep);
    EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1)
        << "fresh segment truncated to " << keep;
  }

  // Structural attacks with a re-stamped CRC — the offset table lies
  // while the whole-file checksum is valid, so only the dense-ascending
  // scan stands between a bad extent and a wild arena read.
  reset();  // entry 1 overlaps entry 0
  patch_table_offset(scratch.path(), sealed.fresh_segment, 1, 0);
  fix_crc(scratch.path(), sealed.fresh_segment);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);
  reset();  // entry 1 leaves a gap / points past the arena
  patch_table_offset(scratch.path(), sealed.fresh_segment, 1, 3 * vp::kVpWireSize);
  fix_crc(scratch.path(), sealed.fresh_segment);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);
  reset();  // entry 0 claims a non-wire-size payload
  patch_table_length(scratch.path(), sealed.fresh_segment, 0,
                     static_cast<std::uint32_t>(vp::kVpWireSize) + 1);
  fix_crc(scratch.path(), sealed.fresh_segment);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);

  // Wrong magic in manifest / segment → 1.
  reset();
  corrupt_wrong_magic(scratch.path(), sealed.manifest2);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);
  reset();
  corrupt_wrong_magic(scratch.path(), sealed.fresh_segment);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);

  // Stale segment reference: manifest 2 names a digest whose file is
  // missing, or holds some other internally valid segment (CRC passes,
  // the embedded digest field gives it away) → 1.
  reset();
  corrupt_remove(scratch.path(), sealed.fresh_segment);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);
  reset();
  corrupt_swap_contents(scratch.path(), sealed.fresh_segment, sealed.shared_segment);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);
  {
    // A stale segment of the same minute and shape — another history's
    // version of the shard: unit-time and counts agree with the manifest
    // and its CRC holds, so only the embedded digest field refuses it → 1.
    TempDir other("corpus_other");
    Rng other_rng(9);
    sys::VpDatabase other_db;
    EXPECT_EQ(other_db.upload(make_profile(kUnitTimeSec, {0.0, 700.0}, other_rng), false),
              kAccepted);
    EXPECT_EQ(other_db.upload(make_profile(kUnitTimeSec, {900.0, 700.0}, other_rng), false),
              kAccepted);
    SegmentStore other_store(other.str(), fast_config());
    (void)other_store.checkpoint(other_db.snapshot());
    const std::string stale_name =
        SegmentStore::segment_file_name(other_db.snapshot().shard_digests()[0].digest);
    reset();
    write_raw(scratch.path() / sealed.fresh_segment, capture_dir(other.path()).at(stale_name));
    EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);
  }

  // Unrelated junk files are ignored: recovery still lands on 2, and a
  // stale segment temp is cleaned by the next checkpoint.
  reset();
  const std::vector<std::uint8_t> junk{'j', 'u', 'n', 'k'};
  write_raw(scratch.path() / "seg-zzzz.vseg", junk);
  write_raw(scratch.path() / "seg-zzzz.vseg2", junk);
  write_raw(scratch.path() / "seg-dead.vseg2.tmp", junk);
  write_raw(scratch.path() / "notes.txt", junk);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed2);
  {
    SegmentStore store(scratch.str(), fast_config());
    auto recovered = store.recover();
    (void)store.checkpoint(recovered.snapshot());
    EXPECT_FALSE(fs::exists(scratch.path() / "seg-dead.vseg2.tmp"));
  }

  // Damage shared by every sealed checkpoint → a clear error, no crash,
  // nothing malformed loaded.
  reset();
  corrupt_flip_byte(scratch.path(), sealed.shared_segment, 100);
  corrupt_flip_byte(scratch.path(), sealed.manifest1, 20);
  corrupt_flip_byte(scratch.path(), sealed.manifest2, 20);
  (void)expect_unrecoverable(scratch.path());
}

TEST(SegmentStoreFaults, TornRenamesAndStaleTempsNeverMaskTheSealedCheckpoint) {
  TempDir dir("torn");
  const SealedPair sealed = build_sealed_pair(dir.path());
  TempDir scratch("torn_scratch");

  // A "torn rename" artifact: a higher-sequence manifest name holding a
  // prefix of real manifest bytes (rename is atomic on POSIX; this guards
  // the format against filesystems where it is not).
  const auto& real = sealed.image.at(sealed.manifest2);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7}, real.size() / 2}) {
    materialize(scratch.path(), sealed.image);
    write_raw(scratch.path() / SegmentStore::manifest_file_name(3),
              std::span<const std::uint8_t>(real).subspan(0, keep));
    EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed2)
        << "torn manifest-3 with " << keep << " bytes";
  }

  // Stale .tmp debris neither loads nor survives the next checkpoint —
  // but only the store's own temp patterns are cleaned; a foreign .tmp
  // (the retired stream format's `.vseg.tmp` included) is as untouchable
  // as any other foreign file.
  materialize(scratch.path(), sealed.image);
  const std::vector<std::uint8_t> junk{1, 2, 3};
  write_raw(scratch.path() / "seg-dead.vseg2.tmp", junk);
  write_raw(scratch.path() / (SegmentStore::manifest_file_name(9) + ".tmp"), junk);
  write_raw(scratch.path() / "seg-dead.vseg.tmp", junk);
  write_raw(scratch.path() / "notes.tmp", junk);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed2);
  SegmentStore store(scratch.str(), fast_config());
  auto recovered = store.recover();
  (void)store.checkpoint(recovered.snapshot());
  EXPECT_FALSE(fs::exists(scratch.path() / "seg-dead.vseg2.tmp"));
  EXPECT_FALSE(
      fs::exists(scratch.path() / (SegmentStore::manifest_file_name(9) + ".tmp")));
  EXPECT_TRUE(fs::exists(scratch.path() / "seg-dead.vseg.tmp"));
  EXPECT_TRUE(fs::exists(scratch.path() / "notes.tmp"));
}

TEST(SegmentStoreFaults, SweepTempsRemovesOnlyOwnPatternsAndSparesSegments) {
  TempDir dir("sweep");
  const SealedPair sealed = build_sealed_pair(dir.path());

  // Seed crash debris of every temp pattern the store writes, plus
  // foreign .tmp files that must be spared — the retired stream format's
  // `.vseg.tmp` among them.
  const std::vector<std::uint8_t> junk{9, 9, 9};
  write_raw(dir.path() / "seg-beef.vseg2.tmp", junk);
  write_raw(dir.path() / (SegmentStore::manifest_file_name(42) + ".tmp"), junk);
  write_raw(dir.path() / "seg-feed.vseg.tmp", junk);
  write_raw(dir.path() / "operator-notes.tmp", junk);

  SegmentStore store(dir.str(), fast_config());
  EXPECT_EQ(store.sweep_temps(), 2u);
  EXPECT_FALSE(fs::exists(dir.path() / "seg-beef.vseg2.tmp"));
  EXPECT_FALSE(
      fs::exists(dir.path() / (SegmentStore::manifest_file_name(42) + ".tmp")));
  EXPECT_TRUE(fs::exists(dir.path() / "seg-feed.vseg.tmp"));
  EXPECT_TRUE(fs::exists(dir.path() / "operator-notes.tmp"));
  // Sealed state untouched: temps were never mistaken for segments.
  EXPECT_EQ(recover_bytes(dir.path()), sealed.sealed2);
  // Idempotent, and safe on a directory that does not exist.
  EXPECT_EQ(store.sweep_temps(), 0u);
  SegmentStore missing((dir.path() / "nope").string(), fast_config());
  EXPECT_EQ(missing.sweep_temps(), 0u);
}

TEST(SegmentStoreFaults, FailedCheckpointCleansItsTempAndStaysRecoverable) {
  TempDir dir("failckpt");
  Rng rng(17);
  sys::VpDatabase db;
  for (int m = 0; m < 3; ++m)
    ASSERT_EQ(db.upload(make_profile(m * kUnitTimeSec, {m * 300.0, 0.0}, rng), false), kAccepted);

  SegmentStore store(dir.str(), fast_config());
  (void)store.checkpoint(db.snapshot());
  const Bytes sealed = db_bytes(store.recover());

  // Grow the database, then fail the next checkpoint at every injectable
  // site in the durable-write path. After each failure the directory
  // must hold zero temp files and recover() must land on the sealed
  // predecessor — retries never fight leaked `.tmp` artifacts.
  ASSERT_EQ(db.upload(make_profile(5 * kUnitTimeSec, {4000.0, 0.0}, rng), false), kAccepted);
  for (const char* spec :
       {"store.write.open=enospc@once", "store.write.data=enospc@once",
        "store.write.data=short@once", "store.write.close=eio@once",
        "store.rename=eio@once"}) {
    failpoint::disarm_all();
    failpoint::arm_from_spec(spec);
    EXPECT_THROW((void)store.checkpoint(db.snapshot()), StoreError) << spec;
    failpoint::disarm_all();
    for (const auto& entry : fs::directory_iterator(dir.path()))
      EXPECT_FALSE(entry.path().filename().string().ends_with(".tmp"))
          << spec << " leaked " << entry.path().filename();
    EXPECT_EQ(recover_bytes(dir.path()), sealed) << spec;
  }

  // With the points disarmed the same checkpoint succeeds and recovers
  // the grown database — the failures had no lasting effect.
  (void)store.checkpoint(db.snapshot());
  EXPECT_EQ(db_bytes(store.recover()), db_bytes(db));
}

TEST(SegmentStoreFaults, StoreErrorClassifiesTransientVsPermanent) {
  EXPECT_TRUE(StoreError("x", ENOSPC).transient());
  EXPECT_TRUE(StoreError("x", EIO).transient());
  EXPECT_TRUE(StoreError("x", EINTR).transient());
  EXPECT_FALSE(StoreError("x", EROFS).transient());
  EXPECT_FALSE(StoreError("x", EACCES).transient());
  EXPECT_FALSE(StoreError("x", ENOENT).transient());
  EXPECT_STREQ(StoreError("x", ENOSPC).reason(), "enospc");
  EXPECT_STREQ(StoreError("x", EDQUOT).reason(), "enospc");
  EXPECT_STREQ(StoreError("x", EIO).reason(), "eio");
  EXPECT_STREQ(StoreError("x", EPERM).reason(), "permission");
  EXPECT_STREQ(StoreError("x", ENOENT).reason(), "other");
  EXPECT_EQ(StoreError("x", ENOSPC).errno_value(), ENOSPC);
}

TEST(SegmentStoreFaults, CorruptManifestsNeverConsumeGcFallbackDepth) {
  // Manifests {1 good, 2 bit-rotted}: later checkpoints must keep good
  // manifest 1 alive until two *valid* newer checkpoints exist — a
  // corrupt file counting toward keep_manifests would strand recovery
  // the moment the newest manifest is also damaged.
  TempDir dir("gc_depth");
  const SealedPair sealed = build_sealed_pair(dir.path());
  corrupt_flip_byte(dir.path(), sealed.manifest2, 25);

  SegmentStore store(dir.str(), fast_config());
  auto recovered = store.recover();          // falls back to checkpoint 1
  EXPECT_EQ(db_bytes(recovered), sealed.sealed1);
  (void)store.checkpoint(recovered.snapshot());  // seals checkpoint 3

  // Keep window is {3 valid, 2 corrupt, 1 valid}: manifest 1 survives.
  EXPECT_TRUE(fs::exists(dir.path() / sealed.manifest1));
  corrupt_flip_byte(dir.path(), SegmentStore::manifest_file_name(3), 25);
  EXPECT_EQ(db_bytes(store.recover()), sealed.sealed1);

  // Once two valid checkpoints exist past it, the corpse rotates out.
  recovered = store.recover();
  (void)store.checkpoint(recovered.snapshot());  // 4 (valid; 3 now corrupt)
  (void)store.checkpoint(recovered.snapshot());  // 5 (valid)
  EXPECT_FALSE(fs::exists(dir.path() / sealed.manifest1));
  EXPECT_FALSE(fs::exists(dir.path() / sealed.manifest2));
  EXPECT_EQ(db_bytes(store.recover()), sealed.sealed1);
}

TEST(SegmentStoreFaults, DeepVerifyCatchesCrcConsistentArenaTampering) {
  TempDir dir("v2deep");
  const SealedPair sealed = build_sealed_pair(dir.path());
  TempDir scratch("v2deep_scratch");
  materialize(scratch.path(), sealed.image);

  // Tamper with one arena byte and re-stamp the whole-file CRC: the
  // fast integrity pass is consistent and the digest *field* still
  // matches the manifest — only re-hashing the content can tell. This
  // is exactly the class deep_verify exists for.
  corrupt_flip_byte(scratch.path(), sealed.fresh_segment,
                    kPackedPrefix + 2 * kPackedEntry + 1234);
  fix_crc(scratch.path(), sealed.fresh_segment);
  SegmentStoreConfig deep = fast_config();
  deep.deep_verify = true;
  SegmentStore store(scratch.str(), deep);
  EXPECT_EQ(db_bytes(store.recover()), sealed.sealed1);

  // Without deep_verify the per-profile structural screen is the last
  // line: a CRC-consistent edit that teleports one VD of the fresh
  // shard's second profile (loc_x ≈ 3.4e38 m) drops that profile —
  // counted, never loaded, never fatal. deep_verify refuses the file.
  materialize(scratch.path(), sealed.image);
  auto teleported = sealed.image.at(sealed.fresh_segment);
  const std::size_t loc_x =
      kPackedPrefix + 2 * kPackedEntry + vp::kVpWireSize + 30 * 72 + 8;
  for (const std::size_t i : {0u, 1u, 2u, 3u})
    teleported[loc_x + i] = i < 2 ? 0xff : 0x7f;
  write_raw(scratch.path() / sealed.fresh_segment, teleported);
  fix_crc(scratch.path(), sealed.fresh_segment);
  RecoveryStats rec;
  const sys::VpDatabase screened =
      SegmentStore(scratch.str(), fast_config()).recover(&rec);
  EXPECT_EQ(rec.sequence, 2u);
  EXPECT_EQ(rec.profiles_rejected, 1u);
  EXPECT_EQ(rec.profiles_loaded + 1, rec.manifest_profiles);
  EXPECT_EQ(screened.size(), rec.profiles_loaded);
  EXPECT_EQ(db_bytes(store.recover()), sealed.sealed1);
}

// ── legacy inputs: the retired stream format and version-1 manifests ─

/// Re-emits a healthy manifest image as `version`, with every entry's
/// segment-format column set to `format` (version 1 has no such column:
/// the retired writer's layout), and re-stamps the SHA-256 trailer — so
/// only the version and format checks stand between it and recovery.
Bytes rewrite_manifest(const Bytes& manifest, std::uint32_t version, std::uint32_t format) {
  constexpr std::size_t kHeader = 32;  // magic, version, sequence, clock, count
  constexpr std::size_t kEntry = 60;   // counts (24), format (4), digest (32)
  const std::span<const std::uint8_t> in(manifest);
  const std::size_t count = (in.size() - kHeader - 32) / kEntry;
  ByteWriter out;
  out.put_bytes(in.subspan(0, 4));
  out.put_u32(version);
  out.put_bytes(in.subspan(8, kHeader - 8));
  for (std::size_t i = 0; i < count; ++i) {
    const auto entry = in.subspan(kHeader + i * kEntry, kEntry);
    out.put_bytes(entry.subspan(0, 24));
    if (version != 1) out.put_u32(format);
    out.put_bytes(entry.subspan(28, 32));
  }
  crypto::Sha256 hasher;
  hasher.update(out.bytes());
  out.put_bytes(hasher.finish().bytes);
  return std::move(out).take();
}

/// The retired stream segment format: "VSEG" | u32 1 | canonical content |
/// SHA-256(content).
Bytes stream_segment(const index::TimeShard& shard) {
  ByteWriter content;
  shard.stream_content([&content](std::span<const std::uint8_t> c) { content.put_bytes(c); });
  ByteWriter out;
  out.put_bytes(std::array<std::uint8_t, 4>{'V', 'S', 'E', 'G'});
  out.put_u32(1);
  out.put_bytes(content.bytes());
  crypto::Sha256 hasher;
  hasher.update(content.bytes());
  out.put_bytes(hasher.finish().bytes);
  return std::move(out).take();
}

TEST(SegmentStoreCompat, LegacyInputsFallBackOrFailCleanly) {
  TempDir dir("legacy");
  const SealedPair sealed = build_sealed_pair(dir.path());
  TempDir scratch("legacy_scratch");
  const auto reset = [&] { materialize(scratch.path(), sealed.image); };

  // Re-emitting in the current format is the identity, so each case below
  // differs from a healthy store in exactly the field it names.
  ASSERT_EQ(rewrite_manifest(sealed.image.at(sealed.manifest2), kManifestFormatVersion,
                             kSegmentFormatVersion),
            sealed.image.at(sealed.manifest2));

  // A version-1 manifest, and a current manifest whose entries name the
  // stream format (1): the newest falls back to checkpoint 1, a named
  // restore of it throws, and once every manifest is legacy nothing is
  // loadable — recover() throws an error naming the newest manifest.
  struct Legacy {
    const char* what;
    std::uint32_t version, format;
  };
  for (const Legacy& c : {Legacy{"version-1 manifest", 1, 0},
                          Legacy{"stream-format entries", kManifestFormatVersion, 1}}) {
    const auto make_legacy = [&](const std::string& name) {
      write_raw(scratch.path() / name,
                rewrite_manifest(sealed.image.at(name), c.version, c.format));
    };
    reset();
    make_legacy(sealed.manifest2);
    EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1) << c.what;
    {
      SegmentStore store(scratch.str(), fast_config());
      const std::uint64_t newest = 2;
      EXPECT_THROW((void)store.recover(newest), std::runtime_error) << c.what;
    }
    make_legacy(sealed.manifest1);
    const std::string error = expect_unrecoverable(scratch.path());
    EXPECT_NE(error.find(sealed.manifest2), std::string::npos) << c.what << ": " << error;
  }

  // Stream `.vseg` files: the fresh shard's stream segment beside its
  // missing `.vseg2` (a name no manifest entry resolves to), or under the
  // `.vseg2` name (the magic refuses it) → 1. The shared shard in the
  // stream format leaves nothing loadable.
  const sys::DbSnapshot snap = SegmentStore(dir.str(), fast_config()).recover().snapshot();
  const auto shards = snap.shards();
  ASSERT_EQ(shards.size(), 2u);
  const Bytes fresh_stream = stream_segment(*shards[1]);
  const std::string stream_name =
      sealed.fresh_segment.substr(0, sealed.fresh_segment.size() - 1);  // ".vseg"
  reset();
  corrupt_remove(scratch.path(), sealed.fresh_segment);
  write_raw(scratch.path() / stream_name, fresh_stream);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);
  reset();
  write_raw(scratch.path() / sealed.fresh_segment, fresh_stream);
  EXPECT_EQ(recover_bytes(scratch.path()), sealed.sealed1);
  reset();
  write_raw(scratch.path() / sealed.shared_segment, stream_segment(*shards[0]));
  (void)expect_unrecoverable(scratch.path());

  // gc() and sweep_temps() leave stream-format segments alone: they are
  // foreign files now, never garbage.
  reset();
  write_raw(scratch.path() / stream_name, fresh_stream);
  SegmentStore store(scratch.str(), fast_config());
  EXPECT_EQ(store.sweep_temps(), 0u);
  auto recovered = store.recover();
  EXPECT_GT(store.checkpoint(recovered.snapshot()).files_removed, 0u);  // manifest 1
  EXPECT_EQ(store.gc(), 0u);
  EXPECT_TRUE(fs::exists(scratch.path() / stream_name));
}

// ── property: interleavings vs a never-restarted reference ───────────

TEST(SegmentStoreProperty, AnyInterleavingMatchesNeverRestartedReference) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
    TempDir dir("prop");
    Rng rng(seed);
    index::TimelineConfig tcfg;
    tcfg.retention.window_sec = 4 * kUnitTimeSec;
    sys::VpDatabase reference(tcfg);
    sys::VpDatabase live(tcfg);
    // Restarts recover through a 3-wide worker pool.
    common::WorkerPool pool(3);
    SegmentStore store(dir.str(), fast_config(), pool);

    TimeSec clock = 4 * kUnitTimeSec;
    reference.advance_clock(clock);
    live.advance_clock(clock);

    for (int step = 0; step < 40; ++step) {
      const std::size_t pick = rng.index(10);
      if (pick < 5) {
        // Ingest a batch: identical profiles offered to both databases.
        const int batch = 1 + static_cast<int>(rng.index(3));
        for (int i = 0; i < batch; ++i) {
          const TimeSec unit =
              clock + kUnitTimeSec * (static_cast<TimeSec>(rng.index(4)) - 3);
          const auto profile = make_profile(
              unit, {rng.uniform(-4000.0, 4000.0), rng.uniform(-4000.0, 4000.0)}, rng);
          const bool trusted = rng.index(5) == 0;
          EXPECT_EQ(reference.upload(profile, trusted), live.upload(profile, trusted));
          if (trusted) clock = std::max(clock, unit);
        }
      } else if (pick < 7) {
        // Retention eviction under a walking trusted clock.
        clock += kUnitTimeSec;
        reference.advance_clock(clock);
        live.advance_clock(clock);
        EXPECT_EQ(reference.enforce_retention(), live.enforce_retention());
      } else if (pick < 9) {
        (void)store.checkpoint(live.snapshot());
      } else {
        // Restart: checkpoint, drop the live database, recover from disk.
        (void)store.checkpoint(live.snapshot());
        live = store.recover(nullptr, tcfg);
      }
      ASSERT_EQ(db_bytes(live), db_bytes(reference)) << "seed " << seed
                                                     << " step " << step;
    }
  }
}

// ── concurrency: checkpoint vs live service (TSan target) ────────────

TEST(SegmentStoreConcurrency, CheckpointRacesIngestEvictionAndServerWorkers) {
  TempDir dir("race");
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;  // test speed
  scfg.index.retention.window_sec = 3 * kUnitTimeSec;
  sys::ViewMapService service(scfg);
  Rng trng(10);
  for (int m = 0; m < 6; ++m)
    ASSERT_TRUE(service.register_trusted(attack::make_fake_profile(
        m * kUnitTimeSec, {0.0, 0.0}, {300.0, 0.0}, trng)));

  sys::ServerConfig server_cfg;
  server_cfg.workers = 2;
  auto& server = service.start_server(server_cfg);

  std::atomic<bool> stop{false};
  // Live ingest + retention: uploads stream in while the trusted clock
  // walks the oldest minutes out of the window.
  std::thread ingester([&] {
    Rng rng(20);
    TimeSec clock = 5 * kUnitTimeSec;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 8; ++i) {
        const TimeSec unit = clock - kUnitTimeSec * static_cast<TimeSec>(rng.index(3));
        service.upload_channel().submit(
            attack::make_fake_profile(unit,
                                      {rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0)},
                                      {200.0, 0.0}, rng)
                .serialize());
      }
      (void)service.ingest_uploads();
      clock += kUnitTimeSec;
      service.advance_clock(clock);
    }
  });
  // Investigation load through the worker pool.
  std::thread submitter([&] {
    Rng rng(30);
    while (!stop.load(std::memory_order_relaxed)) {
      auto future = server.submit({{-400.0, -400.0}, {400.0, 400.0}},
                                  kUnitTimeSec * static_cast<TimeSec>(rng.index(6)));
      if (future.valid()) (void)future.get();
    }
  });

  // The checkpointer: each checkpoint pins one snapshot; the recovered
  // database must serialize to exactly that snapshot's bytes — byte
  // determinism per pinned version, however hard the writers race.
  SegmentStore store(dir.str(), fast_config());
  for (int round = 0; round < 6; ++round) {
    const sys::DbSnapshot snap = service.database().snapshot();
    const Bytes expected = snap.canonical_bytes();
    const auto stats = store.checkpoint(snap);
    EXPECT_EQ(stats.sequence, static_cast<std::uint64_t>(round + 1));
    const auto recovered = store.recover(nullptr, scfg.index);
    EXPECT_EQ(db_bytes(recovered), expected) << "round " << round;
  }
  stop.store(true);
  ingester.join();
  submitter.join();
  service.stop_server();

  // Service-level wiring: checkpoint through the facade, then restore —
  // the restarted service resumes with the checkpointed database.
  (void)service.checkpoint(store);
  const std::size_t size_at_checkpoint = service.database().size();
  sys::ViewMapService restarted(scfg);
  const auto rec = restarted.restore_from(store);
  EXPECT_EQ(rec.profiles_rejected, 0u);
  EXPECT_EQ(restarted.database().size(), size_at_checkpoint);
  EXPECT_EQ(db_bytes(restarted.database()), db_bytes(service.database()));
}

// ── concurrency: parallel recovery feeding a live service (TSan) ─────

TEST(SegmentStoreConcurrency, ParallelRecoveryFeedsLiveService) {
  TempDir dir("parallel_live");
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;  // test speed
  sys::ViewMapService origin(scfg);
  Rng trng(50);
  for (int m = 0; m < 5; ++m)
    ASSERT_TRUE(origin.register_trusted(attack::make_fake_profile(
        m * kUnitTimeSec, {0.0, 0.0}, {300.0, 0.0}, trng)));
  for (int m = 2; m < 5; ++m)
    for (int i = 0; i < 4; ++i)
      origin.upload_channel().submit(
          attack::make_fake_profile(m * kUnitTimeSec, {i * 300.0, 150.0},
                                    {i * 300.0 + 200.0, 150.0}, trng)
              .serialize());
  EXPECT_GT(origin.ingest_uploads(), 0u);

  common::WorkerPool pool(4);
  SegmentStore store(dir.str(), fast_config(), pool);
  (void)origin.checkpoint(store);
  const Bytes expected = db_bytes(origin.database());

  // Restore through the 4-wide worker pool, then immediately put the
  // adopted shards under live write + query traffic: TSan watches the
  // handoff from recovery workers to ingest and server threads.
  sys::ViewMapService restarted(scfg);
  const auto rec = restarted.restore_from(store);
  EXPECT_EQ(rec.threads_used, 4u);
  EXPECT_EQ(rec.profiles_rejected, 0u);
  EXPECT_EQ(db_bytes(restarted.database()), expected);

  sys::ServerConfig server_cfg;
  server_cfg.workers = 2;
  auto& server = restarted.start_server(server_cfg);
  std::thread ingester([&] {
    Rng rng(51);
    for (int round = 0; round < 15; ++round) {
      for (int i = 0; i < 4; ++i)
        restarted.upload_channel().submit(
            attack::make_fake_profile(
                4 * kUnitTimeSec - kUnitTimeSec * static_cast<TimeSec>(rng.index(2)),
                {rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0)},
                {200.0, 0.0}, rng)
                .serialize());
      (void)restarted.ingest_uploads();
    }
  });
  Rng qrng(52);
  for (int q = 0; q < 15; ++q) {
    auto future = server.submit({{-500.0, -500.0}, {500.0, 500.0}},
                                kUnitTimeSec * static_cast<TimeSec>(qrng.index(5)));
    if (future.valid()) (void)future.get();
  }
  ingester.join();
  restarted.stop_server();
  EXPECT_GE(restarted.database().size(), origin.database().size());
}

}  // namespace
}  // namespace viewmap::store
