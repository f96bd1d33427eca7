#include "store/segment_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/bytes.h"
#include "common/failpoint.h"
#include "common/hex.h"
#include "crypto/crc32c.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace viewmap::store {

namespace fs = std::filesystem;

namespace {

constexpr std::array<std::uint8_t, 4> kSegmentMagic{'V', 'S', 'G', '2'};
constexpr std::array<std::uint8_t, 4> kManifestMagic{'V', 'M', 'A', 'N'};
constexpr const char* kSegmentSuffix = ".vseg2";
constexpr const char* kManifestPrefix = "manifest-";
constexpr const char* kManifestSuffix = ".vman";
constexpr const char* kTempSuffix = ".tmp";

/// Segment fixed overhead: magic + version + (unit, vp_count,
/// trusted_count) header + arena_len before the table; digest + CRC32C
/// after the data.
constexpr std::size_t kSegmentPrefix = 4 + 4 + 24 + 8;
constexpr std::size_t kSegmentTrailer = 32 + 4;
constexpr std::size_t kTableEntry = 8 + 4;
/// A manifest entry: unit_time, vp_count, trusted_count, segment format,
/// digest.
constexpr std::size_t kManifestEntry = 8 + 8 + 8 + 4 + 32;

/// Bounds-checked little-endian reader over an in-memory file image.
/// Deliberately not common/bytes.h's ByteReader: recovery needs
/// position() (the checksum covers an exact byte prefix), magic checks,
/// and errors naming the damaged file AND byte offset — "this checkpoint
/// is not loadable" must be attributable, never silent garbage.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> data, const std::string& what)
      : data_(data), what_(what) {}

  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n) {
    if (data_.size() - pos_ < n)
      throw std::runtime_error("segment_store: truncated " + what_ +
                               " at offset " + std::to_string(pos_) + " (need " +
                               std::to_string(n) + " bytes, have " +
                               std::to_string(data_.size() - pos_) + ")");
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[static_cast<std::size_t>(i)]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[static_cast<std::size_t>(i)]) << (8 * i);
    return v;
  }
  [[nodiscard]] Hash32 hash32() {
    const auto b = take(32);
    Hash32 h;
    std::copy(b.begin(), b.end(), h.bytes.begin());
    return h;
  }
  void expect_magic(const std::array<std::uint8_t, 4>& magic, const char* kind) {
    const std::size_t at = pos_;
    const auto b = take(4);
    if (std::memcmp(b.data(), magic.data(), 4) != 0)
      throw std::runtime_error(std::string("segment_store: bad ") + kind +
                               " magic in " + what_ + " at offset " +
                               std::to_string(at));
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string what_;
};

/// Bulk whole-file read. open/fstat/read into one pre-sized buffer: at
/// recovery sizes (a 1M-VP checkpoint is ~4.6 GB of segments) this is
/// the difference between an I/O-bound restart and a CPU-bound one —
/// the istreambuf_iterator it replaced spent ~50 s of an 80 s restart
/// feeding bytes one at a time.
std::vector<std::uint8_t> read_file(const std::string& path) {
  if (const int err = failpoint::inject("store.read"); err != 0)
    throw StoreError("segment_store: cannot open " + path, err);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw StoreError("segment_store: cannot open " + path, errno);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    throw std::runtime_error("segment_store: cannot stat " + path);
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("segment_store: cannot read " + path);
    }
    if (n == 0) break;  // file shrank under us; the size checks will name it
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(done);
  return out;
}

Hash32 sha256_prefix(std::span<const std::uint8_t> data, std::size_t len) {
  crypto::Sha256 hasher;
  hasher.update(data.subspan(0, len));
  return hasher.finish();
}

/// The store's own crash-debris spellings: `*.vseg2.tmp` / `*.vman.tmp`.
/// Every other name, a foreign `*.tmp` included, is left alone.
bool is_own_temp(const std::string& name) {
  return name.ends_with(std::string(kSegmentSuffix) + kTempSuffix) ||
         name.ends_with(std::string(kManifestSuffix) + kTempSuffix);
}

std::uint64_t us_since(std::chrono::steady_clock::time_point start) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// The slice of a manifest entry the segment loaders need — decoupled
/// from SegmentStore's private ManifestEntry so the whole load pipeline
/// can live in this anonymous namespace.
struct EntryView {
  TimeSec unit_time = 0;
  std::uint64_t vp_count = 0;
  std::uint64_t trusted_count = 0;
  Hash32 digest{};
  std::string name;  ///< file name inside the store directory
};

/// One worker's result for one segment: either a fully-built shard ready
/// for VpTimeline::adopt_shard, or an error naming the damage. seed_ok
/// means every profile was admitted from a canonically-laid-out segment,
/// so the manifest digest may pre-seed the shard's digest cache.
struct SegmentLoad {
  std::shared_ptr<index::TimeShard> shard;
  std::size_t rejected = 0;
  bool seed_ok = false;
  std::uint64_t read_us = 0;
  std::uint64_t validate_us = 0;
  std::uint64_t parse_us = 0;
  std::string error;  ///< non-empty ⇔ the segment is damaged
};

std::unordered_set<Id16, Id16Hasher> parse_trusted_ids(Reader& reader,
                                                       std::uint64_t count) {
  std::unordered_set<Id16, Id16Hasher> trusted;
  trusted.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Id16 id;
    const auto b = reader.take(id.bytes.size());
    std::copy(b.begin(), b.end(), id.bytes.begin());
    trusted.insert(id);
  }
  return trusted;
}

/// Screens one wire payload and admits it into the shard under
/// construction: the structural upload screen runs again (defense in
/// depth), a unit-time mismatch or duplicate id is counted and never
/// loaded. Returns the admitted id (stable — it lives in the shard's
/// map), or nullptr when the payload was rejected.
const Id16* admit_profile(index::TimeShard& shard, std::span<const std::uint8_t> payload,
                          const std::unordered_set<Id16, Id16Hasher>& trusted,
                          TimeSec unit_time, const vp::VpUploadPolicy& policy,
                          std::size_t& rejected) {
  try {
    auto profile = vp::ViewProfile::parse(payload);
    if (profile.unit_time() != unit_time || !policy.well_formed(profile)) {
      ++rejected;
      return nullptr;
    }
    const Id16 id = profile.vp_id();
    auto owned = std::make_shared<const vp::ViewProfile>(std::move(profile));
    auto [pit, inserted] = shard.profiles.emplace(id, std::move(owned));
    if (!inserted) {
      ++rejected;  // duplicate id within one segment
      return nullptr;
    }
    shard.grid.insert(pit->second.get());
    if (trusted.contains(id)) shard.trusted.insert(id);
    return &pit->first;
  } catch (const std::exception&) {
    ++rejected;
    return nullptr;
  }
}

/// Segment bytes → shard. Integrity = whole-file CRC32C + embedded-
/// digest/manifest comparison (+ optional deep SHA-256); structure =
/// strict dense offset table (the writer only ever emits one), so the
/// arena IS the canonical payload section.
void parse_segment(std::span<const std::uint8_t> bytes, const EntryView& entry,
                     const vp::VpUploadPolicy& policy, bool deep_verify,
                     SegmentLoad& out) {
  const auto validate_start = std::chrono::steady_clock::now();
  if (bytes.size() < kSegmentPrefix + kSegmentTrailer)
    throw std::runtime_error("segment_store: truncated " + entry.name + " (" +
                             std::to_string(bytes.size()) +
                             " bytes, a segment needs at least " +
                             std::to_string(kSegmentPrefix + kSegmentTrailer) + ")");
  // Whole-file CRC first: one linear pass rejects torn writes and bit
  // rot anywhere — including inside the offset table the parser is about
  // to trust — before any field is interpreted.
  const std::size_t body_len = bytes.size() - 4;
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i)
    stored_crc |= static_cast<std::uint32_t>(bytes[body_len + static_cast<std::size_t>(i)]) << (8 * i);
  if (crypto::crc32c(bytes.subspan(0, body_len)) != stored_crc)
    throw std::runtime_error("segment_store: CRC32C mismatch in " + entry.name +
                             " (" + std::to_string(bytes.size()) + "-byte file)");

  Reader reader(bytes, entry.name);
  reader.expect_magic(kSegmentMagic, "segment");
  const std::uint32_t version = reader.u32();
  if (version != kSegmentFormatVersion)
    throw std::runtime_error("segment_store: unsupported segment version in " +
                             entry.name);
  const auto unit_time = static_cast<TimeSec>(reader.u64());
  const std::uint64_t vp_count = reader.u64();
  const std::uint64_t trusted_count = reader.u64();
  const std::uint64_t arena_len = reader.u64();
  if (unit_time != entry.unit_time || vp_count != entry.vp_count ||
      trusted_count != entry.trusted_count)
    throw std::runtime_error("segment_store: segment/manifest disagree on " +
                             entry.name);
  // Overflow-safe plausibility bounds before the exact-size arithmetic.
  if (vp_count > bytes.size() / kTableEntry || arena_len > bytes.size() ||
      trusted_count > bytes.size() / 16)
    throw std::runtime_error("segment_store: implausible counts in " + entry.name);
  const std::size_t expected = kSegmentPrefix + vp_count * kTableEntry + arena_len +
                               trusted_count * 16 + kSegmentTrailer;
  if (bytes.size() != expected)
    throw std::runtime_error("segment_store: size mismatch in " + entry.name +
                             " (" + std::to_string(bytes.size()) +
                             " bytes, layout needs " + std::to_string(expected) + ")");

  // Offset table: strictly dense ascending extents of exactly one wire
  // payload each. Anything else — overlap, gap, short/long extent, an
  // extent past the arena — names the table index and its file offset.
  const std::size_t table_begin = reader.position();
  std::uint64_t prev_end = 0;
  for (std::uint64_t i = 0; i < vp_count; ++i) {
    const std::uint64_t off = reader.u64();
    const std::uint32_t len = reader.u32();
    const std::string where = " (table entry " + std::to_string(i) +
                              " at file offset " +
                              std::to_string(table_begin + i * kTableEntry) + ")";
    if (len != vp::kVpWireSize)
      throw std::runtime_error("segment_store: bad payload length " +
                               std::to_string(len) + " in " + entry.name + where);
    if (off < prev_end)
      throw std::runtime_error("segment_store: overlapping payload extents in " +
                               entry.name + where);
    if (off > prev_end)
      throw std::runtime_error("segment_store: gap in payload arena of " +
                               entry.name + where);
    if (off + len > arena_len)
      throw std::runtime_error("segment_store: payload extent past arena end in " +
                               entry.name + where);
    prev_end = off + len;
  }
  if (prev_end != arena_len)
    throw std::runtime_error("segment_store: arena size disagrees with offset table in " +
                             entry.name + " (table covers " + std::to_string(prev_end) +
                             " of " + std::to_string(arena_len) + " arena bytes)");

  const auto arena = reader.take(arena_len);
  const std::size_t trusted_begin = reader.position();
  const auto trusted = parse_trusted_ids(reader, trusted_count);
  const Hash32 stored_digest = reader.hash32();
  (void)reader.u32();  // the CRC32C, already verified above
  if (reader.remaining() != 0)
    throw std::runtime_error("segment_store: trailing bytes in " + entry.name +
                             " at offset " + std::to_string(reader.position()));
  // A stale or misnamed file (e.g. a valid segment renamed over another
  // digest's name) carries the wrong embedded digest.
  if (stored_digest != entry.digest)
    throw std::runtime_error("segment_store: segment digest field disagrees with manifest for " +
                             entry.name);
  if (deep_verify) {
    // Canonical content = (unit_time, vp_count, trusted_count) header +
    // arena + trusted ids — dense ascending layout was proven above.
    crypto::Sha256 hasher;
    hasher.update(bytes.subspan(8, 24));
    hasher.update(arena);
    hasher.update(bytes.subspan(trusted_begin, trusted_count * 16));
    if (hasher.finish() != entry.digest)
      throw std::runtime_error("segment_store: content digest mismatch in " +
                               entry.name + " (deep verify)");
  }
  out.validate_us = us_since(validate_start);

  const auto parse_start = std::chrono::steady_clock::now();
  out.shard->profiles.reserve(vp_count);
  const Id16* prev_id = nullptr;
  for (std::uint64_t i = 0; i < vp_count; ++i) {
    const Id16* id = admit_profile(*out.shard,
                                   arena.subspan(i * vp::kVpWireSize, vp::kVpWireSize),
                                   trusted, entry.unit_time, policy, out.rejected);
    if (id == nullptr) continue;
    // Canonical order check: ascending ids are what make the arena the
    // digest preimage. Out of order ⇒ not a file our writer produced.
    if (prev_id != nullptr && !(*prev_id < *id))
      throw std::runtime_error("segment_store: profile ids out of order in " +
                               entry.name + " (payload " + std::to_string(i) + ")");
    prev_id = id;
  }
  out.parse_us = us_since(parse_start);
  out.seed_ok = out.rejected == 0;
}

SegmentLoad load_one_segment(const std::string& path, const EntryView& entry,
                             const vp::VpUploadPolicy& policy,
                             const index::SpatialGridConfig& grid_cfg,
                             bool deep_verify) noexcept {
  SegmentLoad out;
  try {
    const auto read_start = std::chrono::steady_clock::now();
    const auto bytes = read_file(path);
    out.read_us = us_since(read_start);
    out.shard = std::make_shared<index::TimeShard>(entry.unit_time, grid_cfg);
    parse_segment(bytes, entry, policy, deep_verify, out);
  } catch (const std::exception& e) {
    out.shard.reset();
    out.error = e.what();
  }
  return out;
}

}  // namespace

SegmentStore::SegmentStore(std::string dir, SegmentStoreConfig cfg)
    : dir_(std::move(dir)), cfg_(cfg) {
  if (cfg_.keep_manifests == 0) cfg_.keep_manifests = 1;
  adopt_metrics(cfg_.metrics);
}

void SegmentStore::adopt_metrics(obs::MetricsRegistry* registry) const {
  if (registry == nullptr || m_.checkpoints != nullptr) return;
  m_.checkpoints = &registry->counter("viewmap_store_checkpoints_total");
  m_.bytes_written = &registry->counter("viewmap_store_bytes_written_total");
  m_.segments_written = &registry->counter("viewmap_store_segments_written_total");
  m_.segments_reused = &registry->counter("viewmap_store_segments_reused_total");
  m_.recoveries = &registry->counter("viewmap_store_recoveries_total");
  m_.recovered_profiles = &registry->counter("viewmap_store_recovered_profiles_total");
  m_.checkpoint_us = &registry->histogram("viewmap_store_checkpoint_us");
  m_.fsync_us = &registry->histogram("viewmap_store_fsync_us");
  m_.recover_us = &registry->histogram("viewmap_store_recover_us");
  m_.recover_read_us = &registry->histogram("viewmap_store_recover_read_us");
  m_.recover_validate_us = &registry->histogram("viewmap_store_recover_validate_us");
  m_.recover_parse_us = &registry->histogram("viewmap_store_recover_parse_us");
  m_.recover_adopt_us = &registry->histogram("viewmap_store_recover_adopt_us");
}

std::string SegmentStore::segment_file_name(const Hash32& digest) {
  // 16 digest bytes (128 bits) name the file — ample collision margin —
  // and keep names filesystem-friendly; the full 32-byte digest still
  // travels in the manifest entry and the segment trailer.
  return "seg-" + to_hex(digest.truncated().bytes) + kSegmentSuffix;
}

std::string SegmentStore::manifest_file_name(std::uint64_t sequence) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(sequence));
  return std::string(kManifestPrefix) + buf + kManifestSuffix;
}

std::string SegmentStore::full_path(const std::string& name) const {
  return (fs::path(dir_) / name).string();
}

void SegmentStore::write_file(const std::string& name, std::span<const std::uint8_t> bytes) {
  const std::string path = full_path(name);
  if (const int err = failpoint::inject("store.write.open"); err != 0)
    throw StoreError("segment_store: cannot create " + path, err);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw StoreError("segment_store: cannot create " + path, errno);

  // A fired kShortWrite persists a genuine torn prefix — half the bytes
  // reach the file before the injected EIO — so crash-consistency tests
  // exercise real partial data under the temp name, not just a clean
  // early return.
  std::span<const std::uint8_t> to_write = bytes;
  int inject_after_write = 0;
  if (failpoint::any_armed()) {
    const auto d = failpoint::evaluate("store.write.data");
    if (d.action == failpoint::Action::kShortWrite)
      to_write = bytes.subspan(0, bytes.size() / 2);
    if (d.fires()) inject_after_write = d.injected_errno();
    if (d.action == failpoint::Action::kError) {
      ::close(fd);
      throw std::runtime_error("segment_store: write failed for " + path +
                               " (injected)");
    }
  }
  std::size_t done = 0;
  while (done < to_write.size()) {
    const ssize_t n = ::write(fd, to_write.data() + done, to_write.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw StoreError("segment_store: write failed for " + path, err);
    }
    done += static_cast<std::size_t>(n);
  }
  if (inject_after_write != 0) {
    ::close(fd);
    throw StoreError("segment_store: write failed for " + path, inject_after_write);
  }
  if (cfg_.fsync) {
    const auto fsync_start = std::chrono::steady_clock::now();
    if (const int err = failpoint::inject("store.write.fsync"); err != 0) {
      ::close(fd);
      throw StoreError("segment_store: fsync failed for " + path, err);
    }
    if (::fsync(fd) != 0) {
      const int err = errno;
      ::close(fd);
      throw StoreError("segment_store: fsync failed for " + path, err);
    }
    if (m_.fsync_us != nullptr) m_.fsync_us->record(us_since(fsync_start));
  }
  if (const int err = failpoint::inject("store.write.close"); err != 0) {
    ::close(fd);
    throw StoreError("segment_store: close failed for " + path, err);
  }
  if (::close(fd) != 0)
    throw StoreError("segment_store: close failed for " + path, errno);
  if (cfg_.op_log != nullptr)
    cfg_.op_log->push_back({RecordedOp::Kind::kWriteFile, name, {},
                            std::vector<std::uint8_t>(bytes.begin(), bytes.end())});
}

void SegmentStore::publish_file(const std::string& name,
                                std::span<const std::uint8_t> bytes) {
  const std::string tmp = name + kTempSuffix;
  try {
    write_file(tmp, bytes);
    rename_file(tmp, name);
  } catch (...) {
    // The temp may hold partial data (short write) or nothing at all
    // (failed open); either way it must not outlive the failed attempt —
    // retries and restarts expect a debris-free directory without
    // waiting for the next successful checkpoint's gc().
    remove_file(tmp);
    throw;
  }
}

void SegmentStore::rename_file(const std::string& from, const std::string& to) {
  if (const int err = failpoint::inject("store.rename"); err != 0)
    throw StoreError("segment_store: rename " + from + " -> " + to + " failed", err);
  if (std::rename(full_path(from).c_str(), full_path(to).c_str()) != 0)
    throw StoreError("segment_store: rename " + from + " -> " + to + " failed",
                     errno);
  if (cfg_.op_log != nullptr)
    cfg_.op_log->push_back({RecordedOp::Kind::kRename, from, to, {}});
}

bool SegmentStore::remove_file(const std::string& name) {
  if (::unlink(full_path(name).c_str()) != 0) return false;
  if (cfg_.op_log != nullptr)
    cfg_.op_log->push_back({RecordedOp::Kind::kRemove, name, {}, {}});
  return true;
}

void SegmentStore::fsync_dir() const {
  if (const int err = failpoint::inject("store.dir.fsync"); err != 0)
    throw StoreError("segment_store: fsync failed for dir " + dir_, err);
  const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw StoreError("segment_store: cannot open dir " + dir_, errno);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) throw StoreError("segment_store: fsync failed for dir " + dir_, err);
}

std::vector<std::uint64_t> SegmentStore::list_manifests_desc() const {
  std::vector<std::uint64_t> out;
  // A store directory that was never created is a fresh store; a
  // directory that exists but cannot be listed is an I/O failure and
  // must NOT masquerade as one — recover() would otherwise hand back an
  // empty database over weeks of intact checkpoints.
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec == std::errc::no_such_file_or_directory) return out;
  if (ec)
    throw std::runtime_error("segment_store: cannot list " + dir_ + ": " +
                             ec.message());
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kManifestPrefix) || !name.ends_with(kManifestSuffix)) continue;
    const std::string hex = name.substr(
        std::strlen(kManifestPrefix),
        name.size() - std::strlen(kManifestPrefix) - std::strlen(kManifestSuffix));
    if (hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos)
      continue;  // not ours; leave alone
    out.push_back(std::strtoull(hex.c_str(), nullptr, 16));
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

std::uint64_t SegmentStore::latest_sequence() const {
  const auto manifests = list_manifests_desc();
  return manifests.empty() ? 0 : manifests.front();
}

std::vector<std::uint64_t> SegmentStore::manifest_sequences() const {
  auto out = list_manifests_desc();
  std::reverse(out.begin(), out.end());
  return out;
}

CheckpointStats SegmentStore::checkpoint(const index::DbSnapshot& snap) {
  const auto start = std::chrono::steady_clock::now();
  fs::create_directories(dir_);
  CheckpointStats stats;
  stats.sequence = latest_sequence() + 1;
  stats.shards_total = snap.shard_count();

  // ── segments: write only what the previous checkpoints don't seal ──
  std::vector<ManifestEntry> entries;
  entries.reserve(snap.shard_count());
  for (const auto& shard : snap.shards()) {
    const ManifestEntry entry{shard->unit_time, shard->profiles.size(),
                              shard->trusted.size(), shard->content_digest()};
    entries.push_back(entry);
    const std::string name = segment_file_name(entry.digest);
    std::error_code ec;
    const auto existing_size = fs::file_size(full_path(name), ec);
    if (!ec) {
      // Already sealed under its content address (a final name is only
      // ever produced by a completed rename): reuse by reference.
      ++stats.segments_reused;
      stats.segment_bytes_total += existing_size;
      continue;
    }

    // The canonical content (the same serializer the digest hashes),
    // framed with the offset table: the arena is the payload section
    // verbatim, which is what makes the embedded digest the shard's.
    ByteWriter content(24 + entry.vp_count * vp::kVpWireSize + entry.trusted_count * 16);
    shard->stream_content(
        [&content](std::span<const std::uint8_t> chunk) { content.put_bytes(chunk); });
    const std::span<const std::uint8_t> canonical(content.bytes());
    const std::size_t arena_len = entry.vp_count * vp::kVpWireSize;
    ByteWriter writer(kSegmentPrefix + entry.vp_count * kTableEntry + canonical.size() - 24 +
                      kSegmentTrailer);
    writer.put_bytes(kSegmentMagic);
    writer.put_u32(kSegmentFormatVersion);
    writer.put_bytes(canonical.subspan(0, 24));  // unit_time, vp_count, trusted_count
    writer.put_u64(arena_len);
    for (std::uint64_t i = 0; i < entry.vp_count; ++i) {
      writer.put_u64(i * vp::kVpWireSize);
      writer.put_u32(static_cast<std::uint32_t>(vp::kVpWireSize));
    }
    writer.put_bytes(canonical.subspan(24));  // arena + trusted ids
    writer.put_bytes(entry.digest.bytes);
    writer.put_u32(crypto::crc32c(writer.bytes()));
    const std::vector<std::uint8_t> bytes = std::move(writer).take();
    publish_file(name, bytes);
    ++stats.segments_written;
    stats.bytes_written += bytes.size();
    stats.segment_bytes_total += bytes.size();
  }
  // Durability barrier: every segment rename must be on disk before a
  // manifest referencing it can appear.
  if (cfg_.fsync) fsync_dir();

  // ── manifest: the atomic commit point ──────────────────────────────
  ByteWriter writer(72 + entries.size() * kManifestEntry);
  writer.put_bytes(kManifestMagic);
  writer.put_u32(kManifestFormatVersion);
  writer.put_u64(stats.sequence);
  writer.put_i64(snap.trusted_now());
  writer.put_u64(entries.size());
  for (const auto& entry : entries) {
    writer.put_i64(entry.unit_time);
    writer.put_u64(entry.vp_count);
    writer.put_u64(entry.trusted_count);
    writer.put_u32(kSegmentFormatVersion);
    writer.put_bytes(entry.digest.bytes);
  }
  writer.put_bytes(sha256_prefix(writer.bytes(), writer.size()).bytes);
  const std::vector<std::uint8_t> manifest = std::move(writer).take();

  const std::string manifest_name = manifest_file_name(stats.sequence);
  publish_file(manifest_name, manifest);
  if (cfg_.fsync) fsync_dir();
  stats.bytes_written += manifest.size();

  stats.files_removed = gc();
  if (m_.checkpoints != nullptr) {
    m_.checkpoints->add();
    m_.bytes_written->add(stats.bytes_written);
    m_.segments_written->add(stats.segments_written);
    m_.segments_reused->add(stats.segments_reused);
    m_.checkpoint_us->record(us_since(start));
  }
  return stats;
}

SegmentStore::Manifest SegmentStore::read_manifest(std::uint64_t sequence) const {
  const std::string name = manifest_file_name(sequence);
  const auto bytes = read_file(full_path(name));
  Reader reader(bytes, name);
  reader.expect_magic(kManifestMagic, "manifest");
  const std::uint32_t version = reader.u32();
  if (version != kManifestFormatVersion)
    throw std::runtime_error("segment_store: unsupported manifest version " +
                             std::to_string(version) + " in " + name);
  Manifest manifest;
  manifest.sequence = reader.u64();
  if (manifest.sequence != sequence)
    throw std::runtime_error("segment_store: sequence mismatch in " + name);
  manifest.trusted_clock = static_cast<TimeSec>(reader.u64());
  const std::uint64_t shard_count = reader.u64();
  // Sanity bound before the reserve: the trailer needs 32 bytes, each
  // entry kManifestEntry — a count the remaining bytes cannot hold is
  // corruption.
  if (shard_count >
      (reader.remaining() < 32 ? 0 : (reader.remaining() - 32) / kManifestEntry))
    throw std::runtime_error("segment_store: implausible shard count in " + name);
  manifest.entries.reserve(shard_count);
  for (std::uint64_t i = 0; i < shard_count; ++i) {
    ManifestEntry entry;
    entry.unit_time = static_cast<TimeSec>(reader.u64());
    entry.vp_count = reader.u64();
    entry.trusted_count = reader.u64();
    const std::uint32_t format = reader.u32();
    if (format != kSegmentFormatVersion)
      throw std::runtime_error("segment_store: unsupported segment format " +
                               std::to_string(format) + " in " + name + " (entry " +
                               std::to_string(i) + ")");
    entry.digest = reader.hash32();
    manifest.entries.push_back(entry);
  }
  const std::size_t payload_len = reader.position();
  const Hash32 stored = reader.hash32();
  if (reader.remaining() != 0)
    throw std::runtime_error("segment_store: trailing bytes in " + name +
                             " at offset " + std::to_string(reader.position()));
  if (stored != sha256_prefix(bytes, payload_len))
    throw std::runtime_error("segment_store: manifest checksum mismatch in " + name);
  return manifest;
}

void SegmentStore::load_segments(const Manifest& manifest, sys::VpDatabase& db,
                                 RecoveryStats& stats) const {
  if (manifest.entries.empty()) return;
  std::vector<EntryView> entries;
  entries.reserve(manifest.entries.size());
  for (const auto& entry : manifest.entries)
    entries.push_back({entry.unit_time, entry.vp_count, entry.trusted_count,
                       entry.digest, segment_file_name(entry.digest)});

  const vp::VpUploadPolicy policy = db.policy();
  const index::SpatialGridConfig grid_cfg = db.timeline().config().grid;
  unsigned want = cfg_.restore_threads != 0 ? cfg_.restore_threads
                                            : std::thread::hardware_concurrency();
  if (want == 0) want = 1;
  const auto threads =
      static_cast<unsigned>(std::min<std::size_t>(want, entries.size()));
  stats.threads_used = threads;

  // ── fan out: each worker pulls the next manifest entry and builds a
  // ready-to-adopt shard. Errors are captured per entry, never thrown
  // across threads.
  std::vector<SegmentLoad> results(entries.size());
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&]() noexcept {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= entries.size()) return;
      results[i] = load_one_segment(full_path(entries[i].name), entries[i], policy,
                                    grid_cfg, cfg_.deep_verify);
    }
  };
  {
    obs::SpanScope span("recover_segments");
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();  // the recovering thread is pool member 0
    for (auto& th : pool) th.join();
  }
  for (const auto& r : results) {
    stats.read_us += r.read_us;
    stats.validate_us += r.validate_us;
    stats.parse_us += r.parse_us;
  }
  // Deterministic failure: the first damaged segment in MANIFEST order,
  // whichever worker happened to hit it — 1 thread and N threads throw
  // the identical error.
  for (const auto& r : results)
    if (!r.error.empty()) throw std::runtime_error(r.error);

  // ── adopt in manifest order on the calling thread: deterministic
  // first-wins collision resolution whatever the pool width.
  obs::SpanScope adopt_span("recover_adopt");
  const auto adopt_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    SegmentLoad& r = results[i];
    const std::size_t survivors = r.shard->profiles.size();
    // Seeding the manifest digest makes the first post-restart
    // checkpoint reuse this segment by reference without re-hashing;
    // only valid when the shard is exactly the segment's content
    // (adopt_shard invalidates it again if a collision drops anything).
    if (r.seed_ok) r.shard->seed_digest(entries[i].digest);
    const std::size_t dropped = db.timeline().adopt_shard(std::move(r.shard));
    stats.profiles_loaded += survivors - dropped;
    stats.profiles_rejected += r.rejected + dropped;
    stats.manifest_profiles += entries[i].vp_count;
    ++stats.segments_loaded;
  }
  stats.adopt_us += us_since(adopt_start);
}

sys::VpDatabase SegmentStore::recover(RecoveryStats* stats) const {
  return recover_impl({}, {}, stats);
}

sys::VpDatabase SegmentStore::recover(vp::VpUploadPolicy policy,
                                      index::TimelineConfig index_cfg,
                                      RecoveryStats* stats) const {
  return recover_impl(policy, index_cfg, stats);
}

sys::VpDatabase SegmentStore::recover(std::uint64_t sequence,
                                      RecoveryStats* stats) const {
  return recover(sequence, {}, {}, stats);
}

sys::VpDatabase SegmentStore::recover(std::uint64_t sequence,
                                      vp::VpUploadPolicy policy,
                                      index::TimelineConfig index_cfg,
                                      RecoveryStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  RecoveryStats local;
  ++local.manifests_tried;
  // No fallback: a damaged named checkpoint throws out of load_checkpoint
  // rather than landing the caller on a sibling they did not ask for.
  sys::VpDatabase db = load_checkpoint(sequence, policy, index_cfg, local);
  local.total_us = us_since(start);
  if (stats != nullptr) *stats = local;
  if (m_.recoveries != nullptr) {
    m_.recoveries->add();
    m_.recovered_profiles->add(local.profiles_loaded);
    m_.recover_us->record(local.total_us);
    m_.recover_read_us->record(local.read_us);
    m_.recover_validate_us->record(local.validate_us);
    m_.recover_parse_us->record(local.parse_us);
    m_.recover_adopt_us->record(local.adopt_us);
  }
  return db;
}

sys::VpDatabase SegmentStore::load_checkpoint(std::uint64_t sequence,
                                              vp::VpUploadPolicy policy,
                                              index::TimelineConfig index_cfg,
                                              RecoveryStats& stats) const {
  sys::VpDatabase db(policy, index_cfg);
  Manifest manifest;
  {
    obs::SpanScope span("recover_manifest");
    manifest = read_manifest(sequence);
  }
  load_segments(manifest, db, stats);
  // Force-set, don't advance: trusted restores already advanced the
  // clock, which must not override an operator's reset_clock()
  // recovery captured by the checkpoint.
  db.reset_clock(manifest.trusted_clock);
  stats.sequence = sequence;
  stats.trusted_marked = db.trusted_count();
  return db;
}

sys::VpDatabase SegmentStore::recover_impl(vp::VpUploadPolicy policy,
                                           index::TimelineConfig index_cfg,
                                           RecoveryStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  RecoveryStats local;
  const auto manifests = list_manifests_desc();
  std::string newest_error;
  for (const std::uint64_t sequence : manifests) {
    ++local.manifests_tried;
    RecoveryStats attempt = local;
    try {
      sys::VpDatabase db = load_checkpoint(sequence, policy, index_cfg, attempt);
      attempt.total_us = us_since(start);
      if (stats != nullptr) *stats = attempt;
      if (m_.recoveries != nullptr) {
        m_.recoveries->add();
        m_.recovered_profiles->add(attempt.profiles_loaded);
        m_.recover_us->record(attempt.total_us);
        m_.recover_read_us->record(attempt.read_us);
        m_.recover_validate_us->record(attempt.validate_us);
        m_.recover_parse_us->record(attempt.parse_us);
        m_.recover_adopt_us->record(attempt.adopt_us);
      }
      return db;
    } catch (const std::exception& e) {
      if (newest_error.empty()) newest_error = e.what();
    }
  }
  if (manifests.empty()) {
    // Fresh store: nothing was ever sealed, an empty database is the
    // correct last checkpoint.
    if (stats != nullptr) *stats = local;
    if (m_.recoveries != nullptr) {
      m_.recoveries->add();
      m_.recover_us->record(us_since(start));
    }
    return sys::VpDatabase(policy, index_cfg);
  }
  throw std::runtime_error("segment_store: no loadable checkpoint in " + dir_ +
                           " (newest failure: " + newest_error + ")");
}

std::size_t SegmentStore::gc() {
  // Walk manifests newest-first, retaining everything until
  // keep_manifests *parseable* ones are in hand: an unparseable manifest
  // must not consume fallback depth — counting it would let one
  // bit-rotted file push the last good checkpoint out of the window.
  // (The corrupt file itself is also retained until it ages past the
  // kept valid ones; a few wasted bytes beat deleting evidence.) A
  // retained manifest that cannot be parsed makes its segment references
  // unknowable — skip segment GC entirely rather than risk deleting data
  // a fallback recovery needs.
  std::unordered_set<std::string> referenced;
  std::unordered_set<std::string> kept_manifests;
  bool references_known = true;
  std::size_t valid_kept = 0;
  for (const std::uint64_t sequence : list_manifests_desc()) {
    if (valid_kept >= cfg_.keep_manifests) break;  // the rest are victims
    kept_manifests.insert(manifest_file_name(sequence));
    try {
      for (const auto& entry : read_manifest(sequence).entries)
        referenced.insert(segment_file_name(entry.digest));
      ++valid_kept;
    } catch (const std::exception&) {
      references_known = false;
    }
  }

  std::size_t removed = 0;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec == std::errc::no_such_file_or_directory) return 0;  // nothing to collect
  if (ec)
    throw std::runtime_error("segment_store: cannot list " + dir_ + ": " +
                             ec.message());
  std::vector<std::string> victims;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (is_own_temp(name)) {
      // Our own crash debris (only ours: a foreign *.tmp is left alone
      // like any other foreign file). The single-writer contract means no
      // checkpoint is in flight besides (at most) the one calling us,
      // whose temps are all renamed by now.
      victims.push_back(name);
    } else if (name.starts_with(kManifestPrefix) && name.ends_with(kManifestSuffix)) {
      if (!kept_manifests.contains(name)) victims.push_back(name);
    } else if (name.starts_with("seg-") && name.ends_with(kSegmentSuffix)) {
      if (references_known && !referenced.contains(name)) victims.push_back(name);
    }
    // Anything else in the directory is not ours; leave it alone.
  }
  for (const auto& name : victims)
    if (remove_file(name)) ++removed;
  return removed;
}

std::size_t SegmentStore::sweep_temps() {
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec == std::errc::no_such_file_or_directory) return 0;
  if (ec)
    throw std::runtime_error("segment_store: cannot list " + dir_ + ": " +
                             ec.message());
  std::size_t removed = 0;
  std::vector<std::string> victims;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    // Only our own temp spellings; a final-named file is never a victim
    // here (a stale temp can thus never shadow or be mistaken for a
    // sealed segment — sealed names exist only via completed renames).
    if (is_own_temp(name)) victims.push_back(name);
  }
  for (const auto& name : victims)
    if (remove_file(name)) ++removed;
  return removed;
}

}  // namespace viewmap::store
