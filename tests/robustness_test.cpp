// Robustness & failure-injection tests: fuzzed inputs at every trust
// boundary (wire parsers, the upload stream, segment and manifest
// files), hostile upload streams, degraded channels, and multi-seed /
// multi-minute service behavior.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cfloat>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "attack/fake_vp.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "crypto/crc32c.h"
#include "crypto/sha256.h"
#include "sim/simulator.h"
#include "store/segment_store.h"
#include "system/service.h"

namespace viewmap {
namespace {

constexpr auto kAccepted = sys::VpDatabase::Admission::kAccepted;

// ── Parser fuzzing: hostile bytes must throw or parse, never crash ──────

TEST(Fuzz, ViewDigestParseArbitraryBytes) {
  Rng rng(1);
  std::vector<std::uint8_t> frame(dsrc::kViewDigestWireSize);
  for (int i = 0; i < 2000; ++i) {
    rng.fill_bytes(frame);
    const auto vd = dsrc::ViewDigest::parse(frame);  // any 72 bytes parse
    // Byte-level round trip must be stable even for garbage field values
    // (struct equality would trip over NaN floats, which random bytes
    // produce; the wire format itself must still be a fixed point after
    // one normalization — padding zeroed).
    const auto normalized = vd.serialize();
    EXPECT_EQ(dsrc::ViewDigest::parse(normalized).serialize(), normalized);
  }
}

TEST(Fuzz, ViewProfileParseArbitraryBytes) {
  Rng rng(2);
  std::vector<std::uint8_t> payload(vp::kVpWireSize);
  int parsed = 0;
  for (int i = 0; i < 200; ++i) {
    rng.fill_bytes(payload);
    try {
      const auto profile = vp::ViewProfile::parse(payload);
      ++parsed;
      // Random bytes virtually never share one VP id across 60 VDs.
      (void)profile;
    } catch (const std::invalid_argument&) {
      // expected: mixed identifiers
    }
  }
  EXPECT_EQ(parsed, 0);  // 2^-128-ish odds of all ids matching
}

TEST(Fuzz, ServiceIngestSurvivesGarbageStream) {
  sys::ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  sys::ViewMapService service(cfg);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> garbage(rng.index(2 * vp::kVpWireSize));
    rng.fill_bytes(garbage);
    service.upload_channel().submit(std::move(garbage));
  }
  EXPECT_EQ(service.ingest_uploads(), 0u);
  EXPECT_EQ(service.database().size(), 0u);
}

TEST(Fuzz, UploadScreenOnRandomButParseableProfiles) {
  // Profiles with a consistent id but random everything else must be
  // screened out by the plausibility rules.
  Rng rng(4);
  int accepted = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Id16 id;
    rng.fill_bytes(id.bytes);
    std::vector<dsrc::ViewDigest> digests;
    for (int i = 1; i <= kDigestsPerProfile; ++i) {
      dsrc::ViewDigest vd;
      vd.vp_id = id;
      vd.second = static_cast<std::uint16_t>(i);
      vd.time = static_cast<TimeSec>(rng.uniform_int(0, 1000));
      vd.loc_x = static_cast<float>(rng.uniform(-1e4, 1e4));
      vd.loc_y = static_cast<float>(rng.uniform(-1e4, 1e4));
      vd.file_size = rng.next_u64() >> 40;
      rng.fill_bytes(vd.hash.bytes);
      digests.push_back(vd);
    }
    const vp::ViewProfile profile(std::move(digests),
                                  bloom::BloomFilter(vp::kBloomBits, vp::kBloomHashes));
    accepted += vp::well_formed(profile) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 0);  // random walks teleport and time-travel
}

TEST(Fuzz, UploadScreenRejectsNonFinitePositions) {
  // NaN compares false against the speed bound and inf − inf is NaN, so
  // a non-finite trajectory passes every step check. The screen must
  // still reject it: downstream cell math casts positions to integers.
  Rng rng(5);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Each hostile profile edits a fresh honest one, so ids never collide.
  const auto edited = [&](auto edit) {
    const vp::ViewProfile honest =
        attack::make_fake_profile(0, {100.0, 200.0}, {700.0, 200.0}, rng);
    EXPECT_TRUE(vp::well_formed(honest));
    std::vector<dsrc::ViewDigest> digests(honest.digests().begin(), honest.digests().end());
    for (std::size_t s = 0; s < digests.size(); ++s) edit(s, digests[s]);
    return vp::ViewProfile(std::move(digests), honest.neighbor_bloom());
  };
  const std::vector<vp::ViewProfile> hostile{
      edited([&](std::size_t s, dsrc::ViewDigest& vd) { if (s >= 4) vd.loc_x = nan; }),
      edited([&](std::size_t s, dsrc::ViewDigest& vd) { if (s >= 4) vd.loc_y = nan; }),
      edited([&](std::size_t, dsrc::ViewDigest& vd) { vd.loc_x = vd.initial_x = inf; }),
      edited([&](std::size_t, dsrc::ViewDigest& vd) { vd.loc_y = vd.initial_y = -inf; }),
  };

  sys::ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  sys::ViewMapService service(cfg);
  for (const auto& profile : hostile) {
    // Over the wire, as an uploader would send it.
    const auto wire = vp::ViewProfile::parse(profile.serialize());
    EXPECT_FALSE(vp::well_formed(wire));
    service.upload_channel().submit(profile.serialize());
  }
  EXPECT_EQ(service.ingest_uploads(), 0u);
  EXPECT_EQ(service.database().size(), 0u);
}

// ── Segment store: seeded mutations of a real checkpoint ─────────────
// Bit flips, splices, and length-field lies (with the integrity trailer
// re-stamped, so the lie reaches the structural checks) against the
// files of a real two-checkpoint store. Every case must recover to one of
// the two sealed checkpoints' canonical bytes or throw
// std::runtime_error — never crash, never load anything else.

using Bytes = std::vector<std::uint8_t>;

void put_le(Bytes& bytes, std::size_t at, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width && at + i < bytes.size(); ++i)
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint64_t get_le(const Bytes& bytes, std::size_t at, std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width && at + i < bytes.size(); ++i)
    value |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  return value;
}

/// Re-stamps a file's integrity trailer after an edit: the whole-file
/// CRC32C of a segment, the SHA-256 of a manifest.
void restamp(const std::string& name, Bytes& bytes) {
  const std::span<const std::uint8_t> all(bytes);
  if (name.ends_with(".vseg2")) {
    if (bytes.size() >= 4)
      put_le(bytes, bytes.size() - 4, crypto::crc32c(all.first(bytes.size() - 4)), 4);
  } else if (bytes.size() >= 32) {
    crypto::Sha256 hasher;
    hasher.update(all.first(bytes.size() - 32));
    const Hash32 digest = hasher.finish();
    std::copy(digest.bytes.begin(), digest.bytes.end(), bytes.end() - 32);
  }
}

/// (offset, width) of every length field in one file: a segment's
/// vp_count, trusted_count, arena_len and offset-table entries; a
/// manifest's shard_count and per-entry vp/trusted counts.
std::vector<std::pair<std::size_t, std::size_t>> length_fields(const std::string& name,
                                                               const Bytes& bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (name.ends_with(".vseg2")) {
    out = {{16, 8}, {24, 8}, {32, 8}};
    const std::uint64_t vp_count = get_le(bytes, 16, 8);
    for (std::uint64_t i = 0; i < vp_count; ++i) {
      out.emplace_back(40 + 12 * i, 8);
      out.emplace_back(40 + 12 * i + 8, 4);
    }
  } else {
    out = {{24, 8}};
    const std::uint64_t shard_count = get_le(bytes, 24, 8);
    for (std::uint64_t i = 0; i < shard_count; ++i) {
      out.emplace_back(32 + 60 * i + 8, 8);
      out.emplace_back(32 + 60 * i + 16, 8);
    }
  }
  return out;
}

TEST(Fuzz, SegmentStoreMutationsRecoverOrThrow) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("viewmap_fuzz_store_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  store::SegmentStoreConfig cfg;
  cfg.fsync = false;
  common::WorkerPool pool(2);

  // Two sealed checkpoints: three minutes (one with a trusted mark), then
  // one changed and one new minute.
  Rng rng(20);
  const auto profile = [&rng](int minute, double x) {
    return attack::make_fake_profile(minute * kUnitTimeSec, {x, 0.0}, {x + 200.0, 0.0}, rng);
  };
  sys::VpDatabase db;
  std::vector<Bytes> sealed;
  {
    store::SegmentStore seed_store(dir.string(), cfg, pool);
    for (int m = 0; m < 3; ++m)
      for (int i = 0; i < 2; ++i) ASSERT_EQ(db.upload(profile(m, i * 400.0), false), kAccepted);
    ASSERT_EQ(db.upload(profile(1, 900.0), true), kAccepted);
    (void)seed_store.checkpoint(db.snapshot());
    sealed.push_back(db.snapshot().canonical_bytes());
    ASSERT_EQ(db.upload(profile(0, 1800.0), false), kAccepted);
    ASSERT_EQ(db.upload(profile(3, 0.0), false), kAccepted);
    (void)seed_store.checkpoint(db.snapshot());
    sealed.push_back(db.snapshot().canonical_bytes());
  }
  std::map<std::string, Bytes> image;
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    names.push_back(entry.path().filename().string());
    image[names.back()] = Bytes(std::istreambuf_iterator<char>(in), {});
  }
  std::sort(names.begin(), names.end());
  ASSERT_EQ(names.size(), 7u);  // 5 segments + 2 manifests

  const auto write_file = [&dir](const std::string& name, const Bytes& content) {
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(content.data()),
              static_cast<std::streamsize>(content.size()));
  };

  // One file is mutated per case and restored after it.
  Rng fuzz(21);
  std::size_t intact = 0, fell_back = 0, rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::string& name = names[fuzz.index(names.size())];
    Bytes bytes = image.at(name);
    const std::size_t kind = fuzz.index(3);
    if (kind == 0) {
      // Bit flips anywhere.
      for (std::size_t n = 1 + fuzz.index(4); n > 0; --n)
        bytes[fuzz.index(bytes.size())] ^= static_cast<std::uint8_t>(1u << fuzz.index(8));
    } else if (kind == 1) {
      // Splice: a slice of any file overwrites or is inserted at a random
      // offset, or the file is cut short.
      const Bytes& donor = image.at(names[fuzz.index(names.size())]);
      const std::size_t from = fuzz.index(donor.size());
      const std::size_t len = 1 + fuzz.index(std::min<std::size_t>(donor.size() - from, 512));
      const std::size_t at = fuzz.index(bytes.size() + 1);
      const auto slice = donor.begin() + static_cast<std::ptrdiff_t>(from);
      switch (fuzz.index(3)) {
        case 0:
          bytes.resize(std::max(bytes.size(), at + len));
          std::copy(slice, slice + static_cast<std::ptrdiff_t>(len),
                    bytes.begin() + static_cast<std::ptrdiff_t>(at));
          break;
        case 1:
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), slice,
                       slice + static_cast<std::ptrdiff_t>(len));
          break;
        default:
          bytes.resize(at);
      }
    } else {
      // Length-field lie with the integrity trailer re-stamped.
      const auto fields = length_fields(name, bytes);
      const auto [at, width] = fields[fuzz.index(fields.size())];
      const std::uint64_t was = get_le(bytes, at, width);
      const std::uint64_t lies[] = {0, 1, was - 1, was + 1, was * 2, 1ull << 32,
                                    1ull << 63, ~0ull, fuzz.next_u64()};
      put_le(bytes, at, lies[fuzz.index(std::size(lies))], width);
      restamp(name, bytes);
    }

    write_file(name, bytes);
    try {
      const store::SegmentStore st(dir.string(), cfg, pool);
      const Bytes got = st.recover().snapshot().canonical_bytes();
      EXPECT_TRUE(got == sealed[0] || got == sealed[1])
          << "iteration " << iter << " (" << name << ", mutation " << kind
          << ") recovered a state no checkpoint sealed";
      ++(got == sealed[1] ? intact : fell_back);
    } catch (const std::runtime_error&) {
      ++rejected;
    }
    write_file(name, image.at(name));
  }
  fs::remove_all(dir);
  // Every outcome occurs: harmless edits (manifest 1, a no-op lie) keep
  // checkpoint 2, damage to checkpoint 2 falls back to 1, and damage to a
  // segment both share leaves nothing loadable.
  EXPECT_GT(intact, 0u);
  EXPECT_GT(fell_back, 0u);
  EXPECT_GT(rejected, 0u);
}

// ── Upload screen: crafted and structure-aware hostile VPs ──────────────
// The screen (vp::well_formed inside VpTimeline::upload) is the trust
// boundary for anonymous VP payloads. These cases build payloads field by
// field, the way a hostile uploader would, and send them through the
// service's real ingest path.

/// The wire payload ViewProfile::serialize would produce for these
/// digests and Bloom bytes, built without the constructor's checks.
Bytes wire_of(const std::vector<dsrc::ViewDigest>& digests,
              const std::vector<std::uint8_t>& bloom) {
  Bytes out;
  out.reserve(vp::kVpWireSize);
  for (const auto& vd : digests) {
    const auto frame = vd.serialize();
    out.insert(out.end(), frame.begin(), frame.end());
  }
  out.insert(out.end(), bloom.begin(), bloom.end());
  return out;
}

/// `time(i)` stamped on every digest of an honest, stationary profile.
template <typename TimeOf>
Bytes stationary_with_times(Rng& rng, TimeOf time) {
  const vp::ViewProfile honest =
      attack::make_fake_profile(0, {100.0, 200.0}, {100.0, 200.0}, rng);
  std::vector<dsrc::ViewDigest> digests(honest.digests().begin(), honest.digests().end());
  for (std::size_t i = 0; i < digests.size(); ++i) digests[i].time = time(i);
  return wire_of(digests, honest.neighbor_bloom().data());
}

constexpr TimeSec kTimeMin = std::numeric_limits<TimeSec>::min();
constexpr TimeSec kTimeMax = std::numeric_limits<TimeSec>::max();

TEST(Fuzz, UploadScreenRejectsUnrepresentableTimestamps) {
  // Regression seeds for two signed overflows one anonymous payload
  // reached: the screen's own contiguity check (time + 1 at the top of
  // the range) and the minute start of a trajectory at the bottom of the
  // range (unit_start(min) is not representable).
  Rng rng(24);
  const Bytes top = stationary_with_times(rng, [](std::size_t) { return kTimeMax; });
  const Bytes bottom = stationary_with_times(
      rng, [](std::size_t i) { return kTimeMin + static_cast<TimeSec>(i); });

  sys::ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  sys::ViewMapService service(cfg);
  service.upload_channel().submit(top);
  service.upload_channel().submit(bottom);
  EXPECT_EQ(service.ingest_uploads(), 0u);
  EXPECT_EQ(service.ingest_totals().rejected_malformed, 2u);
  EXPECT_EQ(service.database().size(), 0u);
}

TEST(Fuzz, CraftedSegmentPayloadIsScreenedBeforeItsMinuteIsComputed) {
  // A segment's CRC is not authentication: a payload planted in a sealed
  // segment (CRC re-stamped) must meet the same screen as an upload
  // before recovery derives its minute.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("viewmap_fuzz_planted_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  store::SegmentStoreConfig cfg;
  cfg.fsync = false;
  Rng rng(25);
  {
    sys::VpDatabase db;
    for (int i = 0; i < 3; ++i)
      ASSERT_EQ(db.upload(attack::make_fake_profile(0, {i * 400.0, 0.0},
                                                    {i * 400.0 + 200.0, 0.0}, rng),
                          false),
                kAccepted);
    (void)store::SegmentStore(dir.string(), cfg).checkpoint(db.snapshot());
  }
  std::string segment;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".vseg2") segment = entry.path().filename().string();
  ASSERT_FALSE(segment.empty());
  Bytes bytes;
  {
    std::ifstream in(dir / segment, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The arena follows the 40-byte header and the 12-byte offset entries.
  const std::size_t arena = 40 + 12 * get_le(bytes, 16, 8);
  const Bytes planted = stationary_with_times(
      rng, [](std::size_t i) { return kTimeMin + static_cast<TimeSec>(i); });
  ASSERT_LE(arena + planted.size(), bytes.size());
  std::copy(planted.begin(), planted.end(), bytes.begin() + static_cast<std::ptrdiff_t>(arena));
  restamp(segment, bytes);
  {
    std::ofstream out(dir / segment, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  store::RecoveryStats rec;
  const auto recovered = store::SegmentStore(dir.string(), cfg).recover(&rec);
  EXPECT_EQ(rec.profiles_rejected, 1u);
  EXPECT_EQ(recovered.size(), 2u);
  fs::remove_all(dir);
}

template <typename T>
T pick(Rng& rng, std::initializer_list<T> options) {
  return *(options.begin() + rng.index(options.size()));
}

/// t + delta, wrapping: an earlier mutation may already have moved t to
/// either end of the range, and the test itself must stay defined.
TimeSec wrapping_add(TimeSec t, std::int64_t delta) {
  return static_cast<TimeSec>(static_cast<std::uint64_t>(t) +
                              static_cast<std::uint64_t>(delta));
}

/// One seeded field-level mutation of a serialized VP's parts.
void mutate_field(std::vector<dsrc::ViewDigest>& d, std::vector<std::uint8_t>& bloom,
                  Rng& rng) {
  auto& vd = d[rng.index(d.size())];
  switch (rng.index(7)) {
    case 0:  // one VD's time
      vd.time = pick(rng, {kTimeMin, kTimeMax, wrapping_add(vd.time, 1),
                           wrapping_add(vd.time, -1), TimeSec{0},
                           static_cast<TimeSec>(rng.next_u64())});
      break;
    case 1:  // one VD's second index
      vd.second = pick(rng, {std::uint16_t{0}, std::uint16_t{61},
                             static_cast<std::uint16_t>(vd.second + 1), std::uint16_t{65535},
                             static_cast<std::uint16_t>(rng.next_u64())});
      break;
    case 2: {  // a location float: NaN, ±inf, ±FLT_MAX or a denormal
      const float value =
          pick(rng, {std::numeric_limits<float>::quiet_NaN(),
                     std::numeric_limits<float>::infinity(),
                     -std::numeric_limits<float>::infinity(), FLT_MAX, -FLT_MAX,
                     std::numeric_limits<float>::denorm_min(), -FLT_TRUE_MIN, FLT_MIN / 4});
      switch (rng.index(4)) {
        case 0: vd.loc_x = value; break;
        case 1: vd.initial_y = value; break;
        case 2:  // the whole trajectory moves, consistently
          for (auto& each : d) each.loc_x = each.initial_x = value;
          break;
        default:
          for (auto& each : d) each.loc_y = each.initial_y = value;
      }
      break;
    }
    case 3:  // one VD's file size
      vd.file_size =
          pick(rng, {std::uint64_t{0}, ~std::uint64_t{0}, vd.file_size - 1, rng.next_u64()});
      break;
    case 4:  // one VD's id bytes
      vd.vp_id.bytes[rng.index(vd.vp_id.bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
      break;
    case 5:  // Bloom bytes
      if (rng.bernoulli(0.5))
        std::fill(bloom.begin(), bloom.end(), std::uint8_t{0xff});
      else
        for (std::size_t n = 1 + rng.index(16); n > 0; --n)
          bloom[rng.index(bloom.size())] = static_cast<std::uint8_t>(rng.next_u64());
      break;
    default: {  // the whole trajectory shifted, toward either end or nearby
      const auto slack = static_cast<TimeSec>(rng.index(150));
      const TimeSec t0 =
          pick(rng, {kTimeMin + slack, kTimeMax - slack,
                     wrapping_add(d[0].time, kUnitTimeSec * rng.uniform_int(-90, 90))});
      for (std::size_t i = 0; i < d.size(); ++i)
        d[i].time = wrapping_add(t0, static_cast<std::int64_t>(i));
    }
  }
}

TEST(Fuzz, StructureAwareViewProfileMutations) {
  // Honest VPs with 1–3 seeded field mutations each (plus verbatim
  // resubmits), through the real ingest path. Every payload must end as a
  // counted reject or as a stored profile that re-serializes to exactly
  // the submitted bytes and passes the screen.
  sys::ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  sys::ViewMapService service(cfg);
  Rng rng(26);
  // A trusted clock at minute 10, so the timeliness screen runs too.
  ASSERT_TRUE(service.register_trusted(
      attack::make_fake_profile(10 * kUnitTimeSec, {0.0, 0.0}, {500.0, 0.0}, rng)));

  constexpr int kBatches = 8;
  constexpr int kPerBatch = 250;
  std::vector<Bytes> submitted;
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int c = 0; c < kPerBatch; ++c) {
      Bytes wire;
      if (!submitted.empty() && rng.index(20) == 0) {
        wire = submitted[rng.index(submitted.size())];
      } else {
        const geo::Vec2 start{rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0)};
        const geo::Vec2 end{start.x + rng.uniform(-1500.0, 1500.0),
                            start.y + rng.uniform(-1500.0, 1500.0)};
        const vp::ViewProfile honest = attack::make_fake_profile(
            kUnitTimeSec * rng.uniform_int(0, 20), start, end, rng);
        std::vector<dsrc::ViewDigest> digests(honest.digests().begin(),
                                              honest.digests().end());
        std::vector<std::uint8_t> bloom = honest.neighbor_bloom().data();
        for (std::size_t n = 1 + rng.index(3); n > 0; --n) mutate_field(digests, bloom, rng);
        wire = wire_of(digests, bloom);
      }
      service.upload_channel().submit(wire);
      submitted.push_back(std::move(wire));
    }
    (void)service.ingest_uploads();
  }

  const auto totals = service.ingest_totals();
  EXPECT_EQ(totals.accepted + totals.rejected_malformed + totals.rejected_untimely +
                totals.rejected_duplicate,
            submitted.size());
  // Every outcome occurs, so no screen step went unexercised.
  EXPECT_GT(totals.accepted, 0u);
  EXPECT_GT(totals.rejected_malformed, 0u);
  EXPECT_GT(totals.rejected_untimely, 0u);
  EXPECT_GT(totals.rejected_duplicate, 0u);

  const auto snap = service.database().snapshot();
  EXPECT_EQ(snap.size(), totals.accepted + 1);  // + the trusted seed
  for (const auto* profile : snap.all()) {
    if (service.database().is_trusted(profile->vp_id())) continue;
    const Bytes bytes = profile->serialize();
    EXPECT_NE(std::find(submitted.begin(), submitted.end(), bytes), submitted.end());
    EXPECT_EQ(vp::ViewProfile::parse(bytes).serialize(), bytes);
    EXPECT_TRUE(vp::well_formed(*profile));
  }
}

// ── Channel degradation ─────────────────────────────────────────────────

TEST(Degradation, HeavyTrafficBlacksOutWholeMinutes) {
  // The Gilbert blockage state must produce minute-long outages — the
  // mechanism behind Table 2's 61% "Traffic" row.
  sim::SimConfig cfg;
  cfg.seed = 5;
  cfg.minutes = 30;
  cfg.guards_enabled = false;
  cfg.collect_pair_stats = true;
  cfg.video_bytes_per_second = 16;
  cfg.traffic_blocker_density_per_m = 0.012;

  road::CityMap highway;
  highway.bounds = {{0, -100}, {1e6, 100}};
  std::vector<sim::VehicleMotion> fleet;
  fleet.push_back(sim::VehicleMotion::scripted({{0, 0}, {1e6, 0}}, 20.0));
  fleet.push_back(sim::VehicleMotion::scripted({{160, 0}, {1e6 + 160, 0}}, 20.0));
  sim::TrafficSimulator sim(std::move(highway), cfg, std::move(fleet));
  const auto result = sim.run();

  int linked = 0;
  for (const auto& obs : result.pair_minutes) linked += obs.vp_linked;
  EXPECT_GT(linked, 5);                 // not dead —
  EXPECT_LT(linked, cfg.minutes - 3);   // — but some minutes fully blocked
}

TEST(Degradation, AsymmetricRangeStillNeedsBothDirections) {
  // One direction hearing the other is not a viewlink: verify via two
  // builders where only one direction's VDs are delivered.
  Rng rng(6);
  vp::VpBuilder a(0, rng), b(0, rng);
  std::vector<std::uint8_t> chunk(16);
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    const auto vda = a.tick({s * 5.0, 0}, chunk);
    (void)b.tick({s * 5.0, 50}, chunk);
    b.accept_neighbor(vda, {s * 5.0, 50});  // b hears a; a never hears b
  }
  auto ga = a.finish();
  auto gb = b.finish();
  const sys::ViewmapBuilder builder;
  EXPECT_FALSE(builder.viewlinked(ga.profile, gb.profile));
}

// ── Multi-seed trust and multi-minute investigations ────────────────────

TEST(Service, InvestigatePeriodSpansMinutesAndSkipsUnverifiable) {
  // Build a 3-minute world where only minutes 0 and 2 have trusted VPs.
  sim::SimConfig cfg;
  cfg.seed = 7;
  cfg.minutes = 3;
  cfg.guards_enabled = false;
  cfg.video_bytes_per_second = 16;
  road::CityMap open;
  open.bounds = {{-100, -100}, {20000, 100}};
  std::vector<sim::VehicleMotion> fleet;
  for (int i = 0; i < 3; ++i)
    fleet.push_back(
        sim::VehicleMotion::scripted({{i * 50.0, 0}, {20000 + i * 50.0, 0}}, 12.0));
  sim::TrafficSimulator sim(std::move(open), cfg, std::move(fleet));
  const auto world = sim.run();

  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  for (const auto& rec : world.profiles) {
    const bool trusted_minute =
        rec.profile.unit_time() == 0 || rec.profile.unit_time() == 120;
    if (rec.creator == 0 && trusted_minute)
      service.register_trusted(rec.profile);
    else
      service.upload_channel().submit(rec.profile.serialize());
  }
  service.ingest_uploads();

  const geo::Rect site{{-100, -100}, {20000, 100}};
  const auto reports = service.investigate_period(site, 0, 180);
  ASSERT_EQ(reports.size(), 2u);  // minute 1 skipped: no trust seed
  EXPECT_EQ(reports[0].viewmap.unit_time(), 0);
  EXPECT_EQ(reports[1].viewmap.unit_time(), 120);
  for (const auto& r : reports) EXPECT_GE(r.solicited.size(), 2u);
}

TEST(Service, MultipleTrustedSeedsShareTrustMass) {
  // Two police cars in one minute: both register, TrustRank splits the
  // seed distribution, verification still works.
  Rng rng(8);
  std::vector<vp::VpBuilder> builders;
  for (int i = 0; i < 4; ++i) builders.emplace_back(0, rng);
  std::vector<std::uint8_t> chunk(16);
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    std::vector<dsrc::ViewDigest> vds;
    for (int i = 0; i < 4; ++i)
      vds.push_back(builders[static_cast<std::size_t>(i)].tick({s * 8.0, i * 60.0}, chunk));
    for (int i = 0; i + 1 < 4; ++i) {
      builders[static_cast<std::size_t>(i)].accept_neighbor(
          vds[static_cast<std::size_t>(i + 1)], {s * 8.0, i * 60.0});
      builders[static_cast<std::size_t>(i + 1)].accept_neighbor(
          vds[static_cast<std::size_t>(i)], {s * 8.0, (i + 1) * 60.0});
    }
  }
  sys::VpDatabase db;
  std::vector<Id16> ids;
  for (int i = 0; i < 4; ++i) {
    auto gen = builders[static_cast<std::size_t>(i)].finish();
    ids.push_back(gen.profile.vp_id());
    db.upload(std::move(gen.profile), /*trusted=*/i == 0 || i == 3);
  }
  const sys::ViewmapBuilder builder;
  const geo::Rect site{{-10, -10}, {600, 200}};
  const auto map = builder.build(db.snapshot(), site, 0);
  EXPECT_EQ(map.trusted_indices().size(), 2u);
  const auto ranks = sys::trust_rank(map);
  double total = 0;
  for (double s : ranks.scores) total += s;
  EXPECT_NEAR(total, 1.0, 1e-6);

  const auto verdict = sys::verify(map, site);
  EXPECT_EQ(verdict.legitimate.size(), 4u);
}

TEST(Service, SaturatedBloomAttackerNeverSolicited) {
  // Full pipeline version of the §6.3.2 all-ones attack.
  Rng rng(9);
  std::vector<vp::VpBuilder> builders;
  for (int i = 0; i < 3; ++i) builders.emplace_back(0, rng);
  std::vector<std::uint8_t> chunk(16);
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    std::vector<dsrc::ViewDigest> vds;
    for (int i = 0; i < 3; ++i)
      vds.push_back(builders[static_cast<std::size_t>(i)].tick({s * 8.0, i * 50.0}, chunk));
    for (int i = 0; i + 1 < 3; ++i) {
      builders[static_cast<std::size_t>(i)].accept_neighbor(
          vds[static_cast<std::size_t>(i + 1)], {s * 8.0, i * 50.0});
      builders[static_cast<std::size_t>(i + 1)].accept_neighbor(
          vds[static_cast<std::size_t>(i)], {s * 8.0, (i + 1) * 50.0});
    }
  }
  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  sys::ViewMapService service(scfg);
  auto g0 = builders[0].finish();
  service.register_trusted(g0.profile);
  for (int i = 1; i < 3; ++i)
    service.upload_channel().submit(builders[static_cast<std::size_t>(i)].finish().profile.serialize());

  Rng attacker_rng(10);
  const auto sat = attack::make_saturated_profile(0, {100, 60}, {500, 60}, attacker_rng);
  const Id16 sat_id = sat.vp_id();
  service.upload_channel().submit(sat.serialize());
  service.ingest_uploads();

  const auto report = service.investigate({{-10, -10}, {600, 150}}, 0);
  EXPECT_FALSE(service.board().is_posted(sat_id, sys::RequestKind::kVideo));
}

}  // namespace
}  // namespace viewmap
