// Robustness & failure-injection tests: fuzzed inputs at every trust
// boundary (wire parsers, the upload stream, segment and manifest
// files), hostile upload streams, degraded channels, and multi-seed /
// multi-minute service behavior.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "attack/fake_vp.h"
#include "common/rng.h"
#include "crypto/crc32c.h"
#include "crypto/sha256.h"
#include "sim/simulator.h"
#include "store/segment_store.h"
#include "system/service.h"

namespace viewmap {
namespace {

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

TEST(Fuzz, UploadPolicyOnRandomButParseableProfiles) {
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
    accepted += vp::VpUploadPolicy{}.well_formed(profile) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 0);  // random walks teleport and time-travel
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
  cfg.restore_threads = 2;

  // Two sealed checkpoints: three minutes (one with a trusted mark), then
  // one changed and one new minute.
  Rng rng(20);
  const auto profile = [&rng](int minute, double x) {
    return attack::make_fake_profile(minute * kUnitTimeSec, {x, 0.0}, {x + 200.0, 0.0}, rng);
  };
  sys::VpDatabase db;
  std::vector<Bytes> sealed;
  {
    store::SegmentStore seed_store(dir.string(), cfg);
    for (int m = 0; m < 3; ++m)
      for (int i = 0; i < 2; ++i) ASSERT_TRUE(db.upload(profile(m, i * 400.0)));
    ASSERT_TRUE(db.upload_trusted(profile(1, 900.0)));
    (void)seed_store.checkpoint(db.snapshot());
    sealed.push_back(db.snapshot().canonical_bytes());
    ASSERT_TRUE(db.upload(profile(0, 1800.0)));
    ASSERT_TRUE(db.upload(profile(3, 0.0)));
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
      const store::SegmentStore st(dir.string(), cfg);
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
    if (i == 0 || i == 3)
      db.upload_trusted(std::move(gen.profile));
    else
      db.upload(std::move(gen.profile));
  }
  const sys::ViewmapBuilder builder;
  const geo::Rect site{{-10, -10}, {600, 200}};
  const auto map = builder.build(db.snapshot(), site, 0);
  EXPECT_EQ(map.trusted_indices().size(), 2u);
  const auto ranks = sys::trust_rank(map);
  double total = 0;
  for (double s : ranks.scores) total += s;
  EXPECT_NEAR(total, 1.0, 1e-6);

  const sys::Verifier verifier;
  const auto verdict = verifier.verify(map, site);
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
