// ResultCache: LRU replacement mechanics on the cache itself, key
// stability across a checkpoint, CSR sharing between a cached report and
// the reports served from it, the bit-identity property (cache-on
// reports == cache-off reports under an adversarial interleaving of
// ingest / eviction / clock advance / investigate), and a TSan case with
// cache hits racing live ingest and retention eviction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "attack/fake_vp.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "store/segment_store.h"
#include "system/result_cache.h"
#include "system/service.h"

namespace viewmap::sys {
namespace {

// ── LRU unit tests ───────────────────────────────────────────────────

/// An entry whose byte weight is controlled through the solicited-id
/// padding: empty report ≈ 328 bytes, +16 per id.
std::shared_ptr<CachedInvestigation> entry(std::size_t pad_ids = 0) {
  return std::make_shared<CachedInvestigation>(CachedInvestigation{
      Viewmap({}, {}, CsrGraph{}, 0, nullptr),
      VerificationResult{}, std::vector<Id16>(pad_ids)});
}

ResultCache::Key key_of(int n) {
  ResultCache::Key k;
  k.unit_time = n * kUnitTimeSec;
  k.generation = static_cast<std::uint64_t>(n) + 1;
  k.site = {{0, 0}, {100, 100}};
  return k;
}

TEST(ResultCache, HitReturnsTheInsertedObjectAndCounts) {
  obs::MetricsRegistry reg;
  ResultCache cache(reg, {.capacity_bytes = 10'000});
  auto e = entry();
  const CachedInvestigation* raw = e.get();
  cache.insert(key_of(1), e);
  const auto hit1 = cache.find(key_of(1));
  const auto hit2 = cache.find(key_of(1));
  ASSERT_NE(hit1, nullptr);
  EXPECT_EQ(hit1.get(), raw);  // the very object, not a copy
  EXPECT_EQ(hit2.get(), raw);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST(ResultCache, AnyKeyComponentChangeMisses) {
  obs::MetricsRegistry reg;
  ResultCache cache(reg, {.capacity_bytes = 10'000});
  cache.insert(key_of(1), entry());

  ResultCache::Key other_generation = key_of(1);
  other_generation.generation += 1000;  // same (site, unit), new content
  EXPECT_EQ(cache.find(other_generation), nullptr);

  ResultCache::Key other_site = key_of(1);
  other_site.site.max.x += 1.0;
  EXPECT_EQ(cache.find(other_site), nullptr);

  ResultCache::Key other_unit = key_of(1);
  other_unit.unit_time += kUnitTimeSec;
  EXPECT_EQ(cache.find(other_unit), nullptr);

  EXPECT_EQ(cache.find(key_of(1)) != nullptr, true);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ResultCache, KeyEqualityMatchesTheHash) {
  obs::MetricsRegistry reg;
  ResultCache cache(reg, {.capacity_bytes = 10'000});
  const ResultCache::KeyHasher hash;

  // A NaN site is still one key: it hits after insert, and inserting it
  // again replaces the entry instead of piling up unreachable copies.
  ResultCache::Key nan_site = key_of(1);
  nan_site.site.min.x = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(nan_site == nan_site);
  cache.insert(nan_site, entry());
  EXPECT_NE(cache.find(nan_site), nullptr);
  for (int i = 0; i < 3; ++i) cache.insert(nan_site, entry());
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  EXPECT_NE(cache.find(nan_site), nullptr);

  // +0.0 and −0.0 hash differently, so they must not compare equal:
  // equal keys always hash alike. Each finds its own entry.
  ResultCache::Key pos = key_of(2);
  ResultCache::Key neg = key_of(2);
  pos.site.min.x = 0.0;
  neg.site.min.x = -0.0;
  EXPECT_TRUE(!(pos == neg) || hash(pos) == hash(neg));
  const auto pos_entry = entry();
  const auto neg_entry = entry();
  cache.insert(pos, pos_entry);
  cache.insert(neg, neg_entry);
  EXPECT_EQ(cache.find(pos), pos_entry);
  EXPECT_EQ(cache.find(neg), neg_entry);
  EXPECT_EQ(cache.stats().resident_entries, 3u);
}

TEST(ResultCache, ResidentBytesNeverExceedCapacity) {
  constexpr std::size_t kCap = 1000;  // fits ~3 empty entries
  obs::MetricsRegistry reg;
  ResultCache cache(reg, {.capacity_bytes = kCap});
  for (int i = 0; i < 10; ++i) {
    cache.insert(key_of(i), entry());
    const auto s = cache.stats();
    EXPECT_LE(s.resident_bytes, kCap) << "after insert " << i;
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.insertions, 10u);
  EXPECT_GE(s.evictions, 7u);  // 10 in, ≤3 resident
  EXPECT_LE(s.resident_entries, 3u);
}

TEST(ResultCache, HitKeySurvivesTheNextEvictionAndTheUntouchedKeyGoes) {
  obs::MetricsRegistry reg;
  ResultCache cache(reg, {.capacity_bytes = 700});  // fits 2 empty entries
  cache.insert(key_of(1), entry());             // A
  cache.insert(key_of(2), entry());             // B, in front of A
  ASSERT_NE(cache.find(key_of(1)), nullptr);    // the hit moves A to the front
  cache.insert(key_of(3), entry());             // C evicts the back: B
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_NE(cache.find(key_of(3)), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_entries, 2u);
  EXPECT_LE(s.resident_bytes, 700u);
}

TEST(ResultCache, EntryLargerThanCapacityIsNotCached) {
  obs::MetricsRegistry reg;
  ResultCache cache(reg, {.capacity_bytes = 400});
  cache.insert(key_of(1), entry(/*pad_ids=*/10));  // ≈ 488 bytes > 400
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.resident_entries, 0u);
}

TEST(ResultCache, DisabledCacheIsInert) {
  obs::MetricsRegistry reg;
  ResultCache cache(reg, {.capacity_bytes = 0});
  EXPECT_FALSE(cache.enabled());
  cache.insert(key_of(1), entry());
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses + s.insertions, 0u);
}

TEST(ResultCache, ClearDropsEntriesButKeepsCounters) {
  obs::MetricsRegistry reg;
  ResultCache cache(reg, {.capacity_bytes = 10'000});
  cache.insert(key_of(1), entry());
  ASSERT_NE(cache.find(key_of(1)), nullptr);
  cache.clear();
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.resident_entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_EQ(s.hits, 1u);  // history survives the wipe
}

// ── service-level keys ───────────────────────────────────────────────

TEST(ResultCache, CheckpointWithoutWritesKeepsHits) {
  // A checkpoint digests every shard (and caches the digest) but changes
  // no content, so it must not change any cache key: the investigation
  // after it is still a hit, not a rebuild.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("viewmap_cache_checkpoint_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  ViewMapService service(cfg);
  Rng rng(61);
  ASSERT_TRUE(service.register_trusted(
      attack::make_fake_profile(0, {0, 0}, {900, 0}, rng)));
  for (int i = 0; i < 4; ++i) {
    const double x = rng.uniform(0.0, 400.0);
    service.upload_channel().submit(
        attack::make_fake_profile(0, {x, 0}, {x + 300, 0}, rng).serialize());
  }
  ASSERT_EQ(service.ingest_uploads(), 4u);

  const geo::Rect site{{0, -50}, {400, 50}};
  (void)service.investigate(site, 0);  // miss: builds and inserts
  (void)service.investigate(site, 0);  // hit
  ASSERT_EQ(service.result_cache().stats().hits, 1u);

  {
    store::SegmentStore store(dir.string());
    (void)service.checkpoint(store);
  }
  (void)service.investigate(site, 0);
  const auto s = service.result_cache().stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  fs::remove_all(dir);
}

// ── the tentpole property: bit-identical reports, cache on vs off ────

/// Order-sensitive FNV-1a over everything the report asserts about the
/// world: members (ids + trust flags), the CSR edge set, the verification
/// verdicts, the TrustRank vector bytes, and the solicited ids. The trace
/// is excluded by design — it is timing-valued and records the serving
/// path (build spans vs result_cache_hit).
std::uint64_t fingerprint(const InvestigationReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  const Viewmap& m = r.viewmap;
  mix(m.size());
  mix(static_cast<std::uint64_t>(m.unit_time()));
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::uint8_t b : m.member(i).vp_id().bytes) mix(b);
    mix(m.is_trusted(i) ? 1 : 0);
  }
  for (std::size_t o : m.graph().offsets()) mix(o);
  for (std::uint32_t e : m.graph().edges()) mix(e);
  const VerificationResult& v = r.verification;
  for (std::size_t i : v.site_members) mix(i);
  for (std::size_t i : v.legitimate) mix(i);
  for (std::size_t i : v.rejected) mix(i);
  for (double s : v.ranks.scores) mix(std::bit_cast<std::uint64_t>(s));
  mix(static_cast<std::uint64_t>(v.ranks.iterations));
  mix(v.ranks.converged ? 1 : 0);
  for (const Id16& id : r.solicited) for (std::uint8_t b : id.bytes) mix(b);
  return h;
}

TEST(ResultCache, ServedReportSharesTheSeedingReportsEdgeArray) {
  // An insert and a hit copy members and verdicts, never the CSR: the
  // built report, the cached entry and every served report hold one edge
  // array. A convoy on an open road, so the viewmap has edges to share.
  sim::SimConfig sim_cfg;
  sim_cfg.seed = 5;
  sim_cfg.vehicle_count = 0;  // explicit fleet below
  sim_cfg.minutes = 1;
  sim_cfg.guards_enabled = false;
  road::CityMap open;
  open.bounds = {{0, -100}, {5000, 100}};
  std::vector<sim::VehicleMotion> fleet;
  for (int i = 0; i < 4; ++i)
    fleet.push_back(
        sim::VehicleMotion::scripted({{i * 60.0, 0}, {5000 + i * 60.0, 0}}, 15.0));
  const sim::SimResult world =
      sim::TrafficSimulator(std::move(open), sim_cfg, std::move(fleet)).run();

  ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  ViewMapService service(cfg);
  for (const auto& rec : world.profiles) {
    if (rec.creator == 0)
      ASSERT_TRUE(service.register_trusted(rec.profile));
    else
      service.upload_channel().submit(rec.profile.serialize());
  }
  ASSERT_EQ(service.ingest_uploads(), 3u);

  const geo::Rect site{{0, -50}, {1200, 50}};
  const InvestigationReport built = service.investigate(site, 0);
  const InvestigationReport served = service.investigate(site, 0);
  ASSERT_EQ(service.result_cache().stats().hits, 1u);
  ASSERT_FALSE(built.viewmap.graph().edges().empty());
  EXPECT_EQ(served.viewmap.graph().edges().data(), built.viewmap.graph().edges().data());
  EXPECT_EQ(fingerprint(served), fingerprint(built));
}

TEST(ResultCacheProperty, FortyStepInterleavingIsBitIdenticalToCacheOff) {
  // Two services, identical in everything except the cache switch, fed
  // byte-identical inputs through 40 random steps of
  // {ingest, advance_clock(evict), investigate, investigate-again}.
  // Every investigation must agree between the two — same report
  // fingerprint or the same builder refusal — while the cache-on side
  // takes real hits and stays inside its byte budget.
  ServiceConfig on_cfg;
  on_cfg.rsa_bits = 1024;
  on_cfg.result_cache.capacity_bytes = 2048;  // small: force LRU turnover
  on_cfg.index.retention.window_sec = 300;    // 5 minutes: eviction in-play
  ServiceConfig off_cfg = on_cfg;
  off_cfg.result_cache.capacity_bytes = 0;
  ViewMapService on(on_cfg);
  ViewMapService off(off_cfg);

  Rng rng(177);
  constexpr int kMinutes = 8;
  for (int m = 0; m < kMinutes; ++m) {
    const auto trusted = attack::make_fake_profile(
        m * kUnitTimeSec, {0, 0}, {900, 0}, rng);
    ASSERT_TRUE(on.register_trusted(trusted));
    ASSERT_TRUE(off.register_trusted(trusted));
  }
  const std::vector<geo::Rect> sites = {
      {{0, -50}, {400, 50}}, {{200, -50}, {700, 50}}, {{500, -50}, {1000, 50}}};
  TimeSec now = kMinutes * kUnitTimeSec;
  on.advance_clock(now);
  off.advance_clock(now);

  const auto investigate_both = [&](const geo::Rect& site, TimeSec t) {
    std::uint64_t fp_on = 0, fp_off = 0;
    bool threw_on = false, threw_off = false;
    try {
      fp_on = fingerprint(on.investigate(site, t));
    } catch (const std::runtime_error&) {
      threw_on = true;
    }
    try {
      fp_off = fingerprint(off.investigate(site, t));
    } catch (const std::runtime_error&) {
      threw_off = true;
    }
    ASSERT_EQ(threw_on, threw_off) << "site.max.x=" << site.max.x << " t=" << t;
    if (!threw_on)
      ASSERT_EQ(fp_on, fp_off) << "site.max.x=" << site.max.x << " t=" << t;
  };

  for (int step = 0; step < 40; ++step) {
    switch (rng.index(4)) {
      case 0: {  // ingest: same serialized bytes into both channels
        const TimeSec minute = static_cast<TimeSec>(rng.index(kMinutes)) * kUnitTimeSec;
        for (int i = 0; i < 3; ++i) {
          const double x = rng.uniform(0.0, 600.0);
          const auto vp = attack::make_fake_profile(
              minute, {x, rng.uniform(-20.0, 20.0)}, {x + 350, 0}, rng);
          const auto bytes = vp.serialize();
          on.upload_channel().submit(bytes);
          off.upload_channel().submit(bytes);
        }
        ASSERT_EQ(on.ingest_uploads(), off.ingest_uploads());
        break;
      }
      case 1:  // advance the trusted clock: retention eviction fires
        now += kUnitTimeSec;
        on.advance_clock(now);
        off.advance_clock(now);
        break;
      default: {  // investigate the same key twice: miss-then-hit on the
                  // cache side whenever the build succeeds
        const geo::Rect& site = sites[rng.index(sites.size())];
        const TimeSec t = static_cast<TimeSec>(rng.index(kMinutes)) * kUnitTimeSec;
        investigate_both(site, t);
        investigate_both(site, t);
        break;
      }
    }
    EXPECT_LE(on.result_cache().stats().resident_bytes,
              on_cfg.result_cache.capacity_bytes);
  }

  // The run must have exercised the cache for the property to mean
  // anything: real hits, real misses, and both boards agreeing on the
  // full set of solicited videos.
  const auto s = on.result_cache().stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  const auto posted_on = on.board().posted(RequestKind::kVideo);
  const auto posted_off = off.board().posted(RequestKind::kVideo);
  const std::unordered_set<Id16, Id16Hasher> set_on(posted_on.begin(), posted_on.end());
  const std::unordered_set<Id16, Id16Hasher> set_off(posted_off.begin(),
                                                     posted_off.end());
  EXPECT_EQ(set_on, set_off);
  EXPECT_EQ(off.result_cache().stats().hits, 0u);  // the control stayed cold
}

// ── TSan: cache hits racing live ingest + retention eviction ─────────

TEST(ResultCacheConcurrent, HitsRaceLiveIngestAndEviction) {
  ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  cfg.result_cache.capacity_bytes = 16 * 1024;  // small: eviction under race
  cfg.index.retention.window_sec = 240;
  ViewMapService service(cfg);

  Rng seed_rng(41);
  constexpr int kMinutes = 6;
  for (int m = 0; m < kMinutes; ++m)
    ASSERT_TRUE(service.register_trusted(attack::make_fake_profile(
        m * kUnitTimeSec, {0, 0}, {900, 0}, seed_rng)));
  service.advance_clock(kMinutes * kUnitTimeSec);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> served{0};
  std::array<std::atomic<bool>, 2> reader_served{};  // each has served one
  const geo::Rect site{{0, -50}, {800, 50}};

  // Two investigators hammer a rotating key set — hits, misses, inserts,
  // and LRU evictions all race each other...
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r)
    readers.emplace_back([&service, &stop, &served, &reader_served, &site, r] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const TimeSec t = ((i + r) % kMinutes) * kUnitTimeSec;
        try {
          const auto report = service.investigate(site, t);
          if (report.viewmap.size() > 0) {
            served.fetch_add(1);
            reader_served[r].store(true);
          }
        } catch (const std::runtime_error&) {
          // minute evicted mid-run: acceptable, the key just went stale
        }
      }
    });
  const auto each_reader_served = [&reader_served] {
    return reader_served[0].load() && reader_served[1].load();
  };

  // ...while the single control thread keeps ingesting into the same
  // minutes (shard change-keys churn ⇒ cache keys go stale) and advances the
  // retention clock (shards evict under the readers). The clock walks past
  // every minute within the 40 rounds, so it holds still until each reader
  // has served a report — on a loaded host the rounds can otherwise finish
  // before either reader completes one investigation. The wait is capped
  // (~5 s) so a wedged reader fails the assertions below instead of hanging.
  Rng rng(43);
  for (int k = 0; k < 40; ++k) {
    const TimeSec minute = static_cast<TimeSec>(rng.index(kMinutes)) * kUnitTimeSec;
    for (int i = 0; i < 2; ++i) {
      const double x = rng.uniform(0.0, 500.0);
      service.upload_channel().submit(
          attack::make_fake_profile(minute, {x, 0}, {x + 300, 0}, rng).serialize());
    }
    service.ingest_uploads();
    for (int waits = 0; !each_reader_served() && waits < 5000; ++waits)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.advance_clock(kMinutes * kUnitTimeSec + k * 10);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(served.load(), 0u);
  const auto s = service.result_cache().stats();
  EXPECT_LE(s.resident_bytes, cfg.result_cache.capacity_bytes);
  EXPECT_GT(s.hits + s.misses, 0u);
}

}  // namespace
}  // namespace viewmap::sys
