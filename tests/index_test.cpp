// Unit + property tests: sharded timeline queries, retention eviction,
// and the concurrent ingest engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "attack/fake_vp.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "index/ingest_engine.h"
#include "index/timeline.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace viewmap::index {
namespace {

using Admission = VpTimeline::Admission;
constexpr auto kAccepted = Admission::kAccepted;

/// Cheap structurally-valid VP: straight line over one minute. Same
/// generator the attack experiments use, so it passes vp::well_formed.
vp::ViewProfile straight_vp(TimeSec unit, geo::Vec2 start, geo::Vec2 end, Rng& rng) {
  return attack::make_fake_profile(unit, start, end, rng);
}

vp::ViewProfile random_vp(TimeSec unit, double extent, Rng& rng) {
  const geo::Vec2 start{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
  const geo::Vec2 end{start.x + rng.uniform(-1500.0, 1500.0),
                      start.y + rng.uniform(-1500.0, 1500.0)};
  return straight_vp(unit, start, end, rng);
}

/// The pre-index query algorithm, verbatim: linear scan of everything.
std::vector<Id16> linear_scan_ids(const DbSnapshot& snap, TimeSec unit_time,
                                  const geo::Rect& area) {
  std::vector<Id16> out;
  for (const auto* profile : snap.all())
    if (profile->unit_time() == unit_time && profile->visits(area))
      out.push_back(profile->vp_id());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Id16> ids_of(const std::vector<const vp::ViewProfile*>& profiles) {
  std::vector<Id16> out;
  out.reserve(profiles.size());
  for (const auto* p : profiles) out.push_back(p->vp_id());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(VpTimelineProperty, QueryMatchesLinearScanOnRandomWorkloads) {
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    Rng rng(seed);
    VpTimeline db;
    const int minutes = 5;
    for (int i = 0; i < 300; ++i) {
      const TimeSec unit = kUnitTimeSec * rng.index(static_cast<std::size_t>(minutes));
      auto profile = random_vp(unit, 4000.0, rng);
      const bool trusted = rng.index(10) == 0;
      ASSERT_EQ(db.upload(std::move(profile), trusted), kAccepted);
    }

    const DbSnapshot snap = db.snapshot();
    for (int q = 0; q < 200; ++q) {
      const TimeSec unit = kUnitTimeSec * rng.index(static_cast<std::size_t>(minutes + 1));
      const geo::Vec2 c{rng.uniform(-4500.0, 4500.0), rng.uniform(-4500.0, 4500.0)};
      const double half = rng.uniform(10.0, 2000.0);
      const geo::Rect area{{c.x - half, c.y - half}, {c.x + half, c.y + half}};

      const auto indexed = snap.query(unit, area);
      EXPECT_EQ(ids_of(indexed), linear_scan_ids(snap, unit, area));
      // Results are id-ordered (deterministic across runs).
      for (std::size_t i = 1; i < indexed.size(); ++i)
        EXPECT_TRUE(indexed[i - 1]->vp_id() < indexed[i]->vp_id());
    }

    // Edge-case areas, in every minute plus ones with no shard: an
    // inverted rect, a zero-area rect on a claimed position, a rect at
    // a trajectory's exact extent, and the whole world.
    const vp::ViewProfile& some = *snap.all().front();
    const geo::Vec2 at = some.location_at(30);
    const geo::Vec2 from = some.location_at(0);
    const geo::Vec2 to = some.location_at(kDigestsPerProfile - 1);
    const std::vector<geo::Rect> special{
        {{100.0, 100.0}, {-100.0, -100.0}},
        {at, at},
        {{std::min(from.x, to.x), std::min(from.y, to.y)},
         {std::max(from.x, to.x), std::max(from.y, to.y)}},
        {{-1e300, -1e300}, {1e300, 1e300}},
    };
    for (int m = -1; m <= minutes; ++m)
      for (const geo::Rect& area : special)
        EXPECT_EQ(ids_of(snap.query(m * kUnitTimeSec, area)),
                  linear_scan_ids(snap, m * kUnitTimeSec, area));
    EXPECT_FALSE(snap.query(some.unit_time(), special[1]).empty());
    EXPECT_TRUE(snap.query(some.unit_time(), special[0]).empty());
    EXPECT_TRUE(snap.query(minutes * kUnitTimeSec, special[3]).empty());

    // Whole-world queries per minute partition all().
    std::size_t total = 0;
    const geo::Rect everywhere{{-1e7, -1e7}, {1e7, 1e7}};
    for (int m = 0; m < minutes; ++m)
      total += snap.query(m * kUnitTimeSec, everywhere).size();
    EXPECT_EQ(total, snap.size());
  }
}

TEST(VpTimeline, TrustedSetSemantics) {
  Rng rng(20);
  VpTimeline db;
  auto trusted = random_vp(0, 1000.0, rng);
  auto plain = random_vp(0, 1000.0, rng);
  const Id16 trusted_id = trusted.vp_id();
  const Id16 plain_id = plain.vp_id();
  ASSERT_EQ(db.upload(std::move(trusted), true), kAccepted);
  ASSERT_EQ(db.upload(std::move(plain), false), kAccepted);

  const DbSnapshot snap = db.snapshot();
  EXPECT_TRUE(db.is_trusted(trusted_id));
  EXPECT_FALSE(db.is_trusted(plain_id));
  EXPECT_EQ(db.trusted_count(), 1u);
  const auto trusted_list = snap.trusted_at(0);
  ASSERT_EQ(trusted_list.size(), 1u);
  EXPECT_EQ(trusted_list.front()->vp_id(), trusted_id);
  // Live and snapshot trust views agree for every stored VP (the old
  // map<Id,bool> representation could make them disagree).
  for (const auto* p : snap.all()) {
    const bool listed = std::find(trusted_list.begin(), trusted_list.end(), p) !=
                        trusted_list.end();
    EXPECT_EQ(db.is_trusted(p->vp_id()), listed);
    EXPECT_EQ(snap.is_trusted(p->vp_id()), listed);
  }
}

TEST(VpTimeline, RetentionEvictsWholeShards) {
  Rng rng(30);
  TimelineConfig cfg;
  cfg.retention.window_sec = 2 * kUnitTimeSec;  // keep latest two minutes
  VpTimeline timeline(cfg);

  std::vector<Id16> minute0_ids;
  for (int i = 0; i < 10; ++i) {
    auto p = random_vp(0, 1000.0, rng);
    minute0_ids.push_back(p.vp_id());
    ASSERT_EQ(timeline.upload(std::move(p), i == 0), kAccepted);  // one trusted
  }
  auto p60 = random_vp(60, 1000.0, rng);
  const Id16 id60 = p60.vp_id();
  ASSERT_EQ(timeline.upload(std::move(p60), false), kAccepted);
  EXPECT_EQ(timeline.size(), 11u);
  EXPECT_EQ(timeline.trusted_count(), 1u);
  EXPECT_EQ(timeline.trusted_now(), 0);  // trusted insert set the clock
  EXPECT_EQ(timeline.enforce_retention(), 0u);  // everything within window

  auto p180 = random_vp(180, 1000.0, rng);
  ASSERT_EQ(timeline.upload(std::move(p180), false), kAccepted);
  // An anonymous insert never advances the retention clock...
  EXPECT_EQ(timeline.trusted_now(), 0);
  EXPECT_EQ(timeline.enforce_retention(), 0u);
  // ...the operator's clock does. now = 180, cutoff = 60: the minute-0
  // shard (trusted VP included) must vanish in one whole-shard eviction.
  timeline.advance_clock(180);
  EXPECT_EQ(timeline.enforce_retention(), 10u);
  EXPECT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.trusted_count(), 0u);
  EXPECT_EQ(timeline.shard_stats().size(), 2u);
  for (const auto& id : minute0_ids) {
    EXPECT_EQ(timeline.find(id), nullptr);
    EXPECT_FALSE(timeline.is_trusted(id));
  }
  EXPECT_NE(timeline.find(id60), nullptr);
  EXPECT_TRUE(timeline.snapshot().query(0, {{-1e6, -1e6}, {1e6, 1e6}}).empty());

  // Eviction released the evicted ids: an upload reusing one must be
  // accepted. (Minute 0 itself is now outside the window, so the
  // reuse claims a minute the screen still admits.)
  Rng rng2(30);  // same seed → same first id, whatever the minute
  auto again = random_vp(180, 1000.0, rng2);
  ASSERT_EQ(again.vp_id(), minute0_ids[0]);
  EXPECT_EQ(timeline.upload(std::move(again), false), kAccepted);
  EXPECT_NE(timeline.find(minute0_ids[0]), nullptr);
}

TEST(VpTimeline, RetentionIgnoresAnonymousClaims) {
  Rng rng(35);
  TimelineConfig cfg;
  cfg.retention.window_sec = 2 * kUnitTimeSec;
  VpTimeline timeline(cfg);
  for (int i = 0; i < 10; ++i)
    ASSERT_EQ(timeline.upload(random_vp(0, 1000.0, rng), false), kAccepted);

  // The anonymous-attacker eviction vector: a well-formed upload claiming
  // a far-future minute must not age out anyone else's shards.
  ASSERT_EQ(timeline.upload(random_vp(1'000'000'000'000LL, 1000.0, rng), false), kAccepted);
  EXPECT_FALSE(timeline.has_trusted_clock());
  EXPECT_EQ(timeline.enforce_retention(), 0u);  // no trusted clock, no eviction
  EXPECT_EQ(timeline.size(), 11u);

  // Once the clock is set, the far-future junk admitted while it was
  // unset is reclaimed (otherwise it would sit beyond every future cutoff
  // forever); the minute-0 shard is inside the window and stays.
  timeline.advance_clock(60);
  EXPECT_EQ(timeline.enforce_retention(), 1u);
  EXPECT_EQ(timeline.size(), 10u);

  // reset_clock is the operator's non-monotonic escape hatch (a poisoned
  // clock cannot be walked back via advance_clock), and a clock at the
  // representable floor must saturate, not wrap (UB).
  timeline.reset_clock(std::numeric_limits<TimeSec>::min() + 1);
  EXPECT_EQ(timeline.trusted_now(), std::numeric_limits<TimeSec>::min() + 1);
  EXPECT_EQ(timeline.enforce_retention(), 10u);  // everything implausibly new now
  EXPECT_EQ(timeline.size(), 0u);
}

TEST(VpTimeline, AdmissionScreenBoundsAnonymousTimestamps) {
  Rng rng(36);
  TimelineConfig cfg;
  cfg.retention.window_sec = 2 * kUnitTimeSec;
  cfg.retention.max_future_skew_sec = kUnitTimeSec;
  VpTimeline db(cfg);

  // No trusted reference yet: every claim is admissible.
  ASSERT_EQ(db.upload(random_vp(0, 1000.0, rng), false), kAccepted);

  auto authority = random_vp(600, 1000.0, rng);
  ASSERT_EQ(db.upload(std::move(authority), true), kAccepted);
  EXPECT_EQ(db.trusted_now(), 600);

  EXPECT_EQ(db.upload(random_vp(600 + kUnitTimeSec, 1000.0, rng), false),
            kAccepted);  // at skew edge
  EXPECT_EQ(db.upload(random_vp(600 - 2 * kUnitTimeSec, 1000.0, rng), false),
            kAccepted);  // at window edge
  EXPECT_EQ(db.upload(random_vp(600 + 2 * kUnitTimeSec, 1000.0, rng), false),
            Admission::kUntimely);  // too new
  EXPECT_EQ(db.upload(random_vp(600 - 3 * kUnitTimeSec, 1000.0, rng), false),
            Admission::kUntimely);  // too old
  EXPECT_EQ(db.size(), 4u);

  // Retention measures from the same trusted clock: only the pre-clock
  // minute-0 VP has aged out.
  EXPECT_EQ(db.enforce_retention(), 1u);
  EXPECT_EQ(db.size(), 3u);
}

TEST(VpTimeline, EvictionReleasesEveryEvictedId) {
  Rng rng(40);
  VpTimeline timeline;
  // Many VPs in an old minute, then few in a new one: eviction must
  // release every old id and keep every new one.
  std::vector<Id16> old_ids;
  for (int i = 0; i < 200; ++i) {
    auto p = random_vp(0, 2000.0, rng);
    old_ids.push_back(p.vp_id());
    ASSERT_EQ(timeline.upload(std::move(p), false), kAccepted);
  }
  std::vector<Id16> new_ids;
  for (int i = 0; i < 5; ++i) {
    auto p = random_vp(600, 2000.0, rng);
    new_ids.push_back(p.vp_id());
    ASSERT_EQ(timeline.upload(std::move(p), false), kAccepted);
  }
  EXPECT_EQ(timeline.evict_older_than(600), 200u);
  EXPECT_EQ(timeline.size(), 5u);
  for (const auto& id : old_ids) EXPECT_EQ(timeline.find(id), nullptr);
  for (const auto& id : new_ids) EXPECT_NE(timeline.find(id), nullptr);

  // Every released id may be uploaded again: the same seed regenerates the
  // same 200 ids, now claiming a minute the screen still admits.
  Rng again(40);
  for (const auto& id : old_ids) {
    auto p = random_vp(1200, 2000.0, again);
    ASSERT_EQ(p.vp_id(), id);
    EXPECT_EQ(timeline.upload(std::move(p), false), kAccepted);
  }
  EXPECT_EQ(timeline.size(), 205u);
}

TEST(IngestEngine, StatsAndDuplicateScreen) {
  Rng rng(50);
  VpTimeline db;
  // Past the inline cutoff (64 payloads), so four tasks commit at once.
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 80; ++i) payloads.push_back(random_vp(0, 2000.0, rng).serialize());
  payloads.push_back(payloads.front());      // duplicate id
  payloads.push_back({0xde, 0xad, 0xbe});    // malformed

  obs::MetricsRegistry registry;
  common::WorkerPool pool(4);
  IngestEngine engine(db, IngestMetrics::wire(registry), pool);
  const auto stats = engine.ingest(std::move(payloads));
  EXPECT_EQ(stats.accepted, 80u);
  EXPECT_EQ(stats.rejected_duplicate, 1u);
  EXPECT_EQ(stats.rejected_malformed, 1u);
  EXPECT_EQ(db.size(), 80u);
  // The running totals live in the registry the engine publishes into.
  const IngestStats totals = IngestMetrics::wire(registry).totals();
  EXPECT_EQ(totals.accepted, 80u);
  EXPECT_EQ(totals.rejected_duplicate, 1u);
  EXPECT_EQ(totals.rejected_malformed, 1u);
  EXPECT_EQ(totals.batches, 1u);
}

TEST(IngestEngine, FarFutureAnonymousBatchCannotEvictRealShards) {
  Rng rng(55);
  TimelineConfig tl_cfg;
  tl_cfg.retention.window_sec = 2 * kUnitTimeSec;
  VpTimeline db(tl_cfg);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(db.upload(random_vp(0, 2000.0, rng), false), kAccepted);
  ASSERT_EQ(db.upload(random_vp(60, 2000.0, rng), true), kAccepted);  // clock = 60

  // The batch path enforces retention after every ingest; a far-future
  // anonymous claim must be screened out, not advance the cutoff — also
  // when it races 64 plausible uploads through a parallel batch.
  common::WorkerPool pool(2);
  IngestEngine engine(db, {}, pool);
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.push_back(random_vp(1'000'000'000'000LL, 2000.0, rng).serialize());
  for (int i = 0; i < 64; ++i)
    payloads.push_back(random_vp(0, 2000.0, rng).serialize());  // still plausible
  const auto stats = engine.ingest(std::move(payloads));
  EXPECT_EQ(stats.rejected_untimely, 1u);
  EXPECT_EQ(stats.accepted, 64u);
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(db.size(), 75u);
  EXPECT_EQ(db.trusted_now(), 60);
}

TEST(IngestEngine, ThreadCountDoesNotChangeTheOutcome) {
  Rng rng(60);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 200; ++i) {
    const TimeSec unit = kUnitTimeSec * rng.index(4);
    payloads.push_back(random_vp(unit, 3000.0, rng).serialize());
  }
  // Every fourth payload duplicated: the duplicates lose regardless of
  // which worker wins the race.
  for (std::size_t i = 0; i < 200; i += 4) payloads.push_back(payloads[i]);

  // Serial reference: one VpTimeline::upload per payload.
  VpTimeline serial;
  for (const auto& payload : payloads) serial.upload(vp::ViewProfile::parse(payload), false);
  const std::vector<Id16> reference = ids_of(serial.snapshot().all());
  for (unsigned width : {1u, 2u, 8u}) {
    VpTimeline db;
    common::WorkerPool pool(width);
    IngestEngine engine(db, {}, pool);
    const auto stats = engine.ingest(payloads);
    EXPECT_EQ(stats.accepted, 200u);
    EXPECT_EQ(stats.rejected_duplicate, 50u);
    EXPECT_EQ(ids_of(db.snapshot().all()), reference) << "pool width " << width;
  }
}

TEST(IngestEngine, ConcurrentInsertsOnOneTimelineAreSafe) {
  Rng rng(70);
  // Shared duplicates contended by every thread plus a private set each.
  std::vector<vp::ViewProfile> shared;
  for (int i = 0; i < 50; ++i) shared.push_back(random_vp(0, 3000.0, rng));

  VpTimeline timeline;
  constexpr int kThreads = 4;
  std::vector<std::vector<vp::ViewProfile>> private_sets(kThreads);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < 100; ++i)
      private_sets[static_cast<std::size_t>(t)].push_back(
          random_vp(kUnitTimeSec * (t % 3), 3000.0, rng));

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      for (auto& p : private_sets[static_cast<std::size_t>(t)])
        EXPECT_EQ(timeline.upload(std::move(p), false), kAccepted);
      for (const auto& p : shared) timeline.upload(p, false);  // racing duplicates
    });
  for (auto& th : pool) th.join();

  EXPECT_EQ(timeline.size(), static_cast<std::size_t>(kThreads * 100 + 50));
  for (const auto& p : shared) EXPECT_NE(timeline.find(p.vp_id()), nullptr);
}

TEST(VpTimeline, EvictionConcurrentWithInsertKeepsCountersSane) {
  Rng rng(45);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 80;
  std::vector<std::vector<vp::ViewProfile>> sets(kThreads);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      sets[static_cast<std::size_t>(t)].push_back(
          random_vp(kUnitTimeSec * (i % 6), 2000.0, rng));
  const auto copies = sets;  // for the re-uploads after the race

  VpTimeline timeline;
  std::atomic<bool> done{false};
  std::thread evictor([&] {
    while (!done.load()) timeline.evict_older_than(3 * kUnitTimeSec);
    timeline.evict_older_than(3 * kUnitTimeSec);
  });
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      for (auto& p : sets[static_cast<std::size_t>(t)])
        timeline.upload(std::move(p), false);
    });
  for (auto& th : pool) th.join();
  done.store(true);
  evictor.join();

  // Every survivor is in minutes [3, 6); the counters match a full walk
  // (a transient counter wrap would leave size() astronomically large).
  const DbSnapshot snap = timeline.snapshot();
  const auto survivors = snap.all();
  EXPECT_EQ(timeline.size(), survivors.size());
  EXPECT_LE(timeline.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto* p : survivors) EXPECT_GE(p->unit_time(), 3 * kUnitTimeSec);

  // The id map agrees with the shards: an id resolves exactly when the
  // final snapshot holds its profile, so no evicted id was left claimed.
  const std::vector<Id16> held = ids_of(survivors);
  for (const auto& set : copies)
    for (const auto& p : set)
      EXPECT_EQ(timeline.find(p.vp_id()) != nullptr,
                std::binary_search(held.begin(), held.end(), p.vp_id()));
  // Every evicted id re-uploads; every survivor is still a duplicate.
  for (const auto& set : copies)
    for (const auto& p : set) {
      const bool survived = std::binary_search(held.begin(), held.end(), p.vp_id());
      EXPECT_EQ(timeline.upload(p, false), survived ? Admission::kDuplicate : kAccepted);
    }
}

TEST(IngestEngine, DrainsSimulatedTrafficLikeTheSerialPath) {
  road::GridCityConfig ccfg;
  ccfg.extent_m = 1000.0;
  Rng city_rng(80);
  auto city = road::make_grid_city(ccfg, city_rng);
  sim::SimConfig scfg;
  scfg.seed = 81;
  scfg.vehicle_count = 40;
  scfg.minutes = 2;
  scfg.video_bytes_per_second = 8;
  sim::TrafficSimulator simulator(std::move(city), scfg);
  const auto world = simulator.run();
  auto payloads = sim::upload_payloads(world);
  ASSERT_GE(payloads.size(), 64u);  // a parallel batch, not the inline path

  // Serial reference: one VpTimeline::upload per payload, tallied by
  // outcome.
  VpTimeline reference;
  std::map<Admission, std::size_t> reference_outcomes;
  for (const auto& payload : payloads)
    ++reference_outcomes[reference.upload(vp::ViewProfile::parse(payload), false)];

  VpTimeline db;
  common::WorkerPool pool(4);
  IngestEngine engine(db, {}, pool);
  const auto stats = engine.ingest(std::move(payloads));
  EXPECT_EQ(stats.accepted, reference_outcomes[kAccepted]);
  EXPECT_EQ(stats.rejected_malformed, reference_outcomes[Admission::kMalformed]);
  EXPECT_EQ(stats.rejected_untimely, reference_outcomes[Admission::kUntimely]);
  EXPECT_EQ(stats.rejected_duplicate, reference_outcomes[Admission::kDuplicate]);
  EXPECT_EQ(ids_of(db.snapshot().all()), ids_of(reference.snapshot().all()));
}

}  // namespace
}  // namespace viewmap::index
