// InvestigationServer + concurrent NoticeBoard: the multi-threaded
// investigation front. Covers the NoticeBoard multi-writer contract (no
// lost or duplicated notices), queue backpressure (bounded queue full →
// reject vs block, both observable), per-request snapshot pinning, and
// the tentpole TSan stress: N workers
// investigating against a live ingest + retention-eviction loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "attack/fake_vp.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "system/investigation_server.h"
#include "system/service.h"

namespace viewmap::sys {
namespace {

Id16 id_of(int n) {
  Id16 id{};
  id.bytes[0] = static_cast<std::uint8_t>(n & 0xff);
  id.bytes[1] = static_cast<std::uint8_t>((n >> 8) & 0xff);
  return id;
}

TEST(NoticeBoardConcurrent, MultiWriterPostsAreNeitherLostNorDuplicated) {
  // 4 writers post 200 disjoint video requests each, and all 4 also post
  // the same 50 shared ids (idempotent re-posts racing each other).
  NoticeBoard board;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200;
  constexpr int kShared = 50;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&board, w] {
      for (int i = 0; i < kPerWriter; ++i)
        board.post(id_of(1000 + w * kPerWriter + i), RequestKind::kVideo);
      for (int i = 0; i < kShared; ++i) board.post(id_of(i), RequestKind::kVideo);
    });
  for (auto& t : writers) t.join();

  const auto posted = board.posted(RequestKind::kVideo);
  // Every notice present exactly once: no lost posts, no duplicates.
  EXPECT_EQ(posted.size(), static_cast<std::size_t>(kWriters * kPerWriter + kShared));
  std::unordered_set<Id16, Id16Hasher> unique(posted.begin(), posted.end());
  EXPECT_EQ(unique.size(), posted.size());
  for (int i = 0; i < kShared; ++i)
    EXPECT_TRUE(board.is_posted(id_of(i), RequestKind::kVideo));
  for (int w = 0; w < kWriters; ++w)
    for (int i = 0; i < kPerWriter; ++i)
      EXPECT_TRUE(board.is_posted(id_of(1000 + w * kPerWriter + i), RequestKind::kVideo));
}

TEST(NoticeBoardConcurrent, PostWithdrawPollRace) {
  // TSan target: posters, a withdrawer, and anonymous pollers all racing.
  // Kinds are independent flags under one entry, so a video withdraw must
  // never drop a reward notice committed by another thread.
  NoticeBoard board;
  constexpr int kIds = 300;
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      (void)board.posted(RequestKind::kVideo);
      (void)board.is_posted(id_of(1), RequestKind::kReward);
    }
  });
  std::thread video_writer([&] {
    for (int i = 0; i < kIds; ++i) board.post(id_of(i), RequestKind::kVideo);
  });
  std::thread reward_writer([&] {
    for (int i = 0; i < kIds; ++i) board.post(id_of(i), RequestKind::kReward);
  });
  video_writer.join();
  std::thread withdrawer([&] {
    for (int i = 0; i < kIds; i += 2) board.withdraw(id_of(i), RequestKind::kVideo);
  });
  reward_writer.join();
  withdrawer.join();
  stop.store(true);
  poller.join();

  EXPECT_EQ(board.posted(RequestKind::kReward).size(), static_cast<std::size_t>(kIds));
  EXPECT_EQ(board.posted(RequestKind::kVideo).size(), static_cast<std::size_t>(kIds / 2));
}

/// A convoy world (as in service_test): 4 vehicles exchanging VDs, so
/// viewlinks are real and investigations actually solicit videos.
struct ConvoyWorld {
  ConvoyWorld() {
    sim::SimConfig cfg;
    cfg.seed = 5;
    cfg.vehicle_count = 0;
    cfg.minutes = 1;
    cfg.guards_enabled = false;
    cfg.video_bytes_per_second = 32;
    road::CityMap open;
    open.bounds = {{0, -100}, {5000, 100}};
    std::vector<sim::VehicleMotion> fleet;
    for (int i = 0; i < 4; ++i)
      fleet.push_back(
          sim::VehicleMotion::scripted({{i * 60.0, 0}, {5000 + i * 60.0, 0}}, 15.0));
    sim::TrafficSimulator sim(std::move(open), cfg, std::move(fleet));
    result = sim.run();
  }
  [[nodiscard]] const sim::ProfileRecord& record_of(VehicleId v) const {
    for (const auto& rec : result.profiles)
      if (!rec.guard && rec.creator == v) return rec;
    throw std::logic_error("no record");
  }
  sim::SimResult result;
};

ServiceConfig small_cfg() {
  ServiceConfig cfg;
  cfg.rsa_bits = 1024;  // test speed
  return cfg;
}

TEST(InvestigationServer, ServesRequestsAndPostsSolicitationsConcurrently) {
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);
  for (VehicleId v = 1; v < 4; ++v)
    service.upload_channel().submit(world.record_of(v).profile.serialize());
  service.ingest_uploads();

  ServerConfig scfg;
  scfg.workers = 3;
  auto& server = service.start_server(scfg);
  ASSERT_EQ(service.server(), &server);
  EXPECT_EQ(server.worker_count(), 3u);

  // Many submitters racing: every request resolves to the same verdict a
  // direct investigate() produces, and all solicitations land on the
  // board (workers post concurrently).
  const geo::Rect site{{0, -50}, {1200, 50}};
  std::vector<std::future<InvestigationServer::Reports>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(server.submit(site, 0));
  // A period spanning minutes [0, 3): only minute 0 has a trust seed.
  futures.push_back(server.submit_period(site, 0, 3 * kUnitTimeSec));

  for (auto& fut : futures) {
    ASSERT_TRUE(fut.valid());
    auto reports = fut.get();
    ASSERT_EQ(reports.size(), 1u);  // exactly the seeded minute
    EXPECT_EQ(reports[0].viewmap.size(), 4u);
    EXPECT_EQ(reports[0].verification.legitimate.size(), 4u);
    EXPECT_EQ(reports[0].solicited.size(), 3u);
    for (const Id16& id : reports[0].solicited)
      EXPECT_TRUE(service.board().is_posted(id, RequestKind::kVideo));
  }
  EXPECT_EQ(service.board().posted(RequestKind::kVideo).size(), 3u);

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 13u);
  EXPECT_EQ(stats.completed, 13u);
  EXPECT_EQ(stats.reports, 13u);
  EXPECT_EQ(stats.rejected, 0u);
  service.stop_server();
  EXPECT_EQ(service.server(), nullptr);
}

TEST(InvestigationServer, FullQueueBlocksSubmitterUntilSlotFrees) {
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);

  ServerConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 1;
  auto& server = service.start_server(scfg);
  server.pause();

  const geo::Rect site{{0, -50}, {1200, 50}};
  auto f1 = server.submit(site, 0);
  ASSERT_TRUE(f1.valid());

  std::atomic<bool> enqueued{false};
  std::future<InvestigationServer::Reports> f2;
  std::thread submitter([&] {
    f2 = server.submit(site, 0);  // queue full → blocks until resume()
    enqueued.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(enqueued.load());   // still blocked behind the full queue
  EXPECT_EQ(server.queue_depth(), 1u);

  server.resume();  // worker drains → slot frees → submitter unblocks
  submitter.join();
  EXPECT_TRUE(enqueued.load());
  ASSERT_TRUE(f2.valid());
  EXPECT_EQ(f1.get().size(), 1u);
  EXPECT_EQ(f2.get().size(), 1u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.peak_queue, 1u);  // the blocked submit never overfilled it
}

TEST(InvestigationServer, EveryServedRequestPinsOneSnapshot) {
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);

  ServerConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 16;
  auto& server = service.start_server(scfg);
  server.pause();

  // A paused burst of four servable requests behind one that will have
  // expired by the time the worker reaches it.
  const geo::Rect site{{0, -50}, {1200, 50}};
  auto doomed = server.submit(site, 0, {.deadline = std::chrono::milliseconds(1)});
  std::vector<std::future<InvestigationServer::Reports>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.submit(site, 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.resume();
  EXPECT_THROW(doomed.get(), DeadlineExpired);
  for (auto& fut : futures) EXPECT_EQ(fut.get().size(), 1u);

  // One dequeue per request, even with the burst queued and the database
  // unchanged; one pin per served request; none for the expired one.
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.batches, 5u);
  EXPECT_EQ(stats.snapshots, 4u);
  EXPECT_EQ(stats.expired, 1u);
}

bool has_span(const obs::Trace& trace, std::string_view name) {
  for (const auto& span : trace.spans)
    if (span.name == name) return true;
  return false;
}

TEST(InvestigationServer, PriorityRequestsOvertakeQueuedBatchRequests) {
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);
  for (VehicleId v = 1; v < 4; ++v)
    service.upload_channel().submit(world.record_of(v).profile.serialize());
  service.ingest_uploads();

  ServerConfig scfg;
  scfg.workers = 1;
  auto& server = service.start_server(scfg);
  server.pause();  // queue deterministically before any serving starts

  // Four batch scans queue first, then one live request for the SAME
  // (site, minute) key. With the result cache on, serve ORDER is burned
  // into the traces: exactly one request — the first served — misses and
  // builds; everyone after it hits. If the live request overtook the
  // queue, the build trace is its.
  const geo::Rect site{{0, -50}, {1200, 50}};
  std::vector<std::future<InvestigationServer::Reports>> batch;
  for (int i = 0; i < 4; ++i)
    batch.push_back(server.submit(site, 0, {.priority = RequestPriority::kBatch}));
  auto live = server.submit(site, 0, {.priority = RequestPriority::kLive});
  ASSERT_TRUE(live.valid());
  server.resume();

  auto live_reports = live.get();
  ASSERT_EQ(live_reports.size(), 1u);
  EXPECT_FALSE(has_span(live_reports[0].trace, "result_cache_hit"))
      << "the live request was served behind the batch backlog";
  EXPECT_TRUE(has_span(live_reports[0].trace, "edge_build"));

  for (auto& fut : batch) {
    auto reports = fut.get();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(has_span(reports[0].trace, "result_cache_hit"));
    // Bit-identical to the live (miss) report's verdict, per the generation key.
    EXPECT_EQ(reports[0].solicited, live_reports[0].solicited);
    EXPECT_EQ(reports[0].verification.legitimate,
              live_reports[0].verification.legitimate);
  }
  EXPECT_GE(service.result_cache().stats().hits, 4u);
}

TEST(InvestigationServer, DeadlineExpiredRequestsFailFastAndDistinctly) {
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);

  ServerConfig scfg;
  scfg.workers = 1;
  auto& server = service.start_server(scfg);
  server.pause();

  const geo::Rect site{{0, -50}, {1200, 50}};
  auto doomed = server.submit(site, 0, {.deadline = std::chrono::milliseconds(1)});
  auto patient = server.submit(site, 0);  // no deadline: must still succeed
  ASSERT_TRUE(doomed.valid());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.resume();

  EXPECT_THROW(doomed.get(), DeadlineExpired);
  EXPECT_EQ(patient.get().size(), 1u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);  // expired requests still complete…
  EXPECT_EQ(stats.expired, 1u);    // …under their own distinct reason
  EXPECT_EQ(stats.failed, 0u);     // an expiry is not a serve failure
  EXPECT_EQ(stats.rejected, 0u);   // and not a queue rejection either
}

TEST(InvestigationServer, HugeDeadlinesSaturateInsteadOfExpiring) {
  // now() + deadline is kept in nanoseconds: a deadline of more than
  // ~292 years overflowed int64 and the request expired on arrival.
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);

  ServerConfig scfg;
  scfg.workers = 1;
  auto& server = service.start_server(scfg);

  const geo::Rect site{{0, -50}, {1200, 50}};
  for (const auto deadline :
       {std::chrono::milliseconds::max(),
        std::chrono::milliseconds(std::numeric_limits<std::int64_t>::max() / 2)}) {
    auto fut = server.submit(site, 0, {.deadline = deadline});
    ASSERT_TRUE(fut.valid());
    EXPECT_EQ(fut.get().size(), 1u);  // served, not DeadlineExpired
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.expired, 0u);
}

TEST(InvestigationServer, NonFiniteSiteFailsItsFutureAndTheNextRequestIsServed) {
  // A NaN or infinite site coordinate used to leave the builder without a
  // seed VP and take the whole process down; now each such request fails
  // its own future and the worker serves the next one.
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);
  for (VehicleId v = 1; v < 4; ++v)
    service.upload_channel().submit(world.record_of(v).profile.serialize());
  service.ingest_uploads();
  ServerConfig scfg;
  scfg.workers = 1;
  auto& server = service.start_server(scfg);

  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const geo::Rect site{{0, -50}, {1200, 50}};
  std::size_t bad_requests = 0;
  for (const double bad : {kNaN, kInf, -kInf})
    for (int corner = 0; corner < 4; ++corner) {
      geo::Rect bad_site = site;
      double* coords[] = {&bad_site.min.x, &bad_site.min.y, &bad_site.max.x, &bad_site.max.y};
      *coords[corner] = bad;
      auto doomed = corner % 2 == 0 ? server.submit(bad_site, 0)
                                    : server.submit_period(bad_site, 0, kUnitTimeSec);
      ASSERT_TRUE(doomed.valid());
      EXPECT_THROW(doomed.get(), std::invalid_argument);
      ++bad_requests;
      const auto served = server.submit(site, 0).get();
      ASSERT_EQ(served.size(), 1u);
      EXPECT_EQ(served[0].viewmap.size(), 4u);
    }

  // Finite, but so far away that every distance overflows: the first
  // trusted VP seeds the viewmap, and the request is served.
  const geo::Rect far{{-1.6e308, -1.6e308}, {-1.4e308, -1.4e308}};
  const auto far_reports = server.submit(far, 0).get();
  ASSERT_EQ(far_reports.size(), 1u);
  EXPECT_EQ(far_reports[0].viewmap.trusted_indices().size(), 1u);
  EXPECT_TRUE(far_reports[0].verification.site_members.empty());

  const auto stats = server.stats();
  EXPECT_EQ(stats.failed, bad_requests);
  EXPECT_EQ(stats.completed, 2 * bad_requests + 1);
}

TEST(InvestigationServer, SnapshotFailureIsCountedAndTimedNotSilent) {
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);

  ServerConfig scfg;
  scfg.workers = 1;
  auto& server = service.start_server(scfg);
  server.pause();

  const geo::Rect site{{0, -50}, {1200, 50}};
  auto f1 = server.submit(site, 0);
  auto f2 = server.submit(site, 0);
  failpoint::arm("server.snapshot", failpoint::Action::kError,
                 failpoint::Trigger::once());
  server.resume();

  // The failed pin fails exactly its own request; the next request is
  // served normally from its own snapshot.
  EXPECT_THROW(f1.get(), std::runtime_error);
  EXPECT_EQ(f2.get().size(), 1u);
  failpoint::disarm("server.snapshot");

  // A request dying at snapshot acquisition must look like
  // completed-and-failed — with its latency in the histogram — not like
  // silent success.
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.reports, 1u);
  EXPECT_EQ(stats.snapshots, 1u);
  const obs::Histogram* request_us =
      service.metrics().find_histogram("viewmap_server_request_us");
  ASSERT_NE(request_us, nullptr);
  EXPECT_EQ(request_us->snapshot().count, 2u);
}

TEST(InvestigationServer, SubmitAfterStopIsRejected) {
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);
  auto& server = service.start_server();
  server.stop();
  auto fut = server.submit({{0, -50}, {1200, 50}}, 0);
  EXPECT_FALSE(fut.valid());
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(InvestigationServer, StopDrainsQueuedRequests) {
  ConvoyWorld world;
  ViewMapService service(small_cfg());
  service.register_trusted(world.record_of(0).profile);
  ServerConfig scfg;
  scfg.workers = 2;
  auto& server = service.start_server(scfg);
  server.pause();
  const geo::Rect site{{0, -50}, {1200, 50}};
  std::vector<std::future<InvestigationServer::Reports>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.submit(site, 0));
  server.stop();  // overrides pause, serves everything already queued
  for (auto& fut : futures) EXPECT_EQ(fut.get().size(), 1u);
  EXPECT_EQ(server.stats().completed, 6u);
}

TEST(InvestigationServer, ConcurrentWithIngestAndEvictionStress) {
  // The tentpole TSan scenario: an N-worker server sustains concurrent
  // investigations (solicitations racing onto the NoticeBoard) while one
  // live ingest loop keeps committing anonymous uploads and the trusted
  // clock walks forward until retention evicts the oldest investigated
  // minutes out from under the workers. Every accepted request must
  // resolve; reports built from pinned snapshots stay valid throughout.
  Rng rng(21);
  ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  cfg.index.retention.window_sec = 3 * kUnitTimeSec;
  ViewMapService service(cfg);

  // Trust seeds for minutes 0–5, each crossing the investigation site.
  Rng trng(22);
  for (int m = 0; m < 6; ++m)
    ASSERT_TRUE(service.register_trusted(
        attack::make_fake_profile(m * kUnitTimeSec, {0.0, 0.0}, {300.0, 0.0}, trng)));
  service.reset_clock(0);  // registering minute 5 advanced the clock; rewind
  const geo::Rect site{{-400.0, -400.0}, {700.0, 400.0}};

  ServerConfig scfg;
  scfg.workers = 3;
  scfg.queue_capacity = 8;  // small: backpressure engages under the race
  auto& server = service.start_server(scfg);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> resolved{0};
  std::atomic<std::size_t> reports_seen{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s)
    submitters.emplace_back([&, s] {
      Rng srng(100 + s);
      while (!done.load()) {
        const TimeSec t = kUnitTimeSec * static_cast<TimeSec>(srng.index(6));
        auto fut = (srng.index(4) == 0)
                       ? server.submit_period(site, t, t + 2 * kUnitTimeSec)
                       : server.submit(site, t);
        if (!fut.valid()) continue;  // raced a full queue after stop? only stop rejects
        const auto reports = fut.get();
        resolved.fetch_add(1);
        reports_seen.fetch_add(reports.size());
        for (const auto& report : reports) {
          // A pinned snapshot behind every report: members stay readable
          // even after their shard is evicted from the live timeline.
          EXPECT_GE(report.viewmap.size(), 1u);
          for (std::size_t i = 0; i < report.viewmap.size(); ++i)
            EXPECT_EQ(report.viewmap.member(i).unit_time(), report.viewmap.unit_time());
        }
      }
    });

  // The live ingest loop: anonymous uploads for a sliding window of
  // minutes while the trusted clock advances, so retention (run per
  // ingest batch) evicts minutes 0–2 beneath the investigators (the walk
  // is capped so minutes 3–5 keep their seeds and investigations keep
  // producing reports). The loop runs until the submitters have resolved
  // a healthy number of requests — on a 1-core host they only make
  // progress when this thread cedes the CPU. Each round is one 64-upload
  // batch, the size at which the engine commits on several pool tasks.
  Rng urng(23);
  std::size_t rounds = 0;
  while (rounds < 25 || (resolved.load() < 20 && rounds < 5000)) {
    const TimeSec base = kUnitTimeSec * static_cast<TimeSec>(rounds % 5);
    for (int i = 0; i < 64; ++i) {
      const geo::Vec2 a{urng.uniform(-350.0, 650.0), urng.uniform(-350.0, 350.0)};
      const geo::Vec2 b{a.x + 200.0, a.y};
      service.upload_channel().submit(
          attack::make_fake_profile(base, a, b, urng).serialize());
    }
    (void)service.ingest_uploads();
    if (rounds >= 15)  // walk minutes 0–2 out of the retention window
      service.advance_clock(
          kUnitTimeSec * std::min<TimeSec>(static_cast<TimeSec>(rounds) - 11, 6));
    ++rounds;
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& t : submitters) t.join();
  service.stop_server();

  EXPECT_GE(resolved.load(), 20u);
  EXPECT_GT(reports_seen.load(), 0u);
  // Retention really did evict investigated minutes from the live view…
  EXPECT_TRUE(service.database().snapshot().trusted_at(0).empty());
  // …while later seeded minutes survived the capped clock walk.
  EXPECT_FALSE(service.database().snapshot().trusted_at(5 * kUnitTimeSec).empty());
}

TEST(InvestigationServer, ParallelViewmapBuildRacesIngestAndEviction) {
  // The builder shards one viewmap's all-pairs sweep over the process
  // WorkerPool (src/system/viewmap_graph.cpp). Here every build crosses
  // the parallel cutoff — a dense minute of ~160 members — so two server
  // workers share the pool's workers with the ingest batches, reading
  // pinned shard profiles while a live ingest loop commits uploads and
  // the trusted clock walks an older investigated minute out of
  // retention. TSan (CI runs this suite under it) checks the per-task
  // edge buffers and the merge; the assertions check CSR invariants.
  Rng rng(31);
  ServiceConfig cfg;
  cfg.rsa_bits = 1024;
  cfg.index.retention.window_sec = 3 * kUnitTimeSec;
  ViewMapService service(cfg);

  Rng trng(32);
  for (int m = 0; m < 2; ++m)
    ASSERT_TRUE(service.register_trusted(attack::make_fake_profile(
        m * kUnitTimeSec, {0.0, 0.0}, {300.0, 0.0}, trng)));
  service.reset_clock(0);
  // Dense seeded minutes: enough members that candidate generation
  // always engages the thread pool.
  for (int m = 0; m < 2; ++m)
    for (int i = 0; i < 160; ++i) {
      const geo::Vec2 a{rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)};
      service.upload_channel().submit(
          attack::make_fake_profile(m * kUnitTimeSec, a, {a.x + 150.0, a.y}, rng)
              .serialize());
    }
  ASSERT_GT(service.ingest_uploads(), 0u);

  ServerConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 16;
  auto& server = service.start_server(scfg);
  const geo::Rect site{{-350.0, -350.0}, {350.0, 350.0}};

  // A FIXED number of writer rounds (the submit loop below runs until
  // they have all raced): unbounded pumping would grow the investigated
  // minute — and every build over it — without limit on a slow host.
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    // Commits minute-1 uploads, one 64-upload batch per round so each
    // commits on several pool tasks, while the clock walk evicts minute
    // 0 beneath the investigators (cutoff reaches 60 s).
    Rng wrng(33);
    for (std::size_t round = 1; round <= 8; ++round) {
      for (int i = 0; i < 64; ++i) {
        const geo::Vec2 a{wrng.uniform(-300.0, 300.0), wrng.uniform(-300.0, 300.0)};
        service.upload_channel().submit(
            attack::make_fake_profile(kUnitTimeSec, a, {a.x + 150.0, a.y}, wrng)
                .serialize());
      }
      (void)service.ingest_uploads();
      service.advance_clock(std::min<TimeSec>(static_cast<TimeSec>(round) * 30,
                                              4 * kUnitTimeSec));
      std::this_thread::yield();
    }
    writer_done.store(true);
  });

  std::size_t reports = 0;
  for (int q = 0; q < 2000 && (q < 12 || !writer_done.load()); ++q) {
    auto fut = server.submit(site, kUnitTimeSec);
    ASSERT_TRUE(fut.valid());
    for (const auto& report : fut.get()) {
      ++reports;
      EXPECT_GE(report.viewmap.size(), 160u);
      // CSR invariants: ascending unique neighbor lists, symmetric edges.
      const auto& g = report.viewmap.graph();
      for (std::size_t i = 0; i < g.size(); ++i) {
        const auto nbrs = g.neighbors(i);
        EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
        EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end()), nbrs.end());
        for (const std::uint32_t j : nbrs) {
          const auto back = g.neighbors(j);
          EXPECT_TRUE(std::binary_search(back.begin(), back.end(),
                                         static_cast<std::uint32_t>(i)));
        }
      }
    }
  }
  writer.join();
  service.stop_server();
  EXPECT_GT(reports, 0u);

  // Deterministic tail: one more ingest at the final clock must evict
  // the investigated minute 0 (the reports above keep their pins).
  service.advance_clock(4 * kUnitTimeSec);
  service.upload_channel().submit(
      attack::make_fake_profile(kUnitTimeSec, {0.0, 0.0}, {150.0, 0.0}, rng)
          .serialize());
  (void)service.ingest_uploads();
  EXPECT_TRUE(service.database().snapshot().trusted_at(0).empty());
}

}  // namespace
}  // namespace viewmap::sys
