// bench_index — perf trajectory for the spatio-temporal VP index.
//
//   (1) (site, unit-time) query latency through a DbSnapshot: grid-indexed
//       shards vs the pre-index linear scan, at growing database sizes.
//   (2) batched ingest throughput: 1 worker vs N workers through the
//       striped-lock commit path.
//   (3) snapshot queries under concurrent ingest + retention eviction:
//       one thread investigates (snapshot per query), another keeps
//       committing uploads and evicting — the workload the snapshot API
//       exists for.
//   (4) investigation-server throughput: the InvestigationServer's worker
//       pool drains a bounded request queue (full §5.2 viewmap + verify +
//       solicitation chain per request, batched snapshot pinning) while a
//       live ingest loop keeps committing uploads and the trusted clock
//       walks minutes out of the retention window.
//   (5) viewmap construction: the grid-accelerated CSR builder vs the
//       retained naive O(n²) reference, n ∈ {1k, 10k, 50k} members in
//       dense (urban rush hour) and sparse (city-scale) layouts. The two
//       edge sets are compared bit-for-bit; tools/run_bench.sh fails the
//       run if they ever diverge.
//   (6) incremental persistence: the first full segment-store checkpoint
//       vs an incremental one after 1% shard churn, plus one cold-restart
//       recovery of the churned store. tools/run_bench.sh asserts the
//       recovery invariant (profiles recovered == profiles the manifest
//       promises == profiles in the pinned snapshot).
//   (6b) recovery_v2: that cold restart (parallel recovery pool) with its
//       per-phase (read/validate/parse/adopt) breakdown. tools/
//       run_bench.sh asserts recovered_matches and, on 1M-VP runs, a
//       ≥ 5× speedup over the recorded pre-packed-format baseline restart.
//   (7) observability overhead: single-thread ingest with the metrics
//       registry wired vs disabled (the null-registry switch in
//       TimelineConfig/IngestConfig). tools/run_bench.sh warns when the
//       overhead exceeds the 3% budget documented in src/obs/README.md.
//   (8) daemon soak: the assembled ServiceLifecycle daemon under kill -9
//       cycles — sustained ingest rate through the IngestService drain,
//       checkpoint cadence, and per-restart recovery latency. Every
//       restart asserts the recovery invariant; tools/run_bench.sh fails
//       the run when any cycle violates it.
//   (9) daemon chaos: the soak workload with failpoints firing inside the
//       durable-I/O path (ENOSPC bursts, fsync EIO, rename failures, torn
//       short writes, whole-cycle faults). Each cycle the daemon must eat
//       a window of injected checkpoint failures without dying, health
//       must visibly degrade and recover, no *.tmp file may survive, and
//       a cold recover must reproduce the live database's canonical bytes.
//       tools/run_bench.sh fails the run on any violated assertion.
//   (10) server_zipf: the investigation server under a Zipf-skewed request
//       mix with the digest-keyed result cache on vs off, while live
//       ingest lands in the newest minutes (hot-shard digests quiescent).
//       Emits the hit rate, cache-on/off throughput ratio, hit-latency
//       percentiles, and whether every cache hit was bit-identical to a
//       fresh build; tools/run_bench.sh asserts hit_rate > 0 and
//       reports_match.
//
// Emits BENCH_index.json (cwd) so future PRs can diff the numbers.
//
//   ./bench/bench_index [--max_vps=1000000] [--queries=200]
//                       [--ingest_vps=20000] [--threads=N]
//                       [--server_requests=500] [--zipf_requests=400]
//                       [--viewmap_vps=50000]
//                       [--checkpoint_vps=1000000]
//                       [--soak_cycles=5] [--soak_vps=300]
//                       [--chaos_cycles=6] [--chaos_failures=4]
//                       [--chaos_vps=200]
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "attack/fake_vp.h"
#include "bench_util.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "daemon/lifecycle.h"
#include "index/ingest_engine.h"
#include "obs/metrics.h"
#include "store/segment_store.h"
#include "system/investigation_server.h"
#include "system/service.h"
#include "system/vp_database.h"

using namespace viewmap;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Straight-line synthetic VP inside a city whose extent grows with the
/// fleet so density stays plausible.
vp::ViewProfile random_vp(TimeSec unit, double extent, Rng& rng) {
  const geo::Vec2 start{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
  const geo::Vec2 end{start.x + rng.uniform(-1500.0, 1500.0),
                      start.y + rng.uniform(-1500.0, 1500.0)};
  return attack::make_fake_profile(unit, start, end, rng);
}

struct QueryRow {
  std::size_t vps = 0;
  double snapshot_us = 0.0;  ///< cost of taking one DbSnapshot
  double indexed_us = 0.0;
  double linear_us = 0.0;
  double speedup = 0.0;
  std::size_t hits = 0;
};

QueryRow bench_queries(std::size_t vp_count, int query_count, Rng& rng) {
  // Spread the fleet over 30 minutes of city time (a typical incident
  // window) and scale the map so ~50 VPs share a 250 m block per minute.
  const int minutes = 30;
  const double extent =
      std::max(2000.0, 250.0 * std::sqrt(static_cast<double>(vp_count) / minutes / 50.0) * 8.0);

  sys::VpDatabase db;
  for (std::size_t i = 0; i < vp_count; ++i) {
    const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(minutes));
    if (!db.timeline().insert(random_vp(unit, extent, rng), false)) --i;
  }

  // Query sites: 200 m half-width incident rectangles at random places.
  std::vector<geo::Rect> sites;
  std::vector<TimeSec> units;
  for (int q = 0; q < query_count; ++q) {
    const geo::Vec2 c{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
    sites.push_back({{c.x - 200.0, c.y - 200.0}, {c.x + 200.0, c.y + 200.0}});
    units.push_back(kUnitTimeSec * static_cast<TimeSec>(rng.index(minutes)));
  }

  QueryRow row;
  row.vps = db.size();

  // The read path is snapshot-first: one pinned view, queried at will.
  auto start = Clock::now();
  const sys::DbSnapshot snap = db.snapshot();
  row.snapshot_us = seconds_since(start) * 1e6;

  start = Clock::now();
  for (int q = 0; q < query_count; ++q)
    row.hits += snap.query(units[static_cast<std::size_t>(q)],
                           sites[static_cast<std::size_t>(q)])
                    .size();
  row.indexed_us = seconds_since(start) / query_count * 1e6;

  // The pre-index algorithm, verbatim: scan every stored VP. all() is
  // hoisted out of the loop — the scan itself is what we are timing.
  const auto everything = snap.all();
  const int linear_runs = std::max(5, query_count / 10);
  std::size_t linear_hits = 0;
  start = Clock::now();
  for (int q = 0; q < linear_runs; ++q) {
    for (const auto* profile : everything)
      if (profile->unit_time() == units[static_cast<std::size_t>(q)] &&
          profile->visits(sites[static_cast<std::size_t>(q)]))
        ++linear_hits;
  }
  row.linear_us = seconds_since(start) / linear_runs * 1e6;
  row.speedup = row.indexed_us > 0 ? row.linear_us / row.indexed_us : 0.0;
  return row;
}

struct IngestRow {
  std::size_t payloads = 0;
  unsigned threads = 1;
  double single_vps_per_sec = 0.0;
  double multi_vps_per_sec = 0.0;
  double speedup = 0.0;
};

IngestRow bench_ingest(std::size_t payload_count, unsigned threads, Rng& rng) {
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(payload_count);
  for (std::size_t i = 0; i < payload_count; ++i) {
    const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(30));
    payloads.push_back(random_vp(unit, 8000.0, rng).serialize());
  }

  IngestRow row;
  row.payloads = payload_count;
  row.threads = threads;
  for (const bool multi : {false, true}) {
    sys::VpDatabase db;
    index::IngestConfig cfg;
    cfg.threads = multi ? threads : 1;
    index::IngestEngine engine(db.timeline(), db.policy(), cfg);
    const auto start = Clock::now();
    const auto stats = engine.ingest(payloads);
    const double rate = static_cast<double>(stats.accepted) / seconds_since(start);
    (multi ? row.multi_vps_per_sec : row.single_vps_per_sec) = rate;
  }
  row.speedup = row.single_vps_per_sec > 0 ? row.multi_vps_per_sec / row.single_vps_per_sec
                                           : 0.0;
  return row;
}

struct ConcurrentRow {
  std::size_t vps = 0;           ///< database size when the run started
  double query_us = 0.0;         ///< snapshot + query, per investigation
  double writer_vps_per_sec = 0.0;  ///< concurrent ingest throughput meanwhile
  std::size_t evictions = 0;     ///< retention passes the writer ran
  std::size_t hits = 0;
};

/// The workload the snapshot API exists for: one thread investigates
/// (fresh DbSnapshot per query, as the service does) while another keeps
/// committing anonymous uploads and running retention eviction. Queries
/// never block on the writer beyond the stripe-lock handshake of
/// snapshot(), and eviction never invalidates an investigation.
ConcurrentRow bench_concurrent(std::size_t vp_count, int query_count, Rng& rng) {
  const int minutes = 30;
  const double extent =
      std::max(2000.0, 250.0 * std::sqrt(static_cast<double>(vp_count) / minutes / 50.0) * 8.0);

  sys::VpDatabase db;
  for (std::size_t i = 0; i < vp_count; ++i) {
    const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(minutes));
    if (!db.timeline().insert(random_vp(unit, extent, rng), false)) --i;
  }

  std::vector<geo::Rect> sites;
  std::vector<TimeSec> units;
  for (int q = 0; q < query_count; ++q) {
    const geo::Vec2 c{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
    sites.push_back({{c.x - 200.0, c.y - 200.0}, {c.x + 200.0, c.y + 200.0}});
    units.push_back(kUnitTimeSec * static_cast<TimeSec>(rng.index(minutes)));
  }

  ConcurrentRow row;
  row.vps = db.size();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> written{0};
  std::atomic<std::size_t> evictions{0};
  std::thread writer([&] {
    Rng wrng(4242);
    std::size_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(wrng.index(minutes));
      if (db.timeline().insert(random_vp(unit, extent, wrng), false) && ++n % 128 == 0) {
        // Churn shards the way the batch path does between batches.
        db.timeline().evict_older_than(kUnitTimeSec);
        evictions.fetch_add(1, std::memory_order_relaxed);
      }
    }
    written.store(n, std::memory_order_relaxed);
  });

  // Individual investigations are microseconds; loop them for a fixed
  // wall-clock window so the writer actually races (and evicts) under us.
  constexpr double kRunSeconds = 0.5;
  std::size_t investigations = 0;
  const auto start = Clock::now();
  do {
    for (int q = 0; q < query_count; ++q) {
      const sys::DbSnapshot snap = db.snapshot();  // one pin per investigation
      row.hits += snap.query(units[static_cast<std::size_t>(q)],
                             sites[static_cast<std::size_t>(q)])
                      .size();
    }
    investigations += static_cast<std::size_t>(query_count);
  } while (seconds_since(start) < kRunSeconds);
  const double elapsed = seconds_since(start);
  stop.store(true);
  writer.join();

  row.query_us = elapsed / static_cast<double>(investigations) * 1e6;
  row.writer_vps_per_sec = static_cast<double>(written.load()) / elapsed;
  row.evictions = evictions.load();
  return row;
}

struct ServerRow {
  std::size_t vps = 0;          ///< database size when the run started
  std::size_t workers = 0;
  std::size_t requests = 0;     ///< investigation requests submitted
  double requests_per_sec = 0.0;
  /// Mean submit→resolve latency per request, measured per future —
  /// includes queue wait, which dominates when the submitter bursts the
  /// whole request set ahead of the pool.
  double request_us = 0.0;
  std::size_t reports = 0;      ///< InvestigationReports produced
  double writer_vps_per_sec = 0.0;  ///< concurrent ingest throughput meanwhile
  std::size_t snapshots = 0;    ///< DbSnapshots pinned by the workers
  std::size_t batches = 0;      ///< dequeue rounds (snapshots ≤ batches)
  std::size_t peak_queue = 0;
  /// Serve-side latency distribution from the service registry's
  /// viewmap_server_request_us histogram (excludes queue wait, unlike
  /// request_us above). Monotone by construction — run_bench.sh asserts
  /// p50 ≤ p90 ≤ p99.
  std::uint64_t request_p50_us = 0;
  std::uint64_t request_p90_us = 0;
  std::uint64_t request_p99_us = 0;
};

/// The §5 public-service workload end to end: an InvestigationServer pool
/// drains submitted (site, unit-time) requests — each the full viewmap →
/// TrustRank → solicitation chain over a pinned snapshot — while a live
/// ingest loop keeps committing anonymous uploads and the trusted clock
/// walks the oldest minutes out of the retention window.
ServerRow bench_server(std::size_t vp_count, int request_count, unsigned workers,
                       Rng& rng) {
  const int minutes = 10;
  const double extent =
      std::max(2000.0, 250.0 * std::sqrt(static_cast<double>(vp_count) / minutes / 50.0) * 8.0);

  sys::ServiceConfig scfg;
  scfg.rsa_bits = 1024;
  scfg.index.retention.window_sec = 15 * kUnitTimeSec;
  sys::ViewMapService service(scfg);
  // One authority trajectory per minute near the city core: the trust
  // seeds every investigation needs.
  for (int m = 0; m < minutes; ++m)
    (void)service.register_trusted(attack::make_fake_profile(
        kUnitTimeSec * static_cast<TimeSec>(m), {0.0, 0.0}, {300.0, 0.0}, rng));
  for (std::size_t i = 0; i < vp_count; ++i) {
    const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(minutes));
    service.upload_channel().submit(random_vp(unit, extent, rng).serialize());
  }
  (void)service.ingest_uploads();

  // Incident sites near the authority corridor (coverage spans site ∪
  // trusted trajectory, so far-flung sites would drag half the city into
  // one viewmap — not what §5.2.1 investigations look like).
  std::vector<geo::Rect> sites;
  std::vector<TimeSec> units;
  for (int q = 0; q < request_count; ++q) {
    const geo::Vec2 c{rng.uniform(-1200.0, 1500.0), rng.uniform(-1200.0, 1200.0)};
    sites.push_back({{c.x - 200.0, c.y - 200.0}, {c.x + 200.0, c.y + 200.0}});
    units.push_back(kUnitTimeSec * static_cast<TimeSec>(rng.index(minutes)));
  }

  ServerRow row;
  row.vps = service.database().size();
  row.workers = workers;
  row.requests = static_cast<std::size_t>(request_count);

  sys::ServerConfig server_cfg;
  server_cfg.workers = workers;
  server_cfg.queue_capacity = 1024;
  server_cfg.batch_max = 8;
  auto& server = service.start_server(server_cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> written{0};
  std::thread writer([&] {
    // The live ingest loop: uploads for the newest minutes (always inside
    // the admission window), per-batch retention, and a trusted clock
    // walking forward so the oldest minutes age out mid-run.
    Rng wrng(4242);
    std::size_t n = 0;
    std::size_t step = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; ++i) {
        const TimeSec unit =
            kUnitTimeSec * static_cast<TimeSec>(3 + wrng.index(minutes - 3));
        service.upload_channel().submit(random_vp(unit, extent, wrng).serialize());
      }
      n += service.ingest_uploads();
      if (++step % 4 == 0)
        service.advance_clock(kUnitTimeSec * std::min<TimeSec>(
                                  static_cast<TimeSec>(10 + step / 4), 18));
    }
    written.store(n, std::memory_order_relaxed);
  });

  std::vector<std::future<sys::InvestigationServer::Reports>> futures;
  std::vector<Clock::time_point> submit_at;
  futures.reserve(row.requests);
  submit_at.reserve(row.requests);
  const auto start = Clock::now();
  for (int q = 0; q < request_count; ++q) {
    submit_at.push_back(Clock::now());
    futures.push_back(server.submit(sites[static_cast<std::size_t>(q)],
                                    units[static_cast<std::size_t>(q)]));
  }
  double latency_sum = 0.0;
  std::size_t resolved = 0;
  for (std::size_t q = 0; q < futures.size(); ++q) {
    if (!futures[q].valid()) continue;
    row.reports += futures[q].get().size();
    latency_sum += std::chrono::duration<double>(Clock::now() - submit_at[q]).count();
    ++resolved;
  }
  const double elapsed = seconds_since(start);
  stop.store(true);
  writer.join();

  const auto stats = server.stats();
  if (const obs::Histogram* h =
          service.metrics().find_histogram("viewmap_server_request_us")) {
    const obs::Histogram::Snapshot snap = h->snapshot();
    row.request_p50_us = snap.percentile(0.5);
    row.request_p90_us = snap.percentile(0.9);
    row.request_p99_us = snap.percentile(0.99);
  }
  service.stop_server();
  row.requests_per_sec = static_cast<double>(stats.completed) / elapsed;
  row.request_us = resolved > 0 ? latency_sum / static_cast<double>(resolved) * 1e6 : 0.0;
  row.writer_vps_per_sec = static_cast<double>(written.load()) / elapsed;
  row.snapshots = stats.snapshots;
  row.batches = stats.batches;
  row.peak_queue = stats.peak_queue;
  return row;
}

struct ZipfServerRow {
  std::size_t vps = 0;
  std::size_t workers = 0;
  std::size_t requests = 0;
  double alpha = 0.0;            ///< Zipf skew of the request mix
  std::size_t distinct_keys = 0; ///< (site, unit-time) universe size
  double hit_rate = 0.0;         ///< cache hits / requests, serving phase
  double req_per_sec = 0.0;          ///< result cache on
  double req_per_sec_nocache = 0.0;  ///< identical run, cache disabled
  double speedup_vs_nocache = 0.0;
  /// Serve-side latency with the cache on (viewmap_server_request_us).
  std::uint64_t request_p50_us = 0;
  std::uint64_t request_p99_us = 0;
  /// Cache-hit investigate() latency (viewmap_cache_hit_us).
  std::uint64_t hit_p50_us = 0;
  std::uint64_t hit_p99_us = 0;
  /// Every key's cache-hit report fingerprint equalled the fresh-build
  /// (= cache-off path) fingerprint. tools/run_bench.sh fails on false.
  bool reports_match = false;
  std::size_t cache_bytes = 0;           ///< resident bytes after the run
  std::size_t cache_capacity_bytes = 0;  ///< configured bound
  bool bytes_ok = false;                 ///< resident ≤ bound throughout
};

/// Order-sensitive fingerprint of everything an InvestigationReport says
/// (members, trust flags, CSR edges, verdict sets, bit-cast TrustRank
/// scores, solicitations) — trace excluded, since it records the serving
/// path. Two reports with equal fingerprints are bit-identical results.
std::uint64_t report_fingerprint(const sys::InvestigationReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  const sys::Viewmap& m = r.viewmap;
  mix(m.size());
  mix(static_cast<std::uint64_t>(m.unit_time()));
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::uint8_t b : m.member(i).vp_id().bytes) mix(b);
    mix(m.is_trusted(i) ? 1 : 0);
  }
  for (std::size_t o : m.graph().offsets()) mix(o);
  for (std::uint32_t e : m.graph().edges()) mix(e);
  const sys::VerificationResult& v = r.verification;
  for (std::size_t i : v.site_members) mix(i);
  for (std::size_t i : v.legitimate) mix(i);
  for (std::size_t i : v.rejected) mix(i);
  for (double s : v.ranks.scores) mix(std::bit_cast<std::uint64_t>(s));
  mix(static_cast<std::uint64_t>(v.ranks.iterations));
  mix(v.ranks.converged ? 1 : 0);
  for (const Id16& id : r.solicited)
    for (std::uint8_t b : id.bytes) mix(b);
  return h;
}

/// The workload the result cache exists for: a Zipf-skewed request mix
/// (real investigation traffic clusters on a few hot incidents) against
/// a database whose hot minutes are quiescent while live ingest keeps
/// landing in the newest minutes. Two identical services — cache on vs
/// cache off — serve the same precomputed request sequence through the
/// same server config; the row records the throughput ratio, the hit
/// rate, and whether every cache hit was bit-identical to a fresh build.
ZipfServerRow bench_server_zipf(std::size_t vp_count, int request_count,
                                double alpha, unsigned workers) {
  const int minutes = 12;       // requests target 0..7; ingest lands in 8..11
  const int query_minutes = 8;
  const int site_count = 4;
  // Fixed dense-city geometry, deliberately NOT the density-preserving
  // sqrt(vps) extent the other scenarios use: incidents concentrate where
  // traffic does, and the cache's value is proportional to what a build
  // costs. A (1.2 km)² downtown with vp_count/minutes VPs per minute puts
  // a few hundred members in every site rectangle, so a miss pays a real
  // viewmap + TrustRank build while a hit pays a lookup + report copy.
  const double extent = 600.0;

  // The (site, unit-time) key universe: incident rectangles along the
  // trusted corridor × the quiescent minutes. All four sites lie inside
  // the VP spread and under the corridor, so every key sees trusted
  // seeds, members, and a full verification.
  std::vector<geo::Rect> sites;
  for (int s = 0; s < site_count; ++s) {
    const double cx = -450.0 + 300.0 * s;
    sites.push_back({{cx - 200.0, -200.0}, {cx + 200.0, 200.0}});
  }
  const std::size_t keys = static_cast<std::size_t>(site_count * query_minutes);

  // Zipf(alpha) over the key universe, sampled once so both sides serve
  // the byte-identical request sequence.
  std::vector<double> cdf(keys);
  double total = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf[k] = total;
  }
  Rng zipf_rng(60660);
  std::vector<std::size_t> req_keys;
  req_keys.reserve(static_cast<std::size_t>(request_count));
  for (int q = 0; q < request_count; ++q) {
    const double u = zipf_rng.uniform(0.0, total);
    req_keys.push_back(static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
  }

  ZipfServerRow row;
  row.workers = workers;
  row.requests = static_cast<std::size_t>(request_count);
  row.alpha = alpha;
  row.distinct_keys = keys;

  for (const bool cache_on : {false, true}) {
    sys::ServiceConfig scfg;
    scfg.rsa_bits = 1024;
    scfg.result_cache.enabled = cache_on;
    sys::ViewMapService service(scfg);
    // Seeded identically per side: same trusted corridor, same uploads.
    Rng seed_rng(8088);
    for (int m = 0; m < minutes; ++m)
      (void)service.register_trusted(attack::make_fake_profile(
          kUnitTimeSec * static_cast<TimeSec>(m), {-650.0, 0.0}, {650.0, 0.0},
          seed_rng));
    for (std::size_t i = 0; i < vp_count; ++i) {
      const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(seed_rng.index(minutes));
      service.upload_channel().submit(random_vp(unit, extent, seed_rng).serialize());
    }
    (void)service.ingest_uploads();
    row.vps = service.database().size();

    if (cache_on) {
      // Correctness phase, quiesced: for every key, a fresh build (the
      // cache-off code path) followed by the cache hit it seeded. The
      // fingerprints must agree — the bit-identity claim of the cache.
      bool match = true;
      for (std::size_t k = 0; k < keys; ++k) {
        const geo::Rect& site = sites[k % static_cast<std::size_t>(site_count)];
        const TimeSec unit =
            kUnitTimeSec * static_cast<TimeSec>(k / static_cast<std::size_t>(site_count));
        try {
          const auto fresh = service.investigate(site, unit);
          const auto hit = service.investigate(site, unit);
          match = match && report_fingerprint(fresh) == report_fingerprint(hit);
        } catch (const std::exception&) {
          match = false;  // corridor keys must all be investigable
        }
      }
      row.reports_match = match;
      // The serving phase measures a cold cache: first touch per key
      // misses, the skewed tail hits.
      service.result_cache().clear();
    }
    const std::size_t hits_before = service.result_cache().stats().hits;

    sys::ServerConfig server_cfg;
    server_cfg.workers = workers;
    server_cfg.queue_capacity = 1024;
    server_cfg.batch_max = 8;
    auto& server = service.start_server(server_cfg);

    // Live ingest confined to the newest minutes: the hot shards' digests
    // stay put, which is exactly when the cache may keep serving them.
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      Rng wrng(4242);
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 64; ++i) {
          const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(
              query_minutes + wrng.index(minutes - query_minutes));
          service.upload_channel().submit(random_vp(unit, extent, wrng).serialize());
        }
        (void)service.ingest_uploads();
      }
    });

    std::vector<std::future<sys::InvestigationServer::Reports>> futures;
    futures.reserve(req_keys.size());
    const auto start = Clock::now();
    for (const std::size_t k : req_keys)
      futures.push_back(server.submit(
          sites[k % static_cast<std::size_t>(site_count)],
          kUnitTimeSec * static_cast<TimeSec>(k / static_cast<std::size_t>(site_count))));
    std::size_t resolved = 0;
    for (auto& fut : futures) {
      if (!fut.valid()) continue;
      (void)fut.get();
      ++resolved;
    }
    const double elapsed = seconds_since(start);
    stop.store(true);
    writer.join();

    const double rate = elapsed > 0 ? static_cast<double>(resolved) / elapsed : 0.0;
    if (cache_on) {
      row.req_per_sec = rate;
      const auto cstats = service.result_cache().stats();
      row.hit_rate = row.requests > 0
                         ? static_cast<double>(cstats.hits - hits_before) /
                               static_cast<double>(row.requests)
                         : 0.0;
      row.cache_bytes = cstats.resident_bytes;
      row.cache_capacity_bytes = scfg.result_cache.capacity_bytes;
      row.bytes_ok = cstats.resident_bytes <= scfg.result_cache.capacity_bytes;
      if (const obs::Histogram* h =
              service.metrics().find_histogram("viewmap_server_request_us")) {
        const auto snap = h->snapshot();
        row.request_p50_us = snap.percentile(0.5);
        row.request_p99_us = snap.percentile(0.99);
      }
      if (const obs::Histogram* h =
              service.metrics().find_histogram("viewmap_cache_hit_us")) {
        const auto snap = h->snapshot();
        row.hit_p50_us = snap.percentile(0.5);
        row.hit_p99_us = snap.percentile(0.99);
      }
    } else {
      row.req_per_sec_nocache = rate;
    }
    service.stop_server();
  }
  row.speedup_vs_nocache = row.req_per_sec_nocache > 0
                               ? row.req_per_sec / row.req_per_sec_nocache
                               : 0.0;
  return row;
}

struct ViewmapBuildRow {
  std::size_t n = 0;
  const char* layout = "";
  double density_per_km2 = 0.0;
  double grid_ms = 0.0;   ///< grid-accelerated CSR builder
  double naive_ms = 0.0;  ///< retained O(n²) reference builder
  double speedup = 0.0;
  std::size_t edges = 0;
  double edges_per_sec = 0.0;  ///< viewlinks emitted per second (grid path)
  bool edges_match = false;    ///< CSR bit-identical to the reference
  /// Upper bound the auto setting resolves to on this host; small
  /// builds clamp lower inside the builder (serial cutoff, per-thread
  /// minimum work), so the actual pool may be smaller.
  std::size_t build_threads_max = 1;
};

/// §5.2.1 viewmap construction over a synthetic minute of traffic:
/// vehicles travel in platoons (≤6 vehicles, 40 m headway) with mutual
/// Bloom links between platoon neighbors — the local connectivity real
/// VD exchange produces — spread at the layout's density. The grid
/// builder and the naive reference apply the identical edge predicate;
/// the row records both times and whether the CSRs matched exactly.
ViewmapBuildRow bench_viewmap_build(std::size_t n, bool dense, Rng& rng) {
  // Dense ≈ the paper's Fig. 22 large-scale simulation (25k vehicles on
  // 10×10 km ⇒ hundreds per km²); sparse ≈ early-adoption metro scale
  // (50k simultaneous recorders over a ~1700 km² metropolitan area).
  const double density = dense ? 1200.0 : 30.0;  // VPs per km²
  const double half = std::sqrt(static_cast<double>(n) / density) * 1000.0 / 2.0;
  constexpr double kTau = 6.283185307179586;

  std::vector<vp::ViewProfile> fleet;
  fleet.reserve(n);
  while (fleet.size() < n) {
    const geo::Vec2 lead{rng.uniform(-half, half), rng.uniform(-half, half)};
    const double heading = rng.uniform(0.0, kTau);
    const geo::Vec2 dir{std::cos(heading), std::sin(heading)};
    const double len = rng.uniform(200.0, 700.0);
    const std::size_t platoon = std::min<std::size_t>(1 + rng.index(6), n - fleet.size());
    const std::size_t first = fleet.size();
    for (std::size_t k = 0; k < platoon; ++k) {
      const geo::Vec2 a{lead.x - dir.x * 40.0 * static_cast<double>(k),
                        lead.y - dir.y * 40.0 * static_cast<double>(k)};
      fleet.push_back(attack::make_fake_profile(
          0, a, {a.x + dir.x * len, a.y + dir.y * len}, rng));
    }
    for (std::size_t k = first + 1; k < fleet.size(); ++k)
      vp::link_mutually(fleet[k - 1], fleet[k]);
  }
  std::vector<const vp::ViewProfile*> members;
  members.reserve(n);
  for (const auto& p : fleet) members.push_back(&p);
  const std::vector<bool> trusted(n, false);
  const geo::Rect cover{{-half - 1000.0, -half - 1000.0}, {half + 1000.0, half + 1000.0}};

  // Warm the per-profile probe tables (memoized SHA-256 per VD) so both
  // timed builds measure pair work — the steady state a live server
  // sees, since profiles keep their tables across investigations.
  for (const auto* m : members) (void)m->bloom_probes();

  ViewmapBuildRow row;
  row.n = n;
  row.layout = dense ? "dense" : "sparse";
  row.density_per_km2 = density;
  const sys::ViewmapBuilder builder;  // default config: auto build_threads
  row.build_threads_max = sys::ViewmapBuilder::resolved_build_threads(0);

  auto start = Clock::now();
  const sys::Viewmap grid = builder.build_from_members(members, trusted, 0, cover);
  row.grid_ms = seconds_since(start) * 1e3;

  start = Clock::now();
  const sys::Viewmap naive =
      builder.build_from_members_reference(members, trusted, 0, cover);
  row.naive_ms = seconds_since(start) * 1e3;

  row.speedup = row.grid_ms > 0 ? row.naive_ms / row.grid_ms : 0.0;
  row.edges = grid.edge_count();
  row.edges_per_sec =
      row.grid_ms > 0 ? static_cast<double>(row.edges) / (row.grid_ms / 1e3) : 0.0;
  row.edges_match = grid.graph() == naive.graph();
  return row;
}

struct CheckpointRow {
  std::size_t vps = 0;
  std::size_t shards = 0;
  std::size_t churn_shards = 0;     ///< shards whose content changed (~1%)
  std::size_t churn_vps = 0;        ///< VPs added to force that churn
  double full_checkpoint_ms = 0.0;  ///< first segment checkpoint (all shards)
  std::uint64_t full_checkpoint_bytes = 0;
  double incr_checkpoint_ms = 0.0;  ///< checkpoint after the churn
  std::uint64_t incr_bytes = 0;     ///< bytes actually written by it
  std::size_t incr_segments_written = 0;
  std::size_t incr_segments_reused = 0;
  double restart_ms = 0.0;          ///< cold recover() of the checkpoint
  std::size_t recovered_vps = 0;
  /// The recovery invariant: recovered == manifest promise == snapshot,
  /// zero rejects. tools/run_bench.sh fails the run when false.
  bool recovered_matches = false;
};

/// The restart_ms recorded for this scenario at 1M VPs before the packed
/// segment format landed — the restart-time target the recovery_v2 row
/// is judged against (tools/run_bench.sh asserts ≥ 5×).
constexpr double kRecordedV1RestartMs1M = 83652.5;
constexpr std::size_t kBaselineVps = 1000000;

struct RecoveryV2Row {
  std::size_t vps = 0;
  std::size_t shards = 0;
  double restart_v2_ms = 0.0;        ///< the cold recover of bench_checkpoint
  double baseline_restart_ms = 0.0;  ///< recorded number (1M-VP runs only)
  double speedup_vs_baseline = 0.0;
  unsigned threads = 0;              ///< recovery worker-pool width used
  /// Per-phase cost of the restart. read/validate/parse are summed
  /// across workers; adopt is wall clock on the recovering thread.
  double read_ms = 0.0;
  double validate_ms = 0.0;
  double parse_ms = 0.0;
  double adopt_ms = 0.0;
  bool recovered_matches = false;
};

/// The always-on persistence workload: a service checkpointing weeks of
/// history where only the newest minutes change between checkpoints.
/// Spreads `vp_count` over 200 unit-times, seals a full checkpoint, churns
/// 1% of the shards (2 of 200), then measures what §"incremental
/// persistence" buys: the incremental checkpoint rewrites only the 2
/// changed shards + a ~12 KB manifest. fsync is ON — these are honest
/// durable-write numbers. The churned store is then cold-restarted once
/// through the parallel recovery pool; that restart fills both
/// `restart_ms` here and the recovery_v2 row.
CheckpointRow bench_checkpoint(std::size_t vp_count, Rng& rng, RecoveryV2Row& v2out) {
  const int minutes = 200;
  const double extent =
      std::max(2000.0, 250.0 * std::sqrt(static_cast<double>(vp_count) / minutes / 50.0) * 8.0);

  sys::VpDatabase db;
  for (std::size_t i = 0; i < vp_count; ++i) {
    const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(minutes));
    if (!db.timeline().insert(random_vp(unit, extent, rng), false)) --i;
  }

  namespace fs = std::filesystem;
  const fs::path seg_dir = "bench_segments.tmp";
  fs::remove_all(seg_dir);

  CheckpointRow row;
  row.vps = db.size();

  store::SegmentStore segments(seg_dir.string());
  {
    const sys::DbSnapshot snap = db.snapshot();
    row.shards = snap.shard_count();
    const auto start = Clock::now();
    const auto stats = segments.checkpoint(snap);
    row.full_checkpoint_ms = seconds_since(start) * 1e3;
    row.full_checkpoint_bytes = stats.bytes_written;
  }

  // 1% shard churn: fresh uploads land in 2 of the 200 minutes.
  row.churn_shards = static_cast<std::size_t>(minutes) / 100;
  for (std::size_t s = 0; s < row.churn_shards; ++s) {
    const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(s * 97 % minutes);
    for (int i = 0; i < 25; ++i) {
      if (db.timeline().insert(random_vp(unit, extent, rng), false)) ++row.churn_vps;
    }
  }

  const sys::DbSnapshot churned = db.snapshot();
  {
    const auto start = Clock::now();
    const auto stats = segments.checkpoint(churned);
    row.incr_checkpoint_ms = seconds_since(start) * 1e3;
    row.incr_bytes = stats.bytes_written;
    row.incr_segments_written = stats.segments_written;
    row.incr_segments_reused = stats.segments_reused;
  }
  {
    const auto start = Clock::now();
    store::RecoveryStats rec;
    const auto recovered = segments.recover(&rec);
    row.restart_ms = seconds_since(start) * 1e3;
    row.recovered_vps = recovered.size();
    row.recovered_matches = rec.profiles_rejected == 0 &&
                            rec.profiles_loaded == rec.manifest_profiles &&
                            recovered.size() == churned.size();
    v2out.threads = rec.threads_used;
    v2out.read_ms = static_cast<double>(rec.read_us) / 1e3;
    v2out.validate_ms = static_cast<double>(rec.validate_us) / 1e3;
    v2out.parse_ms = static_cast<double>(rec.parse_us) / 1e3;
    v2out.adopt_ms = static_cast<double>(rec.adopt_us) / 1e3;
  }

  v2out.vps = row.vps;
  v2out.shards = row.shards;
  v2out.restart_v2_ms = row.restart_ms;
  v2out.recovered_matches = row.recovered_matches;
  if (row.vps == kBaselineVps) {
    // The recorded-baseline comparison only means something at the VP
    // count the baseline was recorded at.
    v2out.baseline_restart_ms = kRecordedV1RestartMs1M;
    if (v2out.restart_v2_ms > 0.0)
      v2out.speedup_vs_baseline = kRecordedV1RestartMs1M / v2out.restart_v2_ms;
  }

  fs::remove_all(seg_dir);
  return row;
}

struct ObsRow {
  std::size_t payloads = 0;
  double plain_vps_per_sec = 0.0;    ///< registry disabled (null pointers)
  double metered_vps_per_sec = 0.0;  ///< registry wired into timeline + ingest
  double overhead_pct = 0.0;         ///< (plain − metered) / plain × 100
};

/// What the always-on instrumentation costs on the hottest path:
/// single-thread ingest (parse + screen + shard commit, a counter bump
/// per VP) with the metrics registry wired vs the null-registry switch.
/// Best-of-3 per side over a fresh database each run, so allocator state
/// and shard growth are identical; only the counter increments differ.
ObsRow bench_obs_overhead(std::size_t payload_count, Rng& rng) {
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(payload_count);
  for (std::size_t i = 0; i < payload_count; ++i) {
    const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(30));
    payloads.push_back(random_vp(unit, 8000.0, rng).serialize());
  }

  ObsRow row;
  row.payloads = payload_count;
  obs::MetricsRegistry registry;
  for (const bool metered : {false, true}) {
    double best = 0.0;
    for (int run = 0; run < 3; ++run) {
      index::TimelineConfig timeline_cfg;
      index::IngestConfig ingest_cfg;
      ingest_cfg.threads = 1;
      if (metered) {
        timeline_cfg.metrics = &registry;
        ingest_cfg.metrics = &registry;
      }
      sys::VpDatabase db(vp::VpUploadPolicy{}, timeline_cfg);
      index::IngestEngine engine(db.timeline(), db.policy(), ingest_cfg);
      const auto start = Clock::now();
      const auto stats = engine.ingest(payloads);
      best = std::max(best,
                      static_cast<double>(stats.accepted) / seconds_since(start));
    }
    (metered ? row.metered_vps_per_sec : row.plain_vps_per_sec) = best;
  }
  row.overhead_pct =
      row.plain_vps_per_sec > 0
          ? (row.plain_vps_per_sec - row.metered_vps_per_sec) /
                row.plain_vps_per_sec * 100.0
          : 0.0;
  return row;
}

struct DaemonSoakRow {
  std::size_t kill_cycles = 0;
  std::size_t vps_submitted = 0;       ///< admitted by IngestService::submit
  std::size_t vps_recovered = 0;       ///< final cold recover() of the store
  double sustained_ingest_vps_per_sec = 0.0;
  std::size_t checkpoints = 0;         ///< manifests sealed across all cycles
  double recovery_ms_mean = 0.0;       ///< start()-time restore, cycles 2..N
  double recovery_ms_max = 0.0;
  /// Every restart's recovery invariant (single-attempt recover, zero
  /// rejects, loaded == manifest promise) plus a clean final cold
  /// recover. tools/run_bench.sh fails the run when false.
  bool recovered_matches = false;
};

/// The assembled daemon under the crash workload the soak test hammers:
/// each cycle constructs a fresh ServiceLifecycle on the same store
/// directory, times the restore start() performs, pushes `vps_per_cycle`
/// uploads through the IngestService drain (blocking backpressure), waits
/// for a checkpoint sealed after the channel emptied, then kill_for_test()
/// — the in-process kill -9: no drain, no final checkpoint. fsync is ON;
/// recovery_ms and checkpoint cadence are honest durable numbers.
DaemonSoakRow bench_daemon_soak(std::size_t cycles, std::size_t vps_per_cycle,
                                Rng& rng) {
  namespace fs = std::filesystem;
  const fs::path dir = "bench_daemon_soak.tmp";
  fs::remove_all(dir);

  daemon::DaemonConfig cfg;
  cfg.service.rsa_bits = 1024;  // keygen is not what this bench measures
  cfg.start_server = false;
  cfg.store_dir = dir.string();
  cfg.checkpoint.interval = std::chrono::milliseconds(25);
  cfg.checkpoint.jitter_pct = 0;
  cfg.ingest.idle_backoff_max = std::chrono::milliseconds(5);
  cfg.scrape.enabled = false;
  cfg.watchdog.enabled = false;

  DaemonSoakRow row;
  row.kill_cycles = cycles;
  bool invariant_ok = true;
  double feed_seconds = 0.0;
  std::vector<double> recovery_ms;

  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    daemon::ServiceLifecycle d(cfg);
    const auto t0 = Clock::now();
    d.start();
    const double start_ms = seconds_since(t0) * 1e3;
    if (cycle > 0) {
      // Restarts after a kill must land on the newest sealed manifest in
      // one attempt with nothing rejected — the PR 5 recovery invariant.
      const auto& rec = d.recovery();
      recovery_ms.push_back(start_ms);
      invariant_ok = invariant_ok && d.recovered() && rec.manifests_tried == 1 &&
                     rec.profiles_rejected == 0 &&
                     rec.profiles_loaded == rec.manifest_profiles;
    }

    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(vps_per_cycle);
    for (std::size_t i = 0; i < vps_per_cycle; ++i) {
      const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(30));
      payloads.push_back(random_vp(unit, 8000.0, rng).serialize());
    }
    const auto feed_start = Clock::now();
    for (auto& p : payloads)
      if (d.ingest().submit(std::move(p))) ++row.vps_submitted;
    // Admission rate: submit-to-admitted through the bounded channel while
    // the drain thread time-slices the same core(s).
    feed_seconds += seconds_since(feed_start);

    // Wait until the channel emptied, then for one checkpoint sealed
    // after that — the manifest a kill now must leave recoverable.
    while (d.service().upload_channel().pending() != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t sealed = d.checkpointer()->written();
    while (d.checkpointer()->written() <= sealed) {
      d.checkpointer()->poke();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    d.kill_for_test();
  }

  row.sustained_ingest_vps_per_sec =
      feed_seconds > 0 ? static_cast<double>(row.vps_submitted) / feed_seconds
                       : 0.0;
  if (!recovery_ms.empty()) {
    double sum = 0.0;
    for (const double ms : recovery_ms) {
      sum += ms;
      row.recovery_ms_max = std::max(row.recovery_ms_max, ms);
    }
    row.recovery_ms_mean = sum / static_cast<double>(recovery_ms.size());
  }

  {
    store::SegmentStore store(dir.string());
    row.checkpoints = static_cast<std::size_t>(store.latest_sequence());
    store::RecoveryStats rec;
    const auto db = store.recover(&rec);
    row.vps_recovered = db.size();
    row.recovered_matches = invariant_ok && rec.profiles_rejected == 0 &&
                            rec.profiles_loaded == rec.manifest_profiles;
  }

  fs::remove_all(dir);
  return row;
}

struct DaemonChaosRow {
  std::size_t cycles = 0;               ///< lifecycle cycles (kill/drain alternating)
  std::size_t injected_failures = 0;    ///< failpoint fires across all cycles
  std::size_t checkpoint_failures = 0;  ///< failed checkpoint cycles (all retried)
  bool daemon_survived = false;         ///< every thread alive through every window
  bool health_degraded_seen = false;    ///< healthz left kHealthy inside windows
  bool health_recovered = false;        ///< back to kHealthy after every window
  bool clean_drains = false;            ///< drain cycles reported clean stops
  std::size_t leaked_temps = 0;         ///< *.tmp files found after any cycle
  bool recovered_matches = false;       ///< per-cycle canonical bytes bit-for-bit
};

/// The chaos soak: the daemon_soak workload with failpoints firing inside
/// the checkpoint path. Each cycle arms one fault family (ENOSPC on
/// segment data, EIO on fsync, rename failure, torn short writes, whole-
/// cycle failures), feeds live ingest through it, and requires the daemon
/// to eat `failures_per_cycle` consecutive checkpoint failures — health
/// must leave healthy — then disarms and requires a sealed checkpoint and
/// health back to healthy. Cycles alternate kill_for_test (crash) with
/// drain+stop (clean); after each, a cold recover must reproduce the live
/// database's canonical bytes (DbSnapshot::canonical_bytes — re-serialized,
/// not the manifest-seeded digests) and the store directory must hold
/// zero temp files. This is the acceptance harness for the failpoint
/// framework: ≥ 20 injected I/O failures per run with no daemon death.
DaemonChaosRow bench_daemon_chaos(std::size_t cycles,
                                  std::size_t failures_per_cycle,
                                  std::size_t vps_per_cycle, Rng& rng) {
  namespace fs = std::filesystem;
  const fs::path dir = "bench_daemon_chaos.tmp";
  fs::remove_all(dir);
  failpoint::disarm_all();

  daemon::DaemonConfig cfg;
  cfg.service.rsa_bits = 1024;
  cfg.start_server = false;
  cfg.store_dir = dir.string();
  cfg.checkpoint.interval = std::chrono::milliseconds(25);
  cfg.checkpoint.jitter_pct = 0;
  cfg.checkpoint.retry_backoff_min = std::chrono::milliseconds(2);
  cfg.checkpoint.retry_backoff_max = std::chrono::milliseconds(20);
  cfg.ingest.idle_backoff_max = std::chrono::milliseconds(5);
  cfg.scrape.enabled = false;
  cfg.watchdog.enabled = false;
  cfg.health.degraded_after = 1;
  cfg.health.failing_after = 3;

  // One fault family per cycle, round-robin. Windows are sized so each
  // family yields exactly `failures_per_cycle` failed checkpoint cycles
  // (one fire aborts one checkpoint attempt) and then exhausts.
  const std::string windowed = "@window:0:" + std::to_string(failures_per_cycle);
  const std::vector<std::string> specs{
      "store.write.data=enospc" + windowed,
      "store.write.fsync=eio" + windowed,
      "store.rename=eio" + windowed,
      "store.write.data=short" + windowed,
      "daemon.checkpoint.cycle=eio" + windowed,
      "store.write.open=enospc" + windowed,
  };

  DaemonChaosRow row;
  row.cycles = cycles;
  bool survived = true;
  bool degraded_seen_all = true;
  bool recovered_all = true;
  bool clean_all = true;
  bool matches_all = true;

  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    daemon::ServiceLifecycle d(cfg);
    d.start();
    row.leaked_temps += d.swept_temps();  // a prior cycle leaked debris

    // Arm BEFORE feeding: the first checkpoint that tries to seal the
    // new shards walks straight into the fault window.
    failpoint::arm_from_spec(specs[cycle % specs.size()]);

    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(vps_per_cycle);
    for (std::size_t i = 0; i < vps_per_cycle; ++i) {
      const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(30));
      payloads.push_back(random_vp(unit, 8000.0, rng).serialize());
    }
    for (auto& p : payloads) (void)d.ingest().submit(std::move(p));
    while (d.service().upload_channel().pending() != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Eat the whole fault window: poke the checkpointer through its
    // backoff until every armed fire has failed a cycle. The daemon must
    // stay Running (and its threads alive) the entire time, and health
    // must visibly leave kHealthy.
    bool left_healthy = false;
    while (d.checkpointer()->failures() < failures_per_cycle) {
      d.checkpointer()->poke();
      if (d.health_state() != daemon::HealthState::kHealthy) left_healthy = true;
      survived = survived && d.state() == daemon::LifecycleState::kRunning &&
                 d.ingest().running() && d.checkpointer()->running();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    left_healthy = left_healthy ||
                   d.health_state() != daemon::HealthState::kHealthy;
    degraded_seen_all = degraded_seen_all && left_healthy;
    row.checkpoint_failures += d.checkpointer()->failures();
    row.injected_failures += failpoint::total_fires();
    failpoint::disarm_all();

    // Recovery: the next successful cycle (written or provably skipped)
    // must snap health back to healthy.
    const std::uint64_t sealed =
        d.checkpointer()->written() + d.checkpointer()->skipped();
    while (d.checkpointer()->written() + d.checkpointer()->skipped() <= sealed) {
      d.checkpointer()->poke();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    recovered_all =
        recovered_all && d.health_state() == daemon::HealthState::kHealthy;
    survived = survived && d.state() == daemon::LifecycleState::kRunning;

    // The database is now quiescent: capture its canonical bytes as the
    // bit-for-bit oracle for what a recover must reproduce.
    const auto expected = d.service().database().snapshot().canonical_bytes();

    if (cycle % 2 == 0) {
      d.kill_for_test();
    } else {
      const bool drained = d.drain();
      const bool stopped = d.stop();
      clean_all = clean_all && drained && stopped;
    }

    std::size_t temps = 0;
    for (const auto& entry : fs::directory_iterator(dir))
      if (entry.path().filename().string().ends_with(".tmp")) ++temps;
    row.leaked_temps += temps;

    store::SegmentStore store(dir.string());
    store::RecoveryStats rec;
    const auto db = store.recover(&rec);
    matches_all = matches_all && rec.profiles_rejected == 0 &&
                  db.snapshot().canonical_bytes() == expected;
  }

  row.daemon_survived = survived;
  row.health_degraded_seen = degraded_seen_all;
  row.health_recovered = recovered_all;
  row.clean_drains = clean_all;
  row.recovered_matches = matches_all;
  failpoint::disarm_all();
  fs::remove_all(dir);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Index", "Spatio-temporal VP index: query + ingest scaling");
  const auto max_vps =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "max_vps", 1000000));
  const int queries = bench::int_flag(argc, argv, "queries", 200);
  const auto ingest_vps =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "ingest_vps", 20000));
  const int server_requests = bench::int_flag(argc, argv, "server_requests", 500);
  const int zipf_requests = bench::int_flag(argc, argv, "zipf_requests", 400);
  const auto viewmap_vps =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "viewmap_vps", 50000));
  const auto checkpoint_vps = std::min<std::size_t>(
      static_cast<std::size_t>(bench::int_flag(argc, argv, "checkpoint_vps", 1000000)),
      max_vps);
  const auto soak_cycles =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "soak_cycles", 5));
  const auto soak_vps =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "soak_vps", 300));
  const auto chaos_cycles =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "chaos_cycles", 6));
  const auto chaos_failures =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "chaos_failures", 4));
  const auto chaos_vps =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "chaos_vps", 200));
  unsigned threads = static_cast<unsigned>(bench::int_flag(argc, argv, "threads", 0));
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }

  std::printf("(hardware_concurrency=%u, ingest workers=%u)\n",
              std::thread::hardware_concurrency(), threads);

  // ── query latency vs database size ───────────────────────────────────
  std::printf("\n-- (site, unit-time) snapshot query latency: grid index vs linear scan --\n");
  std::printf("%-10s %-14s %-14s %-14s %-10s %-8s\n", "VPs", "snapshot (us)",
              "indexed (us)", "linear (us)", "speedup", "hits/q");
  std::vector<QueryRow> query_rows;
  for (std::size_t n : {std::size_t{10000}, std::size_t{100000}, std::size_t{1000000}}) {
    if (n > max_vps) break;
    Rng rng(1000 + n);
    const auto row = bench_queries(n, queries, rng);
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.1fx", row.speedup);
    std::printf("%-10zu %-14.2f %-14.2f %-14.1f %-10s %-8.1f\n", row.vps,
                row.snapshot_us, row.indexed_us, row.linear_us, speedup,
                static_cast<double>(row.hits) / queries);
    query_rows.push_back(row);
  }

  // ── ingest throughput: 1 worker vs N ─────────────────────────────────
  std::printf("\n-- batched ingest throughput (parse + screen + shard commit) --\n");
  Rng ingest_rng(77);
  const auto ingest = bench_ingest(ingest_vps, threads, ingest_rng);
  std::printf("%zu payloads: %.0f VPs/s single-thread, %.0f VPs/s with %u threads "
              "(%.2fx)\n",
              ingest.payloads, ingest.single_vps_per_sec, ingest.multi_vps_per_sec,
              ingest.threads, ingest.speedup);
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("note: this host exposes 1 CPU; multi-thread speedup needs cores.\n");

  // ── snapshot queries under concurrent ingest + eviction ──────────────
  std::printf("\n-- snapshot queries vs concurrent ingest + retention eviction --\n");
  Rng conc_rng(55);
  const std::size_t conc_vps = std::min<std::size_t>(max_vps, 100000);
  const auto conc = bench_concurrent(conc_vps, queries, conc_rng);
  std::printf("%zu VPs: %.2f us/investigation (snapshot + query) while a writer "
              "ingested %.0f VPs/s and ran %zu retention passes\n",
              conc.vps, conc.query_us, conc.writer_vps_per_sec, conc.evictions);
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("note: 1-core host — reader and writer time-slice one CPU, so the\n"
                "      per-investigation latency above includes writer preemption.\n");

  // ── investigation-server throughput ──────────────────────────────────
  std::printf("\n-- investigation server: worker pool vs live ingest + eviction --\n");
  Rng server_rng(99);
  const std::size_t server_vps = std::min<std::size_t>(max_vps, 20000);
  const auto srv = bench_server(server_vps, server_requests, threads, server_rng);
  std::printf("%zu VPs, %zu workers: %.0f requests/s (%.1f us/request end to end), "
              "%zu reports from %zu requests;\n"
              "  %zu snapshots pinned over %zu batches (write-version reuse), "
              "peak queue %zu, writer ingested %.0f VPs/s\n",
              srv.vps, srv.workers, srv.requests_per_sec, srv.request_us,
              srv.reports, srv.requests, srv.snapshots, srv.batches,
              srv.peak_queue, srv.writer_vps_per_sec);
  std::printf("  serve-side latency (viewmap_server_request_us): "
              "p50=%llu us, p90=%llu us, p99=%llu us\n",
              static_cast<unsigned long long>(srv.request_p50_us),
              static_cast<unsigned long long>(srv.request_p90_us),
              static_cast<unsigned long long>(srv.request_p99_us));
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("note: 1-core host — workers, submitter, and the ingest loop\n"
                "      time-slice one CPU; worker scaling needs real cores.\n");

  // ── server_zipf: result cache under a skewed request mix ─────────────
  std::printf("\n-- server_zipf: digest-keyed result cache, Zipf request mix, "
              "cache on vs off --\n");
  // The scenario fixes its own dense (1.2 km)² geometry; 24k VPs over its
  // 12 minutes ≈ 1.4k VPs/km²/minute — the paper's dense urban regime, a
  // few hundred site members per key, so a miss pays a real build.
  const std::size_t zipf_vps = std::min<std::size_t>(max_vps, 24000);
  const auto zipf =
      bench_server_zipf(zipf_vps, zipf_requests, /*alpha=*/1.1, threads);
  std::printf(
      "%zu VPs, %zu workers, %zu requests over %zu keys (alpha=%.1f):\n"
      "  cache on:  %.0f requests/s, hit rate %.1f%%, hit p50=%llu us / "
      "p99=%llu us, serve p50=%llu us / p99=%llu us\n"
      "  cache off: %.0f requests/s  ->  %.1fx speedup; reports %s; "
      "cache %zu / %zu bytes (%s)\n",
      zipf.vps, zipf.workers, zipf.requests, zipf.distinct_keys, zipf.alpha,
      zipf.req_per_sec, zipf.hit_rate * 100.0,
      static_cast<unsigned long long>(zipf.hit_p50_us),
      static_cast<unsigned long long>(zipf.hit_p99_us),
      static_cast<unsigned long long>(zipf.request_p50_us),
      static_cast<unsigned long long>(zipf.request_p99_us),
      zipf.req_per_sec_nocache, zipf.speedup_vs_nocache,
      zipf.reports_match ? "bit-identical" : "DIVERGED",
      zipf.cache_bytes, zipf.cache_capacity_bytes,
      zipf.bytes_ok ? "within bound" : "OVER BOUND");

  // ── viewmap construction: grid+CSR vs naive O(n²) reference ─────────
  std::printf("\n-- viewmap construction: grid+CSR builder vs naive O(n^2) reference --\n");
  std::printf("%-8s %-8s %-12s %-12s %-10s %-10s %-12s %-6s\n", "members", "layout",
              "grid (ms)", "naive (ms)", "speedup", "edges", "edges/s", "match");
  std::vector<ViewmapBuildRow> vm_rows;
  for (std::size_t n : {std::size_t{1000}, std::size_t{10000}, std::size_t{50000}}) {
    if (n > viewmap_vps) break;
    for (const bool dense : {true, false}) {
      Rng rng(3000 + n + (dense ? 1 : 0));
      const auto row = bench_viewmap_build(n, dense, rng);
      char speedup[32];
      std::snprintf(speedup, sizeof speedup, "%.1fx", row.speedup);
      std::printf("%-8zu %-8s %-12.2f %-12.1f %-10s %-10zu %-12.0f %-6s\n", row.n,
                  row.layout, row.grid_ms, row.naive_ms, speedup, row.edges,
                  row.edges_per_sec, row.edges_match ? "yes" : "NO");
      vm_rows.push_back(row);
    }
  }

  // ── observability overhead: registry wired vs disabled ──────────────
  std::printf("\n-- observability overhead: single-thread ingest, registry on vs off --\n");
  Rng obs_rng(31337);
  const auto obs_row = bench_obs_overhead(ingest_vps, obs_rng);
  std::printf("%zu payloads: %.0f VPs/s plain, %.0f VPs/s metered (%.2f%% overhead)\n",
              obs_row.payloads, obs_row.plain_vps_per_sec, obs_row.metered_vps_per_sec,
              obs_row.overhead_pct);

  // ── incremental persistence: segment checkpoints vs full saves ──────
  std::printf("\n-- incremental checkpoint vs full checkpoint (segment store) --\n");
  Rng ckpt_rng(7777);
  RecoveryV2Row rv2;
  const auto ckpt = bench_checkpoint(checkpoint_vps, ckpt_rng, rv2);
  std::printf(
      "%zu VPs over %zu shards, %zu churned (+%zu VPs):\n"
      "  full segment checkpoint (first): %.1f ms, %llu bytes\n"
      "  incremental checkpoint:          %.1f ms, %llu bytes "
      "(%zu segments written, %zu sealed by reference)\n"
      "  cold restart (recover):          %.1f ms, %zu VPs, invariant %s\n",
      ckpt.vps, ckpt.shards, ckpt.churn_shards, ckpt.churn_vps, ckpt.full_checkpoint_ms,
      static_cast<unsigned long long>(ckpt.full_checkpoint_bytes),
      ckpt.incr_checkpoint_ms, static_cast<unsigned long long>(ckpt.incr_bytes),
      ckpt.incr_segments_written, ckpt.incr_segments_reused, ckpt.restart_ms,
      ckpt.recovered_vps, ckpt.recovered_matches ? "OK" : "VIOLATED");

  // ── recovery_v2: the cold restart's parallel-restore phases ─────────
  std::printf("\n-- recovery_v2: packed cold restart, per phase --\n");
  std::printf(
      "%zu VPs over %zu shards, %u recovery thread(s):\n"
      "  cold restart: %.1f ms, invariant %s\n"
      "  phases: read %.1f ms, validate %.1f ms, parse %.1f ms "
      "(worker-summed), adopt %.1f ms\n",
      rv2.vps, rv2.shards, rv2.threads, rv2.restart_v2_ms,
      rv2.recovered_matches ? "OK" : "VIOLATED", rv2.read_ms, rv2.validate_ms,
      rv2.parse_ms, rv2.adopt_ms);
  if (rv2.baseline_restart_ms > 0.0)
    std::printf("  vs recorded pre-packed baseline (%.1f ms at 1M VPs): %.1fx\n",
                rv2.baseline_restart_ms, rv2.speedup_vs_baseline);

  // ── daemon soak: the assembled service under kill -9 cycles ─────────
  std::printf("\n-- daemon soak: ServiceLifecycle under repeated kill -9 + restart --\n");
  Rng soak_rng(4242);
  const auto soak = bench_daemon_soak(soak_cycles, soak_vps, soak_rng);
  std::printf(
      "%zu kill cycles, %zu VPs submitted (%.0f VPs/s sustained through the "
      "ingest drain):\n"
      "  %zu checkpoints sealed, restart recovery %.1f ms mean / %.1f ms max, "
      "%zu VPs in the final cold recover, invariant %s\n",
      soak.kill_cycles, soak.vps_submitted, soak.sustained_ingest_vps_per_sec,
      soak.checkpoints, soak.recovery_ms_mean, soak.recovery_ms_max,
      soak.vps_recovered, soak.recovered_matches ? "OK" : "VIOLATED");

  // ── daemon chaos: the soak under injected durable-I/O failures ──────
  std::printf("\n-- daemon chaos: failpoint-injected I/O failures through the "
              "checkpoint path --\n");
  Rng chaos_rng(31415);
  const auto chaos =
      bench_daemon_chaos(chaos_cycles, chaos_failures, chaos_vps, chaos_rng);
  std::printf(
      "%zu cycles, %zu injected faults, %zu checkpoint failures eaten:\n"
      "  daemon survived %s, health degraded %s / recovered %s, clean drains "
      "%s, leaked temps %zu, recovery invariant %s\n",
      chaos.cycles, chaos.injected_failures, chaos.checkpoint_failures,
      chaos.daemon_survived ? "yes" : "NO",
      chaos.health_degraded_seen ? "yes" : "NO",
      chaos.health_recovered ? "yes" : "NO", chaos.clean_drains ? "yes" : "NO",
      chaos.leaked_temps, chaos.recovered_matches ? "OK" : "VIOLATED");

  // ── JSON trajectory ──────────────────────────────────────────────────
  FILE* json = std::fopen("BENCH_index.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"hardware_concurrency\": %u,\n  \"query\": [\n",
                 std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < query_rows.size(); ++i) {
      const auto& r = query_rows[i];
      std::fprintf(json,
                   "    {\"vps\": %zu, \"snapshot_us\": %.3f, \"indexed_us\": %.3f, "
                   "\"linear_us\": %.3f, \"speedup\": %.2f}%s\n",
                   r.vps, r.snapshot_us, r.indexed_us, r.linear_us, r.speedup,
                   i + 1 < query_rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"ingest\": {\"payloads\": %zu, \"single_vps_per_sec\": %.1f, "
                 "\"threads\": %u, \"multi_vps_per_sec\": %.1f, \"speedup\": %.3f%s},\n",
                 ingest.payloads, ingest.single_vps_per_sec, ingest.threads,
                 ingest.multi_vps_per_sec, ingest.speedup,
                 std::thread::hardware_concurrency() <= 1
                     ? ", \"note\": \"single-core host: thread scaling not observable\""
                     : "");
    std::fprintf(json,
                 "  \"snapshot_concurrent\": {\"vps\": %zu, \"query_us\": %.3f, "
                 "\"writer_vps_per_sec\": %.1f, \"retention_passes\": %zu%s},\n",
                 conc.vps, conc.query_us, conc.writer_vps_per_sec, conc.evictions,
                 std::thread::hardware_concurrency() <= 1
                     ? ", \"note\": \"single-core host: reader/writer time-slice one "
                       "CPU; latency includes writer preemption\""
                     : "");
    std::fprintf(json, "  \"viewmap_build\": [\n");
    for (std::size_t i = 0; i < vm_rows.size(); ++i) {
      const auto& r = vm_rows[i];
      std::fprintf(json,
                   "    {\"members\": %zu, \"layout\": \"%s\", "
                   "\"density_per_km2\": %.0f, \"build_threads_max\": %zu, "
                   "\"grid_ms\": %.3f, \"naive_ms\": %.3f, \"speedup\": %.2f, "
                   "\"edges\": %zu, \"edges_per_sec\": %.0f, \"edges_match\": %s}%s\n",
                   r.n, r.layout, r.density_per_km2, r.build_threads_max, r.grid_ms,
                   r.naive_ms, r.speedup, r.edges, r.edges_per_sec,
                   r.edges_match ? "true" : "false",
                   i + 1 < vm_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(
        json,
        "  \"checkpoint_incremental\": {\"vps\": %zu, \"shards\": %zu, "
        "\"churn_shards\": %zu, \"churn_vps\": %zu, \"full_checkpoint_ms\": %.1f, "
        "\"full_checkpoint_bytes\": %llu, \"incr_checkpoint_ms\": %.1f, "
        "\"incr_bytes\": %llu, \"segments_written\": %zu, \"segments_reused\": %zu, "
        "\"restart_ms\": %.1f, \"recovered_vps\": %zu, \"recovered_matches\": %s, "
        "\"note\": \"fsync on; segment writes proportional to churned shards\"},\n",
        ckpt.vps, ckpt.shards, ckpt.churn_shards, ckpt.churn_vps, ckpt.full_checkpoint_ms,
        static_cast<unsigned long long>(ckpt.full_checkpoint_bytes),
        ckpt.incr_checkpoint_ms, static_cast<unsigned long long>(ckpt.incr_bytes),
        ckpt.incr_segments_written, ckpt.incr_segments_reused, ckpt.restart_ms,
        ckpt.recovered_vps, ckpt.recovered_matches ? "true" : "false");
    std::fprintf(
        json,
        "  \"recovery_v2\": {\"vps\": %zu, \"shards\": %zu, \"threads\": %u, "
        "\"restart_v2_ms\": %.1f, \"baseline_restart_ms\": %.1f, "
        "\"speedup_vs_baseline\": %.2f, \"read_ms\": %.1f, "
        "\"validate_ms\": %.1f, \"parse_ms\": %.1f, \"adopt_ms\": %.1f, "
        "\"recovered_matches\": %s, \"note\": \"the checkpoint_incremental "
        "store's cold restart through the parallel restore pool; baseline is "
        "the recorded pre-packed-format restart at 1M VPs "
        "(0.0 when this run used a different VP count)\"},\n",
        rv2.vps, rv2.shards, rv2.threads, rv2.restart_v2_ms,
        rv2.baseline_restart_ms, rv2.speedup_vs_baseline,
        rv2.read_ms, rv2.validate_ms, rv2.parse_ms, rv2.adopt_ms,
        rv2.recovered_matches ? "true" : "false");
    std::fprintf(json,
                 "  \"server_throughput\": {\"vps\": %zu, \"workers\": %zu, "
                 "\"requests\": %zu, \"requests_per_sec\": %.1f, \"request_us\": %.1f, "
                 "\"request_p50_us\": %llu, \"request_p90_us\": %llu, "
                 "\"request_p99_us\": %llu, "
                 "\"reports\": %zu, \"writer_vps_per_sec\": %.1f, \"snapshots\": %zu, "
                 "\"batches\": %zu, \"peak_queue\": %zu%s},\n",
                 srv.vps, srv.workers, srv.requests, srv.requests_per_sec,
                 srv.request_us,
                 static_cast<unsigned long long>(srv.request_p50_us),
                 static_cast<unsigned long long>(srv.request_p90_us),
                 static_cast<unsigned long long>(srv.request_p99_us),
                 srv.reports, srv.writer_vps_per_sec, srv.snapshots,
                 srv.batches, srv.peak_queue,
                 std::thread::hardware_concurrency() <= 1
                     ? ", \"note\": \"single-core host: workers/submitter/ingest "
                       "time-slice one CPU; worker scaling needs cores\""
                     : "");
    std::fprintf(
        json,
        "  \"server_zipf\": {\"vps\": %zu, \"workers\": %zu, \"requests\": %zu, "
        "\"alpha\": %.2f, \"distinct_keys\": %zu, \"hit_rate\": %.4f, "
        "\"req_per_sec\": %.1f, \"req_per_sec_nocache\": %.1f, "
        "\"speedup_vs_nocache\": %.2f, \"hit_p50_us\": %llu, \"hit_p99_us\": %llu, "
        "\"request_p50_us\": %llu, \"request_p99_us\": %llu, "
        "\"reports_match\": %s, \"cache_bytes\": %zu, "
        "\"cache_capacity_bytes\": %zu, \"bytes_ok\": %s, "
        "\"note\": \"Zipf mix over quiescent hot minutes with live ingest in "
        "the newest minutes; reports_match compares cache-hit vs fresh-build "
        "fingerprints per key\"},\n",
        zipf.vps, zipf.workers, zipf.requests, zipf.alpha, zipf.distinct_keys,
        zipf.hit_rate, zipf.req_per_sec, zipf.req_per_sec_nocache,
        zipf.speedup_vs_nocache,
        static_cast<unsigned long long>(zipf.hit_p50_us),
        static_cast<unsigned long long>(zipf.hit_p99_us),
        static_cast<unsigned long long>(zipf.request_p50_us),
        static_cast<unsigned long long>(zipf.request_p99_us),
        zipf.reports_match ? "true" : "false", zipf.cache_bytes,
        zipf.cache_capacity_bytes, zipf.bytes_ok ? "true" : "false");
    std::fprintf(json,
                 "  \"obs_overhead\": {\"payloads\": %zu, "
                 "\"plain_vps_per_sec\": %.1f, \"metered_vps_per_sec\": %.1f, "
                 "\"overhead_pct\": %.2f},\n",
                 obs_row.payloads, obs_row.plain_vps_per_sec,
                 obs_row.metered_vps_per_sec, obs_row.overhead_pct);
    std::fprintf(json,
                 "  \"daemon_soak\": {\"kill_cycles\": %zu, "
                 "\"vps_submitted\": %zu, \"sustained_ingest_vps_per_sec\": %.1f, "
                 "\"checkpoints\": %zu, \"recovery_ms_mean\": %.2f, "
                 "\"recovery_ms_max\": %.2f, \"vps_recovered\": %zu, "
                 "\"recovered_matches\": %s, \"note\": \"fsync on; kill -9 via "
                 "kill_for_test between cycles\"},\n",
                 soak.kill_cycles, soak.vps_submitted,
                 soak.sustained_ingest_vps_per_sec, soak.checkpoints,
                 soak.recovery_ms_mean, soak.recovery_ms_max, soak.vps_recovered,
                 soak.recovered_matches ? "true" : "false");
    std::fprintf(json,
                 "  \"daemon_chaos\": {\"cycles\": %zu, "
                 "\"injected_failures\": %zu, \"checkpoint_failures\": %zu, "
                 "\"daemon_survived\": %s, \"health_degraded_seen\": %s, "
                 "\"health_recovered\": %s, \"clean_drains\": %s, "
                 "\"leaked_temps\": %zu, \"recovered_matches\": %s, "
                 "\"note\": \"failpoint windows: enospc/eio/fsync/rename/torn "
                 "writes; alternating kill -9 and clean drains\"}\n}\n",
                 chaos.cycles, chaos.injected_failures,
                 chaos.checkpoint_failures,
                 chaos.daemon_survived ? "true" : "false",
                 chaos.health_degraded_seen ? "true" : "false",
                 chaos.health_recovered ? "true" : "false",
                 chaos.clean_drains ? "true" : "false", chaos.leaked_temps,
                 chaos.recovered_matches ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_index.json\n");
  }
  return 0;
}
