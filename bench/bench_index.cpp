// bench_index — perf trajectory for the spatio-temporal VP index.
//
//   (1) (site, unit-time) query latency through a DbSnapshot: a scan of
//       the query's one-minute shard vs the pre-index scan of the whole
//       store, at growing database sizes.
//   (2) batched ingest throughput: 1 worker vs N workers through the
//       striped-lock commit path.
//   (3) snapshot queries under concurrent ingest + retention eviction:
//       one thread investigates (snapshot per query), another keeps
//       committing uploads and evicting — the workload the snapshot API
//       exists for.
//   (4) viewmap construction: the packed, sharded CSR builder vs the
//       retained naive O(n²) reference, n ∈ {1k, 10k, 50k} members in
//       dense (urban rush hour) and sparse (city-scale) layouts. The two
//       edge sets are compared bit-for-bit; tools/run_bench.sh fails the
//       run if they ever diverge.
//   (5) incremental persistence: the first full segment-store checkpoint
//       vs an incremental one after 1% shard churn, plus one cold-restart
//       recovery of the churned store. tools/run_bench.sh asserts the
//       recovery invariant (profiles recovered == profiles the manifest
//       promises == profiles in the pinned snapshot).
//   (5b) recovery_v2: that cold restart (parallel recovery pool) with its
//       per-phase (read/validate/parse/adopt) breakdown. tools/
//       run_bench.sh asserts recovered_matches and, on 1M-VP runs, a
//       ≥ 5× speedup over the recorded pre-packed-format baseline restart.
//
// Emits BENCH_index.json (cwd) so future PRs can diff the numbers.
//
//   ./bench/bench_index [--max_vps=1000000] [--queries=200]
//                       [--ingest_vps=20000] [--viewmap_vps=50000]
//                       [--checkpoint_vps=1000000]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "attack/fake_vp.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "index/ingest_engine.h"
#include "store/segment_store.h"
#include "system/service.h"
#include "system/viewmap_graph.h"

using namespace viewmap;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr auto kAccepted = sys::VpDatabase::Admission::kAccepted;

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
    if (db.upload(random_vp(unit, extent, rng), false) != kAccepted) --i;
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

IngestRow bench_ingest(std::size_t payload_count, Rng& rng) {
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(payload_count);
  for (std::size_t i = 0; i < payload_count; ++i) {
    const TimeSec unit = kUnitTimeSec * static_cast<TimeSec>(rng.index(30));
    payloads.push_back(random_vp(unit, 8000.0, rng).serialize());
  }

  IngestRow row;
  row.payloads = payload_count;
  row.threads = common::WorkerPool::process().width();
  common::WorkerPool single(1);
  for (const bool multi : {false, true}) {
    sys::VpDatabase db;
    index::IngestEngine engine(db, {}, multi ? common::WorkerPool::process() : single);
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
    if (db.upload(random_vp(unit, extent, rng), false) != kAccepted) --i;
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
      if (db.upload(random_vp(unit, extent, wrng), false) == kAccepted && ++n % 128 == 0) {
        // Churn shards the way the batch path does between batches.
        db.evict_older_than(kUnitTimeSec);
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

struct ViewmapBuildRow {
  std::size_t n = 0;
  const char* layout = "";
  double density_per_km2 = 0.0;
  double build_ms = 0.0;  ///< packed, sharded CSR builder
  double naive_ms = 0.0;  ///< retained O(n²) reference builder
  double speedup = 0.0;
  std::size_t edges = 0;
  double edges_per_sec = 0.0;  ///< viewlinks emitted per second (packed path)
  bool edges_match = false;    ///< CSR bit-identical to the reference
  /// The process pool's width: the most tasks a build shards into on
  /// this host. Small builds use fewer (serial cutoff, per-task minimum
  /// work).
  std::size_t build_threads_max = 1;
};

/// §5.2.1 viewmap construction over a synthetic minute of traffic:
/// vehicles travel in platoons (≤6 vehicles, 40 m headway) with mutual
/// Bloom links between platoon neighbors — the local connectivity real
/// VD exchange produces — spread at the layout's density. The packed
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

  // Warm the per-profile probe tables (memoized SHA-256 per VD) so both
  // timed builds measure pair work — the steady state a live server
  // sees, since profiles keep their tables across investigations.
  for (const auto* m : members) (void)m->bloom_probes();

  ViewmapBuildRow row;
  row.n = n;
  row.layout = dense ? "dense" : "sparse";
  row.density_per_km2 = density;
  const sys::ViewmapBuilder builder;  // builds on the process pool
  row.build_threads_max = common::WorkerPool::process().width();

  auto start = Clock::now();
  const sys::Viewmap packed = builder.build_from_members(members, trusted, 0);
  row.build_ms = seconds_since(start) * 1e3;

  start = Clock::now();
  const sys::Viewmap naive = builder.build_from_members_reference(members, trusted, 0);
  row.naive_ms = seconds_since(start) * 1e3;

  row.speedup = row.build_ms > 0 ? row.naive_ms / row.build_ms : 0.0;
  row.edges = packed.edge_count();
  row.edges_per_sec =
      row.build_ms > 0 ? static_cast<double>(row.edges) / (row.build_ms / 1e3) : 0.0;
  row.edges_match = packed.graph() == naive.graph();
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
    if (db.upload(random_vp(unit, extent, rng), false) != kAccepted) --i;
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
      if (db.upload(random_vp(unit, extent, rng), false) == kAccepted) ++row.churn_vps;
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

}  // namespace

int main(int argc, char** argv) {
  bench::header("Index", "Spatio-temporal VP index: query + ingest scaling");
  const auto max_vps =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "max_vps", 1000000));
  const int queries = bench::int_flag(argc, argv, "queries", 200);
  const auto ingest_vps =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "ingest_vps", 20000));
  const auto viewmap_vps =
      static_cast<std::size_t>(bench::int_flag(argc, argv, "viewmap_vps", 50000));
  const auto checkpoint_vps = std::min<std::size_t>(
      static_cast<std::size_t>(bench::int_flag(argc, argv, "checkpoint_vps", 1000000)),
      max_vps);

  std::printf("(hardware_concurrency=%u, worker pool width=%u)\n",
              std::thread::hardware_concurrency(), common::WorkerPool::process().width());

  // ── query latency vs database size ───────────────────────────────────
  std::printf("\n-- (site, unit-time) snapshot query latency: minute scan vs full scan --\n");
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
  const auto ingest = bench_ingest(ingest_vps, ingest_rng);
  std::printf("%zu payloads: %.0f VPs/s single-thread, %.0f VPs/s with %u threads "
              "(%.2fx)\n",
              ingest.payloads, ingest.single_vps_per_sec, ingest.multi_vps_per_sec,
              ingest.threads, ingest.speedup);

  // ── snapshot queries under concurrent ingest + eviction ──────────────
  std::printf("\n-- snapshot queries vs concurrent ingest + retention eviction --\n");
  Rng conc_rng(55);
  const std::size_t conc_vps = std::min<std::size_t>(max_vps, 100000);
  const auto conc = bench_concurrent(conc_vps, queries, conc_rng);
  std::printf("%zu VPs: %.2f us/investigation (snapshot + query) while a writer "
              "ingested %.0f VPs/s and ran %zu retention passes\n",
              conc.vps, conc.query_us, conc.writer_vps_per_sec, conc.evictions);

  // ── viewmap construction: packed builder vs naive O(n²) reference ───
  std::printf("\n-- viewmap construction: packed builder vs naive O(n^2) reference --\n");
  std::printf("%-8s %-8s %-12s %-12s %-10s %-10s %-12s %-6s\n", "members", "layout",
              "build (ms)", "naive (ms)", "speedup", "edges", "edges/s", "match");
  std::vector<ViewmapBuildRow> vm_rows;
  for (std::size_t n : {std::size_t{1000}, std::size_t{10000}, std::size_t{50000}}) {
    if (n > viewmap_vps) break;
    for (const bool dense : {true, false}) {
      Rng rng(3000 + n + (dense ? 1 : 0));
      const auto row = bench_viewmap_build(n, dense, rng);
      char speedup[32];
      std::snprintf(speedup, sizeof speedup, "%.1fx", row.speedup);
      std::printf("%-8zu %-8s %-12.2f %-12.1f %-10s %-10zu %-12.0f %-6s\n", row.n,
                  row.layout, row.build_ms, row.naive_ms, speedup, row.edges,
                  row.edges_per_sec, row.edges_match ? "yes" : "NO");
      vm_rows.push_back(row);
    }
  }

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
                 "\"threads\": %u, \"multi_vps_per_sec\": %.1f, \"speedup\": %.3f},\n",
                 ingest.payloads, ingest.single_vps_per_sec, ingest.threads,
                 ingest.multi_vps_per_sec, ingest.speedup);
    std::fprintf(json,
                 "  \"snapshot_concurrent\": {\"vps\": %zu, \"query_us\": %.3f, "
                 "\"writer_vps_per_sec\": %.1f, \"retention_passes\": %zu},\n",
                 conc.vps, conc.query_us, conc.writer_vps_per_sec, conc.evictions);
    std::fprintf(json, "  \"viewmap_build\": [\n");
    for (std::size_t i = 0; i < vm_rows.size(); ++i) {
      const auto& r = vm_rows[i];
      std::fprintf(json,
                   "    {\"members\": %zu, \"layout\": \"%s\", "
                   "\"density_per_km2\": %.0f, \"build_threads_max\": %zu, "
                   "\"build_ms\": %.3f, \"naive_ms\": %.3f, \"speedup\": %.2f, "
                   "\"edges\": %zu, \"edges_per_sec\": %.0f, \"edges_match\": %s}%s\n",
                   r.n, r.layout, r.density_per_km2, r.build_threads_max, r.build_ms,
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
        "(0.0 when this run used a different VP count)\"}\n}\n",
        rv2.vps, rv2.shards, rv2.threads, rv2.restart_v2_ms,
        rv2.baseline_restart_ms, rv2.speedup_vs_baseline,
        rv2.read_ms, rv2.validate_ms, rv2.parse_ms, rv2.adopt_ms,
        rv2.recovered_matches ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_index.json\n");
  }
  return 0;
}
