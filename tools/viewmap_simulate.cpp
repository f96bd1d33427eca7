// viewmap_simulate — generate a ViewMap VP database from simulated city
// traffic and seal it as a segment-store checkpoint directory.
//
// Usage:
//   viewmap_simulate OUT_DIR [vehicles] [minutes] [extent_m] [seed]
//
// Vehicle 0 plays the police car: its actual VPs are marked trusted.
// Inspect the result with viewmap_inspect.
#include <cstdio>
#include <cstdlib>

#include "common/worker_pool.h"
#include "index/ingest_engine.h"
#include "sim/simulator.h"
#include "store/segment_store.h"
#include "system/service.h"

using namespace viewmap;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s OUT_DIR [vehicles=60] [minutes=5] [extent_m=2500] "
                 "[seed=1]\n",
                 argv[0]);
    return 2;
  }
  const std::string out_path = argv[1];
  const int vehicles = argc > 2 ? std::atoi(argv[2]) : 60;
  const int minutes = argc > 3 ? std::atoi(argv[3]) : 5;
  const double extent = argc > 4 ? std::atof(argv[4]) : 2500.0;
  const auto seed = static_cast<std::uint64_t>(argc > 5 ? std::atoll(argv[5]) : 1);

  Rng city_rng(seed);
  road::GridCityConfig ccfg;
  ccfg.extent_m = extent;
  ccfg.block_m = 250.0;
  ccfg.building_fill = 0.55;
  auto city = road::make_grid_city(ccfg, city_rng);

  sim::SimConfig cfg;
  cfg.seed = seed + 1;
  cfg.vehicle_count = vehicles;
  cfg.minutes = minutes;
  cfg.video_bytes_per_second = 32;
  sim::TrafficSimulator simulator(std::move(city), cfg);
  const sim::SimResult world = simulator.run();

  // Trusted VPs (vehicle 0, the police car) take the authenticated path;
  // everything else is serialized and batch-committed by the ingest engine,
  // exactly as anonymous uploads reach a deployed service.
  sys::VpDatabase db;
  std::size_t guards = 0;
  std::vector<std::vector<std::uint8_t>> anonymous;
  anonymous.reserve(world.profiles.size());
  for (const auto& rec : world.profiles) {
    guards += rec.guard;
    if (!rec.guard && rec.creator == 0)
      db.upload(rec.profile, /*trusted=*/true);
    else
      anonymous.push_back(rec.profile.serialize());
  }
  index::IngestEngine engine(db);
  const auto ingest = engine.ingest(std::move(anonymous));

  // Persist and report from one pinned snapshot: the bytes on disk and
  // the census below describe exactly the same immutable state.
  const sys::DbSnapshot snap = db.snapshot();
  store::CheckpointStats sealed;
  try {
    store::SegmentStore segments(out_path);
    sealed = segments.checkpoint(snap);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("%s: checkpoint %llu, %zu VPs (%zu guards, %zu trusted) from %d vehicles x %d min\n",
              out_path.c_str(), static_cast<unsigned long long>(sealed.sequence), snap.size(),
              guards, snap.trusted_count(), vehicles, minutes);
  std::printf("ingest: %zu accepted, %zu malformed, %zu untimely, %zu duplicate (pool width %u)\n",
              ingest.accepted, ingest.rejected_malformed, ingest.rejected_untimely,
              ingest.rejected_duplicate, common::WorkerPool::process().width());
  std::printf("%-12s %-8s %-8s\n", "unit-time", "VPs", "trusted");
  for (const auto& shard : snap.shard_stats())
    std::printf("%-12lld %-8zu %-8zu\n", static_cast<long long>(shard.unit_time),
                shard.vp_count, shard.trusted_count);
  return 0;
}
