// viewmap_inspect — load a segment-store checkpoint directory, print
// database statistics, and optionally run an investigation against it.
//
// Usage:
//   viewmap_inspect SEGMENT_DIR                      # stats per unit-time
//   viewmap_inspect SEGMENT_DIR X Y RADIUS MINUTE    # investigate a site
//   viewmap_inspect --metrics SEGMENT_DIR ...        # also dump the metrics
//                                                      the recovery published
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/hex.h"
#include "obs/metrics.h"
#include "store/segment_store.h"
#include "system/service.h"
#include "system/verifier.h"
#include "system/viewmap_graph.h"

using namespace viewmap;

int main(int argc, char** argv) {
  // Recovery and timeline instrumentation publish here when --metrics is
  // given; the registry is rendered after the census.
  const char* prog = argv[0];
  bool metrics_on = false;
  if (argc >= 2 && std::strcmp(argv[1], "--metrics") == 0) {
    metrics_on = true;
    --argc;
    ++argv;
  }
  if (argc != 2 && argc != 6) {
    std::fprintf(stderr,
                 "usage: %s [--metrics] SEGMENT_DIR [X Y RADIUS MINUTE]\n",
                 prog);
    return 2;
  }

  obs::MetricsRegistry registry;
  sys::VpDatabase db;
  try {
    store::SegmentStore segments(argv[1]);
    if (metrics_on) segments.adopt_metrics(&registry);
    if (segments.latest_sequence() == 0) {
      // A directory with no manifest is far more likely a typo than a
      // store that never checkpointed.
      std::fprintf(stderr, "error: no checkpoint found in %s\n", argv[1]);
      return 1;
    }
    store::RecoveryStats rec;
    index::TimelineConfig index_cfg;
    if (metrics_on) index_cfg.metrics = &registry;
    db = segments.recover(&rec, index_cfg);
    std::printf(
        "%s: checkpoint %llu, %zu segments, %zu VPs loaded (%zu rejected by "
        "the upload screen), %zu trusted%s\n",
        argv[1], static_cast<unsigned long long>(rec.sequence), rec.segments_loaded,
        rec.profiles_loaded, rec.profiles_rejected, rec.trusted_marked,
        rec.manifests_tried > 1 ? " [fell back past a damaged checkpoint]" : "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // One pinned snapshot serves the census and the investigation below —
  // the read API; nothing here touches live shards.
  const sys::DbSnapshot snap = db.snapshot();
  std::printf("%-12s %-8s %-8s\n", "unit-time", "VPs", "trusted");
  for (const auto& shard : snap.shard_stats())
    std::printf("%-12lld %-8zu %-8zu\n", static_cast<long long>(shard.unit_time),
                shard.vp_count, shard.trusted_count);

  if (argc == 6) {
    const double x = std::atof(argv[2]);
    const double y = std::atof(argv[3]);
    const double r = std::atof(argv[4]);
    const TimeSec minute = std::atoll(argv[5]) * kUnitTimeSec;
    const geo::Rect site{{x - r, y - r}, {x + r, y + r}};

    const sys::ViewmapBuilder builder;
    const sys::Viewmap map = builder.build(snap, site, minute);
    const auto verdict = sys::verify(map, site);
    std::printf("\ninvestigation @ (%.0f, %.0f) r=%.0f, minute %lld:\n", x, y, r,
                static_cast<long long>(minute / kUnitTimeSec));
    std::printf("  viewmap: %zu members, %zu viewlinks\n", map.size(),
                map.edge_count());
    std::printf("  site: %zu members, %zu legitimate, %zu rejected\n",
                verdict.site_members.size(), verdict.legitimate.size(),
                verdict.rejected.size());
    for (std::size_t i : verdict.legitimate)
      std::printf("    LEGITIMATE %s trust=%.5f\n",
                  to_hex(map.member(i).vp_id().bytes).substr(0, 16).c_str(),
                  verdict.ranks.scores[i]);
  }

  if (metrics_on) {
    std::printf("\n");
    registry.render(std::cout);
  }
  return 0;
}
