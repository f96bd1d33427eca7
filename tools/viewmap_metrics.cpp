// viewmap_metrics — drive a small synthetic ViewMap service end to end
// (ingest → investigation server → checkpoint) and print the full
// metrics exposition plus the slowest investigation traces.
//
// Usage:
//   viewmap_metrics [--vps=N] [--requests=R] [--workers=W] [--selftest]
//
// --selftest exercises the same workload but prints nothing except
// failures and exits non-zero when any observability invariant breaks
// (metric families present, p50 ≤ p90 ≤ p99, registry counters agreeing
// with the stats structs, at least one multi-span trace, repeat builds of
// one minute answered from its viewlink memo). CI's Release
// job runs it as a smoke test of the whole obs stack.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "attack/fake_vp.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/segment_store.h"
#include "system/investigation_server.h"
#include "system/service.h"

using namespace viewmap;

namespace {

struct Options {
  std::size_t vps = 200;
  std::size_t requests = 8;
  std::size_t workers = 2;
  bool selftest = false;
};

bool parse_flag(const char* arg, const char* name, std::size_t& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  out = static_cast<std::size_t>(std::strtoull(arg + len, nullptr, 10));
  return true;
}

int fail(const char* what) {
  std::fprintf(stderr, "selftest FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) {
      opt.selftest = true;
    } else if (parse_flag(argv[i], "--vps=", opt.vps) ||
               parse_flag(argv[i], "--requests=", opt.requests) ||
               parse_flag(argv[i], "--workers=", opt.workers)) {
    } else {
      std::fprintf(stderr,
                   "usage: %s [--vps=N] [--requests=R] [--workers=W] [--selftest]\n",
                   argv[0]);
      return 2;
    }
  }
  opt.vps = std::max<std::size_t>(opt.vps, 1);
  opt.requests = std::max<std::size_t>(opt.requests, 1);
  opt.workers = std::max<std::size_t>(opt.workers, 1);

  sys::ServiceConfig cfg;
  cfg.rsa_bits = 1024;  // synthetic workload, not a deployment
  sys::ViewMapService service(cfg);

  // Synthetic minute 0: one trusted patrol plus a cloud of anonymous VPs
  // in a band around it, a sprinkle of garbage for the reject counters.
  Rng rng(17);
  const TimeSec unit = 0;
  service.register_trusted(
      attack::make_fake_profile(unit, {0, 0}, {800, 0}, rng));
  for (std::size_t i = 0; i < opt.vps; ++i) {
    const geo::Vec2 start{rng.uniform(-200.0, 1000.0), rng.uniform(-60.0, 60.0)};
    const geo::Vec2 end{start.x + rng.uniform(200.0, 600.0),
                        start.y + rng.uniform(-20.0, 20.0)};
    service.upload_channel().submit(
        attack::make_fake_profile(unit, start, end, rng).serialize());
  }
  service.upload_channel().submit({0x00});        // malformed
  service.upload_channel().submit({0xff, 0xff});  // malformed
  const std::size_t accepted = service.ingest_uploads();

  // Investigation server: R sites across the band, served concurrently —
  // twice. The second pass repeats the same (site, minute) keys over the
  // unchanged shard, so the generation-keyed result cache serves it from
  // memory and the cache families below carry real hits.
  sys::ServerConfig server_cfg;
  server_cfg.workers = opt.workers;
  sys::InvestigationServer& server = service.start_server(server_cfg);
  std::size_t reports = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::future<sys::InvestigationServer::Reports>> futures;
    futures.reserve(opt.requests);
    for (std::size_t i = 0; i < opt.requests; ++i) {
      const double cx = 100.0 + 700.0 * static_cast<double>(i) /
                                    static_cast<double>(opt.requests);
      futures.push_back(
          server.submit({{cx - 150, -80}, {cx + 150, 80}}, unit));
    }
    for (auto& fut : futures)
      if (fut.valid()) reports += fut.get().size();
  }
  service.stop_server();

  // One checkpoint so the store family reports too. Scratch directory;
  // durability is not the point of this tool.
  const auto dir =
      std::filesystem::temp_directory_path() / "viewmap_metrics_store";
  std::filesystem::remove_all(dir);
  store::SegmentStoreConfig store_cfg;
  store_cfg.fsync = false;
  store::SegmentStore store(dir.string(), store_cfg);
  (void)service.checkpoint(store);
  std::filesystem::remove_all(dir);

  if (opt.selftest) {
    const std::string text = service.metrics().render_text();
    for (const char* family :
         {"viewmap_ingest_accepted_total", "viewmap_ingest_batch_us",
          "viewmap_timeline_shards", "viewmap_server_submitted_total",
          "viewmap_server_request_us", "viewmap_investigate_us",
          "viewmap_cache_hits_total", "viewmap_cache_misses_total",
          "viewmap_cache_bytes", "viewmap_cache_hit_us",
          "viewmap_store_checkpoints_total", "viewmap_viewlink_pairs_tested_total",
          "viewmap_viewlink_pairs_memoized_total", "viewmap_viewlink_memo_bytes"})
      if (text.find(family) == std::string::npos) return fail(family);

    // Every request reads the same minute, so after the first build the
    // minute's viewlink memo answers pairs, and it is resident.
    const obs::Counter* tested =
        service.metrics().find_counter("viewmap_viewlink_pairs_tested_total");
    const obs::Counter* memoized =
        service.metrics().find_counter("viewmap_viewlink_pairs_memoized_total");
    const obs::Gauge* memo_bytes = service.metrics().find_gauge("viewmap_viewlink_memo_bytes");
    if (tested == nullptr || tested->value() == 0) return fail("no viewlink pair tested");
    if (memoized == nullptr || memoized->value() == 0)
      return fail("no viewlink pair answered from the memo");
    if (memo_bytes == nullptr || memo_bytes->value() <= 0)
      return fail("viewlink memo gauge not published");

    const sys::ResultCache::Stats cache = service.result_cache().stats();
    if (cache.hits < opt.requests)
      return fail("second request pass did not hit the result cache");
    if (cache.misses == 0) return fail("first request pass never missed");
    const obs::Counter* hits_c =
        service.metrics().find_counter("viewmap_cache_hits_total");
    if (hits_c == nullptr || hits_c->value() != cache.hits)
      return fail("cache hit counter disagrees with ResultCache::stats()");

    const obs::Counter* c =
        service.metrics().find_counter("viewmap_ingest_accepted_total");
    if (c == nullptr || c->value() != service.ingest_totals().accepted ||
        c->value() != accepted)
      return fail("ingest counter disagrees with ingest_totals()");
    if (service.ingest_totals().rejected_malformed != 2)
      return fail("malformed rejects not counted");

    const obs::Histogram* h =
        service.metrics().find_histogram("viewmap_server_request_us");
    if (h == nullptr) return fail("request histogram missing");
    const obs::Histogram::Snapshot snap = h->snapshot();
    if (snap.count != 2 * opt.requests) return fail("request count mismatch");
    if (!(snap.percentile(0.5) <= snap.percentile(0.9) &&
          snap.percentile(0.9) <= snap.percentile(0.99)))
      return fail("request percentiles not monotone");

    bool multi_span = false;
    for (const obs::Trace& t : service.tracer().slowest())
      multi_span = multi_span || t.spans.size() >= 3;
    if (!multi_span) return fail("no trace with >= 3 spans");
    if (reports == 0) return fail("no investigation reports produced");
    std::printf("selftest OK: %zu VPs, %zu requests, %zu reports\n", accepted,
                opt.requests, reports);
    return 0;
  }

  service.dump_metrics(std::cout);

  const sys::ResultCache::Stats cache = service.result_cache().stats();
  std::printf("\nresult cache: %zu hits / %zu misses, %zu insertions, "
              "%zu evictions, %zu entries / %zu bytes resident\n",
              cache.hits, cache.misses, cache.insertions, cache.evictions,
              cache.resident_entries, cache.resident_bytes);

  std::printf("\nslowest investigations (%llu recorded, keeping %zu):\n",
              static_cast<unsigned long long>(service.tracer().recorded()),
              service.tracer().keep());
  for (const obs::Trace& trace : service.tracer().slowest()) {
    std::printf("  %8llu us  %s\n",
                static_cast<unsigned long long>(trace.total_us),
                trace.label.c_str());
    for (const obs::Span& span : trace.spans)
      std::printf("    %-14s +%-8llu %llu us\n", span.name.c_str(),
                  static_cast<unsigned long long>(span.begin_us),
                  static_cast<unsigned long long>(span.dur_us));
  }
  return 0;
}
