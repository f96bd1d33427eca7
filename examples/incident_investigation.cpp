// Incident investigation: the full public-service pipeline on simulated
// city traffic (the workload the paper's introduction motivates).
//
// 1. A fleet drives a synthetic city for several minutes; every vehicle
//    records video, exchanges VDs over DSRC, compiles actual VPs and
//    fabricates guard VPs.
// 2. All VPs are uploaded over the anonymous channel; vehicle 0 is a
//    police car whose VPs register as trusted.
// 3. An incident is declared at a time/place; the system builds the
//    viewmap, verifies VPs, and posts video requests by VP identifier.
// 4. A witness notices the posted id, uploads its video; the system
//    replays the cascaded hash chain; human review approves; the owner
//    claims untraceable cash via blind signatures and spends it once.
// 5. The investigation *server*: the same pipeline as a public service —
//    a worker pool drains a bounded queue of concurrent investigation
//    requests while the anonymous upload stream keeps ingesting.
//
// Build & run:  ./examples/incident_investigation
#include <cstdio>
#include <future>
#include <vector>

#include "common/hex.h"
#include "reward/client.h"
#include "sim/simulator.h"
#include "system/investigation_server.h"
#include "system/service.h"

using namespace viewmap;

int main() {
  // ── 1. simulate the city ────────────────────────────────────────────
  Rng city_rng(7);
  road::GridCityConfig city_cfg;
  city_cfg.extent_m = 1500;
  city_cfg.block_m = 250;
  city_cfg.building_fill = 0.6;
  auto city = road::make_grid_city(city_cfg, city_rng);

  sim::SimConfig sim_cfg;
  sim_cfg.seed = 11;
  sim_cfg.vehicle_count = 25;
  sim_cfg.minutes = 3;
  sim_cfg.video_bytes_per_second = 64;
  sim_cfg.keep_videos = true;
  sim::TrafficSimulator simulator(std::move(city), sim_cfg);
  const sim::SimResult world = simulator.run();
  std::printf("simulated %d vehicles × %d min: %zu VPs (%zu actual + guards)\n",
              sim_cfg.vehicle_count, sim_cfg.minutes, world.profiles.size(),
              world.owned.size());

  // ── 2. anonymous upload ─────────────────────────────────────────────
  sys::ServiceConfig svc_cfg;
  svc_cfg.rsa_bits = 1024;  // demo-sized key
  sys::ViewMapService service(svc_cfg);
  for (const auto& rec : world.profiles) {
    if (!rec.guard && rec.creator == 0)
      service.register_trusted(rec.profile);
    else
      service.upload_channel().submit(rec.profile.serialize());
  }
  const std::size_t accepted = service.ingest_uploads();
  std::printf("anonymous channel delivered %zu VPs into the database\n", accepted);

  // ── 3. investigate an incident near vehicle 7 at minute 1 ──────────
  const sim::OwnedVp* witness = nullptr;
  for (const auto& o : world.owned)
    if (o.vehicle == 7 && o.unit_time == 60) witness = &o;
  // find() hands back an owning reference — valid however long we keep
  // it, even across ingest batches and retention eviction.
  const auto witness_vp = service.database().find(witness->vp_id);
  const geo::Vec2 c = witness_vp->location_at(30);
  const geo::Rect site{{c.x - 120, c.y - 120}, {c.x + 120, c.y + 120}};
  std::printf("incident at (%.0f, %.0f), minute 1 — investigating…\n", c.x, c.y);

  const auto report = service.investigate(site, 60);
  std::printf("viewmap: %zu members, %zu viewlinks; %zu in site, %zu legitimate, "
              "%zu rejected; %zu videos solicited\n",
              report.viewmap.size(), report.viewmap.edge_count(),
              report.verification.site_members.size(),
              report.verification.legitimate.size(),
              report.verification.rejected.size(), report.solicited.size());

  // ── 4. witness answers the solicitation ────────────────────────────
  const auto pending = service.pending_video_requests({{witness->vp_id}});
  if (pending.empty()) {
    std::printf("witness VP was not solicited (outside the verified set)\n");
    return 0;
  }
  const vp::RecordedVideo* video = nullptr;
  for (std::size_t i = 0; i < world.owned.size(); ++i)
    if (world.owned[i].vehicle == 7 && world.owned[i].unit_time == 60)
      video = &world.videos[i];
  if (!service.submit_video(witness->vp_id, *video)) {
    std::printf("video failed hash-chain validation (unexpected)\n");
    return 1;
  }
  std::printf("video %s uploaded and hash-chain validated; awaiting review\n",
              to_hex(witness->vp_id.bytes).substr(0, 16).c_str());

  service.conclude_review(witness->vp_id, /*approved=*/true, /*units=*/3);
  const auto units = service.begin_reward_claim(witness->vp_id, witness->secret);
  reward::RewardClient client(service.cash_public_key(), 99);
  const auto signatures =
      service.sign_reward_batch(witness->vp_id, client.prepare(static_cast<std::size_t>(*units)));
  const auto cash = client.unblind_batch(*signatures);
  std::printf("reward: %zu unit(s) of untraceable cash issued\n", cash.size());
  for (const auto& token : cash)
    std::printf("  spend → %s\n", reward::to_string(service.bank().redeem(token)));
  std::printf("  spend again → %s (double-spend defense)\n",
              reward::to_string(service.bank().redeem(cash.front())));

  // ── 5. concurrent investigations through the server ────────────────
  // A live deployment doesn't investigate one incident at a time: the
  // InvestigationServer puts a worker pool in front of the pipeline.
  // submit()/submit_period() enqueue onto a bounded MPMC queue and hand
  // back a std::future; each worker pins one immutable DbSnapshot per
  // request and runs viewmap → verification → solicitation over it, so
  // investigations run concurrently with each other AND with the ingest
  // loop below (eviction can never invalidate a report — the report's
  // viewmap pins its shard).
  sys::ServerConfig server_cfg;
  server_cfg.workers = 2;          // investigation worker pool
  server_cfg.queue_capacity = 64;  // bounded; when full, submit() blocks
  auto& server = service.start_server(server_cfg);

  // Queue the incident's whole period plus each minute individually —
  // four requests in flight at once.
  std::vector<std::future<sys::InvestigationServer::Reports>> minutes;
  for (TimeSec m = 0; m < 3; ++m)
    minutes.push_back(server.submit(site, m * 60));
  auto period = server.submit_period(site, 0, 3 * 60);

  // The upload stream never pauses meanwhile: a re-delivery burst lands
  // mid-investigation (the §4 screens drop every duplicate on arrival).
  for (const auto& rec : world.profiles)
    if (rec.guard || rec.creator != 0)
      service.upload_channel().submit(rec.profile.serialize());
  const std::size_t redelivered = service.ingest_uploads();

  const auto period_reports = period.get();
  std::printf("server: period [0,3min) → %zu reports while ingest screened %zu "
              "re-deliveries (accepted %zu)\n",
              period_reports.size(), world.profiles.size() - 3, redelivered);
  for (TimeSec m = 0; m < 3; ++m) {
    const auto reports = minutes[static_cast<std::size_t>(m)].get();
    if (reports.empty()) {
      std::printf("  minute %lld: no trust seed, skipped\n", static_cast<long long>(m));
      continue;
    }
    std::printf("  minute %lld: viewmap %zu members, %zu legitimate, %zu solicited\n",
                static_cast<long long>(m), reports[0].viewmap.size(),
                reports[0].verification.legitimate.size(),
                reports[0].solicited.size());
  }
  const auto stats = server.stats();
  std::printf("server stats: %zu requests, %zu reports, %zu snapshots over %zu "
              "batches, peak queue %zu\n",
              stats.completed, stats.reports, stats.snapshots, stats.batches,
              stats.peak_queue);
  service.stop_server();
  return 0;
}
