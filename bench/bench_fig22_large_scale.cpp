// Fig. 22 (a–f): the paper's large-scale trace-driven evaluation.
//
//   (a) location entropy over time            (b) tracking success ratio
//   (c) average contact time vs speed         (d) accuracy vs attacker position
//   (e) accuracy under concentration attacks  (f) % viewmap member VPs
//
// Paper setting: ns-3 + SUMO, 1000 vehicles over an 8×8 km² Seoul
// extract. Default here is a scaled city (pass --vehicles/--extent/
// --minutes to approach paper scale); every sub-figure prints its paper
// reference shape.
#include <algorithm>
#include <limits>
#include <memory>

#include "attack/experiments.h"
#include "bench_util.h"
#include "privacy_bench_common.h"
#include "system/service.h"
#include "system/viewmap_graph.h"

using namespace viewmap;

namespace {

sim::SimResult simulate_city(int vehicles, double extent, int minutes,
                             double speed_kmh, std::uint64_t seed) {
  Rng city_rng(seed);
  road::GridCityConfig ccfg;
  ccfg.extent_m = extent;
  ccfg.block_m = 250.0;
  ccfg.building_fill = 0.6;
  auto city = road::make_grid_city(ccfg, city_rng);

  sim::SimConfig cfg;
  cfg.seed = seed + 1;
  cfg.vehicle_count = vehicles;
  cfg.minutes = minutes;
  cfg.mean_speed_kmh = speed_kmh;
  cfg.video_bytes_per_second = 16;
  sim::TrafficSimulator sim(std::move(city), cfg);
  return sim.run();
}

/// Viewmap of minute 0 with the first actual VP as trust seed. The holder
/// keeps the database alive for as long as the viewmap borrows from it.
struct HeldViewmap {
  std::unique_ptr<sys::VpDatabase> db;
  std::unique_ptr<sys::Viewmap> map;
};

HeldViewmap viewmap_of(const sim::SimResult& result) {
  HeldViewmap held;
  held.db = std::make_unique<sys::VpDatabase>();
  // Feed the simulated wall-clock first (the single trust seed sits at
  // minute ~0, and long --minutes runs would otherwise fall outside the
  // upload timeliness window and be silently dropped).
  TimeSec newest = std::numeric_limits<TimeSec>::min();
  for (const auto& rec : result.profiles)
    newest = std::max(newest, rec.profile.unit_time());
  if (newest != std::numeric_limits<TimeSec>::min()) held.db->advance_clock(newest);
  bool trusted_done = false;
  for (const auto& rec : result.profiles) {
    if (!trusted_done && !rec.guard) {
      held.db->upload(rec.profile, /*trusted=*/true);
      trusted_done = true;
    } else {
      held.db->upload(rec.profile, /*trusted=*/false);
    }
  }
  const sys::ViewmapBuilder builder;
  held.map = std::make_unique<sys::Viewmap>(
      builder.build(held.db->snapshot(), {{-1e6, -1e6}, {1e6, 1e6}}, 0));
  return held;
}

/// Converts a traffic-derived viewmap into the abstract attack substrate.
attack::AttackGraph to_attack_graph(const sys::Viewmap& map, Rng& rng,
                                    double site_half) {
  attack::AttackGraph g;
  g.pos.reserve(map.size());
  g.adj.reserve(map.size());
  for (std::size_t i = 0; i < map.size(); ++i) {
    g.pos.push_back(map.member(i).location_at(30));
    const auto nbrs = map.neighbors(i);
    g.adj.emplace_back(nbrs.begin(), nbrs.end());
    if (map.is_trusted(i)) g.trusted.push_back(i);
  }
  g.fake.assign(map.size(), false);
  // Site around a random member connected to the trust seed.
  const auto hops = g.hops_from_trusted();
  std::vector<std::size_t> reachable;
  for (std::size_t i = 0; i < g.size(); ++i)
    if (hops[i] != SIZE_MAX && hops[i] >= 2) reachable.push_back(i);
  const geo::Vec2 c = reachable.empty() ? g.pos[0] : g.pos[reachable[rng.index(reachable.size())]];
  g.site = {{c.x - site_half, c.y - site_half}, {c.x + site_half, c.y + site_half}};
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Fig. 22", "Large-scale trace-driven evaluation (a-f)");
  const int vehicles = bench::int_flag(argc, argv, "vehicles", 300);
  const double extent = bench::int_flag(argc, argv, "extent", 4000);
  const int minutes = bench::int_flag(argc, argv, "minutes", 10);
  std::printf("(%d vehicles, %.0fx%.0f m, %d min; paper: 1000 over 8x8 km, 20 min)\n",
              vehicles, extent, extent, minutes);

  // ── (a) + (b): privacy under tracking ────────────────────────────────
  std::printf("\n-- Fig. 22a/22b: entropy and tracking success (mixed speeds) --\n");
  const auto privacy = bench::run_privacy(vehicles, extent, minutes, 4242);
  std::printf("%-8s %-14s %-14s %-16s %-16s\n", "minute", "entropy", "success",
              "entropy(noguard)", "success(noguard)");
  for (std::size_t t = 0; t < privacy.with_guards.minutes.size(); ++t)
    std::printf("%-8.0f %-14.3f %-14.3f %-16.3f %-16.3f\n",
                privacy.with_guards.minutes[t], privacy.with_guards.mean_entropy[t],
                privacy.with_guards.mean_success[t],
                privacy.without_guards.mean_entropy[t],
                privacy.without_guards.mean_success[t]);
  std::printf("paper: ~8 bits / success ≈0.01 by 10 min; >0.9 without guards.\n");

  // ── (c): contact time vs speed; (f): viewmap membership ─────────────
  std::printf("\n-- Fig. 22c: avg contact time | Fig. 22f: viewmap member VPs --\n");
  std::printf("%-10s %-18s %-18s\n", "speed", "contact time (s)", "member VPs (%)");
  for (double speed : {30.0, 50.0, 70.0}) {
    const auto result = simulate_city(vehicles, extent, 2, speed,
                                      9000 + static_cast<std::uint64_t>(speed));
    const auto held = viewmap_of(result);
    const auto& map = *held.map;
    const double member_pct =
        map.size() ? 100.0 * (1.0 - static_cast<double>(map.isolated_from_trusted()) /
                                        static_cast<double>(map.size()))
                   : 0.0;
    std::printf("%-3.0fkm/h    %-18.1f %-18.1f\n", speed,
                result.contact_seconds.mean(), member_pct);
  }
  std::printf("paper: contact ≈8-13 s falling with speed; members >97%%.\n");

  // ── (d) + (e): attacks on traffic-derived viewmaps ───────────────────
  std::printf("\n-- Fig. 22d: accuracy vs attacker position (traffic viewmaps) --\n");
  const auto base_result = simulate_city(vehicles, extent, 1, 50.0, 7777);
  const auto base_held = viewmap_of(base_result);
  const auto& base_map = *base_held.map;
  sys::TrustRankConfig tr;
  tr.tolerance = 1e-10;
  const int runs = bench::int_flag(argc, argv, "runs", 20);
  Rng rng(55);

  std::printf("%-12s", "hops\\fakes");
  for (int pct : {100, 300, 500}) std::printf(" %6d%%", pct);
  std::printf("\n");
  for (const auto& bucket : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 5}, {6, 10}, {11, 15}}) {
    std::printf("%3zu - %-6zu", bucket.first, bucket.second);
    for (int pct : {100, 300, 500}) {
      int correct = 0, ran = 0;
      for (int r = 0; r < runs; ++r) {
        attack::AttackGraph g = to_attack_graph(base_map, rng, 200.0);
        attack::AttackPlan plan;
        plan.fake_count = base_map.size() * static_cast<std::size_t>(pct) / 100;
        plan.attacker_count = 10;
        plan.hop_bucket = bucket;
        const auto out = attack::run_graph_trial(g, plan, 400.0, tr, rng);
        if (!out.ran) continue;
        ++ran;
        correct += out.correct;
      }
      if (ran == 0)
        std::printf("      -");
      else
        std::printf(" %5.1f%%", 100.0 * correct / ran);
    }
    std::printf("\n");
  }
  std::printf("paper: 100%% in most cases, 82%% worst with attackers adjacent to "
              "the trusted VP.\n");

  std::printf("\n-- Fig. 22e: accuracy under concentration attacks --\n");
  std::printf("%-14s", "dummies\\fakes");
  for (int pct : {100, 300, 500}) std::printf(" %6d%%", pct);
  std::printf("\n");
  for (std::size_t dummies : {50u, 125u}) {
    std::printf("%-14zu", dummies);
    for (int pct : {100, 300, 500}) {
      int correct = 0, ran = 0;
      for (int r = 0; r < runs; ++r) {
        attack::AttackGraph g = to_attack_graph(base_map, rng, 200.0);
        attack::AttackPlan plan;
        plan.fake_count = base_map.size() * static_cast<std::size_t>(pct) / 100;
        plan.attacker_count = 2;
        plan.dummies_per_attacker = dummies;
        const auto out = attack::run_graph_trial(g, plan, 400.0, tr, rng);
        if (!out.ran) continue;
        ++ran;
        correct += out.correct;
      }
      if (ran == 0)
        std::printf("      -");
      else
        std::printf(" %5.1f%%", 100.0 * correct / ran);
    }
    std::printf("\n");
  }
  std::printf("paper: accuracy stays above ≈95%% — topology, not volume, bounds "
              "attacker trust.\n");
  return 0;
}
