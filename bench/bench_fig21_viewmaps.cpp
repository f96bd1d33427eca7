// Fig. 21: viewmaps built from traffic traces at 50 and 70 km/h.
//
// Paper: renders the mesh of viewlinks over the Seoul street map; the
// mesh follows the road network and densifies with slower traffic (longer
// contacts). We build one viewmap per speed from a city simulation,
// report graph statistics, and render a coarse ASCII density map of the
// viewlink mesh.
#include <algorithm>
#include <memory>

#include "bench_util.h"
#include "sim/simulator.h"
#include "system/service.h"
#include "system/viewmap_graph.h"

using namespace viewmap;

namespace {

struct BuiltViewmap {
  // The database owns the profiles the viewmap borrows; member order
  // matters for destruction (map first, then db).
  std::unique_ptr<sys::VpDatabase> db;
  std::unique_ptr<sys::Viewmap> map;
  double extent = 0.0;
};

BuiltViewmap build_traffic_viewmap(double speed_kmh, int vehicles, double extent,
                                   std::uint64_t seed) {
  Rng city_rng(seed);
  road::GridCityConfig ccfg;
  ccfg.extent_m = extent;
  ccfg.block_m = 250.0;
  ccfg.building_fill = 0.6;
  auto city = road::make_grid_city(ccfg, city_rng);

  sim::SimConfig cfg;
  cfg.seed = seed + 1;
  cfg.vehicle_count = vehicles;
  cfg.minutes = 1;
  cfg.mean_speed_kmh = speed_kmh;
  cfg.video_bytes_per_second = 16;
  sim::TrafficSimulator sim(std::move(city), cfg);
  const sim::SimResult result = sim.run();

  BuiltViewmap built;
  built.extent = extent;
  built.db = std::make_unique<sys::VpDatabase>();
  bool trusted_done = false;
  for (const auto& rec : result.profiles) {
    if (!trusted_done && !rec.guard) {
      built.db->upload(rec.profile, /*trusted=*/true);
      trusted_done = true;
    } else {
      built.db->upload(rec.profile, /*trusted=*/false);
    }
  }
  const sys::ViewmapBuilder builder;
  const geo::Rect everywhere{{-1e6, -1e6}, {1e6, 1e6}};
  built.map = std::make_unique<sys::Viewmap>(builder.build(built.db->snapshot(), everywhere, 0));
  return built;
}

void render_ascii(const BuiltViewmap& built) {
  // 48×16 character raster of viewlink midpoints.
  constexpr int W = 48, H = 16;
  int density[H][W] = {};
  const auto& map = *built.map;
  for (std::size_t i = 0; i < map.size(); ++i) {
    const geo::Vec2 a = map.member(i).location_at(30);
    for (std::uint32_t j : map.neighbors(i)) {
      if (j < i) continue;
      const geo::Vec2 b = map.member(j).location_at(30);
      const geo::Vec2 mid = geo::lerp(a, b, 0.5);
      const int cx = std::clamp(static_cast<int>(mid.x / built.extent * W), 0, W - 1);
      const int cy = std::clamp(static_cast<int>(mid.y / built.extent * H), 0, H - 1);
      ++density[cy][cx];
    }
  }
  for (int y = H - 1; y >= 0; --y) {
    std::printf("  ");
    for (int x = 0; x < W; ++x) {
      const int d = density[y][x];
      std::printf("%c", d == 0 ? '.' : d < 2 ? ':' : d < 4 ? 'o' : d < 8 ? 'O' : '#');
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Fig. 21", "Viewmaps from traffic traces");
  const int vehicles = bench::int_flag(argc, argv, "vehicles", 250);
  const double extent = bench::int_flag(argc, argv, "extent", 4000);
  std::printf("(%d vehicles on a %.0fx%.0f m map; paper: 1000 over 8x8 km — pass "
              "--vehicles/--extent to scale)\n",
              vehicles, extent, extent);

  for (double speed : {50.0, 70.0}) {
    const auto built = build_traffic_viewmap(speed, vehicles, extent,
                                             static_cast<std::uint64_t>(speed));
    const auto& map = *built.map;
    double degree_sum = 0;
    std::size_t max_degree = 0;
    for (std::size_t i = 0; i < map.size(); ++i) {
      degree_sum += static_cast<double>(map.neighbors(i).size());
      max_degree = std::max(max_degree, map.neighbors(i).size());
    }
    std::printf("\nvehicle speed ~%.0f km/h: %zu member VPs, %zu viewlinks, "
                "mean degree %.2f, max %zu, isolated-from-trusted %.1f%%\n",
                speed, map.size(), map.edge_count(),
                map.size() ? degree_sum / static_cast<double>(map.size()) : 0.0,
                max_degree,
                map.size() ? 100.0 * static_cast<double>(map.isolated_from_trusted()) /
                                 static_cast<double>(map.size())
                           : 0.0);
    render_ascii(built);
  }
  std::printf("\npaper shape: mesh follows the street grid; slower traffic ⇒ "
              "denser mesh (longer contacts).\n");
  return 0;
}
