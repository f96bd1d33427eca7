#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

namespace viewmap::sim {

namespace {

/// Uniform grid over vehicle positions for neighbor-pair discovery.
class PositionGrid {
 public:
  PositionGrid(std::span<const geo::Vec2> positions, double cell_size)
      : cell_(cell_size) {
    for (std::uint32_t i = 0; i < positions.size(); ++i)
      cells_[key(positions[i])].push_back(i);
  }

  /// Visits each unordered pair (i < j) within 3×3 neighboring cells.
  template <typename Fn>
  void for_near_pairs(std::span<const geo::Vec2> positions, double max_dist,
                      Fn&& fn) const {
    const double max2 = max_dist * max_dist;
    for (const auto& [k, members] : cells_) {
      const auto [cx, cy] = unkey(k);
      for (int dy = 0; dy <= 1; ++dy) {
        for (int dx = (dy == 0 ? 0 : -1); dx <= 1; ++dx) {
          const auto it = cells_.find(make_key(cx + dx, cy + dy));
          if (it == cells_.end()) continue;
          const bool same = (dx == 0 && dy == 0);
          for (std::size_t ai = 0; ai < members.size(); ++ai) {
            const std::uint32_t a = members[ai];
            const std::size_t start = same ? ai + 1 : 0;
            for (std::size_t bi = start; bi < it->second.size(); ++bi) {
              const std::uint32_t b = it->second[bi];
              const std::uint32_t lo = a < b ? a : b;
              const std::uint32_t hi = a < b ? b : a;
              if ((positions[lo] - positions[hi]).norm2() <= max2) fn(lo, hi);
            }
          }
        }
      }
    }
  }

 private:
  [[nodiscard]] std::int64_t key(geo::Vec2 p) const {
    return make_key(static_cast<int>(std::floor(p.x / cell_)),
                    static_cast<int>(std::floor(p.y / cell_)));
  }
  static std::int64_t make_key(int cx, int cy) {
    return (static_cast<std::int64_t>(cx) << 32) ^ (static_cast<std::uint32_t>(cy));
  }
  static std::pair<int, int> unkey(std::int64_t k) {
    return {static_cast<int>(k >> 32), static_cast<int>(static_cast<std::uint32_t>(k))};
  }

  double cell_;
  std::unordered_map<std::int64_t, std::vector<std::uint32_t>> cells_;
};

struct PairState {
  int contact_streak = 0;       ///< consecutive seconds in range + LOS
  double min_distance_m = 1e18;
  bool recv_ab = false;  ///< a's VD accepted by b at least once this minute
  bool recv_ba = false;
  bool on_video = false;
  bool los_ever = false;
  // Two-state Markov vehicular-blockage (Gilbert) channel state.
  bool traffic_blocked = false;
  bool blockage_initialized = false;
};

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Camera model: does the dashcam of `viewer` capture `target`?
bool captures(geo::Vec2 viewer_pos, geo::Vec2 viewer_heading, geo::Vec2 target_pos,
              double range_m, double fov_deg, bool los) {
  if (!los) return false;
  const geo::Vec2 d = target_pos - viewer_pos;
  const double dist = d.norm();
  if (dist > range_m || dist < 1e-9) return false;
  if (viewer_heading.norm2() < 1e-12) return false;  // parked: camera still on
  const double cos_angle = geo::dot(viewer_heading, d) / dist;
  const double half_fov_rad = fov_deg * std::numbers::pi / 360.0;
  return cos_angle >= std::cos(half_fov_rad);
}

}  // namespace

TrafficSimulator::TrafficSimulator(road::CityMap city, const SimConfig& cfg)
    : city_(std::move(city)), cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.vehicle_count <= 0) throw std::invalid_argument("SimConfig: no vehicles");
  Rng fleet_rng = rng_.fork(0xf1ee7);
  fleet_.reserve(static_cast<std::size_t>(cfg_.vehicle_count));
  for (int i = 0; i < cfg_.vehicle_count; ++i) {
    if (fleet_rng.bernoulli(cfg_.parked_fraction)) {
      // Parking-mode recorder: parked near a random intersection, still
      // a full protocol participant.
      const auto node = static_cast<road::NodeId>(
          fleet_rng.index(city_.roads.node_count()));
      const geo::Vec2 curb{city_.roads.node_pos(node).x + fleet_rng.uniform(-8, 8),
                           city_.roads.node_pos(node).y + fleet_rng.uniform(-8, 8)};
      fleet_.push_back(VehicleMotion::stationary(curb));
      continue;
    }
    const double speed = kmh(cfg_.mean_speed_kmh) *
                         fleet_rng.uniform(1.0 - cfg_.speed_spread_frac,
                                           1.0 + cfg_.speed_spread_frac);
    fleet_.push_back(
        VehicleMotion::random_trips(city_.roads, std::max(speed, 1.0), fleet_rng));
  }
}

TrafficSimulator::TrafficSimulator(road::CityMap city, const SimConfig& cfg,
                                   std::vector<VehicleMotion> fleet)
    : city_(std::move(city)), cfg_(cfg), fleet_(std::move(fleet)), rng_(cfg.seed) {
  if (fleet_.empty()) throw std::invalid_argument("TrafficSimulator: empty fleet");
}

SimResult TrafficSimulator::run() {
  const std::size_t n = fleet_.size();
  Rng mobility_rng = rng_.fork(1);
  Rng radio_rng = rng_.fork(2);
  Rng vp_rng = rng_.fork(3);
  Rng guard_rng = rng_.fork(4);

  road::Router router(city_.roads);
  vp::GuardVpFactory guard_factory(router, cfg_.guard);
  dsrc::BroadcastChannel channel(cfg_.radio);
  geo::ObstacleIndex obstacle_index(
      std::vector<geo::Rect>(city_.buildings.begin(), city_.buildings.end()));
  dsrc::ChannelEnvironment env{&obstacle_index, cfg_.traffic_blocker_density_per_m};

  std::vector<vp::SyntheticVideoSource> cameras;
  cameras.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    cameras.emplace_back(cfg_.seed * 1000003 + i, cfg_.video_bytes_per_second);

  SimResult result;
  std::unordered_map<std::uint64_t, PairState> pair_state;
  std::vector<geo::Vec2> positions(n);
  std::vector<dsrc::ViewDigest> second_vds(n);
  std::vector<std::uint8_t> chunk;

  for (int minute = 0; minute < cfg_.minutes; ++minute) {
    const TimeSec unit = static_cast<TimeSec>(minute) * kUnitTimeSec;

    std::vector<vp::VpBuilder> builders;
    builders.reserve(n);
    for (std::size_t i = 0; i < n; ++i) builders.emplace_back(unit, vp_rng);

    // Reset per-minute pair flags, keep contact streaks across minutes.
    for (auto& [k, st] : pair_state) {
      st.min_distance_m = 1e18;
      st.recv_ab = st.recv_ba = st.on_video = st.los_ever = false;
    }

    for (int sec = 1; sec <= kDigestsPerProfile; ++sec) {
      for (std::size_t i = 0; i < n; ++i) {
        fleet_[i].advance(1.0, mobility_rng);
        positions[i] = fleet_[i].position();
      }
      for (std::size_t i = 0; i < n; ++i) {
        cameras[i].generate_chunk(unit, sec - 1, chunk);
        second_vds[i] = builders[i].tick(positions[i], chunk);
        ++result.vd_broadcasts;
      }

      PositionGrid grid(positions, dsrc::kRadioRangeM);
      std::vector<std::uint64_t> touched;
      grid.for_near_pairs(positions, dsrc::kRadioRangeM, [&](std::uint32_t a, std::uint32_t b) {
        auto& st = pair_state[pair_key(a, b)];
        touched.push_back(pair_key(a, b));
        const double d = geo::distance(positions[a], positions[b]);
        st.min_distance_m = std::min(st.min_distance_m, d);

        const bool los = channel.line_of_sight(positions[a], positions[b], env);
        if (los) st.los_ever = true;

        // Evolve the pair's vehicular-blockage state: resample at the
        // dwell rate so a blocking truck persists across seconds (and
        // can black out whole minutes under heavy traffic).
        if (!st.blockage_initialized ||
            radio_rng.bernoulli(1.0 / std::max(1.0, cfg_.traffic_block_dwell_s))) {
          st.traffic_blocked = radio_rng.bernoulli(dsrc::traffic_blockage_probability(
              d, cfg_.traffic_blocker_density_per_m));
          st.blockage_initialized = true;
        }

        // Contact accounting: continuous in-range + LOS seconds.
        if (los) {
          ++st.contact_streak;
        } else if (st.contact_streak > 0) {
          result.contact_seconds.add(st.contact_streak);
          st.contact_streak = 0;
        }

        // Camera ground truth (§7.2.2 "On Video"). A blocking truck hides
        // the other vehicle from the lens just as it shadows the radio.
        if (cfg_.collect_pair_stats && !st.on_video) {
          const bool visible = los && !st.traffic_blocked;
          st.on_video =
              captures(positions[a], fleet_[a].heading(), positions[b],
                       cfg_.camera_range_m, cfg_.camera_fov_deg, visible) ||
              captures(positions[b], fleet_[b].heading(), positions[a],
                       cfg_.camera_range_m, cfg_.camera_fov_deg, visible);
        }

        // VD broadcast deliveries, each direction independent.
        if (channel.try_deliver_with_blockage(positions[a], positions[b], env,
                                              st.traffic_blocked, radio_rng)) {
          if (builders[b].accept_neighbor(second_vds[a], positions[b])) {
            st.recv_ab = true;
            ++result.vd_deliveries;
          }
        }
        if (channel.try_deliver_with_blockage(positions[b], positions[a], env,
                                              st.traffic_blocked, radio_rng)) {
          if (builders[a].accept_neighbor(second_vds[b], positions[a])) {
            st.recv_ba = true;
            ++result.vd_deliveries;
          }
        }
      });

      // Pairs that left radio range break their contact streak.
      for (auto& [k, st] : pair_state) {
        if (st.contact_streak > 0 &&
            std::find(touched.begin(), touched.end(), k) == touched.end()) {
          result.contact_seconds.add(st.contact_streak);
          st.contact_streak = 0;
        }
      }
    }

    // Minute boundary: compile VPs, fabricate guards, log ground truth.
    for (std::size_t i = 0; i < n; ++i) {
      auto gen = builders[i].finish();
      result.neighbors_per_vehicle_minute.add(static_cast<double>(gen.neighbors.size()));

      if (cfg_.keep_videos) {
        result.videos.push_back(cameras[i].record_minute(unit));
      }
      result.owned.push_back(
          OwnedVp{static_cast<VehicleId>(i), gen.profile.vp_id(), unit, gen.secret});

      if (cfg_.guards_enabled) {
        auto guards = guard_factory.make_guards_for(gen.profile, gen.neighbors, unit,
                                                    guard_rng);
        for (auto& g : guards)
          result.profiles.push_back(
              ProfileRecord{std::move(g), static_cast<VehicleId>(i), true});
      }
      result.profiles.push_back(
          ProfileRecord{std::move(gen.profile), static_cast<VehicleId>(i), false});
    }

    if (cfg_.collect_pair_stats) {
      for (const auto& [k, st] : pair_state) {
        if (st.min_distance_m > 1e17) continue;  // pair never met this minute
        PairMinuteObservation obs;
        obs.a = static_cast<VehicleId>(k >> 32);
        obs.b = static_cast<VehicleId>(k & 0xffffffffu);
        obs.unit_time = unit;
        obs.min_distance_m = st.min_distance_m;
        obs.vp_linked = st.recv_ab && st.recv_ba;
        obs.on_video = st.on_video;
        obs.los_ever = st.los_ever;
        result.pair_minutes.push_back(obs);
      }
    }
  }

  // Flush ongoing contacts.
  for (auto& [k, st] : pair_state)
    if (st.contact_streak > 0) result.contact_seconds.add(st.contact_streak);

  return result;
}

std::vector<std::vector<std::uint8_t>> upload_payloads(const SimResult& result) {
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(result.profiles.size());
  for (const auto& rec : result.profiles) payloads.push_back(rec.profile.serialize());
  return payloads;
}

}  // namespace viewmap::sim
