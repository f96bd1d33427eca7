#include "dsrc/channel.h"

namespace viewmap::dsrc {

bool BroadcastChannel::try_deliver(geo::Vec2 tx, geo::Vec2 rx,
                                   const ChannelEnvironment& env, Rng& rng) const {
  const double d = geo::distance(tx, rx);
  const bool traffic_block = rng.bernoulli(
      traffic_blockage_probability(d, env.traffic_blocker_density_per_m));
  return try_deliver_with_blockage(tx, rx, env, traffic_block, rng);
}

bool BroadcastChannel::try_deliver_with_blockage(geo::Vec2 tx, geo::Vec2 rx,
                                                 const ChannelEnvironment& env,
                                                 bool traffic_blocked,
                                                 Rng& rng) const {
  const double d = geo::distance(tx, rx);
  const bool los = line_of_sight(tx, rx, env);
  // Endpoints inside a structure (tunnel tube, parking deck) attenuate far
  // beyond a mere blocked sight line.
  double extra = 0.0;
  if (env.obstacles != nullptr) {
    if (env.obstacles->contains_point(tx)) extra += radio_.config().enclosed_penalty_db;
    if (env.obstacles->contains_point(rx)) extra += radio_.config().enclosed_penalty_db;
  }
  return radio_.try_deliver(d, los, los && traffic_blocked, rng, extra);
}

}  // namespace viewmap::dsrc
