// DSRC radio propagation model.
//
// Substitute for the paper's IEEE 802.11p on-board units. The field study
// (§7.2) found:
//   * open-road (LOS) linkage stays > 99% out to 400 m — distance alone
//     barely matters inside the radio range;
//   * RSSI in [-100, -80] dBm gives fluctuating PDR; above -80 dBm PDR is
//     near 1, below -100 dBm near 0 (Fig. 16, consistent with [17]);
//   * LOS obstruction (buildings, overpasses, tunnels, heavy traffic) is
//     the dominating factor for VP linkage (Table 2).
//
// The model: log-distance path loss with a large NLOS penalty, log-normal
// shadowing, and a smooth RSSI→PDR curve with receiver noise. Heavy
// vehicular traffic adds a stochastic partial blockage penalty.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "geo/geometry.h"

namespace viewmap::dsrc {

/// The DSRC radio radius (§5.1.2): the hard decode horizon of every
/// delivery trial, the farthest a receiver accepts a VD from, and the
/// viewlink predicate's proximity bound (system/viewmap_graph.h).
inline constexpr double kRadioRangeM = 400.0;

struct RadioConfig {
  double tx_power_dbm = 14.0;        ///< §7.1, recommended by [17]
  double ref_loss_db = 40.0;         ///< path loss at 1 m
  double pathloss_exponent = 2.0;    ///< LOS exponent (open road)
  double nlos_penalty_db = 55.0;     ///< building/structure obstruction
  double shadow_sigma_los_db = 2.0;
  double shadow_sigma_nlos_db = 6.0;
  double traffic_block_penalty_db = 40.0;  ///< blockage by interposed tall vehicles
  double enclosed_penalty_db = 25.0;  ///< extra loss when an endpoint is inside a
                                      ///< structure (tunnel, garage, bridge deck)
};

class RadioModel {
 public:
  explicit RadioModel(const RadioConfig& cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const RadioConfig& config() const noexcept { return cfg_; }

  /// Deterministic mean RSSI at distance d (no shadowing).
  [[nodiscard]] double mean_rssi_dbm(double distance_m, bool line_of_sight) const;

  /// One shadowed RSSI sample.
  [[nodiscard]] double sample_rssi_dbm(double distance_m, bool line_of_sight,
                                       Rng& rng) const;

  /// Mean packet delivery ratio as a function of RSSI: near 1 above
  /// -80 dBm, near 0 below -100 dBm, S-shaped in between (Fig. 16).
  [[nodiscard]] static double mean_pdr(double rssi_dbm);

  /// One PDR realization including per-packet channel variation; this is
  /// what produces the paper's observed PDR "fluctuation" in the
  /// [-100, -80] dBm band.
  [[nodiscard]] static double sample_pdr(double rssi_dbm, Rng& rng);

  /// End-to-end Bernoulli delivery trial for one broadcast frame.
  /// `blocked_by_traffic` applies the vehicular blockage penalty on top of
  /// the geometric LOS state; `extra_loss_db` folds in scenario-specific
  /// attenuation (e.g. the enclosed-structure penalty).
  [[nodiscard]] bool try_deliver(double distance_m, bool line_of_sight,
                                 bool blocked_by_traffic, Rng& rng,
                                 double extra_loss_db = 0.0) const;

 private:
  RadioConfig cfg_;
};

/// Probability that the sight line between two vehicles at `distance_m` is
/// blocked by interposed tall traffic, given a linear density of such
/// vehicles (veh/m). Poisson thinning along the gap:  1 − e^{−λ·d}.
[[nodiscard]] double traffic_blockage_probability(double distance_m,
                                                  double blocker_density_per_m);

}  // namespace viewmap::dsrc
