#include "dsrc/radio.h"

#include <algorithm>
#include <cmath>

namespace viewmap::dsrc {

double RadioModel::mean_rssi_dbm(double distance_m, bool line_of_sight) const {
  const double d = std::max(distance_m, 1.0);
  double loss = cfg_.ref_loss_db + 10.0 * cfg_.pathloss_exponent * std::log10(d);
  if (!line_of_sight) loss += cfg_.nlos_penalty_db;
  return cfg_.tx_power_dbm - loss;
}

double RadioModel::sample_rssi_dbm(double distance_m, bool line_of_sight,
                                   Rng& rng) const {
  const double sigma =
      line_of_sight ? cfg_.shadow_sigma_los_db : cfg_.shadow_sigma_nlos_db;
  return mean_rssi_dbm(distance_m, line_of_sight) + rng.normal(0.0, sigma);
}

double RadioModel::mean_pdr(double rssi_dbm) {
  // Logistic centered at -90 dBm: ≈0.95 at -80, ≈0.05 at -100.
  const double p = 1.0 / (1.0 + std::exp(-(rssi_dbm + 90.0) / 3.4));
  return std::clamp(p, 0.0, 1.0);
}

double RadioModel::sample_pdr(double rssi_dbm, Rng& rng) {
  // Per-frame channel variation: jitter the effective SNR before the
  // logistic. In the transition band this produces the wide scatter the
  // paper reports; in saturation it is absorbed by the clamp.
  const double jitter = rng.normal(0.0, 4.0);
  return mean_pdr(rssi_dbm + jitter);
}

bool RadioModel::try_deliver(double distance_m, bool line_of_sight,
                             bool blocked_by_traffic, Rng& rng,
                             double extra_loss_db) const {
  if (distance_m > kRadioRangeM) return false;
  double rssi = sample_rssi_dbm(distance_m, line_of_sight, rng) - extra_loss_db;
  if (blocked_by_traffic) rssi -= cfg_.traffic_block_penalty_db;
  return rng.bernoulli(sample_pdr(rssi, rng));
}

double traffic_blockage_probability(double distance_m, double blocker_density_per_m) {
  if (blocker_density_per_m <= 0.0 || distance_m <= 0.0) return 0.0;
  return 1.0 - std::exp(-blocker_density_per_m * distance_m);
}

}  // namespace viewmap::dsrc
