#include "anonet/channel.h"

namespace viewmap::anonet {

void AnonymousChannel::submit(std::vector<std::uint8_t> payload) {
  std::lock_guard lock(mutex_);
  pending_.push_back(std::move(payload));
}

std::vector<Delivery> AnonymousChannel::drain() {
  std::lock_guard lock(mutex_);
  rng_.shuffle(pending_);
  std::vector<Delivery> out;
  out.reserve(pending_.size());
  while (!pending_.empty()) {
    Delivery d;
    d.session_id = rng_.next_u64();
    d.payload = std::move(pending_.back());
    pending_.pop_back();
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace viewmap::anonet
