// Anonymous upload channel (Tor stand-in, paper §5.1.2).
//
// The paper routes VP uploads over Tor and has clients "constantly change
// sessions with the system, preventing the system from distinguishing
// among users by session ids". We model exactly the property the rest of
// the design relies on: the server receives payloads tagged only with
// throwaway session identifiers, in an order decorrelated from submission
// order (each drain shuffles). No sender identity exists anywhere in the
// delivered record — verified by tests, relied on by the privacy analysis.
//
// Thread safety: submit/drain/pending are internally
// synchronized (one mutex; the pending vector and the RNG are the only
// shared state). This is what lets the daemon's IngestService thread
// drain continuously while any number of uploader threads submit —
// exactly the always-on shape of the paper's public service.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.h"

namespace viewmap::anonet {

/// What the server observes per upload. Deliberately nothing else.
struct Delivery {
  std::uint64_t session_id = 0;  ///< fresh pseudo-random id per upload
  std::vector<std::uint8_t> payload;
};

class AnonymousChannel {
 public:
  /// `seed` drives the shuffle and the session ids.
  explicit AnonymousChannel(std::uint64_t seed) : rng_(seed) {}

  /// Client side: enqueue one payload. Thread-safe.
  void submit(std::vector<std::uint8_t> payload);

  /// Server side: receive every pending upload, shuffled, each under a
  /// fresh session id. Thread-safe.
  [[nodiscard]] std::vector<Delivery> drain();

  [[nodiscard]] std::size_t pending() const noexcept {
    std::lock_guard lock(mutex_);
    return pending_.size();
  }

 private:
  mutable std::mutex mutex_;  ///< guards pending_ and rng_
  Rng rng_;
  std::vector<std::vector<std::uint8_t>> pending_;
};

}  // namespace viewmap::anonet
