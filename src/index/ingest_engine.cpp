#include "index/ingest_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "obs/metrics.h"

namespace viewmap::index {

IngestMetrics IngestMetrics::wire(obs::MetricsRegistry& registry) {
  IngestMetrics m;
  m.accepted = &registry.counter("viewmap_ingest_accepted_total");
  m.rejected_malformed =
      &registry.counter("viewmap_ingest_rejected_total", {{"reason", "malformed"}});
  m.rejected_untimely =
      &registry.counter("viewmap_ingest_rejected_total", {{"reason", "untimely"}});
  m.rejected_duplicate =
      &registry.counter("viewmap_ingest_rejected_total", {{"reason", "duplicate"}});
  m.evicted = &registry.counter("viewmap_ingest_evicted_total");
  m.batches = &registry.counter("viewmap_ingest_batches_total");
  m.batch_us = &registry.histogram("viewmap_ingest_batch_us");
  return m;
}

IngestStats IngestMetrics::totals() const {
  IngestStats s;
  if (accepted == nullptr) return s;
  s.accepted = accepted->value();
  s.rejected_malformed = rejected_malformed->value();
  s.rejected_untimely = rejected_untimely->value();
  s.rejected_duplicate = rejected_duplicate->value();
  s.evicted = evicted->value();
  s.batches = batches->value();
  return s;
}

IngestEngine::IngestEngine(VpTimeline& timeline, IngestConfig cfg)
    : timeline_(timeline), cfg_(cfg) {
  if (cfg_.metrics != nullptr) metrics_ = IngestMetrics::wire(*cfg_.metrics);
}

unsigned IngestEngine::worker_count() const noexcept {
  if (cfg_.threads != 0) return cfg_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

IngestStats IngestEngine::ingest(std::vector<std::vector<std::uint8_t>> payloads) {
  IngestStats stats;
  stats.batches = 1;
  const bool wired = metrics_.accepted != nullptr;
  const auto batch_start = std::chrono::steady_clock::now();

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> malformed{0};
  std::atomic<std::size_t> untimely{0};
  std::atomic<std::size_t> duplicate{0};

  const auto worker = [&] {
    std::size_t ok = 0, bad = 0, late = 0, dup = 0;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= payloads.size()) break;
      // The hot loop touches only worker-local tallies; the registry is
      // published once per batch from the aggregated deltas below, so
      // instrumentation costs the loop nothing (exposition readers see
      // batch-granular progress, which is all anyone scrapes).
      try {
        auto profile = vp::ViewProfile::parse(payloads[i]);
        switch (timeline_.upload(std::move(profile), /*trusted=*/false)) {
          case VpTimeline::Admission::kAccepted: ++ok; break;
          case VpTimeline::Admission::kMalformed: ++bad; break;
          case VpTimeline::Admission::kUntimely: ++late; break;
          case VpTimeline::Admission::kDuplicate: ++dup; break;
        }
      } catch (const std::exception&) {
        // Malformed payloads are dropped; anonymous senders get no feedback.
        ++bad;
      }
    }
    accepted.fetch_add(ok, std::memory_order_relaxed);
    malformed.fetch_add(bad, std::memory_order_relaxed);
    untimely.fetch_add(late, std::memory_order_relaxed);
    duplicate.fetch_add(dup, std::memory_order_relaxed);
  };

  // Never more threads than payloads: each extra worker would pop the
  // cursor once past the end and exit, paying spawn/join for nothing.
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(worker_count(), payloads.size()));
  if (workers <= 1 || payloads.size() < cfg_.min_parallel_batch) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
      for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
    } catch (...) {
      // A thread that failed to start never claimed a cursor slot; the
      // ones already running drain the batch and exit, so joining them
      // terminates. Destroying joinable threads would std::terminate.
      for (auto& th : pool) th.join();
      throw;
    }
    for (auto& th : pool) th.join();
  }

  stats.accepted = accepted.load();
  stats.rejected_malformed = malformed.load();
  stats.rejected_untimely = untimely.load();
  stats.rejected_duplicate = duplicate.load();
  stats.evicted = timeline_.enforce_retention();
  if (wired) {
    if (stats.accepted != 0) metrics_.accepted->add(stats.accepted);
    if (stats.rejected_malformed != 0)
      metrics_.rejected_malformed->add(stats.rejected_malformed);
    if (stats.rejected_untimely != 0)
      metrics_.rejected_untimely->add(stats.rejected_untimely);
    if (stats.rejected_duplicate != 0)
      metrics_.rejected_duplicate->add(stats.rejected_duplicate);
    if (stats.evicted != 0) metrics_.evicted->add(stats.evicted);
    metrics_.batches->add();
    metrics_.batch_us->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - batch_start)
            .count()));
  }
  return stats;
}

IngestStats IngestEngine::drain(anonet::AnonymousChannel& channel) {
  IngestStats stats;
  auto deliveries = channel.drain();
  if (deliveries.empty()) return stats;
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.reserve(deliveries.size());
  for (auto& delivery : deliveries) payloads.push_back(std::move(delivery.payload));
  return ingest(std::move(payloads));
}

}  // namespace viewmap::index
