#include "index/ingest_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>

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

namespace {

/// Batches below this size are ingested inline on the calling thread:
/// waking workers for a handful of uploads costs more than the parse
/// work itself (incident_sweep's late uploads drain a few at a time).
constexpr std::size_t kParallelMinBatch = 64;

}  // namespace

IngestEngine::IngestEngine(VpTimeline& timeline, IngestMetrics metrics,
                           common::WorkerPool& pool)
    : timeline_(timeline), metrics_(metrics), pool_(pool) {}

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

  // Never more tasks than payloads: each extra one would pop the cursor
  // once past the end and return.
  const std::size_t tasks = payloads.size() < kParallelMinBatch
                                ? 1
                                : std::min<std::size_t>(pool_.width(), payloads.size());
  pool_.parallel_for(tasks, [&](std::size_t) { worker(); });

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
