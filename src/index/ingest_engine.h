// Concurrent batched ingest for anonymous VP uploads.
//
// The service-side hot path: drain the anonymous channel in batches,
// parse each payload, hand it to VpTimeline::upload — the one admission
// path: structural screen, timeliness screen, striped-lock shard commit
// — and tally the outcome. Tasks on the process WorkerPool pull payload
// indices off one atomic cursor, so parse/screen/commit of different
// uploads overlap freely;
// there is no global lock anywhere on the path. Retention is
// enforced once per batch, between batches — the only moment the engine
// guarantees no worker holds shard pointers — and is driven by the
// trusted clock, never by timestamps inside the anonymous batch.
//
// Accept/reject results are identical to serial VpTimeline::upload
// calls regardless of thread count (same screen, same duplicate rule);
// only the order in which duplicates lose is timing-dependent, exactly
// as it already was for a shuffled anonymous channel.
#pragma once

#include <cstdint>
#include <vector>

#include "anonet/channel.h"
#include "common/worker_pool.h"
#include "index/timeline.h"

namespace viewmap::obs {
class MetricsRegistry;  // obs/metrics.h
class Counter;
class Histogram;
}  // namespace viewmap::obs

namespace viewmap::index {

/// The registry metrics the ingest path publishes, resolved once by
/// wire() and fed batch-aggregated deltas at the end of each ingest()
/// (never a registry lookup, never a per-item touch). All null when
/// unwired, which switches the ingest path's instrumentation off.
/// ViewMapService wires one set for its lifetime and serves
/// ingest_totals() as a plain read of it — the only place ingest totals
/// are kept.
struct IngestMetrics {
  obs::Counter* accepted = nullptr;
  obs::Counter* rejected_malformed = nullptr;
  obs::Counter* rejected_untimely = nullptr;
  obs::Counter* rejected_duplicate = nullptr;
  obs::Counter* evicted = nullptr;
  obs::Counter* batches = nullptr;
  obs::Histogram* batch_us = nullptr;

  /// Registers (idempotently) and resolves the full set.
  [[nodiscard]] static IngestMetrics wire(obs::MetricsRegistry& registry);

  /// Reads the counters back as one stats struct (all zero when
  /// unwired). Each field is internally consistent (sharded-sum of
  /// atomics); the struct as a whole is a relaxed snapshot, exact once
  /// writers quiesce.
  [[nodiscard]] struct IngestStats totals() const;
};

struct IngestStats {
  std::size_t accepted = 0;
  std::size_t rejected_malformed = 0;  ///< failed parse or vp::well_formed
  std::size_t rejected_untimely = 0;   ///< claimed unit-time implausible vs trusted clock
  std::size_t rejected_duplicate = 0;  ///< id collision with a stored VP
  std::size_t evicted = 0;             ///< VPs aged out by retention
  std::size_t batches = 0;
};

class IngestEngine {
 public:
  /// Runs batches on `pool`, bound here so that a pool that cannot
  /// start fails before anything is drained.
  explicit IngestEngine(VpTimeline& timeline, IngestMetrics metrics = {},
                        common::WorkerPool& pool = common::WorkerPool::process());

  /// Ingests one batch of serialized VP payloads (all as anonymous,
  /// untrusted uploads). Blocks until the batch is fully committed.
  IngestStats ingest(std::vector<std::vector<std::uint8_t>> payloads);

  /// Drains everything pending on the anonymous channel through ingest().
  IngestStats drain(anonet::AnonymousChannel& channel);

 private:
  VpTimeline& timeline_;
  IngestMetrics metrics_;
  common::WorkerPool& pool_;
};

}  // namespace viewmap::index
