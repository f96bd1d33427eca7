// Process-wide observability primitives: sharded counters, gauges,
// log-scale latency histograms, and the registry that names and renders
// them.
//
// Every subsystem in the service used to report through its own ad-hoc
// struct (IngestStats, ServerStats, CheckpointStats, …) — fine for unit
// tests, useless for an always-on daemon: no latency distributions, no
// common exposition, and (worse) several of those structs were returned
// by reference while another thread kept mutating them. This module is
// now the only place a service counter is kept: IngestStats, ServerStats
// and ResultCache::Stats hold no counts of their own and are filled by
// reading the registry when asked.
//
// Design rules, in order of importance:
//
//  1. Hot-path increments must be contention-free. Counter keeps a
//     fixed array of cache-line-aligned atomic slots; each thread is
//     assigned one slot (round-robin at first touch, the NDN-DPDK
//     rx-proc per-thread stat-block idiom) and increments it with a
//     relaxed fetch_add. Readers sum the slots. Two ingest workers
//     therefore never bounce a cache line on the same counter, and TSan
//     sees plain atomics — no annotations, no races.
//  2. Reads are approximate only in ordering, never in total: every
//     increment lands in exactly one slot, so value() converges to the
//     true count the instant writers quiesce.
//  3. Histograms are fixed-size and allocation-free on the record path:
//     log-linear buckets (8 sub-buckets per power of two ⇒ worst-case
//     12.5% relative bucket width) over the full uint64 range, striped
//     the same way the counters are sharded.
//  4. Exposition is deterministic: render() walks an ordered map and
//     emits Prometheus-style text (`name{label="v"} value`), so golden
//     tests can compare bytes.
//
// Metric objects are owned by the registry and live as long as it does;
// counter()/gauge()/histogram() are idempotent (same name + labels ⇒
// same object), so wiring code resolves pointers once at construction
// and hot paths never touch the registry again. A null
// MetricsRegistry* in TimelineConfig, or an unwired (all-null)
// index::IngestMetrics, disables that component's instrumentation
// entirely (standalone components run that way); a SegmentStore
// publishes only once adopt_metrics() wires it. See src/obs/README.md for naming
// conventions.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace viewmap::obs {

namespace detail {
/// Stable per-thread shard index in [0, kStatShards): assigned
/// round-robin at a thread's first use and cached thread_local, so every
/// counter and histogram stripes the same way.
inline constexpr std::size_t kStatShards = 16;
[[nodiscard]] std::size_t thread_shard() noexcept;
}  // namespace detail

/// Monotonic counter, sharded across cache-line-aligned per-thread
/// slots. add() is wait-free and contention-free between threads with
/// distinct shard slots; value() sums the slots.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    slots_[detail::thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& slot : slots_) sum += slot.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, detail::kStatShards> slots_{};
};

/// Instantaneous signed value (queue depth, live shard count). A gauge
/// is one atomic — set/add/sub race freely; update_max keeps a
/// high-water mark via CAS.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) noexcept { v_.fetch_sub(d, std::memory_order_relaxed); }
  void update_max(std::int64_t v) noexcept {
    std::int64_t prev = v_.load(std::memory_order_relaxed);
    while (v > prev &&
           !v_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket log-linear histogram over uint64 values (we record
/// microseconds; the unit is part of the metric name, e.g. `…_us`).
///
/// Bucket layout (kSubBits = 3 ⇒ 8 sub-buckets per octave):
///   v < 16             → bucket v              (exact)
///   v ≥ 16             → octave o = bit_width(v)−1, sub-bucket
///                        (v >> (o−3)) & 7      (≤ 12.5% relative width)
/// 496 buckets cover the whole range; the array is striped like Counter
/// so record() is contention-free. Percentiles come from a Snapshot:
/// walk the cumulative distribution and report the bucket's upper
/// bound, which makes p50 ≤ p90 ≤ p99 monotone by construction and
/// never underestimates a latency by more than one bucket width.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 3;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;  // 8
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;  // 496

  void record(std::uint64_t value) noexcept {
    Stripe& s = stripes_[detail::thread_shard() % kStripes];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    s.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;  ///< kBuckets entries

    /// Value at quantile q ∈ [0, 1]: upper bound of the bucket holding
    /// the ⌈q·count⌉-th sample (0 when empty). Monotone in q.
    [[nodiscard]] std::uint64_t percentile(double q) const noexcept;
    [[nodiscard]] double mean() const noexcept {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  /// Merges every stripe into one consistent-enough view: each stripe's
  /// cells are summed individually (relaxed), so totals are exact once
  /// writers quiesce and never torn below the cell level.
  [[nodiscard]] Snapshot snapshot() const;

  /// Bucket index for a value — exposed for the boundary unit tests.
  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const unsigned octave = static_cast<unsigned>(std::bit_width(v)) - 1;
    const std::uint64_t sub = (v >> (octave - kSubBits)) & (kSub - 1);
    return (octave - kSubBits + 1) * kSub + static_cast<std::size_t>(sub);
  }
  /// Smallest value mapping to bucket `idx`.
  [[nodiscard]] static constexpr std::uint64_t bucket_lower(std::size_t idx) noexcept {
    if (idx < 2 * kSub) return idx;
    const std::size_t octave = idx / kSub + kSubBits - 1;
    const std::uint64_t sub = idx % kSub;
    return (kSub + sub) << (octave - kSubBits);
  }
  /// Largest value mapping to bucket `idx` (inclusive).
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(std::size_t idx) noexcept {
    return idx + 1 >= kBuckets ? ~std::uint64_t{0} : bucket_lower(idx + 1) - 1;
  }

 private:
  /// Fewer stripes than counter slots: a histogram stripe is ~4 KB of
  /// buckets, and the record path touches three cells of it — striping
  /// by thread_shard() % kStripes keeps concurrent recorders on
  /// distinct cache lines without 16× the footprint.
  static constexpr std::size_t kStripes = 4;
  struct Stripe {
    alignas(64) std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  std::array<Stripe, kStripes> stripes_{};
};

/// One label on a metric; labels are sorted by key into the canonical
/// full name `name{k1="v1",k2="v2"}`, which is the registry map key.
using Label = std::pair<std::string_view, std::string_view>;

/// Named metric store + exposition. Registration (counter/gauge/
/// histogram) is mutex-guarded and idempotent; the returned references
/// are stable for the registry's lifetime, so components resolve them
/// once at construction. Rendering walks the ordered map, so output is
/// byte-deterministic for a given set of metric values.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Idempotent: the same name + labels always yields the same object.
  /// Throws std::logic_error if the name is already registered as a
  /// different metric kind.
  Counter& counter(std::string_view name, std::initializer_list<Label> labels = {});
  Gauge& gauge(std::string_view name, std::initializer_list<Label> labels = {});
  Histogram& histogram(std::string_view name, std::initializer_list<Label> labels = {});

  /// Lookup by full name (labels included, canonical order), null when
  /// absent or of a different kind. For readers that must not create.
  [[nodiscard]] const Counter* find_counter(std::string_view full_name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view full_name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view full_name) const;

  /// Prometheus-style text exposition: `# TYPE` comment per metric
  /// family, `name{labels} value` per sample; histograms emit _count,
  /// _sum, and quantile samples (0.5 / 0.9 / 0.99).
  void render(std::ostream& os) const;
  /// The same data as one JSON object keyed by full metric name.
  void render_json(std::ostream& os) const;
  [[nodiscard]] std::string render_text() const;

  /// Canonical full name (labels sorted by key) — the find_* key.
  [[nodiscard]] static std::string full_name(std::string_view name,
                                             std::initializer_list<Label> labels);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, std::initializer_list<Label> labels, Kind kind);
  [[nodiscard]] const Entry* find(std::string_view full_name, Kind kind) const;

  mutable std::mutex mutex_;  ///< guards the map; metric objects are lock-free
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace viewmap::obs
