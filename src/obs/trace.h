// Per-request span tracing for investigations.
//
// A slow investigation is opaque from the outside: the request histogram
// says "32 ms", not whether the time went to snapshot pinning, member
// selection, edge building, TrustRank, or verification. The tracer
// answers that with near-zero plumbing:
//
//   TraceScope trace(&tracer, "investigate …");   // request entry point
//     SpanScope span("edge_build");               // anywhere beneath it
//
// TraceScope installs itself as the thread's active trace; SpanScope —
// placed inside the builder, the verifier, TrustRank — checks that
// thread-local and appends a timed span when (and only when) a trace is
// active. Components therefore carry no tracer parameter at all, and
// code running outside any traced request (direct builder benchmarks,
// tests) pays one thread-local null check per scope.
//
// Finished traces go two places: into the report that triggered them
// (InvestigationReport::trace — the caller sees its own breakdown), and
// into the Tracer's bounded keep-the-N-slowest ring, which is what an
// operator inspects when "some requests are slow" (tools/viewmap_metrics
// renders it). The ring is mutex-guarded — traces complete at request
// rate, not at span rate, so the lock is far off any hot path.
//
// stash_span() covers the one span that happens *before* the traced
// entry point runs: the investigation server pins its DbSnapshot before
// calling investigate(), so it measures the pin and stashes it; the next
// TraceScope constructed on that thread adopts it as its first span.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace viewmap::obs {

/// One timed phase inside a trace. begin_us is relative to the trace
/// start. Spans may nest (e.g. trust_rank inside verify); they are kept
/// flat, in completion order.
struct Span {
  std::string name;
  std::uint64_t begin_us = 0;
  std::uint64_t dur_us = 0;
};

struct Trace {
  std::string label;
  std::uint64_t total_us = 0;
  std::vector<Span> spans;
};

/// Bounded ring of the N slowest traces ever recorded. Thread-safe.
class Tracer {
 public:
  explicit Tracer(std::size_t keep = 16);

  /// Keeps `t` iff it ranks among the `keep()` slowest so far.
  void record(Trace t);

  /// The kept traces, slowest first.
  [[nodiscard]] std::vector<Trace> slowest() const;
  /// Total traces ever offered to record().
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::size_t keep() const noexcept { return keep_; }

 private:
  std::size_t keep_;
  mutable std::mutex mutex_;
  std::vector<Trace> kept_;  ///< unordered; sorted on read
  std::uint64_t recorded_ = 0;
};

/// RAII root of one trace; installs itself as the thread's active trace
/// (stacking over any outer one). finish() — or the destructor — stamps
/// the total, commits to the tracer (when non-null), and uninstalls.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, std::string label);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Ends the trace early and returns it (the tracer got a copy). The
  /// scope is inert afterwards.
  Trace finish();

 private:
  friend class SpanScope;
  Tracer* tracer_;
  Trace trace_;
  std::chrono::steady_clock::time_point start_;
  TraceScope* prev_ = nullptr;
  bool finished_ = false;
};

/// RAII span under the thread's active trace; a no-op (one thread-local
/// read) when no trace is active. `name` must outlive the scope —
/// string literals in practice.
class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept;
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  bool active_;
};

/// Hands a pre-measured duration to the NEXT TraceScope constructed on
/// this thread, which adopts it as its first span (begin_us 0). Used
/// for work that precedes the traced entry point (snapshot pinning in
/// the investigation server). A second stash before a TraceScope
/// consumes the first overwrites it.
void stash_span(const char* name, std::uint64_t dur_us);

}  // namespace viewmap::obs
