// Failpoints: named fault-injection sites with deterministic triggers.
//
// PR 5's crash-point replay proved recovery from "the process dies at
// byte N"; this module generalizes the discipline to "syscall X fails at
// point Y". Durable-I/O and service-loop code declares *points* —
// `failpoint::inject("store.write.data")` — and tests (the daemon's
// chaos soak among them), or an operator (`viewmapd --failpoints=…`, the
// VIEWMAP_FAILPOINTS environment variable) *arm* them with an action and
// a trigger policy. Unarmed, a point costs one relaxed atomic load — the
// framework compiles into production builds so the chaos suite exercises
// the exact binary that ships.
//
// Actions (what an armed point does when its trigger fires):
//   eio / enospc   report errno EIO / ENOSPC — the site fails the way the
//                  real syscall would (write/fsync/close/rename/open)
//   short          torn write: the site persists a prefix of the bytes,
//                  then fails with EIO (only write-shaped sites honor the
//                  short part; others treat it as eio)
//   delay:MS       sleep MS milliseconds, then proceed normally — holds
//                  a thread so it looks wedged, not an error
//   error          generic failure with no errno (sites throw)
//
// Triggers (when an armed point fires, counted in per-point hits):
//   always         every evaluation
//   once           the first evaluation only
//   every:N        evaluations N-1, 2N-1, … (every Nth)
//   prob:P[:SEED]  seeded Bernoulli(P) per evaluation — deterministic for
//                  a given seed and hit sequence
//   window:A:B     hit indices in [A, B) — a bounded failure burst
//
// Spec grammar (one string arms many points):
//   point=action@trigger[;point=action@trigger…]
//   e.g. "store.write.fsync=eio@every:3;store.write.data=enospc@window:2:6"
// N, A, B, SEED and MS are whole tokens of decimal digits (no sign,
// space or suffix) that fit their field; P is a finite fixed-point decimal.
// Only delay takes an argument.
//
// Determinism: all trigger state (hit counters, the probability RNG) is
// per-point and advances only on evaluation, so a single-threaded test
// replays bit-identically. Evaluation under concurrency is serialized by
// the registry mutex — armed points are a chaos-mode cost, never a hot
// path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace viewmap::failpoint {

enum class Action : std::uint8_t {
  kNone = 0,   ///< trigger did not fire: proceed
  kEIO,        ///< fail with errno EIO
  kENOSPC,     ///< fail with errno ENOSPC
  kShortWrite, ///< persist a prefix, then fail with EIO
  kDelay,      ///< sleep, then proceed (evaluate() performs the sleep)
  kError,      ///< generic failure, no errno
};

/// What one evaluation of one point decided.
struct Decision {
  Action action = Action::kNone;
  [[nodiscard]] bool fires() const noexcept { return action != Action::kNone; }
  /// errno the site should report (EIO for kShortWrite too); 0 when the
  /// action carries no errno semantics (kNone, kDelay, kError).
  [[nodiscard]] int injected_errno() const noexcept;
};

namespace detail {
extern std::atomic<std::uint64_t> g_armed;  ///< count of armed points
Decision evaluate_slow(std::string_view point);
}  // namespace detail

/// True when any point anywhere is armed. The disabled-mode fast path:
/// sites gate on this before touching the registry.
[[nodiscard]] inline bool any_armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/// Evaluates `point`: counts the hit, applies the trigger, performs a
/// kDelay sleep itself. Unarmed points (and the whole framework when
/// nothing is armed) return kNone.
[[nodiscard]] inline Decision evaluate(std::string_view point) {
  if (!any_armed()) return {};
  return detail::evaluate_slow(point);
}

/// Convenience for errno-shaped sites: the errno to fail with, or 0 to
/// proceed. kShortWrite maps to EIO here — sites that can model the torn
/// prefix use evaluate() and inspect the action instead.
[[nodiscard]] inline int inject(std::string_view point) {
  if (!any_armed()) return 0;
  return detail::evaluate_slow(point).injected_errno();
}

/// Trigger policy for arm(). kAlways fires on every hit.
struct Trigger {
  enum class Kind : std::uint8_t { kAlways, kOnce, kEveryNth, kProbability, kWindow };
  Kind kind = Kind::kAlways;
  std::uint64_t n = 1;         ///< kEveryNth period
  std::uint64_t from = 0;      ///< kWindow [from, to) in hit index
  std::uint64_t to = 0;
  double p = 0.0;              ///< kProbability
  std::uint64_t seed = 0x5eed; ///< kProbability RNG seed

  [[nodiscard]] static Trigger always() { return {}; }
  [[nodiscard]] static Trigger once() { return {Kind::kOnce}; }
  [[nodiscard]] static Trigger every_nth(std::uint64_t n);
  [[nodiscard]] static Trigger probability(double p, std::uint64_t seed = 0x5eed);
  [[nodiscard]] static Trigger window(std::uint64_t from, std::uint64_t to);
};

/// Arms (or re-arms, resetting counters) one point.
void arm(std::string point, Action action, Trigger trigger = Trigger::always(),
         std::chrono::milliseconds delay = std::chrono::milliseconds{0});

/// Parses and arms a `point=action@trigger[;…]` spec (see header
/// comment). Returns how many points were armed; throws
/// std::invalid_argument naming the bad clause on a parse error, in
/// which case NOTHING was armed (the whole spec is validated first).
std::size_t arm_from_spec(std::string_view spec);

/// Arms from the VIEWMAP_FAILPOINTS environment variable, if set.
/// Returns points armed (0 when unset/empty). Call explicitly from a
/// composition root — nothing reads the environment behind your back.
std::size_t arm_from_env();

/// Disarms one point / every point. Counters for disarmed points are
/// dropped.
void disarm(std::string_view point);
void disarm_all();

/// Per-point observability: evaluations seen / times the trigger fired
/// (kDelay counts as a fire). Zeros for unknown points.
struct PointStats {
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};
[[nodiscard]] PointStats stats(std::string_view point);

/// Total fires across all points since the last disarm_all() — the chaos
/// harness's "≥ N faults actually injected" assertion reads this.
[[nodiscard]] std::uint64_t total_fires();

/// Names of currently armed points, sorted (diagnostics, --failpoints
/// echo).
[[nodiscard]] std::vector<std::string> armed_points();

}  // namespace viewmap::failpoint
