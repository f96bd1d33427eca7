#include "common/failpoint.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/rng.h"

namespace viewmap::failpoint {

namespace detail {
std::atomic<std::uint64_t> g_armed{0};
}  // namespace detail

namespace {

struct Point {
  Action action = Action::kNone;
  Trigger trigger;
  std::chrono::milliseconds delay{0};
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  Rng rng{0};  // re-seeded on arm for kProbability
};

struct Registry {
  std::mutex mu;
  // Ordered map: armed_points() reports sorted names for free, and the
  // registry only ever holds a handful of entries.
  std::map<std::string, Point, std::less<>> points;
  std::uint64_t total_fires = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

bool trigger_fires(Point& p) {
  // hits was already incremented; the hit index of this evaluation is
  // hits - 1 so windows and every-Nth count from zero.
  const std::uint64_t idx = p.hits - 1;
  switch (p.trigger.kind) {
    case Trigger::Kind::kAlways:
      return true;
    case Trigger::Kind::kOnce:
      return idx == 0;
    case Trigger::Kind::kEveryNth:
      return p.trigger.n != 0 && (idx + 1) % p.trigger.n == 0;
    case Trigger::Kind::kProbability:
      return p.rng.bernoulli(p.trigger.p);
    case Trigger::Kind::kWindow:
      return idx >= p.trigger.from && idx < p.trigger.to;
  }
  return false;
}

/// A whole token of decimal digits: no sign, space, suffix or overflow.
std::uint64_t parse_count(std::string_view s, const char* field) {
  std::uint64_t v = 0;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc{} || ptr != last)
    throw std::invalid_argument(std::string("failpoint: ") + field +
                                " needs decimal digits, got '" + std::string(s) + "'");
  return v;
}

/// A finite fixed-point decimal; Trigger::probability checks the range.
double parse_probability(std::string_view s) {
  double v = 0.0;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v, std::chars_format::fixed);
  if (ec != std::errc{} || ptr != last || !std::isfinite(v))
    throw std::invalid_argument("failpoint: prob:P needs a finite decimal, got '" +
                                std::string(s) + "'");
  return v;
}

Action parse_action(std::string_view s, std::chrono::milliseconds& delay) {
  const auto colon = s.find(':');
  const std::string_view name = s.substr(0, colon);
  if (name == "delay") {
    if (colon == std::string_view::npos)
      throw std::invalid_argument("failpoint: delay needs :MS");
    const std::uint64_t ms = parse_count(s.substr(colon + 1), "delay:MS");
    if (ms > static_cast<std::uint64_t>(std::chrono::milliseconds::max().count()))
      throw std::invalid_argument("failpoint: delay:MS out of range");
    delay = std::chrono::milliseconds{static_cast<std::chrono::milliseconds::rep>(ms)};
    return Action::kDelay;
  }
  if (colon != std::string_view::npos)
    throw std::invalid_argument("failpoint: action '" + std::string(name) +
                                "' takes no argument");
  if (name == "eio") return Action::kEIO;
  if (name == "enospc") return Action::kENOSPC;
  if (name == "short") return Action::kShortWrite;
  if (name == "error") return Action::kError;
  throw std::invalid_argument("failpoint: unknown action '" + std::string(s) + "'");
}

Trigger parse_trigger(std::string_view s) {
  // Split on ':' into fields.
  std::vector<std::string_view> f;
  std::size_t start = 0;
  while (true) {
    const auto colon = s.find(':', start);
    f.push_back(s.substr(start, colon == std::string_view::npos ? colon : colon - start));
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  const std::string_view kind = f[0];
  if (kind == "always" && f.size() == 1) return Trigger::always();
  if (kind == "once" && f.size() == 1) return Trigger::once();
  if (kind == "every" && f.size() == 2)
    return Trigger::every_nth(parse_count(f[1], "every:N"));
  if (kind == "prob" && (f.size() == 2 || f.size() == 3)) {
    const double p = parse_probability(f[1]);
    return f.size() == 3 ? Trigger::probability(p, parse_count(f[2], "prob:P:SEED"))
                         : Trigger::probability(p);
  }
  if (kind == "window" && f.size() == 3)
    return Trigger::window(parse_count(f[1], "window:A:B"),
                           parse_count(f[2], "window:A:B"));
  throw std::invalid_argument("failpoint: bad trigger '" + std::string(s) + "'");
}

}  // namespace

int Decision::injected_errno() const noexcept {
  switch (action) {
    case Action::kEIO:
    case Action::kShortWrite:
      return EIO;
    case Action::kENOSPC:
      return ENOSPC;
    default:
      return 0;
  }
}

namespace detail {

Decision evaluate_slow(std::string_view point) {
  std::chrono::milliseconds delay{0};
  Decision d;
  {
    auto& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.points.find(point);
    if (it == r.points.end()) return {};
    Point& p = it->second;
    ++p.hits;
    if (!trigger_fires(p)) return {};
    ++p.fires;
    ++r.total_fires;
    d.action = p.action;
    delay = p.delay;
  }
  // Sleep outside the lock so a delay point never serializes other
  // points behind it.
  if (d.action == Action::kDelay && delay.count() > 0)
    std::this_thread::sleep_for(delay);
  return d;
}

}  // namespace detail

Trigger Trigger::every_nth(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("failpoint: every:N needs N >= 1");
  Trigger t{Kind::kEveryNth};
  t.n = n;
  return t;
}

Trigger Trigger::probability(double p, std::uint64_t seed) {
  if (!(p >= 0.0 && p <= 1.0))  // negated, so NaN fails too
    throw std::invalid_argument("failpoint: prob:P needs P in [0, 1]");
  Trigger t{Kind::kProbability};
  t.p = p;
  t.seed = seed;
  return t;
}

Trigger Trigger::window(std::uint64_t from, std::uint64_t to) {
  if (to < from) throw std::invalid_argument("failpoint: window:A:B needs A <= B");
  Trigger t{Kind::kWindow};
  t.from = from;
  t.to = to;
  return t;
}

void arm(std::string point, Action action, Trigger trigger,
         std::chrono::milliseconds delay) {
  if (point.empty()) throw std::invalid_argument("failpoint: empty point name");
  if (action == Action::kNone)
    throw std::invalid_argument("failpoint: cannot arm kNone");
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Point p;
  p.action = action;
  p.trigger = trigger;
  p.delay = delay;
  p.rng = Rng(trigger.seed);
  auto [it, inserted] = r.points.insert_or_assign(std::move(point), std::move(p));
  (void)it;
  if (inserted) detail::g_armed.fetch_add(1, std::memory_order_relaxed);
}

std::size_t arm_from_spec(std::string_view spec) {
  // Two-phase: parse every clause before arming anything, so a spec with
  // a bad clause arms nothing (no partially-applied chaos).
  struct Parsed {
    std::string point;
    Action action;
    Trigger trigger;
    std::chrono::milliseconds delay;
  };
  std::vector<Parsed> parsed;
  std::size_t start = 0;
  while (start < spec.size()) {
    auto end = spec.find(';', start);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view clause = spec.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) continue;
    const auto eq = clause.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw std::invalid_argument("failpoint: bad clause '" + std::string(clause) +
                                  "' (want point=action[@trigger])");
    const std::string_view point = clause.substr(0, eq);
    std::string_view rhs = clause.substr(eq + 1);
    try {
      Trigger trigger = Trigger::always();
      const auto at = rhs.find('@');
      if (at != std::string_view::npos) {
        trigger = parse_trigger(rhs.substr(at + 1));
        rhs = rhs.substr(0, at);
      }
      std::chrono::milliseconds delay{0};
      const Action action = parse_action(rhs, delay);
      parsed.push_back({std::string(point), action, trigger, delay});
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(e.what()) + " in clause '" +
                                  std::string(clause) + "'");
    }
  }
  for (auto& p : parsed)
    arm(std::move(p.point), p.action, p.trigger, p.delay);
  return parsed.size();
}

std::size_t arm_from_env() {
  const char* spec = std::getenv("VIEWMAP_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') return 0;
  return arm_from_spec(spec);
}

void disarm(std::string_view point) {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.points.find(point);
  if (it == r.points.end()) return;
  r.points.erase(it);
  detail::g_armed.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  detail::g_armed.fetch_sub(r.points.size(), std::memory_order_relaxed);
  r.points.clear();
  r.total_fires = 0;
}

PointStats stats(std::string_view point) {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.points.find(point);
  if (it == r.points.end()) return {};
  return {it->second.hits, it->second.fires};
}

std::uint64_t total_fires() {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.total_fires;
}

std::vector<std::string> armed_points() {
  auto& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.points.size());
  for (const auto& [name, p] : r.points) names.push_back(name);
  return names;
}

}  // namespace viewmap::failpoint
