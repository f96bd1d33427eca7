// perfbench — the benchmark of the assembled viewmapd service.
//
// One process drives daemon::ServiceLifecycle, the viewmapd composition
// root, through one workload with at most three threads of its own: an
// uploader, a request submitter (the main thread) and a poller.
//
//   upload_flood    restart from a ~100k-VP store; one closed-loop uploader
//                   floods the newest two minutes while the trusted clock
//                   walks forward, so retention evicts. No investigations.
//   incident_zipf   restart from a dense-downtown store; after an untimed
//                   cache warm-up, open-loop investigators over a Zipf(1.1)
//                   (site, minute) mix plus kLive requests on the newest
//                   minute, beside an upload trickle into the newest two.
//   incident_sweep  the same store; a closed loop of kBatch five-minute
//                   sweeps over sites never asked for before, beside late
//                   uploads into the minutes being swept.
//
// The poller is the only checkpoint trigger. Work a workload's own shape
// does not do runs beside the window as fixed work — sequential sweeps
// before it, an upload burst after it — so every workload reports every
// end-to-end metric (see perfbench/README.md).
//
// The bounded end-to-end metrics are CPU time per unit of work (and of
// start()), read from POSIX CPU-time clocks, with peak RSS beside them.
// What users wait for, in wall time, is reported too but not bounded: on
// a shared host it moves with the host's load as much as with the code.
//
// Inputs come from a seeded generator (below) and reach the daemon only as
// serialized payloads and a sealed segment store; building them is
// untimed. --trace 0 measures the end-to-end metrics with no extra
// tracing; --trace 1 is a separate run that also times the driver's calls
// into each layer, harvests every report's spans and reads the layers'
// public stats and histograms: the per-layer metrics.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --workdir DIR
//             [--commit ID] [--spans FILE] [--smoke]
//
// stdout: a {"stamp": …}, a {"checks": …} and an {"e2e": …} line (the
// bounded and the wall-time metrics), then, last, the result object
// {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/fake_vp.h"
#include "bloom/bloom_filter.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "daemon/lifecycle.h"
#include "dsrc/view_digest.h"
#include "geo/geometry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/segment_store.h"
#include "system/investigation_server.h"
#include "system/service.h"
#include "vp/view_profile.h"

namespace viewmap::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Payload = std::vector<std::uint8_t>;
using Reports = sys::InvestigationServer::Reports;
using namespace std::chrono_literals;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// JSON has no infinity: a percentile that lands on a failed operation
/// (which counts as over any latency limit) is reported as this many ms.
constexpr double kFailedMs = 1e9;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration seconds_d(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Nearest-rank percentile; failed operations enter as +inf.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const double x = v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
  return std::isfinite(x) ? x : kFailedMs;
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

/// Seconds on a POSIX CPU-time clock. Under a hypervisor that reports
/// steal time to the guest, these leave out the time the vCPU was
/// runnable but not run, which wall time counts: they measure the work,
/// not how busy the host's other tenants were.
double cpu_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

clockid_t thread_clock(pthread_t thread) {
  clockid_t c{};
  if (::pthread_getcpuclockid(thread, &c) != 0) throw std::runtime_error("pthread_getcpuclockid");
  return c;
}

/// The driver stands in for clients on other machines: its threads get a
/// higher CPU weight (nice −10, where permitted), so that a daemon that
/// saturates the cores delays its work, not the driver's clock.
void favour_this_thread() {
  (void)::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), -10);
}

// ───────────────────────────── inputs ──────────────────────────────
//
// A dense city on a road grid, generated one minute at a time:
//   * vehicles drive straight along the roads in platoons of one to six,
//     25 m apart (bench_index's viewmap_build fleet, put on roads);
//   * real viewlinks: every pair that came within radio range at some
//     time-aligned second is linked mutually, nearest pairs first, until
//     either side reaches vp::kMaxNeighbors;
//   * one authority (trusted) car per minute drives the incident corridor
//     (y = 0), on which every incident site lies;
//   * ~5% fakes (attack::make_fake_profile) claim to loiter inside an
//     incident site and met no one.
// The same seed gives the same bytes; every byte is hashed into the
// input digest the result records.

struct CityConfig {
  double half_extent_m = 550.0;    ///< the city is the square [-h, h]²
  double road_pitch_m = 110.0;     ///< road spacing on both axes
  int minutes = 60;                ///< minutes of history in the store
  int vps_per_minute = 2000;       ///< anonymous uploads per minute
  double fake_share = 0.05;
  int sites = 8;                   ///< incident sites along the corridor
  double site_half_m = 75.0;
  double corridor_half_m = 300.0;  ///< authority route: x ∈ [-c, c], y = 0
  TimeSec first_minute = 0;        ///< unit-time of the oldest minute
};

struct GeneratedMinute {
  TimeSec unit = 0;
  std::vector<Payload> uploads;  ///< honest and fake VPs, shuffled
  Payload trusted;               ///< the authority VP
};

struct World {
  std::vector<geo::Rect> sites;
  std::unordered_set<Id16, Id16Hasher> fakes;
  /// Honest payloads and the authority VP of the newest minute: later
  /// uploads are re-stamped from these (restamp()).
  std::vector<Payload> templates;
  Payload trusted_template;
  std::uint64_t vps = 0;    ///< payloads generated, authority VPs included
  std::uint64_t links = 0;  ///< mutual viewlinks made
  /// The generator sets Bloom bits from precomputed probe positions instead
  /// of calling vp::link_mutually per pair (four SHA-256 per link would
  /// dominate set-up). True when, on sampled links, every bit
  /// link_mutually sets is set in the generated filters.
  bool links_match_library = false;
};

/// DSRC decode horizon (dsrc/radio.h).
constexpr double kRadioRangeM = 400.0;
constexpr double kHeadwayM = 25.0;
constexpr int kLastSecond = kDigestsPerProfile - 1;
/// Byte offset of the VP id in a 72-byte VD frame (time 8, location 8,
/// file size 8, initial location 8 — dsrc::ViewDigest::serialize).
constexpr std::size_t kVdIdOffset = 32;

struct Trip {
  geo::Vec2 a;  ///< position at the minute's first second
  geo::Vec2 b;  ///< … and at its last
};

/// Squared distance at the closest time-aligned second of two straight
/// trips: the squared gap is convex in time, so over whole seconds the
/// minimum sits at one of the two seconds around the continuous minimiser.
double closest_sq(const Trip& p, const Trip& q) {
  const double rx = p.a.x - q.a.x;
  const double ry = p.a.y - q.a.y;
  const double vx = (p.b.x - p.a.x) - (q.b.x - q.a.x);
  const double vy = (p.b.y - p.a.y) - (q.b.y - q.a.y);
  const double vv = vx * vx + vy * vy;
  const double t = vv > 0.0 ? std::clamp(-(rx * vx + ry * vy) / vv, 0.0, 1.0) : 0.0;
  const auto at = [&](int s) {
    const double u = static_cast<double>(s) / kLastSecond;
    const double dx = rx + u * vx;
    const double dy = ry + u * vy;
    return dx * dx + dy * dy;
  };
  const int lo = static_cast<int>(t * kLastSecond);
  return std::min(at(lo), at(std::min(lo + 1, kLastSecond)));
}

std::vector<Trip> road_trips(const CityConfig& c, std::size_t count, Rng& rng) {
  const double h = c.half_extent_m;
  const auto roads = static_cast<std::size_t>(2.0 * h / c.road_pitch_m) + 1;
  std::vector<Trip> trips;
  trips.reserve(count);
  while (trips.size() < count) {
    const bool horizontal = rng.bernoulli(0.5);
    const double road = -h + c.road_pitch_m * static_cast<double>(rng.index(roads));
    const double dir = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const std::size_t size = std::min<std::size_t>(1 + rng.index(6), count - trips.size());
    const double tail = kHeadwayM * static_cast<double>(size - 1);
    const double len = std::min(rng.uniform(6.0, 14.0) * kLastSecond, 2.0 * h - tail);
    const double lead =
        dir > 0 ? rng.uniform(-h + tail, h - len) : rng.uniform(-h + len, h - tail);
    const double lane = road + 3.0 * dir;  // drive on the right
    for (std::size_t k = 0; k < size; ++k) {
      const double s0 = lead - dir * kHeadwayM * static_cast<double>(k);
      const double s1 = s0 + dir * len;
      trips.push_back(horizontal ? Trip{{s0, lane}, {s1, lane}} : Trip{{lane, s0}, {lane, s1}});
    }
  }
  return trips;
}

using Probe = std::array<std::size_t, static_cast<std::size_t>(vp::kBloomHashes)>;
using Bits = std::array<std::uint8_t, vp::kBloomBytes>;
using Links = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Probe probe_of(const dsrc::ViewDigest& vd) {
  Probe p{};
  bloom::BloomFilter::probe_positions(vd.serialize(), vp::kBloomBits, vp::kBloomHashes, p);
  return p;
}

void set_bits(Bits& bits, const Probe& p) {
  for (const std::size_t b : p) bits[b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
}

Links radio_links(const std::vector<Trip>& trips) {
  const std::size_t n = trips.size();
  std::vector<geo::Rect> box(n);
  for (std::size_t i = 0; i < n; ++i)
    box[i] = {{std::min(trips[i].a.x, trips[i].b.x), std::min(trips[i].a.y, trips[i].b.y)},
              {std::max(trips[i].a.x, trips[i].b.x), std::max(trips[i].a.y, trips[i].b.y)}};
  std::vector<Links> by_metre(static_cast<std::size_t>(kRadioRangeM) + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (box[j].min.x - box[i].max.x > kRadioRangeM ||
          box[i].min.x - box[j].max.x > kRadioRangeM ||
          box[j].min.y - box[i].max.y > kRadioRangeM ||
          box[i].min.y - box[j].max.y > kRadioRangeM)
        continue;
      const double d2 = closest_sq(trips[i], trips[j]);
      if (d2 <= kRadioRangeM * kRadioRangeM)
        by_metre[static_cast<std::size_t>(std::sqrt(d2))].emplace_back(i, j);
    }
  }
  std::vector<std::size_t> degree(n, 0);
  Links links;
  for (const Links& bucket : by_metre)
    for (const auto& [i, j] : bucket)
      if (degree[i] < vp::kMaxNeighbors && degree[j] < vp::kMaxNeighbors) {
        ++degree[i];
        ++degree[j];
        links.emplace_back(i, j);
      }
  return links;
}

bool links_match_library(const std::vector<vp::ViewProfile>& base,
                         const std::vector<Bits>& bits, const Links& links) {
  if (links.empty()) return false;
  const auto subset = [](const std::vector<std::uint8_t>& inner, const Bits& outer) {
    for (std::size_t k = 0; k < outer.size(); ++k)
      if ((inner[k] & ~outer[k]) != 0) return false;
    return true;
  };
  const std::size_t stride = std::max<std::size_t>(1, links.size() / 8);
  for (std::size_t k = 0; k < links.size(); k += stride) {
    const auto [i, j] = links[k];
    vp::ViewProfile a = base[i];  // copies of the unlinked profiles
    vp::ViewProfile b = base[j];
    vp::link_mutually(a, b);
    if (!subset(a.neighbor_bloom().data(), bits[i]) ||
        !subset(b.neighbor_bloom().data(), bits[j]))
      return false;
  }
  return true;
}

World generate_city(const CityConfig& c, std::uint64_t seed, crypto::Sha256& digest,
                    const std::function<void(GeneratedMinute&)>& sink) {
  World w;
  for (int k = 0; k < c.sites; ++k) {
    const double x = -c.corridor_half_m + 2.0 * c.corridor_half_m * (k + 0.5) / c.sites;
    w.sites.push_back({{x - c.site_half_m, -c.site_half_m}, {x + c.site_half_m, c.site_half_m}});
  }
  Rng rng(seed);
  const auto fakes = static_cast<std::size_t>(std::lround(c.vps_per_minute * c.fake_share));
  const std::size_t honest = static_cast<std::size_t>(c.vps_per_minute) - fakes;
  for (int m = 0; m < c.minutes; ++m) {
    const TimeSec unit = c.first_minute + kUnitTimeSec * m;
    std::vector<Trip> trips = road_trips(c, honest, rng);
    const double dir = m % 2 == 0 ? 1.0 : -1.0;  // the authority car is last
    trips.push_back({{-dir * c.corridor_half_m, 3.0 * dir}, {dir * c.corridor_half_m, 3.0 * dir}});
    const std::size_t n = trips.size();

    std::vector<vp::ViewProfile> base;
    base.reserve(n);
    std::vector<Probe> first(n), last(n);
    for (std::size_t i = 0; i < n; ++i) {
      base.push_back(attack::make_fake_profile(unit, trips[i].a, trips[i].b, rng));
      first[i] = probe_of(base[i].digests().front());
      last[i] = probe_of(base[i].digests().back());
    }
    const Links links = radio_links(trips);
    std::vector<Bits> bits(n, Bits{});
    for (const auto& [i, j] : links) {
      set_bits(bits[i], first[j]);
      set_bits(bits[i], last[j]);
      set_bits(bits[j], first[i]);
      set_bits(bits[j], last[i]);
    }
    if (m == 0) w.links_match_library = links_match_library(base, bits, links);
    w.links += links.size();

    GeneratedMinute out;
    out.unit = unit;
    out.uploads.reserve(static_cast<std::size_t>(c.vps_per_minute));
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<dsrc::ViewDigest> digests(base[i].digests().begin(), base[i].digests().end());
      const vp::ViewProfile linked(std::move(digests),
                                   bloom::BloomFilter::from_bytes(bits[i], vp::kBloomHashes));
      if (i + 1 == n)
        out.trusted = linked.serialize();
      else
        out.uploads.push_back(linked.serialize());
    }
    if (m + 1 == c.minutes) {
      w.templates = out.uploads;
      w.trusted_template = out.trusted;
    }
    for (std::size_t f = 0; f < fakes; ++f) {
      const geo::Rect& s = w.sites[rng.index(w.sites.size())];
      const geo::Vec2 a{rng.uniform(s.min.x, s.max.x), rng.uniform(s.min.y, s.max.y)};
      const geo::Vec2 b{std::clamp(a.x + rng.uniform(-20.0, 20.0), s.min.x, s.max.x),
                        std::clamp(a.y + rng.uniform(-20.0, 20.0), s.min.y, s.max.y)};
      const vp::ViewProfile fake = attack::make_fake_profile(unit, a, b, rng);
      w.fakes.insert(fake.vp_id());
      out.uploads.push_back(fake.serialize());
    }
    rng.shuffle(out.uploads);
    for (const Payload& p : out.uploads) digest.update(p);
    digest.update(out.trusted);
    w.vps += out.uploads.size() + 1;
    sink(out);
  }
  return w;
}

/// A fresh, well-formed VP from a template payload: its trajectory and
/// Bloom filter, re-stamped with a new id (unique per serial under one
/// salt) and the seconds of minute `unit` — one copy and 60 small patches,
/// so one uploader outpaces admission.
Payload restamp(const Payload& tmpl, TimeSec unit, std::uint64_t serial, std::uint64_t salt) {
  if (tmpl.size() != vp::kVpWireSize) throw std::invalid_argument("restamp: not a VP payload");
  Payload out = tmpl;
  std::uint8_t id[16];
  const std::uint64_t mixed = salt ^ (serial * 0x9e3779b97f4a7c15ull);
  for (int b = 0; b < 8; ++b) {
    id[b] = static_cast<std::uint8_t>(serial >> (8 * b));
    id[8 + b] = static_cast<std::uint8_t>(mixed >> (8 * b));
  }
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    std::uint8_t* frame = out.data() + static_cast<std::size_t>(s) * dsrc::kViewDigestWireSize;
    const auto t = static_cast<std::uint64_t>(unit + s + 1);  // make_fake_profile's seconds
    for (int b = 0; b < 8; ++b) frame[b] = static_cast<std::uint8_t>(t >> (8 * b));
    std::memcpy(frame + kVdIdOffset, id, sizeof id);
  }
  return out;
}

// ───────────────────────────── workloads ───────────────────────────

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".bench_build/work";
  std::string commit = "unknown";
  std::string spans;  ///< trace runs write their spans here at the end
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--workdir") o.workdir = value();
    else if (a == "--commit") o.commit = value();
    else if (a == "--spans") o.spans = value();
    else if (a == "--smoke") o.smoke = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

enum class Workload { kUploadFlood, kIncidentZipf, kIncidentSweep };

/// Every fixed parameter of a workload; all of them are in the stamp.
struct Shape {
  Workload workload = Workload::kIncidentZipf;
  std::string name;
  CityConfig city;
  TimeSec retention_sec = 0;
  int setups = 9;  ///< start() repetitions; setup_s is their median
  // Uploads (the uploader thread).
  bool flood = false;                         ///< closed loop, one client
  double upload_rate = 0.0;                   ///< open-loop trickle, uploads/s
  std::size_t uploads_per_clock_minute = 0;   ///< flood: clock advance cadence
  std::size_t bad_every = 50;                 ///< 2% deliberately bad uploads
  // Investigations (the main thread).
  double request_rate = 0.0;  ///< incident_zipf open loop, requests/s
  double live_share = 0.0;
  double zipf_alpha = 1.1;
  int zipf_minutes = 3;  ///< the quiescent minutes just before the newest two
  double warm_up_s = 0.0;  ///< untimed requests before the window
  // Fixed work beside the window, for the cost a shape's own traffic does
  // not measure: sequential kBatch sweeps before it where it sends none,
  // and a closed-loop upload burst after it where it does not flood.
  int sweep_probes = 6;
  std::size_t burst_uploads = 100'000;
  std::size_t sweep_outstanding = 0;  ///< incident_sweep closed loop
  int sweep_minutes = 5;
  std::chrono::milliseconds live_deadline{2000};
  // Checkpoints (the poller).
  std::chrono::milliseconds checkpoint_every{1000};
  /// The flood pokes every this many visible uploads instead, so that the
  /// checkpoint work per upload does not depend on how fast they came.
  std::size_t checkpoint_every_uploads = 0;
};

Shape shape_for(const std::string& name, bool smoke) {
  Shape s;
  s.name = name;
  CityConfig& c = s.city;
  c.first_minute = 28'000'000 * kUnitTimeSec;
  if (name == "upload_flood") {
    s.workload = Workload::kUploadFlood;
    c.minutes = 30;
    c.vps_per_minute = 3300;
    s.flood = true;
    s.uploads_per_clock_minute = 1000;
    s.checkpoint_every_uploads = 150'000;
  } else if (name == "incident_zipf" || name == "incident_sweep") {
    c.minutes = 60;
    c.vps_per_minute = 2000;
    s.upload_rate = 100.0;
    s.checkpoint_every = 2000ms;
    if (name == "incident_zipf") {
      s.workload = Workload::kIncidentZipf;
      s.request_rate = 12.0;
      s.live_share = 0.1;
      s.warm_up_s = 3.0;
    } else {
      s.workload = Workload::kIncidentSweep;
      s.sweep_outstanding = 3;
    }
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  if (smoke) {
    c.half_extent_m = 300.0;
    c.road_pitch_m = 100.0;
    c.minutes = s.flood ? 30 : 8;  // the flood's window must dwarf the upload channel
    c.vps_per_minute = 150;
    c.sites = 4;
    c.corridor_half_m = 150.0;
    c.site_half_m = 40.0;
    s.setups = 1;
    s.sweep_probes = 4;
    s.burst_uploads = 2'000;
    if (s.warm_up_s > 0) s.warm_up_s = 0.5;
    s.uploads_per_clock_minute = 600;
    if (s.upload_rate > 0) s.upload_rate = 50.0;
    if (s.request_rate > 0) s.request_rate = 10.0;
    if (s.sweep_outstanding > 0) s.sweep_outstanding = 2;
    s.checkpoint_every = 300ms;
    if (s.flood) s.checkpoint_every_uploads = 20'000;
  }
  // The flood's store is exactly one retention window, so every clock
  // advance ages a minute out; the incident stores keep every minute.
  s.retention_sec = (s.flood ? c.minutes : c.minutes + 30) * kUnitTimeSec;
  return s;
}

class Checks {
 public:
  void add(std::string name, bool ok) { items_.emplace_back(std::move(name), ok); }
  [[nodiscard]] bool all() const {
    return std::all_of(items_.begin(), items_.end(), [](const auto& c) { return c.second; });
  }
  [[nodiscard]] const std::vector<std::pair<std::string, bool>>& items() const { return items_; }

 private:
  std::vector<std::pair<std::string, bool>> items_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

sys::ServiceConfig service_config(const Shape& s) {
  sys::ServiceConfig c;
  c.index.retention.window_sec = s.retention_sec;
  c.rsa_bits = 1024;  // as viewmapd runs it
  return c;
}

daemon::DaemonConfig daemon_config(const Shape& s, const std::string& dir) {
  daemon::DaemonConfig c;
  c.service = service_config(s);
  c.store_dir = dir;
  // The poller is the only checkpoint trigger: its pokes come at the
  // workload's cadence; the daemon's own interval never comes due.
  c.checkpoint.interval = std::chrono::hours(24);
  return c;
}

/// Generates the world and seals it as the workload's segment store,
/// through a plain ViewMapService that is gone before any timing starts.
World build_store(const Shape& s, std::uint64_t seed, const std::string& dir,
                  crypto::Sha256& digest, Checks& checks) {
  sys::ViewMapService svc(service_config(s));
  std::size_t uploads = 0;
  World w = generate_city(s.city, seed, digest, [&](GeneratedMinute& m) {
    (void)svc.register_trusted(vp::ViewProfile::parse(m.trusted));
    for (Payload& p : m.uploads) svc.upload_channel().submit(std::move(p));
    uploads += m.uploads.size();
    (void)svc.ingest_uploads();
  });
  store::SegmentStore st(dir);
  const store::CheckpointStats cs = svc.checkpoint(st);
  checks.add("store_holds_every_generated_vp",
             svc.ingest_totals().accepted == uploads && svc.database().size() == w.vps &&
                 cs.shards_total == static_cast<std::size_t>(s.city.minutes));
  checks.add("links_match_link_mutually", w.links_match_library);
  return w;
}

enum class ReqKind : std::uint8_t { kNormal, kLive, kSweep };

/// The seeded incident_zipf schedule: fixed spacing at the workload's
/// rate; ~10% kLive on the newest minute, the rest Zipf(α) over
/// (site, quiescent minute) keys ranked in a seeded random order. The keys
/// span the zipf_minutes minutes before the two that take uploads — a
/// small hot set, so the result cache answers most requests.
struct Planned {
  double at_s = 0.0;
  ReqKind kind = ReqKind::kNormal;
  std::size_t site = 0;
  int minute = 0;  ///< index into the store's minutes
};

std::vector<Planned> plan_zipf(const Shape& s, double seconds, std::uint64_t seed) {
  std::vector<Planned> plan;
  if (s.request_rate <= 0.0) return plan;
  Rng rng(seed ^ 0x21bfull);
  const auto sites = static_cast<std::size_t>(s.city.sites);
  const int quiet = std::min(s.zipf_minutes, s.city.minutes - 2);
  const int first_quiet = s.city.minutes - 2 - quiet;
  const std::size_t keys = sites * static_cast<std::size_t>(quiet);
  std::vector<std::size_t> order(keys);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<double> cdf(keys);
  double total = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s.zipf_alpha);
    cdf[k] = total;
  }
  const auto count = static_cast<std::size_t>((s.warm_up_s + seconds) * s.request_rate);
  // Every seed gets the same mix, so seeds differ in inputs, not in load:
  // every live_every-th request is kLive, cycling over the sites, and the
  // normal requests' Zipf ranks are stratified draws (the j-th of m from
  // the j-th of m equal slices of the mass), shuffled into a seeded order.
  const std::size_t live_every =
      s.live_share > 0.0 ? static_cast<std::size_t>(std::lround(1.0 / s.live_share)) : count + 1;
  const std::size_t normal = count - count / live_every;
  std::vector<std::size_t> ranks(normal);
  for (std::size_t j = 0; j < normal; ++j) {
    const double u = (static_cast<double>(j) + rng.uniform(0.0, 1.0)) / static_cast<double>(normal);
    ranks[j] = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u * total) -
                                        cdf.begin());
  }
  rng.shuffle(ranks);
  std::size_t next_rank = 0, next_site = rng.index(sites);
  for (std::size_t i = 0; i < count; ++i) {
    Planned p;
    p.at_s = static_cast<double>(i) / s.request_rate;
    if (i % live_every == live_every - 1) {
      p.kind = ReqKind::kLive;
      p.site = next_site++ % sites;
      p.minute = s.city.minutes - 1;
    } else {
      const std::size_t key = order[std::min(ranks[next_rank++], keys - 1)];
      p.site = key % sites;
      p.minute = first_quiet + static_cast<int>(key / sites);
    }
    plan.push_back(p);
  }
  return plan;
}

void hash_plan(crypto::Sha256& sha, const std::vector<Planned>& plan, std::uint64_t salt) {
  std::vector<std::uint8_t> bytes;
  const auto put = [&bytes](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  };
  put(salt);
  for (const Planned& p : plan) {
    put(std::bit_cast<std::uint64_t>(p.at_s));
    put(static_cast<std::uint64_t>(p.kind));
    put(p.site);
    put(static_cast<std::uint64_t>(p.minute));
  }
  sha.update(bytes);
}

/// Order-sensitive FNV-1a over everything a report says (members, trust
/// flags, CSR, verdict sets, bit-cast scores, solicitations). The trace is
/// left out: it records how the report was served, not what it says.
std::uint64_t fingerprint(const sys::InvestigationReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  const sys::Viewmap& m = r.viewmap;
  mix(m.size());
  mix(static_cast<std::uint64_t>(m.unit_time()));
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (const std::uint8_t b : m.member(i).vp_id().bytes) mix(b);
    mix(m.is_trusted(i) ? 1 : 0);
  }
  for (const std::size_t o : m.graph().offsets()) mix(o);
  for (const std::uint32_t e : m.graph().edges()) mix(e);
  const sys::VerificationResult& v = r.verification;
  for (const std::size_t i : v.site_members) mix(i);
  for (const std::size_t i : v.legitimate) mix(i);
  for (const std::size_t i : v.rejected) mix(i);
  for (const double s : v.ranks.scores) mix(std::bit_cast<std::uint64_t>(s));
  mix(static_cast<std::uint64_t>(v.ranks.iterations));
  for (const Id16& id : r.solicited)
    for (const std::uint8_t b : id.bytes) mix(b);
  return h;
}

/// Self times of one report's spans: duration minus the union of the
/// spans nested inside it. Spans are flat in completion order, so a span's
/// children are the earlier spans inside its interval. The server's
/// snapshot_pin precedes the traced entry point (begin 0, off the trace's
/// clock) and is nobody's child.
struct SpanTimes {
  std::vector<double> self_ms;
  double top_level_ms = 0.0;  ///< spans no other span contains, pin included
  double pin_ms = 0.0;
};

SpanTimes span_times(const obs::Trace& t) {
  const auto& sp = t.spans;
  SpanTimes out;
  out.self_ms.resize(sp.size());
  const auto pin = [&](std::size_t i) { return sp[i].name == "snapshot_pin"; };
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const double dur = static_cast<double>(sp[i].dur_us) / 1e3;
    if (pin(i)) {
      out.self_ms[i] = dur;
      out.pin_ms += dur;
      out.top_level_ms += dur;
      continue;
    }
    const std::uint64_t b = sp[i].begin_us;
    const std::uint64_t e = b + sp[i].dur_us;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    bool nested = false;
    for (std::size_t j = 0; j < sp.size(); ++j) {
      if (j == i || pin(j)) continue;
      const std::uint64_t bj = sp[j].begin_us;
      const std::uint64_t ej = bj + sp[j].dur_us;
      if (j < i && bj >= b && ej <= e) kids.emplace_back(bj, ej);
      if (j > i && b >= bj && e <= ej) nested = true;
    }
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = b;
    for (const auto& [kb, ke] : kids) {
      const std::uint64_t from = std::max(kb, reach);
      if (ke > from) {
        covered += ke - from;
        reach = ke;
      }
    }
    out.self_ms[i] = static_cast<double>(sp[i].dur_us - std::min(covered, sp[i].dur_us)) / 1e3;
    if (!nested) out.top_level_ms += dur;
  }
  return out;
}

/// The layers' public counters and histograms, read at the window edges.
struct LayerSnapshot {
  Clock::time_point at{};
  double daemon_cpu_s = 0.0;  ///< Run::daemon_cpu_s() at `at`
  index::IngestStats ingest{};
  std::size_t processed = 0;
  obs::Histogram::Snapshot batch_us, checkpoint_us, fsync_us, cache_hit_us;
  std::uint64_t busy_us = 0, idle_us = 0;
  std::uint64_t checkpoints = 0, segments_written = 0, segments_reused = 0, store_bytes = 0;
  sys::ServerStats server{};
  sys::ResultCache::Stats cache{};
};

std::size_t processed(const index::IngestStats& t) {
  return t.accepted + t.rejected_malformed + t.rejected_untimely + t.rejected_duplicate;
}

LayerSnapshot capture(sys::ViewMapService& svc) {
  const obs::MetricsRegistry& reg = svc.metrics();
  const auto hist = [&reg](const char* name) {
    const obs::Histogram* h = reg.find_histogram(obs::MetricsRegistry::full_name(name, {}));
    return h != nullptr ? h->snapshot() : obs::Histogram::Snapshot{};
  };
  const auto counter = [&reg](const char* name) -> std::uint64_t {
    const obs::Counter* c = reg.find_counter(obs::MetricsRegistry::full_name(name, {}));
    return c != nullptr ? c->value() : 0;
  };
  LayerSnapshot s;
  s.at = Clock::now();
  s.ingest = svc.ingest_totals();
  s.processed = processed(s.ingest);
  s.batch_us = hist("viewmap_ingest_batch_us");
  s.checkpoint_us = hist("viewmap_store_checkpoint_us");
  s.fsync_us = hist("viewmap_store_fsync_us");
  s.cache_hit_us = hist("viewmap_cache_hit_us");
  s.busy_us = counter("viewmap_server_busy_us_total");
  s.idle_us = counter("viewmap_server_idle_us_total");
  s.checkpoints = counter("viewmap_store_checkpoints_total");
  s.segments_written = counter("viewmap_store_segments_written_total");
  s.segments_reused = counter("viewmap_store_segments_reused_total");
  s.store_bytes = counter("viewmap_store_bytes_written_total");
  if (sys::InvestigationServer* server = svc.server()) s.server = server->stats();
  s.cache = svc.result_cache().stats();
  return s;
}

/// Percentile (µs) of what a histogram recorded between two snapshots.
double delta_percentile_us(const obs::Histogram::Snapshot& a,
                           const obs::Histogram::Snapshot& b, double q) {
  obs::Histogram::Snapshot d;
  d.buckets.resize(b.buckets.size());
  for (std::size_t i = 0; i < b.buckets.size(); ++i) {
    d.buckets[i] = b.buckets[i] - (i < a.buckets.size() ? a.buckets[i] : 0);
    d.count += d.buckets[i];
  }
  return static_cast<double>(d.percentile(q));
}

/// When a request was sent: in the untimed cache warm-up before the
/// window, in the measured window, or in the fixed work beside it.
enum class Phase : std::uint8_t { kWarmUp, kWindow, kProbe };

struct Pending {
  std::future<Reports> fut;
  Clock::time_point due;  ///< scheduled send (open loop) or the send itself
  ReqKind kind = ReqKind::kNormal;
  Phase phase = Phase::kWindow;
  geo::Rect site{};
  TimeSec begin = 0;
  std::uint64_t id = 0;
};

struct Resolved {
  ReqKind kind = ReqKind::kNormal;
  Phase phase = Phase::kWindow;
  bool ok = false;          ///< resolved with reports: not refused, failed or expired
  Clock::time_point done{};
  double ms = kInf;         ///< due → resolved
  std::size_t minutes = 0;  ///< reports, i.e. verified minutes
  double queue_wait_ms = 0.0;
  double covered_ms = 0.0;  ///< queue wait + the reports' top-level spans
};

struct HitSample {
  geo::Rect site{};
  TimeSec unit = 0;
  std::uint64_t fingerprint = 0;
};

struct UploadMix {
  std::size_t good = 0, malformed = 0, untimely = 0, duplicate = 0;
};

/// One timed call the driver made into a layer's public API (trace runs).
struct CallSpan {
  const char* name;
  double start_ms;
  double dur_ms;
};

class Run {
 public:
  Run(const Options& opt, const Shape& shape, daemon::ServiceLifecycle& d, const World& world,
      std::vector<Planned> plan, std::uint64_t salt)
      : opt_(opt), shape_(shape), d_(d), world_(world), plan_(std::move(plan)), salt_(salt),
        epoch_(Clock::now()), main_clock_(thread_clock(::pthread_self())),
        stride_(shape.flood ? 16 : 1) {
    max_uploads_ = static_cast<std::size_t>(shape.flood ? opt.seconds * 500'000.0
                                                        : opt.seconds * shape.upload_rate + 16.0);
    // Left uninitialised: a page becomes resident, and counts in
    // peak_rss_mb, only once an upload writes to it.
    sent_ = std::make_unique_for_overwrite<Clock::rep[]>(max_uploads_ / stride_ + 1);
    visible_ms_ = std::make_unique_for_overwrite<float[]>(max_uploads_ / stride_ + 1);
    ingest_base_ = d_.service().ingest_totals();
    processed_base_ = processed(ingest_base_);
    clock_unit_ = shape.city.first_minute + (shape.city.minutes - 1) * kUnitTimeSec;
    sweep_begin_ = shape.city.first_minute;
  }

  void main_phase();
  /// Fixed work for the costs the main shape does not measure, so every
  /// workload reports every end-to-end metric: sweeps before the window
  /// (on the store as the seed built it), an upload burst after it.
  void before_window();
  void after_window();
  void stop_polling() {
    if (poller_.joinable()) {
      poller_.request_stop();
      poller_.join();
    }
  }
  void add_checks(Checks& checks);
  void e2e_metrics(std::vector<Metric>& out) const;
  void wall_metrics(std::vector<Metric>& out) const;
  void layer_metrics(std::vector<Metric>& out) const;
  void write_spans(const std::string& path) const;
  /// Uploads the daemon admitted, plus any it refused.
  [[nodiscard]] std::size_t uploads_sent() const {
    return sent_count_.load() + burst_sent_ + refused_uploads_;
  }
  [[nodiscard]] std::size_t requests() const { return enqueued_; }
  [[nodiscard]] std::size_t failed() const {
    std::size_t n = refused_uploads_;
    for (const Resolved& r : resolved_) n += r.ok ? 0 : 1;
    return n;
  }

 private:
  /// CPU seconds of the whole process but the driver's main thread and
  /// poller, which only wait, poll and read replies: the daemon's threads
  /// plus the uploader, whose submit() calls run daemon code.
  [[nodiscard]] double daemon_cpu_s() const {
    return cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu_s(main_clock_) -
           (poller_clock_ ? cpu_s(*poller_clock_) : 0.0);
  }
  /// The k-th upload of the mix: every bad_every-th is bad (malformed,
  /// untimely and duplicate in turn), the rest good, for minute `unit`.
  /// `tally` is left at the mix_ counter the caller bumps once the daemon
  /// admits it.
  Payload next_upload(std::size_t k, TimeSec clock, TimeSec unit, std::size_t*& tally);
  void upload_loop(const std::stop_token& stop);
  void upload_burst();
  void probe_sweeps();
  void poll_loop(const std::stop_token& stop);
  void submit_zipf();
  void submit_sweeps();
  void send(ReqKind kind, const geo::Rect& site, TimeSec begin, Clock::time_point due,
            Phase phase);
  void send_and_wait(ReqKind kind, const geo::Rect& site, TimeSec begin);
  /// Resolves every outstanding request whose future is ready; then, until
  /// `until`, keeps doing so in short sleeps.
  void reap_until(Clock::time_point until);
  void resolve(Pending p, Clock::time_point now);
  void digest_report(const sys::InvestigationReport& rep, const Pending& p,
                     double& served_ms, double& top_ms);
  bool cache_rebuild_identical();
  [[nodiscard]] TimeSec upload_minute(std::size_t k, TimeSec clock) const;
  [[nodiscard]] std::vector<double> latencies(ReqKind kind, Phase phase) const;
  [[nodiscard]] bool main_sends(ReqKind kind) const {
    if (shape_.workload == Workload::kIncidentZipf) return kind != ReqKind::kSweep;
    if (shape_.workload == Workload::kIncidentSweep) return kind == ReqKind::kSweep;
    return false;
  }
  /// Where a kind's metrics come from: the window, or the fixed work beside it.
  [[nodiscard]] Phase measured_in(ReqKind kind) const {
    return main_sends(kind) ? Phase::kWindow : Phase::kProbe;
  }
  const Options& opt_;
  const Shape& shape_;
  daemon::ServiceLifecycle& d_;
  const World& world_;
  const std::vector<Planned> plan_;
  const std::uint64_t salt_;
  const Clock::time_point epoch_;
  const clockid_t main_clock_;
  std::optional<clockid_t> poller_clock_;  ///< set by the poller before poller_started_
  std::latch poller_started_{1};
  Clock::time_point window_start_{};
  Clock::time_point window_end_{};
  index::IngestStats ingest_base_{};
  std::size_t processed_base_ = 0;

  // Uploader → poller: send times of every stride_-th upload (the flood
  // samples one in 16, so the driver's own bookkeeping stays small beside
  // the daemon's memory), published by the count of uploads sent.
  const std::size_t stride_;
  std::size_t max_uploads_ = 0;
  std::unique_ptr<Clock::rep[]> sent_;  ///< send time − epoch_, in clock ticks
  [[nodiscard]] Clock::time_point sent_at(std::size_t sample) const {
    return epoch_ + Clock::duration(sent_[sample]);
  }
  std::atomic<std::size_t> sent_count_{0};
  std::atomic<TimeSec> clock_unit_{0};   ///< newest minute with a trust seed
  std::atomic<TimeSec> sweep_begin_{0};  ///< first minute of the newest sweep
  std::atomic<bool> poking_{false};
  /// Set by the poller once it has seen poking_ cleared with no checkpoint
  /// in flight: from then on the daemon checkpoints nothing.
  std::atomic<bool> checkpoints_quiet_{false};
  // Uploader-owned; read once it has been joined.
  UploadMix mix_;
  std::size_t uploads_made_ = 0;
  std::uint64_t serial_ = 0;
  /// The newest good upload, as what re-creates its exact bytes.
  std::optional<std::tuple<std::size_t, TimeSec, std::uint64_t>> last_good_;
  std::size_t refused_uploads_ = 0;
  std::vector<double> upload_late_ms_;
  std::vector<double> submit_block_ms_;
  std::vector<CallSpan> upload_calls_;
  // Poller-owned (uploads and checkpoints only, so nothing else delays
  // its visibility stamps); read once it has been joined.
  std::unique_ptr<float[]> visible_ms_;  ///< per sampled upload
  std::size_t visible_samples_ = 0;
  std::atomic<std::size_t> visible_{0};  ///< uploads ingest_totals() covers
  std::vector<double> sealed_ms_;
  std::uint64_t checkpoint_failures_ = 0;
  std::size_t backlog_peak_ = 0;
  LayerSnapshot at_start_, at_end_;
  std::vector<CallSpan> poll_calls_;
  // Main-thread-owned: the submitter also collects the replies.
  std::vector<Pending> outstanding_;
  std::vector<Resolved> resolved_;
  std::size_t enqueued_ = 0;
  std::vector<double> members_, edges_, iterations_;  ///< fresh builds only
  std::map<std::string, std::vector<double>> span_self_ms_;  ///< per report
  std::vector<double> pin_ms_;
  std::size_t trusted_verdicts_ = 0, fake_legitimate_ = 0, expired_ = 0;
  std::vector<HitSample> served_hits_;
  std::vector<std::string> span_lines_;
  std::vector<double> request_late_ms_;
  std::vector<CallSpan> submit_calls_;
  // Daemon CPU over fixed work: the sweeps (window or probe) and the
  // upload burst.
  double sweep_cpu_s_ = 0.0, sweep_minutes_ = 0.0;
  double burst_cpu_s_ = 0.0;
  std::size_t burst_processed_ = 0;  ///< uploads burst_cpu_s_ covers
  std::size_t burst_sent_ = 0;
  index::IngestStats ingest_settled_{};
  bool settled_ = true;
  std::uint64_t next_id_ = 0;
  // Declared last: joined first on destruction.
  std::jthread poller_;
  std::jthread uploader_;
};

TimeSec Run::upload_minute(std::size_t k, TimeSec clock) const {
  if (shape_.workload == Workload::kIncidentSweep)  // late uploads into the swept minutes
    return sweep_begin_.load(std::memory_order_relaxed) +
           static_cast<TimeSec>(k % static_cast<std::size_t>(shape_.sweep_minutes)) * kUnitTimeSec;
  return clock - static_cast<TimeSec>(k % 2) * kUnitTimeSec;  // the newest two minutes
}

Payload Run::next_upload(std::size_t k, TimeSec clock, TimeSec unit, std::size_t*& tally) {
  const std::size_t t = k % world_.templates.size();
  const Payload& tmpl = world_.templates[t];
  const bool bad = k % shape_.bad_every == shape_.bad_every - 1;
  const std::size_t bad_kind = (k / shape_.bad_every) % 3;
  if (bad && bad_kind == 0) {  // malformed: a torn payload
    tally = &mix_.malformed;
    return {tmpl.begin(), tmpl.begin() + static_cast<std::ptrdiff_t>(tmpl.size() / 2)};
  }
  if (bad && bad_kind == 1) {  // untimely: outside the retention window
    tally = &mix_.untimely;
    return restamp(tmpl, clock - shape_.retention_sec - 10 * kUnitTimeSec, serial_++, salt_);
  }
  if (bad && last_good_) {  // duplicate: the newest good upload again
    tally = &mix_.duplicate;
    const auto [lt, lu, ls] = *last_good_;
    return restamp(world_.templates[lt], lu, ls, salt_);
  }
  tally = &mix_.good;
  last_good_.emplace(t, unit, serial_);
  return restamp(tmpl, unit, serial_++, salt_);
}

void Run::upload_loop(const std::stop_token& stop) {
  sys::ViewMapService& svc = d_.service();
  daemon::IngestService& ingest = d_.ingest();
  std::size_t good_this_minute = 0;
  for (std::size_t k = 0; k < max_uploads_ && !stop.stop_requested(); ++k) {
    Clock::time_point due = Clock::now();
    if (!shape_.flood) {
      due = window_start_ + seconds_d(static_cast<double>(k) / shape_.upload_rate);
      if (due < window_end_) std::this_thread::sleep_until(due);
    }
    if (due >= window_end_) break;
    if (!shape_.flood) upload_late_ms_.push_back(ms_between(due, Clock::now()));

    const TimeSec clock = clock_unit_.load(std::memory_order_relaxed);
    std::size_t* tally = nullptr;
    Payload p = next_upload(uploads_made_++, clock, upload_minute(k, clock), tally);
    if (k % stride_ == 0) sent_[k / stride_] = (due - epoch_).count();
    const auto t0 = Clock::now();
    const bool admitted = ingest.submit(std::move(p));
    if (opt_.trace) {
      submit_block_ms_.push_back(ms_between(t0, Clock::now()));
      if (k % 256 == 0)
        upload_calls_.push_back({"IngestService::submit", ms_between(epoch_, t0),
                                 submit_block_ms_.back()});
    }
    if (!admitted) {  // intake closed: nothing more can be sent
      ++refused_uploads_;
      break;
    }
    ++*tally;
    sent_count_.store(k + 1, std::memory_order_release);
    if (shape_.flood && tally == &mix_.good &&
        ++good_this_minute == shape_.uploads_per_clock_minute) {
      // The next minute's authority car checks in: the trusted clock
      // moves on one minute and retention ages the oldest minute out.
      good_this_minute = 0;
      const TimeSec next = clock + kUnitTimeSec;
      const auto c0 = Clock::now();
      (void)svc.register_trusted(
          vp::ViewProfile::parse(restamp(world_.trusted_template, next, serial_++, salt_)));
      if (opt_.trace)
        upload_calls_.push_back({"ViewMapService::register_trusted", ms_between(epoch_, c0),
                                 ms_between(c0, Clock::now())});
      clock_unit_.store(next, std::memory_order_relaxed);
    }
  }
}

void Run::poll_loop(const std::stop_token& stop) {
  sys::ViewMapService& svc = d_.service();
  daemon::CheckpointDaemon* ckpt = d_.checkpointer();
  std::size_t visible = 0, sealed = 0, cover = 0;  // uploads; sealed counts samples
  bool busy = false;
  std::uint64_t cycles_at_poke = 0, failures_at_poke = 0;
  const std::uint64_t failures_at_start = ckpt != nullptr ? ckpt->failures() : 0;
  Clock::time_point next_poke = window_start_;
  std::size_t next_poke_uploads = 0;
  const std::size_t every_uploads = shape_.checkpoint_every_uploads;
  bool have_start = false, have_end = false;
  for (;;) {
    const auto now = Clock::now();
    if (!have_start && now >= window_start_) {
      at_start_ = capture(svc);
      at_start_.daemon_cpu_s = daemon_cpu_s();
      have_start = true;
    }
    if (!have_end && now >= window_end_) {
      at_end_ = capture(svc);
      at_end_.daemon_cpu_s = daemon_cpu_s();
      have_end = true;
    }
    // Uploads: visible once ingest_totals() covers them (no snapshot pin).
    const std::size_t done = processed(svc.ingest_totals()) - processed_base_;
    const std::size_t sent = sent_count_.load(std::memory_order_acquire);
    visible = std::max(visible, std::min(done, sent));
    for (; visible_samples_ * stride_ < visible; ++visible_samples_)
      visible_ms_[visible_samples_] = static_cast<float>(ms_between(sent_at(visible_samples_), now));
    visible_.store(visible, std::memory_order_release);
    backlog_peak_ = std::max(backlog_peak_, svc.upload_channel().pending());
    // Checkpoints: poke at a fixed cadence, one in flight at a time; an
    // upload is sealed when the first checkpoint poked after it became
    // visible completes. A failed checkpoint seals nothing: poke again.
    if (ckpt != nullptr) {
      const std::uint64_t cycles = ckpt->written() + ckpt->skipped();
      const std::uint64_t failures = ckpt->failures();
      checkpoint_failures_ = failures - failures_at_start;
      if (busy && cycles > cycles_at_poke) {
        for (; sealed * stride_ < cover; ++sealed)
          sealed_ms_.push_back(ms_between(sent_at(sealed), now));
        busy = false;
      } else if (busy && failures > failures_at_poke) {
        busy = false;
        next_poke = now;
      }
      const bool due = every_uploads > 0 ? visible >= next_poke_uploads : now >= next_poke;
      if (!busy && poking_.load(std::memory_order_acquire) && now >= window_start_ && due) {
        cover = visible;
        cycles_at_poke = cycles;
        failures_at_poke = failures;
        ckpt->poke();
        if (opt_.trace) poll_calls_.push_back({"CheckpointDaemon::poke", ms_between(epoch_, now), 0.0});
        busy = true;
        next_poke = std::max(next_poke + shape_.checkpoint_every, now);
        next_poke_uploads = std::max(next_poke_uploads + every_uploads, visible);
      }
    }
    checkpoints_quiet_.store(!busy && !poking_.load(std::memory_order_acquire),
                             std::memory_order_release);
    if (stop.stop_requested()) break;
    std::this_thread::sleep_for(100us);
  }
}

void Run::reap_until(Clock::time_point until) {
  for (;;) {
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      if (it->fut.wait_for(0s) == std::future_status::ready) {
        resolve(std::move(*it), Clock::now());
        it = outstanding_.erase(it);
      } else {
        ++it;
      }
    }
    const auto now = Clock::now();
    if (now >= until) return;
    std::this_thread::sleep_for(std::min<Clock::duration>(100us, until - now));
  }
}

void Run::resolve(Pending p, Clock::time_point now) {
  Resolved r;
  r.kind = p.kind;
  r.phase = p.phase;
  r.done = now;
  try {
    const Reports reports = p.fut.get();
    r.ok = true;
    r.ms = ms_between(p.due, now);
    r.minutes = reports.size();
    double served_ms = 0.0, top_ms = 0.0;
    for (const auto& rep : reports) digest_report(rep, p, served_ms, top_ms);
    r.queue_wait_ms = std::max(0.0, r.ms - served_ms);
    r.covered_ms = r.queue_wait_ms + top_ms;
  } catch (const sys::DeadlineExpired&) {
    ++expired_;
  } catch (const std::exception&) {
  }
  resolved_.push_back(r);
}

void Run::digest_report(const sys::InvestigationReport& rep, const Pending& p,
                        double& served_ms, double& top_ms) {
  const sys::VerificationResult& v = rep.verification;
  // Algorithm 1 must never vouch for an injected fake once the top-scored
  // site member carries trust.
  double top = 0.0;
  for (const std::size_t i : v.site_members) top = std::max(top, v.ranks.scores.at(i));
  if (top > 0.0) {
    ++trusted_verdicts_;
    for (const std::size_t i : v.legitimate)
      if (world_.fakes.count(rep.viewmap.member(i).vp_id()) != 0) ++fake_legitimate_;
  }
  const bool hit = std::any_of(rep.trace.spans.begin(), rep.trace.spans.end(),
                               [](const obs::Span& s) { return s.name == "result_cache_hit"; });
  if (!hit) {
    members_.push_back(static_cast<double>(rep.viewmap.size()));
    edges_.push_back(static_cast<double>(rep.viewmap.edge_count()));
    iterations_.push_back(v.ranks.iterations);
  } else if (shape_.workload == Workload::kIncidentZipf && p.kind == ReqKind::kNormal &&
             p.phase == Phase::kWindow && served_hits_.size() < 6 &&
             rep.viewmap.unit_time() < clock_unit_.load() - kUnitTimeSec) {
    served_hits_.push_back({p.site, rep.viewmap.unit_time(), fingerprint(rep)});
  }
  if (!opt_.trace) return;
  const SpanTimes st = span_times(rep.trace);
  served_ms += static_cast<double>(rep.trace.total_us) / 1e3 + st.pin_ms;
  top_ms += st.top_level_ms;
  std::map<std::string, double> per_name;
  for (std::size_t i = 0; i < rep.trace.spans.size(); ++i) {
    const obs::Span& s = rep.trace.spans[i];
    if (s.name == "snapshot_pin")
      pin_ms_.push_back(st.self_ms[i]);
    else
      per_name[s.name] += st.self_ms[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"request\": %llu, \"span\": \"%s\", \"begin_us\": %llu, "
                  "\"dur_us\": %llu, \"self_ms\": %.3f}",
                  static_cast<unsigned long long>(p.id), s.name.c_str(),
                  static_cast<unsigned long long>(s.begin_us),
                  static_cast<unsigned long long>(s.dur_us), st.self_ms[i]);
    span_lines_.emplace_back(line);
  }
  for (const auto& [name, ms] : per_name) span_self_ms_[name].push_back(ms);
}

void Run::send(ReqKind kind, const geo::Rect& site, TimeSec begin, Clock::time_point due,
               Phase phase) {
  sys::InvestigationServer* server = d_.service().server();
  sys::SubmitOptions o;
  if (kind == ReqKind::kLive) {
    o.priority = sys::RequestPriority::kLive;
    o.deadline = shape_.live_deadline;
  } else if (kind == ReqKind::kSweep) {
    o.priority = sys::RequestPriority::kBatch;
  }
  Pending p;
  p.due = due;
  p.kind = kind;
  p.phase = phase;
  p.site = site;
  p.begin = begin;
  p.id = next_id_++;
  const auto t0 = Clock::now();
  p.fut = kind == ReqKind::kSweep
              ? server->submit_period(site, begin, begin + shape_.sweep_minutes * kUnitTimeSec, o)
              : server->submit(site, begin, o);
  if (opt_.trace)
    submit_calls_.push_back({"InvestigationServer::submit", ms_between(epoch_, t0),
                             ms_between(t0, Clock::now())});
  ++enqueued_;
  if (!p.fut.valid()) {  // refused by the server
    Resolved r;
    r.kind = kind;
    r.phase = phase;
    resolved_.push_back(r);
    return;
  }
  outstanding_.push_back(std::move(p));
}

void Run::submit_zipf() {
  // The plan starts warm_up_s before the window: those requests fill the
  // result cache and are left out of every latency.
  const auto plan_start = window_start_ - seconds_d(shape_.warm_up_s);
  for (const Planned& p : plan_) {
    const auto due = plan_start + seconds_d(p.at_s);
    if (due >= window_end_) break;
    reap_until(due);
    const Phase phase = due < window_start_ ? Phase::kWarmUp : Phase::kWindow;
    if (phase == Phase::kWindow) request_late_ms_.push_back(ms_between(due, Clock::now()));
    send(p.kind, world_.sites[p.site], shape_.city.first_minute + p.minute * kUnitTimeSec, due,
         phase);
  }
}

void Run::submit_sweeps() {
  const int span = shape_.sweep_minutes;
  const int quiet = shape_.city.minutes - 2;
  const auto sites = world_.sites.size();
  std::this_thread::sleep_until(window_start_);
  sweep_cpu_s_ = -daemon_cpu_s();  // main_phase() adds the CPU time at the last reply
  for (std::size_t i = 0;; ++i) {
    while (outstanding_.size() >= shape_.sweep_outstanding && Clock::now() < window_end_)
      reap_until(Clock::now() + 100us);
    if (Clock::now() >= window_end_) break;
    // Never-repeated rectangles: each lap over the sites shifts them east.
    geo::Rect site = world_.sites[i % sites];
    const double shift = 0.25 * static_cast<double>(i / sites + 1);
    site.min.x += shift;
    site.max.x += shift;
    const auto begin_minute = static_cast<int>((i * static_cast<std::size_t>(span)) %
                                               static_cast<std::size_t>(quiet - span + 1));
    const TimeSec begin = shape_.city.first_minute + begin_minute * kUnitTimeSec;
    sweep_begin_.store(begin, std::memory_order_relaxed);
    send(ReqKind::kSweep, site, begin, Clock::now(), Phase::kWindow);
  }
}

void Run::main_phase() {
  window_start_ = Clock::now() + 100ms + seconds_d(shape_.warm_up_s);
  window_end_ = window_start_ + seconds_d(opt_.seconds);
  poking_.store(true);
  favour_this_thread();
  poller_ = std::jthread([this](std::stop_token st) {
    poller_clock_ = thread_clock(::pthread_self());
    poller_started_.count_down();
    favour_this_thread();
    poll_loop(st);
  });
  poller_started_.wait();
  uploader_ = std::jthread([this](std::stop_token st) {
    favour_this_thread();
    upload_loop(st);
  });
  switch (shape_.workload) {
    case Workload::kIncidentZipf: submit_zipf(); break;
    case Workload::kIncidentSweep: submit_sweeps(); break;
    case Workload::kUploadFlood: std::this_thread::sleep_until(window_end_); break;
  }
  uploader_.join();
  // Settle: every sent upload visible, every request resolved.
  const auto limit = Clock::now() + 120s;
  while (visible_.load() < sent_count_.load() || !outstanding_.empty()) {
    if (Clock::now() > limit) {
      settled_ = false;
      break;
    }
    reap_until(Clock::now() + 1ms);
  }
  if (main_sends(ReqKind::kSweep)) {
    // Every verified minute of the sweeps sent in the window, over the
    // daemon CPU time from the window start to the last reply.
    sweep_cpu_s_ += daemon_cpu_s();
    for (const Resolved& r : resolved_)
      if (r.kind == ReqKind::kSweep && r.ok) sweep_minutes_ += static_cast<double>(r.minutes);
  }
  ingest_settled_ = d_.service().ingest_totals();
  poking_.store(false);
  // The fixed work after the window measures CPU time: no checkpoint may
  // run beside it.
  while (!checkpoints_quiet_.load(std::memory_order_acquire)) {
    if (Clock::now() > limit) {
      settled_ = false;
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
}

void Run::send_and_wait(ReqKind kind, const geo::Rect& site, TimeSec begin) {
  send(kind, site, begin, Clock::now(), Phase::kProbe);
  const auto limit = Clock::now() + 120s;
  while (!outstanding_.empty()) {
    if (Clock::now() > limit) {
      settled_ = false;
      return;
    }
    reap_until(Clock::now() + 100us);
  }
}

void Run::before_window() {
  if (main_sends(ReqKind::kSweep)) return;
  probe_sweeps();
  d_.service().result_cache().clear();  // the window starts as it would have
}

void Run::after_window() {
  if (!shape_.flood) upload_burst();
  ingest_settled_ = d_.service().ingest_totals();
}

/// sweep_probes kBatch sweeps, one at a time, at rectangles no window
/// request used, on minutes that carry a trust seed and take no uploads;
/// sites in turn and minutes in a fixed stride, so every seed sweeps the
/// same mix.
void Run::probe_sweeps() {
  const TimeSec newest = clock_unit_.load();
  const int span = shape_.sweep_minutes;
  const auto choices = static_cast<std::size_t>(shape_.city.minutes - 1 - span);
  const double cpu0 = daemon_cpu_s();
  for (std::size_t k = 0; k < static_cast<std::size_t>(shape_.sweep_probes); ++k) {
    geo::Rect s = world_.sites[k % world_.sites.size()];
    s.min.x += 0.125;
    s.max.x += 0.125;
    const auto back = static_cast<TimeSec>(span + 1 + static_cast<int>((5 * k) % choices));
    send_and_wait(ReqKind::kSweep, s, newest - back * kUnitTimeSec);
  }
  sweep_cpu_s_ = daemon_cpu_s() - cpu0;
  for (const Resolved& r : resolved_)
    if (r.kind == ReqKind::kSweep && r.phase == Phase::kProbe && r.ok)
      sweep_minutes_ += static_cast<double>(r.minutes);
}

/// burst_uploads uploads of the usual mix from one closed-loop uploader,
/// with nothing else running. Its cost is the daemon CPU time between the
/// moments ingest_totals() covers a tenth and nine tenths of them, which
/// leaves out the uploader's start and the last batch's wait.
void Run::upload_burst() {
  sys::ViewMapService& svc = d_.service();
  const std::size_t before = processed(svc.ingest_totals());
  const std::size_t lo = shape_.burst_uploads / 10;
  const std::size_t hi = shape_.burst_uploads - lo;
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> finished{false};
  uploader_ = std::jthread([this, &sent, &finished] {
    favour_this_thread();
    daemon::IngestService& ingest = d_.ingest();
    const TimeSec clock = clock_unit_.load();
    for (std::size_t k = 0; k < shape_.burst_uploads; ++k) {
      // The newest two minutes, which no sweep reads and no cached result
      // holds.
      std::size_t* tally = nullptr;
      const TimeSec unit = clock - static_cast<TimeSec>(k % 2) * kUnitTimeSec;
      Payload p = next_upload(uploads_made_++, clock, unit, tally);
      if (!ingest.submit(std::move(p))) {
        ++refused_uploads_;
        break;
      }
      ++*tally;
      sent.store(k + 1, std::memory_order_release);
    }
    finished.store(true, std::memory_order_release);
  });
  const auto limit = Clock::now() + 120s;
  double cpu_lo = 0.0;
  std::size_t mark = lo;  // the next count to time: lo, then hi
  for (;;) {
    const std::size_t done = processed(svc.ingest_totals()) - before;
    if (done >= mark && mark == lo) {
      cpu_lo = daemon_cpu_s();
      mark = hi;
    } else if (done >= mark) {
      burst_cpu_s_ = daemon_cpu_s() - cpu_lo;
      burst_processed_ = hi - lo;
      mark = shape_.burst_uploads;
    }
    if (done >= shape_.burst_uploads || (finished.load() && done >= sent.load())) break;
    if (Clock::now() > limit) {
      settled_ = false;
      break;
    }
    std::this_thread::sleep_for(50us);
  }
  uploader_.join();
  burst_sent_ = sent.load();
}

/// Cache-served reports must equal fresh builds: sampled keys (served
/// hits on quiescent minutes where the workload has them, else recent
/// minutes) are investigated twice — miss or hit, then hit — then again
/// after result_cache().clear(); every fingerprint must agree.
bool Run::cache_rebuild_identical() {
  sys::ViewMapService& svc = d_.service();
  std::vector<HitSample> keys = served_hits_;
  Rng rng(opt_.seed ^ 0xcac4eull);
  const TimeSec newest = clock_unit_.load();
  while (keys.size() < 3) {
    const auto back = static_cast<TimeSec>(2 + keys.size());
    keys.push_back({world_.sites[rng.index(world_.sites.size())], newest - back * kUnitTimeSec, 0});
  }
  try {
    std::vector<std::uint64_t> before;
    for (const HitSample& k : keys) {
      const std::uint64_t a = fingerprint(svc.investigate(k.site, k.unit));
      const std::uint64_t b = fingerprint(svc.investigate(k.site, k.unit));
      if (a != b || (k.fingerprint != 0 && k.fingerprint != a)) return false;
      before.push_back(a);
    }
    svc.result_cache().clear();
    for (std::size_t i = 0; i < keys.size(); ++i)
      if (fingerprint(svc.investigate(keys[i].site, keys[i].unit)) != before[i]) return false;
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

void Run::add_checks(Checks& checks) {
  checks.add("every_operation_settled", settled_);
  checks.add("no_checkpoint_failed", checkpoint_failures_ == 0 && !sealed_ms_.empty());
  const index::IngestStats& t = ingest_settled_;
  const index::IngestStats& b = ingest_base_;
  checks.add("ingest_counts_match_injected_mix",
             t.accepted - b.accepted == mix_.good &&
                 t.rejected_malformed - b.rejected_malformed == mix_.malformed &&
                 t.rejected_untimely - b.rejected_untimely == mix_.untimely &&
                 t.rejected_duplicate - b.rejected_duplicate == mix_.duplicate);
  if (t.accepted - b.accepted != mix_.good || t.rejected_duplicate - b.rejected_duplicate != mix_.duplicate)
    std::fprintf(stderr, "perfbench: ingest %zu/%zu/%zu/%zu vs injected %zu/%zu/%zu/%zu\n",
                 t.accepted - b.accepted, t.rejected_malformed - b.rejected_malformed,
                 t.rejected_untimely - b.rejected_untimely, t.rejected_duplicate - b.rejected_duplicate,
                 mix_.good, mix_.malformed, mix_.untimely, mix_.duplicate);
  checks.add("fakes_never_legitimate", trusted_verdicts_ > 0 && fake_legitimate_ == 0);
  if (shape_.workload != Workload::kUploadFlood)
    checks.add("viewmaps_really_linked",
               percentile(edges_, 0.5) > 0.0 && percentile(iterations_, 0.5) > 1.0);
  checks.add("cache_rebuild_identical", cache_rebuild_identical());
}

std::vector<double> Run::latencies(ReqKind kind, Phase phase) const {
  std::vector<double> out;
  for (const Resolved& r : resolved_)
    if (r.kind == kind && r.phase == phase) out.push_back(r.ok ? r.ms : kInf);
  return out;
}

/// The bounded metrics: daemon CPU time per unit of work (daemon_cpu_s()),
/// which a host's steal and its other tenants' load do not move the way
/// they move wall time.
void Run::e2e_metrics(std::vector<Metric>& out) const {
  const double uploads = shape_.flood ? static_cast<double>(at_end_.processed - at_start_.processed)
                                      : static_cast<double>(burst_processed_);
  const double upload_cpu_s =
      shape_.flood ? at_end_.daemon_cpu_s - at_start_.daemon_cpu_s : burst_cpu_s_;
  out.push_back({"upload_cpu_us", uploads > 0 ? upload_cpu_s * 1e6 / uploads : 0.0, "us"});
  out.push_back({"minute_cpu_ms", sweep_minutes_ > 0 ? sweep_cpu_s_ * 1e3 / sweep_minutes_ : 0.0,
                 "ms"});
}

/// What the service's users wait for, in wall time: reported with every
/// result and as per-layer metrics, but not bounded, since on a shared
/// host they move with the host's load as much as with the code.
void Run::wall_metrics(std::vector<Metric>& out) const {
  const double window_s = ms_between(at_start_.at, at_end_.at) / 1e3;
  out.push_back({"wall.upload_vps_per_s",
                 static_cast<double>(at_end_.processed - at_start_.processed) / window_s, "1/s"});
  // Visibility over the uploads sent inside the window (the flood starts
  // before it).
  std::vector<double> visible;
  for (std::size_t i = 0; i < visible_samples_; ++i)
    if (sent_at(i) >= window_start_) visible.push_back(visible_ms_[i]);
  out.push_back({"wall.upload_visible_p50_ms", percentile(visible, 0.5), "ms"});
  out.push_back({"wall.upload_visible_p90_ms", percentile(visible, 0.9), "ms"});
  out.push_back({"wall.sealed_lag_p50_ms", percentile(sealed_ms_, 0.5), "ms"});
  // Single-minute requests: incident_zipf's window only.
  const std::vector<double> inv = latencies(ReqKind::kNormal, Phase::kWindow);
  out.push_back({"wall.investigate_p50_ms", percentile(inv, 0.5), "ms"});
  out.push_back({"wall.investigate_p90_ms", percentile(inv, 0.9), "ms"});
  out.push_back({"wall.live_p90_ms", percentile(latencies(ReqKind::kLive, Phase::kWindow), 0.9),
                 "ms"});
  // Main-phase sweeps: every verified minute over the time from the window
  // start to the last resolution (whole requests, no rounding at the
  // window edge); probe sweeps run one at a time, so their latencies are
  // the time.
  double minutes = 0.0, seconds = 0.0;
  const bool main = main_sends(ReqKind::kSweep);
  for (const Resolved& r : resolved_) {
    if (r.kind != ReqKind::kSweep || r.phase != measured_in(ReqKind::kSweep) || !r.ok) continue;
    minutes += static_cast<double>(r.minutes);
    seconds = main ? std::max(seconds, ms_between(window_start_, r.done) / 1e3)
                   : seconds + r.ms / 1e3;
  }
  out.push_back({"wall.sweep_minutes_per_s", seconds > 0 ? minutes / seconds : 0.0, "1/s"});
  out.push_back({"wall.sweep_p50_ms",
                 percentile(latencies(ReqKind::kSweep, measured_in(ReqKind::kSweep)), 0.5), "ms"});
}

void Run::layer_metrics(std::vector<Metric>& out) const {
  const LayerSnapshot& a = at_start_;
  const LayerSnapshot& b = at_end_;
  const double window_s = ms_between(a.at, b.at) / 1e3;
  const auto d = [](std::uint64_t hi, std::uint64_t lo) { return static_cast<double>(hi - lo); };
  const index::IngestStats& s = ingest_settled_;
  const index::IngestStats& base = ingest_base_;
  out.push_back({"index.ingest_batches", d(b.ingest.batches, a.ingest.batches), "count"});
  out.push_back({"index.ingest_batch_ms_p50", delta_percentile_us(a.batch_us, b.batch_us, 0.5) / 1e3, "ms"});
  out.push_back({"index.ingest_batch_ms_p99", delta_percentile_us(a.batch_us, b.batch_us, 0.99) / 1e3, "ms"});
  out.push_back({"index.ingest_busy_frac", d(b.batch_us.sum, a.batch_us.sum) / 1e6 / window_s, "ratio"});
  out.push_back({"index.evicted_vps", d(b.ingest.evicted, a.ingest.evicted), "count"});
  out.push_back({"index.rejected_malformed", d(s.rejected_malformed, base.rejected_malformed), "count"});
  out.push_back({"index.rejected_untimely", d(s.rejected_untimely, base.rejected_untimely), "count"});
  out.push_back({"index.rejected_duplicate", d(s.rejected_duplicate, base.rejected_duplicate), "count"});
  out.push_back({"index.snapshot_pin_ms_p50", percentile(pin_ms_, 0.5), "ms"});
  out.push_back({"anonet.backlog_peak", static_cast<double>(backlog_peak_), "count"});
  out.push_back({"daemon.submit_block_ms_p99", percentile(submit_block_ms_, 0.99), "ms"});
  for (const char* span : {"member_select", "candidate_grid", "edge_build", "csr_build",
                           "trust_rank", "algorithm1", "solicit"}) {
    const auto it = span_self_ms_.find(span);
    const std::vector<double> v = it != span_self_ms_.end() ? it->second : std::vector<double>{};
    out.push_back({std::string("system.") + span + "_ms", percentile(v, 0.5), "ms"});
    out.push_back({std::string("system.") + span + "_s", sum(v) / 1e3, "s"});
  }
  out.push_back({"system.viewmap_members_p50", percentile(members_, 0.5), "count"});
  out.push_back({"system.viewmap_edges_p50", percentile(edges_, 0.5), "count"});
  out.push_back({"system.trust_rank_iterations_p50", percentile(iterations_, 0.5), "count"});
  std::vector<double> waits, coverage;
  for (const Resolved& r : resolved_) {
    if (!r.ok || r.phase == Phase::kWarmUp) continue;
    waits.push_back(r.queue_wait_ms);
    if (r.ms > 0) coverage.push_back(r.covered_ms / r.ms);
  }
  out.push_back({"system.queue_wait_ms_p50", percentile(waits, 0.5), "ms"});
  out.push_back({"system.queue_wait_ms_p99", percentile(waits, 0.99), "ms"});
  const double busy = d(b.busy_us, a.busy_us);
  const double idle = d(b.idle_us, a.idle_us);
  out.push_back({"system.server_busy_frac", busy + idle > 0 ? busy / (busy + idle) : 0.0, "ratio"});
  const double batches = d(b.server.batches, a.server.batches);
  out.push_back({"system.snapshots_per_batch",
                 batches > 0 ? d(b.server.snapshots, a.server.snapshots) / batches : 0.0, "ratio"});
  out.push_back({"system.deadline_expired", static_cast<double>(expired_), "count"});
  // The cache over the window: a sweep run only inserts, a flood run
  // does not touch it.
  const double hits = d(b.cache.hits, a.cache.hits);
  const double lookups = hits + d(b.cache.misses, a.cache.misses);
  out.push_back({"system.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio"});
  out.push_back({"system.cache_hit_us_p50", delta_percentile_us(a.cache_hit_us, b.cache_hit_us, 0.5), "us"});
  out.push_back({"system.cache_evictions", d(b.cache.evictions, a.cache.evictions), "count"});
  out.push_back({"system.cache_bytes", static_cast<double>(b.cache.resident_bytes), "bytes"});
  out.push_back({"store.checkpoints", d(b.checkpoints, a.checkpoints), "count"});
  out.push_back({"store.checkpoint_ms_p50", delta_percentile_us(a.checkpoint_us, b.checkpoint_us, 0.5) / 1e3, "ms"});
  out.push_back({"store.checkpoint_ms_p99", delta_percentile_us(a.checkpoint_us, b.checkpoint_us, 0.99) / 1e3, "ms"});
  out.push_back({"store.fsync_ms_p50", delta_percentile_us(a.fsync_us, b.fsync_us, 0.5) / 1e3, "ms"});
  out.push_back({"store.segments_written", d(b.segments_written, a.segments_written), "count"});
  out.push_back({"store.segments_reused", d(b.segments_reused, a.segments_reused), "count"});
  const double accepted_bytes = d(b.ingest.accepted, a.ingest.accepted) * vp::kVpWireSize;
  out.push_back({"store.write_amp",
                 accepted_bytes > 0 ? d(b.store_bytes, a.store_bytes) / accepted_bytes : 0.0, "ratio"});
  std::vector<double> late = upload_late_ms_;
  late.insert(late.end(), request_late_ms_.begin(), request_late_ms_.end());
  out.push_back({"bench.gen_late_p99_ms", percentile(late, 0.99), "ms"});
  out.push_back({"bench.span_coverage", percentile(coverage, 0.5), "ratio"});
}

void Run::write_spans(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream f(path);
  for (const std::string& line : span_lines_) f << line << '\n';
  for (const auto* calls : {&upload_calls_, &poll_calls_, &submit_calls_})
    for (const CallSpan& c : *calls) {
      char line[160];
      std::snprintf(line, sizeof line, "{\"call\": \"%s\", \"start_ms\": %.3f, \"dur_ms\": %.3f}",
                    c.name, c.start_ms, c.dur_ms);
      f << line << '\n';
    }
}

// ───────────────────────────── reporting ───────────────────────────

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : kFailedMs);
  return buf;
}

std::string metric_values(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    out += (i ? ", " : "") + quote(ms[i].name) + ": " + number(ms[i].value);
  return out + "}";
}

std::string metric_objects(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    out += (i ? ", " : "") + quote(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
           ", \"unit\": " + quote(ms[i].unit) + "}";
  return out + "}";
}

void reset_peak_rss() {
  // VmHWM restarts from the current RSS.
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Host-wide CPU ticks (all, steal) from /proc/stat. Under a hypervisor,
/// steal is time the vCPUs were runnable but not run: the share of it
/// during a run explains timings that moved without the code moving.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  std::uint64_t v = 0, total = 0, steal = 0;
  f >> cpu;
  for (int i = 0; i < 8 && f >> v; ++i) {  // user … steal
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

bool optimized_build() {
#if defined(NDEBUG)
  constexpr bool ndebug = true;
#else
  constexpr bool ndebug = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || PERFBENCH_SANITIZED
  constexpr bool sanitized = true;
#else
  constexpr bool sanitized = false;
#endif
  return ndebug && !sanitized && std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
}

struct RemoveOnExit {
  std::filesystem::path path;
  ~RemoveOnExit() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int run(const Options& opt) {
  namespace fs = std::filesystem;
  const Shape shape = shape_for(opt.workload, opt.smoke);
  const fs::path dir = fs::path(opt.workdir) / (shape.name + "-" + std::to_string(opt.seed) +
                                                "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const RemoveOnExit cleanup{dir};

  // Where a run's wall time goes, for stderr.
  std::vector<std::pair<const char*, Clock::time_point>> phases{{"", Clock::now()}};
  Checks checks;
  crypto::Sha256 sha;
  const World world = build_store(shape, opt.seed, dir.string(), sha, checks);
  phases.emplace_back("inputs", Clock::now());
  const std::uint64_t salt = Rng(opt.seed ^ 0x5a17ull).next_u64();
  std::vector<Planned> plan = plan_zipf(shape, opt.seconds, opt.seed);
  hash_plan(sha, plan, salt);
  const std::string input_sha = to_hex(sha.finish().bytes);

  // Set-up, repeated: construct (RSA keygen, untimed in setup_s), then
  // start() until Running — recovery of the sealed store plus threads.
  // setup_s is the process CPU time start() takes (the driver has no
  // threads of its own yet), for the reason the other bounded metrics are
  // CPU time; its wall time is wall.setup_s.
  std::vector<double> setup_s, setup_cpu_s, construct_s;
  std::unique_ptr<daemon::ServiceLifecycle> d;
  bool whole_store = true;
  for (int i = 0; i < shape.setups; ++i) {
    if (d) {
      d->kill_for_test();
      d.reset();
    }
    ::malloc_trim(0);
    const auto t0 = Clock::now();
    d = std::make_unique<daemon::ServiceLifecycle>(daemon_config(shape, dir.string()));
    const auto t1 = Clock::now();
    const double c1 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    if (!d->start()) throw std::runtime_error("ServiceLifecycle::start() refused");
    const double c2 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    const auto t2 = Clock::now();
    construct_s.push_back(ms_between(t0, t1) / 1e3);
    setup_s.push_back(ms_between(t1, t2) / 1e3);
    setup_cpu_s.push_back(c2 - c1);
    const store::RecoveryStats& rec = d->recovery();
    whole_store = whole_store && d->recovered() && rec.profiles_rejected == 0 &&
                  rec.profiles_loaded == world.vps;
  }
  checks.add("setup_recovers_the_whole_store", whole_store);
  phases.emplace_back("set-up", Clock::now());
  const store::RecoveryStats rec = d->recovery();
  const double serving_setup_ms = setup_s.back() * 1e3;

  std::vector<Metric> e2e, wall, layers;
  std::size_t uploads = 0, requests = 0, failed = 0;
  double steal_pct = 0.0;
  {
    Run r(opt, shape, *d, world, std::move(plan), salt);
    const auto ticks0 = cpu_ticks();
    r.before_window();
    phases.emplace_back("sweeps before", Clock::now());
    // peak_rss_mb is the window's, not the fixed work's beside it.
    ::malloc_trim(0);
    reset_peak_rss();
    r.main_phase();
    const double rss = peak_rss_mb();
    phases.emplace_back("window", Clock::now());
    r.after_window();
    phases.emplace_back("burst after", Clock::now());
    const auto ticks1 = cpu_ticks();
    if (ticks1.first > ticks0.first)
      steal_pct = 100.0 * static_cast<double>(ticks1.second - ticks0.second) /
                  static_cast<double>(ticks1.first - ticks0.first);
    r.stop_polling();
    r.add_checks(checks);
    e2e.push_back({"setup_s", percentile(setup_cpu_s, 0.5), "s"});
    r.e2e_metrics(e2e);
    e2e.push_back({"peak_rss_mb", rss, "MB"});
    wall.push_back({"wall.setup_s", percentile(setup_s, 0.5), "s"});
    r.wall_metrics(wall);
    if (opt.trace) {
      r.layer_metrics(layers);
      r.write_spans(opt.spans);
    }
    uploads = r.uploads_sent();
    requests = r.requests();
    failed = r.failed();
  }

  // Durability: drain (final checkpoint last) and stop; a cold recover of
  // the store must then reproduce the live shard digests bit for bit.
  const bool drained = d->drain();
  const bool stopped = d->stop();
  const auto live = d->service().database().snapshot().shard_digests();
  d.reset();
  ::malloc_trim(0);
  bool match = false;
  {
    store::SegmentStore cold(dir.string());
    store::RecoveryStats rs;
    const sys::VpDatabase db = cold.recover(&rs);
    const auto got = db.snapshot().shard_digests();
    match = rs.profiles_rejected == 0 && got.size() == live.size();
    for (std::size_t i = 0; match && i < got.size(); ++i)
      match = got[i].unit_time == live[i].unit_time && got[i].digest == live[i].digest;
  }
  checks.add("clean_drain_and_stop", drained && stopped);
  checks.add("cold_recover_matches_live_digests", match);
  phases.emplace_back("checks", Clock::now());
  std::fprintf(stderr, "perfbench:");
  for (std::size_t i = 1; i < phases.size(); ++i)
    std::fprintf(stderr, "%s %s %.1f s", i > 1 ? "," : "", phases[i].first,
                 ms_between(phases[i - 1].second, phases[i].second) / 1e3);
  std::fprintf(stderr, "\n");

  if (opt.trace) {
    layers.push_back({"store.recover_read_ms", static_cast<double>(rec.read_us) / 1e3, "ms"});
    layers.push_back({"store.recover_validate_ms", static_cast<double>(rec.validate_us) / 1e3, "ms"});
    layers.push_back({"store.recover_parse_ms", static_cast<double>(rec.parse_us) / 1e3, "ms"});
    layers.push_back({"store.recover_adopt_ms", static_cast<double>(rec.adopt_us) / 1e3, "ms"});
    layers.push_back({"daemon.start_other_ms",
                      serving_setup_ms - static_cast<double>(rec.total_us) / 1e3, "ms"});
    layers.push_back({"daemon.construct_s", percentile(construct_s, 0.5), "s"});
    // Filled in by perfbench/run.py from untraced runs of the same code.
    layers.push_back({"bench.trace_overhead_pct", 0.0, "%"});
  }

  std::string stamp = "{\"stamp\": {";
  stamp += "\"workload\": " + quote(shape.name) + ", \"seed\": " + std::to_string(opt.seed) +
           ", \"seconds\": " + number(opt.seconds) + ", \"trace\": " + (opt.trace ? "1" : "0") +
           ", \"smoke\": " + (opt.smoke ? "true" : "false") +
           ", \"input_sha256\": " + quote(input_sha) +
           ", \"host_cores\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"host_steal_pct\": " + number(steal_pct) +
           ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
           ", \"compiler\": " + quote(kCompiler) + ", \"commit\": " + quote(opt.commit);
  stamp += ", \"rates\": {\"store_minutes\": " + std::to_string(shape.city.minutes) +
           ", \"vps_per_minute\": " + std::to_string(shape.city.vps_per_minute) +
           ", \"retention_s\": " + std::to_string(shape.retention_sec) +
           ", \"flood\": " + (shape.flood ? "true" : "false") +
           ", \"upload_rate_per_s\": " + number(shape.upload_rate) +
           ", \"uploads_per_clock_minute\": " + std::to_string(shape.uploads_per_clock_minute) +
           ", \"bad_upload_every\": " + std::to_string(shape.bad_every) +
           ", \"request_rate_per_s\": " + number(shape.request_rate) +
           ", \"live_share\": " + number(shape.live_share) +
           ", \"zipf_alpha\": " + number(shape.zipf_alpha) +
           ", \"zipf_minutes\": " + std::to_string(shape.zipf_minutes) +
           ", \"warm_up_s\": " + number(shape.warm_up_s) +
           ", \"sweep_probes\": " + std::to_string(shape.sweep_probes) +
           ", \"burst_uploads\": " + std::to_string(shape.burst_uploads) +
           ", \"sweep_outstanding\": " + std::to_string(shape.sweep_outstanding) +
           ", \"sweep_minutes\": " + std::to_string(shape.sweep_minutes) +
           ", \"live_deadline_ms\": " + std::to_string(shape.live_deadline.count()) +
           ", \"checkpoint_every_ms\": " +
           std::to_string(shape.checkpoint_every_uploads > 0 ? 0 : shape.checkpoint_every.count()) +
           ", \"checkpoint_every_uploads\": " + std::to_string(shape.checkpoint_every_uploads) +
           ", \"setups\": " + std::to_string(shape.setups) + "}";
  stamp += ", \"inputs\": {\"store_vps\": " + std::to_string(world.vps) +
           ", \"links\": " + std::to_string(world.links) +
           ", \"fakes\": " + std::to_string(world.fakes.size()) +
           ", \"uploads_sent\": " + std::to_string(uploads) +
           ", \"requests\": " + std::to_string(requests) + "}}}";
  std::printf("%s\n", stamp.c_str());
  std::string check_line = "{\"checks\": {";
  for (std::size_t i = 0; i < checks.items().size(); ++i)
    check_line += (i ? ", " : "") + quote(checks.items()[i].first) + ": " +
                  (checks.items()[i].second ? "true" : "false");
  std::printf("%s}}\n", check_line.c_str());
  std::vector<Metric> reported = e2e;
  reported.insert(reported.end(), wall.begin(), wall.end());
  std::printf("{\"e2e\": %s}\n", metric_values(reported).c_str());
  if (opt.trace) layers.insert(layers.end(), wall.begin(), wall.end());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              checks.all() ? "true" : "false", uploads + requests,
              failed, metric_objects(opt.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace viewmap::perfbench

int main(int argc, char** argv) {
  try {
    const viewmap::perfbench::Options opt = viewmap::perfbench::parse_args(argc, argv);
    if (!viewmap::perfbench::optimized_build()) {
      std::fprintf(stderr,
                   "perfbench: refusing to report from a non-Release or sanitizer build\n");
      return 3;
    }
    return viewmap::perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
