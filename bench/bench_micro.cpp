// Micro-benchmarks (google-benchmark) for the protocol's hot primitives:
// cascaded hash steps, one-shot frame hashing, VD and VP serialization,
// Bloom operations, cold probe tables, viewmap-probe membership tests,
// viewmap builds of one downtown minute (cold and warm viewlink memo)
// and TrustRank iterations, on sparse graphs and on that minute. These
// are the knobs §6.1 budgets (per-second VD deadline, VP storage,
// verification latency).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "attack/fake_vp.h"
#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "crypto/hash_chain.h"
#include "crypto/sha256.h"
#include "dsrc/view_digest.h"
#include "index/db_snapshot.h"
#include "system/trustrank.h"
#include "system/viewmap_graph.h"
#include "vp/video.h"
#include "vp/view_profile.h"

using namespace viewmap;

namespace {

/// A seeded profile with random digests and Bloom bits (not well_formed;
/// hashing and serialization do not care).
vp::ViewProfile random_profile(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<dsrc::ViewDigest> digests(kDigestsPerProfile);
  Id16 id;
  rng.fill_bytes(id.bytes);
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    auto& vd = digests[static_cast<std::size_t>(s)];
    vd.time = 61 + s;
    vd.loc_x = static_cast<float>(rng.uniform(0, 1000));
    vd.loc_y = static_cast<float>(rng.uniform(0, 1000));
    vd.file_size = rng.next_u64();
    vd.vp_id = id;
    rng.fill_bytes(vd.hash.bytes);
    vd.second = static_cast<std::uint16_t>(s + 1);
  }
  std::vector<std::uint8_t> bits(vp::kBloomBytes);
  rng.fill_bytes(bits);
  return vp::ViewProfile(std::move(digests),
                         bloom::BloomFilter::from_bytes(bits, vp::kBloomHashes));
}

void BM_CascadedHashStep(benchmark::State& state) {
  const auto chunk_size = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::uint8_t> chunk(chunk_size);
  Rng rng(1);
  rng.fill_bytes(chunk);
  Id16 r;
  crypto::CascadedHasher hasher(r);
  const crypto::ChainStepMeta meta{1, 0.0f, 0.0f, chunk_size};
  for (auto _ : state) benchmark::DoNotOptimize(hasher.step(meta, chunk));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunk_size));
}
BENCHMARK(BM_CascadedHashStep)->Arg(1024)->Arg(64 * 1024)->Arg(873 * 1024);

void BM_NormalHashOfPrefix(benchmark::State& state) {
  const auto prefix_mb = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> prefix(prefix_mb * 1024 * 1024);
  Rng rng(2);
  rng.fill_bytes(prefix);
  const crypto::ChainStepMeta meta{1, 0.0f, 0.0f, prefix.size()};
  for (auto _ : state) benchmark::DoNotOptimize(crypto::normal_hash(meta, prefix));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(prefix.size()));
}
BENCHMARK(BM_NormalHashOfPrefix)->Arg(1)->Arg(10)->Arg(50);

void BM_VdSerialize(benchmark::State& state) {
  dsrc::ViewDigest vd;
  vd.second = 30;
  for (auto _ : state) benchmark::DoNotOptimize(vd.serialize());
}
BENCHMARK(BM_VdSerialize);

// One-shot SHA-256 of one 72-byte VD frame: the unit of Bloom probing.
void BM_Sha256Frame(benchmark::State& state) {
  std::vector<std::uint8_t> frame(dsrc::kViewDigestWireSize);
  Rng rng(8);
  rng.fill_bytes(frame);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(frame));
}
BENCHMARK(BM_Sha256Frame);

// The first bloom_probes() call on a VP: 60 frames serialized and hashed.
// A copy drops the memo, so each iteration copies the profile and builds
// the table cold; the copy is two allocations, a small share of the row.
void BM_ColdProbeTable(benchmark::State& state) {
  const vp::ViewProfile source = random_profile(9);
  for (auto _ : state) {
    const vp::ViewProfile cold = source;
    benchmark::DoNotOptimize(&cold.bloom_probes());
  }
}
BENCHMARK(BM_ColdProbeTable);

// One VP to its 4576-byte wire payload (upload, checkpoint, digest).
void BM_VpSerialize(benchmark::State& state) {
  const vp::ViewProfile profile = random_profile(10);
  for (auto _ : state) benchmark::DoNotOptimize(profile.serialize());
}
BENCHMARK(BM_VpSerialize);

void BM_BloomInsert(benchmark::State& state) {
  bloom::BloomFilter filter(2048, 3);
  Rng rng(3);
  std::vector<std::uint8_t> element(72);
  rng.fill_bytes(element);
  for (auto _ : state) {
    filter.insert(element);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQueryHashed(benchmark::State& state) {
  bloom::BloomFilter filter(2048, 3);
  Rng rng(4);
  std::vector<std::uint8_t> element(72);
  rng.fill_bytes(element);
  for (auto _ : state) benchmark::DoNotOptimize(filter.maybe_contains(element));
}
BENCHMARK(BM_BloomQueryHashed);

void BM_BloomQueryPrecomputed(benchmark::State& state) {
  bloom::BloomFilter filter(2048, 3);
  Rng rng(5);
  std::vector<std::uint8_t> element(72);
  rng.fill_bytes(element);
  std::array<std::size_t, 3> probe{};
  bloom::BloomFilter::probe_positions(element, 2048, 3, probe);
  for (auto _ : state) benchmark::DoNotOptimize(filter.test_positions(probe));
}
BENCHMARK(BM_BloomQueryPrecomputed);

void BM_TrustRank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::uint32_t>((i + 1) % n);
    adj[i].push_back(j);
    adj[j].push_back(i);
  }
  for (std::size_t c = 0; c < n * 3; ++c) {
    const auto a = static_cast<std::uint32_t>(rng.index(n));
    const auto b = static_cast<std::uint32_t>(rng.index(n));
    if (a == b) continue;
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  const std::vector<std::size_t> seeds{0};
  sys::TrustRankConfig cfg;
  cfg.tolerance = 1e-10;
  const sys::CsrGraph graph = sys::CsrGraph::from_adjacency(adj);
  for (auto _ : state) benchmark::DoNotOptimize(sys::trust_rank(graph, seeds, cfg));
}
BENCHMARK(BM_TrustRank)->Arg(1000)->Arg(6000);

/// A 2,000-VP minute of the downtown layout perfbench sweeps: vehicles
/// on a 110 m road grid over (1.1 km)², up to 15 m/s either way, and
/// every pair that came within the 400 m link radius at some second
/// linked mutually, nearest first, until either side has
/// vp::kMaxNeighbors. Probe tables are warm, as on a live server.
struct DowntownMinute {
  std::unordered_map<Id16, std::shared_ptr<const vp::ViewProfile>, Id16Hasher> profiles;
  std::vector<const vp::ViewProfile*> members;  ///< the whole minute, by id
};

const DowntownMinute& downtown_minute() {
  static const DowntownMinute minute = [] {
    constexpr std::size_t kVps = 2000;
    constexpr double kSide = 1100.0;
    constexpr double kBlock = 110.0;
    constexpr double kRadius = 400.0;
    Rng rng(11);
    std::vector<vp::ViewProfile> fleet;
    for (std::size_t k = 0; k < kVps; ++k) {
      const double road = static_cast<double>(rng.uniform_int(0, 10)) * kBlock;
      const double from = rng.uniform(0.0, kSide);
      const double travel = rng.uniform(-900.0, 900.0);
      const bool along_x = rng.index(2) == 0;
      const geo::Vec2 a = along_x ? geo::Vec2{from, road} : geo::Vec2{road, from};
      const geo::Vec2 b =
          along_x ? geo::Vec2{from + travel, road} : geo::Vec2{road, from + travel};
      fleet.push_back(attack::make_fake_profile(0, a, b, rng));
    }
    std::vector<std::tuple<double, std::size_t, std::size_t>> in_range;
    for (std::size_t i = 0; i < kVps; ++i)
      for (std::size_t j = i + 1; j < kVps; ++j) {
        double best = kRadius * kRadius;
        bool near = false;
        for (int s = 0; s < kDigestsPerProfile; ++s) {
          const geo::Vec2 d = fleet[i].location_at(s) - fleet[j].location_at(s);
          const double d2 = d.x * d.x + d.y * d.y;
          near = near || d2 <= best;
          best = std::min(best, d2);
        }
        if (near) in_range.emplace_back(best, i, j);
      }
    std::sort(in_range.begin(), in_range.end());
    std::vector<std::size_t> degree(kVps, 0);
    for (const auto& [d2, i, j] : in_range) {
      if (degree[i] == vp::kMaxNeighbors || degree[j] == vp::kMaxNeighbors) continue;
      vp::link_mutually(fleet[i], fleet[j]);
      ++degree[i];
      ++degree[j];
    }
    DowntownMinute m;
    for (auto& p : fleet) {
      auto owned = std::make_shared<const vp::ViewProfile>(std::move(p));
      (void)owned->bloom_probes();
      m.members.push_back(owned.get());
      m.profiles.emplace(owned->vp_id(), std::move(owned));
    }
    std::sort(m.members.begin(), m.members.end(),
              [](const auto* a, const auto* b) { return a->vp_id() < b->vp_id(); });
    return m;
  }();
  return minute;
}

/// A new shard lineage over the minute's profiles: no verdict memo yet.
/// No timeline holds it, so no writer mutates it while a build reads it
/// (what a snapshot's pin guarantees for a live shard).
std::shared_ptr<const index::TimeShard> fresh_shard(const DowntownMinute& minute) {
  auto shard = std::make_shared<index::TimeShard>(0);
  shard->profiles = minute.profiles;
  return shard;
}

/// One build of the whole minute through its shard, on one core. The
/// shard and the viewmap are made and freed outside the timed region.
void build_minute(benchmark::State& state, bool warm) {
  const DowntownMinute& minute = downtown_minute();
  common::WorkerPool serial(1);
  const sys::ViewmapBuilder builder(serial);
  const std::vector<bool> trusted(minute.members.size(), false);
  auto shard = fresh_shard(minute);
  if (warm) (void)builder.build_from_members(minute.members, trusted, 0, shard);
  for (auto _ : state) {
    state.PauseTiming();
    if (!warm) shard = fresh_shard(minute);
    std::optional<sys::Viewmap> map;
    state.ResumeTiming();
    map.emplace(builder.build_from_members(minute.members, trusted, 0, shard));
    state.PauseTiming();
    map.reset();
    state.ResumeTiming();
  }
}

// The first build of a minute: every pair runs the kernel (and, with the
// viewlink memo, writes its verdict bits).
void BM_ViewmapBuildCold(benchmark::State& state) { build_minute(state, false); }
BENCHMARK(BM_ViewmapBuildCold)->Unit(benchmark::kMillisecond);

// A repeat build of the same minute: every verdict comes from the memo.
void BM_ViewmapBuildWarm(benchmark::State& state) { build_minute(state, true); }
BENCHMARK(BM_ViewmapBuildWarm)->Unit(benchmark::kMillisecond);

/// TrustRank on the downtown minute's viewmap, seeded at every 100th
/// member: 39% of member pairs are viewlinks (778k edges), the kind of
/// graph every swept minute ranks; BM_TrustRank's have average degree 8.
void BM_TrustRankDowntown(benchmark::State& state) {
  const DowntownMinute& minute = downtown_minute();
  common::WorkerPool serial(1);
  std::vector<bool> trusted(minute.members.size(), false);
  for (std::size_t i = 0; i < trusted.size(); i += 100) trusted[i] = true;
  const sys::Viewmap map =
      sys::ViewmapBuilder(serial).build_from_members(minute.members, trusted, 0);
  const auto seeds = map.trusted_indices();
  for (auto _ : state) benchmark::DoNotOptimize(sys::trust_rank(map.graph(), seeds));
  const double n = static_cast<double>(map.size());
  state.counters["edges"] = static_cast<double>(map.edge_count());
  state.counters["density"] = static_cast<double>(map.edge_count()) / (n * (n - 1) / 2);
}
BENCHMARK(BM_TrustRankDowntown)->Unit(benchmark::kMillisecond);

void BM_SyntheticChunk(benchmark::State& state) {
  const vp::SyntheticVideoSource source(7, static_cast<std::uint64_t>(state.range(0)));
  std::vector<std::uint8_t> chunk;
  int sec = 0;
  for (auto _ : state) {
    source.generate_chunk(0, sec++ % 60, chunk);
    benchmark::DoNotOptimize(chunk.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SyntheticChunk)->Arg(1024)->Arg(873 * 1024);

}  // namespace
