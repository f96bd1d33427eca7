// Micro-benchmarks (google-benchmark) for the protocol's hot primitives:
// cascaded hash steps, VD serialization, Bloom operations, viewmap-probe
// membership tests, and TrustRank iterations. These are the knobs §6.1
// budgets (per-second VD deadline, VP storage, verification latency).
#include <benchmark/benchmark.h>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "crypto/hash_chain.h"
#include "dsrc/view_digest.h"
#include "system/trustrank.h"
#include "vp/video.h"

using namespace viewmap;

namespace {

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
