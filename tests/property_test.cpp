// Property-based and parameterized sweeps over protocol invariants.
//
// TEST_P suites sweep seeds and parameter grids; each assertion is an
// invariant that must hold for *every* point, not a single example.
#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "common/rng.h"
#include "crypto/hash_chain.h"
#include "system/trustrank.h"
#include "system/viewmap_graph.h"
#include "vp/guard.h"
#include "vp/video.h"
#include "vp/vp_builder.h"

namespace viewmap {
namespace {

// ── Hash chain: replayability across chunk sizes and seeds ──────────────

class HashChainProperty : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(HashChainProperty, ChainReplaysFromVideoBytes) {
  const auto [seed, bps] = GetParam();
  Rng rng(seed);
  vp::VpBuilder builder(0, rng);
  vp::SyntheticVideoSource source(seed, static_cast<std::uint64_t>(bps));
  std::vector<std::uint8_t> chunk;
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    source.generate_chunk(0, s, chunk);
    (void)builder.tick({s * 3.0, 0}, chunk);
  }
  auto gen = builder.finish();
  const vp::RecordedVideo video = source.record_minute(0);

  // System-side replay must agree for every (seed, chunk size).
  std::vector<crypto::ChainStepMeta> metas;
  std::vector<Hash16> expected;
  std::vector<std::uint64_t> offsets{0};
  for (const auto& vd : gen.profile.digests()) {
    metas.push_back(vd.chain_meta());
    expected.push_back(vd.hash);
    offsets.push_back(vd.file_size);
  }
  EXPECT_TRUE(crypto::verify_chain(gen.profile.vp_id(), metas, expected, video.bytes,
                                   offsets));

  // Any single flipped bit breaks it.
  auto tampered = video.bytes;
  tampered[tampered.size() / 2] ^= 0x10;
  EXPECT_FALSE(crypto::verify_chain(gen.profile.vp_id(), metas, expected, tampered,
                                    offsets));
}

INSTANTIATE_TEST_SUITE_P(
    SeedAndChunkSweep, HashChainProperty,
    ::testing::Combine(::testing::Values(1ull, 17ull, 999ull),
                       ::testing::Values(16, 128, 1024)));

// ── Bloom filter: no false negatives, ever ───────────────────────────────

class BloomProperty : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(BloomProperty, NoFalseNegatives) {
  const auto [bits, k] = GetParam();
  bloom::BloomFilter f(bits, k);
  Rng rng(static_cast<std::uint64_t>(bits) * 31 + static_cast<std::uint64_t>(k));
  std::vector<std::vector<std::uint8_t>> inserted;
  for (int i = 0; i < 150; ++i) {
    std::vector<std::uint8_t> e(72);
    rng.fill_bytes(e);
    f.insert(e);
    inserted.push_back(std::move(e));
  }
  for (const auto& e : inserted) EXPECT_TRUE(f.maybe_contains(e));
}

TEST_P(BloomProperty, EmpiricalFalsePositiveWithinTheory) {
  const auto [bits, k] = GetParam();
  bloom::BloomFilter f(bits, k);
  Rng rng(static_cast<std::uint64_t>(bits) * 77 + static_cast<std::uint64_t>(k));
  const std::size_t n = 100;
  std::vector<std::uint8_t> e(72);
  for (std::size_t i = 0; i < n; ++i) {
    rng.fill_bytes(e);
    f.insert(e);
  }
  int fp = 0;
  const int probes = 5000;
  for (int i = 0; i < probes; ++i) {
    rng.fill_bytes(e);
    fp += f.maybe_contains(e);
  }
  const double theory = bloom::false_positive_rate(bits, n, k);
  EXPECT_LE(static_cast<double>(fp) / probes, theory * 2.0 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, BloomProperty,
    ::testing::Combine(::testing::Values(1024u, 2048u, 4096u),
                       ::testing::Values(1, 3, 5)));

// ── TrustRank: stochastic sanity on random graphs ───────────────────────

class TrustRankProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrustRankProperty, ScoresAreAProbabilityDistributionOverReachableGraphs) {
  Rng rng(GetParam());
  const std::size_t n = 60;
  std::vector<std::vector<std::uint32_t>> adj(n);
  // Random connected-ish graph: ring + random chords.
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::uint32_t>((i + 1) % n);
    adj[i].push_back(j);
    adj[j].push_back(i);
  }
  for (int c = 0; c < 40; ++c) {
    const auto a = static_cast<std::uint32_t>(rng.index(n));
    const auto b = static_cast<std::uint32_t>(rng.index(n));
    if (a == b) continue;
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  const std::vector<std::size_t> seeds{rng.index(n)};
  const auto result = sys::trust_rank(sys::CsrGraph::from_adjacency(adj), seeds, {});
  EXPECT_TRUE(result.converged);
  double total = 0;
  for (double s : result.scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-9);
    total += s;
  }
  // Ring ⇒ everything reachable ⇒ mass conserved.
  EXPECT_NEAR(total, 1.0, 1e-6);
  // Seed holds the maximum score (it receives the (1-δ) reinjection).
  for (double s : result.scores) EXPECT_LE(s, result.scores[seeds[0]] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrustRankProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ── Guard volume & coverage: paper formulas as invariants ───────────────

class GuardFormulaProperty
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(GuardFormulaProperty, CoverageImprovesWithTimeAndAlpha) {
  const auto [alpha, m] = GetParam();
  double prev = 1.0;
  for (int t = 1; t <= 10; ++t) {
    const double p = vp::uncovered_probability(alpha, m, t);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_LE(p, prev + 1e-12);  // monotone non-increasing in t
    prev = p;
  }
  // Volume: 1 + ⌈αm⌉ VPs per vehicle-minute, and at least one guard for
  // any non-zero neighborhood.
  EXPECT_GE(vp::guard_count(alpha, static_cast<std::size_t>(m)), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaNeighborGrid, GuardFormulaProperty,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5),
                       ::testing::Values(5, 20, 60, 150)));

// ── VD wire format: round-trip under random field values ────────────────

class VdRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VdRoundTripProperty, SerializeParseIdentity) {
  Rng rng(GetParam());
  dsrc::ViewDigest vd;
  vd.time = static_cast<TimeSec>(rng.uniform_int(0, 1'000'000'000));
  vd.loc_x = static_cast<float>(rng.uniform(-1e5, 1e5));
  vd.loc_y = static_cast<float>(rng.uniform(-1e5, 1e5));
  vd.file_size = rng.next_u64() >> 8;
  vd.initial_x = static_cast<float>(rng.uniform(-1e5, 1e5));
  vd.initial_y = static_cast<float>(rng.uniform(-1e5, 1e5));
  rng.fill_bytes(vd.vp_id.bytes);
  rng.fill_bytes(vd.hash.bytes);
  vd.second = static_cast<std::uint16_t>(rng.uniform_int(1, 60));

  const auto frame = vd.serialize();
  ASSERT_EQ(frame.size(), 72u);
  EXPECT_EQ(dsrc::ViewDigest::parse(frame), vd);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VdRoundTripProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// ── Viewmap edges: symmetry + proximity precondition on random fleets ───

class ViewlinkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewlinkProperty, EdgePredicateIsSymmetricAndLocal) {
  Rng rng(GetParam());
  // Build 6 profiles at random offsets; exchange VDs between all pairs
  // within 200 m so some links exist.
  std::vector<vp::VpBuilder> builders;
  std::vector<geo::Vec2> bases;
  for (int i = 0; i < 6; ++i) {
    builders.emplace_back(0, rng);
    bases.push_back({rng.uniform(0, 600), rng.uniform(0, 600)});
  }
  std::vector<std::uint8_t> chunk(16);
  for (int s = 0; s < kDigestsPerProfile; ++s) {
    std::vector<dsrc::ViewDigest> vds;
    for (int i = 0; i < 6; ++i) {
      Rng chunk_rng(static_cast<std::uint64_t>(i) * 1000 + static_cast<std::uint64_t>(s));
      chunk_rng.fill_bytes(chunk);
      vds.push_back(builders[static_cast<std::size_t>(i)].tick(
          bases[static_cast<std::size_t>(i)] + geo::Vec2{s * 2.0, 0}, chunk));
    }
    for (int i = 0; i < 6; ++i)
      for (int j = 0; j < 6; ++j) {
        if (i == j) continue;
        if (geo::distance(bases[static_cast<std::size_t>(i)],
                          bases[static_cast<std::size_t>(j)]) < 200)
          builders[static_cast<std::size_t>(i)].accept_neighbor(
              vds[static_cast<std::size_t>(j)],
              bases[static_cast<std::size_t>(i)] + geo::Vec2{s * 2.0, 0});
      }
  }
  std::vector<vp::ViewProfile> profiles;
  for (auto& b : builders) profiles.push_back(b.finish().profile);

  const sys::ViewmapBuilder vb;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = 0; j < profiles.size(); ++j) {
      if (i == j) continue;
      // Symmetry.
      EXPECT_EQ(vb.viewlinked(profiles[i], profiles[j]),
                vb.viewlinked(profiles[j], profiles[i]));
      // Locality: no edge without proximity.
      if (!profiles[i].ever_within(profiles[j], 400.0)) {
        EXPECT_FALSE(vb.viewlinked(profiles[i], profiles[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewlinkProperty, ::testing::Values(21, 22, 23, 24));

// ── Storage constants: §6.1 accounting holds under any digest content ───

TEST(StorageProperty, VpOverheadBelowOneHundredthOfVideo) {
  // §6.1: VP storage < 0.01% of a 50 MB video.
  const double ratio = static_cast<double>(vp::kVpStorageBytes) / (50.0 * 1024 * 1024);
  EXPECT_LT(ratio, 0.0001);
}

}  // namespace
}  // namespace viewmap
