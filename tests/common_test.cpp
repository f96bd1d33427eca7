// Unit tests: common substrate (bytes, hex, rng, stats, types,
// failpoints).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/failpoint.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/worker_pool.h"

namespace viewmap {
namespace {

TEST(Bytes, RoundTripAllWidths) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefull);
  w.put_i64(-42);
  w.put_f64(3.14159);
  w.put_f32(-2.5f);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_FLOAT_EQ(r.get_f32(), -2.5f);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(Bytes, ReaderThrowsOnUnderrun) {
  const std::vector<std::uint8_t> two{1, 2};
  ByteReader r(two);
  EXPECT_EQ(r.get_u16(), 0x0201);
  EXPECT_THROW(r.get_u8(), std::out_of_range);
}

TEST(Bytes, GetBytesExact) {
  ByteWriter w;
  const std::vector<std::uint8_t> payload{9, 8, 7, 6};
  w.put_bytes(payload);
  ByteReader r(w.bytes());
  std::array<std::uint8_t, 4> out{};
  r.get_bytes(out);
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), payload);
}

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> data{0x00, 0xff, 0x1a, 0x2b};
  EXPECT_EQ(to_hex(data), "00ff1a2b");
  EXPECT_EQ(from_hex("00ff1a2b"), data);
  EXPECT_EQ(from_hex("00FF1A2B"), data);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng a2(42);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(11);
  const auto idx = rng.sample_indices(100, 20);
  ASSERT_EQ(idx.size(), 20u);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 20u);
  for (auto i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesClampsToPopulation) {
  Rng rng(11);
  EXPECT_EQ(rng.sample_indices(5, 50).size(), 5u);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, FillBytesCoversBuffer) {
  Rng rng(3);
  std::vector<std::uint8_t> buf(37, 0);
  rng.fill_bytes(buf);
  int nonzero = 0;
  for (auto b : buf) nonzero += b != 0;
  EXPECT_GT(nonzero, 20);  // all-zero output would mean the fill is broken
}

TEST(Stats, RunningMeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  const std::vector<double> ny{-2, -4, -6, -8};
  EXPECT_NEAR(pearson_correlation(x, ny), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateIsZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_EQ(pearson_correlation(x, y), 0.0);
}

TEST(Stats, EntropyUniform) {
  const std::vector<double> p{0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(entropy_bits(p), 2.0, 1e-12);
  const std::vector<double> certain{1.0, 0.0};
  EXPECT_EQ(entropy_bits(certain), 0.0);
}

TEST(Types, UnitStartFloorsToMinute) {
  EXPECT_EQ(unit_start(0), 0);
  EXPECT_EQ(unit_start(59), 0);
  EXPECT_EQ(unit_start(60), 60);
  EXPECT_EQ(unit_start(61), 60);
  EXPECT_EQ(unit_start(-1), -60);
}

TEST(Types, Id16Equality) {
  Id16 a, b;
  a.bytes[0] = 1;
  EXPECT_NE(a, b);
  b.bytes[0] = 1;
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(Id16{}.is_zero());
}

// ── failpoints ───────────────────────────────────────────────────────
// The registry is process-global; every test disarms on entry and exit
// so order does not matter.

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(FailpointTest, UnarmedIsNoop) {
  EXPECT_FALSE(failpoint::any_armed());
  EXPECT_FALSE(failpoint::evaluate("store.write.data").fires());
  EXPECT_EQ(failpoint::inject("store.write.data"), 0);
  // Nothing armed ⇒ the fast path never touched the registry: no hits.
  EXPECT_EQ(failpoint::stats("store.write.data").hits, 0u);
  EXPECT_EQ(failpoint::total_fires(), 0u);
}

TEST_F(FailpointTest, ArmedPointUnrelatedPointStillProceeds) {
  failpoint::arm("p.a", failpoint::Action::kEIO);
  EXPECT_TRUE(failpoint::any_armed());
  EXPECT_EQ(failpoint::inject("p.other"), 0);
  EXPECT_EQ(failpoint::inject("p.a"), EIO);
}

TEST_F(FailpointTest, OnceFiresExactlyOnce) {
  failpoint::arm("p.once", failpoint::Action::kENOSPC,
                 failpoint::Trigger::once());
  EXPECT_EQ(failpoint::inject("p.once"), ENOSPC);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(failpoint::inject("p.once"), 0);
  const auto s = failpoint::stats("p.once");
  EXPECT_EQ(s.hits, 6u);
  EXPECT_EQ(s.fires, 1u);
}

TEST_F(FailpointTest, EveryNthFiresOnEveryNthHit) {
  failpoint::arm("p.nth", failpoint::Action::kEIO,
                 failpoint::Trigger::every_nth(3));
  std::vector<int> fired;
  for (int i = 0; i < 9; ++i)
    if (failpoint::inject("p.nth") != 0) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{2, 5, 8}));
}

TEST_F(FailpointTest, WindowFiresOnlyInsideHalfOpenRange) {
  failpoint::arm("p.win", failpoint::Action::kEIO,
                 failpoint::Trigger::window(2, 5));
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i)
    if (failpoint::inject("p.win") != 0) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(failpoint::stats("p.win").fires, 3u);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicForSeed) {
  const auto run = [] {
    failpoint::arm("p.prob", failpoint::Action::kEIO,
                   failpoint::Trigger::probability(0.5, 1234));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i)
      fired.push_back(failpoint::inject("p.prob") != 0);
    return fired;
  };
  const auto first = run();
  const auto second = run();  // re-arm resets the RNG: identical replay
  EXPECT_EQ(first, second);
  // p=0.5 over 64 draws: both outcomes must appear.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FailpointTest, ShortWriteReportsEIOThroughInject) {
  failpoint::arm("p.short", failpoint::Action::kShortWrite);
  EXPECT_EQ(failpoint::inject("p.short"), EIO);
  failpoint::arm("p.short2", failpoint::Action::kShortWrite);
  EXPECT_EQ(failpoint::evaluate("p.short2").action,
            failpoint::Action::kShortWrite);
}

TEST_F(FailpointTest, DelayFiresWithoutErrno) {
  failpoint::arm("p.delay", failpoint::Action::kDelay,
                 failpoint::Trigger::always(), std::chrono::milliseconds(1));
  const auto d = failpoint::evaluate("p.delay");
  EXPECT_TRUE(d.fires());
  EXPECT_EQ(d.injected_errno(), 0);
  EXPECT_EQ(failpoint::inject("p.delay"), 0);  // delays, then proceeds
  EXPECT_EQ(failpoint::stats("p.delay").fires, 2u);
}

TEST_F(FailpointTest, SpecArmsManyPointsWithTriggers) {
  const std::size_t armed = failpoint::arm_from_spec(
      "store.write.fsync=eio@every:3;store.rename=enospc@window:1:2;"
      "p.plain=error");
  EXPECT_EQ(armed, 3u);
  const auto points = failpoint::armed_points();
  EXPECT_EQ(points, (std::vector<std::string>{"p.plain", "store.rename",
                                              "store.write.fsync"}));
  EXPECT_EQ(failpoint::inject("store.write.fsync"), 0);
  EXPECT_EQ(failpoint::inject("store.write.fsync"), 0);
  EXPECT_EQ(failpoint::inject("store.write.fsync"), EIO);
  EXPECT_EQ(failpoint::inject("store.rename"), 0);
  EXPECT_EQ(failpoint::inject("store.rename"), ENOSPC);
  EXPECT_EQ(failpoint::inject("store.rename"), 0);
  // kError fires with no errno: sites that only understand errnos
  // proceed, sites that evaluate() see the action.
  EXPECT_TRUE(failpoint::evaluate("p.plain").fires());
  EXPECT_EQ(failpoint::inject("p.plain"), 0);
}

TEST_F(FailpointTest, SpecRejectsMalformedClauses) {
  EXPECT_THROW(failpoint::arm_from_spec("no-equals-sign"),
               std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("p=frobnicate"),
               std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("p=eio@sometimes"),
               std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("p=eio@every:0"),
               std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("p=eio@window:5:2"),
               std::invalid_argument);
  EXPECT_THROW(failpoint::arm_from_spec("p=eio@prob:1.5"),
               std::invalid_argument);
  // Numbers are whole digit tokens (a finite decimal for P) that fit
  // their field: no sign, space, suffix, NaN or overflow.
  for (const char* spec :
       {"p=eio@every:-1", "p=eio@every:3x", "p=eio@every:+4", "p=eio@every: 4",
        "p=eio@prob:nan", "p=eio@prob:0.5junk", "p=delay:-5", "p=delay:7ms",
        "p=eio@window:1:-1", "p=eio@every:99999999999999999999999",
        "p=delay:99999999999999999999"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(failpoint::arm_from_spec(spec), std::invalid_argument);
    EXPECT_FALSE(failpoint::any_armed());
  }
  // Only delay takes an argument.
  EXPECT_THROW(failpoint::arm_from_spec("p=eio:3"), std::invalid_argument);
  // The error names the clause it rejects.
  try {
    (void)failpoint::arm_from_spec("ok=eio;p=eio@every:3x");
    ADD_FAILURE() << "bad clause armed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'p=eio@every:3x'"), std::string::npos)
        << e.what();
  }
  // A throwing spec arms nothing it parsed before the bad clause.
  EXPECT_THROW(failpoint::arm_from_spec("ok=eio;bad=nope"),
               std::invalid_argument);
  EXPECT_FALSE(failpoint::any_armed());
}

TEST_F(FailpointTest, SpecMutationsArmExactlyTheirPointsOrNothing) {
  // Seeded byte-level mutations of valid specs. Each case either arms
  // exactly the points its clauses name, or throws
  // std::invalid_argument with nothing armed — never another exception.
  const std::vector<std::string> seeds = {
      "store.write.fsync=eio@every:3;store.write.data=enospc@window:2:6",
      "p.a=delay:5@once;p.b=short@prob:0.25:99",
      "x=error@always;y=eio@prob:1;;z=enospc",
      "store.rename=enospc@window:0:18446744073709551615",
      "a=delay:0;b=eio@every:1;c=error@prob:0.5:7"};
  const std::string alphabet = "0123456789:;=@-+ .xenaip";
  Rng rng(19);
  const auto pick = [&rng](std::size_t n) { return rng.index(n); };
  for (int c = 0; c < 20000; ++c) {
    std::string spec = seeds[pick(seeds.size())];
    const int mutations = static_cast<int>(rng.uniform_int(1, 3));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t at = pick(spec.size() + 1);
      switch (rng.uniform_int(0, 4)) {
        case 0:  // overwrite a byte, from the grammar's alphabet or raw
          if (at < spec.size())
            spec[at] = rng.bernoulli(0.8) ? alphabet[pick(alphabet.size())]
                                          : static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 1:  // insert a grammar byte
          spec.insert(at, 1, alphabet[pick(alphabet.size())]);
          break;
        case 2:  // delete a byte
          if (at < spec.size()) spec.erase(at, 1);
          break;
        case 3: {  // duplicate a span elsewhere
          const std::size_t from = pick(spec.size() + 1);
          const std::size_t len = pick(spec.size() - from + 1);
          spec.insert(at, spec.substr(from, len));
          break;
        }
        default:  // splice in an edge-case number
          spec.insert(at, std::vector<const char*>{
                              "-1", "18446744073709551616", "9223372036854775808",
                              "nan", "1e3", "0", "00"}[pick(7)]);
      }
    }
    SCOPED_TRACE(spec);
    failpoint::disarm_all();
    std::size_t armed = 0;
    try {
      armed = failpoint::arm_from_spec(spec);
    } catch (const std::invalid_argument&) {
      EXPECT_FALSE(failpoint::any_armed());
      continue;
    }
    std::set<std::string> named;
    std::size_t clauses = 0;
    for (std::size_t start = 0; start < spec.size();) {
      std::size_t end = spec.find(';', start);
      if (end == std::string::npos) end = spec.size();
      const std::string clause = spec.substr(start, end - start);
      start = end + 1;
      if (clause.empty()) continue;
      ++clauses;
      named.insert(clause.substr(0, clause.find('=')));
    }
    EXPECT_EQ(armed, clauses);
    EXPECT_EQ(failpoint::armed_points(), std::vector<std::string>(named.begin(), named.end()));
  }
}

TEST_F(FailpointTest, DisarmDropsCountersAndTotalFires) {
  failpoint::arm("p.a", failpoint::Action::kEIO);
  failpoint::arm("p.b", failpoint::Action::kEIO);
  EXPECT_EQ(failpoint::inject("p.a"), EIO);
  EXPECT_EQ(failpoint::inject("p.b"), EIO);
  EXPECT_EQ(failpoint::total_fires(), 2u);
  failpoint::disarm("p.a");
  EXPECT_EQ(failpoint::inject("p.a"), 0);
  EXPECT_EQ(failpoint::stats("p.a").hits, 0u);  // counters dropped
  EXPECT_TRUE(failpoint::any_armed());          // p.b still armed
  failpoint::disarm_all();
  EXPECT_FALSE(failpoint::any_armed());
  EXPECT_EQ(failpoint::total_fires(), 0u);  // reset with the registry
}

TEST_F(FailpointTest, ArmFromEnvReadsVariableExplicitly) {
  ::setenv("VIEWMAP_FAILPOINTS", "p.env=enospc@once", 1);
  EXPECT_EQ(failpoint::arm_from_env(), 1u);
  EXPECT_EQ(failpoint::inject("p.env"), ENOSPC);
  EXPECT_EQ(failpoint::inject("p.env"), 0);
  ::unsetenv("VIEWMAP_FAILPOINTS");
  failpoint::disarm_all();
  EXPECT_EQ(failpoint::arm_from_env(), 0u);
}

// ── worker pool ──────────────────────────────────────────────────────

/// Runs parallel_for(n) on `pool` and returns how often each index ran.
std::vector<int> run_counts(common::WorkerPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> runs(n);
  pool.parallel_for(n, [&](std::size_t i) { runs[i].fetch_add(1); });
  std::vector<int> out;
  for (const auto& r : runs) out.push_back(r.load());
  return out;
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  for (const unsigned width : {1u, 2u, 3u, 4u}) {
    common::WorkerPool pool(width);
    EXPECT_EQ(pool.width(), width);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{width - 1},
                                std::size_t{1000}}) {
      const std::vector<int> runs = run_counts(pool, n);
      EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), static_cast<std::ptrdiff_t>(n))
          << "width " << width << ", n " << n;
    }
  }
}

TEST(WorkerPool, ExceptionReachesCallerAfterClaimedIndicesReturn) {
  common::WorkerPool pool(4);
  std::atomic<int> in_flight{0};
  std::vector<std::atomic<int>> runs(400);
  try {
    pool.parallel_for(runs.size(), [&](std::size_t i) {
      in_flight.fetch_add(1);
      runs[i].fetch_add(1);
      if (i == 7) {
        in_flight.fetch_sub(1);
        throw std::runtime_error("index 7");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      in_flight.fetch_sub(1);
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 7");
    EXPECT_EQ(in_flight.load(), 0) << "rethrown while claimed indices still ran";
  }
  // No index ran twice, and the throw stopped further claims.
  std::size_t ran = 0;
  for (const auto& r : runs) {
    EXPECT_LE(r.load(), 1);
    ran += static_cast<std::size_t>(r.load());
  }
  EXPECT_LT(ran, runs.size());
  // The same pool serves the next call in full.
  const std::vector<int> next = run_counts(pool, 1000);
  EXPECT_EQ(std::count(next.begin(), next.end(), 1), 1000);
}

TEST(WorkerPool, ConcurrentCallersOnANarrowPoolAllComplete) {
  // Server workers share the process pool: every caller claims its own
  // indices, so 8 callers on one worker all finish.
  common::WorkerPool pool(2);
  constexpr std::size_t kCallers = 8;
  std::vector<std::vector<int>> results(kCallers);
  std::latch start(kCallers);
  const auto call = [&](std::size_t c) {
    start.arrive_and_wait();
    results[c] = run_counts(pool, 500);
  };
  std::vector<std::thread> callers;
  for (std::size_t c = 1; c < kCallers; ++c) callers.emplace_back(call, c);
  call(0);
  for (auto& t : callers) t.join();
  for (const auto& runs : results)
    EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), 500);
}

TEST(WorkerPool, NestedParallelForCompletes) {
  common::WorkerPool pool(3);
  std::vector<std::atomic<int>> runs(8 * 100);
  pool.parallel_for(8, [&](std::size_t i) {
    pool.parallel_for(100, [&](std::size_t j) { runs[i * 100 + j].fetch_add(1); });
  });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST_F(FailpointTest, PoolSpawnFailureJoinsStartedWorkersAndThrows) {
  // The second spawn fails: the constructor must join the one worker it
  // started (destroying it joinable would end the process) and rethrow.
  failpoint::arm_from_spec("pool.spawn=error@window:1:2");
  EXPECT_THROW(common::WorkerPool(4), std::system_error);
  EXPECT_EQ(failpoint::stats("pool.spawn").hits, 2u);
  EXPECT_EQ(failpoint::stats("pool.spawn").fires, 1u);

  failpoint::disarm("pool.spawn");
  common::WorkerPool pool(4);
  const std::vector<int> runs = run_counts(pool, 1000);
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), 1000);
}

}  // namespace
}  // namespace viewmap
