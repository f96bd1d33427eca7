// Unit tests: SHA-256 wrapper, cascaded hash chain, blind RSA signatures.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <thread>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/blind_rsa.h"
#include "crypto/hash_chain.h"
#include "crypto/sha256.h"

namespace viewmap::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

TEST(Sha256, KnownVectors) {
  // FIPS 180-2 test vectors.
  EXPECT_EQ(to_hex(sha256({}).bytes),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256(bytes_of("abc")).bytes),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  Sha256 inc;
  inc.update(std::span(data).subspan(0, 10));
  inc.update(std::span(data).subspan(10));
  EXPECT_EQ(inc.finish(), sha256(data));
}

TEST(Sha256, FinishResetsContext) {
  Sha256 h;
  h.update(bytes_of("abc"));
  (void)h.finish();
  h.update(bytes_of("abc"));
  EXPECT_EQ(h.finish(), sha256(bytes_of("abc")));
}

TEST(Sha256, LongMessageVectors) {
  // FIPS 180-2: the 448-bit two-block message, and one million 'a's fed
  // through the incremental hasher in uneven pieces.
  const auto two_block = bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  const std::string expected_two_block =
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  EXPECT_EQ(to_hex(sha256(two_block).bytes), expected_two_block);
  Sha256 inc;
  EXPECT_EQ(to_hex(inc.update(two_block).finish().bytes), expected_two_block);

  const std::vector<std::uint8_t> a(1'000'000, 'a');
  const std::span<const std::uint8_t> all(a);
  for (std::size_t off = 0; off < all.size();) {
    const std::size_t n = std::min<std::size_t>(all.size() - off, 1 + off % 4093);
    inc.update(all.subspan(off, n));
    off += n;
  }
  const std::string expected_million =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  EXPECT_EQ(to_hex(inc.finish().bytes), expected_million);
  EXPECT_EQ(to_hex(sha256(a).bytes), expected_million);
}

TEST(Sha256, OneShotMatchesAcrossThreads) {
  // One-shot calls reuse a per-thread context: threads hashing at once
  // must not share state, and threads started after earlier ones exited
  // must get working contexts of their own.
  std::vector<std::vector<std::uint8_t>> inputs{bytes_of(""), bytes_of("abc")};
  Rng rng(7);
  for (int i = 0; i < 6; ++i) {
    std::vector<std::uint8_t> frame(72);
    rng.fill_bytes(frame);
    inputs.push_back(std::move(frame));
  }
  std::vector<Hash32> expected;
  for (const auto& in : inputs) {
    Sha256 inc;  // a different code path from the one under test
    expected.push_back(inc.update(in).finish());
  }
  EXPECT_EQ(to_hex(expected[0].bytes),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(expected[1].bytes),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");

  constexpr int kThreads = 4;
  constexpr int kRounds = 10'000;
  for (int wave = 0; wave < 2; ++wave) {
    std::array<int, kThreads> mismatches{};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          const std::size_t i = static_cast<std::size_t>(r + t) % inputs.size();
          if (sha256(inputs[i]) != expected[i]) ++mismatches[static_cast<std::size_t>(t)];
        }
      });
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "wave " << wave << " thread " << t;
  }
}

TEST(Sha256, DeriveVpIdIsTruncatedHash) {
  const auto secret = bytes_of("secret");
  const Id16 id = derive_vp_id(secret);
  const Hash16 t = sha256(secret).truncated();
  EXPECT_EQ(id.bytes, t.bytes);
}

TEST(HashChain, StatefulMatchesStateless) {
  Id16 r;
  r.bytes[0] = 0x42;
  CascadedHasher hasher(r);
  Hash16 prev;
  prev.bytes = r.bytes;
  Rng rng(1);
  std::vector<std::uint8_t> chunk(100);
  for (int i = 1; i <= 5; ++i) {
    rng.fill_bytes(chunk);
    ChainStepMeta meta{i, 1.0f * i, 2.0f * i, static_cast<std::uint64_t>(100 * i)};
    const Hash16 h1 = hasher.step(meta, chunk);
    const Hash16 h2 = chain_step(prev, meta, chunk);
    EXPECT_EQ(h1, h2);
    prev = h2;
  }
  EXPECT_EQ(hasher.steps_done(), 5);
}

TEST(HashChain, SensitiveToEveryInput) {
  Id16 r;
  const std::vector<std::uint8_t> chunk{1, 2, 3};
  const ChainStepMeta meta{10, 1.0f, 2.0f, 3};
  const Hash16 base = chain_step(Hash16{}, meta, chunk);

  ChainStepMeta m2 = meta;
  m2.time = 11;
  EXPECT_NE(chain_step(Hash16{}, m2, chunk), base);

  m2 = meta;
  m2.loc_x = 1.5f;
  EXPECT_NE(chain_step(Hash16{}, m2, chunk), base);

  m2 = meta;
  m2.file_size = 4;
  EXPECT_NE(chain_step(Hash16{}, m2, chunk), base);

  Hash16 other_prev;
  other_prev.bytes[15] = 1;
  EXPECT_NE(chain_step(other_prev, meta, chunk), base);

  const std::vector<std::uint8_t> chunk2{1, 2, 4};
  EXPECT_NE(chain_step(Hash16{}, meta, chunk2), base);
}

TEST(HashChain, VerifyChainAcceptsHonestRecording) {
  Id16 r;
  r.bytes[3] = 7;
  CascadedHasher hasher(r);
  Rng rng(2);

  std::vector<std::uint8_t> video;
  std::vector<std::uint64_t> offsets{0};
  std::vector<ChainStepMeta> metas;
  std::vector<Hash16> expected;
  for (int i = 1; i <= 10; ++i) {
    std::vector<std::uint8_t> chunk(50 + static_cast<std::size_t>(i));
    rng.fill_bytes(chunk);
    video.insert(video.end(), chunk.begin(), chunk.end());
    ChainStepMeta meta{i, 0.0f, 0.0f, video.size()};
    expected.push_back(hasher.step(meta, chunk));
    metas.push_back(meta);
    offsets.push_back(video.size());
  }
  EXPECT_TRUE(verify_chain(r, metas, expected, video, offsets));
}

TEST(HashChain, VerifyChainRejectsTamperedVideo) {
  Id16 r;
  CascadedHasher hasher(r);
  std::vector<std::uint8_t> video(300, 0xaa);
  std::vector<std::uint64_t> offsets{0, 100, 200, 300};
  std::vector<ChainStepMeta> metas;
  std::vector<Hash16> expected;
  for (int i = 0; i < 3; ++i) {
    ChainStepMeta meta{i + 1, 0.0f, 0.0f, static_cast<std::uint64_t>((i + 1) * 100)};
    expected.push_back(
        hasher.step(meta, std::span(video).subspan(static_cast<std::size_t>(i) * 100, 100)));
    metas.push_back(meta);
  }
  EXPECT_TRUE(verify_chain(r, metas, expected, video, offsets));
  video[150] ^= 1;  // flip one bit in the middle chunk
  EXPECT_FALSE(verify_chain(r, metas, expected, video, offsets));
}

TEST(HashChain, VerifyChainRejectsWrongAnchor) {
  Id16 r;
  CascadedHasher hasher(r);
  std::vector<std::uint8_t> video(10, 1);
  std::vector<std::uint64_t> offsets{0, 10};
  ChainStepMeta meta{1, 0.0f, 0.0f, 10};
  std::vector<Hash16> expected{hasher.step(meta, video)};
  std::vector<ChainStepMeta> metas{meta};

  Id16 wrong = r;
  wrong.bytes[0] ^= 1;
  EXPECT_TRUE(verify_chain(r, metas, expected, video, offsets));
  EXPECT_FALSE(verify_chain(wrong, metas, expected, video, offsets));
}

TEST(HashChain, VerifyChainRejectsStructuralMismatch) {
  Id16 r;
  std::vector<std::uint8_t> video(10, 1);
  // offsets.size() must equal metas.size()+1
  EXPECT_FALSE(verify_chain(r, std::vector<ChainStepMeta>(1),
                            std::vector<Hash16>(1), video,
                            std::vector<std::uint64_t>{0}));
  // mismatched metas/expected
  EXPECT_FALSE(verify_chain(r, std::vector<ChainStepMeta>(2),
                            std::vector<Hash16>(1), video,
                            std::vector<std::uint64_t>{0, 5, 10}));
  // final offset must equal the video size
  EXPECT_FALSE(verify_chain(r, std::vector<ChainStepMeta>(1),
                            std::vector<Hash16>(1), video,
                            std::vector<std::uint64_t>{0, 5}));
}

class BlindRsaTest : public ::testing::Test {
 protected:
  // 1024-bit keys: key generation speed, not cryptographic strength, is
  // what matters in unit tests.
  static RsaSigner& signer() {
    static RsaSigner s(1024);
    return s;
  }
};

TEST_F(BlindRsaTest, BlindSignUnblindVerify) {
  const auto msg = bytes_of("one unit of virtual cash");
  const auto blinded = blind(msg, signer().public_key(), /*rng_seed=*/7);
  const auto blind_sig = signer().sign_blinded(blinded.blinded);
  const auto sig = unblind(blind_sig, blinded.blinding_secret, signer().public_key());
  EXPECT_TRUE(verify_signature(msg, sig, signer().public_key()));
}

TEST_F(BlindRsaTest, SignatureBoundToMessage) {
  const auto msg = bytes_of("cash A");
  const auto blinded = blind(msg, signer().public_key(), 8);
  const auto sig = unblind(signer().sign_blinded(blinded.blinded),
                           blinded.blinding_secret, signer().public_key());
  EXPECT_FALSE(verify_signature(bytes_of("cash B"), sig, signer().public_key()));
}

TEST_F(BlindRsaTest, BlindedMessageHidesFdh) {
  // The signer sees b = H(m)·r^e; for different r the blinded values must
  // differ even for the same message (unlinkability precondition).
  const auto msg = bytes_of("same message");
  const auto b1 = blind(msg, signer().public_key(), 1);
  const auto b2 = blind(msg, signer().public_key(), 2);
  EXPECT_NE(b1.blinded, b2.blinded);
  EXPECT_NE(b1.blinded, full_domain_hash(msg, signer().public_key()));
}

TEST_F(BlindRsaTest, FdhDeterministicAndInRange) {
  const auto msg = bytes_of("m");
  const auto h1 = full_domain_hash(msg, signer().public_key());
  const auto h2 = full_domain_hash(msg, signer().public_key());
  EXPECT_EQ(h1, h2);
  // Reduced into [0, N): never longer than the modulus, and if equal
  // length then numerically smaller.
  const auto& n = signer().public_key().n;
  ASSERT_LE(h1.size(), n.size());
  if (h1.size() == n.size()) EXPECT_LT(h1, n);  // big-endian lexicographic

  const auto other = full_domain_hash(bytes_of("m2"), signer().public_key());
  EXPECT_NE(other, h1);
}

TEST_F(BlindRsaTest, UnblindWithWrongSecretFailsVerification) {
  const auto msg = bytes_of("m");
  const auto b1 = blind(msg, signer().public_key(), 3);
  const auto b2 = blind(msg, signer().public_key(), 4);
  const auto sig1 = signer().sign_blinded(b1.blinded);
  const auto bad = unblind(sig1, b2.blinding_secret, signer().public_key());
  EXPECT_FALSE(verify_signature(msg, bad, signer().public_key()));
}

TEST_F(BlindRsaTest, VerifyRejectsOutOfRangeSignature) {
  const auto msg = bytes_of("m");
  crypto::BigBytes too_big = signer().public_key().n;
  too_big.push_back(0xff);  // > N
  EXPECT_FALSE(verify_signature(msg, too_big, signer().public_key()));
}

}  // namespace
}  // namespace viewmap::crypto
