// SHA-256 primitives (OpenSSL EVP backed).
//
// ViewMap uses a cryptographic hash H(·) for: VD cascaded hashes (§5.1.1),
// VP identifiers R = H(Q) (§5.1.1), and full-domain hashing inside the
// blind-signature reward protocol (Appendix A).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace viewmap::crypto {

/// One-shot SHA-256. Thread-safe: each thread reuses its own digest
/// context, allocated on its first call and freed when it exits, over
/// one algorithm handle fetched once per process — an implicit fetch per
/// call would cost more than hashing a 72-byte VD frame.
[[nodiscard]] Hash32 sha256(std::span<const std::uint8_t> data);

/// Incremental SHA-256 for multi-part inputs (avoids concatenation copies
/// when hashing `T | L | F | H_{i-1} | chunk`).
class Sha256 {
 public:
  Sha256();
  ~Sha256();
  Sha256(const Sha256&) = delete;
  Sha256& operator=(const Sha256&) = delete;
  Sha256(Sha256&& other) noexcept;
  Sha256& operator=(Sha256&& other) noexcept;

  Sha256& update(std::span<const std::uint8_t> data);
  /// Finalizes and resets the context so the object can be reused.
  [[nodiscard]] Hash32 finish();

 private:
  void* ctx_ = nullptr;  // EVP_MD_CTX, kept opaque to avoid leaking OpenSSL headers
};

/// VP identifier derivation: R = H(Q) truncated to 128 bits (§5.1.1).
[[nodiscard]] Id16 derive_vp_id(std::span<const std::uint8_t> secret);

}  // namespace viewmap::crypto
