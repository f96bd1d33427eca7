#include "crypto/sha256.h"

#include <openssl/evp.h>

#include <memory>
#include <stdexcept>
#include <utility>

namespace viewmap::crypto {

namespace {

EVP_MD_CTX* as_ctx(void* p) { return static_cast<EVP_MD_CTX*>(p); }

using MdPtr = std::unique_ptr<EVP_MD, decltype(&EVP_MD_free)>;
using CtxPtr = std::unique_ptr<EVP_MD_CTX, decltype(&EVP_MD_CTX_free)>;

/// The one SHA-256 implementation every digest runs through. The legacy
/// static getter makes OpenSSL 3 fetch the provider's algorithm on every
/// init — a global lookup that costs more than hashing a VD frame.
/// A failed fetch throws out of the static's initializer, so the next
/// call retries; null is never cached.
const EVP_MD* sha256_md() {
  static const MdPtr md = [] {
    MdPtr fetched(EVP_MD_fetch(nullptr, "SHA256", nullptr), &EVP_MD_free);
    if (fetched == nullptr) throw std::runtime_error("sha256: EVP_MD_fetch failed");
    return fetched;
  }();
  return md.get();
}

/// This thread's one-shot context, allocated on first use (and retried
/// if that allocation failed) and freed at thread exit.
EVP_MD_CTX* thread_ctx() {
  thread_local CtxPtr ctx(nullptr, &EVP_MD_CTX_free);
  if (ctx == nullptr) {
    ctx.reset(EVP_MD_CTX_new());
    if (ctx == nullptr) throw std::runtime_error("sha256: EVP_MD_CTX_new failed");
  }
  return ctx.get();
}

}  // namespace

Hash32 sha256(std::span<const std::uint8_t> data) {
  EVP_MD_CTX* ctx = thread_ctx();
  Hash32 out;
  unsigned int len = 0;
  if (EVP_DigestInit_ex2(ctx, sha256_md(), nullptr) != 1 ||
      EVP_DigestUpdate(ctx, data.data(), data.size()) != 1 ||
      EVP_DigestFinal_ex(ctx, out.bytes.data(), &len) != 1 || len != out.bytes.size())
    throw std::runtime_error("sha256: digest failed");
  return out;
}

Sha256::Sha256() {
  CtxPtr ctx(EVP_MD_CTX_new(), &EVP_MD_CTX_free);
  if (ctx == nullptr || EVP_DigestInit_ex2(ctx.get(), sha256_md(), nullptr) != 1)
    throw std::runtime_error("Sha256: init failed");
  ctx_ = ctx.release();
}

Sha256::~Sha256() {
  if (ctx_ != nullptr) EVP_MD_CTX_free(as_ctx(ctx_));
}

Sha256::Sha256(Sha256&& other) noexcept : ctx_(std::exchange(other.ctx_, nullptr)) {}

Sha256& Sha256::operator=(Sha256&& other) noexcept {
  if (this != &other) {
    if (ctx_ != nullptr) EVP_MD_CTX_free(as_ctx(ctx_));
    ctx_ = std::exchange(other.ctx_, nullptr);
  }
  return *this;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  if (EVP_DigestUpdate(as_ctx(ctx_), data.data(), data.size()) != 1)
    throw std::runtime_error("Sha256: update failed");
  return *this;
}

Hash32 Sha256::finish() {
  Hash32 out;
  unsigned int len = 0;
  if (EVP_DigestFinal_ex(as_ctx(ctx_), out.bytes.data(), &len) != 1 ||
      len != out.bytes.size())
    throw std::runtime_error("Sha256: final failed");
  if (EVP_DigestInit_ex2(as_ctx(ctx_), sha256_md(), nullptr) != 1)
    throw std::runtime_error("Sha256: reinit failed");
  return out;
}

Id16 derive_vp_id(std::span<const std::uint8_t> secret) {
  const Hash16 h = sha256(secret).truncated();
  Id16 id;
  id.bytes = h.bytes;
  return id;
}

}  // namespace viewmap::crypto
