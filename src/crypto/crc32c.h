// CRC32C (Castagnoli, the iSCSI/ext4 polynomial) over byte spans.
//
// The packed segment format (store/segment_store) needs a whole-file
// integrity check cheap enough to run over gigabytes on every restart.
// SHA-256 — the right tool for content *identity* (digest-named
// segments, manifest entries) — costs seconds per gigabyte even with
// SHA-NI; a torn-write/bit-rot detector does not need collision
// resistance, only error detection, which CRC32C provides at memory
// bandwidth. The hardware path uses the SSE4.2 crc32 instruction when
// the CPU has it (runtime-dispatched — no build-flag changes, binaries
// stay runnable on any x86-64); the fallback is a slicing-by-8 table.
//
// Standard CRC32C framing: initial value ~0, final complement, so
// crc32c("123456789") == 0xE3069283 (the RFC 3720 check value).
#pragma once

#include <cstdint>
#include <span>

namespace viewmap::crypto {

/// CRC32C of `data`. For incremental use, feed the previous return value
/// back as `seed` (the chaining is associative over concatenation:
/// crc32c(a+b) == crc32c(b, crc32c(a))).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0);

}  // namespace viewmap::crypto
