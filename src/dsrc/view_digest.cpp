#include "dsrc/view_digest.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/bytes.h"
#include "dsrc/radio.h"

namespace viewmap::dsrc {

namespace {

/// Field widths of the §6.1 frame, in wire order; six reserved zero
/// bytes of padding fill the rest.
constexpr std::size_t kFieldBytes = sizeof(TimeSec) + 2 * sizeof(float) +
                                    sizeof(std::uint64_t) + 2 * sizeof(float) +
                                    sizeof(Id16::bytes) + sizeof(Hash16::bytes) +
                                    sizeof(std::uint16_t);
static_assert(kFieldBytes + 6 == kViewDigestWireSize,
              "ViewDigest: wire size drifted from spec");

/// Stores `v` little-endian at `p`; returns the byte after it.
template <typename T>
std::uint8_t* put_le(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
  return p + sizeof(T);
}

std::uint8_t* put_f32(std::uint8_t* p, float v) {
  return put_le(p, std::bit_cast<std::uint32_t>(v));
}

std::uint8_t* put_bytes(std::uint8_t* p, std::span<const std::uint8_t> b) {
  std::memcpy(p, b.data(), b.size());
  return p + b.size();
}

}  // namespace

std::array<std::uint8_t, kViewDigestWireSize> ViewDigest::serialize() const {
  std::array<std::uint8_t, kViewDigestWireSize> frame{};  // padding stays zero
  std::uint8_t* p = frame.data();
  p = put_le(p, static_cast<std::uint64_t>(time));
  p = put_f32(p, loc_x);
  p = put_f32(p, loc_y);
  p = put_le(p, file_size);
  p = put_f32(p, initial_x);
  p = put_f32(p, initial_y);
  p = put_bytes(p, vp_id.bytes);
  p = put_bytes(p, hash.bytes);
  put_le(p, second);
  return frame;
}

ViewDigest ViewDigest::parse(std::span<const std::uint8_t> frame) {
  if (frame.size() != kViewDigestWireSize)
    throw std::invalid_argument("ViewDigest: bad frame size");
  ByteReader r(frame);
  ViewDigest vd;
  vd.time = r.get_i64();
  vd.loc_x = r.get_f32();
  vd.loc_y = r.get_f32();
  vd.file_size = r.get_u64();
  vd.initial_x = r.get_f32();
  vd.initial_y = r.get_f32();
  r.get_bytes(vd.vp_id.bytes);
  r.get_bytes(vd.hash.bytes);
  vd.second = r.get_u16();
  return vd;
}

bool vd_acceptable(const ViewDigest& vd, TimeSec now, double rx_x, double rx_y) noexcept {
  if (vd.time > now + 1 || vd.time < now - 1) return false;
  const double dx = vd.loc_x - rx_x;
  const double dy = vd.loc_y - rx_y;
  return std::sqrt(dx * dx + dy * dy) <= kRadioRangeM;
}

}  // namespace viewmap::dsrc
