// Quickstart: the ViewMap protocol between two vehicles, end to end.
//
// Two dashcams drive down the same road for one minute. Each second they
// record a video chunk, advance the cascaded hash, broadcast a 72-byte
// view digest (VD) over DSRC, and screen/store the neighbor's VDs. At the
// minute boundary each compiles a View Profile (VP). The system then
// builds a viewmap from the two uploaded VPs, validates the two-way
// viewlink, runs TrustRank + Algorithm 1, and verifies the witness.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "common/hex.h"
#include "common/rng.h"
#include "system/service.h"
#include "system/verifier.h"
#include "system/viewmap_graph.h"
#include "vp/video.h"
#include "vp/vp_builder.h"

using namespace viewmap;

int main() {
  Rng rng(2024);

  // ── Vehicle side ─────────────────────────────────────────────────────
  // Vehicle A (a police car in this demo) and vehicle B drive eastward,
  // 60 m apart, recording minute t = 0.
  vp::VpBuilder builder_a(0, rng);
  vp::VpBuilder builder_b(0, rng);
  vp::SyntheticVideoSource cam_a(1, vp::kRealisticBytesPerSecond / 1024);  // scaled
  vp::SyntheticVideoSource cam_b(2, vp::kRealisticBytesPerSecond / 1024);

  std::vector<std::uint8_t> chunk;
  for (int sec = 0; sec < kDigestsPerProfile; ++sec) {
    const geo::Vec2 pos_a{sec * 12.0, 0.0};
    const geo::Vec2 pos_b{sec * 12.0 + 60.0, 0.0};

    cam_a.generate_chunk(0, sec, chunk);
    const dsrc::ViewDigest vd_a = builder_a.tick(pos_a, chunk);
    cam_b.generate_chunk(0, sec, chunk);
    const dsrc::ViewDigest vd_b = builder_b.tick(pos_b, chunk);

    // DSRC broadcast, both directions (perfect channel in this demo).
    builder_a.accept_neighbor(vd_b, pos_a);
    builder_b.accept_neighbor(vd_a, pos_b);
  }

  vp::VpGenerationResult gen_a = builder_a.finish();
  vp::VpGenerationResult gen_b = builder_b.finish();
  std::printf("vehicle A: VP %s, %zu neighbor(s)\n",
              to_hex(gen_a.profile.vp_id().bytes).substr(0, 16).c_str(),
              gen_a.neighbors.size());
  std::printf("vehicle B: VP %s, %zu neighbor(s)\n",
              to_hex(gen_b.profile.vp_id().bytes).substr(0, 16).c_str(),
              gen_b.neighbors.size());
  std::printf("VD wire size: %zu bytes, VP payload: %zu bytes (paper: 72 / 4576+8)\n",
              dsrc::kViewDigestWireSize, gen_a.profile.serialize().size());

  // ── System side ──────────────────────────────────────────────────────
  sys::VpDatabase db;
  db.upload(gen_a.profile, /*trusted=*/true);   // police car: trusted VP
  db.upload(gen_b.profile, /*trusted=*/false);  // anonymous upload

  const geo::Rect site{{500, -100}, {800, 100}};  // where the incident was
  const sys::ViewmapBuilder builder;
  // Reads go through an immutable snapshot; the viewmap pins it, so the
  // investigation stays valid whatever the live database does next.
  const sys::Viewmap map = builder.build(db.snapshot(), site, 0);
  std::printf("viewmap: %zu members, %zu viewlink(s)\n", map.size(), map.edge_count());

  const auto verdict = sys::verify(map, site);
  std::printf("site members: %zu, legitimate: %zu, rejected: %zu\n",
              verdict.site_members.size(), verdict.legitimate.size(),
              verdict.rejected.size());
  for (std::size_t i : verdict.legitimate)
    std::printf("  LEGITIMATE %s  trust=%.4f\n",
                to_hex(map.member(i).vp_id().bytes).substr(0, 16).c_str(),
                verdict.ranks.scores[i]);
  return 0;
}
