// Viewmap construction (paper §5.2.1).
//
// A viewmap is the system's map of visibility around an incident for one
// unit-time: nodes are VPs, edges ("viewlinks") join VPs that were
// line-of-sight neighbors at some point in the minute. An edge requires
// BOTH (i) time-aligned location proximity within DSRC radius and (ii) a
// two-way Bloom membership pass — each VP's filter must recognize some VD
// of the other. Two-way validation is what stops attackers from forging
// edges to honest VPs they never actually met (§5.2.2 "Insights").
//
// Construction is one all-pairs sweep over a packed per-build kernel:
// each member is copied once per build into flat member-major arrays
// (padded trajectory bbox, positions, first second, Bloom bits, probe
// table), so the ~1 ns bbox test rejects most far-apart pairs, a Bloom
// pass is a few byte loads and time-aligned proximity is one ≤ 60-step
// scan. Surviving edges are laid out as one flat CSR (system/csr_graph.h)
// that TrustRank and Algorithm 1 consume without copying. Packing and the
// sweep are sharded over the process WorkerPool (common/worker_pool.h)
// in contiguous anchor ranges.
//
// A verdict depends only on two immutable profiles (the link radius is
// the one DSRC radius, dsrc::kRadioRangeM), never on the site, so a
// build over a minute's shard first consults that minute's viewlink memo
// (ViewlinkMemo, held by the shard lineage:
// index::TimeShard::viewlink_memo). It stores 2 bits per pair (tested,
// linked) of the shard's profiles; the sweep runs the kernel only on
// pairs no earlier build of the minute tested, and ORs the new verdicts
// in. Repeat investigations of a minute — other sites, other requests —
// thus pay member selection, a scan of memo bits, CSR and TrustRank. All
// memos together stay under kViewlinkMemoBudget bytes; past it a build
// runs memo-off. build_from_members() without a shard is the memo-off
// path. The edge set is bit-identical memo-on and memo-off, at every
// pool width, and to the retained reference builder, which evaluates
// the predicate through the profiles' own methods (property-tested in
// tests/viewmap_build_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "common/worker_pool.h"
#include "dsrc/radio.h"
#include "geo/geometry.h"
#include "index/db_snapshot.h"
#include "system/csr_graph.h"
#include "vp/view_profile.h"

namespace viewmap::sys {

/// Slack build() adds on every side of the coverage area (site ∪ the
/// seed's trajectory) before it selects members.
inline constexpr double kCoverageMarginM = 200.0;

/// The process-wide cap on the bytes of all live viewlink memos. A build
/// that would take a memo past it runs memo-off (same edges, no memo).
inline constexpr std::size_t kViewlinkMemoBudget = std::size_t{128} << 20;

/// Bytes every live viewlink memo of the process holds — the
/// `viewmap_viewlink_memo_bytes` gauge.
[[nodiscard]] std::size_t viewlink_memo_bytes() noexcept;

/// Work of one packed build, in member pairs: run through the viewlink
/// kernel, or answered from the minute's viewlink memo.
struct PairCounts {
  std::uint64_t tested = 0;
  std::uint64_t memoized = 0;
};

/// One constructed viewmap: member VPs with undirected CSR adjacency.
///
/// Lifetime: a Viewmap spans one unit-time, so when built over a
/// DbSnapshot it *pins* that minute's shard — its member profiles stay
/// valid for the viewmap's own lifetime, fully independent of concurrent
/// ingest, retention eviction, or the source database's destruction
/// (and without holding the snapshot's other shards in memory). A
/// Viewmap built from an explicit member vector (build_from_members
/// with no shard) borrows those profiles from the caller instead, which
/// must keep them alive.
class Viewmap {
 public:
  Viewmap(std::vector<const vp::ViewProfile*> members, std::vector<bool> trusted,
          CsrGraph graph, TimeSec unit_time,
          std::shared_ptr<const index::TimeShard> pinned = {}, PairCounts pairs = {});

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] const vp::ViewProfile& member(std::size_t i) const { return *members_.at(i); }
  [[nodiscard]] bool is_trusted(std::size_t i) const { return trusted_.at(i); }
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i) const;
  [[nodiscard]] TimeSec unit_time() const noexcept { return unit_time_; }

  /// The viewlink graph itself, in flat CSR form. trust_rank() and
  /// algorithm1() consume this view directly — no per-call adjacency
  /// copy anywhere on the investigation path.
  [[nodiscard]] const CsrGraph& graph() const noexcept { return *graph_; }

  [[nodiscard]] std::size_t edge_count() const noexcept { return graph_->edge_slots() / 2; }
  /// How the packed build that made this viewmap decided its member
  /// pairs (zero for any other viewmap, the reference builder's included).
  [[nodiscard]] const PairCounts& pair_counts() const noexcept { return pairs_; }
  [[nodiscard]] std::vector<std::size_t> trusted_indices() const;

  /// Indices of members with any claimed location inside `site` — the set
  /// X of Algorithm 1.
  [[nodiscard]] std::vector<std::size_t> members_visiting(const geo::Rect& site) const;

  /// Count of members not connected to any trusted VP's component
  /// (the "<3% isolated VPs" statistic of Fig. 22f).
  [[nodiscard]] std::size_t isolated_from_trusted() const;

 private:
  std::vector<const vp::ViewProfile*> members_;
  std::vector<bool> trusted_;
  /// Immutable once built, so copies of this viewmap (a cached report
  /// and the reports served from it) share one edge array.
  std::shared_ptr<const CsrGraph> graph_;
  TimeSec unit_time_;
  /// Keeps the member profiles alive (null when members are
  /// caller-owned — see the class comment).
  std::shared_ptr<const index::TimeShard> pinned_;
  PairCounts pairs_;
};

class ViewmapBuilder {
 public:
  /// Builds shard their packing and sweep over `pool`; the edge set
  /// never depends on its width.
  explicit ViewmapBuilder(common::WorkerPool& pool = common::WorkerPool::process())
      : pool_(pool) {}

  /// §5.2.1 procedure: choose the trusted VP closest to `site` at
  /// `unit_time`, span the coverage area over site ∪ that VP's trajectory
  /// (widened by kCoverageMarginM), pull in every VP claiming locations
  /// inside, and create viewlinks.
  /// The minute's shard is pinned inside the returned Viewmap, so the
  /// result remains valid however long the caller keeps it. Throws
  /// std::invalid_argument if a site coordinate is NaN or infinite, and
  /// std::runtime_error if the snapshot holds no trusted VP for that
  /// minute (a viewmap without a trust seed cannot be verified).
  [[nodiscard]] Viewmap build(const index::DbSnapshot& snap, const geo::Rect& site,
                              TimeSec unit_time) const;

  /// Lower-level entry: build a viewmap over an explicit member set
  /// (evaluation harnesses inject synthetic/fake VPs this way). Pass the
  /// shard the members point into when there is one, so the viewmap pins
  /// it and the sweep reads and fills its viewlink memo; the shard must
  /// then be pinned by a snapshot the caller holds for the call. Members
  /// match memo slots by id and pointer identity, so a foreign profile
  /// that shares an id with a shard profile is always tested. With the
  /// default null shard the caller keeps the profiles alive, and the
  /// build is memo-off. Runs the packed, sharded sweep (see the file
  /// comment).
  [[nodiscard]] Viewmap build_from_members(
      std::vector<const vp::ViewProfile*> members, std::vector<bool> trusted,
      TimeSec unit_time, std::shared_ptr<const index::TimeShard> pinned = {}) const;

  /// The retained naive O(n²) builder: visits every member pair and
  /// evaluates the §5.2.1 predicate through vp::ViewProfile::heard() and
  /// vp::ViewProfile::ever_within() — no packed arrays, no threads —
  /// behind the same trajectory-bbox prune as the fast path (which keeps
  /// it quick enough for the bench's edge-set check), and assembles its
  /// CSR through CsrGraph::from_adjacency rather than the sweep's own
  /// assembly. It is the independent ground truth the packed-kernel
  /// path is property-tested and benchmarked against
  /// (tests/viewmap_build_test.cpp, the `viewmap_build` scenario of
  /// bench_index) — never call it on the investigation path.
  [[nodiscard]] Viewmap build_from_members_reference(
      std::vector<const vp::ViewProfile*> members, std::vector<bool> trusted,
      TimeSec unit_time, std::shared_ptr<const index::TimeShard> pinned = {}) const;

  /// The §5.2.1 edge predicate, exposed for tests: distinct VP ids,
  /// time-aligned proximity within dsrc::kRadioRangeM and a two-way Bloom
  /// pass. Both builders reject equal-id pairs too.
  [[nodiscard]] static bool viewlinked(const vp::ViewProfile& a, const vp::ViewProfile& b);

 private:
  common::WorkerPool& pool_;
};

}  // namespace viewmap::sys
