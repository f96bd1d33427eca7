#include "system/viewmap_graph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace viewmap::sys {

Viewmap::Viewmap(std::vector<const vp::ViewProfile*> members, std::vector<bool> trusted,
                 CsrGraph graph, TimeSec unit_time,
                 std::shared_ptr<const index::TimeShard> pinned, PairCounts pairs)
    : members_(std::move(members)),
      trusted_(std::move(trusted)),
      graph_(std::make_shared<const CsrGraph>(std::move(graph))),
      unit_time_(unit_time),
      pinned_(std::move(pinned)),
      pairs_(pairs) {
  if (members_.size() != trusted_.size() || members_.size() != graph_->size())
    throw std::invalid_argument("Viewmap: inconsistent member arrays");
}

std::span<const std::uint32_t> Viewmap::neighbors(std::size_t i) const {
  if (i >= graph_->size()) throw std::out_of_range("Viewmap::neighbors: bad index");
  return graph_->neighbors(i);
}

std::vector<std::size_t> Viewmap::trusted_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < trusted_.size(); ++i)
    if (trusted_[i]) out.push_back(i);
  return out;
}

std::vector<std::size_t> Viewmap::members_visiting(const geo::Rect& site) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < members_.size(); ++i)
    if (members_[i]->visits(site)) out.push_back(i);
  return out;
}

std::size_t Viewmap::isolated_from_trusted() const {
  // BFS from all trusted members simultaneously, over the flat CSR.
  std::vector<bool> reached(members_.size(), false);
  std::vector<std::size_t> frontier = trusted_indices();
  for (std::size_t i : frontier) reached[i] = true;
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t u : frontier)
      for (std::uint32_t v : graph_->neighbors(u))
        if (!reached[v]) {
          reached[v] = true;
          next.push_back(v);
        }
    frontier = std::move(next);
  }
  return static_cast<std::size_t>(
      std::count(reached.begin(), reached.end(), false));
}

bool ViewmapBuilder::viewlinked(const vp::ViewProfile& a, const vp::ViewProfile& b) {
  if (a.vp_id() == b.vp_id()) return false;
  if (!a.ever_within(b, dsrc::kRadioRangeM)) return false;
  return a.heard(b) && b.heard(a);  // two-way membership validation
}

Viewmap ViewmapBuilder::build(const index::DbSnapshot& snap, const geo::Rect& site,
                              TimeSec unit_time) const {
  std::vector<const vp::ViewProfile*> members;
  std::vector<bool> trusted_flags;
  geo::Rect cover = site;
  {
    obs::SpanScope obs_span("member_select");
    if (!std::isfinite(site.min.x) || !std::isfinite(site.min.y) ||
        !std::isfinite(site.max.x) || !std::isfinite(site.max.y))
      throw std::invalid_argument("ViewmapBuilder: site coordinates must be finite");
    const auto trusted = snap.trusted_at(unit_time);
    if (trusted.empty())
      throw std::runtime_error("ViewmapBuilder: no trusted VP for this unit-time");

    // Trusted VP closest to the investigation site (§5.2.1). Trusted cars
    // are rarely at the site itself; the coverage area bridges the gap.
    // A finite site so far out that every distance overflows to +inf
    // keeps the first trusted VP.
    const geo::Vec2 site_center = site.center();
    const vp::ViewProfile* seed = trusted.front();
    double best = std::numeric_limits<double>::infinity();
    for (const auto* t : trusted) {
      for (int s = 0; s < kDigestsPerProfile; ++s) {
        const double d = geo::distance(t->location_at(s), site_center);
        if (d < best) {
          best = d;
          seed = t;
        }
      }
    }

    // Coverage C: bounding box of the site and the seed's trajectory.
    for (int s = 0; s < kDigestsPerProfile; ++s) {
      const geo::Vec2 p = seed->location_at(s);
      cover.min.x = std::min(cover.min.x, p.x);
      cover.min.y = std::min(cover.min.y, p.y);
      cover.max.x = std::max(cover.max.x, p.x);
      cover.max.y = std::max(cover.max.y, p.y);
    }
    cover = cover.inflated(kCoverageMarginM);

    members = snap.query(unit_time, cover);
    // Everything in a viewmap shares one unit-time, so the minute's trusted
    // list (id-ordered) answers membership by binary search.
    const auto trusted_less = [](const vp::ViewProfile* a, const vp::ViewProfile* b) {
      return a->vp_id() < b->vp_id();
    };
    trusted_flags.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i)
      trusted_flags[i] =
          std::binary_search(trusted.begin(), trusted.end(), members[i], trusted_less);
  }

  // The minute's shard rides inside the viewmap: member pointers stay
  // valid for the viewmap's lifetime, whatever ingest/eviction does
  // meanwhile — without keeping the snapshot's other shards alive.
  return build_from_members(std::move(members), std::move(trusted_flags), unit_time,
                            snap.shard(unit_time));
}

// ── the viewlink verdict memo ────────────────────────────────────────

namespace {

/// Bytes held by every live viewlink memo; never above the budget.
std::atomic<std::size_t> memo_bytes_in_use{0};

}  // namespace

std::size_t viewlink_memo_bytes() noexcept {
  return memo_bytes_in_use.load(std::memory_order_relaxed);
}

/// Claims `bytes` of kViewlinkMemoBudget and returns true, unless that
/// would overrun the budget (then nothing is claimed). No header declares
/// this pair: a memo claims its bytes through a MemoBudgetLease, and
/// tests/viewmap_build_test.cpp declares them to exhaust the budget.
bool claim_viewlink_memo_bytes(std::size_t bytes) noexcept {
  std::size_t used = memo_bytes_in_use.load(std::memory_order_relaxed);
  do {
    if (bytes > kViewlinkMemoBudget - used) return false;
  } while (!memo_bytes_in_use.compare_exchange_weak(used, used + bytes,
                                                    std::memory_order_relaxed));
  return true;
}

void release_viewlink_memo_bytes(std::size_t bytes) noexcept {
  memo_bytes_in_use.fetch_sub(bytes, std::memory_order_relaxed);
}

namespace {

/// A claim on `bytes` (> 0) of kViewlinkMemoBudget, held until the lease
/// is destroyed; granted() is false when the claim was refused.
class MemoBudgetLease {
 public:
  explicit MemoBudgetLease(std::size_t bytes) noexcept
      : bytes_(claim_viewlink_memo_bytes(bytes) ? bytes : 0) {}
  MemoBudgetLease(MemoBudgetLease&& other) noexcept : bytes_(std::exchange(other.bytes_, 0)) {}
  MemoBudgetLease& operator=(MemoBudgetLease&&) = delete;
  ~MemoBudgetLease() {
    if (bytes_ != 0) release_viewlink_memo_bytes(bytes_);
  }

  [[nodiscard]] bool granted() const noexcept { return bytes_ != 0; }

 private:
  std::size_t bytes_;
};

}  // namespace

/// The viewlink verdict memo of one minute (see the file comment of
/// viewmap_graph.h and index::TimeShard::viewlink_memo). Slot s is the
/// s-th profile, by ascending id, of the shard version it was made from;
/// the memo holds those profiles, so a slot's address is never reused
/// while a build could match a member against it. Pair (a, b), a < b,
/// owns 2 bits (tested, linked) at its index in the row-major upper
/// triangle, so one anchor's pairs with ascending slots are consecutive
/// bits of consecutive words.
///
/// Everything but the verdict words is immutable once made (and
/// published through the shard's cell, under its mutex). Builds read and
/// OR bits into the words only through relaxed std::atomic_ref operations: a
/// pair's two bits arrive in one fetch_or, so whoever reads its tested
/// bit reads its linked bit in the same word value, and a verdict is the
/// same whichever build wrote it.
class ViewlinkMemo {
 public:
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kTested = 1;
  static constexpr std::uint64_t kLinked = 2;

  /// A memo over every profile of `shard` (pinned by the caller), or
  /// null when the budget cannot hold it.
  static std::shared_ptr<const ViewlinkMemo> make(const index::TimeShard& shard) {
    const std::size_t n = shard.profiles.size();
    MemoBudgetLease lease(sizeof(ViewlinkMemo) + n * sizeof(Profile) +
                          word_count(n) * sizeof(std::uint64_t));
    if (!lease.granted()) return nullptr;
    std::unique_ptr<std::uint64_t[]> words(new std::uint64_t[word_count(n)]());
    std::vector<Profile> profiles;
    profiles.reserve(n);
    for (const auto& [id, profile] : shard.profiles) profiles.push_back(profile);
    std::sort(profiles.begin(), profiles.end(),
              [](const Profile& a, const Profile& b) { return a->vp_id() < b->vp_id(); });
    return std::shared_ptr<const ViewlinkMemo>(
        new ViewlinkMemo(std::move(profiles), std::move(words), std::move(lease)));
  }

  /// Sets slots[i] to member i's slot — same id AND same profile object —
  /// or kNoSlot.
  void assign_slots(std::span<const vp::ViewProfile* const> members,
                    std::vector<std::uint32_t>& slots) const {
    slots.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto it = std::lower_bound(
          profiles_.begin(), profiles_.end(), members[i]->vp_id(),
          [](const Profile& slot, const Id16& id) { return slot->vp_id() < id; });
      const bool hit = it != profiles_.end() && it->get() == members[i];
      slots[i] = hit ? static_cast<std::uint32_t>(it - profiles_.begin()) : kNoSlot;
    }
  }

  /// Where anchor slot a's row sits: pair (a, b > a) owns bit
  /// row_bit(a) + 2b (tested) and the bit above it (linked). Row a starts
  /// at triangle index a(2n − a − 1)/2, and its pair b is b − a − 1 into
  /// it; the unsigned wrap of row 0's −2 cancels once 2b is added.
  [[nodiscard]] std::uint64_t row_bit(std::uint32_t a) const noexcept {
    const std::uint64_t n = profiles_.size();
    return 2 * (std::uint64_t{a} * (2 * n - a - 1) / 2) - 2 * (std::uint64_t{a} + 1);
  }
  [[nodiscard]] std::atomic_ref<std::uint64_t> word(std::uint64_t index) const noexcept {
    return std::atomic_ref<std::uint64_t>(words_[index]);
  }

 private:
  using Profile = std::shared_ptr<const vp::ViewProfile>;

  static std::size_t word_count(std::size_t n) noexcept {
    const std::uint64_t pairs = std::uint64_t{n} * (n - 1) / 2;  // 0 when n = 0
    return static_cast<std::size_t>((2 * pairs + 63) / 64);
  }

  ViewlinkMemo(std::vector<Profile> profiles, std::unique_ptr<std::uint64_t[]> words,
               MemoBudgetLease lease)
      : profiles_(std::move(profiles)),
        words_(std::move(words)),
        lease_(std::move(lease)) {}

  std::vector<Profile> profiles_;  ///< slot s holds profiles_[s]; ascending id
  std::unique_ptr<std::uint64_t[]> words_;  ///< zeroed (nothing tested); only through word()
  MemoBudgetLease lease_;
};

namespace {

// ── the §5.2.1 edge predicate over a fixed member set ────────────────

/// The link radius R = dsrc::kRadioRangeM widened past ever_within()'s
/// rounding. Its float differences can round an exact gap of up to half a
/// float ulp past R (~15 µm at R = 400 m) down to R, and a float ulp is at
/// most R·2⁻²³. The padded boxes, the one spatial prune over exact
/// coordinates, use this reach, so it never rejects a pair ever_within()
/// accepts.
constexpr double kPruneReach = dsrc::kRadioRangeM * (1.0 + 0x1p-22);

/// A trajectory's bounding box padded by half kPruneReach on every side.
/// Two profiles whose padded boxes do not overlap are never within R for
/// ever_within() — the ~1 ns reject both builders run first.
geo::Rect padded_box(const vp::ViewProfile& profile) {
  const auto digests = profile.digests();
  geo::Rect box{{digests[0].loc_x, digests[0].loc_y}, {digests[0].loc_x, digests[0].loc_y}};
  for (const auto& vd : digests) {
    box.min.x = std::min<double>(box.min.x, vd.loc_x);
    box.min.y = std::min<double>(box.min.y, vd.loc_y);
    box.max.x = std::max<double>(box.max.x, vd.loc_x);
    box.max.y = std::max<double>(box.max.y, vd.loc_y);
  }
  return box.inflated(kPruneReach / 2.0);
}

/// Negated disjointness, so a NaN box overlaps everything (NaN positions
/// are ever_within()'s to judge, never the prune's).
bool boxes_overlap(const geo::Rect& a, const geo::Rect& b) noexcept {
  return !(a.min.x > b.max.x || b.min.x > a.max.x || a.min.y > b.max.y ||
           b.min.y > a.max.y);
}

/// The §5.2.1 edge predicate as a packed per-build kernel: every member
/// profile is copied once per build into flat, member-major arrays —
/// padded bbox, the 60 positions, the first timestamp with a "60
/// contiguous seconds" flag, the Bloom bit array and the memoized probe
/// table — and the per-pair test scans those arrays instead of chasing
/// each profile's vectors and probe-table pointer (the flat-arena idiom
/// of RenderToy's `Packed_UG::pack()`). The arrays live for one build.
///
/// Bit-identical to the profiles' own predicates: a Bloom pass tests the
/// same bits as ViewProfile::heard(), and for two contiguous profiles
/// second k of one aligns with second k + (t0ᵢ − t0ⱼ) of the other, so
/// one scan over the overlapping seconds, in the same float-difference /
/// double-square arithmetic, answers ViewProfile::ever_within() in ≤ 60
/// steps instead of its first-match search. A profile with gaps or
/// repeated timestamps falls back to ever_within() itself.
class PackedMembers {
 public:
  explicit PackedMembers(std::span<const vp::ViewProfile* const> members)
      : members_(members),
        boxes_(members.size()),
        ids_(members.size()),
        t0_(members.size()),
        contiguous_(members.size()),
        xs_(members.size() * kSeconds),
        ys_(members.size() * kSeconds),
        blooms_(members.size() * vp::kBloomBytes),
        probes_(members.size() * kProbeSlots) {}

  /// Packs members [lo, hi). Disjoint ranges may be packed concurrently;
  /// computes any probe table not yet memoized on its profile.
  void pack(std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const vp::ViewProfile& p = *members_[i];
      const auto digests = p.digests();
      boxes_[i] = padded_box(p);
      ids_[i] = p.vp_id();
      const TimeSec t0 = digests[0].time;
      bool contiguous =
          t0 <= std::numeric_limits<TimeSec>::max() - static_cast<TimeSec>(kSeconds - 1);
      for (std::size_t s = 0; s < kSeconds; ++s) {
        contiguous = contiguous && digests[s].time == t0 + static_cast<TimeSec>(s);
        xs_[i * kSeconds + s] = digests[s].loc_x;
        ys_[i * kSeconds + s] = digests[s].loc_y;
      }
      t0_[i] = t0;
      contiguous_[i] = contiguous;
      const auto& bits = p.neighbor_bloom().data();
      std::copy(bits.begin(), bits.end(), blooms_.data() + i * vp::kBloomBytes);
      std::uint16_t* probe = probes_.data() + i * kProbeSlots;
      for (const auto& positions : p.bloom_probes().at)
        probe = std::copy(positions.begin(), positions.end(), probe);
    }
  }

  /// The full viewlink predicate: bbox overlap → one-way Bloom pass →
  /// time-aligned proximity → Bloom pass back → distinct VP ids (the
  /// order of the reject shares in src/system/README.md).
  [[nodiscard]] bool linked(std::uint32_t i, std::uint32_t j) const {
    return boxes_overlap(boxes_[i], boxes_[j]) && heard(i, j) && near(i, j) &&
           heard(j, i) && ids_[i] != ids_[j];
  }

 private:
  static constexpr std::size_t kSeconds = kDigestsPerProfile;
  static constexpr double kRadiusSq = dsrc::kRadioRangeM * dsrc::kRadioRangeM;
  static constexpr std::size_t kHashes = vp::kBloomHashes;
  static constexpr std::size_t kProbeSlots = kSeconds * kHashes;
  /// Digests (Bloom pass) and seconds (proximity) tested between two
  /// early-exit branches: short branch-free runs, few mispredictions.
  static constexpr std::size_t kHeardChunk = 4;
  static constexpr std::size_t kNearChunk = 4;
  static_assert(kSeconds % kHeardChunk == 0);

  /// Does `listener`'s filter hold any of `speaker`'s 60 VDs? The bits
  /// ViewProfile::heard() tests, read from the packed arrays.
  [[nodiscard]] bool heard(std::uint32_t listener, std::uint32_t speaker) const {
    const std::uint8_t* bits = blooms_.data() + std::size_t{listener} * vp::kBloomBytes;
    const std::uint16_t* probe = probes_.data() + std::size_t{speaker} * kProbeSlots;
    for (std::size_t s = 0; s < kSeconds; s += kHeardChunk) {
      unsigned hit = 0;
      for (std::size_t d = s; d < s + kHeardChunk; ++d) {
        unsigned all = 1;
        for (std::size_t h = 0; h < kHashes; ++h) {
          const unsigned bit = probe[d * kHashes + h];
          all &= bits[bit >> 3] >> (bit & 7);
        }
        hit |= all;
      }
      if (hit & 1) return true;
    }
    return false;
  }

  /// members_[i]->ever_within(*members_[j], dsrc::kRadioRangeM), from the
  /// packed arrays when both profiles cover 60 contiguous seconds.
  [[nodiscard]] bool near(std::uint32_t i, std::uint32_t j) const {
    if (!contiguous_[i] || !contiguous_[j])
      return members_[i]->ever_within(*members_[j], dsrc::kRadioRangeM);
    // Second k of i is second k + shift of j; no overlap beyond |shift| ≥ 60.
    const TimeSec ti = t0_[i];
    const TimeSec tj = t0_[j];
    const auto ui = static_cast<std::uint64_t>(ti);  // unsigned: no overflow
    const auto uj = static_cast<std::uint64_t>(tj);
    const std::uint64_t apart = ti >= tj ? ui - uj : uj - ui;
    if (apart >= kSeconds) return false;
    const std::size_t skip_i = ti >= tj ? 0 : apart;
    const std::size_t skip_j = ti >= tj ? apart : 0;
    const std::size_t len = kSeconds - apart;
    const float* ax = xs_.data() + std::size_t{i} * kSeconds + skip_i;
    const float* ay = ys_.data() + std::size_t{i} * kSeconds + skip_i;
    const float* bx = xs_.data() + std::size_t{j} * kSeconds + skip_j;
    const float* by = ys_.data() + std::size_t{j} * kSeconds + skip_j;
    // Float difference, double square: ever_within()'s exact arithmetic.
    const auto within = [&](std::size_t k) {
      const double dx = ax[k] - bx[k];
      const double dy = ay[k] - by[k];
      return dx * dx + dy * dy <= kRadiusSq;
    };
    std::size_t k = 0;
    for (; k + kNearChunk <= len; k += kNearChunk) {
      bool hit = false;
      for (std::size_t c = k; c < k + kNearChunk; ++c) hit |= within(c);
      if (hit) return true;
    }
    for (; k < len; ++k)
      if (within(k)) return true;
    return false;
  }

  std::span<const vp::ViewProfile* const> members_;
  std::vector<geo::Rect> boxes_;
  std::vector<Id16> ids_;
  std::vector<TimeSec> t0_;
  std::vector<std::uint8_t> contiguous_;  ///< bytes, not vector<bool>: packed in parallel
  std::vector<float> xs_;                 ///< member-major, 60 per member
  std::vector<float> ys_;
  std::vector<std::uint8_t> blooms_;   ///< member-major Bloom bit arrays
  std::vector<std::uint16_t> probes_;  ///< member-major probe tables
};

// ── the all-pairs sweep ──────────────────────────────────────────────

/// Pair count below which one thread is always fastest.
constexpr std::size_t kParallelMinPairs = 2048;
/// Minimum pairs a sweep task must have to be worth a worker.
constexpr std::size_t kMinPairsPerTask = 4096;
/// Most upper-neighbor entries a sweep task reserves up front (16 MiB):
/// its whole share of the pair triangle while that is at most 4 Mi pairs
/// (a 5,800-member minute over 4 tasks), and no more on a 50k-member
/// minute, whose share would reserve 1.25 GB for a few thousand edges.
/// Past the reserve the list grows as a vector does.
constexpr std::size_t kMaxReservedNeighbors = std::size_t{1} << 22;

/// Anchor-range boundaries for the sweep over n members. Anchor i tests
/// the n − 1 − i pairs (i, j > i), so each of the `tasks` contiguous
/// ranges is balanced to ≈ 1/tasks of the pair triangle.
std::vector<std::uint32_t> triangle_bounds(std::size_t n, std::size_t tasks) {
  const std::size_t total = n * (n - 1) / 2;
  std::vector<std::uint32_t> bounds{0};
  std::size_t acc = 0;
  for (std::size_t i = 0; i < n && bounds.size() < tasks; ++i) {
    acc += n - 1 - i;
    if (acc * tasks >= total * bounds.size())
      bounds.push_back(static_cast<std::uint32_t>(i + 1));
  }
  while (bounds.size() <= tasks) bounds.push_back(static_cast<std::uint32_t>(n));
  return bounds;
}

/// The memo a build over `members` of `shard` reads and fills, with each
/// member's slot in `slots`; null (the build runs memo-off) when the
/// lineage has none and the budget cannot hold one. The first build of a lineage makes and
/// installs its memo under the cell's lock, so racing first builds share
/// one. The memo is never replaced: profiles uploaded after it was made
/// fall outside it and are always tested (a few percent of a swept
/// minute's members; see src/system/README.md).
std::shared_ptr<const ViewlinkMemo> memo_for_build(
    const index::TimeShard& shard, std::span<const vp::ViewProfile* const> members, std::vector<std::uint32_t>& slots) {
  index::TimeShard::ViewlinkMemoCell& cell = *shard.viewlink_memo;
  std::shared_ptr<const ViewlinkMemo> memo;
  {
    std::lock_guard lock(cell.mutex);
    if (cell.memo == nullptr) cell.memo = ViewlinkMemo::make(shard);
    memo = cell.memo;
  }
  if (memo == nullptr) return nullptr;
  memo->assign_slots(members, slots);
  return memo;
}

/// One sweep task's walk over a memo's verdict words, one anchor row
/// at a time. A pair of slots (a, b > a) whose tested bit is set is
/// answered from its linked bit; any other pair runs the kernel, and a
/// memo pair's two new bits are ORed into its word once per visit, when
/// the walk moves to another word — not at all for a word the walk found
/// fully tested. Pairs with a member outside the memo, and pairs whose
/// slots descend (members not in id order), run the kernel unrecorded.
class MemoCursor {
 public:
  /// With a null memo every pair runs the kernel.
  explicit MemoCursor(const ViewlinkMemo* memo) noexcept : memo_(memo) {}
  MemoCursor(const MemoCursor&) = delete;
  MemoCursor& operator=(const MemoCursor&) = delete;
  ~MemoCursor() { flush(); }

  /// Starts the row of anchor slot `a` (kNoSlot for a member outside).
  void anchor(std::uint32_t a) noexcept {
    anchor_ = memo_ == nullptr ? ViewlinkMemo::kNoSlot : a;
    if (anchor_ != ViewlinkMemo::kNoSlot) row_bit_ = memo_->row_bit(a);
  }

  /// The verdict of the anchor and slot `b`, from the memo or `kernel()`.
  template <class Kernel>
  bool linked(std::uint32_t b, const Kernel& kernel) {
    if (anchor_ >= b || b == ViewlinkMemo::kNoSlot) return kernel();
    const std::uint64_t bit = row_bit_ + 2 * std::uint64_t{b};
    const std::uint64_t word = bit / 64;
    const unsigned shift = static_cast<unsigned>(bit % 64);
    if (word != word_) {
      flush();
      word_ = word;
      bits_ = memo_->word(word).load(std::memory_order_relaxed);
    }
    const std::uint64_t verdict = bits_ >> shift;
    if (verdict & ViewlinkMemo::kTested) {
      ++memoized_;
      return (verdict & ViewlinkMemo::kLinked) != 0;
    }
    const bool linked = kernel();
    pending_ |= (linked ? ViewlinkMemo::kTested | ViewlinkMemo::kLinked
                        : ViewlinkMemo::kTested)
                << shift;
    return linked;
  }

  [[nodiscard]] std::uint64_t memoized() const noexcept { return memoized_; }

 private:
  void flush() noexcept {
    if (pending_ != 0) memo_->word(word_).fetch_or(pending_, std::memory_order_relaxed);
    pending_ = 0;
  }

  const ViewlinkMemo* memo_;
  std::uint32_t anchor_ = ViewlinkMemo::kNoSlot;
  std::uint64_t row_bit_ = 0;
  std::uint64_t word_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t bits_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t memoized_ = 0;
};

/// CSR assembly from the sweep's own rows: anchor i of task t kept
/// upper_degree[i] linked neighbors j > i, ascending, stored back to back
/// in upper[t] for the anchors bounds[t] … bounds[t + 1] − 1. Row i is
/// its lower neighbors (the anchors h < i that kept i) followed by its
/// upper ones. Count the lower degrees, prefix-sum the offsets, then,
/// visiting anchors in ascending order, copy each anchor's list into the
/// tail of its row and scatter the anchor into the lower part of every
/// row it lists — so each row comes out ascending with no sort.
CsrGraph csr_from_upper_rows(std::size_t n, std::span<const std::uint32_t> bounds,
                             std::span<const std::vector<std::uint32_t>> upper,
                             std::span<const std::uint32_t> upper_degree) {
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const auto& list : upper)
    for (const std::uint32_t j : list) ++offsets[j + 1];
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i] + upper_degree[i];
  std::vector<std::uint32_t> edges(offsets[n]);
  std::vector<std::size_t> lower_end(offsets.begin(), offsets.end() - 1);
  for (std::size_t t = 0; t < upper.size(); ++t) {
    const std::uint32_t* list = upper[t].data();
    for (std::uint32_t i = bounds[t]; i < bounds[t + 1]; ++i) {
      const std::uint32_t* list_end = list + upper_degree[i];
      std::copy(list, list_end, edges.data() + (offsets[i + 1] - upper_degree[i]));
      for (; list != list_end; ++list) edges[lower_end[*list]++] = i;
    }
  }
  return CsrGraph(std::move(offsets), std::move(edges));
}

}  // namespace

Viewmap ViewmapBuilder::build_from_members(
    std::vector<const vp::ViewProfile*> members, std::vector<bool> trusted,
    TimeSec unit_time, std::shared_ptr<const index::TimeShard> pinned) const {
  const std::size_t n = members.size();
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("ViewmapBuilder: too many members");
  const std::size_t all_pairs = n * (n - 1) / 2;
  std::uint64_t memoized = 0;
  std::vector<std::uint32_t> bounds;
  std::vector<std::vector<std::uint32_t>> upper;  // one per sweep task
  std::vector<std::uint32_t> upper_degree(n);
  {
    obs::SpanScope obs_span("edge_build");
    std::vector<std::uint32_t> slots(n, ViewlinkMemo::kNoSlot);
    const std::shared_ptr<const ViewlinkMemo> memo =
        pinned == nullptr ? nullptr : memo_for_build(*pinned, members, slots);
    PackedMembers packed(members);  // freed before CSR assembly
    const std::size_t tasks =
        all_pairs < kParallelMinPairs
            ? 1
            : std::min<std::size_t>(pool_.width(), all_pairs / kMinPairsPerTask + 1);

    // Pack in even member ranges (cold profiles hash their probe tables
    // here), then sweep every pair (i, j > i) in contiguous anchor ranges
    // balanced by pair count. A pair of two memo slots takes its verdict
    // from the memo when an earlier build tested it; every other pair
    // runs the kernel. Each task keeps, per anchor, its linked upper
    // neighbors in ascending order: their count in upper_degree[i], the
    // lists back to back in upper[t] — what CSR assembly reads.
    pool_.parallel_for(tasks, [&](std::size_t t) {
      packed.pack(n * t / tasks, n * (t + 1) / tasks);
    });
    bounds = triangle_bounds(n, tasks);
    upper.resize(tasks);
    std::vector<std::uint64_t> partial_memoized(tasks, 0);
    pool_.parallel_for(tasks, [&](std::size_t t) {
      // Reserved up front, so a dense minute's list never regrows.
      std::size_t pairs = 0;
      for (std::uint32_t i = bounds[t]; i < bounds[t + 1]; ++i) pairs += n - 1 - i;
      upper[t].reserve(std::min(pairs, kMaxReservedNeighbors));
      // Each row's candidates are written unconditionally and kept by
      // advancing the count: no branch on the (unpredictable) verdict.
      std::vector<std::uint32_t> row(n);
      MemoCursor cursor(memo.get());
      for (std::uint32_t i = bounds[t]; i < bounds[t + 1]; ++i) {
        cursor.anchor(slots[i]);
        std::uint32_t kept = 0;
        for (std::uint32_t j = i + 1; j < n; ++j) {
          row[kept] = j;
          kept += cursor.linked(slots[j], [&] { return packed.linked(i, j); });
        }
        upper_degree[i] = kept;
        upper[t].insert(upper[t].end(), row.begin(), row.begin() + std::ptrdiff_t{kept});
      }
      partial_memoized[t] = cursor.memoized();
    });
    for (const std::uint64_t m : partial_memoized) memoized += m;
  }

  CsrGraph graph = [&] {
    obs::SpanScope obs_span("csr_build");
    return csr_from_upper_rows(n, bounds, upper, upper_degree);
  }();
  return Viewmap(std::move(members), std::move(trusted), std::move(graph), unit_time,
                 std::move(pinned), {all_pairs - memoized, memoized});
}

Viewmap ViewmapBuilder::build_from_members_reference(
    std::vector<const vp::ViewProfile*> members, std::vector<bool> trusted,
    TimeSec unit_time, std::shared_ptr<const index::TimeShard> pinned) const {
  // Every O(n²) pair through the profiles' own predicates — no packing,
  // no threads — so this checks the packed kernel instead of sharing it.
  // Only the bbox prune is common to both builders.
  const std::size_t n = members.size();
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("ViewmapBuilder: too many members");
  std::vector<geo::Rect> boxes(n);
  for (std::size_t i = 0; i < n; ++i) boxes[i] = padded_box(*members[i]);
  std::vector<std::vector<std::uint32_t>> adjacency(n);
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (!boxes_overlap(boxes[i], boxes[j])) continue;
      const vp::ViewProfile& a = *members[i];
      const vp::ViewProfile& b = *members[j];
      if (a.vp_id() != b.vp_id() && a.heard(b) && a.ever_within(b, dsrc::kRadioRangeM) &&
          b.heard(a)) {
        adjacency[i].push_back(j);
        adjacency[j].push_back(i);
      }
    }
  return Viewmap(std::move(members), std::move(trusted), CsrGraph::from_adjacency(adjacency),
                 unit_time, std::move(pinned));
}

}  // namespace viewmap::sys
