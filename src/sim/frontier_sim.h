// FrontierSim: the sparse simulation backend.
//
// The dense BroadcastSim stores the heard-of matrix as n bitset rows —
// O(n²) bits per instance, which caps scenarios near n ≈ 10⁴. This file
// is the other half of the backend pair: rounds are source-major CSR
// adjacency (SparseRound: n + 1 row offsets plus one 4-byte target per
// arc), state is per-node sorted id vectors, and broadcast
// advances as frontier propagation — each round costs O(Σ_{(x,y)∈G}
// |Heard(x)|) set-merge work instead of O(n²/64) bit-ops, which wins
// exactly when the heard sets (or the round graphs) are sparse.
//
// Two layers live here, both EXACT — neither approximates t* or heard
// counts, so the differential suite can demand bit-for-bit agreement
// with BroadcastSim:
//
//   * FrontierSim — a full-state engine satisfying the SimBackend
//     concept (src/sim/sim_backend.h; conformance is static_asserted in
//     tests), plus applyEdges and metrics. Completion is incremental:
//     per-node
//     coverage counters c_x = |{y : x ∈ Heard(y)}| are bumped O(1) per
//     insertion (the heard-of state is monotone, so insertions are
//     permanent), making broadcastDone() O(1). Rows collapse to an
//     implicit "full" representation once |Heard(y)| = n, so the
//     near-completion tail is cheap.
//
//   * runFrontierTStar — a t*-only mode that never stores heard sets at
//     all. Forward word-parallel propagation of ≤64 sampled sources
//     (one uint64 per node) yields an upper bound U on t*; binary
//     search over the monotone predicate "⋂_y Heard_t(y) ≠ ∅" then
//     pins t* exactly, with each probe answered by a backward
//     word-parallel over-approximation (candidates reaching all sampled
//     targets ⊇ the true broadcasters) refined by forward certification
//     of candidate batches. Memory is O(n + cached round arcs), and each
//     round is generated straight into its cache slot, so a cached arc
//     costs 4 bytes and is stored once: this is what unlocks n = 10⁶.
//
// Layering: sim depends only on graph/tree/support, so round sequences
// arrive through the SparseRoundSource interface; the DynamicsModel
// adapter lives in src/dynamics/dynamics.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/bitmatrix.h"
#include "src/sim/metrics.h"
#include "src/support/bitset.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

/// One round's communication graph as a source-major CSR: the arcs out
/// of x are (x, targets[k]) for k in [offsets[x], offsets[x + 1]), and
/// each means "the target hears x this round". Self-loops are implicit
/// (the model never forgets) and never stored. Targets within a row need
/// not be sorted or distinct; every consumer is order-insensitive.
struct SparseRound {
  using Arc = std::pair<std::uint32_t, std::uint32_t>;  ///< (src, dst)

  std::size_t n = 0;
  /// True when this round's arc set is identical to the previous round's
  /// (e.g. t-interval holding a tree for T rounds). FrontierSim then
  /// propagates only last-round deltas along each arc — sound because a
  /// persisting arc (x, y) already delivered Heard_{t-1}(x) to y.
  bool sameAsPrevious = false;
  /// n + 1 ascending row starts; offsets[n] == targets.size().
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> targets;

  [[nodiscard]] std::size_t arcCount() const noexcept {
    return targets.size();
  }

  /// Counting-sort builder for producers that emit arcs in any order
  /// (t-interval trees, hub arcs, tests): rows keep their arcs in input
  /// order; self-loops are dropped.
  [[nodiscard]] static SparseRound fromArcs(std::size_t n,
                                            const std::vector<Arc>& arcs);

  /// The off-diagonal arcs of a dense graph, rows ascending.
  [[nodiscard]] static SparseRound fromGraph(const BitMatrix& g);

  bool operator==(const SparseRound&) const = default;
};

/// A replayable stream of round graphs for the t*-only mode. reset()
/// must rewind to round 0 so that the next() sequence replays exactly —
/// the same contract DynamicsModel::reset() already has.
class SparseRoundSource {
 public:
  virtual ~SparseRoundSource() = default;
  virtual void reset() = 0;
  /// Writes the next round's graph into `out`, replacing its contents
  /// (its buffers may be reused). The t*-mode passes its cache slot, so
  /// a cached round is generated in place and never copied.
  virtual void next(SparseRound& out) = 0;
};

/// Exact sparse mirror of BroadcastSim (see file comment).
class FrontierSim {
 public:
  explicit FrontierSim(std::size_t n);

  [[nodiscard]] std::size_t processCount() const noexcept { return n_; }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  /// One synchronous round along a rooted tree (parent → child arcs,
  /// self-loops implicit) — the adversary-driven entry point.
  void applyTree(const RootedTree& tree);

  /// One round along an arbitrary reflexive graph; dense convenience for
  /// cross-validation (extracts the CSR, then applyEdges).
  void applyGraph(const BitMatrix& g);

  /// One round along an explicit CSR round — the native sparse path.
  void applyEdges(const SparseRound& round);

  /// |Heard(y)|; O(1).
  [[nodiscard]] std::size_t heardCount(std::size_t y) const noexcept {
    return rows_[y].full ? n_ : rows_[y].ids.size();
  }

  /// x ∈ Heard(y)? O(log |Heard(y)|).
  [[nodiscard]] bool hasHeard(std::size_t y, std::size_t x) const;

  /// Heard(y) materialized as a bitset (tests / inspection).
  [[nodiscard]] DynBitset heardBitset(std::size_t y) const;

  /// |{y : x ∈ Heard(y)}| — how many processes x has reached; O(1).
  [[nodiscard]] std::size_t coverage(std::size_t x) const noexcept {
    return coverCount_[x];
  }

  /// True when some process has been heard by everyone (t* reached);
  /// O(1) via the maintained full-coverage counter.
  [[nodiscard]] bool broadcastDone() const noexcept {
    return fullCovers_ != 0;
  }

  /// True when everyone has heard of everyone; O(1).
  [[nodiscard]] bool gossipDone() const noexcept { return fullRows_ == n_; }

  /// {x : coverage(x) == n} materialized as a bitset.
  [[nodiscard]] DynBitset broadcasters() const;

  /// Same RoundMetrics as BroadcastSim::metrics(), from the maintained
  /// counters — O(n), no matrix walk.
  [[nodiscard]] RoundMetrics metrics() const;

  /// Returns to round 0 (identity state).
  void reset();

 private:
  /// One heard set: sorted ids, or an implicit full set once
  /// |Heard(y)| = n (ids are then released).
  struct Row {
    std::vector<std::uint32_t> ids;
    bool full = false;
  };

  void bumpCoverage(std::uint32_t x);
  void collapseToFull(std::size_t y);

  std::size_t n_;
  std::size_t round_ = 0;
  std::vector<Row> rows_;
  /// coverCount_[x] == |{y : x ∈ Heard(y)}|; insertions are permanent,
  /// so each costs one increment.
  std::vector<std::uint32_t> coverCount_;
  std::size_t fullCovers_ = 0;  ///< |{x : coverCount_[x] == n}|
  std::size_t fullRows_ = 0;    ///< |{y : Heard(y) full}|
  std::size_t totalOnes_ = 0;   ///< Σ_y |Heard(y)|

  /// Additions of the most recent round, consumed by the
  /// sameAsPrevious delta path. deltaFull_[y] marks "y's delta is its
  /// whole (now full) set".
  std::vector<std::vector<std::uint32_t>> delta_;
  std::vector<char> deltaFull_;
  std::vector<std::uint32_t> deltaTouched_;

  // Reused per-round scratch (allocation-free after warmup). inArcs_ is
  // the round transposed: row y lists the sources y hears.
  SparseRound inArcs_;
  std::vector<std::uint32_t> candidateBuf_;
  std::vector<std::uint32_t> mergeBuf_;
  std::vector<std::vector<std::uint32_t>> addBuf_;
  std::vector<std::uint32_t> touched_;
  std::vector<char> pendingFull_;
  SparseRound scratchRound_;
};

/// Options for the t*-only mode. Every field except maxRounds affects
/// performance only — the returned rounds/completed are exact for any
/// setting.
struct FrontierTStarOptions {
  /// Stall cap: rounds is reported as maxRounds with completed == false
  /// when broadcast does not finish within it.
  std::size_t maxRounds = 0;
  /// Seeds the (performance-only) choice of sampled sources/targets.
  std::uint64_t sampleSeed = 0;
  /// Sampled forward sources / backward targets, clamped to [1, 64].
  std::size_t samples = 64;
  /// Round-graph cache budget in arcs (4 bytes each, plus 4(n + 1) bytes
  /// of row offsets per cached round). Beyond it the binary-search probes
  /// replay rounds through source.reset() instead — slower, still exact.
  std::size_t cacheBudgetArcs = std::size_t(1) << 27;
};

struct FrontierTStarResult {
  std::size_t rounds = 0;  ///< t* when completed, else maxRounds
  bool completed = false;
  /// Diagnostics: total source.next() calls, and whether the exact
  /// certification pass ran (it is skipped when every node is sampled).
  std::size_t roundsGenerated = 0;
  bool certified = false;
};

/// Computes t* for the round sequence of `source` without materializing
/// heard sets: O(n) words of state plus the round cache. Exact — see the
/// file comment for the sampling + certification argument.
[[nodiscard]] FrontierTStarResult runFrontierTStar(
    std::size_t n, SparseRoundSource& source,
    const FrontierTStarOptions& options);

}  // namespace dynbcast
