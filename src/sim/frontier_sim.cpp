#include "src/sim/frontier_sim.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "src/support/assert.h"
#include "src/support/rng.h"

namespace dynbcast {

namespace {

/// Counting sort of an arc stream into out's CSR, keyed by the arc's
/// first id. forEachArc(emit) must emit the same (key, value) pairs in
/// the same order each time: it runs once to size the rows and once to
/// fill them. Pairs with key == value (self-loops) are dropped.
template <typename ForEachArc>
void fillCsr(std::size_t n, SparseRound& out, ForEachArc&& forEachArc) {
  out.n = n;
  out.sameAsPrevious = false;
  std::vector<std::uint32_t>& offsets = out.offsets;
  offsets.assign(n + 1, 0);
  forEachArc([&](std::uint32_t key, std::uint32_t value) {
    DYNBCAST_ASSERT_MSG(key < n && value < n, "sparse arc out of range");
    if (key != value) ++offsets[key + 1];
  });
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  out.targets.resize(offsets[n]);
  forEachArc([&](std::uint32_t key, std::uint32_t value) {
    if (key != value) out.targets[offsets[key]++] = value;
  });
  // The fill advanced each row start to its end, i.e. the next row's
  // start; shift back by one row.
  for (std::size_t i = n; i > 0; --i) offsets[i] = offsets[i - 1];
  offsets[0] = 0;
}

}  // namespace

SparseRound SparseRound::fromArcs(std::size_t n, const std::vector<Arc>& arcs) {
  SparseRound out;
  fillCsr(n, out, [&](auto&& emit) {
    for (const auto& [src, dst] : arcs) emit(src, dst);
  });
  return out;
}

SparseRound SparseRound::fromGraph(const BitMatrix& g) {
  SparseRound out;
  out.n = g.dim();
  out.offsets.reserve(out.n + 1);
  out.offsets.push_back(0);
  for (std::size_t x = 0; x < out.n; ++x) {
    const DynBitset& row = g.row(x);
    const std::uint64_t* words = row.wordData();
    for (std::size_t wi = 0; wi < row.wordCount(); ++wi) {
      std::uint64_t w = words[wi];
      while (w != 0) {
        const std::size_t y =
            wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
        w &= w - 1;
        if (y != x) out.targets.push_back(static_cast<std::uint32_t>(y));
      }
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.targets.size()));
  }
  return out;
}

FrontierSim::FrontierSim(std::size_t n) : n_(n) {
  DYNBCAST_ASSERT_MSG(n >= 1, "FrontierSim needs at least one process");
  DYNBCAST_ASSERT_MSG(
      n < std::numeric_limits<std::uint32_t>::max(),
      "FrontierSim stores node ids as 32-bit values");
  rows_.resize(n_);
  coverCount_.resize(n_);
  delta_.resize(n_);
  deltaFull_.resize(n_, 0);
  addBuf_.resize(n_);
  pendingFull_.resize(n_, 0);
  reset();
}

void FrontierSim::reset() {
  round_ = 0;
  fullCovers_ = 0;
  fullRows_ = 0;
  totalOnes_ = n_;
  for (std::size_t y = 0; y < n_; ++y) {
    rows_[y].full = n_ == 1;
    rows_[y].ids.clear();
    if (n_ > 1) rows_[y].ids.push_back(static_cast<std::uint32_t>(y));
    delta_[y].clear();
    deltaFull_[y] = 0;
  }
  std::fill(coverCount_.begin(), coverCount_.end(), std::uint32_t{1});
  if (n_ == 1) {
    fullCovers_ = 1;
    fullRows_ = 1;
  }
  deltaTouched_.clear();
}

void FrontierSim::bumpCoverage(std::uint32_t x) {
  if (++coverCount_[x] == n_) ++fullCovers_;
}

void FrontierSim::collapseToFull(std::size_t y) {
  Row& row = rows_[y];
  // Everything not yet in Heard(y) is inserted now: walk the complement
  // of the sorted id list once (this happens at most once per node).
  std::size_t i = 0;
  for (std::uint32_t x = 0; x < n_; ++x) {
    if (i < row.ids.size() && row.ids[i] == x) {
      ++i;
      continue;
    }
    bumpCoverage(x);
  }
  totalOnes_ += n_ - row.ids.size();
  row.full = true;
  ++fullRows_;
  row.ids.clear();
  row.ids.shrink_to_fit();
  deltaFull_[y] = 1;
  delta_[y].clear();
  deltaTouched_.push_back(static_cast<std::uint32_t>(y));
}

void FrontierSim::applyEdges(const SparseRound& round) {
  DYNBCAST_ASSERT_MSG(round.n == n_,
                      "sparse round has the wrong process count");
  // A "same as previous" round may only follow an applied round; the
  // delta path needs last round's additions.
  const bool usesDelta = round.sameAsPrevious && round_ > 0;

  DYNBCAST_ASSERT_MSG(round.offsets.size() == n_ + 1,
                      "sparse round has no row offsets");
  // Bucket arcs by destination: the transpose of the source-major CSR.
  fillCsr(n_, inArcs_, [&](auto&& emit) {
    for (std::uint32_t x = 0; x < n_; ++x) {
      for (std::uint32_t k = round.offsets[x]; k < round.offsets[x + 1]; ++k) {
        emit(round.targets[k], x);
      }
    }
  });

  // Pass 1: read-only over all rows — compute each destination's
  // additions from start-of-round source sets (or last-round deltas when
  // the arc set persisted).
  touched_.clear();
  for (std::size_t y = 0; y < n_; ++y) {
    const std::size_t begin = inArcs_.offsets[y];
    const std::size_t end = inArcs_.offsets[y + 1];
    pendingFull_[y] = 0;
    if (begin == end || rows_[y].full) continue;
    bool srcFull = false;
    candidateBuf_.clear();
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t x = inArcs_.targets[k];
      if (usesDelta) {
        if (deltaFull_[x]) {
          srcFull = true;
          break;
        }
        candidateBuf_.insert(candidateBuf_.end(), delta_[x].begin(),
                             delta_[x].end());
      } else {
        if (rows_[x].full) {
          srcFull = true;
          break;
        }
        candidateBuf_.insert(candidateBuf_.end(), rows_[x].ids.begin(),
                             rows_[x].ids.end());
      }
    }
    if (srcFull) {
      // A full source hands over everything: y collapses in pass 2.
      pendingFull_[y] = 1;
      touched_.push_back(static_cast<std::uint32_t>(y));
      continue;
    }
    if (candidateBuf_.empty()) continue;
    std::sort(candidateBuf_.begin(), candidateBuf_.end());
    candidateBuf_.erase(
        std::unique(candidateBuf_.begin(), candidateBuf_.end()),
        candidateBuf_.end());
    // candidates \ Heard(y), both sorted.
    const std::vector<std::uint32_t>& ids = rows_[y].ids;
    std::vector<std::uint32_t>& adds = addBuf_[y];
    adds.clear();
    std::size_t i = 0;
    for (const std::uint32_t c : candidateBuf_) {
      while (i < ids.size() && ids[i] < c) ++i;
      if (i < ids.size() && ids[i] == c) continue;
      adds.push_back(c);
    }
    if (!adds.empty()) touched_.push_back(static_cast<std::uint32_t>(y));
  }

  // Pass 2: commit. Previous-round deltas were consumed above; recycle
  // them before recording this round's.
  for (const std::uint32_t y : deltaTouched_) {
    delta_[y].clear();
    deltaFull_[y] = 0;
  }
  deltaTouched_.clear();
  for (const std::uint32_t y : touched_) {
    if (pendingFull_[y]) {
      collapseToFull(y);
      continue;
    }
    std::vector<std::uint32_t>& adds = addBuf_[y];
    std::vector<std::uint32_t>& ids = rows_[y].ids;
    mergeBuf_.clear();
    mergeBuf_.reserve(ids.size() + adds.size());
    std::merge(ids.begin(), ids.end(), adds.begin(), adds.end(),
               std::back_inserter(mergeBuf_));
    ids.swap(mergeBuf_);
    for (const std::uint32_t x : adds) bumpCoverage(x);
    totalOnes_ += adds.size();
    if (ids.size() == n_) {
      rows_[y].full = true;
      ++fullRows_;
      ids.clear();
      ids.shrink_to_fit();
    }
    delta_[y].swap(adds);
    deltaTouched_.push_back(y);
  }
  ++round_;
}

void FrontierSim::applyTree(const RootedTree& tree) {
  DYNBCAST_ASSERT_MSG(tree.size() == n_, "tree has the wrong size");
  fillCsr(n_, scratchRound_, [&](auto&& emit) {
    for (std::size_t v = 0; v < n_; ++v) {
      emit(static_cast<std::uint32_t>(tree.parent(v)),
           static_cast<std::uint32_t>(v));
    }
  });
  applyEdges(scratchRound_);
}

void FrontierSim::applyGraph(const BitMatrix& g) {
  DYNBCAST_ASSERT_MSG(g.dim() == n_, "graph has the wrong dimension");
  scratchRound_ = SparseRound::fromGraph(g);
  applyEdges(scratchRound_);
}

bool FrontierSim::hasHeard(std::size_t y, std::size_t x) const {
  DYNBCAST_ASSERT_MSG(y < n_ && x < n_, "process id out of range");
  const Row& row = rows_[y];
  if (row.full) return true;
  return std::binary_search(row.ids.begin(), row.ids.end(),
                            static_cast<std::uint32_t>(x));
}

DynBitset FrontierSim::heardBitset(std::size_t y) const {
  DYNBCAST_ASSERT_MSG(y < n_, "process id out of range");
  DynBitset out(n_);
  if (rows_[y].full) {
    out.setAll();
    return out;
  }
  for (const std::uint32_t x : rows_[y].ids) out.set(x);
  return out;
}

DynBitset FrontierSim::broadcasters() const {
  DynBitset out(n_);
  for (std::size_t x = 0; x < n_; ++x) {
    if (coverCount_[x] == n_) out.set(x);
  }
  return out;
}

RoundMetrics FrontierSim::metrics() const {
  RoundMetrics m;
  m.round = round_;
  m.totalEdges = totalOnes_;
  m.minHeard = n_;
  m.maxHeard = 0;
  for (std::size_t y = 0; y < n_; ++y) {
    const std::size_t count = heardCount(y);
    m.minHeard = std::min(m.minHeard, count);
    m.maxHeard = std::max(m.maxHeard, count);
  }
  m.avgHeard = static_cast<double>(totalOnes_) / static_cast<double>(n_);
  m.maxCoverage = 0;
  for (std::size_t x = 0; x < n_; ++x) {
    m.maxCoverage = std::max<std::size_t>(m.maxCoverage, coverCount_[x]);
  }
  m.completeRows = fullCovers_;
  m.completeCols = fullRows_;
  return m;
}

// ---------------------------------------------------------------------------
// t*-only mode
// ---------------------------------------------------------------------------

namespace {

/// Serves round t (1-based) from a contiguous cache when it fits the arc
/// budget, else by replaying the source from reset() — the latter keeps
/// the mode exact with O(n) memory at the price of O(t) regeneration per
/// backward step. The source writes each new round straight into its
/// cache slot; rounds past the budget go to one reused spare slot.
class RoundReplayer {
 public:
  RoundReplayer(std::size_t n, SparseRoundSource& source,
                std::size_t budgetArcs)
      : n_(n), source_(source), budgetArcs_(budgetArcs) {}

  const SparseRound& round(std::size_t t) {
    DYNBCAST_ASSERT_MSG(t >= 1, "rounds are 1-based");
    if (t <= cache_.size()) return cache_[t - 1];
    if (generated_ >= t) {
      source_.reset();
      generated_ = 0;
    }
    while (generated_ < t) {
      const bool toCache = caching_ && generated_ == cache_.size();
      SparseRound& slot = toCache ? cache_.emplace_back() : spare_;
      source_.next(slot);
      DYNBCAST_ASSERT_MSG(slot.n == n_ && slot.offsets.size() == n_ + 1,
                          "round source emitted a malformed round");
      ++generated_;
      ++totalGenerated_;
      if (!toCache) continue;
      if (cachedArcs_ + slot.arcCount() <= budgetArcs_) {
        cachedArcs_ += slot.arcCount();
      } else {
        spare_ = std::move(slot);
        cache_.pop_back();
        caching_ = false;
      }
    }
    return t <= cache_.size() ? cache_[t - 1] : spare_;
  }

  [[nodiscard]] std::size_t totalGenerated() const noexcept {
    return totalGenerated_;
  }

 private:
  std::size_t n_;
  SparseRoundSource& source_;
  std::size_t budgetArcs_;
  std::vector<SparseRound> cache_;
  SparseRound spare_;
  std::size_t cachedArcs_ = 0;
  bool caching_ = true;
  std::size_t generated_ = 0;       // rounds pulled since the last reset
  std::size_t totalGenerated_ = 0;  // lifetime next() calls (diagnostics)
};

/// k distinct ids from [0, n) (Floyd's sampling when k < n).
std::vector<std::uint32_t> pickDistinct(std::size_t n, std::size_t k,
                                        Rng& rng) {
  std::vector<std::uint32_t> out;
  out.reserve(k);
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return out;
  }
  std::unordered_set<std::uint32_t> chosen;
  for (std::size_t j = n - k; j < n; ++j) {
    const auto r = static_cast<std::uint32_t>(rng.uniform(j + 1));
    if (chosen.insert(r).second) {
      out.push_back(r);
    } else {
      chosen.insert(static_cast<std::uint32_t>(j));
      out.push_back(static_cast<std::uint32_t>(j));
    }
  }
  return out;
}

/// Forward word-propagation of `sources` (bit j ↔ sources[j]) over
/// rounds [1, limit]. Returns the first round at which some source has
/// been heard by all n nodes, or 0 when none completes. `cover` holds
/// the final words either way.
std::size_t forwardCompletionRound(std::size_t n,
                                   const std::vector<std::uint32_t>& sources,
                                   std::size_t limit, RoundReplayer& rounds,
                                   std::vector<std::uint64_t>& cover,
                                   std::vector<std::uint64_t>& prev) {
  std::fill(cover.begin(), cover.end(), std::uint64_t{0});
  std::vector<std::uint32_t> count(sources.size(), 1);
  for (std::size_t j = 0; j < sources.size(); ++j) {
    cover[sources[j]] |= std::uint64_t{1} << j;
  }
  for (std::size_t t = 1; t <= limit; ++t) {
    const SparseRound& g = rounds.round(t);
    std::copy(cover.begin(), cover.end(), prev.begin());
    bool done = false;
    for (std::size_t x = 0; x < n; ++x) {
      const std::uint64_t px = prev[x];
      if (px == 0) continue;  // x has no sampled source to pass on
      for (std::uint32_t k = g.offsets[x]; k < g.offsets[x + 1]; ++k) {
        const std::uint32_t y = g.targets[k];
        std::uint64_t nb = px & ~cover[y];
        if (nb == 0) continue;
        cover[y] |= nb;
        while (nb != 0) {
          const auto j = static_cast<std::size_t>(std::countr_zero(nb));
          nb &= nb - 1;
          if (++count[j] == n) done = true;
        }
      }
    }
    if (done) return t;
  }
  return 0;
}

/// Backward word-propagation: afterwards back[x] has bit j iff x reaches
/// targets[j] under G_1 ∘ … ∘ G_t (self-loops implicit).
void backwardReach(std::size_t t, const std::vector<std::uint32_t>& targets,
                   RoundReplayer& rounds, std::vector<std::uint64_t>& back,
                   std::vector<std::uint64_t>& prev) {
  std::fill(back.begin(), back.end(), std::uint64_t{0});
  for (std::size_t j = 0; j < targets.size(); ++j) {
    back[targets[j]] |= std::uint64_t{1} << j;
  }
  for (std::size_t s = t; s >= 1; --s) {
    const SparseRound& g = rounds.round(s);
    std::copy(back.begin(), back.end(), prev.begin());
    for (std::size_t x = 0; x < back.size(); ++x) {
      std::uint64_t reach = 0;
      for (std::uint32_t k = g.offsets[x]; k < g.offsets[x + 1]; ++k) {
        reach |= prev[g.targets[k]];
      }
      back[x] |= reach;
    }
  }
}

/// Exact probe of the monotone predicate "broadcast done by round t":
/// sampled backward filter over-approximates the broadcaster set
/// (anything heard by all n nodes is heard by the sampled targets), and
/// forward certification of candidate batches settles it. When a batch
/// fails, the nodes it provably missed become the next filter's targets,
/// so every iteration removes at least the batch — termination is
/// structural, and the refined targets are the actual laggards.
bool testRound(std::size_t n, std::size_t t, std::size_t samples,
               RoundReplayer& rounds, Rng& rng,
               std::vector<std::uint64_t>& cover,
               std::vector<std::uint64_t>& prev,
               std::vector<std::uint64_t>& back) {
  std::vector<std::uint32_t> targets = pickDistinct(n, samples, rng);
  backwardReach(t, targets, rounds, back, prev);
  std::uint64_t mask =
      targets.size() == 64
          ? ~std::uint64_t{0}
          : (std::uint64_t{1} << targets.size()) - 1;
  std::vector<std::uint32_t> candidates;
  for (std::size_t x = 0; x < n; ++x) {
    if (back[x] == mask) candidates.push_back(static_cast<std::uint32_t>(x));
  }
  std::vector<std::uint32_t> batch;
  while (!candidates.empty()) {
    const std::size_t batchSize = std::min<std::size_t>(64, candidates.size());
    batch.assign(candidates.begin(), candidates.begin() + batchSize);
    if (forwardCompletionRound(n, batch, t, rounds, cover, prev) != 0) {
      return true;
    }
    // Each batch member missed someone; collect one miss per member.
    std::vector<std::uint32_t> missed;
    std::uint64_t unassigned =
        batchSize == 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << batchSize) - 1;
    for (std::size_t y = 0; y < n && unassigned != 0; ++y) {
      const std::uint64_t hit = ~cover[y] & unassigned;
      if (hit == 0) continue;
      missed.push_back(static_cast<std::uint32_t>(y));
      unassigned &= ~hit;
    }
    DYNBCAST_ASSERT_MSG(unassigned == 0,
                        "failed batch must miss at least one node each");
    backwardReach(t, missed, rounds, back, prev);
    mask = missed.size() == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << missed.size()) - 1;
    std::vector<std::uint32_t> next;
    for (std::size_t i = batchSize; i < candidates.size(); ++i) {
      if (back[candidates[i]] == mask) next.push_back(candidates[i]);
    }
    candidates.swap(next);
  }
  return false;
}

}  // namespace

FrontierTStarResult runFrontierTStar(std::size_t n, SparseRoundSource& source,
                                     const FrontierTStarOptions& options) {
  DYNBCAST_ASSERT_MSG(n >= 1, "need at least one process");
  FrontierTStarResult result;
  if (n == 1) {
    result.completed = true;
    return result;
  }
  source.reset();
  RoundReplayer rounds(n, source, options.cacheBudgetArcs);
  std::size_t samples = std::clamp<std::size_t>(options.samples, 1, 64);
  if (n <= 64) samples = n;
  Rng rng(options.sampleSeed ^ 0x5bf03635f0a3d7c5ull);
  const std::vector<std::uint32_t> sources =
      pickDistinct(n, samples, rng);
  std::vector<std::uint64_t> cover(n), prev(n);
  const std::size_t upper = forwardCompletionRound(
      n, sources, options.maxRounds, rounds, cover, prev);
  if (samples == n) {
    // Every node was a forward source: the scan itself is exact.
    result.rounds = upper != 0 ? upper : options.maxRounds;
    result.completed = upper != 0;
    result.roundsGenerated = rounds.totalGenerated();
    return result;
  }
  std::vector<std::uint64_t> back(n);
  std::size_t hi = upper;
  if (upper == 0) {
    // No sampled source finished; an unsampled one still might have.
    result.certified = true;
    if (!testRound(n, options.maxRounds, samples, rounds, rng, cover, prev,
                   back)) {
      result.rounds = options.maxRounds;
      result.completed = false;
      result.roundsGenerated = rounds.totalGenerated();
      return result;
    }
    hi = options.maxRounds;
  }
  // Binary search the monotone completion predicate; hi is known-true.
  std::size_t lo = 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    result.certified = true;
    if (testRound(n, mid, samples, rounds, rng, cover, prev, back)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.rounds = hi;
  result.completed = true;
  result.roundsGenerated = rounds.totalGenerated();
  return result;
}

}  // namespace dynbcast
