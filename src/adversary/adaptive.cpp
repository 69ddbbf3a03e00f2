#include "src/adversary/adaptive.h"

#include <algorithm>
#include <numeric>

#include "src/support/assert.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {

std::vector<std::size_t> coverageCounts(const BroadcastSim& state) {
  const std::size_t n = state.processCount();
  std::vector<std::size_t> coverage(n, 0);
  for (std::size_t y = 0; y < n; ++y) {
    const DynBitset& h = state.heardBy(y);
    for (std::size_t x = h.findFirst(); x < n; x = h.findNext(x + 1)) {
      ++coverage[x];
    }
  }
  return coverage;
}

std::vector<std::size_t> identityOrder(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

std::vector<std::size_t> topLeaders(const std::vector<std::size_t>& coverage,
                                    std::size_t depth) {
  std::vector<std::size_t> ids = identityOrder(coverage.size());
  const std::size_t take = std::min(depth, ids.size());
  std::partial_sort(ids.begin(),
                    ids.begin() + static_cast<std::ptrdiff_t>(take),
                    ids.end(), [&](std::size_t a, std::size_t b) {
                      if (coverage[a] != coverage[b]) {
                        return coverage[a] > coverage[b];
                      }
                      return a < b;
                    });
  ids.resize(take);
  return ids;
}

std::vector<std::size_t> heardSizeOrder(const BroadcastSim& state,
                                        bool ascending) {
  const std::size_t n = state.processCount();
  std::vector<std::size_t> order = identityOrder(n);
  std::vector<std::size_t> heardSize(n);
  for (std::size_t y = 0; y < n; ++y) {
    heardSize[y] = state.heardCount(y);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ascending ? heardSize[a] < heardSize[b]
                                      : heardSize[a] > heardSize[b];
                   });
  return order;
}

namespace {

/// Fills the coverage-derived fields of `score` from the post-round
/// coverage, summing the potential in ascending process id.
void scoreCoverage(const std::vector<std::size_t>& coverage,
                   DelayScore& score) {
  const std::size_t n = coverage.size();
  for (const std::size_t c : coverage) {
    score.maxCoverage = std::max(score.maxCoverage, c);
    if (c == n) score.finishes = true;
    score.potential += potentialTerm(c);
  }
}

}  // namespace

DelayScore evaluateCandidate(const std::vector<DynBitset>& heard,
                             const std::vector<std::size_t>& coverage,
                             const RootedTree& tree,
                             std::vector<std::size_t>* coverageOut) {
  EvalScratch scratch = EvalScratch::forProcessCount(heard.size());
  const DelayScore score = evaluateCandidate(heard, coverage, tree, scratch);
  if (coverageOut != nullptr) *coverageOut = std::move(scratch.coverage);
  return score;
}

DelayScore evaluateCandidate(const std::vector<DynBitset>& heard,
                             const std::vector<std::size_t>& coverage,
                             const RootedTree& tree, EvalScratch& scratch) {
  const std::size_t n = heard.size();
  DYNBCAST_ASSERT(tree.size() == n && coverage.size() == n);
  // Walk the tree in reverse BFS exactly like the simulator would, but
  // only materialize the deltas: for each node, the processes it newly
  // learns about bump their coverage. The delta is iterated straight off
  // the raw words ((parent & ~child) per word, ascending bits — the same
  // order the old findNext loop produced), so no temporary bitset exists.
  scratch.assignHeard(heard);
  scratch.coverage.assign(coverage.begin(), coverage.end());
  DelayScore score;
  tree.bfsOrderInto(scratch.order);
  const std::size_t nwords = n == 0 ? 0 : heard[0].wordCount();
  for (std::size_t i = scratch.order.size(); i-- > 0;) {
    const std::size_t y = scratch.order[i];
    const std::size_t p = tree.parent(y);
    if (p == y) continue;
    bitword::forEachInDifference(scratch.heard[p].wordData(),
                                 scratch.heard[y].wordData(), nwords,
                                 [&](std::size_t x) {
                                   ++scratch.coverage[x];
                                   ++score.newEdges;
                                 });
    scratch.heard[y].orWith(scratch.heard[p]);
  }
  scoreCoverage(scratch.coverage, score);
  return score;
}

DelayScore evaluatePathOrder(const std::vector<DynBitset>& heard,
                             const std::vector<std::size_t>& coverage,
                             const std::vector<std::size_t>& order,
                             EvalScratch& scratch) {
  const std::size_t n = heard.size();
  DYNBCAST_ASSERT(n > 0 && coverage.size() == n);
  DYNBCAST_ASSERT_MSG(order.size() == n, "order must be a permutation");
  scratch.seen.assign(n, 0);
  for (const std::size_t v : order) {
    DYNBCAST_ASSERT_MSG(v < n && scratch.seen[v] == 0,
                        "order must be a permutation");
    scratch.seen[v] = 1;
  }
  // Process order[i] learns heard[order[i-1]] \ heard[order[i]] from the
  // start-of-round rows (see the header), in ascending x per hop exactly
  // as evaluateCandidate iterates it.
  scratch.coverage.assign(coverage.begin(), coverage.end());
  DelayScore score;
  const std::size_t nwords = heard[0].wordCount();
  for (std::size_t i = 1; i < n; ++i) {
    bitword::forEachInDifference(heard[order[i - 1]].wordData(),
                                 heard[order[i]].wordData(), nwords,
                                 [&](std::size_t x) {
                                   ++scratch.coverage[x];
                                   ++score.newEdges;
                                 });
  }
  scoreCoverage(scratch.coverage, score);
  return score;
}

std::vector<std::size_t> freezeOrdering(
    const BroadcastSim& state, const std::vector<std::size_t>& leaders,
    const std::vector<std::size_t>& baseOrder) {
  const std::size_t n = state.processCount();
  DYNBCAST_ASSERT(baseOrder.size() == n);
  // Stable sort by the knower signature only: for the primary leader,
  // non-knowers strictly before knowers; ties resolved by the next
  // leader; everything else keeps its baseOrder position. std::stable_sort
  // delivers exactly that semantics.
  std::vector<std::size_t> order = baseOrder;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (const std::size_t x : leaders) {
                       const bool ka = state.heardBy(a).test(x);
                       const bool kb = state.heardBy(b).test(x);
                       if (ka != kb) return !ka;  // non-knowers first
                     }
                     return false;  // equal signature: keep stable order
                   });
  return order;
}

void DamageCache::bind(const std::vector<DynBitset>& heard,
                       const std::vector<std::size_t>& coverage) {
  bindWeights(heard, coverage, 0.0, nullptr);
}

void DamageCache::bindNoisy(const std::vector<DynBitset>& heard,
                            const std::vector<std::size_t>& coverage,
                            double amplitude, Rng& rng) {
  bindWeights(heard, coverage, amplitude, &rng);
}

void DamageCache::bindWeights(const std::vector<DynBitset>& heard,
                              const std::vector<std::size_t>& coverage,
                              double amplitude, Rng* rng) {
  const std::size_t n = heard.size();
  DYNBCAST_ASSERT(n > 0 && coverage.size() == n);
  if (n != n_) {
    n_ = n;
    weight_.resize(n);
    value_.resize(n * n);
    stamp_.assign(n * n, 0);
    bestCost_.resize(n);
    attached_.resize(n);
    generation_ = 0;
  }
  // A new generation invalidates every memoized entry at once; on the
  // (4-billion-bind) wrap-around the stamps are cleared for real.
  if (++generation_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    generation_ = 1;
  }
  heard_ = &heard;
  nwords_ = heard[0].wordCount();
  for (std::size_t x = 0; x < n; ++x) {
    weight_[x] =
        potentialTerm(coverage[x]) * (coverage[x] + 1 >= n ? 1e6 : 1.0);
    if (amplitude > 0.0 && rng != nullptr) {
      weight_[x] *= 1.0 + amplitude * rng->uniformReal();
    }
  }
}

double DamageCache::damage(std::size_t p, std::size_t y) {
  const std::size_t at = p * n_ + y;
  if (stamp_[at] != generation_) {
    // Ascending-x accumulation straight off the raw words: the summation
    // order, and so every rounding, is the same for every caller.
    double d = 0.0;
    bitword::forEachInDifference((*heard_)[p].wordData(),
                                 (*heard_)[y].wordData(), nwords_,
                                 [&](std::size_t x) { d += weight_[x]; });
    value_[at] = d;
    stamp_[at] = generation_;
  }
  return value_[at];
}

RootedTree DamageCache::tree(std::size_t root) {
  DYNBCAST_ASSERT(heard_ != nullptr && root < n_);
  const std::size_t n = n_;
  // Prim's algorithm over the complete damage graph: heard sets are
  // start-of-round snapshots, so edge costs never change mid-build.
  std::vector<std::size_t> parent(n, n);
  std::fill(attached_.begin(), attached_.end(), std::uint8_t{0});
  parent[root] = root;
  attached_[root] = 1;
  for (std::size_t y = 0; y < n; ++y) {
    if (y != root) {
      parent[y] = root;
      bestCost_[y] = damage(root, y);
    }
  }
  for (std::size_t step = 1; step < n; ++step) {
    std::size_t pick = n;
    for (std::size_t y = 0; y < n; ++y) {
      if (attached_[y] == 0 &&
          (pick == n || bestCost_[y] < bestCost_[pick])) {
        pick = y;
      }
    }
    attached_[pick] = 1;
    for (std::size_t y = 0; y < n; ++y) {
      if (attached_[y] == 0) {
        const double c = damage(pick, y);
        if (c < bestCost_[y]) {
          bestCost_[y] = c;
          parent[y] = pick;
        }
      }
    }
  }
  return RootedTree(root, std::move(parent));
}

FreezePathAdversary::FreezePathAdversary(std::size_t n, std::size_t depth)
    : n_(n), depth_(depth), order_(identityOrder(n)) {
  DYNBCAST_ASSERT(depth >= 1);
}

void FreezePathAdversary::reset() { order_ = identityOrder(n_); }

RootedTree FreezePathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  order_ = freezeOrdering(state, topLeaders(coverage, depth_), order_);
  return makePath(order_);
}

std::string FreezePathAdversary::name() const {
  return "freeze-path:depth=" + std::to_string(depth_);
}

FreezeBroomAdversary::FreezeBroomAdversary(std::size_t n,
                                           std::size_t handleLen)
    : n_(n), handleLen_(handleLen), order_(identityOrder(n)) {
  DYNBCAST_ASSERT(handleLen >= 1 && handleLen <= n);
}

void FreezeBroomAdversary::reset() { order_ = identityOrder(n_); }

RootedTree FreezeBroomAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  order_ = freezeOrdering(state, topLeaders(coverage, 2), order_);
  return makeBroom(order_, handleLen_);
}

std::string FreezeBroomAdversary::name() const {
  return "freeze-broom:handle=" + std::to_string(handleLen_);
}

HeardOrderPathAdversary::HeardOrderPathAdversary(std::size_t n,
                                                 bool ascending)
    : n_(n), ascending_(ascending) {}

RootedTree HeardOrderPathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  return makePath(heardSizeOrder(state, ascending_));
}

std::string HeardOrderPathAdversary::name() const {
  return ascending_ ? "heard-asc-path" : "heard-desc-path";
}

GreedyDelayAdversary::GreedyDelayAdversary(std::size_t n, std::uint64_t seed,
                                           GreedyDelayConfig config)
    : n_(n),
      seed_(seed),
      rng_(seed),
      config_(config),
      order_(identityOrder(n)),
      scratch_(EvalScratch::forProcessCount(n)) {}

void GreedyDelayAdversary::reset() {
  rng_ = Rng(seed_);
  order_ = identityOrder(n_);
}

RootedTree GreedyDelayAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  const std::vector<DynBitset>& heard = state.heardMatrix();

  // Candidate orders (paths); trees that are not plain paths are kept in
  // a separate list so the winning PATH can seed next round's stability.
  std::vector<std::vector<std::size_t>> orders;
  if (config_.includePrevious) {
    orders.push_back(order_);
  }
  for (std::size_t d = 1; d <= config_.freezeDepthMax && d <= n_; ++d) {
    orders.push_back(freezeOrdering(state, topLeaders(coverage, d), order_));
  }
  if (config_.includeRotations && n_ >= 2) {
    std::vector<std::size_t> headToTail(order_.begin() + 1, order_.end());
    headToTail.push_back(order_.front());
    orders.push_back(std::move(headToTail));
    std::vector<std::size_t> tailToHead{order_.back()};
    tailToHead.insert(tailToHead.end(), order_.begin(), order_.end() - 1);
    orders.push_back(std::move(tailToHead));
  }
  if (config_.includeHeardOrders) {
    orders.push_back(heardSizeOrder(state, true));
    orders.push_back(heardSizeOrder(state, false));
  }
  for (std::size_t i = 0; i < config_.randomPaths; ++i) {
    orders.push_back(rng_.permutation(n_));
  }

  std::vector<RootedTree> extraTrees;
  if (config_.includeBrooms && n_ >= 3) {
    // Broom over the primary freeze order: the knower block becomes the
    // bristles (they receive but feed nobody).
    const std::vector<std::size_t> freezeOrder =
        freezeOrdering(state, topLeaders(coverage, 1), order_);
    const std::size_t leader = topLeaders(coverage, 1).front();
    std::size_t firstKnower = n_;
    for (std::size_t i = 0; i < n_; ++i) {
      if (state.heardBy(freezeOrder[i]).test(leader)) {
        firstKnower = i;
        break;
      }
    }
    if (firstKnower >= 2 && firstKnower < n_) {
      extraTrees.push_back(makeBroom(freezeOrder, firstKnower));
    }
  }
  for (std::size_t i = 0; i < config_.randomTrees; ++i) {
    extraTrees.push_back(randomRootedTree(n_, rng_));
  }
  if (config_.damageTreeRoots > 0) {
    // Damage-greedy trees: the balanced-coverage move family that exact
    // optimal play favors. Root picks: lowest-coverage process (its info
    // is safest to spread), highest-heard process (it gains nothing by
    // receiving anyway), plus random extras.
    std::vector<std::size_t> roots;
    roots.push_back(static_cast<std::size_t>(
        std::min_element(coverage.begin(), coverage.end()) -
        coverage.begin()));
    if (config_.damageTreeRoots >= 2) {
      std::size_t maxHeard = 0;
      for (std::size_t y = 1; y < n_; ++y) {
        if (state.heardCount(y) > state.heardCount(maxHeard)) maxHeard = y;
      }
      roots.push_back(maxHeard);
    }
    while (roots.size() < config_.damageTreeRoots) {
      roots.push_back(rng_.uniform(n_));
    }
    damage_.bind(heard, coverage);
    for (const std::size_t r : roots) {
      extraTrees.push_back(damage_.tree(r));
    }
  }

  // Evaluate everything; prefer path candidates on ties (stability).
  // Paths are scored straight from their orders; all evaluations share
  // the adversary's scratch arena — zero allocations per candidate once
  // the buffers are warm.
  bool bestIsPath = true;
  std::size_t bestIdx = 0;
  DelayScore bestScore =
      evaluatePathOrder(heard, coverage, orders[0], scratch_);
  for (std::size_t i = 1; i < orders.size(); ++i) {
    const DelayScore s =
        evaluatePathOrder(heard, coverage, orders[i], scratch_);
    if (s < bestScore) {
      bestScore = s;
      bestIdx = i;
    }
  }
  for (std::size_t i = 0; i < extraTrees.size(); ++i) {
    const DelayScore s =
        evaluateCandidate(heard, coverage, extraTrees[i], scratch_);
    if (s < bestScore) {
      bestScore = s;
      bestIdx = i;
      bestIsPath = false;
    }
  }
  if (bestIsPath) {
    order_ = orders[bestIdx];
    return makePath(order_);
  }
  return extraTrees[bestIdx];
}

}  // namespace dynbcast
