// Every concrete DynamicsModel in this file promises deterministic
// replay from (n, seed) across reset(); gated by the named suite.
// dynbcast-lint: replay-test(EveryModelReplaysAtParamBoundaries)
#include "src/dynamics/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/adversary/portfolio.h"
#include "src/bounds/bounds.h"
#include "src/nonsplit/nonsplit.h"
#include "src/support/rng.h"
#include "src/tree/generators.h"

namespace dynbcast {

namespace {

/// Calls fn(i) for each success of an iid Bernoulli(p) process over
/// i ∈ [0, space), in ascending order, using geometric skip-sampling —
/// O(successes) RNG draws instead of O(space). Distributionally
/// equivalent to per-index chance(p) but NOT the same RNG call sequence,
/// so it is only used above kSparseDenseMirrorMaxN.
template <typename Fn>
void skipSampleBernoulli(std::uint64_t space, double p, Rng& rng, Fn&& fn) {
  if (p <= 0.0 || space == 0) return;
  if (p >= 1.0) {
    for (std::uint64_t i = 0; i < space; ++i) fn(i);
    return;
  }
  const double denom = std::log1p(-p);
  std::uint64_t i = 0;
  while (i < space) {
    double u = rng.uniformReal();
    if (u <= 0.0) u = std::numeric_limits<double>::min();
    const double gap = std::floor(std::log(u) / denom);
    if (gap >= static_cast<double>(space - i)) return;
    i += static_cast<std::uint64_t>(gap);
    fn(i);
    ++i;
  }
}

/// Decodes ASCENDING indices of the n(n-1) off-diagonal ordered-pair
/// space (skipSampleBernoulli's output order) into arcs without
/// division: row x spans [x(n-1), (x+1)(n-1)), and column r of row x is
/// target r + (r >= x).
class AscendingPairs {
 public:
  explicit AscendingPairs(std::size_t n) : rowLen_(n - 1) {}

  /// The current row: the source of the last decoded index.
  [[nodiscard]] std::uint32_t row() const noexcept { return x_; }

  /// Moves to the row holding i (i must not decrease between calls),
  /// calling closeRow(x) for every row left behind, and returns the
  /// target of index i.
  template <typename CloseRow>
  std::uint32_t target(std::uint64_t i, CloseRow&& closeRow) {
    while (i - rowStart_ >= rowLen_) {
      closeRow(x_);
      ++x_;
      rowStart_ += rowLen_;
    }
    const auto r = static_cast<std::uint32_t>(i - rowStart_);
    return r + (r >= x_ ? 1 : 0);
  }

 private:
  std::uint64_t rowLen_;
  std::uint64_t rowStart_ = 0;
  std::uint32_t x_ = 0;
};

/// Stall-detector cap for the stochastic models with no sharper published
/// bound here (edge-Markovian, T-interval): oblivious dynamic sequences
/// finish broadcast within O(n), so ~10n with slack separates "slow" from
/// "never" — the same margin defaultGossipRoundCap uses.
[[nodiscard]] std::size_t stochasticStallCap(std::size_t n) {
  return 10 * n + 50;
}

/// Shared base: owns the (n, seed) identity, the replayable RNG, and the
/// canonical display name.
class SeededGraphModel : public DynamicsModel {
 public:
  SeededGraphModel(std::size_t n, std::uint64_t seed, std::string name)
      : n_(n), seed_(seed), rng_(seed), name_(std::move(name)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  void reset() override { rng_ = Rng(seed_); }

 protected:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;

 private:
  std::string name_;
};

/// "nonsplit-random": a fresh random nonsplit graph every round — extra
/// random edges (count or Bernoulli density) plus the repair pass.
class NonsplitRandomModel final : public SeededGraphModel {
 public:
  NonsplitRandomModel(std::size_t n, std::uint64_t seed, std::size_t edges,
                      double p, std::string name)
      : SeededGraphModel(n, seed, std::move(name)), edges_(edges), p_(p) {}

  BitMatrix nextGraph(const BroadcastSim&) override { return denseDraw(); }

  [[nodiscard]] bool supportsSparseRounds() const override { return true; }

  void nextSparseRound(SparseRound& out) override {
    if (n_ <= kSparseDenseMirrorMaxN) {
      out = SparseRound::fromGraph(denseDraw());
      return;
    }
    // Native sparse draw: the same random arcs, but the dense repair
    // pass (which walks all pairs) is replaced by a random hub informing
    // everyone — still nonsplit (the hub is a common in-neighbor of
    // every pair), distributionally close rather than identical.
    std::vector<SparseRound::Arc> arcs;
    if (p_ > 0.0) {
      AscendingPairs pairs(n_);
      skipSampleBernoulli(
          static_cast<std::uint64_t>(n_) * (n_ - 1), p_, rng_,
          [&](std::uint64_t i) {
            const std::uint32_t y = pairs.target(i, [](std::uint32_t) {});
            arcs.emplace_back(pairs.row(), y);
          });
    } else {
      const std::size_t count = edges_ != 0 ? edges_ : 2 * n_;
      for (std::size_t e = 0; e < count; ++e) {
        const auto x = static_cast<std::uint32_t>(rng_.uniform(n_));
        const auto y = static_cast<std::uint32_t>(rng_.uniform(n_));
        if (x != y) arcs.emplace_back(x, y);
      }
    }
    const auto hub = static_cast<std::uint32_t>(rng_.uniform(n_));
    for (std::uint32_t y = 0; y < n_; ++y) {
      if (y != hub) arcs.emplace_back(hub, y);
    }
    out = SparseRound::fromArcs(n_, arcs);
  }

  [[nodiscard]] DynamicsClass graphClass() const override {
    return DynamicsClass::kNonsplit;
  }

  [[nodiscard]] std::size_t defaultRoundCap() const override {
    return static_cast<std::size_t>(bounds::nonsplitLogUpper(n_)) + 8;
  }

 private:
  BitMatrix denseDraw() {
    if (p_ > 0.0) return bernoulliNonsplitGraph(n_, p_, rng_);
    return randomNonsplitGraph(n_, edges_ != 0 ? edges_ : 2 * n_, rng_);
  }

  std::size_t edges_;
  double p_;
};

/// "nonsplit-skewed": every pair's common in-neighbor is biased towards
/// low indices — few dispatchers do most of the informing.
class NonsplitSkewedModel final : public SeededGraphModel {
 public:
  NonsplitSkewedModel(std::size_t n, std::uint64_t seed, std::string name)
      : SeededGraphModel(n, seed, std::move(name)) {}

  BitMatrix nextGraph(const BroadcastSim&) override {
    return skewedNonsplitGraph(n_, rng_);
  }

  [[nodiscard]] DynamicsClass graphClass() const override {
    return DynamicsClass::kNonsplit;
  }

  [[nodiscard]] std::size_t defaultRoundCap() const override {
    return static_cast<std::size_t>(bounds::nonsplitLogUpper(n_)) + 8;
  }
};

/// "edge-markovian": every directed non-loop edge is an independent
/// two-state Markov chain — absent edges are born with probability p,
/// present edges die with probability q (Kuhn–Lynch–Oshman's
/// edge-Markovian evolving graphs). Round 1 is a stationary draw
/// (density p/(p+q)); later rounds evolve it one step.
class EdgeMarkovianModel final : public SeededGraphModel {
 public:
  EdgeMarkovianModel(std::size_t n, std::uint64_t seed, double p, double q,
                     std::string name)
      : SeededGraphModel(n, seed, std::move(name)), p_(p), q_(q) {}

  BitMatrix nextGraph(const BroadcastSim&) override {
    denseStep();
    BitMatrix g = edges_;
    for (std::size_t v = 0; v < n_; ++v) g.set(v, v);
    return g;
  }

  [[nodiscard]] bool supportsSparseRounds() const override { return true; }

  void nextSparseRound(SparseRound& out) override {
    if (n_ <= kSparseDenseMirrorMaxN) {
      // Mirror mode: the exact dense RNG call sequence, arcs extracted
      // from the evolved matrix.
      denseStep();
      out = SparseRound::fromGraph(edges_);
      return;
    }
    if (!sparseStarted_) {
      stationaryDraw();
      sparseStarted_ = true;
      out = state_;
      return;
    }
    evolve(out);
    state_ = out;
  }

  [[nodiscard]] DynamicsClass graphClass() const override {
    return DynamicsClass::kNone;
  }

  [[nodiscard]] std::size_t defaultRoundCap() const override {
    return stochasticStallCap(n_);
  }

  void reset() override {
    SeededGraphModel::reset();
    started_ = false;
    sparseStarted_ = false;
  }

 private:
  /// Top bit of a state target: the arc dies this round. Node ids stay
  /// below it (the native path needs n <= 2^31).
  static constexpr std::uint32_t kDead = std::uint32_t{1} << 31;

  /// Native round 1: a stationary draw (density p/(p+q)) over the pair
  /// space, decoded straight into state_'s ascending rows.
  void stationaryDraw() {
    DYNBCAST_ASSERT_MSG(n_ <= kDead, "native edge-markovian needs n <= 2^31");
    const double stationary = p_ + q_ > 0.0 ? p_ / (p_ + q_) : 1.0;
    std::vector<std::uint32_t>& offsets = state_.offsets;
    std::vector<std::uint32_t>& targets = state_.targets;
    state_.n = n_;
    offsets.assign(1, 0);
    targets.clear();
    const auto closeRow = [&](std::uint32_t) {
      offsets.push_back(static_cast<std::uint32_t>(targets.size()));
    };
    AscendingPairs pairs(n_);
    skipSampleBernoulli(pairSpace(), stationary, rng_, [&](std::uint64_t i) {
      targets.push_back(pairs.target(i, closeRow));
    });
    while (offsets.size() <= n_) closeRow(0);
  }

  /// One native chain step from state_ into `next`. Deaths come first,
  /// one Bernoulli(q) draw per present arc in row order, marked in place
  /// with kDead. Births are skip-sampled over the whole pair space in
  /// ascending order; a row's births are buffered until the sampler
  /// leaves the row, then merged with its survivors. A pair present at
  /// the start of the round (dying or not) only faces death, so a birth
  /// landing on it is rejected, exactly as in the dense step. Rows stay
  /// ascending, so the emitted arcs are the present pairs in (x, y)
  /// order.
  void evolve(SparseRound& next) {
    std::vector<std::uint32_t>& cur = state_.targets;
    if (q_ >= 1.0) {
      for (std::uint32_t& t : cur) t |= kDead;
    } else if (q_ > 0.0) {
      for (std::uint32_t& t : cur) {
        t |= static_cast<std::uint32_t>(rng_.uniformReal() < q_) << 31;
      }
    }
    const std::vector<std::uint32_t>& rows = state_.offsets;
    std::vector<std::uint32_t>& offsets = next.offsets;
    std::vector<std::uint32_t>& targets = next.targets;
    next.n = n_;
    next.sameAsPrevious = false;
    offsets.assign(1, 0);
    // targets stays sized to its capacity; a dead arc is written and
    // then overwritten, so the survivor copy has no branch.
    growToCapacity(targets, cur.size() + cur.size() / 32);
    std::size_t w = 0;
    const auto closeRow = [&](std::uint32_t x) {
      const std::uint32_t begin = rows[x];
      const std::uint32_t end = rows[x + 1];
      const std::size_t births = births_.size();
      const std::size_t need = w + (end - begin) + births;
      if (need > targets.size()) {
        growToCapacity(targets, need + cur.size() / 16);
      }
      std::uint32_t* dst = targets.data();
      std::size_t b = 0;
      for (std::uint32_t k = begin; k < end; ++k) {
        const std::uint32_t t = cur[k];
        const std::uint32_t id = t & ~kDead;
        while (b < births && births_[b] < id) dst[w++] = births_[b++];
        // A birth drawn on a present pair is rejected: it faces death only.
        if (b < births && births_[b] == id) ++b;
        dst[w] = id;
        w += 1 - (t >> 31);
      }
      while (b < births) dst[w++] = births_[b++];
      births_.clear();
      offsets.push_back(static_cast<std::uint32_t>(w));
    };
    AscendingPairs pairs(n_);
    skipSampleBernoulli(pairSpace(), p_, rng_, [&](std::uint64_t i) {
      births_.push_back(pairs.target(i, closeRow));
    });
    for (std::size_t x = pairs.row(); x < n_; ++x) {
      closeRow(static_cast<std::uint32_t>(x));
    }
    targets.resize(w);
  }

  /// Makes v as long as its capacity, and that at least `size`.
  static void growToCapacity(std::vector<std::uint32_t>& v,
                             std::size_t size) {
    if (size > v.capacity()) v.reserve(size);
    v.resize(v.capacity());
  }

  [[nodiscard]] std::uint64_t pairSpace() const noexcept {
    return static_cast<std::uint64_t>(n_) * (n_ - 1);
  }

  /// One dense chain step into edges_ (stationary draw first, evolution
  /// after) — shared by nextGraph and the sparse mirror mode.
  void denseStep() {
    if (!started_) {
      const double stationary = p_ + q_ > 0.0 ? p_ / (p_ + q_) : 1.0;
      edges_ = BitMatrix(n_);
      for (std::size_t x = 0; x < n_; ++x) {
        for (std::size_t y = 0; y < n_; ++y) {
          if (x != y && rng_.chance(stationary)) edges_.set(x, y);
        }
      }
      started_ = true;
    } else {
      for (std::size_t x = 0; x < n_; ++x) {
        for (std::size_t y = 0; y < n_; ++y) {
          if (x == y) continue;
          if (edges_.get(x, y)) {
            if (rng_.chance(q_)) edges_.reset(x, y);
          } else {
            if (rng_.chance(p_)) edges_.set(x, y);
          }
        }
      }
    }
  }

  double p_;
  double q_;
  /// Dense chain state — allocated by the first denseStep() only, so the
  /// native sparse path never pays the O(n²) bits.
  BitMatrix edges_;
  bool started_ = false;
  bool sparseStarted_ = false;
  /// The native chain's O(edges) state: the present arcs as a CSR with
  /// ascending rows, a copy of the last emitted round (the caller owns
  /// that round's buffers, e.g. as a t*-mode cache slot).
  SparseRound state_;
  std::vector<std::uint32_t> births_;  ///< the open row's births, ascending
};

/// "t-interval": a uniformly random spanning tree, symmetrized (both
/// directions + self-loops), held stable for T consecutive rounds, then
/// redrawn — the T-interval-connectivity regime of Kuhn–Lynch–Oshman.
class TIntervalModel final : public SeededGraphModel {
 public:
  TIntervalModel(std::size_t n, std::uint64_t seed, std::size_t period,
                 std::string name)
      : SeededGraphModel(n, seed, std::move(name)), period_(period) {}

  BitMatrix nextGraph(const BroadcastSim&) override {
    if (age_ == 0) {
      const RootedTree tree = randomRootedTree(n_, rng_);
      current_ = BitMatrix::identity(n_);
      for (std::size_t v = 0; v < n_; ++v) {
        if (v == tree.root()) continue;
        current_.set(tree.parent(v), v);
        current_.set(v, tree.parent(v));
      }
    }
    age_ = (age_ + 1) % period_;
    return current_;
  }

  [[nodiscard]] bool supportsSparseRounds() const override { return true; }

  void nextSparseRound(SparseRound& out) override {
    // Consumes exactly the same RNG stream as nextGraph (one
    // randomRootedTree per period), so sparse mirrors dense at EVERY n —
    // a tree has 2(n-1) symmetrized arcs, never a dense matrix.
    if (age_ == 0) {
      const RootedTree tree = randomRootedTree(n_, rng_);
      std::vector<SparseRound::Arc> arcs;
      arcs.reserve(2 * (n_ - 1));
      for (std::size_t v = 0; v < n_; ++v) {
        if (v == tree.root()) continue;
        const auto parent = static_cast<std::uint32_t>(tree.parent(v));
        const auto child = static_cast<std::uint32_t>(v);
        arcs.emplace_back(parent, child);
        arcs.emplace_back(child, parent);
      }
      tree_ = SparseRound::fromArcs(n_, arcs);
    }
    out = tree_;
    out.sameAsPrevious = age_ != 0;
    age_ = (age_ + 1) % period_;
  }

  [[nodiscard]] DynamicsClass graphClass() const override {
    return DynamicsClass::kNone;
  }

  [[nodiscard]] std::size_t defaultRoundCap() const override {
    return stochasticStallCap(n_);
  }

  void reset() override {
    SeededGraphModel::reset();
    age_ = 0;
    current_ = BitMatrix();
    tree_ = SparseRound();
  }

 private:
  std::size_t period_;
  std::size_t age_ = 0;
  BitMatrix current_;
  SparseRound tree_;  ///< the held tree's symmetrized arcs (sparse path)
};

void registerBuiltins(DynamicsRegistry& reg) {
  // The paper's model --------------------------------------------------------
  {
    DynamicsInfo info;
    info.name = "rooted-tree";
    info.description =
        "adversary-chosen rooted trees on [n]; broadcast is Theta(n) "
        "(Theorem 3.1)";
    info.literature = "El-Hayek, Henzinger & Schmid (this paper)";
    info.mode = DynamicsMode::kAdversaryTrees;
    info.graphClass = DynamicsClass::kRootedTree;
    info.params = {};  // no parameters, deliberately
    info.defaultAdversaries = [](const DynamicsParams&) {
      return standardPortfolioSpecs();
    };
    reg.add(std::move(info));
  }
  {
    DynamicsInfo info;
    info.name = "restricted";
    info.description =
        "adversary trees restricted to the k-leaf / k-inner classes "
        "(O(kn) broadcast)";
    info.literature = "restricted tree classes of [14]";
    info.mode = DynamicsMode::kAdversaryTrees;
    info.graphClass = DynamicsClass::kRootedTree;
    info.params = {
        {"class", "any",
         "which restricted class: any | k-leaf | k-inner | broom"},
        {"k", "2", "class parameter (leaves / inner nodes / handle length)"}};
    info.validateParams = [](const DynamicsParams& params) {
      const std::string cls = params.getString("class", "any");
      if (cls != "any" && cls != "k-leaf" && cls != "k-inner" &&
          cls != "broom") {
        throw std::invalid_argument(
            "dynamics 'restricted': class must be one of any, k-leaf, "
            "k-inner, broom (got '" +
            cls + "')");
      }
      if (params.getUInt("k", 2) < 1) {
        throw std::invalid_argument(
            "dynamics 'restricted': k must be >= 1");
      }
    };
    info.defaultAdversaries = [](const DynamicsParams& params) {
      const std::string cls = params.getString("class", "any");
      const std::string k = std::to_string(params.getUInt("k", 2));
      std::vector<std::string> specs;
      if (cls == "any" || cls == "k-leaf") specs.push_back("k-leaf:k=" + k);
      if (cls == "any" || cls == "k-inner") specs.push_back("k-inner:k=" + k);
      if (cls == "any" || cls == "broom") {
        specs.push_back("freeze-broom:handle=" + k);
      }
      return specs;
    };
    info.admissibleAdversaries = {"k-leaf", "k-inner", "freeze-broom"};
    reg.add(std::move(info));
  }

  // Nonsplit graphs ([2]/[9]) ------------------------------------------------
  {
    DynamicsInfo info;
    info.name = "nonsplit-random";
    info.description =
        "fresh random nonsplit graph every round: random extra edges + "
        "common-in-neighbor repair";
    info.literature = "Charron-Bost & Schiper [2] (log n broadcast)";
    info.graphClass = DynamicsClass::kNonsplit;
    info.stochastic = true;
    info.sparseCapable = true;
    info.params = {
        {"edges", "0", "random extra edges before the repair; 0 = 2n"},
        {"p", "0",
         "Bernoulli edge density instead of a count; 0 = use edges"}};
    info.validateParams = [](const DynamicsParams& params) {
      if (params.has("edges") && params.has("p")) {
        throw std::invalid_argument(
            "dynamics 'nonsplit-random': give either edges= (a count) or "
            "p= (a density), not both");
      }
      const double p = params.getDouble("p", 0.0);
      if (p < 0.0 || p > 1.0) {
        throw std::invalid_argument(
            "dynamics 'nonsplit-random': p must be in [0, 1]");
      }
    };
    // Range checks live in validateParams above; the registry's make()
    // always validates before invoking a factory.
    info.factory = [](std::size_t n, std::uint64_t seed,
                      const DynamicsParams& params)
        -> std::unique_ptr<DynamicsModel> {
      return std::make_unique<NonsplitRandomModel>(
          n, seed, params.getUInt("edges", 0), params.getDouble("p", 0.0),
          formatSpec("nonsplit-random", params));
    };
    reg.add(std::move(info));
  }
  {
    DynamicsInfo info;
    info.name = "nonsplit-skewed";
    info.description =
        "nonsplit graphs whose common in-neighbors are biased towards few "
        "low-index dispatchers (as generated, node 0 informs almost every "
        "node in round one, so broadcast takes 1 round)";
    info.literature = "nonsplit graphs of [2] (ceil(log2 n) broadcast)";
    info.graphClass = DynamicsClass::kNonsplit;
    info.stochastic = true;
    info.params = {};  // no parameters, deliberately
    info.factory = [](std::size_t n, std::uint64_t seed,
                      const DynamicsParams& params)
        -> std::unique_ptr<DynamicsModel> {
      return std::make_unique<NonsplitSkewedModel>(
          n, seed, formatSpec("nonsplit-skewed", params));
    };
    reg.add(std::move(info));
  }

  // Kuhn-Lynch-Oshman-style dynamics -----------------------------------------
  {
    DynamicsInfo info;
    info.name = "edge-markovian";
    info.description =
        "every directed edge is a 2-state Markov chain: born w.p. p, dies "
        "w.p. q; round 1 is a stationary draw";
    info.literature =
        "edge-Markovian evolving graphs (Kuhn-Lynch-Oshman line; Clementi "
        "et al.)";
    info.graphClass = DynamicsClass::kNone;
    info.stochastic = true;
    info.sparseCapable = true;
    info.params = {{"p", "0.2", "edge birth probability (0 < p <= 1)"},
                   {"q", "0.1", "edge death probability (0 <= q <= 1)"}};
    info.validateParams = [](const DynamicsParams& params) {
      const double p = params.getDouble("p", 0.2);
      const double q = params.getDouble("q", 0.1);
      if (p <= 0.0 || p > 1.0) {
        throw std::invalid_argument(
            "dynamics 'edge-markovian': p must satisfy 0 < p <= 1 (p = 0 "
            "would freeze an empty graph forever)");
      }
      if (q < 0.0 || q > 1.0) {
        throw std::invalid_argument(
            "dynamics 'edge-markovian': q must be in [0, 1]");
      }
    };
    info.factory = [](std::size_t n, std::uint64_t seed,
                      const DynamicsParams& params)
        -> std::unique_ptr<DynamicsModel> {
      return std::make_unique<EdgeMarkovianModel>(
          n, seed, params.getDouble("p", 0.2), params.getDouble("q", 0.1),
          formatSpec("edge-markovian", params));
    };
    reg.add(std::move(info));
  }
  {
    DynamicsInfo info;
    info.name = "t-interval";
    info.description =
        "a random spanning tree, symmetrized, stable for T rounds, then "
        "rewired (T-interval connectivity)";
    info.literature = "Kuhn, Lynch & Oshman (STOC '10)";
    info.graphClass = DynamicsClass::kNone;
    info.stochastic = true;
    info.sparseCapable = true;
    info.params = {{"T", "4", "rounds each spanning subgraph stays stable"}};
    info.validateParams = [](const DynamicsParams& params) {
      if (params.getUInt("T", 4) < 1) {
        throw std::invalid_argument(
            "dynamics 't-interval': T must be >= 1");
      }
    };
    info.factory = [](std::size_t n, std::uint64_t seed,
                      const DynamicsParams& params)
        -> std::unique_ptr<DynamicsModel> {
      return std::make_unique<TIntervalModel>(
          n, seed, params.getUInt("T", 4),
          formatSpec("t-interval", params));
    };
    reg.add(std::move(info));
  }
}

}  // namespace

DynamicsSpec DynamicsSpec::parse(const std::string& text) {
  ParsedSpec parsed = parseSpec(text, "dynamics");
  return DynamicsSpec{std::move(parsed.name), std::move(parsed.params)};
}

std::string DynamicsSpec::toString() const { return formatSpec(name, params); }

DynamicsRegistry& DynamicsRegistry::instance() {
  static DynamicsRegistry* registry = [] {
    auto* r = new DynamicsRegistry();
    registerBuiltins(*r);
    return r;
  }();
  return *registry;
}

void DynamicsRegistry::add(DynamicsInfo info) {
  if (!isValidSpecToken(info.name)) {
    throw std::invalid_argument("dynamics registration '" + info.name +
                                "': name must be non-empty [A-Za-z0-9._-]");
  }
  const bool needsFactory = info.mode == DynamicsMode::kGraphModel;
  if (needsFactory != static_cast<bool>(info.factory)) {
    throw std::invalid_argument(
        "dynamics registration '" + info.name +
        (needsFactory ? "': graph models need a factory"
                      : "': only graph models take a factory"));
  }
  const std::string name = info.name;
  if (!entries_.emplace(name, std::move(info)).second) {
    throw std::invalid_argument("dynamics registration '" + name +
                                "': name already registered");
  }
}

std::vector<std::string> DynamicsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, info] : entries_) out.push_back(name);
  return out;
}

const DynamicsInfo& DynamicsRegistry::info(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string message = "unknown dynamics model '" + name + "'";
    const std::string suggestion = closestMatch(name, names());
    if (!suggestion.empty()) {
      message += "; did you mean '" + suggestion + "'?";
    }
    message += " (run 'dynbcast list' for the full model zoo)";
    throw std::invalid_argument(message);
  }
  return it->second;
}

void DynamicsRegistry::validate(const DynamicsSpec& spec) const {
  const DynamicsInfo& entry = info(spec.name);
  std::vector<std::string> known;
  known.reserve(entry.params.size());
  for (const DynamicsParamDoc& doc : entry.params) known.push_back(doc.key);
  for (const auto& [key, value] : spec.params.values()) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string message =
        "dynamics '" + spec.name + "': unknown parameter '" + key + "'";
    const std::string suggestion = closestMatch(key, known);
    if (!suggestion.empty()) {
      message += "; did you mean '" + suggestion + "'?";
    }
    if (known.empty()) {
      message += " ('" + spec.name + "' takes no parameters)";
    } else {
      std::string keys;
      for (const std::string& k : known) {
        if (!keys.empty()) keys += ", ";
        keys += k;
      }
      message += " (known parameters: " + keys + ")";
    }
    throw std::invalid_argument(message);
  }
  if (entry.validateParams) entry.validateParams(spec.params);
}

std::unique_ptr<DynamicsModel> DynamicsRegistry::make(
    const DynamicsSpec& spec, std::size_t n, std::uint64_t seed) const {
  validate(spec);
  const DynamicsInfo& entry = info(spec.name);
  if (entry.mode != DynamicsMode::kGraphModel) {
    throw std::invalid_argument(
        "dynamics '" + spec.name +
        "' is adversary-driven: its per-round graphs are the adversary's "
        "moves, so it has no standalone graph model (run it through a "
        "scenario with an adversary list instead)");
  }
  return entry.factory(n, seed, spec.params);
}

std::unique_ptr<DynamicsModel> DynamicsRegistry::make(
    const std::string& spec, std::size_t n, std::uint64_t seed) const {
  return make(DynamicsSpec::parse(spec), n, seed);
}

}  // namespace dynbcast
