#include "src/adversary/exact_solver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/adversary/adaptive.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"
#include "src/support/hashing.h"
#include "src/support/rng.h"
#include "src/tree/enumerate.h"
#include "src/tree/families.h"

namespace dynbcast {

namespace {

/// Largest full move pool the search enumerates: covers n = 8
/// (8^7 = 2,097,152 trees); n = 9 would need 43M.
constexpr std::uint64_t kExhaustivePoolLimit = 4'000'000;
/// Orbit-scan abort threshold: a state whose invariant partition still
/// admits more permutations than this is left un-canonicalized. Sound —
/// the memo merely merges fewer equivalent states.
constexpr std::uint64_t kMaxOrbitPerms = 1'000'000;
/// Child-count ceiling for the dominance filter (it is quadratic, and
/// near-symmetric states can have millions of pairwise-incomparable
/// children that the filter would scan for nothing).
constexpr std::size_t kDominanceLimit = 2048;
/// Noisy damage trees per node in the structured pool (n > 8 only).
constexpr std::size_t kNoisyMovesPerNode = 2;
/// Children witnessPlay explores per node, best-potential first. Bounds
/// memory on the complete pool, where one state can have millions of
/// distinct successors.
constexpr std::size_t kMaxChildrenPerNode = 4096;

/// Row-array state: row y = Heard(y) as a 16-bit mask; rows >= n are 0.
using Rows = std::array<std::uint16_t, ExactSolver::kMaxN>;

struct RowsHash {
  std::size_t operator()(const Rows& r) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint64_t chunk = 0;
      std::memcpy(&chunk, r.data() + c * 4, sizeof(chunk));
      h = hashCombine(h, hashMix(chunk));
    }
    return static_cast<std::size_t>(h);
  }
};

Rows identityRows(std::size_t n) {
  Rows s{};
  for (std::size_t y = 0; y < n; ++y) {
    s[y] = static_cast<std::uint16_t>(1u << y);
  }
  return s;
}

Rows applyParents(const Rows& s, const std::uint8_t* parents,
                  std::size_t n) {
  Rows out = s;
  for (std::size_t y = 0; y < n; ++y) {
    out[y] = static_cast<std::uint16_t>(out[y] | s[parents[y]]);
  }
  return out;
}

bool isBroadcastRows(const Rows& s, std::size_t n) {
  std::uint16_t common = s[0];
  for (std::size_t y = 1; y < n && common != 0; ++y) {
    common = static_cast<std::uint16_t>(common & s[y]);
  }
  return common != 0;
}

/// The convex coverage potential Σ_x 2^cov(x). A strict row-wise
/// superset has a strictly larger potential, so ascending potential is a
/// linear extension of ⊆.
std::uint32_t potential(const Rows& s, std::size_t n) {
  std::array<std::uint8_t, ExactSolver::kMaxN> coverage{};
  for (std::size_t y = 0; y < n; ++y) {
    std::uint16_t bits = s[y];
    while (bits != 0) {
      ++coverage[static_cast<unsigned>(std::countr_zero(bits))];
      bits = static_cast<std::uint16_t>(bits & (bits - 1));
    }
  }
  std::uint32_t sum = 0;
  for (std::size_t x = 0; x < n; ++x) sum += 1u << coverage[x];
  return sum;
}

/// A total order on states that compares the highest rows first, eight
/// bytes at a time.
bool rowsBefore(const Rows& a, const Rows& b) {
  for (std::size_t c = 4; c > 0; --c) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, a.data() + (c - 1) * 4, sizeof(x));
    std::memcpy(&y, b.data() + (c - 1) * 4, sizeof(y));
    if (x != y) return x < y;
  }
  return false;
}

/// True when a is a row-wise subset of b (a has heard no more than b).
bool subsetRows(const Rows& a, const Rows& b, std::size_t n) {
  for (std::size_t y = 0; y < n; ++y) {
    if ((a[y] & ~b[y]) != 0) return false;
  }
  return true;
}

// --- Orbit-pruned canonicalization -----------------------------------------
//
// Exact canonicalization under simultaneous row/column permutation: the
// minimum encoding over all relabelings. Scanning all n! permutations is
// the historical bottleneck, so the scan is restricted to permutations
// respecting an invariant partition: nodes are first split by
// (|Heard(v)|, coverage(v)) and the partition is refined twice with the
// signature multisets of each node's heard-set and audience. Signatures
// are functions of relabeling-invariant data only, so equivalent states
// produce identical cell structures and the constrained minima coincide
// — while most mid-game states refine to all-singleton cells, where the
// scan degenerates to a single permutation.

/// Per-cell permutation enumerator: cells (each sorted ascending) own
/// consecutive position blocks; every within-cell arrangement is tried.
struct OrbitScan {
  const Rows& s;
  std::size_t n;
  const std::vector<std::vector<std::uint8_t>>& cells;
  const std::vector<std::uint8_t>& offsets;
  std::array<std::uint8_t, ExactSolver::kMaxN> perm{};
  Rows best{};
  bool haveBest = false;

  void run(std::size_t ci) {
    if (ci == cells.size()) {
      consider();
      return;
    }
    std::vector<std::uint8_t> arr = cells[ci];
    const std::uint8_t off = offsets[ci];
    do {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        perm[arr[i]] = static_cast<std::uint8_t>(off + i);
      }
      run(ci + 1);
    } while (std::next_permutation(arr.begin(), arr.end()));
  }

  void consider() {
    Rows out{};
    for (std::size_t y = 0; y < n; ++y) {
      std::uint16_t bits = s[y];
      std::uint16_t img = 0;
      while (bits != 0) {
        const unsigned x = static_cast<unsigned>(std::countr_zero(bits));
        img = static_cast<std::uint16_t>(img | (1u << perm[x]));
        bits = static_cast<std::uint16_t>(bits & (bits - 1));
      }
      out[perm[y]] = img;
    }
    if (!haveBest || out < best) {
      best = out;
      haveBest = true;
    }
  }
};

Rows canonicalRows(const Rows& s, std::size_t n) {
  // Base signatures: (|row|, |column|) per node.
  std::array<std::uint8_t, ExactSolver::kMaxN> colCount{};
  for (std::size_t y = 0; y < n; ++y) {
    std::uint16_t bits = s[y];
    while (bits != 0) {
      ++colCount[static_cast<unsigned>(std::countr_zero(bits))];
      bits = static_cast<std::uint16_t>(bits & (bits - 1));
    }
  }
  std::array<std::uint64_t, ExactSolver::kMaxN> sig{};
  for (std::size_t v = 0; v < n; ++v) {
    sig[v] = hashCombine(hashMix(std::popcount(s[v]) + 1u), colCount[v]);
  }
  // Two refinement rounds over heard-set and audience signatures.
  std::array<std::uint64_t, ExactSolver::kMaxN> next{};
  std::vector<std::uint64_t> neigh;
  neigh.reserve(n);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t h = hashMix(sig[v]);
      neigh.clear();
      std::uint16_t bits = s[v];
      while (bits != 0) {
        neigh.push_back(sig[static_cast<unsigned>(std::countr_zero(bits))]);
        bits = static_cast<std::uint16_t>(bits & (bits - 1));
      }
      std::sort(neigh.begin(), neigh.end());
      for (const std::uint64_t t : neigh) h = hashCombine(h, t);
      h = hashMix(h ^ 0xabcdef0123456789ull);
      neigh.clear();
      for (std::size_t x = 0; x < n; ++x) {
        if ((s[x] >> v) & 1u) neigh.push_back(sig[x]);
      }
      std::sort(neigh.begin(), neigh.end());
      for (const std::uint64_t t : neigh) h = hashCombine(h, t);
      next[v] = h;
    }
    sig = next;
  }
  // Cells: nodes grouped by signature, cell order by signature value.
  std::array<std::uint8_t, ExactSolver::kMaxN> order{};
  for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<std::uint8_t>(v);
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n),
            [&](std::uint8_t a, std::uint8_t b) {
              if (sig[a] != sig[b]) return sig[a] < sig[b];
              return a < b;
            });
  std::vector<std::vector<std::uint8_t>> cells;
  std::vector<std::uint8_t> offsets;
  std::uint64_t perms = 1;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && sig[order[j]] == sig[order[i]]) ++j;
    offsets.push_back(static_cast<std::uint8_t>(i));
    cells.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(i),
                       order.begin() + static_cast<std::ptrdiff_t>(j));
    for (std::size_t k = 2; k <= j - i; ++k) {
      perms *= k;
      if (perms > kMaxOrbitPerms) return s;  // bail: see kMaxOrbitPerms
    }
    i = j;
  }
  OrbitScan scan{s, n, cells, offsets};
  scan.run(0);
  return scan.best;
}

// --- Move pools -------------------------------------------------------------

/// Trees as flat parent bytes (n per tree).
struct MovePool {
  std::size_t n = 0;
  std::size_t count = 0;
  std::vector<std::uint8_t> parents{};

  /// Every rooted tree on [n].
  static MovePool complete(std::size_t n) {
    DYNBCAST_ASSERT_MSG(
        rootedTreeCount(n) <= kExhaustivePoolLimit,
        "exhaustive move pool infeasible beyond n = 8; use witnessPlay()");
    MovePool pool{n};
    pool.parents.reserve(static_cast<std::size_t>(rootedTreeCount(n)) * n);
    forEachRootedTree(n, [&](const RootedTree& t) {
      pool.add(t);
      return true;
    });
    return pool;
  }

  void add(const RootedTree& t) {
    for (std::size_t y = 0; y < n; ++y) {
      parents.push_back(static_cast<std::uint8_t>(t.parent(y)));
    }
    ++count;
  }

  const std::uint8_t* operator[](std::size_t m) const {
    return parents.data() + m * n;
  }

  RootedTree tree(std::size_t m) const {
    const std::uint8_t* p = (*this)[m];
    std::vector<std::size_t> par(n);
    std::size_t root = 0;
    for (std::size_t y = 0; y < n; ++y) {
      par[y] = p[y];
      if (par[y] == y) root = y;
    }
    return RootedTree(root, std::move(par));
  }
};

// --- The survival search ----------------------------------------------------

/// Depth-first search for k more moves of survival. With the complete
/// pool and no budget or cap, a refutation is a proof; witnessPlay's
/// budget and child cap make it a heuristic pruning instead.
///
/// The memo is keyed on canonical states only for the complete pool:
/// the structured pool breaks ties by node id and seeds its noise from
/// the raw digest, so it is not relabeling-equivariant — an equivalent
/// state gets a differently-tie-broken pool that may still succeed, and
/// merging would prune it unsoundly.
struct Search {
  std::size_t n;
  bool canonicalKeys;
  const MovePool* complete;  // nullptr: structured pool, built per node
  std::uint64_t nodeBudget;
  std::size_t childCap;
  std::unordered_map<Rows, std::size_t, RowsHash> refutedAt{};
  std::uint64_t nodes = 0;
  std::uint64_t successorsExpanded = 0;
  std::uint64_t dominatedPruned = 0;
  DamageCache damage{};

  struct Child {
    Rows state;
    std::uint32_t move;
    std::uint32_t pot;
  };

  /// Damage-greedy trees from every root, freeze paths, heard-order
  /// paths, and a few noisy damage trees seeded by the state's digest
  /// (so revisits expand identically and the search stays reproducible).
  MovePool structuredPool(const Rows& state, std::size_t k) {
    std::vector<DynBitset> heard(n, DynBitset(n));
    std::vector<std::size_t> coverage(n, 0);
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        if (((state[y] >> x) & 1u) == 0) continue;
        heard[y].set(x);
        ++coverage[x];
      }
    }
    Rng rng(hashHeardMatrix(heard) ^ (k * 0x9e3779b97f4a7c15ull));
    const BroadcastSim sim = BroadcastSim::fromHeard(std::move(heard));
    MovePool pool{n};
    // All n roots share one bind: the pairwise damage is computed once
    // per node instead of once per root.
    damage.bind(sim.heardMatrix(), coverage);
    for (std::size_t r = 0; r < n; ++r) pool.add(damage.tree(r));
    const std::vector<std::size_t> base = identityOrder(n);
    for (std::size_t d = 1; d <= 3 && d < n; ++d) {
      pool.add(makePath(freezeOrdering(sim, topLeaders(coverage, d), base)));
    }
    std::vector<std::size_t> asc = heardSizeOrder(sim, true);
    pool.add(makePath(asc));
    std::reverse(asc.begin(), asc.end());
    pool.add(makePath(asc));
    for (std::size_t i = 0; i < kNoisyMovesPerNode; ++i) {
      const std::size_t root = rng.uniform(n);
      damage.bindNoisy(sim.heardMatrix(), coverage, 8.0, rng);
      pool.add(damage.tree(root));
    }
    return pool;
  }

  /// True when some line of k moves from `state` never completes
  /// broadcast; on success the line fills the last k slots of `line`.
  bool survives(const Rows& state, std::size_t k,
                std::vector<RootedTree>& line) {
    if (k == 0) return true;
    if (++nodes > nodeBudget) return false;
    const Rows key = canonicalKeys ? canonicalRows(state, n) : state;
    const auto it = refutedAt.find(key);
    if (it != refutedAt.end() && k >= it->second) return false;
    const MovePool structured =
        complete == nullptr ? structuredPool(state, k) : MovePool{};
    const MovePool& moves = complete == nullptr ? structured : *complete;
    // Distinct non-completing children, each with its lowest move (the
    // stable sort keeps generation order among equal states), then the
    // childCap of lowest potential in ascending order.
    std::vector<Child> children;
    children.reserve(moves.count);
    for (std::size_t m = 0; m < moves.count; ++m) {
      const Rows next = applyParents(state, moves[m], n);
      if (!isBroadcastRows(next, n)) {
        children.push_back({next, static_cast<std::uint32_t>(m), 0});
      }
    }
    std::stable_sort(children.begin(), children.end(),
                     [](const Child& a, const Child& b) {
                       return rowsBefore(a.state, b.state);
                     });
    children.erase(std::unique(children.begin(), children.end(),
                               [](const Child& a, const Child& b) {
                                 return a.state == b.state;
                               }),
                   children.end());
    for (Child& c : children) c.pot = potential(c.state, n);
    const auto byPotential = [](const Child& a, const Child& b) {
      if (a.pot != b.pot) return a.pot < b.pot;
      return rowsBefore(a.state, b.state);
    };
    if (children.size() > childCap) {
      const auto cut = children.begin() + static_cast<std::ptrdiff_t>(childCap);
      std::nth_element(children.begin(), cut, children.end(), byPotential);
      children.erase(cut, children.end());
      children.shrink_to_fit();  // release before recursing (n = 8: ~30 MB)
    }
    std::sort(children.begin(), children.end(), byPotential);
    // Survival is antitone under ⊆, so a superset of an earlier sibling
    // survives only if that sibling does.
    if (children.size() > 1 && children.size() <= kDominanceLimit) {
      std::vector<Child> kept;
      kept.reserve(children.size());
      for (const Child& c : children) {
        const bool dominated =
            std::any_of(kept.begin(), kept.end(), [&](const Child& s) {
              return subsetRows(s.state, c.state, n);
            });
        if (!dominated) kept.push_back(c);
      }
      dominatedPruned += children.size() - kept.size();
      children = std::move(kept);
    }
    for (const Child& c : children) {
      ++successorsExpanded;
      if (survives(c.state, k - 1, line)) {
        line[line.size() - k] = moves.tree(c.move);
        return true;
      }
    }
    if (nodes > nodeBudget) return false;  // gave up, not refuted
    const auto [fit, inserted] = refutedAt.emplace(key, k);
    if (!inserted && fit->second > k) fit->second = k;
    return false;
  }
};

/// Appends the completing star to a surviving line and checks that the
/// whole line broadcasts in exactly its last round.
std::vector<RootedTree> finish(std::size_t n, std::vector<RootedTree> play) {
  // A star makes every process hear the center's full history, center
  // included, so it completes from any state.
  play.push_back(makeStar(n, 0));
  MovePool moves{n};
  for (const RootedTree& t : play) moves.add(t);
  Rows s = identityRows(n);
  for (std::size_t i = 0; i < moves.count; ++i) {
    s = applyParents(s, moves[i], n);
    DYNBCAST_ASSERT_MSG(isBroadcastRows(s, n) == (i + 1 == moves.count),
                        "line does not broadcast in exactly its length");
  }
  return play;
}

}  // namespace

ExactSolver::ExactSolver(std::size_t n, ExactOptions options)
    : n_(n), options_(options) {
  DYNBCAST_ASSERT_MSG(n >= 2 && n <= kMaxN,
                      "ExactSolver supports 2 <= n <= 16");
}

ExactResult ExactSolver::solve() {
  const MovePool pool = MovePool::complete(n_);
  Search search{n_, options_.canonicalize, &pool,
                std::numeric_limits<std::uint64_t>::max(),
                std::numeric_limits<std::size_t>::max()};
  // The static path survives n − 2 moves; deepen until a level is
  // refuted. Refutations carry over: a state refuted at k is refuted at
  // every larger k.
  std::vector<RootedTree> best;
  for (std::size_t k = n_ - 2;; ++k) {
    std::vector<RootedTree> line(k, RootedTree::trivial());
    if (!search.survives(identityRows(n_), k, line)) break;
    best = std::move(line);
  }
  ExactResult result;
  result.line = finish(n_, std::move(best));
  result.tStar = result.line.size();
  result.statesMemoized = search.refutedAt.size();
  result.successorsExpanded = search.successorsExpanded;
  result.dominatedPruned = search.dominatedPruned;
  return result;
}

std::vector<RootedTree> ExactSolver::witnessPlay(
    std::size_t targetRounds, ExactWitnessOptions witnessOptions) {
  if (targetRounds == 0) return {};
  const bool completePool = rootedTreeCount(n_) <= kExhaustivePoolLimit;
  const MovePool pool = completePool ? MovePool::complete(n_) : MovePool{};
  Search search{n_, completePool && options_.canonicalize,
                completePool ? &pool : nullptr, witnessOptions.nodeBudget,
                kMaxChildrenPerNode};
  // The static path 0 → 1 → … → n−1 delays broadcast to round n−1, so
  // no search is needed at or below that: `staticRounds` − 1 path
  // rounds plus the star finisher.
  const std::size_t staticRounds = std::min(targetRounds, n_ - 1);
  // Descending targets, each with its own node budget: the memo carries
  // over, so a refuted attempt at t seeds the attempt at t − 1, but a
  // budget spent on t never starves t − 1.
  for (std::size_t t = targetRounds; t > staticRounds; --t) {
    search.nodes = 0;
    std::vector<RootedTree> line(t - 1, RootedTree::trivial());
    if (search.survives(identityRows(n_), t - 1, line)) {
      return finish(n_, std::move(line));
    }
  }
  return finish(n_, std::vector<RootedTree>(staticRounds - 1, makePath(n_)));
}

}  // namespace dynbcast
