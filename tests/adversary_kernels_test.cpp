// Differential tests for the adversaries' two hot kernels: the shared
// DamageCache Prim against a reference copy of the pairwise Prim it
// replaced, and evaluatePathOrder against evaluateCandidate on the
// materialized path. States come from real greedy-delay games at sizes
// that straddle the 64-bit word boundaries (tail words included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/adversary/adaptive.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"
#include "src/support/rng.h"
#include "src/tree/families.h"

namespace dynbcast {
namespace {

constexpr std::size_t kSizes[] = {1, 2, 3, 16, 63, 64, 65, 128, 130};

/// Reference damage-greedy tree, the definition DamageCache must
/// reproduce: a per-tree Prim with every pairwise damage recomputed on
/// demand (std::exp2 weights, a bit-by-bit ascending-x difference sum,
/// fresh buffers).
RootedTree referenceDamageTree(const std::vector<DynBitset>& heard,
                               const std::vector<std::size_t>& coverage,
                               std::size_t root, double noiseAmplitude,
                               Rng* rng) {
  const std::size_t n = heard.size();
  std::vector<double> weight(n);
  for (std::size_t x = 0; x < n; ++x) {
    const double capped =
        static_cast<double>(std::min<std::size_t>(coverage[x], 50));
    weight[x] = std::exp2(capped) * (coverage[x] + 1 >= n ? 1e6 : 1.0);
    if (noiseAmplitude > 0.0 && rng != nullptr) {
      weight[x] *= 1.0 + noiseAmplitude * rng->uniformReal();
    }
  }
  const auto damage = [&](std::size_t p, std::size_t y) {
    double d = 0.0;
    for (std::size_t x = 0; x < n; ++x) {
      if (heard[p].test(x) && !heard[y].test(x)) d += weight[x];
    }
    return d;
  };
  std::vector<std::size_t> parent(n, n);
  std::vector<double> bestCost(n, 0.0);
  std::vector<bool> attached(n, false);
  parent[root] = root;
  attached[root] = true;
  for (std::size_t y = 0; y < n; ++y) {
    if (y != root) {
      parent[y] = root;
      bestCost[y] = damage(root, y);
    }
  }
  for (std::size_t step = 1; step < n; ++step) {
    std::size_t pick = n;
    for (std::size_t y = 0; y < n; ++y) {
      if (!attached[y] && (pick == n || bestCost[y] < bestCost[pick])) {
        pick = y;
      }
    }
    attached[pick] = true;
    for (std::size_t y = 0; y < n; ++y) {
      if (!attached[y]) {
        const double c = damage(pick, y);
        if (c < bestCost[y]) {
          bestCost[y] = c;
          parent[y] = pick;
        }
      }
    }
  }
  return RootedTree(root, std::move(parent));
}

/// Heard matrices met along one greedy-delay game at size n: the initial
/// state, then about eight states spread over the game.
std::vector<std::vector<DynBitset>> recordedStates(std::size_t n) {
  GreedyDelayAdversary adversary(n, 0x5eedull + n);
  BroadcastSim sim(n);
  std::vector<std::vector<DynBitset>> states{sim.heardMatrix()};
  const std::size_t stride = std::max<std::size_t>(1, n / 4);
  while (!sim.broadcastDone()) {
    sim.applyTree(adversary.nextTree(sim));
    if (!sim.broadcastDone() && sim.round() % stride == 0) {
      states.push_back(sim.heardMatrix());
    }
  }
  return states;
}

std::vector<std::size_t> coverageOf(const std::vector<DynBitset>& heard) {
  return coverageCounts(BroadcastSim::fromHeard(heard));
}

void expectSameScore(const DelayScore& a, const DelayScore& b) {
  EXPECT_EQ(a.finishes, b.finishes);
  EXPECT_EQ(a.potential, b.potential);  // bit-identical, not approximate
  EXPECT_EQ(a.maxCoverage, b.maxCoverage);
  EXPECT_EQ(a.newEdges, b.newEdges);
}

TEST(DamageCacheTest, SharedPrimMatchesPairwisePrimForEveryRoot) {
  DamageCache cache;  // one cache across every size and state
  for (const std::size_t n : kSizes) {
    for (const std::vector<DynBitset>& heard : recordedStates(n)) {
      const std::vector<std::size_t> coverage = coverageOf(heard);
      cache.bind(heard, coverage);
      for (std::size_t root = 0; root < n; ++root) {
        ASSERT_EQ(cache.tree(root),
                  referenceDamageTree(heard, coverage, root, 0.0, nullptr))
            << "n=" << n << " root=" << root;
      }
    }
  }
}

TEST(DamageCacheTest, NoisyBindMatchesPairwisePrimAndRngStream) {
  DamageCache cache;
  for (const std::size_t n : kSizes) {
    Rng cacheRng(77 + n);
    Rng referenceRng(77 + n);
    for (const std::vector<DynBitset>& heard : recordedStates(n)) {
      const std::vector<std::size_t> coverage = coverageOf(heard);
      // Interleave plain and noisy binds the way beam search does, so a
      // stale generation would surface as a wrong tree.
      cache.bind(heard, coverage);
      ASSERT_EQ(cache.tree(0),
                referenceDamageTree(heard, coverage, 0, 0.0, nullptr));
      const std::size_t step = std::max<std::size_t>(1, n / 5);
      for (std::size_t root = 0; root < n; root += step) {
        cache.bindNoisy(heard, coverage, 8.0, cacheRng);
        const RootedTree expected =
            referenceDamageTree(heard, coverage, root, 8.0, &referenceRng);
        ASSERT_EQ(cache.tree(root), expected) << "n=" << n << " root=" << root;
        ASSERT_EQ(cacheRng(), referenceRng()) << "rng streams diverged";
      }
      // Amplitude 0 draws nothing and gives the plain tree.
      cache.bindNoisy(heard, coverage, 0.0, cacheRng);
      ASSERT_EQ(cache.tree(n - 1),
                referenceDamageTree(heard, coverage, n - 1, 0.0, nullptr));
      ASSERT_EQ(cacheRng(), referenceRng());
    }
  }
}

TEST(EvaluatePathOrderTest, MatchesEvaluateCandidateOnMaterializedPath) {
  Rng rng(2024);
  EvalScratch pathScratch;
  for (const std::size_t n : kSizes) {
    EvalScratch treeScratch = EvalScratch::forProcessCount(n);
    for (const std::vector<DynBitset>& heard : recordedStates(n)) {
      const BroadcastSim sim = BroadcastSim::fromHeard(heard);
      const std::vector<std::size_t> coverage = coverageCounts(sim);
      std::vector<std::vector<std::size_t>> orders;
      orders.push_back(identityOrder(n));
      orders.push_back(rng.permutation(n));
      orders.push_back(rng.permutation(n));
      for (std::size_t d = 1; d <= 3; ++d) {
        orders.push_back(
            freezeOrdering(sim, topLeaders(coverage, d), orders[1]));
      }
      std::vector<std::size_t> rotated(orders[1].begin() + 1,
                                       orders[1].end());
      rotated.push_back(orders[1].front());
      orders.push_back(std::move(rotated));
      orders.push_back(heardSizeOrder(sim, true));
      orders.push_back(heardSizeOrder(sim, false));
      for (const std::vector<std::size_t>& order : orders) {
        const DelayScore fast =
            evaluatePathOrder(heard, coverage, order, pathScratch);
        const DelayScore slow =
            evaluateCandidate(heard, coverage, makePath(order), treeScratch);
        expectSameScore(fast, slow);
        EXPECT_EQ(pathScratch.coverage, treeScratch.coverage);
      }
    }
  }
}

TEST(EvaluatePathOrderTest, RejectsNonPermutations) {
  const BroadcastSim sim(5);
  const std::vector<std::size_t> coverage = coverageCounts(sim);
  EvalScratch scratch = EvalScratch::forProcessCount(5);
  const std::vector<std::vector<std::size_t>> bad = {
      {0, 1, 2, 3, 3},     // duplicate
      {0, 1, 2, 3, 5},     // out of range
      {0, 1, 2, 3},        // too short
      {0, 1, 2, 3, 4, 0},  // too long
  };
  for (const std::vector<std::size_t>& order : bad) {
    EXPECT_THROW((void)evaluatePathOrder(sim.heardMatrix(), coverage, order,
                                         scratch),
                 AssertionError);
  }
}

TEST(PotentialTermTest, TableEqualsExp2) {
  for (std::size_t k = 0; k <= 50; ++k) {
    EXPECT_EQ(potentialTerm(k), std::exp2(static_cast<double>(k))) << k;
  }
  EXPECT_EQ(potentialTerm(51), std::exp2(50.0));
  EXPECT_EQ(potentialTerm(1000), std::exp2(50.0));
}

TEST(TopLeadersTest, HighestCoverageFirstTiesById) {
  const std::vector<std::size_t> coverage = {3, 7, 7, 1, 9};
  EXPECT_EQ(topLeaders(coverage, 3), (std::vector<std::size_t>{4, 1, 2}));
  EXPECT_EQ(topLeaders(coverage, 9).size(), coverage.size());
  EXPECT_EQ(identityOrder(3), (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace dynbcast
