#include "src/dynamics/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/properties.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/hashing.h"

namespace dynbcast {
namespace {

TEST(DynamicsSpecTest, ParseAndPrintRoundTrip) {
  const DynamicsSpec spec = DynamicsSpec::parse("edge-markovian:q=0.3,p=0.5");
  EXPECT_EQ(spec.name, "edge-markovian");
  EXPECT_DOUBLE_EQ(spec.params.getDouble("p", 0), 0.5);
  EXPECT_DOUBLE_EQ(spec.params.getDouble("q", 0), 0.3);
  // Canonical printing sorts keys; parsing the canonical form is a
  // fixed point.
  EXPECT_EQ(spec.toString(), "edge-markovian:p=0.5,q=0.3");
  EXPECT_EQ(DynamicsSpec::parse(spec.toString()).toString(),
            spec.toString());
  EXPECT_EQ(DynamicsSpec::parse(" t-interval : T = 8 ").toString(),
            "t-interval:T=8");
}

TEST(DynamicsSpecTest, ConversionErrorsNameTheAxis) {
  // Parsed params carry their axis, so a bad value in a scenario mixing
  // --dynamics and --adversaries says which spec broke.
  const DynamicsSpec spec = DynamicsSpec::parse("t-interval:T=abc");
  try {
    (void)spec.params.getUInt("T", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dynamics parameter"),
              std::string::npos)
        << e.what();
  }
}

TEST(DynamicsSpecTest, MalformedSpecsThrow) {
  EXPECT_THROW((void)DynamicsSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse(":p=1"), std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse("t-interval:"),
               std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse("t-interval:T"),
               std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse("t-interval:T=4,T=8"),
               std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse("t interval:T=4"),
               std::invalid_argument);
}

TEST(DynamicsRegistryTest, TheModelZooIsRegistered) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  for (const char* name :
       {"rooted-tree", "restricted", "nonsplit-random", "nonsplit-skewed",
        "edge-markovian", "t-interval"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_GE(registry.names().size(), 6u);
}

TEST(DynamicsRegistryTest, EveryGraphModelEmitsItsDeclaredClass) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const std::size_t n = 12;
  const BroadcastSim state(n);
  for (const std::string& name : registry.names()) {
    const DynamicsInfo& info = registry.info(name);
    if (info.mode != DynamicsMode::kGraphModel) continue;
    const auto model = registry.make(name, n, 5);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->graphClass(), info.graphClass) << name;
    EXPECT_GE(model->defaultRoundCap(), 4u) << name;
    for (std::size_t round = 0; round < 3; ++round) {
      const BitMatrix g = model->nextGraph(state);
      ASSERT_EQ(g.dim(), n) << name;
      EXPECT_TRUE(g.isReflexive()) << name;
      if (info.graphClass == DynamicsClass::kNonsplit) {
        EXPECT_TRUE(isNonsplit(g)) << name;
      }
    }
  }
}

TEST(DynamicsRegistryTest, ModelsReplayDeterministicallyAcrossReset) {
  // The replay contract: same (n, seed) → same graph sequence, and
  // reset() rewinds to the constructed seed. This is what makes
  // position-seeded stochastic sweeps bit-identical at any job count.
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  // n = 24 keeps nonsplit-skewed's dispatcher span (n/8) above 1 — at
  // tiny n its graph is seed-independent by construction.
  const std::size_t n = 24;
  const BroadcastSim state(n);
  for (const std::string& spec :
       {std::string("nonsplit-random"), std::string("nonsplit-skewed"),
        std::string("edge-markovian:p=0.3,q=0.2"),
        std::string("t-interval:T=2")}) {
    const auto a = registry.make(spec, n, 42);
    const auto b = registry.make(spec, n, 42);
    std::vector<BitMatrix> firstRun;
    for (std::size_t round = 0; round < 5; ++round) {
      const BitMatrix ga = a->nextGraph(state);
      const BitMatrix gb = b->nextGraph(state);
      EXPECT_EQ(ga, gb) << spec << " round " << round;
      firstRun.push_back(ga);
    }
    a->reset();
    for (std::size_t round = 0; round < 5; ++round) {
      EXPECT_EQ(a->nextGraph(state), firstRun[round])
          << spec << " replay round " << round;
    }
    // A different seed must give a different sequence (all four models
    // are stochastic).
    const auto c = registry.make(spec, n, 43);
    bool anyDifferent = false;
    for (std::size_t round = 0; round < 5; ++round) {
      if (!(c->nextGraph(state) == firstRun[round])) anyDifferent = true;
    }
    EXPECT_TRUE(anyDifferent) << spec;
  }
}

TEST(DynamicsRegistryTest, ModelNamesAreCanonicalSpecs) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const auto plain = registry.make("edge-markovian", 8, 1);
  EXPECT_EQ(plain->name(), "edge-markovian");
  const auto parameterized =
      registry.make("edge-markovian:q=0.4,p=0.6", 8, 1);
  EXPECT_EQ(parameterized->name(), "edge-markovian:p=0.6,q=0.4");
  EXPECT_EQ(DynamicsSpec::parse(parameterized->name()).toString(),
            parameterized->name());
}

TEST(DynamicsRegistryTest, UnknownNameSuggestsNearest) {
  try {
    (void)DynamicsRegistry::instance().make("edge-markovan", 8, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("edge-markovian"),
              std::string::npos)
        << e.what();
  }
}

TEST(DynamicsRegistryTest, UnknownKeySuggestsNearest) {
  try {
    (void)DynamicsRegistry::instance().make("t-interval:t=4", 8, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("T"), std::string::npos)
        << e.what();
  }
}

TEST(DynamicsRegistryTest, ParameterRangesAreValidatedEagerly) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  // validate() fires without constructing, so a bad sweep spec fails at
  // composition time, not inside a worker thread.
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("edge-markovian:p=0")),
      std::invalid_argument);
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("edge-markovian:p=1.5")),
      std::invalid_argument);
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("edge-markovian:q=-0.1")),
      std::invalid_argument);
  EXPECT_THROW(registry.validate(DynamicsSpec::parse("t-interval:T=0")),
               std::invalid_argument);
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("nonsplit-random:p=2")),
      std::invalid_argument);
  // edges= (a count) and p= (a density) are alternative ways to set the
  // same knob: both at once is ambiguous and must be rejected, not
  // silently resolved in favor of one.
  EXPECT_THROW(registry.validate(
                   DynamicsSpec::parse("nonsplit-random:edges=4,p=0.5")),
               std::invalid_argument);
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("restricted:class=brooom")),
      std::invalid_argument);
  // In-range values pass.
  registry.validate(DynamicsSpec::parse("edge-markovian:p=0.2,q=0.1"));
  registry.validate(DynamicsSpec::parse("t-interval:T=1"));
  registry.validate(DynamicsSpec::parse("restricted:class=broom,k=3"));
}

TEST(DynamicsRegistryTest, AdversaryDrivenEntriesHaveNoStandaloneModel) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  EXPECT_THROW((void)registry.make("rooted-tree", 8, 1),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("restricted", 8, 1),
               std::invalid_argument);
}

TEST(DynamicsRegistryTest, DuplicateOrInconsistentRegistrationThrows) {
  DynamicsRegistry registry;  // local registry: no built-ins
  DynamicsInfo info;
  info.name = "test-model";
  info.mode = DynamicsMode::kGraphModel;
  info.factory = [](std::size_t n, std::uint64_t seed,
                    const DynamicsParams&) {
    return DynamicsRegistry::instance().make("nonsplit-skewed", n, seed);
  };
  registry.add(info);
  EXPECT_TRUE(registry.contains("test-model"));
  EXPECT_THROW(registry.add(info), std::invalid_argument);

  DynamicsInfo missingFactory;
  missingFactory.name = "no-factory";
  missingFactory.mode = DynamicsMode::kGraphModel;
  EXPECT_THROW(registry.add(missingFactory), std::invalid_argument);

  DynamicsInfo extraFactory = info;
  extraFactory.name = "tree-with-factory";
  extraFactory.mode = DynamicsMode::kAdversaryTrees;
  EXPECT_THROW(registry.add(extraFactory), std::invalid_argument);
}

TEST(DynamicsRegistryTest, EveryModelReplaysAtParamBoundaries) {
  // Registry-wide: every graph model × every documented parameter, pinned
  // at a boundary value the validator accepts, must construct and replay
  // deterministically across reset() — on nextGraph AND (when the entry
  // claims sparseCapable) on nextSparseRound. Guards the registry against
  // a model whose edge-of-range parameterization silently consumes
  // randomness differently on replay.
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const std::size_t n = 24;
  const BroadcastSim state(n);
  // Boundary candidates per key, tried in order; the first one the
  // entry's validator accepts wins. Taking one key at a time also keeps
  // mutually-exclusive pairs (nonsplit-random's edges/p) apart.
  const std::vector<std::string> candidates = {"1", "0", "0.999", "0.001"};
  for (const std::string& name : registry.names()) {
    const DynamicsInfo& info = registry.info(name);
    if (info.mode != DynamicsMode::kGraphModel) continue;
    std::vector<std::string> specs = {name};  // all-defaults baseline
    for (const DynamicsParamDoc& param : info.params) {
      bool accepted = false;
      for (const std::string& value : candidates) {
        const std::string text = name + ":" + param.key + "=" + value;
        try {
          registry.validate(DynamicsSpec::parse(text));
        } catch (const std::invalid_argument&) {
          continue;
        }
        specs.push_back(text);
        accepted = true;
        break;
      }
      EXPECT_TRUE(accepted)
          << name << ": no boundary candidate accepted for key '"
          << param.key << "'";
    }
    for (const std::string& spec : specs) {
      const auto model = registry.make(spec, n, 77);
      std::vector<BitMatrix> firstRun;
      for (std::size_t round = 0; round < 4; ++round) {
        firstRun.push_back(model->nextGraph(state));
      }
      model->reset();
      for (std::size_t round = 0; round < 4; ++round) {
        EXPECT_EQ(model->nextGraph(state), firstRun[round])
            << spec << " replay round " << round;
      }
      EXPECT_EQ(model->supportsSparseRounds(), info.sparseCapable) << spec;
      if (!info.sparseCapable) continue;
      // The sparse interface replays too (fresh models: a run consumes
      // one interface only).
      const auto sparseA = registry.make(spec, n, 77);
      const auto sparseB = registry.make(spec, n, 77);
      SparseRound ra, rb;
      std::vector<SparseRound> sparseFirst;
      for (std::size_t round = 0; round < 4; ++round) {
        sparseA->nextSparseRound(ra);
        sparseB->nextSparseRound(rb);
        EXPECT_EQ(ra, rb) << spec << " round " << round;
        sparseFirst.push_back(ra);
      }
      sparseA->reset();
      for (std::size_t round = 0; round < 4; ++round) {
        sparseA->nextSparseRound(ra);
        EXPECT_EQ(ra, sparseFirst[round])
            << spec << " sparse replay round " << round;
      }
    }
  }
}

TEST(DynamicsRegistryTest, SparseRoundsMirrorDenseBelowThreshold) {
  // The mirror contract golden CSVs rely on: at n ≤
  // kSparseDenseMirrorMaxN, nextSparseRound must produce exactly the
  // dense graph's off-diagonal arcs (same seed, same round index).
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const std::size_t n = 24;
  ASSERT_LE(n, kSparseDenseMirrorMaxN);
  const BroadcastSim state(n);
  for (const std::string& name : registry.names()) {
    const DynamicsInfo& info = registry.info(name);
    if (info.mode != DynamicsMode::kGraphModel || !info.sparseCapable) {
      continue;
    }
    const auto denseModel = registry.make(name, n, 31);
    const auto sparseModel = registry.make(name, n, 31);
    SparseRound round;
    for (std::size_t r = 0; r < 6; ++r) {
      const BitMatrix g = denseModel->nextGraph(state);
      sparseModel->nextSparseRound(round);
      ASSERT_EQ(round.n, n) << name;
      ASSERT_EQ(round.offsets.size(), n + 1) << name;
      BitMatrix fromArcs = BitMatrix::identity(n);
      for (std::size_t src = 0; src < n; ++src) {
        for (std::uint32_t k = round.offsets[src]; k < round.offsets[src + 1];
             ++k) {
          const std::uint32_t dst = round.targets[k];
          EXPECT_NE(src, dst) << name << ": self-loops must stay implicit";
          fromArcs.set(src, dst);
        }
      }
      EXPECT_EQ(fromArcs, g) << name << " round " << r;
    }
  }
}

/// The first way `round` breaks the CSR contract for n processes, or ""
/// when it is well-formed: n + 1 monotone offsets from 0 to
/// targets.size(), every target < n, no stored self-loop.
[[nodiscard]] std::string csrDefect(const SparseRound& round, std::size_t n) {
  if (round.n != n) return "n is " + std::to_string(round.n);
  if (round.offsets.size() != n + 1) {
    return std::to_string(round.offsets.size()) + " offsets";
  }
  if (round.offsets[0] != 0) return "offsets[0] != 0";
  if (round.offsets[n] != round.targets.size()) {
    return "offsets[n] != targets.size()";
  }
  for (std::size_t x = 0; x < n; ++x) {
    if (round.offsets[x] > round.offsets[x + 1]) {
      return "offsets decrease at row " + std::to_string(x);
    }
    for (std::uint32_t k = round.offsets[x]; k < round.offsets[x + 1]; ++k) {
      if (round.targets[k] >= n) {
        return "row " + std::to_string(x) + " has target out of range";
      }
      if (round.targets[k] == x) {
        return "row " + std::to_string(x) + " stores its self-loop";
      }
    }
  }
  return "";
}

TEST(DynamicsRegistryTest, SparseRoundsAreWellFormedCsr) {
  // Every sparse-capable model emits well-formed CSR rounds on both sides
  // of the mirror threshold: mirror mode at kSparseDenseMirrorMaxN, native
  // generation one above. Densities are lowered where a model has one so
  // the mirror-mode dense draws stay cheap; round 1 and two evolved
  // rounds are checked.
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const std::map<std::string, std::string> sparseParams = {
      {"edge-markovian", ":p=0.0005,q=0.5"}, {"nonsplit-random", ":p=0.0005"}};
  for (const std::size_t n :
       {kSparseDenseMirrorMaxN, kSparseDenseMirrorMaxN + 1}) {
    for (const std::string& name : registry.names()) {
      const DynamicsInfo& info = registry.info(name);
      if (info.mode != DynamicsMode::kGraphModel || !info.sparseCapable) {
        continue;
      }
      const auto params = sparseParams.find(name);
      const std::string spec =
          name + (params != sparseParams.end() ? params->second : "");
      const auto model = registry.make(spec, n, 11);
      SparseRound round;
      for (std::size_t r = 0; r < 3; ++r) {
        model->nextSparseRound(round);
        EXPECT_EQ(csrDefect(round, n), "")
            << spec << " n=" << n << " round " << r;
      }
    }
  }
}

TEST(DynamicsRegistryTest, NativeSparseEdgeMarkovianRoundsArePinned) {
  // Just above the mirror threshold edge-Markovian evolves its arc list
  // natively (births skip-sampled, present pairs rejected). Pins three
  // rounds' arcs so a change to how births are filtered cannot move the
  // RNG sequence or the arcs it produces.
  const std::size_t n = kSparseDenseMirrorMaxN + 1;
  const auto model = DynamicsRegistry::instance().make(
      "edge-markovian:p=0.01,q=0.5", n, 2024);
  ASSERT_TRUE(model->supportsSparseRounds());
  const std::vector<std::size_t> expectedArcs = {328323, 329097, 328922};
  const std::vector<std::uint64_t> expectedDigests = {
      0xe231ee820eeb5e05ull, 0xcf633f643443fb67ull, 0x621867e4c72dbf14ull};
  SparseRound round;
  for (std::size_t r = 0; r < 3; ++r) {
    model->nextSparseRound(round);
    ASSERT_EQ(round.offsets.size(), n + 1);
    std::uint64_t digest = hashMix(round.arcCount());
    for (std::uint64_t src = 0; src < n; ++src) {
      for (std::uint32_t k = round.offsets[src]; k < round.offsets[src + 1];
           ++k) {
        const std::uint64_t arc = (src << 32) | round.targets[k];
        digest = hashCombine(digest, hashMix(arc));
      }
    }
    EXPECT_EQ(round.arcCount(), expectedArcs[r]) << "round " << r;
    EXPECT_EQ(digest, expectedDigests[r]) << "round " << r;
  }
}

TEST(DynamicsDriverTest, RunDynamicsBroadcastCompletesAndReplays) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  for (const std::string& spec :
       {std::string("nonsplit-random"),
        std::string("edge-markovian:p=0.25,q=0.1"),
        std::string("t-interval:T=3")}) {
    const auto model = registry.make(spec, 16, 9);
    const BroadcastRun first =
        runDynamicsBroadcast(16, *model, model->defaultRoundCap());
    EXPECT_TRUE(first.completed) << spec;
    EXPECT_GE(first.rounds, 1u) << spec;
    // The driver resets the model, so a second run replays bit for bit.
    const BroadcastRun again =
        runDynamicsBroadcast(16, *model, model->defaultRoundCap());
    EXPECT_EQ(first.rounds, again.rounds) << spec;
    EXPECT_EQ(first.completed, again.completed) << spec;
  }
}

TEST(DynamicsDriverTest, HistoryMatchesRoundsAndEdgesGrow) {
  const auto model =
      DynamicsRegistry::instance().make("edge-markovian:p=0.3,q=0.1", 12, 4);
  const BroadcastRun run =
      runDynamicsBroadcast(12, *model, model->defaultRoundCap(), true);
  ASSERT_TRUE(run.completed);
  ASSERT_EQ(run.history.size(), run.rounds);
  for (std::size_t i = 1; i < run.history.size(); ++i) {
    // The heard-of state is monotone: total edges never shrink.
    EXPECT_GE(run.history[i].totalEdges, run.history[i - 1].totalEdges);
  }
}

TEST(DynamicsDriverTest, TIntervalHoldsEachGraphForTRounds) {
  const auto model =
      DynamicsRegistry::instance().make("t-interval:T=3", 10, 11);
  const BroadcastSim state(10);
  std::vector<BitMatrix> graphs;
  for (std::size_t i = 0; i < 9; ++i) graphs.push_back(model->nextGraph(state));
  for (std::size_t period = 0; period < 3; ++period) {
    EXPECT_EQ(graphs[3 * period], graphs[3 * period + 1]) << period;
    EXPECT_EQ(graphs[3 * period], graphs[3 * period + 2]) << period;
    // Each period's graph is a symmetric connected spanning subgraph.
    EXPECT_TRUE(isRooted(graphs[3 * period])) << period;
  }
  // Rewiring happens: 3 independent random trees on 10 nodes collide
  // with negligible probability.
  EXPECT_FALSE(graphs[0] == graphs[3] && graphs[3] == graphs[6]);
}

}  // namespace
}  // namespace dynbcast
