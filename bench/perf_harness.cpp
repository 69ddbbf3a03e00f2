// perf_harness: the repo's perf telemetry source of truth.
//
// Times (a) the raw-word kernels (through the runtime SIMD dispatch
// table) and the blocked boolean product against naive references,
// (b) BroadcastSim round throughput — scalar and batched across 8
// lockstep lanes — and (c) the end-to-end thm31 portfolio sweep plus a
// batched-vs-scalar engine sweep over oblivious members, then emits
// machine-readable JSON:
//
//   BENCH_kernels.json — per-kernel ns/op and GiB/s
//   BENCH_sweep.json   — sweep wall times, one-game times of the two
//                        hottest search adversaries (greedy-delay and
//                        local-search at n=128), DamageCache's row trees
//                        against a pairwise reference, the batch speedup
//                        factors, and search-core telemetry
//
// CI's bench-smoke job runs `perf_harness --quick --csv=...`, uploads the
// JSONs as artifacts, and gates on bench/baseline.json via
// bench/check_bench_regression.py (see bench/README.md for the schema).
// Set DYNBCAST_FORCE_SCALAR=1 to take the SIMD tiers out of every
// measurement (the printed simd level records which tier actually ran).
//
// Flags (on top of the shared driver's --sizes/--seed/--jobs/--csv):
//   --quick        CI mode: smaller sweep size and shorter kernel reps
//                  (the batched-vs-scalar sweep stays at n = 256)
//   --out=DIR      directory for the BENCH_*.json files (default ".")
//   --sweep-n=N    portfolio sweep size (default 256; 96 with --quick)
// Any other flag is rejected before anything runs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <filesystem>

#include "bench/driver.h"
#include "src/adversary/adaptive.h"
#include "src/adversary/beam.h"
#include "src/adversary/local_search.h"
#include "src/adversary/lookahead.h"
#include "src/adversary/oblivious.h"
#include "src/adversary/portfolio.h"
#include "src/dynamics/registry.h"
#include "src/engine/experiment_engine.h"
#include "src/graph/bitmatrix.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/service/worker.h"
#include "src/support/file_lock.h"
#include "src/sim/batch_sim.h"
#include "src/sim/broadcast_sim.h"
#include "src/sim/frontier_sim.h"
#include "src/support/bitset.h"
#include "src/support/rng.h"
#include "src/support/table.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One timed kernel measurement.
struct KernelResult {
  std::string name;
  std::size_t bits = 0;    // operand width in bits (0 = n/a)
  std::uint64_t reps = 0;  // operations timed
  double nsPerOp = 0.0;
  double gibPerS = 0.0;  // words touched per op * reps / time (0 = n/a)
};

/// Runs `op` (one operation per call) until ~minSeconds elapsed, in
/// batches, and returns (reps, seconds). `sink` defeats dead-code elim.
template <typename Op>
std::pair<std::uint64_t, double> timeLoop(double minSeconds, Op&& op) {
  std::uint64_t reps = 0;
  std::uint64_t batch = 64;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < minSeconds) {
    for (std::uint64_t i = 0; i < batch; ++i) op();
    reps += batch;
    elapsed = secondsSince(start);
    if (batch < (std::uint64_t{1} << 20)) batch *= 2;
  }
  return {reps, elapsed};
}

DynBitset randomBitset(std::size_t bits, double density, Rng& rng) {
  DynBitset b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.uniformReal() < density) b.set(i);
  }
  return b;
}

std::uint64_t volatile gSink = 0;  // keeps results observable
void consume(std::uint64_t v) { gSink = gSink + v; }

// GiB/s accounts bytes actually moved per word so kernels are comparable:
// orAssign/orCount read src, read dst, write dst (24 B/word);
// intersectAny reads both operands (16 B/word).
constexpr double kBytesPerWordRmw = 24.0;
constexpr double kBytesPerWordRead2 = 16.0;

KernelResult benchOrAssign(std::size_t bits, double minSeconds, Rng& rng) {
  DynBitset dst = randomBitset(bits, 0.3, rng);
  const DynBitset src = randomBitset(bits, 0.3, rng);
  const std::size_t nwords = dst.wordCount();
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    bitword::orAssign(dst.wordData(), src.wordData(), nwords);
    consume(dst.wordData()[0]);
  });
  KernelResult r{"orAssign", bits, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  r.gibPerS = static_cast<double>(reps) * static_cast<double>(nwords) *
              kBytesPerWordRmw / secs / (1024.0 * 1024.0 * 1024.0);
  return r;
}

KernelResult benchOrCount(std::size_t bits, double minSeconds, Rng& rng) {
  DynBitset dst = randomBitset(bits, 0.3, rng);
  const DynBitset src = randomBitset(bits, 0.3, rng);
  const std::size_t nwords = dst.wordCount();
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    consume(bitword::orCount(dst.wordData(), src.wordData(), nwords));
  });
  KernelResult r{"orCount", bits, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  r.gibPerS = static_cast<double>(reps) * static_cast<double>(nwords) *
              kBytesPerWordRmw / secs / (1024.0 * 1024.0 * 1024.0);
  return r;
}

KernelResult benchIntersectAny(std::size_t bits, double minSeconds,
                               Rng& rng) {
  // Disjoint operands: the worst case, no early exit until the last word.
  DynBitset a(bits);
  DynBitset b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.uniformReal() < 0.5) {
      a.set(i);
    } else {
      b.set(i);
    }
  }
  const std::size_t nwords = a.wordCount();
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    consume(bitword::intersectAny(a.wordData(), b.wordData(), nwords) ? 1 : 0);
  });
  KernelResult r{"intersectAny", bits, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  r.gibPerS = static_cast<double>(reps) * static_cast<double>(nwords) *
              kBytesPerWordRead2 / secs / (1024.0 * 1024.0 * 1024.0);
  return r;
}

/// The pre-rewrite textbook product (row-gather via findNext), kept here
/// as the blocked kernel's reference and A/B partner.
BitMatrix productNaive(const BitMatrix& a, const BitMatrix& b) {
  const std::size_t n = a.dim();
  BitMatrix out(n);
  for (std::size_t x = 0; x < n; ++x) {
    const DynBitset& aRow = a.row(x);
    for (std::size_t z = aRow.findFirst(); z < n; z = aRow.findNext(z + 1)) {
      out.row(x).orWith(b.row(z));
    }
  }
  return out;
}

BitMatrix randomMatrix(std::size_t n, double density, Rng& rng) {
  BitMatrix m(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      if (x == y || rng.uniformReal() < density) m.set(x, y);
    }
  }
  return m;
}

std::vector<KernelResult> benchProduct(std::size_t n, double minSeconds,
                                       Rng& rng) {
  const BitMatrix a = randomMatrix(n, 0.05, rng);
  const BitMatrix b = randomMatrix(n, 0.05, rng);
  std::vector<KernelResult> out;
  {
    auto [reps, secs] = timeLoop(minSeconds, [&] {
      const BitMatrix p = productNaive(a, b);
      consume(p.row(0).words()[0]);
    });
    KernelResult r{"productNaive", n, reps, 0.0, 0.0};
    r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
    out.push_back(r);
  }
  {
    auto [reps, secs] = timeLoop(minSeconds, [&] {
      const BitMatrix p = a.productBlocked(b);
      consume(p.row(0).words()[0]);
    });
    KernelResult r{"productBlocked", n, reps, 0.0, 0.0};
    r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
    out.push_back(r);
  }
  return out;
}

KernelResult benchSimRound(std::size_t n, double minSeconds, Rng& rng) {
  // A pool of random trees applied cyclically; each op = one full round
  // (the O(n²/64) heard-of recurrence + incremental completion refresh).
  std::vector<RootedTree> trees;
  for (int i = 0; i < 32; ++i) trees.push_back(randomRootedTree(n, rng));
  BroadcastSim sim(n);
  std::size_t next = 0;
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    sim.applyTree(trees[next]);
    next = (next + 1) % trees.size();
    if (sim.gossipDone()) sim.reset();
    consume(sim.heardCount(0));
  });
  KernelResult r{"simApplyTree", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// Lanes per batched round here AND in the batched engine sweep below —
/// matches BatchPolicy::kAutoWidth so the gated speedups describe what
/// `--batch=auto` actually runs.
constexpr std::size_t kBatchBenchWidth = 8;
/// The batched-vs-scalar engine sweep runs at this n in quick and full
/// mode alike, so CI's --quick run gates batch_sweep_speedup against a
/// baseline measured at the same size.
constexpr std::size_t kBatchSweepN = 256;

KernelResult benchBatchRound(std::size_t n, double minSeconds, Rng& rng) {
  // simApplyTree's batched twin: the same cyclic tree pool, one op = one
  // shared-tree round advancing kBatchBenchWidth lanes in lockstep. The
  // paired metric is ns/op ÷ width vs simApplyTree's ns/op — what the
  // fused decode + lane-contiguous planes buy per replicate round.
  std::vector<RootedTree> trees;
  for (int i = 0; i < 32; ++i) trees.push_back(randomRootedTree(n, rng));
  BatchBroadcastSim sim(n, kBatchBenchWidth);
  std::size_t next = 0;
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    sim.applyTree(trees[next]);
    next = (next + 1) % trees.size();
    if (sim.gossipDone(0)) sim.reset();
    consume(sim.heardCount(0, 0));
  });
  KernelResult r{"batchApplyTree", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

KernelResult benchFrontierRound(std::size_t n, double minSeconds, Rng& rng) {
  // simApplyTree's sparse twin: the same cyclic tree pool driven through
  // FrontierSim, so the two rows compare the dense O(n²/64) recurrence
  // against the O(active edges) frontier propagation at equal n.
  std::vector<RootedTree> trees;
  for (int i = 0; i < 32; ++i) trees.push_back(randomRootedTree(n, rng));
  FrontierSim sim(n);
  std::size_t next = 0;
  auto [reps, secs] = timeLoop(minSeconds, [&] {
    sim.applyTree(trees[next]);
    next = (next + 1) % trees.size();
    if (sim.gossipDone()) sim.reset();
    consume(sim.heardCount(0));
  });
  KernelResult r{"frontierApplyTree", n, reps, 0.0, 0.0};
  r.nsPerOp = secs * 1e9 / static_cast<double>(reps);
  return r;
}

/// Dense-vs-sparse crossover at one n: wall ms of a full edge-markovian
/// t* run through each backend.
struct FrontierCrossover {
  std::size_t n = 0;
  double denseMs = 0.0;
  double sparseMs = 0.0;
  std::size_t denseRounds = 0;
  std::size_t sparseRounds = 0;
};

FrontierCrossover timeFrontierCrossover(std::size_t n, std::uint64_t seed) {
  // Deliberately above kSparseDenseMirrorMaxN: past the threshold the
  // sparse generator runs its native skip-sampling path (below it,
  // mirror-mode replays the dense RNG stream and would mask the win).
  // Stationary density 16/n keeps the graph sparse at any n while t*
  // stays a handful of rounds.
  char spec[64];
  std::snprintf(spec, sizeof spec, "edge-markovian:p=%.8f,q=0.5",
                8.0 / static_cast<double>(n));
  FrontierCrossover out;
  out.n = n;
  {
    const auto model = DynamicsRegistry::instance().make(spec, n, seed);
    const auto start = Clock::now();
    const BroadcastRun run = runDynamicsBroadcast(n, *model, /*maxRounds=*/64);
    out.denseMs = secondsSince(start) * 1e3;
    out.denseRounds = run.rounds;
  }
  {
    const auto model = DynamicsRegistry::instance().make(spec, n, seed);
    const auto start = Clock::now();
    const BroadcastRun run =
        runFrontierDynamicsBroadcast(n, *model, /*maxRounds=*/64,
                                     /*recordHistory=*/false, seed);
    out.sparseMs = secondsSince(start) * 1e3;
    out.sparseRounds = run.rounds;
  }
  return out;
}

/// End-to-end portfolio sweep timing. Returns wall ms.
double timePortfolioSweep(std::size_t n, std::uint64_t seed,
                          std::size_t* bestRounds) {
  const auto start = Clock::now();
  const PortfolioResult result = runPortfolio(n, seed);
  const double ms = secondsSince(start) * 1e3;
  if (bestRounds != nullptr) *bestRounds = result.bestRounds;
  return ms;
}

/// The two search adversaries that take most of the thm31 portfolio's
/// busy time, each timed over one full game at a FIXED n (same in quick
/// and full mode) and seed. One run each, not gated: single-thread times
/// on a shared host drift by about 20% over minutes.
struct AdversaryGameTiming {
  std::size_t n = 128;
  double greedyDelayMs = 0.0;
  double localSearchMs = 0.0;
};

AdversaryGameTiming timeAdversaryGames(std::uint64_t seed) {
  AdversaryGameTiming t;
  const auto timeGame = [&](Adversary& adversary) {
    const auto start = Clock::now();
    (void)runAdversary(t.n, adversary, defaultRoundCap(t.n));
    return secondsSince(start) * 1e3;
  };
  GreedyDelayAdversary greedy(t.n, seed);
  t.greedyDelayMs = timeGame(greedy);
  LocalSearchPathAdversary localSearch(t.n, seed);
  t.localSearchMs = timeGame(localSearch);
  return t;
}

/// The pairwise damage-greedy tree that DamageCache's row design
/// replaced, kept as its reference and A/B partner: damage(p, y) is a
/// scalar ascending-x sum over heard[p] \ heard[y], memoized per bind so
/// the bind's roots share it, and every Prim step scans all n nodes
/// twice. Its trees must equal DamageCache's.
class PairwiseDamageTrees {
 public:
  void bind(const std::vector<DynBitset>& heard,
            const std::vector<std::size_t>& coverage) {
    const std::size_t n = heard.size();
    heard_ = &heard;
    weight_.resize(n);
    for (std::size_t x = 0; x < n; ++x) {
      weight_[x] =
          potentialTerm(coverage[x]) * (coverage[x] + 1 >= n ? 1e6 : 1.0);
    }
    value_.resize(n * n);
    known_.assign(n * n, 0);
  }

  [[nodiscard]] RootedTree tree(std::size_t root) {
    const std::size_t n = heard_->size();
    std::vector<std::size_t> parent(n, root);
    std::vector<double> bestCost(n, 0.0);
    std::vector<std::uint8_t> attached(n, 0);
    attached[root] = 1;
    for (std::size_t y = 0; y < n; ++y) {
      if (y != root) bestCost[y] = damage(root, y);
    }
    for (std::size_t step = 1; step < n; ++step) {
      std::size_t pick = n;
      for (std::size_t y = 0; y < n; ++y) {
        if (attached[y] == 0 && (pick == n || bestCost[y] < bestCost[pick])) {
          pick = y;
        }
      }
      attached[pick] = 1;
      for (std::size_t y = 0; y < n; ++y) {
        if (attached[y] == 0) {
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

 private:
  double damage(std::size_t p, std::size_t y) {
    const std::size_t n = heard_->size();
    const std::size_t at = p * n + y;
    if (known_[at] == 0) {
      double d = 0.0;
      bitword::forEachInDifference((*heard_)[p].wordData(),
                                   (*heard_)[y].wordData(),
                                   (*heard_)[p].wordCount(),
                                   [&](std::size_t x) { d += weight_[x]; });
      value_[at] = d;
      known_[at] = 1;
    }
    return value_[at];
  }

  const std::vector<DynBitset>* heard_ = nullptr;
  std::vector<double> weight_;
  std::vector<double> value_;
  std::vector<std::uint8_t> known_;
};

/// DamageCache against PairwiseDamageTrees over the states of one
/// greedy-delay game at n = 128: per state one bind and three trees,
/// rooted as greedy-delay roots them (lowest coverage, most heard, one
/// random). Each side's time is its fastest pass over all states, with
/// the passes alternated until both have run for minSeconds.
struct DamageTreeTiming {
  std::size_t n = 128;
  std::size_t states = 0;
  double rowMs = 0.0;
  double pairwiseMs = 0.0;
};

DamageTreeTiming timeDamageTrees(std::uint64_t seed, double minSeconds) {
  DamageTreeTiming t;
  struct State {
    std::vector<DynBitset> heard;
    std::vector<std::size_t> coverage;
    std::size_t roots[3];
  };
  std::vector<State> states;
  {
    GreedyDelayAdversary adversary(t.n, seed);
    BroadcastSim sim(t.n);
    Rng rootRng(seed ^ 0xda3aull);
    while (!sim.broadcastDone()) {
      State s{sim.heardMatrix(), coverageCounts(sim), {}};
      s.roots[0] = static_cast<std::size_t>(
          std::min_element(s.coverage.begin(), s.coverage.end()) -
          s.coverage.begin());
      s.roots[1] = 0;
      for (std::size_t y = 1; y < t.n; ++y) {
        if (sim.heardCount(y) > sim.heardCount(s.roots[1])) s.roots[1] = y;
      }
      s.roots[2] = rootRng.uniform(t.n);
      states.push_back(std::move(s));
      sim.applyTree(adversary.nextTree(sim));
    }
  }
  t.states = states.size();

  DamageCache rows;
  PairwiseDamageTrees pairwise;
  std::vector<RootedTree> expected;
  const auto pass = [&](auto& builder, bool record) {
    const auto start = Clock::now();
    std::size_t i = 0;
    for (const State& s : states) {
      builder.bind(s.heard, s.coverage);
      for (const std::size_t root : s.roots) {
        RootedTree tree = builder.tree(root);
        if (record) {
          expected.push_back(std::move(tree));
        } else if (!(tree == expected[i])) {
          std::cerr << "FATAL: damage trees diverged from the pairwise "
                       "reference\n";
          std::exit(1);
        } else {
          consume(tree.height());
        }
        ++i;
      }
    }
    return secondsSince(start) * 1e3;
  };
  t.pairwiseMs = pass(pairwise, true);
  t.rowMs = pass(rows, false);
  const auto start = Clock::now();
  while (secondsSince(start) < 2 * minSeconds) {
    t.pairwiseMs = std::min(t.pairwiseMs, pass(pairwise, false));
    t.rowMs = std::min(t.rowMs, pass(rows, false));
  }
  return t;
}

/// Batched vs scalar end-to-end engine sweep: the same 8 replicates of
/// three oblivious members at one n, once with batch=off and once with
/// batch=8, at jobs=1 so the ratio isolates batching from thread-pool
/// scheduling. The rows are identical by construction (the batched
/// recurrence is bit-exact), so the harness asserts it.
struct BatchSweepTiming {
  std::size_t n = 0;
  double scalarMs = 0.0;
  double batchedMs = 0.0;
};

BatchSweepTiming timeBatchedSweep(std::size_t n, std::uint64_t seed) {
  SweepSpec spec;
  spec.sizes = {n};
  spec.masterSeed = seed;
  spec.seedsPerSize = kBatchBenchWidth;
  spec.portfolio = [](std::size_t count, std::uint64_t memberSeed) {
    // Static-path dominates the wall time (t* = n − 1 rounds); the
    // alternating and random paths add shared-tree and per-lane-tree
    // rounds so both batched code paths are in the measurement.
    std::vector<PortfolioMember> members;
    members.push_back({"static-path", [count] {
                         return std::unique_ptr<Adversary>(
                             new StaticPathAdversary(count));
                       }});
    members.push_back({"alternating-path", [count] {
                         return std::unique_ptr<Adversary>(
                             new AlternatingPathAdversary(count));
                       }});
    members.push_back({"random-path", [count, memberSeed] {
                         return std::unique_ptr<Adversary>(
                             new RandomPathAdversary(count, memberSeed));
                       }});
    return members;
  };
  ExperimentEngine engine({/*jobs=*/1, /*recordHistory=*/false});
  BatchSweepTiming t;
  t.n = n;
  spec.batch = {BatchPolicy::Mode::kOff, 0};
  std::vector<SweepRow> scalarRows;
  {
    const auto start = Clock::now();
    SweepResult result = engine.runSweep(spec);
    t.scalarMs = secondsSince(start) * 1e3;
    scalarRows = std::move(result.rows);
  }
  spec.batch = {BatchPolicy::Mode::kFixed, kBatchBenchWidth};
  {
    const auto start = Clock::now();
    const SweepResult result = engine.runSweep(spec);
    t.batchedMs = secondsSince(start) * 1e3;
    if (result.rows != scalarRows) {
      std::cerr << "FATAL: batched sweep rows diverged from scalar\n";
      std::exit(1);
    }
    consume(result.rows[0].rounds);
  }
  return t;
}

/// Service throughput: distinct sweep specs pushed through the manifest
/// worker loop against one shared result cache — once cold (every task
/// executes and its record + cache entry are fsynced) and once warm
/// (fresh manifests, every task satisfied from the cache). The specs/s
/// pair is the experiment service's headline number, and the warm:cold
/// ratio is the machine-relative gate: it collapses to ~1 if the cache
/// pre-pass stops short-circuiting execution.
struct ServiceThroughput {
  std::size_t specs = 0;
  double coldMs = 0.0;
  double warmMs = 0.0;

  [[nodiscard]] double coldSpecsPerS() const { return specs * 1e3 / coldMs; }
  [[nodiscard]] double warmSpecsPerS() const { return specs * 1e3 / warmMs; }
  [[nodiscard]] double warmSpeedup() const { return coldMs / warmMs; }
};

ServiceThroughput timeServiceThroughput(const std::string& scratchDir,
                                        std::uint64_t seed, bool quick) {
  std::filesystem::remove_all(scratchDir);
  makeDirectories(scratchDir);
  const std::string cacheDir = scratchDir + "/cache";

  ServiceThroughput t;
  t.specs = quick ? 4 : 8;
  std::vector<ServiceRequest> requests;
  for (std::size_t i = 0; i < t.specs; ++i) {
    // Rooted-tree portfolio rows (real adversary runs, not the cheap
    // graph models) so task cost dwarfs the per-record fsync; the beam
    // pass is disabled — its tasks are minutes, not milliseconds.
    ServiceRequest request;
    request.scenario.sizes = {32, 48};
    request.scenario.seedsPerSize = 2;
    request.scenario.masterSeed = seed + i;  // distinct jobs, no overlap
    request.beamMaxN = 0;
    requests.push_back(request);
  }

  const auto runAll = [&](const char* tag) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string manifest = scratchDir + "/" + tag + "-" +
                                   std::to_string(i) + ".manifest";
      initManifest(manifest, canonicalRequestString(requests[i]),
                   planServiceJob(requests[i]).taskCount());
      WorkerOptions work;
      work.manifestPath = manifest;
      work.cacheDir = cacheDir;
      consume(runManifestWorker(work).executed);
    }
    return secondsSince(start) * 1e3;
  };
  t.coldMs = runAll("cold");
  t.warmMs = runAll("warm");
  std::filesystem::remove_all(scratchDir);
  return t;
}

/// Search-core telemetry: one beam witness search at a FIXED size (same
/// in quick and full mode, so CI's --quick run gates against the same
/// baseline values) plus one short lookahead run for its transposition
/// stats. All gated fields are deterministic counters for a fixed seed,
/// not wall times.
struct SearchTelemetry {
  std::size_t beamN = 48;
  std::size_t beamWidth = 256;
  BeamResult beam;
  double beamMs = 0.0;
  std::uint64_t lookaheadNodes = 0;
  std::uint64_t lookaheadHits = 0;
};

SearchTelemetry timeSearchTelemetry(std::uint64_t seed) {
  SearchTelemetry t;
  BeamConfig cfg;
  cfg.beamWidth = t.beamWidth;
  const auto start = Clock::now();
  t.beam = beamSearchWitness(t.beamN, seed ^ 0xbea3ull, cfg);
  t.beamMs = secondsSince(start) * 1e3;
  LookaheadDelayAdversary lookahead(24, seed ^ 0x10caull, {.depth = 3});
  (void)runAdversary(24, lookahead, defaultRoundCap(24));
  t.lookaheadNodes = lookahead.stats().nodesVisited;
  t.lookaheadHits = lookahead.stats().transpositionHits;
  return t;
}

void writeKernelsJson(const std::string& path,
                      const std::vector<KernelResult>& kernels, bool quick,
                      std::size_t jobs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << '\n';
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"dynbcast-bench-kernels/1\",\n");
  std::fprintf(f, "  \"quick\": %s,\n  \"jobs\": %zu,\n",
               quick ? "true" : "false", jobs);
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelResult& k = kernels[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"bits\": %zu, \"reps\": %llu, "
                 "\"ns_per_op\": %.4f, \"gib_per_s\": %.4f}%s\n",
                 k.name.c_str(), k.bits,
                 static_cast<unsigned long long>(k.reps), k.nsPerOp,
                 k.gibPerS, i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::cout << "wrote " << path << '\n';
}

void writeSweepJson(const std::string& path, std::size_t n,
                    std::uint64_t seed, bool quick, double portfolioMs,
                    std::size_t bestRounds,
                    const AdversaryGameTiming& games,
                    const DamageTreeTiming& damageTrees,
                    double batchRoundSpeedup,
                    const BatchSweepTiming& batchSweep,
                    double productSpeedup, std::size_t productN,
                    const FrontierCrossover& frontier,
                    const SearchTelemetry& search,
                    const ServiceThroughput& service) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << '\n';
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"dynbcast-bench-sweep/1\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"n\": %zu,\n  \"seed\": %llu,\n", n,
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"simd_level\": \"%s\",\n",
               bitword::simdLevelName(bitword::dispatch().level));
  std::fprintf(f, "  \"portfolio_ms\": %.3f,\n", portfolioMs);
  std::fprintf(f, "  \"adversary_game_n\": %zu,\n", games.n);
  std::fprintf(f, "  \"greedy_delay_ms\": %.3f,\n", games.greedyDelayMs);
  std::fprintf(f, "  \"local_search_ms\": %.3f,\n", games.localSearchMs);
  std::fprintf(f, "  \"damage_tree_n\": %zu,\n", damageTrees.n);
  std::fprintf(f, "  \"damage_tree_states\": %zu,\n", damageTrees.states);
  std::fprintf(f, "  \"damage_tree_row_ms\": %.3f,\n", damageTrees.rowMs);
  std::fprintf(f, "  \"damage_tree_pairwise_ms\": %.3f,\n",
               damageTrees.pairwiseMs);
  std::fprintf(f, "  \"damage_tree_speedup\": %.4f,\n",
               damageTrees.pairwiseMs / damageTrees.rowMs);
  std::fprintf(f, "  \"batch_width\": %zu,\n", kBatchBenchWidth);
  std::fprintf(f, "  \"batch_round_speedup\": %.4f,\n", batchRoundSpeedup);
  std::fprintf(f, "  \"batch_sweep_n\": %zu,\n", batchSweep.n);
  std::fprintf(f, "  \"batch_scalar_ms\": %.3f,\n", batchSweep.scalarMs);
  std::fprintf(f, "  \"batch_batched_ms\": %.3f,\n", batchSweep.batchedMs);
  std::fprintf(f, "  \"batch_sweep_speedup\": %.4f,\n",
               batchSweep.scalarMs / batchSweep.batchedMs);
  std::fprintf(f, "  \"product_blocked_speedup\": %.4f,\n", productSpeedup);
  std::fprintf(f, "  \"product_n\": %zu,\n", productN);
  std::fprintf(f, "  \"frontier_n\": %zu,\n", frontier.n);
  std::fprintf(f, "  \"frontier_dense_ms\": %.3f,\n", frontier.denseMs);
  std::fprintf(f, "  \"frontier_sparse_ms\": %.3f,\n", frontier.sparseMs);
  std::fprintf(f, "  \"frontier_sparse_speedup\": %.4f,\n",
               frontier.denseMs / frontier.sparseMs);
  const BeamResult& beam = search.beam;
  std::fprintf(f, "  \"beam_n\": %zu,\n  \"beam_width\": %zu,\n",
               search.beamN, search.beamWidth);
  std::fprintf(f, "  \"beam_rounds\": %zu,\n", beam.rounds);
  std::fprintf(f, "  \"beam_unique_states\": %llu,\n",
               static_cast<unsigned long long>(beam.uniqueStates));
  std::fprintf(f, "  \"beam_moves_generated\": %llu,\n",
               static_cast<unsigned long long>(beam.movesGenerated));
  std::fprintf(f, "  \"beam_eval_dedup_ratio\": %.4f,\n",
               beam.uniqueStates != 0
                   ? static_cast<double>(beam.movesGenerated) /
                         static_cast<double>(beam.uniqueStates)
                   : 0.0);
  std::fprintf(f, "  \"transposition_hit_rate\": %.4f,\n",
               beam.statesExpanded != 0
                   ? static_cast<double>(beam.transpositionHits) /
                         static_cast<double>(beam.statesExpanded)
                   : 0.0);
  std::fprintf(f, "  \"beam_hash_collisions\": %llu,\n",
               static_cast<unsigned long long>(beam.hashCollisions));
  std::fprintf(f, "  \"beam_arena_peak_nodes\": %zu,\n",
               beam.arenaPeakNodes);
  std::fprintf(f, "  \"beam_ms\": %.3f,\n", search.beamMs);
  std::fprintf(f, "  \"lookahead_nodes\": %llu,\n",
               static_cast<unsigned long long>(search.lookaheadNodes));
  std::fprintf(f, "  \"lookahead_tt_hit_rate\": %.4f,\n",
               search.lookaheadNodes != 0
                   ? static_cast<double>(search.lookaheadHits) /
                         static_cast<double>(search.lookaheadNodes)
                   : 0.0);
  std::fprintf(f, "  \"service_specs\": %zu,\n", service.specs);
  std::fprintf(f, "  \"service_cold_ms\": %.3f,\n", service.coldMs);
  std::fprintf(f, "  \"service_warm_ms\": %.3f,\n", service.warmMs);
  std::fprintf(f, "  \"service_cold_specs_per_s\": %.4f,\n",
               service.coldSpecsPerS());
  std::fprintf(f, "  \"service_warm_specs_per_s\": %.4f,\n",
               service.warmSpecsPerS());
  std::fprintf(f, "  \"service_warm_speedup\": %.4f,\n",
               service.warmSpeedup());
  std::fprintf(f, "  \"best_rounds\": %zu\n}\n", bestRounds);
  std::fclose(f);
  std::cout << "wrote " << path << '\n';
}

int run(int argc, const char* const* argv) {
  BenchDriver driver(argc, argv, "256", 1);
  const bool quick = driver.options().getBool("quick", false);
  const std::string outDir = driver.options().getString("out", ".");
  const std::size_t sweepN =
      driver.options().getUInt("sweep-n", quick ? 96 : 256);
  const double minSeconds = quick ? 0.05 : 0.25;
  driver.options().rejectUnread();  // e.g. --help: fail, don't run

  driver.printHeader("PERF — kernel throughput + portfolio sweep telemetry");
  std::cout << "simd dispatch: "
            << bitword::simdLevelName(bitword::dispatch().level)
            << " (set DYNBCAST_FORCE_SCALAR=1 to disable)\n\n";
  Rng rng(driver.seed());

  // --- kernels ---------------------------------------------------------
  std::vector<KernelResult> kernels;
  const std::vector<std::size_t> bitSizes =
      quick ? std::vector<std::size_t>{256, 1024}
            : std::vector<std::size_t>{256, 1024, 4096};
  for (const std::size_t bits : bitSizes) {
    kernels.push_back(benchOrAssign(bits, minSeconds, rng));
    kernels.push_back(benchOrCount(bits, minSeconds, rng));
    kernels.push_back(benchIntersectAny(bits, minSeconds, rng));
  }
  const std::size_t productN = quick ? 128 : 256;
  const std::vector<KernelResult> products =
      benchProduct(productN, minSeconds, rng);
  kernels.insert(kernels.end(), products.begin(), products.end());
  const double productSpeedup =
      products[0].nsPerOp / products[1].nsPerOp;  // naive / blocked
  kernels.push_back(benchSimRound(sweepN, minSeconds, rng));
  const KernelResult simRound = kernels.back();
  kernels.push_back(benchBatchRound(sweepN, minSeconds, rng));
  const KernelResult batchRound = kernels.back();
  kernels.push_back(benchFrontierRound(sweepN, minSeconds, rng));
  // Per-replicate round speedup: a batched op advances width lanes.
  const double batchRoundSpeedup =
      simRound.nsPerOp * static_cast<double>(kBatchBenchWidth) /
      batchRound.nsPerOp;

  TextTable kernelTable({"kernel", "bits/n", "reps", "ns/op", "GiB/s"});
  for (const KernelResult& k : kernels) {
    kernelTable.row()
        .add(k.name)
        .add(static_cast<std::uint64_t>(k.bits))
        .add(static_cast<std::uint64_t>(k.reps))
        .add(k.nsPerOp, 2)
        .add(k.gibPerS, 2);
  }

  // --- end-to-end sweeps: thm31 portfolio + batched vs scalar ----------
  std::size_t bestRounds = 0;
  const double portfolioMs =
      timePortfolioSweep(sweepN, driver.seed(), &bestRounds);
  const AdversaryGameTiming games = timeAdversaryGames(driver.seed());
  const BatchSweepTiming batchSweep =
      timeBatchedSweep(kBatchSweepN, driver.seed());
  TextTable sweepTable({"n", "portfolio ms", "best t*", "batch n",
                        "scalar ms", "batched ms", "batch speedup"});
  sweepTable.row()
      .add(static_cast<std::uint64_t>(sweepN))
      .add(portfolioMs, 1)
      .add(static_cast<std::uint64_t>(bestRounds))
      .add(static_cast<std::uint64_t>(batchSweep.n))
      .add(batchSweep.scalarMs, 1)
      .add(batchSweep.batchedMs, 1)
      .add(batchSweep.scalarMs / batchSweep.batchedMs, 2);
  const DamageTreeTiming damageTrees =
      timeDamageTrees(driver.seed(), minSeconds);
  TextTable gameTable({"adversary game", "n", "ms"});
  gameTable.row()
      .add(std::string("greedy-delay"))
      .add(static_cast<std::uint64_t>(games.n))
      .add(games.greedyDelayMs, 1);
  gameTable.row()
      .add(std::string("local-search"))
      .add(static_cast<std::uint64_t>(games.n))
      .add(games.localSearchMs, 1);
  TextTable damageTable(
      {"damage trees", "n", "states", "rows ms", "pairwise ms", "speedup"});
  damageTable.row()
      .add(std::string("bind + 3 roots"))
      .add(static_cast<std::uint64_t>(damageTrees.n))
      .add(static_cast<std::uint64_t>(damageTrees.states))
      .add(damageTrees.rowMs, 2)
      .add(damageTrees.pairwiseMs, 2)
      .add(damageTrees.pairwiseMs / damageTrees.rowMs, 2);

  // --- search core: beam witness + lookahead transposition telemetry -
  const SearchTelemetry search = timeSearchTelemetry(driver.seed());
  TextTable searchTable({"search", "n", "rounds", "unique", "generated",
                         "tt hits", "arena peak", "ms"});
  searchTable.row()
      .add(std::string("beam:w=") + std::to_string(search.beamWidth))
      .add(static_cast<std::uint64_t>(search.beamN))
      .add(static_cast<std::uint64_t>(search.beam.rounds))
      .add(search.beam.uniqueStates)
      .add(search.beam.movesGenerated)
      .add(search.beam.transpositionHits)
      .add(static_cast<std::uint64_t>(search.beam.arenaPeakNodes))
      .add(search.beamMs, 1);

  // --- experiment service: specs/s through the worker loop, cold/warm -
  const ServiceThroughput service = timeServiceThroughput(
      outDir + "/BENCH_service_scratch", driver.seed(), quick);
  TextTable serviceTable({"specs", "cold ms", "warm ms", "cold specs/s",
                          "warm specs/s", "warm speedup"});
  serviceTable.row()
      .add(static_cast<std::uint64_t>(service.specs))
      .add(service.coldMs, 1)
      .add(service.warmMs, 1)
      .add(service.coldSpecsPerS(), 2)
      .add(service.warmSpecsPerS(), 2)
      .add(service.warmSpeedup(), 2);

  // --- dense vs sparse backend crossover (above the mirror threshold) -
  const std::size_t frontierN = quick ? 4608 : 8192;
  const FrontierCrossover frontier =
      timeFrontierCrossover(frontierN, driver.seed());
  TextTable frontierTable(
      {"n", "dense ms", "sparse ms", "speedup", "dense t*", "sparse t*"});
  frontierTable.row()
      .add(static_cast<std::uint64_t>(frontier.n))
      .add(frontier.denseMs, 1)
      .add(frontier.sparseMs, 1)
      .add(frontier.denseMs / frontier.sparseMs, 2)
      .add(static_cast<std::uint64_t>(frontier.denseRounds))
      .add(static_cast<std::uint64_t>(frontier.sparseRounds));

  // Only the kernel table goes through emit (and thus --csv); the sweep
  // numbers live in BENCH_sweep.json, which is the machine-readable copy.
  driver.emit(kernelTable);
  std::cout << '\n' << sweepTable.render() << '\n';
  std::cout << '\n' << gameTable.render() << '\n';
  std::cout << '\n' << damageTable.render() << '\n';
  std::cout << '\n' << searchTable.render() << '\n';
  std::cout << '\n' << serviceTable.render() << '\n';
  std::cout << '\n' << frontierTable.render() << '\n';

  writeKernelsJson(outDir + "/BENCH_kernels.json", kernels, quick,
                   driver.jobs());
  writeSweepJson(outDir + "/BENCH_sweep.json", sweepN, driver.seed(), quick,
                 portfolioMs, bestRounds, games, damageTrees,
                 batchRoundSpeedup, batchSweep,
                 productSpeedup, productN, frontier, search, service);
  return 0;
}

}  // namespace
}  // namespace dynbcast

int main(int argc, char** argv) {
  return dynbcast::guardedMain(argc, argv, dynbcast::run);
}
