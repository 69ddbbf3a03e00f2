// ExperimentEngine: the shared parallel sweep substrate for benches and
// tests.
//
// Every number this repo reports comes from embarrassingly parallel
// per-(n, seed, adversary) runs, laid out as a row grid: sizes × seed
// replicates × members, row position p = instance * members + member.
// Each row's seed is derived from its POSITION via SeedSequence (never
// from execution order), and every result lands in a preallocated slot
// indexed by position. Consequence: the collected rows are bit-identical
// at any --jobs value, so parallelism is free to use everywhere —
// including inside determinism tests.
//
// One executor runs every grid: groupLaneChunks() splits positions into
// chunks (a single row, or lockstep lanes of one oblivious cell),
// runChunks() fans the chunks out over a work-stealing ThreadPool, and
// runBroadcastLanes() runs a chunk's adversaries. The scenario path
// (scenario.h, task_plan.h) and runSweep() both go through these three.
//
// Entry points:
//   * runSweep(spec)      — the portfolio workload over member factories
//                           (rows + per-instance aggregates, Definition
//                           2.3's max);
//   * map(count, seed, f) — generic sharding for everything else (beam
//                           witness searches, service tasks, …).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/adversary/portfolio.h"
#include "src/sim/metrics.h"
#include "src/support/seed_sequence.h"
#include "src/support/thread_pool.h"

namespace dynbcast {

struct EngineConfig {
  /// Worker threads; 0 = one per hardware thread.
  std::size_t jobs = 1;
  /// Capture per-round metrics in every row (costly at large n).
  bool recordHistory = false;
};

/// How the replicates of a (size, member) cell are chunked — the one
/// batching decision, made by groupLaneChunks() for every caller.
///
/// Replicates of an OBLIVIOUS member are independent runs of the same
/// tree process, so the engine can advance a whole chunk of them in
/// lockstep through one BatchBroadcastSim — decoding each round's tree
/// once for the chunk instead of once per replicate, with the row work
/// going through the SIMD dispatch table as contiguous lane-planes.
/// Batching never changes a single byte of output: the batched
/// recurrence is bit-identical to the scalar runs (see runObliviousBatch)
/// and every row still lands in its position-indexed slot. Cells that
/// cannot batch — adaptive members, history recording, gossip and graph
/// models — always run one row per chunk.
struct BatchPolicy {
  enum class Mode {
    kAuto,  ///< batch eligible cells with >= kAutoWidth replicates
    kOff,   ///< scalar path for everything
    kFixed  ///< batch eligible cells in chunks of `width` lanes
  };
  Mode mode = Mode::kAuto;
  /// Lane width under kFixed (>= 1); ignored for the other modes.
  std::size_t width = 0;

  /// The width kAuto uses, and the replicate count at which it engages.
  static constexpr std::size_t kAutoWidth = 8;

  friend bool operator==(const BatchPolicy&, const BatchPolicy&) = default;
};

/// Parses "auto" | "off" | a lane width like "8" (the --batch grammar),
/// throwing std::invalid_argument with suggestions on anything else.
[[nodiscard]] BatchPolicy parseBatchPolicy(const std::string& text);
[[nodiscard]] std::string batchPolicyName(const BatchPolicy& policy);

/// Declarative description of a portfolio sweep. The factory is invoked
/// once per (n, seed) instance on the calling thread and must return the
/// same non-empty list of member names, in the same order, for every
/// instance (the row grid has one width). The members' make() closures
/// are then called concurrently, so they must not share mutable state
/// (standardPortfolio's are pure).
struct SweepSpec {
  std::vector<std::size_t> sizes;
  std::uint64_t masterSeed = 1;
  /// Independent seed replicates per size (instance seeds are derived,
  /// so replicate r of size n is decorrelated from every other task).
  std::size_t seedsPerSize = 1;
  /// Portfolio members per instance; empty = standardPortfolio.
  std::function<std::vector<PortfolioMember>(std::size_t n,
                                             std::uint64_t seed)>
      portfolio;
  /// Round cap per instance; 0 = defaultRoundCap(n).
  std::size_t roundCap = 0;
  /// Per-sweep history override; unset = the engine's
  /// EngineConfig::recordHistory.
  std::optional<bool> recordHistory;
  /// Replicate batching strategy (see BatchPolicy); output-invariant.
  BatchPolicy batch;
};

/// One member's run inside a sweep — the atomic unit of work.
struct SweepRow {
  std::size_t n = 0;
  std::size_t seedIndex = 0;      // replicate index within this size
  std::uint64_t instanceSeed = 0; // derived seed shared by the instance
  std::string member;
  std::size_t rounds = 0;
  bool completed = false;
  std::vector<RoundMetrics> history;  // empty unless recordHistory

  friend bool operator==(const SweepRow& a, const SweepRow& b) {
    return a.n == b.n && a.seedIndex == b.seedIndex &&
           a.instanceSeed == b.instanceSeed && a.member == b.member &&
           a.rounds == b.rounds && a.completed == b.completed;
  }
};

/// Per-(n, seed) aggregate: the portfolio view of one instance. Entry
/// histories are left empty here — per-round metrics live only in
/// SweepResult::rows, to avoid holding them twice.
struct SweepInstance {
  std::size_t n = 0;
  std::size_t seedIndex = 0;
  std::uint64_t instanceSeed = 0;
  PortfolioResult portfolio;  // entries in member order
};

struct SweepResult {
  /// All rows, ordered by (size position, seed replicate, member) — the
  /// same order a serial loop would produce, at any thread count.
  std::vector<SweepRow> rows;
  /// Rows regrouped per instance, same deterministic order.
  std::vector<SweepInstance> instances;
};

/// One task of a row grid: a single position, or the ascending positions
/// of one oblivious (size, member) cell run as lockstep lanes.
using RowChunk = std::vector<std::size_t>;

/// A row grid's shape: sizes × replicates instances of `members` rows.
/// Position p is member p % members of instance p / members; instance i
/// is replicate i % replicates of size index i / replicates.
struct RowGrid {
  std::size_t sizes = 0;
  std::size_t replicates = 1;
  std::size_t members = 0;
};

/// The batching plan transform, pure in its inputs: splits ascending
/// `positions` (any subset of the grid) into chunks. Under `policy`, an
/// oblivious cell batches in lanes of its width (kFixed), or of
/// kAutoWidth once the grid has that many replicates (kAuto); callers
/// pass kOff for grids that cannot batch (history, gossip, graph models).
/// A cell with at least two of the positions and a lane width above 1 is
/// probed once, oblivious(its first position), and split into chunks of
/// up to that many lanes; every other position is a chunk of one. Chunks
/// come in (size, member, replicate) order.
[[nodiscard]] std::vector<RowChunk> groupLaneChunks(
    const RowGrid& grid, const std::vector<std::size_t>& positions,
    const BatchPolicy& policy,
    const std::function<bool(std::size_t position)>& oblivious);

/// The lane runner: fills rounds, completed and history of each
/// (*rows)[i] — whose n is set, one n for all — with the broadcast run
/// against lanes[i], capped at roundCap (0: defaultRoundCap(n)). One lane
/// runs runAdversary (with history if asked); several run
/// runObliviousBatch (all oblivious, never history). Row i is exactly
/// runAdversary(n, *lanes[i], cap)'s either way.
void runBroadcastLanes(std::vector<SweepRow>* rows,
                       const std::vector<std::unique_ptr<Adversary>>& lanes,
                       std::size_t roundCap, bool recordHistory);

/// Regroups rows in position order, `members` per instance, into
/// per-instance portfolio aggregates (entries in member order).
[[nodiscard]] std::vector<SweepInstance> aggregateInstances(
    const std::vector<SweepRow>& rows, std::size_t members);

class ExperimentEngine {
 public:
  explicit ExperimentEngine(EngineConfig config = {});

  [[nodiscard]] std::size_t jobCount() const noexcept {
    return pool_.threadCount();
  }

  /// Fans the sweep out across the pool; see SweepResult for ordering.
  [[nodiscard]] SweepResult runSweep(const SweepSpec& spec);

  /// Runs every chunk across the pool. runChunk(chunk) returns one row
  /// per chunk position, in chunk order; each lands in its position's
  /// slot of the rowCount rows returned.
  [[nodiscard]] std::vector<SweepRow> runChunks(
      std::size_t rowCount, const std::vector<RowChunk>& chunks,
      const std::function<std::vector<SweepRow>(const RowChunk&)>& runChunk);

  /// Generic sharded map: evaluates fn(index, seed) for every index in
  /// [0, count), where seed = SeedSequence(masterSeed).at(index), and
  /// returns results in index order. R must be default-constructible.
  template <typename R, typename F>
  [[nodiscard]] std::vector<R> map(std::size_t count,
                                   std::uint64_t masterSeed, F&& fn) {
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> bit-packs, so concurrent writes to "
                  "adjacent slots race — use char or a wrapper struct");
    std::vector<R> out(count);
    const SeedSequence seeds(masterSeed);
    pool_.parallelFor(count, [&](std::size_t index) {
      out[index] = fn(index, seeds.at(index));
    });
    return out;
  }

 private:
  EngineConfig config_;
  ThreadPool pool_;
};

}  // namespace dynbcast
