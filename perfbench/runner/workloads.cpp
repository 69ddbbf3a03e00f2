#include "runner/workloads.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runner/trace.h"
#include "src/adversary/beam.h"
#include "src/adversary/portfolio.h"
#include "src/bounds/bounds.h"
#include "src/dynamics/registry.h"
#include "src/engine/scenario.h"
#include "src/engine/task_plan.h"
#include "src/service/cache.h"
#include "src/service/client.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/support/bitset.h"
#include "src/support/rng.h"
#include "src/support/seed_sequence.h"
#include "src/support/socket.h"

extern char** environ;

namespace perfbench {

namespace {

namespace db = dynbcast;
namespace fs = std::filesystem;

/// Engine threads everywhere (ExperimentEngine jobs and `serve --jobs`):
/// half of a 4-core machine, so a shared host keeps headroom.
constexpr std::size_t kJobs = 2;
/// Set-up samples per run (see setupDue); run.py reports their median.
constexpr std::size_t kSetupRepeats = 7;
/// A service set-up is about 0.1 s, so it is sampled more often.
constexpr std::size_t kServiceSetupRepeats = 11;
/// Sweep jobs that always run; the t* ratio is taken over their cold ones
/// (jobs 0, 1, 3 and 5: four seeds, so one beam witness moves it less).
constexpr std::size_t kRatioJobs = 6;
/// Served requests folded into the service's cross-process digest.
constexpr std::size_t kDigestRequests = 10;
/// Salts separating the seed streams drawn from one workload seed.
constexpr std::uint64_t kWarmupSalt = 0x5e7a11ull;
constexpr std::uint64_t kSetupSalt = 0x5e7b0bull;
constexpr std::uint64_t kStreamSalt = 0x57e4a3ull;
constexpr std::uint64_t kSampleSalt = 0x5a3b1eull;

[[nodiscard]] double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) / 1e9;
}

/// Set-up is sampled `count` times per run, spread across the measured
/// window: sample 0 builds what the window uses, and sample k is due once
/// k/count of the window has passed. Back-to-back samples at the start of
/// a run all see that one moment of the machine, and their median varied
/// between runs several times more than the window's own figures.
[[nodiscard]] bool setupDue(std::size_t taken, std::size_t count,
                            double elapsed, double windowSeconds) {
  return taken < count && elapsed * static_cast<double>(count) >=
                              windowSeconds * static_cast<double>(taken);
}

// ---------------------------------------------------------------------------
// Raw results
// ---------------------------------------------------------------------------

/// Every output check, counted against the operations attempted.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    attempted_ += 1;
    if (ok) return;
    failed_ += 1;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct JobRecord {
  std::string kind;  // cold | warm | prefix
  double seconds = 0.0;
  std::size_t rows = 0;
};

struct RawResult {
  std::vector<double> setupSeconds;
  std::vector<JobRecord> jobs;
  double peakRssMb = 0.0;
  double tstarOverLb = 0.0;
  /// Whether warm jobs can hit a result cache. The in-process sweeps
  /// have none, so there a warm job redoes a cold job's work exactly.
  bool resultCache = false;
  /// Row digest run.py compares with a second process at the same seed:
  /// job 0 on sweep workloads, the first served requests on the service.
  std::uint64_t digest = 0;
  Checks checks;
  std::map<std::string, std::string> env;
  // Traced runs only.
  bool traced = false;
  double untracedWallSeconds = 0.0;
  double tracedWallSeconds = 0.0;
  bool rowsIdentical = true;
  std::string traceFile;
  std::map<std::string, double> counters;
};

[[nodiscard]] std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

[[nodiscard]] std::string toJson(const std::string& workload,
                                 std::uint64_t seed, const RawResult& raw) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":" << jsonString(workload) << ",\"seed\":" << seed
      << ",\"setup_s\":[";
  for (std::size_t i = 0; i < raw.setupSeconds.size(); ++i) {
    out << (i ? "," : "") << raw.setupSeconds[i];
  }
  out << "],\"jobs\":[";
  for (std::size_t i = 0; i < raw.jobs.size(); ++i) {
    const JobRecord& job = raw.jobs[i];
    out << (i ? "," : "") << "{\"kind\":" << jsonString(job.kind)
        << ",\"seconds\":" << job.seconds << ",\"rows\":" << job.rows << "}";
  }
  out << "],\"peak_rss_mb\":" << raw.peakRssMb
      << ",\"tstar_over_lb\":" << raw.tstarOverLb
      << ",\"result_cache\":" << (raw.resultCache ? "true" : "false")
      << ",\"digest\":" << jsonString(db::hex64(raw.digest))
      << ",\"attempted\":" << raw.checks.attempted()
      << ",\"failed\":" << raw.checks.failed() << ",\"failures\":[";
  for (std::size_t i = 0; i < raw.checks.failures().size(); ++i) {
    out << (i ? "," : "") << jsonString(raw.checks.failures()[i]);
  }
  out << "],\"env\":{";
  bool first = true;
  for (const auto& [key, value] : raw.env) {
    out << (first ? "" : ",") << jsonString(key) << ":" << jsonString(value);
    first = false;
  }
  out << "}";
  if (raw.traced) {
    out << ",\"trace\":{\"file\":" << jsonString(raw.traceFile)
        << ",\"untraced_wall_s\":" << raw.untracedWallSeconds
        << ",\"traced_wall_s\":" << raw.tracedWallSeconds
        << ",\"rows_identical\":" << (raw.rowsIdentical ? "true" : "false")
        << ",\"counters\":{";
    first = true;
    for (const auto& [key, value] : raw.counters) {
      out << (first ? "" : ",") << jsonString(key) << ":" << value;
      first = false;
    }
    out << "}}";
  }
  out << "}";
  return out.str();
}

[[nodiscard]] std::string filesystemName(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x9123683EUL:
      return "btrfs";
    default:
      break;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
  return hex.str();
}

[[nodiscard]] std::map<std::string, std::string> environmentInfo(
    const RunOptions& options) {
  std::map<std::string, std::string> env;
  env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  env["engine_jobs"] = std::to_string(kJobs);
  env["simd_tier"] =
      db::bitword::simdLevelName(db::bitword::dispatch().level);
#if defined(__AVX512F__)
  env["compiled_isa"] = "avx512f";
#elif defined(__AVX2__)
  env["compiled_isa"] = "avx2";
#else
  env["compiled_isa"] = "baseline";
#endif
  env["state_dir_fs"] = filesystemName(options.workDir);
  env["l2_bytes"] = std::to_string(::sysconf(_SC_LEVEL2_CACHE_SIZE));
  env["l3_bytes"] = std::to_string(::sysconf(_SC_LEVEL3_CACHE_SIZE));
  return env;
}

[[nodiscard]] double selfPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Row checks shared by the workloads
// ---------------------------------------------------------------------------

[[nodiscard]] std::string describe(const db::SweepRow& row) {
  return row.member + " n=" + std::to_string(row.n) + " replicate=" +
         std::to_string(row.seedIndex) + " rounds=" +
         std::to_string(row.rounds);
}

/// Theorem 3.1's upper bound on every broadcast-over-trees row, and
/// static-path's exact value n-1.
void checkTreeRows(const std::vector<db::SweepRow>& rows, Checks& checks) {
  for (const db::SweepRow& row : rows) {
    checks.expect(row.completed && row.rounds <= db::bounds::linearUpper(row.n),
                  describe(row) + " exceeds ceil((1+sqrt2)n-1)");
    if (row.member == "static-path") {
      checks.expect(row.rounds + 1 == row.n,
                    describe(row) + " differs from n-1");
    }
  }
}

[[nodiscard]] std::uint64_t outputDigest(
    const std::vector<db::SweepRow>& rows,
    const std::vector<std::size_t>& beamRounds) {
  std::string text;
  for (const db::SweepRow& row : rows) {
    text += std::to_string(row.n) + ' ' + std::to_string(row.seedIndex) +
            ' ' + std::to_string(row.instanceSeed) + ' ' + row.member + ' ' +
            std::to_string(row.rounds) + (row.completed ? " 1\n" : " 0\n");
  }
  for (const std::size_t rounds : beamRounds) {
    text += "beam " + std::to_string(rounds) + '\n';
  }
  return db::fnv1a64(text);
}

/// Mean over sizes of (the best member's mean t* at that size) /
/// lowerBound(n). The single best row at a size flips with the seed (the
/// thm31 beam at n=16, the service's n=8 rows); the best member's mean
/// moves in smaller steps.
class BestMemberMean {
 public:
  void add(const std::vector<db::SweepRow>& rows) {
    for (const db::SweepRow& row : rows) {
      if (!row.completed) continue;
      Sum& sum = sums_[{row.n, row.member}];
      sum.rounds += static_cast<double>(row.rounds);
      sum.count += 1;
    }
  }
  /// Beam witnesses count as one more member, "beam".
  void addBeam(const std::vector<std::size_t>& sizes,
               const std::vector<std::size_t>& beamRounds) {
    for (std::size_t i = 0; i < beamRounds.size(); ++i) {
      if (beamRounds[i] == 0) continue;  // not searched at this size
      Sum& sum = sums_[{sizes[i], "beam"}];
      sum.rounds += static_cast<double>(beamRounds[i]);
      sum.count += 1;
    }
  }
  [[nodiscard]] double ratio() const {
    std::map<std::size_t, double> best;
    for (const auto& [key, sum] : sums_) {
      double& slot = best[key.first];
      slot = std::max(slot, sum.rounds / static_cast<double>(sum.count));
    }
    double total = 0.0;
    for (const auto& [n, rounds] : best) {
      total += rounds / static_cast<double>(db::bounds::lowerBound(n));
    }
    return best.empty() ? 0.0 : total / static_cast<double>(best.size());
  }

 private:
  struct Sum {
    double rounds = 0.0;
    std::size_t count = 0;
  };
  std::map<std::pair<std::size_t, std::string>, Sum> sums_;
};

// ---------------------------------------------------------------------------
// Sweep workloads: thm31-adaptive, oblivious-batch, sparse-frontier
// ---------------------------------------------------------------------------

struct SweepWorkload {
  std::string name;
  /// The scenarios of one job at a master seed (oblivious-batch runs two
  /// size cells with different replicate counts, hence a list).
  std::function<std::vector<db::ScenarioSpec>(std::uint64_t)> scenarios;
  /// The set-up warm-up pass: a smaller run of the same shape.
  std::function<std::vector<db::ScenarioSpec>(std::uint64_t)> warmup;
  /// Beam witness pass (thm31 only): sizes <= beamMaxN, 0 = none.
  std::size_t beamMaxN = 0;
  std::size_t beamWidth = 0;
  /// Rows are broadcast over rooted trees (Theorem 3.1 checks apply).
  bool treeRows = true;
};

const std::vector<std::string> kObliviousMembers = {
    "static-path", "alternating-path", "random-path", "k-leaf:k=2"};

[[nodiscard]] db::ScenarioSpec treeSpec(std::vector<std::size_t> sizes,
                                        std::uint64_t seed,
                                        std::size_t replicates,
                                        std::vector<std::string> members) {
  db::ScenarioSpec spec;
  spec.sizes = std::move(sizes);
  spec.masterSeed = seed;
  spec.seedsPerSize = replicates;
  spec.adversaries = std::move(members);
  return spec;
}

[[nodiscard]] db::ScenarioSpec sparseSpec(std::size_t n, std::uint64_t seed,
                                          std::size_t replicates) {
  // Density p = 8/n keeps about 8 fresh arcs per node per round, so
  // memory stays linear in n.
  std::ostringstream p;
  p.precision(17);
  p << 8.0 / static_cast<double>(n);
  db::ScenarioSpec spec;
  spec.dynamics = "edge-markovian:p=" + p.str() + ",q=0.5";
  spec.sizes = {n};
  spec.masterSeed = seed;
  spec.seedsPerSize = replicates;
  spec.roundCap = 60;
  spec.backend = db::BackendChoice::kSparse;
  return spec;
}

[[nodiscard]] const std::vector<SweepWorkload>& sweepWorkloads() {
  static const std::vector<SweepWorkload> workloads = [] {
    std::vector<SweepWorkload> list;
    SweepWorkload thm31;
    thm31.name = "thm31-adaptive";
    // Sizes stop at 128, with 16 replicates. At n=256 two greedy-delay
    // tasks of 1.1-2.0 s, one thread each, set the job's latency, and on a
    // shared host that single-thread time moves by up to 80% from one
    // minute to the next (n=128: about +-8%), so sets of runs disagree.
    thm31.scenarios = [](std::uint64_t seed) {
      return std::vector<db::ScenarioSpec>{
          treeSpec({16, 64, 128}, seed, 16, {})};
    };
    thm31.warmup = [](std::uint64_t seed) {
      return std::vector<db::ScenarioSpec>{treeSpec({16, 64, 128}, seed, 2, {})};
    };
    thm31.beamMaxN = 16;
    thm31.beamWidth = 128;
    list.push_back(thm31);

    SweepWorkload batch;
    batch.name = "oblivious-batch";
    batch.scenarios = [](std::uint64_t seed) {
      return std::vector<db::ScenarioSpec>{
          treeSpec({512}, seed, 512, kObliviousMembers),
          treeSpec({2048}, seed, 16, kObliviousMembers)};
    };
    batch.warmup = [](std::uint64_t seed) {
      return std::vector<db::ScenarioSpec>{
          treeSpec({512}, seed, 128, kObliviousMembers)};
    };
    list.push_back(batch);

    SweepWorkload sparse;
    sparse.name = "sparse-frontier";
    // Six replicates, not four: the engine runs tasks on its two pool
    // threads plus the calling thread, so four tasks leave one thread
    // running two while the others idle, and the job time swings with
    // which two pair up.
    sparse.scenarios = [](std::uint64_t seed) {
      return std::vector<db::ScenarioSpec>{sparseSpec(100000, seed, 6)};
    };
    sparse.warmup = [](std::uint64_t seed) {
      return std::vector<db::ScenarioSpec>{sparseSpec(20000, seed, 3)};
    };
    sparse.treeRows = false;
    list.push_back(sparse);
    return list;
  }();
  return workloads;
}

struct JobOutput {
  std::vector<db::SweepRow> rows;
  std::vector<std::size_t> beamRounds;
  std::vector<char> beamVerified;
};

/// Exactly runScenario()'s broadcast-over-trees path, with every
/// member's make() wrapped so adversary lifetimes and decisions are
/// spanned. Rows must come out identical to runScenario().
[[nodiscard]] std::vector<db::SweepRow> tracedTreeSweep(
    const db::ScenarioSpec& spec, db::ExperimentEngine& engine,
    Tracer& tracer) {
  ScopedSpan span(tracer, "engine.run_sweep");
  db::validateScenario(spec);
  const std::vector<std::string> specs =
      spec.adversaries.empty() ? db::defaultAdversarySpecs(spec.dynamics)
                               : spec.adversaries;
  db::SweepSpec sweep;
  sweep.sizes = spec.sizes;
  sweep.masterSeed = spec.masterSeed;
  sweep.seedsPerSize = spec.seedsPerSize;
  sweep.roundCap = spec.roundCap;
  sweep.recordHistory = spec.recordHistory;
  sweep.batch = spec.batch;
  sweep.portfolio = [&tracer, specs](std::size_t n, std::uint64_t seed) {
    ScopedSpan factory(tracer, "engine.portfolio_factory");
    return tracedMembers(tracer, db::membersFromSpecs(specs, n, seed), n);
  };
  return engine.runSweep(sweep).rows;
}

/// Exactly runScenarioRow()'s sparse graph-model path, fanned out like
/// runScenario(), with the model wrapped so generation time is spanned.
[[nodiscard]] std::vector<db::SweepRow> tracedFrontierSweep(
    const db::ScenarioSpec& spec, db::ExperimentEngine& engine,
    Tracer& tracer) {
  ScopedSpan span(tracer, "engine.map_rows");
  db::validateScenario(spec);
  return engine.map<db::SweepRow>(
      db::scenarioRowCount(spec), spec.masterSeed,
      [&](std::size_t position, std::uint64_t) {
        ScopedSpan task(tracer, "sim.frontier_task");
        const db::ScenarioRowPlan plan = db::planScenarioRow(spec, position);
        // task_plan.cpp's member seed derivation; a drift shows up as a
        // traced/untraced row mismatch.
        const std::uint64_t memberSeed =
            plan.instanceSeed ^ (0x9e3779b97f4a7c15ull * (plan.memberIndex + 1));
        const db::DynamicsSpec model = db::DynamicsSpec::parse(plan.memberSpec);
        TracedDynamics dynamics(
            db::DynamicsRegistry::instance().make(model, plan.n, memberSeed));
        const std::size_t cap =
            spec.roundCap != 0 ? spec.roundCap : dynamics.defaultRoundCap();
        const db::BroadcastRun run = db::runFrontierDynamicsBroadcast(
            plan.n, dynamics, cap, false, memberSeed);
        task.arg("n", static_cast<double>(plan.n));
        task.arg("generate_ns", static_cast<double>(dynamics.generateNs()));
        task.arg("rounds_generated",
                 static_cast<double>(dynamics.roundsGenerated()));
        task.arg("tstar", static_cast<double>(run.rounds));
        db::SweepRow row;
        row.n = plan.n;
        row.seedIndex = plan.seedIndex;
        row.instanceSeed = plan.instanceSeed;
        row.member = model.toString();
        row.rounds = run.rounds;
        row.completed = run.completed;
        return row;
      });
}

struct BeamCell {
  std::size_t rounds = 0;
  char verified = 1;  // sizes above beamMaxN are not searched
};

/// One job: the workload's scenarios at `seed`, plus the beam witness
/// pass exactly as `dynbcast sweep` runs it. With a tracer the same work
/// goes through the wrapped paths above.
[[nodiscard]] JobOutput runSweepJob(const SweepWorkload& workload,
                                    std::uint64_t seed,
                                    db::ExperimentEngine& engine,
                                    Tracer* tracer) {
  JobOutput out;
  const std::vector<db::ScenarioSpec> specs = workload.scenarios(seed);
  for (const db::ScenarioSpec& spec : specs) {
    std::vector<db::SweepRow> rows;
    if (tracer == nullptr) {
      rows = db::runScenario(spec, engine).rows;
    } else if (workload.treeRows) {
      rows = tracedTreeSweep(spec, engine, *tracer);
    } else {
      rows = tracedFrontierSweep(spec, engine, *tracer);
    }
    out.rows.insert(out.rows.end(), rows.begin(), rows.end());
  }
  if (workload.beamMaxN == 0) return out;

  db::BeamConfig config;
  config.beamWidth = workload.beamWidth;
  config.randomMovesPerState = 8;
  config.diversityPercent = 40;
  const std::vector<std::size_t>& sizes = specs.front().sizes;
  MaybeSpan map(tracer, "adversary.beam_map");
  const std::vector<BeamCell> cells = engine.map<BeamCell>(
      sizes.size(), seed ^ db::kBeamSeedSalt,
      [&](std::size_t i, std::uint64_t taskSeed) {
        BeamCell cell;
        const std::size_t n = sizes[i];
        if (n > workload.beamMaxN) return cell;
        MaybeSpan span(tracer, "adversary.beam");
        const db::BeamResult witness =
            db::beamSearchWitness(n, taskSeed, config);
        span.arg("n", static_cast<double>(n));
        span.arg("states_expanded",
                 static_cast<double>(witness.statesExpanded));
        span.arg("unique_states", static_cast<double>(witness.uniqueStates));
        span.arg("transposition_hits",
                 static_cast<double>(witness.transpositionHits));
        cell.verified = db::verifyWitness(n, witness.witness) == witness.rounds;
        cell.rounds = cell.verified ? witness.rounds : 0;
        return cell;
      });
  for (const BeamCell& cell : cells) {
    out.beamRounds.push_back(cell.rounds);
    out.beamVerified.push_back(cell.verified);
  }
  return out;
}

/// Job i of a sweep window: cold jobs take fresh seeds 0, 1, 2, ...;
/// from job 2 on every other job is a warm, exact repeat of an earlier
/// cold one (its rows must match bit for bit).
struct SweepJobPlan {
  bool warm = false;
  std::size_t seedIndex = 0;
};

[[nodiscard]] SweepJobPlan sweepJobPlan(std::size_t i) {
  if (i < 2) return {false, i};
  if (i % 2 == 0) return {true, (i - 2) / 2};
  return {false, (i + 1) / 2};
}

void checkJob(const SweepWorkload& workload, const db::ScenarioSpec& first,
              const JobOutput& out, Checks& checks) {
  if (workload.treeRows) {
    checkTreeRows(out.rows, checks);
  } else {
    for (const db::SweepRow& row : out.rows) {
      checks.expect(row.completed && row.rounds <= first.roundCap,
                    describe(row) + " did not complete within the cap");
    }
  }
  for (std::size_t i = 0; i < out.beamVerified.size(); ++i) {
    checks.expect(out.beamVerified[i] != 0,
                  "beam witness at n=" + std::to_string(first.sizes[i]) +
                      " failed verifyWitness");
  }
}

/// A seeded sample of batched positions must equal the scalar
/// runScenarioRow() of the same position.
void checkBatchedSample(const SweepWorkload& workload, std::uint64_t seed,
                        const JobOutput& out, Checks& checks) {
  if (!workload.treeRows) return;
  db::Rng rng(db::SeedSequence(seed ^ kSampleSalt).at(0));
  std::size_t offset = 0;
  for (const db::ScenarioSpec& spec : workload.scenarios(seed)) {
    const std::size_t count = db::scenarioRowCount(spec);
    if (spec.seedsPerSize >= db::BatchPolicy::kAutoWidth) {
      for (int k = 0; k < 3; ++k) {
        const std::size_t position = rng.uniform(count);
        const db::SweepRow scalar = db::runScenarioRow(spec, position);
        checks.expect(scalar == out.rows[offset + position],
                      "batched row " + describe(out.rows[offset + position]) +
                          " differs from runScenarioRow");
      }
    }
    offset += count;
  }
}

[[nodiscard]] std::string runSweepWorkload(const SweepWorkload& workload,
                                           const RunOptions& options) {
  RawResult raw;
  raw.env = environmentInfo(options);

  // Set-up: engine construction, input generation and validation, and a
  // smaller warm-up pass of the same shape.
  const auto setUp = [&](std::size_t k) {
    const std::int64_t t0 = nowNs();
    db::EngineConfig config;
    config.jobs = kJobs;
    auto fresh = std::make_unique<db::ExperimentEngine>(config);
    for (const db::ScenarioSpec& spec : workload.scenarios(options.seed)) {
      db::validateScenario(spec);
    }
    const std::uint64_t warmSeed =
        db::SeedSequence(options.seed ^ kWarmupSalt).at(k);
    for (const db::ScenarioSpec& spec : workload.warmup(warmSeed)) {
      (void)db::runScenario(spec, *fresh);
    }
    raw.setupSeconds.push_back(secondsSince(t0));
    return fresh;
  };
  const std::unique_ptr<db::ExperimentEngine> engine = setUp(0);
  std::size_t setups = 1;

  // Measured window.
  const db::SeedSequence jobSeeds(options.seed);
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> coldDigests;
  JobOutput first;
  // Jobs 0 to kRatioJobs-1 always run, so the t* ratio over their cold
  // jobs is a function of the seed alone.
  BestMemberMean best;
  const std::int64_t windowStart = nowNs();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = secondsSince(windowStart);
    if (i >= kRatioJobs && elapsed >= options.seconds) break;
    while (setupDue(setups, kSetupRepeats, elapsed, options.seconds)) {
      (void)setUp(setups++);
    }
    const SweepJobPlan plan = sweepJobPlan(i);
    const std::uint64_t seed = jobSeeds.at(plan.seedIndex);
    const std::int64_t t0 = nowNs();
    JobOutput out = runSweepJob(workload, seed, *engine, nullptr);
    const double seconds = secondsSince(t0);
    raw.jobs.push_back({plan.warm ? "warm" : "cold", seconds, out.rows.size()});
    seeds.push_back(seed);
    checkJob(workload, workload.scenarios(seed).front(), out, raw.checks);
    const std::uint64_t digest = outputDigest(out.rows, out.beamRounds);
    digests.push_back(digest);
    if (plan.warm) {
      raw.checks.expect(digest == coldDigests[plan.seedIndex],
                        "rerun of seed " + std::to_string(seed) +
                            " changed its rows");
    } else {
      coldDigests.push_back(digest);
    }
    if (i < kRatioJobs && !plan.warm) {
      best.add(out.rows);
      best.addBeam(workload.scenarios(seed).front().sizes, out.beamRounds);
    }
    if (i == 0) first = std::move(out);
  }
  while (setups < kSetupRepeats) (void)setUp(setups++);
  raw.peakRssMb = selfPeakRssMb();
  raw.checks.expect(coldDigests[1] != coldDigests[0],
                    "two different seeds produced identical rows");
  checkBatchedSample(workload, seeds[0], first, raw.checks);
  raw.tstarOverLb = best.ratio();
  raw.digest = digests[0];

  if (options.trace) {
    // Same jobs, same seeds, traced; every job's rows must be identical.
    Tracer tracer;
    std::vector<JobOutput> outputs;
    const std::int64_t tracedStart = nowNs();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ScopedSpan job(tracer, "job", raw.jobs[i].kind);
      tracer.setFanoutParent(job.id());
      outputs.push_back(runSweepJob(workload, seeds[i], *engine, &tracer));
    }
    raw.tracedWallSeconds = secondsSince(tracedStart);
    for (const JobRecord& job : raw.jobs) {
      raw.untracedWallSeconds += job.seconds;
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const bool same =
          outputDigest(outputs[i].rows, outputs[i].beamRounds) == digests[i];
      raw.checks.expect(same, "traced job " + std::to_string(i) +
                                  " produced different rows");
      raw.rowsIdentical = raw.rowsIdentical && same;
    }
    raw.traced = true;
    raw.traceFile = options.workDir + "/trace-" + workload.name + "-" +
                    std::to_string(options.seed) + ".json";
    if (!tracer.writeChromeTrace(raw.traceFile)) {
      throw std::runtime_error("cannot write " + raw.traceFile);
    }
  }
  return toJson(workload.name, options.seed, raw);
}

// ---------------------------------------------------------------------------
// service-mixed: a closed loop of one client against `dynbcast serve`
// ---------------------------------------------------------------------------

const std::vector<std::string> kServiceMembers = {
    "static-path",  "random-path",      "alternating-path",
    "k-leaf:k=2",   "heard-asc-path",   "freeze-path:depth=1",
    "greedy-delay", "random-tree"};
const std::vector<std::size_t> kServiceSizes = {8, 12, 16, 20, 24};
constexpr std::size_t kServiceReplicates = 8;
/// Prefix requests append this size (larger than every cold size).
constexpr std::size_t kPrefixSize = 32;
/// Cold and warm requests a run must complete.
constexpr std::size_t kMinPerKind = 100;
constexpr double kServiceHardCapSeconds = 100.0;

struct ServiceJob {
  std::string kind;  // cold | warm | prefix
  db::ServiceRequest request;
  std::size_t origin = 0;  // job repeated (warm) or extended (prefix)
};

/// Two sizes x 8 replicates x 8 members = 128 cheap row tasks, plus one
/// beam task per size (beam-maxn=0 keeps those trivial).
[[nodiscard]] db::ServiceRequest coldRequest(db::Rng& rng,
                                             std::uint64_t masterSeed) {
  const std::size_t a = rng.uniform(kServiceSizes.size());
  std::size_t b = rng.uniform(kServiceSizes.size() - 1);
  if (b >= a) b += 1;
  db::ServiceRequest request;
  request.scenario.sizes = {kServiceSizes[std::min(a, b)],
                            kServiceSizes[std::max(a, b)]};
  request.scenario.masterSeed = masterSeed;
  request.scenario.seedsPerSize = kServiceReplicates;
  request.scenario.adversaries = kServiceMembers;
  request.beamMaxN = 0;
  return request;
}

/// The first request of each service set-up: two replicates of
/// greedy-delay at n=96, about 0.1 s of computation in three tasks. Process
/// start (about 2 ms) and fsyncs alone varied between runs by 0.2 to 0.4
/// of their median on a shared machine; a set-up that includes the
/// server's first real execution is steadier and is what a fresh server
/// costs before it serves at speed.
[[nodiscard]] db::ServiceRequest setupRequest(std::uint64_t masterSeed) {
  db::ServiceRequest request;
  request.scenario.sizes = {96};
  request.scenario.masterSeed = masterSeed;
  request.scenario.seedsPerSize = 2;
  request.scenario.adversaries = {"greedy-delay"};
  request.beamMaxN = 0;
  return request;
}

/// The seed-determined request stream, in blocks of five: cold, warm,
/// cold, warm, prefix. Warm requests resubmit a uniformly drawn earlier
/// cold request; prefix requests extend the latest cold one by a size.
class ServiceStream {
 public:
  explicit ServiceStream(std::uint64_t seed)
      : rng_(db::SeedSequence(seed ^ kStreamSalt).at(0)),
        masterSeeds_(seed ^ kStreamSalt) {}

  const ServiceJob& at(std::size_t i) {
    while (jobs_.size() <= i) generate();
    return jobs_[i];
  }

 private:
  void generate() {
    const std::size_t i = jobs_.size();
    ServiceJob job;
    switch (i % 5) {
      case 1:
      case 3:
        job.kind = "warm";
        job.origin = colds_[rng_.uniform(colds_.size())];
        job.request = jobs_[job.origin].request;
        break;
      case 4:
        job.kind = "prefix";
        job.origin = colds_.back();
        job.request = jobs_[job.origin].request;
        job.request.scenario.sizes.push_back(kPrefixSize);
        break;
      default:
        job.kind = "cold";
        job.request = coldRequest(rng_, masterSeeds_.at(1 + colds_.size()));
        colds_.push_back(i);
        break;
    }
    jobs_.push_back(std::move(job));
  }

  db::Rng rng_;
  db::SeedSequence masterSeeds_;
  std::vector<ServiceJob> jobs_;
  std::vector<std::size_t> colds_;
};

/// A `dynbcast serve --workers=0 --jobs=2` child process with its socket
/// and state under `dir`, which must be new: nothing is deleted during a
/// run, because on a disk mounted with online discard a deletion stalls
/// the fsyncs that follow it by milliseconds.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& dir) {
    fs::create_directories(dir);
    socket_ = dir + "/sock";
    std::vector<std::string> args = {binary,
                                     "serve",
                                     "--socket=" + socket_,
                                     "--state=" + dir + "/state",
                                     "--workers=0",
                                     "--jobs=" + std::to_string(kJobs)};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    const std::string log = dir + "/serve.log";
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc =
        posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot spawn " + binary + ": " +
                               std::strerror(rc));
    }
    // Ready once the socket accepts; the probe connection is closed
    // without a request, which the server treats as a no-op.
    const std::int64_t start = nowNs();
    for (;;) {
      try {
        (void)db::connectUnix(socket_);
        return;
      } catch (const std::exception&) {
        if (secondsSince(start) > 30.0) {
          stop();
          throw std::runtime_error("dynbcast serve did not start");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Terminates the server and returns its peak RSS in MiB.
  double stop() {
    if (pid_ <= 0) return peakRssMb_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    struct rusage usage {};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    peakRssMb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return peakRssMb_;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
  double peakRssMb_ = 0.0;
};

struct ReplayCounts {
  std::size_t cacheHits = 0;
  std::size_t executed = 0;
};

/// Serves one request in-process, calling the service layer's public
/// functions in exactly handleRequest()'s order, with the in-process
/// worker loop of runManifestWorker(). With a tracer every step is
/// spanned; without one this is the untraced twin that prices tracing.
[[nodiscard]] std::vector<db::ServiceTaskResult> replayRequest(
    const db::ServiceRequest& request, const std::string& stateDir,
    const std::string& kind, Tracer* tracer, ReplayCounts& counts) {
  const bool timed = tracer != nullptr;
  MaybeSpan top(tracer, "service.request", kind);
  std::string canonical;
  std::string manifestPath;
  db::ServiceJobPlan plan;
  {
    MaybeSpan span(tracer, "service.plan");
    db::validateScenario(request.scenario);
    canonical = db::canonicalRequestString(request);
    manifestPath = stateDir + "/job-" + db::requestJobId(request) + ".manifest";
    plan = db::planServiceJob(request);
  }
  const auto load = [&] {
    MaybeSpan span(tracer, "service.manifest_load");
    return db::loadManifest(manifestPath);
  };
  if (const auto existing = load();
      !existing.has_value() || existing->complete()) {
    MaybeSpan span(tracer, "service.manifest_init");
    db::initManifest(manifestPath, canonical, plan.taskCount());
  } else if (existing->canonicalRequest != canonical) {
    throw std::runtime_error("job id collision at " + manifestPath);
  }

  {
    MaybeSpan span(tracer, "service.prepass");
    db::ResultCache cache(stateDir + "/cache");
    const std::optional<db::ManifestState> state = load();
    OpTimer key;
    OpTimer get;
    OpTimer append;
    for (const std::size_t position : state->pending(0, plan.taskCount())) {
      const std::string k =
          key.time(timed, [&] { return db::serviceTaskKey(request, position); });
      const auto hit = get.time(timed, [&] { return cache.get(k); });
      if (!hit.has_value()) continue;
      append.time(timed, [&] {
        db::appendTaskRecord(manifestPath,
                             {position, hit->rounds, hit->completed});
      });
      counts.cacheHits += 1;
    }
    key.addTo(span, "task_key");
    get.addTo(span, "cache_get");
    append.addTo(span, "manifest_append");
  }

  for (;;) {
    const std::optional<db::ManifestState> state = load();
    if (state->pending(0, plan.taskCount()).empty()) break;
    MaybeSpan worker(tracer, "service.worker");
    const std::optional<db::ManifestState> manifest = load();
    db::ServiceRequest decoded;
    std::vector<std::size_t> pending;
    {
      MaybeSpan span(tracer, "service.plan");
      decoded = db::decodeCanonicalRequest(manifest->canonicalRequest);
      pending = manifest->pending(0, db::planServiceJob(decoded).taskCount());
    }
    db::ResultCache cache(stateDir + "/cache");
    db::EngineConfig config;
    config.jobs = kJobs;
    db::ExperimentEngine engine(config);
    if (tracer != nullptr) tracer->setFanoutParent(worker.id());
    std::atomic<std::size_t> executed{0};
    (void)engine.map<char>(
        pending.size(), 0, [&](std::size_t index, std::uint64_t) -> char {
          MaybeSpan task(tracer, "service.task");
          const std::size_t position = pending[index];
          OpTimer key;
          OpTimer get;
          OpTimer execute;
          OpTimer put;
          OpTimer append;
          const std::string k = key.time(
              timed, [&] { return db::serviceTaskKey(decoded, position); });
          db::ServiceTaskResult result;
          if (const auto hit = get.time(timed, [&] { return cache.get(k); });
              hit.has_value()) {
            result.rounds = hit->rounds;
            result.completed = hit->completed;
          } else {
            result = execute.time(timed, [&] {
              return db::executeServiceTask(decoded, position);
            });
            put.time(timed,
                     [&] { cache.put(k, {result.rounds, result.completed}); });
            executed.fetch_add(1);
          }
          append.time(timed, [&] {
            db::appendTaskRecord(manifestPath,
                                 {position, result.rounds, result.completed});
          });
          key.addTo(task, "task_key");
          get.addTo(task, "cache_get");
          execute.addTo(task, "execute");
          put.addTo(task, "cache_put");
          append.addTo(task, "manifest_append");
          return 0;
        });
    counts.executed += executed.load();
    (void)load();  // handleRequest re-reads progress after every wave
  }

  const std::optional<db::ManifestState> final = load();
  std::vector<db::ServiceTaskResult> results(plan.taskCount());
  for (std::size_t position = 0; position < plan.taskCount(); ++position) {
    const db::TaskRecord& record = *final->records[position];
    results[position] = {record.rounds, record.completed};
  }
  return results;
}

[[nodiscard]] std::uint64_t replayDigest(
    const db::ServiceRequest& request,
    const std::vector<db::ServiceTaskResult>& results) {
  const std::size_t rowCount = db::scenarioRowCount(request.scenario);
  const std::vector<db::ServiceTaskResult> rowResults(
      results.begin(), results.begin() + static_cast<long>(rowCount));
  std::vector<std::size_t> beam;
  for (std::size_t p = rowCount; p < results.size(); ++p) {
    beam.push_back(results[p].rounds);
  }
  return outputDigest(db::assembleServiceRows(request.scenario, rowResults),
                      beam);
}

/// Replays the set-up's two warm-up submissions and then `count` stream
/// jobs against a fresh state dir; returns the per-job digests and adds
/// the stream's request time (warm-up excluded) to `requestSeconds`.
[[nodiscard]] std::vector<std::uint64_t> replayStream(
    const db::ServiceRequest& warmup, ServiceStream& stream, std::size_t count,
    const std::string& stateDir, Tracer* tracer, ReplayCounts& counts,
    double& requestSeconds) {
  fs::create_directories(stateDir);
  ReplayCounts warmupCounts;
  for (int pass = 0; pass < 2; ++pass) {
    (void)replayRequest(warmup, stateDir, "warmup", nullptr, warmupCounts);
  }
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < count; ++i) {
    const ServiceJob& job = stream.at(i);
    const std::int64_t t0 = nowNs();
    const std::vector<db::ServiceTaskResult> results =
        replayRequest(job.request, stateDir, job.kind, tracer, counts);
    requestSeconds += secondsSince(t0);
    digests.push_back(replayDigest(job.request, results));
  }
  return digests;
}

/// The first kDigestRequests request digests folded into one.
[[nodiscard]] std::uint64_t streamDigest(
    const std::vector<std::uint64_t>& digests) {
  std::string text;
  for (std::size_t i = 0; i < std::min(digests.size(), kDigestRequests); ++i) {
    text += db::hex64(digests[i]) + '\n';
  }
  return db::fnv1a64(text);
}

[[nodiscard]] std::string runServiceWorkload(const RunOptions& options) {
  RawResult raw;
  raw.env = environmentInfo(options);
  raw.resultCache = true;

  // Set-up: `serve` spawned on a fresh state dir until its socket
  // accepts, then its first request served (setupRequest). Sample 0 is
  // the server the window uses; later samples start a second server while
  // it idles, and stop it again. The stream-shaped warm-up request,
  // submitted twice (cold, then warm), is untimed.
  const db::SeedSequence setupSeeds(options.seed ^ kSetupSalt);
  const auto setUp = [&](std::size_t k) {
    const std::int64_t t0 = nowNs();
    auto fresh = std::make_unique<ServerProcess>(
        options.dynbcastBinary, options.workDir + "/serve-" + std::to_string(k));
    (void)db::submitRequest(fresh->socket(), setupRequest(setupSeeds.at(k)),
                            nullptr);
    raw.setupSeconds.push_back(secondsSince(t0));
    return fresh;
  };
  const std::unique_ptr<ServerProcess> server = setUp(0);
  std::size_t setups = 1;
  const db::SeedSequence warmupSeeds(options.seed ^ kWarmupSalt);
  db::Rng warmupRng(warmupSeeds.at(0));
  const db::ServiceRequest warmup = coldRequest(warmupRng, warmupSeeds.at(1));
  for (int pass = 0; pass < 2; ++pass) {
    (void)db::submitRequest(server->socket(), warmup, nullptr);
  }

  ServiceStream stream(options.seed);
  std::vector<db::SubmitOutcome> outcomes;
  std::vector<std::uint64_t> digests;
  std::size_t colds = 0;
  std::size_t warms = 0;
  BestMemberMean best;
  ReplayCounts served;
  const std::int64_t windowStart = nowNs();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = secondsSince(windowStart);
    if (elapsed >= options.seconds && colds >= kMinPerKind &&
        warms >= kMinPerKind) {
      break;
    }
    if (elapsed >= kServiceHardCapSeconds) {
      raw.checks.expect(false, "fewer than 100 cold and 100 warm requests "
                               "completed in the time cap");
      break;
    }
    while (setupDue(setups, kServiceSetupRepeats, elapsed, options.seconds)) {
      (void)setUp(setups++);
    }
    const ServiceJob& job = stream.at(i);
    const std::int64_t t0 = nowNs();
    db::SubmitOutcome outcome;
    try {
      outcome = db::submitRequest(server->socket(), job.request, nullptr);
    } catch (const std::exception& e) {
      raw.checks.expect(false, job.kind + " request " + std::to_string(i) +
                                   " failed: " + e.what());
      break;
    }
    const double seconds = secondsSince(t0);
    raw.jobs.push_back({job.kind, seconds, outcome.rows.size()});

    const db::ServiceJobPlan plan = db::planServiceJob(job.request);
    Checks& checks = raw.checks;
    checks.expect(outcome.tasks == plan.taskCount() && outcome.resumed == 0,
                  "request " + std::to_string(i) + " has the wrong task count");
    if (job.kind == "cold") {
      colds += 1;
      checks.expect(outcome.executed == plan.taskCount(),
                    "cold request " + std::to_string(i) + " hit the cache");
      if (colds <= kMinPerKind) best.add(outcome.rows);
    } else if (job.kind == "warm") {
      warms += 1;
      checks.expect(outcome.executed == 0,
                    "warm request " + std::to_string(i) + " executed " +
                        std::to_string(outcome.executed) + " tasks");
    } else {
      const std::size_t delta = kServiceReplicates * kServiceMembers.size() + 1;
      checks.expect(outcome.executed == delta,
                    "prefix request " + std::to_string(i) + " executed " +
                        std::to_string(outcome.executed) + " tasks, not " +
                        std::to_string(delta));
      const std::vector<db::SweepRow>& base = outcomes[job.origin].rows;
      checks.expect(std::equal(base.begin(), base.end(), outcome.rows.begin()),
                    "prefix request " + std::to_string(i) +
                        " changed its origin's rows");
    }
    checks.expect(outcome.cacheHits + outcome.executed == outcome.tasks,
                  "request " + std::to_string(i) + " lost tasks");
    checkTreeRows(outcome.rows, checks);
    const std::uint64_t digest = outputDigest(outcome.rows, outcome.beamRounds);
    if (job.kind == "warm") {
      checks.expect(digest == digests[job.origin],
                    "warm request " + std::to_string(i) +
                        " differs from its first submission");
    }
    served.cacheHits += outcome.cacheHits;
    served.executed += outcome.executed;
    digests.push_back(digest);
    outcomes.push_back(std::move(outcome));
  }
  while (setups < kServiceSetupRepeats) (void)setUp(setups++);
  raw.peakRssMb = server->stop();
  raw.tstarOverLb = best.ratio();
  raw.digest = streamDigest(digests);
  // Distinct seeds must give distinct rows (job 0 and 2 are both cold).
  raw.checks.expect(digests.size() > 2 && digests[0] != digests[2],
                    "two cold requests produced identical rows");

  // Served rows equal runScenario() rows, on a seeded sample of requests.
  {
    db::EngineConfig config;
    config.jobs = kJobs;
    db::ExperimentEngine engine(config);
    db::Rng rng(db::SeedSequence(options.seed ^ kSampleSalt).at(0));
    for (int k = 0; k < 6 && !outcomes.empty(); ++k) {
      const std::size_t i = rng.uniform(outcomes.size());
      const db::ScenarioResult direct =
          db::runScenario(stream.at(i).request.scenario, engine);
      raw.checks.expect(direct.rows == outcomes[i].rows,
                        "served request " + std::to_string(i) +
                            " differs from runScenario");
    }
  }

  if (options.trace) {
    for (const JobRecord& job : raw.jobs) {
      raw.counters["served_latency_s"] += job.seconds;
    }
    raw.counters["served_requests"] = static_cast<double>(raw.jobs.size());
    raw.counters["served_cache_hits"] = static_cast<double>(served.cacheHits);
    raw.counters["served_executed"] = static_cast<double>(served.executed);

    // The untraced replay prices tracing and gives the server-side time
    // the client residual is taken against.
    ReplayCounts plain;
    double plainRequestSeconds = 0.0;
    std::int64_t t0 = nowNs();
    const std::vector<std::uint64_t> plainDigests = replayStream(
        warmup, stream, outcomes.size(), options.workDir + "/replay-untraced",
        nullptr, plain, plainRequestSeconds);
    raw.untracedWallSeconds = secondsSince(t0);
    raw.counters["replay_untraced_request_s"] = plainRequestSeconds;

    Tracer tracer;
    ReplayCounts traced;
    double tracedRequestSeconds = 0.0;
    t0 = nowNs();
    const std::vector<std::uint64_t> tracedDigests = replayStream(
        warmup, stream, outcomes.size(), options.workDir + "/replay-traced",
        &tracer, traced, tracedRequestSeconds);
    raw.tracedWallSeconds = secondsSince(t0);

    raw.rowsIdentical = tracedDigests == digests && plainDigests == digests;
    raw.checks.expect(raw.rowsIdentical,
                      "in-process replay rows differ from served rows");
    raw.checks.expect(traced.cacheHits == served.cacheHits &&
                          traced.executed == served.executed,
                      "replay cache hits/executions differ from the "
                      "server's SubmitOutcome counts");
    raw.counters["replay_cache_hits"] = static_cast<double>(traced.cacheHits);
    raw.counters["replay_executed"] = static_cast<double>(traced.executed);
    raw.traced = true;
    raw.traceFile = options.workDir + "/trace-service-mixed-" +
                    std::to_string(options.seed) + ".json";
    if (!tracer.writeChromeTrace(raw.traceFile)) {
      throw std::runtime_error("cannot write " + raw.traceFile);
    }
  }
  return toJson("service-mixed", options.seed, raw);
}

/// Only the digest a full run reports, computed the same way in a fresh
/// process: job 0 of a sweep workload, or the first kDigestRequests
/// stream requests served by a fresh `serve`. Nothing is timed.
[[nodiscard]] std::string runDigestOnly(const RunOptions& options,
                                        const SweepWorkload* workload) {
  std::uint64_t digest = 0;
  if (workload == nullptr) {
    ServerProcess server(options.dynbcastBinary, options.workDir + "/digest");
    ServiceStream stream(options.seed);
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < kDigestRequests; ++i) {
      const db::SubmitOutcome outcome =
          db::submitRequest(server.socket(), stream.at(i).request, nullptr);
      digests.push_back(outputDigest(outcome.rows, outcome.beamRounds));
    }
    digest = streamDigest(digests);
  } else {
    db::EngineConfig config;
    config.jobs = kJobs;
    db::ExperimentEngine engine(config);
    const JobOutput out = runSweepJob(
        *workload, db::SeedSequence(options.seed).at(0), engine, nullptr);
    digest = outputDigest(out.rows, out.beamRounds);
  }
  return "{\"workload\":" + jsonString(options.workload) +
         ",\"seed\":" + std::to_string(options.seed) +
         ",\"digest\":" + jsonString(db::hex64(digest)) + "}";
}

}  // namespace

std::string runWorkload(const RunOptions& options) {
  fs::create_directories(options.workDir);
  const SweepWorkload* sweep = nullptr;
  for (const SweepWorkload& workload : sweepWorkloads()) {
    if (workload.name == options.workload) sweep = &workload;
  }
  if (sweep == nullptr && options.workload != "service-mixed") {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.digestOnly) return runDigestOnly(options, sweep);
  if (sweep == nullptr) return runServiceWorkload(options);
  return runSweepWorkload(*sweep, options);
}

}  // namespace perfbench
