#include "tools/cli.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "bench/driver.h"
#include "src/adversary/beam.h"
#include "src/adversary/portfolio.h"
#include "src/adversary/registry.h"
#include "src/bounds/bounds.h"
#include "src/bounds/theorem.h"
#include "src/dynamics/registry.h"
#include "src/engine/task_plan.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/worker.h"
#include "src/support/options.h"
#include "src/support/parse_number.h"
#include "src/support/table.h"

namespace dynbcast::cli {

namespace {

/// Uniform error surface: subcommands throw std::invalid_argument for
/// user errors (bad flags, unknown specs); this catches and reports.
template <typename F>
int guarded(F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "dynbcast: " << e.what() << '\n';
    return 2;
  }
}

/// --summary: per-(n, member) aggregate over seed replicates, in
/// first-appearance order (size-major, member order within each size).
/// Incomplete (capped) runs count into the stats — a stalled stochastic
/// model shows up as mean pinned at the cap, not as silence.
[[nodiscard]] TextTable summaryTable(const std::vector<SweepRow>& rows) {
  struct Acc {
    std::size_t n = 0;
    std::string member;
    std::size_t runs = 0;
    std::size_t completed = 0;
    std::size_t minRounds = 0;
    std::size_t maxRounds = 0;
    double sum = 0.0;
    double sumSq = 0.0;
  };
  std::vector<Acc> groups;
  std::map<std::pair<std::size_t, std::string>, std::size_t> index;
  for (const SweepRow& row : rows) {
    const auto key = std::make_pair(row.n, row.member);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, groups.size()).first;
      groups.push_back({row.n, row.member, 0, 0, row.rounds, row.rounds,
                        0.0, 0.0});
    }
    Acc& acc = groups[it->second];
    acc.runs += 1;
    acc.completed += row.completed ? 1 : 0;
    acc.minRounds = std::min(acc.minRounds, row.rounds);
    acc.maxRounds = std::max(acc.maxRounds, row.rounds);
    const double r = static_cast<double>(row.rounds);
    acc.sum += r;
    acc.sumSq += r * r;
  }
  TextTable table({"n", "member", "runs", "completed", "min", "mean", "max",
                   "stddev"});
  for (const Acc& acc : groups) {
    const double mean = acc.sum / static_cast<double>(acc.runs);
    const double variance =
        acc.sumSq / static_cast<double>(acc.runs) - mean * mean;
    table.row()
        .add(static_cast<std::uint64_t>(acc.n))
        .add(acc.member)
        .add(static_cast<std::uint64_t>(acc.runs))
        .add(static_cast<std::uint64_t>(acc.completed))
        .add(static_cast<std::uint64_t>(acc.minRounds))
        .add(mean, 2)
        .add(static_cast<std::uint64_t>(acc.maxRounds))
        .add(std::sqrt(std::max(0.0, variance)), 2);
  }
  return table;
}

void emitSummary(const std::vector<SweepRow>& rows) {
  std::cout << "per-(n, member) summary over seed replicates:\n"
            << summaryTable(rows).render() << '\n';
}

/// Prints each row that breaks a paper claim (scenarioClaimViolations)
/// and returns the exit status: 1 when any row did, else 0.
int reportClaims(const ScenarioSpec& spec, const std::vector<SweepRow>& rows) {
  const std::vector<std::string> violations =
      scenarioClaimViolations(spec, rows);
  for (const std::string& line : violations) {
    std::cout << "CLAIM VIOLATION: " << line << '\n';
  }
  return violations.empty() ? 0 : 1;
}

/// The Theorem 3.1 bracket table: one row per size, best-of portfolio
/// and beam witness vs the paper's bounds. Shared by `sweep` (direct
/// execution) and `submit` (served execution) — byte-identical output
/// is a requirement, so there is exactly one renderer.
[[nodiscard]] TextTable thm31Table(
    const std::vector<std::size_t>& sizes, std::size_t replicates,
    const std::vector<SweepInstance>& instances,
    const std::vector<std::size_t>& beamRounds) {
  TextTable table({"n", "lower bound", "portfolio t*", "beam witness t*",
                   "best t*", "upper bound", "t*/n", "upper ok"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    // Portfolio t* for this n: best over its --seeds replicates (the
    // instances are size-major, replicates contiguous).
    std::size_t portfolioBest = 0;
    for (std::size_t r = 0; r < replicates; ++r) {
      portfolioBest = std::max(
          portfolioBest, instances[i * replicates + r].portfolio.bestRounds);
    }
    const std::size_t beam = beamRounds[i];
    const std::size_t best = std::max(portfolioBest, beam);
    const TheoremCheck check = checkTheorem31(n, best);
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(check.lower)
        .add(static_cast<std::uint64_t>(portfolioBest))
        .add(beam == 0 ? std::string("-") : std::to_string(beam))
        .add(static_cast<std::uint64_t>(best))
        .add(check.upper)
        .add(check.ratio, 3)
        .add(check.withinUpper ? "yes" : "VIOLATION");
  }
  return table;
}

/// The closing verdict of a Theorem 3.1 sweep, shared by `sweep` and
/// `submit`: the claims over the rows plus one row per searched beam
/// witness (a verified witness is a broadcast run like any other).
int thm31Verdict(const ScenarioSpec& spec, std::vector<SweepRow> rows,
                 const std::vector<std::size_t>& beamRounds) {
  for (std::size_t i = 0; i < spec.sizes.size(); ++i) {
    if (beamRounds[i] == 0) continue;
    rows.push_back({.n = spec.sizes[i], .member = "beam witness",
                    .rounds = beamRounds[i], .completed = true,
                    .history = {}});
  }
  const int status = reportClaims(spec, rows);
  std::cout << (status == 0
                    ? "RESULT: all runs within the theorem's upper bound.\n"
                    : "RESULT: CLAIM VIOLATION DETECTED (bug!)\n");
  return status;
}

void emitPerAdversaryDetail(const std::vector<SweepInstance>& instances) {
  if (instances.empty()) return;
  // The detail rows come straight from the sweep — no second run.
  const SweepInstance& last = instances.back();
  std::cout << "per-adversary detail at the largest n:\n";
  TextTable per({"adversary", "t*", "t*/n", "completed"});
  for (const auto& e : last.portfolio.entries) {
    per.row()
        .add(e.name)
        .add(static_cast<std::uint64_t>(e.rounds))
        .add(static_cast<double>(e.rounds) / static_cast<double>(last.n), 3)
        .add(e.completed ? "yes" : "no");
  }
  std::cout << per.render() << '\n';
}

/// One row per (n, seed, member) run. Shared by `portfolio`, `sweep
/// --dynamics=SPEC` and `submit`, the latter two for the same reason as
/// thm31Table.
[[nodiscard]] TextTable rowsTable(const std::vector<SweepRow>& rows) {
  TextTable table({"n", "seed", "member", "rounds", "rounds/n", "completed"});
  for (const SweepRow& row : rows) {
    table.row()
        .add(static_cast<std::uint64_t>(row.n))
        .add(static_cast<std::uint64_t>(row.seedIndex))
        .add(row.member)
        .add(static_cast<std::uint64_t>(row.rounds))
        .add(static_cast<double>(row.rounds) / static_cast<double>(row.n), 3)
        .add(row.completed ? "yes" : "no");
  }
  return table;
}

/// The scenario flags `sweep`, `portfolio` and `submit` share; the first
/// two add --batch, the last two --objective. Rooted trees are
/// adversary-driven, so only dense/auto resolve there; validateScenario
/// rejects an explicit --backend=sparse with the right error instead of
/// silently ignoring the flag.
[[nodiscard]] ScenarioSpec scenarioFromFlags(const Options& opts,
                                             const std::string& sizes) {
  ScenarioSpec scenario;
  scenario.dynamics = opts.getString("dynamics", "rooted-tree");
  scenario.sizes = parseSizeList(opts.getString("sizes", sizes));
  scenario.masterSeed = opts.getUInt("seed", 1);
  scenario.seedsPerSize = opts.getUInt("seeds", 1);
  scenario.roundCap = opts.getUInt("cap", 0);
  scenario.adversaries = splitSpecList(opts.getString("adversaries", ""));
  scenario.backend = parseBackendChoice(opts.getString("backend", "auto"));
  return scenario;
}

/// `sweep --dynamics=SPEC` for anything but the default rooted-tree
/// dynamics: the model-zoo sweep. Same driver dialect, unified rows,
/// deterministic at any --jobs. Graph-model dynamics never batch; the
/// scenario's --batch is parsed anyway, so an explicit --batch=K fails
/// validation instead of being ignored.
int runDynamicsSweep(BenchDriver& driver, const ScenarioSpec& scenario,
                     bool wantSummary) {
  driver.options().rejectUnread();
  driver.printHeader("SWEEP — dynamics=" +
                     DynamicsSpec::parse(scenario.dynamics).toString() +
                     ", backend=" + backendChoiceName(scenario.backend));
  const ScenarioResult result = runScenario(scenario, driver.engine());
  driver.emit(rowsTable(result.rows));
  if (wantSummary) emitSummary(result.rows);
  return reportClaims(scenario, result.rows);
}

}  // namespace

std::vector<std::string> splitSpecList(const std::string& text) {
  std::vector<std::string> specs;
  std::string current;
  for (const char c : text) {
    if (c == ';' || c == '\n') {
      if (!current.empty()) specs.push_back(current);
      current.clear();
      continue;
    }
    if ((c == ' ' || c == '\t') && current.empty()) continue;
    current += c;
  }
  if (!current.empty()) specs.push_back(current);
  for (std::string& spec : specs) {
    while (!spec.empty() && (spec.back() == ' ' || spec.back() == '\t')) {
      spec.pop_back();
    }
  }
  return specs;
}

int runSweep(int argc, const char* const* argv) {
  return guarded([&] {
    BenchDriver driver(argc, argv, "4:128:2", 1);
    const bool wantSummary = driver.options().has("summary");
    ScenarioSpec scenario = scenarioFromFlags(driver.options(), "4:128:2");
    scenario.batch =
        parseBatchPolicy(driver.options().getString("batch", "auto"));
    if (DynamicsSpec::parse(scenario.dynamics).toString() != "rooted-tree") {
      // Any non-default dynamics runs the model-zoo sweep; the theorem
      // bracket below is specific to unrestricted rooted trees.
      return runDynamicsSweep(driver, scenario, wantSummary);
    }
    // Beam witness search is the strongest (offline) adversary; it costs
    // real time and its advantage concentrates at small-to-mid n, so it
    // runs only up to a size cap by default.
    const std::size_t beamMaxN = driver.options().getUInt("beam-maxn", 32);
    const std::size_t beamWidth = driver.options().getUInt("beam-width", 256);
    driver.options().rejectUnread();

    driver.printHeader("THM31 — adversaries vs Theorem 3.1");
    std::cout << "best t* = max(online portfolio, offline beam witness for "
                 "n <= "
              << beamMaxN << ")\n\n";
    const ScenarioResult sweep = runScenario(scenario, driver.engine());

    // Beam witnesses fan out too: one task per size within the beam cap.
    const std::vector<std::size_t>& sizes = driver.sizes();
    const auto beamRows = driver.engine().map<std::size_t>(
        sizes.size(), 0, [&](std::size_t i, std::uint64_t) {
          return scenarioBeamWitness(scenario, i, beamWidth, beamMaxN);
        });

    driver.emit(thm31Table(sizes, driver.seedsPerSize(), sweep.instances,
                           beamRows));
    emitPerAdversaryDetail(sweep.instances);
    if (wantSummary) emitSummary(sweep.rows);
    return thm31Verdict(scenario, sweep.rows, beamRows);
  });
}

int runPortfolio(int argc, const char* const* argv) {
  return guarded([&] {
    BenchDriver driver(argc, argv, "8:64:2", 1);
    const bool wantSummary = driver.options().has("summary");
    ScenarioSpec scenario = scenarioFromFlags(driver.options(), "8:64:2");
    scenario.batch =
        parseBatchPolicy(driver.options().getString("batch", "auto"));
    scenario.objective =
        parseObjective(driver.options().getString("objective", "broadcast"));
    driver.options().rejectUnread();
    validateScenario(scenario);  // a rejected spec prints no header

    driver.printHeader(
        "SCENARIO — objective=" + objectiveName(scenario.objective) +
        ", dynamics=" + DynamicsSpec::parse(scenario.dynamics).toString() +
        ", backend=" + backendChoiceName(scenario.backend));
    const ScenarioResult result = runScenario(scenario, driver.engine());

    driver.emit(rowsTable(result.rows));

    std::cout << "strongest adversary per instance (Definition 2.3's "
                 "max over the listed specs):\n";
    TextTable best({"n", "seed", "best adversary", "best rounds"});
    for (const SweepInstance& instance : result.instances) {
      best.row()
          .add(static_cast<std::uint64_t>(instance.n))
          .add(static_cast<std::uint64_t>(instance.seedIndex))
          .add(instance.portfolio.bestName.empty()
                   ? std::string("- (none completed)")
                   : instance.portfolio.bestName)
          .add(static_cast<std::uint64_t>(instance.portfolio.bestRounds));
    }
    std::cout << best.render() << '\n';
    if (wantSummary) emitSummary(result.rows);
    return reportClaims(scenario, result.rows);
  });
}

int runDuel(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    const std::size_t n = opts.getUInt("n", 32);
    const std::uint64_t seed = opts.getUInt("seed", 7);
    std::vector<std::string> specs =
        splitSpecList(opts.getString("adversaries", ""));
    if (specs.empty()) specs = standardPortfolioSpecs();
    const std::optional<std::string> csvPath = opts.get("csv");
    opts.rejectUnread();

    std::cout << "adversary duel at n = " << n << " (seed " << seed
              << ")\n\n";
    const PortfolioResult result =
        runPortfolio(n, seed, membersFromSpecs(specs, n, seed));

    TextTable table({"adversary", "t*", "t*/n", "vs static path"});
    for (const auto& e : result.entries) {
      const double ratio =
          static_cast<double>(e.rounds) / static_cast<double>(n);
      const std::int64_t delta = static_cast<std::int64_t>(e.rounds) -
                                 static_cast<std::int64_t>(n - 1);
      table.row()
          .add(e.name)
          .add(static_cast<std::uint64_t>(e.rounds))
          .add(ratio, 3)
          .add((delta >= 0 ? "+" : "") + std::to_string(delta));
    }
    emitTable(table, csvPath);

    const TheoremCheck check = checkTheorem31(n, result.bestRounds);
    std::cout << "champion: " << result.bestName
              << " with t* = " << result.bestRounds << "\n"
              << "Theorem 3.1 bracket [" << check.lower << ", "
              << check.upper << "]; champion ratio " << check.ratio << "\n";
    return 0;
  });
}

int runWitness(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    const std::size_t n = opts.getUInt("n", 16);
    const std::uint64_t seed = opts.getUInt("seed", 7);
    const std::size_t restarts = opts.getUInt("restarts", 3);

    BeamConfig cfg;
    cfg.beamWidth = opts.getUInt("beam", 256);
    cfg.randomMovesPerState = kBeamRandomMoves;
    cfg.diversityPercent = kBeamDiversityPercent;
    opts.rejectUnread();

    std::cout << "beam witness search at n = " << n << " (beam "
              << cfg.beamWidth << ", " << restarts << " restarts)\n\n";

    BeamResult best;
    for (std::size_t r = 0; r < restarts; ++r) {
      BeamResult attempt = beamSearchWitness(n, seed + r, cfg);
      std::cout << "restart " << r << ": " << attempt.rounds << " rounds ("
                << attempt.statesExpanded << " states)\n";
      if (attempt.rounds > best.rounds) best = std::move(attempt);
    }

    const std::size_t verified = verifyWitness(n, best.witness);
    std::cout << "\nbest witness: " << best.rounds
              << " rounds; independent replay says " << verified << '\n';

    const TheoremCheck check = checkTheorem31(n, verified);
    std::cout << "Theorem 3.1: t*(T_" << n << ") >= " << verified
              << ", bracket [" << check.lower << ", " << check.upper
              << "], ratio " << check.ratio << '\n';
    std::cout << "static baseline (best single tree): " << n - 1 << " — "
              << (verified > n - 1 ? "beaten: dynamic adversaries are "
                                     "strictly stronger"
                                   : "not beaten at this search effort")
              << '\n';
    return verified == best.rounds ? 0 : 1;
  });
}

int runBounds(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    const std::vector<std::size_t> sizes =
        parseSizeList(opts.getString("sizes", "8:4096:2"));
    const std::vector<std::size_t> ks =
        parseSizeList(opts.getString("ks", "2,4,8"));
    const std::optional<std::string> csvPath = opts.get("csv");
    opts.rejectUnread();

    std::cout << "FIG1 — upper-bound landscape (paper Figure 1)\n"
              << "columns: trivial n^2 | (n-1)ceil(log2 n) [14 via 1+2] | "
                 "2n loglog n + 2n [9] | ceil((1+sqrt2)n - 1) [this paper] "
                 "| lower bound ceil((3n-1)/2)-2 [14]\n\n";
    TextTable table({"n", "trivial n^2", "n log n", "2n loglog n + O(n)",
                     "(1+sqrt2)n (new)", "lower bound"});
    for (const std::size_t n : sizes) {
      table.row()
          .add(static_cast<std::uint64_t>(n))
          .add(bounds::trivialUpper(n))
          .add(bounds::nLogNUpper(n))
          .add(bounds::nLogLogUpper(n), 1)
          .add(bounds::linearUpper(n))
          .add(bounds::lowerBound(n));
    }
    emitTable(table, csvPath);

    std::cout << "restricted adversaries [14] (O(kn), evaluated as k*n):\n";
    TextTable restricted({"n", "k", "k-leaf bound", "k-inner bound"});
    for (const std::size_t n : sizes) {
      for (const std::size_t k : ks) {
        if (k >= n) continue;
        restricted.row()
            .add(static_cast<std::uint64_t>(n))
            .add(static_cast<std::uint64_t>(k))
            .add(bounds::kLeafUpper(n, k))
            .add(bounds::kInnerUpper(n, k));
      }
    }
    std::cout << restricted.render() << '\n';
    return 0;
  });
}

int runList(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    opts.rejectUnread();
    const AdversaryRegistry& registry = AdversaryRegistry::instance();
    std::cout << "registered adversaries (spec grammar: "
                 "name[:key=value[,key=value]...]):\n\n";
    for (const std::string& name : registry.names()) {
      const AdversaryInfo& info = registry.info(name);
      std::cout << "  " << name << "\n      " << info.description << '\n';
      for (const AdversaryParamDoc& param : info.params) {
        std::cout << "      " << param.key << "=" << param.defaultValue
                  << "  " << param.description << '\n';
      }
    }

    const DynamicsRegistry& dynRegistry = DynamicsRegistry::instance();
    std::cout << "\ndynamics model zoo (--dynamics=SPEC, same grammar):\n\n";
    for (const std::string& name : dynRegistry.names()) {
      const DynamicsInfo& info = dynRegistry.info(name);
      std::cout << "  " << name << "  ["
                << (info.mode == DynamicsMode::kGraphModel
                        ? "graph model"
                        : "adversary-driven")
                << ", class=" << dynamicsClassName(info.graphClass)
                << (info.stochastic ? ", stochastic" : "")
                << (info.sparseCapable ? ", sparse-capable" : "")
                << "]\n      " << info.description << '\n';
      if (!info.literature.empty()) {
        std::cout << "      literature: " << info.literature << '\n';
      }
      for (const DynamicsParamDoc& param : info.params) {
        std::cout << "      " << param.key << "=" << param.defaultValue
                  << "  " << param.description << '\n';
      }
    }

    std::cout << "\nscenario vocabulary (sweep/portfolio subcommands):\n"
                 "  --objective=broadcast|gossip (gossip: adversary-driven "
                 "dynamics only)\n"
                 "  --dynamics=SPEC from the model zoo above\n"
                 "  --adversaries=SPECS (adversary-driven dynamics; graph "
                 "models take none)\n"
                 "  --backend=dense|sparse|auto (sparse: frontier "
                 "simulation for sparse-capable\n"
                 "    graph models above; auto switches past n=4096 — rows "
                 "are backend-invariant)\n"
                 "  --batch=K|auto|off (broadcast over adversary-driven "
                 "trees: run K seed\n"
                 "    replicates of an oblivious adversary in lockstep; "
                 "auto batches 8 lanes\n"
                 "    once a cell has >= 8 replicates — rows are "
                 "batch-invariant)\n"
                 "  --summary prints per-(n, member) stats over --seeds "
                 "replicates\n"
                 "\nservice mode (serve/submit/work subcommands):\n"
                 "  dynbcast serve --socket=PATH --state=DIR [--workers=N] "
                 "runs the experiment\n"
                 "    service: jobs are checkpointed to a run manifest and "
                 "results cached by\n"
                 "    canonical spec + seed + position, so interrupted jobs "
                 "resume and\n"
                 "    overlapping requests execute only their delta\n"
                 "  dynbcast submit --socket=PATH <sweep flags> runs a "
                 "sweep through the\n"
                 "    service; its --csv output is byte-identical to "
                 "`dynbcast sweep`'s\n"
                 "  dynbcast work --manifest=PATH executes a job's "
                 "unfinished tasks (the\n"
                 "    server shards jobs by spawning these)\n";
    return 0;
  });
}

namespace {

/// The running binary's own path, for the server to exec as worker
/// processes. Linux-specific by design — same trust boundary as the
/// unix socket the service listens on.
[[nodiscard]] std::string selfExecutablePath() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return "";
  buffer[n] = '\0';
  return std::string(buffer);
}

void emitServiceStats(const SubmitOutcome& outcome) {
  std::cout << "service: job=" << outcome.jobId
            << " tasks=" << outcome.tasks << " resumed=" << outcome.resumed
            << " cache-hits=" << outcome.cacheHits
            << " executed=" << outcome.executed << '\n';
}

}  // namespace

int runServe(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    ServerOptions server;
    server.socketPath = opts.getString("socket", "");
    server.stateDir = opts.getString("state", "");
    server.workers = opts.getUInt("workers", 0);
    server.jobsPerWorker = opts.getUInt("jobs", 1);
    server.maxRequests = opts.getUInt("max-requests", 0);
    // Fault injection for resume tests: first-wave workers stop after
    // this many tasks, exactly as if killed at a task boundary.
    server.workerMaxTasks = opts.getUInt("worker-max-tasks", 0);
    server.workerBinary = opts.getString("worker-binary", "");
    opts.rejectUnread();
    if (server.socketPath.empty() || server.stateDir.empty()) {
      throw std::invalid_argument(
          "serve: --socket=PATH and --state=DIR are required");
    }
    if (server.workers > 0 && server.workerBinary.empty()) {
      server.workerBinary = selfExecutablePath();
      if (server.workerBinary.empty()) {
        throw std::invalid_argument(
            "serve: cannot resolve the worker binary; pass "
            "--worker-binary=PATH");
      }
    }
    std::cout << "dynbcast serve: socket=" << server.socketPath
              << " state=" << server.stateDir
              << " workers=" << server.workers
              << " jobs=" << server.jobsPerWorker << std::endl;
    return runServer(server);
  });
}

int runSubmit(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    const std::string socket = opts.getString("socket", "");
    ServiceRequest request;
    request.scenario = scenarioFromFlags(opts, "4:128:2");
    request.scenario.objective =
        parseObjective(opts.getString("objective", "broadcast"));
    request.beamMaxN = opts.getUInt("beam-maxn", 32);
    request.beamWidth = opts.getUInt("beam-width", 256);
    const std::optional<std::string> csvPath = opts.get("csv");
    const bool wantSummary = opts.has("summary");
    opts.rejectUnread();
    if (socket.empty()) {
      throw std::invalid_argument("submit: --socket=PATH is required");
    }
    // Fail bad specs client-side with the registry's full message
    // instead of a round-trip to the server.
    validateScenario(request.scenario);

    // PROGRESS goes to stderr so stdout stays table-shaped like sweep's.
    const SubmitOutcome outcome =
        submitRequest(socket, request, &std::cerr);

    if (requestWantsBeamWitnesses(request)) {
      std::cout << "THM31 — adversaries vs Theorem 3.1 (served; seed="
                << request.scenario.masterSeed << ")\n\n";
      emitTable(thm31Table(request.scenario.sizes,
                           request.scenario.seedsPerSize, outcome.instances,
                           outcome.beamRounds),
                csvPath);
      emitPerAdversaryDetail(outcome.instances);
      if (wantSummary) emitSummary(outcome.rows);
      emitServiceStats(outcome);
      return thm31Verdict(request.scenario, outcome.rows, outcome.beamRounds);
    }

    std::cout << "SWEEP — dynamics="
              << DynamicsSpec::parse(request.scenario.dynamics).toString()
              << ", backend=" << backendChoiceName(request.scenario.backend)
              << " (served; seed=" << request.scenario.masterSeed << ")\n\n";
    emitTable(rowsTable(outcome.rows), csvPath);
    if (wantSummary) emitSummary(outcome.rows);
    emitServiceStats(outcome);
    return reportClaims(request.scenario, outcome.rows);
  });
}

int runWork(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    WorkerOptions work;
    work.manifestPath = opts.getString("manifest", "");
    work.cacheDir = opts.getString("cache", "");
    work.jobs = opts.getUInt("jobs", 1);
    work.maxTasks = opts.getUInt(
        "max-tasks", std::numeric_limits<std::size_t>::max());
    const std::string range = opts.getString("range", "");
    if (!range.empty()) {
      const std::size_t colon = range.find(':');
      const auto begin = parseWhole<std::size_t>(range.substr(0, colon));
      const auto end = colon == std::string::npos
                           ? std::nullopt
                           : parseWhole<std::size_t>(range.substr(colon + 1));
      if (!begin || !end) {
        throw std::invalid_argument("work: --range expects BEGIN:END, got '" +
                                    range + "'");
      }
      work.rangeBegin = *begin;
      work.rangeEnd = *end;
    }
    opts.rejectUnread();
    if (work.manifestPath.empty()) {
      throw std::invalid_argument("work: --manifest=PATH is required");
    }
    const WorkerReport report = runManifestWorker(work);
    std::cout << "work: assigned=" << report.assigned
              << " already-done=" << report.alreadyDone
              << " cache-hits=" << report.cacheHits
              << " executed=" << report.executed
              << " remaining=" << report.remaining << '\n';
    return 0;
  });
}

namespace {

struct Subcommand {
  const char* name;
  int (*run)(int argc, const char* const* argv);
  const char* usage;  ///< its block under "subcommands:"
};

const Subcommand kSubcommands[] = {
    {"sweep", runSweep,
     "  sweep      Theorem 3.1 sweep (default rooted-tree dynamics: "
     "portfolio + beam\n"
     "             witnesses vs the paper's bracket; any other "
     "--dynamics runs the\n"
     "             model-zoo sweep over sizes x seed replicates)\n"
     "             [--sizes=4:128:2] [--seed=1] [--seeds=R] [--jobs=N]\n"
     "             [--csv=path] [--adversaries=SPECS] "
     "[--dynamics=SPEC] [--summary]\n"
     "             [--cap=ROUNDS] [--beam-maxn=32] [--beam-width=256]\n"
     "             [--backend=dense|sparse|auto] (graph-model dynamics "
     "only)\n"
     "             [--batch=K|auto|off] (oblivious replicate batching)\n"},
    {"portfolio", runPortfolio,
     "  portfolio  general scenario runner over objective x dynamics x "
     "adversaries\n"
     "             [--objective=broadcast|gossip] [--dynamics=SPEC]\n"
     "             [--sizes=8:64:2] [--seed=1] [--seeds=R] [--jobs=N]\n"
     "             [--cap=ROUNDS] [--csv=path] [--adversaries=SPECS] "
     "[--summary]\n"
     "             [--backend=dense|sparse|auto] [--batch=K|auto|off]\n"},
    {"duel", runDuel,
     "  duel       all listed adversaries fight one instance\n"
     "             [--n=32] [--seed=7] [--adversaries=SPECS] "
     "[--csv=path]\n"},
    {"witness", runWitness,
     "  witness    offline beam witness search with verification\n"
     "             [--n=16] [--seed=7] [--beam=256] [--restarts=3]\n"},
    {"bounds", runBounds,
     "  bounds     the paper's Figure 1: every upper bound and the lower "
     "bound over n,\n"
     "             plus [14]'s O(kn) restricted-class bounds\n"
     "             [--sizes=8:4096:2] [--ks=2,4,8] [--csv=path]\n"},
    {"reproduce", runReproduce,
     "  reproduce  runs figure files (bench/figures/*.spec): prints each "
     "'#' line,\n"
     "             runs every other line as a dynbcast subcommand line, "
     "and exits\n"
     "             with the largest status; no flags of its own\n"
     "             FILE...\n"},
    {"list", runList,
     "  list       registered adversaries, the dynamics model zoo, and "
     "scenario vocabulary\n"},
    {"serve", runServe,
     "  serve      experiment service: checkpointed manifests, "
     "spec-keyed result\n"
     "             cache, optional worker-process sharding\n"
     "             --socket=PATH --state=DIR [--workers=N] [--jobs=J]\n"
     "             [--max-requests=K]\n"},
    {"submit", runSubmit,
     "  submit     run a sweep through a running server (sweep's "
     "flags except\n"
     "             --jobs and --batch, plus --socket=PATH; --csv output "
     "is byte-identical\n"
     "             to sweep's)\n"},
    {"work", runWork,
     "  work       execute a manifest's unfinished tasks "
     "(server workers run this)\n"
     "             --manifest=PATH [--cache=DIR] [--jobs=J] "
     "[--range=A:B]\n"},
};

int usage(std::ostream& os) {
  os << "usage: dynbcast <subcommand> [flags]\n\nsubcommands:\n";
  for (const Subcommand& sub : kSubcommands) os << sub.usage;
  os << "\n"
        "adversary SPECS are ';'-separated registry spec strings, e.g.\n"
        "  --adversaries=\"static-path;freeze-path:depth=3;beam:width=64\"\n"
        "dynamics SPEC is one DynamicsRegistry spec string, e.g.\n"
        "  --dynamics=edge-markovian:p=0.2,q=0.1   (see 'dynbcast list')\n";
  return 2;
}

[[nodiscard]] bool isHelpFlag(const std::string& arg) {
  return arg == "--help" || arg == "-h";
}

[[nodiscard]] const Subcommand* findSubcommand(const std::string& name) {
  for (const Subcommand& sub : kSubcommands) {
    if (name == sub.name) return &sub;
  }
  return nullptr;
}

[[nodiscard]] std::string unknownSubcommand(const std::string& name) {
  std::vector<std::string> names;
  for (const Subcommand& sub : kSubcommands) names.push_back(sub.name);
  std::string message = "unknown subcommand '" + name + "'";
  const std::string suggestion = closestMatch(name, names);
  if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
  return message;
}

}  // namespace

int runReproduce(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    opts.rejectUnread();
    if (opts.positional().empty()) {
      throw std::invalid_argument(
          "reproduce: name at least one figure file, e.g. "
          "bench/figures/thm31.spec");
    }
    // Every file is read and every line checked before any runs, so a
    // typo on the last line costs no figure time. A comment is kept as
    // its text alone, a command as its argv from "dynbcast" on.
    std::vector<std::vector<std::string>> script;
    for (const std::string& path : opts.positional()) {
      std::ifstream in(path);
      if (!in) throw std::invalid_argument("reproduce: cannot read " + path);
      std::string text;
      for (std::size_t number = 1; std::getline(in, text); ++number) {
        std::istringstream words(text);
        std::vector<std::string> line{"dynbcast"};
        for (std::string word; words >> word;) line.push_back(word);
        if (line.size() == 1) continue;
        if (line[1][0] == '#') {
          script.push_back({text});
          continue;
        }
        const std::string where = path + ":" + std::to_string(number) + ": ";
        if (line[1] == "reproduce") {
          throw std::invalid_argument(where +
                                      "a figure file cannot run reproduce");
        }
        if (findSubcommand(line[1]) == nullptr) {
          throw std::invalid_argument(where + unknownSubcommand(line[1]));
        }
        script.push_back(std::move(line));
      }
    }
    int status = 0;
    for (const std::vector<std::string>& line : script) {
      if (line.size() == 1) {
        std::cout << line[0] << '\n';
        continue;
      }
      std::vector<const char*> args;
      std::cout << "$";
      for (const std::string& arg : line) {
        std::cout << ' ' << arg;
        args.push_back(arg.c_str());
      }
      std::cout << std::endl;
      status = std::max(
          status, dispatch(static_cast<int>(args.size()), args.data()));
    }
    return status;
  });
}

int dispatch(int argc, const char* const* argv) {
  if (argc < 2) return usage(std::cerr);
  const std::string subcommand = argv[1];
  if (subcommand == "help" || isHelpFlag(subcommand)) {
    usage(std::cout);
    return 0;
  }
  const Subcommand* sub = findSubcommand(subcommand);
  if (sub == nullptr) {
    std::cerr << "dynbcast: " << unknownSubcommand(subcommand) << "\n\n";
    return usage(std::cerr);
  }
  // `dynbcast <subcommand> --help` prints that subcommand's usage,
  // before any flag is parsed or rejected.
  if (std::any_of(argv + 2, argv + argc, isHelpFlag)) {
    std::cout << "usage: dynbcast " << sub->name << " [flags]\n\n"
              << sub->usage;
    return 0;
  }
  return sub->run(argc - 1, argv + 1);
}

}  // namespace dynbcast::cli
