// Quickstart: simulate the broadcast game end to end in ~40 lines of
// library usage — name an adversary (and optionally a dynamics model) by
// spec string, run it, check the relevant bound.
//
//   $ quickstart [--n=16] [--seed=42] [--adversary=greedy-delay]
//                [--dynamics=rooted-tree]
//
// The --adversary flag takes any AdversaryRegistry spec (try
// "freeze-path:depth=3", "beam:width=64"); --dynamics takes any
// DynamicsRegistry graph model (try "edge-markovian:p=0.2,q=0.1" or
// "t-interval:T=4" — under a graph model the adversary has no move, so
// --adversary is ignored). `dynbcast list` prints both menus.
#include <iostream>
#include <memory>

#include "src/adversary/registry.h"
#include "src/bounds/theorem.h"
#include "src/dynamics/registry.h"
#include "src/support/options.h"

namespace {

int run(int argc, const char* const* argv) {
  using namespace dynbcast;
  const Options opts(argc, argv);
  const std::size_t n = opts.getUInt("n", 16);
  const std::uint64_t seed = opts.getUInt("seed", 42);
  const std::string spec = opts.getString("adversary", "greedy-delay");
  const std::string dynamics = opts.getString("dynamics", "rooted-tree");
  opts.rejectUnread();

  std::cout << "dynbcast quickstart: broadcast on dynamic networks\n";

  if (dynamics != "rooted-tree") {
    // A model-zoo dynamics: the graphs come from the model, not from an
    // adversary. Resolve the spec, run to completion, report the rate.
    std::cout << "n = " << n << " processes, seed = " << seed
              << ", dynamics = " << dynamics << "\n\n";
    const std::unique_ptr<DynamicsModel> model =
        DynamicsRegistry::instance().make(dynamics, n, seed);
    const BroadcastRun run =
        runDynamicsBroadcast(n, *model, model->defaultRoundCap());
    if (!run.completed) {
      std::cout << "broadcast did not complete within the model's stall "
                   "cap of "
                << model->defaultRoundCap() << " rounds\n";
      return 1;
    }
    std::cout << "broadcast completed after " << run.rounds << " rounds "
              << "(class " << dynamicsClassName(model->graphClass())
              << ", rounds/n = "
              << static_cast<double>(run.rounds) / static_cast<double>(n)
              << ")\n"
              << "compare the paper's rooted-tree regime: t* is Theta(n) "
                 "there, logarithmic for nonsplit models\n";
    return 0;
  }

  std::cout << "n = " << n << " processes, seed = " << seed
            << ", adversary = " << spec << "\n\n";

  // 1. Resolve the adversary spec through the registry. Adversaries are
  //    data: the same string works in --adversaries sweep lists, scenario
  //    specs, and the dynbcast CLI.
  const std::unique_ptr<Adversary> adversary =
      AdversaryRegistry::instance().make(spec, n, seed);

  // 2. Run the synchronous game until some process has been heard by all.
  const BroadcastRun run = runAdversary(n, *adversary, defaultRoundCap(n));

  if (!run.completed) {
    std::cout << "ERROR: run hit the round cap — this would falsify "
                 "Theorem 3.1!\n";
    return 1;
  }
  std::cout << "broadcast completed after " << run.rounds << " rounds\n";

  // 3. Compare against the paper's Theorem 3.1.
  const TheoremCheck check = checkTheorem31(n, run.rounds);
  std::cout << "Theorem 3.1 bracket: [" << check.lower << ", " << check.upper
            << "]  measured t*/n = " << check.ratio << "\n";
  std::cout << (check.withinUpper ? "upper bound respected ✓"
                                  : "UPPER BOUND VIOLATED ✗")
            << "\n";
  std::cout << "the adversary "
            << (check.witnessesLower
                    ? "witnesses the paper's lower bound ✓"
                    : "did not reach the optimal lower-bound regime "
                      "(heuristic play)")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad spec strings throw std::invalid_argument with a registry
  // suggestion; surface them as a friendly error, not a terminate().
  return dynbcast::guardedMain(argc, argv, run);
}
