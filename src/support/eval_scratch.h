// EvalScratch: reusable buffers for candidate-tree evaluation.
//
// Search adversaries (beam, greedy-delay, lookahead, local search)
// evaluate thousands of candidate trees per round, and every evaluation
// needs a writable copy of the n-row heard matrix plus a coverage vector.
// Allocating those per candidate dominated the profile; an EvalScratch
// owns them across evaluations, so steady-state evaluation never touches
// the allocator (row assignment reuses each row's word storage once the
// shapes match, which they do after the first call at a given n).
//
// Recursive searches (lookahead) keep one EvalScratch per depth level:
// level d's buffers must stay alive while level d+1 evaluates its own
// candidates into the next slot.
// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/support/bitset.h"

namespace dynbcast {

struct EvalScratch {
  /// Post-move heard matrix of the last evaluation: evaluateCandidate
  /// leaves the candidate's round-(t+1) state here, so callers that keep
  /// a successor (beam, lookahead) read it without re-applying the tree.
  std::vector<DynBitset> heard;

  /// Post-move coverage of the last evaluation.
  std::vector<std::size_t> coverage;

  /// Reused BFS-order buffer.
  std::vector<std::size_t> order;

  /// Reused per-process marks (evaluatePathOrder's permutation check).
  std::vector<std::uint8_t> seen;

  /// The one sanctioned constructor: a scratch pre-sized for n-process
  /// evaluation, so even the FIRST evaluateCandidate call at this n is
  /// allocation-free. Every search adversary builds its scratch here.
  [[nodiscard]] static EvalScratch forProcessCount(std::size_t n) {
    EvalScratch scratch;
    scratch.heard.assign(n, DynBitset(n));
    scratch.coverage.assign(n, 0);
    scratch.order.reserve(n);
    scratch.seen.assign(n, 0);
    return scratch;
  }

  /// Copies `src` into `heard`, reusing existing row storage.
  void assignHeard(const std::vector<DynBitset>& src) {
    heard.resize(src.size());
    for (std::size_t y = 0; y < src.size(); ++y) heard[y] = src[y];
  }
};

}  // namespace dynbcast
