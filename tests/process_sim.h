// ProcessSim: a literal synchronous message-passing implementation of the
// model, used only by tests to cross-validate BroadcastSim (header-only;
// no library code depends on it).
//
// Each process keeps an explicit knowledge set of process ids. In each
// round, the adversary's rooted tree defines the links; every process
// composes a Message carrying its full knowledge and the network delivers
// it along every out-link (parent → child). At the end of the round every
// process merges what it received. The self-loop is the process keeping
// its own knowledge.
//
// This is deliberately the "obvious" O(n²) implementation with real
// message objects and a delivery queue — an independent executable
// reading of Definitions 2.1–2.3, not an optimized clone of the bitset
// recurrence. Integration tests assert both simulators agree round by
// round on identical tree sequences.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "src/graph/bitmatrix.h"
#include "src/support/assert.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

/// A message in flight during one synchronous round.
struct Message {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  /// The sender's entire knowledge at the start of the round.
  std::set<std::size_t> payload;
};

/// One process's state.
struct Process {
  std::size_t id = 0;
  /// Ids this process has heard of (always contains id).
  std::set<std::size_t> knowledge;
};

class ProcessSim {
 public:
  explicit ProcessSim(std::size_t n);

  [[nodiscard]] std::size_t processCount() const noexcept {
    return processes_.size();
  }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  /// Runs one synchronous round along `tree`: send phase (messages are
  /// composed from start-of-round knowledge), delivery, then merge phase.
  void applyTree(const RootedTree& tree);

  /// One round along an arbitrary reflexive directed graph: a message
  /// travels every edge (x, y), x ≠ y, again composed from start-of-round
  /// knowledge. Same delivery machinery as applyTree.
  void applyGraph(const BitMatrix& g);

  [[nodiscard]] const Process& process(std::size_t id) const {
    return processes_[id];
  }

  /// |knowledge(y)| — the literal counterpart of BroadcastSim's
  /// heard-of row popcount.
  [[nodiscard]] std::size_t heardCount(std::size_t y) const noexcept {
    return processes_[y].knowledge.size();
  }

  /// Returns to round 0 (every process knows only itself).
  void reset();

  /// Ids known to everyone (broadcast certificate set).
  [[nodiscard]] std::set<std::size_t> knownToAll() const;

  [[nodiscard]] bool broadcastDone() const { return !knownToAll().empty(); }

  [[nodiscard]] bool gossipDone() const;

  /// Messages delivered in the most recent round (for inspection/tests).
  [[nodiscard]] const std::vector<Message>& lastRoundMessages()
      const noexcept {
    return delivered_;
  }

  /// Total messages delivered since construction.
  [[nodiscard]] std::size_t messagesDelivered() const noexcept {
    return totalMessages_;
  }

 private:
  std::vector<Process> processes_;
  std::vector<Message> delivered_;
  std::size_t totalMessages_ = 0;
  std::size_t round_ = 0;
};


inline ProcessSim::ProcessSim(std::size_t n) {
  DYNBCAST_ASSERT(n > 0);
  processes_.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    processes_.push_back(Process{id, {id}});
  }
}

inline void ProcessSim::applyTree(const RootedTree& tree) {
  DYNBCAST_ASSERT_MSG(tree.size() == processCount(), "tree size mismatch");
  // Send phase: every process addresses its knowledge to each of its
  // children in the adversary's tree. Messages snapshot start-of-round
  // knowledge, so composition order is irrelevant (synchronous rounds).
  std::vector<Message> network;
  for (const Process& p : processes_) {
    for (const std::size_t child : tree.childrenOf(p.id)) {
      network.push_back(Message{p.id, child, p.knowledge});
    }
  }
  // Delivery + merge phase.
  for (const Message& msg : network) {
    auto& knowledge = processes_[msg.receiver].knowledge;
    knowledge.insert(msg.payload.begin(), msg.payload.end());
  }
  totalMessages_ += network.size();
  delivered_ = std::move(network);
  ++round_;
}

inline void ProcessSim::applyGraph(const BitMatrix& g) {
  DYNBCAST_ASSERT_MSG(g.dim() == processCount(), "graph size mismatch");
  DYNBCAST_ASSERT_MSG(g.isReflexive(),
                      "model requires self-loops (no forgetting)");
  std::vector<Message> network;
  for (const Process& p : processes_) {
    const DynBitset& row = g.row(p.id);
    for (std::size_t y = row.findFirst(); y < processCount();
         y = row.findNext(y + 1)) {
      if (y != p.id) network.push_back(Message{p.id, y, p.knowledge});
    }
  }
  for (const Message& msg : network) {
    auto& knowledge = processes_[msg.receiver].knowledge;
    knowledge.insert(msg.payload.begin(), msg.payload.end());
  }
  totalMessages_ += network.size();
  delivered_ = std::move(network);
  ++round_;
}

inline void ProcessSim::reset() {
  for (Process& p : processes_) p.knowledge = {p.id};
  delivered_.clear();
  totalMessages_ = 0;
  round_ = 0;
}

inline std::set<std::size_t> ProcessSim::knownToAll() const {
  std::set<std::size_t> common = processes_.front().knowledge;
  for (std::size_t id = 1; id < processes_.size() && !common.empty(); ++id) {
    const auto& k = processes_[id].knowledge;
    std::set<std::size_t> next;
    std::set_intersection(common.begin(), common.end(), k.begin(), k.end(),
                          std::inserter(next, next.begin()));
    common.swap(next);
  }
  return common;
}

inline bool ProcessSim::gossipDone() const {
  return std::all_of(processes_.begin(), processes_.end(),
                     [n = processCount()](const Process& p) {
                       return p.knowledge.size() == n;
                     });
}

}  // namespace dynbcast
