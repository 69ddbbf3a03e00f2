// In-memory span tracing for the benchmark's traced runs.
//
// The benchmark measures the program from outside: spans sit around
// calls into the layers' public functions, never inside them. A span
// records name, start, end, its own id, the id of the span that caused
// it, and the thread it ran on, plus numeric arguments (counters measured
// at the same boundary). Spans stay in memory until the run ends, then
// writeChromeTrace() exports them as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
//
// The end-to-end numbers come from plain calls that never construct these
// types, so tracing cost cannot leak into them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/adversary/portfolio.h"
#include "src/dynamics/dynamics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in this process.
[[nodiscard]] std::int64_t nowNs();

struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top-level
  std::uint32_t thread = 0;
  std::map<std::string, double> args;
  std::string label;  // free-form detail (member spec, request kind, ...)
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::uint64_t newId();
  /// Small dense id of the calling thread (0 = first thread seen).
  [[nodiscard]] std::uint32_t threadId();
  void record(Span span);
  /// Counts a span lost to an exception in a destructor; reported in the
  /// trace file so a lossy trace is visible.
  void noteDropped() noexcept;
  [[nodiscard]] std::vector<Span> spans() const;

  /// Parent for spans opened on other threads than the tracer's creator
  /// when they have no open scoped span (the engine's pool threads): the
  /// job span that fanned the work out. On the creating thread such spans
  /// are top-level.
  void setFanoutParent(std::uint64_t id) { fanoutParent_.store(id); }
  [[nodiscard]] std::uint64_t currentParent() const;

  /// Writes every span as Chrome trace-event JSON; returns false on an
  /// I/O error.
  [[nodiscard]] bool writeChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> threads_;  // hashed id -> dense id
  std::uint64_t nextId_ = 1;
  std::thread::id rootThread_;
  std::atomic<std::uint64_t> fanoutParent_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span on the calling thread; nests under the thread's innermost
/// open ScopedSpan (or the tracer's fan-out parent).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string label = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const std::string& key, double value) { span_.args[key] = value; }
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
  std::uint64_t savedTop_ = 0;
};

/// A ScopedSpan when a tracer is given, nothing otherwise: lets one code
/// path serve both the traced pass and its untraced twin.
class MaybeSpan {
 public:
  MaybeSpan(Tracer* tracer, std::string name, std::string label = {}) {
    if (tracer != nullptr) {
      span_.emplace(*tracer, std::move(name), std::move(label));
    }
  }
  void arg(const std::string& key, double value) {
    if (span_) span_->arg(key, value);
  }
  [[nodiscard]] std::uint64_t id() const noexcept {
    return span_ ? span_->id() : 0;
  }

 private:
  std::optional<ScopedSpan> span_;
};

/// Accumulated time and call count of one operation inside a span; the
/// totals become that span's arguments (`<op>_ns`, `<op>_calls`).
struct OpTimer {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  template <typename F>
  decltype(auto) time(bool enabled, F&& fn) {
    if (!enabled) return fn();
    const std::int64_t t0 = nowNs();
    struct Stop {
      OpTimer& self;
      std::int64_t t0;
      ~Stop() {
        self.ns += nowNs() - t0;
        self.calls += 1;
      }
    } stop{*this, t0};
    return fn();
  }

  void addTo(MaybeSpan& span, const std::string& op) const {
    span.arg(op + "_ns", static_cast<double>(ns));
    span.arg(op + "_calls", static_cast<double>(calls));
  }
};

/// Portfolio factory wrapper: every member's make() returns a
/// TracedAdversary, whose lifetime (make() to destructor) is one
/// "adversary.instance" span carrying the member's decision time and
/// call count. The engine runs each scalar task on one adversary and
/// builds all lanes of a batched chunk up front, so the analysis groups
/// overlapping instance spans per thread into tasks (see harness.py).
[[nodiscard]] std::vector<dynbcast::PortfolioMember> tracedMembers(
    Tracer& tracer, std::vector<dynbcast::PortfolioMember> members,
    std::size_t n);

/// DynamicsModel wrapper timing nextSparseRound(); everything else
/// forwards, so runFrontierDynamicsBroadcast sees the model unchanged.
class TracedDynamics final : public dynbcast::DynamicsModel {
 public:
  explicit TracedDynamics(std::unique_ptr<dynbcast::DynamicsModel> inner)
      : inner_(std::move(inner)) {}

  dynbcast::BitMatrix nextGraph(const dynbcast::BroadcastSim& state) override {
    return inner_->nextGraph(state);
  }
  std::string name() const override { return inner_->name(); }
  dynbcast::DynamicsClass graphClass() const override {
    return inner_->graphClass();
  }
  std::size_t defaultRoundCap() const override {
    return inner_->defaultRoundCap();
  }
  void reset() override { inner_->reset(); }
  bool supportsSparseRounds() const override {
    return inner_->supportsSparseRounds();
  }
  void nextSparseRound(dynbcast::SparseRound& out) override;

  [[nodiscard]] std::int64_t generateNs() const noexcept { return genNs_; }
  [[nodiscard]] std::uint64_t roundsGenerated() const noexcept {
    return rounds_;
  }

 private:
  std::unique_ptr<dynbcast::DynamicsModel> inner_;
  std::int64_t genNs_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace perfbench
