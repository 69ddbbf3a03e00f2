#include "runner/trace.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

/// Innermost open ScopedSpan on this thread (0 = none).
thread_local std::uint64_t tlsTop = 0;

[[nodiscard]] std::string jsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

class TracedAdversary final : public dynbcast::Adversary {
 public:
  TracedAdversary(Tracer& tracer, std::unique_ptr<dynbcast::Adversary> inner,
                  std::string member, std::size_t n)
      : tracer_(tracer),
        inner_(std::move(inner)),
        member_(std::move(member)),
        n_(n),
        parent_(tracer.currentParent()),
        startNs_(nowNs()) {}

  ~TracedAdversary() override {
    try {
      Span span;
      span.name = "adversary.instance";
      span.startNs = startNs_;
      span.endNs = nowNs();
      span.id = tracer_.newId();
      span.parent = parent_;
      span.thread = tracer_.threadId();
      span.label = member_;
      span.args["n"] = static_cast<double>(n_);
      span.args["decide_ns"] = static_cast<double>(decideNs_);
      span.args["decide_calls"] = static_cast<double>(calls_);
      span.args["oblivious"] = inner_->oblivious() ? 1.0 : 0.0;
      tracer_.record(std::move(span));
    } catch (...) {
      tracer_.noteDropped();
    }
  }

  dynbcast::RootedTree nextTree(const dynbcast::BroadcastSim& state) override {
    const std::int64_t t0 = nowNs();
    dynbcast::RootedTree tree = inner_->nextTree(state);
    decideNs_ += nowNs() - t0;
    calls_ += 1;
    return tree;
  }

  bool oblivious() const noexcept override { return inner_->oblivious(); }

  const dynbcast::RootedTree& obliviousTree(std::size_t round) override {
    const std::int64_t t0 = nowNs();
    const dynbcast::RootedTree& tree = inner_->obliviousTree(round);
    decideNs_ += nowNs() - t0;
    calls_ += 1;
    return tree;
  }

  std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }

 private:
  Tracer& tracer_;
  std::unique_ptr<dynbcast::Adversary> inner_;
  std::string member_;
  std::size_t n_;
  std::uint64_t parent_;
  std::int64_t startNs_;
  std::int64_t decideNs_ = 0;
  std::uint64_t calls_ = 0;
};

}  // namespace

std::int64_t nowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

Tracer::Tracer() : rootThread_(std::this_thread::get_id()) {}

std::uint64_t Tracer::newId() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return nextId_++;
}

std::uint32_t Tracer::threadId() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      threads_.emplace(key, static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Tracer::noteDropped() noexcept { dropped_.fetch_add(1); }

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t Tracer::currentParent() const {
  if (tlsTop != 0) return tlsTop;
  if (std::this_thread::get_id() == rootThread_) return 0;
  return fanoutParent_.load();
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                  "\"dropped_spans\":%llu},\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped_.load()));
  bool first = true;
  for (const Span& span : all) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu",
                 first ? "" : ",\n", jsonEscape(span.name).c_str(),
                 span.thread, static_cast<double>(span.startNs) / 1e3,
                 static_cast<double>(span.endNs - span.startNs) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent));
    if (!span.label.empty()) {
      std::fprintf(f, ",\"label\":\"%s\"", jsonEscape(span.label).c_str());
    }
    for (const auto& [key, value] : span.args) {
      std::fprintf(f, ",\"%s\":%.17g", jsonEscape(key).c_str(), value);
    }
    std::fputs("}}", f);
    first = false;
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::string label)
    : tracer_(tracer) {
  span_.name = std::move(name);
  span_.label = std::move(label);
  span_.id = tracer.newId();
  span_.parent = tracer.currentParent();
  span_.thread = tracer.threadId();
  savedTop_ = tlsTop;
  tlsTop = span_.id;
  span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.endNs = nowNs();
  tlsTop = savedTop_;
  try {
    tracer_.record(std::move(span_));
  } catch (...) {
    tracer_.noteDropped();
  }
}

std::vector<dynbcast::PortfolioMember> tracedMembers(
    Tracer& tracer, std::vector<dynbcast::PortfolioMember> members,
    std::size_t n) {
  for (dynbcast::PortfolioMember& member : members) {
    member.make = [&tracer, make = std::move(member.make), name = member.name,
                   n]() -> std::unique_ptr<dynbcast::Adversary> {
      return std::make_unique<TracedAdversary>(tracer, make(), name, n);
    };
  }
  return members;
}

void TracedDynamics::nextSparseRound(dynbcast::SparseRound& out) {
  const std::int64_t t0 = nowNs();
  inner_->nextSparseRound(out);
  genNs_ += nowNs() - t0;
  rounds_ += 1;
}

}  // namespace perfbench
