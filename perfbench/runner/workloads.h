// The benchmark's four workloads, driven through the layers' public
// functions. Every input is a pure function of the workload seed; the
// runner returns raw measurements (per-job latencies, set-up samples,
// check counts, trace counters) and run.py turns them into metrics.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 10.0;
  /// Also replay the window's jobs under tracing and export the spans.
  bool trace = false;
  /// Skip the measurement and only compute the row digest a full run
  /// reports, so a second process can confirm it.
  bool digestOnly = false;
  /// The dynbcast binary `serve` is spawned from (service-mixed only).
  std::string dynbcastBinary;
  /// Scratch directory for state dirs, sockets and trace files; relative
  /// to the working directory so socket paths stay short.
  std::string workDir;
};

/// Runs one workload; returns its raw results as a one-line JSON object.
/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] std::string runWorkload(const RunOptions& options);

}  // namespace perfbench
