// perfbench_runner: runs one benchmark workload and prints its raw
// measurements as one JSON line on stdout. run.py builds and calls it:
//
//   perfbench_runner --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --dynbcast=PATH --work-dir=DIR [--digest-only=1]
//
// Exit status 0 with the JSON line on success; 2 on bad arguments; 1 on
// any other failure (nothing is printed on stdout then).
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>

#include "runner/workloads.h"

namespace {

bool takeValue(const std::string& arg, const std::string& key,
               std::string* out) {
  const std::string prefix = "--" + key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      if (takeValue(arg, "workload", &value)) {
        options.workload = value;
      } else if (takeValue(arg, "seed", &value)) {
        options.seed = std::stoull(value);
      } else if (takeValue(arg, "seconds", &value)) {
        options.seconds = std::stod(value);
      } else if (takeValue(arg, "trace", &value)) {
        options.trace = value == "1";
      } else if (takeValue(arg, "digest-only", &value)) {
        options.digestOnly = value == "1";
      } else if (takeValue(arg, "dynbcast", &value)) {
        options.dynbcastBinary = value;
      } else if (takeValue(arg, "work-dir", &value)) {
        options.workDir = value;
      } else {
        std::cerr << "perfbench_runner: unknown argument " << arg << "\n";
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: bad argument value: " << e.what() << "\n";
    return 2;
  }
  if (options.workload.empty() || options.workDir.empty()) {
    std::cerr << "perfbench_runner: --workload and --work-dir are required\n";
    return 2;
  }
  try {
    const std::string json = perfbench::runWorkload(options);
    std::cout << json << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
