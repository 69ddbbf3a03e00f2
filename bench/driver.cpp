#include "bench/driver.h"

#include <iostream>

#include "src/analysis/csv.h"

namespace dynbcast {

namespace {

EngineConfig configFrom(const Options& opts) {
  EngineConfig config;
  config.jobs = opts.getUInt("jobs", 0);  // 0 = all hardware threads
  return config;
}

}  // namespace

BenchDriver::BenchDriver(int argc, const char* const* argv,
                         const std::string& defaultSizes,
                         std::uint64_t defaultSeed)
    : opts_(argc, argv),
      csvPath_(opts_.get("csv")),
      sizes_(parseSizeList(opts_.getString("sizes", defaultSizes))),
      seed_(opts_.getUInt("seed", defaultSeed)),
      seedsPerSize_(opts_.getUInt("seeds", 1)),
      engine_(configFrom(opts_)) {}

void BenchDriver::printHeader(const std::string& title) const {
  std::cout << title << " (seed=" << seed_ << ", jobs=" << jobs() << ")\n\n";
}

void BenchDriver::emit(const TextTable& table) const {
  emitTable(table, csvPath_);
}

void emitTable(const TextTable& table,
               const std::optional<std::string>& csvPath) {
  std::cout << table.render() << '\n';
  if (csvPath) {
    writeCsv(*csvPath, table);
    std::cout << "wrote CSV to " << *csvPath << '\n';
  }
}

}  // namespace dynbcast
