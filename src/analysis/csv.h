// CSV/file export helpers for benches and examples.
//
// Every subcommand that prints a paper table can persist its
// TextTable as CSV (one header row, comma-separated cells, quoted only
// when needed), so the same run that prints a terminal table also leaves
// a plottable artifact. writeFile() is the single filesystem touchpoint
// of the library — it creates parent directories and fails loudly, which
// keeps experiment scripts honest about where their data went.
#pragma once

#include <string>

#include "src/support/table.h"

namespace dynbcast {

/// Writes `content` to `path`, creating parent directories as needed.
/// Throws std::runtime_error on I/O failure.
void writeFile(const std::string& path, const std::string& content);

/// Writes a TextTable as CSV to `path`.
void writeCsv(const std::string& path, const TextTable& table);

}  // namespace dynbcast
