// Minimal command-line option parsing for examples and bench binaries.
//
// Supports --key=value, --key value, and --flag forms; positional
// arguments are collected in order. Options records every key a get/has
// call asks about, so a command can reject, once it has read all its
// flags, the ones it never asked about (catches typos in experiment
// scripts): see rejectUnread().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dynbcast {

class Options {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input.
  Options(int argc, const char* const* argv);

  /// Declares an option so it is accepted; returns its value if present.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string getString(const std::string& key,
                                      const std::string& fallback) const;
  /// The numeric getters return `fallback` for an absent or empty value
  /// and throw std::invalid_argument, naming the flag, unless the whole
  /// value is the number: "2x" and an out-of-range value fail, and
  /// getUInt rejects any sign.
  [[nodiscard]] std::int64_t getInt(const std::string& key,
                                    std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t getUInt(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback) const;

  /// True when --key was present at all (with or without value).
  [[nodiscard]] bool has(const std::string& key) const;

  /// Throws std::invalid_argument naming the first given --key that no
  /// get/has call has asked about, with a did-you-mean among the keys
  /// that were asked about. Call it after reading every flag and before
  /// doing any work.
  void rejectUnread() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& programName() const noexcept {
    return program_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> asked_;  // keys get/has were called with
};

/// A program's main(): returns body(argc, argv), except that a
/// std::exception escaping it — a malformed number, an unknown flag from
/// rejectUnread(), a bad spec — prints "<program>: <what>" to stderr and
/// returns 2 instead of aborting. <program> is argv[0]'s file name.
int guardedMain(int argc, const char* const* argv,
                int (*body)(int argc, const char* const* argv));

/// Parses "8,16,32" or "8:64:2" (lo:hi:multiplicative-step) into a list.
/// Throws std::invalid_argument, naming the token, on a size of 0, a
/// token with trailing garbage or out of range, step < 2, or lo > hi.
[[nodiscard]] std::vector<std::size_t> parseSizeList(const std::string& spec);

}  // namespace dynbcast
