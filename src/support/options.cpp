#include "src/support/options.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "src/support/parse_number.h"
#include "src/support/spec.h"

namespace dynbcast {

namespace {

bool looksLikeOption(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looksLikeOption(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !looksLikeOption(argv[i + 1]) &&
               argv[i + 1][0] != '-') {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";  // bare flag
    }
  }
}

std::optional<std::string> Options::get(const std::string& key) const {
  asked_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Options::getString(const std::string& key,
                               const std::string& fallback) const {
  const auto v = get(key);
  return v ? *v : fallback;
}

std::int64_t Options::getInt(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  if (const auto value = parseWhole<std::int64_t>(*v)) return *value;
  throw std::invalid_argument("--" + key + " expects a whole number, got '" +
                              *v + "'");
}

std::uint64_t Options::getUInt(const std::string& key,
                               std::uint64_t fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  if (const auto value = parseWhole<std::uint64_t>(*v)) return *value;
  throw std::invalid_argument("--" + key +
                              " expects an unsigned whole number, got '" + *v +
                              "'");
}

double Options::getDouble(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  if (const auto value = parseWhole<double>(*v)) return *value;
  throw std::invalid_argument("--" + key + " expects a number, got '" + *v +
                              "'");
}

bool Options::getBool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "no") return false;
  throw std::invalid_argument("bad boolean for --" + key + ": " + *v);
}

bool Options::has(const std::string& key) const {
  asked_.insert(key);
  return values_.count(key) != 0;
}

void Options::rejectUnread() const {
  for (const auto& [key, value] : values_) {
    if (asked_.count(key) != 0) continue;
    std::string message = "unknown option '--" + key + "'";
    const std::string suggestion = closestMatch(
        key, std::vector<std::string>(asked_.begin(), asked_.end()));
    if (!suggestion.empty()) {
      message += "; did you mean '--" + suggestion + "'?";
    }
    throw std::invalid_argument(message);
  }
}

int guardedMain(int argc, const char* const* argv,
                int (*body)(int argc, const char* const* argv)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    const std::string program =
        argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "";
    std::cerr << program << ": " << e.what() << '\n';
    return 2;
  }
}

std::vector<std::size_t> parseSizeList(const std::string& spec) {
  // Each token must be a whole number >= 1 with nothing after it: "8x"
  // or "8,,16" fails loudly instead of running a different sweep.
  const auto number = [&spec](std::string_view token) {
    const auto value = parseWhole<std::size_t>(token);
    if (!value || *value == 0) {
      throw std::invalid_argument(
          "size list '" + spec + "': '" + std::string(token) +
          "' is not a whole number from 1 to " +
          std::to_string(std::numeric_limits<std::size_t>::max()));
    }
    return *value;
  };
  const std::string_view text = spec;
  std::vector<std::size_t> out;
  if (text.empty()) return out;
  const auto c1 = text.find(':');
  if (c1 != std::string_view::npos) {
    // lo:hi[:step] — a multiplicative step, default 2.
    const auto c2 = text.find(':', c1 + 1);
    const std::size_t lo = number(text.substr(0, c1));
    const std::size_t hi = number(text.substr(c1 + 1, c2 - c1 - 1));
    const std::size_t step =
        c2 == std::string_view::npos ? 2 : number(text.substr(c2 + 1));
    if (step < 2) {
      throw std::invalid_argument("size list '" + spec +
                                  "': step must be >= 2");
    }
    if (lo > hi) {
      throw std::invalid_argument("size list '" + spec +
                                  "': lo must not exceed hi");
    }
    // v <= hi / step guarantees v * step <= hi, so it never wraps.
    for (std::size_t v = lo;; v *= step) {
      out.push_back(v);
      if (v > hi / step) break;
    }
    return out;
  }
  for (std::size_t pos = 0; pos <= text.size();) {
    const auto comma = std::min(text.find(',', pos), text.size());
    out.push_back(number(text.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace dynbcast
