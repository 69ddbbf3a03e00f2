#include "src/support/options.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>

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
  return std::stoll(*v);
}

std::uint64_t Options::getUInt(const std::string& key,
                               std::uint64_t fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  return std::stoull(*v);
}

double Options::getDouble(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  return std::stod(*v);
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

void Options::rejectUnreadOrExit() const {
  try {
    rejectUnread();
  } catch (const std::invalid_argument& e) {
    std::cerr << std::filesystem::path(program_).filename().string() << ": "
              << e.what() << '\n';
    std::exit(2);
  }
}

std::vector<std::size_t> parseSizeList(const std::string& spec) {
  std::vector<std::size_t> out;
  if (spec.empty()) return out;
  if (spec.find(':') != std::string::npos) {
    // lo:hi:step (multiplicative step, default 2)
    std::size_t lo = 0, hi = 0, step = 2;
    const auto c1 = spec.find(':');
    const auto c2 = spec.find(':', c1 + 1);
    lo = std::stoull(spec.substr(0, c1));
    if (c2 == std::string::npos) {
      hi = std::stoull(spec.substr(c1 + 1));
    } else {
      hi = std::stoull(spec.substr(c1 + 1, c2 - c1 - 1));
      step = std::stoull(spec.substr(c2 + 1));
    }
    if (step < 2) throw std::invalid_argument("step must be >= 2");
    for (std::size_t v = lo; v <= hi; v *= step) out.push_back(v);
    return out;
  }
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const auto comma = spec.find(',', pos);
    const auto end = comma == std::string::npos ? spec.size() : comma;
    out.push_back(std::stoull(spec.substr(pos, end - pos)));
    pos = end + 1;
  }
  return out;
}

}  // namespace dynbcast
