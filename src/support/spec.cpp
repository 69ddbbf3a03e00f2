#include "src/support/spec.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/support/parse_number.h"

namespace dynbcast {

namespace {

[[nodiscard]] std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Optimal-string-alignment distance: insertions, deletions,
/// substitutions and adjacent transpositions each cost 1, so the most
/// common typo ("sedes" for "seeds") is one edit away, not two.
[[nodiscard]] std::size_t editDistance(const std::string& a,
                                       const std::string& b) {
  const std::size_t cols = b.size() + 1;
  std::vector<std::size_t> d((a.size() + 1) * cols);
  const auto at = [&](std::size_t i, std::size_t j) -> std::size_t& {
    return d[i * cols + j];
  };
  for (std::size_t i = 0; i <= a.size(); ++i) at(i, 0) = i;
  for (std::size_t j = 0; j <= b.size(); ++j) at(0, j) = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j) {
      at(i, j) = std::min({at(i - 1, j) + 1, at(i, j - 1) + 1,
                           at(i - 1, j - 1) + (a[i - 1] == b[j - 1] ? 0 : 1)});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        at(i, j) = std::min(at(i, j), at(i - 2, j - 2) + 1);
      }
    }
  }
  return at(a.size(), b.size());
}

}  // namespace

bool isValidSpecToken(const std::string& token) {
  if (token.empty()) return false;
  return std::all_of(token.begin(), token.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
  });
}

std::string closestMatch(const std::string& word,
                         const std::vector<std::string>& pool) {
  std::string best;
  std::size_t bestDistance = 4;  // suggest only within distance 3
  for (const std::string& candidate : pool) {
    const std::size_t d = editDistance(word, candidate);
    if (d < bestDistance) {
      bestDistance = d;
      best = candidate;
    }
  }
  return best;
}

std::string SpecParams::errorLabel() const {
  return kind_.empty() ? "parameter" : kind_ + " parameter";
}

std::uint64_t SpecParams::getUInt(const std::string& key,
                                  std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (const auto value = parseWhole<std::uint64_t>(it->second)) return *value;
  throw std::invalid_argument(errorLabel() + " '" + key +
                              "' expects an unsigned integer, got '" +
                              it->second + "'");
}

double SpecParams::getDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument(errorLabel() + " '" + key +
                                "' expects a number, got '" + it->second +
                                "'");
  }
}

bool SpecParams::getBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "1" || it->second == "true" || it->second == "yes") {
    return true;
  }
  if (it->second == "0" || it->second == "false" || it->second == "no") {
    return false;
  }
  throw std::invalid_argument(errorLabel() + " '" + key +
                              "' expects a boolean (1/0/true/false), got '" +
                              it->second + "'");
}

std::string SpecParams::getString(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

ParsedSpec parseSpec(const std::string& text, const std::string& kind) {
  const std::string trimmed = trim(text);
  ParsedSpec spec;
  const std::size_t colon = trimmed.find(':');
  spec.name = trim(trimmed.substr(0, colon));
  if (!isValidSpecToken(spec.name)) {
    throw std::invalid_argument(kind + " spec '" + text +
                                "': missing or malformed " + kind + " name");
  }
  if (colon == std::string::npos) return spec;

  const std::string paramText = trimmed.substr(colon + 1);
  if (trim(paramText).empty()) {
    throw std::invalid_argument(kind + " spec '" + text +
                                "': expected key=value parameters after ':'");
  }
  std::map<std::string, std::string> values;
  std::size_t start = 0;
  while (start <= paramText.size()) {
    std::size_t comma = paramText.find(',', start);
    if (comma == std::string::npos) comma = paramText.size();
    const std::string param = trim(paramText.substr(start, comma - start));
    start = comma + 1;
    const std::size_t eq = param.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(kind + " spec '" + text +
                                  "': expected key=value, got '" + param +
                                  "'");
    }
    const std::string key = trim(param.substr(0, eq));
    const std::string value = trim(param.substr(eq + 1));
    if (!isValidSpecToken(key) || value.empty()) {
      throw std::invalid_argument(kind + " spec '" + text +
                                  "': malformed parameter '" + param + "'");
    }
    if (!values.emplace(key, value).second) {
      throw std::invalid_argument(kind + " spec '" + text +
                                  "': duplicate parameter '" + key + "'");
    }
  }
  spec.params = SpecParams(std::move(values), kind);
  return spec;
}

std::string formatSpec(const std::string& name, const SpecParams& params) {
  std::string out = name;
  char sep = ':';
  for (const auto& [key, value] : params.values()) {
    out += sep;
    out += key;
    out += '=';
    out += value;
    sep = ',';
  }
  return out;
}

}  // namespace dynbcast
