#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace cca::common {

namespace {

/// Levenshtein distance, for near-miss flag suggestions. Flag names are
/// short (< 20 chars), so the quadratic DP is plenty.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t next = a[i - 1] == b[j - 1]
                                   ? diag
                                   : 1 + std::min({diag, row[j], row[j - 1]});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string suggest_value(const std::string& value,
                          const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = value.size() / 2 + 1;  // typo radius
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(value, candidate);
    if (d < best_distance) {  // ties: first candidate wins
      best = candidate;
      best_distance = d;
    }
  }
  return best;
}

std::string quote_candidates(const std::vector<std::string>& candidates) {
  std::string out;
  for (const std::string& candidate : candidates)
    out += (out.empty() ? "'" : ", '") + candidate + "'";
  return out;
}

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    CCA_CHECK_MSG(arg.rfind("--", 0) == 0,
                  "expected --flag, got '" << arg << "'");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string key = arg.substr(0, eq);
    bare_.erase(key);  // the last occurrence of a flag wins
    if (eq != std::string::npos) {
      values_[key] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "true";  // bare flag == boolean true
      bare_.insert(std::move(key));
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  used_.insert(key);
  return values_.count(key) > 0;
}

std::string CliArgs::get_string(const std::string& key,
                                const std::string& fallback) const {
  used_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::string CliArgs::get_path(const std::string& key) const {
  CCA_CHECK_MSG(bare_.count(key) == 0,
                "flag --" << key << " needs a path (--" << key << "=<path>)");
  return get_string(key, "");
}

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  used_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  // strtoll quietly accepts three things a flag value must not be: an
  // empty string (parses as 0), trailing garbage after the digits
  // ("8x" -> 8 with *end != '\0' — caught below, but lock the order), and
  // out-of-range values (clamped to INT64_MIN/MAX with errno=ERANGE).
  CCA_CHECK_MSG(!text.empty(), "flag --" << key << " has an empty value");
  errno = 0;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(text.c_str(), &end, 10);
  CCA_CHECK_MSG(end == text.c_str() + text.size() && end != text.c_str(),
                "flag --" << key << " is not an integer: " << text);
  CCA_CHECK_MSG(errno != ERANGE,
                "flag --" << key << " is out of range: " << text);
  return v;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  used_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  CCA_CHECK_MSG(!text.empty(), "flag --" << key << " has an empty value");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  CCA_CHECK_MSG(end == text.c_str() + text.size() && end != text.c_str(),
                "flag --" << key << " is not a number: " << text);
  CCA_CHECK_MSG(errno != ERANGE,
                "flag --" << key << " is out of range: " << text);
  // strtod accepts "nan"; no flag in this codebase means anything by it,
  // and a NaN poisons every downstream comparison silently.
  CCA_CHECK_MSG(!std::isnan(v), "flag --" << key << " is NaN: " << text);
  return v;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  used_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  CCA_CHECK_MSG(false, "flag --" << key << " is not a boolean: " << v);
  return fallback;  // unreachable
}

void reject_enum_value(const std::string& flag, const std::string& got,
                       const std::vector<std::string>& accepted) {
  const std::string hint = suggest_value(got, accepted);
  CCA_CHECK_MSG(false, "--" << flag << " must be one of "
                            << quote_candidates(accepted) << ", got '" << got
                            << "'"
                            << (hint.empty()
                                    ? std::string()
                                    : " (did you mean '" + hint + "'?)"));
}

void CliArgs::reject_unused() const {
  if (values_.count("help") > 0) {
    std::string usage = "flags (--key=value or --key value):\n";
    for (const std::string& known : used_) usage += "  --" + known + "\n";
    throw HelpRequested(usage);
  }
  for (const auto& [key, value] : values_) {
    (void)value;
    if (used_.count(key) > 0) continue;
    // Every flag the program fetched so far is a registered flag; the
    // closest one (within a small edit radius) is the likely intent.
    std::string best;
    std::size_t best_distance = key.size() / 2 + 1;  // typo radius
    for (const std::string& known : used_) {
      const std::size_t d = edit_distance(key, known);
      if (d < best_distance) {  // ties: used_ is sorted, first wins
        best = known;
        best_distance = d;
      }
    }
    std::string known_list;
    for (const std::string& known : used_)
      known_list += (known_list.empty() ? "--" : ", --") + known;
    CCA_CHECK_MSG(false, "unknown flag --"
                             << key
                             << (best.empty() ? ""
                                              : " (did you mean --" + best +
                                                    "?)")
                             << "; known flags: " << known_list);
  }
}

}  // namespace cca::common
