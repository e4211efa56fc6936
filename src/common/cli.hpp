// Minimal command-line flag parsing for the bench and example binaries.
//
// Supports `--key=value` and `--key value`; unknown flags are rejected so
// typos fail loudly. Values are fetched typed, with defaults.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace cca::common {

/// Thrown by CliArgs::reject_unused() when --help was passed; what() is
/// the usage text, one line per flag the program read.
class HelpRequested : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CliArgs {
 public:
  /// Parses argv; throws common::Error on malformed input (non-flag
  /// positional arguments, missing value).
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// A path-valued flag: "" when absent. Throws common::Error when the
  /// flag was given bare (`--json` with no value), which would otherwise
  /// read as the boolean "true" and name a file `true`.
  std::string get_path(const std::string& key) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Throws if any parsed flag was never read by one of the getters.
  /// Call after all flags have been fetched to surface typos. When --help
  /// was passed it throws HelpRequested instead, listing every flag read.
  void reject_unused() const;

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> bare_;  // flags given without a value
  mutable std::set<std::string> used_;
};

/// The candidate closest to `value` within a typo-sized edit radius, or ""
/// when nothing is close. For enum-valued flags: lets a bad value fail
/// with the same "did you mean ...?" shape unknown flag names get.
std::string suggest_value(const std::string& value,
                          const std::vector<std::string>& candidates);

/// "'a', 'b', 'c'" — the candidate list as it should appear in a
/// bad-value error message.
std::string quote_candidates(const std::vector<std::string>& candidates);

/// Rejects a bad enum-valued flag with the house error shape:
/// "--<flag> must be one of 'a', 'b', got '<got>' (did you mean 'a'?)".
/// Shared by every bench flag parser so a typo'd value fails identically
/// everywhere. Never returns.
[[noreturn]] void reject_enum_value(const std::string& flag,
                                    const std::string& got,
                                    const std::vector<std::string>& accepted);

}  // namespace cca::common
