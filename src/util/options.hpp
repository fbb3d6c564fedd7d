// Tiny command-line option parser shared by examples and bench harnesses.
// Supports `--key=value`, `--key value`, and boolean `--flag` forms.
// get_int/get_double throw FlagError naming the flag when the value is not
// one whole number ("ten", "3x", "", out of range).
//
// Flags is the one reader a command's main() goes through: it range-checks
// every value and rejects flags the command does not take, all before the
// command does any work. A main catches FlagError once, prints it on one
// stderr line and exits 2.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace cgraph {

/// A flag the operator got wrong (unknown, missing, not a number, out of
/// range); what() is the one-line reason.
struct FlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class Options {
 public:
  Options(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  /// Every flag given, in sorted order.
  [[nodiscard]] std::vector<std::string> keys() const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def = "") const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  /// Non-option positional arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

/// One command's flags. Every read marks the flag as one the command
/// takes and range-checks its value; done() then rejects any flag nobody
/// read, so a typo fails before the command loads or runs anything.
class Flags {
 public:
  static constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  explicit Flags(const Options& opts) : opts_(opts) {}

  bool has(const std::string& name);
  std::string str(const std::string& name, const std::string& def = "");
  /// A non-empty string value; throws when the flag is absent or empty.
  std::string required(const std::string& name);
  /// An integer in [lo, hi].
  std::int64_t num(const std::string& name, std::int64_t def,
                   std::int64_t lo = kMin, std::int64_t hi = kMax);
  /// A double in [lo, hi], or in (0, hi] when `positive`.
  double real(const std::string& name, double def, double lo, double hi,
              bool positive = false);
  /// Throw for any given flag no read asked for, or a positional argument.
  void done() const;

 private:
  const Options& opts_;
  std::set<std::string> known_;
};

}  // namespace cgraph
