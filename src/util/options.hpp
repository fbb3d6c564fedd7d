// Tiny command-line option parser shared by examples and bench harnesses.
// Supports `--key=value`, `--key value`, and boolean `--flag` forms.
// get_int/get_double throw std::invalid_argument naming the flag when the
// value is not one whole number ("ten", "3x", "", out of range).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cgraph {

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

}  // namespace cgraph
