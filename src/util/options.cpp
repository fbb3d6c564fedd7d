#include "util/options.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace cgraph {

Options::Options(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        kv_[arg] = argv[++i];
      } else {
        kv_[arg] = "true";
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [key, value] : kv_) out.push_back(key);
  return out;
}

std::string Options::get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

namespace {

/// Parse all of `text` with `parse` (a strtoll/strtod shape). An empty
/// value, leading blanks, trailing junk, overflow or a non-finite double
/// throws, naming the flag.
template <typename T, typename Parse>
T parse_whole(const std::string& key, const std::string& text, Parse parse) {
  errno = 0;
  char* end = nullptr;
  const T value = parse(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(static_cast<double>(value))) {
    throw std::invalid_argument("--" + key + " wants a number, got '" +
                                text + "'");
  }
  return value;
}

}  // namespace

std::int64_t Options::get_int(const std::string& key, std::int64_t def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return parse_whole<std::int64_t>(key, it->second, [](const char* s,
                                                       char** end) {
    return std::strtoll(s, end, 10);
  });
}

double Options::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return parse_whole<double>(key, it->second, [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

bool Options::get_bool(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace cgraph
