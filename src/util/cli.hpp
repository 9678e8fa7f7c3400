#pragma once
// Minimal command-line flag parser for the examples and bench binaries.
// Supports `--name=value`, `--name value`, and bare `--flag` booleans.
// Numeric getters parse the whole value and throw an Error naming the
// flag on empty, malformed or out-of-range input.

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace marlin {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Names of every parsed `--flag`, sorted.
  [[nodiscard]] std::vector<std::string> flag_names() const;

  /// Non-flag positional arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace marlin
