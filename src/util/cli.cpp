#include "util/cli.hpp"

#include <algorithm>
#include <charconv>

#include "util/error.hpp"

namespace marlin {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

bool CliArgs::has(const std::string& name) const {
  return flags_.contains(name);
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// All of `text` as a T, else an Error naming `--name`: empty, trailing
/// junk and out of range are all rejected.
template <typename T>
T parse_whole(const std::string& name, const std::string& text,
              const char* kind) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) {
    throw Error("--" + name + " expects " + kind + ", got '" + text + "'");
  }
  return value;
}

}  // namespace

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole<std::int64_t>(name, it->second, "a 64-bit integer");
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_whole<double>(name, it->second, "a double-precision number");
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace marlin
