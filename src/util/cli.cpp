#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace pcmd {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg +
                                  "' (every option is a --flag)");
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is itself a flag or missing,
    // in which case it is a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::optional<std::string> Cli::get_optional(const std::string& name) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const std::string v = get(name, "");
  if (v.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const std::int64_t value = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": '" + v +
                                "' is not an integer (expected e.g. 42, -7)");
  }
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string v = get(name, "");
  if (v.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": '" + v +
                                "' is not a number (expected e.g. 0.5, 1e-3)");
  }
  return value;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const std::string v = get(name, "");
  if (v.empty()) return fallback;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + name + ": '" + v +
                              "' is not a boolean (expected true/false, 1/0, "
                              "yes/no, on/off)");
}

std::vector<std::string> Cli::unqueried_flags() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

}  // namespace pcmd
