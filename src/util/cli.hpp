// Tiny command-line flag parser for the examples and bench harnesses.
// Supports --name=value, --name value, and boolean --name.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pcmd {

class Cli {
 public:
  // Parses argv; unknown flags are kept and reported by unqueried_flags() so
  // harnesses can reject typos. No program takes positional arguments: a
  // token that is neither a flag nor a flag's value throws
  // std::invalid_argument naming it.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  // nullopt when the flag is absent — for flags like --trace whose mere
  // presence changes behaviour and whose value has no usable default.
  std::optional<std::string> get_optional(const std::string& name) const;
  // Numeric flags are parsed strictly: the whole token must be a valid
  // number ("--steps=10x" or "--dt=fast" is an error, not silently 10 or
  // 0.0). Malformed values throw std::invalid_argument naming the flag, the
  // offending token, and the accepted grammar.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  // Accepts true/false, 1/0, yes/no, on/off; a bare "--flag" reads as true,
  // any other token is an error.
  bool get_bool(const std::string& name, bool fallback) const;

  // Flags seen on the command line that were never queried. Call after all
  // get()/has() calls; useful to error out on typos.
  std::vector<std::string> unqueried_flags() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace pcmd
