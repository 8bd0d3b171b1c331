// Machine and build fingerprint stamped on every result: CPU model, online
// core count, compiler, build type and the PCMD_CHECKER / PCMD_CHECKS
// options the libraries were compiled with.
#pragma once

#include <string>

namespace pcmdbench {

struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string pcmd_checker;
  std::string pcmd_checks;

  // Timings from any other build type are not comparable.
  bool release() const { return build_type == "Release"; }
  std::string json() const;
};

Fingerprint machine_fingerprint();

}  // namespace pcmdbench
