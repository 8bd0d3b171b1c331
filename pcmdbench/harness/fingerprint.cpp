#include "fingerprint.hpp"

#include "report.hpp"

#include <fstream>
#include <string>
#include <thread>

namespace pcmdbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string Fingerprint::json() const {
  return "{\"cpu_model\": " + json_string(cpu_model) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"compiler\": " + json_string(compiler) +
         ", \"build_type\": " + json_string(build_type) +
         ", \"release\": " + (release() ? "true" : "false") +
         ", \"PCMD_CHECKER\": " + json_string(pcmd_checker) +
         ", \"PCMD_CHECKS\": " + json_string(pcmd_checks) + "}";
}

Fingerprint machine_fingerprint() {
  Fingerprint f;
  f.cpu_model = cpu_model();
  f.nproc = std::thread::hardware_concurrency();
  f.compiler = PCMDBENCH_COMPILER;
  f.build_type = PCMDBENCH_BUILD_TYPE;
  f.pcmd_checker = PCMDBENCH_CHECKER;
  f.pcmd_checks = PCMDBENCH_CHECKS;
  return f;
}

}  // namespace pcmdbench
