// The benchmark's workloads. Each one generates every input from the seed,
// runs for the requested host seconds, checks its outputs, and fills the
// Report with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#pragma once

#include "report.hpp"

#include <cstdint>
#include <string>

namespace pcmdbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the Chrome trace and the full result document.
  std::string out_dir = ".";
  // Shrinks every workload to a few steps or jobs (the harness's own tests).
  bool tiny = false;
  // Corrupts one checked output on purpose, to show it reaches error_rate.
  bool fabricate_error = false;
};

void run_fig5_seq(const Options& options, Report& report);
void run_paper36_heal(const Options& options, Report& report);
void run_serve_mixed(const Options& options, Report& report);

}  // namespace pcmdbench
