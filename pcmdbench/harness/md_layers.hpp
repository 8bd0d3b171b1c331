// One ParallelMd configuration the harness can run as episodes, and the
// runner shared by the MD workloads and the serve workload's md probe.
#pragma once

#include "report.hpp"
#include "workloads.hpp"

#include "run/run_spec.hpp"

#include <cstdint>

namespace pcmdbench {

struct MdCase {
  const char* name = "";
  pcmd::run::RunSpec spec;      // system, DLB, faults, fault tolerance
  bool threaded = false;        // ThreadEngine, else SeqEngine
  int steps = 100;              // timed steps per episode
  std::uint64_t failovers = 0;  // scheduled failovers per episode
};

// Runs episodes of `c` for options.seconds (at least one) and reports.
// `primary` is false when the case is a probe inside another workload: the
// end-to-end metrics, trace.overhead_ratio and the trace file are then left
// to that workload.
void run_md_case(const MdCase& c, const Options& options, Report& report,
                 bool primary);

}  // namespace pcmdbench
