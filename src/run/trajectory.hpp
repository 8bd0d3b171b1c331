// The one driver of a paper-system run (Fig. 5/6/9, Fig. 10 --full-md, the
// scaling study): RunSpec in, one obs::StepMetrics row per step out.
//
//   const auto run = run::run_trajectory(spec);
//   for (const obs::StepMetrics& row : run.rows) ...  // Tt, Fmax/Fave/Fmin
//
// It builds the paper system, a SeqEngine on spec.machine sized by
// ddm::engine_rank_count, the fault injector for spec.fault_plan() (the
// degrade stall included) and ddm::ParallelMd, then steps it spec.steps
// times. With spec.trace_path set it writes PATH.json (Chrome trace) and
// PATH.csv (the rows) through obs::TraceSession.
#pragma once

#include "ddm/recovery.hpp"
#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "sim/message.hpp"
#include "sim/trace.hpp"
#include "theory/concentration.hpp"

#include <cstdint>
#include <vector>

namespace pcmd::run {

struct TrajectoryResult {
  // One row per step, step 1 first: the reduced step statistics plus the
  // engine's per-step counter deltas. Callers sum the rows for run totals.
  std::vector<obs::StepMetrics> rows;
  theory::Trajectory concentration;  // (n, C0/C) per step, paper Fig. 9
  std::int64_t particles = 0;
  int total_cells = 0;
  // checkpoint_every > 0: how many checkpoints were taken, and the last.
  int checkpoints_taken = 0;
  sim::Buffer last_checkpoint;
  // The virtual machine after the run, and its makespan before step 1 (the
  // init step's cost), so the stepped time is machine.makespan minus it.
  sim::MachineReport machine;
  double init_makespan = 0.0;
  ddm::RecoveryCounters recovery;
  int membership_epoch = 0;
};

// Validates `spec` (SpecError on a bad value) and runs it.
TrajectoryResult run_trajectory(const RunSpec& spec);

}  // namespace pcmd::run
