#include "run/trajectory.hpp"

#include "obs/session.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

#include <optional>
#include <utility>

namespace pcmd::run {

namespace {

// The reduced fields of a step; MetricsRecorder::record adds the engine's.
obs::StepMetrics step_row(const ddm::ParallelStepStats& stats) {
  obs::StepMetrics row;
  row.step = stats.step;
  row.t_step = stats.t_step;
  row.force_max = stats.force_max;
  row.force_avg = stats.force_avg;
  row.force_min = stats.force_min;
  row.transfers = stats.transfers;
  row.potential_energy = stats.potential_energy;
  row.kinetic_energy = stats.kinetic_energy;
  row.temperature = stats.temperature;
  row.retransmissions = stats.retransmissions;
  row.checkpoint_bytes = stats.checkpoint_bytes;
  row.rollbacks = stats.rollbacks;
  row.failovers = stats.failovers;
  row.particles_recovered = stats.particles_recovered;
  row.imbalance = stats.imbalance;
  row.cells_moved = stats.cells_moved;
  return row;
}

}  // namespace

TrajectoryResult run_trajectory(const RunSpec& spec) {
  spec.validate();
  Rng rng(spec.system.seed);
  const auto initial = workload::make_paper_system(spec.system, rng);

  std::optional<sim::FaultInjector> injector;
  if (sim::FaultPlan plan = spec.fault_plan(); !plan.empty()) {
    injector.emplace(std::move(plan));
  }
  ddm::ParallelMdConfig config = spec.parallel_config();
  sim::SeqEngine engine(ddm::engine_rank_count(config), spec.machine);
  if (injector) engine.set_fault_injector(&*injector);
  obs::TraceSession session(engine, spec.trace_path.value_or(""));
  config.trace = session.collector();
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine,
                                       .box = spec.system.box(),
                                       .initial = &initial},
                     config);
  // Baseline the counter deltas after the constructor's init step, so row 0
  // covers exactly step 1.
  obs::MetricsRecorder recorder(engine);

  TrajectoryResult result;
  result.particles = static_cast<std::int64_t>(initial.size());
  result.total_cells = md.total_cells();
  result.init_makespan = engine.makespan();
  for (std::int64_t i = 0; i < spec.steps; ++i) {
    const auto stats = md.step();
    result.concentration.push_back(
        theory::estimate_concentration(stats, md.total_cells()));
    recorder.record(step_row(stats));
    if (spec.checkpoint_every > 0 && (i + 1) % spec.checkpoint_every == 0) {
      result.last_checkpoint = md.checkpoint();
      ++result.checkpoints_taken;
    }
  }
  session.finish(recorder.rows());
  result.rows = recorder.rows();
  result.machine = sim::machine_report(engine);
  result.recovery = md.recovery_counters();
  result.membership_epoch = md.membership().epoch();
  return result;
}

}  // namespace pcmd::run
