// run::run_trajectory, the one driver of a paper-system run: its rows carry
// every per-step field ParallelMd reports, it sizes the machine for healing
// spares, rejects an invalid spec before sizing anything, and writes its
// trace as PATH.json + PATH.csv.
#include "run/trajectory.hpp"

#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace pcmd::run {
namespace {

RunSpec small_spec() {
  RunSpec spec;
  spec.system.pe_count = 9;
  spec.system.m = 2;
  spec.system.density = 0.256;
  spec.system.seed = 5;
  spec.steps = 20;
  spec.dlb_enabled = true;
  return spec;
}

TEST(RunMdTrajectory, SmallSmoke) {
  const auto result = run_trajectory(small_spec());
  EXPECT_EQ(result.rows.size(), 20u);
  EXPECT_EQ(result.concentration.size(), 20u);
  EXPECT_EQ(result.total_cells, 216);
  EXPECT_GT(result.particles, 800);
  for (const auto& row : result.rows) {
    EXPECT_GE(row.force_max, row.force_min);
    EXPECT_GT(row.t_step, 0.0);
  }
}

TEST(RunMdTrajectory, DlbOverheadBoundedOnBalancedGas) {
  // Over a short horizon the supercooled gas is still near-uniform, so DLB
  // can only add overhead (messages plus one-column granularity churn — the
  // paper's Fig. 5(b) likewise shows DLB-DDM slightly above DDM while the
  // load is balanced, m = 2 being its weakest case). The overhead must stay
  // bounded; the long-horizon win is exercised by bench/fig5 and the
  // concentrated-load tests.
  RunSpec base = small_spec();
  base.system.density = 0.384;
  base.system.seed = 9;
  base.steps = 120;

  const auto a = run_trajectory(RunSpec(base).with_dlb(true));
  const auto b = run_trajectory(RunSpec(base).with_dlb(false));
  double sum_a = 0.0, sum_b = 0.0;
  for (std::size_t i = 100; i < 120; ++i) {
    sum_a += a.rows[i].t_step;
    sum_b += b.rows[i].t_step;
  }
  EXPECT_LE(sum_a, sum_b * 1.35);
}

TEST(RunMdTrajectory, SizesTheEngineForHealingSpares) {
  // The engine gets pe_count + spares ranks, so a crashed role fails over
  // onto the spare and the run completes.
  RunSpec spec = small_spec();
  spec.system.density = 0.2;
  spec.steps = 15;
  spec.fault_tolerance.healing.enabled = true;
  spec.fault_tolerance.healing.buddy_every = 5;
  spec.fault_tolerance.healing.spares = 1;
  spec.faults = sim::FaultPlan::parse("crash=4@0.05");
  const auto result = run_trajectory(spec);
  EXPECT_EQ(result.rows.size(), 15u);
  std::uint64_t failovers = 0;
  for (const auto& row : result.rows) failovers += row.failovers;
  EXPECT_EQ(failovers, 1u);
  EXPECT_EQ(result.recovery.failovers, 1u);
  EXPECT_EQ(result.machine.ranks, 10);
}

// Every field of ddm::ParallelStepStats that has a StepMetrics column must
// reach the driver's rows unchanged: the driver's rows are compared with the
// stats of the same run stepped by hand. The spec drives every such field
// off zero somewhere — a degraded PE for the balancer (transfers,
// imbalance, cells_moved), message drops for the reliable channel, and a
// crash with buddy checkpoints for the recovery counters.
TEST(RunTrajectory, RowsCarryEveryReportedStatsField) {
  RunSpec spec = small_spec();
  spec.system.m = 4;
  spec.steps = 30;
  spec.faults = sim::FaultPlan::parse("seed=3,drop=0.05,crash=4@0.3");
  spec.fault_tolerance.reliable = true;
  spec.fault_tolerance.healing.enabled = true;
  spec.fault_tolerance.healing.buddy_every = 2;
  spec.fault_tolerance.healing.spares = 1;
  spec.degrade = DegradeSpec{.rank = 1, .at = 0.0, .factor = 6.0};
  const auto run = run_trajectory(spec);

  Rng rng(spec.system.seed);
  const auto initial = workload::make_paper_system(spec.system, rng);
  sim::FaultInjector injector(spec.fault_plan());
  const auto config = spec.parallel_config();
  sim::SeqEngine engine(ddm::engine_rank_count(config), spec.machine);
  engine.set_fault_injector(&injector);
  ddm::ParallelMd md(ddm::EngineConfig{.engine = &engine,
                                       .box = spec.system.box(),
                                       .initial = &initial},
                     config);

  ASSERT_EQ(run.rows.size(), 30u);
  obs::StepMetrics sums;
  for (const auto& row : run.rows) {
    const auto stats = md.step();
    EXPECT_EQ(row.step, stats.step);
    EXPECT_EQ(row.t_step, stats.t_step);
    EXPECT_EQ(row.force_max, stats.force_max);
    EXPECT_EQ(row.force_avg, stats.force_avg);
    EXPECT_EQ(row.force_min, stats.force_min);
    EXPECT_EQ(row.transfers, stats.transfers);
    EXPECT_EQ(row.potential_energy, stats.potential_energy);
    EXPECT_EQ(row.kinetic_energy, stats.kinetic_energy);
    EXPECT_EQ(row.temperature, stats.temperature);
    EXPECT_EQ(row.retransmissions, stats.retransmissions);
    EXPECT_EQ(row.checkpoint_bytes, stats.checkpoint_bytes);
    EXPECT_EQ(row.rollbacks, stats.rollbacks);
    EXPECT_EQ(row.failovers, stats.failovers);
    EXPECT_EQ(row.particles_recovered, stats.particles_recovered);
    EXPECT_EQ(row.imbalance, stats.imbalance);
    EXPECT_EQ(row.cells_moved, stats.cells_moved);
    sums.transfers += row.transfers;
    sums.imbalance += row.imbalance;
    sums.cells_moved += row.cells_moved;
    sums.retransmissions += row.retransmissions;
    sums.checkpoint_bytes += row.checkpoint_bytes;
    sums.rollbacks += row.rollbacks;
    sums.failovers += row.failovers;
    sums.particles_recovered += row.particles_recovered;
    sums.faults_dropped += row.faults_dropped;
  }
  EXPECT_GT(sums.transfers, 0);
  EXPECT_GT(sums.imbalance, 0.0);
  EXPECT_GT(sums.cells_moved, 0);
  EXPECT_GT(sums.retransmissions, 0u);
  EXPECT_GT(sums.checkpoint_bytes, 0u);
  EXPECT_GT(sums.rollbacks, 0u);
  EXPECT_GT(sums.failovers, 0u);
  EXPECT_GT(sums.particles_recovered, 0u);
  EXPECT_GT(sums.faults_dropped, 0u);
}

TEST(RunTrajectory, TraceIsWrittenAsPathJsonAndPathCsv) {
  const auto dir =
      std::filesystem::temp_directory_path() / "pcmd_trajectory_trace";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = (dir / "run").string();
  const auto run =
      run_trajectory(RunSpec(small_spec()).with_steps(3).with_trace(base));

  EXPECT_TRUE(std::filesystem::exists(base + ".json"));
  EXPECT_FALSE(std::filesystem::exists(base + ".json.csv"));
  std::ifstream csv(base + ".csv");
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, obs::csv_header());
  int rows = 0;
  while (std::getline(csv, line)) ++rows;
  EXPECT_EQ(rows, static_cast<int>(run.rows.size()));
  std::filesystem::remove_all(dir);
}

TEST(RunTrajectory, InvalidSpecIsATypedErrorBeforeAnyWork) {
  EXPECT_THROW(run_trajectory(RunSpec(small_spec()).with_steps(0)),
               SpecError);
  EXPECT_THROW(run_trajectory(RunSpec(small_spec()).with_m(1)), SpecError);
  EXPECT_THROW(run_trajectory(RunSpec(small_spec()).with_density(1e9)),
               SpecError);
}

}  // namespace
}  // namespace pcmd::run
