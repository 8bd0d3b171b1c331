// Golden regression battery: a short, fully deterministic ParallelMd run
// (DLB on, fixed seed) checked against committed golden values for the
// physics (total energy), the virtual-machine makespan, and the load-balance
// spread. The run is bitwise reproducible on both engines (see the engine
// parity suite), so any drift here means an intentional behaviour change —
// regenerate the goldens by running with --gtest_filter='*PrintActuals*'
// after convincing yourself the change is correct.
#include "obs/metrics.hpp"
#include "run/trajectory.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace pcmd::run {
namespace {

RunSpec golden_config() {
  RunSpec config;
  config.system.pe_count = 9;
  config.system.m = 2;
  config.system.density = 0.384;
  config.system.seed = 7;
  config.steps = 60;
  config.dlb_enabled = true;
  return config;
}

struct GoldenSummary {
  double final_total_energy = 0.0;  // PE + KE after the last step
  double makespan = 0.0;            // sum of per-step Tt (virtual seconds)
  double mean_spread = 0.0;         // mean of Fmax - Fmin over all steps
};

GoldenSummary summarize(const TrajectoryResult& result) {
  GoldenSummary s;
  const auto& last = result.rows.back();
  s.final_total_energy = last.potential_energy + last.kinetic_energy;
  for (const auto& row : result.rows) {
    s.makespan += row.t_step;
    s.mean_spread += row.force_max - row.force_min;
  }
  s.mean_spread /= static_cast<double>(result.rows.size());
  return s;
}

// Committed goldens for golden_config() (9 PEs, m=2, rho*=0.384, seed 7,
// 60 steps, DLB on). Tolerance is relative 1e-6: the run itself is
// deterministic, the slack only absorbs benign compiler/libm variation.
// The makespan includes wire framing: the 8-byte checksum header on every
// ddm message is part of the modelled transfer cost.
constexpr double kGoldenTotalEnergy = -1549.2539981889756;
constexpr double kGoldenMakespan = 2.4124106266666625;
constexpr double kGoldenMeanSpread = 0.0071342249999999958;
constexpr double kRelTol = 1.0e-6;

void expect_near_rel(double actual, double golden, const char* what) {
  EXPECT_NEAR(actual, golden, std::abs(golden) * kRelTol) << what;
}

TEST(GoldenMd, SummaryMatchesCommittedGoldens) {
  const auto result = run_trajectory(golden_config());
  ASSERT_EQ(result.rows.size(), 60u);
  const auto s = summarize(result);
  expect_near_rel(s.final_total_energy, kGoldenTotalEnergy, "total energy");
  expect_near_rel(s.makespan, kGoldenMakespan, "makespan");
  expect_near_rel(s.mean_spread, kGoldenMeanSpread, "Fmax-Fmin spread");
}

TEST(GoldenMd, MetricsRowsMirrorAdHocSeries) {
  // The CSV rows and the concentration series (the one per-step column kept
  // outside them) cover the same steps, 1-based, with live engine counters.
  const auto result = run_trajectory(golden_config());
  ASSERT_EQ(result.rows.size(), result.concentration.size());
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const auto& row = result.rows[i];
    EXPECT_EQ(row.step, static_cast<std::int64_t>(i) + 1);  // 1-based steps
    EXPECT_EQ(row.step, result.concentration[i].step);
    EXPECT_GE(row.force_max, row.force_min);
    EXPECT_GT(row.messages, 0u);
    EXPECT_GT(row.bytes, 0u);
    EXPECT_GE(row.wait_seconds, 0.0);
    EXPECT_GE(row.collective_seconds, 0.0);
    EXPECT_GT(row.temperature, 0.0);
  }
}

TEST(GoldenMd, RunIsBitwiseReproducible) {
  const auto a = run_trajectory(golden_config());
  const auto b = run_trajectory(golden_config());
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].t_step, b.rows[i].t_step) << "step " << i;
    EXPECT_EQ(a.rows[i].potential_energy, b.rows[i].potential_energy);
    EXPECT_EQ(a.rows[i].wait_seconds, b.rows[i].wait_seconds);
    EXPECT_EQ(a.rows[i].messages, b.rows[i].messages);
    EXPECT_EQ(a.rows[i].bytes, b.rows[i].bytes);
  }
}

// Disabled by default: prints the actual summary values in golden-constant
// form. Run with --gtest_also_run_disabled_tests (or filter *PrintActuals*)
// to regenerate the constants above after an intentional change.
TEST(GoldenMd, DISABLED_PrintActuals) {
  const auto s = summarize(run_trajectory(golden_config()));
  std::printf("constexpr double kGoldenTotalEnergy = %.17g;\n",
              s.final_total_energy);
  std::printf("constexpr double kGoldenMakespan = %.17g;\n", s.makespan);
  std::printf("constexpr double kGoldenMeanSpread = %.17g;\n", s.mean_spread);
}

}  // namespace
}  // namespace pcmd::run
