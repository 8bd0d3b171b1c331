// Figure 6 reproduction: per-step execution time Tt and the force
// computation times Fmax / Fave / Fmin across PEs, for DDM (a) and DLB-DDM
// (b) at m = 4.
//
// Paper observations to reproduce in shape:
//   * Tt tracks Fmax (PEs synchronise every step);
//   * under DDM the gap Fmax - Fmin widens steadily as the gas condenses;
//   * under DLB-DDM the gap stays small until the concentration exceeds the
//     DLB limit, after which it starts to grow too.
//
//   ./fig6_force_breakdown [--steps 1500] [--interval 125]
//                          [--density 0.384] [--seed 1] [--full]
//                          [--trace out/fig6]
//                          [--faults seed=7,drop=0.05] [--checkpoint-every N]
// (default density 0.384 > paper's 0.256 so condensation develops within
//  the scaled step budget; --full restores paper conditions)
//
// --faults PLAN injects deterministic message faults and routes traffic
// through the reliable channel (physics unchanged; retry counters land in
// the CSV). --checkpoint-every N serializes a checkpoint every N steps.
//
// All numbers come from the per-step metrics stream (obs::StepMetrics), the
// same rows --trace writes as PATH.ddm.csv / PATH.dlb.csv; the Chrome
// trace-event JSONs next to them open in Perfetto.

#include "obs/metrics.hpp"
#include "run/run_spec.hpp"
#include "run/trajectory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cstdio>
#include <iostream>

using namespace pcmd;

namespace {

void print_breakdown(const char* title,
                     const std::vector<obs::StepMetrics>& rows, int interval) {
  std::printf("%s\n", title);
  Table table({"steps", "Tt [s]", "Fmax [s]", "Fave [s]", "Fmin [s]",
               "(Fmax-Fmin)/Fave"});
  const int steps = static_cast<int>(rows.size());
  for (int hi = interval; hi <= steps; hi += interval) {
    double tt = 0, fmax = 0, fave = 0, fmin = 0;
    for (int i = hi - interval; i < hi; ++i) {
      tt += rows[i].t_step;
      fmax += rows[i].force_max;
      fave += rows[i].force_avg;
      fmin += rows[i].force_min;
    }
    const double inv = 1.0 / interval;
    tt *= inv;
    fmax *= inv;
    fave *= inv;
    fmin *= inv;
    table.add_row({std::to_string(hi), Table::num(tt, 4), Table::num(fmax, 4),
                   Table::num(fave, 4), Table::num(fmin, 4),
                   Table::num(fave > 0 ? (fmax - fmin) / fave : 0.0, 3)});
  }
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace

namespace {

constexpr run::Usage kUsage{
    .program = "fig6_force_breakdown",
    .synopsis = "[--full] [--interval N]",
    .run_flags = true};

int run_main(const Cli& cli) {
  const bool full = cli.get_bool("full", false);
  run::RunSpec defaults;
  defaults.system.pe_count = full ? 36 : 9;
  defaults.system.m = 4;
  defaults.system.density = full ? 0.256 : 0.384;
  defaults.system.seed = 1;
  defaults.steps = full ? 10000 : 1500;
  const auto spec = run::parse_run_spec(cli, defaults);
  const int steps = static_cast<int>(spec.steps);
  const int interval =
      static_cast<int>(cli.get_int("interval", std::max(1, steps / 12)));
  if (interval < 1) throw run::SpecError("--interval: must be >= 1");
  run::require_known_flags(cli, kUsage);

  std::printf("== Figure 6: Tt and Fmax/Fave/Fmin, m = 4, %d virtual PEs "
              "(T3E cost model) ==\n\n",
              spec.system.pe_count);

  const auto run_one = [&](const char* label, bool dlb) {
    run::RunSpec one = run::RunSpec(spec).with_dlb(dlb);
    if (spec.trace_path) one.with_trace(*spec.trace_path + "." + label);
    return run::run_trajectory(one);
  };
  const auto ddm = run_one("ddm", false);
  print_breakdown("(a) DDM — the Fmax/Fmin gap widens with condensation",
                  ddm.rows, interval);
  const auto dlb = run_one("dlb", true);
  print_breakdown("(b) DLB-DDM — the gap stays small inside the DLB limit",
                  dlb.rows, interval);

  if (!spec.fault_plan().empty()) {
    const auto retransmissions = [](const run::TrajectoryResult& run) {
      unsigned long long sum = 0;
      for (const auto& row : run.rows) sum += row.retransmissions;
      return sum;
    };
    std::printf("fault tolerance: DDM %llu retransmissions, DLB-DDM %llu "
                "retransmissions (all masked; energies identical to a "
                "fault-free run)\n",
                retransmissions(ddm), retransmissions(dlb));
  }
  if (spec.checkpoint_every > 0) {
    std::printf("checkpoints: %d taken per run, last %zu bytes\n",
                dlb.checkpoints_taken, dlb.last_checkpoint.size());
  }

  std::puts("paper shape: Tt follows Fmax in both; DLB-DDM holds "
            "Fmax ~ Fave ~ Fmin until concentration exceeds the DLB limit.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run::guarded_main(argc, argv, kUsage, run_main);
}
