// Ablation A1: domain shape (plane / square pillar / cube).
//
// Quantifies the paper's Section 2.2 argument (ref [8]) that the square
// pillar is the right shape for mid-size MD on mid-size machines: the plane
// has only 2 neighbours but a huge halo volume; the cube minimises volume
// but needs 26 neighbour messages; the pillar sits in between. The winner
// depends on the machine's latency/bandwidth balance, shown for the T3E-like
// model and a commodity-cluster model.
//
//   ./ablation_domain_shapes [--cells 48]

#include "ddm/comm_volume.hpp"
#include "run/run_spec.hpp"
#include "sim/cost_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>

using namespace pcmd;

namespace {

std::optional<ddm::CommProfile> try_profile(ddm::DomainShape shape, int cells,
                                            int pe) {
  try {
    return ddm::comm_profile(shape, cells, pe);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace

namespace {

constexpr run::Usage kUsage{
    .program = "ablation_domain_shapes",
    .synopsis = "[--cells K]"};

int run_main(const Cli& cli) {
  const int cells = static_cast<int>(cli.get_int("cells", 48));
  run::require_known_flags(cli, kUsage);

  std::printf("== Ablation A1: domain shapes at K = %d cells/axis "
              "(C = %d) ==\n\n",
              cells, cells * cells * cells);

  const auto t3e = sim::MachineModel::t3e();
  const auto beowulf = sim::MachineModel::beowulf();
  // Halo payload: ~4 particles per cell (rho* = 0.256), 32-byte records.
  const double bytes_per_cell = 4.0 * 32.0;

  Table table({"PEs", "shape", "nbrs", "halo cells", "surface",
               "T3E comm [ms]", "cluster comm [ms]"});
  for (const int pe : {4, 8, 16, 27, 36, 64, 144, 216}) {
    for (const auto shape :
         {ddm::DomainShape::kPlane, ddm::DomainShape::kSquarePillar,
          ddm::DomainShape::kCube}) {
      const auto profile = try_profile(shape, cells, pe);
      if (!profile) continue;
      const double t3e_ms =
          1e3 * profile->comm_seconds(t3e.msg_latency,
                                      bytes_per_cell / t3e.bandwidth);
      const double bw_ms =
          1e3 * profile->comm_seconds(beowulf.msg_latency,
                                      bytes_per_cell / beowulf.bandwidth);
      table.add_row({std::to_string(pe), ddm::to_string(shape),
                     std::to_string(profile->neighbor_count),
                     Table::num(profile->halo_cells, 5),
                     Table::num(profile->surface_ratio, 3),
                     Table::num(t3e_ms, 3), Table::num(bw_ms, 3)});
    }
  }
  table.print(std::cout);

  std::puts("\nreading: the plane's halo volume does not shrink with P, so "
            "it loses at mid/large P; the cube wins on volume only once its "
            "26 messages are amortised (large P, low-latency network); the "
            "square pillar is the mid-size sweet spot — and its 2-D torus "
            "with 8 fixed neighbours is what makes permanent-cell DLB "
            "tractable (the paper's motivation).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run::guarded_main(argc, argv, kUsage, run_main);
}
