// Per-rank plumbing that ParallelMd and SlabMd share verbatim. What differs
// stays in each engine: ParallelMd's role-to-host translation and death
// detection, and each engine's rule for charging compute time.
#pragma once

#include "ddm/wire.hpp"
#include "md/cell_grid.hpp"
#include "md/lj.hpp"
#include "md/particle.hpp"
#include "md/thermostat.hpp"
#include "sim/comm.hpp"
#include "sim/cost_model.hpp"
#include "sim/reliable.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace pcmd::obs {
class TraceCollector;
}

namespace pcmd::ddm {

// Per-rank state; each engine's Rank adds its decomposition state.
struct RankCore {
  md::ParticleVector owned;
  double last_busy = 0.0;      // previous step's compute seconds
  double busy_accum = 0.0;     // this step's compute seconds so far
  double force_seconds = 0.0;  // last step's force-computation seconds
  // Busy time restored from a checkpoint or buddy envelope; the init step
  // keeps it instead of its own charge.
  double restored_last_busy = 0.0;
  sim::ReliableChannel channel;  // used when fault_tolerance.reliable
  // Scratch reused across the phases of one step:
  md::ParticleVector with_halo;  // owned particles followed by the halo
  md::CellBins bins;
  md::ForceWorkspace workspace;
  std::vector<int> target_cells;         // cells the force sweep covers
  std::vector<HaloRecord> halo_records;  // halo-pack scratch
  // Reduced results stored by the step's last phase:
  std::vector<double> sums, maxes, mins;
};

// Sends over the rank's reliable channel when `reliable`, else plainly.
void send_payload(sim::Comm& comm, RankCore& rank, bool reliable, int host,
                  int tag, sim::Buffer payload);
// Blocking receive matching send_payload.
sim::Buffer recv_payload(sim::Comm& comm, RankCore& rank, bool reliable,
                         int host, int tag);

// Appends a neighbour's halo to rank.with_halo as position-only particles.
void append_halo(RankCore& rank, const std::vector<HaloRecord>& records);

// Bins rank.with_halo, computes forces on rank.target_cells and copies the
// owned particles' forces back to rank.owned. `cost` is the modelled
// seconds; each engine charges it by its own rule.
struct ForceSweep {
  md::ForceResult result;
  double cost = 0.0;
};
ForceSweep sweep_forces(RankCore& rank, const md::CellGrid& grid,
                        const md::LennardJones& lj,
                        const sim::MachineModel& model);

// Sub-step spans at the rank's virtual clock; no-ops when `trace` is null.
void span_begin(obs::TraceCollector* trace, const sim::Comm& comm,
                std::uint32_t name);
void span_end(obs::TraceCollector* trace, const sim::Comm& comm,
              std::uint32_t name);

// The step's closing phase: takes the sum/max/min reductions the force
// phase posted and rescales the owned velocities when the thermostat is due
// at `step_number`. sums[1] is the kinetic energy, sums[n_slot] the count.
void finish_step(sim::Comm& comm, RankCore& rank,
                 const std::optional<md::RescaleThermostat>& thermostat,
                 std::int64_t step_number, std::size_t n_slot);

}  // namespace pcmd::ddm
