#include "ddm/rank_core.hpp"

#include "obs/collector.hpp"

#include <utility>

namespace pcmd::ddm {

void send_payload(sim::Comm& comm, RankCore& rank, bool reliable, int host,
                  int tag, sim::Buffer payload) {
  if (reliable) {
    rank.channel.send(comm, host, tag, payload);
  } else {
    comm.send(host, tag, std::move(payload));
  }
}

sim::Buffer recv_payload(sim::Comm& comm, RankCore& rank, bool reliable,
                         int host, int tag) {
  if (reliable) return rank.channel.recv(comm, host, tag);
  return comm.recv(host, tag);
}

void append_halo(RankCore& rank, const std::vector<HaloRecord>& records) {
  for (const auto& record : records) {
    md::Particle p;
    p.id = record.id;
    p.position = record.position;
    rank.with_halo.push_back(p);
  }
}

ForceSweep sweep_forces(RankCore& rank, const md::CellGrid& grid,
                        const md::LennardJones& lj,
                        const sim::MachineModel& model) {
  rank.bins.rebuild(grid, rank.with_halo);
  ForceSweep sweep;
  sweep.result = md::accumulate_forces(rank.with_halo, grid, rank.bins,
                                       rank.target_cells, lj, rank.workspace);
  sweep.cost = model.pair_cost * sweep.result.pair_evaluations +
               model.cell_cost * rank.target_cells.size();
  rank.owned.assign(rank.with_halo.begin(),
                    rank.with_halo.begin() + rank.owned.size());
  return sweep;
}

void span_begin(obs::TraceCollector* trace, const sim::Comm& comm,
                std::uint32_t name) {
  if (trace) trace->span_begin(comm.rank(), name, comm.clock());
}

void span_end(obs::TraceCollector* trace, const sim::Comm& comm,
              std::uint32_t name) {
  if (trace) trace->span_end(comm.rank(), name, comm.clock());
}

void finish_step(sim::Comm& comm, RankCore& rank,
                 const std::optional<md::RescaleThermostat>& thermostat,
                 std::int64_t step_number, std::size_t n_slot) {
  rank.sums = comm.collective_end();
  rank.maxes = comm.collective_end();
  rank.mins = comm.collective_end();
  if (thermostat && thermostat->due(step_number)) {
    const double factor = thermostat->scale_factor(
        rank.sums[1], static_cast<std::int64_t>(rank.sums[n_slot]));
    md::RescaleThermostat::apply(rank.owned, factor);
  }
}

}  // namespace pcmd::ddm
