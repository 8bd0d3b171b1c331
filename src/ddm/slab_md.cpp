#include "ddm/slab_md.hpp"

#include "ddm/wire.hpp"
#include "md/checkpoint.hpp"
#include "md/observables.hpp"
#include "obs/collector.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pcmd::ddm {

namespace {
// Message tags local to the slab engine (distinct from the pillar engine's).
enum SlabTag : int {
  kSlabInfo = 101,      // {busy time, lo, hi, edge-layer loads, total load}
  kSlabTransfer = 102,  // particles of a shifted layer
  kSlabMigrate = 103,   // particles that drifted across a boundary
  kSlabHalo = 104,      // boundary-layer positions
  kSlabInitHalo = 105,
};

// Shift decision for one boundary between `a` (left, owns up to the
// boundary) and `b` (right, owns from the boundary): -1 when the boundary
// moves left (a sheds its highest layer to b), +1 when it moves right (b
// sheds its lowest layer to a), 0 for no shift. Both participants call this
// with the same arguments, so they always agree.
int boundary_shift(const SlabInfo& a, const SlabInfo& b, bool avoid_overshoot) {
  const int a_layers = a.hi - a.lo;
  const int b_layers = b.hi - b.lo;
  auto gap_ok = [&](const SlabInfo& slow, const SlabInfo& fast,
                    double layer_load) {
    if (!avoid_overshoot) return true;
    if (slow.busy <= 0.0 || slow.total_load <= 0.0) return false;
    const double gap_load =
        (slow.busy - fast.busy) / slow.busy * slow.total_load;
    return layer_load < gap_load;
  };
  if (a.busy > b.busy && a_layers >= 2 &&
      gap_ok(a, b, a.high_layer_load)) {
    return -1;  // a sheds its highest layer; the boundary moves left
  }
  if (b.busy > a.busy && b_layers >= 2 && gap_ok(b, a, b.low_layer_load)) {
    return +1;  // b sheds its lowest layer; the boundary moves right
  }
  return 0;
}
}  // namespace

SlabMd::SlabMd(const EngineConfig& setup, const SlabMdConfig& config)
    : engine_(&validated_engine(setup, "SlabMd")),
      box_(Box::cubic(1.0)),  // placeholder; set by the init path below
      config_(config),
      grid_(Box::cubic(static_cast<double>(config.pe_count) * config.cutoff),
            config.pe_count, config.pe_count, config.pe_count),
      lj_(config.cutoff),
      integrator_(config.dt) {
  if (config.pe_count < 3) {
    throw std::invalid_argument("SlabMd: need at least 3 PEs on the ring");
  }
  if (engine_->size() != config.pe_count) {
    throw std::invalid_argument("SlabMd: engine rank count mismatch");
  }
  if (config.rescale_temperature) {
    thermostat_.emplace(*config.rescale_temperature, config.rescale_interval);
  }
  if (setup.checkpoint != nullptr) {
    init_resume(*setup.checkpoint);
  } else {
    init_fresh(setup.box, *setup.initial);
  }
}

void SlabMd::init_fresh(const Box& box, const md::ParticleVector& initial) {
  box_ = box;
  grid_ = config_.cells_per_axis > 0
              ? md::CellGrid(box_, config_.cells_per_axis,
                             config_.cells_per_axis, config_.cells_per_axis)
              : md::CellGrid(box_, config_.cutoff);
  if (grid_.nx() < config_.pe_count) {
    throw std::invalid_argument(
        "SlabMd: more PEs than cell layers along x");
  }
  if (!grid_.covers_cutoff(config_.cutoff)) {
    throw std::invalid_argument("SlabMd: cell edge smaller than the cut-off");
  }

  ranks_.reserve(config_.pe_count);
  for (int r = 0; r < config_.pe_count; ++r) {
    auto rank = std::make_unique<Rank>();
    // Even initial partition of the K layers.
    rank->lo = static_cast<int>(static_cast<std::int64_t>(r) * grid_.nx() /
                                config_.pe_count);
    rank->hi = static_cast<int>(static_cast<std::int64_t>(r + 1) *
                                grid_.nx() / config_.pe_count);
    ranks_.push_back(std::move(rank));
  }

  for (const auto& particle : initial) {
    if (!in_primary_image(particle.position, box_)) {
      throw std::invalid_argument("SlabMd: particle outside primary image");
    }
    const int layer = layer_of_position(particle.position);
    for (auto& rank : ranks_) {
      if (layer >= rank->lo && layer < rank->hi) {
        rank->owned.push_back(particle);
        break;
      }
    }
  }

  finish_construction(false);
}

void SlabMd::init_resume(const sim::Buffer& checkpoint) {
  ranks_ = md::decode_checkpoint(
      md::CheckpointKind::kSlab, "SlabMd checkpoint", checkpoint,
      [&](sim::Unpacker& unpacker) {
        const auto pe_count = unpacker.get<std::int32_t>();
        if (pe_count != config_.pe_count) {
          throw md::CheckpointError("SlabMd: checkpoint ring size (pe_count=" +
                                    std::to_string(pe_count) +
                                    ") does not match the config");
        }
        const auto layers = unpacker.get<std::int32_t>();
        step_count_ = unpacker.get<std::int64_t>();
        box_ = unpacker.get<Box>();
        grid_ = config_.cells_per_axis > 0
                    ? md::CellGrid(box_, config_.cells_per_axis,
                                   config_.cells_per_axis,
                                   config_.cells_per_axis)
                    : md::CellGrid(box_, config_.cutoff);
        if (grid_.nx() != layers) {
          throw md::CheckpointError(
              "SlabMd: checkpoint layer count (" + std::to_string(layers) +
              ") does not match the config's grid (" +
              std::to_string(grid_.nx()) + ")");
        }
        if (!grid_.covers_cutoff(config_.cutoff)) {
          throw md::CheckpointError(
              "SlabMd: checkpointed box too small for this cut-off");
        }
        std::vector<std::unique_ptr<Rank>> ranks;
        for (int r = 0; r < config_.pe_count; ++r) {
          auto rank = std::make_unique<Rank>();
          rank->owned = unpacker.get_vector<md::Particle>();
          rank->lo = unpacker.get<std::int32_t>();
          rank->hi = unpacker.get<std::int32_t>();
          if (rank->hi - rank->lo < 1 || rank->lo < 0 ||
              rank->hi > grid_.nx()) {
            throw md::CheckpointError("SlabMd: checkpoint slab range invalid");
          }
          rank->restored_last_busy = unpacker.get<double>();
          rank->force_seconds = unpacker.get<double>();
          ranks.push_back(std::move(rank));
        }
        return ranks;
      });
  finish_construction(true);
}

void SlabMd::finish_construction(bool resume) {
  if (config_.trace) {
    config_.trace->on_attach(config_.pe_count);
    spans_.drift = config_.trace->intern("drift");
    spans_.shift = config_.trace->intern("shift");
    spans_.migrate = config_.trace->intern("migrate");
    spans_.halo = config_.trace->intern("halo");
    spans_.force = config_.trace->intern("force");
  }
  for (auto& rank : ranks_) {
    rank->channel = sim::ReliableChannel(config_.fault_tolerance.policy);
  }

  // Initial forces for the first step's drift: phases C/D's halo and force
  // code under the init tag. A resume keeps the restored busy times (not the
  // init charge) to drive the next boundary-shift decision.
  engine_->run_phase([this](sim::Comm& comm) {
    send_halo(comm, *ranks_[comm.rank()], comm.rank(), kSlabInitHalo);
  });
  engine_->run_phase([this, resume](sim::Comm& comm) {
    Rank& rank = *ranks_[comm.rank()];
    absorb_halo(comm, rank, comm.rank(), kSlabInitHalo);
    const double charged = compute_forces(comm, rank).cost;
    rank.last_busy = resume ? rank.restored_last_busy : charged;
  });
}

sim::Buffer SlabMd::checkpoint() const {
  sim::Packer packer(md::kCheckpointHeaderBytes);
  packer.put(static_cast<std::int32_t>(config_.pe_count));
  packer.put(static_cast<std::int32_t>(grid_.nx()));
  packer.put(step_count_);
  packer.put(box_);
  for (const auto& rank : ranks_) {
    packer.put_vector(rank->owned);
    packer.put(static_cast<std::int32_t>(rank->lo));
    packer.put(static_cast<std::int32_t>(rank->hi));
    packer.put(rank->last_busy);
    packer.put(rank->force_seconds);
  }
  return md::seal_checkpoint(md::CheckpointKind::kSlab, packer);
}

void SlabMd::send_to(sim::Comm& comm, Rank& rank, int dst, int tag,
                     sim::Buffer payload) {
  send_payload(comm, rank, config_.fault_tolerance.reliable, dst, tag,
               std::move(payload));
}

sim::Buffer SlabMd::recv_from(sim::Comm& comm, Rank& rank, int src, int tag) {
  return recv_payload(comm, rank, config_.fault_tolerance.reliable, src, tag);
}

void SlabMd::send_halo(sim::Comm& comm, Rank& rank, int me, int tag) {
  auto pack_layer = [&](int layer) {
    auto& records = rank.halo_records;
    records.clear();
    for (const auto& p : rank.owned) {
      if (layer_of_position(p.position) == layer) {
        records.push_back({p.id, p.position});
      }
    }
    return pack_halo(records);
  };
  PCMD_HB_ACCESS(comm, "slab-halo", me, /*is_write=*/true, "halo");
  send_to(comm, rank, left(me), tag, pack_layer(rank.lo));
  send_to(comm, rank, right(me), tag, pack_layer(rank.hi - 1));
}

void SlabMd::absorb_halo(sim::Comm& comm, Rank& rank, int me, int tag) {
  rank.with_halo = rank.owned;
  for (const int nb : {left(me), right(me)}) {
    const auto halo = unpack_halo(recv_from(comm, rank, nb, tag));
    // After the recv: the message is the edge that orders this read behind
    // the neighbour's halo write.
    PCMD_HB_ACCESS(comm, "slab-halo", nb, /*is_write=*/false, "halo");
    append_halo(rank, halo);
  }
}

ForceSweep SlabMd::compute_forces(sim::Comm& comm, Rank& rank) {
  cells_of_layers(rank.lo, rank.hi, rank.target_cells);
  ForceSweep sweep = sweep_forces(rank, grid_, lj_, engine_->model());
  sweep.cost = advance_compute(comm, rank, sweep.cost);
  return sweep;
}

double SlabMd::advance_compute(sim::Comm& comm, Rank& rank, double seconds) {
  comm.advance(seconds);
  rank.busy_accum += seconds;
  return seconds;
}

int SlabMd::left(int rank) const {
  return (rank + config_.pe_count - 1) % config_.pe_count;
}

int SlabMd::right(int rank) const { return (rank + 1) % config_.pe_count; }

int SlabMd::layer_of_position(const Vec3& position) const {
  return grid_.coord_of_position(position).x;
}

void SlabMd::cells_of_layers(int lo, int hi, std::vector<int>& cells) const {
  cells.clear();
  cells.reserve(static_cast<std::size_t>(hi - lo) * grid_.ny() * grid_.nz());
  for (int x = lo; x < hi; ++x) {
    for (int z = 0; z < grid_.nz(); ++z) {
      for (int y = 0; y < grid_.ny(); ++y) {
        cells.push_back(grid_.flat_index({x, y, z}));
      }
    }
  }
  std::sort(cells.begin(), cells.end());
}

SlabInfo SlabMd::slab_info(const Rank& rank) const {
  const auto layer_load = [&](int layer) {
    double load = 0.0;
    for (const auto& p : rank.owned) {
      if (layer_of_position(p.position) == layer) load += 1.0;
    }
    return load;
  };
  SlabInfo info;
  info.busy = rank.last_busy;
  info.lo = rank.lo;
  info.hi = rank.hi;
  info.low_layer_load = layer_load(rank.lo);
  info.high_layer_load = layer_load(rank.hi - 1);
  info.total_load = static_cast<double>(rank.owned.size());
  return info;
}

void SlabMd::phase_a_drift_and_times(sim::Comm& comm) {
  Rank& rank = *ranks_[comm.rank()];
  rank.busy_accum = 0.0;
  rank.shifts_made = 0;
  span_begin(config_.trace, comm, spans_.drift);
  advance_compute(comm, rank,
                  engine_->model().particle_cost * rank.owned.size());
  integrator_.drift(rank.owned, box_);
  span_end(config_.trace, comm, spans_.drift);

  const SlabInfo info = slab_info(rank);
  // My slab descriptor is shared state read by both ring neighbours in
  // phase B; the kSlabInfo messages order those reads after this write.
  PCMD_HB_ACCESS(comm, "slab-info", comm.rank(), /*is_write=*/true, "drift");
  send_to(comm, rank, left(comm.rank()), kSlabInfo, pack_slab_info(info));
  send_to(comm, rank, right(comm.rank()), kSlabInfo, pack_slab_info(info));
}

void SlabMd::phase_b_shift_and_migrate(sim::Comm& comm) {
  const int me = comm.rank();
  Rank& rank = *ranks_[me];
  const SlabInfo left_info =
      unpack_slab_info(recv_from(comm, rank, left(me), kSlabInfo));
  PCMD_HB_ACCESS(comm, "slab-info", left(me), /*is_write=*/false, "shift");
  const SlabInfo right_info =
      unpack_slab_info(recv_from(comm, rank, right(me), kSlabInfo));
  PCMD_HB_ACCESS(comm, "slab-info", right(me), /*is_write=*/false, "shift");

  // The same descriptor phase A sent: nothing it reads changed since.
  const SlabInfo my_info = slab_info(rank);

  // Boundary ids: boundary r sits between rank r-1 and rank r; boundary 0
  // (the periodic wrap) is fixed. A boundary may shift when its parity
  // matches the step's, so each rank touches at most one of its two
  // boundaries per step.
  const std::int64_t step_number = step_count_ + 1;
  md::ParticleVector to_left, to_right;

  auto extract_layer = [&](int layer, md::ParticleVector& out) {
    auto keep = rank.owned.begin();
    for (auto& p : rank.owned) {
      if (layer_of_position(p.position) == layer) {
        out.push_back(p);
      } else {
        *keep++ = p;
      }
    }
    rank.owned.erase(keep, rank.owned.end());
  };

  if (config_.shift_enabled) {
    span_begin(config_.trace, comm, spans_.shift);
    // The boundary positions themselves are NOT stamped for the
    // happens-before detector: both sides recompute boundary_shift from the
    // same two SlabInfo records (replicated deterministic computation), so
    // there is deliberately no ordering message between the two updates.
    // What IS shared is the shed layer's particle population — stamped at
    // extraction here and at absorption in phase C, ordered by the
    // kSlabTransfer message.
    // My left boundary has id `me`.
    if (me != 0 && (step_number + me) % 2 == 0) {
      const int shift =
          boundary_shift(left_info, my_info, config_.avoid_overshoot);
      if (shift == -1) {
        rank.lo -= 1;  // left neighbour sheds its top layer to me
      } else if (shift == +1) {
        PCMD_HB_ACCESS(comm, "layer", rank.lo, /*is_write=*/true, "shift");
        extract_layer(rank.lo, to_left);  // I shed my bottom layer
        rank.lo += 1;
        rank.shifts_made += 1;
      }
    }
    // My right boundary has id `me + 1` (fixed when it is the wrap).
    if (right(me) != 0 && (step_number + me + 1) % 2 == 0) {
      const int shift =
          boundary_shift(my_info, right_info, config_.avoid_overshoot);
      if (shift == -1) {
        PCMD_HB_ACCESS(comm, "layer", rank.hi - 1, /*is_write=*/true,
                       "shift");
        extract_layer(rank.hi - 1, to_right);  // I shed my top layer
        rank.hi -= 1;
        rank.shifts_made += 1;
      } else if (shift == +1) {
        rank.hi += 1;  // right neighbour sheds its bottom layer to me
      }
    }
    span_end(config_.trace, comm, spans_.shift);
  }

  span_begin(config_.trace, comm, spans_.migrate);
  // Migration: particles that drifted out of [lo, hi). A particle can end
  // up at most 2 layers outside: one layer of physical drift plus one layer
  // of boundary shift in the same step — and in the shift case the shed
  // layer now belongs to that very neighbour, so the nearest ring neighbour
  // is always the right destination.
  md::ParticleVector migrate_left, migrate_right;
  auto keep = rank.owned.begin();
  const int k = grid_.nx();
  for (auto& p : rank.owned) {
    const int layer = layer_of_position(p.position);
    if (layer >= rank.lo && layer < rank.hi) {
      *keep++ = p;
      continue;
    }
    const int below = (rank.lo - layer + k) % k;      // layers below lo
    const int above = (layer - rank.hi + 1 + k) % k;  // layers past hi-1
    if (std::min(below, above) > 2) {
      std::ostringstream os;
      os << "SlabMd: particle " << p.id << " moved " << std::min(below, above)
         << " layers past slab [" << rank.lo << ", " << rank.hi
         << ") in one step — time step too large for the cell size";
      throw std::logic_error(os.str());
    }
    (below < above ? migrate_left : migrate_right).push_back(p);
  }
  rank.owned.erase(keep, rank.owned.end());

  send_to(comm, rank, left(me), kSlabTransfer, pack_particles(to_left));
  send_to(comm, rank, right(me), kSlabTransfer, pack_particles(to_right));
  send_to(comm, rank, left(me), kSlabMigrate, pack_particles(migrate_left));
  send_to(comm, rank, right(me), kSlabMigrate, pack_particles(migrate_right));
  span_end(config_.trace, comm, spans_.migrate);
}

void SlabMd::phase_c_absorb_and_halo(sim::Comm& comm) {
  const int me = comm.rank();
  Rank& rank = *ranks_[me];
  span_begin(config_.trace, comm, spans_.migrate);
  for (const int nb : {left(me), right(me)}) {
    bool absorbed_layer = false;
    for (const auto& p :
         unpack_particles(recv_from(comm, rank, nb, kSlabTransfer))) {
      if (!absorbed_layer) {
        // Absorption side of the shed layer stamped in phase B; every
        // particle of one transfer sits in the one shifted layer.
        PCMD_HB_ACCESS(comm, "layer", layer_of_position(p.position),
                       /*is_write=*/true, "migrate");
        absorbed_layer = true;
      }
      rank.owned.push_back(p);
    }
    for (const auto& p :
         unpack_particles(recv_from(comm, rank, nb, kSlabMigrate))) {
      const int layer = layer_of_position(p.position);
      if (layer < rank.lo || layer >= rank.hi) {
        throw std::logic_error("SlabMd: migrant delivered to wrong slab");
      }
      rank.owned.push_back(p);
    }
  }
  span_end(config_.trace, comm, spans_.migrate);

  span_begin(config_.trace, comm, spans_.halo);
  send_halo(comm, rank, me, kSlabHalo);
  span_end(config_.trace, comm, spans_.halo);
}

void SlabMd::phase_d_forces(sim::Comm& comm) {
  const int me = comm.rank();
  Rank& rank = *ranks_[me];
  span_begin(config_.trace, comm, spans_.halo);
  absorb_halo(comm, rank, me, kSlabHalo);
  span_end(config_.trace, comm, spans_.halo);
  span_begin(config_.trace, comm, spans_.force);
  const ForceSweep sweep = compute_forces(comm, rank);
  rank.force_seconds = sweep.cost;
  integrator_.kick(rank.owned);
  span_end(config_.trace, comm, spans_.force);

  const double ke = md::kinetic_energy(rank.owned);
  const double sums[5] = {sweep.result.potential_energy, ke,
                          static_cast<double>(rank.owned.size()),
                          static_cast<double>(rank.shifts_made),
                          rank.force_seconds};
  comm.collective_begin(sim::ReduceOp::kSum, sums);
  const double maxes[1] = {rank.force_seconds};
  comm.collective_begin(sim::ReduceOp::kMax, maxes);
  const double mins[1] = {rank.force_seconds};
  comm.collective_begin(sim::ReduceOp::kMin, mins);
  rank.last_busy = rank.busy_accum;
}

void SlabMd::phase_e_finish(sim::Comm& comm) {
  finish_step(comm, *ranks_[comm.rank()], thermostat_, step_count_ + 1,
              /*n_slot=*/2);
}

SlabStepStats SlabMd::step() {
  const double before = engine_->makespan();
  engine_->run_phase([this](sim::Comm& c) { phase_a_drift_and_times(c); });
  engine_->run_phase([this](sim::Comm& c) { phase_b_shift_and_migrate(c); });
  engine_->run_phase([this](sim::Comm& c) { phase_c_absorb_and_halo(c); });
  engine_->run_phase([this](sim::Comm& c) { phase_d_forces(c); });
  engine_->run_phase([this](sim::Comm& c) { phase_e_finish(c); });
  ++step_count_;

  const Rank& r0 = *ranks_[0];
  SlabStepStats stats;
  stats.step = step_count_;
  stats.t_step = engine_->makespan() - before;
  stats.potential_energy = r0.sums[0];
  stats.kinetic_energy = r0.sums[1];
  stats.total_particles = static_cast<std::int64_t>(r0.sums[2]);
  stats.shifts = static_cast<int>(r0.sums[3]);
  stats.force_avg = r0.sums[4] / static_cast<double>(ranks_.size());
  stats.force_max = r0.maxes[0];
  stats.force_min = r0.mins[0];
  return stats;
}

SlabStepStats SlabMd::run(std::int64_t steps) {
  SlabStepStats stats;
  for (std::int64_t i = 0; i < steps; ++i) stats = step();
  return stats;
}

md::ParticleVector SlabMd::gather_particles() const {
  md::ParticleVector all;
  for (const auto& rank : ranks_) {
    all.insert(all.end(), rank->owned.begin(), rank->owned.end());
  }
  std::sort(all.begin(), all.end(),
            [](const md::Particle& a, const md::Particle& b) {
              return a.id < b.id;
            });
  return all;
}

std::pair<int, int> SlabMd::slab_range(int rank) const {
  return {ranks_.at(rank)->lo, ranks_.at(rank)->hi};
}

bool SlabMd::check_partition(std::string* error) const {
  auto fail = [&](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  int covered = 0;
  for (int r = 0; r < config_.pe_count; ++r) {
    const auto [lo, hi] = slab_range(r);
    if (hi - lo < 1) {
      return fail("rank " + std::to_string(r) + " owns no layer");
    }
    covered += hi - lo;
    const auto [nlo, nhi] = slab_range(right(r));
    if (right(r) != 0 && nlo != hi) {
      std::ostringstream os;
      os << "boundary mismatch between rank " << r << " (hi " << hi
         << ") and rank " << right(r) << " (lo " << nlo << ")";
      return fail(os.str());
    }
  }
  if (covered != grid_.nx()) {
    return fail("slabs cover " + std::to_string(covered) + " of " +
                std::to_string(grid_.nx()) + " layers");
  }
  // Every particle inside its owner's slab.
  for (int r = 0; r < config_.pe_count; ++r) {
    const auto [lo, hi] = slab_range(r);
    for (const auto& p : ranks_[r]->owned) {
      const int layer = layer_of_position(p.position);
      if (layer < lo || layer >= hi) {
        return fail("rank " + std::to_string(r) +
                    " holds a particle outside its slab");
      }
    }
  }
  if (error) error->clear();
  return true;
}

std::size_t SlabMd::owned_count(int rank) const {
  return ranks_.at(rank)->owned.size();
}

}  // namespace pcmd::ddm
