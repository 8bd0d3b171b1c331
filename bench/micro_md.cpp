// Micro-benchmarks M1: the MD kernels.
//
// Measures the real (host) cost of the force loop — cell-list vs O(N^2) —
// the cell binning, and the potential evaluation. These are host-machine
// microbenchmarks (google-benchmark); the virtual-machine cost model charges
// pair evaluations independently of these numbers.

#include "md/cell_grid.hpp"
#include "md/lj.hpp"
#include "md/neighbor_list.hpp"
#include "md/serial_md.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <benchmark/benchmark.h>

#include <numeric>

namespace {

using namespace pcmd;

md::ParticleVector make_gas(std::int64_t n, const Box& box) {
  Rng rng(42);
  workload::GasConfig config;
  config.min_separation = 0.8;
  return workload::random_gas(n, box, config, rng);
}

// Box size scaled so density stays at rho* (0.256 unless given) as N grows.
Box box_for(std::int64_t n, double density = 0.256) {
  const double volume = static_cast<double>(n) / density;
  return Box::cubic(std::cbrt(volume));
}

// Arguments of the cell-list force benchmarks: N and rho* in thousandths —
// 256 for the default sizes, 384 for the paper's Fig. 5 density.
void force_sizes(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {250, 1000, 4000, 16000}) b->Args({n, 256});
  b->Args({4000, 384})->Args({16000, 384});
}

// Times one cell-list sweep (plus the per-step bin rebuild) over every cell;
// items are candidate pairs, so items/s compares directly across overloads.
template <typename Sweep>
void run_force_sweep(benchmark::State& state, Sweep sweep) {
  const auto n = state.range(0);
  const Box box = box_for(n, static_cast<double>(state.range(1)) / 1000.0);
  auto particles = make_gas(n, box);
  const md::CellGrid grid(box, 2.5);
  md::CellBins bins(grid, particles);
  const md::LennardJones lj(2.5);
  std::vector<int> all(grid.num_cells());
  std::iota(all.begin(), all.end(), 0);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    bins.rebuild(grid, particles);
    const auto result = sweep(particles, grid, bins, all, lj);
    pairs = result.pair_evaluations;
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pairs));
}

// The SoA workspace overload every engine runs.
void BM_ForcesCellList(benchmark::State& state) {
  md::ForceWorkspace workspace;
  run_force_sweep(state, [&workspace](auto&... args) {
    return md::accumulate_forces(args..., workspace);
  });
}
BENCHMARK(BM_ForcesCellList)->Apply(force_sizes);

// The straight-line AoS reference the parity battery compares against.
void BM_ForcesAosReference(benchmark::State& state) {
  run_force_sweep(state, [](auto&... args) {
    return md::accumulate_forces(args...);
  });
}
BENCHMARK(BM_ForcesAosReference)->Apply(force_sizes);

void BM_ForcesNaive(benchmark::State& state) {
  const auto n = state.range(0);
  const Box box = box_for(n);
  auto particles = make_gas(n, box);
  const md::LennardJones lj(2.5);
  for (auto _ : state) {
    const auto result = md::accumulate_forces_naive(particles, box, lj);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1) / 2);
}
BENCHMARK(BM_ForcesNaive)->Arg(250)->Arg(1000)->Arg(4000);

void BM_CellBinsRebuild(benchmark::State& state) {
  const auto n = state.range(0);
  const Box box = box_for(n);
  auto particles = make_gas(n, box);
  const md::CellGrid grid(box, 2.5);
  md::CellBins bins(grid, particles);
  for (auto _ : state) {
    bins.rebuild(grid, particles);
    benchmark::DoNotOptimize(bins.total());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CellBinsRebuild)->Arg(1000)->Arg(16000);

void BM_LennardJonesKernel(benchmark::State& state) {
  const md::LennardJones lj(2.5);
  double r2 = 1.1;
  double acc = 0.0;
  for (auto _ : state) {
    acc += lj.force_over_r(r2) + lj.potential_r2(r2);
    r2 = 0.8 + (r2 * 1.37 - std::floor(r2 * 1.37) ) * 5.0;  // wander in range
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_LennardJonesKernel);

void BM_ForcesNeighborList(benchmark::State& state) {
  const auto n = state.range(0);
  const Box box = box_for(n);
  auto particles = make_gas(n, box);
  const md::LennardJones lj(2.5);
  md::NeighborList list(box, 2.5, 0.4);
  list.rebuild(particles);
  for (auto _ : state) {
    if (list.needs_rebuild(particles)) list.rebuild(particles);
    const auto result = list.compute(particles, lj);
    benchmark::DoNotOptimize(result.potential_energy);
  }
  state.counters["pairs"] = static_cast<double>(list.pair_count());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(list.pair_count()));
}
BENCHMARK(BM_ForcesNeighborList)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_SerialMdStep(benchmark::State& state) {
  const auto n = state.range(0);
  const Box box = box_for(n);
  md::SerialMdConfig config;
  config.dt = 0.004;
  md::SerialMd sim(box, make_gas(n, box), config);
  for (auto _ : state) {
    const auto stats = sim.step();
    benchmark::DoNotOptimize(stats.kinetic_energy);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SerialMdStep)->Arg(1000)->Arg(8000);

}  // namespace
