// Bitwise-parity battery for the SoA force fast path.
//
// The determinism contract (DESIGN.md) requires the four-pass SoA kernel the
// engines run to produce *bit-identical* results to the straight-line AoS
// reference: same per-pair arithmetic, same ascending-stencil iteration
// order, same same-id skip, and the same candidate count. Every comparison here is exact (EXPECT_EQ on
// doubles) — a tolerance would hide a reordering that breaks golden
// regressions and Seq/Thread parity.
#include "md/cell_grid.hpp"
#include "md/lj.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

namespace pcmd::md {
namespace {

ParticleVector random_particles(int n, const Box& box, std::uint64_t seed) {
  pcmd::Rng rng(seed);
  workload::GasConfig config;
  config.min_separation = 0.85;
  return workload::random_gas(n, box, config, rng);
}

std::vector<int> all_cells(const CellGrid& grid) {
  std::vector<int> cells(grid.num_cells());
  std::iota(cells.begin(), cells.end(), 0);
  return cells;
}

Particle particle_at(std::int64_t id, const Vec3& position) {
  Particle p;
  p.id = id;
  p.position = position;
  return p;
}

// Candidate pairs the sweep must count, derived without CellBins or the
// stencil table: for every particle homed in a target cell, every particle
// homed in one of the (deduplicated) 27 surrounding cells, minus same-id
// slots.
std::uint64_t independent_candidate_count(const CellGrid& grid,
                                          const ParticleVector& particles,
                                          std::span<const int> targets) {
  std::uint64_t count = 0;
  for (const int c : targets) {
    const CellCoord cc = grid.coord_of(c);
    std::set<int> neighbourhood;
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          neighbourhood.insert(
              grid.flat_index({cc.x + dx, cc.y + dy, cc.z + dz}));
        }
      }
    }
    for (const Particle& p : particles) {
      if (grid.cell_of_position(p.position) != c) continue;
      for (const Particle& q : particles) {
        if (q.id != p.id &&
            neighbourhood.count(grid.cell_of_position(q.position)) != 0) {
          ++count;
        }
      }
    }
  }
  return count;
}

// Exact comparison of every targeted particle's force plus the sweep
// accumulators between the AoS reference and the SoA overload; the pair
// count must also equal the independently counted candidate total.
void expect_bitwise_parity(const CellGrid& grid, ParticleVector particles,
                           std::span<const int> targets,
                           const LennardJones& lj) {
  const CellBins bins(grid, particles);
  ParticleVector reference = particles;
  const auto expected =
      accumulate_forces(reference, grid, bins, targets, lj);
  // A fixture with two distinct ids at one point would compare NaN to NaN.
  ASSERT_TRUE(std::isfinite(expected.potential_energy));
  ForceWorkspace workspace;
  const auto actual =
      accumulate_forces(particles, grid, bins, targets, lj, workspace);
  EXPECT_EQ(actual.potential_energy, expected.potential_energy);
  EXPECT_EQ(actual.virial, expected.virial);
  EXPECT_EQ(actual.pair_evaluations, expected.pair_evaluations);
  EXPECT_EQ(actual.pair_evaluations,
            independent_candidate_count(grid, particles, targets));
  ASSERT_EQ(particles.size(), reference.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(particles[i].force.x, reference[i].force.x) << "particle " << i;
    EXPECT_EQ(particles[i].force.y, reference[i].force.y) << "particle " << i;
    EXPECT_EQ(particles[i].force.z, reference[i].force.z) << "particle " << i;
  }
}

TEST(ForceParity, SoaMatchesAosOnDenseGas) {
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  expect_bitwise_parity(grid, random_particles(400, box, 7), all_cells(grid),
                        LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosOnAnisotropicGrid) {
  // Non-cubic cell counts exercise the wrap arithmetic in the stencil and
  // the minimum-image folds along each axis independently.
  const Box box{Vec3{15.0, 10.0, 7.5}};
  const CellGrid grid(box, 6, 4, 3);
  expect_bitwise_parity(grid, random_particles(300, box, 11),
                        all_cells(grid), LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosOnTargetSubset) {
  // The engines sweep only their own cells; halo particles keep stale
  // forces. Target roughly half the cells and check untouched particles
  // stay untouched in both implementations.
  const Box box = Box::cubic(10.0);
  const CellGrid grid(box, 2.5);
  std::vector<int> targets;
  for (int c = 0; c < grid.num_cells(); c += 2) targets.push_back(c);
  expect_bitwise_parity(grid, random_particles(250, box, 13), targets,
                        LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosWithTinyCutoff) {
  // Cutoff well below the cell edge: most stencil pairs fail the r2 test,
  // exercising the cutoff branch ordering in both kernels.
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  expect_bitwise_parity(grid, random_particles(300, box, 17),
                        all_cells(grid), LennardJones(1.1));
}

TEST(ForceParity, SoaMatchesAosOnOneAndTwoCellAxes) {
  // One cell along x and two along y: the stencil is deduplicated to the
  // whole axis, and every candidate along x is reached only through the
  // minimum-image fold inside the stencil.
  const Box box{Vec3{5.0, 6.0, 12.5}};
  const CellGrid grid(box, 1, 2, 5);
  ASSERT_EQ(grid.stencil(0).size(), 6u);
  expect_bitwise_parity(grid, random_particles(80, box, 31), all_cells(grid),
                        LennardJones(2.5));
  const Box tiny = Box::cubic(5.5);
  const CellGrid single(tiny, 1, 1, 1);
  expect_bitwise_parity(single, random_particles(30, tiny, 37),
                        all_cells(single), LennardJones(2.5));
  const CellGrid two(tiny, 2, 2, 2);
  expect_bitwise_parity(two, random_particles(30, tiny, 37), all_cells(two),
                        LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosOnCellAndBoxFaces) {
  // Particles exactly on interior cell faces, on the lower box face 0 and on
  // the upper box face L (binned into the last cell by the clamp), so
  // several displacements land exactly on +-L/2 and on the fold thresholds.
  const Box box = Box::cubic(10.0);
  const CellGrid grid(box, 2.5);
  ParticleVector particles;
  std::int64_t id = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      particles.push_back(particle_at(
          id++, {2.5 * i, 2.5 * j + 1.0, 2.5 * ((i + j) % 4)}));
    }
  }
  for (int j = 0; j < 4; ++j) {
    particles.push_back(particle_at(id++, {10.0, 2.5 * j + 2.0, 1.3}));
    particles.push_back(particle_at(id++, {3.7, 10.0, 2.5 * j + 0.4}));
    particles.push_back(particle_at(id++, {2.5 * j + 1.8, 6.2, 10.0}));
    particles.push_back(particle_at(id++, {2.5 * j, 5.0, 8.9}));
  }
  particles.push_back(particle_at(id++, {10.0, 10.0, 10.0}));
  particles.push_back(particle_at(id++, {5.0, 0.0, 5.0}));
  expect_bitwise_parity(grid, particles, all_cells(grid), LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosWithDuplicatedIds) {
  // Halo-copy semantics: a particle may be present more than once under
  // one id. Every copy must be skipped by every other copy (and left out
  // of the pair count), whether it sits on the original or elsewhere.
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  auto particles = random_particles(200, box, 41);
  for (std::size_t i = 0; i < 20; ++i) {
    Particle copy = particles[i];
    if (i % 2 == 1) {
      copy.position = wrap(particles[i + 100].position + Vec3{0.4, 0.3, 0.2},
                           box);
    }
    particles.push_back(copy);
  }
  particles.push_back(particles[0]);  // a third copy
  expect_bitwise_parity(grid, particles, all_cells(grid), LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosWithShiftedEnergy) {
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  expect_bitwise_parity(grid, random_particles(350, box, 43),
                        all_cells(grid), LennardJones(2.5, true));
}

TEST(ForceParity, SoaMatchesAosOnEmptyTargetCells) {
  // A sparse system: most target cells are empty, and one sweep targets only
  // empty cells (nothing to do, nothing counted).
  const Box box = Box::cubic(15.0);
  const CellGrid grid(box, 2.5);
  const auto particles = random_particles(12, box, 47);
  expect_bitwise_parity(grid, particles, all_cells(grid), LennardJones(2.5));
  const CellBins bins(grid, particles);
  std::vector<int> empty;
  for (int c = 0; c < grid.num_cells(); ++c) {
    if (bins.cell(c).empty()) empty.push_back(c);
  }
  ASSERT_GT(empty.size(), 150u);
  expect_bitwise_parity(grid, particles, empty, LennardJones(2.5));
  expect_bitwise_parity(grid, ParticleVector{}, all_cells(grid),
                        LennardJones(2.5));
}

TEST(ForceParity, SoaMatchesAosWhenScratchGrowsMidSweep) {
  // A sparse gas with one very dense cell in the middle of the sweep: the
  // per-cell scratch is sized by the early sparse stencils and must grow
  // when the sweep reaches the dense one.
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  auto particles = random_particles(40, box, 53);
  pcmd::Rng rng(59);
  std::int64_t id = 1000;
  for (int i = 0; i < 150; ++i) {
    particles.push_back(particle_at(
        id++, Vec3{5.0, 5.0, 5.0} + rng.uniform_in_box({2.5, 2.5, 2.5})));
  }
  expect_bitwise_parity(grid, particles, all_cells(grid), LennardJones(2.5));
}

TEST(ForceParity, WorkspaceReuseAcrossShrinkingLoads) {
  // A workspace that served a large system must serve a smaller one with no
  // stale-slot leakage: results still bitwise match a fresh workspace.
  const Box box = Box::cubic(12.5);
  const CellGrid grid(box, 2.5);
  const LennardJones lj(2.5);
  auto big = random_particles(400, box, 19);
  auto small = random_particles(100, box, 23);
  const CellBins big_bins(grid, big);
  const CellBins small_bins(grid, small);
  ForceWorkspace reused;
  accumulate_forces(big, grid, big_bins, all_cells(grid), lj, reused);
  ParticleVector fresh_particles = small;
  ForceWorkspace fresh;
  const auto expected = accumulate_forces(fresh_particles, grid, small_bins,
                                          all_cells(grid), lj, fresh);
  const auto actual = accumulate_forces(small, grid, small_bins,
                                        all_cells(grid), lj, reused);
  EXPECT_EQ(actual.potential_energy, expected.potential_energy);
  EXPECT_EQ(actual.pair_evaluations, expected.pair_evaluations);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].force.x, fresh_particles[i].force.x);
    EXPECT_EQ(small[i].force.y, fresh_particles[i].force.y);
    EXPECT_EQ(small[i].force.z, fresh_particles[i].force.z);
  }
}

TEST(StencilCache, SharedTableIsBitwiseIdenticalToPrivate) {
  const Box box = Box::cubic(11.0);
  const CellGrid shared(box, 5, 4, 3, StencilSource::kShared);
  const CellGrid priv(box, 5, 4, 3, StencilSource::kPrivate);
  const StencilTable& a = shared.stencil_table();
  const StencilTable& b = priv.stencil_table();
  EXPECT_NE(&a, &b);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.storage, b.storage);
}

TEST(StencilCache, SameShapeSharesOneTableAcrossGrids) {
  // Two grids of the same (nx, ny, nz) — even over different boxes — must
  // reuse one cached table instead of rebuilding the O(27 C) structure.
  const CellGrid one(Box::cubic(10.0), 4, 4, 4);
  const CellGrid two(Box::cubic(25.0), 4, 4, 4);
  EXPECT_EQ(&one.stencil_table(), &two.stencil_table());
  const CellGrid other(Box::cubic(10.0), 4, 4, 5);
  EXPECT_NE(&one.stencil_table(), &other.stencil_table());
}

TEST(StencilCache, CacheSourceDoesNotChangeForces) {
  const Box box = Box::cubic(12.5);
  const LennardJones lj(2.5);
  auto particles = random_particles(300, box, 29);
  const CellGrid shared(box, 2.5, StencilSource::kShared);
  const CellGrid priv(box, 2.5, StencilSource::kPrivate);
  ASSERT_EQ(shared.num_cells(), priv.num_cells());
  const CellBins bins(shared, particles);
  ParticleVector with_private = particles;
  ForceWorkspace wa, wb;
  const auto a = accumulate_forces(particles, shared, bins,
                                   all_cells(shared), lj, wa);
  const auto b = accumulate_forces(with_private, priv, bins,
                                   all_cells(priv), lj, wb);
  EXPECT_EQ(a.potential_energy, b.potential_energy);
  EXPECT_EQ(a.pair_evaluations, b.pair_evaluations);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(particles[i].force.x, with_private[i].force.x);
    EXPECT_EQ(particles[i].force.y, with_private[i].force.y);
    EXPECT_EQ(particles[i].force.z, with_private[i].force.z);
  }
}

}  // namespace
}  // namespace pcmd::md
