#include "md/cell_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pcmd::md {
namespace {

// GCC's -Wmissing-field-initializers fires on designated initializers that
// skip velocity/force, so tests build particles through this helper.
Particle particle_at(std::int64_t id, const Vec3& position) {
  Particle p;
  p.id = id;
  p.position = position;
  return p;
}

TEST(CellGrid, DimsFromCutoff) {
  const CellGrid grid(Box::cubic(10.0), 2.5);
  EXPECT_EQ(grid.nx(), 4);
  EXPECT_EQ(grid.ny(), 4);
  EXPECT_EQ(grid.nz(), 4);
  EXPECT_EQ(grid.num_cells(), 64);
  EXPECT_TRUE(grid.covers_cutoff(2.5));
}

TEST(CellGrid, ExactMultipleDoesNotLoseACell) {
  // 15.0 / 2.5 must give exactly 6 cells despite floating-point noise.
  const CellGrid grid(Box::cubic(15.0), 2.5);
  EXPECT_EQ(grid.nx(), 6);
}

TEST(CellGrid, CellEdgeAtLeastRequested) {
  const CellGrid grid(Box::cubic(10.9), 2.5);
  EXPECT_EQ(grid.nx(), 4);
  EXPECT_GE(grid.cell_edge().x, 2.5);
}

TEST(CellGrid, FlatCoordRoundTrip) {
  const CellGrid grid(Box::cubic(12.0), 2.0);  // 6x6x6
  for (int flat = 0; flat < grid.num_cells(); flat += 7) {
    EXPECT_EQ(grid.flat_index(grid.coord_of(flat)), flat);
  }
}

TEST(CellGrid, WrapNegativeCoords) {
  const CellGrid grid(Box::cubic(12.0), 2.0);
  EXPECT_EQ(grid.flat_index({-1, 0, 0}), grid.flat_index({5, 0, 0}));
  EXPECT_EQ(grid.flat_index({6, 7, -2}), grid.flat_index({0, 1, 4}));
}

TEST(CellGrid, CellOfPosition) {
  const CellGrid grid(Box::cubic(10.0), 2.5);
  EXPECT_EQ(grid.cell_of_position({0.1, 0.1, 0.1}), grid.flat_index({0, 0, 0}));
  EXPECT_EQ(grid.cell_of_position({2.6, 0.1, 0.1}), grid.flat_index({1, 0, 0}));
  EXPECT_EQ(grid.cell_of_position({9.9, 9.9, 9.9}), grid.flat_index({3, 3, 3}));
}

TEST(CellGrid, PositionAtUpperFaceClampsToLastCell) {
  const CellGrid grid(Box::cubic(10.0), 2.5);
  EXPECT_EQ(grid.cell_of_position({10.0, 5.0, 5.0}),
            grid.cell_of_position({9.999, 5.0, 5.0}));
}

TEST(CellGrid, CoordOfPositionOnFacesAndClamps) {
  // 15 x 10 x 7.5 in 6 x 4 x 3 cells: every edge is 2.5.
  const CellGrid grid(Box{Vec3{15.0, 10.0, 7.5}}, 6, 4, 3);
  EXPECT_EQ(grid.coord_of_position({0.0, 0.0, 0.0}), (CellCoord{0, 0, 0}));
  EXPECT_EQ(grid.coord_of_position({2.5, 5.0, 7.4}), (CellCoord{1, 2, 2}));
  EXPECT_EQ(grid.coord_of_position({14.99, 2.49, 2.5}), (CellCoord{5, 0, 1}));
  // The upper box face and rounding just below 0 clamp into the grid.
  EXPECT_EQ(grid.coord_of_position({15.0, 10.0, 7.5}), (CellCoord{5, 3, 2}));
  EXPECT_EQ(grid.coord_of_position({-1e-12, 3.0, 7.5}), (CellCoord{0, 1, 2}));
}

TEST(CellGrid, CoordOfPositionDividesByTheCellEdge) {
  // Edges that are inexact in binary put k * edge on a rounding boundary,
  // where e.g. x * n / L would bin differently: the coordinates must be the
  // division by cell_edge() that cell_of_position has always used.
  const CellGrid grid(Box{Vec3{7.3, 11.1, 13.7}}, 3, 5, 6);
  const Vec3 e = grid.cell_edge();
  for (int k = 0; k <= 6; ++k) {
    const Vec3 p{k * e.x, k * e.y, k * e.z};
    const CellCoord expected{
        std::clamp(static_cast<int>(p.x / e.x), 0, grid.nx() - 1),
        std::clamp(static_cast<int>(p.y / e.y), 0, grid.ny() - 1),
        std::clamp(static_cast<int>(p.z / e.z), 0, grid.nz() - 1)};
    EXPECT_EQ(grid.coord_of_position(p), expected) << "k = " << k;
    EXPECT_EQ(grid.flat_index(expected), grid.cell_of_position(p));
  }
}

TEST(CellGrid, StencilHas27CellsOnLargeGrid) {
  const CellGrid grid(Box::cubic(15.0), 2.5);  // 6x6x6
  for (int flat : {0, 17, 100, 215}) {
    const auto stencil = grid.stencil(flat);
    EXPECT_EQ(stencil.size(), 27u);
    EXPECT_TRUE(std::is_sorted(stencil.begin(), stencil.end()));
    const std::set<int> unique(stencil.begin(), stencil.end());
    EXPECT_EQ(unique.size(), 27u);
    EXPECT_TRUE(unique.count(flat));
  }
}

TEST(CellGrid, StencilDeduplicatesOnSmallGrid) {
  const CellGrid grid(Box::cubic(5.0), 2.5);  // 2x2x2: all cells adjacent
  const auto stencil = grid.stencil(0);
  EXPECT_EQ(stencil.size(), 8u);
}

TEST(CellGrid, StencilIsSymmetric) {
  const CellGrid grid(Box::cubic(12.5), 2.5);  // 5^3
  for (int a = 0; a < grid.num_cells(); a += 11) {
    for (const int b : grid.stencil(a)) {
      const auto sb = grid.stencil(b);
      EXPECT_TRUE(std::binary_search(sb.begin(), sb.end(), a))
          << "stencil not symmetric for " << a << " <-> " << b;
    }
  }
}

TEST(CellGrid, RejectsBadArguments) {
  EXPECT_THROW(CellGrid(Box::cubic(10.0), 0.0), std::invalid_argument);
  EXPECT_THROW(CellGrid(Box::cubic(10.0), 0, 1, 1), std::invalid_argument);
  EXPECT_THROW(CellGrid(Box{{-1, 1, 1}}, 1, 1, 1), std::invalid_argument);
}

TEST(CellBins, AssignsAllParticles) {
  const CellGrid grid(Box::cubic(10.0), 2.5);
  ParticleVector particles(10);
  for (int i = 0; i < 10; ++i) {
    particles[i].id = i;
    particles[i].position = {i * 0.9, i * 0.9, i * 0.9};
  }
  const CellBins bins(grid, particles);
  EXPECT_EQ(bins.total(), 10u);
  std::size_t counted = 0;
  for (int c = 0; c < grid.num_cells(); ++c) counted += bins.cell(c).size();
  EXPECT_EQ(counted, 10u);
}

TEST(CellBins, BinsSortedByParticleId) {
  const CellGrid grid(Box::cubic(10.0), 2.5);
  // Three particles in the same cell inserted in reverse id order.
  ParticleVector particles(3);
  particles[0] = particle_at(30, {1.0, 1.0, 1.0});
  particles[1] = particle_at(10, {1.1, 1.0, 1.0});
  particles[2] = particle_at(20, {1.2, 1.0, 1.0});
  const CellBins bins(grid, particles);
  const auto cell = bins.cell(grid.cell_of_position({1.0, 1.0, 1.0}));
  ASSERT_EQ(cell.size(), 3u);
  EXPECT_EQ(particles[cell[0]].id, 10);
  EXPECT_EQ(particles[cell[1]].id, 20);
  EXPECT_EQ(particles[cell[2]].id, 30);
}

TEST(CellBins, EmptyCellsCount) {
  const CellGrid grid(Box::cubic(10.0), 2.5);  // 64 cells
  ParticleVector particles(2);
  particles[0] = particle_at(0, {0.5, 0.5, 0.5});
  particles[1] = particle_at(1, {0.6, 0.5, 0.5});  // same cell
  const CellBins bins(grid, particles);
  EXPECT_EQ(bins.empty_cells(), 63);
  EXPECT_EQ(bins.num_cells(), 64);
}

TEST(CellBins, RebuildReflectsMovement) {
  const CellGrid grid(Box::cubic(10.0), 2.5);
  ParticleVector particles(1);
  particles[0] = particle_at(0, {0.5, 0.5, 0.5});
  CellBins bins(grid, particles);
  EXPECT_EQ(bins.cell(grid.cell_of_position({0.5, 0.5, 0.5})).size(), 1u);
  particles[0].position = {9.5, 9.5, 9.5};
  bins.rebuild(grid, particles);
  EXPECT_EQ(bins.cell(grid.cell_of_position({0.5, 0.5, 0.5})).size(), 0u);
  EXPECT_EQ(bins.cell(grid.cell_of_position({9.5, 9.5, 9.5})).size(), 1u);
}

}  // namespace
}  // namespace pcmd::md
