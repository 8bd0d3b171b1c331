#include "md/cell_grid.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

namespace pcmd::md {

namespace {
int wrap_index(int v, int dim) {
  int w = v % dim;
  if (w < 0) w += dim;
  return w;
}

int dims_from_edge(double length, double min_edge) {
  if (min_edge <= 0.0) {
    throw std::invalid_argument("CellGrid: min_cell_edge must be positive");
  }
  // A tiny epsilon keeps L = k * r_c from producing k-1 cells through
  // floating-point noise.
  const int n = static_cast<int>(std::floor(length / min_edge + 1e-9));
  return std::max(n, 1);
}

std::shared_ptr<const StencilTable> build_stencil_table(int nx, int ny,
                                                        int nz) {
  auto table = std::make_shared<StencilTable>();
  const int cells = nx * ny * nz;
  table->storage.assign(static_cast<std::size_t>(cells) * table->width, -1);
  table->sizes.assign(cells, 0);
  std::vector<int> scratch;
  scratch.reserve(27);
  for (int flat = 0; flat < cells; ++flat) {
    const int cx = flat % nx;
    const int cy = (flat / nx) % ny;
    const int cz = flat / (nx * ny);
    scratch.clear();
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int wx = wrap_index(cx + dx, nx);
          const int wy = wrap_index(cy + dy, ny);
          const int wz = wrap_index(cz + dz, nz);
          scratch.push_back((wz * ny + wy) * nx + wx);
        }
      }
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    table->sizes[flat] = static_cast<std::uint16_t>(scratch.size());
    std::copy(scratch.begin(), scratch.end(),
              table->storage.begin() +
                  static_cast<std::size_t>(flat) * table->width);
  }
  return table;
}

// Process-wide stencil cache. The table is a pure function of the grid
// shape, so every CellGrid of the same (nx, ny, nz) shares one instance;
// entries live for the process (the set of distinct shapes is tiny). The
// mutex is only touched at grid construction, never during traversal.
std::shared_ptr<const StencilTable> acquire_stencils(int nx, int ny, int nz,
                                                     StencilSource source) {
  if (source == StencilSource::kPrivate) {
    return build_stencil_table(nx, ny, nz);
  }
  static std::mutex cache_mutex;
  static std::map<std::tuple<int, int, int>,
                  std::shared_ptr<const StencilTable>>
      cache;
  const std::scoped_lock lock(cache_mutex);
  auto& slot = cache[{nx, ny, nz}];
  if (!slot) slot = build_stencil_table(nx, ny, nz);
  return slot;
}
}  // namespace

CellGrid::CellGrid(const Box& box, double min_cell_edge, StencilSource source)
    : CellGrid(box, dims_from_edge(box.length.x, min_cell_edge),
               dims_from_edge(box.length.y, min_cell_edge),
               dims_from_edge(box.length.z, min_cell_edge), source) {}

CellGrid::CellGrid(const Box& box, int nx, int ny, int nz, StencilSource source)
    : box_(box), nx_(nx), ny_(ny), nz_(nz) {
  if (nx < 1 || ny < 1 || nz < 1) {
    throw std::invalid_argument("CellGrid: dimensions must be positive");
  }
  if (box.length.x <= 0.0 || box.length.y <= 0.0 || box.length.z <= 0.0) {
    throw std::invalid_argument("CellGrid: box lengths must be positive");
  }
  stencils_ = acquire_stencils(nx_, ny_, nz_, source);
}

Vec3 CellGrid::cell_edge() const {
  return {box_.length.x / nx_, box_.length.y / ny_, box_.length.z / nz_};
}

bool CellGrid::covers_cutoff(double cutoff) const {
  const Vec3 e = cell_edge();
  // With fewer than 3 cells per axis the deduplicated stencil still spans the
  // whole axis, so the coverage condition reduces to the edge length check.
  return e.x >= cutoff && e.y >= cutoff && e.z >= cutoff;
}

int CellGrid::flat_index(CellCoord c) const {
  c = wrap(c);
  return (c.z * ny_ + c.y) * nx_ + c.x;
}

CellCoord CellGrid::coord_of(int flat) const {
  if (flat < 0 || flat >= num_cells()) {
    throw std::out_of_range("CellGrid: flat index out of range");
  }
  return {flat % nx_, (flat / nx_) % ny_, flat / (nx_ * ny_)};
}

CellCoord CellGrid::wrap(CellCoord c) const {
  return {wrap_index(c.x, nx_), wrap_index(c.y, ny_), wrap_index(c.z, nz_)};
}

int CellGrid::cell_of_position(const Vec3& p) const {
  const CellCoord c = coord_of_position(p);
  return (c.z * ny_ + c.y) * nx_ + c.x;
}

std::span<const int> CellGrid::stencil(int flat) const {
  if (flat < 0 || flat >= num_cells()) {
    throw std::out_of_range("CellGrid: flat index out of range");
  }
  return {stencils_->storage.data() +
              static_cast<std::size_t>(flat) * stencils_->width,
          stencils_->sizes[flat]};
}

CellBins::CellBins(const CellGrid& grid, const ParticleVector& particles) {
  rebuild(grid, particles);
}

PCMD_HOT void CellBins::rebuild(const CellGrid& grid,
                                const ParticleVector& particles) {
  const int cells = grid.num_cells();
  scratch_counts_.assign(cells, 0);
  scratch_home_.resize(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const int c = grid.cell_of_position(particles[i].position);
    scratch_home_[i] = c;
    ++scratch_counts_[c];
  }
  offsets_.assign(cells + 1, 0);
  for (int c = 0; c < cells; ++c) {
    offsets_[c + 1] = offsets_[c] + scratch_counts_[c];
  }
  entries_.assign(particles.size(), 0);
  scratch_cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < particles.size(); ++i) {
    entries_[scratch_cursor_[scratch_home_[i]]++] = static_cast<std::int32_t>(i);
  }
  // Sort each bin by particle id for permutation-independent iteration.
  for (int c = 0; c < cells; ++c) {
    std::sort(entries_.begin() + offsets_[c], entries_.begin() + offsets_[c + 1],
              [&particles](std::int32_t a, std::int32_t b) {
                return particles[a].id < particles[b].id;
              });
  }
}

std::span<const std::int32_t> CellBins::cell(int flat) const {
  return {entries_.data() + offsets_[flat],
          static_cast<std::size_t>(offsets_[flat + 1] - offsets_[flat])};
}

int CellBins::empty_cells() const {
  int empty = 0;
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) {
    if (offsets_[c + 1] == offsets_[c]) ++empty;
  }
  return empty;
}

ForceResult accumulate_forces(ParticleVector& particles, const CellGrid& grid,
                              const CellBins& bins,
                              std::span<const int> target_cells,
                              const LennardJones& lj) {
  ForceResult result;
  const Box& box = grid.box();
  for (const int c : target_cells) {
    for (const std::int32_t pi : bins.cell(c)) {
      Particle& p = particles[pi];
      Vec3 force{};
      double pe = 0.0;
      double virial = 0.0;
      for (const int nc : grid.stencil(c)) {
        for (const std::int32_t qi : bins.cell(nc)) {
          const Particle& q = particles[qi];
          if (q.id == p.id) continue;
          const Vec3 d = minimum_image(p.position, q.position, box);
          const double r2 = norm2(d);
          ++result.pair_evaluations;
          if (r2 < lj.cutoff2()) {
            const double fov = lj.force_over_r(r2);
            force += d * fov;
            pe += 0.5 * lj.potential_r2(r2);
            // Pair virial r . F, half per targeted endpoint (each pair is
            // visited from both sides in this no-Newton's-third-law sweep).
            virial += 0.5 * fov * r2;
          }
        }
      }
      p.force = force;
      result.potential_energy += pe;
      result.virial += virial;
    }
  }
  return result;
}

namespace {
// min_image_component spelled as two selects. The comparisons and the
// arithmetic are the same (half == 0.5 * len, and -half == -0.5 * len
// exactly), so every input folds to the same bits; the select form is what
// lets the distance pass vectorise.
PCMD_HOT inline double fold_min_image(double d, double len, double half) {
  const double low = d < -half ? d + len : d;
  return d > half ? d - len : low;
}
}  // namespace

// SoA fast path, four passes per target cell:
//   1. gather the stencil's positions/ids from the AoS particles into
//      contiguous scratch, in sweep order (ascending stencil cell, id order
//      inside each bin);
//   2. per target particle, r2 to every candidate in one branch-free loop;
//   3. compact the candidates inside the cut-off with a different id,
//      keeping their order;
//   4. run the LJ kernel on the survivors and accumulate sequentially.
// Out-of-cutoff candidates contribute nothing in the reference, so skipping
// them leaves the accumulation sequence — and every sum — bitwise identical.
PCMD_HOT ForceResult accumulate_forces(ParticleVector& particles,
                                       const CellGrid& grid,
                                       const CellBins& bins,
                                       std::span<const int> target_cells,
                                       const LennardJones& lj,
                                       ForceWorkspace& workspace) {
  ForceResult result;
  const Vec3 len = grid.box().length;
  const Vec3 half = 0.5 * len;
  const double cutoff2 = lj.cutoff2();
  const std::span<const std::int32_t> entries = bins.entries();
  const std::span<const std::int32_t> offsets = bins.offsets();
  for (const int c : target_cells) {
    if (offsets[c] == offsets[c + 1]) continue;
    const std::span<const int> stencil = grid.stencil(c);
    std::size_t m = 0;
    for (const int nc : stencil) m += offsets[nc + 1] - offsets[nc];
    // Grow-only: capacity tracks the densest stencil seen so far.
    if (workspace.x_.size() < m) {
      workspace.x_.resize(m);
      workspace.y_.resize(m);
      workspace.z_.resize(m);
      workspace.id_.resize(m);
      workspace.r2_.resize(m);
      workspace.keep_.resize(m);
    }
    std::size_t slot = 0;
    for (const int nc : stencil) {
      for (std::int32_t e = offsets[nc]; e < offsets[nc + 1]; ++e, ++slot) {
        const Particle& q = particles[entries[e]];
        workspace.x_[slot] = q.position.x;
        workspace.y_[slot] = q.position.y;
        workspace.z_[slot] = q.position.z;
        workspace.id_[slot] = q.id;
      }
    }
    const double* const gx = workspace.x_.data();
    const double* const gy = workspace.y_.data();
    const double* const gz = workspace.z_.data();
    const std::int64_t* const gid = workspace.id_.data();
    double* const r2s = workspace.r2_.data();
    std::int32_t* const keep = workspace.keep_.data();
    for (std::int32_t si = offsets[c]; si < offsets[c + 1]; ++si) {
      Particle& p = particles[entries[si]];
      const double px = p.position.x;
      const double py = p.position.y;
      const double pz = p.position.z;
      const std::int64_t pid = p.id;
      for (std::size_t k = 0; k < m; ++k) {
        const double dx = fold_min_image(px - gx[k], len.x, half.x);
        const double dy = fold_min_image(py - gy[k], len.y, half.y);
        const double dz = fold_min_image(pz - gz[k], len.z, half.z);
        r2s[k] = dx * dx + dy * dy + dz * dz;
      }
      std::size_t survivors = 0;
      std::size_t same_id = 0;
      for (std::size_t k = 0; k < m; ++k) {
        const bool self = gid[k] == pid;
        keep[survivors] = static_cast<std::int32_t>(k);
        survivors += static_cast<std::size_t>((r2s[k] < cutoff2) & !self);
        same_id += static_cast<std::size_t>(self);
      }
      double fx = 0.0;
      double fy = 0.0;
      double fz = 0.0;
      double pe = 0.0;
      double virial = 0.0;
      for (std::size_t j = 0; j < survivors; ++j) {
        const std::int32_t k = keep[j];
        const double dx = fold_min_image(px - gx[k], len.x, half.x);
        const double dy = fold_min_image(py - gy[k], len.y, half.y);
        const double dz = fold_min_image(pz - gz[k], len.z, half.z);
        const double r2 = r2s[k];
        const PairKernelResult kern = lj.pair_kernel(r2);
        fx += dx * kern.force_over_r;
        fy += dy * kern.force_over_r;
        fz += dz * kern.force_over_r;
        pe += 0.5 * kern.potential;
        virial += 0.5 * kern.force_over_r * r2;
      }
      p.force = Vec3{fx, fy, fz};
      result.potential_energy += pe;
      result.virial += virial;
      // Every same-id slot is skipped and not counted, exactly as in the
      // reference sweep; everything else is one candidate pair.
      result.pair_evaluations += m - same_id;
    }
  }
  return result;
}

ForceResult accumulate_forces_naive(ParticleVector& particles, const Box& box,
                                    const LennardJones& lj) {
  ForceResult result;
  for (auto& p : particles) p.force = Vec3{};
  for (std::size_t i = 0; i < particles.size(); ++i) {
    for (std::size_t j = i + 1; j < particles.size(); ++j) {
      const Vec3 d =
          minimum_image(particles[i].position, particles[j].position, box);
      const double r2 = norm2(d);
      ++result.pair_evaluations;
      if (r2 < lj.cutoff2()) {
        const double fov = lj.force_over_r(r2);
        const Vec3 f = d * fov;
        particles[i].force += f;
        particles[j].force -= f;
        result.potential_energy += lj.potential_r2(r2);
        result.virial += fov * r2;
      }
    }
  }
  return result;
}

}  // namespace pcmd::md
