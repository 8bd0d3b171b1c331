#include "ddm/slab_md.hpp"

#include "md/serial_md.hpp"
#include "sim/checker.hpp"
#include "support/engines.hpp"
#include "support/test_workloads.hpp"
#include "util/rng.hpp"
#include "workload/gas.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace pcmd::ddm {
namespace {

SlabMdConfig small_config(bool shift = false) {
  SlabMdConfig config;
  config.pe_count = 4;
  config.cells_per_axis = 8;
  config.cutoff = 2.5;
  config.dt = 0.004;
  config.shift_enabled = shift;
  return config;
}

Box small_box() { return Box::cubic(20.0); }  // 8 cells of edge 2.5

md::ParticleVector small_gas(int n = 400, std::uint64_t seed = 3) {
  pcmd::Rng rng(seed);
  workload::GasConfig gas;
  gas.temperature = 0.722;
  return workload::random_gas(n, small_box(), gas, rng);
}

TEST(SlabMd, RejectsBadConfigs) {
  {
    sim::SeqEngine engine(2);
    SlabMdConfig config = small_config();
    config.pe_count = 2;
    const auto gas = small_gas(10);
    EXPECT_THROW(SlabMd(EngineConfig{.engine = &engine, .box = small_box(),
                                     .initial = &gas},
                        config),
                 std::invalid_argument);
  }
  {
    sim::SeqEngine engine(3);
    const auto gas = small_gas(10);
    EXPECT_THROW(SlabMd(EngineConfig{.engine = &engine, .box = small_box(),
                                     .initial = &gas},
                        small_config()),
                 std::invalid_argument);  // engine size != pe_count
  }
  {
    sim::SeqEngine engine(10);
    SlabMdConfig config = small_config();
    config.pe_count = 10;  // more PEs than the 8 layers
    const auto gas = small_gas(10);
    EXPECT_THROW(SlabMd(EngineConfig{.engine = &engine, .box = small_box(),
                                     .initial = &gas},
                        config),
                 std::invalid_argument);
  }
}

TEST(SlabMd, InitialPartitionEven) {
  sim::SeqEngine engine(4);
  const auto gas = small_gas();
  SlabMd slab(EngineConfig{.engine = &engine, .box = small_box(),
                           .initial = &gas},
              small_config());
  for (int r = 0; r < 4; ++r) {
    const auto [lo, hi] = slab.slab_range(r);
    EXPECT_EQ(hi - lo, 2) << "rank " << r;
  }
  EXPECT_TRUE(slab.check_partition());
}

TEST(SlabMd, ParticleCountConserved) {
  sim::SeqEngine engine(4);
  const auto gas = small_gas();
  SlabMd slab(EngineConfig{.engine = &engine, .box = small_box(),
                           .initial = &gas},
              small_config(true));
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(slab.step().total_particles, 400);
  }
  EXPECT_EQ(slab.gather_particles().size(), 400u);
}

TEST(SlabMd, MatchesSerialBitwiseWithoutThermostat) {
  auto initial = small_gas();
  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cutoff = 2.5;
  serial_config.cells_per_axis = 8;
  md::SerialMd serial(small_box(), initial, serial_config);

  sim::SeqEngine engine(4);
  SlabMd slab(EngineConfig{.engine = &engine, .box = small_box(),
                           .initial = &initial},
              small_config(false));

  serial.run(20);
  slab.run(20);
  const auto par = slab.gather_particles();
  const auto& ser = serial.particles();
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i].position.x, ser[i].position.x) << "particle " << i;
    EXPECT_EQ(par[i].velocity.y, ser[i].velocity.y);
  }
}

TEST(SlabMd, MatchesSerialBitwiseWithShiftingEnabled) {
  auto initial = small_gas(400, 7);
  md::SerialMdConfig serial_config;
  serial_config.dt = 0.004;
  serial_config.cutoff = 2.5;
  serial_config.cells_per_axis = 8;
  md::SerialMd serial(small_box(), initial, serial_config);

  sim::SeqEngine engine(4);
  SlabMd slab(EngineConfig{.engine = &engine, .box = small_box(),
                           .initial = &initial},
              small_config(true));
  serial.run(20);
  slab.run(20);
  const auto par = slab.gather_particles();
  const auto& ser = serial.particles();
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i].position.x, ser[i].position.x) << "particle " << i;
  }
  EXPECT_TRUE(slab.check_partition());
}

TEST(SlabMd, PartitionInvariantsHoldUnderShifting) {
  // A strongly left-concentrated state forces boundary shifts.
  const auto initial =
      pcmd::testing::concentrated_lattice(600, small_box(), 0.75, 0.25);

  sim::SeqEngine engine(4);
  SlabMdConfig config = small_config(true);
  SlabMd slab(EngineConfig{.engine = &engine, .box = small_box(),
                           .initial = &initial},
              config);
  int shifts = 0;
  for (int i = 0; i < 30; ++i) {
    shifts += slab.step().shifts;
    std::string error;
    ASSERT_TRUE(slab.check_partition(&error)) << "step " << i << ": " << error;
  }
  EXPECT_GT(shifts, 0);
}

TEST(SlabMd, ShiftingReducesImbalanceOnConcentratedLoad) {
  const auto initial =
      pcmd::testing::concentrated_lattice(800, small_box(), 0.8, 0.3);

  auto imbalance = [&](bool shift) {
    sim::SeqEngine engine(4);
    SlabMdConfig config = small_config(shift);
    SlabMd slab(EngineConfig{.engine = &engine, .box = small_box(),
                             .initial = &initial},
                config);
    SlabStepStats stats{};
    for (int i = 0; i < 25; ++i) stats = slab.step();
    return (stats.force_max - stats.force_min) /
           std::max(stats.force_avg, 1e-30);
  };
  EXPECT_LT(imbalance(true), imbalance(false));
}

TEST(SlabMd, StaticSlabsNeverShift) {
  sim::SeqEngine engine(4);
  const auto gas = small_gas();
  SlabMd slab(EngineConfig{.engine = &engine, .box = small_box(),
                           .initial = &gas},
              small_config(false));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(slab.step().shifts, 0);
  }
  for (int r = 0; r < 4; ++r) {
    const auto [lo, hi] = slab.slab_range(r);
    EXPECT_EQ(hi - lo, 2);
  }
}

TEST(SlabMd, ProtocolAndHappensBeforeCleanUnderShifting) {
  // The whole slab protocol — info exchange, boundary shifts with layer
  // hand-off, migration, halo — under the protocol checker's happens-before
  // detector, on both engines. Every cross-rank touch point is stamped
  // (PCMD_HB_ACCESS), so any unordered access would surface here; a
  // concentrated load guarantees real shifts are exercised.
  const auto initial =
      pcmd::testing::concentrated_lattice(600, small_box(), 0.75, 0.25);
  for (const auto& engine : pcmd::testing::parity_engines(4)) {
    sim::ProtocolChecker checker;
    engine->set_checker(&checker);  // before construction: init halo counts
    SlabMd slab(EngineConfig{.engine = engine.get(), .box = small_box(),
                             .initial = &initial},
                small_config(true));
    int shifts = 0;
    for (int i = 0; i < 12; ++i) shifts += slab.step().shifts;
    EXPECT_GT(shifts, 0);  // layer hand-off stamps were actually exercised
    const auto report = checker.report();
    EXPECT_TRUE(report.ok()) << engine->workers()
                             << " workers: " << report.to_string();
    engine->set_checker(nullptr);
  }
}

TEST(SlabMd, ForceStatisticsOrdered) {
  sim::SeqEngine engine(4);
  const auto gas = small_gas();
  SlabMd slab(EngineConfig{.engine = &engine, .box = small_box(),
                           .initial = &gas},
              small_config(true));
  const auto stats = slab.step();
  EXPECT_GE(stats.t_step, stats.force_max);
  EXPECT_GE(stats.force_max, stats.force_avg);
  EXPECT_GE(stats.force_avg, stats.force_min);
}

TEST(SlabMd, WorksOnThreadBackend) {
  auto initial = small_gas(300, 9);
  const auto engines = pcmd::testing::parity_engines(4);
  std::vector<std::unique_ptr<SlabMd>> slabs;
  for (const auto& engine : engines) {
    slabs.push_back(std::make_unique<SlabMd>(
        EngineConfig{.engine = engine.get(), .box = small_box(),
                     .initial = &initial},
        small_config(true)));
  }
  for (int i = 0; i < 10; ++i) {
    const auto seq = slabs[0]->step();
    for (std::size_t e = 1; e < slabs.size(); ++e) {
      const auto other = slabs[e]->step();
      ASSERT_EQ(seq.potential_energy, other.potential_energy) << e;
      ASSERT_EQ(seq.t_step, other.t_step) << e;
    }
  }
}

}  // namespace
}  // namespace pcmd::ddm
