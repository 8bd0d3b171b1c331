// Engine semantics tests, parameterised over the worker count: every
// behaviour must be identical for SeqEngine (one worker), two and three
// workers, and ThreadEngine (min(hw, ranks) workers).
#include "sim/comm.hpp"
#include "sim/reliable.hpp"
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace pcmd::sim {
namespace {

// Which constructor builds the engine under test.
enum class Workers { kSeq, kThread, kTwo, kThree };

std::unique_ptr<Engine> make_engine(Workers workers, int ranks,
                                    MachineModel model = MachineModel::t3e()) {
  switch (workers) {
    case Workers::kSeq:
      return std::make_unique<SeqEngine>(ranks, std::move(model));
    case Workers::kThread:
      return std::make_unique<ThreadEngine>(ranks, std::move(model));
    case Workers::kTwo:
      return std::make_unique<Engine>(ranks, std::move(model), 2);
    case Workers::kThree:
      return std::make_unique<Engine>(ranks, std::move(model), 3);
  }
  return nullptr;
}

int hardware_workers() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

class EngineTest : public ::testing::TestWithParam<Workers> {};

TEST_P(EngineTest, RunsBodyOncePerRank) {
  // Rank counts the worker counts do not divide: uneven blocks.
  for (const int ranks : {1, 4, 5, 7}) {
    auto engine = make_engine(GetParam(), ranks);
    std::vector<int> hits(static_cast<std::size_t>(ranks), 0);
    std::mutex mutex;
    engine->run_phase([&](Comm& comm) {
      std::lock_guard lock(mutex);
      hits[static_cast<std::size_t>(comm.rank())]++;
    });
    EXPECT_EQ(hits, std::vector<int>(static_cast<std::size_t>(ranks), 1))
        << ranks << " ranks";
  }
}

TEST_P(EngineTest, WorkerCountIsClampedToRanks) {
  for (const int ranks : {1, 2, 5, 7}) {
    const int workers = make_engine(GetParam(), ranks)->workers();
    switch (GetParam()) {
      case Workers::kSeq: EXPECT_EQ(workers, 1); break;
      case Workers::kThread:
        EXPECT_EQ(workers, std::min(hardware_workers(), ranks));
        break;
      case Workers::kTwo: EXPECT_EQ(workers, std::min(2, ranks)); break;
      case Workers::kThree: EXPECT_EQ(workers, std::min(3, ranks)); break;
    }
  }
}

TEST_P(EngineTest, LowestThrowingRankSurfaces) {
  // Rank 3 and rank 6 fail differently in the same phase. Whatever the
  // worker count and schedule, the lowest-numbered thrower's exception is
  // the one rethrown, and the engine stays usable afterwards.
  auto engine = make_engine(GetParam(), 7);
  for (int round = 0; round < 50; ++round) {
    try {
      engine->run_phase([](Comm& comm) {
        if (comm.rank() == 3) throw ChecksumError("rank 3 checksum");
        if (comm.rank() == 6) throw PeerDeadError(6, 0, "rank 6 peer dead");
        comm.advance(1e-9);
      });
      FAIL() << "expected a throw";
    } catch (const ChecksumError& e) {
      EXPECT_STREQ(e.what(), "rank 3 checksum");
    } catch (const std::exception& e) {
      FAIL() << "round " << round << " surfaced \"" << e.what() << "\"";
    }
    std::atomic<int> ran{0};
    engine->run_phase([&](Comm&) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 7);
  }
}

TEST_P(EngineTest, AdvanceAccumulatesClock) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) { comm.advance(1.5); });
  engine->run_phase([](Comm& comm) { comm.advance(0.5); });
  EXPECT_DOUBLE_EQ(engine->clock(0), 2.0);
  EXPECT_DOUBLE_EQ(engine->clock(1), 2.0);
  EXPECT_DOUBLE_EQ(engine->counters(0).compute_seconds, 2.0);
}

TEST_P(EngineTest, AdvanceRejectsNegative) {
  auto engine = make_engine(GetParam(), 1);
  EXPECT_THROW(
      engine->run_phase([](Comm& comm) { comm.advance(-1.0); }),
      std::invalid_argument);
}

TEST_P(EngineTest, SendThenRecvNextPhase) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      Packer p;
      p.put<int>(123);
      comm.send(1, /*tag=*/7, p.take());
    }
  });
  int received = 0;
  std::mutex mutex;
  engine->run_phase([&](Comm& comm) {
    if (comm.rank() == 1) {
      Unpacker u(comm.recv(0, 7));
      std::lock_guard lock(mutex);
      received = u.get<int>();
    }
  });
  EXPECT_EQ(received, 123);
}

TEST_P(EngineTest, RecvInSamePhaseAsSendThrows) {
  auto engine = make_engine(GetParam(), 2);
  // Rank 0 sends in this phase; rank 1 tries to receive in the same phase.
  // The BSP visibility rule forbids it regardless of execution order.
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      Packer p;
      p.put<int>(1);
      comm.send(1, 0, p.take());
    } else {
      comm.recv(0, 0);
    }
  }),
               ProtocolError);
}

TEST_P(EngineTest, RecvWithoutSendThrows) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm&) {});
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.recv(1, 99);
  }),
               ProtocolError);
}

TEST_P(EngineTest, TryRecvReturnsNulloptWhenEmpty) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    EXPECT_FALSE(comm.try_recv(0, 5).has_value());
  });
}

TEST_P(EngineTest, HasMessageAndSources) {
  auto engine = make_engine(GetParam(), 3);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() != 2) {
      Packer p;
      p.put<int>(comm.rank());
      comm.send(2, 4, p.take());
    }
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 2) {
      EXPECT_TRUE(comm.has_message(0, 4));
      EXPECT_TRUE(comm.has_message(1, 4));
      EXPECT_FALSE(comm.has_message(0, 5));
      EXPECT_EQ(comm.sources_with(4), (std::vector<int>{0, 1}));
      comm.recv(0, 4);
      comm.recv(1, 4);
    }
  });
}

TEST_P(EngineTest, MessagesMatchedByTagAndSourceInFifoOrder) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int v : {10, 20}) {
        Packer p;
        p.put<int>(v);
        comm.send(1, 1, p.take());
      }
      Packer other;
      other.put<int>(99);
      comm.send(1, 2, other.take());
    }
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) {
      Unpacker first(comm.recv(0, 1));
      EXPECT_EQ(first.get<int>(), 10);
      Unpacker tagged(comm.recv(0, 2));
      EXPECT_EQ(tagged.get<int>(), 99);
      Unpacker second(comm.recv(0, 1));
      EXPECT_EQ(second.get<int>(), 20);
    }
  });
}

TEST_P(EngineTest, RecvAdvancesClockToArrival) {
  MachineModel model;
  model.msg_latency = 1.0;
  model.hop_latency = 0.0;
  model.bandwidth = 1e30;
  model.collective_overhead = 0.0;
  auto engine = make_engine(GetParam(), 2, model);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.advance(5.0);
      comm.send(1, 0, Buffer{});
    }
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) {
      comm.recv(0, 0);
      // Arrival = sender clock (5.0) + latency (1.0).
      EXPECT_DOUBLE_EQ(comm.clock(), 6.0);
      EXPECT_DOUBLE_EQ(comm.counters().comm_wait_seconds, 6.0);
    }
  });
}

TEST_P(EngineTest, RecvDoesNotRewindClock) {
  MachineModel model = MachineModel::ideal_network();
  auto engine = make_engine(GetParam(), 2, model);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0, Buffer{});
    if (comm.rank() == 1) comm.advance(10.0);
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) {
      comm.recv(0, 0);
      EXPECT_DOUBLE_EQ(comm.clock(), 10.0);
      EXPECT_DOUBLE_EQ(comm.counters().comm_wait_seconds, 0.0);
    }
  });
}

TEST_P(EngineTest, SendToInvalidRankThrows) {
  auto engine = make_engine(GetParam(), 2);
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.send(5, 0, Buffer{});
  }),
               std::out_of_range);
}

TEST_P(EngineTest, CollectiveSumAcrossRanks) {
  auto engine = make_engine(GetParam(), 4);
  engine->run_phase([](Comm& comm) {
    comm.reduce_begin(ReduceOp::kSum, static_cast<double>(comm.rank() + 1));
  });
  std::vector<double> results(4, 0.0);
  std::mutex mutex;
  engine->run_phase([&](Comm& comm) {
    const double total = comm.reduce_end();
    std::lock_guard lock(mutex);
    results[comm.rank()] = total;
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 10.0);
}

TEST_P(EngineTest, CollectiveMaxAndMin) {
  auto engine = make_engine(GetParam(), 3);
  engine->run_phase([](Comm& comm) {
    const double v[2] = {static_cast<double>(comm.rank()),
                         static_cast<double>(comm.rank())};
    comm.collective_begin(ReduceOp::kMax, std::span<const double>(v, 1));
    comm.collective_begin(ReduceOp::kMin, std::span<const double>(v + 1, 1));
  });
  engine->run_phase([](Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.collective_end().at(0), 2.0);
    EXPECT_DOUBLE_EQ(comm.collective_end().at(0), 0.0);
  });
}

TEST_P(EngineTest, CollectiveVectorWidth) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    const double v[3] = {1.0 * comm.rank(), 2.0 * comm.rank(),
                         3.0 * comm.rank()};
    comm.collective_begin(ReduceOp::kSum, v);
  });
  engine->run_phase([](Comm& comm) {
    const auto out = comm.collective_end();
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], 1.0);
    EXPECT_DOUBLE_EQ(out[1], 2.0);
    EXPECT_DOUBLE_EQ(out[2], 3.0);
  });
}

TEST_P(EngineTest, CollectiveEndBeforeAllBeginThrows) {
  auto engine = make_engine(GetParam(), 2);
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.reduce_begin(ReduceOp::kSum, 1.0);
      comm.reduce_end();  // other rank has not begun yet
    } else {
      comm.reduce_begin(ReduceOp::kSum, 1.0);
    }
  }),
               ProtocolError);
}

TEST_P(EngineTest, CollectiveSynchronisesClocks) {
  MachineModel model = MachineModel::ideal_network();
  auto engine = make_engine(GetParam(), 2, model);
  engine->run_phase([](Comm& comm) {
    comm.advance(comm.rank() == 0 ? 1.0 : 9.0);
    comm.barrier_begin();
  });
  engine->run_phase([](Comm& comm) {
    comm.barrier_end();
    EXPECT_DOUBLE_EQ(comm.clock(), 9.0);
  });
}

TEST_P(EngineTest, BarrierCostCharged) {
  MachineModel model;
  model.msg_latency = 1.0;
  model.collective_overhead = 0.0;
  model.bandwidth = 1e30;
  model.hop_latency = 0.0;
  auto engine = make_engine(GetParam(), 4, model);  // log2(4) = 2 rounds
  engine->run_phase([](Comm& comm) { comm.barrier_begin(); });
  engine->run_phase([](Comm& comm) {
    comm.barrier_end();
    EXPECT_DOUBLE_EQ(comm.clock(), 2.0);
  });
}

TEST_P(EngineTest, MakespanAndAlign) {
  auto engine = make_engine(GetParam(), 3, MachineModel::ideal_network());
  engine->run_phase([](Comm& comm) { comm.advance(1.0 * comm.rank()); });
  EXPECT_DOUBLE_EQ(engine->makespan(), 2.0);
  engine->align_clocks();
  EXPECT_DOUBLE_EQ(engine->clock(0), 2.0);
  EXPECT_DOUBLE_EQ(engine->clock(1), 2.0);
}

TEST_P(EngineTest, CountersTrackTraffic) {
  auto engine = make_engine(GetParam(), 2);
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 0) {
      Buffer b(100);
      comm.send(1, 0, std::move(b));
    }
  });
  engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) comm.recv(0, 0);
  });
  EXPECT_EQ(engine->counters(0).messages_sent, 1u);
  EXPECT_EQ(engine->counters(0).bytes_sent, 100u);
  EXPECT_EQ(engine->counters(1).messages_received, 1u);
  EXPECT_EQ(engine->counters(1).bytes_received, 100u);
}

TEST_P(EngineTest, MachineReportAggregates) {
  auto engine = make_engine(GetParam(), 2, MachineModel::ideal_network());
  engine->run_phase([](Comm& comm) { comm.advance(2.0); });
  const MachineReport report = machine_report(*engine);
  EXPECT_EQ(report.ranks, 2);
  EXPECT_DOUBLE_EQ(report.makespan, 2.0);
  EXPECT_DOUBLE_EQ(report.total_compute, 4.0);
  EXPECT_DOUBLE_EQ(report.efficiency(), 1.0);
}

TEST_P(EngineTest, ExceptionInBodyPropagates) {
  auto engine = make_engine(GetParam(), 2);
  EXPECT_THROW(engine->run_phase([](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

TEST_P(EngineTest, RejectsZeroRanks) {
  EXPECT_THROW(make_engine(GetParam(), 0), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineTest,
                         ::testing::Values(Workers::kSeq, Workers::kThread,
                                           Workers::kTwo, Workers::kThree),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case Workers::kSeq: return "Seq";
                             case Workers::kThread: return "Thread";
                             case Workers::kTwo: return "W2";
                             case Workers::kThree: return "W3";
                           }
                           return "?";
                         });

TEST(EngineWorkers, RejectsZeroWorkers) {
  EXPECT_THROW(Engine(4, MachineModel::t3e(), 0), std::invalid_argument);
}

// Cross-worker-count equivalence: the same SPMD program must produce
// identical clocks and counters on every worker count.
TEST(EngineEquivalence, ClocksIdenticalAcrossBackends) {
  auto program = [](Engine& engine) {
    engine.run_phase([](Comm& comm) {
      comm.advance(0.25 * (comm.rank() + 1));
      const int dst = (comm.rank() + 1) % comm.size();
      Packer p;
      p.put<double>(comm.clock());
      comm.send(dst, 3, p.take());
    });
    engine.run_phase([](Comm& comm) {
      const int src = (comm.rank() + comm.size() - 1) % comm.size();
      comm.recv(src, 3);
      comm.reduce_begin(ReduceOp::kSum, comm.clock());
    });
    engine.run_phase([](Comm& comm) { comm.reduce_end(); });
  };
  SeqEngine seq(5);
  program(seq);
  for (const Workers workers :
       {Workers::kThread, Workers::kTwo, Workers::kThree}) {
    auto other = make_engine(workers, 5);
    program(*other);
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(seq.clock(r), other->clock(r)) << "rank " << r;
      EXPECT_EQ(seq.counters(r).compute_seconds,
                other->counters(r).compute_seconds);
      EXPECT_EQ(seq.counters(r).messages_sent,
                other->counters(r).messages_sent);
    }
  }
}

}  // namespace
}  // namespace pcmd::sim
