// TSan-targeted stress for the engine's worker threads, with more ranks than
// workers so every helper runs a multi-rank block: many short phases
// (barrier churn), exception paths (the helpers must survive a throwing
// phase body), concurrent all-to-all mailbox traffic, and a 4096-rank ring
// on the hardware's worker count. The suite is labelled `tsan` in
// tests/CMakeLists.txt so the sanitizer matrix runs it under
// -fsanitize=thread.
#include "sim/checker.hpp"
#include "sim/comm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

namespace pcmd::sim {
namespace {

constexpr int kWorkers = 3;

Buffer payload_of(double value) {
  Packer packer;
  packer.put<double>(value);
  return packer.take();
}

TEST(ThreadStress, ManyShortPhases) {
  // Phase wake/sleep churn: the generation-counter barrier runs 500 times
  // with near-empty bodies, the worst case for dispatch races.
  Engine engine(64, MachineModel::t3e(), kWorkers);
  ASSERT_EQ(engine.workers(), kWorkers);
  std::atomic<int> executions{0};
  for (int phase = 0; phase < 500; ++phase) {
    engine.run_phase([&](Comm& comm) {
      comm.advance(1e-9);
      executions.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(executions.load(), 64 * 500);
  EXPECT_EQ(engine.current_phase(), 500);
}

TEST(ThreadStress, PoolSurvivesThrowingPhaseBody) {
  Engine engine(64, MachineModel::t3e(), kWorkers);
  for (int round = 0; round < 20; ++round) {
    // Walks the thrower through every block, the calling thread's included.
    const int thrower = (round * 7) % engine.size();
    EXPECT_THROW(engine.run_phase([thrower](Comm& comm) {
      if (comm.rank() == thrower) {
        throw std::runtime_error("phase body failure");
      }
      comm.advance(1e-9);
    }),
                 std::runtime_error);
    // The workers must be fully reusable right after the rethrow.
    std::atomic<int> alive{0};
    engine.run_phase([&](Comm&) { alive.fetch_add(1); });
    EXPECT_EQ(alive.load(), 64);
  }
}

TEST(ThreadStress, FirstOfConcurrentExceptionsWins) {
  // Every rank throws; exactly one exception surfaces — rank 0's, the
  // lowest — and the workers must not deadlock waiting for the others.
  Engine engine(64, MachineModel::t3e(), kWorkers);
  for (int round = 0; round < 20; ++round) {
    try {
      engine.run_phase([](Comm& comm) {
        throw std::runtime_error("rank " + std::to_string(comm.rank()));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank 0");
    }
  }
  std::atomic<int> alive{0};
  engine.run_phase([&](Comm&) { alive.fetch_add(1); });
  EXPECT_EQ(alive.load(), 64);
}

TEST(ThreadStress, ConcurrentAllToAllMailboxTraffic) {
  // Every rank sends to every rank each round; mailboxes see concurrent
  // producers while consumers drain the previous round.
  const int ranks = 64;
  Engine engine(ranks, MachineModel::t3e(), kWorkers);
  for (int round = 0; round < 10; ++round) {
    engine.run_phase([round, ranks](Comm& comm) {
      for (int dst = 0; dst < ranks; ++dst) {
        comm.send(dst, round, payload_of(comm.rank() * 1000.0 + dst));
      }
    });
    engine.run_phase([round, ranks](Comm& comm) {
      double sum = 0.0;
      for (int src = 0; src < ranks; ++src) {
        Unpacker unpacker(comm.recv(src, round));
        sum += unpacker.get<double>();
      }
      // Sum of src*1000 + my rank over all sources.
      const double expected =
          1000.0 * (ranks * (ranks - 1) / 2) + ranks * comm.rank();
      if (sum != expected) throw std::logic_error("corrupted traffic");
    });
  }
  SUCCEED();
}

TEST(ThreadStress, CollectivesUnderConcurrency) {
  const int ranks = 64;
  Engine engine(ranks, MachineModel::t3e(), kWorkers);
  for (int round = 0; round < 50; ++round) {
    engine.run_phase([](Comm& comm) {
      comm.advance(1e-7 * (comm.rank() + 1));
      comm.reduce_begin(ReduceOp::kSum, 1.0);
    });
    engine.run_phase([ranks](Comm& comm) {
      const double total = comm.reduce_end();
      if (total != static_cast<double>(ranks)) {
        throw std::logic_error("bad reduction");
      }
    });
  }
  SUCCEED();
}

TEST(ThreadStress, RingAndCollectiveAt4096Ranks) {
  // A 512-4096-PE study needs thousands of ranks on a handful of threads:
  // ThreadEngine caps its workers at the hardware's, never one per rank.
  const int ranks = 4096;
  ThreadEngine engine(ranks);
  ASSERT_LE(engine.workers(),
            std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  for (int round = 0; round < 3; ++round) {
    engine.run_phase([round](Comm& comm) {
      comm.advance(1e-6);
      comm.send((comm.rank() + 1) % comm.size(), round,
                payload_of(static_cast<double>(comm.rank())));
    });
    engine.run_phase([round](Comm& comm) {
      const int left = (comm.rank() + comm.size() - 1) % comm.size();
      Unpacker unpacker(comm.recv(left, round));
      if (unpacker.get<double>() != static_cast<double>(left)) {
        throw std::logic_error("ring payload from the wrong rank");
      }
      comm.reduce_begin(ReduceOp::kSum, 1.0);
    });
    engine.run_phase([ranks](Comm& comm) {
      if (comm.reduce_end() != static_cast<double>(ranks)) {
        throw std::logic_error("bad reduction");
      }
    });
  }
  // The collective synchronised every clock to the same makespan.
  for (int r = 1; r < ranks; ++r) ASSERT_EQ(engine.clock(r), engine.clock(0));
}

#if PCMD_CHECKER_ENABLED
TEST(ThreadStress, CheckerHooksRaceFree) {
  // All ranks hammer the checker concurrently; under TSan this validates the
  // checker's internal locking.
  ProtocolChecker checker;
  Engine engine(16, MachineModel::t3e(), kWorkers);
  engine.set_checker(&checker);
  for (int round = 0; round < 20; ++round) {
    engine.run_phase([round](Comm& comm) {
      for (int dst = 0; dst < comm.size(); ++dst) {
        comm.send(dst, round, payload_of(1.0));
      }
      comm.reduce_begin(ReduceOp::kSum, 1.0);
    });
    engine.run_phase([round](Comm& comm) {
      for (int src = 0; src < comm.size(); ++src) {
        (void)comm.recv(src, round);
      }
      (void)comm.reduce_end();
    });
  }
  EXPECT_TRUE(checker.report().ok()) << checker.report().to_string();
  engine.set_checker(nullptr);
}
#endif  // PCMD_CHECKER_ENABLED

}  // namespace
}  // namespace pcmd::sim
