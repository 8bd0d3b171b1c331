// Protocol-checker tests: each violation class is seeded deliberately and
// the checker must (a) flag it with the right kind and provenance and
// (b) stay silent on the equivalent legal program.
#include "sim/checker.hpp"

#include "sim/comm.hpp"
#include "support/engines.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace pcmd::sim {
namespace {

using Kind = ProtocolViolation::Kind;

// ---- direct-hook tests: exercise the checker without an engine, so they
// ---- work regardless of PCMD_CHECKER_ENABLED.

TEST(Checker, CleanTraceReportsOk) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_send(0, 1, /*tag=*/7, /*phase=*/1, /*bytes=*/16);
  checker.on_phase_begin(2);
  checker.on_recv(1, 0, /*tag=*/7, /*recv_phase=*/2, /*sent_phase=*/1);
  const auto report = checker.report();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(checker.events_recorded(), 0u);
}

TEST(Checker, UnconsumedSendFlagged) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_send(0, 1, 7, 1, 16);
  const auto report = checker.report();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.count(Kind::kUnconsumedSend), 1u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front().rank, 0);   // sender provenance
  EXPECT_EQ(report.violations.front().phase, 1);
}

TEST(Checker, MissingSenderFlaggedAtReceiver) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(3);
  checker.on_recv_missing(/*dst=*/1, /*src=*/0, /*tag=*/9, /*phase=*/3);
  const auto report = checker.report();
  EXPECT_TRUE(report.has(Kind::kMissingSender));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().rank, 1);   // receiver provenance
  EXPECT_EQ(report.violations.front().phase, 3);
}

TEST(Checker, PartialCollectiveIsArityViolation) {
  ProtocolChecker checker;
  checker.on_attach(3);
  checker.on_phase_begin(1);
  // Only two of three ranks begin the collective: a future deadlock.
  checker.on_collective_begin(0, 1, /*op=*/0, /*width=*/1);
  checker.on_collective_begin(1, 1, /*op=*/0, /*width=*/1);
  const auto report = checker.report();
  EXPECT_TRUE(report.has(Kind::kCollectiveArity)) << report.to_string();
}

TEST(Checker, SilentRankDetectedViaAttachedRankCount) {
  // With attached_ranks known, a collective begun by every *observed* rank
  // is still incomplete if one rank never spoke at all.
  ProtocolChecker checker;
  checker.on_attach(4);
  checker.on_phase_begin(1);
  for (int r = 0; r < 3; ++r) checker.on_collective_begin(r, 1, 0, 1);
  for (int r = 0; r < 3; ++r) checker.on_collective_end(r, 2);
  EXPECT_TRUE(checker.report().has(Kind::kCollectiveArity));
}

TEST(Checker, CollectiveOpMismatchFlagged) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_collective_begin(0, 1, /*op=*/0, /*width=*/1);
  checker.on_collective_begin(1, 1, /*op=*/1, /*width=*/1);
  EXPECT_TRUE(checker.report().has(Kind::kCollectiveMismatch));
}

TEST(Checker, CollectiveWidthMismatchFlagged) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_collective_begin(0, 1, 0, /*width=*/1);
  checker.on_collective_begin(1, 1, 0, /*width=*/3);
  EXPECT_TRUE(checker.report().has(Kind::kCollectiveMismatch));
}

TEST(Checker, ClockRegressionFlagged) {
  ProtocolChecker checker;
  checker.on_attach(1);
  checker.on_clock(0, 5.0);
  checker.on_clock(0, 5.0);  // equal is fine
  EXPECT_TRUE(checker.report().ok());
  checker.on_clock(0, 4.0);  // backwards
  const auto report = checker.report();
  EXPECT_TRUE(report.has(Kind::kClockRegression));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().rank, 0);
}

TEST(Checker, NonNeighborSendFlaggedOnlyOutsideStencil) {
  ProtocolChecker::Options options;
  options.neighbor_torus = Torus2D(4, 4);
  ProtocolChecker checker(options);
  checker.on_attach(16);
  checker.on_phase_begin(1);
  // Rank 0 = (0,0); rank 5 = (1,1) is an 8-neighbour, rank 10 = (2,2) is not.
  checker.on_send(0, 5, 1, 1, 8);
  checker.on_phase_begin(2);
  checker.on_recv(5, 0, 1, 2, 1);
  EXPECT_TRUE(checker.report().ok());
  checker.on_phase_begin(3);
  checker.on_send(0, 10, 1, 3, 8);
  checker.on_phase_begin(4);
  checker.on_recv(10, 0, 1, 4, 3);
  const auto report = checker.report();
  EXPECT_TRUE(report.has(Kind::kNonNeighborMessage)) << report.to_string();
}

TEST(Checker, ExemptTagsSkipNeighborRule) {
  ProtocolChecker::Options options;
  options.neighbor_torus = Torus2D(4, 4);
  options.exempt_tags = {99};
  ProtocolChecker checker(options);
  checker.on_attach(16);
  checker.on_phase_begin(1);
  checker.on_send(10, 0, /*tag=*/99, 1, 8);  // gather-to-root style
  checker.on_phase_begin(2);
  checker.on_recv(0, 10, 99, 2, 1);
  EXPECT_TRUE(checker.report().ok());
}

TEST(Checker, RequireCleanThrowsWithFullReport) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_send(0, 1, 7, 1, 16);
  try {
    checker.require_clean();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("unconsumed-send"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checker, ResetForgetsTraceButKeepsAttachment) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_send(0, 1, 7, 1, 16);
  EXPECT_FALSE(checker.report().ok());
  checker.reset();
  EXPECT_TRUE(checker.report().ok());
  EXPECT_NO_THROW(checker.require_clean());
  // Still knows the rank count: a partial collective is again a violation.
  checker.on_phase_begin(2);
  checker.on_collective_begin(0, 2, 0, 1);
  EXPECT_TRUE(checker.report().has(Kind::kCollectiveArity));
}

// ---- happens-before detector (direct hooks) ----

TEST(CheckerHb, UnorderedWritesFlagged) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_access(0, HbObject("cell", 7), /*is_write=*/true, "dlb", 1);
  checker.on_access(1, HbObject("cell", 7), /*is_write=*/true, "dlb", 1);
  const auto report = checker.report();
  EXPECT_TRUE(report.has(Kind::kUnorderedAccess)) << report.to_string();
  EXPECT_EQ(report.count(Kind::kUnorderedAccess), 1u);  // one pair, once
  // Provenance: both ranks, the object, and the span site are named.
  const auto text = report.to_string();
  EXPECT_NE(text.find("cell/7"), std::string::npos) << text;
  EXPECT_NE(text.find("'dlb'"), std::string::npos) << text;
}

TEST(CheckerHb, MessageOrdersWriteBeforeWrite) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_access(0, HbObject("cell", 7), true, "dlb", 1);
  checker.on_send(0, 1, /*tag=*/3, /*phase=*/1, /*bytes=*/8);
  checker.on_phase_begin(2);
  checker.on_recv(1, 0, 3, /*recv_phase=*/2, /*sent_phase=*/1);
  checker.on_access(1, HbObject("cell", 7), true, "dlb", 2);
  const auto report = checker.report();
  EXPECT_FALSE(report.has(Kind::kUnorderedAccess)) << report.to_string();
}

TEST(CheckerHb, AccessAfterSendIsNotOrderedByIt) {
  // The message only carries what the sender had done by the send: a write
  // stamped AFTER the send races with the receiver even though a message
  // flowed between the ranks.
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_send(0, 1, 3, 1, 8);
  checker.on_access(0, HbObject("cell", 7), true, "dlb", 1);
  checker.on_phase_begin(2);
  checker.on_recv(1, 0, 3, 2, 1);
  checker.on_access(1, HbObject("cell", 7), true, "dlb", 2);
  EXPECT_TRUE(checker.report().has(Kind::kUnorderedAccess));
}

TEST(CheckerHb, ReadReadNeverConflicts) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_access(0, HbObject("cell", 7), /*is_write=*/false, "halo", 1);
  checker.on_access(1, HbObject("cell", 7), /*is_write=*/false, "halo", 1);
  EXPECT_TRUE(checker.report().ok());
}

TEST(CheckerHb, UnorderedReadWriteFlagged) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_access(0, HbObject("cell", 7), /*is_write=*/false, "halo", 1);
  checker.on_access(1, HbObject("cell", 7), /*is_write=*/true, "dlb", 1);
  EXPECT_TRUE(checker.report().has(Kind::kUnorderedAccess));
}

TEST(CheckerHb, SameRankAccessesAreProgramOrdered) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_access(0, HbObject("cell", 7), true, "dlb", 1);
  checker.on_access(0, HbObject("cell", 7), true, "dlb", 1);
  checker.on_access(0, HbObject("cell", 7), false, "halo", 1);
  EXPECT_TRUE(checker.report().ok());
}

TEST(CheckerHb, CollectiveOrdersAllRanks) {
  // A full begin/end cycle is an all-to-all edge: writes on opposite sides
  // of the barrier are ordered even with no point-to-point message.
  ProtocolChecker checker;
  checker.on_attach(3);
  checker.on_phase_begin(1);
  checker.on_access(2, HbObject("cell", 7), true, "dlb", 1);
  for (int r = 0; r < 3; ++r) checker.on_collective_begin(r, 1, 0, 1);
  checker.on_phase_begin(2);
  for (int r = 0; r < 3; ++r) checker.on_collective_end(r, 2);
  checker.on_access(0, HbObject("cell", 7), true, "dlb", 2);
  EXPECT_TRUE(checker.report().ok()) << checker.report().to_string();
}

TEST(CheckerHb, DifferentObjectsDoNotConflict) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_access(0, HbObject("cell", 1), true, "dlb", 1);
  checker.on_access(1, HbObject("cell", 2), true, "dlb", 1);
  checker.on_access(1, HbObject("halo", 1), true, "halo", 1);
  EXPECT_TRUE(checker.report().ok());
}

TEST(CheckerHb, DuplicatePairReportedOnce) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  for (int i = 0; i < 4; ++i) {
    checker.on_access(0, HbObject("cell", 7), true, "dlb", 1);
    checker.on_access(1, HbObject("cell", 7), true, "dlb", 1);
  }
  EXPECT_EQ(checker.report().count(Kind::kUnorderedAccess), 1u);
}

TEST(CheckerHb, ResetForgetsAccessHistory) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(1);
  checker.on_access(0, HbObject("cell", 7), true, "dlb", 1);
  checker.reset();
  checker.on_phase_begin(1);
  checker.on_access(1, HbObject("cell", 7), true, "dlb", 1);
  EXPECT_TRUE(checker.report().ok());
}

TEST(Checker, ReportFormatsKindRankPhase) {
  ProtocolChecker checker;
  checker.on_attach(2);
  checker.on_phase_begin(4);
  checker.on_recv_missing(1, 0, 9, 4);
  const auto text = checker.report().to_string();
  EXPECT_NE(text.find("missing-sender"), std::string::npos) << text;
  EXPECT_NE(text.find("rank=1"), std::string::npos) << text;
  EXPECT_NE(text.find("phase=4"), std::string::npos) << text;
}

#if PCMD_CHECKER_ENABLED

// ---- engine-driven tests: the hooks in the engines must feed the checker
// ---- the same trace the program actually executed.

Buffer small_payload() {
  Packer packer;
  packer.put<double>(1.0);
  return packer.take();
}

TEST(CheckerEngine, CleanSpmdProgramStaysClean) {
  ProtocolChecker checker;
  SeqEngine engine(4);
  engine.set_checker(&checker);
  engine.run_phase([](Comm& comm) {
    comm.advance(1e-6);
    comm.send((comm.rank() + 1) % comm.size(), /*tag=*/1, small_payload());
    comm.reduce_begin(ReduceOp::kSum, 1.0);
  });
  engine.run_phase([](Comm& comm) {
    (void)comm.recv((comm.rank() + comm.size() - 1) % comm.size(), 1);
    (void)comm.reduce_end();
  });
  EXPECT_TRUE(checker.report().ok()) << checker.report().to_string();
  engine.set_checker(nullptr);
}

TEST(CheckerEngine, LeakedMessageCaughtAtQuiescence) {
  ProtocolChecker checker;
  SeqEngine engine(2);
  engine.set_checker(&checker);
  engine.run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, /*tag=*/5, small_payload());
  });
  engine.run_phase([](Comm&) {});  // nobody receives it
  const auto report = checker.report();
  EXPECT_TRUE(report.has(Kind::kUnconsumedSend)) << report.to_string();
  engine.set_checker(nullptr);
}

TEST(CheckerEngine, RecvWithoutSenderThrowsAndIsRecorded) {
  ProtocolChecker checker;
  SeqEngine engine(2);
  engine.set_checker(&checker);
  engine.run_phase([](Comm& comm) {
    if (comm.rank() == 1) {
      EXPECT_THROW((void)comm.recv(0, /*tag=*/3), ProtocolError);
    }
  });
  EXPECT_TRUE(checker.report().has(Kind::kMissingSender));
  engine.set_checker(nullptr);
}

TEST(CheckerEngine, PartialBarrierCaught) {
  ProtocolChecker checker;
  SeqEngine engine(3);
  engine.set_checker(&checker);
  engine.run_phase([](Comm& comm) {
    if (comm.rank() != 2) comm.barrier_begin();
  });
  EXPECT_TRUE(checker.report().has(Kind::kCollectiveArity));
  engine.set_checker(nullptr);
}

TEST(CheckerEngine, NonNeighborTrafficCaughtOnTorus) {
  ProtocolChecker::Options options;
  options.neighbor_torus = Torus2D(4, 4);
  ProtocolChecker checker(options);
  SeqEngine engine(16);
  engine.set_checker(&checker);
  engine.run_phase([](Comm& comm) {
    if (comm.rank() == 0) comm.send(10, /*tag=*/2, small_payload());
  });
  engine.run_phase([](Comm& comm) {
    if (comm.rank() == 10) (void)comm.recv(0, 2);
  });
  EXPECT_TRUE(checker.report().has(Kind::kNonNeighborMessage));
  engine.set_checker(nullptr);
}

TEST(CheckerEngine, SeededProtocolRaceFlaggedOnBothEngines) {
  // Ranks 1 and 3 both write logical object "cell/5" with no message or
  // collective between them — a protocol race the mailbox mutex would
  // happily serialize. Both engines must flag it, with identical reports
  // (detection depends only on the message graph, not the schedule).
  std::vector<std::string> reports;
  for (const auto& engine : pcmd::testing::parity_engines(4)) {
    ProtocolChecker checker;
    engine->set_checker(&checker);
    engine->run_phase([](Comm& comm) {
      if (comm.rank() == 1 || comm.rank() == 3) {
        PCMD_HB_ACCESS(comm, "cell", 5, /*is_write=*/true, "dlb");
      }
    });
    engine->run_phase([](Comm&) {});
    const auto report = checker.report();
    EXPECT_EQ(report.count(Kind::kUnorderedAccess), 1u) << report.to_string();
    reports.push_back(report.to_string());
    engine->set_checker(nullptr);
  }
  for (const auto& report : reports) EXPECT_EQ(report, reports[0]);
}

TEST(CheckerEngine, MessageOrderedAccessesStayCleanOnBothEngines) {
  // Same two touches, but a message from rank 1 to rank 3 between them:
  // the canonical ownership hand-off. Must be silent on both engines.
  for (const auto& engine : pcmd::testing::parity_engines(4)) {
    ProtocolChecker checker;
    engine->set_checker(&checker);
    engine->run_phase([](Comm& comm) {
      if (comm.rank() == 1) {
        PCMD_HB_ACCESS(comm, "cell", 5, /*is_write=*/true, "dlb");
        comm.send(3, /*tag=*/1, small_payload());
      }
    });
    engine->run_phase([](Comm& comm) {
      if (comm.rank() == 3) {
        (void)comm.recv(1, 1);
        PCMD_HB_ACCESS(comm, "cell", 5, /*is_write=*/true, "dlb");
      }
    });
    const auto report = checker.report();
    EXPECT_TRUE(report.ok()) << engine->workers()
                             << " workers: " << report.to_string();
    engine->set_checker(nullptr);
  }
}

TEST(CheckerEngine, BarrierOrdersAccessesAcrossRanks) {
  for (const auto& engine : pcmd::testing::parity_engines(4)) {
    ProtocolChecker checker;
    engine->set_checker(&checker);
    engine->run_phase([](Comm& comm) {
      if (comm.rank() == 1) {
        PCMD_HB_ACCESS(comm, "cell", 5, /*is_write=*/true, "force");
      }
      comm.barrier_begin();
    });
    engine->run_phase([](Comm& comm) {
      comm.barrier_end();
      if (comm.rank() == 3) {
        PCMD_HB_ACCESS(comm, "cell", 5, /*is_write=*/true, "force");
      }
    });
    const auto report = checker.report();
    EXPECT_TRUE(report.ok()) << report.to_string();
    engine->set_checker(nullptr);
  }
}

TEST(CheckerEngine, ThreadedEngineFeedsCheckerSafely) {
  // Exercises the checker's mutex from concurrent ranks; correctness of the
  // trace is asserted via the final report.
  ProtocolChecker checker;
  ThreadEngine engine(8);
  engine.set_checker(&checker);
  for (int round = 0; round < 10; ++round) {
    engine.run_phase([round](Comm& comm) {
      comm.advance(1e-6);
      comm.send((comm.rank() + 1) % comm.size(), round, small_payload());
      comm.reduce_begin(ReduceOp::kMax, comm.clock());
    });
    engine.run_phase([round](Comm& comm) {
      (void)comm.recv((comm.rank() + comm.size() - 1) % comm.size(), round);
      (void)comm.reduce_end();
    });
  }
  EXPECT_TRUE(checker.report().ok()) << checker.report().to_string();
  EXPECT_GT(checker.events_recorded(), 0u);
  engine.set_checker(nullptr);
}

#endif  // PCMD_CHECKER_ENABLED

}  // namespace
}  // namespace pcmd::sim
