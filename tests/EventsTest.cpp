//===- tests/EventsTest.cpp - Event model and trace infrastructure --------===//

#include "events/Event.h"
#include "events/Trace.h"
#include "events/TraceBuilder.h"
#include "events/TraceGen.h"
#include "events/TraceText.h"

#include <gtest/gtest.h>

namespace velo {
namespace {

TEST(EventTest, FactoriesCarryKindThreadTarget) {
  Event E = Event::read(3, 7);
  EXPECT_EQ(E.Kind, Op::Read);
  EXPECT_EQ(E.Thread, 3u);
  EXPECT_EQ(E.var(), 7u);

  EXPECT_EQ(Event::acquire(1, 2).lock(), 2u);
  EXPECT_EQ(Event::begin(0, 9).label(), 9u);
  EXPECT_EQ(Event::fork(0, 4).child(), 4u);
  EXPECT_EQ(Event::join(0, 4).child(), 4u);
  EXPECT_EQ(Event::end(5).Thread, 5u);
}

TEST(EventTest, ConflictSameVariableNeedsAWrite) {
  Event R1 = Event::read(0, 1), R2 = Event::read(1, 1);
  Event W = Event::write(2, 1);
  EXPECT_FALSE(conflicts(R1, R2)); // read-read does not conflict
  EXPECT_TRUE(conflicts(R1, W));
  EXPECT_TRUE(conflicts(W, R2));
  EXPECT_TRUE(conflicts(W, Event::write(3, 1)));
  EXPECT_FALSE(conflicts(W, Event::write(3, 2))); // different variable
}

TEST(EventTest, ConflictSameLockAndSameThread) {
  EXPECT_TRUE(conflicts(Event::acquire(0, 5), Event::release(1, 5)));
  EXPECT_FALSE(conflicts(Event::acquire(0, 5), Event::release(1, 6)));
  // Same thread: everything conflicts, even begin/end.
  EXPECT_TRUE(conflicts(Event::begin(2, 0), Event::read(2, 9)));
  EXPECT_TRUE(conflicts(Event::end(2), Event::end(2)));
}

TEST(EventTest, ForkJoinConflictWithChildOperations) {
  Event F = Event::fork(0, 3), J = Event::join(0, 3);
  Event ChildOp = Event::write(3, 1);
  Event OtherOp = Event::write(4, 1);
  EXPECT_TRUE(conflicts(F, ChildOp));
  EXPECT_TRUE(conflicts(J, ChildOp));
  EXPECT_FALSE(conflicts(F, OtherOp));
}

TEST(TraceTest, BuilderProducesWellFormedTrace) {
  TraceBuilder B;
  B.begin(0, "Set.add")
      .acq(0, "elems")
      .rd(0, "elems.size")
      .rel(0, "elems")
      .end(0)
      .wr(1, "other");
  Trace T = B.take();
  ASSERT_EQ(T.size(), 6u);
  std::vector<std::string> Errors;
  EXPECT_TRUE(T.validate(&Errors)) << (Errors.empty() ? "" : Errors[0]);
  EXPECT_EQ(T.numThreads(), 2u);
  EXPECT_EQ(T.describe(size_t{0}), "T0: begin Set.add");
  EXPECT_EQ(T.describe(size_t{5}), "T1: wr other");
}

TEST(TraceTest, ValidateCatchesEndWithoutBegin) {
  TraceBuilder B;
  B.end(0);
  std::vector<std::string> Errors;
  EXPECT_FALSE(B.trace().validate(&Errors));
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("end without matching begin"), std::string::npos);
}

TEST(TraceTest, ValidateCatchesLockMisuse) {
  {
    TraceBuilder B;
    B.acq(0, "m").acq(1, "m"); // second acquire while held
    EXPECT_FALSE(B.trace().validate());
  }
  {
    TraceBuilder B;
    B.acq(0, "m").acq(0, "m"); // re-entrant acquire must be pre-filtered
    EXPECT_FALSE(B.trace().validate());
  }
  {
    TraceBuilder B;
    B.rel(0, "m"); // release without holding
    EXPECT_FALSE(B.trace().validate());
  }
  {
    TraceBuilder B;
    B.acq(0, "m").rel(1, "m"); // release by non-holder
    EXPECT_FALSE(B.trace().validate());
  }
}

TEST(TraceTest, ValidateCatchesForkJoinMisuse) {
  {
    TraceBuilder B;
    B.wr(1, "x").fork(0, 1); // child ran before fork
    EXPECT_FALSE(B.trace().validate());
  }
  {
    TraceBuilder B;
    B.fork(0, 1).join(0, 1).wr(1, "x"); // child acts after join
    EXPECT_FALSE(B.trace().validate());
  }
  {
    TraceBuilder B;
    B.fork(0, 1).fork(0, 1); // double fork
    EXPECT_FALSE(B.trace().validate());
  }
  {
    TraceBuilder B;
    B.fork(0, 1).wr(1, "x").join(0, 1);
    EXPECT_TRUE(B.trace().validate());
  }
}

TEST(TraceTest, DanglingBlocksAndHeldLocksAreAllowed) {
  // The paper allows transactions to run to the end of the trace.
  TraceBuilder B;
  B.begin(0, "m").rd(0, "x").acq(1, "lock");
  EXPECT_TRUE(B.trace().validate());
}

TEST(TraceTextTest, RoundTripPreservesEventsAndNames) {
  TraceBuilder B;
  B.fork(0, 1)
      .begin(0, "main.work")
      .acq(0, "mu")
      .wr(0, "shared.count")
      .rel(0, "mu")
      .end(0)
      .rd(1, "shared.count")
      .join(0, 1);
  Trace T = B.take();

  std::string Text = printTrace(T);
  Trace Parsed;
  std::string Error;
  ASSERT_TRUE(parseTrace(Text, Parsed, Error)) << Error;
  ASSERT_EQ(Parsed.size(), T.size());
  for (size_t I = 0; I < T.size(); ++I) {
    EXPECT_EQ(Parsed.describe(I), T.describe(I)) << "at event " << I;
  }
}

TEST(TraceTextTest, ParserHandlesCommentsAndBlanks) {
  Trace T;
  std::string Error;
  ASSERT_TRUE(parseTrace("# header\n\nT0 rd x # trailing\n", T, Error))
      << Error;
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T[0].Kind, Op::Read);
}

TEST(TraceTextTest, ParserRejectsMalformedInput) {
  Trace T;
  std::string Error;
  EXPECT_FALSE(parseTrace("X0 rd x\n", T, Error));
  EXPECT_FALSE(parseTrace("T0 frobnicate x\n", T, Error));
  EXPECT_FALSE(parseTrace("T0 rd\n", T, Error));
  EXPECT_FALSE(parseTrace("T0 end extra\n", T, Error));
  EXPECT_FALSE(parseTrace("T0 fork 3\n", T, Error));
  EXPECT_FALSE(parseTrace("T0 rd x y\n", T, Error));
}

// Every generated trace must be well formed, for a spread of shapes.
struct GenParam {
  uint64_t Seed;
  uint32_t Threads;
  bool ForkJoin;
  unsigned GuardedPct;
};

// A stable test name ("seed3_threads8_guarded50"), not the struct's bytes.
void PrintTo(const GenParam &P, std::ostream *OS) {
  *OS << "seed" << P.Seed << "_threads" << P.Threads
      << (P.ForkJoin ? "_forkjoin" : "") << "_guarded" << P.GuardedPct;
}

class TraceGenTest : public ::testing::TestWithParam<GenParam> {};

TEST_P(TraceGenTest, GeneratedTracesAreWellFormed) {
  GenParam P = GetParam();
  TraceGenOptions Opts;
  Opts.Threads = P.Threads;
  Opts.UseForkJoin = P.ForkJoin;
  Opts.GuardedAccessPct = P.GuardedPct;
  Opts.Steps = 120;
  Trace T = generateRandomTrace(P.Seed, Opts);
  std::vector<std::string> Errors;
  EXPECT_TRUE(T.validate(&Errors))
      << "seed " << P.Seed << ": " << (Errors.empty() ? "" : Errors[0]);
  EXPECT_GT(T.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TraceGenTest,
    ::testing::Values(GenParam{1, 2, false, 0}, GenParam{2, 4, false, 0},
                      GenParam{3, 8, false, 50}, GenParam{4, 3, true, 0},
                      GenParam{5, 6, true, 80}, GenParam{6, 1, false, 0},
                      GenParam{7, 4, true, 100}, GenParam{8, 2, true, 30}));

TEST(TraceGenTest, DeterministicForSameSeed) {
  TraceGenOptions Opts;
  Trace A = generateRandomTrace(42, Opts);
  Trace B = generateRandomTrace(42, Opts);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(A[I] == B[I]) << "diverges at " << I;
  Trace C = generateRandomTrace(43, Opts);
  bool Same = A.size() == C.size();
  for (size_t I = 0; Same && I < A.size(); ++I)
    Same = A[I] == C[I];
  EXPECT_FALSE(Same) << "different seeds should differ";
}

} // namespace
} // namespace velo
