//===- tests/StackTest.cpp - The shared analysis stack --------------------===//
//
// AnalysisStack (analysis/Stack.h) is the one registry and governor wiring
// behind velodrome-check, serve, run and fuzz:
//
//  * registry: the name list, what `all` selects, unknown names;
//  * roles: governed primary/fallback pairs, the verdict rank when
//    ungoverned;
//  * save/restore of the delivery set by back-end name, including
//    snapshots whose `all` still listed the reference checker;
//  * parity: a serve::Session, fed straight or evicted and rehydrated
//    midway, renders the report, exit code and notes of
//    `velodrome-check --backend=<name>` for every registry name and `all`.
//
//===----------------------------------------------------------------------===//

#include "analysis/Stack.h"
#include "events/TraceGen.h"
#include "events/TraceText.h"
#include "report/Report.h"
#include "serve/Session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#ifndef VELO_CHECK_BIN
#define VELO_CHECK_BIN "velodrome-check"
#endif
#ifndef VELO_TEST_DATA_DIR
#define VELO_TEST_DATA_DIR "tests/data"
#endif

namespace velo {
namespace {

std::string dataFile(const std::string &Name) {
  return std::string(VELO_TEST_DATA_DIR) + "/" + Name;
}

Trace contendedTrace(uint64_t Seed) {
  TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Steps = 400;
  return generateRandomTrace(Seed, Opts);
}

/// Feed a whole trace through a begun stack, as the sequential tool loop
/// does (ordinal = position in the sanitized stream).
void feedAll(AnalysisStack &S, const Trace &T, size_t From = 0,
             size_t To = SIZE_MAX) {
  for (size_t I = From; I < T.size() && I < To && !S.exhausted(); ++I)
    S.deliver(T[I], I + 1);
}

TEST(StackRegistryTest, NamesAndAllSelection) {
  const std::vector<std::string> Names = AnalysisStack::allNames();
  const std::vector<std::string> Want = {"velodrome", "basic", "aero",
                                         "atomizer",  "eraser", "hb",
                                         "deadlock"};
  EXPECT_EQ(Names, Want);
  EXPECT_EQ(AnalysisStack::selectorUsage(),
            "velodrome|basic|aero|atomizer|eraser|hb|deadlock|all");
  for (const std::string &N : Names) {
    std::unique_ptr<Backend> B = AnalysisStack::make(N);
    ASSERT_NE(B, nullptr) << N;
    EXPECT_TRUE(B->supportsSnapshot()) << N << ": serve eviction needs it";
  }
  EXPECT_EQ(AnalysisStack::make("quantum"), nullptr);

  AnalysisStack S;
  std::string Err;
  EXPECT_FALSE(S.build("quantum", StackOptions(), Err));
  EXPECT_EQ(Err, "unknown backend: quantum");

  ASSERT_TRUE(S.build("all", StackOptions(), Err)) << Err;
  EXPECT_EQ(S.reporting().size(), Want.size() - 2);
  EXPECT_EQ(S.backend("deadlock"), nullptr)
      << "all is the atomicity/race table; deadlock is opt-in";
  EXPECT_EQ(S.backend("basic"), nullptr)
      << "the no-GC reference checker is opt-in";
}

TEST(StackRegistryTest, GovernorWiringFollowsRoles) {
  StackOptions Capped;
  Capped.Limits.MaxLiveNodes = 60000;
  std::string Err;

  // all: the governor stands in for Velodrome + AeroDrome; the rest are
  // delivered beside it.
  AnalysisStack All;
  ASSERT_TRUE(All.build("all", Capped, Err)) << Err;
  ASSERT_NE(All.governor(), nullptr);
  ASSERT_EQ(All.delivery().size(), 4u);
  EXPECT_EQ(All.delivery()[0], All.governor());
  EXPECT_EQ(All.reporting().size(), 5u);

  // A lone verdict checker is its own governed primary, with no spare.
  AnalysisStack Aero;
  ASSERT_TRUE(Aero.build("aero", Capped, Err)) << Err;
  ASSERT_NE(Aero.governor(), nullptr);
  EXPECT_EQ(Aero.delivery().size(), 1u);

  // Observers are never governed.
  AnalysisStack Dlk;
  ASSERT_TRUE(Dlk.build("deadlock", Capped, Err)) << Err;
  EXPECT_EQ(Dlk.governor(), nullptr);
  EXPECT_EQ(Dlk.delivery().size(), 1u);

  // No caps: ungoverned, every selected back-end delivered directly.
  AnalysisStack Plain;
  ASSERT_TRUE(Plain.build("all", StackOptions(), Err)) << Err;
  EXPECT_EQ(Plain.governor(), nullptr);
  EXPECT_EQ(Plain.delivery(), Plain.reporting());

  // The hot spare: fed under the governor, not reported.
  StackOptions Spare = Capped;
  Spare.HotSpare = true;
  AnalysisStack Run;
  ASSERT_TRUE(Run.build(std::vector<std::string>{"velodrome", "atomizer"},
                        Spare, Err))
      << Err;
  EXPECT_NE(Run.backend("aero"), nullptr);
  EXPECT_EQ(Run.reporting().size(), 2u);
  EXPECT_EQ(Run.delivery().size(), 2u);
}

TEST(StackTest, UngovernedVerdictComesFromTheHighestRank) {
  // rmw_violation: every verdict checker sees the violation; observers
  // never carry a verdict.
  Trace T;
  std::string Err;
  ASSERT_TRUE(readTraceFile(dataFile("rmw_violation.trace"), T, Err)) << Err;
  for (const char *Name : {"velodrome", "basic", "aero", "atomizer", "hb"}) {
    AnalysisStack S;
    ASSERT_TRUE(S.build(Name, StackOptions(), Err)) << Err;
    S.begin(T.symbols());
    feedAll(S, T);
    S.end();
    bool Verdict = std::string(Name) != "atomizer" && std::string(Name) != "hb";
    EXPECT_EQ(S.verdict().Exit, Verdict ? 1 : 0) << Name;
  }
}

TEST(StackTest, DeliverySetSurvivesSaveAndRestore) {
  Trace T = contendedTrace(11);
  StackOptions Opts;
  Opts.Limits.MaxLiveNodes = 3; // the governor degrades mid-trace
  auto reportOf = [&](AnalysisStack &S) {
    ReportManager RM;
    S.report(RM, &T.symbols());
    return RM.renderText();
  };

  AnalysisStack Straight;
  std::string Err;
  ASSERT_TRUE(Straight.build("all", Opts, Err)) << Err;
  Straight.begin(T.symbols());
  feedAll(Straight, T);
  Straight.end();

  for (size_t Split : {size_t(0), T.size() / 3, T.size() / 2}) {
    AnalysisStack First;
    ASSERT_TRUE(First.build("all", Opts, Err)) << Err;
    First.begin(T.symbols());
    feedAll(First, T, 0, Split);
    SnapshotWriter W;
    First.saveDelivery(W);

    AnalysisStack Second;
    ASSERT_TRUE(Second.build("all", Opts, Err)) << Err;
    Second.begin(T.symbols());
    SnapshotReader R(W.payload());
    std::string BadName;
    ASSERT_TRUE(Second.restoreDelivery(R, BadName)) << BadName;
    ASSERT_FALSE(R.failed());
    EXPECT_EQ(Second.delivery().size(), First.delivery().size());
    Second.setProgress(First.eventsSeen(), First.threadsSeen());
    feedAll(Second, T, Split);
    Second.end();
    EXPECT_EQ(reportOf(Second), reportOf(Straight)) << "split " << Split;
    EXPECT_EQ(Second.verdict().Exit, Straight.verdict().Exit);
  }

  // A snapshot naming a back-end this stack did not build is refused.
  AnalysisStack Aero;
  ASSERT_TRUE(Aero.build("aero", StackOptions(), Err)) << Err;
  Aero.begin(T.symbols());
  SnapshotWriter W;
  Straight.saveDelivery(W);
  SnapshotReader R(W.payload());
  std::string BadName;
  EXPECT_FALSE(Aero.restoreDelivery(R, BadName));
  EXPECT_EQ(BadName, "Governed");
}

TEST(StackTest, SnapshotsListingTheReferenceCheckerRestoreIntoAll) {
  // Checkpoints and evicted sessions written while `all` included basic
  // list a Velodrome(basic) entry. Built from that roster, governed as
  // velodrome-check's default caps govern it, a mid-trace snapshot
  // restores into today's `all` and finishes with the straight report.
  Trace T = contendedTrace(13);
  StackOptions Opts;
  Opts.Limits.MaxLiveNodes = DefaultMaxLiveNodes;
  auto reportOf = [&](AnalysisStack &S) {
    ReportManager RM;
    S.report(RM, &T.symbols());
    return RM.renderText();
  };
  std::string Err;
  AnalysisStack Straight;
  ASSERT_TRUE(Straight.build("all", Opts, Err)) << Err;
  Straight.begin(T.symbols());
  feedAll(Straight, T);
  Straight.end();

  auto snapshotOf = [&](const std::vector<std::string> &Names,
                        AnalysisStack &Old) {
    EXPECT_TRUE(Old.build(Names, Opts, Err)) << Err;
    Old.begin(T.symbols());
    feedAll(Old, T, 0, T.size() / 2);
    SnapshotWriter W;
    Old.saveDelivery(W);
    return W.payload();
  };
  AnalysisStack Old;
  const std::string Blob = snapshotOf(
      {"velodrome", "basic", "aero", "atomizer", "eraser", "hb"}, Old);
  ASSERT_NE(Old.backend("basic"), nullptr);

  AnalysisStack New;
  ASSERT_TRUE(New.build("all", Opts, Err)) << Err;
  New.begin(T.symbols());
  SnapshotReader R(Blob);
  std::string BadName;
  ASSERT_TRUE(New.restoreDelivery(R, BadName)) << BadName;
  ASSERT_FALSE(R.failed());
  ASSERT_TRUE(R.atEnd());
  New.setProgress(Old.eventsSeen(), Old.threadsSeen());
  feedAll(New, T, T.size() / 2);
  New.end();
  EXPECT_EQ(reportOf(New), reportOf(Straight));
  EXPECT_EQ(New.verdict().Exit, Straight.verdict().Exit);

  // A snapshot without a back-end this stack built is refused by name.
  AnalysisStack NoHb;
  const std::string Short = snapshotOf(
      {"velodrome", "basic", "aero", "atomizer", "eraser"}, NoHb);
  AnalysisStack Refused;
  ASSERT_TRUE(Refused.build("all", Opts, Err)) << Err;
  Refused.begin(T.symbols());
  SnapshotReader RS(Short);
  EXPECT_FALSE(Refused.restoreDelivery(RS, BadName));
  EXPECT_EQ(BadName, "HB");
}

//===----------------------------------------------------------------------===//
// Serve/check parity over every registry name
//===----------------------------------------------------------------------===//

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// `velodrome-check <Args> <TracePath>`: stdout, stderr, exit code.
int checkCli(const std::string &Args, const std::string &TracePath,
             std::string &Stdout, std::string &Stderr) {
  std::string ErrPath =
      "/tmp/velo-stacktest-" + std::to_string(::getpid()) + ".err";
  std::string Cmd = std::string(VELO_CHECK_BIN) + " " + Args + " " +
                    TracePath + " 2>" + ErrPath;
  Stdout.clear();
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Stdout.append(Buf, N);
  int Status = pclose(P);
  Stderr = slurp(ErrPath);
  std::remove(ErrPath.c_str());
  if (Status < 0 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

struct SessionRun {
  std::string Report, Notes;
  int Exit = -1;
};

/// One serve::Session over a recorded trace, named after the file so the
/// report header matches the CLI's; optionally evicted and rehydrated
/// halfway through the stream.
void runSession(const Trace &T, const serve::SessionConfig &C, bool Evict,
                SessionRun &Out) {
  serve::Session S;
  std::string Err;
  ASSERT_TRUE(S.configure(C, Err)) << Err;
  S.symbols().Vars.syncFrom(T.symbols().Vars);
  S.symbols().Locks.syncFrom(T.symbols().Locks);
  S.symbols().Labels.syncFrom(T.symbols().Labels);
  for (size_t I = 0; I < T.size(); ++I) {
    if (Evict && I == T.size() / 2) {
      std::string Blob;
      ASSERT_TRUE(S.evict(Blob, Err)) << Err;
      ASSERT_TRUE(S.rehydrate(Blob, Err)) << Err;
    }
    ASSERT_TRUE(S.feed(T[I], Err)) << Err;
  }
  ASSERT_TRUE(S.finish(Err)) << Err;
  Out.Report = S.report();
  Out.Notes = S.notes();
  Out.Exit = S.exitCode();
}

TEST(StackParityTest, ServeSessionMatchesCheckCliForEveryName) {
  std::vector<std::string> Selectors = AnalysisStack::allNames();
  Selectors.push_back("all");
  for (const char *File :
       {"rmw_violation.trace", "flag_handoff.trace", "deadlock_ab.trace",
        "lock_cycle.trace"}) {
    const std::string Path = dataFile(File);
    Trace T;
    std::string Err;
    ASSERT_TRUE(readTraceFile(Path, T, Err)) << Err;
    for (const std::string &Sel : Selectors) {
      std::string Want, WantErr;
      int WantExit = checkCli("--backend=" + Sel, Path, Want, WantErr);
      ASSERT_GE(WantExit, 0) << "velodrome-check failed on " << File;
      serve::SessionConfig C;
      C.Name = Path;
      C.BackendSel = Sel;
      for (bool Evict : {false, true}) {
        SessionRun Got;
        runSession(T, C, Evict, Got);
        const std::string What = std::string(File) + " --backend=" + Sel +
                                 (Evict ? " (evicted)" : "");
        EXPECT_EQ(Got.Report, Want) << What;
        EXPECT_EQ(Got.Exit, WantExit) << What;
        EXPECT_EQ(Got.Notes, WantErr) << What;
      }
    }
  }
}

TEST(StackParityTest, GovernedDegradationMatchesCheckCli) {
  // A cap breach mid-trace: the same degradation or exhaustion,
  // reference-checker drop and governor notes from check and serve.
  Trace T = contendedTrace(5);
  const std::string Path =
      "/tmp/velo-stacktest-" + std::to_string(::getpid()) + ".trace";
  ASSERT_TRUE(writeTraceFile(T, Path));
  struct Case {
    const char *Sel;
    bool EventCap; ///< --max-events=100, else --max-live-nodes=2
  };
  for (Case K : {Case{"all", false}, Case{"velodrome", false},
                 Case{"all", true}, Case{"basic", true}}) {
    serve::SessionConfig C;
    C.Name = Path;
    C.BackendSel = K.Sel;
    if (K.EventCap)
      C.Limits.MaxEvents = 100;
    else
      C.Limits.MaxLiveNodes = 2;
    std::string Want, WantErr;
    int WantExit = checkCli(std::string(K.EventCap ? "--max-events=100"
                                                   : "--max-live-nodes=2") +
                                " --backend=" + K.Sel,
                            Path, Want, WantErr);
    ASSERT_GE(WantExit, 0);
    EXPECT_NE(WantErr.find("governor: "), std::string::npos)
        << K.Sel << ": the cap must breach mid-trace";
    for (bool Evict : {false, true}) {
      SessionRun Got;
      runSession(T, C, Evict, Got);
      EXPECT_EQ(Got.Report, Want) << K.Sel;
      EXPECT_EQ(Got.Exit, WantExit) << K.Sel;
      EXPECT_EQ(Got.Notes, WantErr) << K.Sel;
    }
  }
  std::remove(Path.c_str());
}

} // namespace
} // namespace velo
