//===- tests/ToolsCliTest.cpp - CLI end-to-end smoke tests ----------------===//
//
// Drives the installed command-line tools as a user would: velodrome-check
// over the golden trace corpus (verdict exit codes, dot export) and
// velodrome-run over workloads (recording round-trips back through
// velodrome-check). Binary paths are injected by CMake.
//
//===----------------------------------------------------------------------===//

#include "events/TraceGen.h"
#include "events/TraceText.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef VELO_CHECK_BIN
#define VELO_CHECK_BIN "velodrome-check"
#endif
#ifndef VELO_RUN_BIN
#define VELO_RUN_BIN "velodrome-run"
#endif
#ifndef VELO_FUZZ_BIN
#define VELO_FUZZ_BIN "velodrome-fuzz"
#endif
#ifndef VELO_ANALYZE_BIN
#define VELO_ANALYZE_BIN "velodrome-analyze"
#endif
#ifndef VELO_CONVERT_BIN
#define VELO_CONVERT_BIN "velodrome-convert"
#endif
#ifndef VELO_TEST_DATA_DIR
#define VELO_TEST_DATA_DIR "tests/data"
#endif

namespace {

/// Run a command, returning its exit status (-1 on system() failure).
int runCmd(const std::string &Cmd) {
  int Status = std::system((Cmd + " > /dev/null 2>&1").c_str());
  if (Status < 0)
    return -1;
  return WEXITSTATUS(Status);
}

/// popen a fully redirected command line and capture what it prints.
/// Returns the exit status, or 128+signal when the command died on one.
int runCmdCapture(const std::string &CmdLine, std::string &Out) {
  Out.clear();
  FILE *P = popen(CmdLine.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  if (Status < 0)
    return -1;
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return WEXITSTATUS(Status);
}

/// Capture stdout only (stderr discarded) — verdict/warning comparisons.
int runCmdStdout(const std::string &Cmd, std::string &Out) {
  return runCmdCapture(Cmd + " 2>/dev/null", Out);
}

/// Capture stdout and stderr merged — diagnostics checks.
int runCmdAll(const std::string &Cmd, std::string &Out) {
  return runCmdCapture(Cmd + " 2>&1", Out);
}

std::string dataFile(const char *Name) {
  return std::string(VELO_TEST_DATA_DIR) + "/" + Name;
}

TEST(CheckCliTest, ViolatingTraceExitsOne) {
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " +
                   dataFile("rmw_violation.trace")),
            1);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " +
                   dataFile("intro_cycle.trace")),
            1);
}

TEST(CheckCliTest, SerializableTraceExitsZero) {
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " +
                   dataFile("flag_handoff.trace")),
            0);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --witness " +
                   dataFile("forkjoin_clean.trace")),
            0);
}

TEST(CheckCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN)), 2) << "no trace file";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --bogus-flag x"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " /nonexistent.trace"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --backend=nope " +
                   dataFile("rmw_violation.trace")),
            2);
}

TEST(CheckCliTest, DotExportWritesAGraph) {
  std::string Dot = "/tmp/velo_cli_test.dot";
  std::remove(Dot.c_str());
  ASSERT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --dot=" + Dot + " " +
                   dataFile("set_add.trace")),
            1);
  std::ifstream In(Dot);
  ASSERT_TRUE(In.good()) << "dot file must exist";
  std::string First;
  std::getline(In, First);
  EXPECT_NE(First.find("digraph"), std::string::npos);
}

TEST(CheckCliTest, BackendSelectionWorks) {
  for (const char *Backend : {"velodrome", "basic", "aero", "atomizer",
                              "eraser", "hb", "all"}) {
    int Code = runCmd(std::string(VELO_CHECK_BIN) + " --quiet --backend=" +
                      Backend + " " + dataFile("rmw_violation.trace"));
    // Race-only back-ends report verdict "serializable" (exit 0); the
    // atomicity-capable ones exit 1.
    bool Atomicity = std::string(Backend) == "velodrome" ||
                     std::string(Backend) == "basic" ||
                     std::string(Backend) == "aero" ||
                     std::string(Backend) == "all";
    EXPECT_EQ(Code, Atomicity ? 1 : 0) << Backend;
  }
}

TEST(CheckCliTest, StrictModeRejectsIllFormedTraces) {
  // Default (strict) ingestion: structurally ill-formed traces are input
  // errors (exit 2), never crashes and never verdicts.
  for (const char *F :
       {"fuzz/end_without_begin.trace", "fuzz/unheld_release.trace",
        "fuzz/reentrant_acquire.trace", "fuzz/orphan_fork.trace"}) {
    std::string Plain, Witness;
    EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " --quiet " +
                            dataFile(F),
                        Plain),
              2)
        << F;
    EXPECT_NE(Plain.find("trace is not well formed: line "),
              std::string::npos)
        << Plain;
    // --witness reads through the same loop and sanitizer, so it rejects
    // with the same "line N:" diagnostic.
    EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " --quiet --witness " +
                            dataFile(F),
                        Witness),
              2)
        << F;
    EXPECT_EQ(Witness, Plain) << F;
  }

  // Both stream the file, so an ill-formed event is reported before a
  // later unparseable line is ever read.
  std::string T = ::testing::TempDir() + "/velo_cli_illformed_first.trace";
  {
    std::ofstream Out(T);
    Out << "T1 end\nT1 garbage x\n";
  }
  for (const char *Flags : {" --quiet ", " --quiet --witness "}) {
    std::string Out;
    EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + Flags + T, Out), 2)
        << Flags;
    EXPECT_NE(Out.find("trace is not well formed: line 1: "),
              std::string::npos)
        << Flags << Out;
  }
  std::remove(T.c_str());
}

TEST(CheckCliTest, LenientModeRepairsAndReportsAVerdict) {
  for (const char *F :
       {"fuzz/end_without_begin.trace", "fuzz/unheld_release.trace",
        "fuzz/reentrant_acquire.trace", "fuzz/orphan_fork.trace"})
    EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --lenient " +
                     dataFile(F)),
              0)
        << F << " repairs to a serializable trace";
  // Repair must not mask a genuine violation in a well-formed trace.
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet --lenient " +
                   dataFile("rmw_violation.trace")),
            1);
}

TEST(CheckCliTest, SalvageRecoversTruncatedContainerVerdict) {
  // Convert a golden trace to .vtrc, chop the trailer byte a dying writer
  // would have lost: the strict open rejects the file, --salvage keeps
  // every intact events frame and reproduces the intact verdict.
  std::string Bin = ::testing::TempDir() + "/velo_salv_cli.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " +
                   dataFile("rmw_violation.trace") + " " + Bin),
            0);
  std::string Want;
  int WantCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + Bin, Want);
  EXPECT_EQ(WantCode, 1);

  std::string Bytes;
  {
    std::ifstream In(Bin, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 1u);
  {
    std::ofstream Out(Bin, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() - 1));
  }

  std::string Diag;
  EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " " + Bin, Diag), 2);
  EXPECT_NE(Diag.find("truncated"), std::string::npos) << Diag;

  std::string Got;
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + " --salvage " + Bin,
                         Got),
            WantCode);
  EXPECT_EQ(Got, Want) << "salvaged verdict must match the intact one";
  std::string All;
  runCmdAll(std::string(VELO_CHECK_BIN) + " --salvage " + Bin, All);
  EXPECT_NE(All.find("salvage: recovered"), std::string::npos) << All;
  std::remove(Bin.c_str());
}

TEST(CheckCliTest, SalvageRefusesTextInput) {
  std::string Out;
  EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " --salvage " +
                          dataFile("rmw_violation.trace"),
                      Out),
            2);
  EXPECT_NE(Out.find("requires a VELOTRC binary container"),
            std::string::npos)
      << Out;
}

TEST(ToolsCliTest, DirectoryIsAReadErrorInEveryTool) {
  // A directory opens like a file but fails its first read. Every tool
  // must report that read with the path and strerror and exit 2, never
  // take it for an empty (serializable, convertible) trace.
  std::string Dir = ::testing::TempDir() + "/velo_cli_dir.trace";
  std::filesystem::create_directories(Dir);
  std::string Out = ::testing::TempDir() + "/velo_cli_dir_out";
  const std::string Want = Dir + ":1: read error: Is a directory";
  const std::string Check(VELO_CHECK_BIN), Convert(VELO_CONVERT_BIN);
  for (const std::string &Cmd :
       {Check + " " + Dir, Check + " --parallel " + Dir,
        Check + " --reduce=all " + Dir, Check + " --witness " + Dir,
        Convert + " --to=binary " + Dir + " " + Out + ".vtrc",
        Convert + " --to=text " + Dir + " " + Out + ".trace",
        std::string(VELO_ANALYZE_BIN) + " " + Dir}) {
    std::string Got;
    EXPECT_EQ(runCmdAll(Cmd, Got), 2) << Cmd << "\n" << Got;
    EXPECT_NE(Got.find(Want), std::string::npos) << Cmd << "\n" << Got;
  }
  std::remove((Out + ".vtrc").c_str());
  std::remove((Out + ".trace").c_str());
  std::filesystem::remove(Dir);
}

TEST(CheckCliTest, GovernorDegradationKeepsTheVerdict) {
  // A 1-node cap forces immediate degradation from the graph checker to
  // the vector-clock fallback; the verdict must be unchanged.
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=all --max-live-nodes=1 " +
                   dataFile("rmw_violation.trace")),
            1);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=all --max-live-nodes=1 " +
                   dataFile("flag_handoff.trace")),
            0);
}

TEST(CheckCliTest, ResourceExhaustionExitsThree) {
  // No fallback configured: breaching a cap mid-trace leaves the verdict
  // unknown — reported as exit 3, never an abort.
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=velodrome --max-events=2 " +
                   dataFile("flag_handoff.trace")),
            3);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=velodrome --max-live-nodes=1 " +
                   dataFile("fuzz/interleaved_clean.trace")),
            3);
  // A violation found before the cap survives truncation.
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --quiet --backend=velodrome --max-events=6 " +
                   dataFile("rmw_violation.trace")),
            1);
}

//===----------------------------------------------------------------------===//
// Crash resilience: checkpoint/resume, supervision, crash diagnostics
//===----------------------------------------------------------------------===//

TEST(CrashCliTest, CheckpointFlagValidationExitsTwo) {
  std::string T = dataFile("rmw_violation.trace");
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --supervise " + T), 2)
      << "--supervise requires --checkpoint";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --witness --checkpoint=/tmp/velo_cli_bad.snap " + T),
            2)
      << "--witness buffers the trace; checkpointing is a contradiction";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --witness --resume=/tmp/velo_cli_bad.snap " + T),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --checkpoint=/tmp/velo_cli_bad.snap "
                   "--checkpoint-every=0 " +
                   T),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --resume=/nonexistent.snap " + T),
            2)
      << "a missing snapshot is an input error, not a crash";
}

/// Kill-resume determinism for every golden trace: a run SIGKILLed at an
/// arbitrary point and resumed from its last checkpoint must produce the
/// byte-identical report and verdict of an uninterrupted run.
TEST(CrashCliTest, KillResumeMatchesStraightRunOnEveryGoldenTrace) {
  for (const char *F :
       {"flag_handoff.trace", "forkjoin_clean.trace", "intro_cycle.trace",
        "lock_cycle.trace", "rmw_violation.trace", "set_add.trace"}) {
    std::string T = dataFile(F);
    std::string Straight;
    int StraightCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T,
                                    Straight);
    ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << F;

    std::string Ckpt = ::testing::TempDir() + "/velo_cli_kill_" + F +
                       ".snap";
    std::remove(Ckpt.c_str());
    std::string Ignored;
    int CrashCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --checkpoint=" + Ckpt +
            " --checkpoint-every=1 --crash-at=3 " + T,
        Ignored);
    ASSERT_EQ(CrashCode, 128 + SIGKILL) << F << ": worker must die on KILL";

    std::string Resumed;
    int ResumedCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt + " " + T,
        Resumed);
    EXPECT_EQ(ResumedCode, StraightCode) << F;
    EXPECT_EQ(Resumed, Straight)
        << F << ": resumed report must be byte-identical";
    std::remove(Ckpt.c_str());
  }
}

/// Checkpoints written by an earlier build and committed under
/// tests/data/checkpoints/ (set_add.trace killed after event 9 with
/// --checkpoint-every=2: plain, under --reduce=all, and on a two-event-frame
/// .vtrc) must keep resuming to the report of a straight run. --stats also
/// pins the restored graph and reduction counters.
TEST(CrashCliTest, CommittedCheckpointsResumeToTheStraightReport) {
  struct Case {
    const char *Snap, *Trace, *Flags;
  };
  for (const Case &C :
       {Case{"checkpoints/set_add.snap", "set_add.trace", ""},
        Case{"checkpoints/set_add_reduce.snap", "set_add.trace",
             " --reduce=all"},
        Case{"checkpoints/set_add_vtrc.snap", "checkpoints/set_add.vtrc",
             ""}}) {
    std::string T = dataFile(C.Trace);
    std::string Straight;
    int StraightCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --stats" + C.Flags + " " + T,
        Straight);
    EXPECT_EQ(StraightCode, 1) << C.Snap;
    std::string Resumed;
    int ResumedCode =
        runCmdStdout(std::string(VELO_CHECK_BIN) + " --stats --resume=" +
                         dataFile(C.Snap) + " " + T,
                     Resumed);
    EXPECT_EQ(ResumedCode, StraightCode) << C.Snap;
    EXPECT_EQ(Resumed, Straight) << C.Snap;
  }
}

TEST(CrashCliTest, SupervisedRunRecoversFromRepeatedCrashes) {
  // Record a trace big enough for several checkpoint windows.
  std::string T = ::testing::TempDir() + "/velo_cli_sup.trace";
  int RunCode = runCmd(std::string(VELO_RUN_BIN) +
                       " multiset --seed=3 --record=" + T);
  ASSERT_TRUE(RunCode == 0 || RunCode == 1);

  std::string Straight;
  int StraightCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T, Straight);

  // The worker dies every 400 events but each incarnation passes its last
  // checkpoint, so the supervisor keeps restarting it to completion.
  std::string Ckpt = ::testing::TempDir() + "/velo_cli_sup.snap";
  std::remove(Ckpt.c_str());
  std::string Supervised;
  int SupCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " --supervise " +
                                 "--checkpoint=" + Ckpt +
                                 " --checkpoint-every=100 --crash-at=400 " +
                                 T,
                             Supervised);
  EXPECT_EQ(SupCode, StraightCode);
  EXPECT_EQ(Supervised, Straight)
      << "supervised recovery must not change the report";
  std::remove(Ckpt.c_str());
  std::remove(T.c_str());
}

TEST(CrashCliTest, SupervisedGivesUpWithCrashBundleExitFour) {
  std::string T = dataFile("set_add.trace");
  std::string Ckpt = ::testing::TempDir() + "/velo_cli_bundle.snap";
  std::string Bundle = Ckpt + ".crash";
  std::remove(Ckpt.c_str());
  std::filesystem::remove_all(Bundle);

  // The checkpoint interval is past the crash point, so no checkpoint is
  // ever written and every restart dies in the same event window.
  std::string Out;
  int Code = runCmdAll(std::string(VELO_CHECK_BIN) + " --supervise " +
                           "--checkpoint=" + Ckpt +
                           " --checkpoint-every=100000 --crash-at=3 " +
                           "--max-crashes=3 " + T,
                       Out);
  EXPECT_EQ(Code, 4) << Out;
  EXPECT_NE(Out.find("crashed: see bundle"), std::string::npos) << Out;
  EXPECT_TRUE(std::filesystem::exists(Bundle + "/info.txt"));
  EXPECT_TRUE(std::filesystem::exists(Bundle + "/window.trace"));
  std::ifstream Info(Bundle + "/info.txt");
  std::string InfoText((std::istreambuf_iterator<char>(Info)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(InfoText.find("signal: 9"), std::string::npos) << InfoText;
  EXPECT_NE(InfoText.find("consecutive-crashes: 3"), std::string::npos);
  std::filesystem::remove_all(Bundle);
  std::remove(Ckpt.c_str());
}

TEST(CrashCliTest, FatalSignalDumpsLastEventContext) {
  // Non-supervised run dying on a catchable signal: the in-process handler
  // prints the last-events ring to stderr and still dies with the real
  // signal.
  std::string Out;
  int Code = runCmdAll(std::string(VELO_CHECK_BIN) +
                           " --crash-at=4 --crash-signal=6 " +
                           dataFile("set_add.trace"),
                       Out);
  EXPECT_EQ(Code, 128 + SIGABRT);
  EXPECT_NE(Out.find("fatal signal 6"), std::string::npos) << Out;
  EXPECT_NE(Out.find("delivered events"), std::string::npos) << Out;
  EXPECT_NE(Out.find("event 4"), std::string::npos)
      << "the ring must contain the event at the crash point: " << Out;
}

TEST(RunCliTest, GovernorFlagsGateTheLivePath) {
  // Exhausting the event budget mid-run leaves the verdict unknown.
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --seed=3 --max-events=50"),
            3);
  // Degradation to the vector-clock spare keeps the violation verdict.
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --seed=3 --max-live-nodes=2"),
            1);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --max-events=abc"),
            2);
}

TEST(FuzzCliTest, BoundedSmokeRunPasses) {
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --corpus=" +
                   dataFile("fuzz") + " --seed=1 --iters=100 --save=" +
                   ::testing::TempDir()),
            0);
}

TEST(FuzzCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --bogus"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --iters=abc"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_FUZZ_BIN) + " --seed="), 2);
}

TEST(RunCliTest, ListAndUnknownWorkload) {
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " --list"), 0);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " no-such-workload"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN)), 2);
}

TEST(RunCliTest, RecordedRunRoundTripsThroughCheck) {
  std::string TraceFile = "/tmp/velo_cli_run.trace";
  std::remove(TraceFile.c_str());
  int RunCode = runCmd(std::string(VELO_RUN_BIN) +
                       " multiset --seed=3 --record=" + TraceFile);
  // multiset has planted bugs; on most seeds the run observes one.
  EXPECT_TRUE(RunCode == 0 || RunCode == 1);
  int CheckCode =
      runCmd(std::string(VELO_CHECK_BIN) + " --quiet " + TraceFile);
  EXPECT_EQ(CheckCode, RunCode)
      << "offline verdict must match the online one on the same trace";
}

TEST(RunCliTest, CleanWorkloadExitsZero) {
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " raja --seed=5"), 0);
}

TEST(RunCliTest, MalformedScaleExitsTwo) {
  for (const char *Bad : {"--scale=0", "--scale=-3", "--scale=abc",
                          "--scale=", "--scale=2x", "--scale=+4",
                          "--scale=99999999999999999999"})
    EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " " + Bad + " philo"), 2)
        << Bad;
}

TEST(RunCliTest, MalformedSeedExitsTwo) {
  for (const char *Bad : {"--seed=", "--seed=-1", "--seed=12junk",
                          "--seed=+7", "--seed=0x10",
                          "--seed=99999999999999999999999999"})
    EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " " + Bad + " philo"), 2)
        << Bad;
}

TEST(RunCliTest, ValidScaleAndSeedStillRun) {
  int Code = runCmd(std::string(VELO_RUN_BIN) +
                    " philo --scale=2 --seed=7");
  EXPECT_TRUE(Code == 0 || Code == 1) << "verdict exit, not a usage error";
}

TEST(RunCliTest, BackendSelectionWorks) {
  for (const char *Backend : {"velodrome", "aero", "both"}) {
    int Code = runCmd(std::string(VELO_RUN_BIN) + " multiset --seed=3" +
                      " --backend=" + Backend);
    EXPECT_TRUE(Code == 0 || Code == 1) << Backend;
  }
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --backend=bogus"),
            2);
}

//===----------------------------------------------------------------------===//
// Static reduction: --reduce on check/run, the velodrome-analyze report
//===----------------------------------------------------------------------===//

/// Everything after the first line — the header's delivered-event count
/// legitimately differs under reduction, the verdict and warnings must not.
std::string withoutHeader(const std::string &Out) {
  size_t NL = Out.find('\n');
  return NL == std::string::npos ? std::string() : Out.substr(NL + 1);
}

TEST(ReduceCliTest, CheckReportMatchesPlainOnEveryGoldenTrace) {
  for (const char *F :
       {"flag_handoff.trace", "forkjoin_clean.trace", "intro_cycle.trace",
        "lock_cycle.trace", "rmw_violation.trace", "set_add.trace"}) {
    std::string T = dataFile(F);
    std::string Plain, Reduced;
    int PlainCode =
        runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T, Plain);
    int ReducedCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --reduce=all " + T, Reduced);
    EXPECT_EQ(ReducedCode, PlainCode) << F;
    EXPECT_EQ(withoutHeader(Reduced), withoutHeader(Plain))
        << F << ": reduced report must be byte-identical below the header";
  }
}

TEST(ReduceCliTest, CheckFlagValidationExitsTwo) {
  std::string T = dataFile("rmw_violation.trace");
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --reduce=bogus " + T), 2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --reduce=all --witness " +
                   T),
            2)
      << "--witness replays the full trace";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --reduce=all --no-merge " +
                   T),
            2)
      << "per-op unary nodes make collapsed repeats observable";
}

TEST(ReduceCliTest, StatsReportPerPassCounters) {
  std::string Out;
  int Code = runCmdStdout(std::string(VELO_CHECK_BIN) +
                              " --stats --reduce=all " +
                              dataFile("set_add.trace"),
                          Out);
  EXPECT_EQ(Code, 1);
  EXPECT_NE(Out.find("[reduce]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("escape="), std::string::npos) << Out;
  EXPECT_NE(Out.find("dropped="), std::string::npos) << Out;
}

TEST(ReduceCliTest, KillResumeUnderReductionMatchesStraightRun) {
  for (const char *F : {"rmw_violation.trace", "flag_handoff.trace"}) {
    std::string T = dataFile(F);
    std::string Straight;
    int StraightCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --reduce=all " + T, Straight);
    ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << F;

    std::string Ckpt = ::testing::TempDir() + "/velo_cli_reduce_" + F +
                       ".snap";
    std::remove(Ckpt.c_str());
    std::string Ignored;
    int CrashCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --reduce=all --checkpoint=" + Ckpt +
            " --checkpoint-every=1 --crash-at=3 " + T,
        Ignored);
    ASSERT_EQ(CrashCode, 128 + SIGKILL) << F;

    // The snapshot carries the reduce spec and filter state; the resumed
    // run must not need (and must not redo) the classification sweep.
    std::string Resumed;
    int ResumedCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt + " " + T,
        Resumed);
    EXPECT_EQ(ResumedCode, StraightCode) << F;
    EXPECT_EQ(Resumed, Straight) << F;
    std::remove(Ckpt.c_str());
  }
}

TEST(ReduceCliTest, RunDeferredModeKeepsTheVerdict) {
  int Plain = runCmd(std::string(VELO_RUN_BIN) + " multiset --seed=3");
  ASSERT_TRUE(Plain == 0 || Plain == 1);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --seed=3 --reduce=all"),
            Plain);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " multiset --seed=3 --reduce=all --adversarial"),
            2)
      << "the adversarial scheduler needs the live Atomizer feed";
}

TEST(AnalyzeCliTest, ReportsLintAndReduction) {
  std::string Out;
  int Code = runCmdStdout(std::string(VELO_ANALYZE_BIN) + " " +
                              dataFile("set_add.trace"),
                          Out);
  EXPECT_EQ(Code, 0) << "set_add has no lint findings";
  EXPECT_NE(Out.find("lock-discipline lint:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("passes: all"), std::string::npos) << Out;
  EXPECT_NE(Out.find("reduction:"), std::string::npos) << Out;

  std::string NoLint;
  runCmdStdout(std::string(VELO_ANALYZE_BIN) + " --no-lint " +
                   dataFile("set_add.trace"),
               NoLint);
  EXPECT_EQ(NoLint.find("lock-discipline lint:"), std::string::npos);
}

TEST(AnalyzeCliTest, WrittenReducedTraceKeepsTheCheckVerdict) {
  std::string Reduced = ::testing::TempDir() + "/velo_cli_reduced.trace";
  std::remove(Reduced.c_str());
  for (const char *F : {"rmw_violation.trace", "flag_handoff.trace"}) {
    std::string T = dataFile(F);
    int Plain = runCmd(std::string(VELO_CHECK_BIN) + " --quiet " + T);
    ASSERT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) +
                     " --lint-ok --write-reduced=" + Reduced + " " + T),
              0)
        << F;
    EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --quiet " + Reduced),
              Plain)
        << F << ": the reduced trace must check to the same verdict";
  }
  std::remove(Reduced.c_str());
}

TEST(AnalyzeCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN)), 2) << "no trace file";
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) + " --reduce=bogus " +
                   dataFile("set_add.trace")),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) + " /nonexistent.trace"),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) + " --bogus " +
                   dataFile("set_add.trace")),
            2);
}

//===----------------------------------------------------------------------===//
// --parallel: the hard invariant is byte-identity with the sequential
// loop — stdout, stderr, and exit code — on every golden trace and under
// every flag combination the mode composes with.
//===----------------------------------------------------------------------===//

TEST(ParallelCliTest, ByteIdenticalOnEveryGoldenTrace) {
  for (const char *F :
       {"flag_handoff.trace", "forkjoin_clean.trace", "intro_cycle.trace",
        "lock_cycle.trace", "rmw_violation.trace", "set_add.trace"}) {
    std::string T = dataFile(F);
    for (const char *Extra :
         {"", " --reduce=all", " --stats", " --reduce=all --stats",
          " --lenient", " --quiet"}) {
      std::string Seq, Par;
      int SeqCode = runCmdAll(std::string(VELO_CHECK_BIN) + Extra + " " + T,
                              Seq);
      // Tiny batches force many hand-offs; the output must not notice.
      int ParCode = runCmdAll(std::string(VELO_CHECK_BIN) +
                                  " --parallel --batch-events=7" + Extra +
                                  " " + T,
                              Par);
      EXPECT_EQ(SeqCode, ParCode) << F << Extra;
      EXPECT_EQ(Seq, Par) << F << Extra << ": parallel output diverged";
    }
  }
}

TEST(ParallelCliTest, CompositionRefusalsExitTwo) {
  std::string T = dataFile("set_add.trace");
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --parallel --witness " +
                   T),
            2)
      << "--witness buffers the whole trace; nothing to pipeline";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --parallel --max-events=10 " + T),
            2)
      << "explicit caps stop mid-stream; the pipeline stops at batch "
         "boundaries";
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --parallel --max-live-nodes=64 " + T),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) +
                   " --parallel --batch-events=0 " + T),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --batch-events=16 " + T),
            2)
      << "--batch-events only means something under --parallel";

  // A snapshot written by a capped sequential run must be refused by a
  // parallel resume: the caps travel in the snapshot.
  std::string Ckpt = ::testing::TempDir() + "/velo_cli_capped.snap";
  std::remove(Ckpt.c_str());
  std::string Ignored;
  int CrashCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                   " --checkpoint=" + Ckpt +
                                   " --checkpoint-every=1 --crash-at=3 "
                                   "--max-events=100000 " +
                                   T,
                               Ignored);
  ASSERT_EQ(CrashCode, 128 + SIGKILL);
  EXPECT_EQ(runCmd(std::string(VELO_CHECK_BIN) + " --parallel --resume=" +
                   Ckpt + " " + T),
            2)
      << "capped snapshots resume sequentially only";
  int SeqResume =
      runCmd(std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt + " " + T);
  EXPECT_TRUE(SeqResume == 0 || SeqResume == 1)
      << "the same snapshot stays resumable on the sequential path";
  std::remove(Ckpt.c_str());
}

TEST(ParallelCliTest, KillResumeRoundTripsAcrossModes) {
  std::string T = dataFile("set_add.trace");
  std::string Straight;
  int StraightCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T, Straight);
  ASSERT_TRUE(StraightCode == 0 || StraightCode == 1);

  // Parallel checkpoint, then resume in both modes.
  std::string Ckpt = ::testing::TempDir() + "/velo_cli_parkill.snap";
  std::remove(Ckpt.c_str());
  std::string Ignored;
  int CrashCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                   " --parallel --batch-events=2 "
                                   "--checkpoint=" + Ckpt +
                                   " --checkpoint-every=1 --crash-at=3 " + T,
                               Ignored);
  ASSERT_EQ(CrashCode, 128 + SIGKILL);

  std::string Out;
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) +
                             " --parallel --resume=" + Ckpt + " " + T,
                         Out),
            StraightCode);
  EXPECT_EQ(Out, Straight) << "parallel -> parallel resume";
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt +
                             " " + T,
                         Out),
            StraightCode);
  EXPECT_EQ(Out, Straight) << "parallel -> sequential resume";
  std::remove(Ckpt.c_str());

  // Sequential checkpoint, parallel resume.
  CrashCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " --checkpoint=" +
                               Ckpt +
                               " --checkpoint-every=1 --crash-at=3 " + T,
                           Ignored);
  ASSERT_EQ(CrashCode, 128 + SIGKILL);
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) +
                             " --parallel --resume=" + Ckpt + " " + T,
                         Out),
            StraightCode);
  EXPECT_EQ(Out, Straight) << "sequential -> parallel resume";
  std::remove(Ckpt.c_str());
}

TEST(ParallelCliTest, SupervisedParallelRecovers) {
  std::string T = ::testing::TempDir() + "/velo_cli_parsup.trace";
  int RunCode = runCmd(std::string(VELO_RUN_BIN) +
                       " multiset --seed=3 --record=" + T);
  ASSERT_TRUE(RunCode == 0 || RunCode == 1);

  std::string Straight;
  int StraightCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                      " --parallel " + T,
                                  Straight);

  std::string Ckpt = ::testing::TempDir() + "/velo_cli_parsup.snap";
  std::remove(Ckpt.c_str());
  std::string Supervised;
  int SupCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                 " --parallel --supervise --checkpoint=" +
                                 Ckpt +
                                 " --checkpoint-every=100 --crash-at=400 " +
                                 T,
                             Supervised);
  EXPECT_EQ(SupCode, StraightCode);
  EXPECT_EQ(Supervised, Straight)
      << "supervised parallel recovery must not change the report";
  std::remove(Ckpt.c_str());
  std::remove(T.c_str());
}

TEST(ParallelCliTest, StallEnvHookKeepsOutputIdentical) {
  std::string T = dataFile("rmw_violation.trace");
  std::string Seq;
  int SeqCode = runCmdAll(std::string(VELO_CHECK_BIN) + " " + T, Seq);
  for (const char *Stall :
       {"reader:200", "sanitizer:200", "worker:200", "worker0:200"}) {
    std::string Par;
    int ParCode = runCmdAll(std::string("VELO_PIPELINE_STALL=") + Stall +
                                " " + VELO_CHECK_BIN +
                                " --parallel --batch-events=2 " + T,
                            Par);
    EXPECT_EQ(SeqCode, ParCode) << Stall;
    EXPECT_EQ(Seq, Par) << Stall;
  }
  // A malformed spec warns on stderr but does not change the run.
  std::string Out;
  int Code = runCmdAll(std::string("VELO_PIPELINE_STALL=bogus ") +
                           VELO_CHECK_BIN + " --parallel " + T,
                       Out);
  EXPECT_EQ(Code, SeqCode);
  EXPECT_NE(Out.find("VELO_PIPELINE_STALL"), std::string::npos) << Out;
}

TEST(FuzzCliTest, ParallelPoolMatchesSequentialReplays) {
  std::string Seq, Par;
  int SeqCode = runCmdStdout(std::string(VELO_FUZZ_BIN) +
                                 " --iters=40 --seed=5 --no-parallel "
                                 "--save=" + ::testing::TempDir(),
                             Seq);
  int ParCode = runCmdStdout(std::string(VELO_FUZZ_BIN) +
                                 " --iters=40 --seed=5 --parallel=2 "
                                 "--save=" + ::testing::TempDir(),
                             Par);
  EXPECT_EQ(SeqCode, 0);
  EXPECT_EQ(ParCode, 0);
  EXPECT_EQ(Seq, Par) << "fan-out must not change any fuzz statistic";
}

//===----------------------------------------------------------------------===//
// velodrome-convert: the VELOTRC binary wire format (docs/INGESTION.md)
//===----------------------------------------------------------------------===//

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

void replaceAll(std::string &S, const std::string &From,
                const std::string &To) {
  for (size_t P = 0; (P = S.find(From, P)) != std::string::npos;
       P += To.size())
    S.replace(P, From.size(), To);
}

std::vector<std::string> goldenTraces() {
  std::vector<std::string> Out;
  for (const auto &E :
       std::filesystem::directory_iterator(VELO_TEST_DATA_DIR))
    if (E.path().extension() == ".trace")
      Out.push_back(E.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(ConvertCliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN)), 2) << "missing operands";
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " a.trace"), 2)
      << "missing output";
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --to=xml a b"), 2);
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --frame-events=0 a b"),
            2);
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) +
                   " /nonexistent.trace /tmp/velo_conv_out.vtrc"),
            2);
}

TEST(CheckCliTest, HighestThreadIdReportsLikeALowOne) {
  // Thread 1048575 is the largest a trace may name. Every back-end must
  // report on it exactly as on the same trace with that thread renamed T1,
  // apart from the name and the header's thread count.
  std::string Dir = ::testing::TempDir();
  std::string High = Dir + "/velo_tid_high.trace",
              Low = Dir + "/velo_tid_low.trace";
  const std::string Body = "T0 begin a\nT0 acq n\nT0 acq m\nT0 rd x\n"
                           "T0 rel m\nT0 rel n\nTX begin b\nTX acq m\n"
                           "TX acq n\nTX wr x\nTX rel n\nTX rel m\n"
                           "TX wr y\nTX end\nT0 rd y\nT0 wr x\nT0 end\n";
  std::string HighBody = Body, LowBody = Body;
  replaceAll(HighBody, "TX", "T1048575");
  replaceAll(LowBody, "TX", "T1");
  std::ofstream(High) << HighBody;
  std::ofstream(Low) << LowBody;
  for (const char *Backend :
       {"velodrome", "aero", "atomizer", "eraser", "hb", "deadlock"}) {
    std::string Cmd =
        std::string(VELO_CHECK_BIN) + " --backend=" + Backend + " ";
    std::string HighOut, LowOut;
    int HighCode = runCmdAll(Cmd + High, HighOut);
    int LowCode = runCmdAll(Cmd + Low, LowOut);
    EXPECT_EQ(HighCode, LowCode) << Backend;
    EXPECT_EQ(LowOut.find("] 0 warning(s)"), std::string::npos)
        << Backend << " reports nothing on the trace:\n" << LowOut;
    replaceAll(HighOut, High + ": 17 events, 1048576 threads",
               "TRACE: 17 events, 2 threads");
    replaceAll(LowOut, Low, "TRACE");
    replaceAll(HighOut, "T1048575", "T1");
    EXPECT_EQ(HighOut, LowOut) << Backend;
  }
  std::remove(High.c_str());
  std::remove(Low.c_str());
}

/// The sorted names of the entries in Dir.
std::vector<std::string> dirEntries(const std::string &Dir) {
  std::vector<std::string> Names;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    Names.push_back(E.path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

TEST(ConvertCliTest, FailedConversionLeavesTheOutputUntouched) {
  // The output is written beside its path and renamed over it only on
  // success: a conversion that fails on its input leaves an existing
  // output byte for byte, and leaves no temporary behind.
  std::string Dir = ::testing::TempDir() + "/velo_conv_keep";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir + "/adir");
  std::string Keep = Dir + "/keep.trace", Bad = Dir + "/bad.trace";
  std::ofstream(Bad) << "T0 rd x\nT1 garbage y\n";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " +
                   dataFile("set_add.trace") + " " + Keep),
            0);
  std::string Before = readFileBytes(Keep);
  ASSERT_FALSE(Before.empty());
  for (const std::string &In : {Dir + "/adir", Bad})
    for (const char *To : {"--to=text", "--to=binary"}) {
      EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + To + " " + In +
                       " " + Keep),
                2)
          << In << " " << To;
      EXPECT_EQ(readFileBytes(Keep), Before) << In << " " << To;
    }
  EXPECT_EQ(dirEntries(Dir),
            (std::vector<std::string>{"adir", "bad.trace", "keep.trace"}));
  std::filesystem::remove_all(Dir);
}

TEST(ConvertCliTest, ConversionOntoItsOwnInputPathSucceeds) {
  // Converting in place reads the whole input before the output replaces
  // it: the result equals a conversion to another path.
  std::string Dir = ::testing::TempDir() + "/velo_conv_self";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Self = Dir + "/self.trace", Other = Dir + "/other.trace";
  std::filesystem::copy_file(dataFile("intro_cycle.trace"), Self);
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + Self + " " + Other),
            0);
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --to=text " + Self +
                   " " + Self),
            0);
  EXPECT_FALSE(readFileBytes(Self).empty());
  EXPECT_EQ(readFileBytes(Self), readFileBytes(Other));

  std::string Bin = Dir + "/self.vtrc", BinOther = Dir + "/other.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + Self + " " + Bin),
            0);
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + Bin + " " +
                   BinOther),
            0);
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + Bin + " " + Bin), 0);
  EXPECT_EQ(readFileBytes(Bin), readFileBytes(BinOther));
  EXPECT_EQ(dirEntries(Dir),
            (std::vector<std::string>{"other.trace", "other.vtrc",
                                      "self.trace", "self.vtrc"}));
  std::filesystem::remove_all(Dir);
}

TEST(ConvertCliTest, FifoOutputIsWrittenThroughNotReplaced) {
  // Only a regular output is replaced by a rename; a FIFO or device (say
  // /dev/null) is written through and stays what it was.
  std::string Dir = ::testing::TempDir() + "/velo_conv_fifo";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Fifo = Dir + "/out.fifo", Got = Dir + "/got.trace",
              Want = Dir + "/want.trace";
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  std::string Convert = std::string(VELO_CONVERT_BIN) + " --to=text " +
                        dataFile("intro_cycle.trace") + " ";
  ASSERT_EQ(runCmd(Convert + Want), 0);
  EXPECT_EQ(runCmd("(timeout 10 cat " + Fifo + " > " + Got + " & " +
                   Convert + Fifo + "; S=$?; wait; exit $S)"),
            0);
  struct stat St;
  ASSERT_EQ(::stat(Fifo.c_str(), &St), 0);
  EXPECT_TRUE(S_ISFIFO(St.st_mode));
  EXPECT_EQ(readFileBytes(Got), readFileBytes(Want));
  std::filesystem::remove_all(Dir);
}

TEST(ConvertCliTest, BinaryTextBinaryIsAFixpointOnEveryGoldenTrace) {
  std::string Tmp = ::testing::TempDir();
  for (const std::string &T : goldenTraces()) {
    std::string A = Tmp + "/velo_fix_a.vtrc", B = Tmp + "/velo_fix_b.trace",
                C = Tmp + "/velo_fix_c.vtrc", D = Tmp + "/velo_fix_d.trace";
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + T + " " + A), 0)
        << T;
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + A + " " + B), 0)
        << T;
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + B + " " + C), 0)
        << T;
    EXPECT_EQ(readFileBytes(A), readFileBytes(C))
        << T << ": binary -> text -> binary must be byte-identical";
    // The canonical text rendering is itself a fixpoint.
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --to=text " + B +
                     " " + D),
              0)
        << T;
    EXPECT_EQ(readFileBytes(B), readFileBytes(D)) << T;
    for (const std::string &F : {A, B, C, D})
      std::remove(F.c_str());
  }
}

TEST(ConvertCliTest, VerdictsByteIdenticalTextVsBinaryAcrossModes) {
  // The tentpole invariant: a trace and its binary conversion produce
  // byte-identical reports and exit codes for every backend, sequential
  // and parallel, with and without static reduction.
  std::string Tmp = ::testing::TempDir();
  for (const std::string &T : goldenTraces()) {
    std::string Bin = Tmp + "/velo_verd.vtrc";
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + T + " " + Bin),
              0)
        << T;
    for (const char *Mode :
         {"", " --parallel", " --reduce=all", " --parallel --reduce=all"}) {
      std::string TextOut, BinOut;
      int TextCode = runCmdStdout(
          std::string(VELO_CHECK_BIN) + Mode + " " + T, TextOut);
      int BinCode = runCmdStdout(
          std::string(VELO_CHECK_BIN) + Mode + " " + Bin, BinOut);
      EXPECT_EQ(TextCode, BinCode) << T << Mode;
      replaceAll(TextOut, T, "TRACE");
      replaceAll(BinOut, Bin, "TRACE");
      EXPECT_EQ(TextOut, BinOut) << T << Mode;
    }
    std::remove(Bin.c_str());
  }
}

TEST(ConvertCliTest, CorruptedContainersExitTwoWithDiagnostic) {
  std::string Tmp = ::testing::TempDir();
  std::string Bin = Tmp + "/velo_corrupt.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " +
                   dataFile("rmw_violation.trace") + " " + Bin),
            0);
  std::string Bytes = readFileBytes(Bin);
  ASSERT_GT(Bytes.size(), 40u);

  std::string Cut = Tmp + "/velo_corrupt_cut.vtrc";
  {
    std::ofstream Out(Cut, std::ios::binary);
    Out.write(Bytes.data(), static_cast<long>(Bytes.size() / 2));
  }
  std::string Diag;
  EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " " + Cut, Diag), 2);
  EXPECT_NE(Diag.find(Cut), std::string::npos) << Diag;

  std::string Flip = Tmp + "/velo_corrupt_flip.vtrc";
  {
    std::string Mut = Bytes;
    Mut[Mut.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(Mut[Mut.size() / 2]) ^ 0x40);
    std::ofstream Out(Flip, std::ios::binary);
    Out.write(Mut.data(), static_cast<long>(Mut.size()));
  }
  EXPECT_EQ(runCmdAll(std::string(VELO_CHECK_BIN) + " " + Flip, Diag), 2);
  EXPECT_NE(Diag.find(Flip), std::string::npos) << Diag;

  // velodrome-convert reports the same class of failure the same way.
  EXPECT_EQ(runCmdAll(std::string(VELO_CONVERT_BIN) + " " + Flip + " " +
                          Tmp + "/velo_corrupt_out.trace",
                      Diag),
            2);
  EXPECT_NE(Diag.find("error:"), std::string::npos) << Diag;
  for (const char *F : {"velo_corrupt.vtrc", "velo_corrupt_cut.vtrc",
                        "velo_corrupt_flip.vtrc"})
    std::remove((Tmp + "/" + F).c_str());
}

TEST(ConvertCliTest, RecordedVtrcIsNativeBinaryAndVerdictPreserving) {
  // velodrome-run --record picks the container by extension: recording
  // straight to .vtrc is native binary emission from the runtime.
  std::string Tmp = ::testing::TempDir();
  std::string Bin = Tmp + "/velo_rec.vtrc";
  int RunCode = runCmd(std::string(VELO_RUN_BIN) +
                       " multiset --seed=3 --record=" + Bin);
  ASSERT_TRUE(RunCode == 0 || RunCode == 1);
  EXPECT_EQ(readFileBytes(Bin).compare(0, 8, "VELOTRC\n"), 0)
      << "recorded file must be a VELOTRC container";

  std::string Text = Tmp + "/velo_rec.trace";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " " + Bin + " " + Text),
            0);
  std::string BinOut, TextOut;
  int BinCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " " + Bin,
                             BinOut);
  int TextCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " " + Text,
                              TextOut);
  EXPECT_EQ(BinCode, TextCode);
  replaceAll(BinOut, Bin, "TRACE");
  replaceAll(TextOut, Text, "TRACE");
  EXPECT_EQ(BinOut, TextOut);
  std::remove(Bin.c_str());
  std::remove(Text.c_str());
}

TEST(ConvertCliTest, KillResumeOnBinaryMatchesStraightRun) {
  // Binary checkpoints land on frame boundaries; convert with tiny frames
  // so --checkpoint-every=1 has boundaries to bind to.
  std::string Tmp = ::testing::TempDir();
  for (const char *F : {"rmw_violation.trace", "set_add.trace"}) {
    std::string Bin = Tmp + "/velo_bres_" + std::string(F) + ".vtrc";
    ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --frame-events=2 " +
                     dataFile(F) + " " + Bin),
              0)
        << F;
    std::string Straight;
    int StraightCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " " + Bin, Straight);
    ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << F;

    std::string Ckpt = Tmp + "/velo_bres_" + std::string(F) + ".snap";
    std::remove(Ckpt.c_str());
    std::string Ignored;
    int CrashCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --checkpoint=" + Ckpt +
            " --checkpoint-every=1 --crash-at=3 " + Bin,
        Ignored);
    ASSERT_EQ(CrashCode, 128 + SIGKILL) << F;

    std::string Resumed;
    int ResumedCode = runCmdStdout(
        std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt + " " + Bin,
        Resumed);
    EXPECT_EQ(ResumedCode, StraightCode) << F;
    EXPECT_EQ(Resumed, Straight)
        << F << ": binary resume must be byte-identical to a straight run";
    std::remove(Ckpt.c_str());
    std::remove(Bin.c_str());
  }
}

TEST(ConvertCliTest, AnalyzeWritesReducedBinaryByExtension) {
  std::string Red = ::testing::TempDir() + "/velo_reduced.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_ANALYZE_BIN) +
                   " --lint-ok --write-reduced=" + Red + " " +
                   dataFile("flag_handoff.trace")),
            0);
  EXPECT_EQ(readFileBytes(Red).compare(0, 8, "VELOTRC\n"), 0);
  int Code = runCmd(std::string(VELO_CHECK_BIN) + " " + Red);
  EXPECT_TRUE(Code == 0 || Code == 1);
  std::remove(Red.c_str());
}

// Graceful shutdown under --supervise: SIGTERM arrives while the worker is
// checkpointing at a deliberately absurd cadence, so the signal lands in or
// next to a snapshot-write window. The supervisor must forward the signal,
// the worker must drain at a record boundary and land one final checkpoint
// (rename-atomic, so never torn), and the whole thing must report
// 128+SIGTERM with a snapshot that resumes to a byte-identical report.
TEST(CheckCliTest, SupervisedSigtermLandsAResumableCheckpoint) {
  velo::TraceGenOptions Opts;
  Opts.Threads = 4;
  Opts.Vars = 32;
  Opts.Locks = 4;
  Opts.Steps = 40000;
  Opts.GuardedAccessPct = 60;
  velo::Trace T = velo::generateRandomTrace(29, Opts);
  std::string Stem =
      "/tmp/velo_cli_graceful_" + std::to_string(::getpid());
  std::string TracePath = Stem + ".trace";
  std::string Ckpt = Stem + ".snap";
  {
    std::ofstream Out(TracePath);
    Out << velo::printTrace(T);
    ASSERT_TRUE(Out.good());
  }
  std::remove(Ckpt.c_str());

  std::string Straight;
  int StraightCode =
      runCmdStdout(std::string(VELO_CHECK_BIN) + " " + TracePath, Straight);
  ASSERT_TRUE(StraightCode == 0 || StraightCode == 1) << Straight;

  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // Quiet child: the supervisor narrates the shutdown on stderr.
    (void)std::freopen("/dev/null", "w", stdout);
    (void)std::freopen("/dev/null", "w", stderr);
    ::execl(VELO_CHECK_BIN, VELO_CHECK_BIN, "--supervise",
            ("--checkpoint=" + Ckpt).c_str(), "--checkpoint-every=8",
            TracePath.c_str(), static_cast<char *>(nullptr));
    std::_Exit(127);
  }

  // Every-8-events checkpointing means the run's wall clock is almost all
  // snapshot writes — wait for the first one, give the worker a moment to
  // get deep into the trace, then pull the trigger.
  bool Seen = false;
  for (int I = 0; I < 2500 && !Seen; ++I) {
    struct stat St;
    Seen = ::stat(Ckpt.c_str(), &St) == 0;
    if (!Seen)
      ::usleep(2 * 1000);
  }
  ASSERT_TRUE(Seen) << "no checkpoint ever appeared";
  ::usleep(30 * 1000);
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status))
      << "supervisor must exit, not die on the forwarded signal";
  EXPECT_EQ(WEXITSTATUS(Status), 128 + SIGTERM)
      << "supervisor must report the forwarded signal";

  // A graceful drain finishes its rename — no half-written snapshot left.
  struct stat St;
  EXPECT_NE(::stat((Ckpt + ".tmp").c_str(), &St), 0)
      << "graceful shutdown left a torn snapshot temp file";
  ASSERT_EQ(::stat(Ckpt.c_str(), &St), 0);

  std::string Resumed;
  int ResumedCode = runCmdStdout(std::string(VELO_CHECK_BIN) +
                                     " --resume=" + Ckpt + " " + TracePath,
                                 Resumed);
  EXPECT_EQ(ResumedCode, StraightCode);
  EXPECT_EQ(Resumed, Straight)
      << "resume after graceful shutdown must be byte-identical";

  std::remove(TracePath.c_str());
  std::remove(Ckpt.c_str());
}

TEST(RunCliTest, PolicyAndCorruptionFlagsParse) {
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                   " raja --adversarial --policy=reads --seed=2"),
            0);
  EXPECT_EQ(runCmd(std::string(VELO_RUN_BIN) + " raja --policy=bogus"), 2);
  // Corrupting raja's lone guard makes its commit method racy; with
  // enough seeds a violation appears, but any single seed may be clean —
  // accept both verdict exits.
  int Code = runCmd(std::string(VELO_RUN_BIN) +
                    " raja --disable=image.mu --seed=9 --scale=2");
  EXPECT_TRUE(Code == 0 || Code == 1);
}

//===----------------------------------------------------------------------===//
// --witness output, pinned byte for byte in tests/data/witness/ (stdout and
// stderr merged, the trace path normalized to TRACE). Every case runs on
// the text trace and on its .vtrc conversion against the same fixture.
// Regenerate after an intended change with:
//   VELO_UPDATE_WITNESS_GOLDEN=1 ./tools_cli_test --gtest_filter='Witness*'
//===----------------------------------------------------------------------===//

/// Run `velodrome-check --witness Flags Trace`, normalize, and compare with
/// (or, under VELO_UPDATE_WITNESS_GOLDEN and Write, rewrite) the fixture.
/// Returns the exit code.
int expectWitnessFixture(const std::string &Fixture, const std::string &Flags,
                         const std::string &Trace, bool Write) {
  std::string Out;
  int Code = runCmdAll(std::string(VELO_CHECK_BIN) + " --witness " + Flags +
                           Trace,
                       Out);
  replaceAll(Out, Trace, "TRACE");
  std::string File = std::string(VELO_TEST_DATA_DIR) + "/witness/" + Fixture;
  if (Write && std::getenv("VELO_UPDATE_WITNESS_GOLDEN")) {
    std::ofstream(File, std::ios::binary) << Out;
    return Code;
  }
  EXPECT_EQ(Out, readFileBytes(File)) << Fixture << " (" << Trace << ")";
  return Code;
}

/// Fixture check on Trace and on its .vtrc conversion (three-event
/// frames): both containers print the same bytes. Returns the exit code,
/// which must also agree.
int expectWitnessBothContainers(const std::string &Fixture,
                                const std::string &Flags,
                                const std::string &Trace) {
  int TextCode = expectWitnessFixture(Fixture, Flags, Trace, true);
  std::string Bin = ::testing::TempDir() + "/velo_witness_" + Fixture +
                    ".vtrc";
  EXPECT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --frame-events=3 " +
                   Trace + " " + Bin),
            0)
      << Fixture;
  EXPECT_EQ(expectWitnessFixture(Fixture, Flags, Bin, false), TextCode)
      << Fixture;
  std::remove(Bin.c_str());
  return TextCode;
}

TEST(WitnessCliTest, GoldenTracesMatchFixtures) {
  for (const std::string &T : goldenTraces()) {
    std::string Name = std::filesystem::path(T).stem().string();
    std::string Plain;
    int PlainCode = runCmdStdout(std::string(VELO_CHECK_BIN) + " " + T, Plain);
    EXPECT_EQ(expectWitnessBothContainers(Name + ".out", "", T), PlainCode)
        << Name << ": --witness keeps the verdict exit";
  }
}

TEST(WitnessCliTest, LenientFuzzCorpusMatchesFixtures) {
  // The witness is built from the repaired stream, so these pin the
  // sanitizer's output as well as the repair note.
  std::vector<std::string> Traces;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(VELO_TEST_DATA_DIR) + "/fuzz"))
    Traces.push_back(E.path().string());
  std::sort(Traces.begin(), Traces.end());
  ASSERT_FALSE(Traces.empty());
  for (const std::string &T : Traces)
    expectWitnessBothContainers(
        "lenient_" + std::filesystem::path(T).stem().string() + ".out",
        "--lenient ", T);
}

TEST(WitnessCliTest, SalvagedContainerMatchesFixture) {
  // Two-event frames, last 5 bytes cut: the trailer and the tail of the
  // last frame are gone; --salvage keeps the intact frame prefix.
  std::string Bin = ::testing::TempDir() + "/velo_witness_salvage.vtrc";
  ASSERT_EQ(runCmd(std::string(VELO_CONVERT_BIN) + " --frame-events=2 " +
                   dataFile("flag_handoff.trace") + " " + Bin),
            0);
  std::string Bytes = readFileBytes(Bin);
  ASSERT_GT(Bytes.size(), 5u);
  std::ofstream(Bin, std::ios::binary | std::ios::trunc)
      .write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() - 5));
  EXPECT_EQ(expectWitnessFixture("salvage_flag_handoff.out", "--salvage ",
                                 Bin, true),
            0);
  std::remove(Bin.c_str());
}

TEST(WitnessCliTest, RecordedWorkloadMatchesFixtureInBothContainers) {
  // --exclude-known leaves multiset serializable, so the whole serial
  // witness of a real recording is printed.
  std::string Tmp = ::testing::TempDir();
  std::string Text = Tmp + "/velo_witness_rec.trace";
  std::string Bin = Tmp + "/velo_witness_rec.vtrc";
  for (const std::string &Rec : {Text, Bin})
    ASSERT_EQ(runCmd(std::string(VELO_RUN_BIN) +
                     " multiset --exclude-known --record=" + Rec),
              0)
        << Rec;
  EXPECT_EQ(expectWitnessFixture("multiset_exclude_known.out", "", Text,
                                 true),
            0);
  EXPECT_EQ(expectWitnessFixture("multiset_exclude_known.out", "", Bin,
                                 false),
            0);
  std::remove(Text.c_str());
  std::remove(Bin.c_str());
}

} // namespace
