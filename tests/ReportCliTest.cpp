//===- tests/ReportCliTest.cpp - Structured report golden fixtures --------===//
//
// End-to-end guarantees for --format=json/--format=sarif across the
// tools (docs/REPORTING.md):
//
//   * Golden fixtures under tests/data/report/ pin the exact bytes of
//     the JSON and SARIF documents for findings under four different
//     rule ids (VELO-ATOM-001, VELO-RACE-001, VELO-DLK-001,
//     VELO-LINT-001). Only the embedded trace path is normalized — it
//     is the one byte sequence that legitimately differs per checkout.
//   * The same trace produces the byte-identical document whatever the
//     container ({text, .vtrc}), pipeline ({sequential, --parallel}),
//     and reduction ({plain, --reduce=all}) — findings carry
//     sanitized-stream ordinals, so coordinates cannot drift.
//   * A run SIGKILLed mid-trace and resumed from its checkpoint renders
//     the byte-identical JSON and SARIF of an uninterrupted run.
//
// Regenerate fixtures after an intentional schema change with:
//   VELO_UPDATE_REPORT_GOLDEN=1 ./report_cli_test
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#ifndef VELO_CHECK_BIN
#define VELO_CHECK_BIN "velodrome-check"
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

int runCmdStdout(const std::string &Cmd, std::string &Out) {
  Out.clear();
  FILE *P = popen((Cmd + " 2>/dev/null").c_str(), "r");
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

std::string dataFile(const std::string &Name) {
  return std::string(VELO_TEST_DATA_DIR) + "/" + Name;
}

/// Replace every occurrence of the concrete input path with "TRACE": the
/// path is the only checkout-dependent byte sequence in a document.
std::string normalize(std::string Doc, const std::string &Path) {
  size_t At = 0;
  while ((At = Doc.find(Path, At)) != std::string::npos) {
    Doc.replace(At, Path.size(), "TRACE");
    At += 5;
  }
  return Doc;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// One golden case: a command line (with INPUT standing for the trace
/// path), the trace it runs on, the fixture file, and the expected exit.
struct GoldenCase {
  const char *Fixture; ///< File under tests/data/report/.
  const char *Tool;    ///< Binary to run.
  const char *Args;    ///< Flags, INPUT replaced by the trace path.
  const char *Trace;   ///< Input under tests/data/.
  int ExitCode;
};

const GoldenCase kGolden[] = {
    // VELO-ATOM-001 (+ VELO-ATOM-003): the paper's read-modify-write
    // violation through the default checker stack.
    {"check_rmw.json", VELO_CHECK_BIN, "--format=json INPUT",
     "rmw_violation.trace", 1},
    {"check_rmw.sarif", VELO_CHECK_BIN, "--format=sarif INPUT",
     "rmw_violation.trace", 1},
    // VELO-RACE-001: the same trace through the happens-before detector.
    {"check_rmw_hb.json", VELO_CHECK_BIN, "--backend=hb --format=json INPUT",
     "rmw_violation.trace", 0},
    // VELO-DLK-001: the AB/BA inversion through the deadlock back-end
    // (a pure observer: the verdict stays serializable, exit 0).
    {"check_deadlock_ab.json", VELO_CHECK_BIN,
     "--backend=deadlock --format=json INPUT", "deadlock_ab.trace", 0},
    {"check_deadlock_ab.sarif", VELO_CHECK_BIN,
     "--backend=deadlock --format=sarif INPUT", "deadlock_ab.trace", 0},
    // VELO-LINT-001 + VELO-DLK-001 side by side: the offline analyzer's
    // lint findings plus its deadlock section, exit 1 without --lint-ok.
    {"analyze_rmw.json", VELO_ANALYZE_BIN, "--format=json INPUT",
     "rmw_violation.trace", 1},
    {"analyze_deadlock_ab.sarif", VELO_ANALYZE_BIN, "--format=sarif INPUT",
     "deadlock_ab.trace", 1},
};

TEST(ReportCliTest, GoldenFixturesMatch) {
  const bool Update = std::getenv("VELO_UPDATE_REPORT_GOLDEN") != nullptr;
  for (const GoldenCase &C : kGolden) {
    std::string Trace = dataFile(C.Trace);
    std::string Args = C.Args;
    size_t At = Args.find("INPUT");
    ASSERT_NE(At, std::string::npos);
    Args.replace(At, 5, Trace);

    std::string Out;
    int Code = runCmdStdout(std::string(C.Tool) + " " + Args, Out);
    EXPECT_EQ(Code, C.ExitCode) << C.Fixture;
    std::string Doc = normalize(Out, Trace);

    std::string Golden = dataFile(std::string("report/") + C.Fixture);
    if (Update) {
      std::ofstream OutF(Golden, std::ios::binary);
      OutF << Doc;
      continue;
    }
    std::string Want;
    ASSERT_TRUE(readFile(Golden, Want))
        << Golden << ": fixture missing; regenerate with "
        << "VELO_UPDATE_REPORT_GOLDEN=1";
    EXPECT_EQ(Doc, Want) << C.Fixture
                         << ": document drifted from the golden fixture";
  }
}

/// {text, .vtrc} x {sequential, --parallel} x {plain, --reduce=all}: all
/// eight runs must render the byte-identical JSON document (and two
/// spot-checked combos the identical SARIF), because findings are
/// addressed by sanitized-stream ordinals that none of those modes move.
TEST(ReportCliTest, JsonIdenticalAcrossContainersPipelinesAndReduction) {
  const std::string Text = dataFile("rmw_violation.trace");
  const std::string Vtrc = ::testing::TempDir() + "/velo_report_cli.vtrc";
  std::string Ignored;
  ASSERT_EQ(runCmdStdout(std::string(VELO_CONVERT_BIN) + " " + Text + " " +
                             Vtrc,
                         Ignored),
            0);

  std::vector<std::string> Docs;
  for (const std::string &Input : {Text, Vtrc}) {
    for (const char *Pipe : {"", "--parallel "}) {
      for (const char *Reduce : {"", "--reduce=all "}) {
        std::string Out;
        int Code = runCmdStdout(std::string(VELO_CHECK_BIN) + " " + Pipe +
                                    Reduce + "--format=json " + Input,
                                Out);
        EXPECT_EQ(Code, 1) << Input << " " << Pipe << Reduce;
        Docs.push_back(normalize(Out, Input));
      }
    }
  }
  ASSERT_EQ(Docs.size(), 8u);
  for (size_t I = 1; I < Docs.size(); ++I)
    EXPECT_EQ(Docs[I], Docs[0]) << "combo " << I << " drifted";

  std::string SarifText, SarifVtrcPar;
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + " --format=sarif " +
                             Text,
                         SarifText),
            1);
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) +
                             " --parallel --reduce=all --format=sarif " +
                             Vtrc,
                         SarifVtrcPar),
            1);
  EXPECT_EQ(normalize(SarifVtrcPar, Vtrc), normalize(SarifText, Text));
  std::remove(Vtrc.c_str());
}

/// Kill/resume renders the byte-identical machine documents: structured
/// output must not leak whether the run was interrupted.
TEST(ReportCliTest, JsonAndSarifStableAcrossKillResume) {
  for (const char *Fmt : {"json", "sarif"}) {
    const std::string T = dataFile("rmw_violation.trace");
    std::string Straight;
    int StraightCode =
        runCmdStdout(std::string(VELO_CHECK_BIN) + " --format=" + Fmt + " " +
                         T,
                     Straight);
    ASSERT_EQ(StraightCode, 1);

    std::string Ckpt =
        ::testing::TempDir() + "/velo_report_cli_" + Fmt + ".snap";
    std::remove(Ckpt.c_str());
    std::string Ignored;
    int CrashCode =
        runCmdStdout(std::string(VELO_CHECK_BIN) + " --checkpoint=" + Ckpt +
                         " --checkpoint-every=1 --crash-at=3 --format=" +
                         Fmt + " " + T,
                     Ignored);
    ASSERT_EQ(CrashCode, 128 + SIGKILL);

    std::string Resumed;
    int ResumedCode =
        runCmdStdout(std::string(VELO_CHECK_BIN) + " --resume=" + Ckpt +
                         " --format=" + Fmt + " " + T,
                     Resumed);
    EXPECT_EQ(ResumedCode, StraightCode) << Fmt;
    EXPECT_EQ(Resumed, Straight)
        << Fmt << ": resumed document must be byte-identical";
    std::remove(Ckpt.c_str());
  }
}

/// velodrome-convert --format=json writes a findings-free document whose
/// event count is the converted-event count.
TEST(ReportCliTest, ConvertEmitsFindingsFreeDocument) {
  const std::string Text = dataFile("rmw_violation.trace");
  const std::string Vtrc = ::testing::TempDir() + "/velo_report_conv.vtrc";
  std::string Out;
  ASSERT_EQ(runCmdStdout(std::string(VELO_CONVERT_BIN) + " --format=json " +
                             Text + " " + Vtrc,
                         Out),
            0);
  EXPECT_NE(Out.find("\"schema\": \"velodrome-report\""), std::string::npos);
  EXPECT_NE(Out.find("\"tool\": \"velodrome-convert\""), std::string::npos);
  EXPECT_NE(Out.find("\"findings\": []"), std::string::npos);
  EXPECT_EQ(Out.find("\"verdict\""), std::string::npos);
  std::remove(Vtrc.c_str());
}

/// Every emitter registers its rule id, so no finding on any golden trace,
/// from any back-end or the analyzer's lints, falls back to the
/// VELO-UNKNOWN placeholder.
TEST(ReportCliTest, NoGoldenFindingRendersUnknownRule) {
  std::vector<std::string> Runs;
  for (const char *F :
       {"deadlock_ab.trace", "deadlock_gate.trace", "flag_handoff.trace",
        "forkjoin_clean.trace", "intro_cycle.trace", "lock_cycle.trace",
        "rmw_violation.trace", "set_add.trace"}) {
    const std::string T = dataFile(F);
    for (const std::string &Cmd :
         {std::string(VELO_CHECK_BIN) + " --format=json " + T,
          std::string(VELO_CHECK_BIN) + " --backend=deadlock --format=json " +
              T,
          std::string(VELO_ANALYZE_BIN) + " --format=json " + T}) {
      std::string Out;
      int Code = runCmdStdout(Cmd, Out);
      EXPECT_TRUE(Code == 0 || Code == 1) << Cmd;
      EXPECT_EQ(Out.find("VELO-UNKNOWN"), std::string::npos) << Cmd;
      Runs.push_back(Out);
    }
  }
  size_t Findings = 0;
  for (const std::string &Out : Runs)
    for (size_t At = 0; (At = Out.find("\"ruleId\"", At)) != std::string::npos;
         ++At)
      ++Findings;
  EXPECT_GT(Findings, 0u) << "the goldens must produce findings to check";
}

/// After a governor stop the JSON "events" count (sanitized-stream
/// ordinals) covers only delivered events, like the text header: the
/// sanitizer's finish() tail after the stop is never delivered. Two
/// transactions that never end leave a two-event tail in lenient mode.
TEST(ReportCliTest, EventsCountSkipsUndeliveredTailAfterGovernorStop) {
  const std::string T = ::testing::TempDir() + "/velo_report_unclosed.trace";
  {
    std::ofstream Out(T);
    Out << "T0 fork T1\nT0 begin a\nT1 begin b\nT0 wr x\n"
           "T1 wr y\nT0 rd y\nT1 rd x\nT0 wr z\n";
  }
  const std::string Base = std::string(VELO_CHECK_BIN) +
                           " --lenient --backend=velodrome --max-events=3 ";
  std::string Text, Json, Witness;
  EXPECT_EQ(runCmdStdout(Base + T, Text), 3);
  EXPECT_EQ(runCmdStdout(Base + "--format=json " + T, Json), 3);
  EXPECT_EQ(runCmdStdout(Base + "--witness --format=json " + T, Witness), 3);
  EXPECT_EQ(Text.rfind(T + ": 4 events, 2 threads\n", 0), 0u) << Text;
  EXPECT_NE(Json.find("\"events\": 4,"), std::string::npos) << Json;
  EXPECT_EQ(Witness, Json);
  std::remove(T.c_str());
}

/// --format rejects unknown values with a usage error on every tool.
TEST(ReportCliTest, UnknownFormatIsAUsageError) {
  const std::string T = dataFile("rmw_violation.trace");
  std::string Out;
  EXPECT_EQ(runCmdStdout(std::string(VELO_CHECK_BIN) + " --format=xml " + T,
                         Out),
            2);
  EXPECT_EQ(runCmdStdout(std::string(VELO_ANALYZE_BIN) + " --format=xml " +
                             T,
                         Out),
            2);
  EXPECT_EQ(runCmdStdout(std::string(VELO_CONVERT_BIN) + " --format=xml " +
                             T + " /tmp/velo_report_fmt.vtrc",
                         Out),
            2);
}

} // namespace
