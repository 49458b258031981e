//===- tests/ReportTest.cpp - Structured report manager tests -------------===//
//
// Unit tests for src/report: the stable rule registry (ids, CWE tags,
// SARIF order), rule resolution for legacy warnings, the shared
// MaxWarnings cap semantics, the exit-1 actionable-findings count, and
// the three renderers — the text layout the tools printed historically,
// the versioned JSON schema, and SARIF 2.1.0 structure.
//
//===----------------------------------------------------------------------===//

#include "report/Report.h"

#include <gtest/gtest.h>

namespace velo {
namespace {

Warning makeWarning(const std::string &Analysis, const std::string &Category,
                    const std::string &RuleId, const std::string &Message,
                    Tid Thread = 0, uint64_t Ordinal = 0) {
  Warning W;
  W.Analysis = Analysis;
  W.Category = Category;
  W.RuleId = RuleId;
  W.Message = Message;
  W.Method = NoLabel;
  W.Thread = Thread;
  W.Ordinal = Ordinal;
  return W;
}

TEST(ReportTest, RuleRegistryIsCompleteAndStable) {
  size_t Count = 0;
  const RuleInfo *Table = ruleTable(Count);
  ASSERT_EQ(Count, 9u);

  const char *Expected[] = {
      "VELO-ATOM-001", "VELO-ATOM-002", "VELO-ATOM-003",
      "VELO-ATOM-004", "VELO-RACE-001", "VELO-RACE-002",
      "VELO-DLK-001",  "VELO-LINT-001", "VELO-LINT-002",
  };
  for (size_t I = 0; I < Count; ++I) {
    EXPECT_STREQ(Table[I].Id, Expected[I]) << "registry order is append-only";
    EXPECT_EQ(ruleIndex(Table[I].Id), static_cast<int>(I));
    const RuleInfo *R = findRule(Table[I].Id);
    ASSERT_NE(R, nullptr);
    EXPECT_EQ(R, &Table[I]);
    EXPECT_EQ(std::string(R->Cwe).compare(0, 4, "CWE-"), 0);
  }
  EXPECT_EQ(findRule("VELO-NOPE-999"), nullptr);
  EXPECT_EQ(ruleIndex("VELO-NOPE-999"), -1);

  // Spot-check the metadata the issue pins down.
  EXPECT_STREQ(findRule("VELO-DLK-001")->Cwe, "CWE-833");
  EXPECT_STREQ(findRule("VELO-DLK-001")->Level, "warning");
  EXPECT_STREQ(findRule("VELO-ATOM-001")->Level, "error");
  EXPECT_STREQ(findRule("VELO-RACE-001")->Cwe, "CWE-362");
}

TEST(ReportTest, CapReachedZeroMeansUnlimited) {
  EXPECT_FALSE(ReportManager::capReached(0, 0));
  EXPECT_FALSE(ReportManager::capReached(1000000, 0));
  EXPECT_FALSE(ReportManager::capReached(4, 5));
  EXPECT_TRUE(ReportManager::capReached(5, 5));
  EXPECT_TRUE(ReportManager::capReached(6, 5));
}

TEST(ReportTest, TextRendererMatchesHistoricalLayout) {
  ReportManager RM;
  RM.Run.Tool = "velodrome-check";
  RM.Run.Trace = "demo.trace";
  RM.Run.Events = 12;
  RM.Run.SanitizedEvents = 12;
  RM.Run.Threads = 2;
  RM.Run.Verdict = "NOT conflict-serializable";
  RM.Run.ExitCode = 1;

  std::vector<Warning> Ws;
  Ws.push_back(makeWarning("velodrome", "atomicity", "VELO-ATOM-001",
                           "cycle through atomic block main", 1, 7));
  RM.addSection("Velodrome", Ws, nullptr);
  RM.addSection("Atomizer", {}, nullptr);
  RM.addStatLine("[graph] 3 nodes");
  RM.addNote("witness:\n  T0: wr x\n");

  EXPECT_EQ(RM.renderText(),
            "demo.trace: 12 events, 2 threads\n"
            "[Velodrome] 1 warning(s)\n"
            "  cycle through atomic block main\n"
            "[Atomizer] 0 warning(s)\n"
            "[graph] 3 nodes\n"
            "witness:\n  T0: wr x\n"
            "verdict: NOT conflict-serializable\n");

  // Quiet keeps only notes and the verdict — the bytes --quiet printed
  // before the manager existed.
  EXPECT_EQ(RM.renderText(/*Quiet=*/true),
            "witness:\n  T0: wr x\n"
            "verdict: NOT conflict-serializable\n");
}

TEST(ReportTest, ActionableFindingsCountErrorsAndWarnings) {
  ReportManager RM;
  RM.addWarning("Lint", makeWarning("lockset-lint", "race", "VELO-LINT-001",
                                    "racy variable x"),
                nullptr);
  RM.addWarning("Velodrome", makeWarning("velodrome", "atomicity",
                                         "VELO-ATOM-001", "cycle"),
                nullptr);
  EXPECT_EQ(RM.actionableFindings(), 2u);
  EXPECT_EQ(RM.findings().size(), 2u);
}

TEST(ReportTest, JsonRendererShapeAndEscaping) {
  ReportManager RM;
  RM.Run.Tool = "velodrome-check";
  RM.Run.Trace = "dir/demo \"quoted\".trace";
  RM.Run.Events = 40;
  RM.Run.SanitizedEvents = 32; // JSON reports the ordinal coordinate space.
  RM.Run.Threads = 3;
  RM.Run.Verdict = "serializable";
  RM.Run.ExitCode = 0;

  Warning W = makeWarning("deadlock", "deadlock", "VELO-DLK-001",
                          "potential deadlock: lock-order cycle a -> b -> a\n"
                          "    T0 acquires b while holding a",
                          0, 2);
  WarningSite Site;
  Site.Thread = 1;
  Site.Ordinal = 6;
  Site.Note = "acquires a while holding b";
  W.Related.push_back(Site);
  RM.addWarning("Deadlock", W, nullptr);

  const std::string Json = RM.renderJson();
  EXPECT_NE(Json.find("\"schema\": \"velodrome-report\""), std::string::npos);
  EXPECT_NE(Json.find("\"schemaVersion\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"tool\": \"velodrome-check\""), std::string::npos);
  // The events field is the sanitized count, not the delivered count.
  EXPECT_NE(Json.find("\"events\": 32"), std::string::npos);
  EXPECT_EQ(Json.find("\"events\": 40"), std::string::npos);
  EXPECT_NE(Json.find("\"ruleId\": \"VELO-DLK-001\""), std::string::npos);
  EXPECT_NE(Json.find("\"ruleName\": \"LockOrderCycle\""), std::string::npos);
  EXPECT_NE(Json.find("\"cwe\": \"CWE-833\""), std::string::npos);
  EXPECT_NE(Json.find("\"severity\": \"warning\""), std::string::npos);
  EXPECT_NE(Json.find("\"ordinal\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"related\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"ordinal\": 6"), std::string::npos);
  // Strings are escaped: the quoted trace path stays one JSON string, and
  // the message's embedded newline renders as \n, never raw.
  EXPECT_NE(Json.find("demo \\\"quoted\\\".trace"), std::string::npos);
  EXPECT_NE(Json.find("a -> b -> a\\n"), std::string::npos);
  EXPECT_EQ(Json.find("a -> b -> a\n"), std::string::npos)
      << "raw newlines inside string values must be escaped";
}

TEST(ReportTest, JsonOmitsOptionalFields) {
  ReportManager RM;
  RM.Run.Tool = "velodrome-convert";
  RM.Run.Trace = "in.trace";
  // No verdict, no findings: the keys disappear rather than render empty.
  const std::string Json = RM.renderJson();
  EXPECT_EQ(Json.find("\"verdict\""), std::string::npos);
  EXPECT_NE(Json.find("\"findings\": []"), std::string::npos);

  // Ordinal 0 means "no coordinate" and is omitted.
  RM.addWarning("Lint",
                makeWarning("lockset-lint", "race", "VELO-LINT-001", "x"),
                nullptr);
  EXPECT_EQ(RM.renderJson().find("\"ordinal\""), std::string::npos);
}

TEST(ReportTest, SarifRendererStructure) {
  ReportManager RM;
  RM.Run.Tool = "velodrome-check";
  RM.Run.Trace = "demo.trace";
  RM.Run.ExitCode = 1;

  Warning W = makeWarning("velodrome", "atomicity", "VELO-ATOM-001",
                          "cycle through atomic block worker", 2, 11);
  WarningSite Site;
  Site.Thread = 0;
  Site.Ordinal = 4;
  Site.Note = "conflicting write";
  W.Related.push_back(Site);
  RM.addWarning("Velodrome", W, nullptr);

  const std::string S = RM.renderSarif();
  EXPECT_NE(S.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(S.find("sarif-schema-2.1.0.json"), std::string::npos);

  // Every registered rule appears in tool.driver.rules, in registry order.
  size_t Count = 0;
  const RuleInfo *Table = ruleTable(Count);
  size_t Prev = 0;
  for (size_t I = 0; I < Count; ++I) {
    size_t At = S.find("\"id\": \"" + std::string(Table[I].Id) + "\"");
    ASSERT_NE(At, std::string::npos) << Table[I].Id;
    EXPECT_GT(At, Prev) << "rules render in registry order";
    Prev = At;
  }

  // The result points at the trace artifact with the sanitized-event
  // ordinal as the line coordinate, and carries the related site.
  EXPECT_NE(S.find("\"ruleId\": \"VELO-ATOM-001\""), std::string::npos);
  EXPECT_NE(S.find("\"ruleIndex\": 0"), std::string::npos);
  EXPECT_NE(S.find("\"startLine\": 11"), std::string::npos);
  EXPECT_NE(S.find("\"startLine\": 4"), std::string::npos);
  EXPECT_NE(S.find("\"name\": \"T2\""), std::string::npos);
  EXPECT_NE(S.find("\"kind\": \"thread\""), std::string::npos);
  EXPECT_NE(S.find("\"relatedLocations\""), std::string::npos);
  EXPECT_NE(S.find("\"text\": \"conflicting write\""), std::string::npos);
  EXPECT_NE(S.find("\"cwe\": \"CWE-366\""), std::string::npos);
  EXPECT_NE(S.find("\"columnKind\": \"utf16CodeUnits\""), std::string::npos);
}

TEST(ReportTest, UnknownRuleFallsBackToPlaceholder) {
  ReportManager RM;
  RM.addWarning("Mystery",
                makeWarning("mystery", "mystery", "", "unclassified"),
                nullptr);
  ASSERT_EQ(RM.findings().size(), 1u);
  EXPECT_STREQ(RM.findings()[0].Rule->Id, "VELO-UNKNOWN");
  // Placeholder severity is "warning", so it still counts as actionable.
  EXPECT_EQ(RM.actionableFindings(), 1u);
}

TEST(ReportTest, ParseReportFormat) {
  ReportFormat F = ReportFormat::Text;
  EXPECT_TRUE(parseReportFormat("json", F));
  EXPECT_EQ(F, ReportFormat::Json);
  EXPECT_TRUE(parseReportFormat("sarif", F));
  EXPECT_EQ(F, ReportFormat::Sarif);
  EXPECT_TRUE(parseReportFormat("text", F));
  EXPECT_EQ(F, ReportFormat::Text);
  EXPECT_FALSE(parseReportFormat("xml", F));
  EXPECT_FALSE(parseReportFormat("", F));
}

} // namespace
} // namespace velo
