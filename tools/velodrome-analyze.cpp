//===- tools/velodrome-analyze.cpp - Static trace analysis CLI ------------===//
//
// Report mode for the static pass pipeline (docs/STATIC.md): runs the
// whole-trace classification sweep and prints the lock-discipline lint
// plus per-pass reduction statistics, without running any dynamic
// back-end. The lock-order deadlock checker (src/deadlock) also runs over
// the sanitized trace, so nested-acquisition cycles surface here during
// ingestion triage. Optionally writes the reduced trace for offline use.
//
//   velodrome-analyze [options] <trace-file>
//
//     --reduce=<spec>        passes to plan with (default all)
//     --write-reduced=<file> write the reduced trace
//     --no-lint              suppress the lint report (and the exit-1
//                            finding gate below)
//     --lint-ok              report lint findings but keep exit status 0
//     --format=<text|json|sarif>  report rendering (default text; see
//                            docs/REPORTING.md)
//     --lenient / --strict   sanitize mode (default strict, as in
//                            velodrome-check)
//
// Exit status: 0 analysis completed and no lint findings, 1 lint findings
// exist (racy or inconsistently-guarded variables, or a lock-order
// deadlock cycle) and --lint-ok was not given, 2 usage/input error. See
// the exit table in docs/INGESTION.md.
//
//===----------------------------------------------------------------------===//

#include "deadlock/DeadlockDetector.h"
#include "events/TraceSanitizer.h"
#include "events/TraceText.h"
#include "report/Report.h"
#include "staticpass/PassManager.h"
#include "staticpass/StaticPipeline.h"

#include <cstdio>
#include <string>

#include "support/Syscalls.h"

using namespace velo;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: velodrome-analyze [options] <trace-file>\n"
      "  --reduce=<all|none|escape,readonly,redundant,lockset>\n"
      "                 passes to plan with (default all)\n"
      "  --write-reduced=<file>  write the statically reduced trace\n"
      "                 (.vtrc writes the VELOTRC binary container;\n"
      "                 input format is always auto-detected)\n"
      "  --no-lint      suppress the lint report entirely\n"
      "  --lint-ok      report lint findings but exit 0 anyway\n"
      "  --format=<text|json|sarif>  report rendering (default text;\n"
      "                 see docs/REPORTING.md)\n"
      "  --lenient      repair ill-formed traces instead of rejecting\n"
      "exit: 0 no lint findings, 1 lint findings (unless --lint-ok),\n"
      "      2 usage/input error\n");
}

/// Fold the lockset lint into structured findings: one VELO-LINT-001 per
/// racy variable, one VELO-LINT-002 per inconsistently-guarded (but not
/// racy) variable. The rendered text lint is unchanged; these feed the
/// exit-status gate and the JSON/SARIF renderers.
void lintFindings(const LintReport &LR, ReportManager &RM) {
  for (const LintVar &V : LR.Vars) {
    if (!V.Racy && !V.Inconsistent)
      continue;
    Warning W;
    W.Analysis = "lockset-lint";
    W.Category = "race";
    W.Method = NoLabel;
    W.Thread = V.FirstThread;
    if (V.Racy) {
      W.RuleId = "VELO-LINT-001";
      W.Message = "variable " + V.Name +
                  " is write-shared with an empty candidate lockset";
    } else {
      W.RuleId = "VELO-LINT-002";
      W.Message = "variable " + V.Name +
                  " is guarded inconsistently (some accesses run "
                  "unprotected)";
    }
    RM.addWarning("lint", W, nullptr);
  }
}

} // namespace

int main(int argc, char **argv) {
  sys::ignoreSigpipe(); // closed pager/pipe must be a write error, not death
  std::string TraceFile, ReducedFile, ReduceSpec = "all";
  bool Lint = true;
  bool LintOk = false;
  ReportFormat Format = ReportFormat::Text;
  SanitizeMode Mode = SanitizeMode::Strict;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--reduce=", 0) == 0) {
      ReduceSpec = Arg.substr(9);
    } else if (Arg.rfind("--write-reduced=", 0) == 0) {
      ReducedFile = Arg.substr(16);
    } else if (Arg == "--no-lint") {
      Lint = false;
    } else if (Arg == "--lint-ok") {
      LintOk = true;
    } else if (Arg.rfind("--format=", 0) == 0) {
      if (!parseReportFormat(Arg.substr(9), Format)) {
        std::fprintf(stderr, "invalid value in '%s'\n", Arg.c_str());
        usage();
        return 2;
      }
    } else if (Arg == "--lenient") {
      Mode = SanitizeMode::Lenient;
    } else if (Arg == "--strict") {
      Mode = SanitizeMode::Strict;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", Arg.c_str());
      usage();
      return 2;
    } else if (TraceFile.empty()) {
      TraceFile = Arg;
    } else {
      usage();
      return 2;
    }
  }
  if (TraceFile.empty()) {
    usage();
    return 2;
  }
  PassMask Mask;
  std::string Error;
  if (!parsePassSpec(ReduceSpec, Mask, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  Trace Raw;
  if (readTraceFileStatus(TraceFile, Raw, Error) != TraceReadStatus::Ok) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  Trace T;
  RepairCounts Repairs;
  if (!sanitizeTrace(Raw, Mode, T, &Repairs, Error)) {
    std::fprintf(stderr, "error: %s: trace is not well formed: %s\n",
                 TraceFile.c_str(), Error.c_str());
    return 2;
  }
  std::fputs(Repairs.note().c_str(), stderr);

  AnalysisFacts Facts = classifyTrace(T);
  PassManager PM(Mask);
  ReductionPlan Plan = PM.plan(Facts);
  PassStats Stats;
  Trace Reduced = reduceTrace(T, Plan, &Stats);

  ReportManager RM;
  RM.Run.Tool = "velodrome-analyze";
  RM.Run.Trace = TraceFile;
  RM.Run.Events = Facts.Events;
  RM.Run.SanitizedEvents = T.size();
  RM.Run.Threads = T.numThreads();

  std::string Text;
  {
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "%s: %llu events, %llu accesses, %llu variables, "
                  "%u threads\n",
                  TraceFile.c_str(),
                  static_cast<unsigned long long>(Facts.Events),
                  static_cast<unsigned long long>(Facts.Accesses),
                  static_cast<unsigned long long>(Facts.SeenVars),
                  T.numThreads());
    Text += Buf;
  }
  Text += "passes: " + passSpecString(Mask) + "\n";

  if (Lint && Mask.has(PassId::Lockset)) {
    LintReport LR = PM.lint(Facts, T.symbols());
    Text += LR.render();
    lintFindings(LR, RM);
  }

  // The deadlock checker rides along with the lint: cheap, static-style
  // triage over the same sanitized trace. Its section only renders when a
  // cycle was found, so reports for cycle-free traces are unchanged.
  if (Lint) {
    DeadlockDetector Deadlock;
    replay(T, Deadlock);
    if (!Deadlock.warnings().empty()) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "[%s] %zu warning(s)\n",
                    Deadlock.name(), Deadlock.warnings().size());
      Text += Buf;
      for (const Warning &W : Deadlock.warnings()) {
        Text += "  " + W.Message + "\n";
        RM.addWarning(Deadlock.name(), W, &T.symbols());
      }
    }
  }

  for (const PassInfo &P : PassManager::registry()) {
    if (P.Id == PassId::Lockset)
      continue;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "[%s] %s: %llu event(s) dropped\n",
                  P.Name, P.Summary,
                  static_cast<unsigned long long>(
                      Stats.Dropped[static_cast<unsigned>(P.Id)]));
    Text += Buf;
  }
  {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "reduction: %s (%.1f%%)\n",
                  Stats.summary().c_str(),
                  Stats.Input
                      ? 100.0 * static_cast<double>(Stats.droppedTotal()) /
                            static_cast<double>(Stats.Input)
                      : 0.0);
    Text += Buf;
  }

  if (!ReducedFile.empty()) {
    if (!writeTraceFile(Reduced, ReducedFile)) {
      std::fprintf(stderr, "error: cannot write %s\n", ReducedFile.c_str());
      return 2;
    }
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "reduced trace (%zu events) written to %s\n",
                  Reduced.size(), ReducedFile.c_str());
    Text += Buf;
  }

  const int Exit = (!LintOk && RM.actionableFindings() != 0) ? 1 : 0;
  RM.Run.ExitCode = Exit;
  if (Format == ReportFormat::Text) {
    std::fwrite(Text.data(), 1, Text.size(), stdout);
  } else {
    const std::string Doc = RM.render(Format);
    std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  }
  return Exit;
}
