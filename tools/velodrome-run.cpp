//===- tools/velodrome-run.cpp - Benchmark-workload driver CLI ------------===//
//
// Runs one of the 15 benchmark analogues under the monitored runtime with
// any combination of back-ends, optionally recording the trace, corrupting
// guard sites, and enabling adversarial scheduling:
//
//   velodrome-run [options] <workload>
//
//     --list               list available workloads and their guard sites
//     --seed=<n>           scheduler/workload seed          (default 1)
//     --scale=<n>          work multiplier >= 1             (default 1)
//     --backend=<velodrome|aero|both>  atomicity checker    (default velodrome)
//     --record=<file>      write the observed trace
//     --disable=<site>     disable a guard site (repeatable)
//     --adversarial        Atomizer-guided scheduling
//     --policy=<all|writes|reads|spare-main>  stall policy  (default all)
//     --exclude-known      don't check ground-truth non-atomic methods
//     --reduce=<spec>      record the execution, statically reduce it, and
//                          run the back-ends on the reduced trace offline
//                          (docs/STATIC.md); results are identical to live
//                          monitoring of the same execution
//     --format=<text|json|sarif>  report rendering (default text;
//                          see docs/REPORTING.md)
//     --max-events=N       stop the analysis after N events (0 = unlimited)
//     --max-live-nodes=N   graph node cap, fall back to the vector-clock
//                          checker on breach               (default 60000)
//     --max-memory-mb=N    estimated-memory cap            (0 = unlimited)
//     --deadline-ms=N      wall-clock budget               (0 = unlimited)
//
// Live monitoring runs under the same resource governor as the offline
// checker: a cap breach degrades to the vector-clock hot spare instead of
// aborting, and an exhausted budget yields verdict-unknown.
//
// Exit status: 0 no violation, 1 violation observed, 2 usage error,
// 3 resource-limited (budget exhausted before a verdict was reached).
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "analysis/SanitizerGate.h"
#include "analysis/Stack.h"
#include "analysis/TraceRecorder.h"
#include "core/Velodrome.h"
#include "events/TraceText.h"
#include "report/Report.h"
#include "staticpass/StaticPipeline.h"
#include "workloads/Workload.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/Parse.h"
#include "support/Syscalls.h"

using namespace velo;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: velodrome-run [options] <workload>\n"
               "  --list  --seed=N  --scale=N  --record=FILE\n"
               "                 (a .vtrc FILE records the VELOTRC binary\n"
               "                 container; anything else records text)\n"
               "  --backend=velodrome|aero|both\n"
               "  --disable=SITE  --adversarial  --policy=POLICY\n"
               "  --exclude-known  --reduce=SPEC\n"
               "  --format=text|json|sarif   report rendering\n"
               "  --max-events=N  --max-live-nodes=N  --max-memory-mb=N\n"
               "  --deadline-ms=N      resource governor caps\n");
}

/// Parse a positive decimal int ("--scale="). Rejects 0, negatives,
/// non-numeric input, and overflow.
bool parseScale(const char *S, int &Out) {
  if (*S == '\0' || *S == '-' || *S == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  long V = std::strtol(S, &End, 10);
  if (errno != 0 || End == S || *End != '\0' || V < 1 || V > INT_MAX)
    return false;
  Out = static_cast<int>(V);
  return true;
}

void listWorkloads() {
  std::printf("%-12s %-9s %s\n", "workload", "bugs", "guard sites");
  for (const auto &W : makeAllWorkloads()) {
    std::string Sites;
    for (const std::string &S : W->guardSites())
      Sites += (Sites.empty() ? "" : ", ") + S;
    std::printf("%-12s %-9zu %s\n", W->name(), W->nonAtomicMethods().size(),
                Sites.empty() ? "-" : Sites.c_str());
  }
}

} // namespace

int main(int argc, char **argv) {
  sys::ignoreSigpipe(); // closed pager/pipe must be a write error, not death
  std::string Name, RecordFile, ReduceSpec;
  uint64_t Seed = 1;
  int Scale = 1;
  bool RunVelo = true, RunAero = false;
  bool Adversarial = false, ExcludeKnown = false;
  ReportFormat Format = ReportFormat::Text;
  StallPolicy Policy = StallPolicy::AllOps;
  std::vector<std::string> Disabled;
  GovernorLimits Limits;
  Limits.MaxLiveNodes = DefaultMaxLiveNodes;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    bool Valid = true;
    if (Arg == "--list") {
      listWorkloads();
      return 0;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseU64(Arg.c_str() + 7, Seed)) {
        std::fprintf(stderr, "invalid --seed value: '%s'\n", Arg.c_str() + 7);
        usage();
        return 2;
      }
    } else if (Arg.rfind("--scale=", 0) == 0) {
      if (!parseScale(Arg.c_str() + 8, Scale)) {
        std::fprintf(stderr, "invalid --scale value: '%s' (must be >= 1)\n",
                     Arg.c_str() + 8);
        usage();
        return 2;
      }
    } else if (Arg.rfind("--backend=", 0) == 0) {
      std::string B = Arg.substr(10);
      if (B == "velodrome") {
        RunVelo = true;
        RunAero = false;
      } else if (B == "aero") {
        RunVelo = false;
        RunAero = true;
      } else if (B == "both") {
        RunVelo = RunAero = true;
      } else {
        std::fprintf(stderr, "unknown backend: %s\n", B.c_str());
        usage();
        return 2;
      }
    } else if (Arg.rfind("--record=", 0) == 0) {
      RecordFile = Arg.substr(9);
    } else if (Arg.rfind("--disable=", 0) == 0) {
      Disabled.push_back(Arg.substr(10));
    } else if (Arg == "--adversarial") {
      Adversarial = true;
    } else if (Arg.rfind("--policy=", 0) == 0) {
      std::string P = Arg.substr(9);
      if (P == "all")
        Policy = StallPolicy::AllOps;
      else if (P == "writes")
        Policy = StallPolicy::WritesOnly;
      else if (P == "reads")
        Policy = StallPolicy::ReadsOnly;
      else if (P == "spare-main")
        Policy = StallPolicy::SpareMainOps;
      else {
        std::fprintf(stderr, "unknown policy: %s\n", P.c_str());
        return 2;
      }
    } else if (Arg == "--exclude-known") {
      ExcludeKnown = true;
    } else if (Arg.rfind("--reduce=", 0) == 0) {
      ReduceSpec = Arg.substr(9);
    } else if (Arg.rfind("--format=", 0) == 0) {
      if (!parseReportFormat(Arg.substr(9), Format)) {
        std::fprintf(stderr, "invalid value in '%s'\n", Arg.c_str());
        usage();
        return 2;
      }
    } else if (parseLimitFlag(Arg, Limits, Valid)) {
      if (!Valid) {
        std::fprintf(stderr, "invalid value in '%s'\n", Arg.c_str());
        usage();
        return 2;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", Arg.c_str());
      usage();
      return 2;
    } else if (Name.empty()) {
      Name = Arg;
    } else {
      usage();
      return 2;
    }
  }
  if (Name.empty()) {
    usage();
    return 2;
  }
  bool Reducing = !ReduceSpec.empty();
  PassMask ReduceMask;
  if (Reducing) {
    std::string Error;
    if (!parsePassSpec(ReduceSpec, ReduceMask, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    if (Adversarial) {
      // Adversarial scheduling needs the Atomizer fed live to steer the
      // scheduler; --reduce defers every back-end to an offline replay.
      std::fprintf(stderr,
                   "error: --reduce is incompatible with --adversarial\n");
      return 2;
    }
  }

  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                 Name.c_str());
    return 2;
  }
  W->Scale = Scale;
  for (const std::string &S : Disabled)
    W->DisabledGuards.insert(S);

  RuntimeOptions Opts;
  Opts.ExecMode = RuntimeOptions::Mode::Deterministic;
  Opts.SchedulerSeed = Seed;
  Opts.WorkloadSeed = Seed * 11 + 3;
  Opts.Adversarial = Adversarial;
  Opts.Policy = Policy;

  // The live path runs under the same analysis stack as the offline
  // checker: the graph checker as the governed primary, the vector-clock
  // checker as its lockstep hot spare (fed from the start even when not
  // selected for reporting, so a mid-run degradation loses no verdict
  // coverage), and the Atomizer, which guides the adversarial scheduler.
  std::vector<std::string> Names = {"atomizer"};
  if (RunVelo)
    Names.push_back("velodrome");
  if (RunAero)
    Names.push_back("aero");
  StackOptions SOpts;
  SOpts.Limits = Limits;
  SOpts.HotSpare = true;
  AnalysisStack Stack;
  std::string Unused; // every name above is in the registry
  Stack.build(Names, SOpts, Unused);
  const Velodrome *Velo = Stack.get<Velodrome>("velodrome");
  const AeroDrome *Aero = RunAero ? Stack.get<AeroDrome>("aero") : nullptr;
  Backend *Atom = Stack.backend("atomizer");
  TraceRecorder Rec;

  // Under --reduce the analyses run offline on the reduced recording, so
  // the live stream reaches only the recorder.
  std::vector<Backend *> Live;
  if (!Reducing)
    Live = Stack.delivery();
  if (!RecordFile.empty() || Reducing)
    Live.push_back(&Rec);
  // Defense in depth: the runtime's own stream is well-formed by
  // construction, but every replay path routes through validation before a
  // back-end sees an event — a runtime bug fail-stops with a diagnostic
  // instead of silently corrupting the analyses (and the recorded trace is
  // exactly what the back-ends analyzed).
  SanitizerGate Gate(Live, SanitizeMode::Strict);
  Runtime RT(Opts, {&Gate});
  if (Adversarial)
    RT.setGuide(Atom);
  if (ExcludeKnown)
    for (const std::string &M : W->nonAtomicMethods())
      RT.excludeMethod(M);
  W->run(RT);

  if (Gate.rejected()) {
    std::fprintf(stderr,
                 "error: runtime produced an ill-formed event stream (%s); "
                 "analysis results discarded\n",
                 Gate.error().c_str());
    return 2;
  }

  // Deferred analysis: classify the recording, reduce it, and replay the
  // kept events through the same back-end pipeline the live path uses.
  PassStats ReduceStats;
  Trace Reduced; // backends hold a reference to its symbol table
  if (Reducing) {
    ReductionPlan Plan = planTrace(Rec.trace(), ReduceMask);
    Reduced = reduceTrace(Rec.trace(), Plan, &ReduceStats);
    replayAll(Reduced, Stack.delivery());
  }

  // The workload summary keeps its historical text layout; --format=json
  // or =sarif swaps in a machine rendering of the same findings
  // (docs/REPORTING.md), with the human text suppressed.
  const bool Text = Format == ReportFormat::Text;
  ReportManager RM;
  RM.Run.Tool = "velodrome-run";
  RM.Run.Trace = Name;
  RM.Run.Events = RT.eventCount();
  RM.Run.SanitizedEvents = Reducing ? Reduced.size() : RT.eventCount();
  RM.Run.Threads =
      (!RecordFile.empty() || Reducing) ? Rec.trace().numThreads() : 0;
  const int Exit = Stack.report(RM, &RT.symbols());

  if (Text)
    std::printf("%s: seed=%llu scale=%d events=%llu\n", W->name(),
                static_cast<unsigned long long>(Seed), Scale,
                static_cast<unsigned long long>(RT.eventCount()));
  if (Velo && Text) {
    std::printf("[Velodrome] %zu violation(s)\n", Velo->violations().size());
    for (const AtomicityViolation &V : Velo->violations())
      std::printf("  %s (%s, cycle of %zu)\n",
                  RT.symbols().labelName(V.Method).c_str(),
                  V.BlameResolved ? "blame resolved" : "blame unresolved",
                  V.CycleLength);
  }
  if (Aero && Text) {
    std::printf("[AeroDrome] %zu violation(s)\n", Aero->violations().size());
    for (const AeroViolation &V : Aero->violations())
      std::printf("  %s (witness T%u)\n",
                  V.Method == NoLabel
                      ? "(unary)"
                      : RT.symbols().labelName(V.Method).c_str(),
                  V.Witness);
  }
  // A degraded run legitimately stops feeding the graph checker early, so
  // the cross-check only applies while both saw the whole stream.
  const GovernedAnalysis *Gov = Stack.governor();
  if (Velo && Aero && (!Gov || Gov->state() == GovernorState::Normal) &&
      Velo->sawViolation() != Aero->sawViolation())
    std::fprintf(stderr,
                 "warning: backend verdicts disagree "
                 "(Velodrome=%d AeroDrome=%d)\n",
                 Velo->sawViolation(), Aero->sawViolation());
  if (Text) {
    std::printf("[Atomizer]  %zu warning(s)\n", Atom->warnings().size());
    for (const Warning &Warn : Atom->warnings())
      std::printf("  %s\n", Warn.Message.c_str());
    if (Reducing)
      std::printf("[reduce]    %s\n", ReduceStats.summary().c_str());
  }

  if (!RecordFile.empty()) {
    if (!writeTraceFile(Rec.trace(), RecordFile)) {
      std::fprintf(stderr, "error: cannot write %s\n", RecordFile.c_str());
      return 2;
    }
    if (Text)
      std::printf("trace written to %s (%zu events)\n", RecordFile.c_str(),
                  Rec.trace().size());
  }
  std::fputs(Stack.governorNote().c_str(), stderr);
  if (Text && Exit == 3)
    std::printf("verdict: %s\n", RM.Run.Verdict.c_str());
  if (!Text) {
    const std::string Doc = RM.render(Format);
    std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  }
  return Exit;
}
