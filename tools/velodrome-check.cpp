//===- tools/velodrome-check.cpp - Offline trace checker CLI --------------===//
//
// Command-line front end for analysing recorded traces: the shape of tool a
// downstream user points at a trace dump from their own instrumentation.
//
//   velodrome-check [options] <trace-file>
//
//     --backend=<name>  a name from the analysis stack's registry
//                      (analysis/Stack.cpp), or all (the default:
//                      velodrome, aero, atomizer, eraser, hb; the
//                      reference checker basic and the deadlock checker
//                      must be selected explicitly)
//     --format=<text|json|sarif>  report rendering (default text; see
//                      docs/REPORTING.md for the JSON schema and SARIF
//                      conventions). Machine formats replace the stdout
//                      report; stderr and the exit code are unchanged.
//     --max-warnings=N cap recorded warnings per back-end (0 = unlimited)
//     --dot=<file>     write the first violation's error graph as dot
//     --witness        print a serial witness when the trace is serializable
//     --no-merge       run Velodrome with the naive [INS OUTSIDE] rule
//     --reduce=<spec>  statically reduce the trace before analysis; spec is
//                      all, none, or a comma list of escape, readonly,
//                      redundant, lockset (docs/STATIC.md). Verdict and
//                      warnings are identical to the unreduced run.
//     --stats          print happens-before graph statistics (and per-pass
//                      reduction counts under --reduce)
//     --quiet          verdict only
//     --lenient        repair ill-formed traces instead of rejecting them
//     --parallel[=N]   run parsing, sanitizing, reduction, and the
//                      back-ends as a multi-threaded pipeline with N
//                      worker threads (default: one per back-end). The
//                      report is byte-identical to the sequential run
//                      (docs/PARALLEL.md). Composes with --reduce,
//                      --stats, --checkpoint/--resume (snapshots land on
//                      batch boundaries), and --supervise; incompatible
//                      with --witness and with explicit resource caps.
//     --batch-events=N events per pipeline batch          (default 4096)
//     --max-events=N       stop after N events            (0 = unlimited)
//     --max-live-nodes=N   graph node cap, fall back to the vector-clock
//                          checker on breach              (default 60000)
//     --max-memory-mb=N    graph-memory cap               (0 = unlimited)
//     --deadline-ms=N      wall-clock budget              (0 = unlimited)
//
//   Crash resilience (docs/OPERATIONS.md):
//     --checkpoint=<file>    write atomic snapshots of the analysis state
//     --checkpoint-every=N   events between snapshots     (default 4096)
//     --resume=<file>        continue a run from a snapshot; the verdict
//                            and warnings are identical to an uninterrupted
//                            run over the same trace
//     --supervise            fork the analysis into a worker, restart it
//                            from the last checkpoint when a signal kills
//                            it (requires --checkpoint)
//     --max-crashes=K        consecutive crashes in the same event window
//                            before giving up with a bundle (default 3)
//     --crash-at=N           test hook: die after N events this process
//     --crash-signal=S       test hook: signal to die with (default KILL)
//
// The trace is streamed: events reach the back-ends as they are parsed, so
// memory stays constant in the trace length. --witness rides the same
// stream and keeps the sanitized events, since its serializability oracle
// needs random access.
//
// Exit status: 0 serializable, 1 atomicity violation, 2 usage/input error,
// 3 resource-limited (budget exhausted before a verdict was reached),
// 4 crashed repeatedly under --supervise (see the crash bundle).
// docs/INGESTION.md and docs/OPERATIONS.md specify the full contract.
//
//===----------------------------------------------------------------------===//

#include "analysis/CrashDump.h"
#include "analysis/Stack.h"
#include "core/Velodrome.h"
#include "events/BinaryReader.h"
#include "events/TraceSanitizer.h"
#include "events/TraceSource.h"
#include "events/TraceStream.h"
#include "events/TraceText.h"
#include "oracle/SerializabilityOracle.h"
#include "parallel/Pipeline.h"
#include "report/Report.h"
#include "staticpass/PassManager.h"
#include "staticpass/ReductionFilter.h"
#include "support/Parse.h"
#include "support/Syscalls.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace velo;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: velodrome-check [options] <trace-file>\n"
      "  <trace-file> may be text or a VELOTRC .vtrc container\n"
      "  (auto-detected; see velodrome-convert and docs/INGESTION.md)\n"
      "  --backend=<%s>\n"
      "                 (default all: velodrome, aero, atomizer, eraser, hb)\n"
      "  --format=<text|json|sarif>  report rendering (default text;\n"
      "                 see docs/REPORTING.md)\n"
      "  --max-warnings=N  cap recorded warnings per back-end\n"
      "                 (0 = unlimited)\n"
      "  --dot=<file>   write the first violation's error graph\n"
      "  --witness      print a serial witness when serializable\n"
      "  --no-merge     disable the merge optimization\n"
      "  --reduce=<all|none|escape,readonly,redundant,lockset>\n"
      "                 sound static reduction before analysis\n"
      "                 (see docs/STATIC.md)\n"
      "  --stats        print happens-before graph statistics\n"
      "  --quiet        verdict only\n"
      "  --lenient      repair ill-formed traces instead of rejecting\n"
      "  --salvage      accept the longest intact frame prefix of a\n"
      "                 truncated .vtrc container (crashed tracer; see\n"
      "                 docs/TRACING.md)\n"
      "  --parallel[=N] multi-threaded pipeline, N back-end workers\n"
      "                 (byte-identical report; see docs/PARALLEL.md)\n"
      "  --batch-events=N  events per pipeline batch (default 4096)\n"
      "  --max-events=N --max-live-nodes=N --max-memory-mb=N\n"
      "  --deadline-ms=N      resource governor caps (0 = unlimited;\n"
      "                       see docs/INGESTION.md)\n"
      "  --checkpoint=<file> --checkpoint-every=N --resume=<file>\n"
      "  --supervise --max-crashes=K   crash resilience\n"
      "  --grace-ms=N   SIGTERM/SIGINT: wait N ms for the worker's final\n"
      "                 checkpoint before SIGKILL (default 2000)\n"
      "                       (see docs/OPERATIONS.md)\n"
      "exit: 0 serializable, 1 violation, 2 usage/input error,\n"
      "      3 resource-limited, 4 crashed under --supervise,\n"
      "      128+N stopped by signal N after a clean checkpoint\n",
      AnalysisStack::selectorUsage().c_str());
}

struct Options {
  std::string BackendSel = "all", TraceFile, DotFile;
  std::string ReduceSpec; ///< empty = reduction off
  std::string CheckpointFile, ResumeFile;
  uint64_t CheckpointEvery = 4096;
  uint64_t MaxCrashes = 3;
  uint64_t GraceMillis = 2000; ///< SIGTERM-to-SIGKILL escalation window
  uint64_t CrashAt = 0;  ///< test hook: die after N events this process
  uint64_t CrashSignal = SIGKILL;
  bool Supervise = false;
  bool Salvage = false; ///< --salvage: longest-prefix recovery for .vtrc
  bool Witness = false, Stats = false, Quiet = false;
  bool Parallel = false;       ///< --parallel given
  uint64_t ParallelWorkers = 0; ///< 0 = one worker per back-end
  uint64_t BatchEvents = 4096;
  bool BatchEventsSet = false;
  bool ExplicitLimits = false; ///< any resource-cap flag given
  SanitizeMode Mode = SanitizeMode::Strict;
  ReportFormat Format = ReportFormat::Text;
  StackOptions Analysis; ///< --no-merge, --max-warnings, governor caps
};

/// Returns 0 to continue, 2 on usage error, -1 when --help was handled.
int parseArgs(int argc, char **argv, Options &O) {
  O.Analysis.Limits.MaxLiveNodes = DefaultMaxLiveNodes;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    uint64_t *U64Target = nullptr;
    size_t U64Prefix = 0;
    bool Valid = true;
    if (Arg.rfind("--backend=", 0) == 0) {
      O.BackendSel = Arg.substr(10);
    } else if (Arg.rfind("--dot=", 0) == 0) {
      O.DotFile = Arg.substr(6);
    } else if (Arg == "--witness") {
      O.Witness = true;
    } else if (Arg == "--no-merge") {
      O.Analysis.NoMerge = true;
    } else if (Arg.rfind("--reduce=", 0) == 0) {
      O.ReduceSpec = Arg.substr(9);
    } else if (Arg == "--stats") {
      O.Stats = true;
    } else if (Arg == "--quiet") {
      O.Quiet = true;
    } else if (Arg == "--lenient") {
      O.Mode = SanitizeMode::Lenient;
    } else if (Arg == "--strict") {
      O.Mode = SanitizeMode::Strict;
    } else if (Arg == "--salvage") {
      O.Salvage = true;
    } else if (Arg.rfind("--format=", 0) == 0) {
      if (!parseReportFormat(Arg.substr(9), O.Format)) {
        std::fprintf(stderr, "invalid value in '%s'\n", Arg.c_str());
        usage();
        return 2;
      }
    } else if (Arg.rfind("--max-warnings=", 0) == 0) {
      U64Target = &O.Analysis.MaxWarnings.emplace();
      U64Prefix = 15;
    } else if (Arg.rfind("--checkpoint=", 0) == 0) {
      O.CheckpointFile = Arg.substr(13);
    } else if (Arg.rfind("--resume=", 0) == 0) {
      O.ResumeFile = Arg.substr(9);
    } else if (Arg == "--supervise") {
      O.Supervise = true;
    } else if (Arg == "--parallel") {
      O.Parallel = true;
    } else if (Arg.rfind("--parallel=", 0) == 0) {
      O.Parallel = true;
      U64Target = &O.ParallelWorkers;
      U64Prefix = 11;
    } else if (Arg.rfind("--batch-events=", 0) == 0) {
      U64Target = &O.BatchEvents;
      U64Prefix = 15;
      O.BatchEventsSet = true;
    } else if (Arg.rfind("--checkpoint-every=", 0) == 0) {
      U64Target = &O.CheckpointEvery;
      U64Prefix = 19;
    } else if (Arg.rfind("--max-crashes=", 0) == 0) {
      U64Target = &O.MaxCrashes;
      U64Prefix = 14;
    } else if (Arg.rfind("--grace-ms=", 0) == 0) {
      U64Target = &O.GraceMillis;
      U64Prefix = 11;
    } else if (Arg.rfind("--crash-at=", 0) == 0) {
      U64Target = &O.CrashAt;
      U64Prefix = 11;
    } else if (Arg.rfind("--crash-signal=", 0) == 0) {
      U64Target = &O.CrashSignal;
      U64Prefix = 15;
    } else if (parseLimitFlag(Arg, O.Analysis.Limits, Valid)) {
      O.ExplicitLimits = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return -1;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", Arg.c_str());
      usage();
      return 2;
    } else if (O.TraceFile.empty()) {
      O.TraceFile = Arg;
    } else {
      usage();
      return 2;
    }
    if (!Valid || (U64Target && !parseU64(Arg.c_str() + U64Prefix,
                                          *U64Target))) {
      std::fprintf(stderr, "invalid value in '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (O.TraceFile.empty()) {
    usage();
    return 2;
  }
  if (O.Witness && (!O.CheckpointFile.empty() || !O.ResumeFile.empty())) {
    std::fprintf(stderr, "error: --witness buffers the whole trace and is "
                         "incompatible with --checkpoint/--resume\n");
    return 2;
  }
  if (!O.ReduceSpec.empty()) {
    PassMask M;
    std::string Error;
    if (!parsePassSpec(O.ReduceSpec, M, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    if (O.Witness) {
      std::fprintf(stderr, "error: --witness replays the full trace and is "
                           "incompatible with --reduce\n");
      return 2;
    }
    if (O.Analysis.NoMerge) {
      // Without merging every outside-transaction operation gets its own
      // graph node, so collapsed repeats change the naive mode's cycle
      // shapes (and its warning text). Reduction is only exact against the
      // paper's real algorithm.
      std::fprintf(stderr,
                   "error: --reduce is incompatible with --no-merge\n");
      return 2;
    }
  }
  if (O.Parallel) {
    // Composition matrix (docs/PARALLEL.md): --reduce, --stats,
    // --checkpoint/--resume, and --supervise compose with --parallel;
    // --witness and explicit resource caps do not.
    if (O.Witness) {
      std::fprintf(stderr,
                   "error: --witness buffers and replays the whole trace "
                   "serially and is incompatible with --parallel\n");
      return 2;
    }
    if (O.ExplicitLimits) {
      std::fprintf(stderr,
                   "error: explicit resource caps (--max-events, "
                   "--max-live-nodes, --max-memory-mb, --deadline-ms) stop "
                   "the analysis mid-stream and are incompatible with "
                   "--parallel (the pipeline only stops at batch "
                   "boundaries); run sequentially to use them\n");
      return 2;
    }
    if (O.BatchEvents == 0) {
      std::fprintf(stderr, "error: --batch-events must be > 0\n");
      return 2;
    }
  } else if (O.BatchEventsSet) {
    std::fprintf(stderr,
                 "error: --batch-events only applies to the parallel "
                 "pipeline; add --parallel\n");
    return 2;
  }
  if (O.Supervise && O.CheckpointFile.empty()) {
    std::fprintf(stderr,
                 "error: --supervise requires --checkpoint (the restart "
                 "point after a crash)\n");
    return 2;
  }
  if (O.CheckpointEvery == 0 || O.MaxCrashes == 0) {
    std::fprintf(stderr,
                 "error: --checkpoint-every and --max-crashes must be > 0\n");
    return 2;
  }
  if (O.CrashSignal == 0 || O.CrashSignal >= 32) {
    std::fprintf(stderr, "error: --crash-signal must be in [1, 31]\n");
    return 2;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Checkpoint layout (inside the versioned Snapshot container)
//===----------------------------------------------------------------------===//
//
//   str  trace path (diagnostic)        u8   sanitize mode
//   str  backend selection              u64 x4 + u32 governor limits
//   bool no-merge                       str  reduce spec ("" = off)
//   u64  byte offset | u64 line | u64 events seen | u32 threads seen
//   blob symbols | blob sanitizer | blob reduction filter (empty = off)
//   u64  N; N x (str backend name + blob backend state)
//
// The configuration fields make the snapshot authoritative on resume: a
// resumed run always re-creates the exact pipeline that wrote it, which is
// what makes verdict/warning identity with a straight-through run hold.
// The stream position fields come first after the config so the supervisor
// can peek progress without decoding backend state.

struct ResumeState {
  SnapshotReader R; ///< positioned at the symbols blob after loadHeader
  uint64_t ByteOffset = 0, LineNo = 0, EventsSeen = 0;
  uint32_t ThreadsSeen = 0;
};

/// Read a checkpoint header: the configuration into O (the snapshot is
/// authoritative for it), the stream position into RS.
bool loadHeader(const std::string &Path, Options &O, ResumeState &RS,
                std::string &ErrorOut) {
  if (!SnapshotReader::readFile(Path, RS.R, ErrorOut))
    return false;
  RS.R.str(); // trace path: diagnostic only
  O.BackendSel = RS.R.str();
  O.Analysis.NoMerge = RS.R.boolean();
  O.ReduceSpec = RS.R.str();
  O.Mode = RS.R.u8() ? SanitizeMode::Lenient : SanitizeMode::Strict;
  GovernorLimits &L = O.Analysis.Limits;
  L.MaxEvents = RS.R.u64();
  L.MaxLiveNodes = RS.R.u64();
  L.MaxMemoryBytes = RS.R.u64();
  L.DeadlineMillis = RS.R.u64();
  L.CheckIntervalEvents = RS.R.u32();
  RS.ByteOffset = RS.R.u64();
  RS.LineNo = RS.R.u64();
  RS.EventsSeen = RS.R.u64();
  RS.ThreadsSeen = RS.R.u32();
  if (RS.R.failed()) {
    ErrorOut = "truncated snapshot header";
    return false;
  }
  return true;
}

/// The one checkpoint writer: the 14 header fields loadHeader reads (the
/// configuration, then the stream position), then the state blobs of a
/// cut. The sequential loop builds its cut at a record boundary and the
/// pipeline deposits one at a batch boundary, so each mode resumes the
/// other's snapshots.
bool writeCheckpoint(const Options &O, const CheckpointCut &Cut,
                     std::string &ErrorOut) {
  SnapshotWriter W;
  W.str(O.TraceFile);
  W.str(O.BackendSel);
  W.boolean(O.Analysis.NoMerge);
  W.str(O.ReduceSpec);
  W.u8(O.Mode == SanitizeMode::Lenient ? 1 : 0);
  const GovernorLimits &L = O.Analysis.Limits;
  W.u64(L.MaxEvents);
  W.u64(L.MaxLiveNodes);
  W.u64(L.MaxMemoryBytes);
  W.u64(L.DeadlineMillis);
  W.u32(L.CheckIntervalEvents);
  W.u64(Cut.ByteOffset);
  W.u64(Cut.LineNo);
  W.u64(Cut.EventsSeen);
  W.u32(Cut.ThreadsSeen);
  W.str(Cut.SymsBlob);
  W.str(Cut.SanBlob);
  W.str(Cut.FilterBlob);
  W.u64(Cut.Backends.size());
  for (const auto &Entry : Cut.Backends) {
    W.str(Entry.first);
    W.str(Entry.second);
  }
  return W.writeFile(O.CheckpointFile, ErrorOut);
}

/// The serialized state of one component, as a cut's blob.
template <typename T> std::string stateBlob(const T &Component) {
  SnapshotWriter W;
  Component.serialize(W);
  return W.payload();
}

//===----------------------------------------------------------------------===//
// Graceful shutdown: SIGTERM/SIGINT set a flag; the sequential loop drains
// the record in flight, persists a final checkpoint at that boundary, and
// exits 128+signal. The supervisor forwards the signal to its worker and
// escalates to SIGKILL after --grace-ms, so a checkpoint write is never
// torn (writeFile is rename-atomic regardless; the grace window just lets
// the final snapshot land).
//===----------------------------------------------------------------------===//

volatile std::sig_atomic_t StopSignal = 0;

void noteStopSignal(int Sig) { StopSignal = Sig; }

void installStopHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = noteStopSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // no SA_RESTART: blocked waits must wake up
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

void resetStopHandlers() {
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

//===----------------------------------------------------------------------===//
// One analysis run (fresh or resumed). Under --supervise this is the
// worker; otherwise it is the whole program.
//===----------------------------------------------------------------------===//

/// One stderr note per run describing what --salvage recovered, mirroring
/// the "lenient: repaired ..." note.
void printSalvageNote(const SalvageSummary &S) {
  if (!S.Used)
    return;
  std::fprintf(stderr,
               "salvage: recovered %llu frame(s) (%llu event(s)); dropped "
               "%llu trailing byte(s)\n",
               static_cast<unsigned long long>(S.FramesKept),
               static_cast<unsigned long long>(S.EventsKept),
               static_cast<unsigned long long>(S.BytesDropped));
}

/// Open the trace (with --salvage when given); on failure report the open
/// error and return null.
std::unique_ptr<TraceSource> openSource(const Options &O, SymbolTable &Syms,
                                        SalvageSummary *Salv) {
  TraceReadStatus St = TraceReadStatus::Ok;
  std::string Error;
  TraceOpenOptions Opts;
  Opts.Salvage = O.Salvage;
  Opts.SalvageOut = Salv;
  auto Src = openTraceSource(O.TraceFile, Syms, St, Error, Opts);
  if (!Src)
    std::fprintf(stderr, "error: %s\n", Error.c_str());
  return Src;
}

/// AtRecordEnd's answer for "stop reading, then finish the run" (a
/// governor stop).
constexpr int StopReading = -1;

/// The one read-and-sanitize loop; the --reduce classifier pass and the
/// checked stream both run it. Every record of Src goes through San, each
/// event San forwards reaches OnEvent(E, Line), and the finish() tail
/// follows with line 0. AtRecordEnd() runs after each record and returns 0
/// to read on, StopReading, or an exit code to end the run with. Parse and
/// sanitize errors are reported here and return 2. The callbacks are
/// template parameters, so the per-event path makes no indirect call.
template <typename EventFn, typename RecordFn>
int readSanitized(const std::string &Path, TraceSource &Src,
                  TraceSanitizer &San, EventFn &&OnEvent,
                  RecordFn &&AtRecordEnd) {
  std::vector<Event> Scratch;
  Event E;
  while (Src.next(E)) {
    Scratch.clear();
    if (!San.push(E, Scratch, Src.lineNo())) {
      std::fprintf(stderr, "error: %s: trace is not well formed: %s\n",
                   Path.c_str(), San.error().c_str());
      return 2;
    }
    for (const Event &Out : Scratch)
      OnEvent(Out, Src.lineNo());
    int Rc = AtRecordEnd();
    if (Rc == StopReading)
      break;
    if (Rc != 0)
      return Rc;
  }
  if (Src.failed()) {
    std::fprintf(stderr, "error: %s\n", pathError(Path, Src.error()).c_str());
    return 2;
  }
  Scratch.clear();
  San.finish(Scratch);
  for (const Event &Out : Scratch)
    OnEvent(Out, 0);
  return 0;
}

int runAnalysis(Options O) {
  auto ResumeFailed = [&O](const std::string &Why) {
    std::fprintf(stderr, "error: cannot resume from %s: %s\n",
                 O.ResumeFile.c_str(), Why.c_str());
    return 2;
  };
  ResumeState RS;
  bool Resuming = !O.ResumeFile.empty();
  if (Resuming) {
    std::string Error;
    // The presentation flags (--quiet, --stats, --dot) stay as given.
    if (!loadHeader(O.ResumeFile, O, RS, Error))
      return ResumeFailed(Error);
    const GovernorLimits &L = O.Analysis.Limits;
    // The caps travel with the snapshot, so a sequential run's explicit
    // caps would silently reappear under --parallel here; refuse just as
    // parseArgs does for caps given on the command line.
    if (O.Parallel &&
        (L.MaxEvents != 0 || L.MaxMemoryBytes != 0 || L.DeadlineMillis != 0 ||
         L.MaxLiveNodes != DefaultMaxLiveNodes)) {
      std::fprintf(stderr,
                   "error: %s was written by a run with explicit resource "
                   "caps, which are incompatible with --parallel; resume "
                   "it sequentially\n",
                   O.ResumeFile.c_str());
      return 2;
    }
  }

  bool Reducing = !O.ReduceSpec.empty();
  PassMask ReduceMask;
  if (Reducing) {
    std::string Error;
    if (!parsePassSpec(O.ReduceSpec, ReduceMask, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
  }

  AnalysisStack Stack;
  {
    std::string Error;
    if (!Stack.build(O.BackendSel, O.Analysis, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 2;
    }
  }

  // Fatal-signal diagnostics: every delivered event lands in the crash
  // ring; with a checkpoint configured the handler also writes the dump to
  // a file the supervisor folds into its crash bundle.
  std::string DumpPath =
      O.CheckpointFile.empty() ? std::string() : O.CheckpointFile +
                                                     ".lastevents";
  crashdump::installHandlers(DumpPath.empty() ? nullptr : DumpPath.c_str());

  // Graceful-shutdown flag: only the sequential streaming loop can drain
  // to a checkpoint boundary; elsewhere the default disposition (die, let
  // the rename-atomic checkpoint and the supervisor handle it) is the
  // honest behavior.
  if (!O.CheckpointFile.empty() && !O.Parallel)
    installStopHandlers();

  // --salvage only makes sense for a VELOTRC container; a text trace (or a
  // prefix too short to even keep its 8-byte magic) has nothing frame-
  // structured to salvage.
  if (O.Salvage &&
      detectTraceFormat(O.TraceFile) != TraceFormat::Binary) {
    if (::access(O.TraceFile.c_str(), R_OK) != 0)
      std::fprintf(stderr, "error: cannot open %s: %s\n", O.TraceFile.c_str(),
                   std::strerror(errno));
    else
      std::fprintf(stderr,
                   "error: --salvage requires a VELOTRC binary container "
                   "and %s is not one\n",
                   O.TraceFile.c_str());
    return 2;
  }

  // Pass A of the static pipeline: stream the (sanitized) trace once with
  // no back-ends attached and classify every variable; pass B below then
  // filters on replay. Both passes parse the same bytes with fresh symbol
  // tables, so variable ids line up. A resumed run restores the filter
  // from the snapshot instead and skips this sweep.
  ReductionFilter Filter;
  if (Reducing && !Resuming) {
    SymbolTable ClsSyms;
    auto ClsSrc = openSource(O, ClsSyms, nullptr);
    if (!ClsSrc)
      return 2;
    TraceSanitizer ClsSan(O.Mode);
    TraceClassifier Classifier;
    if (int Rc = readSanitized(
            O.TraceFile, *ClsSrc, ClsSan,
            [&](const Event &E, uint64_t) { Classifier.onEvent(E); },
            [] { return 0; }))
      return Rc;
    Filter =
        ReductionFilter(PassManager(ReduceMask).plan(Classifier.facts()));
  }

  // The checked stream: the file flows through sanitizer and back-ends in
  // constant memory, snapshotting at resume boundaries when asked to.
  // openTraceSource sniffs the VELOTRC magic, so text and binary traces
  // flow through the same loop. Sanitized owns the stream's symbols; its
  // events are kept only for --witness, whose serializability oracle needs
  // random access.
  Trace Sanitized;
  SymbolTable &Syms = Sanitized.symbols();
  SalvageSummary Salv;
  auto Src = openSource(O, Syms, &Salv);
  if (!Src)
    return 2;
  printSalvageNote(Salv);
  TraceSanitizer San(O.Mode);
  uint64_t EventsAtStart = 0; // resumed offset, for the --crash-at hook
  // 1-based ordinal of the current event in the sanitized (pre-reduction)
  // stream: the coordinate warnings report into (docs/REPORTING.md).
  uint64_t SanOrdinal = 0;

  if (Resuming) {
    // Restore order matters: symbols first (backends keep a reference to
    // the table from beginAnalysis), then backend state, then the stream
    // position.
    SnapshotReader SymsBlob = RS.R.blob();
    if (!deserializeSymbols(SymsBlob, Syms))
      return ResumeFailed("corrupt symbol table");
  }
  Stack.begin(Syms);
  if (Resuming) {
    SnapshotReader SanBlob = RS.R.blob();
    if (!San.deserialize(SanBlob))
      return ResumeFailed(
          "sanitizer state does not match this configuration");
    SnapshotReader FilterBlob = RS.R.blob();
    if (Reducing && !Filter.deserialize(FilterBlob))
      return ResumeFailed("reduction filter state cannot be restored");
    std::string BadName;
    if (!Stack.restoreDelivery(RS.R, BadName))
      return ResumeFailed("backend '" + BadName +
                          "' state cannot be restored");
    if (RS.R.failed())
      return ResumeFailed("truncated snapshot");
    Stack.setProgress(RS.EventsSeen, RS.ThreadsSeen);
    EventsAtStart = RS.EventsSeen;
    // The sanitized-stream position needs no extra checkpoint field:
    // under --reduce the restored filter counted every sanitized event
    // it was offered; otherwise every sanitized event was delivered.
    SanOrdinal = Reducing ? Filter.stats().Input : RS.EventsSeen;
    std::string SeekErr;
    if (!Src->seekTo(RS.ByteOffset, RS.LineNo, RS.EventsSeen, SeekErr))
      return ResumeFailed(SeekErr);
  }

  if (O.Parallel) {
    // Multi-threaded pipeline (docs/PARALLEL.md): same components, same
    // event sequence per back-end, so the report below is byte-identical
    // to the sequential loop's.
    ParallelOptions POpts;
    POpts.Workers = static_cast<unsigned>(O.ParallelWorkers);
    POpts.BatchEvents = O.BatchEvents;
    POpts.NoteCrashEvents = true;
    POpts.CrashAt = O.CrashAt;
    POpts.CrashSignal = static_cast<int>(O.CrashSignal);
    if (Resuming) {
      POpts.StartLine = RS.LineNo;
      POpts.StartEvents = RS.EventsSeen;
      POpts.StartThreads = RS.ThreadsSeen;
      POpts.StartOrdinal = SanOrdinal;
    }
    if (!O.CheckpointFile.empty()) {
      POpts.CheckpointEvery = O.CheckpointEvery;
      POpts.CheckpointSink = [&O](const CheckpointCut &Cut,
                                  std::string &Error) {
        return writeCheckpoint(O, Cut, Error);
      };
    }
    if (GovernedAnalysis *Gov = Stack.governor()) {
      // The probe runs on the governor's worker; exhaustion stops the
      // reader at the next batch boundary.
      POpts.StopProbe = [&Stack] { return Stack.exhausted(); };
      POpts.StopOwner = Gov;
    }
    if (const char *Spec = std::getenv("VELO_PIPELINE_STALL"))
      if (!parsePipelineStall(Spec, POpts.Stall))
        std::fprintf(stderr,
                     "warning: ignoring malformed VELO_PIPELINE_STALL "
                     "'%s'\n",
                     Spec);
    ParallelPipeline Pipe(*Src, Syms, San, Reducing ? &Filter : nullptr,
                          Stack.delivery(), std::move(POpts));
    PipelineResult PR = Pipe.run();
    switch (PR.Err) {
    case PipelineError::Parse:
      std::fprintf(stderr, "error: %s\n",
                   pathError(O.TraceFile, PR.Detail).c_str());
      return 2;
    case PipelineError::Sanitize:
      std::fprintf(stderr, "error: %s: trace is not well formed: %s\n",
                   O.TraceFile.c_str(), PR.Detail.c_str());
      return 2;
    case PipelineError::Checkpoint:
      std::fprintf(stderr, "error: cannot write checkpoint %s: %s\n",
                   O.CheckpointFile.c_str(), PR.Detail.c_str());
      return 2;
    case PipelineError::None:
      break;
    }
    Stack.setProgress(PR.EventsSeen, PR.ThreadsSeen);
    SanOrdinal = PR.SanitizedEvents;
  } else {
    // The sequential twin of the pipeline's deposits: the cut after the
    // record just delivered, at source offset Off.
    auto Checkpoint = [&](uint64_t Off, std::string &Error) {
      CheckpointCut Cut;
      Cut.ByteOffset = Off;
      Cut.LineNo = Src->lineNo();
      Cut.EventsSeen = Stack.eventsSeen();
      Cut.ThreadsSeen = Stack.threadsSeen();
      SnapshotWriter SymsBlob;
      serializeSymbols(SymsBlob, Syms);
      Cut.SymsBlob = SymsBlob.payload();
      Cut.SanBlob = stateBlob(San);
      if (Reducing)
        Cut.FilterBlob = stateBlob(Filter);
      for (Backend *B : Stack.delivery())
        Cut.Backends.emplace_back(B->name(), stateBlob(*B));
      return writeCheckpoint(O, Cut, Error);
    };
    uint64_t NextCkpt = Stack.eventsSeen() + O.CheckpointEvery;
    int Rc = readSanitized(
        O.TraceFile, *Src, San,
        [&](const Event &E, uint64_t Line) {
          // After a governor stop, delivery ends; --witness reads on so
          // that its oracle still sees the whole trace.
          if (O.Witness)
            Sanitized.push(E);
          if (Stack.exhausted())
            return;
          ++SanOrdinal;
          if (Reducing && !Filter.keep(E))
            return;
          crashdump::noteEvent(E, Stack.eventsSeen() + 1, Line);
          Stack.deliver(E, SanOrdinal);
          if (O.CrashAt != 0 &&
              Stack.eventsSeen() - EventsAtStart >= O.CrashAt) {
            // Test hook: simulate an analysis crash at a deterministic
            // point.
            std::fflush(nullptr);
            ::raise(static_cast<int>(O.CrashSignal));
          }
        },
        [&] {
          if (Stack.exhausted())
            return O.Witness ? 0 : StopReading;
          if (!O.CheckpointFile.empty() && Stack.eventsSeen() >= NextCkpt) {
            // The record just processed is fully delivered, so the source
            // position is a clean resume boundary when tell() succeeds.
            // Text: tell() only fails at end of input, e.g. after a last
            // line without a newline (the run is about to finish anyway).
            // Binary: tell() fails mid-frame, deferring the snapshot to the
            // frame's end — so the cadence reset stays inside the success
            // branch.
            uint64_t Off = 0;
            if (Src->tell(Off)) {
              std::string Error;
              if (!Checkpoint(Off, Error)) {
                std::fprintf(stderr,
                             "error: cannot write checkpoint %s: %s\n",
                             O.CheckpointFile.c_str(), Error.c_str());
                return 2;
              }
              NextCkpt = Stack.eventsSeen() + O.CheckpointEvery;
            }
          }
          if (StopSignal != 0) {
            // Graceful drain: the record just processed is fully
            // delivered, so this is a clean resume boundary; persist it
            // and exit 128+signal.
            int Sig = static_cast<int>(StopSignal);
            uint64_t Off = 0;
            std::string Error;
            if (!O.CheckpointFile.empty() && Src->tell(Off) &&
                !Checkpoint(Off, Error))
              std::fprintf(stderr, "error: cannot write checkpoint %s: %s\n",
                           O.CheckpointFile.c_str(), Error.c_str());
            std::fprintf(stderr,
                         "shutdown: stopped by signal %d after %llu events; "
                         "checkpoint %s is resumable\n",
                         Sig,
                         static_cast<unsigned long long>(Stack.eventsSeen()),
                         O.CheckpointFile.c_str());
            std::fflush(nullptr);
            return 128 + Sig;
          }
          return 0;
        });
    if (Rc != 0)
      return Rc;
    Stack.end();
  }
  // Close the trace before the report is built: a VELOTRC source maps the
  // whole file, which would otherwise stay resident and raise peak RSS.
  Src.reset();
  std::fputs(San.repairs().note().c_str(), stderr);
  std::fputs(Stack.governorNote().c_str(), stderr);

  // Everything below flows through the report manager; the text renderer
  // reproduces the historical stdout byte for byte, and --format=json or
  // =sarif swaps in a machine rendering of the same findings.
  ReportManager RM;
  RM.Run.Tool = "velodrome-check";
  RM.Run.Trace = O.TraceFile;
  RM.Run.Events = Stack.eventsSeen();
  RM.Run.SanitizedEvents = SanOrdinal;
  RM.Run.Threads = Stack.threadsSeen();
  const Velodrome *Velo = Stack.get<Velodrome>("velodrome");
  if (O.Stats && Velo) {
    char StatBuf[192];
    std::snprintf(StatBuf, sizeof(StatBuf),
                  "[graph] allocated=%llu maxAlive=%llu edges=%llu "
                  "merged=%llu",
                  static_cast<unsigned long long>(
                      Velo->graph().nodesAllocated()),
                  static_cast<unsigned long long>(
                      Velo->graph().maxNodesAlive()),
                  static_cast<unsigned long long>(Velo->graph().edgesAdded()),
                  static_cast<unsigned long long>(
                      Velo->graph().nodesMerged()));
    RM.addStatLine(StatBuf);
  }
  if (O.Stats && Reducing)
    RM.addStatLine("[reduce] " + Filter.stats().summary());

  if (!O.DotFile.empty() && Velo && !Velo->warnings().empty() &&
      !Velo->warnings()[0].Dot.empty()) {
    std::ofstream Out(O.DotFile);
    Out << Velo->warnings()[0].Dot;
    if (!O.Quiet)
      RM.addNote("error graph written to " + O.DotFile + "\n");
  }

  if (O.Witness) {
    OracleResult Oracle = checkSerializable(Sanitized);
    if (Oracle.Serializable) {
      TxnIndex Index = buildTxnIndex(Sanitized);
      RM.addNote("# serial witness\n" +
                 printTrace(buildSerialWitness(Sanitized, Index, Oracle)));
    } else if (!O.Quiet) {
      RM.addNote("no witness: trace is not serializable\n");
    }
  }

  int Exit = Stack.report(RM, &Syms);
  const std::string Doc = RM.render(O.Format, O.Quiet);
  std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  return Exit;
}

//===----------------------------------------------------------------------===//
// Supervision: fork the analysis, restart from the last checkpoint on
// signal death, give up with a crash bundle when it stops making progress.
//===----------------------------------------------------------------------===//

/// Progress marker of the last checkpoint: events seen and trace line.
/// Zeros when no checkpoint exists yet (crash before the first snapshot).
void peekCheckpoint(const std::string &Path, uint64_t &EventsOut,
                    uint64_t &LineOut) {
  EventsOut = 0;
  LineOut = 0;
  Options Config;
  ResumeState RS;
  std::string Error;
  if (loadHeader(Path, Config, RS, Error)) {
    EventsOut = RS.EventsSeen;
    LineOut = RS.LineNo;
  }
}

/// Write "<checkpoint>.crash/" with the post-mortem: info.txt (what
/// happened), last-events.txt (the in-process handler's ring dump, when
/// the signal was catchable), window.trace (the trace lines the crashing
/// window was replaying).
std::string writeCrashBundle(const Options &O, int Sig, uint64_t CkptEvents,
                             uint64_t CkptLine, uint64_t Crashes) {
  std::string Dir = O.CheckpointFile + ".crash";
  ::mkdir(Dir.c_str(), 0755);
  {
    std::ofstream Info(Dir + "/info.txt");
    Info << "signal: " << Sig << "\n"
         << "trace: " << O.TraceFile << "\n"
         << "checkpoint: " << O.CheckpointFile << "\n"
         << "events-at-last-checkpoint: " << CkptEvents << "\n"
         << "line-at-last-checkpoint: " << CkptLine << "\n"
         << "consecutive-crashes: " << Crashes << "\n";
  }
  {
    std::ifstream LastEvents(O.CheckpointFile + ".lastevents");
    if (LastEvents) {
      std::ofstream Out(Dir + "/last-events.txt");
      Out << LastEvents.rdbuf();
    }
  }
  {
    std::ofstream Out(Dir + "/window.trace");
    uint64_t First = CkptLine + 1;
    Out << "# trace lines from " << First
        << " (first line after the last checkpoint) onward\n";
    if (detectTraceFormat(O.TraceFile) == TraceFormat::Binary) {
      // Render the window as text so the bundle stays human-readable
      // regardless of the input encoding.
      SymbolTable Syms;
      BinaryTraceReader R(Syms);
      std::string Err;
      if ((O.Salvage ? R.openSalvage(O.TraceFile, Err)
                     : R.open(O.TraceFile, Err)) == TraceReadStatus::Ok) {
        Event E;
        while (R.next(E)) {
          uint64_t N = R.lineNo();
          if (N < First)
            continue;
          Out << renderEvent(E, Syms) << "\n";
          if (N >= First + 199)
            break;
        }
      }
    } else {
      std::ifstream TraceIn(O.TraceFile);
      std::string Line;
      uint64_t N = 0;
      while (std::getline(TraceIn, Line)) {
        ++N;
        if (N < First)
          continue;
        Out << Line << "\n";
        if (N >= First + 199)
          break;
      }
    }
  }
  return Dir;
}

int runSupervised(const Options &O) {
  uint64_t LastWindowEvents = ~0ull; // sentinel: no crash observed yet
  uint64_t SameWindow = 0;
  installStopHandlers();
  for (;;) {
    Options Worker = O;
    Worker.Supervise = false;
    struct stat St;
    if (::stat(O.CheckpointFile.c_str(), &St) == 0)
      Worker.ResumeFile = O.CheckpointFile;
    std::fflush(nullptr);
    pid_t Pid = ::fork();
    if (Pid < 0) {
      std::perror("velodrome-check: fork");
      return 2;
    }
    if (Pid == 0) {
      // Drop the supervisor's handlers: the worker re-installs its own
      // when it can drain gracefully (sequential + checkpointing), and
      // must die by default elsewhere so escalation semantics stay honest.
      resetStopHandlers();
      int Rc = runAnalysis(std::move(Worker));
      // _Exit skips atexit/static destructors (this is a fork, the parent
      // owns them) but also stdio flushing — do that explicitly.
      std::fflush(nullptr);
      std::_Exit(Rc);
    }
    // Reap the worker with a WNOHANG poll so a stop signal is noticed
    // race-free even if it lands between checks (EINTR wakes usleep).
    int Status = 0;
    bool Stopping = false;
    int StopSig = 0;
    for (;;) {
      if (StopSignal != 0 && !Stopping) {
        // Graceful shutdown: forward the signal, give the worker
        // --grace-ms to land its final checkpoint, then escalate.
        Stopping = true;
        StopSig = static_cast<int>(StopSignal);
        ::kill(Pid, StopSig);
        uint64_t WaitedMs = 0;
        pid_t Done = 0;
        while (WaitedMs < O.GraceMillis) {
          Done = sys::waitpidRetry(Pid, &Status, WNOHANG);
          if (Done == Pid)
            break;
          ::usleep(20 * 1000);
          WaitedMs += 20;
        }
        if (Done != Pid) {
          std::fprintf(stderr,
                       "supervisor: worker did not stop within %llu ms; "
                       "escalating to SIGKILL (checkpoint stays intact: "
                       "writes are rename-atomic)\n",
                       static_cast<unsigned long long>(O.GraceMillis));
          ::kill(Pid, SIGKILL);
          sys::waitpidRetry(Pid, &Status, 0);
        }
        break;
      }
      pid_t R = sys::waitpidRetry(Pid, &Status, WNOHANG);
      if (R == Pid)
        break;
      if (R < 0) {
        std::perror("velodrome-check: waitpid");
        return 2;
      }
      ::usleep(10 * 1000);
    }
    if (Stopping) {
      std::fprintf(stderr,
                   "supervisor: stopped by signal %d; checkpoint %s is "
                   "resumable\n",
                   StopSig, O.CheckpointFile.c_str());
      return 128 + StopSig;
    }
    if (WIFEXITED(Status)) {
      int Rc = WEXITSTATUS(Status);
      // A worker that drained on a direct SIGTERM/SIGINT (e.g. a signal
      // sent to the whole process group) reports 128+signal; treat it as
      // shutdown, not as a verdict to re-run for.
      return Rc;
    }
    int Sig = WIFSIGNALED(Status) ? WTERMSIG(Status) : 0;
    uint64_t CkptEvents = 0, CkptLine = 0;
    peekCheckpoint(O.CheckpointFile, CkptEvents, CkptLine);
    if (CkptEvents == LastWindowEvents) {
      ++SameWindow;
    } else {
      SameWindow = 1;
      LastWindowEvents = CkptEvents;
    }
    std::fprintf(stderr,
                 "supervisor: worker killed by signal %d; last checkpoint "
                 "at event %llu (crash %llu of %llu in this window)\n",
                 Sig, static_cast<unsigned long long>(CkptEvents),
                 static_cast<unsigned long long>(SameWindow),
                 static_cast<unsigned long long>(O.MaxCrashes));
    if (SameWindow >= O.MaxCrashes) {
      std::string Bundle =
          writeCrashBundle(O, Sig, CkptEvents, CkptLine, SameWindow);
      std::fprintf(stderr,
                   "supervisor: no progress after %llu crashes; "
                   "crashed: see bundle %s\n",
                   static_cast<unsigned long long>(SameWindow),
                   Bundle.c_str());
      return 4;
    }
    // Exponential backoff before the restart; a transient cause (memory
    // pressure, a flaky disk) gets room to clear.
    unsigned BackoffMs = 50u << (SameWindow - 1);
    if (BackoffMs > 2000)
      BackoffMs = 2000;
    ::usleep(BackoffMs * 1000);
  }
}

} // namespace

int main(int argc, char **argv) {
  // A closed stdout pager or a dying supervisor pipe must surface as a
  // failed write, not SIGPIPE process death.
  sys::ignoreSigpipe();
  Options O;
  switch (parseArgs(argc, argv, O)) {
  case -1:
    return 0;
  case 2:
    return 2;
  default:
    break;
  }
  if (O.Supervise)
    return runSupervised(O);
  return runAnalysis(std::move(O));
}
