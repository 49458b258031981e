//===- perfbench/velobench.cpp - Benchmark helper for perfbench/run.py ----===//
//
// The in-process half of the benchmark. run.py times the shipped tools
// (velodrome-check, velodrome-serve) from outside; this binary does the
// three jobs that need the library:
//
//   velobench gen --seed=N --events=N --out=FILE.vtrc
//       Write the `contended` corpus file: one well-formed
//       generateRandomTrace stream of N generation steps (8 threads, 64
//       variables, 8 locks, 60% guarded accesses) as VELOTRC. Prints one JSON line with the event
//       count and the expected exit status (an in-memory AeroDrome replay,
//       independent of velodrome-check's decode and sanitize path).
//
//   velobench serve --socket=PATH --sessions=K FILE...
//       K concurrent serve::Client threads, each streaming every FILE as
//       its own session (one connection per session, named FILE@s<thread>)
//       to a running velodrome-serve with --backend=velodrome. Files are
//       loaded before the clock starts. stdout is one JSON line with the
//       wall time and, per session, the hello and session times, the exit
//       code and the VERDICT report (bytes >= 0x80 as \u0080-\u00ff).
//
//   velobench exec FD CMD [ARG...]
//       Run CMD as a child, wait for it with wait4 and write its wall time
//       and peak RSS as one JSON line to the inherited descriptor FD; exit
//       with its status (128+N if killed by signal N). A child exec'd
//       straight from the Python driver would report the driver's own RSS
//       as its peak (Linux carries the pre-exec high-water mark across
//       exec); forked from this small process, the floor is this
//       process's few MB. SIGTERM is ignored here and restored in the
//       child, so signalling the process group stops the child and still
//       leaves its statistics.
//
//   velobench layers --seconds=S --out=SPANS.json FILE...
//       The traced run: drives each layer's public entry points one stage
//       at a time over materialised event vectors, repeating whole passes
//       over the corpus until S seconds have elapsed. Spans (one per
//       stage per file per pass, under a file span under a pass span) and
//       per-pass counters stay in memory and are written to SPANS.json at
//       exit; run.py turns them into per-layer self times.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"
#include "analysis/EmptyBackend.h"
#include "analysis/Governor.h"
#include "atomizer/Atomizer.h"
#include "core/Velodrome.h"
#include "deadlock/DeadlockDetector.h"
#include "eraser/Eraser.h"
#include "events/TraceGen.h"
#include "events/TraceSanitizer.h"
#include "events/TraceSource.h"
#include "events/TraceText.h"
#include "hbrace/HbRaceDetector.h"
#include "parallel/Pipeline.h"
#include "report/Report.h"
#include "serve/Client.h"
#include "serve/Wire.h"
#include "staticpass/Classifier.h"
#include "staticpass/PassManager.h"
#include "staticpass/ReductionFilter.h"
#include "support/Syscalls.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace velo;

namespace {

using Clock = std::chrono::steady_clock;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "velobench: %s\n", Msg.c_str());
  std::exit(2);
}

/// "--key=value" arguments plus positional files.
struct Args {
  std::map<std::string, std::string> Opts;
  std::vector<std::string> Files;

  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      std::string A = Argv[I];
      size_t Eq = A.find('=');
      if (A.rfind("--", 0) == 0 && Eq != std::string::npos)
        Opts[A.substr(2, Eq - 2)] = A.substr(Eq + 1);
      else if (A.rfind("--", 0) == 0)
        die("malformed option " + A);
      else
        Files.push_back(A);
    }
  }

  std::string str(const std::string &K) const {
    auto It = Opts.find(K);
    if (It == Opts.end())
      die("missing --" + K + "=");
    return It->second;
  }

  uint64_t num(const std::string &K) const {
    std::string V = str(K);
    char *End = nullptr;
    unsigned long long N = std::strtoull(V.c_str(), &End, 10);
    if (V.empty() || *End != '\0')
      die("--" + K + " needs a whole number");
    return N;
  }
};

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20 ||
               static_cast<unsigned char>(C) >= 0x80) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                    static_cast<unsigned char>(C));
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

//===----------------------------------------------------------------------===//
// exec
//===----------------------------------------------------------------------===//

int runExec(int Argc, char **Argv) {
  char *End = nullptr;
  long Fd = Argc >= 4 ? std::strtol(Argv[2], &End, 10) : -1;
  if (Fd < 0 || *End != '\0')
    die("usage: velobench exec FD CMD [ARG...]");
  std::signal(SIGTERM, SIG_IGN);
  int64_t Start = nowNs();
  pid_t Pid = ::fork();
  if (Pid < 0)
    die("fork failed");
  if (Pid == 0) {
    std::signal(SIGTERM, SIG_DFL);
    ::close(static_cast<int>(Fd));
    ::execvp(Argv[3], Argv + 3);
    std::perror(Argv[3]);
    ::_exit(127);
  }
  int Status = 0;
  struct rusage RU {};
  while (::wait4(Pid, &Status, 0, &RU) < 0)
    if (errno != EINTR)
      die("wait4 failed");
  double Seconds = (nowNs() - Start) / 1e9;
  if (::dprintf(static_cast<int>(Fd),
                "{\"seconds\": %.9f, \"maxrss_kb\": %ld}\n", Seconds,
                RU.ru_maxrss) < 0)
    die("cannot write the statistics");
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
}

//===----------------------------------------------------------------------===//
// gen
//===----------------------------------------------------------------------===//

int runGen(const Args &A) {
  TraceGenOptions Opts;
  Opts.Threads = 8;
  Opts.Vars = 64;
  Opts.Locks = 8;
  Opts.GuardedAccessPct = 60;
  Opts.Steps = static_cast<size_t>(A.num("events"));
  Trace T = generateRandomTrace(A.num("seed"), Opts);
  if (!writeTraceFile(T, A.str("out")))
    die("cannot write " + A.str("out"));
  AeroDrome Aero;
  replay(T, Aero);
  std::printf("{\"events\": %zu, \"expected_exit\": %d}\n", T.size(),
              Aero.sawViolation() ? 1 : 0);
  return 0;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

struct SessionTiming {
  size_t Thread = 0, File = 0;
  double HelloMs = 0, SessionS = 0;
  int Exit = -1;
  std::string Error, Report;
};

int runServe(const Args &A) {
  sys::ignoreSigpipe();
  const std::string Socket = A.str("socket");
  const size_t Sessions = static_cast<size_t>(A.num("sessions"));
  if (Sessions == 0 || A.Files.empty())
    die("serve needs --sessions>0 and at least one file");

  std::vector<Trace> Traces(A.Files.size());
  std::vector<std::vector<Event>> Events(A.Files.size());
  for (size_t F = 0; F < A.Files.size(); ++F) {
    std::string Err;
    if (!readTraceFile(A.Files[F], Traces[F], Err))
      die(Err);
    Events[F].assign(Traces[F].begin(), Traces[F].end());
  }

  std::vector<std::vector<SessionTiming>> Out(Sessions);
  int64_t Start = nowNs();
  std::vector<std::thread> Drivers;
  for (size_t S = 0; S < Sessions; ++S)
    Drivers.emplace_back([&, S] {
      for (size_t F = 0; F < A.Files.size(); ++F) {
        SessionTiming R;
        R.Thread = S;
        R.File = F;
        int64_t T0 = nowNs();
        serve::Client Cl;
        Cl.ConnectTimeoutMillis = 10000;
        serve::HelloMsg H;
        // Session names are unique per daemon; the report header shows it.
        H.Name = A.Files[F] + "@s" + std::to_string(S);
        H.BackendSel = "velodrome";
        serve::HelloOkMsg Ok;
        serve::RunResult RR;
        std::string Err;
        if (!Cl.connectUnix(Socket, Err) || !Cl.hello(H, Ok, Err)) {
          R.Error = "hello: " + Err;
        } else {
          R.HelloMs = (nowNs() - T0) / 1e6;
          if (!Cl.run(Traces[F].symbols(), Events[F], Ok, 4096, 0, RR, Err))
            R.Error = "stream: " + Err;
          else if (!RR.GotVerdict)
            R.Error = RR.GotNak ? "NAK: " + RR.Nak.Reason : "no verdict";
        }
        R.SessionS = (nowNs() - T0) / 1e9;
        if (R.Error.empty()) {
          R.Exit = RR.Verdict.ExitCode;
          R.Report = std::move(RR.Verdict.Report);
        }
        Out[S].push_back(std::move(R));
      }
    });
  for (std::thread &Th : Drivers)
    Th.join();
  double Wall = (nowNs() - Start) / 1e9;

  char WallBuf[64];
  std::snprintf(WallBuf, sizeof(WallBuf), "%.9f", Wall);
  std::string J = std::string("{\"wall_s\": ") + WallBuf + ", \"sessions\": [";
  bool First = true;
  for (const auto &PerThread : Out)
    for (const SessionTiming &R : PerThread) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"thread\": %zu, \"file\": %zu, \"hello_ms\": %.6f, "
                    "\"session_s\": %.6f, \"exit\": %d, \"error\": ",
                    First ? "" : ", ", R.Thread, R.File, R.HelloMs,
                    R.SessionS, R.Exit);
      J += Buf + jsonStr(R.Error) + ", \"report\": " + jsonStr(R.Report) + "}";
      First = false;
    }
  std::printf("%s]}\n", J.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// layers
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  int Parent = -1;
  int64_t Start = 0, End = 0;
  uint64_t Events = 0; ///< events the stage consumed
};

/// In-memory span recorder; written out once, at exit.
class Tracer {
public:
  int open(const std::string &Name, int Parent) {
    Spans.push_back({Name, Parent, 0, 0, 0});
    Spans.back().Start = nowNs();
    return static_cast<int>(Spans.size() - 1);
  }
  void close(int Id, uint64_t Events = 0) {
    Spans[Id].End = nowNs();
    Spans[Id].Events = Events;
  }
  /// Time Fn as one leaf span under Parent; Fn returns the events it
  /// consumed.
  template <typename F> void leaf(const std::string &Name, int Parent,
                                  F &&Fn) {
    int Id = open(Name, Parent);
    uint64_t Events = Fn();
    close(Id, Events);
  }
  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
};

/// Counters of one pass, summed over the corpus files (max for peaks).
using Counters = std::map<std::string, double>;

/// Feed Events (with their sanitized-stream ordinals) to B, as the
/// sequential check loop does.
uint64_t drive(Backend &B, const SymbolTable &Syms,
               const std::vector<Event> &Evs,
               const std::vector<uint64_t> &Ordinals) {
  B.beginAnalysis(Syms);
  for (size_t I = 0; I < Evs.size(); ++I) {
    B.setEventOrdinal(Ordinals[I]);
    B.onEvent(Evs[I]);
  }
  B.endAnalysis();
  return Evs.size();
}

void layersForFile(Tracer &Tr, int Parent, const std::string &Path,
                   Counters &C) {
  int FileSpan = Tr.open("file", Parent);

  // events: decode and sanitize, materialised.
  SymbolTable Syms;
  std::vector<Event> Raw;
  Tr.leaf("events.decode", FileSpan, [&] {
    TraceReadStatus St = TraceReadStatus::Ok;
    std::string Err;
    auto Src = openTraceSource(Path, Syms, St, Err);
    if (!Src)
      die(Err);
    Event E;
    while (Src->next(E))
      Raw.push_back(E);
    if (Src->failed())
      die(Path + ": " + Src->error());
    return Raw.size();
  });

  std::vector<Event> San;
  San.reserve(Raw.size());
  TraceSanitizer Sanitizer(SanitizeMode::Strict);
  Tr.leaf("events.sanitize", FileSpan, [&] {
    for (const Event &E : Raw)
      if (!Sanitizer.push(E, San))
        die(Path + ": " + Sanitizer.error());
    Sanitizer.finish(San);
    return Raw.size();
  });
  std::vector<uint64_t> Ordinals(San.size());
  for (size_t I = 0; I < San.size(); ++I)
    Ordinals[I] = I + 1;

  // staticpass: classify, then filter (--reduce=all).
  ReductionPlan Plan;
  Tr.leaf("staticpass.classify", FileSpan, [&] {
    TraceClassifier Cls;
    for (const Event &E : San)
      Cls.onEvent(E);
    Plan = PassManager(PassMask::all()).plan(Cls.facts());
    return San.size();
  });
  std::vector<Event> Kept;
  std::vector<uint64_t> KeptOrdinals;
  Tr.leaf("staticpass.filter", FileSpan, [&] {
    ReductionFilter Filter(std::move(Plan));
    for (size_t I = 0; I < San.size(); ++I)
      if (Filter.keep(San[I])) {
        Kept.push_back(San[I]);
        KeptOrdinals.push_back(I + 1);
      }
    return San.size();
  });

  // core: bare Velodrome on the full and the reduced stream.
  Velodrome Velo;
  Tr.leaf("core.velodrome", FileSpan,
          [&] { return drive(Velo, Syms, San, Ordinals); });
  // Charged per sanitized event, like check_reduce_s, so the two figures
  // compare directly.
  Velodrome VeloReduced;
  Tr.leaf("core.velodrome_reduced", FileSpan, [&] {
    drive(VeloReduced, Syms, Kept, KeptOrdinals);
    return San.size();
  });

  // analysis: Velodrome behind the governor, wired as velodrome-check
  // --backend=velodrome wires it (default 60000 live-node cap, no spare).
  Velodrome GovVelo;
  GovernorLimits Limits;
  Limits.MaxLiveNodes = 60000;
  GovernedAnalysis Gov(
      GovVelo, nullptr, Limits,
      [&GovVelo](uint64_t &Nodes, uint64_t &Bytes) {
        Nodes = GovVelo.graph().nodesAlive();
        Bytes = Nodes * 256;
      },
      [&GovVelo]() -> std::string {
        return GovVelo.graphExhausted() ? "graph slot space exhausted" : "";
      });
  Tr.leaf("analysis.governed", FileSpan,
          [&] { return drive(Gov, Syms, San, Ordinals); });
  if (Gov.state() != GovernorState::Normal)
    die(Path + ": governor tripped: " + Gov.breachReason());

  // The other backends, each alone.
  AeroDrome Aero;
  Atomizer Atom;
  Eraser Race;
  HbRaceDetector Hb;
  DeadlockDetector Dl;
  const std::pair<const char *, Backend *> Others[] = {
      {"aero", &Aero},     {"atomizer", &Atom}, {"eraser", &Race},
      {"hbrace", &Hb},     {"deadlock", &Dl}};
  for (const auto &[Name, B] : Others)
    Tr.leaf(Name, FileSpan,
            [&, B = B] { return drive(*B, Syms, San, Ordinals); });
  if (Aero.sawViolation() != Velo.sawViolation())
    die(Path + ": Velodrome and AeroDrome disagree");

  // parallel: the pipeline's hand-off cost with no analysis behind it.
  PipelineResult PR;
  Tr.leaf("parallel.empty", FileSpan, [&] {
    SymbolTable PSyms;
    TraceReadStatus St = TraceReadStatus::Ok;
    std::string Err;
    auto Src = openTraceSource(Path, PSyms, St, Err);
    if (!Src)
      die(Err);
    TraceSanitizer PSan(SanitizeMode::Strict);
    EmptyBackend Empty;
    ParallelPipeline Pipe(*Src, PSyms, PSan, nullptr, {&Empty},
                          ParallelOptions());
    PR = Pipe.run();
    return PR.EventsSeen;
  });
  if (PR.Err != PipelineError::None)
    die(Path + ": pipeline: " + PR.Detail);

  // serve: the wire codec on 4096-event frames, as serve::Client frames.
  std::vector<std::string> Payloads;
  Tr.leaf("serve.wire_encode", FileSpan, [&] {
    size_t Vars = 0, Locks = 0, Labels = 0;
    for (size_t B = 0; B < Raw.size(); B += 4096) {
      Payloads.emplace_back();
      serve::encodeEventsPayload(Payloads.back(), Raw, B,
                          std::min(B + 4096, Raw.size()), Syms, Vars, Locks,
                          Labels);
    }
    return Raw.size();
  });
  std::vector<Event> Decoded;
  Decoded.reserve(Raw.size());
  Tr.leaf("serve.wire_decode", FileSpan, [&] {
    SymbolTable WSyms;
    std::string Err;
    for (const std::string &P : Payloads)
      if (!serve::decodeEventsPayload(
              reinterpret_cast<const uint8_t *>(P.data()), P.size(), WSyms,
              Decoded, Err))
        die(Path + ": wire decode: " + Err);
    return Decoded.size();
  });
  if (Decoded.size() != Raw.size())
    die(Path + ": wire round trip lost events");

  // report: render the governed Velodrome run three ways.
  ReportManager RM;
  RM.Run.Tool = "velodrome-check";
  RM.Run.Trace = Path;
  RM.Run.Events = San.size();
  RM.Run.SanitizedEvents = San.size();
  RM.Run.Verdict = Gov.sawViolation() ? "NOT conflict-serializable"
                                      : "serializable";
  RM.Run.ExitCode = Gov.sawViolation() ? 1 : 0;
  RM.addSection(GovVelo.name(), GovVelo.warnings(), &Syms);
  std::string Doc;
  Tr.leaf("report.render_text", FileSpan, [&] {
    Doc = RM.renderText();
    return RM.findings().size();
  });
  Tr.leaf("report.render_json", FileSpan, [&] {
    Doc = RM.renderJson();
    return RM.findings().size();
  });
  Tr.leaf("report.render_sarif", FileSpan, [&] {
    Doc = RM.renderSarif();
    return RM.findings().size();
  });

  Tr.close(FileSpan, Raw.size());

  const HbGraph &G = Velo.graph();
  C["events.decode.events"] += Raw.size();
  C["events.sanitized"] += San.size();
  C["events.sanitize.repairs"] += Sanitizer.repairs().total();
  C["staticpass.kept"] += Kept.size();
  C["core.graph.allocated"] += G.nodesAllocated();
  C["core.graph.max_alive"] =
      std::max<double>(C["core.graph.max_alive"], G.maxNodesAlive());
  C["core.graph.edges"] += G.edgesAdded();
  C["core.graph.merged"] += G.nodesMerged();
  C["parallel.batches"] += PR.Batches;
  C["report.findings"] += RM.findings().size();
  C["verdict.violations"] += Velo.sawViolation() ? 1 : 0;
}

int runLayers(const Args &A) {
  const double Seconds = static_cast<double>(A.num("seconds"));
  if (A.Files.empty())
    die("layers needs at least one file");
  Tracer Tr;
  std::vector<Counters> PassCounters;
  int64_t Start = nowNs();
  do {
    int PassSpan = Tr.open("pass", -1);
    Counters C;
    for (const std::string &Path : A.Files)
      layersForFile(Tr, PassSpan, Path, C);
    Tr.close(PassSpan);
    PassCounters.push_back(std::move(C));
  } while ((nowNs() - Start) / 1e9 < Seconds);

  // The cost of one span, for the traced run's own overhead figure.
  Tracer Probe;
  const int ProbeSpans = 100000;
  int64_t P0 = nowNs();
  for (int I = 0; I < ProbeSpans; ++I)
    Probe.leaf("probe", -1, [] { return uint64_t(0); });
  double SpanNs = static_cast<double>(nowNs() - P0) / ProbeSpans;

  std::ofstream Out(A.str("out"));
  Out << "{\"span_cost_ns\": " << SpanNs << ",\n\"counters\": [";
  for (size_t P = 0; P < PassCounters.size(); ++P) {
    Out << (P ? ",\n" : "\n") << "{";
    bool First = true;
    for (const auto &[K, V] : PassCounters[P]) {
      Out << (First ? "" : ", ") << jsonStr(K) << ": " << V;
      First = false;
    }
    Out << "}";
  }
  Out << "],\n\"spans\": [";
  const auto &Spans = Tr.spans();
  for (size_t I = 0; I < Spans.size(); ++I)
    Out << (I ? ",\n" : "\n") << "[" << jsonStr(Spans[I].Name) << ", "
        << Spans[I].Parent << ", " << Spans[I].Start << ", " << Spans[I].End
        << ", " << Spans[I].Events << "]";
  Out << "]}\n";
  if (!Out)
    die("cannot write " + A.str("out"));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr,
                 "usage: velobench exec|gen|serve|layers [options]\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  if (Cmd == "exec")
    return runExec(Argc, Argv);
  Args A(Argc, Argv);
  if (Cmd == "gen")
    return runGen(A);
  if (Cmd == "serve")
    return runServe(A);
  if (Cmd == "layers")
    return runLayers(A);
  die("unknown subcommand " + Cmd);
}
