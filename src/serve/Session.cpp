//===- serve/Session.cpp - One tenant's analysis pipeline -----------------===//

#include "serve/Session.h"

#include "analysis/Snapshot.h"
#include "analysis/Stack.h"

namespace velo {
namespace serve {

// Built by the same AnalysisStack as velodrome-check, from the same
// defaults, so the warning lists (and therefore the report bytes) cannot
// drift from the CLI's.
struct Session::Pipeline {
  AnalysisStack Stack;
  SymbolTable Syms;
  TraceSanitizer San;
  std::vector<Event> Scratch;
  bool Stopped = false; ///< governor exhausted: drop the rest of the stream

  explicit Pipeline(const SessionConfig &C)
      : San(C.Lenient ? SanitizeMode::Lenient : SanitizeMode::Strict) {}
};

Session::Session() = default;
Session::~Session() = default;

bool Session::buildPipeline(std::string &Err) {
  auto P = std::make_unique<Pipeline>(Config);
  StackOptions Opts;
  Opts.Limits = Config.Limits;
  if (!P->Stack.build(Config.BackendSel, Opts, Err))
    return false;
  Pipe = std::move(P);
  return true;
}

bool Session::configure(const SessionConfig &C, std::string &Err) {
  Config = C;
  if (!buildPipeline(Err))
    return false;
  Pipe->Stack.begin(Pipe->Syms);
  return true;
}

bool Session::feed(const Event &E, std::string &Err) {
  if (!Pipe || Finished) {
    Err = "session is not accepting events";
    return false;
  }
  Pipeline &P = *Pipe;
  if (P.Stopped)
    return true; // governor exhausted: the CLI loop stops reading here
  P.Scratch.clear();
  if (!P.San.push(E, P.Scratch)) {
    Err = "trace is not well formed: " + P.San.error();
    return false;
  }
  for (const Event &Out : P.Scratch) {
    // Serve never reduces, so the delivered position is the sanitized-stream
    // ordinal; it is restored on rehydrate, so warning coordinates survive
    // eviction.
    P.Stack.deliver(Out, P.Stack.eventsSeen() + 1);
    if (P.Stack.exhausted()) {
      P.Stopped = true;
      break;
    }
  }
  return true;
}

bool Session::finish(std::string &Err) {
  if (!Pipe || Finished) {
    Err = "session is not accepting events";
    return false;
  }
  Pipeline &P = *Pipe;
  P.Scratch.clear();
  P.San.finish(P.Scratch);
  for (const Event &Out : P.Scratch)
    if (!P.Stopped)
      P.Stack.deliver(Out, P.Stack.eventsSeen() + 1);
  P.Stack.end();
  Notes += P.San.repairs().note();
  Notes += P.Stack.governorNote();
  Finished = true;

  // Same manager and stack as the CLI: the text rendering is
  // byte-identical to velodrome-check's stdout, and Json/Sarif reuse the
  // identical findings, so the wire report cannot drift from the CLI's.
  ReportManager RM;
  RM.Run.Tool = "velodrome-serve";
  RM.Run.Trace = Config.Name;
  RM.Run.Events = P.Stack.eventsSeen();
  RM.Run.SanitizedEvents = P.Stack.eventsSeen();
  RM.Run.Threads = P.Stack.threadsSeen();
  Exit = P.Stack.report(RM, &P.Syms);
  Report = RM.render(Config.Format);
  return true;
}

uint64_t Session::eventsSeen() const {
  return Pipe ? Pipe->Stack.eventsSeen() : EvictedEvents;
}

SymbolTable &Session::symbols() { return Pipe->Syms; }

bool Session::snapshot(std::string &Blob, std::string &Err) {
  if (!Pipe || Finished) {
    Err = "session cannot be snapshotted";
    return false;
  }
  Pipeline &P = *Pipe;
  SnapshotWriter W;
  W.str(Config.Name);
  W.str(Config.BackendSel);
  W.boolean(Config.Lenient);
  W.u32(static_cast<uint32_t>(Config.Format));
  W.u64(Config.Limits.MaxEvents);
  W.u64(Config.Limits.MaxLiveNodes);
  W.u64(Config.Limits.MaxMemoryBytes);
  W.u64(Config.Limits.DeadlineMillis);
  W.u32(Config.Limits.CheckIntervalEvents);
  W.u64(P.Stack.eventsSeen());
  W.u32(P.Stack.threadsSeen());
  W.boolean(P.Stopped);
  W.str(std::string()); // notes: finish() adds every note

  SnapshotWriter SymsBlob;
  serializeSymbols(SymsBlob, P.Syms);
  W.blob(SymsBlob);
  SnapshotWriter SanBlob;
  P.San.serialize(SanBlob);
  W.blob(SanBlob);

  // Every delivered back-end's state, by name, in delivery order.
  P.Stack.saveDelivery(W);
  Blob = W.payload();
  return true;
}

bool Session::evict(std::string &Blob, std::string &Err) {
  if (!snapshot(Blob, Err))
    return false;
  EvictedEvents = Pipe->Stack.eventsSeen();
  Pipe.reset();
  return true;
}

bool Session::rehydrate(const std::string &Blob, std::string &Err) {
  SnapshotReader R(Blob);
  SessionConfig C;
  C.Name = R.str();
  C.BackendSel = R.str();
  C.Lenient = R.boolean();
  uint32_t Fmt = R.u32();
  if (Fmt > 2) {
    Err = "corrupt session snapshot (report format)";
    return false;
  }
  C.Format = static_cast<ReportFormat>(Fmt);
  C.Limits.MaxEvents = R.u64();
  C.Limits.MaxLiveNodes = R.u64();
  C.Limits.MaxMemoryBytes = R.u64();
  C.Limits.DeadlineMillis = R.u64();
  C.Limits.CheckIntervalEvents = R.u32();
  uint64_t EventsSeen = R.u64();
  uint32_t ThreadsSeen = R.u32();
  bool Stopped = R.boolean();
  // Notes: finish() adds every note. A snapshot whose `all` included
  // basic may carry its drop note, which no longer applies.
  R.str();
  if (R.failed()) {
    Err = "corrupt session snapshot";
    return false;
  }

  Config = C;
  Notes.clear();
  Finished = false;
  if (!buildPipeline(Err))
    return false;
  Pipeline &P = *Pipe;
  P.Stack.setProgress(EventsSeen, ThreadsSeen);
  P.Stopped = Stopped;

  // Restore order matters, same as the CLI: symbols first (backends keep a
  // reference to the table from beginAnalysis), then sanitizer, then each
  // backend's state.
  SnapshotReader SymsBlob = R.blob();
  if (!deserializeSymbols(SymsBlob, P.Syms)) {
    Err = "corrupt session snapshot (symbol table)";
    Pipe.reset();
    return false;
  }
  P.Stack.begin(P.Syms);
  SnapshotReader SanBlob = R.blob();
  if (!P.San.deserialize(SanBlob)) {
    Err = "corrupt session snapshot (sanitizer state)";
    Pipe.reset();
    return false;
  }
  std::string BadName;
  if (!P.Stack.restoreDelivery(R, BadName)) {
    Err = "corrupt session snapshot (backend '" + BadName + "')";
    Pipe.reset();
    return false;
  }
  if (R.failed() || !R.atEnd()) {
    Err = "corrupt session snapshot (truncated)";
    Pipe.reset();
    return false;
  }
  return true;
}

} // namespace serve
} // namespace velo
