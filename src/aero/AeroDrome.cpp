//===- aero/AeroDrome.cpp - Linear-time vector-clock checker --------------===//
//
// See AeroDrome.h for the algorithm overview. The invariants maintained
// here:
//
//   1. TS.Cur->Clock is the exact set of transactions ordered before T's
//      current transaction (including itself). Live objects grow; frozen
//      objects are never touched again.
//   2. Every frontier map entry references the transaction that performed
//      the operation, so later readers of the entry see the full eventual
//      dependency set of that transaction, even for dependencies the
//      transaction acquires after publishing the entry.
//   3. TS.Succ records, per thread r, the earliest transaction index of r
//      known to be ordered after T's open transaction. Joining a clock that
//      contains any recorded successor closes a cycle.
//
// A violation is flagged exactly when a join would close a cycle; the join
// is then skipped, mirroring Velodrome's refusal to add cycle-closing
// edges, and the analysis continues.
//
//===----------------------------------------------------------------------===//

#include "aero/AeroDrome.h"

#include "report/Report.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

namespace velo {

void AeroDrome::beginAnalysis(const SymbolTable &Syms) {
  Backend::beginAnalysis(Syms);
  Threads.clear();
  LastRelease.clear();
  Vars.clear();
  Violations.clear();
  ReportedMethods.clear();
  Saw = false;
  NumJoins = NumTxns = NumAllocs = 0;
}

void AeroDrome::advance(ThreadState &TS, Tid T, const Event &E) {
  ++NumTxns;
  if (TS.Cur && TS.Cur.use_count() == 1) {
    // No frontier map references the previous transaction: recycle the
    // object in place instead of allocating. This is the common case for
    // long unary runs and the analogue of HbGraph's slot recycling.
    TS.Cur->Time++;
    TS.Cur->Finished = false;
    TS.Cur->Clock.set(T, TS.Cur->Time);
  } else {
    auto Next = std::make_shared<TxnClock>();
    ++NumAllocs;
    Next->Owner = T;
    if (TS.Cur) {
      TS.Cur->Finished = true;
      Next->Time = TS.Cur->Time + 1;
      Next->Clock = TS.Cur->Clock; // program order: carry deps forward
    } else {
      Next->Time = 1;
    }
    Next->Clock.set(T, Next->Time);
    TS.Cur = std::move(Next);
  }
  TS.Succ.clear();
  if (TS.PendingParent) {
    TxnClockRef Parent = std::move(TS.PendingParent);
    TS.PendingParent.reset();
    joinFrom(TS, T, Parent, E);
  }
}

bool AeroDrome::beginUnary(ThreadState &TS, Tid T, const Event &E) {
  if (TS.Depth > 0)
    return false;
  advance(TS, T, E);
  return true;
}

/// Render the conflicting operation for the warning message.
static std::string opDesc(const Event &E, const SymbolTable *Syms) {
  switch (E.Kind) {
  case Op::Read:
    return "rd " + (Syms ? Syms->varName(E.var()) : std::to_string(E.var()));
  case Op::Write:
    return "wr " + (Syms ? Syms->varName(E.var()) : std::to_string(E.var()));
  case Op::Acquire:
    return "acq " +
           (Syms ? Syms->lockName(E.lock()) : std::to_string(E.lock()));
  case Op::Release:
    return "rel " +
           (Syms ? Syms->lockName(E.lock()) : std::to_string(E.lock()));
  case Op::Join:
    return "join T" + std::to_string(E.child());
  case Op::Fork:
    return "fork T" + std::to_string(E.child());
  default:
    return "op";
  }
}

void AeroDrome::joinFrom(ThreadState &TS, Tid T, const TxnClockRef &Ref,
                         const Event &E) {
  if (!Ref || Ref == TS.Cur)
    return;
  ++NumJoins;
  uint64_t C = TS.Cur->Time;
  // Cycle check 1: the dependency already contains our open transaction.
  if (Ref->Clock.get(T) >= C) {
    reportViolation(TS, T, Ref->Owner, E);
    return; // skip the cycle-closing join, as Velodrome skips the edge
  }
  // Cycle check 2: the dependency contains a recorded successor of our open
  // transaction, so it is transitively ordered after us.
  Tid Witness = 0;
  if (TS.Succ.intersects(Ref->Clock, Witness)) {
    reportViolation(TS, T, Witness, E);
    return;
  }
  TS.Cur->Clock.joinWith(Ref->Clock);
  if (!Ref->Finished && Ref->Owner != T) {
    // Ref's transaction is still open: tell it that our transaction — and
    // everything already known to follow our transaction — succeeds it.
    ThreadState &OS = Threads[Ref->Owner];
    OS.Succ.record(T, C);
    OS.Succ.recordAll(TS.Succ);
  }
}

void AeroDrome::reportViolation(ThreadState &TS, Tid T, Tid Witness,
                                const Event &E) {
  Saw = true;
  Label Method = TS.Outer;
  if (!ReportedMethods.insert(Method).second)
    return; // one violation record per blamed method
  AeroViolation V;
  V.Thread = T;
  V.Method = Method;
  V.Witness = Witness;
  V.Kind = E.Kind;
  V.Target = E.Target;
  Violations.push_back(V);
  if (ReportManager::capReached(Violations.size() - 1, Opts.MaxWarnings))
    return;
  Warning W;
  W.Analysis = "aerodrome";
  W.Category = "atomicity";
  W.Method = Method;
  W.RuleId = "VELO-ATOM-002";
  W.Thread = T;
  W.Ordinal = eventOrdinal();
  WarningSite Site;
  Site.Thread = Witness;
  Site.Note = "open transaction the dependency cycle closes through";
  W.Related.push_back(std::move(Site));
  W.Message = "atomicity violation in " +
              (Method == NoLabel
                   ? std::string("unary operation")
                   : (Symbols ? Symbols->labelName(Method)
                              : std::to_string(Method))) +
              ": T" + std::to_string(T) + " " + opDesc(E, Symbols) +
              " closes a dependency cycle through T" + std::to_string(Witness);
  report(std::move(W));
}

void AeroDrome::onBegin(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  if (TS.Depth++ == 0) {
    advance(TS, E.Thread, E);
    TS.Outer = E.label();
  }
}

void AeroDrome::onEnd(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  if (TS.Depth > 0 && --TS.Depth == 0) {
    if (TS.Cur)
      TS.Cur->Finished = true;
    TS.Outer = NoLabel;
  }
}

void AeroDrome::onAcquire(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  bool Unary = beginUnary(TS, E.Thread, E);
  if (const TxnClockRef *Last = LastRelease.find(E.lock()))
    joinFrom(TS, E.Thread, *Last, E);
  if (Unary)
    TS.Cur->Finished = true;
}

void AeroDrome::onRelease(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  bool Unary = beginUnary(TS, E.Thread, E);
  LastRelease[E.lock()] = TS.Cur;
  if (Unary)
    TS.Cur->Finished = true;
}

void AeroDrome::onRead(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  bool Unary = beginUnary(TS, E.Thread, E);
  VarClocks &VC = Vars[E.var()];
  joinFrom(TS, E.Thread, VC.LastWrite, E);
  if (E.Thread >= VC.Readers.size())
    VC.Readers.resize(E.Thread + 1);
  VC.Readers[E.Thread] = TS.Cur;
  if (Unary)
    TS.Cur->Finished = true;
}

void AeroDrome::onWrite(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  bool Unary = beginUnary(TS, E.Thread, E);
  VarClocks &VC = Vars[E.var()];
  joinFrom(TS, E.Thread, VC.LastWrite, E);
  for (const TxnClockRef &Rd : VC.Readers)
    joinFrom(TS, E.Thread, Rd, E);
  // Frontier reduction: all previous readers are now ordered before this
  // write, so future conflicts with them flow through our clock.
  VC.Readers.clear();
  VC.LastWrite = TS.Cur;
  if (Unary)
    TS.Cur->Finished = true;
}

void AeroDrome::onFork(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  bool Unary = beginUnary(TS, E.Thread, E);
  // The child's first transaction starts after the forking transaction;
  // resolve the dependency lazily at the child's first event so the child
  // observes the fork-point transaction's final clock.
  Threads[E.child()].PendingParent = TS.Cur;
  if (Unary)
    TS.Cur->Finished = true;
}

void AeroDrome::onJoin(const Event &E) {
  ThreadState &Child = Threads[E.child()];
  TxnClockRef Last = Child.Cur ? Child.Cur : Child.PendingParent;
  ThreadState &TS = Threads[E.Thread];
  bool Unary = beginUnary(TS, E.Thread, E);
  joinFrom(TS, E.Thread, Last, E);
  if (Unary)
    TS.Cur->Finished = true;
}

namespace {

void writeU64Vec(SnapshotWriter &W, const std::vector<uint64_t> &V) {
  W.u64(V.size());
  for (uint64_t X : V)
    W.u64(X);
}

std::vector<uint64_t> readU64Vec(SnapshotReader &R) {
  std::vector<uint64_t> V;
  uint64_t N = R.u64();
  for (uint64_t I = 0; I < N && !R.failed(); ++I)
    V.push_back(R.u64());
  return V;
}

} // namespace

// Clock objects are shared by reference, and the sharing structure is
// semantic: advance() recycles TS.Cur in place only when no frontier map
// still references it (use_count() == 1), and joinFrom() short-circuits on
// pointer identity (Ref == TS.Cur). The snapshot therefore serializes the
// *object graph*, not the values: each distinct TxnClock gets an id (in a
// deterministic traversal order), the object table is written once, and
// every map slot stores an id. Restore rebuilds exactly one object per id,
// so both use counts and identities come back bit-for-bit equivalent.
void AeroDrome::serialize(SnapshotWriter &W) const {
  serializeBase(W);
  W.u64(Opts.MaxWarnings);

  std::unordered_map<const TxnClock *, uint64_t> Ids;
  std::vector<const TxnClock *> Objects;
  auto idOf = [&](const TxnClockRef &Ref) -> uint64_t {
    if (!Ref)
      return 0;
    auto [It, New] = Ids.emplace(Ref.get(), Objects.size() + 1);
    if (New)
      Objects.push_back(Ref.get());
    return It->second;
  };

  // First pass: enumerate objects in a deterministic order (threads, then
  // locks, then variables, each in ascending id order).
  Threads.forEach([&](Tid, const ThreadState &TS) {
    idOf(TS.Cur);
    idOf(TS.PendingParent);
  });
  LastRelease.forEach([&](LockId, const TxnClockRef &Ref) { idOf(Ref); });
  Vars.forEach([&](VarId, const VarClocks &VC) {
    idOf(VC.LastWrite);
    for (const TxnClockRef &Rd : VC.Readers)
      idOf(Rd);
  });

  // Object table.
  W.u64(Objects.size());
  for (const TxnClock *C : Objects) {
    W.u32(C->Owner);
    W.u64(C->Time);
    W.boolean(C->Finished);
    writeU64Vec(W, C->Clock.raw());
  }

  // Reference structure.
  W.u64(Threads.size());
  Threads.forEach([&](Tid T, const ThreadState &TS) {
    W.u32(T);
    W.u64(idOf(TS.Cur));
    writeU64Vec(W, TS.Succ.raw());
    W.u64(idOf(TS.PendingParent));
    W.u32(TS.Outer);
    W.u64(static_cast<uint64_t>(TS.Depth));
  });
  W.u64(LastRelease.size());
  LastRelease.forEach([&](LockId M, const TxnClockRef &Ref) {
    W.u32(M);
    W.u64(idOf(Ref));
  });
  W.u64(Vars.size());
  Vars.forEach([&](VarId X, const VarClocks &VC) {
    W.u32(X);
    W.u64(idOf(VC.LastWrite));
    W.u64(VC.Readers.size());
    for (const TxnClockRef &Rd : VC.Readers)
      W.u64(idOf(Rd));
  });

  W.u64(Violations.size());
  for (const AeroViolation &V : Violations) {
    W.u32(V.Thread);
    W.u32(V.Method);
    W.u32(V.Witness);
    W.u8(static_cast<uint8_t>(V.Kind));
    W.u32(V.Target);
  }
  W.u64(ReportedMethods.size());
  for (Label L : ReportedMethods)
    W.u32(L);
  W.boolean(Saw);
  W.u64(NumJoins);
  W.u64(NumTxns);
  W.u64(NumAllocs);
}

bool AeroDrome::deserialize(SnapshotReader &R) {
  if (!deserializeBase(R))
    return false;
  Opts.MaxWarnings = R.u64();

  uint64_t NumObjects = R.u64();
  if (R.failed())
    return false;
  std::vector<TxnClockRef> Objects;
  Objects.reserve(NumObjects);
  for (uint64_t I = 0; I < NumObjects && !R.failed(); ++I) {
    auto C = std::make_shared<TxnClock>();
    C->Owner = R.u32();
    C->Time = R.u64();
    C->Finished = R.boolean();
    C->Clock.setRaw(readU64Vec(R));
    Objects.push_back(std::move(C));
  }
  auto refOf = [&](uint64_t Id) -> TxnClockRef {
    if (Id == 0 || Id > Objects.size())
      return nullptr;
    return Objects[Id - 1];
  };

  uint64_t NumThreads = R.u64();
  for (uint64_t I = 0; I < NumThreads && !R.failed(); ++I) {
    Tid T = R.u32();
    ThreadState &TS = Threads[T];
    TS.Cur = refOf(R.u64());
    TS.Succ.setRaw(readU64Vec(R));
    TS.PendingParent = refOf(R.u64());
    TS.Outer = R.u32();
    TS.Depth = static_cast<int>(R.u64());
  }
  uint64_t NumLocks = R.u64();
  for (uint64_t I = 0; I < NumLocks && !R.failed(); ++I) {
    LockId M = R.u32();
    LastRelease[M] = refOf(R.u64());
  }
  uint64_t NumVars = R.u64();
  for (uint64_t I = 0; I < NumVars && !R.failed(); ++I) {
    VarId X = R.u32();
    VarClocks &VC = Vars[X];
    VC.LastWrite = refOf(R.u64());
    uint64_t NumReaders = R.u64();
    for (uint64_t J = 0; J < NumReaders && !R.failed(); ++J)
      VC.Readers.push_back(refOf(R.u64()));
  }

  uint64_t NumViolations = R.u64();
  for (uint64_t I = 0; I < NumViolations && !R.failed(); ++I) {
    AeroViolation V;
    V.Thread = R.u32();
    V.Method = R.u32();
    V.Witness = R.u32();
    V.Kind = static_cast<Op>(R.u8());
    V.Target = R.u32();
    Violations.push_back(V);
  }
  uint64_t NumReported = R.u64();
  for (uint64_t I = 0; I < NumReported && !R.failed(); ++I)
    ReportedMethods.insert(R.u32());
  Saw = R.boolean();
  NumJoins = R.u64();
  NumTxns = R.u64();
  NumAllocs = R.u64();
  // The temporary Objects vector dies here, so each restored map slot is
  // the only owner of its reference — use counts match the saved run.
  return !R.failed();
}

void AeroDrome::onEvent(const Event &E) {
  countEvent();
  switch (E.Kind) {
  case Op::Begin:
    return onBegin(E);
  case Op::End:
    return onEnd(E);
  case Op::Acquire:
    return onAcquire(E);
  case Op::Release:
    return onRelease(E);
  case Op::Read:
    return onRead(E);
  case Op::Write:
    return onWrite(E);
  case Op::Fork:
    return onFork(E);
  case Op::Join:
    return onJoin(E);
  }
}

} // namespace velo
