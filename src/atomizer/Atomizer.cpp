//===- atomizer/Atomizer.cpp - Reduction-based atomicity checker ----------===//

#include "atomizer/Atomizer.h"

namespace velo {

void Atomizer::beginAnalysis(const SymbolTable &Syms) {
  Backend::beginAnalysis(Syms);
  Engine.clear();
  Threads.clear();
  Flagged.clear();
  Suspicious = false;
}

void Atomizer::violate(ThreadState &TS, const Event &E, const char *Why) {
  Suspicious = true;
  if (TS.ViolatedThisTxn)
    return; // one report per transaction instance
  TS.ViolatedThisTxn = true;
  if (!Flagged.insert(TS.Outer).second)
    return; // one warning per method
  Warning W;
  W.Analysis = "atomizer";
  W.Category = "atomicity";
  W.Method = TS.Outer;
  W.RuleId = "VELO-ATOM-003";
  W.Thread = E.Thread;
  W.Ordinal = eventOrdinal();
  W.Message =
      "potential atomicity violation in " +
      (Symbols ? Symbols->labelName(TS.Outer) : std::to_string(TS.Outer)) +
      ": " + Why + " (T" + std::to_string(E.Thread) + ")";
  report(std::move(W));
}

void Atomizer::serialize(SnapshotWriter &W) const {
  serializeBase(W);
  Engine.serialize(W);
  W.u64(Threads.size());
  Threads.forEach([&](Tid T, const ThreadState &TS) {
    W.u32(T);
    W.u64(static_cast<uint64_t>(TS.Depth));
    W.u8(TS.Ph == Phase::PostCommit ? 1 : 0);
    W.u32(TS.Outer);
    W.boolean(TS.ViolatedThisTxn);
  });
  W.u64(Flagged.size());
  for (Label L : Flagged)
    W.u32(L);
  W.boolean(Suspicious);
}

bool Atomizer::deserialize(SnapshotReader &R) {
  if (!deserializeBase(R) || !Engine.deserialize(R))
    return false;
  uint64_t NumThreads = R.u64();
  for (uint64_t I = 0; I < NumThreads && !R.failed(); ++I) {
    Tid T = R.u32();
    ThreadState &TS = Threads[T];
    TS.Depth = static_cast<int>(R.u64());
    TS.Ph = R.u8() ? Phase::PostCommit : Phase::PreCommit;
    TS.Outer = R.u32();
    TS.ViolatedThisTxn = R.boolean();
  }
  uint64_t NumFlagged = R.u64();
  for (uint64_t I = 0; I < NumFlagged && !R.failed(); ++I)
    Flagged.insert(R.u32());
  Suspicious = R.boolean();
  return !R.failed();
}

void Atomizer::onEvent(const Event &E) {
  countEvent();
  Suspicious = false;
  ThreadState &TS = Threads[E.Thread];

  switch (E.Kind) {
  case Op::Begin:
    if (TS.Depth++ == 0) {
      TS.Ph = Phase::PreCommit;
      TS.Outer = E.label();
      TS.ViolatedThisTxn = false;
    }
    return;

  case Op::End:
    if (TS.Depth > 0)
      --TS.Depth;
    return;

  case Op::Acquire:
    Engine.onAcquire(E.Thread, E.lock());
    // Acquires are right-movers: legal only before the commit point.
    if (TS.Depth > 0 && TS.Ph == Phase::PostCommit)
      violate(TS, E, "lock acquire after the transaction's commit point");
    return;

  case Op::Release:
    Engine.onRelease(E.Thread, E.lock());
    // Releases are left-movers: they commit the transaction.
    if (TS.Depth > 0)
      TS.Ph = Phase::PostCommit;
    return;

  case Op::Read:
  case Op::Write: {
    bool Racy =
        Engine.accessIsUnprotected(E.Thread, E.var(), E.Kind == Op::Write);
    if (TS.Depth == 0 || !Racy)
      return; // both-mover, or outside any transaction
    if (TS.Ph == Phase::PreCommit) {
      // The single permitted non-mover: the commit point. This is the
      // moment the adversarial scheduler wants to stall this thread.
      TS.Ph = Phase::PostCommit;
      Suspicious = true;
      return;
    }
    violate(TS, E, "unprotected access after the transaction's commit point");
    return;
  }

  case Op::Fork:
  case Op::Join:
    return; // the lockset analysis has no fork/join model (by design)
  }
}

} // namespace velo
