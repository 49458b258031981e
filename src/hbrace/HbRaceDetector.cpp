//===- hbrace/HbRaceDetector.cpp - Vector-clock race detector -------------===//

#include "hbrace/HbRaceDetector.h"

#include <vector>

namespace velo {

namespace {

void writeClock(SnapshotWriter &W, const VectorClock &C) {
  W.u64(C.raw().size());
  for (uint64_t V : C.raw())
    W.u64(V);
}

bool readClock(SnapshotReader &R, VectorClock &C) {
  std::vector<uint64_t> V;
  uint64_t N = R.u64();
  for (uint64_t I = 0; I < N && !R.failed(); ++I)
    V.push_back(R.u64());
  C.setRaw(std::move(V));
  return !R.failed();
}

} // namespace

void HbRaceDetector::serialize(SnapshotWriter &W) const {
  serializeBase(W);
  W.u64(ThreadClocks.size());
  ThreadClocks.forEach([&](Tid T, const VectorClock &C) {
    W.u32(T);
    writeClock(W, C);
  });
  W.u64(LockClocks.size());
  LockClocks.forEach([&](LockId M, const VectorClock &C) {
    W.u32(M);
    writeClock(W, C);
  });
  W.u64(Vars.size());
  Vars.forEach([&](VarId X, const VarClocks &V) {
    W.u32(X);
    writeClock(W, V.Reads);
    writeClock(W, V.Writes);
  });
  W.u64(RacyVars.size());
  for (VarId X : RacyVars)
    W.u32(X);
}

bool HbRaceDetector::deserialize(SnapshotReader &R) {
  if (!deserializeBase(R))
    return false;
  uint64_t NumThreads = R.u64();
  for (uint64_t I = 0; I < NumThreads && !R.failed(); ++I) {
    Tid T = R.u32();
    readClock(R, ThreadClocks[T]);
  }
  uint64_t NumLocks = R.u64();
  for (uint64_t I = 0; I < NumLocks && !R.failed(); ++I) {
    LockId M = R.u32();
    readClock(R, LockClocks[M]);
  }
  uint64_t NumVars = R.u64();
  for (uint64_t I = 0; I < NumVars && !R.failed(); ++I) {
    VarClocks &V = Vars[R.u32()];
    readClock(R, V.Reads);
    readClock(R, V.Writes);
  }
  uint64_t NumRacy = R.u64();
  for (uint64_t I = 0; I < NumRacy && !R.failed(); ++I)
    RacyVars.insert(R.u32());
  return !R.failed();
}

void HbRaceDetector::beginAnalysis(const SymbolTable &Syms) {
  Backend::beginAnalysis(Syms);
  ThreadClocks.clear();
  LockClocks.clear();
  Vars.clear();
  RacyVars.clear();
}

VectorClock &HbRaceDetector::threadClock(Tid T) {
  if (VectorClock *C = ThreadClocks.find(T))
    return *C;
  VectorClock &C = ThreadClocks[T];
  C.set(T, 1); // each thread starts in its own epoch
  return C;
}

void HbRaceDetector::reportRace(const Event &E, Tid Witness,
                                const char *PriorKind) {
  if (!RacyVars.insert(E.var()).second)
    return; // one warning per variable
  Warning W;
  W.Analysis = "hb";
  W.Category = "race";
  W.Method = NoLabel;
  W.RuleId = "VELO-RACE-001";
  W.Thread = E.Thread;
  W.Ordinal = eventOrdinal();
  WarningSite Site;
  Site.Thread = Witness;
  Site.Note = std::string("prior concurrent ") + PriorKind;
  W.Related.push_back(std::move(Site));
  W.Message = "race: " + std::string(opName(E.Kind)) + " of " +
              (Symbols ? Symbols->varName(E.var()) : std::to_string(E.var())) +
              " by T" + std::to_string(E.Thread) + " is concurrent with a " +
              PriorKind + " by T" + std::to_string(Witness);
  report(std::move(W));
}

void HbRaceDetector::onEvent(const Event &E) {
  countEvent();
  switch (E.Kind) {
  case Op::Acquire:
    threadClock(E.Thread).joinWith(LockClocks[E.lock()]);
    return;
  case Op::Release: {
    VectorClock &C = threadClock(E.Thread);
    LockClocks[E.lock()] = C;
    C.tick(E.Thread);
    return;
  }
  case Op::Fork: {
    VectorClock &Parent = threadClock(E.Thread);
    threadClock(E.child()).joinWith(Parent);
    Parent.tick(E.Thread);
    return;
  }
  case Op::Join:
    threadClock(E.Thread).joinWith(threadClock(E.child()));
    return;
  case Op::Read: {
    VectorClock &C = threadClock(E.Thread);
    VarClocks &V = Vars[E.var()];
    Tid Witness;
    if (!V.Writes.leq(C) && V.Writes.exceedsAt(C, Witness))
      reportRace(E, Witness, "write");
    V.Reads.set(E.Thread, C.get(E.Thread));
    return;
  }
  case Op::Write: {
    VectorClock &C = threadClock(E.Thread);
    VarClocks &V = Vars[E.var()];
    Tid Witness;
    if (!V.Writes.leq(C) && V.Writes.exceedsAt(C, Witness))
      reportRace(E, Witness, "write");
    else if (!V.Reads.leq(C) && V.Reads.exceedsAt(C, Witness))
      reportRace(E, Witness, "read");
    V.Writes.set(E.Thread, C.get(E.Thread));
    return;
  }
  case Op::Begin:
  case Op::End:
    return; // atomic-block markers carry no synchronization
  }
}

} // namespace velo
