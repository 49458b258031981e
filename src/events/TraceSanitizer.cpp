//===- events/TraceSanitizer.cpp - Trace validation & repair --------------===//

#include "events/TraceSanitizer.h"

#include <algorithm>

namespace velo {

std::string RepairCounts::summary() const {
  std::string Out;
  auto Add = [&](uint64_t N, const char *What) {
    if (N == 0)
      return;
    if (!Out.empty())
      Out += "; ";
    Out += std::string(What) + ": " + std::to_string(N);
  };
  Add(ReentrantAcquires, "re-entrant acquires");
  Add(ForeignAcquires, "foreign acquires");
  Add(UnheldReleases, "unheld releases");
  Add(UnmatchedEnds, "unmatched ends");
  Add(UnclosedTxns, "unclosed transactions");
  Add(AbandonedLocks, "abandoned locks");
  Add(OrphanForks, "orphan forks");
  Add(DroppedForks, "dropped forks");
  Add(DroppedJoins, "dropped joins");
  Add(PostJoinEvents, "post-join events");
  return Out;
}

std::string RepairCounts::note() const {
  if (total() == 0)
    return std::string();
  return "lenient: repaired " + std::to_string(total()) +
         " event(s): " + summary() + "\n";
}

bool TraceSanitizer::reject(const std::string &Msg, size_t SourceLine) {
  Failed = true;
  Error = (SourceLine != 0 ? "line " + std::to_string(SourceLine)
                           : "event " + std::to_string(EventIdx)) +
          ": " + Msg;
  return false;
}

void TraceSanitizer::emitSynthesized(const Event &E, std::vector<Event> &Out) {
  // Only synthesized ends and releases come here; push() advances the same
  // state for the events it keeps. Dropped events leave no trace, so
  // re-sanitizing the emitted stream reproduces the same decisions with
  // nothing left to repair (idempotence).
  ThreadState &TS = Threads[E.Thread];
  TS.Ran = true;
  if (E.Kind == Op::End)
    TS.Depth--;
  else
    Locks.erase(E.lock());
  Out.push_back(E);
}

void TraceSanitizer::closeOpenBlocks(Tid T, ThreadState &TS,
                                     std::vector<Event> &Out) {
  while (TS.Depth > 0) {
    Repairs.UnclosedTxns++;
    emitSynthesized(Event::end(T), Out);
  }
}

void TraceSanitizer::releaseHeldLocks(Tid T, std::vector<Event> &Out) {
  // Collect first (emitSynthesized erases), in ascending lock order for a
  // deterministic synthesis order. One release fully erases the lock even
  // when re-entrant acquires were filtered at depth > 1: the emitted stream
  // only ever saw the outermost acquire.
  std::vector<LockId> Held;
  Locks.forEach([&](LockId M, const LockState &LS) {
    if (LS.Holder == T)
      Held.push_back(M);
  });
  for (LockId M : Held) {
    Repairs.AbandonedLocks++;
    emitSynthesized(Event::release(T, M), Out);
  }
}

bool TraceSanitizer::push(const Event &E, std::vector<Event> &Out,
                          size_t SourceLine) {
  if (Failed)
    return false;
  ++EventIdx;
  bool Strict = Mode == SanitizeMode::Strict;
  // Each case checks E and, when E is kept, advances the state for it, so
  // an input event costs one switch. References into Threads stay valid
  // when the fork/join child is inserted (IdTable).
  ThreadState &TS = Threads[E.Thread];
  if (TS.Joined) {
    if (Strict)
      return reject("thread acts after being joined", SourceLine);
    Repairs.PostJoinEvents++;
    return true;
  }

  switch (E.Kind) {
  case Op::Begin:
    TS.Depth++;
    break;

  case Op::Read:
  case Op::Write:
    break; // always well-formed

  case Op::End:
    if (TS.Depth <= 0) {
      if (Strict)
        return reject("end without matching begin", SourceLine);
      Repairs.UnmatchedEnds++;
      return true;
    }
    TS.Depth--;
    break;

  case Op::Acquire: {
    if (LockState *LS = Locks.find(E.lock())) {
      if (LS->Holder == E.Thread) {
        if (Strict)
          return reject("re-entrant acquire (should be filtered)",
                        SourceLine);
        LS->Depth++;
        Repairs.ReentrantAcquires++;
        return true;
      }
      if (Strict)
        return reject("acquire of a held lock", SourceLine);
      Repairs.ForeignAcquires++;
      return true;
    }
    Locks[E.lock()] = {E.Thread, 1};
    break;
  }

  case Op::Release: {
    LockState *LS = Locks.find(E.lock());
    if (!LS || LS->Holder != E.Thread) {
      if (Strict)
        return reject("release of a lock not held by this thread",
                      SourceLine);
      Repairs.UnheldReleases++;
      return true;
    }
    if (LS->Depth > 1) {
      // Matching release of a filtered re-entrant acquire (counted there).
      LS->Depth--;
      return true;
    }
    Locks.erase(E.lock());
    break;
  }

  case Op::Fork: {
    if (E.child() == E.Thread) {
      if (Strict)
        return reject("thread forks itself", SourceLine);
      Repairs.DroppedForks++;
      return true;
    }
    ThreadState &Child = Threads[E.child()];
    if (Child.Forked) {
      if (Strict)
        return reject("thread forked twice", SourceLine);
      Repairs.DroppedForks++;
      return true;
    }
    if (Child.Ran) {
      if (Strict)
        return reject("forked thread already ran", SourceLine);
      // The fork cannot be applied retroactively; the child is promoted to
      // an initial thread (its fork is implicitly at trace start).
      Repairs.OrphanForks++;
      return true;
    }
    Child.Forked = true;
    break;
  }

  case Op::Join: {
    if (E.child() == E.Thread) {
      if (Strict)
        return reject("thread joins itself", SourceLine);
      Repairs.DroppedJoins++;
      return true;
    }
    ThreadState &Child = Threads[E.child()];
    if (Child.Joined) {
      if (Strict)
        return reject("thread joined twice", SourceLine);
      Repairs.DroppedJoins++;
      return true;
    }
    // The joined thread ends here: release its abandoned locks (inside any
    // open block, where the real release would have been) and auto-close
    // its open atomic blocks. (Strict mode matches Trace::validate, which
    // permits both.)
    if (!Strict) {
      releaseHeldLocks(E.child(), Out);
      closeOpenBlocks(E.child(), Child, Out);
    }
    Child.Joined = true;
    break;
  }
  }

  TS.Ran = true;
  Out.push_back(E);
  return true;
}

bool TraceSanitizer::finish(std::vector<Event> &Out) {
  if (Failed)
    return false;
  if (Mode == SanitizeMode::Lenient) {
    // Every thread ends at trace finish, so threads with open blocks *or*
    // held locks get their tail synthesized, releases first (inside the
    // block), in ascending thread order.
    std::vector<Tid> Open;
    Threads.forEach([&](Tid T, const ThreadState &TS) {
      if (TS.Depth > 0)
        Open.push_back(T);
    });
    Locks.forEach([&](LockId, const LockState &LS) {
      if (std::find(Open.begin(), Open.end(), LS.Holder) == Open.end())
        Open.push_back(LS.Holder);
    });
    std::sort(Open.begin(), Open.end());
    for (Tid T : Open) {
      releaseHeldLocks(T, Out);
      closeOpenBlocks(T, Threads[T], Out);
    }
  }
  return true;
}

void TraceSanitizer::serialize(SnapshotWriter &W) const {
  W.u8(Mode == SanitizeMode::Lenient ? 1 : 0);
  W.u64(Threads.size());
  Threads.forEach([&](Tid T, const ThreadState &TS) {
    W.u32(T);
    W.u64(static_cast<uint64_t>(TS.Depth));
    W.boolean(TS.Ran);
    W.boolean(TS.Forked);
    W.boolean(TS.Joined);
  });
  W.u64(Locks.size());
  Locks.forEach([&](LockId M, const LockState &LS) {
    W.u32(M);
    W.u32(LS.Holder);
    W.u32(LS.Depth);
  });
  W.u64(Repairs.ReentrantAcquires);
  W.u64(Repairs.ForeignAcquires);
  W.u64(Repairs.UnheldReleases);
  W.u64(Repairs.UnmatchedEnds);
  W.u64(Repairs.UnclosedTxns);
  W.u64(Repairs.AbandonedLocks);
  W.u64(Repairs.OrphanForks);
  W.u64(Repairs.DroppedForks);
  W.u64(Repairs.DroppedJoins);
  W.u64(Repairs.PostJoinEvents);
  W.u64(EventIdx);
}

bool TraceSanitizer::deserialize(SnapshotReader &R) {
  SanitizeMode Saved = R.u8() ? SanitizeMode::Lenient : SanitizeMode::Strict;
  if (Saved != Mode)
    return false; // resumed with a different --lenient/--strict setting
  uint64_t NumThreads = R.u64();
  for (uint64_t I = 0; I < NumThreads && !R.failed(); ++I) {
    Tid T = R.u32();
    ThreadState &TS = Threads[T];
    TS.Depth = static_cast<int>(R.u64());
    TS.Ran = R.boolean();
    TS.Forked = R.boolean();
    TS.Joined = R.boolean();
  }
  uint64_t NumLocks = R.u64();
  for (uint64_t I = 0; I < NumLocks && !R.failed(); ++I) {
    LockId M = R.u32();
    LockState &LS = Locks[M];
    LS.Holder = R.u32();
    LS.Depth = R.u32();
  }
  Repairs.ReentrantAcquires = R.u64();
  Repairs.ForeignAcquires = R.u64();
  Repairs.UnheldReleases = R.u64();
  Repairs.UnmatchedEnds = R.u64();
  Repairs.UnclosedTxns = R.u64();
  Repairs.AbandonedLocks = R.u64();
  Repairs.OrphanForks = R.u64();
  Repairs.DroppedForks = R.u64();
  Repairs.DroppedJoins = R.u64();
  Repairs.PostJoinEvents = R.u64();
  EventIdx = R.u64();
  return !R.failed();
}

bool sanitizeTrace(const Trace &In, SanitizeMode Mode, Trace &Out,
                   RepairCounts *RepairsOut, std::string &ErrorOut) {
  Out.symbols() = In.symbols();
  TraceSanitizer S(Mode);
  std::vector<Event> Buf;
  for (const Event &E : In) {
    Buf.clear();
    if (!S.push(E, Buf)) {
      ErrorOut = S.error();
      return false;
    }
    for (const Event &O : Buf)
      Out.push(O);
  }
  Buf.clear();
  if (!S.finish(Buf)) {
    ErrorOut = S.error();
    return false;
  }
  for (const Event &O : Buf)
    Out.push(O);
  if (RepairsOut)
    *RepairsOut = S.repairs();
  return true;
}

} // namespace velo
