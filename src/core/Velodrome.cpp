//===- core/Velodrome.cpp - Sound & complete atomicity checker ------------===//

#include "core/Velodrome.h"

#include "report/Report.h"
#include "support/DotWriter.h"

#include <algorithm>
#include <cassert>

namespace velo {

void Velodrome::beginAnalysis(const SymbolTable &Syms) {
  Backend::beginAnalysis(Syms);
  Graph.clear();
  Threads.clear();
  LastUnlock.clear();
  Vars.clear();
  Violations.clear();
  ReportedMethods.clear();
}

Step Velodrome::tickInside(ThreadState &TS) {
  assert(TS.InTxn && "tickInside outside a transaction");
  Step S = Graph.tick(TS.Last);
  assert(!S.isBottom() && S.slot() == TS.CurNode &&
         "inside a transaction, L(t) tracks the open node");
  return S;
}

Step Velodrome::unaryProgramStep(ThreadState &TS, Tid T,
                                 const EdgeInfo &Info) {
  // The paper's outside-transaction "s = L(t)+1" is only sound when L(t)'s
  // node can perform no further operations. That holds for a thread's own
  // finished transactions, but our fork extension can leave L(t) pointing
  // into the *parent's still-open* node; ticking would merge this unary
  // operation into a transaction that may later conflict after it. Allocate
  // a fresh successor node in that case instead.
  Step L = Graph.resolve(TS.Last);
  if (L.isBottom())
    return Step::bottom();
  if (!Graph.isActive(L.slot()))
    return Graph.tick(L);
  Sources.assign({L});
  return Graph.merge(Sources, T, Info); // active predecessor: fresh node
}

Step Velodrome::naiveUnary(Tid T, const EdgeInfo &Info) {
  Step S = Graph.allocNode(T, NoLabel, /*Active=*/true);
  if (S.isBottom()) // GraphFull: the operation goes untracked
    return Step::bottom();
  for (Step Src : Sources)
    Graph.addEdge(Src, S, Info, nullptr); // fresh node: no cycle possible
  Graph.finishNode(S.slot());
  return S;
}

Step Velodrome::outside(Tid T, const EdgeInfo &Info) {
  return Opts.UseMerge ? Graph.merge(Sources, T, Info) : naiveUnary(T, Info);
}

void Velodrome::addEdgeChecked(Step Src, Step Dst, const EdgeInfo &Info,
                               ThreadState &TS) {
  // A cycle closed here always blames Dst's outermost block (reportCycle),
  // and only the first cycle per blamed method is reported: once that
  // method is in ReportedMethods, the edge is still rejected but the cycle
  // report and its path search are skipped.
  if (ReportedMethods.count(Graph.rootOf(Dst.slot()))) {
    Graph.addEdge(Src, Dst, Info, nullptr);
    return;
  }
  CycleReport Cycle;
  if (Graph.addEdge(Src, Dst, Info, &Cycle) == HbGraph::AddEdgeResult::Cycle)
    reportCycle(Cycle, TS);
}

void Velodrome::onEvent(const Event &E) {
  countEvent();
  switch (E.Kind) {
  case Op::Begin:
    onBegin(E);
    break;
  case Op::End:
    onEnd(E);
    break;
  case Op::Acquire:
    onAcquire(E);
    break;
  case Op::Release:
    onRelease(E);
    break;
  case Op::Read:
    onRead(E);
    break;
  case Op::Write:
    onWrite(E);
    break;
  case Op::Fork:
    onFork(E);
    break;
  case Op::Join:
    onJoin(E);
    break;
  }
}

void Velodrome::onBegin(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  if (!TS.InTxn) {
    // [INS2 ENTER]: fresh node; program-order edge from L(t).
    Step S = Graph.allocNode(E.Thread, E.label(), /*Active=*/true);
    if (S.isBottom()) {
      // GraphFull: the transaction cannot be tracked. Leave the thread
      // outside any transaction (its End will no-op harmlessly); the
      // verdict is degraded, surfaced via graphExhausted().
      return;
    }
    TS.CurNode = S.slot();
    TS.InTxn = true;
    TS.Stack.push_back({E.label(), S.stamp()});
    Graph.addEdge(TS.Last, S, {Op::Begin, E.label(), E.Thread}, nullptr);
    TS.Last = S;
    return;
  }
  // [INS2 RE-ENTER]: nested block within the open transaction.
  Step S = tickInside(TS);
  TS.Stack.push_back({E.label(), S.stamp()});
  TS.Last = S;
}

void Velodrome::onEnd(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  // Ill-formed input is the sanitizer's to reject; if an unmatched end
  // slips through anyway, tolerate it rather than corrupting the graph
  // (release builds compile the old assert out entirely).
  if (!TS.InTxn || TS.Stack.empty())
    return;
  Step S = tickInside(TS);
  TS.Last = S;
  TS.Stack.pop_back();
  if (TS.Stack.empty()) {
    TS.InTxn = false;
    Graph.finishNode(TS.CurNode);
  }
}

void Velodrome::onAcquire(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  EdgeInfo Info{Op::Acquire, E.lock(), E.Thread};
  Step &U = LastUnlock[E.lock()];
  if (TS.InTxn) {
    // [INS2 INSIDE ACQUIRE]: edge from the last unlock.
    Step S = tickInside(TS);
    addEdgeChecked(U, S, Info, TS);
    TS.Last = S;
    return;
  }
  Sources.assign({TS.Last, U});
  TS.Last = outside(E.Thread, Info);
}

void Velodrome::onRelease(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  EdgeInfo Info{Op::Release, E.lock(), E.Thread};
  if (TS.InTxn) {
    Step S = tickInside(TS);
    LastUnlock[E.lock()] = S;
    TS.Last = S;
    return;
  }
  if (Opts.UseMerge) {
    // [INS2 OUTSIDE RELEASE]: s = L(t)+1 — the release's only predecessor
    // is program order, so it merges into the thread's previous node (or
    // vanishes if that node was already collected).
    Step S = unaryProgramStep(TS, E.Thread, Info);
    LastUnlock[E.lock()] = S;
    TS.Last = S;
    return;
  }
  Sources.assign({TS.Last});
  Step S = naiveUnary(E.Thread, Info);
  LastUnlock[E.lock()] = S;
  TS.Last = S;
}

void Velodrome::onRead(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  EdgeInfo Info{Op::Read, E.var(), E.Thread};
  VarState &V = Vars[E.var()];
  Step &W = V.W;
  std::vector<Step> &Reads = V.R;
  if (Reads.size() <= E.Thread)
    Reads.resize(E.Thread + 1);

  if (TS.InTxn) {
    // [INS2 INSIDE READ]: edge from the last write.
    Step S = tickInside(TS);
    addEdgeChecked(W, S, Info, TS);
    Reads[E.Thread] = S;
    TS.Last = S;
    return;
  }
  Sources.assign({TS.Last, W});
  Step S = outside(E.Thread, Info);
  Reads[E.Thread] = S;
  TS.Last = S;
}

void Velodrome::onWrite(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  EdgeInfo Info{Op::Write, E.var(), E.Thread};
  VarState &V = Vars[E.var()];
  Step &W = V.W;
  std::vector<Step> &Reads = V.R;

  if (TS.InTxn) {
    // [INS2 INSIDE WRITE]: edges from the last write and all last reads.
    Step S = tickInside(TS);
    addEdgeChecked(W, S, Info, TS);
    for (Step R : Reads)
      addEdgeChecked(R, S, Info, TS);
    Reads.clear(); // frontier reduction: later conflicts reach them via S
    W = S;
    TS.Last = S;
    return;
  }
  Sources.assign({TS.Last, W});
  Sources.insert(Sources.end(), Reads.begin(), Reads.end());
  Step S = outside(E.Thread, Info);
  Reads.clear();
  W = S;
  TS.Last = S;
}

void Velodrome::onFork(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  // The fork is an operation of the parent; its step becomes the child's
  // initial L(u), so the child's first transaction is ordered after it.
  Step S;
  if (TS.InTxn) {
    S = tickInside(TS);
  } else if (Opts.UseMerge) {
    // Program order only, like outside-release.
    S = unaryProgramStep(TS, E.Thread, {Op::Fork, E.child(), E.Thread});
  } else {
    Sources.assign({TS.Last});
    S = naiveUnary(E.Thread, {Op::Fork, E.child(), E.Thread});
  }
  TS.Last = S;
  // The fork step may come back stale: naiveUnary (and merge) can hand out
  // a node that was collected the moment it was finished, when every source
  // was already dead. Resolve before publishing so the child starts from a
  // live step (or bottom) instead of inheriting a dangling one and paying
  // the resolution on every later edge it draws.
  Threads[E.child()].Last = Graph.resolve(S);
}

void Velodrome::onJoin(const Event &E) {
  ThreadState &TS = Threads[E.Thread];
  ThreadState &Child = Threads[E.child()];
  EdgeInfo Info{Op::Join, E.child(), E.Thread};
  // Same staleness hazard as onFork: the child's final step may have been
  // collected already. Resolve it once here rather than relying on every
  // downstream consumer to do so.
  Step ChildLast = Graph.resolve(Child.Last);
  if (TS.InTxn) {
    Step S = tickInside(TS);
    addEdgeChecked(ChildLast, S, Info, TS);
    TS.Last = S;
    return;
  }
  Sources.assign({TS.Last, ChildLast});
  TS.Last = outside(E.Thread, Info);
}

void Velodrome::endAnalysis() {}

void Velodrome::serialize(SnapshotWriter &W) const {
  serializeBase(W);
  W.boolean(Opts.UseMerge);
  W.boolean(Opts.EmitDot);
  W.u64(Opts.MaxWarnings);
  Graph.serialize(W);

  W.u64(Threads.size());
  Threads.forEach([&](Tid T, const ThreadState &TS) {
    W.u32(T);
    W.u64(TS.Stack.size());
    for (const BlockEntry &B : TS.Stack) {
      W.u32(B.BlockLabel);
      W.u64(B.BeginStamp);
    }
    W.u64(TS.Last.raw());
    W.u32(TS.CurNode);
    W.boolean(TS.InTxn);
  });

  W.u64(LastUnlock.size());
  LastUnlock.forEach([&](LockId M, const Step &S) {
    W.u32(M);
    W.u64(S.raw());
  });
  // Every access touches both W(x) and R(x, *), so the two lists, written
  // separately as they always were, cover the same variables.
  W.u64(Vars.size());
  Vars.forEach([&](VarId X, const VarState &V) {
    W.u32(X);
    W.u64(V.W.raw());
  });
  W.u64(Vars.size());
  Vars.forEach([&](VarId X, const VarState &V) {
    W.u32(X);
    W.u64(V.R.size());
    for (Step S : V.R)
      W.u64(S.raw());
  });

  W.u64(Violations.size());
  for (const AtomicityViolation &V : Violations) {
    W.u32(V.Method);
    W.u32(V.Thread);
    W.boolean(V.BlameResolved);
    W.u64(V.RefutedBlocks.size());
    for (Label L : V.RefutedBlocks)
      W.u32(L);
    W.u64(V.CycleLength);
  }
  W.u64(ReportedMethods.size());
  for (Label L : ReportedMethods)
    W.u32(L);
}

bool Velodrome::deserialize(SnapshotReader &R) {
  if (!deserializeBase(R))
    return false;
  Opts.UseMerge = R.boolean();
  Opts.EmitDot = R.boolean();
  Opts.MaxWarnings = R.u64();
  if (!Graph.deserialize(R))
    return false;

  uint64_t NumThreads = R.u64();
  for (uint64_t I = 0; I < NumThreads && !R.failed(); ++I) {
    Tid T = R.u32();
    ThreadState &TS = Threads[T];
    uint64_t Depth = R.u64();
    for (uint64_t J = 0; J < Depth && !R.failed(); ++J) {
      BlockEntry B;
      B.BlockLabel = R.u32();
      B.BeginStamp = R.u64();
      TS.Stack.push_back(B);
    }
    TS.Last = Step::fromRaw(R.u64());
    TS.CurNode = R.u32();
    TS.InTxn = R.boolean();
  }

  uint64_t NumUnlocks = R.u64();
  for (uint64_t I = 0; I < NumUnlocks && !R.failed(); ++I) {
    LockId M = R.u32();
    LastUnlock[M] = Step::fromRaw(R.u64());
  }
  uint64_t NumWrites = R.u64();
  for (uint64_t I = 0; I < NumWrites && !R.failed(); ++I) {
    VarId X = R.u32();
    Vars[X].W = Step::fromRaw(R.u64());
  }
  uint64_t NumReadVars = R.u64();
  for (uint64_t I = 0; I < NumReadVars && !R.failed(); ++I) {
    VarId X = R.u32();
    uint64_t N = R.u64();
    std::vector<Step> &Reads = Vars[X].R;
    for (uint64_t J = 0; J < N && !R.failed(); ++J)
      Reads.push_back(Step::fromRaw(R.u64()));
  }

  uint64_t NumViolations = R.u64();
  for (uint64_t I = 0; I < NumViolations && !R.failed(); ++I) {
    AtomicityViolation V;
    V.Method = R.u32();
    V.Thread = R.u32();
    V.BlameResolved = R.boolean();
    uint64_t NumRefuted = R.u64();
    for (uint64_t J = 0; J < NumRefuted && !R.failed(); ++J)
      V.RefutedBlocks.push_back(R.u32());
    V.CycleLength = R.u64();
    Violations.push_back(std::move(V));
  }
  uint64_t NumReported = R.u64();
  for (uint64_t I = 0; I < NumReported && !R.failed(); ++I)
    ReportedMethods.insert(R.u32());
  return !R.failed();
}

std::string Velodrome::describeEdge(const EdgeInfo &Info) const {
  std::string Out = opName(Info.Kind);
  Out += " ";
  switch (Info.Kind) {
  case Op::Read:
  case Op::Write:
    Out += Symbols ? Symbols->varName(Info.Target)
                   : std::to_string(Info.Target);
    break;
  case Op::Acquire:
  case Op::Release:
    Out += Symbols ? Symbols->lockName(Info.Target)
                   : std::to_string(Info.Target);
    break;
  case Op::Begin:
    Out += Symbols ? Symbols->labelName(Info.Target)
                   : std::to_string(Info.Target);
    break;
  case Op::Fork:
  case Op::Join:
    Out += "T" + std::to_string(Info.Target);
    break;
  case Op::End:
    break;
  }
  return Out;
}

std::string Velodrome::renderDot(const CycleReport &Cycle,
                                 Label Blamed) const {
  DotWriter Dot("atomicity_violation");
  auto NodeName = [](size_t I) { return "txn" + std::to_string(I); };
  for (size_t I = 0; I < Cycle.Entries.size(); ++I) {
    const CycleEntry &Entry = Cycle.Entries[I];
    std::string LabelText = "Thread " + std::to_string(Entry.Owner) + ":\n";
    if (Entry.Root == NoLabel)
      LabelText += "(unary)";
    else
      LabelText += Symbols ? Symbols->labelName(Entry.Root)
                           : std::to_string(Entry.Root);
    std::string Extra;
    if (I == 0 && Entry.Root == Blamed && Blamed != NoLabel)
      Extra = "peripheries=2"; // the blamed transaction, outlined
    Dot.addNode(NodeName(I), LabelText, Extra);
  }
  for (size_t I = 0; I < Cycle.Entries.size(); ++I) {
    size_t Next = (I + 1) % Cycle.Entries.size();
    bool Closing = I + 1 == Cycle.Entries.size();
    Dot.addEdge(NodeName(I), NodeName(Next),
                describeEdge(Cycle.Entries[I].OutEdge.Info), Closing);
  }
  return Dot.str();
}

void Velodrome::reportCycle(const CycleReport &Cycle, ThreadState &TS) {
  assert(!Cycle.Entries.empty());
  const CycleEntry &Blamed = Cycle.Entries.front();

  AtomicityViolation V;
  V.Thread = Blamed.Owner;
  V.CycleLength = Cycle.Entries.size();
  V.BlameResolved = Cycle.Increasing;
  V.Method = Blamed.Root;

  // Refute every open atomic block that contains both the root and target
  // operations of an increasing cycle, i.e. every block that began at or
  // before the root operation's timestamp (Section 4.3; nested blocks that
  // began later stay unrefuted).
  if (Cycle.Increasing) {
    for (const BlockEntry &Block : TS.Stack)
      if (Block.BeginStamp <= Cycle.RootStamp)
        V.RefutedBlocks.push_back(Block.BlockLabel);
    if (!V.RefutedBlocks.empty())
      V.Method = V.RefutedBlocks.front(); // outermost refuted block
  }
  // Either way the blame lands on the transaction's outermost block: its
  // label is the node's root, and it began at the node's first stamp, which
  // is at or below every root stamp. addEdgeChecked relies on this.
  assert(V.Method == Graph.rootOf(Blamed.Node) &&
         "a cycle blames the open transaction's outermost block");

  // Mark the method as seen *before* applying the warning cap: once the cap
  // is hit, later cycles blaming the same method must still be recognized as
  // duplicates, or each one re-enters here and pays for blame resolution and
  // dot rendering again.
  if (!ReportedMethods.insert(V.Method).second)
    return;
  if (ReportManager::capReached(Violations.size(), Opts.MaxWarnings))
    return;
  Violations.push_back(V);

  Warning W;
  W.Analysis = "velodrome";
  W.Category = "atomicity";
  W.Method = V.Method;
  W.RuleId = "VELO-ATOM-001";
  W.Thread = V.Thread;
  W.Ordinal = eventOrdinal();
  std::string MethodName =
      V.Method == NoLabel
          ? std::string("(unattributed)")
          : (Symbols ? Symbols->labelName(V.Method) : std::to_string(V.Method));
  W.Message = "atomicity violation: " + MethodName +
              " is not conflict-serializable (cycle of " +
              std::to_string(V.CycleLength) + " transactions";
  W.Message += Cycle.Increasing ? ", blame resolved)" : ", blame unresolved)";
  for (size_t I = 0; I < Cycle.Entries.size(); ++I) {
    const CycleEntry &Entry = Cycle.Entries[I];
    W.Message += "\n  T" + std::to_string(Entry.Owner) + " ";
    W.Message += Entry.Root == NoLabel
                     ? std::string("(unary)")
                     : (Symbols ? Symbols->labelName(Entry.Root)
                                : std::to_string(Entry.Root));
    W.Message += " --[" + describeEdge(Entry.OutEdge.Info) + "]--> ";
    WarningSite Site;
    Site.Thread = Entry.Owner;
    Site.Method = Entry.Root;
    Site.Note = describeEdge(Entry.OutEdge.Info);
    W.Related.push_back(std::move(Site));
  }
  if (Opts.EmitDot)
    W.Dot = renderDot(Cycle, V.Method);
  report(std::move(W));
}

} // namespace velo
