//===- core/HbGraph.cpp - Transactional happens-before graph --------------===//

#include "core/HbGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace velo {

Step HbGraph::freshStamp(NodeId Slot) {
  Node &N = Slots[Slot];
  assert(N.InUse && "stamp requested on a free slot");
  return Step::make(Slot, ++N.CurStamp);
}

Step HbGraph::allocNode(Tid Owner, Label Root, bool Active) {
  NodeId Slot;
  if (!FreeList.empty()) {
    Slot = FreeList.back();
    FreeList.pop_back();
  } else {
    if (Slots.size() >= Step::MaxSlots) {
      // The GC keeps at most a few dozen nodes live (Table 1) on typical
      // workloads, but an adversarial schedule (e.g. one open transaction
      // observed by tens of thousands of threads) can pin every slot.
      // Surface that as a recoverable GraphFull condition: the caller sees
      // bottom and degrades (governor fallback / Unknown verdict) instead
      // of the process dying.
      if (!Full)
        std::fprintf(stderr, "velodrome: node slot space exhausted; "
                             "graph analysis degraded\n");
      Full = true;
      return Step::bottom();
    }
    Slot = static_cast<NodeId>(Slots.size());
    Slots.emplace_back();
    VisitMark.push_back(0);
    MemBytes += sizeof(Node);
  }
  Node &N = Slots[Slot];
  assert(!N.InUse && "allocating an in-use slot");
  N.InUse = true;
  N.Active = Active;
  N.RefCount = Active ? 1 : 0; // the C-stack reference while open
  N.Owner = Owner;
  N.Root = Root;
  assert(N.Out.empty() && N.Ancestors.empty() && "slot not cleaned");

  ++NumAllocated;
  Alive.inc();
  return freshStamp(Slot);
}

Step HbGraph::tick(Step S) {
  if (S.isBottom() || !isLive(S))
    return Step::bottom();
  return freshStamp(S.slot());
}

bool HbGraph::isLive(Step S) const {
  if (S.isBottom())
    return false;
  NodeId Slot = S.slot();
  assert(Slot < Slots.size() && "step references an unknown slot");
  // Timestamps within a slot are monotone across recycling, so a stamp at or
  // below the collection watermark belongs to a collected incarnation.
  return S.stamp() > Slots[Slot].StaleAtOrBelow;
}

bool HbGraph::happensBeforeEq(NodeId A, NodeId B) const {
  return A == B || Slots[B].Ancestors.contains(A);
}

void HbGraph::beginVisit() {
  if (++VisitEpoch == 0) { // wrapped: old marks could alias the new epoch
    std::fill(VisitMark.begin(), VisitMark.end(), 0);
    VisitEpoch = 1;
  }
}

bool HbGraph::visit(NodeId Slot) {
  if (VisitMark[Slot] == VisitEpoch)
    return false;
  VisitMark[Slot] = VisitEpoch;
  return true;
}

void HbGraph::buildCycleReport(NodeId From, NodeId To, const HbEdge &Closing,
                               CycleReport &Out) {
  // Find a path From => To in the acyclic live graph by DFS; the closing
  // edge To -> From (already rejected) completes the cycle.
  std::vector<Frame> &Stack = PathStack;
  Stack.clear();
  beginVisit();
  Stack.push_back({From, 0});
  visit(From);
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.Node == To)
      break;
    const Node &N = Slots[F.Node];
    if (F.NextEdge >= N.Out.size()) {
      Stack.pop_back();
      continue;
    }
    const HbEdge &E = N.Out[F.NextEdge++];
    // Only traverse toward nodes that can reach To (ancestor pruning keeps
    // this linear in the cycle length for typical graphs).
    if ((E.Dst == To || Slots[To].Ancestors.contains(E.Dst)) &&
        visit(E.Dst))
      Stack.push_back({E.Dst, 0});
  }
  assert(!Stack.empty() && "cycle path must exist when ancestors say so");

  Out.Entries.clear();
  for (size_t I = 0; I < Stack.size(); ++I) {
    const Node &N = Slots[Stack[I].Node];
    CycleEntry Entry;
    Entry.Node = Stack[I].Node;
    Entry.Owner = N.Owner;
    Entry.Root = N.Root;
    // The edge leaving this node: for interior nodes it is the path edge
    // just taken (NextEdge - 1); for the last node it is the closing edge.
    if (I + 1 < Stack.size())
      Entry.OutEdge = N.Out[Stack[I].NextEdge - 1];
    else
      Entry.OutEdge = Closing;
    Out.Entries.push_back(Entry);
  }

  // Increasing-cycle test (Section 4.3): at every node except the blamed
  // first one, the incoming timestamp must be <= the outgoing timestamp.
  Out.Increasing = true;
  for (size_t I = 1; I < Out.Entries.size(); ++I) {
    uint64_t InStamp = Out.Entries[I - 1].OutEdge.HeadStamp;
    uint64_t OutStamp = Out.Entries[I].OutEdge.TailStamp;
    if (InStamp > OutStamp) {
      Out.Increasing = false;
      break;
    }
  }
  Out.RootStamp = Out.Entries.front().OutEdge.TailStamp;
  Out.TargetStamp = Closing.HeadStamp;
}

HbGraph::AddEdgeResult HbGraph::addEdge(Step From, Step To,
                                        const EdgeInfo &Info,
                                        CycleReport *CycleOut) {
  From = resolve(From);
  if (From.isBottom())
    return AddEdgeResult::Skipped;
  assert(isLive(To) && "edge head must be a live step");

  NodeId A = From.slot(), B = To.slot();
  if (A == B)
    return AddEdgeResult::Skipped; // intra-transaction; filtered by (+)

  // The edge A -> B closes a cycle iff B already reaches A.
  if (Slots[A].Ancestors.contains(B)) {
    if (CycleOut) {
      HbEdge Closing;
      Closing.Dst = B;
      Closing.TailStamp = From.stamp();
      Closing.HeadStamp = To.stamp();
      Closing.Info = Info;
      buildCycleReport(B, A, Closing, *CycleOut);
    }
    return AddEdgeResult::Cycle;
  }

  // At most one edge per node pair: refresh stamps on re-addition.
  for (HbEdge &E : Slots[A].Out) {
    if (E.Dst == B) {
      E.TailStamp = From.stamp();
      E.HeadStamp = To.stamp();
      E.Info = Info;
      return AddEdgeResult::Added;
    }
  }

  HbEdge E;
  E.Dst = B;
  E.TailStamp = From.stamp();
  E.HeadStamp = To.stamp();
  E.Info = Info;
  std::vector<HbEdge> &Out = Slots[A].Out;
  size_t OutCap = Out.capacity();
  Out.push_back(E);
  MemBytes += (Out.capacity() - OutCap) * sizeof(HbEdge);
  ++NumEdges;
  ++Slots[B].RefCount;

  // Propagate ancestors: B and all its descendants gain Ancestors(A)+{A}.
  // Pruning on "did not grow" is sound because ancestor sets are closed
  // (child's set always contains parent's set plus the parent).
  Gain = Slots[A].Ancestors;
  Gain.insert(A);
  Work.clear();
  Work.push_back(B);
  while (!Work.empty()) {
    NodeId X = Work.back();
    Work.pop_back();
    SlotBitset &Anc = Slots[X].Ancestors;
    size_t AncBytes = Anc.heapBytes();
    bool Grew = Anc.unionWith(Gain);
    MemBytes += Anc.heapBytes() - AncBytes;
    if (!Grew)
      continue;
    for (const HbEdge &Succ : Slots[X].Out)
      Work.push_back(Succ.Dst);
  }
  return AddEdgeResult::Added;
}

void HbGraph::finishNode(NodeId Slot) {
  Node &N = Slots[Slot];
  assert(N.InUse && N.Active && "finishing a non-open node");
  N.Active = false;
  assert(N.RefCount > 0 && "open node must hold its own reference");
  if (--N.RefCount == 0)
    collect(Slot);
}

void HbGraph::collect(NodeId Slot) {
  Work.clear();
  Work.push_back(Slot);
  while (!Work.empty()) {
    NodeId S = Work.back();
    Work.pop_back();
    Node &N = Slots[S];
    assert(N.InUse && !N.Active && N.RefCount == 0 && "collecting live node");

    // Remove S from the ancestor sets of everything it reaches. Because S
    // has no incoming edges, no other node's ancestry passes through S, so
    // erasing S itself is the only repair needed.
    beginVisit();
    Dfs.clear();
    for (const HbEdge &E : N.Out)
      Dfs.push_back(E.Dst);
    while (!Dfs.empty()) {
      NodeId X = Dfs.back();
      Dfs.pop_back();
      if (!visit(X))
        continue;
      Slots[X].Ancestors.erase(S);
      for (const HbEdge &E : Slots[X].Out)
        Dfs.push_back(E.Dst);
    }

    // Drop outgoing edges; successors whose last reference this was are
    // collected in cascade.
    for (const HbEdge &E : N.Out) {
      Node &Dst = Slots[E.Dst];
      assert(Dst.RefCount > 0 && "edge refcount underflow");
      if (--Dst.RefCount == 0 && !Dst.Active)
        Work.push_back(E.Dst);
    }

    N.Out.clear();
    N.Ancestors.clear();
    N.StaleAtOrBelow = N.CurStamp; // stale-step watermark
    N.InUse = false;
    FreeList.push_back(S);
    Alive.dec();
  }
}

Step HbGraph::merge(const std::vector<Step> &Inputs, Tid Owner,
                    const EdgeInfo &Info) {
  // Resolve and deduplicate by slot (keeping the latest stamp per slot).
  std::vector<Step> &Live = MergeLive;
  Live.clear();
  for (Step S : Inputs) {
    S = resolve(S);
    if (S.isBottom())
      continue;
    bool Dup = false;
    for (Step &Existing : Live) {
      if (Existing.slot() == S.slot()) {
        if (S.stamp() > Existing.stamp())
          Existing = S;
        Dup = true;
        break;
      }
    }
    if (!Dup)
      Live.push_back(S);
  }

  if (Live.empty())
    return Step::bottom();

  // A representative must be a *finished* node that every other input
  // happens-before-or-equals. (Reusing a still-open transaction node would
  // merge the unary operation into a transaction that can still perform
  // conflicting operations after it, hiding two-node cycles; see DESIGN.md.)
  for (const Step &Cand : Live) {
    if (Slots[Cand.slot()].Active)
      continue;
    bool Dominates = true;
    for (const Step &Other : Live) {
      if (!happensBeforeEq(Other.slot(), Cand.slot())) {
        Dominates = false;
        break;
      }
    }
    if (Dominates) {
      ++NumMerged;
      return Cand;
    }
  }

  // Otherwise: a fresh unary node, born finished, fed by every live input.
  Step Fresh = allocNode(Owner, NoLabel, /*Active=*/false);
  if (Fresh.isBottom()) // GraphFull: no slot for the merge node
    return Step::bottom();
  for (const Step &S : Live) {
    AddEdgeResult R = addEdge(S, Fresh, Info, nullptr);
    (void)R;
    assert(R == AddEdgeResult::Added && "fresh node cannot close a cycle");
  }
  return Fresh;
}

void HbGraph::clear() {
  Slots.clear();
  FreeList.clear();
  VisitMark.clear();
  VisitEpoch = 0;
  MemBytes = 0;
  NumAllocated = NumEdges = NumMerged = 0;
  Alive = HighWater();
  Full = false;
}

void HbGraph::serialize(SnapshotWriter &W) const {
  W.u64(Slots.size());
  for (const Node &N : Slots) {
    W.boolean(N.InUse);
    W.boolean(N.Active);
    W.u32(N.RefCount);
    W.u32(N.Owner);
    W.u32(N.Root);
    W.u64(N.CurStamp);
    W.u64(N.StaleAtOrBelow);
    W.u64(N.Out.size());
    for (const HbEdge &E : N.Out) {
      W.u32(E.Dst);
      W.u64(E.TailStamp);
      W.u64(E.HeadStamp);
      W.u8(static_cast<uint8_t>(E.Info.Kind));
      W.u32(E.Info.Target);
      W.u32(E.Info.Thread);
    }
    W.u64(N.Ancestors.size());
    for (NodeId A : N.Ancestors)
      W.u32(A);
  }
  W.u64(FreeList.size());
  for (NodeId S : FreeList)
    W.u32(S);
  W.u64(NumAllocated);
  W.u64(NumEdges);
  W.u64(NumMerged);
  W.u64(Alive.current());
  W.u64(Alive.peak());
  W.boolean(Full);
}

bool HbGraph::deserialize(SnapshotReader &R) {
  clear();
  uint64_t NumSlots = R.u64();
  if (R.failed() || NumSlots > Step::MaxSlots)
    return false;
  Slots.resize(NumSlots);
  VisitMark.assign(NumSlots, 0);
  for (Node &N : Slots) {
    N.InUse = R.boolean();
    N.Active = R.boolean();
    N.RefCount = R.u32();
    N.Owner = R.u32();
    N.Root = R.u32();
    N.CurStamp = R.u64();
    N.StaleAtOrBelow = R.u64();
    uint64_t NumOut = R.u64();
    if (R.failed())
      return false;
    N.Out.reserve(NumOut);
    for (uint64_t I = 0; I < NumOut && !R.failed(); ++I) {
      HbEdge E;
      E.Dst = R.u32();
      E.TailStamp = R.u64();
      E.HeadStamp = R.u64();
      E.Info.Kind = static_cast<Op>(R.u8());
      E.Info.Target = R.u32();
      E.Info.Thread = R.u32();
      if (E.Dst >= NumSlots)
        return false;
      N.Out.push_back(E);
    }
    uint64_t NumAnc = R.u64();
    if (R.failed())
      return false;
    for (uint64_t I = 0; I < NumAnc && !R.failed(); ++I) {
      NodeId A = R.u32();
      if (A >= NumSlots)
        return false;
      N.Ancestors.insert(A);
    }
  }
  uint64_t NumFree = R.u64();
  if (R.failed() || NumFree > NumSlots)
    return false;
  FreeList.reserve(NumFree);
  for (uint64_t I = 0; I < NumFree && !R.failed(); ++I) {
    NodeId S = R.u32();
    if (S >= NumSlots)
      return false;
    FreeList.push_back(S);
  }
  NumAllocated = R.u64();
  NumEdges = R.u64();
  NumMerged = R.u64();
  uint64_t Cur = R.u64();
  uint64_t Peak = R.u64();
  Alive.restore(Cur, Peak);
  Full = R.boolean();
  MemBytes = countMemoryBytes();
  return !R.failed();
}

uint64_t HbGraph::countMemoryBytes() const {
  uint64_t Bytes = Slots.size() * sizeof(Node);
  for (const Node &N : Slots)
    Bytes += N.Out.capacity() * sizeof(HbEdge) + N.Ancestors.heapBytes();
  return Bytes;
}

} // namespace velo
