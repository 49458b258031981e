//===- tests/HbGraphPropertyTest.cpp - HbGraph against a naive model ------===//
//
// Seeded random allocNode / addEdge / finishNode / merge sequences, checked
// after every operation against a brute-force model: an adjacency map per
// live slot, reference-counting GC recomputed from scratch, and BFS
// reachability. The graph's ancestor bitsets must agree with BFS on every
// live pair, each addEdge must return the model's result, and every cycle
// report must be a real path of the model graph closed by the rejected
// edge. The graph's running byte count must equal a recount, and snapshot
// round-trips at random points must reproduce the graph byte for byte.
//
// Each run also grows the graph past 4096 slot ids once (a burst of
// isolated open nodes, then a random drain), so later nodes land on
// recycled high slots and ancestor sets span several 64-bit words.
//
//===----------------------------------------------------------------------===//

#include "core/HbGraph.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace velo {
namespace {

struct ModelEdge {
  uint64_t Tail = 0, Head = 0;
  EdgeInfo Info;
};

struct ModelNode {
  bool Live = false;
  bool Active = false;
  Tid Owner = 0;
  Label Root = NoLabel;
  uint64_t FirstStamp = 0; ///< first stamp of the current incarnation
  Step Latest;             ///< latest step issued in the incarnation
  std::map<NodeId, ModelEdge> Out;
};

class Harness {
public:
  explicit Harness(uint64_t Seed) : R(Seed) {}

  void run(size_t Ops) {
    for (size_t I = 0; I < Ops && !::testing::Test::HasFailure(); ++I) {
      if (I == Ops / 3)
        burstPastWordBoundaries();
      step();
      if (R.chance(1, 64))
        roundTrip();
    }
  }

  size_t MaxLive = 0;
  NodeId MaxSlot = 0;
  size_t Cycles = 0, Merges = 0, FreshMerges = 0, Recycled = 0;

private:
  // --- model ---

  size_t liveCount() const {
    size_t N = 0;
    for (const ModelNode &M : Model)
      N += M.Live;
    return N;
  }

  std::vector<NodeId> liveSlots() const {
    std::vector<NodeId> Out;
    for (NodeId S = 0; S < Model.size(); ++S)
      if (Model[S].Live)
        Out.push_back(S);
    return Out;
  }

  /// BFS over live edges: does a path From =>* To exist (From == To counts)?
  bool reaches(NodeId From, NodeId To) const {
    std::vector<char> Seen(Model.size(), 0);
    std::vector<NodeId> Queue{From};
    Seen[From] = 1;
    for (size_t I = 0; I < Queue.size(); ++I) {
      if (Queue[I] == To)
        return true;
      for (const auto &KV : Model[Queue[I]].Out)
        if (!Seen[KV.first]) {
          Seen[KV.first] = 1;
          Queue.push_back(KV.first);
        }
    }
    return false;
  }

  bool stepLive(Step S) const {
    if (S.isBottom())
      return false;
    const ModelNode &M = Model[S.slot()];
    return M.Live && S.stamp() >= M.FirstStamp;
  }

  /// Collect every finished node with no incoming live edge, cascading.
  void modelCollect() {
    for (bool Changed = true; Changed;) {
      Changed = false;
      std::vector<size_t> In(Model.size(), 0);
      for (const ModelNode &M : Model)
        if (M.Live)
          for (const auto &KV : M.Out)
            ++In[KV.first];
      for (NodeId S = 0; S < Model.size(); ++S) {
        ModelNode &M = Model[S];
        if (M.Live && !M.Active && In[S] == 0) {
          M.Live = false;
          M.Out.clear();
          Stale.push_back(M.Latest);
          Changed = true;
        }
      }
    }
  }

  void noteAlloc(Step S, bool Active, Tid Owner, Label Root) {
    ASSERT_FALSE(S.isBottom());
    NodeId Slot = S.slot();
    if (Slot >= Model.size())
      Model.resize(Slot + 1);
    else
      ++Recycled;
    ModelNode &M = Model[Slot];
    ASSERT_FALSE(M.Live) << "graph handed out a live slot " << Slot;
    M = ModelNode();
    M.Live = true;
    M.Active = Active;
    M.Owner = Owner;
    M.Root = Root;
    M.FirstStamp = S.stamp();
    M.Latest = S;
    MaxSlot = std::max(MaxSlot, Slot);
    MaxLive = std::max(MaxLive, liveCount());
  }

  // --- operations ---

  /// A source step: usually the latest step of a live node, sometimes a
  /// stale step of a collected incarnation, sometimes bottom.
  Step pickSource() {
    uint64_t Roll = R.below(10);
    if (Roll == 0)
      return Step::bottom();
    if (Roll == 1 && !Stale.empty())
      return R.pick(Stale);
    std::vector<NodeId> Live = liveSlots();
    if (Live.empty())
      return Step::bottom();
    return Model[R.pick(Live)].Latest;
  }

  EdgeInfo randomInfo() {
    return {static_cast<Op>(R.below(8)), static_cast<uint32_t>(R.below(16)),
            static_cast<Tid>(R.below(8))};
  }

  void opAlloc() {
    Tid Owner = static_cast<Tid>(R.below(8));
    Label Root = static_cast<Label>(R.below(16));
    noteAlloc(G.allocNode(Owner, Root, /*Active=*/true), true, Owner, Root);
  }

  void opFinish() {
    std::vector<NodeId> Active;
    for (NodeId S : liveSlots())
      if (Model[S].Active)
        Active.push_back(S);
    if (Active.empty())
      return opAlloc();
    NodeId S = R.pick(Active);
    G.finishNode(S);
    Model[S].Active = false;
    modelCollect();
  }

  void opEdge() {
    std::vector<NodeId> Live = liveSlots();
    if (Live.empty())
      return opAlloc();
    Step From = pickSource();
    NodeId T = R.pick(Live);
    Step To = G.tick(Model[T].Latest);
    ASSERT_FALSE(To.isBottom());
    Model[T].Latest = To;
    EdgeInfo Info = randomInfo();

    CycleReport Report;
    HbGraph::AddEdgeResult Got = G.addEdge(From, To, Info, &Report);
    if (!stepLive(From) || From.slot() == T) {
      EXPECT_EQ(Got, HbGraph::AddEdgeResult::Skipped);
      return;
    }
    NodeId F = From.slot();
    if (reaches(T, F)) {
      ASSERT_EQ(Got, HbGraph::AddEdgeResult::Cycle);
      ++Cycles;
      checkCycleReport(Report, F, From, T, To, Info);
      return;
    }
    ASSERT_EQ(Got, HbGraph::AddEdgeResult::Added);
    Model[F].Out[T] = {From.stamp(), To.stamp(), Info};
  }

  void opMerge() {
    std::vector<Step> Inputs;
    for (uint64_t I = 0, N = 1 + R.below(4); I < N; ++I)
      Inputs.push_back(pickSource());
    Tid Owner = static_cast<Tid>(R.below(8));
    EdgeInfo Info = randomInfo();
    Step Got = G.merge(Inputs, Owner, Info);

    // The model's Figure 4 merge: live inputs deduplicated by slot (latest
    // stamp kept), then the first finished input every other one reaches,
    // else a fresh finished node fed by every live input.
    std::vector<Step> Live;
    for (Step S : Inputs) {
      if (!stepLive(S))
        continue;
      bool Dup = false;
      for (Step &E : Live)
        if (E.slot() == S.slot()) {
          if (S.stamp() > E.stamp())
            E = S;
          Dup = true;
        }
      if (!Dup)
        Live.push_back(S);
    }
    if (Live.empty()) {
      EXPECT_TRUE(Got.isBottom());
      return;
    }
    for (Step Cand : Live) {
      if (Model[Cand.slot()].Active)
        continue;
      bool Dominates = true;
      for (Step Other : Live)
        Dominates = Dominates && reaches(Other.slot(), Cand.slot());
      if (Dominates) {
        EXPECT_EQ(Got, Cand) << "merge must reuse the dominating input";
        ++Merges;
        return;
      }
    }
    ++FreshMerges;
    noteAlloc(Got, /*Active=*/false, Owner, NoLabel);
    for (Step S : Live)
      Model[S.slot()].Out[Got.slot()] = {S.stamp(), Got.stamp(), Info};
  }

  void step() {
    size_t Live = liveCount();
    uint64_t Roll = R.below(100);
    // Keep the live graph between 64 and ~160 nodes most of the time.
    if (Live < 72 && Roll < 40)
      opAlloc();
    else if (Live > 150 && Roll < 40)
      opFinish();
    else if (Roll < 15)
      opAlloc();
    else if (Roll < 30)
      opFinish();
    else if (Roll < 85)
      opEdge();
    else
      opMerge();
    checkAll();
  }

  /// Push slot ids past 4096: a burst of isolated open nodes, then finish
  /// most of them in random order so the free list hands out scattered
  /// high slots from then on. Each operation is checked on the nodes it
  /// touches (isolated nodes change no other pair).
  void burstPastWordBoundaries() {
    std::vector<NodeId> Burst;
    while (MaxSlot < 4200 && !::testing::Test::HasFailure()) {
      Step S = G.allocNode(1, 1, /*Active=*/true);
      noteAlloc(S, true, 1, 1);
      Burst.push_back(S.slot());
      ASSERT_TRUE(G.happensBeforeEq(S.slot(), S.slot()));
      ASSERT_EQ(G.nodesAlive(), liveCount());
    }
    roundTrip();
    R.shuffle(Burst);
    Burst.resize(Burst.size() - 40); // 40 burst nodes stay open
    for (NodeId S : Burst) {
      Step Last = Model[S].Latest;
      G.finishNode(S);
      Model[S].Active = false;
      modelCollect();
      ASSERT_FALSE(G.isLive(Last)) << "isolated finished node not collected";
      ASSERT_EQ(G.nodesAlive(), liveCount());
    }
    checkAll();
  }

  void checkCycleReport(const CycleReport &Rep, NodeId F, Step From,
                        NodeId T, Step To, const EdgeInfo &Info) {
    ASSERT_GE(Rep.Entries.size(), 2u);
    EXPECT_EQ(Rep.Entries.front().Node, T) << "cycle must start at the head";
    EXPECT_EQ(Rep.Entries.back().Node, F) << "cycle must end at the tail";
    std::vector<char> Seen(Model.size(), 0);
    for (size_t I = 0; I < Rep.Entries.size(); ++I) {
      const CycleEntry &E = Rep.Entries[I];
      ASSERT_LT(E.Node, Model.size());
      const ModelNode &M = Model[E.Node];
      ASSERT_TRUE(M.Live) << "cycle through a dead slot " << E.Node;
      EXPECT_FALSE(Seen[E.Node]) << "cycle repeats slot " << E.Node;
      Seen[E.Node] = 1;
      EXPECT_EQ(E.Owner, M.Owner);
      EXPECT_EQ(E.Root, M.Root);
      if (I + 1 == Rep.Entries.size()) { // the rejected closing edge
        EXPECT_EQ(E.OutEdge.Dst, T);
        EXPECT_EQ(E.OutEdge.TailStamp, From.stamp());
        EXPECT_EQ(E.OutEdge.HeadStamp, To.stamp());
        EXPECT_EQ(E.OutEdge.Info.Kind, Info.Kind);
        continue;
      }
      NodeId Next = Rep.Entries[I + 1].Node;
      EXPECT_EQ(E.OutEdge.Dst, Next);
      auto It = M.Out.find(Next);
      ASSERT_NE(It, M.Out.end())
          << "report uses a missing edge " << E.Node << " -> " << Next;
      EXPECT_EQ(E.OutEdge.TailStamp, It->second.Tail);
      EXPECT_EQ(E.OutEdge.HeadStamp, It->second.Head);
      EXPECT_EQ(E.OutEdge.Info.Kind, It->second.Info.Kind);
      EXPECT_EQ(E.OutEdge.Info.Target, It->second.Info.Target);
    }
    bool Increasing = true;
    for (size_t I = 1; I < Rep.Entries.size(); ++I)
      Increasing = Increasing && Rep.Entries[I - 1].OutEdge.HeadStamp <=
                                     Rep.Entries[I].OutEdge.TailStamp;
    EXPECT_EQ(Rep.Increasing, Increasing);
    EXPECT_EQ(Rep.RootStamp, Rep.Entries.front().OutEdge.TailStamp);
    EXPECT_EQ(Rep.TargetStamp, To.stamp());
  }

  void checkAll() {
    std::vector<NodeId> Live = liveSlots();
    ASSERT_EQ(G.nodesAlive(), Live.size());
    for (NodeId S = 0; S < Model.size(); ++S) {
      const ModelNode &M = Model[S];
      if (M.Latest.isBottom())
        continue;
      ASSERT_EQ(G.isLive(M.Latest), M.Live) << "slot " << S;
      if (!M.Live)
        continue;
      EXPECT_EQ(G.isActive(S), M.Active) << "slot " << S;
      EXPECT_EQ(G.ownerOf(S), M.Owner) << "slot " << S;
      EXPECT_EQ(G.rootOf(S), M.Root) << "slot " << S;
    }
    for (Step S : Stale)
      ASSERT_FALSE(G.isLive(S)) << "stale step came back to life";
    ASSERT_EQ(G.memoryBytes(), G.countMemoryBytes())
        << "incremental byte count drifted from a recount";
    for (NodeId A : Live) {
      std::vector<char> Reach(Model.size(), 0);
      std::vector<NodeId> Queue{A};
      Reach[A] = 1;
      for (size_t I = 0; I < Queue.size(); ++I)
        for (const auto &KV : Model[Queue[I]].Out)
          if (!Reach[KV.first]) {
            Reach[KV.first] = 1;
            Queue.push_back(KV.first);
          }
      for (NodeId B : Live)
        ASSERT_EQ(G.happensBeforeEq(A, B), Reach[B] != 0)
            << "happensBeforeEq(" << A << ", " << B << ")";
    }
  }

  void roundTrip() {
    SnapshotWriter W;
    G.serialize(W);
    HbGraph Restored;
    SnapshotReader Rd(W.payload());
    ASSERT_TRUE(Restored.deserialize(Rd));
    SnapshotWriter Again;
    Restored.serialize(Again);
    ASSERT_EQ(W.payload(), Again.payload()) << "snapshot round-trip drifted";
    G = std::move(Restored);
  }

  Rng R;
  HbGraph G;
  std::vector<ModelNode> Model; ///< indexed by slot
  std::vector<Step> Stale;      ///< last steps of collected incarnations
};

TEST(HbGraphProperty, MatchesBruteForceModel) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Harness H(Seed);
    H.run(1500);
    ASSERT_FALSE(::testing::Test::HasFailure());
    // The run must have covered what the bitsets make delicate.
    EXPECT_GT(H.MaxLive, 64u);
    EXPECT_GT(H.MaxSlot, 4096u);
    EXPECT_GT(H.Recycled, 0u);
    EXPECT_GT(H.Cycles, 0u);
    EXPECT_GT(H.Merges + H.FreshMerges, 0u);
  }
}

} // namespace
} // namespace velo
