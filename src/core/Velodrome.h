//===- core/Velodrome.h - Sound & complete atomicity checker ----*- C++ -*-===//
//
// The paper's contribution: an online dynamic analysis that reports an error
// iff the observed trace is not conflict-serializable. This class implements
// the optimized instrumentation relation of Figure 4:
//
//   - per-thread transaction stacks C(t) of (label, timestamp) entries for
//     nested atomic blocks;
//   - last-step maps L (per thread), U (per lock), W (per variable), and R
//     (per variable x thread);
//   - the happens-before graph on transaction nodes with reference-counting
//     GC and at most one timestamped edge per node pair (HbGraph);
//   - merge-based handling of operations outside any atomic block (the
//     UseMerge option switches to the naive [INS OUTSIDE] rule, which
//     allocates one node per non-transactional operation — the "Without
//     Merge" configuration of Table 1);
//   - blame assignment via increasing cycles (Section 4.3) and dot error
//     graphs (Section 5).
//
// Fork/join events are handled as thread-ordering happens-before edges: the
// fork point becomes the child's initial last-step L(u), and join draws an
// edge from the child's final step (the paper folds these into "thread
// ordering" edges; RoadRunner emits the same events).
//
// One deliberate deviation from the literal Figure 4 text, documented in
// DESIGN.md: merge() only reuses a representative node that is *finished*,
// and R(x,*) entries are cleared when a write to x is recorded (a
// reachability-preserving frontier reduction).
//
//===----------------------------------------------------------------------===//

#ifndef VELO_CORE_VELODROME_H
#define VELO_CORE_VELODROME_H

#include "analysis/Backend.h"
#include "core/HbGraph.h"
#include "support/IdTable.h"

#include <set>
#include <vector>

namespace velo {

/// Configuration for the Velodrome back-end.
struct VelodromeOptions {
  /// Use the merge-based rules for non-transactional operations (Figure 4).
  /// When false, every such operation allocates its own unary node (the
  /// naive [INS OUTSIDE] rule) — GC stays on either way.
  bool UseMerge = true;
  /// Render a dot error graph for each distinct warning.
  bool EmitDot = true;
  /// Stop recording warnings after this many distinct blamed methods.
  size_t MaxWarnings = 1000;
};

/// One decoded atomicity violation (also surfaced as a generic Warning).
struct AtomicityViolation {
  Label Method = NoLabel;      ///< blamed outermost atomic block
  Tid Thread = 0;              ///< thread executing the blamed transaction
  bool BlameResolved = false;  ///< increasing cycle => provably not
                               ///< self-serializable
  std::vector<Label> RefutedBlocks; ///< all refuted blocks, outermost first
  size_t CycleLength = 0;      ///< number of transactions on the cycle
};

/// The sound and complete dynamic atomicity checker.
class Velodrome : public Backend {
public:
  explicit Velodrome(VelodromeOptions Opts = {}) : Opts(Opts) {}

  const char *name() const override { return "Velodrome"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;
  void endAnalysis() override;

  /// Structured violations (parallel to the generic warnings() list).
  const std::vector<AtomicityViolation> &violations() const {
    return Violations;
  }

  /// Graph statistics for Table 1 (Allocated / Max. Alive).
  const HbGraph &graph() const { return Graph; }

  /// Did the observed trace contain any non-serializable cycle?
  bool sawViolation() const override { return !Violations.empty(); }

  /// Has the graph run out of node slots? Once true the analysis can no
  /// longer certify serializability (operations go untracked); the
  /// governor surfaces this as degradation / an Unknown verdict.
  bool graphExhausted() const { return Graph.graphFull(); }

  bool supportsSnapshot() const override { return true; }
  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

private:
  struct BlockEntry {
    Label BlockLabel;
    uint64_t BeginStamp;
  };

  struct ThreadState {
    std::vector<BlockEntry> Stack; ///< C(t): open atomic blocks
    Step Last;                     ///< L(t)
    NodeId CurNode = 0;            ///< node while Stack is non-empty
    bool InTxn = false;
  };

  /// W(x) and R(x, *): the last write, and the last read of each thread
  /// since it (index = tid). One entry, so an access does one lookup.
  struct VarState {
    Step W;
    std::vector<Step> R;
  };

  /// Next stamp in the current transaction node of T (L(t)+1 inside).
  Step tickInside(ThreadState &TS);

  /// The paper's outside-transaction "s = L(t)+1", restricted to finished
  /// predecessor nodes (fresh node when the predecessor is still open).
  Step unaryProgramStep(ThreadState &TS, Tid T, const EdgeInfo &Info);

  /// Naive [INS OUTSIDE]: wrap one operation in its own unary transaction
  /// node with edges from Sources; returns the node's (only) step.
  Step naiveUnary(Tid T, const EdgeInfo &Info);

  /// An operation outside any transaction whose predecessors are in
  /// Sources: merge (Figure 4), or naiveUnary without UseMerge.
  Step outside(Tid T, const EdgeInfo &Info);

  /// Add Src -> Dst, reporting a violation if it would close a cycle.
  void addEdgeChecked(Step Src, Step Dst, const EdgeInfo &Info,
                      ThreadState &TS);

  void reportCycle(const CycleReport &Cycle, ThreadState &TS);
  std::string describeEdge(const EdgeInfo &Info) const;
  std::string renderDot(const CycleReport &Cycle, Label Blamed) const;

  void onBegin(const Event &E);
  void onEnd(const Event &E);
  void onAcquire(const Event &E);
  void onRelease(const Event &E);
  void onRead(const Event &E);
  void onWrite(const Event &E);
  void onFork(const Event &E);
  void onJoin(const Event &E);

  VelodromeOptions Opts;
  HbGraph Graph;
  IdTable<ThreadState> Threads;
  IdTable<Step> LastUnlock; ///< U
  IdTable<VarState> Vars;   ///< W and R
  std::vector<AtomicityViolation> Violations;
  std::set<Label> ReportedMethods;
  /// Scratch: predecessors of the current outside-transaction operation,
  /// reused so unary operations do not allocate.
  std::vector<Step> Sources;
};

} // namespace velo

#endif // VELO_CORE_VELODROME_H
