//===- aero/AeroDrome.h - Linear-time vector-clock checker ------*- C++ -*-===//
//
// A second, independent conflict-serializability verdict: the AeroDrome
// algorithm ("Atomicity Checking in Linear Time using Vector Clocks",
// Mathur & Viswanathan) recast over this repo's event model. Where
// Velodrome maintains an explicit happens-before graph with online cycle
// detection and GC, AeroDrome keeps one vector clock per transaction and
// detects a violation when a transaction acquires a dependency clock that
// already contains the transaction itself (or a recorded successor of it) —
// i.e. when a transaction observes its own clock coming back through a
// conflicting access.
//
// Per-event cost is O(#threads) with no graph traversal, giving the
// linear-time throughput baseline for the evaluation stack. The verdict is
// equivalent to Velodrome's on every trace (tests/DifferentialTest.cpp
// enforces this against Velodrome and the offline oracle); blame assignment
// and dot error graphs remain Velodrome-only — this back-end attributes a
// violation to the transaction that closed the cycle, nothing finer.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_AERO_AERODROME_H
#define VELO_AERO_AERODROME_H

#include "aero/ClockMaps.h"
#include "aero/SuccessorClock.h"
#include "analysis/Backend.h"

#include <set>

namespace velo {

/// Configuration for the vector-clock back-end.
struct AeroDromeOptions {
  /// Stop recording warnings after this many distinct blamed methods
  /// (detection — sawViolation() — is unaffected, as with Velodrome).
  size_t MaxWarnings = 1000;
};

/// One detected violation: the transaction that observed its own clock.
struct AeroViolation {
  Tid Thread = 0;       ///< thread whose open transaction closed the cycle
  Label Method = NoLabel; ///< its outermost atomic block, NoLabel if unary
  Tid Witness = 0;      ///< thread whose clock component proved the cycle
  Op Kind = Op::Read;   ///< the conflicting operation that closed it
  uint32_t Target = 0;  ///< variable/lock/thread id of that operation
};

/// The linear-time vector-clock atomicity checker.
class AeroDrome : public Backend {
public:
  explicit AeroDrome(AeroDromeOptions Opts = {}) : Opts(Opts) {}

  const char *name() const override { return "AeroDrome"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;

  bool sawViolation() const override { return Saw; }

  /// Structured violations (parallel to the generic warnings() list, which
  /// is deduplicated by method; this list records every distinct method's
  /// first cycle).
  const std::vector<AeroViolation> &violations() const { return Violations; }

  // --- Statistics for the throughput comparison ---
  uint64_t clockJoins() const { return NumJoins; }
  uint64_t txnsStarted() const { return NumTxns; }
  uint64_t clocksAllocated() const { return NumAllocs; }

  bool supportsSnapshot() const override { return true; }
  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

private:
  struct ThreadState {
    TxnClockRef Cur;       ///< current (or last) transaction clock object
    SuccessorClock Succ;   ///< successors of the *open* transaction
    /// Fork-point transaction of the parent, joined at our first event.
    TxnClockRef PendingParent;
    Label Outer = NoLabel; ///< outermost open atomic-block label
    int Depth = 0;         ///< atomic-block nesting depth
  };

  /// Start a fresh transaction (or unary singleton) for T: freeze the
  /// previous object, carry its clock forward (program order), tick T's
  /// component, reset the successor frontier, and fold in the fork-point
  /// dependency if this is the thread's first transaction.
  void advance(ThreadState &TS, Tid T, const Event &E);

  /// Ensure an operation outside any atomic block runs in its own singleton
  /// transaction; returns true when the caller must freeze it afterwards.
  bool beginUnary(ThreadState &TS, Tid T, const Event &E);

  /// Fold the dependency Ref into T's open transaction, running both cycle
  /// checks (own component, recorded successors) and recording T as a
  /// successor when Ref is still ongoing. E describes the operation, for
  /// the warning message.
  void joinFrom(ThreadState &TS, Tid T, const TxnClockRef &Ref,
                const Event &E);

  void reportViolation(ThreadState &TS, Tid T, Tid Witness, const Event &E);

  void onBegin(const Event &E);
  void onEnd(const Event &E);
  void onAcquire(const Event &E);
  void onRelease(const Event &E);
  void onRead(const Event &E);
  void onWrite(const Event &E);
  void onFork(const Event &E);
  void onJoin(const Event &E);

  AeroDromeOptions Opts;
  IdTable<ThreadState> Threads;
  LockClockMap LastRelease;
  VarClockMap Vars;
  std::vector<AeroViolation> Violations;
  std::set<Label> ReportedMethods;
  bool Saw = false;
  uint64_t NumJoins = 0;
  uint64_t NumTxns = 0;
  uint64_t NumAllocs = 0;
};

} // namespace velo

#endif // VELO_AERO_AERODROME_H
