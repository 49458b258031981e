//===- hbrace/HbRaceDetector.h - Vector-clock race detector -----*- C++ -*-===//
//
// A complete (precise) happens-before race detector in the DJIT+ style:
// full vector clocks per thread, lock, and variable (separate read and
// write clocks). Unlike Eraser, it understands fork/join and any
// release/acquire pattern, so it reports a race iff the observed trace
// contains two concurrent conflicting accesses.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_HBRACE_HBRACEDETECTOR_H
#define VELO_HBRACE_HBRACEDETECTOR_H

#include "analysis/Backend.h"
#include "hbrace/VectorClock.h"
#include "support/IdTable.h"

#include <set>

namespace velo {

/// Precise happens-before race detector.
class HbRaceDetector : public Backend {
public:
  const char *name() const override { return "HB"; }

  void beginAnalysis(const SymbolTable &Syms) override;
  void onEvent(const Event &E) override;

  /// Variables with at least one detected race.
  const std::set<VarId> &racyVars() const { return RacyVars; }

  bool supportsSnapshot() const override { return true; }
  void serialize(SnapshotWriter &W) const override;
  bool deserialize(SnapshotReader &R) override;

private:
  struct VarClocks {
    VectorClock Reads;
    VectorClock Writes;
  };

  VectorClock &threadClock(Tid T);
  void reportRace(const Event &E, Tid Witness, const char *PriorKind);

  IdTable<VectorClock> ThreadClocks;
  IdTable<VectorClock> LockClocks;
  IdTable<VarClocks> Vars;
  std::set<VarId> RacyVars;
};

} // namespace velo

#endif // VELO_HBRACE_HBRACEDETECTOR_H
