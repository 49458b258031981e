//===- analysis/Backend.h - Dynamic-analysis back-end interface -*- C++ -*-===//
//
// RoadRunner instruments the target program and forwards one event stream to
// a pluggable analysis back-end. This is the C++ analogue: the monitored
// runtime (src/rt) or the offline replayer feeds Events to any number of
// Backends. Velodrome, the Atomizer, Eraser, the vector-clock race detector,
// and the Empty baseline all implement this interface.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ANALYSIS_BACKEND_H
#define VELO_ANALYSIS_BACKEND_H

#include "analysis/Snapshot.h"
#include "events/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace velo {

/// One coordinate attached to a warning: a participant in the blamed
/// cycle, a witness access, or one edge of a lock-order cycle. Rendered
/// as a SARIF relatedLocation (docs/REPORTING.md).
struct WarningSite {
  Tid Thread = 0;       ///< Thread that performed the operation.
  uint64_t Ordinal = 0; ///< 1-based sanitized-stream event ordinal (0 unknown).
  Label Method = NoLabel; ///< Enclosing atomic block, or NoLabel.
  std::string Note;     ///< Role, e.g. the cycle-edge kind.
};

/// One analysis warning. Warnings are deduplicated by (Category, Method) in
/// the evaluation harness, matching the paper's "distinct warnings" counting.
/// Message stays the single human-readable rendering (and must not change
/// under trace reduction); the structured fields below feed the JSON/SARIF
/// renderers in src/report.
struct Warning {
  std::string Analysis; ///< Back-end that produced it ("velodrome", ...).
  std::string Category; ///< "atomicity", "race", ...
  Label Method;         ///< Blamed atomic block / method label, or NoLabel.
  std::string Message;  ///< Human-readable description.
  std::string Dot;      ///< Optional rendered error graph (dot syntax).
  std::string RuleId;   ///< Stable rule id ("VELO-ATOM-001"); "" = unregistered.
  Tid Thread = 0;       ///< Thread of the triggering event.
  uint64_t Ordinal = 0; ///< Sanitized-stream ordinal of that event (0 unknown).
  std::vector<WarningSite> Related; ///< Cycle edges / witness coordinates.
};

/// Base class for analysis back-ends.
class Backend {
public:
  virtual ~Backend() = default;

  /// Stable short name, used in tables ("Velodrome", "Atomizer", ...).
  virtual const char *name() const = 0;

  /// Called once before any event. Syms outlives the analysis.
  virtual void beginAnalysis(const SymbolTable &Syms) { Symbols = &Syms; }

  /// Repoint name lookups at an equivalent symbol table (same names, same
  /// ids) without touching any analysis state. The parallel pipeline
  /// calls this after beginAnalysis/deserialize to hand each back-end its
  /// worker's private replica, so warnings render names without racing
  /// the reader thread's interning. Wrappers forward to their wrapped
  /// back-ends.
  virtual void rebindSymbols(const SymbolTable &Syms) { Symbols = &Syms; }

  /// Called for every monitored operation, in trace order. Back-ends are
  /// driven single-threaded: the runtime serializes event delivery exactly
  /// as RoadRunner presents a linearized event stream.
  virtual void onEvent(const Event &E) = 0;

  /// Called once after the last event. Back-ends that detect conditions at
  /// trace end (e.g. transactions still open) report here.
  virtual void endAnalysis() {}

  /// True if the most recent event looked like the start of a potential
  /// violation. The adversarial scheduler (Section 5) polls this to decide
  /// which thread to stall; only the Atomizer overrides it.
  virtual bool lastEventSuspicious() const { return false; }

  /// True once the back-end has detected at least one definite violation.
  /// Verdict-producing checkers (Velodrome, BasicVelodrome, AeroDrome)
  /// override this; heuristic back-ends keep the default.
  virtual bool sawViolation() const { return false; }

  /// Can this back-end round-trip its complete analysis state through a
  /// snapshot? Back-ends that return true guarantee that
  /// deserialize(serialize()) restores a state from which continuing the
  /// event stream produces the identical verdict and warning list.
  virtual bool supportsSnapshot() const { return false; }

  /// Append the complete analysis state (including the inherited warning
  /// list and event counter — call serializeBase() first).
  virtual void serialize(SnapshotWriter &W) const { serializeBase(W); }

  /// Restore state written by serialize(). The back-end must already have
  /// had beginAnalysis() called with the (restored) symbol table, so the
  /// Symbols pointer is valid and all containers start empty. Returns
  /// false on decode failure; the back-end is then unusable.
  virtual bool deserialize(SnapshotReader &R) { return deserializeBase(R); }

  const std::vector<Warning> &warnings() const { return Reports; }
  uint64_t eventCount() const { return NumEvents; }

  /// Source coordinate of the next onEvent(): the event's 1-based ordinal
  /// in the sanitized stream — which equals its line number in the
  /// canonical text rendering (velodrome-convert --to=text), and is the
  /// same in sequential, parallel, reduced, and resumed runs. Drivers set
  /// it before each delivery; wrapper back-ends forward it to their
  /// children. 0 means "driver provided none" and warnings then omit the
  /// coordinate.
  void setEventOrdinal(uint64_t O) { CurOrdinal = O; }
  uint64_t eventOrdinal() const { return CurOrdinal; }

  /// Clear warnings and counters so the back-end object can be reused for
  /// another trace (state must be reset by the subclass via beginAnalysis).
  void resetReports() {
    Reports.clear();
    NumEvents = 0;
  }

protected:
  void report(Warning W) { Reports.push_back(std::move(W)); }
  void countEvent() { ++NumEvents; }

  /// Serialize the base-class state (warnings, event counter).
  void serializeBase(SnapshotWriter &W) const;
  bool deserializeBase(SnapshotReader &R);

  const SymbolTable *Symbols = nullptr;

private:
  std::vector<Warning> Reports;
  uint64_t NumEvents = 0;
  uint64_t CurOrdinal = 0;
};

/// Feed a recorded trace through a back-end (begin, all events, end).
void replay(const Trace &T, Backend &B);

/// Feed a recorded trace through several back-ends in lockstep.
void replayAll(const Trace &T, const std::vector<Backend *> &Backends);

/// Deduplicate warnings by (Category, Method), preserving first occurrence
/// order — the unit the paper's Table 2 counts ("distinct warnings").
std::vector<Warning> dedupeByMethod(const std::vector<Warning> &Ws);

} // namespace velo

#endif // VELO_ANALYSIS_BACKEND_H
