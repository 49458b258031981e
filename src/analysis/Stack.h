//===- analysis/Stack.h - The analysis stack every tool uses ----*- C++ -*-===//
//
// In the paper every analysis is a back-end behind RoadRunner's single
// event stream. AnalysisStack is the one place that turns back-end names
// into a governed, reported analysis; velodrome-check (sequential and
// --parallel), serve sessions, velodrome-run and velodrome-fuzz all use it.
//
// The registry (Stack.cpp) has one row per selectable name: its factory,
// whether `all` includes it, its verdict rank, whether it is the fallback
// checker and, for Velodrome, the live-node and slot-exhaustion probes.
// The highest-ranked selected verdict checker is the governed primary; the
// fallback checker (AeroDrome), when selected, is its lockstep vector-clock
// hot spare. `all` is velodrome, aero, atomizer, eraser and hb; the Figure 2
// reference checker (basic: no GC, quadratic cycle checks) and the deadlock
// checker are opt-in.
//
// Delivery is a flat vector of Backend pointers: the per-event path does
// no name lookups and no std::function calls.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ANALYSIS_STACK_H
#define VELO_ANALYSIS_STACK_H

#include "analysis/Governor.h"

#include <memory>
#include <optional>
#include <string_view>

namespace velo {

class ReportManager;

/// Construction options shared by every back-end factory.
struct StackOptions {
  bool NoMerge = false; ///< Velodrome with the naive [INS OUTSIDE] rule
  /// Per-back-end warning cap (0 = unlimited); unset keeps the defaults.
  std::optional<uint64_t> MaxWarnings;
  GovernorLimits Limits; ///< none set = ungoverned
  /// Feed the fallback-role checker as the governed primary's hot spare
  /// even when it is not among the reported names (velodrome-run).
  bool HotSpare = false;
};

struct StackVerdict {
  const char *Text = ""; ///< the report's verdict line
  int Exit = 0;          ///< 0 serializable, 1 violation, 3 resource-limited
};

class AnalysisStack {
public:
  struct Row; ///< one registry entry (Stack.cpp)

  AnalysisStack() = default;
  // Tools' callbacks and the governor hold the stack's addresses.
  AnalysisStack(const AnalysisStack &) = delete;
  AnalysisStack &operator=(const AnalysisStack &) = delete;

  /// Every registry name, in report-table order.
  static std::vector<std::string> allNames();
  /// "velodrome|basic|...|all", for usage messages.
  static std::string selectorUsage();
  /// A fresh instance of one registry back-end; null for an unknown name.
  static std::unique_ptr<Backend> make(std::string_view Name,
                                       const StackOptions &Opts = {});

  /// Build from a --backend= selector (one registry name, or `all`), or
  /// from the list of names to deliver and report. Fails with
  /// "unknown backend: <name>" in Err.
  bool build(const std::string &Sel, const StackOptions &Opts,
             std::string &Err);
  bool build(const std::vector<std::string> &Names, const StackOptions &Opts,
             std::string &Err);

  /// The instance built for a registry name; null when not built.
  Backend *backend(std::string_view Name) const;
  template <typename T> T *get(std::string_view Name) const {
    return dynamic_cast<T *>(backend(Name));
  }

  /// Reported back-ends, in report-table order.
  const std::vector<Backend *> &reporting() const { return Reporting; }
  /// Delivered back-ends: the governor stands in for its pair.
  const std::vector<Backend *> &delivery() const { return Delivery; }
  GovernedAnalysis *governor() const { return Gov.get(); }

  void begin(const SymbolTable &Syms) {
    for (Backend *B : Delivery)
      B->beginAnalysis(Syms);
  }

  /// Deliver one event at its sanitized-stream ordinal.
  void deliver(const Event &E, uint64_t Ordinal) {
    ++EventsSeen;
    if (E.Thread >= ThreadsSeen)
      ThreadsSeen = E.Thread + 1;
    if ((E.Kind == Op::Fork || E.Kind == Op::Join) && E.child() >= ThreadsSeen)
      ThreadsSeen = E.child() + 1;
    for (Backend *B : Delivery) {
      B->setEventOrdinal(Ordinal);
      B->onEvent(E);
    }
  }

  /// The governor ran out of budget: stop delivering.
  bool exhausted() const {
    return Gov && Gov->state() == GovernorState::Exhausted;
  }

  void end() {
    for (Backend *B : Delivery)
      B->endAnalysis();
  }

  uint64_t eventsSeen() const { return EventsSeen; }
  uint32_t threadsSeen() const { return ThreadsSeen; }
  void setProgress(uint64_t Events, uint32_t Threads) {
    EventsSeen = Events;
    ThreadsSeen = Threads;
  }

  /// "governor: <cause>; ..." plus newline once the governor has left
  /// Normal; empty otherwise.
  std::string governorNote() const;

  /// The governor's verdict when governed, else the highest-ranked
  /// reported verdict checker's.
  StackVerdict verdict() const;

  /// Add one section per reported back-end and the verdict; returns the
  /// exit code.
  int report(ReportManager &RM, const SymbolTable *Syms) const;

  /// Write the delivery set: u64 count, then per back-end its
  /// Backend::name() and state blob. Every registry back-end supports
  /// snapshots.
  void saveDelivery(SnapshotWriter &W) const;
  /// Restore what saveDelivery wrote into an identically built, begun
  /// stack: every delivered back-end, in delivery order. A Velodrome(basic)
  /// entry is skipped when basic was not built (snapshots written while
  /// `all` included it). On any other unknown, missing or out-of-order
  /// name, or bad state, returns false with the name in BadName; a
  /// truncated list leaves R failed.
  bool restoreDelivery(SnapshotReader &R, std::string &BadName);

private:
  struct Built {
    const Row *R;
    std::unique_ptr<Backend> B;
  };

  std::vector<Built> Instances; ///< registry order
  std::unique_ptr<GovernedAnalysis> Gov;
  std::vector<Backend *> Reporting, Delivery;
  uint64_t EventsSeen = 0;
  uint32_t ThreadsSeen = 0;
};

} // namespace velo

#endif // VELO_ANALYSIS_STACK_H
