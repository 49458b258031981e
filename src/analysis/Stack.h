//===- analysis/Stack.h - The analysis stack every tool uses ----*- C++ -*-===//
//
// In the paper every analysis is a back-end behind RoadRunner's single
// event stream. AnalysisStack is the one place that turns back-end names
// into a governed, reported analysis; velodrome-check (sequential and
// --parallel), serve sessions, velodrome-run and velodrome-fuzz all use it.
//
// The registry (Stack.cpp) has one row per selectable name: its factory,
// whether `all` includes it, its verdict rank, its governor role and, for
// Velodrome, the live-node and slot-exhaustion probes. The highest-ranked
// selected verdict checker is the governed primary; the fallback-role
// checker (AeroDrome), when selected, is its lockstep vector-clock hot
// spare. The reference checker (Velodrome(basic): no GC, quadratic cycle
// checks) leaves delivery once the governor leaves Normal; its warnings up
// to that point are kept.
//
// Delivery is a flat vector of Backend pointers: the per-event path does
// no name lookups and no std::function calls.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_ANALYSIS_STACK_H
#define VELO_ANALYSIS_STACK_H

#include "analysis/Governor.h"

#include <functional>
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

  /// Where notes (the reference-checker drop) go; stderr when unset.
  void setNoteSink(std::function<void(const std::string &)> Sink) {
    NoteSink = std::move(Sink);
  }

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
  /// The reference checker while it awaits the post-breach drop.
  Backend *reference() const { return Reference; }

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
    if (Reference && !keepDelivering(Reference))
      dropReference();
  }

  /// The drop rule as a per-back-end predicate, for the parallel
  /// pipeline's KeepDelivering hook. It reads governor state only for the
  /// reference checker, which must share the governor's worker.
  bool keepDelivering(Backend *B) const {
    if (B != Reference || Gov->state() == GovernorState::Normal)
      return true;
    note(DropNote);
    return false;
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

  /// Write the live delivery set: u64 count, then per back-end its
  /// Backend::name() and state blob. Every registry back-end supports
  /// snapshots.
  void saveDelivery(SnapshotWriter &W) const;
  /// Restore what saveDelivery wrote into an identically built, begun
  /// stack, membership included. On an unknown name or bad state returns
  /// false with the name in BadName; a truncated list leaves R failed.
  bool restoreDelivery(SnapshotReader &R, std::string &BadName);

private:
  struct Built {
    const Row *R;
    std::unique_ptr<Backend> B;
  };

  void note(const std::string &Text) const;
  void dropReference();

  static constexpr const char *DropNote =
      "governor: stopped the reference checker (Velodrome(basic), no GC) "
      "after the cap breach\n";

  std::vector<Built> Instances; ///< registry order
  std::unique_ptr<GovernedAnalysis> Gov;
  std::vector<Backend *> Reporting, Delivery;
  Backend *Reference = nullptr;
  uint64_t EventsSeen = 0;
  uint32_t ThreadsSeen = 0;
  std::function<void(const std::string &)> NoteSink;
};

} // namespace velo

#endif // VELO_ANALYSIS_STACK_H
