//===- events/TraceSanitizer.h - Trace validation & repair ------*- C++ -*-===//
//
// The single gate between event sources and analysis back-ends. The checkers
// (Velodrome's graph rules, AeroDrome's clocks) assume the structural
// invariants of Trace::validate — End matches a Begin, locks are released by
// their holder, joined threads stay quiet — and silently corrupt their state
// when those are violated in builds where assert is compiled out. Every
// ingestion path (velodrome-check, velodrome-run, the fuzz harness) pushes
// events through a TraceSanitizer first, so no back-end ever sees an
// unvalidated event.
//
// Two modes:
//
//  * Strict: reject the trace on the first ill-formed event with a precise
//    "line N:" / "event I:" diagnostic. Accepts exactly the traces
//    Trace::validate accepts.
//
//  * Lenient: repair what RoadRunner-style front ends commonly emit, and
//    count each repair by category (the repair table below). The repaired
//    stream always satisfies Trace::validate, and sanitization is
//    idempotent: re-sanitizing a repaired trace performs zero repairs.
//
// Repair table (lenient mode):
//
//   re-entrant acquire   holder re-acquires a lock: dropped (with its
//                        matching inner release), per-lock depth tracked
//   foreign acquire      acquire of a lock held by another thread: dropped
//   unheld release       release of a lock the thread does not hold: dropped
//   unmatched end        end without an open atomic block: dropped
//   unclosed transaction end events synthesized for blocks still open when
//                        the thread is joined or the trace finishes
//   abandoned lock       lock still held when its holder is joined or the
//                        trace finishes: a release is synthesized at the
//                        thread's end (real programs exit holding locks
//                        constantly; without this the next acquire cascades
//                        into foreign-acquire/unheld-release drops)
//   orphan fork          fork of a thread that already ran: dropped; the
//                        child is promoted to an initial thread (the missing
//                        fork is effectively synthesized at trace start)
//   dropped fork/join    self-fork, self-join, duplicate fork/join: dropped
//   post-join event      event of an already-joined thread: dropped
//
// State is advanced only by *emitted* events, which is what makes the
// lenient mode idempotent by construction.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_EVENTS_TRACESANITIZER_H
#define VELO_EVENTS_TRACESANITIZER_H

#include "analysis/Snapshot.h"
#include "events/Trace.h"
#include "support/IdTable.h"

#include <string>
#include <vector>

namespace velo {

/// Rejection vs. repair of ill-formed event sequences.
enum class SanitizeMode {
  Strict,  ///< reject on the first ill-formed event (Trace::validate)
  Lenient, ///< repair and count (see the repair table above)
};

/// Per-category repair counters (lenient mode).
struct RepairCounts {
  uint64_t ReentrantAcquires = 0; ///< nested acquires by the holder dropped
  uint64_t ForeignAcquires = 0;   ///< acquires of a lock held elsewhere dropped
  uint64_t UnheldReleases = 0;    ///< releases of unheld locks dropped
  uint64_t UnmatchedEnds = 0;     ///< ends without a begin dropped
  uint64_t UnclosedTxns = 0;      ///< ends synthesized for open blocks
  uint64_t AbandonedLocks = 0;    ///< releases synthesized at thread end
  uint64_t OrphanForks = 0;       ///< stale forks of already-running threads
  uint64_t DroppedForks = 0;      ///< self-forks and duplicate forks dropped
  uint64_t DroppedJoins = 0;      ///< self-joins and duplicate joins dropped
  uint64_t PostJoinEvents = 0;    ///< events of joined threads dropped

  uint64_t total() const {
    return ReentrantAcquires + ForeignAcquires + UnheldReleases +
           UnmatchedEnds + UnclosedTxns + AbandonedLocks + OrphanForks +
           DroppedForks + DroppedJoins + PostJoinEvents;
  }

  /// "re-entrant acquires: 2; unheld releases: 1" — non-zero categories
  /// only; empty when nothing was repaired.
  std::string summary() const;

  /// "lenient: repaired 3 event(s): <summary>\n", the stderr note every
  /// tool prints after a run; empty when nothing was repaired.
  std::string note() const;
};

/// Streaming validator/repairer. Feed events with push(), flush with
/// finish(); both append the events to forward (possibly none, possibly
/// synthesized extras) to the caller's vector.
class TraceSanitizer {
public:
  explicit TraceSanitizer(SanitizeMode Mode) : Mode(Mode) {}

  /// Process one input event, appending the events the back-ends should see
  /// to Out. SourceLine (1-based, 0 when unknown) positions strict
  /// diagnostics. Returns false only in strict mode, on the first
  /// ill-formed event; the sanitizer is then dead (error() is set and
  /// further pushes fail).
  bool push(const Event &E, std::vector<Event> &Out, size_t SourceLine = 0);

  /// End of input: in lenient mode, synthesize releases for locks still
  /// held and `end` events for atomic blocks still open. Never fails
  /// (trailing open blocks and held locks are legal in strict mode,
  /// matching Trace::validate).
  bool finish(std::vector<Event> &Out);

  bool failed() const { return Failed; }
  const std::string &error() const { return Error; }
  const RepairCounts &repairs() const { return Repairs; }

  /// Checkpoint the full well-formedness state (per-thread/per-lock state
  /// machines, repair counters, input position) / restore into a freshly
  /// constructed sanitizer of the same mode.
  void serialize(SnapshotWriter &W) const;
  bool deserialize(SnapshotReader &R);

private:
  struct ThreadState {
    int Depth = 0; ///< open atomic blocks
    bool Ran = false;
    bool Forked = false;
    bool Joined = false;
  };
  struct LockState {
    Tid Holder = 0;
    uint32_t Depth = 0; ///< re-entrancy depth (1 = plain held)
  };

  /// Record a strict-mode rejection. Always returns false.
  bool reject(const std::string &Msg, size_t SourceLine);

  /// Emit a synthesized `end` or release and advance the state for it.
  void emitSynthesized(const Event &E, std::vector<Event> &Out);

  /// Synthesize `end` events closing T's open blocks.
  void closeOpenBlocks(Tid T, ThreadState &TS, std::vector<Event> &Out);

  /// Synthesize releases for every lock T still holds (T is ending).
  void releaseHeldLocks(Tid T, std::vector<Event> &Out);

  SanitizeMode Mode;
  IdTable<ThreadState> Threads;
  IdTable<LockState> Locks;
  RepairCounts Repairs;
  std::string Error;
  size_t EventIdx = 0; ///< input events seen (for diagnostics)
  bool Failed = false;
};

/// Whole-trace convenience wrapper: sanitize In into Out (symbols are
/// carried over). Returns false in strict mode when In is rejected.
bool sanitizeTrace(const Trace &In, SanitizeMode Mode, Trace &Out,
                   RepairCounts *RepairsOut, std::string &ErrorOut);

} // namespace velo

#endif // VELO_EVENTS_TRACESANITIZER_H
