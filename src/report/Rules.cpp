//===- report/Rules.cpp - Stable finding rule registry --------------------===//

#include "report/Rules.h"

namespace velo {

namespace {

// Append-only. Adding a rule is safe; renumbering or reusing an id is not
// (docs/REPORTING.md "Rule-id registry").
const RuleInfo Rules[] = {
    {"VELO-ATOM-001", "AtomicityCycle",
     "A transactional happens-before cycle proves an atomic block is not "
     "conflict-serializable",
     "CWE-366", "error"},
    {"VELO-ATOM-002", "AeroAtomicityCycle",
     "A clock-based dependency cycle closes through an atomic block "
     "(AeroDrome single-pass check)",
     "CWE-366", "error"},
    {"VELO-ATOM-003", "AtomizerNonMover",
     "An atomic block performs a non-mover sequence the Atomizer's "
     "reduction argument cannot commute",
     "CWE-366", "warning"},
    {"VELO-ATOM-004", "StrictTwoPhaseLocking",
     "An atomic block breaks the strict two-phase locking discipline",
     "CWE-366", "warning"},
    {"VELO-RACE-001", "HappensBeforeRace",
     "Two conflicting accesses are unordered by the happens-before "
     "relation",
     "CWE-362", "error"},
    {"VELO-RACE-002", "EraserLocksetRace",
     "A write-shared variable's candidate lockset is empty (Eraser "
     "discipline violation)",
     "CWE-362", "warning"},
    {"VELO-DLK-001", "LockOrderCycle",
     "Nested lock acquisitions form an order-graph cycle that can "
     "deadlock",
     "CWE-833", "warning"},
    {"VELO-LINT-001", "RacyVariable",
     "A shared variable is accessed with an empty candidate lockset "
     "(offline lock-discipline lint)",
     "CWE-362", "warning"},
    {"VELO-LINT-002", "InconsistentGuard",
     "A shared variable is guarded by different locks on different "
     "accesses",
     "CWE-662", "warning"},
};

constexpr size_t NumRules = sizeof(Rules) / sizeof(Rules[0]);

} // namespace

const RuleInfo *ruleTable(size_t &CountOut) {
  CountOut = NumRules;
  return Rules;
}

const RuleInfo *findRule(const std::string &Id) {
  for (const RuleInfo &R : Rules)
    if (Id == R.Id)
      return &R;
  return nullptr;
}

int ruleIndex(const std::string &Id) {
  for (size_t I = 0; I < NumRules; ++I)
    if (Id == Rules[I].Id)
      return static_cast<int>(I);
  return -1;
}

} // namespace velo
