//===- report/Rules.h - Stable finding rule registry ------------*- C++ -*-===//
//
// Every checker finding carries a stable rule id (docs/REPORTING.md). The
// registry is the single source of truth for the id -> metadata mapping:
// human name, one-line summary, CWE tag, and default severity. Rule ids
// are append-only — an id, once published, never changes meaning — and the
// registry order is the order rules appear in SARIF `tool.driver.rules`,
// so renderer output is byte-stable across runs.
//
//===----------------------------------------------------------------------===//

#ifndef VELO_REPORT_RULES_H
#define VELO_REPORT_RULES_H

#include <cstddef>
#include <string>

namespace velo {

/// Metadata for one stable rule id.
struct RuleInfo {
  const char *Id;      ///< "VELO-ATOM-001" — stable, append-only.
  const char *Name;    ///< SARIF rule name ("AtomicityCycle").
  const char *Summary; ///< One-line shortDescription.
  const char *Cwe;     ///< "CWE-366" — closest CWE classification.
  const char *Level;   ///< Default severity: "error", "warning", "note".
};

/// All registered rules, in registry (= SARIF rules array) order.
const RuleInfo *ruleTable(size_t &CountOut);

/// Look up a rule by id. Returns null for an unknown id.
const RuleInfo *findRule(const std::string &Id);

/// Index of Id in the registry (SARIF ruleIndex), or -1 when unknown.
int ruleIndex(const std::string &Id);

} // namespace velo

#endif // VELO_REPORT_RULES_H
