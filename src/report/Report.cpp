//===- report/Report.cpp - Centralized structured report manager ----------===//

#include "report/Report.h"

#include "report/Json.h"

#include <cstdio>

namespace velo {

bool parseReportFormat(const std::string &V, ReportFormat &Out) {
  if (V == "text") {
    Out = ReportFormat::Text;
  } else if (V == "json") {
    Out = ReportFormat::Json;
  } else if (V == "sarif") {
    Out = ReportFormat::Sarif;
  } else {
    return false;
  }
  return true;
}

namespace {

// The one fallback rule for a warning whose emitter registered nothing:
// metadata good enough to keep the renderers total.
const RuleInfo UnknownRule = {"VELO-UNKNOWN", "UnregisteredFinding",
                              "Finding from a back-end without a registered "
                              "rule id",
                              "CWE-662", "warning"};

const RuleInfo *resolveRule(const Warning &W) {
  const RuleInfo *R = findRule(W.RuleId);
  return R ? R : &UnknownRule;
}

std::string methodName(Label L, const SymbolTable *Syms) {
  if (L == NoLabel)
    return std::string();
  return Syms ? Syms->labelName(L) : std::to_string(L);
}

} // namespace

void ReportManager::addSection(const std::string &BackendName,
                               const std::vector<Warning> &Warnings,
                               const SymbolTable *Syms) {
  Section S;
  S.Backend = BackendName;
  S.FirstFinding = Findings.size();
  Sections.push_back(std::move(S));
  for (const Warning &W : Warnings)
    addWarning(BackendName, W, Syms);
}

void ReportManager::addWarning(const std::string &BackendName,
                               const Warning &W, const SymbolTable *Syms) {
  if (Sections.empty() || Sections.back().Backend != BackendName) {
    Section S;
    S.Backend = BackendName;
    S.FirstFinding = Findings.size();
    Sections.push_back(std::move(S));
  }
  Finding F;
  F.Rule = resolveRule(W);
  F.Backend = BackendName;
  F.Analysis = W.Analysis;
  F.Category = W.Category;
  F.Method = methodName(W.Method, Syms);
  F.Message = W.Message;
  F.Thread = W.Thread;
  F.Ordinal = W.Ordinal;
  for (const WarningSite &Site : W.Related) {
    Finding::Site S;
    S.Method = methodName(Site.Method, Syms);
    S.Note = Site.Note;
    S.Thread = Site.Thread;
    S.Ordinal = Site.Ordinal;
    F.Related.push_back(std::move(S));
  }
  Findings.push_back(std::move(F));
  ++Sections.back().NumFindings;
}

size_t ReportManager::actionableFindings() const {
  size_t N = 0;
  for (const Finding &F : Findings) {
    const std::string Level = F.Rule->Level;
    if (Level == "error" || Level == "warning")
      ++N;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Text renderer: the historical report, byte for byte.
//===----------------------------------------------------------------------===//

std::string ReportManager::renderText(bool Quiet) const {
  std::string Out;
  char Buf[512];
  if (!Quiet) {
    std::snprintf(Buf, sizeof(Buf), "%s: %llu events, %u threads\n",
                  Run.Trace.c_str(),
                  static_cast<unsigned long long>(Run.Events), Run.Threads);
    Out += Buf;
    for (const Section &S : Sections) {
      std::snprintf(Buf, sizeof(Buf), "[%s] %zu warning(s)\n",
                    S.Backend.c_str(), S.NumFindings);
      Out += Buf;
      for (size_t I = 0; I < S.NumFindings; ++I) {
        Out += "  ";
        Out += Findings[S.FirstFinding + I].Message;
        Out += '\n';
      }
    }
    for (const std::string &Line : StatLines) {
      Out += Line;
      Out += '\n';
    }
  }
  for (const std::string &Note : Notes)
    Out += Note;
  if (!Run.Verdict.empty()) {
    Out += "verdict: ";
    Out += Run.Verdict;
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON renderer: schemaVersion 1 (docs/REPORTING.md).
//===----------------------------------------------------------------------===//

void ReportManager::writeFindingJson(JsonWriter &J, const Finding &F) const {
  J.beginObject();
  J.key("ruleId");
  J.str(F.Rule->Id);
  J.key("ruleName");
  J.str(F.Rule->Name);
  J.key("cwe");
  J.str(F.Rule->Cwe);
  J.key("severity");
  J.str(F.Rule->Level);
  J.key("backend");
  J.str(F.Backend);
  J.key("analysis");
  J.str(F.Analysis);
  J.key("category");
  J.str(F.Category);
  if (!F.Method.empty()) {
    J.key("method");
    J.str(F.Method);
  }
  J.key("thread");
  J.num(static_cast<uint64_t>(F.Thread));
  if (F.Ordinal != 0) {
    J.key("ordinal");
    J.num(F.Ordinal);
  }
  J.key("message");
  J.str(F.Message);
  if (!F.Related.empty()) {
    J.key("related");
    J.beginArray();
    for (const Finding::Site &S : F.Related) {
      J.beginObject();
      J.key("thread");
      J.num(static_cast<uint64_t>(S.Thread));
      if (S.Ordinal != 0) {
        J.key("ordinal");
        J.num(S.Ordinal);
      }
      if (!S.Method.empty()) {
        J.key("method");
        J.str(S.Method);
      }
      if (!S.Note.empty()) {
        J.key("note");
        J.str(S.Note);
      }
      J.endObject();
    }
    J.endArray();
  }
  J.endObject();
}

std::string ReportManager::renderJson() const {
  JsonWriter J;
  J.beginObject();
  J.key("schema");
  J.str("velodrome-report");
  J.key("schemaVersion");
  J.num(1);
  J.key("tool");
  J.str(Run.Tool);
  J.key("trace");
  J.str(Run.Trace);
  J.key("events");
  J.num(Run.SanitizedEvents);
  J.key("threads");
  J.num(static_cast<uint64_t>(Run.Threads));
  if (!Run.Verdict.empty()) {
    J.key("verdict");
    J.str(Run.Verdict);
  }
  J.key("exitCode");
  J.num(Run.ExitCode);
  J.key("findings");
  J.beginArray();
  for (const Finding &F : Findings)
    writeFindingJson(J, F);
  J.endArray();
  J.endObject();
  return J.take();
}

//===----------------------------------------------------------------------===//
// SARIF 2.1.0 renderer. Location convention (docs/REPORTING.md): the
// artifact is the trace file and region.startLine is the finding's
// sanitized-stream event ordinal — the line the event occupies in the
// canonical text rendering of the trace, whatever the input container
// was. Cycle edges and witnesses become relatedLocations.
//===----------------------------------------------------------------------===//

std::string ReportManager::renderSarif() const {
  JsonWriter J;
  J.beginObject();
  J.key("$schema");
  J.str("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
        "Schemata/sarif-schema-2.1.0.json");
  J.key("version");
  J.str("2.1.0");
  J.key("runs");
  J.beginArray();
  J.beginObject();

  J.key("tool");
  J.beginObject();
  J.key("driver");
  J.beginObject();
  J.key("name");
  J.str(Run.Tool.empty() ? std::string("velodrome") : Run.Tool);
  J.key("informationUri");
  J.str("https://github.com/velodrome/velodrome");
  J.key("version");
  J.str("1.0.0");
  J.key("rules");
  J.beginArray();
  size_t NumRules = 0;
  const RuleInfo *Rules = ruleTable(NumRules);
  for (size_t I = 0; I < NumRules; ++I) {
    J.beginObject();
    J.key("id");
    J.str(Rules[I].Id);
    J.key("name");
    J.str(Rules[I].Name);
    J.key("shortDescription");
    J.beginObject();
    J.key("text");
    J.str(Rules[I].Summary);
    J.endObject();
    J.key("defaultConfiguration");
    J.beginObject();
    J.key("level");
    J.str(Rules[I].Level);
    J.endObject();
    J.key("properties");
    J.beginObject();
    J.key("cwe");
    J.str(Rules[I].Cwe);
    J.endObject();
    J.endObject();
  }
  J.endArray();
  J.endObject(); // driver
  J.endObject(); // tool

  J.key("invocations");
  J.beginArray();
  J.beginObject();
  J.key("executionSuccessful");
  J.boolean(true);
  J.key("exitCode");
  J.num(Run.ExitCode);
  J.endObject();
  J.endArray();

  J.key("artifacts");
  J.beginArray();
  J.beginObject();
  J.key("location");
  J.beginObject();
  J.key("uri");
  J.str(Run.Trace);
  J.endObject();
  J.endObject();
  J.endArray();

  auto WriteLocation = [&](uint32_t Thread, uint64_t Ordinal,
                           const std::string &Method,
                           const std::string &MessageText) {
    J.beginObject();
    if (!MessageText.empty()) {
      J.key("message");
      J.beginObject();
      J.key("text");
      J.str(MessageText);
      J.endObject();
    }
    J.key("physicalLocation");
    J.beginObject();
    J.key("artifactLocation");
    J.beginObject();
    J.key("uri");
    J.str(Run.Trace);
    J.key("index");
    J.num(0);
    J.endObject();
    if (Ordinal != 0) {
      J.key("region");
      J.beginObject();
      J.key("startLine");
      J.num(Ordinal);
      J.endObject();
    }
    J.endObject();
    J.key("logicalLocations");
    J.beginArray();
    J.beginObject();
    if (!Method.empty()) {
      J.key("name");
      J.str(Method);
      J.key("kind");
      J.str("function");
    } else {
      J.key("name");
      J.str("T" + std::to_string(Thread));
      J.key("kind");
      J.str("thread");
    }
    J.endObject();
    J.endArray();
    J.endObject();
  };

  J.key("results");
  J.beginArray();
  for (const Finding &F : Findings) {
    J.beginObject();
    J.key("ruleId");
    J.str(F.Rule->Id);
    int Idx = ruleIndex(F.Rule->Id);
    if (Idx >= 0) {
      J.key("ruleIndex");
      J.num(Idx);
    }
    J.key("level");
    J.str(F.Rule->Level);
    J.key("message");
    J.beginObject();
    J.key("text");
    J.str(F.Message);
    J.endObject();
    J.key("locations");
    J.beginArray();
    WriteLocation(F.Thread, F.Ordinal, F.Method, std::string());
    J.endArray();
    if (!F.Related.empty()) {
      J.key("relatedLocations");
      J.beginArray();
      for (const Finding::Site &S : F.Related)
        WriteLocation(S.Thread, S.Ordinal, S.Method, S.Note);
      J.endArray();
    }
    J.key("properties");
    J.beginObject();
    J.key("thread");
    J.num(static_cast<uint64_t>(F.Thread));
    J.key("backend");
    J.str(F.Backend);
    J.key("cwe");
    J.str(F.Rule->Cwe);
    J.endObject();
    J.endObject();
  }
  J.endArray();

  J.key("columnKind");
  J.str("utf16CodeUnits");
  J.endObject(); // run
  J.endArray();  // runs
  J.endObject();
  return J.take();
}

std::string ReportManager::render(ReportFormat F, bool Quiet) const {
  switch (F) {
  case ReportFormat::Json:
    return renderJson();
  case ReportFormat::Sarif:
    return renderSarif();
  case ReportFormat::Text:
    break;
  }
  return renderText(Quiet);
}

} // namespace velo
