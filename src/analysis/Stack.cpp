//===- analysis/Stack.cpp - The one analysis stack every tool uses --------===//

#include "analysis/Stack.h"

#include "aero/AeroDrome.h"
#include "atomizer/Atomizer.h"
#include "core/BasicVelodrome.h"
#include "core/Velodrome.h"
#include "deadlock/DeadlockDetector.h"
#include "eraser/Eraser.h"
#include "hbrace/HbRaceDetector.h"
#include "report/Report.h"

#include <iterator>

namespace velo {

struct AnalysisStack::Row {
  const char *Name;
  bool InAll;
  unsigned VerdictRank; ///< highest selected carries the verdict; 0 = none
  bool Fallback;        ///< vector-clock checker: the primary's hot spare
  std::unique_ptr<Backend> (*Make)(const StackOptions &);
  GovernedAnalysis::Probe (*Probe)(Backend &);      ///< as governed primary
  GovernedAnalysis::FailProbe (*Failed)(Backend &); ///< as governed primary
};

namespace {

template <typename OptionsT>
OptionsT capped(OptionsT O, const StackOptions &S) {
  if (S.MaxWarnings)
    O.MaxWarnings = *S.MaxWarnings;
  return O;
}

template <typename T>
std::unique_ptr<Backend> makeDefault(const StackOptions &) {
  return std::make_unique<T>();
}

template <typename T, typename OptionsT>
std::unique_ptr<Backend> makeCapped(const StackOptions &S) {
  return std::make_unique<T>(capped(OptionsT(), S));
}

std::unique_ptr<Backend> makeVelodrome(const StackOptions &S) {
  VelodromeOptions O = capped(VelodromeOptions(), S);
  O.UseMerge = !S.NoMerge;
  return std::make_unique<Velodrome>(O);
}

GovernedAnalysis::Probe velodromeProbe(Backend &B) {
  return [V = static_cast<Velodrome *>(&B)](uint64_t &Nodes, uint64_t &Bytes) {
    Nodes = V->graph().nodesAlive();
    Bytes = V->graph().memoryBytes();
  };
}

// Slot-space exhaustion is a degradation cause, not an abort.
GovernedAnalysis::FailProbe velodromeFailed(Backend &B) {
  return [V = static_cast<Velodrome *>(&B)]() -> std::string {
    return V->graphExhausted()
               ? "happens-before graph node slot space exhausted"
               : "";
  };
}

// The registry, in report-table order. Two rows are opt-in: the Figure 2
// reference checker (no GC, quadratic cycle checks), a specification to
// test against, and the deadlock checker, so `all` is the atomicity/race
// table at Velodrome's cost.
const AnalysisStack::Row Registry[] = {
    {"velodrome", true, 3, false, makeVelodrome, velodromeProbe,
     velodromeFailed},
    {"basic", false, 2, false, makeDefault<BasicVelodrome>, nullptr, nullptr},
    {"aero", true, 1, true, makeCapped<AeroDrome, AeroDromeOptions>, nullptr,
     nullptr},
    {"atomizer", true, 0, false, makeDefault<Atomizer>, nullptr, nullptr},
    {"eraser", true, 0, false, makeDefault<Eraser>, nullptr, nullptr},
    {"hb", true, 0, false, makeDefault<HbRaceDetector>, nullptr, nullptr},
    {"deadlock", false, 0, false,
     makeCapped<DeadlockDetector, DeadlockOptions>, nullptr, nullptr},
};

const AnalysisStack::Row *findRow(std::string_view Name) {
  for (const AnalysisStack::Row &R : Registry)
    if (Name == R.Name)
      return &R;
  return nullptr;
}

} // namespace

std::vector<std::string> AnalysisStack::allNames() {
  std::vector<std::string> Out;
  for (const Row &R : Registry)
    Out.push_back(R.Name);
  return Out;
}

std::string AnalysisStack::selectorUsage() {
  std::string Out;
  for (const Row &R : Registry)
    Out += std::string(R.Name) + "|";
  return Out + "all";
}

std::unique_ptr<Backend> AnalysisStack::make(std::string_view Name,
                                             const StackOptions &Opts) {
  const Row *R = findRow(Name);
  return R ? R->Make(Opts) : nullptr;
}

bool AnalysisStack::build(const std::string &Sel, const StackOptions &Opts,
                          std::string &Err) {
  std::vector<std::string> Names;
  for (const Row &R : Registry)
    if (Sel == "all" ? R.InAll : Sel == R.Name)
      Names.push_back(R.Name);
  if (Names.empty()) {
    Err = "unknown backend: " + Sel;
    return false;
  }
  return build(Names, Opts, Err);
}

bool AnalysisStack::build(const std::vector<std::string> &Names,
                          const StackOptions &Opts, std::string &Err) {
  std::vector<bool> Selected(std::size(Registry));
  for (const std::string &N : Names) {
    const Row *R = findRow(N);
    if (!R) {
      Err = "unknown backend: " + N;
      return false;
    }
    Selected[R - Registry] = true;
  }
  const Row *PrimaryRow = nullptr, *FallbackRow = nullptr;
  for (size_t I = 0; I < std::size(Registry); ++I)
    if (Selected[I] &&
        Registry[I].VerdictRank > (PrimaryRow ? PrimaryRow->VerdictRank : 0))
      PrimaryRow = &Registry[I];
  const bool Governed = PrimaryRow && Opts.Limits.any();
  for (size_t I = 0; I < std::size(Registry); ++I)
    if (Registry[I].Fallback && &Registry[I] != PrimaryRow &&
        (Selected[I] || (Governed && Opts.HotSpare)))
      FallbackRow = &Registry[I];

  Instances.clear();
  Reporting.clear();
  Delivery.clear();
  Gov.reset();
  EventsSeen = 0;
  ThreadsSeen = 0;
  Backend *Primary = nullptr, *Fallback = nullptr;
  for (size_t I = 0; I < std::size(Registry); ++I) {
    const Row &R = Registry[I];
    if (!Selected[I] && &R != FallbackRow)
      continue;
    Instances.push_back({&R, R.Make(Opts)});
    Backend *B = Instances.back().B.get();
    if (Selected[I])
      Reporting.push_back(B);
    if (&R == PrimaryRow)
      Primary = B;
    if (&R == FallbackRow)
      Fallback = B;
  }

  if (Governed) {
    const Row &P = *PrimaryRow;
    Gov = std::make_unique<GovernedAnalysis>(
        *Primary, Fallback, Opts.Limits,
        P.Probe ? P.Probe(*Primary) : nullptr,
        P.Failed ? P.Failed(*Primary) : nullptr);
    Delivery.push_back(Gov.get());
  }
  for (const Built &In : Instances)
    if (!Governed || (In.B.get() != Primary && In.B.get() != Fallback))
      Delivery.push_back(In.B.get());
  return true;
}

Backend *AnalysisStack::backend(std::string_view Name) const {
  for (const Built &In : Instances)
    if (Name == In.R->Name)
      return In.B.get();
  return nullptr;
}

std::string AnalysisStack::governorNote() const {
  if (!Gov || Gov->state() == GovernorState::Normal)
    return "";
  return "governor: " + Gov->breachReason() +
         (Gov->state() == GovernorState::Degraded
              ? "; fell back to the vector-clock checker (blame and error "
                "graphs unavailable)"
              : "; analysis stopped") +
         "\n";
}

StackVerdict AnalysisStack::verdict() const {
  bool Violation = false;
  if (Gov) {
    if (Gov->verdict() == GovernorVerdict::Unknown)
      return {"resource-limited: verdict unknown", 3};
    Violation = Gov->verdict() == GovernorVerdict::Violation;
  } else {
    const Built *Top = nullptr;
    for (const Built &In : Instances)
      if (In.R->VerdictRank > (Top ? Top->R->VerdictRank : 0))
        Top = &In;
    Violation = Top && Top->B->sawViolation();
  }
  return Violation ? StackVerdict{"NOT conflict-serializable", 1}
                   : StackVerdict{"serializable", 0};
}

int AnalysisStack::report(ReportManager &RM, const SymbolTable *Syms) const {
  for (Backend *B : Reporting)
    RM.addSection(B->name(), B->warnings(), Syms);
  StackVerdict V = verdict();
  RM.Run.Verdict = V.Text;
  RM.Run.ExitCode = V.Exit;
  return V.Exit;
}

void AnalysisStack::saveDelivery(SnapshotWriter &W) const {
  W.u64(Delivery.size());
  for (Backend *B : Delivery) {
    W.str(B->name());
    SnapshotWriter Blob;
    B->serialize(Blob);
    W.blob(Blob);
  }
}

bool AnalysisStack::restoreDelivery(SnapshotReader &R, std::string &BadName) {
  // Snapshots written while `all` still included the reference checker
  // list it; a stack that did not build it skips its entry.
  const bool SkipBasic = !backend("basic");
  uint64_t NumSaved = R.u64();
  size_t Next = 0;
  for (uint64_t I = 0; I < NumSaved && !R.failed(); ++I) {
    std::string Name = R.str();
    SnapshotReader Blob = R.blob();
    if (SkipBasic && Name == "Velodrome(basic)")
      continue;
    if (Next == Delivery.size() || Name != Delivery[Next]->name() ||
        !Delivery[Next]->deserialize(Blob)) {
      BadName = Name;
      return false;
    }
    ++Next;
  }
  if (Next < Delivery.size() && !R.failed()) {
    BadName = Delivery[Next]->name();
    return false;
  }
  return true;
}

} // namespace velo
