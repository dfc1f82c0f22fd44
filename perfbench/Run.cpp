//===- perfbench/Run.cpp - Verdict oracle and the traced verifier ----------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "lang/Checks.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "support/Trace.h"
#include "vcgen/VcGen.h"

#include <cstdio>
#include <map>

using namespace ids;
using namespace perfbench;

namespace {

const char *statusName(driver::Status S) {
  switch (S) {
  case driver::Status::Verified:
    return "verified";
  case driver::Status::Failed:
    return "failed";
  case driver::Status::Unknown:
    break;
  }
  return "unknown";
}

bool isEdit(Kind K) { return K == Kind::Prove || K == Kind::Refute; }

} // namespace

Outcome perfbench::judge(const Request &Q, const driver::ModuleResult &R,
                         const Delta &D) {
  Outcome O;
  O.K = Q.K;
  auto Fail = [&](bool Wrong, std::string Note) {
    O.Failed = true;
    O.Wrong = O.Wrong || Wrong;
    if (O.Note.empty())
      O.Note = std::move(Note);
  };
  if (!R.FrontEndOk) {
    Fail(false, "front end rejected the request");
    return O;
  }
  O.Verdicts = static_cast<unsigned>(R.Procs.size() + R.Impacts.size());

  size_t WantProcs = 0;
  for (const structures::ProcExpectation &E : Q.Bench->Expected)
    WantProcs += Q.Opts.OnlyProc.empty() || Q.Opts.OnlyProc == E.Proc;
  if (R.Procs.size() != WantProcs)
    Fail(true, "returned " + std::to_string(R.Procs.size()) +
                   " procedure verdicts, expected " +
                   std::to_string(WantProcs));
  if (Q.Opts.CheckImpacts == R.Impacts.empty())
    Fail(true, "impact checks missing or unrequested");
  for (const driver::ImpactResult &I : R.Impacts) {
    if (I.TimedOut)
      Fail(false, "impact " + I.Field + " timed out");
    else if (!I.Ok)
      Fail(true, "impact " + I.Field + "[" + I.Group + "] refuted");
  }
  for (const driver::ProcResult &P : R.Procs) {
    std::string Want = Q.expectedStatus(P.Name);
    std::string Got = statusName(P.St);
    if (Got == "unknown")
      Fail(false, P.Name + " unknown: " + P.FailedObligation);
    else if (Got != Want)
      Fail(true, P.Name + " " + Got + ", expected " + Want);
    else if (Got == "failed" && P.Counterexample.empty())
      Fail(false, P.Name + " failed without a counterexample");
  }
  // An edit changes one procedure's VC key: the instance must re-solve
  // exactly that procedure and replay everything else.
  if (isEdit(Q.K) &&
      (D.ProcsSolved != 1 || D.ImpactsSolved != 0 ||
       D.ProcsCached + 1 != R.Procs.size()))
    Fail(true, "edit re-solved " + std::to_string(D.ProcsSolved) +
                   " procedures and " + std::to_string(D.ImpactsSolved) +
                   " impacts, replayed " + std::to_string(D.ProcsCached));
  return O;
}

// ----------------------------------------------------------------- Tracer --

int Tracer::open(const char *Name) {
  int Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back({Name, trace::nowUs(), 0, Parent, RequestId});
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void Tracer::close(int Index) {
  Spans[Index].EndUs = trace::nowUs();
  Open.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::selfMs() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = double(Spans[I].EndUs - Spans[I].StartUs);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= double(S.EndUs - S.StartUs);
  std::map<std::string, double> ByName;
  for (size_t I = 0; I < Spans.size(); ++I)
    ByName[Spans[I].Name] += Self[I] / 1000.0;
  return {ByName.begin(), ByName.end()};
}

bool Tracer::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"spans\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"start_us\":%llu,\"end_us\":%llu,"
                 "\"parent\":%d,\"request\":%llu}",
                 I ? "," : "", S.Name, (unsigned long long)S.StartUs,
                 (unsigned long long)S.EndUs, S.Parent,
                 (unsigned long long)S.RequestId);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

// --------------------------------------------------------- TracedInstance --

driver::ModuleResult TracedInstance::verify(const Request &Q, Tracer &T,
                                            Delta &D) {
  struct Scoped {
    Tracer &T;
    int I;
    Scoped(Tracer &T, const char *Name) : T(T), I(T.open(Name)) {}
    ~Scoped() { T.close(I); }
  };
  driver::ModuleResult Result;
  Scoped Verify(T, "driver.verify");
  DiagEngine Diags;
  std::unique_ptr<lang::Module> M;
  {
    Scoped S(T, "lang.parse");
    M = lang::parseModule(Q.Source, Diags);
  }
  if (!M)
    return Result;
  bool Ok;
  {
    Scoped S(T, "lang.typecheck");
    Ok = lang::typeCheck(*M, Diags);
  }
  if (!Ok)
    return Result;
  {
    Scoped S(T, "lang.checks");
    Ok = lang::checkGhostDiscipline(*M, Diags) &&
         lang::checkWellBehaved(*M, Diags);
  }
  if (!Ok)
    return Result;
  Result.FrontEndOk = true;
  Result.StructureName = M->Structure.Name;

  pipeline::Options POpts;
  POpts.Jobs = Q.Opts.Jobs;
  // Solve one obligation list, or replay its recorded definitive verdict.
  auto Discharge = [&](smt::TermManager &TM, const vcgen::ProcVc &Vc,
                       const std::string &Label, bool &Cached) {
    Obligations += Vc.Obligations.size();
    std::pair<uint64_t, uint64_t> K = vcKey(TM, Vc);
    auto It = Verdicts.find(K);
    Cached = It != Verdicts.end();
    if (Cached) {
      pipeline::Result R;
      R.V = It->second.St == driver::Status::Verified
                ? pipeline::Verdict::Proved
                : pipeline::Verdict::Failed;
      R.Counterexample = It->second.Counterexample;
      return R;
    }
    POpts.TraceLabel = Label;
    pipeline::Result R;
    {
      Scoped S(T, "pipeline.solve");
      R = pipeline::solveObligations(TM, Vc.Obligations, POpts, &Cache);
    }
    if (R.V != pipeline::Verdict::Unknown)
      Verdicts[K] = {R.V == pipeline::Verdict::Proved
                         ? driver::Status::Verified
                         : driver::Status::Failed,
                     R.Counterexample};
    return R;
  };

  if (Q.Opts.CheckImpacts)
    for (const lang::ImpactDecl &I : M->Structure.Impacts) {
      smt::TermManager TM;
      vcgen::ProcVc Vc;
      {
        Scoped S(T, "vcgen");
        Vc = vcgen::generateImpactVc(TM, *M, I);
      }
      driver::ImpactResult IR;
      IR.Field = I.Field;
      IR.Group = I.Group;
      pipeline::Result R = Discharge(TM, Vc, "impact:" + I.Field, IR.Cached);
      IR.Ok = R.V == pipeline::Verdict::Proved;
      ++(IR.Cached ? D.ImpactsCached : D.ImpactsSolved);
      Result.Impacts.push_back(IR);
    }
  for (const lang::ProcDecl &P : M->Procs) {
    if (!Q.Opts.OnlyProc.empty() && P.Name != Q.Opts.OnlyProc)
      continue;
    smt::TermManager TM;
    vcgen::ProcVc Vc;
    {
      Scoped S(T, "vcgen");
      Vc = vcgen::generateVc(TM, *M, P, vcgen::VcOptions());
    }
    driver::ProcResult PR;
    PR.Name = P.Name;
    pipeline::Result R = Discharge(TM, Vc, P.Name, PR.Cached);
    PR.St = R.V == pipeline::Verdict::Proved   ? driver::Status::Verified
            : R.V == pipeline::Verdict::Failed ? driver::Status::Failed
                                               : driver::Status::Unknown;
    PR.FailedObligation = R.FailedDescription;
    PR.Counterexample = R.Counterexample;
    ++(PR.Cached ? D.ProcsCached : D.ProcsSolved);
    Result.Procs.push_back(std::move(PR));
  }
  return Result;
}
