//===- driver/VerifierInstance.cpp - Long-lived verifier state -------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
//
// Verdict file format (version tag IDSVC v1), append-only:
//
//   IDSVC v1\n
//   P <lo-hex> <hi-hex> <V|F> <num-obligations> <desc-bytes> <cex-bytes>\n
//   <desc>\n<cex>\n
//
// Like the query cache, a torn tail record stops the load at the last
// complete record.
//
//===----------------------------------------------------------------------===//

#include "driver/VerifierInstance.h"

#include "support/AppendLog.h"
#include "support/Trace.h"
#include "vcgen/VcGen.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <filesystem>

using namespace ids;
using namespace ids::driver;

namespace {

double seconds(std::chrono::steady_clock::time_point Start) {
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

pipeline::Options pipelineOptions(const VerifyOptions &Opts) {
  pipeline::Options P;
  P.Simplify = Opts.SimplifyVc;
  P.Cache = Opts.CacheQueries;
  P.Jobs = Opts.Jobs;
  P.VcSplits = Opts.VcSplits;
  P.AllowQuantifiers = Opts.QuantifiedMode;
  P.MaxTheoryChecks = Opts.MaxTheoryChecks;
  P.QueryTimeoutSeconds = Opts.QueryTimeoutSeconds;
  P.Theory = Opts.Theory;
  return P;
}

Status statusOf(pipeline::Verdict V) {
  switch (V) {
  case pipeline::Verdict::Proved:
    return Status::Verified;
  case pipeline::Verdict::Failed:
    return Status::Failed;
  case pipeline::Verdict::Unknown:
    break;
  }
  return Status::Unknown;
}

uint64_t mix(uint64_t A, uint64_t B) {
  return A ^ (B + 0x9e3779b97f4a7c15ull + (A << 6) + (A >> 2));
}

} // namespace

VerifierInstance::~VerifierInstance() {
  std::lock_guard<std::mutex> Lock(VerdictMutex);
  if (VerdictAppend)
    fclose(VerdictAppend);
}

bool VerifierInstance::lookupVerdict(const ProcKey &K, ProcVerdict &Out) {
  std::lock_guard<std::mutex> Lock(VerdictMutex);
  auto It = Verdicts.find(K);
  if (It == Verdicts.end())
    return false;
  Out = It->second;
  return true;
}

void VerifierInstance::recordVerdict(const ProcKey &K, const ProcVerdict &V) {
  // Only definitive verdicts are recorded: an Unknown is a property of
  // the budget/timeout/deadline that produced it, never of the procedure.
  if (V.St == Status::Unknown)
    return;
  std::lock_guard<std::mutex> Lock(VerdictMutex);
  auto [It, Inserted] = Verdicts.emplace(K, V);
  if (!Inserted)
    return;
  ++InstStats.VerdictsRecorded;
  static trace::Counter &RecC = trace::counter("driver.verdicts_recorded");
  RecC.add();
  if (VerdictAppend)
    appendVerdictLocked(K, It->second);
}

void VerifierInstance::appendVerdictLocked(const ProcKey &K,
                                           const ProcVerdict &V) {
  // One buffer, one fwrite, one write(2) on the unbuffered O_APPEND
  // stream: concurrent --cache-dir processes append record-at-a-time
  // instead of interleaving the four-part record mid-line (the same
  // discipline as QueryCache::appendLocked).
  char Header[96];
  int Len = snprintf(Header, sizeof(Header),
                     "P %016" PRIx64 " %016" PRIx64 " %c %u %zu %zu\n", K.Lo,
                     K.Hi, V.St == Status::Verified ? 'V' : 'F',
                     V.NumObligations, V.FailedObligation.size(),
                     V.Counterexample.size());
  std::string Rec(Header, Len);
  Rec += V.FailedObligation;
  Rec += '\n';
  Rec += V.Counterexample;
  Rec += '\n';
  fwrite(Rec.data(), 1, Rec.size(), VerdictAppend);
}

size_t VerifierInstance::loadVerdictsLocked(std::FILE *F) {
  size_t Loaded = 0;
  char Tag;
  while (fscanf(F, " %c", &Tag) == 1) {
    if (Tag != 'P')
      break;
    ProcKey K;
    ProcVerdict V;
    char St;
    size_t DescLen = 0, CexLen = 0;
    if (fscanf(F, "%" SCNx64 " %" SCNx64 " %c %u %zu %zu", &K.Lo, &K.Hi, &St,
               &V.NumObligations, &DescLen, &CexLen) != 6)
      break;
    if (St != 'V' && St != 'F')
      break;
    V.St = St == 'V' ? Status::Verified : Status::Failed;
    if (fgetc(F) != '\n')
      break;
    V.FailedObligation.resize(DescLen);
    if (DescLen > 0 &&
        fread(&V.FailedObligation[0], 1, DescLen, F) != DescLen)
      break;
    if (fgetc(F) != '\n')
      break;
    V.Counterexample.resize(CexLen);
    if (CexLen > 0 && fread(&V.Counterexample[0], 1, CexLen, F) != CexLen)
      break;
    Verdicts[K] = std::move(V);
    ++Loaded;
  }
  return Loaded;
}

bool VerifierInstance::attachCacheDir(const std::string &Dir,
                                      std::string &Error) {
  if (!Cache.attachDir(Dir, Error))
    return false;
  std::lock_guard<std::mutex> Lock(VerdictMutex);
  if (VerdictAppend) {
    Error = "verdict cache already attached to a directory";
    return false;
  }
  // Each appendVerdictLocked record is a single write(2) on the log's
  // unbuffered O_APPEND stream.
  VerdictAppend = appendlog::attach(Dir + "/" + VerdictFileName,
                                    VerdictHeader,
                                    [this](std::FILE *In) {
                                      InstStats.VerdictsLoadedFromDisk =
                                          loadVerdictsLocked(In);
                                    },
                                    Error)
                      .Append;
  return VerdictAppend != nullptr;
}

std::string VerifierInstance::cacheSummary() const {
  pipeline::QueryCache::DiskStats QS = Cache.diskStats();
  char Buf[256];
  snprintf(Buf, sizeof(Buf),
           "cache summary: queries %zu loaded, %llu hits (%llu disk), "
           "%llu appended; verdicts %zu loaded, %llu proc hits, "
           "%llu impact hits, %llu recorded",
           QS.LoadedFromDisk, (unsigned long long)QS.Hits,
           (unsigned long long)QS.DiskHits, (unsigned long long)QS.Appended,
           InstStats.VerdictsLoadedFromDisk,
           (unsigned long long)InstStats.ProcsCached,
           (unsigned long long)InstStats.ImpactsCached,
           (unsigned long long)InstStats.VerdictsRecorded);
  return Buf;
}

ModuleResult VerifierInstance::verify(const std::string &Source,
                                      const VerifyOptions &Opts,
                                      DiagEngine &Diags) {
  ++InstStats.Requests;
  static trace::Counter &ReqC = trace::counter("driver.requests");
  ReqC.add();
  trace::ScopedSpan ReqSp("driver.request");
  ModuleResult Result;
  std::unique_ptr<lang::Module> M = frontEnd(Source, Diags);
  if (!M)
    return Result;
  Result.FrontEndOk = true;
  Result.StructureName = M->Structure.Name;
  Result.LcSize = lang::localConditionSize(M->Structure);
  if (ReqSp.active())
    ReqSp.arg("structure", Result.StructureName);

  const auto ReqStart = std::chrono::steady_clock::now();
  const pipeline::Options POptsBase = pipelineOptions(Opts);

  // Incremental re-verification key: the ordered fold of the obligations'
  // structural query hashes. Two runs produce the same key iff vcgen
  // emitted structurally identical obligations in the same order — and
  // then the pipeline verdict is a pure function of them, so a recorded
  // definitive verdict can be replayed. Options that change the VC
  // (quantified mode, frame checks) change the hashes by construction.
  auto keyOf = [](smt::TermManager &TM,
                  const std::vector<vcgen::Obligation> &Obls) {
    ProcKey K;
    K.Lo = mix(0x4944535650524f43ull, Obls.size()); // "IDSVPROC"
    K.Hi = mix(0x4f424c4b45590a01ull, Obls.size()); // "OBLKEY"
    for (const vcgen::Obligation &O : Obls) {
      smt::TermRef Q = TM.mkAnd(O.Guard, TM.mkNot(O.Claim));
      K.Lo = mix(K.Lo, Q->getStructHashLo());
      K.Hi = mix(K.Hi, Q->getStructHashHi());
    }
    return K;
  };

  // Per-request deadline: shrink each solve's per-query timeout to the
  // time remaining; once past the deadline, report Unknown without
  // solving. Returns false when the deadline has expired.
  auto underDeadline = [&](pipeline::Options &P) {
    if (Opts.TotalTimeoutSeconds <= 0)
      return true;
    double Rem = Opts.TotalTimeoutSeconds - seconds(ReqStart);
    if (Rem <= 0)
      return false;
    P.QueryTimeoutSeconds = P.QueryTimeoutSeconds > 0
                                ? std::min(P.QueryTimeoutSeconds, Rem)
                                : Rem;
    return true;
  };

  // Impact-set correctness (Appendix C; Section 5.3 reports this <3s per
  // structure).
  if (Opts.CheckImpacts) {
    auto Start = std::chrono::steady_clock::now();
    for (const lang::ImpactDecl &I : M->Structure.Impacts) {
      ImpactResult IR;
      IR.Field = I.Field;
      IR.Group = I.Group;
      trace::ScopedSpan ISp("driver.impact");
      auto IStart = std::chrono::steady_clock::now();
      smt::TermManager TM;
      vcgen::ProcVc Vc;
      {
        trace::ScopedSpan VSp("vcgen");
        Vc = vcgen::generateImpactVc(TM, *M, I);
      }
      ProcKey K = keyOf(TM, Vc.Obligations);
      ProcVerdict PV;
      pipeline::Options POpts = POptsBase;
      POpts.TraceLabel = "impact:" + I.Field + "[" + I.Group + "]";
      if (ISp.active())
        ISp.arg("name", POpts.TraceLabel);
      if (Opts.ReuseProcVerdicts && lookupVerdict(K, PV)) {
        IR.Ok = PV.St == Status::Verified;
        IR.Cached = true;
        ++InstStats.ImpactsCached;
        trace::counter("driver.impacts_cached").add();
      } else if (!underDeadline(POpts)) {
        IR.Ok = false;
        IR.TimedOut = true;
      } else {
        pipeline::Result PR =
            pipeline::solveObligations(TM, Vc.Obligations, POpts, &Cache);
        IR.Ok = PR.V == pipeline::Verdict::Proved;
        IR.Pipeline = PR.St;
        ++InstStats.ImpactsSolved;
        trace::counter("driver.impacts_solved").add();
        if (PR.V != pipeline::Verdict::Unknown) {
          PV.St = statusOf(PR.V);
          PV.NumObligations = static_cast<unsigned>(Vc.Obligations.size());
          recordVerdict(K, PV);
        }
      }
      IR.Seconds = seconds(IStart);
      Result.Impacts.push_back(std::move(IR));
    }
    Result.ImpactSeconds = seconds(Start);
  }

  for (const lang::ProcDecl &P : M->Procs) {
    if (!Opts.OnlyProc.empty() && P.Name != Opts.OnlyProc)
      continue;
    ProcResult PR;
    PR.Name = P.Name;
    PR.Metrics = lang::computeMetrics(M->Structure, P);
    trace::ScopedSpan PSp("driver.proc");
    if (PSp.active())
      PSp.arg("name", P.Name);
    auto Start = std::chrono::steady_clock::now();
    smt::TermManager TM;
    vcgen::VcOptions VOpts;
    VOpts.QuantifiedMode = Opts.QuantifiedMode;
    VOpts.CheckFrames = Opts.CheckFrames;
    vcgen::ProcVc Vc;
    {
      trace::ScopedSpan VSp("vcgen");
      Vc = vcgen::generateVc(TM, *M, P, VOpts);
    }
    PR.NumObligations = static_cast<unsigned>(Vc.Obligations.size());
    ProcKey K = keyOf(TM, Vc.Obligations);
    ProcVerdict PV;
    pipeline::Options POpts = POptsBase;
    POpts.TraceLabel = P.Name;
    if (Opts.ReuseProcVerdicts && lookupVerdict(K, PV)) {
      PR.St = PV.St;
      PR.FailedObligation = PV.FailedObligation;
      PR.Counterexample = PV.Counterexample;
      PR.Cached = true;
      ++InstStats.ProcsCached;
      trace::counter("driver.procs_cached").add();
    } else if (!underDeadline(POpts)) {
      PR.St = Status::Unknown;
      PR.FailedObligation =
          "request wall-clock budget exhausted before this procedure ran";
    } else {
      pipeline::Result R =
          pipeline::solveObligations(TM, Vc.Obligations, POpts, &Cache);
      PR.St = statusOf(R.V);
      PR.FailedObligation = R.FailedDescription;
      PR.Counterexample = R.Counterexample;
      PR.Pipeline = R.St;
      ++InstStats.ProcsSolved;
      trace::counter("driver.procs_solved").add();
      if (PR.St != Status::Unknown) {
        PV.St = PR.St;
        PV.NumObligations = PR.NumObligations;
        PV.FailedObligation = PR.FailedObligation;
        PV.Counterexample = PR.Counterexample;
        recordVerdict(K, PV);
      }
    }
    PR.Seconds = seconds(Start);
    if (PSp.active()) {
      PSp.arg("status", PR.St == Status::Verified ? "verified"
                        : PR.St == Status::Failed ? "failed"
                                                  : "unknown");
      if (PR.Cached)
        PSp.arg("cached", 1.0);
    }
    Result.Procs.push_back(std::move(PR));
  }
  return Result;
}
