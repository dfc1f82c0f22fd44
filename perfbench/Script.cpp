//===- perfbench/Script.cpp - Seeded request scripts -----------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Verifier.h"
#include "lang/Parser.h"
#include "smt/Term.h"
#include "vcgen/VcGen.h"

#include <algorithm>
#include <cstring>

using namespace ids;
using namespace perfbench;

namespace {

/// Procedures whose cold solve is a deep search (0.2 s to 10 s); every
/// other procedure solves in milliseconds.
const char *const HeavyProcs[][2] = {
    {"sorted-list", "insert"},
    {"bst", "rotate_right"},
    {"avl", "rotate_right"},
};

/// The edit-loop modules: every procedure solves cold in under 50 ms.
const char *const EditModuleNames[] = {
    "singly-linked-list", "sorted-list-minmax", "circular-list",
    "bst-scaffold",       "red-black-tree",     "treap",
    "scheduler-queue",
};

/// A procedure name no module declares: with it as OnlyProc, a request
/// checks the module's impact sets and verifies no procedure.
const char *const ImpactsOnly = "#impacts";

size_t procStart(const std::string &Src, const std::string &Proc) {
  return Src.find("\nprocedure " + Proc + "(");
}

std::vector<const structures::Benchmark *> suiteModules() {
  std::vector<const structures::Benchmark *> Out;
  for (const structures::Benchmark &B : structures::allBenchmarks())
    Out.push_back(&B);
  return Out;
}

bool isHeavyProc(const std::string &Module, const std::string &Proc) {
  for (const auto &H : HeavyProcs)
    if (Module == H[0] && Proc == H[1])
      return true;
  return false;
}

/// [begin, end) of the procedure's text: up to the next procedure or EOF.
std::pair<size_t, size_t> procSpan(const std::string &Src,
                                   const std::string &Proc) {
  size_t B = procStart(Src, Proc);
  if (B == std::string::npos)
    return {B, B};
  size_t E = Src.find("\nprocedure ", B + 1);
  return {B, E == std::string::npos ? Src.size() : E};
}

} // namespace

bool perfbench::parseWorkload(const std::string &Name, Workload &W) {
  for (Workload C : {Workload::LightCold, Workload::EditLoop})
    if (Name == workloadName(C)) {
      W = C;
      return true;
    }
  return false;
}

const char *perfbench::workloadName(Workload W) {
  switch (W) {
  case Workload::LightCold:
    return "light-cold";
  case Workload::EditLoop:
    return "edit-loop";
  }
  return "?";
}

const char *perfbench::kindName(Kind K) {
  switch (K) {
  case Kind::Proc:
    return "proc";
  case Kind::Impacts:
    return "impacts";
  case Kind::Open:
    return "open";
  case Kind::Prove:
    return "prove";
  case Kind::Refute:
    return "refute";
  }
  return "?";
}

const std::vector<Mutant> &perfbench::mutantTable() {
  static const std::vector<Mutant> Table = {
      {"singly-linked-list", "insert_front", "  Mut(x.prev, z);",
       "l: x.next.prev == x", true},
      {"singly-linked-list", "insert_front", "  Mut(z.length, x.length + 1);",
       "l: x.length == x.next.length + 1"},
      {"singly-linked-list", "insert_front",
       "  Mut(z.keys, {k} union x.keys);",
       "l: x.keys == {x.key} union x.next.keys"},
      {"singly-linked-list", "insert_front",
       "  Mut(z.hslist, {z} union x.hslist);",
       "l: x.hslist == {x} duplus x.next.hslist"},
      {"circular-list", "insert_after", "    Mut(y.prev, z);",
       "c: x.next.prev == x (for z)"},
      {"circular-list", "insert_after", "    Mut(z.prev, x);",
       "c: x.next.prev == x (for x)"},
      {"circular-list", "insert_after", "    Mut(z.last, x.last);",
       "c: x.next.last == x.last"},
      {"circular-list", "insert_after",
       "    Mut(z.rank, ite(x == x.last, y.rank + 1, (x.rank + y.rank) / 2));",
       "c: x != x.last ==> x.rank > x.next.rank"},
      {"bst-scaffold", "register_node", "    Mut(h.sprev, z);",
       "s: x.snext.sprev == x"},
      {"bst-scaffold", "register_node", "    Mut(z.scount, h.scount + 1);",
       "s: x.scount == x.snext.scount + 1"},
      {"bst-scaffold", "register_node", "    Mut(z.min, k);",
       "t: x.l == nil ==> x.min == x.key"},
      {"bst-scaffold", "register_node", "    Mut(z.max, k);",
       "t: x.r == nil ==> x.max == x.key"},
      // paint_root_black updates no ghost map; dropping its one update
      // breaks the postcondition instead of the local condition.
      {"red-black-tree", "paint_root_black", "    Mut(root.red, false);",
       "ensures !root.red"},
      {"scheduler-queue", "enqueue", "    Mut(h.qprev, z);",
       "q: x.qnext.qprev == x"},
      {"scheduler-queue", "enqueue", "    Mut(z.qlen, h.qlen + 1);",
       "q: x.qlen == x.qnext.qlen + 1", true},
      {"scheduler-queue", "enqueue", "    Mut(z.qkeys, {k} union h.qkeys);",
       "q: x.qkeys == {x.key} union x.qnext.qkeys"},
      {"scheduler-queue", "enqueue", "    Mut(z.min, k);",
       "t: x.l == nil ==> x.min == x.key", true},
      {"scheduler-queue", "enqueue", "    Mut(z.max, k);",
       "t: x.r == nil ==> x.max == x.key", true},
  };
  return Table;
}

std::string Request::expectedStatus(const std::string &Proc) const {
  if (K == Kind::Refute && Proc == Edited)
    return "failed";
  const char *S = Bench->expectedStatus(Proc);
  return S ? S : "";
}

std::vector<const structures::Benchmark *> perfbench::editModules() {
  std::vector<const structures::Benchmark *> Out;
  for (const char *N : EditModuleNames)
    Out.push_back(structures::findBenchmark(N));
  return Out;
}

std::string perfbench::proveEdit(const structures::Benchmark &B,
                                 const std::string &Proc, unsigned Literal) {
  DiagEngine Diags;
  std::unique_ptr<lang::Module> M = lang::parseModule(B.Source, Diags);
  const lang::ProcDecl *P = M ? M->findProc(Proc) : nullptr;
  if (!P)
    return "";
  // The assumed term: an int parameter, else the first Loc parameter's
  // first int field.
  std::string Term;
  for (const lang::ParamDecl &Par : P->Params)
    if (Par.Ty.Kind == lang::TypeKind::Int) {
      Term = Par.Name;
      break;
    }
  if (Term.empty())
    for (const lang::ParamDecl &Par : P->Params)
      if (Par.Ty.Kind == lang::TypeKind::Loc) {
        for (const lang::FieldDecl &F : M->Structure.Fields)
          if (F.Ty.Kind == lang::TypeKind::Int) {
            Term = Par.Name + "." + F.Name;
            break;
          }
        break;
      }
  if (Term.empty())
    return "";
  std::string Src = B.Source;
  size_t Body = Src.find("\n{\n", procStart(Src, Proc));
  if (Body == std::string::npos)
    return "";
  size_t At = Body + 3;
  while (Src.compare(At, 6, "  var ") == 0)
    At = Src.find('\n', At) + 1;
  Src.insert(At, "  assume " + Term + " != " + std::to_string(Literal) +
                     ";\n");
  return Src;
}

std::string perfbench::refuteEdit(const structures::Benchmark &B,
                                  const Mutant &M) {
  std::string Src = B.Source;
  auto [Begin, End] = procSpan(Src, M.Proc);
  if (Begin == std::string::npos)
    return "";
  std::string Line = std::string("\n") + M.DroppedLine + "\n";
  size_t At = Src.find(Line, Begin);
  if (At == std::string::npos || At >= End ||
      Src.find(Line, At + 1) < End)
    return "";
  Src.erase(At, Line.size() - 1);
  return Src;
}

std::pair<uint64_t, uint64_t> perfbench::vcKey(smt::TermManager &TM,
                                               const vcgen::ProcVc &Vc) {
  uint64_t Lo = Vc.Obligations.size(), Hi = ~Lo;
  for (const vcgen::Obligation &O : Vc.Obligations) {
    smt::TermRef Q = TM.mkAnd(O.Guard, TM.mkNot(O.Claim));
    Lo = Lo * 0x9e3779b97f4a7c15ull ^ Q->getStructHashLo();
    Hi = Hi * 0x9e3779b97f4a7c15ull ^ Q->getStructHashHi();
  }
  return {Lo, Hi};
}

std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>>
perfbench::vcKeys(const std::string &Source) {
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> Out;
  DiagEngine Diags;
  std::unique_ptr<lang::Module> M = driver::frontEnd(Source, Diags);
  if (!M)
    return Out;
  for (const lang::ImpactDecl &I : M->Structure.Impacts) {
    smt::TermManager TM;
    Out.push_back({"impact:" + I.Field + "[" + I.Group + "]",
                   vcKey(TM, vcgen::generateImpactVc(TM, *M, I))});
  }
  for (const lang::ProcDecl &P : M->Procs) {
    smt::TermManager TM;
    Out.push_back(
        {P.Name, vcKey(TM, vcgen::generateVc(TM, *M, P, vcgen::VcOptions()))});
  }
  return Out;
}

// ---------------------------------------------------------------- Scripts --

ScriptGen::ScriptGen(Workload W, uint64_t Seed) : W(W), Rng(Seed) {}

unsigned ScriptGen::below(unsigned N) {
  return static_cast<unsigned>(Rng() % N);
}

Round ScriptGen::next() {
  switch (W) {
  case Workload::LightCold: {
    Round R;
    for (unsigned I = 0; I < LightPassesPerRound; ++I)
      for (Group &G : lightPass().Groups)
        R.Groups.push_back(std::move(G));
    return R;
  }
  case Workload::EditLoop:
    return editRound();
  }
  return Round();
}

/// Light requests run inline (Jobs=1): with two workers, the hand-off to a
/// woken worker made the wall time of a 5 ms request swing by half from run
/// to run on a shared 4-vCPU machine (264 to 419 verdicts/s, against 510 to
/// 530 inline).
Round ScriptGen::lightPass() {
  std::vector<const structures::Benchmark *> Mods = suiteModules();
  shuffle(Mods);
  Round R;
  for (const structures::Benchmark *B : Mods) {
    Group G;
    Request Imp;
    Imp.K = Kind::Impacts;
    Imp.Bench = B;
    Imp.Source = B->Source;
    Imp.Opts.Jobs = 1;
    Imp.Opts.OnlyProc = ImpactsOnly;
    G.Requests.push_back(Imp);
    for (const structures::ProcExpectation &E : B->Expected) {
      if (isHeavyProc(B->Name, E.Proc))
        continue;
      Request Q;
      Q.K = Kind::Proc;
      Q.Bench = B;
      Q.Source = B->Source;
      Q.Opts.Jobs = 1;
      Q.Opts.OnlyProc = E.Proc;
      Q.Opts.CheckImpacts = false;
      G.Requests.push_back(Q);
    }
    shuffle(G.Requests);
    R.Groups.push_back(std::move(G));
  }
  return R;
}

Round ScriptGen::editRound() {
  std::vector<const structures::Benchmark *> Mods = editModules();
  shuffle(Mods);
  Round R;
  for (const structures::Benchmark *B : Mods)
    R.Groups.push_back(editSession(*B));
  return R;
}

/// Opens the module, then refutes each of its mutants once (a repeated
/// mutant's key is already recorded, so the instance would replay it) and
/// fills the session up with prove edits, in seeded order.
Group ScriptGen::editSession(const structures::Benchmark &B) {
  Request Open;
  Open.K = Kind::Open;
  Open.Bench = &B;
  Open.Source = B.Source;
  Open.Opts.Jobs = 1;
  std::vector<Request> Edits;
  for (const Mutant &M : mutantTable())
    if (!M.KnownUnknown && std::strcmp(M.Module, B.Name) == 0) {
      Request Q = Open;
      Q.K = Kind::Refute;
      Q.Mut = &M;
      Q.Edited = M.Proc;
      Q.Source = refuteEdit(B, M);
      Edits.push_back(std::move(Q));
    }
  while (Edits.size() < EditsPerSession) {
    Request Q = Open;
    Q.K = Kind::Prove;
    Q.Edited = B.Expected[below(B.Expected.size())].Proc;
    Q.Source = proveEdit(B, Q.Edited, NextLiteral++);
    Edits.push_back(std::move(Q));
  }
  shuffle(Edits);
  Group G;
  G.Requests.push_back(Open);
  for (Request &Q : Edits)
    G.Requests.push_back(std::move(Q));
  return G;
}

// ------------------------------------------------------------- Statistics --

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

Tail perfbench::tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.size() < 11)
    return T;
  std::sort(V.begin(), V.end());
  size_t Rank = V.size() - 10; // 1-based rank with ten samples above it
  T.Value = V[Rank - 1];
  T.Percentile = 100.0 * Rank / V.size();
  T.Beyond = V.size() - Rank;
  T.Valid = true;
  return T;
}
