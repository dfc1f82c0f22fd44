//===- smt/QuantInst.cpp - Ground quantifier instantiation ----------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/QuantInst.h"

#include <map>
#include <unordered_set>

using namespace ids;
using namespace ids::smt;

namespace {
/// Collects ground subterms (terms not containing any registered bound
/// variable) grouped by sort.
class GroundTerms {
public:
  GroundTerms(const std::unordered_set<TermRef> &BoundVars)
      : BoundVars(BoundVars) {}

  void collect(TermRef T) {
    if (!Visited.insert(T).second)
      return;
    bool HasBound = BoundVars.count(T) != 0;
    for (TermRef A : T->getArgs()) {
      collect(A);
      HasBound |= NonGround.count(A) != 0;
    }
    if (HasBound) {
      NonGround.insert(T);
      return;
    }
    BySort[T->getSort()].push_back(T);
  }

  const std::vector<TermRef> &forSort(const Sort *S) {
    return BySort[S];
  }

private:
  const std::unordered_set<TermRef> &BoundVars;
  std::unordered_set<TermRef> Visited, NonGround;
  std::map<const Sort *, std::vector<TermRef>> BySort;
};

/// One instantiation pass: polarity-directed rewrite of Forall nodes.
class InstPass {
public:
  InstPass(TermManager &TM, GroundTerms &Ground, unsigned MaxInst,
           QuantInstResult &Result)
      : TM(TM), Ground(Ground), MaxInst(MaxInst), Result(Result) {}

  TermRef visit(TermRef T, bool Positive) {
    auto Key = std::make_pair(T, Positive);
    auto It = Cache.find(Key);
    if (It != Cache.end())
      return It->second;
    TermRef R = compute(T, Positive);
    Cache.emplace(Key, R);
    return R;
  }

private:
  TermRef compute(TermRef T, bool Positive) {
    switch (T->getKind()) {
    case TermKind::Not:
      return TM.mkNot(visit(T->getArg(0), !Positive));
    case TermKind::And:
    case TermKind::Or: {
      std::vector<TermRef> Args;
      Args.reserve(T->getNumArgs());
      for (TermRef A : T->getArgs())
        Args.push_back(visit(A, Positive));
      return T->getKind() == TermKind::And ? TM.mkAnd(std::move(Args))
                                           : TM.mkOr(std::move(Args));
    }
    case TermKind::Ite:
      if (T->getSort()->isBool() && quantified(T)) {
        // cond appears in both polarities; rewrite as implications.
        TermRef C = T->getArg(0);
        return visit(TM.mkAnd(TM.mkImplies(C, T->getArg(1)),
                              TM.mkImplies(TM.mkNot(C), T->getArg(2))),
                     Positive);
      }
      return T;
    case TermKind::Eq:
      if (T->getArg(0)->getSort()->isBool() && quantified(T)) {
        TermRef A = T->getArg(0), B = T->getArg(1);
        return visit(TM.mkAnd(TM.mkImplies(A, B), TM.mkImplies(B, A)),
                     Positive);
      }
      return T;
    case TermKind::Forall: {
      if (!Positive) {
        // Existential after negation: skolemise.
        std::unordered_map<TermRef, TermRef> SkolemMap;
        for (TermRef BV : T->getBoundVars())
          SkolemMap[BV] = TM.mkFreshVar("sk", BV->getSort());
        return visit(TM.substitute(T->getArg(0), SkolemMap), Positive);
      }
      // Universal: instantiate over ground terms of matching sorts.
      const std::vector<TermRef> &BVs = T->getBoundVars();
      std::vector<const std::vector<TermRef> *> Domains;
      size_t Total = 1;
      for (TermRef BV : BVs) {
        const std::vector<TermRef> &D = Ground.forSort(BV->getSort());
        if (D.empty()) {
          Result.Complete = false;
          return TM.mkTrue();
        }
        Domains.push_back(&D);
        Total *= D.size();
      }
      Result.Complete = false; // enumerative instantiation is heuristic
      std::vector<TermRef> Instances;
      std::vector<size_t> Cursor(BVs.size(), 0);
      size_t Count = 0;
      for (;;) {
        if (Count >= MaxInst)
          break;
        std::unordered_map<TermRef, TermRef> Map;
        for (size_t I = 0; I < BVs.size(); ++I)
          Map[BVs[I]] = (*Domains[I])[Cursor[I]];
        Instances.push_back(visit(TM.substitute(T->getArg(0), Map), true));
        ++Count;
        ++Result.NumInstantiations;
        // Advance the tuple cursor.
        size_t D = 0;
        while (D < Cursor.size()) {
          if (++Cursor[D] < Domains[D]->size())
            break;
          Cursor[D] = 0;
          ++D;
        }
        if (D == Cursor.size())
          break;
      }
      (void)Total;
      return TM.mkAnd(std::move(Instances));
    }
    default:
      return T;
    }
  }

  bool quantified(TermRef T) { return TM.containsQuantifier(T); }

  TermManager &TM;
  GroundTerms &Ground;
  unsigned MaxInst;
  QuantInstResult &Result;
  std::map<std::pair<TermRef, bool>, TermRef> Cache;
};
} // namespace

QuantInstResult smt::instantiateQuantifiers(TermManager &TM,
                                            TermRef Formula) {
  constexpr unsigned Rounds = 2;
  constexpr unsigned MaxInstPerQuant = 2048;
  QuantInstResult Result;
  Result.Formula = Formula;
  if (!TM.containsQuantifier(Formula))
    return Result;

  TermRef Current = Formula;
  for (unsigned R = 0; R < Rounds && TM.containsQuantifier(Current); ++R) {
    // Bound variables of every quantifier in the current formula.
    std::unordered_set<TermRef> BoundVars;
    {
      std::unordered_set<TermRef> Seen;
      std::vector<TermRef> Work = {Current};
      while (!Work.empty()) {
        TermRef T = Work.back();
        Work.pop_back();
        if (!Seen.insert(T).second)
          continue;
        if (T->getKind() == TermKind::Forall)
          for (TermRef BV : T->getBoundVars())
            BoundVars.insert(BV);
        for (TermRef A : T->getArgs())
          Work.push_back(A);
      }
    }
    GroundTerms Ground(BoundVars);
    Ground.collect(Current);
    InstPass Pass(TM, Ground, MaxInstPerQuant, Result);
    Current = Pass.visit(Current, true);
  }
  // Any quantifier still left (nested under uninstantiated structure) is
  // approximated away; drop by replacing with true in positive positions.
  if (TM.containsQuantifier(Current)) {
    Result.Complete = false;
    std::unordered_set<TermRef> BoundVars;
    GroundTerms Ground(BoundVars);
    Ground.collect(Current);
    InstPass Pass(TM, Ground, 0, Result);
    Current = Pass.visit(Current, true);
  }
  Result.Formula = Current;
  return Result;
}
