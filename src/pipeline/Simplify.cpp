//===- pipeline/Simplify.cpp - VC simplification pass ----------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Simplify.h"

#include <algorithm>

using namespace ids;
using namespace ids::pipeline;
using namespace ids::smt;

namespace {

/// The top-level conjuncts of a guard (a non-And guard is its own sole
/// conjunct): the unit of the guard-equality propagation.
std::vector<TermRef> guardConjuncts(TermRef Guard) {
  if (Guard->getKind() == TermKind::And)
    return Guard->getArgs();
  return {Guard};
}

/// Distinctness provable from the terms alone: two different interned
/// values of the same sort denote different elements (Int/Rat/Bool
/// constants are interpreted).
bool provablyDistinct(TermRef A, TermRef B) {
  return A != B && A->isValue() && B->isValue();
}

/// Adds every free Var of \p T to \p Out.
void collectVars(TermRef T, std::unordered_set<TermRef> &Out) {
  std::vector<TermRef> Work = {T};
  std::unordered_set<TermRef> Seen;
  while (!Work.empty()) {
    TermRef Cur = Work.back();
    Work.pop_back();
    if (!Seen.insert(Cur).second)
      continue;
    if (Cur->getKind() == TermKind::Var)
      Out.insert(Cur);
    for (TermRef Arg : Cur->getArgs())
      Work.push_back(Arg);
  }
}

} // namespace

void pipeline::extendModel(Model &M,
                           const std::vector<Elimination> &Eliminated,
                           TermRef Orig) {
  for (auto It = Eliminated.rbegin(); It != Eliminated.rend(); ++It)
    M.set(It->first, M.eval(It->second));
  std::unordered_set<TermRef> Vars;
  collectVars(Orig, Vars);
  for (TermRef V : Vars)
    if (!M.has(V))
      M.set(V, Model::defaultFor(V->getSort()));
}

TermRef Simplifier::simplifySelect(TermRef Array, TermRef Index) {
  // Walk past stores at provably distinct indices; stop at the first
  // store whose index might alias. Then expand reads over the pointwise
  // combinators so boolean simplification (and further store walking in
  // the branches) can fire. The (array, index) memo keeps the expansion
  // linear when combinator operands are DAG-shared.
  auto Memo = SelectCache.find({Array, Index});
  if (Memo != SelectCache.end())
    return Memo->second;
  TermRef OrigArray = Array;
  TermRef Result = nullptr;
  for (;;) {
    if (Array->getKind() == TermKind::Store) {
      if (Array->getArg(1) == Index) {
        Result = Array->getArg(2);
        break;
      }
      if (provablyDistinct(Array->getArg(1), Index)) {
        Array = Array->getArg(0);
        continue;
      }
      break;
    }
    if (Array->getKind() == TermKind::ConstArray) {
      Result = Array->getArg(0);
      break;
    }
    if (Array->getKind() == TermKind::MapOr) {
      Result = TM.mkOr(simplifySelect(Array->getArg(0), Index),
                       simplifySelect(Array->getArg(1), Index));
      break;
    }
    if (Array->getKind() == TermKind::MapAnd) {
      Result = TM.mkAnd(simplifySelect(Array->getArg(0), Index),
                        simplifySelect(Array->getArg(1), Index));
      break;
    }
    if (Array->getKind() == TermKind::MapDiff) {
      Result = TM.mkAnd(simplifySelect(Array->getArg(0), Index),
                        TM.mkNot(simplifySelect(Array->getArg(1), Index)));
      break;
    }
    if (Array->getKind() == TermKind::PwIte) {
      Result = TM.mkIte(simplifySelect(Array->getArg(0), Index),
                        simplifySelect(Array->getArg(1), Index),
                        simplifySelect(Array->getArg(2), Index));
      break;
    }
    break;
  }
  if (!Result)
    Result = TM.mkSelect(Array, Index);
  SelectCache.emplace(std::make_pair(OrigArray, Index), Result);
  return Result;
}

TermRef Simplifier::rewriteNode(TermRef T, const std::vector<TermRef> &Args) {
  switch (T->getKind()) {
  case TermKind::Not:
    return TM.mkNot(Args[0]);
  case TermKind::And:
  case TermKind::Or: {
    bool IsAnd = T->getKind() == TermKind::And;
    TermRef R = IsAnd ? TM.mkAnd(Args) : TM.mkOr(Args);
    if (R->getKind() != T->getKind())
      return R;
    // Complementary-literal collapse the smart constructor skips.
    std::unordered_set<TermRef> Present(R->getArgs().begin(),
                                        R->getArgs().end());
    for (TermRef A : R->getArgs())
      if (A->getKind() == TermKind::Not && Present.count(A->getArg(0)))
        return IsAnd ? TM.mkFalse() : TM.mkTrue();
    return R;
  }
  case TermKind::Implies:
    return TM.mkImplies(Args[0], Args[1]);
  case TermKind::Ite:
    return TM.mkIte(Args[0], Args[1], Args[2]);
  case TermKind::Eq:
    return TM.mkEq(Args[0], Args[1]);
  case TermKind::Add:
    return TM.mkAdd(Args);
  case TermKind::Mul:
    return TM.mkMulConst(Args[0]->getKind() == TermKind::IntConst
                             ? Rational(Args[0]->getIntValue())
                             : Args[0]->getRatValue(),
                         Args[1]);
  case TermKind::Le:
    return TM.mkLe(Args[0], Args[1]);
  case TermKind::Lt:
    return TM.mkLt(Args[0], Args[1]);
  case TermKind::Select:
    return simplifySelect(Args[0], Args[1]);
  case TermKind::Store:
    return TM.mkStore(Args[0], Args[1], Args[2]);
  case TermKind::ConstArray:
    return TM.mkConstArray(T->getSort(), Args[0]);
  case TermKind::MapOr:
    return TM.mkMapOr(Args[0], Args[1]);
  case TermKind::MapAnd:
    return TM.mkMapAnd(Args[0], Args[1]);
  case TermKind::MapDiff:
    return TM.mkMapDiff(Args[0], Args[1]);
  case TermKind::PwIte:
    return TM.mkPwIte(Args[0], Args[1], Args[2]);
  case TermKind::Apply:
    return TM.mkApply(T->getDecl(), Args);
  case TermKind::Forall: {
    std::vector<TermRef> Bound = T->getBoundVars();
    return TM.mkForall(std::move(Bound), Args[0]);
  }
  default:
    return T; // leaves
  }
}

TermRef Simplifier::rewrite(TermRef T) {
  std::vector<TermRef> Stack = {T};
  while (!Stack.empty()) {
    TermRef Cur = Stack.back();
    if (Cache.count(Cur)) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (TermRef Arg : Cur->getArgs())
      if (!Cache.count(Arg)) {
        Stack.push_back(Arg);
        Ready = false;
      }
    if (!Ready)
      continue;
    Stack.pop_back();
    std::vector<TermRef> Args;
    Args.reserve(Cur->getNumArgs());
    for (TermRef Arg : Cur->getArgs())
      Args.push_back(Cache[Arg]);
    Cache.emplace(Cur, rewriteNode(Cur, Args));
  }
  return Cache[T];
}

bool Simplifier::nextRound(const std::vector<TermRef> &Conjuncts, Round &R) {
  // A set {x_i == t_i} may be eliminated simultaneously only when no x_i
  // occurs in any t_j: then every x_i is gone after substitution, each
  // dropped equality is independently satisfiable, and Guard /\ !Claim is
  // equisatisfiable with its substituted form. Build the set greedily
  // under that invariant.
  std::unordered_set<TermRef> RhsVars;
  std::vector<bool> Consumed(Conjuncts.size(), false);

  for (size_t I = 0; I < Conjuncts.size(); ++I) {
    TermRef C = Conjuncts[I];
    TermRef Key = nullptr, Rhs = nullptr;
    if (C->getKind() == TermKind::Eq) {
      // mkEq orders args by id; prefer eliminating the younger variable.
      if (C->getArg(1)->getKind() == TermKind::Var) {
        Key = C->getArg(1);
        Rhs = C->getArg(0);
      } else if (C->getArg(0)->getKind() == TermKind::Var) {
        Key = C->getArg(0);
        Rhs = C->getArg(1);
      }
    } else if (C->getKind() == TermKind::Var) {
      Key = C;
      Rhs = TM.mkTrue();
    } else if (C->getKind() == TermKind::Not &&
               C->getArg(0)->getKind() == TermKind::Var) {
      Key = C->getArg(0);
      Rhs = TM.mkFalse();
    }
    if (!Key || R.Map.count(Key) || RhsVars.count(Key))
      continue;
    // Occurs check against the accepted keys plus the candidate itself,
    // done in one DFS over Rhs (no per-candidate copy of the keys: guards
    // are dominated by incarnation equalities, so this is a hot loop).
    std::unordered_set<TermRef> CandVars;
    collectVars(Rhs, CandVars);
    if (CandVars.count(Key) ||
        std::any_of(CandVars.begin(), CandVars.end(),
                    [&](TermRef V) { return R.Map.count(V) != 0; }))
      continue; // occurs check / would re-introduce an eliminated var
    R.Map.emplace(Key, Rhs);
    R.Eliminated.emplace_back(Key, Rhs);
    RhsVars.insert(CandVars.begin(), CandVars.end());
    Consumed[I] = true;
  }
  if (R.Map.empty())
    return false;

  R.Next.reserve(Conjuncts.size());
  for (size_t I = 0; I < Conjuncts.size(); ++I)
    if (!Consumed[I])
      R.Next.push_back(rewrite(TM.substitute(Conjuncts[I], R.Map, R.Memo)));
  return true;
}

bool Simplifier::simplifyObligation(TermRef &Guard, TermRef &Claim,
                                    std::vector<Elimination> *Eliminated) {
  Guard = rewrite(Guard);
  Claim = rewrite(Claim);
  GuardRun &Run = Runs[Guard];
  constexpr unsigned MaxRounds = 8;
  for (size_t I = 0; I < MaxRounds; ++I) {
    if (Claim == TM.mkTrue() || Guard == TM.mkFalse())
      break;
    bool Fresh = I == Run.Rounds.size();
    if (Fresh) {
      Round R;
      if (Run.Done || !nextRound(guardConjuncts(Guard), R)) {
        Run.Done = true;
        break;
      }
      Run.Rounds.push_back(std::move(R));
    }
    Round &R = Run.Rounds[I];
    Claim = rewrite(TM.substitute(Claim, R.Map, R.Memo));
    // Intern the next guard after the claim, as the loop run per
    // obligation does: term ids, and so the queries, do not depend on
    // which obligation of the batch computed the round.
    if (Fresh)
      R.Guard = TM.mkAnd(R.Next);
    if (Eliminated)
      Eliminated->insert(Eliminated->end(), R.Eliminated.begin(),
                         R.Eliminated.end());
    Guard = R.Guard;
  }
  std::vector<TermRef> Conjuncts = guardConjuncts(Guard);

  bool Proved = false;
  if (Claim == TM.mkTrue() || Guard == TM.mkFalse()) {
    Proved = true;
  } else {
    // Syntactic subsumption: every claim conjunct already a guard
    // conjunct (or, for a disjunctive claim, some disjunct is).
    std::unordered_set<TermRef> GuardSet(Conjuncts.begin(), Conjuncts.end());
    if (GuardSet.count(Claim)) {
      Proved = true;
    } else if (Claim->getKind() == TermKind::And) {
      Proved = std::all_of(
          Claim->getArgs().begin(), Claim->getArgs().end(),
          [&](TermRef C) { return GuardSet.count(C) != 0; });
    } else if (Claim->getKind() == TermKind::Or) {
      Proved = std::any_of(
          Claim->getArgs().begin(), Claim->getArgs().end(),
          [&](TermRef C) { return GuardSet.count(C) != 0; });
    }
  }
  return Proved;
}
