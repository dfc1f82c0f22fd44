//===- smt/ArrayReduction.cpp - Eager array-theory reduction --------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/ArrayReduction.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace ids;
using namespace ids::smt;

namespace {
/// Ite-lifting rewriter.
class IteLifter {
public:
  explicit IteLifter(TermManager &TM) : TM(TM) {}

  TermRef run(TermRef F) {
    TermRef Core = visit(F);
    if (Defs.empty())
      return Core;
    Defs.push_back(Core);
    return TM.mkAnd(std::move(Defs));
  }

private:
  TermRef visit(TermRef T) {
    if (T->getArgs().empty())
      return T;
    auto It = Cache.find(T);
    if (It != Cache.end())
      return It->second;
    TermRef Result = compute(T);
    Cache.emplace(T, Result);
    return Result;
  }

  TermRef compute(TermRef T) {
    std::vector<TermRef> NewArgs;
    NewArgs.reserve(T->getNumArgs());
    for (TermRef A : T->getArgs())
      NewArgs.push_back(visit(A));
    // Most subterms contain no ite: keep them as they are instead of
    // re-interning an identical node.
    TermRef Rebuilt = NewArgs == T->getArgs() ? T : rebuild(T, NewArgs);
    if (Rebuilt->getKind() == TermKind::Ite &&
        !Rebuilt->getSort()->isBool()) {
      TermRef V = TM.mkFreshVar("ite", Rebuilt->getSort());
      Defs.push_back(TM.mkImplies(Rebuilt->getArg(0),
                                  TM.mkEq(V, Rebuilt->getArg(1))));
      Defs.push_back(TM.mkImplies(TM.mkNot(Rebuilt->getArg(0)),
                                  TM.mkEq(V, Rebuilt->getArg(2))));
      return V;
    }
    return Rebuilt;
  }

  TermRef rebuild(TermRef T, std::vector<TermRef> &NewArgs) {
    switch (T->getKind()) {
    case TermKind::Not:
      return TM.mkNot(NewArgs[0]);
    case TermKind::And:
      return TM.mkAnd(std::move(NewArgs));
    case TermKind::Or:
      return TM.mkOr(std::move(NewArgs));
    case TermKind::Ite:
      return TM.mkIte(NewArgs[0], NewArgs[1], NewArgs[2]);
    case TermKind::Eq:
      return TM.mkEq(NewArgs[0], NewArgs[1]);
    case TermKind::Add:
      return TM.mkAdd(std::move(NewArgs));
    case TermKind::Mul:
      return TM.mkMulConst(NewArgs[0]->getKind() == TermKind::IntConst
                               ? Rational(NewArgs[0]->getIntValue())
                               : NewArgs[0]->getRatValue(),
                           NewArgs[1]);
    case TermKind::Le:
      return TM.mkLe(NewArgs[0], NewArgs[1]);
    case TermKind::Lt:
      return TM.mkLt(NewArgs[0], NewArgs[1]);
    case TermKind::Select:
      return TM.mkSelect(NewArgs[0], NewArgs[1]);
    case TermKind::Store:
      return TM.mkStore(NewArgs[0], NewArgs[1], NewArgs[2]);
    case TermKind::ConstArray:
      return TM.mkConstArray(T->getSort(), NewArgs[0]);
    case TermKind::MapOr:
      return TM.mkMapOr(NewArgs[0], NewArgs[1]);
    case TermKind::MapAnd:
      return TM.mkMapAnd(NewArgs[0], NewArgs[1]);
    case TermKind::MapDiff:
      return TM.mkMapDiff(NewArgs[0], NewArgs[1]);
    case TermKind::PwIte:
      return TM.mkPwIte(NewArgs[0], NewArgs[1], NewArgs[2]);
    case TermKind::Apply:
      return TM.mkApply(T->getDecl(), std::move(NewArgs));
    case TermKind::Forall:
      assert(false && "lift ites after quantifier elimination");
      return T;
    default:
      return T;
    }
  }

  TermManager &TM;
  std::unordered_map<TermRef, TermRef> Cache;
  std::vector<TermRef> Defs;
};

/// Collects every subterm of a DAG once.
void collectSubterms(TermRef T, std::unordered_set<TermRef> &Out) {
  if (!Out.insert(T).second)
    return;
  for (TermRef A : T->getArgs())
    collectSubterms(A, Out);
}

/// Marks the polarities under which each Eq-over-arrays atom occurs.
/// Bit 1 = positive, bit 2 = negative. \p NegOrderOut receives each atom
/// once, in traversal order, when it first gains the negative bit —
/// witness emission iterates it instead of the unordered map, so the
/// fresh witness variables are minted in a deterministic order.
void markPolarities(TermRef T, int Pol,
                    std::unordered_map<TermRef, int> &Out,
                    std::unordered_map<TermRef, int> &Seen,
                    std::vector<TermRef> &NegOrderOut) {
  int &Visited = Seen[T]; // one bit per polarity already walked
  if (Visited & (1 << Pol))
    return;
  Visited |= 1 << Pol;
  switch (T->getKind()) {
  case TermKind::Not:
    // Both-polarity stays both-polarity under negation (3 ^ 3 would
    // wrongly drop to "neither").
    markPolarities(T->getArg(0), Pol == 3 ? 3 : Pol ^ 3, Out, Seen,
                   NegOrderOut);
    return;
  case TermKind::And:
  case TermKind::Or:
    for (TermRef A : T->getArgs())
      markPolarities(A, Pol, Out, Seen, NegOrderOut);
    return;
  case TermKind::Ite:
    // Boolean ite only (non-boolean are lifted). Condition sees both
    // polarities, the branches keep the current one.
    markPolarities(T->getArg(0), 3, Out, Seen, NegOrderOut);
    markPolarities(T->getArg(1), Pol, Out, Seen, NegOrderOut);
    markPolarities(T->getArg(2), Pol, Out, Seen, NegOrderOut);
    return;
  case TermKind::Eq:
    if (T->getArg(0)->getSort()->isBool()) {
      // Iff: sub-atoms occur in both polarities.
      markPolarities(T->getArg(0), 3, Out, Seen, NegOrderOut);
      markPolarities(T->getArg(1), 3, Out, Seen, NegOrderOut);
      return;
    }
    if (T->getArg(0)->getSort()->isArray()) {
      if ((Pol & 2) && !(Out[T] & 2))
        NegOrderOut.push_back(T);
      Out[T] |= Pol;
    }
    return;
  default:
    return;
  }
}

bool isCompositeArray(TermRef T) {
  switch (T->getKind()) {
  case TermKind::Store:
  case TermKind::ConstArray:
  case TermKind::MapOr:
  case TermKind::MapAnd:
  case TermKind::MapDiff:
  case TermKind::PwIte:
    return true;
  default:
    return false;
  }
}
} // namespace

TermRef smt::liftItes(TermManager &TM, TermRef Formula) {
  IteLifter L(TM);
  return L.run(Formula);
}

TermRef smt::reduceArrays(TermManager &TM, TermRef Formula,
                          ArrayReductionStats *Stats, bool Eager) {
  std::vector<TermRef> Lemmas;

  // Step 1: witnesses for array equalities that occur negatively.
  {
    std::unordered_map<TermRef, int> Polarities;
    std::unordered_map<TermRef, int> Seen;
    std::vector<TermRef> NegEqs;
    markPolarities(Formula, 1, Polarities, Seen, NegEqs);
    for (TermRef EqTerm : NegEqs) {
      TermRef A = EqTerm->getArg(0), B = EqTerm->getArg(1);
      TermRef W = TM.mkFreshVar("extw", A->getSort()->getKey());
      // a == b  \/  a[w] != b[w]
      Lemmas.push_back(TM.mkOr(
          EqTerm, TM.mkNot(TM.mkEq(TM.mkSelect(A, W), TM.mkSelect(B, W)))));
      if (Stats)
        ++Stats->NumWitnesses;
    }
  }

  // Step 2: gather array terms and index terms (from the formula and the
  // witness lemmas). Iteration over the unordered subterm set is made
  // deterministic by sorting on term ids — lemma instantiation order
  // must not depend on pointer hashing, or budgeted runs flake.
  std::unordered_set<TermRef> AllSet;
  collectSubterms(Formula, AllSet);
  for (TermRef L : Lemmas)
    collectSubterms(L, AllSet);
  std::vector<TermRef> All(AllSet.begin(), AllSet.end());
  std::sort(All.begin(), All.end(),
            [](TermRef A, TermRef B) { return A->getId() < B->getId(); });

  // Relevancy-driven instantiation (replaces blind per-sort or
  // per-component products): a read-over-composite axiom for (A, I) is
  // needed only when some select actually demands A at I. Demands seed
  // from every select in the formula/witness lemmas and propagate
  //   - down through structure: peeling a store demands its base, the
  //     pointwise combinators demand their operands (and the pwIte its
  //     guard), each at the same index, exactly mirroring the select
  //     terms their axioms introduce, and
  //   - across array equality atoms: congruence makes select(B, I)
  //     relevant whenever A == B occurs and select(A, I) is demanded.
  // The demand closure is a unique fixpoint, so the emitted lemma SET is
  // deterministic (emission iterates it in term-id order). Demanding
  // fewer pairs than the old blind product can only under-approximate
  // toward Sat, and Sat answers are validated against the original
  // formula by the model evaluator — failures surface as Unknown, never
  // as a wrong verdict; the pipeline differential fuzzer and the
  // e2e-nopipe suite guard exactly this.
  std::map<const Sort *, std::vector<TermRef>> IndexTerms;
  {
    std::set<std::pair<const Sort *, TermRef>> IndexSeen;
    unsigned NumArrayTerms = 0;
    for (TermRef T : All) {
      if (T->getSort()->isArray())
        ++NumArrayTerms;
      if (T->getKind() == TermKind::Select ||
          T->getKind() == TermKind::Store) {
        TermRef Index = T->getArg(1);
        const Sort *KeySort = T->getArg(0)->getSort()->getKey();
        if (IndexSeen.insert({KeySort, Index}).second)
          IndexTerms[KeySort].push_back(Index);
      }
    }
    if (Stats) {
      Stats->NumArrayTerms = NumArrayTerms;
      for (const auto &[S, V] : IndexTerms)
        Stats->NumIndexTerms += static_cast<unsigned>(V.size());
    }
  }

  std::unordered_map<TermRef, std::vector<TermRef>> EqAdj;
  for (TermRef T : All)
    if (T->getKind() == TermKind::Eq && T->getArg(0)->getSort()->isArray()) {
      EqAdj[T->getArg(0)].push_back(T->getArg(1));
      EqAdj[T->getArg(1)].push_back(T->getArg(0));
    }

  // Upward demand edges. An array equality pins the VALUE of its sides,
  // so an index demanded anywhere below a side (on an operand of its
  // combinator tree) must also be demanded on the enclosing combinators
  // — `mapAnd(single, S2) == empty` with `x in S2` asserted needs the
  // mapAnd instantiated at x, although no select reads the mapAnd there.
  // Restricting the upward flow to the operand closure of equality-atom
  // sides keeps it from degenerating into the blind product.
  std::unordered_map<TermRef, std::vector<TermRef>> UpEdges;
  {
    std::unordered_set<TermRef> UpSet;
    std::vector<TermRef> UpWork;
    auto MarkUp = [&](TermRef T) {
      if (T->getSort()->isArray() && UpSet.insert(T).second)
        UpWork.push_back(T);
    };
    for (TermRef T : All)
      if (T->getKind() == TermKind::Eq &&
          T->getArg(0)->getSort()->isArray()) {
        MarkUp(T->getArg(0));
        MarkUp(T->getArg(1));
      }
    while (!UpWork.empty()) {
      TermRef C = UpWork.back();
      UpWork.pop_back();
      switch (C->getKind()) {
      case TermKind::Store:
      case TermKind::MapOr:
      case TermKind::MapAnd:
      case TermKind::MapDiff:
      case TermKind::PwIte:
        for (TermRef O : C->getArgs())
          if (O->getSort()->isArray()) {
            UpEdges[O].push_back(C);
            MarkUp(O);
          }
        break;
      default:
        break;
      }
    }
  }

  std::set<std::pair<TermRef, TermRef>> Need; // (array term, index)
  std::vector<std::pair<TermRef, TermRef>> NeedWork;
  auto Demand = [&](TermRef A, TermRef I) {
    if (!A->getSort()->isArray() || A->getSort()->getKey() != I->getSort())
      return;
    if (Need.insert({A, I}).second)
      NeedWork.push_back({A, I});
  };
  for (TermRef T : All)
    if (T->getKind() == TermKind::Select)
      Demand(T->getArg(0), T->getArg(1));
  if (Eager) {
    // Blind product: every array term is demanded at every index term of
    // its key sort (the demand closure below then only adds more).
    for (TermRef T : All) {
      if (!T->getSort()->isArray())
        continue;
      auto It = IndexTerms.find(T->getSort()->getKey());
      if (It == IndexTerms.end())
        continue;
      for (TermRef I : It->second)
        Demand(T, I);
    }
  }
  while (!NeedWork.empty()) {
    auto [A, I] = NeedWork.back();
    NeedWork.pop_back();
    switch (A->getKind()) {
    case TermKind::Store:
      Demand(A->getArg(0), I);
      break;
    case TermKind::MapOr:
    case TermKind::MapAnd:
    case TermKind::MapDiff:
      Demand(A->getArg(0), I);
      Demand(A->getArg(1), I);
      break;
    case TermKind::PwIte:
      Demand(A->getArg(0), I);
      Demand(A->getArg(1), I);
      Demand(A->getArg(2), I);
      break;
    default:
      break;
    }
    auto AdjIt = EqAdj.find(A);
    if (AdjIt != EqAdj.end())
      for (TermRef B : AdjIt->second)
        Demand(B, I);
    auto UpIt = UpEdges.find(A);
    if (UpIt != UpEdges.end())
      for (TermRef C : UpIt->second)
        Demand(C, I);
  }

  // Per-array demanded index lists (term-id order) for the equality step.
  std::unordered_map<TermRef, std::vector<TermRef>> DemandedIndices;
  {
    std::vector<std::pair<TermRef, TermRef>> Ordered(Need.begin(),
                                                     Need.end());
    std::sort(Ordered.begin(), Ordered.end(),
              [](const auto &L, const auto &R) {
                return std::make_pair(L.first->getId(), L.second->getId()) <
                       std::make_pair(R.first->getId(), R.second->getId());
              });
    for (const auto &[A, I] : Ordered)
      DemandedIndices[A].push_back(I);

    // Step 3: read-over-composite axioms for every demanded pair.
    for (const auto &[A, I] : Ordered) {
      if (!isCompositeArray(A))
        continue;
      TermRef SelAI = TM.mkSelect(A, I);
      switch (A->getKind()) {
      case TermKind::Store: {
        TermRef Base = A->getArg(0), J = A->getArg(1), V = A->getArg(2);
        TermRef Same = TM.mkEq(I, J);
        Lemmas.push_back(TM.mkImplies(Same, TM.mkEq(SelAI, V)));
        Lemmas.push_back(
            TM.mkImplies(TM.mkNot(Same),
                         TM.mkEq(SelAI, TM.mkSelect(Base, I))));
        break;
      }
      case TermKind::ConstArray:
        Lemmas.push_back(TM.mkEq(SelAI, A->getArg(0)));
        break;
      case TermKind::MapOr:
        Lemmas.push_back(TM.mkEq(
            SelAI, TM.mkOr(TM.mkSelect(A->getArg(0), I),
                           TM.mkSelect(A->getArg(1), I))));
        break;
      case TermKind::MapAnd:
        Lemmas.push_back(TM.mkEq(
            SelAI, TM.mkAnd(TM.mkSelect(A->getArg(0), I),
                            TM.mkSelect(A->getArg(1), I))));
        break;
      case TermKind::MapDiff:
        Lemmas.push_back(TM.mkEq(
            SelAI,
            TM.mkAnd(TM.mkSelect(A->getArg(0), I),
                     TM.mkNot(TM.mkSelect(A->getArg(1), I)))));
        break;
      case TermKind::PwIte: {
        TermRef Guard = TM.mkSelect(A->getArg(0), I);
        Lemmas.push_back(TM.mkImplies(
            Guard, TM.mkEq(SelAI, TM.mkSelect(A->getArg(1), I))));
        Lemmas.push_back(TM.mkImplies(
            TM.mkNot(Guard), TM.mkEq(SelAI, TM.mkSelect(A->getArg(2), I))));
        break;
      }
      default:
        break;
      }
    }
  }

  // Step 4: read-over-equality. When an array equality atom is asserted,
  // congruence alone cannot connect `select(A, i)` with the semantics of a
  // composite right-hand side whose select folds at construction (constant
  // arrays, store at the same index). Instantiate
  //     Eq(A,B) => select(A,i) == select(B,i)
  // for every array-equality atom and the relevant (demanded) indices.
  // New equalities between nested (set-valued) selects are processed
  // transitively; the loop terminates because sort nesting is finite.
  {
    std::set<TermRef> EqAtoms;
    std::vector<TermRef> Work;
    auto ConsiderEq = [&](TermRef T) {
      if (T->getKind() == TermKind::Eq &&
          T->getArg(0)->getSort()->isArray() && EqAtoms.insert(T).second)
        Work.push_back(T);
    };
    for (TermRef T : All)
      ConsiderEq(T);
    while (!Work.empty()) {
      TermRef EqT = Work.back();
      Work.pop_back();
      TermRef A = EqT->getArg(0), B = EqT->getArg(1);
      // Only selects that FOLD at construction need this: const arrays
      // (every index folds) and stores (their own index folds). Selects
      // over the other combinators materialise as terms, so the merged
      // equivalence class already carries their constraints.
      auto Emit = [&](TermRef I) {
        TermRef SelEq = TM.mkEq(TM.mkSelect(A, I), TM.mkSelect(B, I));
        if (SelEq == TM.mkTrue())
          return;
        Lemmas.push_back(TM.mkImplies(EqT, SelEq));
        ConsiderEq(SelEq);
      };
      bool ConstInvolved = A->getKind() == TermKind::ConstArray ||
                           B->getKind() == TermKind::ConstArray;
      if (ConstInvolved) {
        // Indices demanded on the non-constant side (constant arrays
        // deliberately carry no demands of their own).
        TermRef NonConst = A->getKind() == TermKind::ConstArray ? B : A;
        auto It = DemandedIndices.find(NonConst);
        if (It != DemandedIndices.end())
          for (TermRef I : It->second)
            Emit(I);
        continue;
      }
      for (TermRef Side : {A, B})
        if (Side->getKind() == TermKind::Store)
          Emit(Side->getArg(1));
    }
  }

  if (Stats)
    Stats->NumLemmas = static_cast<unsigned>(Lemmas.size());
  if (Lemmas.empty())
    return Formula;
  Lemmas.push_back(Formula);
  return TM.mkAnd(std::move(Lemmas));
}

//===----------------------------------------------------------------------===//
// ArrayReducer: incremental demand closure.
//===----------------------------------------------------------------------===//

void ArrayReducer::collectNewSubterms(TermRef T, std::vector<TermRef> &Out) {
  if (!KnownTerms.insert(T).second)
    return;
  Out.push_back(T);
  for (TermRef A : T->getArgs())
    collectNewSubterms(A, Out);
}

void ArrayReducer::demand(TermRef A, TermRef I) {
  if (!A->getSort()->isArray() || A->getSort()->getKey() != I->getSort())
    return;
  if (!Need.insert({A, I}).second)
    return;
  DemandedIndices[A].push_back(I);
  Work.emplace_back(A, I);
}

void ArrayReducer::markUp(TermRef T) {
  if (!T->getSort()->isArray() || !UpSet.insert(T).second)
    return;
  switch (T->getKind()) {
  case TermKind::Store:
  case TermKind::MapOr:
  case TermKind::MapAnd:
  case TermKind::MapDiff:
  case TermKind::PwIte:
    for (TermRef O : T->getArgs())
      if (O->getSort()->isArray()) {
        UpEdges[O].push_back(T);
        // A new upward edge must carry the operand's existing demands.
        auto It = DemandedIndices.find(O);
        if (It != DemandedIndices.end()) {
          std::vector<TermRef> Existing = It->second;
          for (TermRef I : Existing)
            demand(T, I);
        }
        markUp(O);
      }
    break;
  default:
    break;
  }
}

void ArrayReducer::emitLemma(TermRef L) {
  if (!EmittedLemmas.insert(L).second)
    return;
  NewLemmas.push_back(L);
  ++Stats.NumLemmas;
}

void ArrayReducer::emitReadOverComposite(TermRef A, TermRef I) {
  TermRef SelAI = TM.mkSelect(A, I);
  switch (A->getKind()) {
  case TermKind::Store: {
    TermRef Base = A->getArg(0), J = A->getArg(1), V = A->getArg(2);
    TermRef Same = TM.mkEq(I, J);
    emitLemma(TM.mkImplies(Same, TM.mkEq(SelAI, V)));
    emitLemma(TM.mkImplies(TM.mkNot(Same),
                           TM.mkEq(SelAI, TM.mkSelect(Base, I))));
    break;
  }
  case TermKind::ConstArray:
    emitLemma(TM.mkEq(SelAI, A->getArg(0)));
    break;
  case TermKind::MapOr:
    emitLemma(TM.mkEq(SelAI, TM.mkOr(TM.mkSelect(A->getArg(0), I),
                                     TM.mkSelect(A->getArg(1), I))));
    break;
  case TermKind::MapAnd:
    emitLemma(TM.mkEq(SelAI, TM.mkAnd(TM.mkSelect(A->getArg(0), I),
                                      TM.mkSelect(A->getArg(1), I))));
    break;
  case TermKind::MapDiff:
    emitLemma(TM.mkEq(SelAI,
                      TM.mkAnd(TM.mkSelect(A->getArg(0), I),
                               TM.mkNot(TM.mkSelect(A->getArg(1), I)))));
    break;
  case TermKind::PwIte: {
    TermRef Guard = TM.mkSelect(A->getArg(0), I);
    emitLemma(TM.mkImplies(Guard,
                           TM.mkEq(SelAI, TM.mkSelect(A->getArg(1), I))));
    emitLemma(TM.mkImplies(TM.mkNot(Guard),
                           TM.mkEq(SelAI, TM.mkSelect(A->getArg(2), I))));
    break;
  }
  default:
    break;
  }
}

void ArrayReducer::emitEqLemma(TermRef EqT, TermRef I) {
  TermRef A = EqT->getArg(0), B = EqT->getArg(1);
  TermRef SelEq = TM.mkEq(TM.mkSelect(A, I), TM.mkSelect(B, I));
  if (SelEq == TM.mkTrue())
    return;
  emitLemma(TM.mkImplies(EqT, SelEq));
  // Equalities between nested (set-valued) selects chain transitively;
  // sort nesting is finite, so this terminates.
  if (SelEq->getKind() == TermKind::Eq &&
      SelEq->getArg(0)->getSort()->isArray())
    considerEqAtom(SelEq);
}

void ArrayReducer::considerEqAtom(TermRef EqT) {
  if (!EqAtoms.insert(EqT).second)
    return;
  TermRef A = EqT->getArg(0), B = EqT->getArg(1);
  // Only selects that FOLD at construction need read-over-equality: const
  // arrays (every index folds) and stores (their own index folds). Selects
  // over the other combinators materialise as terms, so the merged
  // equivalence class already carries their constraints.
  bool ConstInvolved = A->getKind() == TermKind::ConstArray ||
                       B->getKind() == TermKind::ConstArray;
  if (ConstInvolved) {
    TermRef NonConst = A->getKind() == TermKind::ConstArray ? B : A;
    ConstEqIndex[NonConst].push_back(EqT);
    auto It = DemandedIndices.find(NonConst);
    if (It != DemandedIndices.end()) {
      std::vector<TermRef> Existing = It->second;
      for (TermRef I : Existing)
        emitEqLemma(EqT, I);
    }
    return;
  }
  for (TermRef Side : {A, B})
    if (Side->getKind() == TermKind::Store)
      emitEqLemma(EqT, Side->getArg(1));
}

void ArrayReducer::processWork() {
  while (!Work.empty()) {
    auto [A, I] = Work.back();
    Work.pop_back();
    switch (A->getKind()) {
    case TermKind::Store:
      demand(A->getArg(0), I);
      break;
    case TermKind::MapOr:
    case TermKind::MapAnd:
    case TermKind::MapDiff:
      demand(A->getArg(0), I);
      demand(A->getArg(1), I);
      break;
    case TermKind::PwIte:
      demand(A->getArg(0), I);
      demand(A->getArg(1), I);
      demand(A->getArg(2), I);
      break;
    default:
      break;
    }
    // demand() only touches Need, DemandedIndices and Work, so the edge
    // lists can be walked in place.
    if (auto It = EqAdj.find(A); It != EqAdj.end())
      for (TermRef B : It->second)
        demand(B, I);
    if (auto It = UpEdges.find(A); It != UpEdges.end())
      for (TermRef Up : It->second)
        demand(Up, I);
    if (isCompositeArray(A))
      emitReadOverComposite(A, I);
    if (auto It = ConstEqIndex.find(A); It != ConstEqIndex.end()) {
      std::vector<TermRef> Eqs = It->second;
      for (TermRef EqT : Eqs)
        emitEqLemma(EqT, I);
    }
  }
}

std::vector<TermRef> ArrayReducer::assertFormula(TermRef F) {
  assert(Work.empty() && "reentrant assertFormula");
  NewLemmas.clear();
  std::vector<TermRef> Inputs;
  collectNewSubterms(F, Inputs);

  // Extensionality witnesses for array equalities occurring negatively
  // (once per equality over the reducer's lifetime).
  {
    std::unordered_map<TermRef, int> Polarities;
    std::unordered_map<TermRef, int> Seen;
    std::vector<TermRef> NegEqs;
    markPolarities(F, 1, Polarities, Seen, NegEqs);
    for (TermRef EqTerm : NegEqs) {
      if (!WitnessedNegEqs.insert(EqTerm).second)
        continue;
      TermRef A = EqTerm->getArg(0), B = EqTerm->getArg(1);
      TermRef W = TM.mkFreshVar("extw", A->getSort()->getKey());
      // a == b  \/  a[w] != b[w]
      TermRef L = TM.mkOr(
          EqTerm, TM.mkNot(TM.mkEq(TM.mkSelect(A, W), TM.mkSelect(B, W))));
      ++Stats.NumWitnesses;
      NewLemmas.push_back(L);
      // The witness lemma's selects seed demands like any input term.
      collectNewSubterms(L, Inputs);
    }
  }

  for (TermRef T : Inputs) {
    const Sort *S = T->getSort();
    if (S->isArray())
      ++Stats.NumArrayTerms;
    if (T->getKind() == TermKind::Select || T->getKind() == TermKind::Store) {
      TermRef Index = T->getArg(1);
      const Sort *KeySort = T->getArg(0)->getSort()->getKey();
      if (IndexSeen.insert({KeySort, Index}).second)
        ++Stats.NumIndexTerms;
    }
    if (T->getKind() == TermKind::Select)
      demand(T->getArg(0), T->getArg(1));
    if (T->getKind() == TermKind::Eq && T->getArg(0)->getSort()->isArray()) {
      TermRef A = T->getArg(0), B = T->getArg(1);
      EqAdj[A].push_back(B);
      EqAdj[B].push_back(A);
      // A new equality edge carries existing demands across.
      for (TermRef Side : {A, B}) {
        TermRef Other = Side == A ? B : A;
        auto It = DemandedIndices.find(Side);
        if (It != DemandedIndices.end()) {
          std::vector<TermRef> Idx = It->second;
          for (TermRef I : Idx)
            demand(Other, I);
        }
      }
      markUp(A);
      markUp(B);
      considerEqAtom(T);
    }
  }
  processWork();
  return std::move(NewLemmas);
}
