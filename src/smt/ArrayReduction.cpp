//===- smt/ArrayReduction.cpp - Eager array-theory reduction --------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/ArrayReduction.h"

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
  ArrayReducer R(TM, Eager);
  std::vector<TermRef> Lemmas = R.assertFormula(Formula);
  if (Stats)
    *Stats = R.stats();
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

/// An array equality pins the VALUE of its sides, so an index demanded
/// anywhere below a side (on an operand of its combinator tree) must also
/// be demanded on the enclosing combinators: `mapAnd(single, S2) ==
/// empty` with `x in S2` asserted needs the mapAnd instantiated at x,
/// although no select reads the mapAnd there. Restricting the upward
/// flow to the operand closure of equality sides keeps it from
/// degenerating into the blind product.
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
    if (I == J)
      break; // SelAI folded to V
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
  // A new equality between nested arrays would also be registered when
  // the lemma's subterms are ingested; registering it here keeps its own
  // lemmas next to this one in the emission order, which the budgeted
  // golden runs are recorded with.
  if (SelEq->getKind() == TermKind::Eq &&
      SelEq->getArg(0)->getSort()->isArray())
    considerEqAtom(SelEq);
}

void ArrayReducer::considerEqAtom(TermRef EqT) {
  if (!EqAtoms.insert(EqT).second)
    return;
  TermRef A = EqT->getArg(0), B = EqT->getArg(1);
  // Only selects that FOLD at construction need read-over-equality: const
  // arrays (every index folds) and stores (their own index folds, also
  // against a const array: `{k} == {}`). Selects over the other
  // combinators materialise as terms, so the merged equivalence class
  // already carries their constraints.
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
  }
  for (TermRef Side : {A, B})
    if (Side->getKind() == TermKind::Store)
      emitEqLemma(EqT, Side->getArg(1));
}

void ArrayReducer::acrossEq(TermRef EqT, TermRef From, TermRef I) {
  demand(EqT->getArg(0) == From ? EqT->getArg(1) : EqT->getArg(0), I);
  // Reads of equal arrays of arrays are congruent; the read-over-equality
  // lemma makes that an equality atom, which carries inner demands.
  if (From->getSort()->getValue()->isArray())
    emitEqLemma(EqT, I);
}

void ArrayReducer::processWork() {
  while (!Work.empty()) {
    auto [A, I] = Work.back();
    Work.pop_back();
    switch (A->getKind()) {
    case TermKind::Store:
      if (A->getArg(1) != I) // a store read at its own index folds
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
      for (TermRef EqT : It->second)
        acrossEq(EqT, A, I);
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

void ArrayReducer::ingest(TermRef T) {
  if (Eager && T->getSort()->isArray())
    ArrayTerms.push_back(T);
  if (T->getKind() == TermKind::Select || T->getKind() == TermKind::Store) {
    TermRef Index = T->getArg(1);
    const Sort *KeySort = T->getArg(0)->getSort()->getKey();
    if (Eager && IndexSeen.insert({KeySort, Index}).second)
      IndexTerms[KeySort].push_back(Index);
    // A select demands its base at its index. A store is read at its own
    // index too, by the select that folds to its value: the arrays above
    // it (and across its equalities) must be instantiated there.
    demand(T->getKind() == TermKind::Select ? T->getArg(0) : T, Index);
  }
  if (T->getKind() == TermKind::Eq && T->getArg(0)->getSort()->isArray()) {
    TermRef A = T->getArg(0), B = T->getArg(1);
    EqAdj[A].push_back(T);
    EqAdj[B].push_back(T);
    // A new equality edge carries existing demands across.
    for (TermRef Side : {A, B}) {
      auto It = DemandedIndices.find(Side);
      if (It != DemandedIndices.end()) {
        std::vector<TermRef> Idx = It->second;
        for (TermRef I : Idx)
          acrossEq(T, Side, I);
      }
    }
    markUp(A);
    markUp(B);
    considerEqAtom(T);
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

  // A lemma's subterms feed the closure like input terms: an equality
  // between nested arrays that a read-over-write lemma introduces carries
  // demands across just as an asserted one does.
  for (size_t Done = 0; !Inputs.empty();) {
    for (TermRef T : Inputs)
      ingest(T);
    if (Eager && Done == 0) {
      // The blind product over the formula's own terms: every array term
      // demanded at every index term of its key sort.
      for (TermRef A : ArrayTerms)
        for (TermRef I : IndexTerms[A->getSort()->getKey()])
          demand(A, I);
    }
    processWork();
    Inputs.clear();
    for (; Done < NewLemmas.size(); ++Done)
      collectNewSubterms(NewLemmas[Done], Inputs);
  }
  return std::move(NewLemmas);
}
