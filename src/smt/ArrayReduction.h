//===- smt/ArrayReduction.h - Eager array-theory reduction -----*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eager reduction of the generalized/combinatory array fragment to EUF:
/// every select over a composite array term (store, const-array, pointwise
/// combinator) is axiomatised over the finite set of relevant index terms,
/// and extensionality witnesses are introduced for array equalities that
/// occur negatively. After reduction the only remaining array reasoning is
/// congruence of `select`, which the EUF engine provides.
///
/// This mirrors how the paper obtains decidability: FWYB verification
/// conditions live in the quantifier-free generalized array theory of
/// de Moura & Bjorner (FMCAD'09), which admits exactly this reduction.
///
/// The reduction runs inside SolverContext::assertTerm: an ArrayReducer
/// per context returns the lemmas each assertion demands, and the context
/// asserts them alongside it.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_ARRAYREDUCTION_H
#define IDS_SMT_ARRAYREDUCTION_H

#include "smt/Term.h"

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ids {
namespace smt {

struct ArrayReductionStats {
  unsigned NumLemmas = 0;
  unsigned NumWitnesses = 0;
};

/// Replaces every non-boolean ite subterm by a fresh constant constrained
/// by `(cond => v = then) && (!cond => v = else)` hoisted to the top level.
TermRef liftItes(TermManager &TM, TermRef Formula);

/// The demand closure behind the SolverContext. Selects seed demands,
/// and so does every store at its own index (the select that folds to its
/// value); demands peel through store/combinator structure, flow across
/// array-equality atoms and up through the operand closure of equality
/// sides. A lemma's subterms feed the closure like input terms, so an
/// equality between nested arrays that a lemma introduces carries
/// demands too. The closure is maintained across assertFormula calls: each
/// call returns only the lemmas its formula adds to the closure of
/// everything asserted before it. Nothing is ever retracted. The closure
/// rules are monotone, so the lemma SET does not depend on how the
/// assertions are split; only the emission order does. Every lemma is
/// returned up front: its size depends only on the asserted VC, never on
/// the search. \p Eager (SolverOptions::EagerArrayInstantiation) adds the
/// blind composite-times-every-same-sort-index product: quadratically
/// larger, kept as the reference the fuzz differentials compare the
/// demand closure against.
class ArrayReducer {
public:
  explicit ArrayReducer(TermManager &TM, bool Eager = false)
      : TM(TM), Eager(Eager) {}

  /// Ingests an (ite-lifted, quantifier-free) assertion and returns the
  /// reduction lemmas newly required by it, given everything asserted so
  /// far. The caller asserts them alongside the formula.
  std::vector<TermRef> assertFormula(TermRef F);

  const ArrayReductionStats &stats() const { return Stats; }

private:
  /// Hash of a pointer pair, for the membership-only sets below.
  struct PairHash {
    template <class A, class B>
    size_t operator()(const std::pair<A, B> &P) const {
      return std::hash<const void *>()(P.first) * 31 ^
             std::hash<const void *>()(P.second);
    }
  };

  void collectNewSubterms(TermRef T, std::vector<TermRef> &Out);
  /// Adds one new term to the closure: its demands and equality edges.
  void ingest(TermRef T);
  void demand(TermRef A, TermRef I);
  void markUp(TermRef T);
  void considerEqAtom(TermRef EqT);
  /// Carries a demand at \p I on \p From across the equality \p EqT.
  void acrossEq(TermRef EqT, TermRef From, TermRef I);
  void emitReadOverComposite(TermRef A, TermRef I);
  void emitEqLemma(TermRef EqT, TermRef I);
  void emitLemma(TermRef L);
  void processWork();

  TermManager &TM;
  const bool Eager;
  ArrayReductionStats Stats;

  std::unordered_set<TermRef> KnownTerms;
  /// The blind product's operands (Eager only), in ingestion order.
  std::vector<TermRef> ArrayTerms;
  std::unordered_set<std::pair<const Sort *, TermRef>, PairHash> IndexSeen;
  std::unordered_map<const Sort *, std::vector<TermRef>> IndexTerms;
  /// Array-equality atoms by side.
  std::unordered_map<TermRef, std::vector<TermRef>> EqAdj;
  std::unordered_map<TermRef, std::vector<TermRef>> UpEdges;
  std::unordered_set<TermRef> UpSet;
  std::unordered_set<std::pair<TermRef, TermRef>, PairHash> Need;
  std::unordered_map<TermRef, std::vector<TermRef>> DemandedIndices;
  std::unordered_set<TermRef> EqAtoms;
  /// Const-array equality atoms indexed by their non-constant side: a new
  /// demand on that side must emit the read-over-equality lemma late.
  std::unordered_map<TermRef, std::vector<TermRef>> ConstEqIndex;
  std::unordered_set<TermRef> WitnessedNegEqs;
  /// Everything emitted so far (dedup).
  std::unordered_set<TermRef> EmittedLemmas;

  std::vector<std::pair<TermRef, TermRef>> Work; // demand worklist
  std::vector<TermRef> NewLemmas; // collected during the current assert
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_ARRAYREDUCTION_H
