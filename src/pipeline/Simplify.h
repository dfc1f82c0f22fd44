//===- pipeline/Simplify.h - VC simplification pass ------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bottom-up VC simplification beyond the TermManager's smart
/// constructors, applied to each obligation of a batch before the SMT
/// solver sees it:
///
///  - complementary-literal collapse in n-ary And/Or (x /\ !x -> false),
///  - read-over-write resolution through Store chains when the indices
///    are provably distinct (distinct interned constants), and select
///    expansion over the pointwise map combinators (MapOr/MapAnd/MapDiff
///    and the parameterized-update PwIte), which is where the FWYB
///    encoding's heap-update chains blow up,
///  - equality substitution under the guard: passified VCs are dominated
///    by incarnation equalities `x_k == e`; substituting and dropping
///    them shrinks the obligation without changing its verdict. The
///    obligations of one procedure share their path condition, so this
///    work is done once per distinct guard of a batch and only the claim
///    is substituted per obligation.
///
/// Every rewrite preserves equivalence (and the guard-equality
/// elimination preserves equisatisfiability of Guard /\ !Claim), so the
/// solver verdict on the simplified obligation is the verdict on the
/// original — the property the differential fuzz suite pins. A model
/// of the simplified obligation extends to the original (extendModel).
///
//===----------------------------------------------------------------------===//

#ifndef IDS_PIPELINE_SIMPLIFY_H
#define IDS_PIPELINE_SIMPLIFY_H

#include "smt/Model.h"
#include "smt/Term.h"

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ids {
namespace pipeline {

/// A guard equality `Var == Rhs` that simplifyObligation substituted
/// away.
using Elimination = std::pair<smt::TermRef, smt::TermRef>;

/// Extends \p M, a model of a simplified obligation, to one of \p Orig,
/// the obligation before simplification: walking \p Eliminated backwards
/// sets each Var to the value of its Rhs (a round's right-hand sides are
/// free of that round's and every earlier round's Vars), and Vars of
/// \p Orig still unassigned get their sort default, so the model names
/// every symbol of the obligation.
void extendModel(smt::Model &M, const std::vector<Elimination> &Eliminated,
                 smt::TermRef Orig);

/// Rewriter and obligation simplifier with batch-scoped memos: one
/// instance per obligation batch, whose terms all live in one manager.
///
/// Guard runs: the guard-equality rounds of each rewritten guard are kept
/// for the whole batch, computed lazily and in order. An obligation whose
/// claim folds to true after round 1 leaves the later rounds to the next
/// obligation with that guard; a later obligation with the same guard
/// replays the rounds and substitutes only its claim, under each round's
/// memo.
///
/// Creation order is the invariant. Term ids order mkAnd/mkEq arguments,
/// which fix the simplified queries and so the solver's search. The first
/// computation of a round therefore interns what a per-obligation
/// simplifier would, in its order: the substituted conjuncts, then the
/// claim, then the next guard (the mkAnd of the conjuncts). A replay
/// interns only what the claim adds. A batch simplified by one instance
/// yields the same terms, with the same ids, as a fresh instance per
/// obligation (SimplifyFuzzTest pins this).
class Simplifier {
public:
  explicit Simplifier(smt::TermManager &TM) : TM(TM) {}

  /// Rewrites \p T bottom-up to an equivalent, usually smaller term.
  smt::TermRef rewrite(smt::TermRef T);

  /// Simplifies the obligation Guard => Claim in place (rewriting plus
  /// iterated guard-equality substitution). Returns true when the
  /// obligation is discharged outright: the claim rewrote to true, the
  /// guard to false, or the guard conjuncts subsume the claim. Every
  /// substituted guard equality is appended to \p Eliminated, in
  /// elimination order.
  bool simplifyObligation(smt::TermRef &Guard, smt::TermRef &Claim,
                          std::vector<Elimination> *Eliminated = nullptr);

private:
  /// One guard-equality round of a guard run.
  struct Round {
    /// Eliminated Var -> its right-hand side.
    std::unordered_map<smt::TermRef, smt::TermRef> Map;
    /// The same equalities, in elimination order.
    std::vector<Elimination> Eliminated;
    /// Substitution memo under Map, shared by the round's conjuncts and
    /// every claim substituted under it.
    std::unordered_map<smt::TermRef, smt::TermRef> Memo;
    /// The remaining conjuncts, substituted and rewritten.
    std::vector<smt::TermRef> Next;
    /// The guard after the round: mkAnd(Next).
    smt::TermRef Guard = nullptr;
  };
  /// The rounds computed so far for one rewritten guard.
  struct GuardRun {
    std::vector<Round> Rounds;
    /// The guard after the last round has no eliminable equality.
    bool Done = false;
  };

  smt::TermRef rewriteNode(smt::TermRef T,
                           const std::vector<smt::TermRef> &Args);
  smt::TermRef simplifySelect(smt::TermRef Array, smt::TermRef Index);
  /// Fills \p R from the guard \p Conjuncts, all but its Guard; false
  /// when no conjunct is an eliminable equality.
  bool nextRound(const std::vector<smt::TermRef> &Conjuncts, Round &R);

  smt::TermManager &TM;
  std::unordered_map<smt::TermRef, smt::TermRef> Cache;
  /// Memo for simplifySelect: (array, index) pairs recur across the
  /// combinator expansion (shared DAG nodes would otherwise make the
  /// recursion exponential).
  std::map<std::pair<smt::TermRef, smt::TermRef>, smt::TermRef> SelectCache;
  /// Guard runs, keyed by the rewritten guard.
  std::unordered_map<smt::TermRef, GuardRun> Runs;
};

} // namespace pipeline
} // namespace ids

#endif // IDS_PIPELINE_SIMPLIFY_H
