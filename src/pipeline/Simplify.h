//===- pipeline/Simplify.h - VC simplification pass ------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bottom-up VC simplification beyond the TermManager's smart
/// constructors, applied per obligation before the SMT solver sees it:
///
///  - complementary-literal collapse in n-ary And/Or (x /\ !x -> false),
///  - read-over-write resolution through Store chains when the indices
///    are provably distinct (distinct interned constants), and select
///    expansion over the pointwise map combinators (MapOr/MapAnd/MapDiff
///    and the parameterized-update PwIte), which is where the FWYB
///    encoding's heap-update chains blow up,
///  - equality substitution under the guard: passified VCs are dominated
///    by incarnation equalities `x_k == e`; substituting and dropping
///    them shrinks the obligation without changing its verdict.
///
/// Every rewrite preserves equivalence (and the guard-equality
/// elimination preserves equisatisfiability of Guard /\ !Claim), so the
/// solver verdict on the simplified obligation is the verdict on the
/// original — the property the differential fuzz suite pins.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_PIPELINE_SIMPLIFY_H
#define IDS_PIPELINE_SIMPLIFY_H

#include "smt/Term.h"

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace ids {
namespace pipeline {

struct SimplifyStats {
  /// Guard equalities substituted and eliminated.
  unsigned EqualitiesSubstituted = 0;
  /// Select-over-store reads resolved past a provably distinct index.
  unsigned StoresResolved = 0;
  /// Obligations discharged without any solver query.
  unsigned ProvedTrivially = 0;
};

/// Stateless-per-term rewriter with a persistent memo table; one instance
/// per (manager, obligation batch).
class Simplifier {
public:
  explicit Simplifier(smt::TermManager &TM) : TM(TM) {}

  /// Rewrites \p T bottom-up to an equivalent, usually smaller term.
  smt::TermRef rewrite(smt::TermRef T);

  /// Simplifies the obligation Guard => Claim in place (rewriting plus
  /// iterated guard-equality substitution). Returns true when the
  /// obligation is discharged outright: the claim rewrote to true, the
  /// guard to false, or the guard conjuncts subsume the claim.
  bool simplifyObligation(smt::TermRef &Guard, smt::TermRef &Claim,
                          SimplifyStats *St = nullptr);

private:
  smt::TermRef rewriteNode(smt::TermRef T,
                           const std::vector<smt::TermRef> &Args);
  smt::TermRef simplifySelect(smt::TermRef Array, smt::TermRef Index);
  bool propagateGuardEqualities(std::vector<smt::TermRef> &Conjuncts,
                                smt::TermRef &Claim, SimplifyStats *St);

  smt::TermManager &TM;
  std::unordered_map<smt::TermRef, smt::TermRef> Cache;
  /// Memo for simplifySelect: (array, index) pairs recur across the
  /// combinator expansion (shared DAG nodes would otherwise make the
  /// recursion exponential).
  std::map<std::pair<smt::TermRef, smt::TermRef>, smt::TermRef> SelectCache;
  unsigned StoresResolved = 0;
};

} // namespace pipeline
} // namespace ids

#endif // IDS_PIPELINE_SIMPLIFY_H
