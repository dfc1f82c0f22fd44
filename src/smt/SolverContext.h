//===- smt/SolverContext.h - One-check SMT solving --------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way to check a formula: one SMT check over a set of
/// assertions. assertTerm() adds a formula at the root, as often as
/// needed, and checkSat() then decides their conjunction once. A context
/// is never re-checked or retracted; the VC pipeline builds a fresh one
/// per query:
///
///   SolverContext Ctx(TM, Opts);
///   Ctx.assertTerm(Query);                 // array demand closure here
///   auto R = Ctx.checkSat();               // Unsat == obligation proved
///
/// Each assertion is ite-lifted and clausified, and the array lemmas it
/// demands (ArrayReducer) are asserted with it. The CDCL(T) search then
/// consults the TheoryEngine in the mode SolverOptions::Theory names:
/// DPLL(T) propagation on persistent engines synced to the SAT trail
/// (Propagate, the default), the same engines on full assignments only
/// (Lazy), or fresh engines per full assignment (Rebuild, the
/// differential reference). A Sat model is checked against the
/// assertions before it is reported.
///
/// With SolverOptions::AllowQuantifiers (the quantified RQ3 encoding)
/// assertTerm first instantiates the assertion's universal quantifiers
/// over the assertion's own ground terms (QuantInst.h), so a quantified
/// axiom is asserted together with the facts it is to be instantiated
/// for. A Sat answer after incomplete instantiation proves nothing and is
/// reported as Unknown (UnknownReason::Instantiation).
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_SOLVERCONTEXT_H
#define IDS_SMT_SOLVERCONTEXT_H

#include "smt/SolverTypes.h"
#include "smt/TheoryEngine.h"

#include <memory>
#include <vector>

namespace ids {
namespace smt {

class SolverContext {
public:
  using Result = SolverResult;

  SolverContext(TermManager &TM, SolverOptions O);
  ~SolverContext();

  /// Asserts \p F (quantifier-free unless AllowQuantifiers). Only before
  /// checkSat().
  void assertTerm(TermRef F);

  /// Decides the conjunction of all assertions. At most once per context.
  Result checkSat();

  /// The model after a Sat result.
  const Model &model() const { return Core.CurrentModel; }

  /// Statistics of the context's one check (NumAtoms is set by checkSat).
  const SolverStats &stats() const { return Core.St; }

  /// Array lemmas instantiated so far in this context (all of them are
  /// emitted by assertTerm).
  unsigned numArrayLemmas() const { return Reducer.stats().NumLemmas; }

private:
  SolverCore Core;
  ArrayReducer Reducer;
  TheoryEngine Engine;
  /// Lifted forms of the assertions (for the model-evaluation safety net:
  /// a candidate model must satisfy every assertion).
  std::vector<TermRef> Asserted;
  /// False once a quantifier was approximated: a Sat is then Unknown.
  bool InstantiationComplete = true;
  /// Adds the asserted formula \p F to the SAT core: a top-level
  /// conjunction splits into its conjuncts and a top-level disjunction
  /// becomes one clause, so neither needs a Tseitin variable.
  void addClauses(TermRef F);
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_SOLVERCONTEXT_H
