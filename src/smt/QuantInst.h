//===- smt/QuantInst.h - Ground quantifier instantiation -------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-based ground instantiation of universal quantifiers. This is the
/// engine behind the "Dafny-style" quantified encoding measured by RQ3 of
/// the paper: heap change across calls and allocation are modelled with
/// universally quantified axioms, so the solver must guess instantiations
/// — which is exactly the unpredictable/heuristic behaviour the paper's
/// quantifier-free encoding avoids.
///
/// Positive-polarity quantifiers are replaced by finite conjunctions over
/// the ground terms of the matching sort; negative ones are skolemised.
/// The result is an equisatisfiability *approximation*: Unsat answers are
/// sound, Sat answers are only "unknown" when instantiation was incomplete.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_QUANTINST_H
#define IDS_SMT_QUANTINST_H

#include "smt/Term.h"

namespace ids {
namespace smt {

struct QuantInstResult {
  TermRef Formula = nullptr;
  /// False when any universal quantifier had to be approximated.
  bool Complete = true;
  unsigned NumInstantiations = 0;
};

/// Instantiates quantifiers in \p Formula over two rounds, with at most
/// 2048 ground tuples per quantifier occurrence.
QuantInstResult instantiateQuantifiers(TermManager &TM, TermRef Formula);

} // namespace smt
} // namespace ids

#endif // IDS_SMT_QUANTINST_H
