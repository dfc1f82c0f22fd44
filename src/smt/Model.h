//===- smt/Model.h - Models and term evaluation ----------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-order models over the solver's sorts and a full semantic
/// evaluator. Models serve two purposes:
///   - counterexample reporting when a VC fails (the verification engineer
///     sees concrete field values / broken-set contents), and
///   - the solver's safety net: a Sat answer is only reported after the
///     original formula evaluates to true under the constructed model.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_MODEL_H
#define IDS_SMT_MODEL_H

#include "smt/Term.h"

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

namespace ids {
namespace smt {

struct ArrayValue;

/// A model value: boolean, integer, rational, location (abstract id) or
/// array (finite map + default).
struct Value {
  enum class Kind : uint8_t { Bool, Int, Rat, Loc, Array };

  Kind K = Kind::Bool;
  bool B = false;
  BigInt I;
  Rational R;
  int64_t Loc = 0;
  std::shared_ptr<const ArrayValue> Arr;

  static Value ofBool(bool V);
  static Value ofInt(BigInt V);
  static Value ofRat(Rational V);
  static Value ofLoc(int64_t Id);
  static Value ofArray(std::shared_ptr<const ArrayValue> A);

  bool operator==(const Value &RHS) const { return compare(RHS) == 0; }
  bool operator!=(const Value &RHS) const { return compare(RHS) != 0; }
  bool operator<(const Value &RHS) const { return compare(RHS) < 0; }
  int compare(const Value &RHS) const;

  std::string toString() const;
};

/// A finite-support array value: entries different from \c Default.
/// Normalised: no entry maps to the default.
struct ArrayValue {
  Value Default;
  std::map<Value, Value> Entries;

  int compare(const ArrayValue &RHS) const;
  std::string toString() const;
};

/// A model assigning values to free constants (and opaque applications).
class Model {
public:
  /// Sets the value of a Var (or of an opaque application term, keyed by
  /// the term itself).
  void set(TermRef T, Value V) { Base[T] = std::move(V); }
  bool has(TermRef T) const { return Base.count(T) != 0; }

  /// Evaluates an arbitrary quantifier-free term. Unassigned leaves get a
  /// sort-default value (false / 0 / loc 0 / empty array).
  Value eval(TermRef T) const;

  /// Public evaluation entry point for differential testing: a Sat answer
  /// from the solver can be cross-checked by evaluating the original
  /// formula under the produced model. Alias of eval().
  Value evaluate(TermRef T) const { return eval(T); }

  /// Default value for a sort (used for unconstrained leaves).
  static Value defaultFor(const Sort *S);

  /// Renders the assignments of the named constants, for counterexample
  /// display.
  std::string toString() const;

private:
  Value evalImpl(TermRef T, std::unordered_map<TermRef, Value> &Cache) const;

  std::unordered_map<TermRef, Value> Base;
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_MODEL_H
