//===- smt/Term.h - Hash-consed term DAG -----------------------*- C++ -*-===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consed terms of the quantifier-free logic used by FWYB verification
/// conditions (Section 3.7 of the paper), plus a Forall node used only by
/// the "Dafny-style" quantified encoding of RQ3.
///
/// The operator set covers the decidable combination the paper relies on:
/// booleans, equality, linear Int/Rat arithmetic, and the generalized array
/// fragment (select/store/const-array plus the pointwise combinators mapOr,
/// mapAnd, mapDiff and pwIte used for parameterized map updates).
///
/// Terms are immutable and interned by a TermManager; pointer equality is
/// structural equality, which keeps VC generation (passification + wp over
/// a DAG) linear in practice.
///
//===----------------------------------------------------------------------===//

#ifndef IDS_SMT_TERM_H
#define IDS_SMT_TERM_H

#include "smt/Sort.h"
#include "support/BigInt.h"
#include "support/Rational.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

namespace ids {
namespace smt {

class Term;
/// Terms are referenced by interned pointer.
using TermRef = const Term *;

/// Discriminator for Term nodes.
enum class TermKind : uint8_t {
  // Leaves.
  True,
  False,
  IntConst,
  RatConst,
  Var, ///< free constant (includes `nil` and VC incarnations)

  // Boolean structure.
  Not,
  And, ///< n-ary
  Or,  ///< n-ary
  Implies,
  Ite, ///< any sort; condition is Bool

  // Equality over any sort (over Bool it acts as iff).
  Eq,

  // Linear arithmetic over Int or Rat.
  Add, ///< n-ary
  Mul, ///< args[0] is a numeric constant, args[1] arbitrary (linear only)
  Le,
  Lt,

  // Arrays / monadic maps / sets.
  Select,
  Store,
  ConstArray, ///< constant map: args[0] is the default value
  MapOr,      ///< pointwise disjunction, Array(K,Bool)
  MapAnd,     ///< pointwise conjunction, Array(K,Bool)
  MapDiff,    ///< pointwise a && !b, Array(K,Bool)
  PwIte,      ///< pointwise ite(g[k], a[k], b[k]) — parameterized map update

  // Uninterpreted function application.
  Apply,

  // Quantifier (quantified RQ3 encoding only; never in QF-mode VCs).
  Forall,
};

/// An immutable, interned term node.
class Term {
public:
  TermKind getKind() const { return Kind; }
  const Sort *getSort() const { return SortPtr; }
  unsigned getId() const { return Id; }

  const std::vector<TermRef> &getArgs() const { return Args; }
  TermRef getArg(unsigned I) const {
    assert(I < Args.size() && "term argument index out of range");
    return Args[I];
  }
  unsigned getNumArgs() const { return static_cast<unsigned>(Args.size()); }

  /// Name of a Var, or of an Apply's function.
  const std::string &getName() const;

  const BigInt &getIntValue() const {
    assert(Kind == TermKind::IntConst);
    return IntVal;
  }
  const Rational &getRatValue() const {
    assert(Kind == TermKind::RatConst);
    return RatVal;
  }
  const FuncDecl *getDecl() const {
    assert(Kind == TermKind::Apply);
    return Decl;
  }
  /// Bound variables of a Forall (stored as Var terms).
  const std::vector<TermRef> &getBoundVars() const {
    assert(Kind == TermKind::Forall);
    return Bound;
  }

  bool isValue() const {
    return Kind == TermKind::True || Kind == TermKind::False ||
           Kind == TermKind::IntConst || Kind == TermKind::RatConst;
  }

  /// 128-bit structural DAG hash, computed once at interning time from the
  /// node's kind/payload and its children's hashes. Manager-independent:
  /// structurally identical DAGs built in different TermManagers hash
  /// equally. QueryCache uses the pair as the cache key directly, which
  /// replaces the former O(formula-size) canonical-string build per
  /// lookup with an O(1) read.
  uint64_t getStructHashLo() const { return StructHashLo; }
  uint64_t getStructHashHi() const { return StructHashHi; }

private:
  friend class TermManager;
  Term() = default;

  TermKind Kind = TermKind::True;
  const Sort *SortPtr = nullptr;
  unsigned Id = 0;
  uint64_t StructHashLo = 0;
  uint64_t StructHashHi = 0;
  /// A Forall node occurs in this term (set at interning from the kind
  /// and the arguments' bits).
  bool HasForall = false;
  std::vector<TermRef> Args;
  std::string Name;
  BigInt IntVal;
  Rational RatVal;
  const FuncDecl *Decl = nullptr;
  std::vector<TermRef> Bound;
};

/// Owns and interns sorts, function declarations and terms, and provides
/// smart constructors that perform light local simplification (constant
/// folding, flattening, involution) so downstream passes see a small
/// canonical DAG.
class TermManager {
public:
  TermManager();
  TermManager(const TermManager &) = delete;
  TermManager &operator=(const TermManager &) = delete;

  /// Tag type selecting the snapshot-overlay constructor.
  struct Snapshot {};

  /// Builds an overlay manager on top of a frozen \p Base. The overlay
  /// shares the base's interned structure read-only — sorts, function
  /// declarations, named variables and every term the base interned stay
  /// valid TermRefs in the overlay, with no translation and no locking —
  /// and pays only for its own delta: new nodes go into the overlay's
  /// private table with ids continuing from the base's. This is what
  /// lets `--jobs N` workers solve obligations built in a shared base
  /// manager without per-task full-formula `import` copies: terms are
  /// immutable and the base is frozen for the overlay's lifetime, so
  /// concurrent overlay reads of the base are race-free by construction.
  ///
  /// The base must outlive the overlay and stay frozen while any overlay
  /// on it is live; ids are unique within one overlay+base view, but two
  /// sibling overlays assign overlapping ids to different terms — never
  /// mix terms from sibling overlays in one solver.
  TermManager(const TermManager &Base, Snapshot);

  /// Freezing forbids interning anything new (enforced by assert) so the
  /// manager can be shared read-only across worker overlays. Reads —
  /// including intern() calls that hit an existing node — stay allowed.
  void freeze() { Frozen = true; }
  void thaw() { Frozen = false; }
  bool isFrozen() const { return Frozen; }
  /// The frozen base this overlay was snapshotted from, or null.
  const TermManager *base() const { return BaseMgr; }

  // -------------------------------------------------------------- Sorts --
  const Sort *boolSort() const { return BoolSort; }
  const Sort *intSort() const { return IntSort; }
  const Sort *ratSort() const { return RatSort; }
  /// The distinguished heap-location sort.
  const Sort *locSort() const { return LocSort; }
  const Sort *getUninterpretedSort(const std::string &Name);
  const Sort *getArraySort(const Sort *Key, const Sort *Value);

  const FuncDecl *getFuncDecl(const std::string &Name,
                              std::vector<const Sort *> ArgSorts,
                              const Sort *RetSort);

  // ------------------------------------------------------------- Leaves --
  TermRef mkTrue() const { return TrueTerm; }
  TermRef mkFalse() const { return FalseTerm; }
  TermRef mkBool(bool Value) const { return Value ? TrueTerm : FalseTerm; }
  TermRef mkIntConst(BigInt Value);
  TermRef mkIntConst(int64_t Value) { return mkIntConst(BigInt(Value)); }
  TermRef mkRatConst(Rational Value);
  /// Named free constant. Re-requesting the same name returns the same term
  /// (and asserts the sort matches).
  TermRef mkVar(const std::string &Name, const Sort *S);
  /// Fresh free constant with a unique name derived from \p Prefix.
  TermRef mkFreshVar(const std::string &Prefix, const Sort *S);
  /// The distinguished nil location.
  TermRef mkNil() const { return NilTerm; }

  // ------------------------------------------------------------ Boolean --
  TermRef mkNot(TermRef A);
  TermRef mkAnd(std::vector<TermRef> Args);
  TermRef mkAnd(TermRef A, TermRef B) { return mkAnd({A, B}); }
  TermRef mkOr(std::vector<TermRef> Args);
  TermRef mkOr(TermRef A, TermRef B) { return mkOr({A, B}); }
  TermRef mkImplies(TermRef A, TermRef B);
  TermRef mkIte(TermRef Cond, TermRef Then, TermRef Else);
  TermRef mkEq(TermRef A, TermRef B);
  TermRef mkDistinct(TermRef A, TermRef B) { return mkNot(mkEq(A, B)); }

  // --------------------------------------------------------- Arithmetic --
  TermRef mkAdd(std::vector<TermRef> Args);
  TermRef mkAdd(TermRef A, TermRef B) { return mkAdd({A, B}); }
  TermRef mkSub(TermRef A, TermRef B);
  TermRef mkNeg(TermRef A);
  /// Multiplication by a numeric constant (the logic is linear).
  TermRef mkMulConst(const Rational &Const, TermRef A);
  TermRef mkLe(TermRef A, TermRef B);
  TermRef mkLt(TermRef A, TermRef B);
  TermRef mkGe(TermRef A, TermRef B) { return mkLe(B, A); }
  TermRef mkGt(TermRef A, TermRef B) { return mkLt(B, A); }

  // -------------------------------------------------------------- Arrays --
  TermRef mkSelect(TermRef Array, TermRef Index);
  TermRef mkStore(TermRef Array, TermRef Index, TermRef Value);
  TermRef mkConstArray(const Sort *ArraySort, TermRef Value);
  TermRef mkMapOr(TermRef A, TermRef B);
  TermRef mkMapAnd(TermRef A, TermRef B);
  TermRef mkMapDiff(TermRef A, TermRef B);
  /// Parameterized map update: pointwise ite(Guard[k], A[k], B[k]). This is
  /// the paper's `M_f := ite(Mod, M_f', M_f)` (Appendix A.3).
  TermRef mkPwIte(TermRef Guard, TermRef A, TermRef B);

  // Set sugar over Array(K, Bool).
  TermRef mkEmptySet(const Sort *ElemSort);
  TermRef mkSingleton(TermRef Elem);
  TermRef mkMember(TermRef Elem, TermRef SetTerm) {
    return mkSelect(SetTerm, Elem);
  }
  TermRef mkSetUnion(TermRef A, TermRef B) { return mkMapOr(A, B); }
  TermRef mkSetIntersect(TermRef A, TermRef B) { return mkMapAnd(A, B); }
  TermRef mkSetMinus(TermRef A, TermRef B) { return mkMapDiff(A, B); }
  TermRef mkSetInsert(TermRef SetTerm, TermRef Elem) {
    return mkStore(SetTerm, Elem, mkTrue());
  }
  TermRef mkSetRemove(TermRef SetTerm, TermRef Elem) {
    return mkStore(SetTerm, Elem, mkFalse());
  }
  /// A subseteq B, expressed extensionally as A&B == A so the array
  /// reduction handles it with no dedicated theory support.
  TermRef mkSubset(TermRef A, TermRef B) { return mkEq(mkMapAnd(A, B), A); }
  TermRef mkDisjoint(TermRef A, TermRef B) {
    return mkEq(mkMapAnd(A, B), mkEmptySet(A->getSort()->getKey()));
  }
  TermRef mkSetEmptyCheck(TermRef A) {
    return mkEq(A, mkEmptySet(A->getSort()->getKey()));
  }

  // ------------------------------------------------- Apply / quantifier --
  TermRef mkApply(const FuncDecl *Decl, std::vector<TermRef> Args);
  TermRef mkForall(std::vector<TermRef> BoundVars, TermRef Body);

  // ----------------------------------------------------------- Utilities --
  /// Capture-naive simultaneous substitution of free Vars (keys must be
  /// Var terms). Quantified bodies are substituted as well, minus shadowed
  /// binders; callers must ensure no capture (our VC pipeline only
  /// substitutes fresh or program-level names).
  TermRef substitute(TermRef T,
                     const std::unordered_map<TermRef, TermRef> &Map);
  /// The same, memoised in the caller-owned \p Memo, which must only
  /// ever be used with this \p Map: one memo serves every term
  /// substituted under one map.
  TermRef substitute(TermRef T,
                     const std::unordered_map<TermRef, TermRef> &Map,
                     std::unordered_map<TermRef, TermRef> &Memo);

  /// True if the term contains a Forall node (QF cross-check, Section 5.1).
  /// O(1): a bit set on every term when it is interned.
  bool containsQuantifier(TermRef T) const { return T->HasForall; }

  /// Translates a sort owned by another manager into this manager
  /// (uninterpreted sorts match by name, array sorts structurally).
  const Sort *importSort(const Sort *Foreign);

  /// Rebuilds a term owned by another manager in this manager, translating
  /// sorts, variables and function declarations by name. Terms are
  /// immutable, so the foreign manager is only read — this is what lets
  /// the VC pipeline hand obligations to per-worker managers without
  /// sharing a (single-threaded) manager across threads. Translations are
  /// memoised for the lifetime of this manager; the foreign terms must
  /// outlive it.
  TermRef import(TermRef Foreign);

  unsigned numTerms() const { return NextId; }

private:
  TermRef intern(Term &&Node);
  static size_t hashTerm(const Term &Node);
  static bool equalTerm(const Term &A, const Term &B);

  std::deque<std::unique_ptr<Term>> Terms;
  /// Hash-consing table: node hash -> every term with that hash.
  std::unordered_multimap<size_t, TermRef> Table;
  std::deque<std::unique_ptr<Sort>> Sorts;
  std::deque<std::unique_ptr<FuncDecl>> Decls;
  std::unordered_map<std::string, const Sort *> NamedSorts;
  std::unordered_map<std::string, TermRef> NamedVars;
  std::unordered_map<std::string, const FuncDecl *> NamedDecls;
  std::unordered_map<TermRef, TermRef> ImportCache;

  /// Frozen base of a snapshot overlay (null for a root manager). All
  /// probe paths (intern, named sorts/vars/decls) consult the base
  /// read-only before touching the overlay's own tables.
  const TermManager *BaseMgr = nullptr;
  bool Frozen = false;

  const Sort *BoolSort;
  const Sort *IntSort;
  const Sort *RatSort;
  const Sort *LocSort;
  TermRef TrueTerm;
  TermRef FalseTerm;
  TermRef NilTerm;
  unsigned NextId = 0;
  unsigned FreshCounter = 0;
};

} // namespace smt
} // namespace ids

#endif // IDS_SMT_TERM_H
