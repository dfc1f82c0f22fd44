//===- smt/Term.cpp - Hash-consed term DAG --------------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/Term.h"

#include "support/Trace.h"

#include <algorithm>

using namespace ids;
using namespace ids::smt;

const std::string &Term::getName() const {
  assert(Kind == TermKind::Var || Kind == TermKind::Apply);
  if (Kind == TermKind::Apply)
    return Decl->getName();
  return Name;
}

std::string Sort::toString() const {
  switch (Kind) {
  case SortKind::Bool:
    return "Bool";
  case SortKind::Int:
    return "Int";
  case SortKind::Rat:
    return "Rat";
  case SortKind::Uninterpreted:
    return Name;
  case SortKind::Array:
    return "(Array " + Key->toString() + " " + Value->toString() + ")";
  }
  return "<bad-sort>";
}

namespace {
/// 64-bit mixer for the structural DAG hashes (splitmix64 finalizer).
uint64_t structMix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 12) + (H >> 4);
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
  return H ^ (H >> 31);
}

uint64_t sortFingerprintOf(SortKind K, const std::string &Name,
                           const Sort *Key, const Sort *Value) {
  uint64_t H = structMix(0x51d0f00du, static_cast<uint64_t>(K));
  if (!Name.empty())
    H = structMix(H, std::hash<std::string>()(Name));
  if (Key)
    H = structMix(H, Key->getFingerprint());
  if (Value)
    H = structMix(H, Value->getFingerprint());
  return H;
}
} // namespace

TermManager::TermManager() {
  auto MakeSort = [&](SortKind K) {
    Sorts.emplace_back(new Sort(K, "", nullptr, nullptr));
    Sorts.back()->Fingerprint = sortFingerprintOf(K, "", nullptr, nullptr);
    return Sorts.back().get();
  };
  BoolSort = MakeSort(SortKind::Bool);
  IntSort = MakeSort(SortKind::Int);
  RatSort = MakeSort(SortKind::Rat);
  LocSort = getUninterpretedSort("Loc");

  Term TrueNode;
  TrueNode.Kind = TermKind::True;
  TrueNode.SortPtr = BoolSort;
  TrueTerm = intern(std::move(TrueNode));
  Term FalseNode;
  FalseNode.Kind = TermKind::False;
  FalseNode.SortPtr = BoolSort;
  FalseTerm = intern(std::move(FalseNode));
  NilTerm = mkVar("nil", LocSort);
}

TermManager::TermManager(const TermManager &Base, Snapshot) {
  assert(Base.Frozen && "snapshot overlay over an unfrozen base");
  BaseMgr = &Base;
  BoolSort = Base.BoolSort;
  IntSort = Base.IntSort;
  RatSort = Base.RatSort;
  LocSort = Base.LocSort;
  TrueTerm = Base.TrueTerm;
  FalseTerm = Base.FalseTerm;
  NilTerm = Base.NilTerm;
  // Continue the base's id space so overlay ids never collide with base
  // ids — id-keyed solver structures see one consistent dense-ish space.
  NextId = Base.NextId;
  FreshCounter = Base.FreshCounter;
}

const Sort *TermManager::getUninterpretedSort(const std::string &Name) {
  if (BaseMgr) {
    auto BIt = BaseMgr->NamedSorts.find(Name);
    if (BIt != BaseMgr->NamedSorts.end())
      return BIt->second;
  }
  auto It = NamedSorts.find(Name);
  if (It != NamedSorts.end())
    return It->second;
  assert(!Frozen && "interning a new sort in a frozen TermManager");
  Sorts.emplace_back(new Sort(SortKind::Uninterpreted, Name, nullptr, nullptr));
  Sorts.back()->Fingerprint =
      sortFingerprintOf(SortKind::Uninterpreted, Name, nullptr, nullptr);
  const Sort *S = Sorts.back().get();
  NamedSorts.emplace(Name, S);
  return S;
}

const Sort *TermManager::getArraySort(const Sort *Key, const Sort *Value) {
  std::string Mangled = "[" + Key->toString() + "->" + Value->toString() + "]";
  if (BaseMgr) {
    auto BIt = BaseMgr->NamedSorts.find(Mangled);
    if (BIt != BaseMgr->NamedSorts.end())
      return BIt->second;
  }
  auto It = NamedSorts.find(Mangled);
  if (It != NamedSorts.end())
    return It->second;
  assert(!Frozen && "interning a new sort in a frozen TermManager");
  Sorts.emplace_back(new Sort(SortKind::Array, "", Key, Value));
  Sorts.back()->Fingerprint =
      sortFingerprintOf(SortKind::Array, "", Key, Value);
  const Sort *S = Sorts.back().get();
  NamedSorts.emplace(Mangled, S);
  return S;
}

const FuncDecl *TermManager::getFuncDecl(const std::string &Name,
                                         std::vector<const Sort *> ArgSorts,
                                         const Sort *RetSort) {
  if (BaseMgr) {
    auto BIt = BaseMgr->NamedDecls.find(Name);
    if (BIt != BaseMgr->NamedDecls.end()) {
      assert(BIt->second->getRetSort() == RetSort &&
             BIt->second->getArgSorts() == ArgSorts &&
             "function redeclared with a different signature");
      return BIt->second;
    }
  }
  auto It = NamedDecls.find(Name);
  if (It != NamedDecls.end()) {
    assert(It->second->getRetSort() == RetSort &&
           It->second->getArgSorts() == ArgSorts &&
           "function redeclared with a different signature");
    return It->second;
  }
  assert(!Frozen && "interning a new declaration in a frozen TermManager");
  Decls.emplace_back(new FuncDecl(Name, std::move(ArgSorts), RetSort));
  {
    FuncDecl *D = Decls.back().get();
    uint64_t H = structMix(0xdec1u, std::hash<std::string>()(D->Name));
    H = structMix(H, D->RetSort->getFingerprint());
    for (const Sort *A : D->ArgSorts)
      H = structMix(H, A->getFingerprint());
    D->Fingerprint = H;
  }
  const FuncDecl *D = Decls.back().get();
  NamedDecls.emplace(Name, D);
  return D;
}

size_t TermManager::hashTerm(const Term &Node) {
  size_t H = static_cast<size_t>(Node.Kind) * 0x9e3779b97f4a7c15ull;
  H ^= reinterpret_cast<size_t>(Node.SortPtr) + (H << 6) + (H >> 2);
  for (TermRef Arg : Node.Args)
    H ^= Arg->getId() + 0x9e3779b9u + (H << 6) + (H >> 2);
  for (TermRef BV : Node.Bound)
    H ^= BV->getId() * 131u + (H << 5);
  H ^= std::hash<std::string>()(Node.Name) + (H << 3);
  H ^= Node.IntVal.hash() * 7u;
  H ^= Node.RatVal.hash() * 13u;
  H ^= reinterpret_cast<size_t>(Node.Decl);
  return H;
}

bool TermManager::equalTerm(const Term &A, const Term &B) {
  return A.Kind == B.Kind && A.SortPtr == B.SortPtr && A.Args == B.Args &&
         A.Bound == B.Bound && A.Name == B.Name && A.Decl == B.Decl &&
         A.IntVal == B.IntVal && A.RatVal == B.RatVal;
}

TermRef TermManager::intern(Term &&Node) {
  size_t H = hashTerm(Node);
  // Probe the frozen base first: its sort/decl/term pointers are shared
  // with this overlay, so hash and equality agree across the two tables
  // and a base hit is returned with no copy and no lock.
  if (BaseMgr) {
    auto [BIt, BEnd] = BaseMgr->Table.equal_range(H);
    for (; BIt != BEnd; ++BIt)
      if (equalTerm(*BIt->second, Node))
        return BIt->second;
  }
  for (auto [It, End] = Table.equal_range(H); It != End; ++It)
    if (equalTerm(*It->second, Node))
      return It->second;
  assert(!Frozen && "interning a new term in a frozen TermManager");
  Node.Id = NextId++;
  // Structural DAG hash: two independently seeded 64-bit mixes over the
  // node's kind, payload and the (already computed) child hashes. O(1)
  // per node since children are interned first.
  for (int Half = 0; Half < 2; ++Half) {
    uint64_t SH = structMix(Half == 0 ? 0x1d5a11ceull : 0xc0dedbadull,
                            static_cast<uint64_t>(Node.Kind));
    switch (Node.Kind) {
    case TermKind::Var:
      SH = structMix(SH, std::hash<std::string>()(Node.Name));
      SH = structMix(SH, Node.SortPtr->getFingerprint());
      break;
    case TermKind::IntConst:
      SH = structMix(SH, Node.IntVal.hash());
      break;
    case TermKind::RatConst:
      SH = structMix(SH, Node.RatVal.hash());
      break;
    case TermKind::Apply:
      SH = structMix(SH, Node.Decl->getFingerprint());
      break;
    case TermKind::ConstArray:
      SH = structMix(SH, Node.SortPtr->getFingerprint());
      break;
    default:
      break;
    }
    for (TermRef Arg : Node.Args)
      SH = structMix(SH, Half == 0 ? Arg->getStructHashLo()
                                   : Arg->getStructHashHi());
    for (TermRef BV : Node.Bound)
      SH = structMix(SH, Half == 0 ? BV->getStructHashLo()
                                   : BV->getStructHashHi());
    (Half == 0 ? Node.StructHashLo : Node.StructHashHi) = SH;
  }
  Terms.emplace_back(new Term(std::move(Node)));
  TermRef Result = Terms.back().get();
  Table.emplace(H, Result);
  return Result;
}

TermRef TermManager::mkIntConst(BigInt Value) {
  Term Node;
  Node.Kind = TermKind::IntConst;
  Node.SortPtr = IntSort;
  Node.IntVal = std::move(Value);
  return intern(std::move(Node));
}

TermRef TermManager::mkRatConst(Rational Value) {
  Term Node;
  Node.Kind = TermKind::RatConst;
  Node.SortPtr = RatSort;
  Node.RatVal = std::move(Value);
  return intern(std::move(Node));
}

TermRef TermManager::mkVar(const std::string &Name, const Sort *S) {
  if (BaseMgr) {
    auto BIt = BaseMgr->NamedVars.find(Name);
    if (BIt != BaseMgr->NamedVars.end()) {
      assert(BIt->second->getSort() == S &&
             "variable redeclared with a different sort");
      return BIt->second;
    }
  }
  auto It = NamedVars.find(Name);
  if (It != NamedVars.end()) {
    assert(It->second->getSort() == S &&
           "variable redeclared with a different sort");
    return It->second;
  }
  Term Node;
  Node.Kind = TermKind::Var;
  Node.SortPtr = S;
  Node.Name = Name;
  TermRef Result = intern(std::move(Node));
  NamedVars.emplace(Name, Result);
  return Result;
}

TermRef TermManager::mkFreshVar(const std::string &Prefix, const Sort *S) {
  for (;;) {
    std::string Candidate = Prefix + "!" + std::to_string(FreshCounter++);
    if (NamedVars.count(Candidate))
      continue;
    if (BaseMgr && BaseMgr->NamedVars.count(Candidate))
      continue;
    return mkVar(Candidate, S);
  }
}

TermRef TermManager::mkNot(TermRef A) {
  assert(A->getSort()->isBool());
  if (A == TrueTerm)
    return FalseTerm;
  if (A == FalseTerm)
    return TrueTerm;
  if (A->getKind() == TermKind::Not)
    return A->getArg(0);
  Term Node;
  Node.Kind = TermKind::Not;
  Node.SortPtr = BoolSort;
  Node.Args = {A};
  return intern(std::move(Node));
}

TermRef TermManager::mkAnd(std::vector<TermRef> Args) {
  std::vector<TermRef> Flat;
  for (TermRef A : Args) {
    assert(A->getSort()->isBool());
    if (A == TrueTerm)
      continue;
    if (A == FalseTerm)
      return FalseTerm;
    if (A->getKind() == TermKind::And) {
      for (TermRef Sub : A->getArgs())
        Flat.push_back(Sub);
    } else {
      Flat.push_back(A);
    }
  }
  std::sort(Flat.begin(), Flat.end(),
            [](TermRef A, TermRef B) { return A->getId() < B->getId(); });
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  if (Flat.empty())
    return TrueTerm;
  if (Flat.size() == 1)
    return Flat[0];
  Term Node;
  Node.Kind = TermKind::And;
  Node.SortPtr = BoolSort;
  Node.Args = std::move(Flat);
  return intern(std::move(Node));
}

TermRef TermManager::mkOr(std::vector<TermRef> Args) {
  std::vector<TermRef> Flat;
  for (TermRef A : Args) {
    assert(A->getSort()->isBool());
    if (A == FalseTerm)
      continue;
    if (A == TrueTerm)
      return TrueTerm;
    if (A->getKind() == TermKind::Or) {
      for (TermRef Sub : A->getArgs())
        Flat.push_back(Sub);
    } else {
      Flat.push_back(A);
    }
  }
  std::sort(Flat.begin(), Flat.end(),
            [](TermRef A, TermRef B) { return A->getId() < B->getId(); });
  Flat.erase(std::unique(Flat.begin(), Flat.end()), Flat.end());
  if (Flat.empty())
    return FalseTerm;
  if (Flat.size() == 1)
    return Flat[0];
  Term Node;
  Node.Kind = TermKind::Or;
  Node.SortPtr = BoolSort;
  Node.Args = std::move(Flat);
  return intern(std::move(Node));
}

TermRef TermManager::mkImplies(TermRef A, TermRef B) {
  return mkOr(mkNot(A), B);
}

TermRef TermManager::mkIte(TermRef Cond, TermRef Then, TermRef Else) {
  assert(Cond->getSort()->isBool());
  assert(Then->getSort() == Else->getSort());
  if (Cond == TrueTerm)
    return Then;
  if (Cond == FalseTerm)
    return Else;
  if (Then == Else)
    return Then;
  if (Then->getSort()->isBool()) {
    // Fold boolean ite into connectives; keeps CNF conversion simpler.
    if (Then == TrueTerm)
      return mkOr(Cond, Else);
    if (Then == FalseTerm)
      return mkAnd(mkNot(Cond), Else);
    if (Else == TrueTerm)
      return mkOr(mkNot(Cond), Then);
    if (Else == FalseTerm)
      return mkAnd(Cond, Then);
  }
  Term Node;
  Node.Kind = TermKind::Ite;
  Node.SortPtr = Then->getSort();
  Node.Args = {Cond, Then, Else};
  return intern(std::move(Node));
}

TermRef TermManager::mkEq(TermRef A, TermRef B) {
  assert(A->getSort() == B->getSort() && "equality between distinct sorts");
  if (A == B)
    return TrueTerm;
  if (A->isValue() && B->isValue())
    return FalseTerm; // distinct interned constants of the same sort
  if (A->getSort()->isBool()) {
    if (A == TrueTerm)
      return B;
    if (B == TrueTerm)
      return A;
    if (A == FalseTerm)
      return mkNot(B);
    if (B == FalseTerm)
      return mkNot(A);
  }
  if (A->getId() > B->getId())
    std::swap(A, B);
  Term Node;
  Node.Kind = TermKind::Eq;
  Node.SortPtr = BoolSort;
  Node.Args = {A, B};
  return intern(std::move(Node));
}

static bool isNumericConst(TermRef T) {
  return T->getKind() == TermKind::IntConst ||
         T->getKind() == TermKind::RatConst;
}

static Rational constValue(TermRef T) {
  if (T->getKind() == TermKind::IntConst)
    return Rational(T->getIntValue());
  return T->getRatValue();
}

TermRef TermManager::mkAdd(std::vector<TermRef> Args) {
  assert(!Args.empty());
  const Sort *S = Args[0]->getSort();
  assert(S->isNumeric());
  std::vector<TermRef> Flat;
  Rational ConstSum;
  for (TermRef A : Args) {
    assert(A->getSort() == S && "mixed-sort addition");
    if (A->getKind() == TermKind::Add) {
      for (TermRef Sub : A->getArgs()) {
        if (isNumericConst(Sub))
          ConstSum += constValue(Sub);
        else
          Flat.push_back(Sub);
      }
    } else if (isNumericConst(A)) {
      ConstSum += constValue(A);
    } else {
      Flat.push_back(A);
    }
  }
  // Collect like terms: decompose c*t / t and sum coefficients per base.
  std::vector<std::pair<TermRef, Rational>> Bases;
  for (TermRef A : Flat) {
    TermRef Base = A;
    Rational Coeff(1);
    if (A->getKind() == TermKind::Mul) {
      Coeff = constValue(A->getArg(0));
      Base = A->getArg(1);
    }
    bool Found = false;
    for (auto &[B, C] : Bases) {
      if (B == Base) {
        C += Coeff;
        Found = true;
        break;
      }
    }
    if (!Found)
      Bases.emplace_back(Base, Coeff);
  }
  Flat.clear();
  for (const auto &[Base, Coeff] : Bases)
    if (!Coeff.isZero())
      Flat.push_back(mkMulConst(Coeff, Base));
  if (!ConstSum.isZero() || Flat.empty()) {
    if (S->isInt()) {
      assert(ConstSum.isInteger());
      Flat.push_back(mkIntConst(ConstSum.numerator()));
    } else {
      Flat.push_back(mkRatConst(ConstSum));
    }
  }
  if (Flat.size() == 1)
    return Flat[0];
  std::sort(Flat.begin(), Flat.end(),
            [](TermRef A, TermRef B) { return A->getId() < B->getId(); });
  Term Node;
  Node.Kind = TermKind::Add;
  Node.SortPtr = S;
  Node.Args = std::move(Flat);
  return intern(std::move(Node));
}

TermRef TermManager::mkMulConst(const Rational &Const, TermRef A) {
  const Sort *S = A->getSort();
  assert(S->isNumeric());
  if (isNumericConst(A)) {
    Rational V = constValue(A) * Const;
    if (S->isInt()) {
      assert(V.isInteger());
      return mkIntConst(V.numerator());
    }
    return mkRatConst(V);
  }
  if (Const.isZero())
    return S->isInt() ? mkIntConst(0) : mkRatConst(Rational(0));
  if (Const == Rational(1))
    return A;
  if (A->getKind() == TermKind::Mul)
    return mkMulConst(Const * constValue(A->getArg(0)), A->getArg(1));
  if (A->getKind() == TermKind::Add) {
    std::vector<TermRef> Scaled;
    Scaled.reserve(A->getNumArgs());
    for (TermRef Sub : A->getArgs())
      Scaled.push_back(mkMulConst(Const, Sub));
    return mkAdd(std::move(Scaled));
  }
  TermRef ConstTerm;
  if (S->isInt()) {
    assert(Const.isInteger() && "non-integer coefficient on Int term");
    ConstTerm = mkIntConst(Const.numerator());
  } else {
    ConstTerm = mkRatConst(Const);
  }
  Term Node;
  Node.Kind = TermKind::Mul;
  Node.SortPtr = S;
  Node.Args = {ConstTerm, A};
  return intern(std::move(Node));
}

TermRef TermManager::mkNeg(TermRef A) { return mkMulConst(Rational(-1), A); }

TermRef TermManager::mkSub(TermRef A, TermRef B) {
  return mkAdd(A, mkNeg(B));
}

TermRef TermManager::mkLe(TermRef A, TermRef B) {
  assert(A->getSort() == B->getSort() && A->getSort()->isNumeric());
  if (A == B)
    return TrueTerm;
  if (isNumericConst(A) && isNumericConst(B))
    return mkBool(constValue(A) <= constValue(B));
  Term Node;
  Node.Kind = TermKind::Le;
  Node.SortPtr = BoolSort;
  Node.Args = {A, B};
  return intern(std::move(Node));
}

TermRef TermManager::mkLt(TermRef A, TermRef B) {
  assert(A->getSort() == B->getSort() && A->getSort()->isNumeric());
  if (A == B)
    return FalseTerm;
  if (isNumericConst(A) && isNumericConst(B))
    return mkBool(constValue(A) < constValue(B));
  Term Node;
  Node.Kind = TermKind::Lt;
  Node.SortPtr = BoolSort;
  Node.Args = {A, B};
  return intern(std::move(Node));
}

TermRef TermManager::mkSelect(TermRef Array, TermRef Index) {
  const Sort *S = Array->getSort();
  assert(S->isArray() && S->getKey() == Index->getSort());
  if (Array->getKind() == TermKind::Store) {
    if (Array->getArg(1) == Index)
      return Array->getArg(2);
  }
  if (Array->getKind() == TermKind::ConstArray)
    return Array->getArg(0);
  Term Node;
  Node.Kind = TermKind::Select;
  Node.SortPtr = S->getValue();
  Node.Args = {Array, Index};
  return intern(std::move(Node));
}

TermRef TermManager::mkStore(TermRef Array, TermRef Index, TermRef Value) {
  const Sort *S = Array->getSort();
  assert(S->isArray() && S->getKey() == Index->getSort() &&
         S->getValue() == Value->getSort());
  if (Array->getKind() == TermKind::Store && Array->getArg(1) == Index)
    Array = Array->getArg(0);
  Term Node;
  Node.Kind = TermKind::Store;
  Node.SortPtr = S;
  Node.Args = {Array, Index, Value};
  return intern(std::move(Node));
}

TermRef TermManager::mkConstArray(const Sort *ArraySort, TermRef Value) {
  assert(ArraySort->isArray() && ArraySort->getValue() == Value->getSort());
  Term Node;
  Node.Kind = TermKind::ConstArray;
  Node.SortPtr = ArraySort;
  Node.Args = {Value};
  return intern(std::move(Node));
}

static bool isConstBoolArray(TermRef T, bool Value) {
  return T->getKind() == TermKind::ConstArray &&
         T->getArg(0)->getKind() ==
             (Value ? TermKind::True : TermKind::False);
}

TermRef TermManager::mkMapOr(TermRef A, TermRef B) {
  assert(A->getSort() == B->getSort() && A->getSort()->isArray() &&
         A->getSort()->getValue()->isBool());
  if (A == B)
    return A;
  if (isConstBoolArray(A, false))
    return B;
  if (isConstBoolArray(B, false))
    return A;
  if (isConstBoolArray(A, true) || isConstBoolArray(B, true))
    return mkConstArray(A->getSort(), mkTrue());
  if (A->getId() > B->getId())
    std::swap(A, B);
  Term Node;
  Node.Kind = TermKind::MapOr;
  Node.SortPtr = A->getSort();
  Node.Args = {A, B};
  return intern(std::move(Node));
}

TermRef TermManager::mkMapAnd(TermRef A, TermRef B) {
  assert(A->getSort() == B->getSort() && A->getSort()->isArray() &&
         A->getSort()->getValue()->isBool());
  if (A == B)
    return A;
  if (isConstBoolArray(A, true))
    return B;
  if (isConstBoolArray(B, true))
    return A;
  if (isConstBoolArray(A, false) || isConstBoolArray(B, false))
    return mkConstArray(A->getSort(), mkFalse());
  if (A->getId() > B->getId())
    std::swap(A, B);
  Term Node;
  Node.Kind = TermKind::MapAnd;
  Node.SortPtr = A->getSort();
  Node.Args = {A, B};
  return intern(std::move(Node));
}

TermRef TermManager::mkMapDiff(TermRef A, TermRef B) {
  assert(A->getSort() == B->getSort() && A->getSort()->isArray() &&
         A->getSort()->getValue()->isBool());
  if (isConstBoolArray(B, false))
    return A;
  if (A == B || isConstBoolArray(A, false) || isConstBoolArray(B, true))
    return mkConstArray(A->getSort(), mkFalse());
  Term Node;
  Node.Kind = TermKind::MapDiff;
  Node.SortPtr = A->getSort();
  Node.Args = {A, B};
  return intern(std::move(Node));
}

TermRef TermManager::mkPwIte(TermRef Guard, TermRef A, TermRef B) {
  assert(Guard->getSort()->isArray() &&
         Guard->getSort()->getValue()->isBool());
  assert(A->getSort() == B->getSort() && A->getSort()->isArray() &&
         A->getSort()->getKey() == Guard->getSort()->getKey());
  if (A == B)
    return A;
  if (isConstBoolArray(Guard, true))
    return A;
  if (isConstBoolArray(Guard, false))
    return B;
  Term Node;
  Node.Kind = TermKind::PwIte;
  Node.SortPtr = A->getSort();
  Node.Args = {Guard, A, B};
  return intern(std::move(Node));
}

TermRef TermManager::mkEmptySet(const Sort *ElemSort) {
  return mkConstArray(getArraySort(ElemSort, BoolSort), mkFalse());
}

TermRef TermManager::mkSingleton(TermRef Elem) {
  return mkSetInsert(mkEmptySet(Elem->getSort()), Elem);
}

TermRef TermManager::mkApply(const FuncDecl *Decl, std::vector<TermRef> Args) {
  assert(Decl->getArgSorts().size() == Args.size());
  for (size_t I = 0; I < Args.size(); ++I)
    assert(Args[I]->getSort() == Decl->getArgSorts()[I]);
  Term Node;
  Node.Kind = TermKind::Apply;
  Node.SortPtr = Decl->getRetSort();
  Node.Args = std::move(Args);
  Node.Decl = Decl;
  return intern(std::move(Node));
}

TermRef TermManager::mkForall(std::vector<TermRef> BoundVars, TermRef Body) {
  assert(Body->getSort()->isBool());
  for ([[maybe_unused]] TermRef BV : BoundVars)
    assert(BV->getKind() == TermKind::Var && "binder must be a Var term");
  if (Body == TrueTerm || Body == FalseTerm || BoundVars.empty())
    return Body;
  Term Node;
  Node.Kind = TermKind::Forall;
  Node.SortPtr = BoolSort;
  Node.Args = {Body};
  Node.Bound = std::move(BoundVars);
  return intern(std::move(Node));
}

namespace {
/// Rebuilds a term bottom-up through the smart constructors, applying a
/// Var substitution. Memoised per call.
class Substituter {
public:
  Substituter(TermManager &TM,
              const std::unordered_map<TermRef, TermRef> &Map)
      : TM(TM), Map(Map) {}

  TermRef visit(TermRef T) {
    auto It = Cache.find(T);
    if (It != Cache.end())
      return It->second;
    TermRef Result = compute(T);
    Cache.emplace(T, Result);
    return Result;
  }

private:
  TermRef compute(TermRef T);

  TermManager &TM;
  const std::unordered_map<TermRef, TermRef> &Map;
  std::unordered_map<TermRef, TermRef> Cache;
};
} // namespace

TermRef Substituter::compute(TermRef T) {
  switch (T->getKind()) {
  case TermKind::Var: {
    auto It = Map.find(T);
    return It == Map.end() ? T : It->second;
  }
  case TermKind::True:
  case TermKind::False:
  case TermKind::IntConst:
  case TermKind::RatConst:
    return T;
  default:
    break;
  }
  std::vector<TermRef> NewArgs;
  NewArgs.reserve(T->getNumArgs());
  bool Changed = false;
  for (TermRef Arg : T->getArgs()) {
    TermRef NewArg = visit(Arg);
    Changed |= NewArg != Arg;
    NewArgs.push_back(NewArg);
  }
  if (!Changed)
    return T;
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
  case TermKind::Forall: {
    // Shadowed binders must not be substituted; our pipeline never maps
    // bound names, but guard anyway by filtering them out.
    std::vector<TermRef> Bound = T->getBoundVars();
    for ([[maybe_unused]] TermRef BV : Bound)
      assert(!Map.count(BV) && "substitution would capture a bound variable");
    return TM.mkForall(std::move(Bound), NewArgs[0]);
  }
  default:
    assert(false && "unhandled term kind in substitution");
    return T;
  }
}

TermRef TermManager::substitute(
    TermRef T, const std::unordered_map<TermRef, TermRef> &Map) {
  if (Map.empty())
    return T;
  Substituter S(*this, Map);
  return S.visit(T);
}

const Sort *TermManager::importSort(const Sort *Foreign) {
  switch (Foreign->getKind()) {
  case SortKind::Bool:
    return BoolSort;
  case SortKind::Int:
    return IntSort;
  case SortKind::Rat:
    return RatSort;
  case SortKind::Uninterpreted:
    return getUninterpretedSort(Foreign->getName());
  case SortKind::Array:
    return getArraySort(importSort(Foreign->getKey()),
                        importSort(Foreign->getValue()));
  }
  assert(false && "unhandled sort kind");
  return BoolSort;
}

TermRef TermManager::import(TermRef Foreign) {
  trace::counter("smt.term_imports").add(1);
  // Iterative post-order: VC terms can be deep (long store chains), so
  // recursion is not an option.
  std::vector<TermRef> Stack = {Foreign};
  while (!Stack.empty()) {
    TermRef T = Stack.back();
    if (ImportCache.count(T)) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (TermRef Arg : T->getArgs())
      if (!ImportCache.count(Arg)) {
        Stack.push_back(Arg);
        Ready = false;
      }
    if (T->getKind() == TermKind::Forall)
      for (TermRef BV : T->getBoundVars())
        if (!ImportCache.count(BV)) {
          Stack.push_back(BV);
          Ready = false;
        }
    if (!Ready)
      continue;
    Stack.pop_back();

    std::vector<TermRef> Args;
    Args.reserve(T->getNumArgs());
    for (TermRef Arg : T->getArgs())
      Args.push_back(ImportCache[Arg]);

    TermRef Local = nullptr;
    switch (T->getKind()) {
    case TermKind::True:
      Local = TrueTerm;
      break;
    case TermKind::False:
      Local = FalseTerm;
      break;
    case TermKind::IntConst:
      Local = mkIntConst(T->getIntValue());
      break;
    case TermKind::RatConst:
      Local = mkRatConst(T->getRatValue());
      break;
    case TermKind::Var:
      Local = mkVar(T->getName(), importSort(T->getSort()));
      break;
    case TermKind::Not:
      Local = mkNot(Args[0]);
      break;
    case TermKind::And:
      Local = mkAnd(std::move(Args));
      break;
    case TermKind::Or:
      Local = mkOr(std::move(Args));
      break;
    case TermKind::Implies:
      Local = mkImplies(Args[0], Args[1]);
      break;
    case TermKind::Ite:
      Local = mkIte(Args[0], Args[1], Args[2]);
      break;
    case TermKind::Eq:
      Local = mkEq(Args[0], Args[1]);
      break;
    case TermKind::Add:
      Local = mkAdd(std::move(Args));
      break;
    case TermKind::Mul:
      Local = mkMulConst(Args[0]->getKind() == TermKind::IntConst
                             ? Rational(Args[0]->getIntValue())
                             : Args[0]->getRatValue(),
                         Args[1]);
      break;
    case TermKind::Le:
      Local = mkLe(Args[0], Args[1]);
      break;
    case TermKind::Lt:
      Local = mkLt(Args[0], Args[1]);
      break;
    case TermKind::Select:
      Local = mkSelect(Args[0], Args[1]);
      break;
    case TermKind::Store:
      Local = mkStore(Args[0], Args[1], Args[2]);
      break;
    case TermKind::ConstArray:
      Local = mkConstArray(importSort(T->getSort()), Args[0]);
      break;
    case TermKind::MapOr:
      Local = mkMapOr(Args[0], Args[1]);
      break;
    case TermKind::MapAnd:
      Local = mkMapAnd(Args[0], Args[1]);
      break;
    case TermKind::MapDiff:
      Local = mkMapDiff(Args[0], Args[1]);
      break;
    case TermKind::PwIte:
      Local = mkPwIte(Args[0], Args[1], Args[2]);
      break;
    case TermKind::Apply: {
      const FuncDecl *D = T->getDecl();
      std::vector<const Sort *> ArgSorts;
      ArgSorts.reserve(D->getArgSorts().size());
      for (const Sort *S : D->getArgSorts())
        ArgSorts.push_back(importSort(S));
      Local = mkApply(getFuncDecl(D->getName(), std::move(ArgSorts),
                                  importSort(D->getRetSort())),
                      std::move(Args));
      break;
    }
    case TermKind::Forall: {
      std::vector<TermRef> Bound;
      Bound.reserve(T->getBoundVars().size());
      for (TermRef BV : T->getBoundVars())
        Bound.push_back(ImportCache[BV]);
      Local = mkForall(std::move(Bound), Args[0]);
      break;
    }
    }
    assert(Local && "unhandled term kind in import");
    ImportCache.emplace(T, Local);
  }
  return ImportCache[Foreign];
}

bool TermManager::containsQuantifier(TermRef T) const {
  std::vector<TermRef> Work = {T};
  std::unordered_map<TermRef, bool> Seen;
  while (!Work.empty()) {
    TermRef Cur = Work.back();
    Work.pop_back();
    if (Seen.count(Cur))
      continue;
    Seen.emplace(Cur, true);
    if (Cur->getKind() == TermKind::Forall)
      return true;
    for (TermRef Arg : Cur->getArgs())
      Work.push_back(Arg);
  }
  return false;
}
