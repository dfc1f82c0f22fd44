//===- smt/TheoryEngine.cpp - DPLL(T) theory integration ------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "smt/TheoryEngine.h"

#include "smt/SmtCounters.h"
#include "support/Log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <optional>

using namespace ids;
using namespace ids::smt;

namespace {
/// Kind test: boolean terms that become SAT structure rather than atoms.
bool isBoolStructure(TermRef T) {
  switch (T->getKind()) {
  case TermKind::Not:
  case TermKind::And:
  case TermKind::Or:
    return true;
  case TermKind::Ite:
    return T->getSort()->isBool();
  case TermKind::Eq:
    return T->getArg(0)->getSort()->isBool();
  default:
    return false;
  }
}
} // namespace

const char *smt::describe(UnknownReason R) {
  switch (R) {
  case UnknownReason::None:
    break;
  case UnknownReason::Budget:
    return "solver resource budget exhausted";
  case UnknownReason::Timeout:
    return "solver time limit reached";
  case UnknownReason::ArithUndecided:
    return "arithmetic branch and bound undecided";
  case UnknownReason::ModelIncomplete:
    return "model construction incomplete";
  case UnknownReason::Instantiation:
    return "quantified encoding: instantiation was incomplete";
  }
  return "undecided";
}

void SolverCore::recordCheck() const {
  SmtCounters &TC = smtCounters();
  TC.CheckSats.add();
  TC.Decisions.add(Sat.numDecisions());
  TC.Conflicts.add(Sat.numConflicts());
  TC.TheoryConflicts.add(Sat.numTheoryConflicts());
  TC.TheoryChecks.add(St.TheoryChecks);
  TC.Propagations.add(St.EqualitiesPropagated);
  TC.ModelRepairs.add(St.ModelRepairs);
  TC.ModelGiveUps.add(St.ModelGiveUps);
  TC.Instantiations.add(St.Instantiations);
  TC.ArrayLemmas.add(St.ArrayStats.NumLemmas);
  TC.AssertsReused.add(St.TheoryAssertsReused);
  TC.CcRegistrationsReused.add(St.CcRegistrationsReused);
  TC.MaxAtoms.recordMax(St.NumAtoms);
  TC.Restarts.add(Sat.numRestarts());
  TC.TheoryPropagations.add(Sat.numTheoryPropagations());
  TC.PropagationConflicts.add(Sat.numTheoryPropConflicts());
}

sat::Lit SolverCore::litFor(TermRef T) {
  if (T->getKind() == TermKind::Not)
    return ~litFor(T->getArg(0));
  auto It = LitCache.find(T);
  if (It != LitCache.end()) {
    sat::Lit L;
    L.Code = It->second;
    return L;
  }
  sat::Lit Result;
  if (T->getKind() == TermKind::True || T->getKind() == TermKind::False) {
    sat::Var V = Sat.newVar();
    Result = sat::Lit(V, /*Negated=*/T->getKind() == TermKind::False);
    Sat.addClause({sat::Lit(V, T->getKind() == TermKind::False)});
  } else if (isBoolStructure(T)) {
    sat::Var V = Sat.newVar();
    Result = sat::Lit(V, false);
    switch (T->getKind()) {
    case TermKind::And: {
      std::vector<sat::Lit> Long = {Result};
      for (TermRef A : T->getArgs()) {
        sat::Lit LA = litFor(A);
        Sat.addClause({~Result, LA});
        Long.push_back(~LA);
      }
      Sat.addClause(std::move(Long));
      break;
    }
    case TermKind::Or: {
      std::vector<sat::Lit> Long = {~Result};
      for (TermRef A : T->getArgs()) {
        sat::Lit LA = litFor(A);
        Sat.addClause({Result, ~LA});
        Long.push_back(LA);
      }
      Sat.addClause(std::move(Long));
      break;
    }
    case TermKind::Eq: { // iff
      sat::Lit X = litFor(T->getArg(0));
      sat::Lit Y = litFor(T->getArg(1));
      Sat.addClause({~Result, ~X, Y});
      Sat.addClause({~Result, X, ~Y});
      Sat.addClause({Result, X, Y});
      Sat.addClause({Result, ~X, ~Y});
      break;
    }
    case TermKind::Ite: {
      sat::Lit Cond = litFor(T->getArg(0));
      sat::Lit Th = litFor(T->getArg(1));
      sat::Lit El = litFor(T->getArg(2));
      Sat.addClause({~Result, ~Cond, Th});
      Sat.addClause({~Result, Cond, El});
      Sat.addClause({Result, ~Cond, ~Th});
      Sat.addClause({Result, Cond, ~El});
      break;
    }
    default:
      break;
    }
  } else {
    // Theory atom.
    sat::Var V = Sat.newVar();
    Result = sat::Lit(V, false);
    Sat.markTheoryVar(V);
    AtomIndex.emplace(T, static_cast<int>(Atoms.size()));
    Atoms.push_back(T);
    AtomVar.push_back(V);
    LitCache.emplace(T, Result.Code);
    return Result;
  }
  LitCache.emplace(T, Result.Code);
  return Result;
}

namespace ids::smt {
/// Tag for the artificial x != y separations asserted during model repair
/// (index-collision splitting). Negative so expandTags never leaks it into
/// a learned clause; conflict cores containing it must not become theory
/// lemmas (the separation is not an input constraint).
constexpr int SeparationTag = -7;
/// Tag for the definition `v = p` of a composite index's variable. It
/// holds in every model, so dropping it from an explanation is sound.
constexpr int DefinitionTag = -8;
/// Rounds of model repair (index-collision separation) before the query
/// gives up (SolverResult::Unknown).
constexpr unsigned MaxModelRepairIters = 8;
} // namespace ids::smt

TheoryEngine::TheoryEngine(SolverCore &C)
    : C(C), TM(C.TM), Rebuild(C.Opts.Theory == TheoryMode::Rebuild),
      PropMode(C.Opts.Theory == TheoryMode::Propagate) {
  if (!Rebuild) {
    CC = std::make_unique<CongruenceClosure>(TM);
    Arith = std::make_unique<ArithSolver>();
  }
}

TheoryEngine::~TheoryEngine() = default;

LinTerm TheoryEngine::polyOf(TermRef T) {
  LinTerm Result;
  switch (T->getKind()) {
  case TermKind::IntConst:
    Result.Const = Rational(T->getIntValue());
    return Result;
  case TermKind::RatConst:
    Result.Const = T->getRatValue();
    return Result;
  case TermKind::Add: {
    for (TermRef A : T->getArgs()) {
      LinTerm Sub = polyOf(A);
      Result.Const += Sub.Const;
      for (const auto &[V, Coeff] : Sub.Coeffs)
        Result.add(V, Coeff);
    }
    return Result;
  }
  case TermKind::Mul: {
    TermRef CT = T->getArg(0);
    Rational Coeff = CT->getKind() == TermKind::IntConst
                         ? Rational(CT->getIntValue())
                         : CT->getRatValue();
    LinTerm Sub = polyOf(T->getArg(1));
    Result.Const = Sub.Const * Coeff;
    for (const auto &[V, SubCoeff] : Sub.Coeffs)
      Result.add(V, SubCoeff * Coeff);
    return Result;
  }
  default:
    // Opaque numeric term (Var / Select / Apply).
    Result.add(arithVarFor(T), Rational(1));
    return Result;
  }
}

int TheoryEngine::arithVarFor(TermRef T) {
  auto It = ArithVars.find(T);
  if (It != ArithVars.end())
    return It->second;
  CC->registerTerm(T);
  int V;
  auto VIt = VarOfTerm.find(T);
  if (VIt != VarOfTerm.end()) {
    V = VIt->second; // re-asserted after a trail-sync pop
  } else {
    V = Arith->addVar(T->getSort()->isInt());
    VarOfTerm.emplace(T, V);
  }
  ArithVars.emplace(T, V);
  OpaqueNumeric.push_back(T);
  return V;
}

int TheoryEngine::newCompositeTag(const std::set<int> &Expl) {
  int Tag = static_cast<int>(C.Atoms.size() + CompositeExpl.size());
  CompositeExpl.emplace_back(Expl.begin(), Expl.end());
  return Tag;
}

void TheoryEngine::expandTags(const std::set<int> &In,
                              std::set<int> &Out) const {
  std::vector<int> Work(In.begin(), In.end());
  std::set<int> Seen;
  int Base = static_cast<int>(C.Atoms.size());
  while (!Work.empty()) {
    int T = Work.back();
    Work.pop_back();
    if (T < 0 || !Seen.insert(T).second)
      continue;
    if (T < Base) {
      Out.insert(T);
      continue;
    }
    for (int Sub : CompositeExpl[T - Base])
      Work.push_back(Sub);
  }
}

void TheoryEngine::clauseFromTags(const std::set<int> &Tags,
                                  std::vector<sat::Lit> &Out) const {
  std::set<int> AtomTags;
  expandTags(Tags, AtomTags);
  Out.clear();
  for (int T : AtomTags) {
    bool V = atomValue(T);
    // The clause negates the current assignment of this atom.
    Out.push_back(sat::Lit(C.AtomVar[T], /*Negated=*/V));
  }
}

bool TheoryEngine::assertOneAtom(int AtomIdx,
                                 std::vector<sat::Lit> &ConflictOut) {
  TermRef A = C.Atoms[AtomIdx];
  bool V = atomValue(AtomIdx);
  int Tag = AtomIdx;
  switch (A->getKind()) {
  case TermKind::Eq: {
    TermRef X = A->getArg(0), Y = A->getArg(1);
    CC->registerTerm(X);
    CC->registerTerm(Y);
    bool Ok = V ? CC->assertEqual(X, Y, Tag)
                : CC->assertDisequal(X, Y, Tag);
    if (X->getSort()->isNumeric()) {
      LinTerm P = polyOf(X);
      LinTerm R = polyOf(Y);
      P.Const -= R.Const;
      for (const auto &[Var, Coeff] : R.Coeffs)
        P.add(Var, -Coeff);
      Arith->assertAtom(P, V ? ArithSolver::Op::Eq : ArithSolver::Op::Ne,
                        Tag);
    }
    if (!Ok || CC->inConflict()) {
      std::set<int> Tags(CC->conflictTags().begin(),
                         CC->conflictTags().end());
      clauseFromTags(Tags, ConflictOut);
      return false;
    }
    break;
  }
  case TermKind::Le:
  case TermKind::Lt: {
    // Re-sync fast path: preRegister cached the lowered (slack var,
    // direction, bound) for both polarities, so re-asserting after a
    // backjump skips polynomial renormalization entirely.
    if (PropMode) {
      auto WIt = ArithWatchOf.find(AtomIdx);
      if (WIt != ArithWatchOf.end()) {
        const PolarityWatch &PW = V ? WIt->second.Pos : WIt->second.Neg;
        if (PW.W >= 0) {
          Arith->assertCachedBound(PW.W, PW.IsUpper, PW.B, Tag);
          break;
        }
      }
    }
    TermRef X = A->getArg(0), Y = A->getArg(1);
    bool IsLe = A->getKind() == TermKind::Le;
    LinTerm P;
    ArithSolver::Op O;
    auto Sub = [&](TermRef Lhs, TermRef Rhs) {
      LinTerm L = polyOf(Lhs);
      LinTerm R = polyOf(Rhs);
      L.Const -= R.Const;
      for (const auto &[Var, Coeff] : R.Coeffs)
        L.add(Var, -Coeff);
      return L;
    };
    if (V) {
      P = Sub(X, Y);
      O = IsLe ? ArithSolver::Op::Le : ArithSolver::Op::Lt;
    } else {
      P = Sub(Y, X);
      O = IsLe ? ArithSolver::Op::Lt : ArithSolver::Op::Le;
    }
    if (O == ArithSolver::Op::Lt && X->getSort()->isInt()) {
      P.Const += Rational(1);
      O = ArithSolver::Op::Le;
    }
    Arith->assertAtom(P, O, Tag);
    break;
  }
  default: {
    // Boolean opaque atom: Var / Select / Apply of Bool sort.
    assert(A->getSort()->isBool());
    CC->registerTerm(A);
    bool Ok = CC->assertEqual(A, V ? TM.mkTrue() : TM.mkFalse(), Tag);
    if (!Ok || CC->inConflict()) {
      std::set<int> Tags(CC->conflictTags().begin(),
                         CC->conflictTags().end());
      clauseFromTags(Tags, ConflictOut);
      return false;
    }
    break;
  }
  }
  return true;
}

bool TheoryEngine::equalityFixpoint(std::vector<sat::Lit> &ConflictOut) {
  for (;;) {
    bool Changed = false;
    // Only terms feeding congruence (select/store indices, apply args)
    // matter for the exchange; probing every numeric term is quadratic
    // noise. Their definitions must be in place before the check below.
    computeInterfaceTerms();
    // CC -> arithmetic: equalities between opaque numeric terms. Classes
    // are keyed by the representative's term id, not its address, so the
    // assertion order (and with it the search) is the same in every run.
    std::map<unsigned, std::vector<TermRef>> Classes;
    for (TermRef T : OpaqueNumeric)
      Classes[CC->representative(T)->getId()].push_back(T);
    for (auto &[RootId, Members] : Classes) {
      for (size_t I = 1; I < Members.size(); ++I) {
        TermRef X = Members[0], Y = Members[I];
        auto Key = std::minmax(X, Y);
        if (!AssertedCCEqualities.insert({Key.first, Key.second}).second)
          continue;
        std::set<int> Expl;
        CC->explainEquality(X, Y, Expl);
        int CTag = newCompositeTag(Expl);
        LinTerm P;
        P.add(ArithVars[X], Rational(1));
        P.add(ArithVars[Y], Rational(-1));
        Arith->assertAtom(P, ArithSolver::Op::Eq, CTag);
        Changed = true;
        ++C.St.EqualitiesPropagated;
      }
    }
    std::set<int> Core;
    ArithSolver::Result AR = Arith->check(Core);
    if (AR == ArithSolver::Result::Unsat) {
      if (Core.count(SeparationTag)) {
        // The contradiction leans on an artificial model-repair
        // separation (x != y asserted under SeparationTag), which
        // expandTags would silently drop — the resulting lemma over the
        // real atoms alone would be stronger than justified. A blocking
        // clause is no better: it would claim the whole assignment has
        // no theory model when only our separation was at fault. Give up
        // on this query explicitly.
        ++C.St.ModelGiveUps;
        C.giveUp(UnknownReason::ModelIncomplete);
        return true;
      }
      clauseFromTags(Core, ConflictOut);
      return false;
    }
    if (AR == ArithSolver::Result::Unknown) {
      // Branch-and-bound budget exhausted: stop the search and let
      // checkSat() report Unknown rather than loop on an undecided check.
      C.giveUp(UnknownReason::ArithUndecided);
      return true;
    }
    // Arithmetic -> CC: probe forced equalities among model-equal
    // interface terms.
    std::map<std::pair<const Sort *, Rational>, std::vector<TermRef>>
        Buckets;
    for (TermRef T : OpaqueNumeric)
      if (InterfaceTerms.count(T))
        Buckets[{T->getSort(), Arith->modelValue(ArithVars[T])}]
            .push_back(T);
    for (auto &[Key, Members] : Buckets) {
      // Model-based refinement: when a probe finds a separating model,
      // that model's values split the whole candidate group at once —
      // members with different witness values cannot be forced equal. A
      // bucket with no forced equalities then costs O(k) probes instead
      // of the O(k^2) of probing every pair.
      std::vector<std::vector<TermRef>> Groups;
      Groups.push_back(std::move(Members));
      while (!Groups.empty()) {
        std::vector<TermRef> G = std::move(Groups.back());
        Groups.pop_back();
        // Collapse to one representative per CC class (CC-equal opaques
        // were already equated on the arithmetic side above, so their
        // probes are interchangeable).
        std::vector<TermRef> Reps;
        for (TermRef T : G) {
          bool Dup = false;
          for (TermRef R : Reps)
            Dup = Dup || CC->areEqual(R, T);
          if (!Dup)
            Reps.push_back(T);
        }
        if (Reps.size() < 2)
          continue;
        TermRef X = Reps[0], Y = Reps[1];
        std::vector<int> ProbeVars;
        ProbeVars.reserve(Reps.size());
        for (TermRef T : Reps)
          ProbeVars.push_back(ArithVars[T]);
        std::set<int> Expl;
        bool ProbeUnknown = false;
        std::vector<Rational> Witness;
        if (!Arith->probeForcedEqual(ArithVars[X], ArithVars[Y], Expl,
                                     &ProbeUnknown, &ProbeVars, &Witness)) {
          if (ProbeUnknown) {
            // Undecided probe: a missed forced equality can cascade
            // into a bogus blocking clause, so give up explicitly.
            C.giveUp(UnknownReason::ArithUndecided);
            return true;
          }
          // Split on the separating model; X and Y land in different
          // subgroups, so every iteration makes progress.
          std::map<Rational, std::vector<TermRef>> Split;
          for (size_t I = 0; I < Reps.size(); ++I)
            Split[Witness[I]].push_back(Reps[I]);
          if (Split.size() == 1) {
            // Defensive: a witness that fails to separate would loop
            // forever; fall back to discarding the probed pair.
            Reps.erase(Reps.begin() + 1);
            Groups.push_back(std::move(Reps));
          } else {
            for (auto &[W, Sub] : Split)
              if (Sub.size() > 1)
                Groups.push_back(std::move(Sub));
          }
          continue;
        }
        int CTag = newCompositeTag(Expl);
        if (!CC->assertEqual(X, Y, CTag)) {
          std::set<int> Tags(CC->conflictTags().begin(),
                             CC->conflictTags().end());
          clauseFromTags(Tags, ConflictOut);
          return false;
        }
        Changed = true;
        ++C.St.EqualitiesPropagated;
        // Y is now CC-equal to X; the re-queued group collapses it away
        // and goes on probing the remaining members.
        Groups.push_back(std::move(Reps));
      }
    }
    if (!Changed)
      return true;
  }
}

void TheoryEngine::computeInterfaceTerms() {
  InterfaceTerms.clear();
  // Interface terms must exist as arithmetic variables even when no atom
  // mentions them directly (a nested index like `a[a[x]]`'s inner
  // select): the model builder keys array entries by their values, and
  // the equality exchange and collision repair only see terms the simplex
  // knows. A constant or composite index (3, x + 1) gets a variable of its
  // own, defined equal to its polynomial.
  auto Consider = [&](TermRef A) {
    if (!A->getSort()->isNumeric())
      return;
    if (!ArithVars.count(A)) {
      int V = arithVarFor(A);
      switch (A->getKind()) {
      case TermKind::IntConst:
      case TermKind::RatConst:
      case TermKind::Add:
      case TermKind::Mul: {
        LinTerm P = polyOf(A);
        P.add(V, Rational(-1));
        Arith->assertAtom(P, ArithSolver::Op::Eq, DefinitionTag);
        break;
      }
      default:
        break;
      }
    }
    InterfaceTerms.insert(A);
  };
  for (TermRef T : CC->terms()) {
    switch (T->getKind()) {
    case TermKind::Select:
    case TermKind::Store:
      Consider(T->getArg(1));
      break;
    case TermKind::Apply:
      for (TermRef A : T->getArgs())
        Consider(A);
      break;
    default:
      break;
    }
  }
}

Value TheoryEngine::valueOfTerm(TermRef T) {
  auto It = TermValues.find(T);
  if (It != TermValues.end())
    return It->second;
  Value V;
  const Sort *S_ = T->getSort();
  if (T->getKind() == TermKind::IntConst) {
    V = Value::ofInt(T->getIntValue());
  } else if (T->getKind() == TermKind::RatConst) {
    V = Value::ofRat(T->getRatValue());
  } else if (T->getKind() == TermKind::True) {
    V = Value::ofBool(true);
  } else if (T->getKind() == TermKind::False) {
    V = Value::ofBool(false);
  } else if (S_->isNumeric()) {
    // Composite arithmetic terms (e.g. `k + 1` used as a set index) are
    // evaluated structurally; opaque ones come from the simplex model.
    if (T->getKind() == TermKind::Add) {
      Rational Sum;
      for (TermRef A : T->getArgs()) {
        Value AV = valueOfTerm(A);
        Sum += AV.K == Value::Kind::Int ? Rational(AV.I) : AV.R;
      }
      V = S_->isInt() ? Value::ofInt(Sum.numerator()) : Value::ofRat(Sum);
    } else if (T->getKind() == TermKind::Mul) {
      Value CV = valueOfTerm(T->getArg(0));
      Value AV = valueOfTerm(T->getArg(1));
      Rational Coeff = CV.K == Value::Kind::Int ? Rational(CV.I) : CV.R;
      Rational A = AV.K == Value::Kind::Int ? Rational(AV.I) : AV.R;
      Rational Prod = Coeff * A;
      V = S_->isInt() ? Value::ofInt(Prod.numerator()) : Value::ofRat(Prod);
    } else {
      auto AIt = ArithVars.find(T);
      V = AIt != ArithVars.end()
              ? (S_->isInt() ? Value::ofInt(Arith->modelValue(AIt->second)
                                                .numerator())
                             : Value::ofRat(Arith->modelValue(AIt->second)))
              : Model::defaultFor(S_);
    }
  } else if (S_->isBool()) {
    auto AIt = C.AtomIndex.find(T);
    if (AIt != C.AtomIndex.end() && atomAssigned(AIt->second))
      V = Value::ofBool(atomValue(AIt->second));
    else if (CC->areEqual(T, TM.mkTrue()))
      V = Value::ofBool(true);
    else
      V = Value::ofBool(false);
  } else if (S_->isUninterpreted()) {
    TermRef Root = CC->isRegistered(T) ? CC->representative(T) : T;
    auto LIt = LocIds.find(Root);
    int64_t Id;
    if (LIt != LocIds.end()) {
      Id = LIt->second;
    } else {
      Id = (Root == TM.mkNil() || CC->areEqual(Root, TM.mkNil())) ? 0
                                                                  : NextLocId++;
      LocIds.emplace(Root, Id);
    }
    V = Value::ofLoc(Id);
  } else {
    assert(S_->isArray());
    V = Model::defaultFor(S_);
    if (CC->isRegistered(T)) {
      if (!ArraySorts[S_].Solved)
        solveArraySort(S_);
      auto AIt = ClassArrays.find(CC->representative(T));
      if (AIt != ClassArrays.end())
        V = AIt->second;
    }
  }
  TermValues.emplace(T, V);
  return V;
}

/// Builds the value of every class of array sort \p S at once, after
/// de Moura and Bjorner's model construction for the generalized array
/// fragment (FMCAD 2009). An array value is fixed at each index value a
/// live select or store of this sort uses, plus a default: its value at
/// an index equal to none of them (the "fresh" index). At each such index
/// the classes fall into groups that must agree there: a store(b, i, v)
/// class agrees with b's class everywhere except at i, so the two share
/// their default and their entries flow both ways. A group's value at an
/// index is that of a select there on one of its classes, the v of a
/// store there, a constant array's value, or a pointwise map over its
/// operands' groups; a group with none of these takes its default.
void TheoryEngine::solveArraySort(const Sort *S) {
  ArraySortModel &AS = ArraySorts[S];
  AS.Solved = true;
  const size_t N = AS.Roots.size();
  auto ClassOf = [&](TermRef T) {
    return ClassIdx.at(CC->representative(T));
  };
  std::map<Value, unsigned> XIdx;
  std::vector<Value> XVals;
  auto IndexOf = [&](TermRef I) {
    Value V = valueOfTerm(I);
    auto [It, New] = XIdx.emplace(V, static_cast<unsigned>(XVals.size()));
    if (New)
      XVals.push_back(std::move(V));
    return It->second;
  };
  struct Def {
    unsigned X;
    int Cls;
    TermRef Val;
  };
  struct Link {
    int Store, Base;
    unsigned X;
  };
  std::vector<Def> Defs;
  std::vector<Link> Links;
  std::vector<std::pair<int, TermRef>> Consts, Maps;
  for (TermRef T : AS.Selects)
    Defs.push_back({IndexOf(T->getArg(1)), ClassOf(T->getArg(0)), T});
  for (TermRef T : AS.Structured) {
    int K = ClassOf(T);
    if (T->getKind() == TermKind::Store) {
      unsigned X = IndexOf(T->getArg(1));
      Defs.push_back({X, K, T->getArg(2)});
      Links.push_back({K, ClassOf(T->getArg(0)), X});
    } else if (T->getKind() == TermKind::ConstArray) {
      Consts.push_back({K, T});
    } else {
      Maps.push_back({K, T});
    }
  }
  const unsigned Fresh = static_cast<unsigned>(XVals.size());
  std::vector<std::vector<size_t>> DefsAt(Fresh);
  for (size_t D = 0; D < Defs.size(); ++D)
    DefsAt[Defs[D].X].push_back(D);

  std::vector<Value> Dflt(N);
  std::vector<std::map<Value, Value>> Entries(N);
  std::vector<int> Parent(N);
  std::vector<std::optional<Value>> GroupVal(N);
  std::vector<char> Busy(N);
  std::vector<std::vector<TermRef>> MapsOf(N);
  auto Find = [&](int K) {
    while (Parent[K] != K)
      K = Parent[K] = Parent[Parent[K]];
    return K;
  };
  // The fresh index first: every other index falls back to the defaults.
  for (unsigned Step = 0; Step <= Fresh; ++Step) {
    const unsigned X = Step == 0 ? Fresh : Step - 1;
    std::iota(Parent.begin(), Parent.end(), 0);
    for (const Link &L : Links)
      if (L.X != X)
        Parent[Find(L.Store)] = Find(L.Base);
    GroupVal.assign(N, std::nullopt);
    Busy.assign(N, 0);
    for (std::vector<TermRef> &Ms : MapsOf)
      Ms.clear();
    if (X != Fresh)
      for (size_t D : DefsAt[X]) {
        int G = Find(Defs[D].Cls);
        if (!GroupVal[G])
          GroupVal[G] = valueOfTerm(Defs[D].Val);
      }
    for (const auto &[K, T] : Consts) {
      int G = Find(K);
      if (!GroupVal[G])
        GroupVal[G] = valueOfTerm(T->getArg(0));
    }
    for (const auto &[K, T] : Maps)
      MapsOf[Find(K)].push_back(T);
    std::function<Value(int)> Eval = [&](int G) -> Value {
      if (GroupVal[G])
        return *GroupVal[G];
      Value V = X == Fresh ? Model::defaultFor(S->getValue()) : Dflt[G];
      if (Busy[G] || MapsOf[G].empty())
        return V;
      Busy[G] = 1;
      TermRef M = MapsOf[G].front();
      // An operand of another sort (a pwIte guard) is solved on its own.
      auto At = [&](unsigned Arg) {
        TermRef Op = M->getArg(Arg);
        if (Op->getSort() == S)
          return Eval(Find(ClassOf(Op)));
        Value OV = valueOfTerm(Op);
        if (X == Fresh)
          return OV.Arr->Default;
        auto It = OV.Arr->Entries.find(XVals[X]);
        return It != OV.Arr->Entries.end() ? It->second : OV.Arr->Default;
      };
      switch (M->getKind()) {
      case TermKind::MapOr:
        V = Value::ofBool(At(0).B || At(1).B);
        break;
      case TermKind::MapAnd:
        V = Value::ofBool(At(0).B && At(1).B);
        break;
      case TermKind::MapDiff:
        V = Value::ofBool(At(0).B && !At(1).B);
        break;
      default: // PwIte
        V = At(0).B ? At(1) : At(2);
        break;
      }
      GroupVal[G] = V;
      return V;
    };
    for (size_t K = 0; K < N; ++K) {
      Value V = Eval(Find(static_cast<int>(K)));
      if (X == Fresh)
        Dflt[K] = std::move(V);
      else if (V != Dflt[K])
        Entries[K].emplace(XVals[X], std::move(V));
    }
  }
  for (size_t K = 0; K < N; ++K) {
    auto Arr = std::make_shared<ArrayValue>();
    Arr->Default = std::move(Dflt[K]);
    Arr->Entries = std::move(Entries[K]);
    ClassArrays[AS.Roots[K]] = Value::ofArray(std::move(Arr));
  }
}

void TheoryEngine::buildModel() {
  TermValues.clear();
  ClassArrays.clear();
  ArraySorts.clear();
  ClassIdx.clear();
  LocIds.clear();
  NextLocId = 1;
  Model M;
  // Give nil its id first so it prints as nil.
  if (CC->isRegistered(TM.mkNil()))
    LocIds.emplace(CC->representative(TM.mkNil()), 0);

  // The model must agree with every assigned atom; terms that occur only
  // under unassigned (unconstrained) atoms may take any value, so only
  // live terms define array contents.
  std::unordered_set<TermRef> Live;
  std::vector<TermRef> Work;
  for (size_t I = 0; I < C.Atoms.size(); ++I)
    if (atomAssigned(static_cast<int>(I)))
      Work.push_back(C.Atoms[I]);
  while (!Work.empty()) {
    TermRef T = Work.back();
    Work.pop_back();
    if (Live.insert(T).second)
      Work.insert(Work.end(), T->getArgs().begin(), T->getArgs().end());
  }
  for (TermRef T : CC->terms()) {
    const Sort *S = T->getSort();
    bool IsLive = Live.count(T) != 0;
    if (S->isArray()) {
      ArraySortModel &AS = ArraySorts[S];
      TermRef Root = CC->representative(T);
      if (ClassIdx.emplace(Root, static_cast<int>(AS.Roots.size())).second)
        AS.Roots.push_back(Root);
      switch (T->getKind()) {
      case TermKind::Store:
      case TermKind::ConstArray:
      case TermKind::MapOr:
      case TermKind::MapAnd:
      case TermKind::MapDiff:
      case TermKind::PwIte:
        if (IsLive)
          AS.Structured.push_back(T);
        break;
      default:
        break;
      }
    }
    if (T->getKind() == TermKind::Select && IsLive)
      ArraySorts[T->getArg(0)->getSort()].Selects.push_back(T);
  }

  // Collect leaf terms needing assignments: vars and opaque applications
  // registered anywhere (CC terms, atoms, arith opaques).
  auto Assign = [&](TermRef T) {
    if (T->getKind() != TermKind::Var && T->getKind() != TermKind::Apply)
      return;
    M.set(T, valueOfTerm(T));
  };
  for (TermRef T : CC->terms())
    Assign(T);
  for (TermRef T : OpaqueNumeric)
    Assign(T);
  for (TermRef A : C.Atoms) {
    Assign(A);
    for (TermRef Sub : A->getArgs())
      Assign(Sub);
  }
  // Pure-SAT boolean variables (unconstrained, unassigned atoms keep
  // whatever the term-value pass gave them).
  for (size_t I = 0; I < C.Atoms.size(); ++I)
    if (C.Atoms[I]->getKind() == TermKind::Var &&
        atomAssigned(static_cast<int>(I)))
      M.set(C.Atoms[I], Value::ofBool(atomValue(static_cast<int>(I))));
  C.CurrentModel = std::move(M);
}

void TheoryEngine::popTheoryLevel() {
  CC->pop();
  Arith->pop();
  size_t Target = LevelOpaqueSize.back();
  LevelOpaqueSize.pop_back();
  while (OpaqueNumeric.size() > Target) {
    ArithVars.erase(OpaqueNumeric.back());
    OpaqueNumeric.pop_back();
  }
}

size_t TheoryEngine::syncToTrail() {
  if (ScratchPushed) {
    popTheoryLevel();
    ScratchPushed = false;
  }
  // var -> atom map: vars and atoms are append-only, so extend only the
  // tail added since the last sync (this runs on every theory check).
  VarToAtom.resize(static_cast<size_t>(C.Sat.numVars()), -1);
  for (size_t A = MappedAtoms; A < C.AtomVar.size(); ++A)
    VarToAtom[C.AtomVar[A]] = static_cast<int>(A);
  MappedAtoms = C.AtomVar.size();
  // Project the SAT trail onto theory atoms (assignment order). With
  // propagation on, the SAT core maintains that projection already (the
  // theory trail), and its reset counter tells us when the synced prefix
  // is known intact — the common case between consecutive propagation
  // calls is pure growth, which skips the elementwise compare.
  if (PropMode) {
    const std::vector<sat::Lit> &TT = C.Sat.theoryTrail();
    uint64_t Resets = C.Sat.theoryTrailResets();
    if (PropSyncValid && Resets == TrailResetsSeen &&
        SyncedAtoms.size() <= TT.size()) {
      // Pure growth since the last sync: the synced prefix is known
      // intact (no reset), and CurAtomTrail[0..synced) still mirrors
      // SyncedAtoms from that sync — project only the new suffix. This
      // is the per-BCP-fixpoint steady state; projecting the whole
      // trail here was quadratic over a solve.
      CurAtomTrail.resize(SyncedAtoms.size());
      for (size_t I = SyncedAtoms.size(); I < TT.size(); ++I) {
        int A = VarToAtom[TT[I].var()];
        assert(A >= 0 && "theory trail holds a non-atom var");
        CurAtomTrail.push_back({A, !TT[I].negated()});
      }
      return SyncedAtoms.size();
    }
    CurAtomTrail.clear();
    for (sat::Lit L : TT) {
      int A = VarToAtom[L.var()];
      assert(A >= 0 && "theory trail holds a non-atom var");
      CurAtomTrail.push_back({A, !L.negated()});
    }
    TrailResetsSeen = Resets;
    PropSyncValid = true;
  } else {
    CurAtomTrail.clear();
    for (sat::Lit L : C.Sat.trail()) {
      int A = VarToAtom[L.var()];
      if (A >= 0)
        CurAtomTrail.push_back({A, !L.negated()});
    }
  }
  size_t K = 0;
  while (K < SyncedAtoms.size() && K < CurAtomTrail.size() &&
         SyncedAtoms[K] == CurAtomTrail[K])
    ++K;
  while (SyncedAtoms.size() > K) {
    popTheoryLevel();
    SyncedAtoms.pop_back();
  }
  return K;
}

bool TheoryEngine::syncAssert(std::vector<sat::Lit> &ConflictOut,
                              bool CountReuse) {
  size_t K = syncToTrail();
  if (CountReuse)
    C.St.TheoryAssertsReused += K;
  for (size_t I = K; I < CurAtomTrail.size(); ++I) {
    CC->push();
    Arith->push();
    LevelOpaqueSize.push_back(OpaqueNumeric.size());
    SyncedAtoms.push_back(CurAtomTrail[I]);
    if (!assertOneAtom(CurAtomTrail[I].first, ConflictOut))
      return false;
  }
  return true;
}

void TheoryEngine::resetSyncedLevels() {
  if (Rebuild)
    return;
  if (ScratchPushed) {
    popTheoryLevel();
    ScratchPushed = false;
  }
  while (!SyncedAtoms.empty()) {
    popTheoryLevel();
    SyncedAtoms.pop_back();
  }
}

bool TheoryEngine::onFullModel(std::vector<sat::Lit> &ConflictOut) {
  ++C.St.TheoryChecks;
  if (C.Opts.MaxTheoryChecks != 0 &&
      C.St.TheoryChecks > C.Opts.MaxTheoryChecks) {
    // Budget exhausted: accept the propositional model to stop the
    // search; checkSat() reports Unknown.
    C.giveUp(UnknownReason::Budget);
    return true;
  }
  if (C.SolveDeadline != 0 &&
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count() > C.SolveDeadline) {
    C.giveUp(UnknownReason::Timeout);
    return true;
  }
  if (C.St.TheoryChecks % 25 == 1)
    logging::debugf("smt",
                    "theory check #%llu (conflicts %llu, give-ups %llu, "
                    "repairs %llu)\n",
                    (unsigned long long)C.St.TheoryChecks,
                    (unsigned long long)C.Sat.numConflicts(),
                    (unsigned long long)C.St.ModelGiveUps,
                    (unsigned long long)C.St.ModelRepairs);

  CompositeExpl.clear();
  AssertedCCEqualities.clear();
  if (Rebuild) {
    // Fresh theory engines over this assignment's atoms. Unconstrained
    // atoms stay unassigned (see atomAssigned) and are skipped, as the
    // trail sync skips them.
    CC = std::make_unique<CongruenceClosure>(TM);
    Arith = std::make_unique<ArithSolver>();
    ArithVars.clear();
    OpaqueNumeric.clear();
    VarOfTerm.clear();
    for (size_t I = 0; I < C.Atoms.size(); ++I)
      if (atomAssigned(static_cast<int>(I)) &&
          !assertOneAtom(static_cast<int>(I), ConflictOut))
        return false;
  } else {
    // Pop to the longest common trail prefix and assert only the
    // diverging suffix, one undo level per atom.
    if (!syncAssert(ConflictOut, /*CountReuse=*/true))
      return false;
    // Everything below is assignment-specific (exchange equalities,
    // probes, repair separations, branch cuts left by Sat checks): scratch
    // level, popped at the start of the next sync.
    CC->push();
    Arith->push();
    LevelOpaqueSize.push_back(OpaqueNumeric.size());
    ScratchPushed = true;
  }
  if (CC->inConflict()) {
    std::set<int> Tags(CC->conflictTags().begin(), CC->conflictTags().end());
    clauseFromTags(Tags, ConflictOut);
    return false;
  }
  if (!equalityFixpoint(ConflictOut))
    return false;
  if (C.gaveUp())
    return true;

  // Model construction with index-collision repair.
  for (unsigned Iter = 0; Iter <= MaxModelRepairIters; ++Iter) {
    buildModel();
    Value V = C.CurrentModel.eval(C.EvalFormula);
    if (V.K == Value::Kind::Bool && V.B)
      return true; // genuine model
    ++C.St.ModelRepairs;
    // Separate every colliding pair of numeric index terms at once —
    // including collisions with a constant index value, which have no
    // second opaque member to separate but corrupt the entry map just
    // the same.
    if (!separateCollisions())
      break; // nothing to repair: the mismatch has another cause
    std::set<int> Core;
    ArithSolver::Result AR = Arith->check(Core);
    if (AR == ArithSolver::Result::Unknown) {
      // Undecided separation: blocking this assignment could turn a
      // satisfiable formula into a bogus Unsat.
      C.giveUp(UnknownReason::ArithUndecided);
      return true;
    }
    if (AR == ArithSolver::Result::Unsat)
      break; // separation infeasible (some pair is forced equal)
    if (!equalityFixpoint(ConflictOut))
      return false;
    if (C.gaveUp())
      return true;
  }
  // The model builder could not produce a witness, and no sound
  // explanation clause is available: a blocking clause here would assert
  // "this assignment has no theory model" without proof, and on formulas
  // whose models all funnel through such assignments that manufactures a
  // wrong Unsat (found by the pipeline differential fuzzer). Give up
  // explicitly instead.
  ++C.St.ModelGiveUps;
  C.giveUp(UnknownReason::ModelIncomplete);
  return true;
}

/// Asserts an artificial disequality (under SeparationTag) between every
/// pair of distinct-in-CC index terms that share a model value. Returns
/// false when no collision was found.
bool TheoryEngine::separateCollisions() {
  bool Repaired = false;
  computeInterfaceTerms();
  std::map<std::pair<const Sort *, Rational>, std::vector<TermRef>> Buckets;
  for (TermRef T : OpaqueNumeric)
    if (InterfaceTerms.count(T))
      Buckets[{T->getSort(), Arith->modelValue(ArithVars[T])}].push_back(T);
  for (auto &[Key, Members] : Buckets) {
    for (size_t I = 0; I < Members.size(); ++I) {
      for (size_t J = I + 1; J < Members.size(); ++J) {
        TermRef X = Members[I], Y = Members[J];
        if (CC->areEqual(X, Y))
          continue;
        LinTerm P;
        P.add(ArithVars[X], Rational(1));
        P.add(ArithVars[Y], Rational(-1));
        Arith->assertAtom(P, ArithSolver::Op::Ne, SeparationTag);
        Repaired = true;
      }
    }
  }
  return Repaired;
}

//===----------------------------------------------------------------------===//
// Theory propagation + incremental registration (PropMode)
//===----------------------------------------------------------------------===//

void TheoryEngine::preRegister(const std::vector<TermRef> &Roots) {
  if (!PropMode)
    return;
  // Registration must happen from the base: anything trailed under a
  // synced atom level would silently die with the next sync's pops.
  resetSyncedLevels();

  // Mirrors assertOneAtom's polarity lowering and ArithSolver::assertAtom's
  // bound normalization exactly, so the watch tests the same (var, bound)
  // the eventual assert would install.
  auto makeBoundWatch = [&](TermRef A, bool V) -> PolarityWatch {
    PolarityWatch PW;
    TermRef X = A->getArg(0), Y = A->getArg(1);
    bool IsLe = A->getKind() == TermKind::Le;
    auto Sub = [&](TermRef Lhs, TermRef Rhs) {
      LinTerm L = polyOf(Lhs);
      LinTerm R = polyOf(Rhs);
      L.Const -= R.Const;
      for (const auto &[Var, Coeff] : R.Coeffs)
        L.add(Var, -Coeff);
      return L;
    };
    LinTerm P;
    ArithSolver::Op O;
    if (V) {
      P = Sub(X, Y);
      O = IsLe ? ArithSolver::Op::Le : ArithSolver::Op::Lt;
    } else {
      P = Sub(Y, X);
      O = IsLe ? ArithSolver::Op::Lt : ArithSolver::Op::Le;
    }
    if (O == ArithSolver::Op::Lt && X->getSort()->isInt()) {
      P.Const += Rational(1);
      O = ArithSolver::Op::Le;
    }
    if (P.Coeffs.empty())
      return PW; // constant atom: nothing to watch
    Rational Scale;
    Rational BoundVal;
    int W;
    if (P.Coeffs.size() == 1) {
      W = P.Coeffs.begin()->first;
      Rational Coef = P.Coeffs.begin()->second;
      BoundVal = -P.Const / Coef;
      Scale = Coef;
    } else {
      W = Arith->ensureSlack(P, Scale);
      BoundVal = -P.Const * Scale;
    }
    bool Flip = Scale.isNegative();
    PW.W = W;
    PW.IsUpper = !Flip;
    PW.B = O == ArithSolver::Op::Le
               ? DeltaRat(BoundVal)
               : (Flip ? DeltaRat(BoundVal, Rational(1))
                       : DeltaRat(BoundVal, Rational(-1)));
    return PW;
  };

  // Reversed, so the first root is walked first (depth-first).
  std::vector<TermRef> Work(Roots.rbegin(), Roots.rend());
  std::unordered_set<TermRef> Seen;
  while (!Work.empty()) {
    TermRef T = Work.back();
    Work.pop_back();
    if (!Seen.insert(T).second)
      continue;
    if (T->getKind() == TermKind::True || T->getKind() == TermKind::False)
      continue;
    if (isBoolStructure(T)) {
      for (TermRef A : T->getArgs())
        Work.push_back(A);
      continue;
    }
    auto AIt = C.AtomIndex.find(T);
    if (AIt == C.AtomIndex.end())
      continue; // not interned as an atom (nothing will ever assert it)
    int AtomIdx = AIt->second;
    auto registerOperand = [&](TermRef Operand) {
      if (CC->isRegistered(Operand))
        ++C.St.CcRegistrationsReused;
      else
        CC->registerTerm(Operand);
    };
    switch (T->getKind()) {
    case TermKind::Eq: {
      TermRef X = T->getArg(0), Y = T->getArg(1);
      registerOperand(X);
      registerOperand(Y);
      if (X->getSort()->isNumeric()) {
        (void)polyOf(X);
        (void)polyOf(Y);
      }
      if (CcWatched.insert(AtomIdx).second)
        CC->watchEquality(AtomIdx, X, Y);
      break;
    }
    case TermKind::Le:
    case TermKind::Lt: {
      if (ArithWatchOf.count(AtomIdx))
        break;
      ArithWatch W;
      W.Pos = makeBoundWatch(T, true);
      W.Neg = makeBoundWatch(T, false);
      if (W.Pos.W >= 0) {
        Arith->watchVar(W.Pos.W);
        VarWatchers[W.Pos.W].push_back(AtomIdx);
      }
      if (W.Neg.W >= 0 && W.Neg.W != W.Pos.W) {
        Arith->watchVar(W.Neg.W);
        VarWatchers[W.Neg.W].push_back(AtomIdx);
      }
      ArithWatchOf.emplace(AtomIdx, std::move(W));
      break;
    }
    default: {
      if (!T->getSort()->isBool())
        break;
      registerOperand(T);
      if (CcWatched.insert(AtomIdx).second)
        CC->watchEquality(AtomIdx, T, TM.mkTrue());
      break;
    }
    }
  }
}

bool TheoryEngine::proposeEntailment(int AtomIdx, bool Polarity,
                                     const std::set<int> &Tags,
                                     std::vector<sat::Lit> &ImpliedOut) {
  sat::Lit P(C.AtomVar[AtomIdx], !Polarity);
  if (!ProposedLits.insert(P.Code).second)
    return false;
  std::vector<sat::Lit> Reason{P};
  for (int T : Tags) {
    // Every cited tag must be a live, currently SAT-assigned input atom:
    // composite/separation tags or an unassigned citation would make the
    // reason clause unsound, so the propagation is skipped (the full-model
    // check remains the backstop).
    if (T < 0 || T >= static_cast<int>(C.Atoms.size()) || T == AtomIdx ||
        !atomAssigned(T))
      return false;
    Reason.push_back(sat::Lit(C.AtomVar[T], atomValue(T)));
  }
  PendingExpl E;
  E.K = PendingExpl::Kind::Lits;
  E.Lits = std::move(Reason);
  PendingReasons[P.Code] = std::move(E);
  ImpliedOut.push_back(P);
  return true;
}

void TheoryEngine::proposeCcEntailment(int AtomIdx, bool Polarity,
                                       std::vector<sat::Lit> &ImpliedOut) {
  sat::Var V = C.AtomVar[AtomIdx];
  if (C.Sat.value(sat::Lit(V, false)) != sat::LBool::Undef ||
      !C.Sat.varActive(V))
    return;
  TermRef A = C.Atoms[AtomIdx];
  TermRef X, Y;
  if (A->getKind() == TermKind::Eq) {
    X = A->getArg(0);
    Y = A->getArg(1);
  } else if (A->getSort()->isBool() && A->getKind() != TermKind::Le &&
             A->getKind() != TermKind::Lt) {
    X = A;
    Y = TM.mkTrue();
  } else {
    return;
  }
  if (!CC->isRegistered(X) || !CC->isRegistered(Y))
    return;
  // Revalidate against the live closure (pending entries may be stale —
  // generated under merges that were since popped), but do NOT walk the
  // proof paths here: the endpoints (and, for disequalities, the pinned
  // witness) are stored and expanded only if conflict analysis ever asks
  // for the reason. At propose time every tag on those paths is a plain
  // input-atom tag asserted from the synced trail — scratch levels are
  // popped before propagation — so the expansion is sound without the
  // eager per-tag validation proposeEntailment performs for arith.
  sat::Lit P(C.AtomVar[AtomIdx], !Polarity);
  if (!ProposedLits.insert(P.Code).second)
    return;
  PendingExpl E;
  if (Polarity) {
    if (!CC->areEqual(X, Y))
      return;
    E.K = PendingExpl::Kind::CcEq;
    E.X = X;
    E.Y = Y;
  } else {
    if (!CC->areDisequal(X, Y))
      return;
    if (!CC->diseqWitness(X, Y, E.W))
      return;
    E.K = PendingExpl::Kind::CcDiseq;
  }
  PendingReasons[P.Code] = std::move(E);
  ImpliedOut.push_back(P);
}

void TheoryEngine::proposeArithEntailment(int AtomIdx,
                                          std::vector<sat::Lit> &ImpliedOut) {
  auto WIt = ArithWatchOf.find(AtomIdx);
  if (WIt == ArithWatchOf.end())
    return;
  sat::Var V = C.AtomVar[AtomIdx];
  if (C.Sat.value(sat::Lit(V, false)) != sat::LBool::Undef ||
      !C.Sat.varActive(V))
    return;
  auto entailingTag = [&](const PolarityWatch &PW) -> int {
    if (PW.W < 0 || PW.W >= Arith->numVars())
      return -1;
    if (PW.IsUpper) {
      if (Arith->upperActive(PW.W) && Arith->upperValue(PW.W) <= PW.B)
        return Arith->upperTag(PW.W);
    } else {
      if (Arith->lowerActive(PW.W) && PW.B <= Arith->lowerValue(PW.W))
        return Arith->lowerTag(PW.W);
    }
    return -1;
  };
  bool Polarity = true;
  int Tag = entailingTag(WIt->second.Pos);
  if (Tag < 0) {
    Polarity = false;
    Tag = entailingTag(WIt->second.Neg);
  }
  if (Tag < 0)
    return;
  std::set<int> Tags{Tag};
  proposeEntailment(AtomIdx, Polarity, Tags, ImpliedOut);
}

bool TheoryEngine::propagatePartial(std::vector<sat::Lit> &ImpliedOut,
                                    std::vector<sat::Lit> &ConflictOut) {
  if (!PropMode || C.gaveUp())
    return true;
  // Cheap deadline probe: propagation runs orders of magnitude more often
  // than full-model checks, so the clock is only consulted periodically.
  if (C.SolveDeadline != 0 && (++PropCalls & 1023) == 0 &&
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
              .count() > C.SolveDeadline) {
    C.giveUp(UnknownReason::Timeout);
    return true;
  }
  if (!syncAssert(ConflictOut, /*CountReuse=*/false))
    return false;
  // Strict conflict-clause construction for the partial-trail state: only
  // plain input-atom tags, every one currently assigned. Anything else
  // (composite, separation, unassigned) aborts the early conflict and
  // defers to the full-model check.
  auto conflictFromTags = [&](const std::set<int> &Tags) -> bool {
    ConflictOut.clear();
    for (int T : Tags) {
      if (T < 0 || T >= static_cast<int>(C.Atoms.size()) || !atomAssigned(T))
        return false;
      ConflictOut.push_back(sat::Lit(C.AtomVar[T], atomValue(T)));
    }
    return true;
  };
  if (CC->inConflict()) {
    std::set<int> Tags(CC->conflictTags().begin(), CC->conflictTags().end());
    if (conflictFromTags(Tags))
      return false;
    return true;
  }
  if (Arith->inConflict()) {
    if (conflictFromTags(Arith->trivialCore()))
      return false;
    return true;
  }
  // Drain the entailment candidates both engines queued while asserting.
  ProposedLits.clear();
  if (!CC->pendingEntailed().empty()) {
    for (auto [AtomId, Pol] : CC->pendingEntailed())
      proposeCcEntailment(AtomId, Pol, ImpliedOut);
    CC->clearPendingEntailed();
  }
  if (!Arith->boundChangeLog().empty()) {
    for (int W : Arith->boundChangeLog()) {
      auto It = VarWatchers.find(W);
      if (It == VarWatchers.end())
        continue;
      for (int AtomId : It->second)
        proposeArithEntailment(AtomId, ImpliedOut);
    }
    Arith->clearBoundChangeLog();
  }
  return true;
}

void TheoryEngine::explainPropagation(sat::Lit P,
                                      std::vector<sat::Lit> &ReasonOut) {
  auto It = PendingReasons.find(P.Code);
  assert(It != PendingReasons.end() && "no captured reason for literal");
  if (It == PendingReasons.end()) {
    // Unreachable by construction (a reason is captured before the literal
    // is ever proposed); a degenerate unit reason keeps release builds
    // from crashing in conflict analysis.
    ReasonOut.assign(1, P);
    return;
  }
  const PendingExpl &E = It->second;
  if (E.K == PendingExpl::Kind::Lits) {
    ReasonOut = E.Lits;
    return;
  }
  // Lazy CC reason: expand the frozen proof paths now. Every tag produced
  // is a plain input-atom index that was asserted from the synced trail
  // before P was implied, and is still assigned while P is.
  std::set<int> Tags;
  if (E.K == PendingExpl::Kind::CcEq)
    CC->explainEquality(E.X, E.Y, Tags);
  else
    CC->explainWitness(E.W, Tags);
  ReasonOut.clear();
  ReasonOut.push_back(P);
  for (int T : Tags) {
    assert(T >= 0 && T < static_cast<int>(C.Atoms.size()) &&
           "lazy CC reason cites a non-atom tag");
    assert(atomAssigned(T) && "lazy CC reason cites an unassigned atom");
    assert(C.AtomVar[T] != P.var() && "lazy CC reason cites the implied atom");
    ReasonOut.push_back(sat::Lit(C.AtomVar[T], atomValue(T)));
  }
}
