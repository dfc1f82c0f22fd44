//===- lang/Parser.cpp - Surface language parser ---------------------------===//
//
// Part of the IDSVerify project.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"

using namespace ids;
using namespace ids::lang;

namespace {
class Parser {
public:
  Parser(std::vector<Token> Toks, DiagEngine &Diags, Module &M)
      : Toks(std::move(Toks)), Diags(Diags), M(M) {}

  bool parseModule();

private:
  // --- token helpers ---
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  const Token &advance() { return Toks[Pos < Toks.size() - 1 ? Pos++ : Pos]; }
  bool check(TokKind K) const { return peek().is(K); }
  bool checkIdent(const char *S) const { return peek().isIdent(S); }
  bool accept(TokKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool acceptIdent(const char *S) {
    if (!checkIdent(S))
      return false;
    advance();
    return true;
  }
  bool expect(TokKind K, const char *What) {
    if (accept(K))
      return true;
    error(std::string("expected ") + What + " but found '" + peek().Text +
          "'");
    return false;
  }
  bool expectIdent(const char *S) {
    if (acceptIdent(S))
      return true;
    error(std::string("expected '") + S + "' but found '" + peek().Text +
          "'");
    return false;
  }
  std::string expectName(const char *What) {
    if (check(TokKind::Ident)) {
      std::string N = peek().Text;
      advance();
      return N;
    }
    error(std::string("expected ") + What);
    return "";
  }
  void error(const std::string &Msg) {
    Diags.error(peek().Loc, Msg);
    Failed = true;
  }

  /// Bounds the recursion of the descent (unary chains, bracketed
  /// subexpressions, right-nested implications, nested blocks), so deeply
  /// nested input gets a diagnostic instead of overflowing the stack. A
  /// guard that finds the cap exceeded reports it; the caller then bails
  /// out with nullptr like on any other parse error.
  static constexpr unsigned MaxNestingDepth = 256;
  struct DepthGuard {
    Parser &P;
    bool TooDeep;
    explicit DepthGuard(Parser &P)
        : P(P), TooDeep(++P.Depth > MaxNestingDepth) {
      if (TooDeep)
        P.error("nesting exceeds the maximum depth of " +
                std::to_string(MaxNestingDepth));
    }
    ~DepthGuard() { --P.Depth; }
  };

  // --- grammar ---
  bool parseStructure();
  bool parseProcedure();
  bool parseType(Type &Out);
  bool parseParams(std::vector<ParamDecl> &Out);
  Stmt *parseBlock();
  Stmt *parseStmt();
  Expr *parseExpr() { return parseIff(); }
  Expr *parseIff();
  Expr *parseImplies();
  Expr *parseOr();
  Expr *parseAnd();
  Expr *parseRelational();
  Expr *parseAdditive();
  Expr *parseMultiplicative();
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();

  Expr *mkBin(BinOp Op, Expr *L, Expr *R, SourceLoc Loc) {
    Expr *E = M.newExpr(ExprKind::Binary, Loc);
    E->BOp = Op;
    E->Args = {L, R};
    return E;
  }

  std::vector<Token> Toks;
  size_t Pos = 0;
  DiagEngine &Diags;
  Module &M;
  bool Failed = false;
  unsigned Depth = 0; ///< live DepthGuards
};
} // namespace

bool Parser::parseType(Type &Out) {
  if (acceptIdent("int")) {
    Out = Type::intTy();
    return true;
  }
  if (acceptIdent("rat")) {
    Out = Type::ratTy();
    return true;
  }
  if (acceptIdent("bool")) {
    Out = Type::boolTy();
    return true;
  }
  if (acceptIdent("Loc")) {
    Out = Type::locTy();
    return true;
  }
  if (acceptIdent("set")) {
    if (!expect(TokKind::LAngle, "'<'"))
      return false;
    Type Elem;
    if (!parseType(Elem))
      return false;
    if (Elem.isSet()) {
      error("nested set types are not supported");
      return false;
    }
    if (!expect(TokKind::RAngle, "'>'"))
      return false;
    Out = Type::setTy(Elem.Kind);
    return true;
  }
  error("expected a type");
  return false;
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = peek().Loc;
  if (check(TokKind::IntLit)) {
    Expr *E = M.newExpr(ExprKind::IntLit, Loc);
    E->IntVal = BigInt::fromString(advance().Text);
    return E;
  }
  if (acceptIdent("true") || checkIdent("false")) {
    bool V = Toks[Pos - 1].isIdent("true");
    if (!V) {
      advance();
    }
    Expr *E = M.newExpr(ExprKind::BoolLit, Loc);
    E->BoolVal = V;
    return E;
  }
  if (acceptIdent("nil"))
    return M.newExpr(ExprKind::NilLit, Loc);
  if (acceptIdent("alloc"))
    return M.newExpr(ExprKind::AllocSet, Loc);
  if (acceptIdent("old")) {
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    Expr *Inner = parseExpr();
    if (!Inner || !expect(TokKind::RParen, "')'"))
      return nullptr;
    Expr *E = M.newExpr(ExprKind::Old, Loc);
    E->Args = {Inner};
    return E;
  }
  if (acceptIdent("fresh")) {
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    Expr *Inner = parseExpr();
    if (!Inner || !expect(TokKind::RParen, "')'"))
      return nullptr;
    Expr *E = M.newExpr(ExprKind::Fresh, Loc);
    E->Args = {Inner};
    return E;
  }
  if (acceptIdent("br")) {
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    std::string G = expectName("a local-condition group name");
    if (!expect(TokKind::RParen, "')'"))
      return nullptr;
    Expr *E = M.newExpr(ExprKind::BrSet, Loc);
    E->Name = G;
    return E;
  }
  if (acceptIdent("lc")) {
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    std::string G = expectName("a local-condition group name");
    if (!expect(TokKind::Comma, "','"))
      return nullptr;
    Expr *Inner = parseExpr();
    if (!Inner || !expect(TokKind::RParen, "')'"))
      return nullptr;
    Expr *E = M.newExpr(ExprKind::LcApp, Loc);
    E->Name = G;
    E->Args = {Inner};
    return E;
  }
  if (acceptIdent("ite")) {
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    Expr *C = parseExpr();
    if (!C || !expect(TokKind::Comma, "','"))
      return nullptr;
    Expr *T = parseExpr();
    if (!T || !expect(TokKind::Comma, "','"))
      return nullptr;
    Expr *E2 = parseExpr();
    if (!E2 || !expect(TokKind::RParen, "')'"))
      return nullptr;
    Expr *E = M.newExpr(ExprKind::IteExpr, Loc);
    E->Args = {C, T, E2};
    return E;
  }
  if (check(TokKind::LBrace)) {
    advance();
    Expr *E;
    if (accept(TokKind::RBrace)) {
      E = M.newExpr(ExprKind::EmptySetLit, Loc);
      return E;
    }
    E = M.newExpr(ExprKind::SetLit, Loc);
    do {
      Expr *Elem = parseExpr();
      if (!Elem)
        return nullptr;
      E->Args.push_back(Elem);
    } while (accept(TokKind::Comma));
    if (!expect(TokKind::RBrace, "'}'"))
      return nullptr;
    return E;
  }
  if (check(TokKind::LParen)) {
    advance();
    Expr *E = parseExpr();
    if (!E || !expect(TokKind::RParen, "')'"))
      return nullptr;
    return E;
  }
  if (check(TokKind::Ident)) {
    Expr *E = M.newExpr(ExprKind::VarRef, Loc);
    E->Name = advance().Text;
    return E;
  }
  error("expected an expression");
  return nullptr;
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  while (E && check(TokKind::Dot)) {
    SourceLoc Loc = peek().Loc;
    advance();
    std::string Field = expectName("a field name");
    Expr *F = M.newExpr(ExprKind::FieldRead, Loc);
    F->Name = Field;
    F->Args = {E};
    E = F;
  }
  return E;
}

Expr *Parser::parseUnary() {
  DepthGuard Guard(*this);
  if (Guard.TooDeep)
    return nullptr;
  SourceLoc Loc = peek().Loc;
  if (accept(TokKind::Bang)) {
    Expr *Inner = parseUnary();
    if (!Inner)
      return nullptr;
    Expr *E = M.newExpr(ExprKind::Unary, Loc);
    E->UOp = UnOp::Not;
    E->Args = {Inner};
    return E;
  }
  if (accept(TokKind::Minus)) {
    Expr *Inner = parseUnary();
    if (!Inner)
      return nullptr;
    Expr *E = M.newExpr(ExprKind::Unary, Loc);
    E->UOp = UnOp::Neg;
    E->Args = {Inner};
    return E;
  }
  return parsePostfix();
}

Expr *Parser::parseMultiplicative() {
  Expr *E = parseUnary();
  for (;;) {
    SourceLoc Loc = peek().Loc;
    if (accept(TokKind::Star)) {
      Expr *R = parseUnary();
      if (!R)
        return nullptr;
      E = mkBin(BinOp::Mul, E, R, Loc);
    } else if (accept(TokKind::Slash)) {
      Expr *R = parseUnary();
      if (!R)
        return nullptr;
      E = mkBin(BinOp::Div, E, R, Loc);
    } else if (acceptIdent("isect")) {
      Expr *R = parseUnary();
      if (!R)
        return nullptr;
      E = mkBin(BinOp::Isect, E, R, Loc);
    } else {
      return E;
    }
  }
}

Expr *Parser::parseAdditive() {
  Expr *E = parseMultiplicative();
  for (;;) {
    SourceLoc Loc = peek().Loc;
    if (accept(TokKind::Plus)) {
      Expr *R = parseMultiplicative();
      if (!R)
        return nullptr;
      E = mkBin(BinOp::Add, E, R, Loc);
    } else if (accept(TokKind::Minus)) {
      Expr *R = parseMultiplicative();
      if (!R)
        return nullptr;
      E = mkBin(BinOp::Sub, E, R, Loc);
    } else if (acceptIdent("union")) {
      Expr *R = parseMultiplicative();
      if (!R)
        return nullptr;
      E = mkBin(BinOp::Union, E, R, Loc);
    } else if (acceptIdent("setminus")) {
      Expr *R = parseMultiplicative();
      if (!R)
        return nullptr;
      E = mkBin(BinOp::SetMinus, E, R, Loc);
    } else if (acceptIdent("duplus")) {
      Expr *R = parseMultiplicative();
      if (!R)
        return nullptr;
      E = mkBin(BinOp::DuPlus, E, R, Loc);
    } else {
      return E;
    }
  }
}

Expr *Parser::parseRelational() {
  Expr *E = parseAdditive();
  if (!E)
    return nullptr;
  SourceLoc Loc = peek().Loc;
  BinOp Op;
  if (accept(TokKind::EqEq))
    Op = BinOp::Eq;
  else if (accept(TokKind::NotEq))
    Op = BinOp::Ne;
  else if (accept(TokKind::LessEq))
    Op = BinOp::Le;
  else if (accept(TokKind::GreaterEq))
    Op = BinOp::Ge;
  else if (accept(TokKind::LAngle))
    Op = BinOp::Lt;
  else if (accept(TokKind::RAngle))
    Op = BinOp::Gt;
  else if (acceptIdent("in"))
    Op = BinOp::In;
  else if (acceptIdent("subsetof"))
    Op = BinOp::Subset;
  else
    return E;
  Expr *R = parseAdditive();
  if (!R)
    return nullptr;
  return mkBin(Op, E, R, Loc);
}

Expr *Parser::parseAnd() {
  Expr *E = parseRelational();
  while (E && check(TokKind::AndAnd)) {
    SourceLoc Loc = peek().Loc;
    advance();
    Expr *R = parseRelational();
    if (!R)
      return nullptr;
    E = mkBin(BinOp::And, E, R, Loc);
  }
  return E;
}

Expr *Parser::parseOr() {
  Expr *E = parseAnd();
  while (E && check(TokKind::OrOr)) {
    SourceLoc Loc = peek().Loc;
    advance();
    Expr *R = parseAnd();
    if (!R)
      return nullptr;
    E = mkBin(BinOp::Or, E, R, Loc);
  }
  return E;
}

Expr *Parser::parseImplies() {
  Expr *E = parseOr();
  if (E && check(TokKind::Implies)) {
    SourceLoc Loc = peek().Loc;
    advance();
    DepthGuard Guard(*this);
    if (Guard.TooDeep)
      return nullptr;
    Expr *R = parseImplies(); // right-associative
    if (!R)
      return nullptr;
    return mkBin(BinOp::Implies, E, R, Loc);
  }
  return E;
}

Expr *Parser::parseIff() {
  Expr *E = parseImplies();
  while (E && check(TokKind::Iff)) {
    SourceLoc Loc = peek().Loc;
    advance();
    Expr *R = parseImplies();
    if (!R)
      return nullptr;
    E = mkBin(BinOp::Iff, E, R, Loc);
  }
  return E;
}

Stmt *Parser::parseStmt() {
  SourceLoc Loc = peek().Loc;
  bool Ghost = false;
  if (checkIdent("ghost")) {
    if (peek(1).is(TokKind::LBrace)) {
      advance();
      Stmt *S = parseBlock();
      if (!S)
        return nullptr;
      S->Kind = StmtKind::GhostBlock;
      S->IsGhost = true;
      return S;
    }
    advance();
    Ghost = true;
  }
  if (acceptIdent("var")) {
    Stmt *S = M.newStmt(StmtKind::VarDecl, Loc);
    S->IsGhost = Ghost;
    S->VarName = expectName("a variable name");
    if (!expect(TokKind::Colon, "':'"))
      return nullptr;
    if (!parseType(S->VarType))
      return nullptr;
    if (accept(TokKind::Assign)) {
      S->Init = parseExpr();
      if (!S->Init)
        return nullptr;
    }
    if (!expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }
  if (Ghost) {
    error("'ghost' must prefix a variable declaration or a block");
    return nullptr;
  }
  if (acceptIdent("Mut")) {
    Stmt *S = M.newStmt(StmtKind::Mut, Loc);
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    S->Target = parseExpr();
    if (!S->Target || !expect(TokKind::Comma, "','"))
      return nullptr;
    S->Init = parseExpr();
    if (!S->Init || !expect(TokKind::RParen, "')'") ||
        !expect(TokKind::Semi, "';'"))
      return nullptr;
    if (S->Target->Kind != ExprKind::FieldRead) {
      Diags.error(Loc, "first argument of Mut must be a field access");
      return nullptr;
    }
    return S;
  }
  if (acceptIdent("NewObj")) {
    Stmt *S = M.newStmt(StmtKind::NewObj, Loc);
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    S->VarName = expectName("a variable name");
    if (!expect(TokKind::RParen, "')'") || !expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }
  if (acceptIdent("AssertLCAndRemove") || checkIdent("InferLCOutsideBr")) {
    bool IsRemove = Toks[Pos - 1].isIdent("AssertLCAndRemove");
    if (!IsRemove)
      advance();
    Stmt *S = M.newStmt(
        IsRemove ? StmtKind::AssertLcRemove : StmtKind::InferLc, Loc);
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    S->Group = expectName("a local-condition group name");
    if (!expect(TokKind::Comma, "','"))
      return nullptr;
    S->Cond = parseExpr();
    if (!S->Cond || !expect(TokKind::RParen, "')'") ||
        !expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }
  if (acceptIdent("assert") || checkIdent("assume")) {
    bool IsAssert = Toks[Pos - 1].isIdent("assert");
    if (!IsAssert)
      advance();
    Stmt *S =
        M.newStmt(IsAssert ? StmtKind::Assert : StmtKind::Assume, Loc);
    S->Cond = parseExpr();
    if (!S->Cond || !expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }
  if (acceptIdent("if")) {
    Stmt *S = M.newStmt(StmtKind::If, Loc);
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    S->Cond = parseExpr();
    if (!S->Cond || !expect(TokKind::RParen, "')'"))
      return nullptr;
    Stmt *Then = parseBlock();
    if (!Then)
      return nullptr;
    S->Body = Then->Body;
    if (acceptIdent("else")) {
      if (checkIdent("if")) {
        Stmt *ElseIf = parseStmt();
        if (!ElseIf)
          return nullptr;
        S->ElseBody = {ElseIf};
      } else {
        Stmt *Else = parseBlock();
        if (!Else)
          return nullptr;
        S->ElseBody = Else->Body;
      }
    }
    return S;
  }
  if (acceptIdent("while")) {
    Stmt *S = M.newStmt(StmtKind::While, Loc);
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    S->Cond = parseExpr();
    if (!S->Cond || !expect(TokKind::RParen, "')'"))
      return nullptr;
    while (acceptIdent("invariant")) {
      Expr *Inv = parseExpr();
      if (!Inv)
        return nullptr;
      S->Invariants.push_back(Inv);
    }
    if (acceptIdent("decreases")) {
      S->Decreases = parseExpr();
      if (!S->Decreases)
        return nullptr;
    }
    Stmt *Body = parseBlock();
    if (!Body)
      return nullptr;
    S->Body = Body->Body;
    return S;
  }
  if (acceptIdent("call")) {
    Stmt *S = M.newStmt(StmtKind::Call, Loc);
    // Either `call p(args);` or `call a, b := p(args);`
    std::vector<std::string> Names;
    Names.push_back(expectName("a name"));
    while (accept(TokKind::Comma))
      Names.push_back(expectName("a name"));
    if (accept(TokKind::Assign)) {
      S->CallLhs = std::move(Names);
      S->Callee = expectName("a procedure name");
    } else {
      if (Names.size() != 1) {
        error("expected ':=' in call statement");
        return nullptr;
      }
      S->Callee = Names[0];
    }
    if (!expect(TokKind::LParen, "'('"))
      return nullptr;
    if (!check(TokKind::RParen)) {
      do {
        Expr *A = parseExpr();
        if (!A)
          return nullptr;
        S->CallArgs.push_back(A);
      } while (accept(TokKind::Comma));
    }
    if (!expect(TokKind::RParen, "')'") || !expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }
  if (acceptIdent("return")) {
    Stmt *S = M.newStmt(StmtKind::Return, Loc);
    if (!expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }
  // Assignment: ident := expr ;
  if (check(TokKind::Ident) && peek(1).is(TokKind::Assign)) {
    Stmt *S = M.newStmt(StmtKind::Assign, Loc);
    S->VarName = advance().Text;
    advance(); // :=
    S->Init = parseExpr();
    if (!S->Init || !expect(TokKind::Semi, "';'"))
      return nullptr;
    return S;
  }
  error("expected a statement");
  return nullptr;
}

Stmt *Parser::parseBlock() {
  DepthGuard Guard(*this);
  if (Guard.TooDeep)
    return nullptr;
  SourceLoc Loc = peek().Loc;
  if (!expect(TokKind::LBrace, "'{'"))
    return nullptr;
  Stmt *B = M.newStmt(StmtKind::Block, Loc);
  while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
    Stmt *S = parseStmt();
    if (!S)
      return nullptr;
    B->Body.push_back(S);
  }
  if (!expect(TokKind::RBrace, "'}'"))
    return nullptr;
  return B;
}

bool Parser::parseParams(std::vector<ParamDecl> &Out) {
  if (check(TokKind::RParen))
    return true;
  do {
    ParamDecl P;
    if (acceptIdent("ghost"))
      P.IsGhost = true;
    P.Name = expectName("a parameter name");
    if (!expect(TokKind::Colon, "':'"))
      return false;
    if (!parseType(P.Ty))
      return false;
    Out.push_back(std::move(P));
  } while (accept(TokKind::Comma));
  return true;
}

bool Parser::parseStructure() {
  StructureDecl &S = M.Structure;
  S.Loc = peek().Loc;
  if (!expectIdent("structure"))
    return false;
  S.Name = expectName("a structure name");
  if (!expect(TokKind::LBrace, "'{'"))
    return false;
  while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
    SourceLoc Loc = peek().Loc;
    bool Ghost = acceptIdent("ghost");
    if (acceptIdent("field")) {
      FieldDecl F;
      F.IsGhost = Ghost;
      F.Loc = Loc;
      F.Name = expectName("a field name");
      if (!expect(TokKind::Colon, "':'"))
        return false;
      if (!parseType(F.Ty))
        return false;
      if (!expect(TokKind::Semi, "';'"))
        return false;
      S.Fields.push_back(std::move(F));
      continue;
    }
    if (Ghost) {
      error("'ghost' must prefix a field declaration here");
      return false;
    }
    if (acceptIdent("local")) {
      LocalCondDecl L;
      L.Loc = Loc;
      L.Name = expectName("a group name");
      if (!expect(TokKind::LParen, "'('"))
        return false;
      L.Param = expectName("a parameter name");
      if (!expect(TokKind::RParen, "')'") || !expect(TokKind::LBrace, "'{'"))
        return false;
      L.Body = parseExpr();
      if (!L.Body || !expect(TokKind::RBrace, "'}'"))
        return false;
      S.Locals.push_back(std::move(L));
      continue;
    }
    if (acceptIdent("correlation")) {
      if (!expect(TokKind::LParen, "'('"))
        return false;
      S.CorrelationParam = expectName("a parameter name");
      if (!expect(TokKind::RParen, "')'") || !expect(TokKind::LBrace, "'{'"))
        return false;
      S.CorrelationBody = parseExpr();
      if (!S.CorrelationBody || !expect(TokKind::RBrace, "'}'"))
        return false;
      continue;
    }
    if (acceptIdent("impact")) {
      // `impact f [g]` or `impact f [g1, g2, ...]`: a field shared by
      // several local-condition groups declares one impact set per group
      // in a single clause (overlaid structures, Section 4.4); the list
      // desugars to one ImpactDecl per group sharing the same terms.
      ImpactDecl I;
      I.Loc = Loc;
      I.Field = expectName("a field name");
      if (!expect(TokKind::LBracket, "'['"))
        return false;
      std::vector<std::string> Groups;
      do {
        Groups.push_back(expectName("a group name"));
      } while (accept(TokKind::Comma));
      if (!expect(TokKind::RBracket, "']'"))
        return false;
      if (acceptIdent("requires")) {
        I.Precondition = parseExpr();
        if (!I.Precondition)
          return false;
      }
      if (!expect(TokKind::LBrace, "'{'"))
        return false;
      do {
        Expr *T = parseExpr();
        if (!T)
          return false;
        I.Terms.push_back(T);
      } while (accept(TokKind::Comma));
      if (!expect(TokKind::RBrace, "'}'"))
        return false;
      for (const std::string &G : Groups) {
        ImpactDecl Copy = I;
        Copy.Group = G;
        S.Impacts.push_back(std::move(Copy));
      }
      continue;
    }
    error("expected a structure member");
    return false;
  }
  return expect(TokKind::RBrace, "'}'");
}

bool Parser::parseProcedure() {
  ProcDecl P;
  P.Loc = peek().Loc;
  if (!expectIdent("procedure"))
    return false;
  P.Name = expectName("a procedure name");
  if (!expect(TokKind::LParen, "'('"))
    return false;
  if (!parseParams(P.Params))
    return false;
  if (!expect(TokKind::RParen, "')'"))
    return false;
  if (acceptIdent("returns")) {
    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!parseParams(P.Returns))
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;
  }
  for (;;) {
    if (acceptIdent("requires")) {
      Expr *E = parseExpr();
      if (!E)
        return false;
      P.Requires.push_back(E);
    } else if (acceptIdent("ensures")) {
      Expr *E = parseExpr();
      if (!E)
        return false;
      P.Ensures.push_back(E);
    } else if (acceptIdent("modifies")) {
      do {
        Expr *E = parseExpr();
        if (!E)
          return false;
        P.Modifies.push_back(E);
      } while (accept(TokKind::Comma));
    } else {
      break;
    }
  }
  P.Body = parseBlock();
  if (!P.Body)
    return false;
  M.Procs.push_back(std::move(P));
  return true;
}

bool Parser::parseModule() {
  if (!parseStructure())
    return false;
  while (!check(TokKind::Eof)) {
    if (!parseProcedure())
      return false;
  }
  return !Failed;
}

std::unique_ptr<Module> lang::parseModule(const std::string &Source,
                                          DiagEngine &Diags) {
  std::vector<Token> Toks = tokenize(Source, Diags);
  if (Diags.hasErrors())
    return nullptr;
  auto M = std::make_unique<Module>();
  Parser P(std::move(Toks), Diags, *M);
  if (!P.parseModule() || Diags.hasErrors())
    return nullptr;
  return M;
}
