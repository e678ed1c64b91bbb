#include "common/strings.h"
#include "ddl/lexer.h"
#include "obs/slowlog.h"
#include "quel/quel.h"

namespace mdm::quel {

namespace {

using ddl::Lex;
using ddl::Token;
using ddl::TokenType;

bool IsKeyword(const Token& tok, const char* kw) {
  return tok.type == TokenType::kIdentifier && EqualsIgnoreCase(tok.text, kw);
}

bool IsLiteral(TokenType t) {
  return t == TokenType::kInteger || t == TokenType::kFloat ||
         t == TokenType::kString;
}

/// The value of a literal token. The parser and the shape scan both
/// convert through here.
rel::Value LiteralValue(const Token& tok) {
  switch (tok.type) {
    case TokenType::kInteger: return rel::Value::Int(tok.int_value);
    case TokenType::kFloat: return rel::Value::Float(tok.float_value);
    default: return rel::Value::String(tok.text);
  }
}

class QuelParser {
 public:
  explicit QuelParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)), slots_(tokens_.size(), 0) {
    // Literal tokens take parameter slots in source order, the order
    // ScanScriptShape binds them in.
    for (size_t i = 0; i < tokens_.size(); ++i)
      if (IsLiteral(tokens_[i].type)) slots_[i] = scanned_++;
    params_.resize(scanned_);
  }

  Result<ParsedScript> Run() {
    ParsedScript out;
    while (!AtEnd()) {
      MDM_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      out.statements.push_back(std::move(stmt));
    }
    out.params = std::move(params_);
    out.scanned = scanned_;
    return out;
  }

 private:
  bool AtEnd() const { return tokens_[pos_].type == TokenType::kEnd; }
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (!AtEnd()) ++pos_;
  }

  Status ExpectKeyword(const char* kw) {
    if (!IsKeyword(Peek(), kw))
      return ParseError(StrFormat("line %zu: expected '%s', got '%s'",
                                  Peek().line, kw, Peek().text.c_str()));
    Advance();
    return Status::OK();
  }

  Status Expect(TokenType t, const char* what) {
    if (Peek().type != t)
      return ParseError(StrFormat("line %zu: expected %s, got '%s'",
                                  Peek().line, what, Peek().text.c_str()));
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier)
      return ParseError(StrFormat("line %zu: expected %s, got '%s'",
                                  Peek().line, what, Peek().text.c_str()));
    std::string s = Peek().text;
    Advance();
    return s;
  }

  Result<Statement> ParseStatement() {
    const Token& tok = Peek();
    if (IsKeyword(tok, "range")) return ParseRange();
    if (IsKeyword(tok, "explain")) {
      // `explain retrieve ...` renders the plan without running it;
      // `explain analyze retrieve ...` runs it and annotates the plan
      // with actual row counts and per-loop timings.
      Advance();
      bool analyze = false;
      if (IsKeyword(Peek(), "analyze")) {
        analyze = true;
        Advance();
      }
      if (!IsKeyword(Peek(), "retrieve"))
        return ParseError(
            StrFormat("line %zu: expected 'retrieve' after 'explain', "
                      "got '%s'",
                      Peek().line, Peek().text.c_str()));
      MDM_ASSIGN_OR_RETURN(Statement stmt, ParseRetrieve());
      stmt.explain = true;
      stmt.analyze = analyze;
      return stmt;
    }
    if (IsKeyword(tok, "retrieve")) return ParseRetrieve();
    if (IsKeyword(tok, "append")) return ParseAppend();
    if (IsKeyword(tok, "replace")) return ParseReplace();
    if (IsKeyword(tok, "delete")) return ParseDelete();
    return ParseError(StrFormat("line %zu: expected a statement, got '%s'",
                                tok.line, tok.text.c_str()));
  }

  // range of v1, v2 is TYPE
  Result<Statement> ParseRange() {
    Advance();  // range
    MDM_RETURN_IF_ERROR(ExpectKeyword("of"));
    Statement stmt;
    stmt.kind = Statement::Kind::kRange;
    while (true) {
      MDM_ASSIGN_OR_RETURN(std::string v,
                           ExpectIdentifier("range variable"));
      stmt.range_vars.push_back(std::move(v));
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    MDM_RETURN_IF_ERROR(ExpectKeyword("is"));
    MDM_ASSIGN_OR_RETURN(stmt.range_type, ExpectIdentifier("type name"));
    return stmt;
  }

  // retrieve [unique] ( target {, target} ) [ where qual ]
  Result<Statement> ParseRetrieve() {
    Advance();  // retrieve
    Statement stmt;
    stmt.kind = Statement::Kind::kRetrieve;
    if (IsKeyword(Peek(), "unique")) {
      stmt.unique = true;
      Advance();
    }
    MDM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    while (true) {
      MDM_ASSIGN_OR_RETURN(Target t, ParseTarget());
      stmt.targets.push_back(std::move(t));
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    MDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    if (IsKeyword(Peek(), "where")) {
      Advance();
      MDM_ASSIGN_OR_RETURN(stmt.qual, ParseQual());
    }
    // sort by label [desc] {, label [desc]}
    if (IsKeyword(Peek(), "sort")) {
      Advance();
      MDM_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        SortKey key;
        MDM_ASSIGN_OR_RETURN(key.label, ExpectIdentifier("sort column"));
        // A default target label may be "var.attr".
        if (Peek().type == TokenType::kDot) {
          Advance();
          MDM_ASSIGN_OR_RETURN(std::string attr,
                               ExpectIdentifier("sort column attribute"));
          key.label += "." + attr;
        }
        if (IsKeyword(Peek(), "desc")) {
          key.descending = true;
          Advance();
        } else if (IsKeyword(Peek(), "asc")) {
          Advance();
        }
        stmt.sort_keys.push_back(std::move(key));
        if (Peek().type != TokenType::kComma) break;
        Advance();
      }
    }
    return stmt;
  }

  // append to TYPE ( attr = expr {, attr = expr} )
  //   [ under VAR in ORDERING [ where qual ] ]
  Result<Statement> ParseAppend() {
    Advance();  // append
    MDM_RETURN_IF_ERROR(ExpectKeyword("to"));
    Statement stmt;
    stmt.kind = Statement::Kind::kAppend;
    MDM_ASSIGN_OR_RETURN(stmt.append_type, ExpectIdentifier("type name"));
    MDM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (Peek().type != TokenType::kRParen) {
      while (true) {
        MDM_ASSIGN_OR_RETURN(std::string attr,
                             ExpectIdentifier("attribute name"));
        MDM_RETURN_IF_ERROR(Expect(TokenType::kEquals, "'='"));
        MDM_ASSIGN_OR_RETURN(Expr e, ParseExpr());
        stmt.assignments.emplace_back(std::move(attr), std::move(e));
        if (Peek().type != TokenType::kComma) break;
        Advance();
      }
    }
    MDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    if (IsKeyword(Peek(), "under")) {
      Advance();
      MDM_ASSIGN_OR_RETURN(stmt.append_parent_var,
                           ExpectIdentifier("parent range variable"));
      MDM_RETURN_IF_ERROR(ExpectKeyword("in"));
      MDM_ASSIGN_OR_RETURN(stmt.append_ordering,
                           ExpectIdentifier("ordering name"));
      if (IsKeyword(Peek(), "where")) {
        Advance();
        MDM_ASSIGN_OR_RETURN(stmt.qual, ParseQual());
      }
    }
    return stmt;
  }

  // replace v ( attr = expr {, ...} ) [ where qual ]
  Result<Statement> ParseReplace() {
    Advance();  // replace
    Statement stmt;
    stmt.kind = Statement::Kind::kReplace;
    MDM_ASSIGN_OR_RETURN(stmt.update_var,
                         ExpectIdentifier("range variable"));
    MDM_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    while (true) {
      MDM_ASSIGN_OR_RETURN(std::string attr,
                           ExpectIdentifier("attribute name"));
      MDM_RETURN_IF_ERROR(Expect(TokenType::kEquals, "'='"));
      MDM_ASSIGN_OR_RETURN(Expr e, ParseExpr());
      stmt.assignments.emplace_back(std::move(attr), std::move(e));
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    MDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    if (IsKeyword(Peek(), "where")) {
      Advance();
      MDM_ASSIGN_OR_RETURN(stmt.qual, ParseQual());
    }
    return stmt;
  }

  // delete v [ where qual ]
  Result<Statement> ParseDelete() {
    Advance();  // delete
    Statement stmt;
    stmt.kind = Statement::Kind::kDelete;
    MDM_ASSIGN_OR_RETURN(stmt.update_var,
                         ExpectIdentifier("range variable"));
    if (IsKeyword(Peek(), "where")) {
      Advance();
      MDM_ASSIGN_OR_RETURN(stmt.qual, ParseQual());
    }
    return stmt;
  }

  // target := [label =] (aggfn '(' expr ')' | expr)
  Result<Target> ParseTarget() {
    Target t;
    // Optional label: IDENT '=' when not followed by aggregate-less
    // ambiguity. `label = expr`.
    if (Peek().type == TokenType::kIdentifier &&
        Peek(1).type == TokenType::kEquals) {
      t.label = Peek().text;
      Advance();
      Advance();
    }
    if (Peek().type == TokenType::kIdentifier &&
        Peek(1).type == TokenType::kLParen) {
      const std::string fn = AsciiLower(Peek().text);
      AggFn agg = AggFn::kNone;
      if (fn == "count") agg = AggFn::kCount;
      else if (fn == "sum") agg = AggFn::kSum;
      else if (fn == "avg") agg = AggFn::kAvg;
      else if (fn == "min") agg = AggFn::kMin;
      else if (fn == "max") agg = AggFn::kMax;
      if (agg != AggFn::kNone) {
        t.agg = agg;
        Advance();  // fn
        Advance();  // (
        MDM_ASSIGN_OR_RETURN(t.expr, ParseExpr());
        // QUEL grouping: aggfn(expr by expr {, expr}).
        if (IsKeyword(Peek(), "by")) {
          Advance();
          while (true) {
            MDM_ASSIGN_OR_RETURN(Expr by_expr, ParseExpr());
            t.by.push_back(std::move(by_expr));
            if (Peek().type != TokenType::kComma) break;
            Advance();
          }
        }
        MDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        if (t.label.empty()) t.label = fn;
        return t;
      }
    }
    MDM_ASSIGN_OR_RETURN(t.expr, ParseExpr());
    if (t.label.empty()) {
      t.label = t.expr.kind == Expr::Kind::kAttrRef
                    ? t.expr.var + "." + t.expr.attr
                    : (t.expr.kind == Expr::Kind::kVarRef ? t.expr.var
                                                          : "expr");
    }
    return t;
  }

  // A literal expression bound to parameter slot `slot`.
  Expr Param(rel::Value v, uint32_t slot) {
    params_[slot] = v;
    Expr e = Expr::Literal(std::move(v));
    e.param = slot;
    return e;
  }

  // expr := literal | IDENT | IDENT '.' IDENT
  Result<Expr> ParseExpr() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger:
      case TokenType::kFloat:
      case TokenType::kString: {
        const uint32_t slot = slots_[pos_];
        Advance();
        return Param(LiteralValue(tok), slot);
      }
      case TokenType::kIdentifier: {
        if (EqualsIgnoreCase(tok.text, "true") ||
            EqualsIgnoreCase(tok.text, "false")) {
          // Part of the script's shape, not scanned: a slot after the
          // scanned ones.
          Advance();
          params_.emplace_back();
          return Param(rel::Value::Bool(EqualsIgnoreCase(tok.text, "true")),
                       static_cast<uint32_t>(params_.size() - 1));
        }
        std::string var = tok.text;
        Advance();
        if (Peek().type == TokenType::kDot) {
          Advance();
          MDM_ASSIGN_OR_RETURN(std::string attr,
                               ExpectIdentifier("attribute name"));
          return Expr::AttrRef(std::move(var), std::move(attr));
        }
        return Expr::VarRef(std::move(var));
      }
      default:
        return ParseError(StrFormat("line %zu: expected expression, got '%s'",
                                    tok.line, tok.text.c_str()));
    }
  }

  // qual := or_qual
  Result<std::unique_ptr<Qual>> ParseQual() { return ParseOr(); }

  Result<std::unique_ptr<Qual>> ParseOr() {
    MDM_ASSIGN_OR_RETURN(std::unique_ptr<Qual> lhs, ParseAnd());
    while (IsKeyword(Peek(), "or")) {
      Advance();
      MDM_ASSIGN_OR_RETURN(std::unique_ptr<Qual> rhs, ParseAnd());
      auto node = std::make_unique<Qual>();
      node->kind = Qual::Kind::kOr;
      node->a = std::move(lhs);
      node->b = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<Qual>> ParseAnd() {
    MDM_ASSIGN_OR_RETURN(std::unique_ptr<Qual> lhs, ParseNot());
    while (IsKeyword(Peek(), "and")) {
      Advance();
      MDM_ASSIGN_OR_RETURN(std::unique_ptr<Qual> rhs, ParseNot());
      auto node = std::make_unique<Qual>();
      node->kind = Qual::Kind::kAnd;
      node->a = std::move(lhs);
      node->b = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<Qual>> ParseNot() {
    if (IsKeyword(Peek(), "not")) {
      Advance();
      MDM_ASSIGN_OR_RETURN(std::unique_ptr<Qual> inner, ParseNot());
      auto node = std::make_unique<Qual>();
      node->kind = Qual::Kind::kNot;
      node->a = std::move(inner);
      return node;
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Qual>> ParsePrimary() {
    if (Peek().type == TokenType::kLParen) {
      Advance();
      MDM_ASSIGN_OR_RETURN(std::unique_ptr<Qual> inner, ParseQual());
      MDM_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    MDM_ASSIGN_OR_RETURN(Expr lhs, ParseExpr());
    const Token& op = Peek();
    // Entity equivalence: `a is b`.
    if (IsKeyword(op, "is")) {
      Advance();
      MDM_ASSIGN_OR_RETURN(Expr rhs, ParseExpr());
      auto node = std::make_unique<Qual>();
      node->kind = Qual::Kind::kIs;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      return node;
    }
    // Ordering operators: `a before b [in ordering]`.
    for (auto [kw, oop] : {std::pair{"before", OrderOp::kBefore},
                           std::pair{"after", OrderOp::kAfter},
                           std::pair{"under", OrderOp::kUnder}}) {
      if (!IsKeyword(op, kw)) continue;
      if (lhs.kind != Expr::Kind::kVarRef)
        return ParseError(StrFormat(
            "line %zu: ordering operators take range variables", op.line));
      Advance();
      MDM_ASSIGN_OR_RETURN(Expr rhs, ParseExpr());
      if (rhs.kind != Expr::Kind::kVarRef)
        return ParseError(StrFormat(
            "line %zu: ordering operators take range variables", op.line));
      auto node = std::make_unique<Qual>();
      node->kind = Qual::Kind::kOrder;
      node->order_op = oop;
      node->order_var1 = lhs.var;
      node->order_var2 = rhs.var;
      if (IsKeyword(Peek(), "in")) {
        Advance();
        MDM_ASSIGN_OR_RETURN(node->ordering,
                             ExpectIdentifier("ordering name"));
      }
      return node;
    }
    CompareOp cmp;
    switch (op.type) {
      case TokenType::kEquals: cmp = CompareOp::kEq; break;
      case TokenType::kNotEquals: cmp = CompareOp::kNe; break;
      case TokenType::kLess: cmp = CompareOp::kLt; break;
      case TokenType::kLessEq: cmp = CompareOp::kLe; break;
      case TokenType::kGreater: cmp = CompareOp::kGt; break;
      case TokenType::kGreaterEq: cmp = CompareOp::kGe; break;
      default:
        return ParseError(StrFormat("line %zu: expected a predicate "
                                    "operator, got '%s'",
                                    op.line, op.text.c_str()));
    }
    Advance();
    MDM_ASSIGN_OR_RETURN(Expr rhs, ParseExpr());
    auto node = std::make_unique<Qual>();
    node->kind = Qual::Kind::kCompare;
    node->cmp = cmp;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  std::vector<Token> tokens_;
  std::vector<uint32_t> slots_;  // per token: its parameter slot
  uint32_t scanned_ = 0;         // literal tokens
  std::vector<rel::Value> params_;
  size_t pos_ = 0;
};

}  // namespace

Result<ParsedScript> ParseQuelScript(const std::string& script) {
  MDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(script));
  QuelParser parser(std::move(tokens));
  return parser.Run();
}

Result<std::vector<Statement>> ParseQuel(const std::string& script) {
  MDM_ASSIGN_OR_RETURN(ParsedScript parsed, ParseQuelScript(script));
  return std::move(parsed.statements);
}

bool ScanScriptShape(const std::string& script, ScriptShape* out) {
  out->text.clear();
  out->text.reserve(script.size());
  out->params.clear();
  out->explain = false;
  ddl::Scanner scanner(script);
  Token tok;
  size_t prev_end = 0;
  while (true) {
    if (!scanner.Next(&tok).ok()) return false;
    if (tok.type == TokenType::kEnd) return true;
    // Any run of whitespace and comments between tokens is one space,
    // so the shape is the token stream and spacing does not split it.
    if (scanner.token_begin() != prev_end && !out->text.empty())
      out->text += ' ';
    prev_end = scanner.token_end();
    if (IsLiteral(tok.type)) {
      // '?' starts no token, so a placeholder never reads as source.
      out->text += tok.type == TokenType::kInteger ? "?i"
                   : tok.type == TokenType::kFloat ? "?f"
                                                   : "?s";
      out->params.push_back(LiteralValue(tok));
      continue;
    }
    if (IsKeyword(tok, "explain")) out->explain = true;
    out->text.append(script, scanner.token_begin(),
                     prev_end - scanner.token_begin());
  }
}

uint64_t ScriptFingerprint(const std::string& script) {
  ScriptShape shape;
  return obs::Fnv1a64(ScanScriptShape(script, &shape) ? shape.text : script);
}

}  // namespace mdm::quel
