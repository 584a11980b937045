#include "frontend/bdl.h"

#include <cctype>
#include <cstdlib>

#include "common/str_util.h"
#include "expr/builder.h"

namespace nexus {

namespace {

using namespace nexus::exprs;  // NOLINT

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kInt, kFloat, kString, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // ident / punct / string body
  int64_t ival = 0;   // kInt
  double fval = 0.0;  // kFloat
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      if (pos_ >= input_.size()) break;
      char c = input_[pos_];
      if (c == '#') {  // comment to end of line
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
                input_[pos_] == '_')) {
          ++pos_;
        }
        out.push_back(Token{TokKind::kIdent, input_.substr(start, pos_ - start), 0, 0});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && pos_ + 1 < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
        NEXUS_ASSIGN_OR_RETURN(Token t, LexNumber());
        out.push_back(std::move(t));
        continue;
      }
      if (c == '"') {
        NEXUS_ASSIGN_OR_RETURN(Token t, LexString());
        out.push_back(std::move(t));
        continue;
      }
      NEXUS_ASSIGN_OR_RETURN(Token t, LexPunct());
      out.push_back(std::move(t));
    }
    out.push_back(Token{});
    return out;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  Result<Token> LexNumber() {
    size_t start = pos_;
    bool is_float = false;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_float = true;
        ++pos_;
        if ((c == 'e' || c == 'E') && pos_ < input_.size() &&
            (input_[pos_] == '+' || input_[pos_] == '-')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    std::string text = input_.substr(start, pos_ - start);
    Token t;
    char* end = nullptr;
    if (is_float) {
      t.kind = TokKind::kFloat;
      t.fval = std::strtod(text.c_str(), &end);
    } else {
      t.kind = TokKind::kInt;
      t.ival = std::strtoll(text.c_str(), &end, 10);
    }
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument(StrCat("bad number literal: ", text));
    }
    return t;
  }

  Result<Token> LexString() {
    ++pos_;  // opening quote
    std::string body;
    while (pos_ < input_.size()) {
      char c = input_[pos_++];
      if (c == '"') {
        return Token{TokKind::kString, std::move(body), 0, 0};
      }
      if (c == '\\' && pos_ < input_.size()) {
        char e = input_[pos_++];
        body.push_back(e == 'n' ? '\n' : (e == 't' ? '\t' : e));
        continue;
      }
      body.push_back(c);
    }
    return Status::InvalidArgument("unterminated string literal");
  }

  Result<Token> LexPunct() {
    static const char* kTwoChar[] = {":=", "->", "==", "!=", "<=", ">="};
    for (const char* p : kTwoChar) {
      if (input_.compare(pos_, 2, p) == 0) {
        pos_ += 2;
        return Token{TokKind::kPunct, p, 0, 0};
      }
    }
    char c = input_[pos_];
    static const std::string kSingles = "()[],<>=+-*/%|";
    if (kSingles.find(c) == std::string::npos) {
      return Status::InvalidArgument(StrCat("unexpected character '", c, "'"));
    }
    ++pos_;
    return Token{TokKind::kPunct, std::string(1, c), 0, 0};
  }

  const std::string& input_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<PlanPtr> ParseQuery() {
    PlanPtr plan;
    while (!AtEnd()) {
      if (PeekPunct("|")) Advance();
      if (AtEnd()) break;
      NEXUS_ASSIGN_OR_RETURN(plan, ParseStage(plan));
    }
    if (plan == nullptr) return Status::InvalidArgument("empty BDL query");
    return plan;
  }

  Result<ExprPtr> ParseStandaloneExpr() {
    NEXUS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!AtEnd()) return Status::InvalidArgument("trailing input after expression");
    return e;
  }

 private:
  // --- token helpers ---
  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }
  Token Advance() { return tokens_[pos_++]; }
  bool PeekIdent(const char* kw) const {
    return Peek().kind == TokKind::kIdent && ToLower(Peek().text) == kw;
  }
  bool PeekPunct(const char* p) const {
    return Peek().kind == TokKind::kPunct && Peek().text == p;
  }
  bool EatIdent(const char* kw) {
    if (!PeekIdent(kw)) return false;
    Advance();
    return true;
  }
  bool EatPunct(const char* p) {
    if (!PeekPunct(p)) return false;
    Advance();
    return true;
  }
  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument(StrCat("expected ", what));
    }
    return Advance().text;
  }
  Result<int64_t> ExpectInt(const char* what) {
    if (Peek().kind != TokKind::kInt) {
      return Status::InvalidArgument(StrCat("expected integer ", what));
    }
    return Advance().ival;
  }
  Result<double> ExpectNumber(const char* what) {
    bool neg = EatPunct("-");
    if (Peek().kind == TokKind::kInt) {
      return (neg ? -1.0 : 1.0) * static_cast<double>(Advance().ival);
    }
    if (Peek().kind == TokKind::kFloat) {
      return (neg ? -1.0 : 1.0) * Advance().fval;
    }
    return Status::InvalidArgument(StrCat("expected number ", what));
  }
  Status ExpectPunct(const char* p) {
    if (!EatPunct(p)) {
      return Status::InvalidArgument(StrCat("expected '", p, "'"));
    }
    return Status::OK();
  }

  // --- expressions (precedence climbing) ---
  Result<ExprPtr> ParseExpr() {
    return Deeper([this] { return ParseOr(); });
  }

  // Each recursive step of the grammar — a parenthesis or call argument
  // (ParseExpr), a prefix `not` or `-`, a comparison's right operand — runs
  // one level deeper, and so does each operator of a flat `a + b + c` or
  // `p and q` chain, which grows its left-deep tree one level per operator.
  // Past kMaxParseDepth levels the parse fails instead of building a tree
  // whose recursive walks overflow the stack. An error ends the whole parse,
  // so only successful steps restore depth_.
  Status Descend() {
    if (depth_ == kMaxParseDepth) {
      return Status::InvalidArgument(
          StrCat("expression nested deeper than ", kMaxParseDepth));
    }
    ++depth_;
    return Status::OK();
  }

  template <typename ParseFn>
  Result<ExprPtr> Deeper(ParseFn parse) {
    NEXUS_RETURN_NOT_OK(Descend());
    NEXUS_ASSIGN_OR_RETURN(ExprPtr e, parse());
    --depth_;
    return e;
  }

  Result<ExprPtr> ParseOr() {
    const int depth = depth_;
    NEXUS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (PeekIdent("or")) {
      Advance();
      NEXUS_RETURN_NOT_OK(Descend());
      NEXUS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Or(std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    const int depth = depth_;
    NEXUS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (PeekIdent("and")) {
      Advance();
      NEXUS_RETURN_NOT_OK(Descend());
      NEXUS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = And(std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (PeekIdent("not")) {
      Advance();
      NEXUS_ASSIGN_OR_RETURN(ExprPtr e, Deeper([this] { return ParseNot(); }));
      return Not(std::move(e));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    NEXUS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAddSub());
    static const std::pair<const char*, BinaryOp> kCmp[] = {
        {"==", BinaryOp::kEq}, {"!=", BinaryOp::kNe}, {"<=", BinaryOp::kLe},
        {">=", BinaryOp::kGe}, {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const auto& [sym, op] : kCmp) {
      if (PeekPunct(sym)) {
        Advance();
        NEXUS_ASSIGN_OR_RETURN(ExprPtr rhs,
                               Deeper([this] { return ParseAddSub(); }));
        return Expr::Binary(op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAddSub() {
    const int depth = depth_;
    NEXUS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMulDiv());
    while (PeekPunct("+") || PeekPunct("-")) {
      BinaryOp op = Advance().text == "+" ? BinaryOp::kAdd : BinaryOp::kSub;
      NEXUS_RETURN_NOT_OK(Descend());
      NEXUS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMulDiv());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  Result<ExprPtr> ParseMulDiv() {
    const int depth = depth_;
    NEXUS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (PeekPunct("*") || PeekPunct("/") || PeekPunct("%")) {
      std::string sym = Advance().text;
      BinaryOp op = sym == "*" ? BinaryOp::kMul
                               : (sym == "/" ? BinaryOp::kDiv : BinaryOp::kMod);
      NEXUS_RETURN_NOT_OK(Descend());
      NEXUS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    depth_ = depth;
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (EatPunct("-")) {
      NEXUS_ASSIGN_OR_RETURN(ExprPtr e,
                             Deeper([this] { return ParseUnary(); }));
      return Neg(std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kInt:
        return Lit(Advance().ival);
      case TokKind::kFloat:
        return Lit(Advance().fval);
      case TokKind::kString:
        return Lit(Advance().text);
      case TokKind::kIdent: {
        std::string name = Advance().text;
        std::string lower = ToLower(name);
        if (lower == "true") return Lit(true);
        if (lower == "false") return Lit(false);
        if (lower == "null") return NullLit();
        if (EatPunct("(")) {
          std::vector<ExprPtr> args;
          if (!PeekPunct(")")) {
            while (true) {
              NEXUS_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
              args.push_back(std::move(a));
              if (!EatPunct(",")) break;
            }
          }
          NEXUS_RETURN_NOT_OK(ExpectPunct(")"));
          if (lower == "cast") {
            return Status::InvalidArgument("use 'cast(expr as type)' form");
          }
          return Func(lower, std::move(args));
        }
        return Col(std::move(name));
      }
      case TokKind::kPunct:
        if (t.text == "(") {
          Advance();
          NEXUS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          NEXUS_RETURN_NOT_OK(ExpectPunct(")"));
          return e;
        }
        if (t.text == "*") {
          // Bare '*' only valid inside count(*) — handled by the agg parser.
          return Status::InvalidArgument("unexpected '*' in expression");
        }
        break;
      case TokKind::kEnd:
        break;
    }
    return Status::InvalidArgument(StrCat("unexpected token in expression"));
  }

  // --- helpers for stage lists ---
  Result<std::vector<std::string>> ParseIdentList() {
    std::vector<std::string> out;
    while (true) {
      NEXUS_ASSIGN_OR_RETURN(std::string id, ExpectIdent("identifier"));
      out.push_back(std::move(id));
      if (!EatPunct(",")) break;
    }
    return out;
  }

  Result<std::vector<AggSpec>> ParseAggs() {
    std::vector<AggSpec> out;
    while (true) {
      NEXUS_ASSIGN_OR_RETURN(std::string fn, ExpectIdent("aggregate function"));
      NEXUS_ASSIGN_OR_RETURN(AggFunc func, AggFuncFromName(ToLower(fn)));
      NEXUS_RETURN_NOT_OK(ExpectPunct("("));
      ExprPtr input;
      if (EatPunct("*")) {
        if (func != AggFunc::kCount) {
          return Status::InvalidArgument("only count may take '*'");
        }
        input = nullptr;
      } else {
        NEXUS_ASSIGN_OR_RETURN(input, ParseExpr());
      }
      NEXUS_RETURN_NOT_OK(ExpectPunct(")"));
      if (!EatIdent("as")) {
        return Status::InvalidArgument("aggregate requires 'as <name>'");
      }
      NEXUS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("aggregate name"));
      out.push_back(AggSpec{func, std::move(input), std::move(name)});
      if (!EatPunct(",")) break;
    }
    return out;
  }

  // --- stages ---
  Result<PlanPtr> ParseStage(PlanPtr plan) {
    auto need_input = [&]() -> Status {
      if (plan == nullptr) {
        return Status::InvalidArgument("pipeline must start with 'from <table>'");
      }
      return Status::OK();
    };
    if (EatIdent("from")) {
      if (plan != nullptr) {
        return Status::InvalidArgument("'from' must be the first stage");
      }
      NEXUS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("table name"));
      return Plan::Scan(std::move(table));
    }
    if (EatIdent("where")) {
      NEXUS_RETURN_NOT_OK(need_input());
      NEXUS_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      return Plan::Select(plan, std::move(pred));
    }
    if (EatIdent("select")) {
      NEXUS_RETURN_NOT_OK(need_input());
      NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> cols, ParseIdentList());
      return Plan::Project(plan, std::move(cols));
    }
    if (EatIdent("extend")) {
      NEXUS_RETURN_NOT_OK(need_input());
      std::vector<std::pair<std::string, ExprPtr>> defs;
      while (true) {
        NEXUS_ASSIGN_OR_RETURN(std::string name, ExpectIdent("column name"));
        NEXUS_RETURN_NOT_OK(ExpectPunct(":="));
        NEXUS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        defs.emplace_back(std::move(name), std::move(e));
        if (!EatPunct(",")) break;
      }
      return Plan::Extend(plan, std::move(defs));
    }
    // join variants: "join", "left join", "semi join", "anti join".
    JoinType jt = JoinType::kInner;
    bool is_join = false;
    if (EatIdent("join")) {
      is_join = true;
    } else if (PeekIdent("left") || PeekIdent("semi") || PeekIdent("anti")) {
      std::string kw = ToLower(Peek().text);
      size_t save = pos_;
      Advance();
      if (EatIdent("join")) {
        is_join = true;
        jt = kw == "left" ? JoinType::kLeft
                          : (kw == "semi" ? JoinType::kSemi : JoinType::kAnti);
      } else {
        pos_ = save;
      }
    }
    if (is_join) {
      NEXUS_RETURN_NOT_OK(need_input());
      NEXUS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("join table"));
      if (!EatIdent("on")) {
        return Status::InvalidArgument("join requires 'on a = b'");
      }
      std::vector<std::string> lk, rk;
      while (true) {
        NEXUS_ASSIGN_OR_RETURN(std::string l, ExpectIdent("left key"));
        NEXUS_RETURN_NOT_OK(ExpectPunct("="));
        NEXUS_ASSIGN_OR_RETURN(std::string r, ExpectIdent("right key"));
        lk.push_back(std::move(l));
        rk.push_back(std::move(r));
        if (!EatPunct(",")) break;
      }
      ExprPtr residual;
      if (EatIdent("if")) {
        NEXUS_ASSIGN_OR_RETURN(residual, ParseExpr());
      }
      return Plan::Join(plan, Plan::Scan(std::move(table)), jt, std::move(lk),
                        std::move(rk), std::move(residual));
    }
    if (EatIdent("group")) {
      NEXUS_RETURN_NOT_OK(need_input());
      if (!EatIdent("by")) return Status::InvalidArgument("expected 'group by'");
      NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> keys, ParseIdentList());
      if (!EatIdent("aggregate")) {
        return Status::InvalidArgument("group by requires 'aggregate ...'");
      }
      NEXUS_ASSIGN_OR_RETURN(std::vector<AggSpec> aggs, ParseAggs());
      return Plan::Aggregate(plan, std::move(keys), std::move(aggs));
    }
    if (EatIdent("aggregate")) {
      NEXUS_RETURN_NOT_OK(need_input());
      NEXUS_ASSIGN_OR_RETURN(std::vector<AggSpec> aggs, ParseAggs());
      return Plan::Aggregate(plan, {}, std::move(aggs));
    }
    if (EatIdent("sort")) {
      NEXUS_RETURN_NOT_OK(need_input());
      if (!EatIdent("by")) return Status::InvalidArgument("expected 'sort by'");
      std::vector<SortKey> keys;
      while (true) {
        NEXUS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("sort column"));
        bool asc = true;
        if (EatIdent("desc")) {
          asc = false;
        } else {
          EatIdent("asc");
        }
        keys.push_back(SortKey{std::move(col), asc});
        if (!EatPunct(",")) break;
      }
      return Plan::Sort(plan, std::move(keys));
    }
    if (EatIdent("limit")) {
      NEXUS_RETURN_NOT_OK(need_input());
      NEXUS_ASSIGN_OR_RETURN(int64_t n, ExpectInt("limit"));
      int64_t offset = 0;
      if (EatIdent("offset")) {
        NEXUS_ASSIGN_OR_RETURN(offset, ExpectInt("offset"));
      }
      return Plan::Limit(plan, n, offset);
    }
    if (EatIdent("distinct")) {
      NEXUS_RETURN_NOT_OK(need_input());
      return Plan::Distinct(plan);
    }
    if (EatIdent("union")) {
      NEXUS_RETURN_NOT_OK(need_input());
      NEXUS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("union table"));
      return Plan::Union(plan, Plan::Scan(std::move(table)));
    }
    if (EatIdent("rename")) {
      NEXUS_RETURN_NOT_OK(need_input());
      std::vector<std::pair<std::string, std::string>> mapping;
      while (true) {
        NEXUS_ASSIGN_OR_RETURN(std::string from, ExpectIdent("old name"));
        NEXUS_RETURN_NOT_OK(ExpectPunct("->"));
        NEXUS_ASSIGN_OR_RETURN(std::string to, ExpectIdent("new name"));
        mapping.emplace_back(std::move(from), std::move(to));
        if (!EatPunct(",")) break;
      }
      return Plan::Rename(plan, std::move(mapping));
    }
    if (EatIdent("rebox")) {
      NEXUS_RETURN_NOT_OK(need_input());
      std::vector<std::string> dims;
      while (true) {
        NEXUS_ASSIGN_OR_RETURN(std::string d, ExpectIdent("dimension"));
        dims.push_back(std::move(d));
        if (!EatPunct(",")) break;
      }
      int64_t chunk = 64;
      if (EatIdent("chunk")) {
        NEXUS_ASSIGN_OR_RETURN(chunk, ExpectInt("chunk size"));
      }
      return Plan::Rebox(plan, std::move(dims), chunk);
    }
    if (EatIdent("unbox")) {
      NEXUS_RETURN_NOT_OK(need_input());
      return Plan::Unbox(plan);
    }
    if (EatIdent("slice")) {
      NEXUS_RETURN_NOT_OK(need_input());
      std::vector<DimRange> ranges;
      while (true) {
        DimRange r;
        NEXUS_ASSIGN_OR_RETURN(r.dim, ExpectIdent("dimension"));
        NEXUS_ASSIGN_OR_RETURN(double lo, ExpectNumber("range start"));
        NEXUS_ASSIGN_OR_RETURN(double hi, ExpectNumber("range end"));
        r.lo = static_cast<int64_t>(lo);
        r.hi = static_cast<int64_t>(hi);
        ranges.push_back(std::move(r));
        if (!EatPunct(",")) break;
      }
      return Plan::Slice(plan, std::move(ranges));
    }
    if (EatIdent("shift")) {
      NEXUS_RETURN_NOT_OK(need_input());
      std::vector<std::pair<std::string, int64_t>> offsets;
      while (true) {
        NEXUS_ASSIGN_OR_RETURN(std::string d, ExpectIdent("dimension"));
        NEXUS_ASSIGN_OR_RETURN(double delta, ExpectNumber("offset"));
        offsets.emplace_back(std::move(d), static_cast<int64_t>(delta));
        if (!EatPunct(",")) break;
      }
      return Plan::Shift(plan, std::move(offsets));
    }
    if (EatIdent("regrid")) {
      NEXUS_RETURN_NOT_OK(need_input());
      std::vector<std::pair<std::string, int64_t>> factors;
      while (true) {
        NEXUS_ASSIGN_OR_RETURN(std::string d, ExpectIdent("dimension"));
        NEXUS_RETURN_NOT_OK(ExpectPunct("/"));
        NEXUS_ASSIGN_OR_RETURN(int64_t f, ExpectInt("factor"));
        factors.emplace_back(std::move(d), f);
        if (!EatPunct(",")) break;
      }
      AggFunc func = AggFunc::kAvg;
      if (EatIdent("using")) {
        NEXUS_ASSIGN_OR_RETURN(std::string fn, ExpectIdent("aggregate"));
        NEXUS_ASSIGN_OR_RETURN(func, AggFuncFromName(ToLower(fn)));
      }
      return Plan::Regrid(plan, std::move(factors), func);
    }
    if (EatIdent("window")) {
      NEXUS_RETURN_NOT_OK(need_input());
      std::vector<std::pair<std::string, int64_t>> radii;
      while (true) {
        NEXUS_ASSIGN_OR_RETURN(std::string d, ExpectIdent("dimension"));
        NEXUS_ASSIGN_OR_RETURN(int64_t r, ExpectInt("radius"));
        radii.emplace_back(std::move(d), r);
        if (!EatPunct(",")) break;
      }
      AggFunc func = AggFunc::kAvg;
      if (EatIdent("using")) {
        NEXUS_ASSIGN_OR_RETURN(std::string fn, ExpectIdent("aggregate"));
        NEXUS_ASSIGN_OR_RETURN(func, AggFuncFromName(ToLower(fn)));
      }
      return Plan::Window(plan, std::move(radii), func);
    }
    if (EatIdent("transpose")) {
      NEXUS_RETURN_NOT_OK(need_input());
      NEXUS_ASSIGN_OR_RETURN(std::vector<std::string> order, ParseIdentList());
      return Plan::Transpose(plan, std::move(order));
    }
    if (EatIdent("matmul")) {
      NEXUS_RETURN_NOT_OK(need_input());
      NEXUS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("matrix table"));
      std::string attr = "value";
      if (EatIdent("as")) {
        NEXUS_ASSIGN_OR_RETURN(attr, ExpectIdent("result attribute"));
      }
      return Plan::MatMul(plan, Plan::Scan(std::move(table)), std::move(attr));
    }
    if (EatIdent("elemwise")) {
      NEXUS_RETURN_NOT_OK(need_input());
      if (Peek().kind != TokKind::kPunct) {
        return Status::InvalidArgument("elemwise requires an operator (+ - * /)");
      }
      NEXUS_ASSIGN_OR_RETURN(BinaryOp op, BinaryOpFromName(Advance().text));
      NEXUS_ASSIGN_OR_RETURN(std::string table, ExpectIdent("array table"));
      return Plan::ElemWise(plan, Plan::Scan(std::move(table)), op);
    }
    if (EatIdent("pagerank")) {
      NEXUS_RETURN_NOT_OK(need_input());
      PageRankOp op;
      NEXUS_ASSIGN_OR_RETURN(op.src_col, ExpectIdent("source column"));
      NEXUS_ASSIGN_OR_RETURN(op.dst_col, ExpectIdent("destination column"));
      while (true) {
        if (EatIdent("damping")) {
          NEXUS_ASSIGN_OR_RETURN(op.damping, ExpectNumber("damping"));
        } else if (EatIdent("iters")) {
          NEXUS_ASSIGN_OR_RETURN(op.max_iters, ExpectInt("iterations"));
        } else if (EatIdent("eps")) {
          NEXUS_ASSIGN_OR_RETURN(op.epsilon, ExpectNumber("epsilon"));
        } else {
          break;
        }
      }
      return Plan::PageRank(plan, std::move(op));
    }
    return Status::InvalidArgument(
        StrCat("unknown stage starting at '", Peek().text, "'"));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<PlanPtr> ParseBdl(const std::string& text) {
  Lexer lexer(text);
  NEXUS_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<ExprPtr> ParseBdlExpr(const std::string& text) {
  Lexer lexer(text);
  NEXUS_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseStandaloneExpr();
}

}  // namespace nexus
