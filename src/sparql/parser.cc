#include "sparql/parser.h"

#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace lusail::sparql {

namespace {

enum class TokenKind {
  kEnd,
  kIri,      // <...> with the brackets stripped.
  kPname,    // prefix:local (raw, unresolved).
  kVar,      // ?name / $name (name only).
  kString,   // "..." (unescaped lexical form).
  kLangTag,  // @en (tag only).
  kNumber,   // Raw numeric text.
  kIdent,    // Keyword / bare identifier (includes 'a', 'true', 'false').
  kPunct,    // Operators and delimiters.
};

/// One token; `text` views the query text. A string literal's text is
/// its raw source, and `literal` indexes its unescaped lexical form.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  size_t offset = 0;  // For error messages.
  size_t literal = 0;
};

// ASCII character classes (what <cctype> gives in the "C" locale),
// inlined: the tokenizer tests every character of every request.
constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool IsAlnum(char c) { return IsAlpha(c) || IsDigit(c); }

class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  /// Appends the tokens to `out` and string literals' lexical forms to
  /// `literals`.
  Status Tokenize(std::vector<Token>* out, std::vector<std::string>* literals) {
    out->reserve(text_.size() / 6 + 2);
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (IsSpace(c)) {
        ++i;
        continue;
      }
      if (c == '#') {  // Comment to end of line.
        while (i < text_.size() && text_[i] != '\n') ++i;
        continue;
      }
      Token tok;
      tok.offset = i;
      if (c == '<') {
        // IRI if '>' appears before any whitespace; otherwise '<' / '<='.
        size_t j = i + 1;
        bool is_iri = false;
        while (j < text_.size()) {
          if (text_[j] == '>') {
            is_iri = true;
            break;
          }
          if (IsSpace(text_[j])) break;
          ++j;
        }
        if (is_iri) {
          tok.kind = TokenKind::kIri;
          tok.text = text_.substr(i + 1, j - i - 1);
          i = j + 1;
        } else {
          tok.kind = TokenKind::kPunct;
          const size_t n = i + 1 < text_.size() && text_[i + 1] == '=' ? 2 : 1;
          tok.text = text_.substr(i, n);
          i += n;
        }
      } else if (c == '?' || c == '$') {
        size_t j = i + 1;
        while (j < text_.size() && (IsAlnum(text_[j]) ||
                                    text_[j] == '_')) {
          ++j;
        }
        if (j == i + 1) {
          return Status::ParseError("empty variable name at offset " +
                                    std::to_string(i));
        }
        tok.kind = TokenKind::kVar;
        tok.text = text_.substr(i + 1, j - i - 1);
        i = j;
      } else if (c == '"') {
        size_t j = i + 1;
        std::string lexical;
        bool closed = false;
        while (j < text_.size()) {
          if (text_[j] == '\\' && j + 1 < text_.size()) {
            lexical += text_[j];
            lexical += text_[j + 1];
            j += 2;
            continue;
          }
          if (text_[j] == '"') {
            closed = true;
            break;
          }
          lexical += text_[j];
          ++j;
        }
        if (!closed) {
          return Status::ParseError("unterminated string literal at offset " +
                                    std::to_string(i));
        }
        tok.kind = TokenKind::kString;
        tok.text = text_.substr(i, j + 1 - i);
        tok.literal = literals->size();
        literals->push_back(UnescapeLiteral(lexical));
        i = j + 1;
      } else if (c == '@') {
        size_t j = i + 1;
        while (j < text_.size() && (IsAlnum(text_[j]) ||
                                    text_[j] == '-')) {
          ++j;
        }
        tok.kind = TokenKind::kLangTag;
        tok.text = text_.substr(i + 1, j - i - 1);
        i = j;
      } else if (IsDigit(c)) {
        size_t j = i + 1;
        bool seen_dot = false, seen_exp = false;
        while (j < text_.size()) {
          char d = text_[j];
          if (IsDigit(d)) {
            ++j;
          } else if (d == '.' && !seen_dot && !seen_exp) {
            seen_dot = true;
            ++j;
          } else if ((d == 'e' || d == 'E') && !seen_exp) {
            seen_exp = true;
            ++j;
            if (j < text_.size() && (text_[j] == '+' || text_[j] == '-')) ++j;
          } else {
            break;
          }
        }
        // A trailing '.' is a statement terminator, not a decimal point.
        if (text_[j - 1] == '.') --j;
        tok.kind = TokenKind::kNumber;
        tok.text = text_.substr(i, j - i);
        i = j;
      } else if (IsAlpha(c) || c == '_') {
        size_t j = i;
        while (j < text_.size() && (IsAlnum(text_[j]) ||
                                    text_[j] == '_' || text_[j] == '-' ||
                                    text_[j] == '.')) {
          ++j;
        }
        // Trailing '.' belongs to the statement, not the name.
        while (j > i && text_[j - 1] == '.') --j;
        if (j < text_.size() && text_[j] == ':') {
          // prefixed name "pfx:local".
          size_t k = j + 1;
          while (k < text_.size() && (IsAlnum(text_[k]) ||
                                      text_[k] == '_' || text_[k] == '-' ||
                                      text_[k] == '.')) {
            ++k;
          }
          while (k > j + 1 && text_[k - 1] == '.') --k;
          tok.kind = TokenKind::kPname;
          tok.text = text_.substr(i, k - i);
          i = k;
        } else {
          tok.kind = TokenKind::kIdent;
          tok.text = text_.substr(i, j - i);
          i = j;
        }
      } else if (c == ':') {
        // Default-prefix pname ":local".
        size_t k = i + 1;
        while (k < text_.size() && (IsAlnum(text_[k]) ||
                                    text_[k] == '_' || text_[k] == '-' ||
                                    text_[k] == '.')) {
          ++k;
        }
        while (k > i + 1 && text_[k - 1] == '.') --k;
        tok.kind = TokenKind::kPname;
        tok.text = text_.substr(i, k - i);
        i = k;
      } else {
        // Punctuation, including multi-character operators.
        tok.kind = TokenKind::kPunct;
        auto two = text_.substr(i, 2);
        if (two == "!=" || two == ">=" || two == "&&" || two == "||" ||
            two == "^^") {
          tok.text = two;
          i += 2;
        } else {
          tok.text = text_.substr(i, 1);
          ++i;
        }
      }
      out->push_back(std::move(tok));
    }
    Token end;
    end.kind = TokenKind::kEnd;
    end.offset = text_.size();
    out->push_back(end);
    return Status::OK();
  }

 private:
  std::string_view text_;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::vector<std::string> literals)
      : tokens_(std::move(tokens)), literals_(std::move(literals)) {}

  Result<Query> Parse() {
    LUSAIL_RETURN_NOT_OK(ParsePrologue());
    Query query;
    if (IsKeyword("SELECT")) {
      LUSAIL_RETURN_NOT_OK(ParseSelect(&query));
    } else if (IsKeyword("ASK")) {
      LUSAIL_RETURN_NOT_OK(ParseAsk(&query));
    } else {
      return Error("expected SELECT or ASK");
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing tokens after query");
    }
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  /// Consumes the current token and returns its text (a string
  /// literal's unescaped lexical form).
  std::string Take() {
    const Token& t = tokens_[pos_++];
    return t.kind == TokenKind::kString ? std::move(literals_[t.literal])
                                        : std::string(t.text);
  }

  /// Consumes the next token and views its text (a string's unescaped
  /// body), valid while the parser lives: what a term is built from,
  /// with no string in between.
  std::string_view TakeText() {
    const Token& t = tokens_[pos_++];
    return t.kind == TokenKind::kString ? std::string_view(literals_[t.literal])
                                        : t.text;
  }

  bool IsKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kIdent && EqualsIgnoreCase(t.text, kw);
  }
  bool IsPunct(std::string_view p, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kPunct && t.text == p;
  }
  bool ConsumeKeyword(std::string_view kw) {
    if (!IsKeyword(kw)) return false;
    Advance();
    return true;
  }
  bool ConsumePunct(std::string_view p) {
    if (!IsPunct(p)) return false;
    Advance();
    return true;
  }
  Status ExpectPunct(std::string_view p) {
    if (!ConsumePunct(p)) {
      return Error("expected '" + std::string(p) + "'");
    }
    return Status::OK();
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " (near offset " +
                              std::to_string(Peek().offset) + ", token '" +
                              std::string(Peek().text) + "')");
  }

  Status ParsePrologue() {
    while (IsKeyword("PREFIX") || IsKeyword("BASE")) {
      if (ConsumeKeyword("BASE")) {
        if (Peek().kind != TokenKind::kIri) return Error("expected IRI");
        Advance();  // BASE is accepted and ignored.
        continue;
      }
      Advance();  // PREFIX
      std::string prefix;
      if (Peek().kind == TokenKind::kPname) {
        // Tokenizer lexed "pfx:" (possibly with empty local part).
        std::string raw = Take();
        size_t colon = raw.find(':');
        prefix = raw.substr(0, colon);
        if (colon + 1 != raw.size()) {
          return Error("malformed PREFIX declaration");
        }
      } else if (Peek().kind == TokenKind::kIdent && IsPunct(":", 1)) {
        prefix = Take();
        Advance();  // ':'
      } else if (IsPunct(":")) {
        Advance();
      } else {
        return Error("expected prefix name");
      }
      if (Peek().kind != TokenKind::kIri) {
        return Error("expected IRI in PREFIX declaration");
      }
      prefixes_[prefix] = Take();
    }
    return Status::OK();
  }

  Result<rdf::Term> ResolvePname(const std::string& raw) {
    size_t colon = raw.find(':');
    std::string prefix = raw.substr(0, colon);
    std::string local = raw.substr(colon + 1);
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Status::ParseError("undeclared prefix '" + prefix + ":'");
    }
    return rdf::Term::Iri(it->second + local);
  }

  Status ParseSelect(Query* query) {
    Advance();  // SELECT
    query->form = QueryForm::kSelect;
    if (ConsumeKeyword("DISTINCT")) query->distinct = true;
    if (ConsumePunct("*")) {
      query->select_all = true;
    } else {
      while (true) {
        if (Peek().kind == TokenKind::kVar) {
          query->projection.push_back(Variable{Take()});
        } else if (IsPunct("(")) {
          Advance();
          if (!ConsumeKeyword("COUNT")) {
            return Error("only COUNT aggregates are supported");
          }
          LUSAIL_RETURN_NOT_OK(ExpectPunct("("));
          CountAggregate agg;
          if (ConsumePunct("*")) {
            // COUNT(*)
          } else {
            if (ConsumeKeyword("DISTINCT")) agg.distinct = true;
            if (Peek().kind != TokenKind::kVar) {
              return Error("expected variable in COUNT");
            }
            agg.var = Variable{Take()};
          }
          LUSAIL_RETURN_NOT_OK(ExpectPunct(")"));
          if (!ConsumeKeyword("AS")) return Error("expected AS");
          if (Peek().kind != TokenKind::kVar) {
            return Error("expected alias variable");
          }
          agg.alias = Variable{Take()};
          LUSAIL_RETURN_NOT_OK(ExpectPunct(")"));
          query->aggregate = std::move(agg);
        } else {
          break;
        }
      }
      if (query->projection.empty() && !query->aggregate.has_value()) {
        return Error("empty SELECT projection");
      }
    }
    ConsumeKeyword("WHERE");
    LUSAIL_RETURN_NOT_OK(ParseGroupGraphPattern(&query->where));
    LUSAIL_RETURN_NOT_OK(ParseSolutionModifiers(query));
    // With an aggregate, a projected variable must be the group key.
    if (query->group_by.has_value() && !query->aggregate.has_value()) {
      return Error("GROUP BY needs a COUNT aggregate");
    }
    if (query->aggregate.has_value()) {
      if (query->select_all) return Error("SELECT * with an aggregate");
      for (const Variable& v : query->projection) {
        if (!query->group_by.has_value() || v != *query->group_by) {
          return Error("projected variable " + v.ToString() +
                       " is neither grouped nor aggregated");
        }
      }
    }
    return Status::OK();
  }

  Status ParseAsk(Query* query) {
    Advance();  // ASK
    query->form = QueryForm::kAsk;
    ConsumeKeyword("WHERE");
    LUSAIL_RETURN_NOT_OK(ParseGroupGraphPattern(&query->where));
    LUSAIL_RETURN_NOT_OK(ParseSolutionModifiers(query));
    if (query->group_by.has_value()) return Error("GROUP BY in an ASK query");
    return Status::OK();
  }

  Status ParseSolutionModifiers(Query* query) {
    // GROUP BY on one variable comes first, as in SPARQL 1.1.
    if (IsKeyword("GROUP") && IsKeyword("BY", 1)) {
      Advance();
      Advance();
      if (Peek().kind != TokenKind::kVar) {
        return Error("expected one variable in GROUP BY");
      }
      query->group_by = Variable{Take()};
    }
    while (true) {
      if (IsKeyword("ORDER") && IsKeyword("BY", 1)) {
        Advance();
        Advance();
        bool any = false;
        while (true) {
          OrderKey key;
          if (ConsumeKeyword("ASC") || ConsumeKeyword("DESC")) {
            key.descending = EqualsIgnoreCase(tokens_[pos_ - 1].text, "DESC");
            LUSAIL_RETURN_NOT_OK(ExpectPunct("("));
            if (Peek().kind != TokenKind::kVar) {
              return Error("expected variable in ORDER BY");
            }
            key.var = Variable{Take()};
            LUSAIL_RETURN_NOT_OK(ExpectPunct(")"));
          } else if (Peek().kind == TokenKind::kVar) {
            key.var = Variable{Take()};
          } else {
            break;
          }
          query->order_by.push_back(std::move(key));
          any = true;
        }
        if (!any) return Error("empty ORDER BY clause");
        continue;
      }
      if (ConsumeKeyword("LIMIT")) {
        if (Peek().kind != TokenKind::kNumber) {
          return Error("expected number after LIMIT");
        }
        query->limit = std::stoull(Take());
      } else if (ConsumeKeyword("OFFSET")) {
        if (Peek().kind != TokenKind::kNumber) {
          return Error("expected number after OFFSET");
        }
        query->offset = std::stoull(Take());
      } else {
        break;
      }
    }
    return Status::OK();
  }

  /// Parses `{ ... }` into `*out` (in place: nested groups are parsed
  /// straight into their slot of the enclosing pattern).
  Status ParseGroupGraphPattern(GraphPattern* out) {
    LUSAIL_RETURN_NOT_OK(ExpectPunct("{"));
    GraphPattern& group = *out;
    while (!IsPunct("}")) {
      if (Peek().kind == TokenKind::kEnd) {
        return Error("unterminated group graph pattern");
      }
      if (IsKeyword("FILTER")) {
        Advance();
        if (IsKeyword("EXISTS") ||
            (IsKeyword("NOT") && IsKeyword("EXISTS", 1))) {
          ExistsFilter& ef = group.exists_filters.emplace_back();
          if (ConsumeKeyword("NOT")) ef.negated = true;
          Advance();  // EXISTS
          // The braces may wrap a nested SELECT (Figure 5 check queries).
          LUSAIL_RETURN_NOT_OK(ParseNestedGroup(&ef.pattern));
        } else {
          LUSAIL_RETURN_NOT_OK(ExpectPunct("("));
          LUSAIL_ASSIGN_OR_RETURN(Expr e, ParseExpression());
          LUSAIL_RETURN_NOT_OK(ExpectPunct(")"));
          group.filters.push_back(std::move(e));
        }
        ConsumePunct(".");
        continue;
      }
      if (IsKeyword("OPTIONAL")) {
        Advance();
        LUSAIL_RETURN_NOT_OK(
            ParseGroupGraphPattern(&group.optionals.emplace_back()));
        ConsumePunct(".");
        continue;
      }
      if (IsKeyword("VALUES")) {
        Advance();
        LUSAIL_RETURN_NOT_OK(ParseValues(&group.values.emplace_back()));
        ConsumePunct(".");
        continue;
      }
      if (IsPunct("{")) {
        // A nested group, possibly the head of a UNION chain.
        std::vector<GraphPattern> alternatives;
        LUSAIL_RETURN_NOT_OK(ParseNestedGroup(&alternatives.emplace_back()));
        while (IsKeyword("UNION")) {
          Advance();
          LUSAIL_RETURN_NOT_OK(ParseNestedGroup(&alternatives.emplace_back()));
        }
        if (alternatives.size() == 1) {
          MergeInto(&group, std::move(alternatives[0]));
        } else {
          group.unions.push_back(std::move(alternatives));
        }
        ConsumePunct(".");
        continue;
      }
      // Plain triples block element.
      LUSAIL_RETURN_NOT_OK(ParseTriplesSameSubject(&group));
      ConsumePunct(".");
    }
    Advance();  // '}'
    return Status::OK();
  }

  /// Parses `{ ... }` where the content may be a nested SELECT (whose WHERE
  /// pattern is flattened; projection only matters for emptiness checks in
  /// EXISTS filters, which is all we use nested SELECTs for).
  Status ParseNestedGroup(GraphPattern* out) {
    if (IsPunct("{") && IsKeyword("SELECT", 1)) {
      Advance();  // '{'
      Query sub;
      LUSAIL_RETURN_NOT_OK(ParseSelect(&sub));
      LUSAIL_RETURN_NOT_OK(ExpectPunct("}"));
      *out = std::move(sub.where);
      return Status::OK();
    }
    return ParseGroupGraphPattern(out);
  }

  static void MergeInto(GraphPattern* dst, GraphPattern src) {
    for (auto& t : src.triples) dst->triples.push_back(std::move(t));
    for (auto& f : src.filters) dst->filters.push_back(std::move(f));
    for (auto& e : src.exists_filters) {
      dst->exists_filters.push_back(std::move(e));
    }
    for (auto& o : src.optionals) dst->optionals.push_back(std::move(o));
    for (auto& u : src.unions) dst->unions.push_back(std::move(u));
    for (auto& v : src.values) dst->values.push_back(std::move(v));
  }

  Status ParseTriplesSameSubject(GraphPattern* group) {
    LUSAIL_ASSIGN_OR_RETURN(TermOrVar subject, ParseTermOrVar());
    while (true) {
      LUSAIL_ASSIGN_OR_RETURN(TermOrVar predicate, ParseVerb());
      while (true) {
        LUSAIL_ASSIGN_OR_RETURN(TermOrVar object, ParseTermOrVar());
        // The slots move into the triple; an object or predicate list
        // copies them back from it.
        group->triples.push_back(TriplePattern{
            std::move(subject), std::move(predicate), std::move(object)});
        if (!ConsumePunct(",")) break;
        subject = group->triples.back().s;
        predicate = group->triples.back().p;
      }
      if (!ConsumePunct(";")) break;
      if (IsPunct(".") || IsPunct("}")) break;  // Trailing ';' is legal.
      subject = group->triples.back().s;
    }
    return Status::OK();
  }

  Result<TermOrVar> ParseVerb() {
    if (Peek().kind == TokenKind::kIdent && Peek().text == "a") {
      Advance();
      return TermOrVar(rdf::Term::Iri(rdf::kRdfType));
    }
    return ParseTermOrVar();
  }

  Result<TermOrVar> ParseTermOrVar() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVar:
        return TermOrVar(Variable{Take()});
      case TokenKind::kIri:
        return TermOrVar(rdf::Term::Iri(TakeText()));
      case TokenKind::kPname: {
        LUSAIL_ASSIGN_OR_RETURN(rdf::Term term, ResolvePname(Take()));
        return TermOrVar(std::move(term));
      }
      case TokenKind::kString: {
        LUSAIL_ASSIGN_OR_RETURN(rdf::Term lit, ParseLiteralTail());
        return TermOrVar(std::move(lit));
      }
      case TokenKind::kNumber:
        return TermOrVar(NumberToTerm(TakeText()));
      case TokenKind::kIdent:
        if (t.text == "true" || t.text == "false") {
          return TermOrVar(
              rdf::Term::TypedLiteral(TakeText(), rdf::kXsdBoolean));
        }
        return Error("unexpected identifier '" + std::string(t.text) +
                     "' in pattern");
      default:
        return Error("expected term or variable");
    }
  }

  /// Consumes a kString token plus optional @lang / ^^<dt> suffix.
  Result<rdf::Term> ParseLiteralTail() {
    const std::string_view lexical = TakeText();
    if (Peek().kind == TokenKind::kLangTag) {
      return rdf::Term::LangLiteral(lexical, TakeText());
    }
    if (ConsumePunct("^^")) {
      if (Peek().kind == TokenKind::kIri) {
        return rdf::Term::TypedLiteral(lexical, TakeText());
      }
      if (Peek().kind == TokenKind::kPname) {
        LUSAIL_ASSIGN_OR_RETURN(rdf::Term dt, ResolvePname(Take()));
        return rdf::Term::TypedLiteral(lexical, dt.lexical());
      }
      return Error("expected datatype IRI after ^^");
    }
    return rdf::Term::Literal(lexical);
  }

  static rdf::Term NumberToTerm(std::string_view text) {
    const bool is_double = text.find_first_of(".eE") != std::string::npos;
    return rdf::Term::TypedLiteral(
        text, is_double ? rdf::kXsdDouble : rdf::kXsdInteger);
  }

  /// Parses a VALUES data block (after the keyword) into `*vc`.
  Status ParseValues(ValuesClause* vc) {
    bool tuple_form = false;
    if (ConsumePunct("(")) {
      tuple_form = true;
      while (Peek().kind == TokenKind::kVar) {
        vc->vars.push_back(Variable{Take()});
      }
      LUSAIL_RETURN_NOT_OK(ExpectPunct(")"));
    } else if (Peek().kind == TokenKind::kVar) {
      vc->vars.push_back(Variable{Take()});
    } else {
      return Error("expected variable(s) after VALUES");
    }
    LUSAIL_RETURN_NOT_OK(ExpectPunct("{"));
    while (!IsPunct("}")) {
      std::vector<std::optional<rdf::Term>>& row = vc->rows.emplace_back();
      if (tuple_form) {
        LUSAIL_RETURN_NOT_OK(ExpectPunct("("));
        while (!IsPunct(")")) {
          LUSAIL_RETURN_NOT_OK(ParseValuesCell(&row.emplace_back()));
        }
        Advance();  // ')'
        if (row.size() != vc->vars.size()) {
          return Error("VALUES row arity mismatch");
        }
      } else {
        LUSAIL_RETURN_NOT_OK(ParseValuesCell(&row.emplace_back()));
      }
    }
    Advance();  // '}'
    return Status::OK();
  }

  /// Parses one VALUES cell into `*cell` (left empty for UNDEF).
  Status ParseValuesCell(std::optional<rdf::Term>* cell) {
    const Token& t = Peek();
    if (t.kind == TokenKind::kIdent && EqualsIgnoreCase(t.text, "UNDEF")) {
      Advance();
      return Status::OK();
    }
    LUSAIL_ASSIGN_OR_RETURN(TermOrVar tv, ParseTermOrVar());
    if (tv.is_variable()) {
      return Error("variables are not allowed inside VALUES data");
    }
    *cell = std::move(tv).TakeTerm();
    return Status::OK();
  }

  // ---- Expression parsing (precedence climbing) ----

  Result<Expr> ParseExpression() { return ParseOr(); }

  Result<Expr> ParseOr() {
    LUSAIL_ASSIGN_OR_RETURN(Expr left, ParseAnd());
    while (IsPunct("||")) {
      Advance();
      LUSAIL_ASSIGN_OR_RETURN(Expr right, ParseAnd());
      left = Expr::Binary(ExprOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<Expr> ParseAnd() {
    LUSAIL_ASSIGN_OR_RETURN(Expr left, ParseRelational());
    while (IsPunct("&&")) {
      Advance();
      LUSAIL_ASSIGN_OR_RETURN(Expr right, ParseRelational());
      left = Expr::Binary(ExprOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<Expr> ParseRelational() {
    LUSAIL_ASSIGN_OR_RETURN(Expr left, ParseAdditive());
    static const std::pair<const char*, ExprOp> kOps[] = {
        {"=", ExprOp::kEq},  {"!=", ExprOp::kNe}, {"<=", ExprOp::kLe},
        {">=", ExprOp::kGe}, {"<", ExprOp::kLt},  {">", ExprOp::kGt},
    };
    for (const auto& [sym, op] : kOps) {
      if (IsPunct(sym)) {
        Advance();
        LUSAIL_ASSIGN_OR_RETURN(Expr right, ParseAdditive());
        return Expr::Binary(op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<Expr> ParseAdditive() {
    LUSAIL_ASSIGN_OR_RETURN(Expr left, ParseMultiplicative());
    while (IsPunct("+") || IsPunct("-")) {
      ExprOp op = IsPunct("+") ? ExprOp::kAdd : ExprOp::kSub;
      Advance();
      LUSAIL_ASSIGN_OR_RETURN(Expr right, ParseMultiplicative());
      left = Expr::Binary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<Expr> ParseMultiplicative() {
    LUSAIL_ASSIGN_OR_RETURN(Expr left, ParseUnary());
    while (IsPunct("*") || IsPunct("/")) {
      ExprOp op = IsPunct("*") ? ExprOp::kMul : ExprOp::kDiv;
      Advance();
      LUSAIL_ASSIGN_OR_RETURN(Expr right, ParseUnary());
      left = Expr::Binary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<Expr> ParseUnary() {
    if (IsPunct("!")) {
      Advance();
      LUSAIL_ASSIGN_OR_RETURN(Expr inner, ParseUnary());
      return Expr::Unary(ExprOp::kNot, std::move(inner));
    }
    if (IsPunct("-")) {
      // Unary minus, desugared to (0 - x).
      Advance();
      LUSAIL_ASSIGN_OR_RETURN(Expr inner, ParseUnary());
      return Expr::Binary(ExprOp::kSub, Expr::Const(rdf::Term::Integer(0)),
                          std::move(inner));
    }
    if (IsPunct("+")) {
      Advance();
      return ParseUnary();
    }
    return ParsePrimary();
  }

  Result<Expr> ParsePrimary() {
    const Token& t = Peek();
    if (IsPunct("(")) {
      Advance();
      LUSAIL_ASSIGN_OR_RETURN(Expr inner, ParseExpression());
      LUSAIL_RETURN_NOT_OK(ExpectPunct(")"));
      return inner;
    }
    if (t.kind == TokenKind::kVar) return Expr::Var(Take());
    if (t.kind == TokenKind::kIri) {
      return Expr::Const(rdf::Term::Iri(TakeText()));
    }
    if (t.kind == TokenKind::kPname) {
      LUSAIL_ASSIGN_OR_RETURN(rdf::Term term, ResolvePname(Take()));
      return Expr::Const(std::move(term));
    }
    if (t.kind == TokenKind::kString) {
      LUSAIL_ASSIGN_OR_RETURN(rdf::Term lit, ParseLiteralTail());
      return Expr::Const(std::move(lit));
    }
    if (t.kind == TokenKind::kNumber) {
      return Expr::Const(NumberToTerm(TakeText()));
    }
    if (t.kind == TokenKind::kIdent) {
      if (t.text == "true" || t.text == "false") {
        return Expr::Const(
            rdf::Term::TypedLiteral(TakeText(), rdf::kXsdBoolean));
      }
      static const std::pair<const char*, ExprOp> kFuncs[] = {
          {"BOUND", ExprOp::kBound},         {"STR", ExprOp::kStr},
          {"LANG", ExprOp::kLang},           {"DATATYPE", ExprOp::kDatatype},
          {"isIRI", ExprOp::kIsIri},         {"isURI", ExprOp::kIsIri},
          {"isLiteral", ExprOp::kIsLiteral}, {"isBlank", ExprOp::kIsBlank},
          {"REGEX", ExprOp::kRegex},         {"CONTAINS", ExprOp::kContains},
          {"STRSTARTS", ExprOp::kStrStarts}, {"sameTerm", ExprOp::kSameTerm},
      };
      for (const auto& [name, op] : kFuncs) {
        if (EqualsIgnoreCase(t.text, name)) {
          Advance();
          LUSAIL_RETURN_NOT_OK(ExpectPunct("("));
          Expr call;
          call.op = op;
          while (!IsPunct(")")) {
            LUSAIL_ASSIGN_OR_RETURN(Expr arg, ParseExpression());
            call.args.push_back(std::move(arg));
            if (!ConsumePunct(",")) break;
          }
          LUSAIL_RETURN_NOT_OK(ExpectPunct(")"));
          return call;
        }
      }
      return Error("unknown function '" + std::string(t.text) + "'");
    }
    return Error("expected expression");
  }

  std::vector<Token> tokens_;
  std::vector<std::string> literals_;
  size_t pos_ = 0;
  std::map<std::string, std::string> prefixes_;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  std::vector<Token> tokens;
  std::vector<std::string> literals;
  Tokenizer tokenizer(text);
  LUSAIL_RETURN_NOT_OK(tokenizer.Tokenize(&tokens, &literals));
  Parser parser(std::move(tokens), std::move(literals));
  return parser.Parse();
}

}  // namespace lusail::sparql
