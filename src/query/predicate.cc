#include "query/predicate.h"

#include <cctype>
#include <charconv>
#include <unordered_map>

namespace neptune {
namespace query {

namespace {

// The planner probes at most this many equality conjuncts: any subset
// of them still yields a complete candidate set, and the residual
// check covers the rest.
constexpr size_t kMaxConjuncts = 8;

// ---------------------------------------------------------------- lexer

enum class TokenKind {
  kEnd,
  kIdent,
  kString,   // quoted
  kLParen,
  kRParen,
  kAnd,
  kOr,
  kNot,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kContains,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  size_t pos = 0;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '-';
}

// Hands out one token at a time, so parsing holds one token rather
// than a token array as large as the input.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Status Next(Token* tok) {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    tok->pos = pos_;
    if (pos_ >= text_.size()) {
      *tok = {TokenKind::kEnd, "", pos_};
      return Status::OK();
    }
    const size_t start = pos_;
    const char c = text_[pos_++];
    // '!', '<' and '>' take an optional trailing '='; '==' is '='.
    auto with_eq = [&](TokenKind plain, TokenKind eq) {
      if (pos_ < text_.size() && text_[pos_] == '=') {
        ++pos_;
        return eq;
      }
      return plain;
    };
    switch (c) {
      case '(':
        tok->kind = TokenKind::kLParen;
        break;
      case ')':
        tok->kind = TokenKind::kRParen;
        break;
      case '&':
        tok->kind = TokenKind::kAnd;
        break;
      case '|':
        tok->kind = TokenKind::kOr;
        break;
      case '~':
        tok->kind = TokenKind::kContains;
        break;
      case '=':
        tok->kind = with_eq(TokenKind::kEq, TokenKind::kEq);
        break;
      case '!':
        tok->kind = with_eq(TokenKind::kNot, TokenKind::kNe);
        break;
      case '<':
        tok->kind = with_eq(TokenKind::kLt, TokenKind::kLe);
        break;
      case '>':
        tok->kind = with_eq(TokenKind::kGt, TokenKind::kGe);
        break;
      case '\'':
      case '"': {
        std::string value;
        while (pos_ < text_.size() && text_[pos_] != c) {
          if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
          value.push_back(text_[pos_++]);
        }
        if (pos_ >= text_.size()) {
          return Status::InvalidArgument(
              "unterminated string at position " + std::to_string(start));
        }
        ++pos_;  // closing quote
        *tok = {TokenKind::kString, std::move(value), start};
        return Status::OK();
      }
      default: {
        if (!IsIdentStart(c) && !std::isdigit(static_cast<unsigned char>(c)) &&
            c != '-') {
          return Status::InvalidArgument("unexpected character '" +
                                         std::string(1, c) + "' at position " +
                                         std::to_string(start));
        }
        while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
        std::string word(text_.substr(start, pos_ - start));
        TokenKind kind = TokenKind::kIdent;
        if (word == "and") {
          kind = TokenKind::kAnd;
        } else if (word == "or") {
          kind = TokenKind::kOr;
        } else if (word == "not") {
          kind = TokenKind::kNot;
        }
        *tok = {kind, std::move(word), start};
        return Status::OK();
      }
    }
    tok->text.assign(text_.substr(start, pos_ - start));
    return Status::OK();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

// Three-way compare with numeric coercion when both sides are decimal
// integers (optionally signed), lexicographic otherwise.
int CompareValues(std::string_view a, std::string_view b) {
  auto parse_int = [](std::string_view s, int64_t* out) {
    if (s.empty()) return false;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
    return ec == std::errc() && ptr == s.data() + s.size();
  };
  int64_t ia = 0;
  int64_t ib = 0;
  if (parse_int(a, &ia) && parse_int(b, &ib)) {
    return ia < ib ? -1 : (ia > ib ? 1 : 0);
  }
  const int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

}  // namespace

// Parse's machinery: a recursive-descent parser into a syntax tree
// that never leaves this class, and the compiler that flattens the
// tree into a Predicate's program. '&' / '|' chains parse into one
// n-ary node, so only '(' and '!' add depth, and the parser rejects
// more than kMaxNesting of those: every recursive pass here (parse,
// emit, conjuncts, destruction) is bounded by that constant.
class ProgramBuilder {
 public:
  static Result<Predicate> Build(std::string_view text) {
    ProgramBuilder builder(text);
    NEPTUNE_RETURN_IF_ERROR(builder.Advance());
    Predicate out;
    if (builder.tok_.kind == TokenKind::kEnd) return out;  // blank: true
    Expr root;
    NEPTUNE_RETURN_IF_ERROR(builder.ParseChain(Node::kOr, &root));
    if (builder.tok_.kind != TokenKind::kEnd) {
      return builder.Error("trailing input");
    }
    out.entry_ = builder.Emit(root, Predicate::kAccept, Predicate::kReject);
    out.atoms_ = std::move(builder.atoms_);
    out.slot_names_ = std::move(builder.slot_names_);
    CollectConjuncts(root, &out.conjuncts_);
    return out;
  }

 private:
  enum class Node : uint8_t { kTrue, kFalse, kAnd, kOr, kNot, kAtom };

  struct Expr {
    Node node = Node::kTrue;
    Predicate::AtomOp op = Predicate::AtomOp::kExists;  // kAtom only
    std::vector<Expr> children;  // kAnd/kOr: operands; kNot: one
    std::string attribute;       // kAtom only
    std::string value;           // kAtom comparisons only
  };

  explicit ProgramBuilder(std::string_view text) : lexer_(text) {}

  // ------------------------------------------------------------ parser

  Status Advance() { return lexer_.Next(&tok_); }

  Status Error(std::string_view what) const {
    return Status::InvalidArgument(std::string(what) + " at position " +
                                   std::to_string(tok_.pos));
  }

  // The parse functions fill `*out` in place: no syntax-tree node is
  // moved on its way up the recursion.

  // orExpr (kOr) and andExpr (kAnd): the operands of a chain become
  // siblings under one node.
  Status ParseOperand(Node chain, Expr* out) {
    return chain == Node::kOr ? ParseChain(Node::kAnd, out) : ParseUnary(out);
  }

  Status ParseChain(Node chain, Expr* out) {
    const TokenKind separator =
        chain == Node::kOr ? TokenKind::kOr : TokenKind::kAnd;
    NEPTUNE_RETURN_IF_ERROR(ParseOperand(chain, out));
    if (tok_.kind != separator) return Status::OK();
    Expr first = std::move(*out);
    *out = Expr();
    out->node = chain;
    out->children.push_back(std::move(first));
    while (tok_.kind == separator) {
      NEPTUNE_RETURN_IF_ERROR(Advance());
      NEPTUNE_RETURN_IF_ERROR(
          ParseOperand(chain, &out->children.emplace_back()));
    }
    return Status::OK();
  }

  Status ParseUnary(Expr* out) {
    const TokenKind kind = tok_.kind;
    if (kind != TokenKind::kNot && kind != TokenKind::kLParen) {
      return ParseAtom(out);
    }
    if (depth_ == Predicate::kMaxNesting) {
      return Error("predicate nested more than " +
                   std::to_string(Predicate::kMaxNesting) + " deep");
    }
    ++depth_;
    NEPTUNE_RETURN_IF_ERROR(Advance());
    if (kind == TokenKind::kNot) {
      out->node = Node::kNot;
      NEPTUNE_RETURN_IF_ERROR(ParseUnary(&out->children.emplace_back()));
    } else {
      NEPTUNE_RETURN_IF_ERROR(ParseChain(Node::kOr, out));
      if (tok_.kind != TokenKind::kRParen) return Error("expected ')'");
      NEPTUNE_RETURN_IF_ERROR(Advance());
    }
    --depth_;
    return Status::OK();
  }

  Status ParseAtom(Expr* out) {
    if (tok_.kind != TokenKind::kIdent) {
      return Error("expected attribute name");
    }
    std::string name = std::move(tok_.text);
    NEPTUNE_RETURN_IF_ERROR(Advance());
    if (name == "true" || name == "false") {
      out->node = name == "true" ? Node::kTrue : Node::kFalse;
      return Status::OK();
    }
    out->node = Node::kAtom;
    if (name == "exists") {
      if (tok_.kind != TokenKind::kIdent) {
        return Error("expected attribute name after 'exists'");
      }
      out->op = Predicate::AtomOp::kExists;
      out->attribute = std::move(tok_.text);
      return Advance();
    }
    switch (tok_.kind) {
      case TokenKind::kEq:
        out->op = Predicate::AtomOp::kEq;
        break;
      case TokenKind::kNe:
        out->op = Predicate::AtomOp::kNe;
        break;
      case TokenKind::kLt:
        out->op = Predicate::AtomOp::kLt;
        break;
      case TokenKind::kLe:
        out->op = Predicate::AtomOp::kLe;
        break;
      case TokenKind::kGt:
        out->op = Predicate::AtomOp::kGt;
        break;
      case TokenKind::kGe:
        out->op = Predicate::AtomOp::kGe;
        break;
      case TokenKind::kContains:
        out->op = Predicate::AtomOp::kContains;
        break;
      default:
        return Error("expected comparison operator");
    }
    NEPTUNE_RETURN_IF_ERROR(Advance());
    if (tok_.kind != TokenKind::kIdent && tok_.kind != TokenKind::kString) {
      return Error("expected value");
    }
    out->attribute = std::move(name);
    out->value = std::move(tok_.text);
    return Advance();
  }

  // ---------------------------------------------------------- compiler

  // Interning through a hash index keeps it linear in the length of
  // any formula.
  uint32_t SlotFor(const std::string& name) {
    const auto next = static_cast<uint32_t>(slot_names_.size());
    auto [it, inserted] = slots_.emplace(name, next);
    if (inserted) slot_names_.push_back(name);
    return it->second;
  }

  // Emits atoms bottom-up: Emit(e, T, F) returns the entry point (an
  // atom index or a terminal) of a program that jumps to T when `e`
  // holds and to F otherwise. Emitting later operands first makes each
  // earlier operand's fall-through target already known, so no fixups.
  uint32_t Emit(const Expr& e, uint32_t on_true, uint32_t on_false) {
    uint32_t next;
    switch (e.node) {
      case Node::kTrue:
        return on_true;
      case Node::kFalse:
        return on_false;
      case Node::kNot:
        return Emit(e.children[0], on_false, on_true);
      case Node::kAnd:
        next = on_true;
        for (auto it = e.children.rbegin(); it != e.children.rend(); ++it) {
          next = Emit(*it, next, on_false);
        }
        return next;
      case Node::kOr:
        next = on_false;
        for (auto it = e.children.rbegin(); it != e.children.rend(); ++it) {
          next = Emit(*it, on_true, next);
        }
        return next;
      case Node::kAtom:
        break;
    }
    Predicate::Atom atom;
    atom.op = e.op;
    atom.slot = SlotFor(e.attribute);
    atom.value = e.value;
    atom.on_true = on_true;
    atom.on_false = on_false;
    atoms_.push_back(std::move(atom));
    return static_cast<uint32_t>(atoms_.size() - 1);
  }

  // Walks only through AND nodes: every equality found this way is
  // implied by the whole formula. Keeps the first kMaxConjuncts
  // distinct ones.
  static void CollectConjuncts(
      const Expr& e, std::vector<std::pair<std::string, std::string>>* out) {
    if (e.node == Node::kAnd) {
      for (const Expr& child : e.children) CollectConjuncts(child, out);
      return;
    }
    if (e.node != Node::kAtom || e.op != Predicate::AtomOp::kEq ||
        out->size() == kMaxConjuncts) {
      return;
    }
    for (const auto& [attribute, value] : *out) {
      if (attribute == e.attribute && value == e.value) return;
    }
    out->emplace_back(e.attribute, e.value);
  }

  Lexer lexer_;
  Token tok_;
  int depth_ = 0;
  std::vector<Predicate::Atom> atoms_;
  std::vector<std::string> slot_names_;
  std::unordered_map<std::string, uint32_t> slots_;
};

Result<Predicate> Predicate::Parse(std::string_view text) {
  return ProgramBuilder::Build(text);
}

bool Predicate::Matches(const SlotSource& source) const {
  uint32_t pc = entry_;
  while (pc < atoms_.size()) {
    const Atom& atom = atoms_[pc];
    const std::optional<std::string_view> value = source.GetSlot(atom.slot);
    bool hit;
    if (atom.op == AtomOp::kExists) {
      hit = value.has_value();
    } else if (!value.has_value()) {
      hit = false;  // absent attribute matches nothing
    } else {
      switch (atom.op) {
        case AtomOp::kEq:
          hit = *value == atom.value;
          break;
        case AtomOp::kNe:
          hit = *value != atom.value;
          break;
        case AtomOp::kLt:
          hit = CompareValues(*value, atom.value) < 0;
          break;
        case AtomOp::kLe:
          hit = CompareValues(*value, atom.value) <= 0;
          break;
        case AtomOp::kGt:
          hit = CompareValues(*value, atom.value) > 0;
          break;
        case AtomOp::kGe:
          hit = CompareValues(*value, atom.value) >= 0;
          break;
        default:
          hit = value->find(atom.value) != std::string_view::npos;
          break;
      }
    }
    pc = hit ? atom.on_true : atom.on_false;
  }
  return pc == kAccept;
}

}  // namespace query
}  // namespace neptune
