// Predicate: "a Boolean formula in terms of attributes and their
// values" (Appendix atomic domain). Both HAM query mechanisms —
// linearizeGraph and getGraphQuery — take one node predicate and one
// link predicate and return only the objects that satisfy them
// (paper §3, e.g. `document = requirements`).
//
// Grammar (case-sensitive identifiers; '&' binds tighter than '|'):
//
//   predicate  := orExpr | <empty>            empty matches everything
//   orExpr     := andExpr ( ('|' | 'or')  andExpr )*
//   andExpr    := unary   ( ('&' | 'and') unary )*
//   unary      := ('!' | 'not') unary | '(' orExpr ')' | atom
//   atom       := 'true' | 'false'
//             | 'exists' name                attribute is attached
//             | name op value
//   op         := '=' | '!=' | '<' | '<=' | '>' | '>=' | '~'
//   name       := [A-Za-z_][A-Za-z0-9_.-]*
//   value      := name | integer | 'single or "double quoted string'
//
// Semantics: attribute values are strings. '=' / '!=' compare exactly;
// '~' is substring containment; the orderings compare numerically when
// both sides are decimal integers and lexicographically otherwise. A
// comparison on an attribute that is not attached is false ('!=' too:
// an absent attribute has no value to differ); use 'exists' / '!exists'
// to test attachment.

#ifndef NEPTUNE_QUERY_PREDICATE_H_
#define NEPTUNE_QUERY_PREDICATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace neptune {
namespace query {

// A parsed predicate is a short-circuiting jump program: the syntax
// tree lives only inside Parse, which flattens it into a flat atom
// array and interns attribute names into dense slots the caller
// resolves once per query (instead of a name lookup per atom per
// record). Each atom carries two jump targets; evaluation follows
// on_true/on_false until it reaches a terminal, so AND/OR short-
// circuit, and true/false/NOT fold into the jump graph.
//
// Predicates are plain values, immutable after Parse, and safe to
// evaluate concurrently.
class Predicate {
 public:
  // Where evaluation reads attribute values from: slot i holds the
  // value of slot_names()[i], or nullopt when unattached.
  class SlotSource {
   public:
    virtual ~SlotSource() = default;
    virtual std::optional<std::string_view> GetSlot(size_t slot) const = 0;
  };

  // Deepest nesting of '(' and '!' that Parse accepts. The parser and
  // the compiler recurse once per level; '&' / '|' chains add none.
  static constexpr int kMaxNesting = 128;

  Predicate() = default;  // the always-true program

  // Parses `text`; InvalidArgument with position info on bad syntax or
  // nesting deeper than kMaxNesting.
  static Result<Predicate> Parse(std::string_view text);
  static Predicate True() { return Predicate(); }

  bool Matches(const SlotSource& source) const;

  bool IsTriviallyTrue() const { return entry_ == kAccept; }
  bool IsTriviallyFalse() const { return entry_ == kReject; }

  // Attribute names the program reads, one per slot.
  const std::vector<std::string>& slot_names() const { return slot_names_; }

  // Top-level AND-ed equality terms, i.e. `name = value` terms that
  // must hold for the whole formula to hold: the first 8 distinct ones,
  // in first-use order. Any object matching the predicate also matches
  // each returned pair, so an index lookup on one of them yields a
  // complete candidate set. Empty for formulas with no such term
  // (e.g. pure disjunctions).
  const std::vector<std::pair<std::string, std::string>>& EqualityConjuncts()
      const {
    return conjuncts_;
  }

 private:
  friend class ProgramBuilder;

  enum class AtomOp : uint8_t {
    kExists,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kContains,
  };

  // Jump targets past the atom array: program terminals.
  static constexpr uint32_t kAccept = 0xffffffffu;
  static constexpr uint32_t kReject = 0xfffffffeu;

  struct Atom {
    AtomOp op = AtomOp::kExists;
    uint32_t slot = 0;
    std::string value;
    uint32_t on_true = kAccept;
    uint32_t on_false = kReject;
  };

  std::vector<Atom> atoms_;
  std::vector<std::string> slot_names_;
  std::vector<std::pair<std::string, std::string>> conjuncts_;
  uint32_t entry_ = kAccept;
};

}  // namespace query
}  // namespace neptune

#endif  // NEPTUNE_QUERY_PREDICATE_H_
