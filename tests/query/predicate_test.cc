#include "query/predicate.h"

#include <gtest/gtest.h>

#include "tests/query/map_slots.h"

namespace neptune {
namespace query {
namespace {

Attrs CaseNode() {
  return Attrs{{"contentType", "Modula-2 source"},
               {"codeType", "procedure"},
               {"document", "design"},
               {"version", "12"},
               {"author", "delisle"}};
}

bool Eval(std::string_view text, const Attrs& attrs) {
  auto p = Predicate::Parse(text);
  EXPECT_TRUE(p.ok()) << text << " -> " << p.status().ToString();
  return p.ok() && Matches(*p, attrs);
}

TEST(PredicateParseTest, EmptyIsTrue) {
  auto p = Predicate::Parse("");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsTriviallyTrue());
  EXPECT_TRUE(Matches(*p, Attrs{}));
  auto blank = Predicate::Parse("   \t\n ");
  ASSERT_TRUE(blank.ok());
  EXPECT_TRUE(blank->IsTriviallyTrue());
}

TEST(PredicateParseTest, Literals) {
  EXPECT_TRUE(Eval("true", Attrs{}));
  EXPECT_FALSE(Eval("false", Attrs{}));
}

TEST(PredicateTest, PaperExampleDocumentEqualsRequirements) {
  // The exact example from paper §3.
  Attrs node{{"document", "requirements"}};
  EXPECT_TRUE(Eval("document = requirements", node));
  EXPECT_FALSE(Eval("document = design", node));
}

TEST(PredicateTest, Equality) {
  auto node = CaseNode();
  EXPECT_TRUE(Eval("codeType = procedure", node));
  EXPECT_FALSE(Eval("codeType = definitionModule", node));
  EXPECT_TRUE(Eval("contentType = 'Modula-2 source'", node));
  EXPECT_TRUE(Eval("contentType = \"Modula-2 source\"", node));
}

TEST(PredicateTest, Inequality) {
  auto node = CaseNode();
  EXPECT_TRUE(Eval("codeType != module", node));
  EXPECT_FALSE(Eval("codeType != procedure", node));
}

TEST(PredicateTest, AbsentAttributeMatchesNothing) {
  auto node = CaseNode();
  EXPECT_FALSE(Eval("missing = x", node));
  EXPECT_FALSE(Eval("missing != x", node));
  EXPECT_FALSE(Eval("missing < x", node));
  EXPECT_FALSE(Eval("missing ~ x", node));
  EXPECT_TRUE(Eval("!(missing = x)", node));
}

TEST(PredicateTest, Exists) {
  auto node = CaseNode();
  EXPECT_TRUE(Eval("exists codeType", node));
  EXPECT_FALSE(Eval("exists missing", node));
  EXPECT_TRUE(Eval("!exists missing", node));
}

TEST(PredicateTest, NumericComparisons) {
  auto node = CaseNode();  // version = 12
  EXPECT_TRUE(Eval("version < 100", node));   // numeric, not lexicographic
  EXPECT_FALSE(Eval("version > 100", node));
  EXPECT_TRUE(Eval("version >= 12", node));
  EXPECT_TRUE(Eval("version <= 12", node));
  EXPECT_TRUE(Eval("version > 9", node));  // "12" < "9" lexicographically
}

TEST(PredicateTest, LexicographicComparisons) {
  Attrs node{{"name", "beta"}};
  EXPECT_TRUE(Eval("name > alpha", node));
  EXPECT_TRUE(Eval("name < gamma", node));
}

TEST(PredicateTest, ContainsOperator) {
  auto node = CaseNode();
  EXPECT_TRUE(Eval("contentType ~ 'Modula'", node));
  EXPECT_TRUE(Eval("contentType ~ source", node));
  EXPECT_FALSE(Eval("contentType ~ Pascal", node));
}

TEST(PredicateTest, BooleanCombinators) {
  auto node = CaseNode();
  EXPECT_TRUE(Eval("codeType = procedure & document = design", node));
  EXPECT_FALSE(Eval("codeType = procedure & document = spec", node));
  EXPECT_TRUE(Eval("codeType = module | document = design", node));
  EXPECT_FALSE(Eval("codeType = module | document = spec", node));
  EXPECT_TRUE(Eval("!(codeType = module)", node));
  EXPECT_TRUE(Eval("codeType = procedure and document = design", node));
  EXPECT_TRUE(Eval("codeType = module or document = design", node));
  EXPECT_TRUE(Eval("not codeType = module", node));
}

TEST(PredicateTest, PrecedenceAndBindsTighterThanOr) {
  // a | b & c  ==  a | (b & c)
  Attrs node{{"a", "0"}, {"b", "1"}, {"c", "1"}};
  EXPECT_TRUE(Eval("a = 1 | b = 1 & c = 1", node));
  Attrs node2{{"a", "0"}, {"b", "1"}, {"c", "0"}};
  EXPECT_FALSE(Eval("a = 1 | b = 1 & c = 0", CaseNode()));
  EXPECT_FALSE(Eval("a = 1 | b = 1 & c = 1", node2));
}

TEST(PredicateTest, ParenthesesOverridePrecedence) {
  Attrs node{{"a", "1"}, {"b", "0"}, {"c", "1"}};
  EXPECT_TRUE(Eval("(a = 1 | b = 1) & c = 1", node));
  Attrs node2{{"a", "1"}, {"b", "0"}, {"c", "0"}};
  EXPECT_FALSE(Eval("(a = 1 | b = 1) & c = 1", node2));
}

TEST(PredicateTest, QuotedStringsWithEscapes) {
  Attrs node{{"title", "it's \"quoted\""}};
  EXPECT_TRUE(Eval("title = 'it\\'s \"quoted\"'", node));
  EXPECT_TRUE(Eval("title ~ \"\\\"quoted\\\"\"", node));
}

TEST(PredicateTest, EmptyValueRequiresQuotes) {
  Attrs node{{"note", ""}};
  EXPECT_TRUE(Eval("note = ''", node));
  EXPECT_TRUE(Eval("exists note", node));
}

TEST(PredicateParseTest, SyntaxErrors) {
  for (const char* bad : {"=", "a =", "a = (", "(a = b", "a = b)", "a ? b",
                          "a = b extra", "& a = b", "exists", "'unterminated",
                          "a = b | ", "!", "a < "}) {
    auto p = Predicate::Parse(bad);
    EXPECT_FALSE(p.ok()) << "should reject: " << bad;
    EXPECT_TRUE(p.status().IsInvalidArgument()) << bad;
  }
}

TEST(PredicateParseTest, ErrorsCarryPosition) {
  auto p = Predicate::Parse("document = requirements ^ x");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("position"), std::string_view::npos);
}

TEST(PredicateTest, CopyAndMoveSemantics) {
  auto p = Predicate::Parse("a = 1");
  ASSERT_TRUE(p.ok());
  Predicate copy = *p;
  Predicate moved = std::move(*p);
  const Attrs yes{{"a", "1"}};
  const Attrs no{{"a", "2"}};
  EXPECT_TRUE(Matches(copy, yes));
  EXPECT_TRUE(Matches(moved, yes));
  EXPECT_FALSE(Matches(copy, no));
}

TEST(PredicateTest, AttributeNamesWithDotsAndDashes) {
  Attrs node{{"project.owner", "mayer"}, {"x-flag", "on"}};
  EXPECT_TRUE(Eval("project.owner = mayer", node));
  EXPECT_TRUE(Eval("x-flag = on", node));
}

// Nesting is bounded: '(' and '!' each add a level, and Parse rejects
// more than kMaxNesting of them instead of recursing without limit.
TEST(PredicateParseTest, NestingLimitIsExact) {
  const int limit = Predicate::kMaxNesting;
  auto at_limit = Predicate::Parse(std::string(limit, '!') + "true");
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_TRUE(at_limit->IsTriviallyTrue());  // an even count of '!'
  EXPECT_TRUE(Predicate::Parse(std::string(limit, '(') + "a = 1" +
                               std::string(limit, ')'))
                  .ok());
  EXPECT_TRUE(Predicate::Parse(std::string(limit + 1, '!') + "true")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Predicate::Parse(std::string(limit / 2, '(') +
                               std::string(limit / 2 + 1, '!') + "a = 1" +
                               std::string(limit / 2, ')'))
                  .status()
                  .IsInvalidArgument());
}

// A request-sized negation tower gets an error instead of one parser
// frame per '!' and a stack overflow.
TEST(PredicateParseTest, DeepNegationIsRejected) {
  auto p = Predicate::Parse(std::string(200000, '!') + "true");
  ASSERT_FALSE(p.ok());
  EXPECT_TRUE(p.status().IsInvalidArgument()) << p.status().ToString();
  EXPECT_NE(p.status().message().find("nested"), std::string_view::npos);
}

// A long '&' chain is one n-ary node: its length adds no depth to any
// pass (parse, compile, conjuncts, destruction).
TEST(PredicateParseTest, LongConjunctionParsesFlat) {
  std::string text = "a=1";
  for (int i = 1; i < 300000; ++i) text += "&a=1";
  auto p = Predicate::Parse(text);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(Matches(*p, Attrs{{"a", "1"}}));
  EXPECT_FALSE(Matches(*p, Attrs{{"a", "2"}}));
  EXPECT_FALSE(Matches(*p, Attrs{}));
  // Repeated terms are one index probe.
  ASSERT_EQ(p->EqualityConjuncts().size(), 1u);
  EXPECT_EQ(p->EqualityConjuncts()[0],
            (std::pair<std::string, std::string>{"a", "1"}));

  // As many distinct names: interning stays linear in the length.
  std::string either = "a0=1";
  for (int i = 1; i < 300000; ++i) either += "|a" + std::to_string(i) + "=1";
  auto q = Predicate::Parse(either);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(Matches(*q, Attrs{{"a299999", "1"}}));
  EXPECT_FALSE(Matches(*q, Attrs{{"a299999", "2"}, {"b", "1"}}));
  EXPECT_EQ(q->slot_names().size(), 300000u);
}

}  // namespace
}  // namespace query
}  // namespace neptune
