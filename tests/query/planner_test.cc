// Query-planner tests: the predicate program's semantics, the
// differential between the two HAM query mechanisms, the single
// index-eligibility rule, and the plans the engine reports through
// getGraphQueryExplained — including the incremental index maintenance
// counters.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ham/graph_state.h"
#include "query/predicate.h"
#include "tests/ham/ham_test_util.h"
#include "tests/query/map_slots.h"

namespace neptune {
namespace query {
namespace {

bool Eval(std::string_view text, const Attrs& attrs) {
  auto parsed = Predicate::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
  return parsed.ok() && Matches(*parsed, attrs);
}

const Attrs kCaseNode = {{"contentType", "Modula-2 source"},
                         {"codeType", "procedure"},
                         {"document", "design"},
                         {"version", "12"},
                         {"author", "delisle"}};

TEST(CompiledPredicateTest, TrivialPrograms) {
  auto empty = Predicate::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->IsTriviallyTrue());
  auto always = Predicate::Parse("true");
  ASSERT_TRUE(always.ok());
  EXPECT_TRUE(always->IsTriviallyTrue());
  auto never = Predicate::Parse("false");
  ASSERT_TRUE(never.ok());
  EXPECT_TRUE(never->IsTriviallyFalse());
  // Constants fold into the jump graph.
  EXPECT_TRUE(Predicate::Parse("true | a = 1")->IsTriviallyTrue());
  EXPECT_TRUE(Predicate::Parse("!true & a = 1")->IsTriviallyFalse());
}

TEST(CompiledPredicateTest, AbsentAttributeMatchesNothing) {
  EXPECT_FALSE(Eval("missing = x", kCaseNode));
  EXPECT_FALSE(Eval("missing != x", kCaseNode));
  EXPECT_FALSE(Eval("missing < x", kCaseNode));
  EXPECT_FALSE(Eval("missing ~ x", kCaseNode));
  EXPECT_TRUE(Eval("!(missing = x)", kCaseNode));
}

TEST(CompiledPredicateTest, BooleanStructure) {
  EXPECT_TRUE(Eval("codeType = procedure & document = design", kCaseNode));
  EXPECT_FALSE(Eval("codeType = procedure & document = spec", kCaseNode));
  EXPECT_TRUE(Eval("codeType = module | document = design", kCaseNode));
  EXPECT_FALSE(Eval("codeType = module | document = spec", kCaseNode));
  // Precedence: a | b & c == a | (b & c).
  const Attrs abc = {{"a", "0"}, {"b", "1"}, {"c", "1"}};
  EXPECT_TRUE(Eval("a = 1 | b = 1 & c = 1", abc));
  EXPECT_FALSE(Eval("(a = 1 | b = 1) & c = 0", abc));
  EXPECT_TRUE(Eval("!(a = 1) & (b = 1 | c = 0)", abc));
  EXPECT_TRUE(
      Eval("document = spec | (codeType = procedure & version >= 10)",
           kCaseNode));
  // Chains mixed with nesting short-circuit in every position.
  EXPECT_TRUE(Eval("a = 9 | b = 9 | (c = 9 | a = 0) & b = 1", abc));
  EXPECT_FALSE(Eval("a = 0 & b = 1 & !(c = 1 | c = 2) & a = 0", abc));
}

TEST(CompiledPredicateTest, SlotsAreInternedOncePerName) {
  auto parsed =
      Predicate::Parse("a = 1 & a = 1 & a != 2 & exists a & b = 3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->slot_names().size(), 2u);  // "a", "b"
}

// ------------------------------------- linearizeGraph vs getGraphQuery

// One formula corpus through both HAM query mechanisms. On a star
// (hub -> every satellite, satellites have no out-links) linearizeGraph
// from the hub selects the hub plus every matching satellite when the
// hub matches, and nothing otherwise; from a satellite it selects just
// that satellite when it matches. getGraphQuery must agree, at the
// current time (index-eligible) and at an earlier one (scan).
class PredicateDifferentialTest : public ham::HamTestBase {
 protected:
  static constexpr int kSatellites = 24;

  void BuildStar() {
    code_type_ = Attr("codeType");
    document_ = Attr("document");
    version_ = Attr("version");
    content_type_ = Attr("contentType");
    author_ = Attr("author");
    role_ = Attr("role");
    hub_ = AddNode();
    Set(hub_, code_type_, "module");
    Set(hub_, document_, "design");
    Set(hub_, version_, "10");
    Set(hub_, content_type_, "Modula-2 source");
    for (int i = 0; i < kSatellites; ++i) {
      const ham::NodeIndex node = AddSatellite(i);
      if (i % 7 != 0) {
        const char* types[] = {"procedure", "module", "definitionModule"};
        Set(node, code_type_, types[i % 3]);
      }
      const char* documents[] = {"design", "spec", "requirements", "design"};
      Set(node, document_, documents[i % 4]);
      Set(node, version_, std::to_string(i * 3));
      if (i % 5 != 0) {
        Set(node, content_type_, i % 2 ? "Modula-2 source" : "Pascal text");
      }
      if (i % 4 == 1) Set(node, author_, "delisle");
    }
  }

  // Rewrites history after the first snapshot: changed and detached
  // values, a deleted satellite and satellites that did not exist yet.
  void Mutate() {
    for (size_t i = 0; i < satellites_.size(); ++i) {
      const ham::NodeIndex node = satellites_[i];
      if (i % 3 == 0) Set(node, document_, "spec");
      if (i % 4 == 2) {
        ASSERT_TRUE(ham_->DeleteNodeAttribute(ctx_, node, code_type_).ok());
      }
      Set(node, version_, std::to_string(i * 5));
    }
    ASSERT_TRUE(ham_->DeleteNode(ctx_, satellites_[5]).ok());
    for (int i = kSatellites; i < kSatellites + 4; ++i) {
      const ham::NodeIndex node = AddSatellite(i);
      Set(node, code_type_, "procedure");
      Set(node, document_, "design");
      Set(node, version_, std::to_string(i));
    }
    Set(hub_, document_, "spec");
  }

  ham::Time Now() { return ham_->GetStats(ctx_)->current_time; }

  void ExpectAgreement(ham::Time time) {
    auto everything = ham_->GetGraphQuery(ctx_, time, "", "", {}, {});
    ASSERT_TRUE(everything.ok()) << everything.status().ToString();
    std::set<ham::NodeIndex> existing;
    for (const auto& n : everything->nodes) existing.insert(n.node);
    const char* node_formulas[] = {
        "",
        "true",
        "false",
        "codeType = procedure",
        "codeType = definitionModule",
        "contentType = 'Modula-2 source'",
        "codeType != module",
        "exists codeType",
        "exists author",
        "!exists author",
        "version < 30",
        "version >= 12",
        "version > 9",
        "version <= 12",
        "contentType ~ Modula",
        "contentType ~ Pascal",
        "missing = x",
        "missing != x",
        "!(missing = x)",
        "codeType = procedure & document = design",
        "codeType = module | document = design",
        "document = spec | (codeType = procedure & version >= 10)",
        "!(codeType = module) & (document = design | version < 20)",
        "document = design & document = design & codeType != module",
        "not (document = spec or exists author) and version > 3",
    };
    for (const char* formula : node_formulas) {
      SCOPED_TRACE(std::string("node predicate: ") + formula +
                   " time=" + std::to_string(time));
      auto queried = ham_->GetGraphQuery(ctx_, time, formula, "", {}, {});
      ASSERT_TRUE(queried.ok()) << queried.status().ToString();
      std::set<ham::NodeIndex> selected;
      for (const auto& n : queried->nodes) selected.insert(n.node);
      const std::set<ham::NodeIndex> from_hub =
          LinearizedNodes(hub_, time, formula);
      if (selected.count(hub_) != 0) {
        EXPECT_EQ(from_hub, selected);
      } else {
        EXPECT_TRUE(from_hub.empty());
      }
      for (ham::NodeIndex node : satellites_) {
        if (existing.count(node) == 0) continue;
        EXPECT_EQ(!LinearizedNodes(node, time, formula).empty(),
                  selected.count(node) != 0)
            << "satellite " << node;
      }
    }
    const char* link_formulas[] = {"", "role = calls", "role != calls",
                                   "!exists role", "role ~ port",
                                   "role = calls | !exists role"};
    for (const char* formula : link_formulas) {
      SCOPED_TRACE(std::string("link predicate: ") + formula +
                   " time=" + std::to_string(time));
      auto queried = ham_->GetGraphQuery(ctx_, time, "", formula, {}, {});
      ASSERT_TRUE(queried.ok()) << queried.status().ToString();
      auto linearized =
          ham_->LinearizeGraph(ctx_, hub_, time, "", formula, {}, {});
      ASSERT_TRUE(linearized.ok()) << linearized.status().ToString();
      std::set<ham::LinkIndex> from_query;
      std::set<ham::LinkIndex> from_hub;
      for (const auto& l : queried->links) from_query.insert(l.link);
      for (const auto& l : linearized->links) from_hub.insert(l.link);
      EXPECT_EQ(from_hub, from_query);
    }
  }

 private:
  ham::NodeIndex AddNode() {
    auto added = ham_->AddNode(ctx_, true);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
    return added->node;
  }

  ham::NodeIndex AddSatellite(int i) {
    const ham::NodeIndex node = AddNode();
    auto link = ham_->AddLink(ctx_, ham::LinkPt{hub_, static_cast<uint64_t>(i)},
                              ham::LinkPt{node, 0});
    EXPECT_TRUE(link.ok()) << link.status().ToString();
    if (i % 3 != 2) {
      EXPECT_TRUE(ham_->SetLinkAttributeValue(ctx_, link->link, role_,
                                              i % 3 == 0 ? "calls" : "imports")
                      .ok());
    }
    satellites_.push_back(node);
    return node;
  }

  void Set(ham::NodeIndex node, ham::AttributeIndex attr,
           const std::string& value) {
    ASSERT_TRUE(ham_->SetNodeAttributeValue(ctx_, node, attr, value).ok());
  }

  std::set<ham::NodeIndex> LinearizedNodes(ham::NodeIndex start,
                                           ham::Time time,
                                           const std::string& formula) {
    auto result =
        ham_->LinearizeGraph(ctx_, start, time, formula, "", {}, {});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::set<ham::NodeIndex> out;
    if (result.ok()) {
      for (const auto& n : result->nodes) out.insert(n.node);
    }
    return out;
  }

  ham::NodeIndex hub_ = 0;
  std::vector<ham::NodeIndex> satellites_;
  ham::AttributeIndex code_type_ = 0;
  ham::AttributeIndex document_ = 0;
  ham::AttributeIndex version_ = 0;
  ham::AttributeIndex content_type_ = 0;
  ham::AttributeIndex author_ = 0;
  ham::AttributeIndex role_ = 0;
};

TEST_F(PredicateDifferentialTest, LinearizeAndQuerySelectTheSameObjects) {
  BuildStar();
  const ham::Time earlier = Now();
  ExpectAgreement(0);
  Mutate();
  ExpectAgreement(0);
  ExpectAgreement(earlier);
}

// ------------------------------------------------- eligibility rule

// The one documented predicate for "may this view be served from the
// attribute index": current time, main thread, no open transaction.
TEST(IndexEligibleTest, CurrentMainThreadNoTxnIsEligible) {
  EXPECT_TRUE(ham::GraphState::IndexEligible(ham::kMainThread, nullptr, 0));
}

TEST(IndexEligibleTest, HistoricalTimeIsNotEligible) {
  EXPECT_FALSE(ham::GraphState::IndexEligible(ham::kMainThread, nullptr, 7));
}

TEST(IndexEligibleTest, VersionThreadIsNotEligible) {
  EXPECT_FALSE(ham::GraphState::IndexEligible(1, nullptr, 0));
}

TEST(IndexEligibleTest, OpenTransactionIsNotEligible) {
  ham::GraphState::TxnOverlay txn;
  EXPECT_FALSE(ham::GraphState::IndexEligible(ham::kMainThread, &txn, 0));
}

// --------------------------------------------- end-to-end plan kinds

class PlannerExplainTest : public ham::HamTestBase {
 protected:
  void Populate(int count) {
    kind_ = Attr("kind");
    serial_ = Attr("serial");
    for (int i = 0; i < count; ++i) {
      ham::NodeIndex node = MakeNode("node " + std::to_string(i));
      ASSERT_TRUE(ham_->SetNodeAttributeValue(
                          ctx_, node, kind_, i % 5 == 0 ? "special" : "plain")
                      .ok());
      ASSERT_TRUE(ham_->SetNodeAttributeValue(ctx_, node, serial_,
                                              std::to_string(i))
                      .ok());
      nodes_.push_back(node);
    }
  }

  ham::QueryExplain Explain(const std::string& pred,
                            ham::QueryOptions options = {}) {
    auto result =
        ham_->GetGraphQueryExplained(ctx_, 0, pred, "", {}, {}, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : ham::QueryExplain{};
  }

  ham::AttributeIndex kind_ = 0;
  ham::AttributeIndex serial_ = 0;
  std::vector<ham::NodeIndex> nodes_;
};

TEST_F(PlannerExplainTest, SingleEqualityUsesIndex) {
  Populate(25);
  ham::QueryExplain result = Explain("kind = special");
  EXPECT_EQ(result.plan.kind, ham::QueryPlan::Kind::kIndex);
  EXPECT_TRUE(result.plan.eligible);
  EXPECT_EQ(result.plan.conjuncts, 1u);
  EXPECT_EQ(result.graph.nodes.size(), 5u);
  EXPECT_EQ(result.plan.candidates, 5u);
  EXPECT_EQ(result.plan.nodes_matched, 5u);
}

TEST_F(PlannerExplainTest, ConjunctionIntersectsPostings) {
  Populate(25);
  ham::QueryExplain result = Explain("kind = special & serial = 10");
  EXPECT_EQ(result.plan.kind, ham::QueryPlan::Kind::kIntersect);
  EXPECT_EQ(result.plan.conjuncts, 2u);
  ASSERT_EQ(result.graph.nodes.size(), 1u);
  EXPECT_EQ(result.graph.nodes[0].node, nodes_[10]);
  // The intersection already satisfies the whole formula, but the
  // residual check still runs per candidate.
  EXPECT_EQ(result.plan.candidates, 1u);
}

TEST_F(PlannerExplainTest, NonEqualityPredicateScans) {
  Populate(25);
  ham::QueryExplain result = Explain("serial > 10");
  EXPECT_EQ(result.plan.kind, ham::QueryPlan::Kind::kScan);
  EXPECT_TRUE(result.plan.eligible);  // the view allowed the index...
  EXPECT_EQ(result.plan.conjuncts, 0u);  // ...but no conjunct to probe
}

TEST_F(PlannerExplainTest, ForceScanBypassesThePlanner) {
  Populate(25);
  ham::QueryOptions options;
  options.force_scan = true;
  ham::QueryExplain result = Explain("kind = special", options);
  EXPECT_EQ(result.plan.kind, ham::QueryPlan::Kind::kScan);
  EXPECT_FALSE(result.plan.eligible);
  EXPECT_EQ(result.graph.nodes.size(), 5u);
}

TEST_F(PlannerExplainTest, HistoricalViewIsIneligible) {
  Populate(5);
  auto stamp = ham_->GetNodeTimeStamp(ctx_, nodes_[0]);
  ASSERT_TRUE(stamp.ok());
  auto result = ham_->GetGraphQueryExplained(ctx_, *stamp, "kind = special",
                                             "", {}, {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.kind, ham::QueryPlan::Kind::kScan);
  EXPECT_FALSE(result->plan.eligible);
}

TEST_F(PlannerExplainTest, UnknownAttributeIsProvablyEmpty) {
  Populate(10);
  ham::QueryExplain result = Explain("neverInterned = x");
  EXPECT_EQ(result.plan.kind, ham::QueryPlan::Kind::kIndex);
  EXPECT_EQ(result.graph.nodes.size(), 0u);
  EXPECT_EQ(result.plan.candidates, 0u);
}

TEST_F(PlannerExplainTest, WritesApplyDeltasInsteadOfRebuilding) {
  Populate(25);
  // First indexed query builds the index from scratch.
  ham::QueryExplain first = Explain("kind = special");
  EXPECT_TRUE(first.plan.rebuilt);
  // A write stages deltas; the next query applies them incrementally.
  ASSERT_TRUE(
      ham_->SetNodeAttributeValue(ctx_, nodes_[1], kind_, "special").ok());
  ham::QueryExplain second = Explain("kind = special");
  EXPECT_FALSE(second.plan.rebuilt);
  EXPECT_GT(second.plan.applied_deltas, 0u);
  EXPECT_EQ(second.graph.nodes.size(), 6u);
  // Steady state: no writes, no maintenance at all.
  ham::QueryExplain third = Explain("kind = special");
  EXPECT_FALSE(third.plan.rebuilt);
  EXPECT_EQ(third.plan.applied_deltas, 0u);
}

TEST_F(PlannerExplainTest, DeleteNodeLeavesTheIndexConsistent) {
  Populate(25);
  (void)Explain("kind = special");  // build
  ASSERT_TRUE(ham_->DeleteNode(ctx_, nodes_[5]).ok());
  ham::QueryOptions options;
  options.verify = true;
  ham::QueryExplain result = Explain("kind = special", options);
  EXPECT_FALSE(result.plan.rebuilt);
  EXPECT_EQ(result.graph.nodes.size(), 4u);
  EXPECT_TRUE(result.plan.verified);
  EXPECT_TRUE(result.plan.verify_match);
}

TEST_F(PlannerExplainTest, PruneForcesRebuild) {
  Populate(25);
  (void)Explain("kind = special");  // build
  ASSERT_TRUE(
      ham_->SetNodeAttributeValue(ctx_, nodes_[0], serial_, "999").ok());
  auto current = ham_->GetNodeTimeStamp(ctx_, nodes_[0]);
  ASSERT_TRUE(current.ok());
  ASSERT_TRUE(ham_->PruneHistory(ctx_, *current).ok());
  ham::QueryExplain result = Explain("kind = special");
  EXPECT_TRUE(result.plan.rebuilt);
  EXPECT_EQ(result.graph.nodes.size(), 5u);
}

TEST_F(PlannerExplainTest, VerifyModeComparesIndexedAgainstScan) {
  Populate(30);
  ham::QueryOptions options;
  options.verify = true;
  ham::QueryExplain result = Explain("kind = special & serial = 20", options);
  EXPECT_EQ(result.plan.kind, ham::QueryPlan::Kind::kIntersect);
  EXPECT_TRUE(result.plan.verified);
  EXPECT_TRUE(result.plan.verify_match);
}

}  // namespace
}  // namespace query
}  // namespace neptune
