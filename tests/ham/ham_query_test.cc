// linearizeGraph and getGraphQuery end-to-end: predicates, attribute
// projection, DFS ordering by link offsets, and historical queries.

#include <gtest/gtest.h>
#include <pthread.h>

#include <optional>
#include <vector>

#include "ham/ham.h"
#include "tests/ham/ham_test_util.h"

namespace neptune {
namespace ham {
namespace {

class HamQueryTest : public HamTestBase {
 protected:
  // Builds the paper's CASE example: nodes tagged with a `document`
  // attribute, structured by isPartOf links:
  //
  //   root -(0)-> spec -(0)-> req1
  //        |           -(5)-> req2
  //        -(9)-> design
  void SetUp() override {
    HamTestBase::SetUp();
    document_ = Attr("document");
    relation_ = Attr("relation");
    root_ = TaggedNode("root", "toc");
    spec_ = TaggedNode("spec section", "requirements");
    req1_ = TaggedNode("first requirement", "requirements");
    req2_ = TaggedNode("second requirement", "requirements");
    design_ = TaggedNode("design overview", "design");
    Link(root_, spec_, 0, "isPartOf");
    Link(root_, design_, 9, "isPartOf");
    Link(spec_, req1_, 0, "isPartOf");
    Link(spec_, req2_, 5, "isPartOf");
  }

  NodeIndex TaggedNode(const std::string& text, const std::string& document) {
    NodeIndex n = MakeNode(text);
    EXPECT_TRUE(
        ham_->SetNodeAttributeValue(ctx_, n, document_, document).ok());
    return n;
  }

  LinkIndex Link(NodeIndex from, NodeIndex to, uint64_t position,
                 const std::string& relation) {
    auto link = ham_->AddLink(ctx_, LinkPt{from, position, 0, true},
                              LinkPt{to, 0, 0, true});
    EXPECT_TRUE(link.ok());
    EXPECT_TRUE(
        ham_->SetLinkAttributeValue(ctx_, link->link, relation_, relation)
            .ok());
    return link->link;
  }

  std::vector<NodeIndex> NodeIds(const SubGraph& graph) {
    std::vector<NodeIndex> out;
    for (const auto& n : graph.nodes) out.push_back(n.node);
    return out;
  }

  AttributeIndex document_ = 0;
  AttributeIndex relation_ = 0;
  NodeIndex root_ = 0, spec_ = 0, req1_ = 0, req2_ = 0, design_ = 0;
};

TEST_F(HamQueryTest, GetGraphQueryPaperExample) {
  // The exact scenario from paper §3: "The node visibility predicate
  // 'document = requirements' could then be used in a getGraphQuery
  // operation to access only those nodes that are part of the
  // specification document."
  auto result =
      ham_->GetGraphQuery(ctx_, 0, "document = requirements", "", {}, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(NodeIds(*result), (std::vector<NodeIndex>{spec_, req1_, req2_}));
  // Only links connecting two selected nodes are returned.
  ASSERT_EQ(result->links.size(), 2u);
  for (const auto& link : result->links) {
    EXPECT_EQ(link.from, spec_);
  }
}

TEST_F(HamQueryTest, GetGraphQueryEmptyPredicateReturnsEverything) {
  auto result = ham_->GetGraphQuery(ctx_, 0, "", "", {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 5u);
  EXPECT_EQ(result->links.size(), 4u);
}

TEST_F(HamQueryTest, GetGraphQueryLinkPredicateFiltersLinks) {
  LinkIndex annotation = Link(req1_, design_, 2, "annotates");
  auto result =
      ham_->GetGraphQuery(ctx_, 0, "", "relation = annotates", {}, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->links.size(), 1u);
  EXPECT_EQ(result->links[0].link, annotation);
}

TEST_F(HamQueryTest, GetGraphQueryProjectsRequestedAttributes) {
  auto result =
      ham_->GetGraphQuery(ctx_, 0, "document = design", "", {document_}, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->nodes.size(), 1u);
  ASSERT_EQ(result->nodes[0].attribute_values.size(), 1u);
  EXPECT_EQ(*result->nodes[0].attribute_values[0], "design");
  // Unknown attribute index in the projection is rejected.
  EXPECT_TRUE(ham_->GetGraphQuery(ctx_, 0, "", "", {12345}, {})
                  .status()
                  .IsNotFound());
}

TEST_F(HamQueryTest, LinearizeFollowsOffsetsDepthFirst) {
  auto result = ham_->LinearizeGraph(ctx_, root_, 0, "", "", {}, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // DFS from root: spec (offset 0) before design (offset 9); within
  // spec: req1 (offset 0) before req2 (offset 5).
  EXPECT_EQ(NodeIds(*result),
            (std::vector<NodeIndex>{root_, spec_, req1_, req2_, design_}));
  EXPECT_EQ(result->links.size(), 4u);
}

TEST_F(HamQueryTest, LinearizePrunesByNodePredicate) {
  auto result = ham_->LinearizeGraph(ctx_, root_, 0,
                                     "document != requirements", "", {}, {});
  ASSERT_TRUE(result.ok());
  // spec fails the predicate, so req1/req2 (reachable only through it)
  // are pruned as well.
  EXPECT_EQ(NodeIds(*result), (std::vector<NodeIndex>{root_, design_}));
}

TEST_F(HamQueryTest, LinearizeFiltersByLinkPredicate) {
  Link(root_, req1_, 99, "annotates");
  auto result = ham_->LinearizeGraph(ctx_, root_, 0, "",
                                     "relation = isPartOf", {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NodeIds(*result),
            (std::vector<NodeIndex>{root_, spec_, req1_, req2_, design_}));
  EXPECT_EQ(result->links.size(), 4u);  // the annotates link is excluded
}

TEST_F(HamQueryTest, LinearizeHandlesCycles) {
  Link(req2_, root_, 0, "references");  // cycle back to the root
  auto result = ham_->LinearizeGraph(ctx_, root_, 0, "", "", {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 5u);  // each node exactly once
  EXPECT_EQ(result->links.size(), 5u);  // cycle link included
}

// The depth-first walk keeps its own stack: a chain far deeper than a
// 256 KiB thread stack could hold as recursion still linearizes whole,
// in chain order.
TEST_F(HamQueryTest, LinearizeLongChainOnSmallStack) {
  constexpr size_t kChain = 8000;
  ASSERT_TRUE(ham_->BeginTransaction(ctx_).ok());
  std::vector<NodeIndex> chain;
  for (size_t i = 0; i < kChain; ++i) {
    auto added = ham_->AddNode(ctx_, /*keep_history=*/false);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    if (!chain.empty()) {
      ASSERT_TRUE(ham_->AddLink(ctx_, LinkPt{chain.back(), 0, 0, true},
                                LinkPt{added->node, 0, 0, true})
                      .ok());
    }
    chain.push_back(added->node);
  }
  ASSERT_TRUE(ham_->CommitTransaction(ctx_).ok());

  struct Walk {
    Ham* ham;
    Context ctx;
    NodeIndex start;
    std::optional<Result<SubGraph>> result;
  } walk{ham_.get(), ctx_, chain.front(), std::nullopt};
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 << 10), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* arg) -> void* {
                  Walk* w = static_cast<Walk*>(arg);
                  w->result = w->ham->LinearizeGraph(w->ctx, w->start, 0, "",
                                                     "", {}, {});
                  return nullptr;
                },
                &walk),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);

  ASSERT_TRUE(walk.result.has_value());
  ASSERT_TRUE(walk.result->ok()) << walk.result->status().ToString();
  EXPECT_EQ(NodeIds(**walk.result), chain);
  EXPECT_EQ((*walk.result)->links.size(), kChain - 1);
}

TEST_F(HamQueryTest, LinearizeFromMissingStartFails) {
  EXPECT_TRUE(
      ham_->LinearizeGraph(ctx_, 9999, 0, "", "", {}, {}).status().IsNotFound());
}

TEST_F(HamQueryTest, LinearizeStartFailingPredicateIsEmpty) {
  auto result =
      ham_->LinearizeGraph(ctx_, root_, 0, "document = nowhere", "", {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->nodes.empty());
}

TEST_F(HamQueryTest, HistoricalQuerySeesThePast) {
  const Time before = ham_->GetStats(ctx_)->current_time;
  NodeIndex late = TaggedNode("late addition", "requirements");
  ASSERT_TRUE(ham_->DeleteNode(ctx_, req1_).ok());

  // Now: late is present, req1 is gone.
  auto now = ham_->GetGraphQuery(ctx_, 0, "document = requirements", "", {}, {});
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(NodeIds(*now), (std::vector<NodeIndex>{spec_, req2_, late}));

  // At `before`: req1 present, late absent — "any version ... back to
  // its beginning".
  auto past =
      ham_->GetGraphQuery(ctx_, before, "document = requirements", "", {}, {});
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(NodeIds(*past), (std::vector<NodeIndex>{spec_, req1_, req2_}));
}

TEST_F(HamQueryTest, HistoricalLinearizeUsesOldOffsets) {
  // Move spec's attachment offset within root and verify the old
  // traversal order is reproduced at the old time.
  auto opened = ham_->OpenNode(ctx_, root_, 0, {});
  ASSERT_TRUE(opened.ok());
  // A time after the links were created but before the reorder below.
  const Time before = ham_->GetStats(ctx_)->current_time;
  std::vector<AttachmentUpdate> updates;
  for (const auto& att : opened->attachments) {
    // Push spec's link beyond design's offset 9.
    uint64_t new_position = att.position == 0 ? 50 : att.position;
    updates.push_back(AttachmentUpdate{att.link, att.is_source_end,
                                       new_position});
  }
  ASSERT_TRUE(ham_->ModifyNode(ctx_, root_, opened->current_version_time,
                               "root rewritten", updates, "reorder")
                  .ok());
  auto now = ham_->LinearizeGraph(ctx_, root_, 0, "", "", {}, {});
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(NodeIds(*now),
            (std::vector<NodeIndex>{root_, design_, spec_, req1_, req2_}));
  auto past = ham_->LinearizeGraph(ctx_, root_, before, "", "", {}, {});
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(NodeIds(*past),
            (std::vector<NodeIndex>{root_, spec_, req1_, req2_, design_}));
}

TEST_F(HamQueryTest, LinkAttributeProjection) {
  auto result = ham_->GetGraphQuery(ctx_, 0, "", "", {}, {relation_});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->links.size(), 4u);
  for (const auto& link : result->links) {
    ASSERT_EQ(link.attribute_values.size(), 1u);
    ASSERT_TRUE(link.attribute_values[0].has_value());
    EXPECT_EQ(*link.attribute_values[0], "isPartOf");
  }
}

TEST_F(HamQueryTest, HistoricalAttributeProjection) {
  // Retag spec; a historical projection must return the old value.
  const Time before = ham_->GetStats(ctx_)->current_time;
  ASSERT_TRUE(
      ham_->SetNodeAttributeValue(ctx_, spec_, document_, "archive").ok());
  auto past = ham_->GetGraphQuery(ctx_, before, "document = requirements", "",
                                  {document_}, {});
  ASSERT_TRUE(past.ok());
  ASSERT_FALSE(past->nodes.empty());
  EXPECT_EQ(*past->nodes[0].attribute_values[0], "requirements");
  auto now = ham_->GetGraphQuery(ctx_, 0, "document = archive", "",
                                 {document_}, {});
  ASSERT_TRUE(now.ok());
  ASSERT_EQ(now->nodes.size(), 1u);
  EXPECT_EQ(*now->nodes[0].attribute_values[0], "archive");
}

TEST_F(HamQueryTest, OpenGraphDemonFires) {
  std::vector<DemonInvocation> fired;
  ham_->demons().Register("audit", [&](const DemonInvocation& inv) {
    fired.push_back(inv);
  });
  ASSERT_TRUE(
      ham_->SetGraphDemonValue(ctx_, Event::kOpenGraph, "audit opens").ok());
  auto another = ham_->OpenGraph(project_, "local", dir_);
  ASSERT_TRUE(another.ok());
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].event, Event::kOpenGraph);
  EXPECT_EQ(fired[0].graph, project_);
  ASSERT_TRUE(ham_->CloseGraph(*another).ok());
}

TEST_F(HamQueryTest, BadPredicateSyntaxIsInvalidArgument) {
  EXPECT_TRUE(ham_->GetGraphQuery(ctx_, 0, "document =", "", {}, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ham_->LinearizeGraph(ctx_, root_, 0, "", "a ? b", {}, {})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace ham
}  // namespace neptune
