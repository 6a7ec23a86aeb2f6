// The §5 extensions: demons (with parameterized invocation records)
// and contexts / multiple version threads with merge.

#include <gtest/gtest.h>

#include "ham/ham.h"
#include "tests/ham/ham_test_util.h"

namespace neptune {
namespace ham {
namespace {

class HamDemonTest : public HamTestBase {
 protected:
  // Records every invocation of the "record" demon callback.
  void SetUp() override {
    HamTestBase::SetUp();
    ham_->demons().Register("record", [this](const DemonInvocation& inv) {
      invocations_.push_back(inv);
    });
  }

  std::vector<DemonInvocation> invocations_;
};

TEST_F(HamDemonTest, GraphDemonFiresOnMatchingEvent) {
  ASSERT_TRUE(
      ham_->SetGraphDemonValue(ctx_, Event::kAddNode, "record new-nodes")
          .ok());
  auto added = ham_->AddNode(ctx_, true);
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(invocations_.size(), 1u);
  // The §5 parameterized invocation record.
  EXPECT_EQ(invocations_[0].event, Event::kAddNode);
  EXPECT_EQ(invocations_[0].node, added->node);
  EXPECT_EQ(invocations_[0].graph, project_);
  EXPECT_EQ(invocations_[0].timestamp, added->creation_time);
  EXPECT_EQ(invocations_[0].demon, "record new-nodes");
  // Unrelated events don't fire it.
  ASSERT_TRUE(ham_->DeleteNode(ctx_, added->node).ok());
  EXPECT_EQ(invocations_.size(), 1u);
}

TEST_F(HamDemonTest, NodeDemonFiresOnThatNodeOnly) {
  NodeIndex watched = MakeNode("watched");
  NodeIndex other = MakeNode("other");
  // "invoking an incremental compiler when a node which contains code
  // is modified" (paper §5).
  ASSERT_TRUE(
      ham_->SetNodeDemon(ctx_, watched, Event::kModifyNode, "record compile")
          .ok());
  auto ts = ham_->GetNodeTimeStamp(ctx_, other);
  ASSERT_TRUE(ham_->ModifyNode(ctx_, other, *ts, "x", {}, "").ok());
  EXPECT_TRUE(invocations_.empty());
  ts = ham_->GetNodeTimeStamp(ctx_, watched);
  ASSERT_TRUE(ham_->ModifyNode(ctx_, watched, *ts, "y", {}, "").ok());
  ASSERT_EQ(invocations_.size(), 1u);
  EXPECT_EQ(invocations_[0].node, watched);
  EXPECT_EQ(invocations_[0].event, Event::kModifyNode);
}

TEST_F(HamDemonTest, NullDemonDisables) {
  ASSERT_TRUE(
      ham_->SetGraphDemonValue(ctx_, Event::kAddNode, "record x").ok());
  ASSERT_TRUE(ham_->AddNode(ctx_, true).ok());
  ASSERT_EQ(invocations_.size(), 1u);
  // "If Demon is null then demon is disabled."
  ASSERT_TRUE(ham_->SetGraphDemonValue(ctx_, Event::kAddNode, "").ok());
  ASSERT_TRUE(ham_->AddNode(ctx_, true).ok());
  EXPECT_EQ(invocations_.size(), 1u);
}

TEST_F(HamDemonTest, DemonsFireOnlyOnCommit) {
  ASSERT_TRUE(
      ham_->SetGraphDemonValue(ctx_, Event::kAddNode, "record x").ok());
  ASSERT_TRUE(ham_->BeginTransaction(ctx_).ok());
  ASSERT_TRUE(ham_->AddNode(ctx_, true).ok());
  EXPECT_TRUE(invocations_.empty()) << "demon fired before commit";
  ASSERT_TRUE(ham_->CommitTransaction(ctx_).ok());
  EXPECT_EQ(invocations_.size(), 1u);

  invocations_.clear();
  ASSERT_TRUE(ham_->BeginTransaction(ctx_).ok());
  ASSERT_TRUE(ham_->AddNode(ctx_, true).ok());
  ASSERT_TRUE(ham_->AbortTransaction(ctx_).ok());
  EXPECT_TRUE(invocations_.empty()) << "aborted txn must not fire demons";
}

TEST_F(HamDemonTest, OpenNodeDemonFires) {
  NodeIndex n = MakeNode("contents");
  ASSERT_TRUE(
      ham_->SetNodeDemon(ctx_, n, Event::kOpenNode, "record read").ok());
  ASSERT_TRUE(ham_->OpenNode(ctx_, n, 0, {}).ok());
  ASSERT_EQ(invocations_.size(), 1u);
  EXPECT_EQ(invocations_[0].event, Event::kOpenNode);
}

TEST_F(HamDemonTest, GetDemonsReturnsHistory) {
  ASSERT_TRUE(
      ham_->SetGraphDemonValue(ctx_, Event::kAddNode, "record a").ok());
  const Time t1 = ham_->GetStats(ctx_)->current_time;
  ASSERT_TRUE(
      ham_->SetGraphDemonValue(ctx_, Event::kAddNode, "record b").ok());
  auto now = ham_->GetGraphDemons(ctx_, 0);
  ASSERT_TRUE(now.ok());
  ASSERT_EQ(now->size(), 1u);
  EXPECT_EQ((*now)[0].demon, "record b");
  auto then = ham_->GetGraphDemons(ctx_, t1);
  ASSERT_TRUE(then.ok());
  ASSERT_EQ(then->size(), 1u);
  EXPECT_EQ((*then)[0].demon, "record a");

  NodeIndex n = MakeNode("x");
  ASSERT_TRUE(ham_->SetNodeDemon(ctx_, n, Event::kModifyNode, "record c").ok());
  auto node_demons = ham_->GetNodeDemons(ctx_, n, 0);
  ASSERT_TRUE(node_demons.ok());
  ASSERT_EQ(node_demons->size(), 1u);
  EXPECT_EQ((*node_demons)[0].demon, "record c");
}

TEST_F(HamDemonTest, UnregisteredDemonValueIsIgnored) {
  ASSERT_TRUE(
      ham_->SetGraphDemonValue(ctx_, Event::kAddNode, "nonexistent-callback")
          .ok());
  EXPECT_TRUE(ham_->AddNode(ctx_, true).ok());  // must not crash
  EXPECT_TRUE(invocations_.empty());
}

// The demon index packs a node demon's event into four bits, so an
// event byte past the last Event would alias another node's demon:
// Event(21) on node n is the openNode demon of node n + 1.
TEST_F(HamDemonTest, OutOfRangeEventIsRejected) {
  NodeIndex first = MakeNode("first");
  NodeIndex second = MakeNode("second");
  ASSERT_EQ(second, first + 1);
  Status node_demon =
      ham_->SetNodeDemon(ctx_, first, static_cast<Event>(21), "record probe");
  EXPECT_TRUE(node_demon.IsInvalidArgument()) << node_demon.ToString();
  Status graph_demon = ham_->SetGraphDemonValue(
      ctx_, static_cast<Event>(static_cast<int>(Event::kCommitTransaction) + 1),
      "record probe");
  EXPECT_TRUE(graph_demon.IsInvalidArgument()) << graph_demon.ToString();
  ASSERT_TRUE(ham_->OpenNode(ctx_, second, 0, {}).ok());
  ASSERT_TRUE(ham_->AddNode(ctx_, true).ok());
  EXPECT_TRUE(invocations_.empty());
}

using HamContextTest = HamTestBase;

TEST_F(HamContextTest, PrivateWorldIsInvisibleToMain) {
  NodeIndex shared = MakeNode("shared base text");

  auto info = ham_->CreateContext(ctx_, "tentative-design");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_NE(info->thread, kMainThread);
  auto branch = ham_->OpenContext(ctx_, info->thread);
  ASSERT_TRUE(branch.ok());

  // Work in the private world.
  auto ts = ham_->GetNodeTimeStamp(*branch, shared);
  ASSERT_TRUE(ts.ok());
  ASSERT_TRUE(
      ham_->ModifyNode(*branch, shared, *ts, "tentative rewrite", {}, "try")
          .ok());
  auto extra = ham_->AddNode(*branch, true);
  ASSERT_TRUE(extra.ok());

  // The branch sees its changes; main does not.
  auto branch_view = ham_->OpenNode(*branch, shared, 0, {});
  ASSERT_TRUE(branch_view.ok());
  EXPECT_EQ(branch_view->contents, "tentative rewrite");
  EXPECT_EQ(ReadNode(shared), "shared base text");
  EXPECT_TRUE(
      ham_->OpenNode(ctx_, extra->node, 0, {}).status().IsNotFound());
  ASSERT_TRUE(ham_->CloseGraph(*branch).ok());
}

TEST_F(HamContextTest, MergeBringsChangesToMain) {
  NodeIndex shared = MakeNode("v1");
  auto info = ham_->CreateContext(ctx_, "experiment");
  ASSERT_TRUE(info.ok());
  auto branch = ham_->OpenContext(ctx_, info->thread);
  ASSERT_TRUE(branch.ok());
  auto ts = ham_->GetNodeTimeStamp(*branch, shared);
  ASSERT_TRUE(ham_->ModifyNode(*branch, shared, *ts, "v2 from branch", {},
                               "branch edit")
                  .ok());
  auto extra = ham_->AddNode(*branch, true);
  ASSERT_TRUE(extra.ok());

  ASSERT_TRUE(ham_->MergeContext(ctx_, info->thread, /*force=*/false).ok());
  EXPECT_EQ(ReadNode(shared), "v2 from branch");
  EXPECT_TRUE(ham_->OpenNode(ctx_, extra->node, 0, {}).ok());
}

TEST_F(HamContextTest, ConflictingMergeIsRejectedUnlessForced) {
  NodeIndex shared = MakeNode("base");
  auto info = ham_->CreateContext(ctx_, "risky");
  ASSERT_TRUE(info.ok());
  auto branch = ham_->OpenContext(ctx_, info->thread);
  ASSERT_TRUE(branch.ok());
  auto branch_ts = ham_->GetNodeTimeStamp(*branch, shared);
  ASSERT_TRUE(
      ham_->ModifyNode(*branch, shared, *branch_ts, "branch version", {}, "")
          .ok());
  // Meanwhile main moves on — a classic conflict.
  auto main_ts = ham_->GetNodeTimeStamp(ctx_, shared);
  ASSERT_TRUE(
      ham_->ModifyNode(ctx_, shared, *main_ts, "main version", {}, "").ok());

  Status conflict = ham_->MergeContext(ctx_, info->thread, false);
  EXPECT_TRUE(conflict.IsConflict()) << conflict.ToString();
  EXPECT_EQ(ReadNode(shared), "main version");

  ASSERT_TRUE(ham_->MergeContext(ctx_, info->thread, /*force=*/true).ok());
  EXPECT_EQ(ReadNode(shared), "branch version");
}

TEST_F(HamContextTest, DisjointEditsMergeCleanly) {
  NodeIndex a = MakeNode("alpha");
  NodeIndex b = MakeNode("beta");
  auto info = ham_->CreateContext(ctx_, "side");
  ASSERT_TRUE(info.ok());
  auto branch = ham_->OpenContext(ctx_, info->thread);
  ASSERT_TRUE(branch.ok());
  // Branch edits a, main edits b: no conflict.
  auto ts_a = ham_->GetNodeTimeStamp(*branch, a);
  ASSERT_TRUE(ham_->ModifyNode(*branch, a, *ts_a, "alpha'", {}, "").ok());
  auto ts_b = ham_->GetNodeTimeStamp(ctx_, b);
  ASSERT_TRUE(ham_->ModifyNode(ctx_, b, *ts_b, "beta'", {}, "").ok());

  ASSERT_TRUE(ham_->MergeContext(ctx_, info->thread, false).ok());
  EXPECT_EQ(ReadNode(a), "alpha'");
  EXPECT_EQ(ReadNode(b), "beta'");
}

TEST_F(HamContextTest, ListContextsShowsThreads) {
  auto initial = ham_->ListContexts(ctx_);
  ASSERT_TRUE(initial.ok());
  ASSERT_EQ(initial->size(), 1u);
  EXPECT_EQ((*initial)[0].thread, kMainThread);
  auto info = ham_->CreateContext(ctx_, "side-world");
  ASSERT_TRUE(info.ok());
  auto all = ham_->ListContexts(ctx_);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[1].name, "side-world");
  EXPECT_GT((*all)[1].branched_at, 0u);
}

TEST_F(HamContextTest, OpenUnknownContextFails) {
  EXPECT_TRUE(ham_->OpenContext(ctx_, 42).status().IsNotFound());
}

TEST_F(HamContextTest, ContextThreadReportsBinding) {
  EXPECT_EQ(*ham_->ContextThread(ctx_), kMainThread);
  auto info = ham_->CreateContext(ctx_, "w");
  auto branch = ham_->OpenContext(ctx_, info->thread);
  ASSERT_TRUE(branch.ok());
  EXPECT_EQ(*ham_->ContextThread(*branch), info->thread);
  ASSERT_TRUE(ham_->CloseGraph(*branch).ok());
}

TEST_F(HamContextTest, ContextsSurviveReopen) {
  NodeIndex shared = MakeNode("base");
  auto info = ham_->CreateContext(ctx_, "persisted-world");
  ASSERT_TRUE(info.ok());
  auto branch = ham_->OpenContext(ctx_, info->thread);
  ASSERT_TRUE(branch.ok());
  auto ts = ham_->GetNodeTimeStamp(*branch, shared);
  ASSERT_TRUE(
      ham_->ModifyNode(*branch, shared, *ts, "branch work", {}, "").ok());

  Reopen();
  auto all = ham_->ListContexts(ctx_);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[1].name, "persisted-world");
  auto branch2 = ham_->OpenContext(ctx_, (*all)[1].thread);
  ASSERT_TRUE(branch2.ok());
  auto view = ham_->OpenNode(*branch2, shared, 0, {});
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->contents, "branch work");
  EXPECT_EQ(ReadNode(shared), "base");
  // Merge still works after recovery.
  ASSERT_TRUE(ham_->MergeContext(ctx_, (*all)[1].thread, false).ok());
  EXPECT_EQ(ReadNode(shared), "branch work");
}

TEST_F(HamContextTest, MergeInsideTransactionIsRejected) {
  auto info = ham_->CreateContext(ctx_, "w");
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(ham_->BeginTransaction(ctx_).ok());
  EXPECT_TRUE(
      ham_->MergeContext(ctx_, info->thread, false).IsFailedPrecondition());
  ASSERT_TRUE(ham_->AbortTransaction(ctx_).ok());
}

TEST_F(HamContextTest, QueriesInBranchSeeBranchState) {
  AttributeIndex doc = Attr("document");
  NodeIndex n = MakeNode("main doc");
  ASSERT_TRUE(ham_->SetNodeAttributeValue(ctx_, n, doc, "spec").ok());
  auto info = ham_->CreateContext(ctx_, "w");
  auto branch = ham_->OpenContext(ctx_, info->thread);
  ASSERT_TRUE(branch.ok());
  ASSERT_TRUE(
      ham_->SetNodeAttributeValue(*branch, n, doc, "design").ok());

  auto main_q = ham_->GetGraphQuery(ctx_, 0, "document = spec", "", {}, {});
  ASSERT_TRUE(main_q.ok());
  EXPECT_EQ(main_q->nodes.size(), 1u);
  auto branch_q =
      ham_->GetGraphQuery(*branch, 0, "document = design", "", {}, {});
  ASSERT_TRUE(branch_q.ok());
  EXPECT_EQ(branch_q->nodes.size(), 1u);
  auto branch_q2 =
      ham_->GetGraphQuery(*branch, 0, "document = spec", "", {}, {});
  ASSERT_TRUE(branch_q2.ok());
  EXPECT_TRUE(branch_q2->nodes.empty());
}

}  // namespace
}  // namespace ham
}  // namespace neptune
