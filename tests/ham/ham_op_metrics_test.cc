// Every HAM operation is one instrumented scope: its span records one
// sample into its op-class histogram `ham.op.<class>` and bumps
// `ham.op.<class>.count` by exactly one — no op unrecorded, none
// counted twice (an op built on another op's body included).

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "tests/ham/ham_test_util.h"

namespace neptune {
namespace ham {
namespace {

// Current value of every ham.op.<class>.count counter.
std::map<std::string, uint64_t> OpCounts() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       MetricsRegistry::Instance().Snapshot().counters) {
    if (name.rfind("ham.op.", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".count") == 0) {
      out[name] = value;
    }
  }
  return out;
}

// The counters that moved between two OpCounts() readings, by how much.
std::map<std::string, uint64_t> Moved(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const uint64_t old = it == before.end() ? 0 : it->second;
    if (value != old) out[name] = value - old;
  }
  return out;
}

class HamOpMetricsTest : public HamTestBase {};

TEST_F(HamOpMetricsTest, CopyLinkIsOneStructureOp) {
  const NodeIndex a = MakeNode("a\n");
  const NodeIndex b = MakeNode("b\n");
  auto link = ham_->AddLink(ctx_, LinkPt{a, 0, 0, true}, LinkPt{b, 0, 0, true});
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  const auto before = OpCounts();
  auto copied = ham_->CopyLink(ctx_, link->link, 0, /*copy_source=*/true,
                               LinkPt{a, 0, 0, true});
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  const std::map<std::string, uint64_t> expected = {
      {"ham.op.structure.count", 1}};
  EXPECT_EQ(Moved(before, OpCounts()), expected);
}

TEST_F(HamOpMetricsTest, EveryOpRecordsOneSampleInItsClass) {
  const NodeIndex a = MakeNode("one\ntwo\n");
  const NodeIndex b = MakeNode("three\n");
  const NodeIndex unlinked = MakeNode("five\n");
  ASSERT_TRUE(
      ham_->ModifyNode(ctx_, b, ham_->GetNodeTimeStamp(ctx_, b).value(),
                       "three\nfour\n", {}, "second")
          .ok());
  const AttributeIndex attr = Attr("kind");
  auto link = ham_->AddLink(ctx_, LinkPt{a, 0, 0, true}, LinkPt{b, 0, 0, true});
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  const LinkIndex l = link->link;
  ASSERT_TRUE(ham_->SetNodeAttributeValue(ctx_, a, attr, "doc").ok());
  ASSERT_TRUE(ham_->SetLinkAttributeValue(ctx_, l, attr, "ref").ok());
  auto branch = ham_->CreateContext(ctx_, "branch");
  ASSERT_TRUE(branch.ok()) << branch.status().ToString();
  const ThreadId thread = branch->thread;

  const std::string other_dir = dir_ + "_other";
  env_->RemoveDirRecursive(other_dir);
  ProjectId other_project = 0;
  Context other_ctx;
  Context branch_ctx;
  NodeIndex scratch_node = 0;
  LinkIndex scratch_link = 0;
  const Time unlinked_time = ham_->GetNodeTimeStamp(ctx_, unlinked).value();
  const Time b_created = ham_->GetNodeVersions(ctx_, b)->major.front().time;

  struct Case {
    const char* op;
    const char* family;  // the one ham.op.<family>.count that must move
    std::function<Status()> call;
  };
  const std::vector<Case> cases = {
      {"createGraph", "graph",
       [&] {
         auto r = ham_->CreateGraph(other_dir, 0755);
         if (r.ok()) other_project = r->project;
         return r.status();
       }},
      {"openGraph", "graph",
       [&] {
         auto r = ham_->OpenGraph(other_project, "local", other_dir);
         if (r.ok()) other_ctx = *r;
         return r.status();
       }},
      {"closeGraph", "graph", [&] { return ham_->CloseGraph(other_ctx); }},
      {"destroyGraph", "graph",
       [&] { return ham_->DestroyGraph(other_project, other_dir); }},
      {"beginTransaction", "txn",
       [&] { return ham_->BeginTransaction(ctx_); }},
      {"commitTransaction", "txn",
       [&] { return ham_->CommitTransaction(ctx_); }},
      {"beginTransaction", "txn",
       [&] { return ham_->BeginTransaction(ctx_); }},
      {"abortTransaction", "txn",
       [&] { return ham_->AbortTransaction(ctx_); }},
      {"addNode", "structure",
       [&] {
         auto r = ham_->AddNode(ctx_, true);
         if (r.ok()) scratch_node = r->node;
         return r.status();
       }},
      {"addLink", "structure",
       [&] {
         auto r = ham_->AddLink(ctx_, LinkPt{b, 0, 0, true},
                                LinkPt{scratch_node, 0, 0, true});
         if (r.ok()) scratch_link = r->link;
         return r.status();
       }},
      {"copyLink", "structure",
       [&] {
         return ham_->CopyLink(ctx_, scratch_link, 0, true,
                               LinkPt{a, 0, 0, true})
             .status();
       }},
      {"deleteLink", "structure",
       [&] { return ham_->DeleteLink(ctx_, scratch_link); }},
      {"deleteNode", "structure",
       [&] { return ham_->DeleteNode(ctx_, scratch_node); }},
      {"linearizeGraph", "query",
       [&] {
         return ham_->LinearizeGraph(ctx_, a, 0, "", "", {attr}, {attr})
             .status();
       }},
      {"getGraphQuery", "query",
       [&] {
         return ham_->GetGraphQuery(ctx_, 0, "kind = doc", "", {}, {})
             .status();
       }},
      {"getGraphQueryExplained", "query",
       [&] {
         QueryOptions options;
         options.verify = true;
         return ham_
             ->GetGraphQueryExplained(ctx_, 0, "kind = doc", "", {}, {},
                                      options)
             .status();
       }},
      {"openNode", "node",
       [&] { return ham_->OpenNode(ctx_, a, 0, {attr}).status(); }},
      {"modifyNode", "node",
       [&] {
         return ham_->ModifyNode(ctx_, unlinked, unlinked_time, "six\n", {},
                                 "edit");
       }},
      {"getNodeTimeStamp", "node",
       [&] { return ham_->GetNodeTimeStamp(ctx_, b).status(); }},
      {"changeNodeProtection", "node",
       [&] { return ham_->ChangeNodeProtection(ctx_, b, 0644); }},
      {"getNodeVersions", "node",
       [&] { return ham_->GetNodeVersions(ctx_, b).status(); }},
      {"getNodeDifferences", "node",
       [&] {
         return ham_->GetNodeDifferences(ctx_, b, b_created, 0).status();
       }},
      {"getToNode", "link",
       [&] { return ham_->GetToNode(ctx_, l, 0).status(); }},
      {"getFromNode", "link",
       [&] { return ham_->GetFromNode(ctx_, l, 0).status(); }},
      {"getAttributes", "attribute",
       [&] { return ham_->GetAttributes(ctx_, 0).status(); }},
      {"getAttributeValues", "attribute",
       [&] { return ham_->GetAttributeValues(ctx_, attr, 0).status(); }},
      {"getAttributeIndex", "attribute",
       [&] { return ham_->GetAttributeIndex(ctx_, "kind").status(); }},
      {"setNodeAttributeValue", "attribute",
       [&] { return ham_->SetNodeAttributeValue(ctx_, b, attr, "code"); }},
      {"getNodeAttributeValue", "attribute",
       [&] { return ham_->GetNodeAttributeValue(ctx_, b, attr, 0).status(); }},
      {"getNodeAttributes", "attribute",
       [&] { return ham_->GetNodeAttributes(ctx_, b, 0).status(); }},
      {"deleteNodeAttribute", "attribute",
       [&] { return ham_->DeleteNodeAttribute(ctx_, b, attr); }},
      {"setLinkAttributeValue", "attribute",
       [&] { return ham_->SetLinkAttributeValue(ctx_, l, attr, "cite"); }},
      {"getLinkAttributeValue", "attribute",
       [&] { return ham_->GetLinkAttributeValue(ctx_, l, attr, 0).status(); }},
      {"getLinkAttributes", "attribute",
       [&] { return ham_->GetLinkAttributes(ctx_, l, 0).status(); }},
      {"deleteLinkAttribute", "attribute",
       [&] { return ham_->DeleteLinkAttribute(ctx_, l, attr); }},
      {"setGraphDemonValue", "demon",
       [&] {
         return ham_->SetGraphDemonValue(ctx_, Event::kAddNode, "nobody");
       }},
      {"getGraphDemons", "demon",
       [&] { return ham_->GetGraphDemons(ctx_, 0).status(); }},
      {"setNodeDemon", "demon",
       [&] { return ham_->SetNodeDemon(ctx_, a, Event::kOpenNode, "nobody"); }},
      {"getNodeDemons", "demon",
       [&] { return ham_->GetNodeDemons(ctx_, a, 0).status(); }},
      {"createContext", "context",
       [&] { return ham_->CreateContext(ctx_, "second").status(); }},
      {"openContext", "context",
       [&] {
         auto r = ham_->OpenContext(ctx_, thread);
         if (r.ok()) branch_ctx = *r;
         return r.status();
       }},
      {"contextThread", "context",
       [&] { return ham_->ContextThread(branch_ctx).status(); }},
      {"listContexts", "context",
       [&] { return ham_->ListContexts(ctx_).status(); }},
      {"mergeContext", "context",
       [&] { return ham_->MergeContext(ctx_, thread, false); }},
      {"getStats", "admin", [&] { return ham_->GetStats(ctx_).status(); }},
      {"verifyGraph", "admin",
       [&] { return ham_->VerifyGraph(ctx_).status(); }},
      {"checkpoint", "admin", [&] { return ham_->Checkpoint(ctx_); }},
      {"pruneHistory", "admin",
       [&] { return ham_->PruneHistory(ctx_, 1).status(); }},
      {"replStatus", "repl", [&] { return ham_->ReplStatus(dir_).status(); }},
      {"replListGraphs", "repl",
       [&] { return ham_->ReplListGraphs(dir_).status(); }},
      {"replFetch", "repl",
       [&] {
         ReplFetchRequest request;
         request.directory = dir_;
         request.follower_id = "op-metrics";
         return ham_->ReplFetch(request).status();
       }},
      {"promote", "repl", [&] { return ham_->Promote().status(); }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.op);
    const auto before = OpCounts();
    const Status status = c.call();
    EXPECT_TRUE(status.ok()) << status.ToString();
    const std::map<std::string, uint64_t> expected = {
        {std::string("ham.op.") + c.family + ".count", 1}};
    EXPECT_EQ(Moved(before, OpCounts()), expected);
  }
}

// ham.overlay.copy_bytes counts what a write's copy-on-write
// duplicates: scalars, current contents and unshared history tails.
// The shared history chunks are not copied, so a write to a deep node
// copies no more than one to a shallow node with the same contents,
// plus one tail.
class HamOverlayCopyTest : public HamTestBase {
 protected:
  static uint64_t CopiedBytes() {
    const auto counters = MetricsRegistry::Instance().Snapshot().counters;
    auto it = counters.find("ham.overlay.copy_bytes");
    return it == counters.end() ? 0 : it->second;
  }

  // A node with `versions` versions (its creation included) whose
  // contents alternate between two same-sized texts, ending on kText.
  NodeIndex NodeWithVersions(int versions) {
    auto added = ham_->AddNode(ctx_, true);
    EXPECT_TRUE(added.ok());
    Time expected = added->creation_time;
    for (int v = versions - 1; v > 0; --v) {
      EXPECT_TRUE(ham_->ModifyNode(ctx_, added->node, expected,
                                   v % 2 == 1 ? kText : kOtherText, {}, "edit")
                      .ok());
      expected = *ham_->GetNodeTimeStamp(ctx_, added->node);
    }
    return added->node;
  }

  // Bytes copied by one more modifyNode of `node`.
  uint64_t BytesCopiedByModify(NodeIndex node) {
    const Time expected = *ham_->GetNodeTimeStamp(ctx_, node);
    const uint64_t before = CopiedBytes();
    EXPECT_TRUE(
        ham_->ModifyNode(ctx_, node, expected, kOtherText, {}, "edit").ok());
    return CopiedBytes() - before;
  }

  const std::string kText = std::string(2048, 'a') + "\n";
  const std::string kOtherText = std::string(2048, 'b') + "\n";
};

TEST_F(HamOverlayCopyTest, DeepWriteCopiesNoMoreThanShallowPlusOneTail) {
  const NodeIndex shallow = NodeWithVersions(2);
  // 1024 versions fill one tail of every history the write touches
  // (versions, deltas, and keyframes every 16th version).
  const NodeIndex full_tail = NodeWithVersions(1024);
  const NodeIndex deep = NodeWithVersions(4096);

  const uint64_t shallow_bytes = BytesCopiedByModify(shallow);
  const uint64_t one_tail = BytesCopiedByModify(full_tail) - shallow_bytes;
  const uint64_t deep_bytes = BytesCopiedByModify(deep);
  EXPECT_GE(shallow_bytes, kText.size());  // the current contents
  EXPECT_LE(deep_bytes, shallow_bytes + one_tail);
  // A whole-history copy would duplicate every one of the 4096 version
  // entries and deltas.
  EXPECT_LT(deep_bytes, 4096 * sizeof(delta::VersionInfo));
}

TEST_F(HamOverlayCopyTest, ExplicitTransactionCopiesOnce) {
  const NodeIndex node = NodeWithVersions(300);
  ASSERT_TRUE(ham_->BeginTransaction(ctx_).ok());
  std::vector<uint64_t> copied;
  for (int i = 0; i < 3; ++i) {
    const Time expected = *ham_->GetNodeTimeStamp(ctx_, node);
    const uint64_t before = CopiedBytes();
    ASSERT_TRUE(ham_->ModifyNode(ctx_, node, expected,
                                 i % 2 == 0 ? kOtherText : kText, {}, "edit")
                    .ok());
    copied.push_back(CopiedBytes() - before);
  }
  ASSERT_TRUE(ham_->CommitTransaction(ctx_).ok());
  // The first write stages the record; the others reuse the overlay's.
  EXPECT_GE(copied[0], kText.size());
  EXPECT_EQ(copied[1], 0u);
  EXPECT_EQ(copied[2], 0u);
}

}  // namespace
}  // namespace ham
}  // namespace neptune
