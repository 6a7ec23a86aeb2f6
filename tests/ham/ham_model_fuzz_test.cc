// Model-based fuzzing: random operation sequences run against the real
// engine and a trivially-correct in-memory reference model, comparing
// contents, attributes and query results at the current time AND at
// random historical times — with transactions (commit and abort) and
// full engine restarts (recovery) injected along the way.
//
// The DeepHistories instantiation sends most modifies and attribute
// sets to two hot nodes, so their histories pass 200 entries and span
// several shared chunks, and mixes in more aborted transactions and
// PruneHistory calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <set>

#include "common/random.h"
#include "tests/ham/ham_test_util.h"

namespace neptune {
namespace ham {
namespace {

constexpr const char* kValues[] = {"alpha", "beta", "gamma"};

// ------------------------------------------------------------- model

struct ModelNode {
  Time created = 0;
  Time deleted = 0;  // 0 = alive
  // (time, contents), ascending; starts with (created, "").
  std::vector<std::pair<Time, std::string>> versions;
  // attr -> (time, value-or-tombstone), ascending.
  std::map<AttributeIndex, std::vector<std::pair<Time, std::optional<std::string>>>>
      attrs;

  bool ExistsAt(Time t) const {
    if (t == 0) return deleted == 0;
    return created <= t && (deleted == 0 || t < deleted);
  }

  // Contents at t; nullopt when no version is in effect.
  std::optional<std::string> ContentsAt(Time t) const {
    const std::string* last = nullptr;
    for (const auto& [vt, contents] : versions) {
      if (t != 0 && vt > t) break;
      last = &contents;
    }
    if (last == nullptr) return std::nullopt;
    return *last;
  }

  std::optional<std::string> AttrAt(AttributeIndex attr, Time t) const {
    auto it = attrs.find(attr);
    if (it == attrs.end()) return std::nullopt;
    std::optional<std::string> last;
    bool any = false;
    for (const auto& [at, value] : it->second) {
      if (t != 0 && at > t) break;
      last = value;
      any = true;
    }
    if (!any) return std::nullopt;
    return last;
  }
};

struct ModelLink {
  NodeIndex from = 0;
  NodeIndex to = 0;
  Time created = 0;
  Time deleted = 0;
};

// A staged model mutation (applied on commit, dropped on abort).
struct Model {
  std::map<NodeIndex, ModelNode> nodes;
  std::map<LinkIndex, ModelLink> links;
};

struct FuzzMode {
  int seed = 0;
  bool deep = false;  // hot nodes, prunes, more aborts
};

// Prints the seed alone, so the instantiations keep the test names
// `Seeds/…/<seed>` and `DeepHistories/…/<seed>`.
void PrintTo(const FuzzMode& mode, std::ostream* os) { *os << mode.seed; }

class HamModelFuzzTest : public HamTestBase,
                         public ::testing::WithParamInterface<FuzzMode> {
 protected:
  void SetUp() override {
    HamTestBase::SetUp();
    kind_ = Attr("kind");
    owner_ = Attr("owner");
  }

  Time Now() { return ham_->GetStats(ctx_)->current_time; }

  // Live model nodes (committed view).
  std::vector<NodeIndex> LiveNodes() {
    std::vector<NodeIndex> out;
    for (const auto& [index, node] : committed_.nodes) {
      if (node.deleted == 0) out.push_back(index);
    }
    return out;
  }

  std::vector<LinkIndex> LiveLinks() {
    std::vector<LinkIndex> out;
    for (const auto& [index, link] : committed_.links) {
      if (link.deleted == 0) out.push_back(index);
    }
    return out;
  }

  // A target node: in deep mode usually one of the two oldest live
  // nodes, so their histories grow deep.
  NodeIndex Pick(Random* rng, const std::vector<NodeIndex>& live) {
    if (GetParam().deep && !rng->OneIn(10)) {
      return live[rng->Uniform(std::min<size_t>(2, live.size()))];
    }
    return live[rng->Uniform(live.size())];
  }

  // ---- operations against BOTH engine and model ------------------

  void DoAddNode(Random* rng) {
    auto added = ham_->AddNode(ctx_, true);
    ASSERT_TRUE(added.ok());
    ModelNode node;
    node.created = added->creation_time;
    node.versions.emplace_back(added->creation_time, "");
    Working().nodes.emplace(added->node, std::move(node));
    (void)rng;
  }

  void DoModifyNode(Random* rng) {
    auto live = LiveWorkingNodes();
    if (live.empty()) return;
    const NodeIndex n = Pick(rng, live);
    auto opened = ham_->OpenNode(ctx_, n, 0, {});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::vector<AttachmentUpdate> updates;
    for (const auto& att : opened->attachments) {
      updates.push_back({att.link, att.is_source_end, att.position});
    }
    const std::string contents = rng->NextBytes(rng->Uniform(200));
    Status st = ham_->ModifyNode(ctx_, n, opened->current_version_time,
                                 contents, updates, "fuzz");
    ASSERT_TRUE(st.ok()) << st.ToString();
    Working().nodes[n].versions.emplace_back(Now(), contents);
  }

  void DoDeleteNode(Random* rng) {
    auto live = LiveWorkingNodes();
    if (live.empty()) return;
    const NodeIndex n = live[rng->Uniform(live.size())];
    ASSERT_TRUE(ham_->DeleteNode(ctx_, n).ok());
    const Time t = Now();
    Model& model = Working();
    model.nodes[n].deleted = t;
    for (auto& [index, link] : model.links) {
      (void)index;
      if (link.deleted == 0 && (link.from == n || link.to == n)) {
        link.deleted = t;
      }
    }
  }

  void DoAddLink(Random* rng) {
    auto live = LiveWorkingNodes();
    if (live.size() < 2) return;
    const NodeIndex a = live[rng->Uniform(live.size())];
    const NodeIndex b = live[rng->Uniform(live.size())];
    auto added = ham_->AddLink(ctx_, LinkPt{a, rng->Uniform(50), 0, true},
                               LinkPt{b, 0, 0, true});
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    Working().links.emplace(added->link,
                            ModelLink{a, b, added->creation_time, 0});
  }

  void DoDeleteLink(Random* rng) {
    auto live = LiveWorkingLinks();
    if (live.empty()) return;
    const LinkIndex l = live[rng->Uniform(live.size())];
    ASSERT_TRUE(ham_->DeleteLink(ctx_, l).ok());
    Working().links[l].deleted = Now();
  }

  void DoSetAttr(Random* rng) {
    auto live = LiveWorkingNodes();
    if (live.empty()) return;
    const NodeIndex n = Pick(rng, live);
    const AttributeIndex attr = rng->OneIn(2) ? kind_ : owner_;
    const std::string value = kValues[rng->Uniform(3)];
    ASSERT_TRUE(ham_->SetNodeAttributeValue(ctx_, n, attr, value).ok());
    Working().nodes[n].attrs[attr].emplace_back(Now(), value);
  }

  void DoDeleteAttr(Random* rng) {
    auto live = LiveWorkingNodes();
    if (live.empty()) return;
    const NodeIndex n = Pick(rng, live);
    const AttributeIndex attr = rng->OneIn(2) ? kind_ : owner_;
    ASSERT_TRUE(ham_->DeleteNodeAttribute(ctx_, n, attr).ok());
    ModelNode& node = Working().nodes[n];
    if (node.attrs.count(attr) != 0 && !node.attrs[attr].empty()) {
      node.attrs[attr].emplace_back(Now(), std::nullopt);
    }
  }

  // Drops history before a recent time. Reads at or after the horizon
  // are unaffected, so the model only stops checking earlier times.
  void DoPrune(Random* rng, const std::vector<Time>& interesting_times) {
    if (interesting_times.empty()) return;
    const Time before =
        interesting_times[rng->Uniform(interesting_times.size())];
    if (before <= prune_horizon_) return;
    ASSERT_TRUE(ham_->PruneHistory(ctx_, before).ok());
    prune_horizon_ = before;
  }

  // ---- transaction plumbing for the model -------------------------

  Model& Working() { return in_txn_ ? staged_ : committed_; }

  std::vector<NodeIndex> LiveWorkingNodes() {
    std::set<NodeIndex> out;
    for (const auto& [i, n] : committed_.nodes) {
      if (n.deleted == 0) out.insert(i);
    }
    if (in_txn_) {
      for (const auto& [i, n] : staged_.nodes) {
        if (n.deleted == 0) {
          out.insert(i);
        } else {
          out.erase(i);
        }
      }
    }
    return {out.begin(), out.end()};
  }

  std::vector<LinkIndex> LiveWorkingLinks() {
    std::set<LinkIndex> out;
    for (const auto& [i, l] : committed_.links) {
      if (l.deleted == 0) out.insert(i);
    }
    if (in_txn_) {
      for (const auto& [i, l] : staged_.links) {
        if (l.deleted == 0) {
          out.insert(i);
        } else {
          out.erase(i);
        }
      }
    }
    return {out.begin(), out.end()};
  }

  void BeginTxn() {
    ASSERT_TRUE(ham_->BeginTransaction(ctx_).ok());
    in_txn_ = true;
    staged_ = Model();
  }

  void EndTxn(bool commit) {
    if (commit) {
      ASSERT_TRUE(ham_->CommitTransaction(ctx_).ok());
      // Fold staged model state into committed state. Staged entries
      // for existing objects carry only their *new* mutations, so we
      // merge field-wise.
      for (auto& [index, staged] : staged_.nodes) {
        auto it = committed_.nodes.find(index);
        if (it == committed_.nodes.end()) {
          committed_.nodes.emplace(index, std::move(staged));
          continue;
        }
        ModelNode& base = it->second;
        if (staged.deleted != 0) base.deleted = staged.deleted;
        for (auto& v : staged.versions) {
          if (v.first > base.versions.back().first) {
            base.versions.push_back(std::move(v));
          }
        }
        for (auto& [attr, history] : staged.attrs) {
          auto& target = base.attrs[attr];
          for (auto& entry : history) {
            if (target.empty() || entry.first > target.back().first) {
              target.push_back(std::move(entry));
            }
          }
        }
      }
      for (auto& [index, staged] : staged_.links) {
        auto it = committed_.links.find(index);
        if (it == committed_.links.end()) {
          committed_.links.emplace(index, staged);
        } else if (staged.deleted != 0) {
          it->second.deleted = staged.deleted;
        }
      }
    } else {
      ASSERT_TRUE(ham_->AbortTransaction(ctx_).ok());
    }
    staged_ = Model();
    in_txn_ = false;
  }

  // But: mutations inside a txn touch the COMMITTED model copies when
  // the object pre-exists (Working() returns staged_, which lacks the
  // base entry). Stage copies on demand instead:
  void EnsureStaged(NodeIndex n) {
    if (!in_txn_) return;
    if (staged_.nodes.count(n) == 0 && committed_.nodes.count(n) != 0) {
      staged_.nodes[n] = committed_.nodes[n];
    }
  }

  void EnsureStagedLink(LinkIndex l) {
    if (!in_txn_) return;
    if (staged_.links.count(l) == 0 && committed_.links.count(l) != 0) {
      staged_.links[l] = committed_.links[l];
    }
  }

  // ---- verification ------------------------------------------------

  void VerifyAt(Random* rng, Time t) {
    ASSERT_FALSE(in_txn_);
    for (const auto& [index, model_node] : committed_.nodes) {
      if (rng->Uniform(committed_.nodes.size()) > 20) continue;  // sample
      auto opened = ham_->OpenNode(ctx_, index, t, {});
      std::optional<std::string> expected;
      if (model_node.ExistsAt(t)) expected = model_node.ContentsAt(t);
      if (!expected.has_value()) {
        EXPECT_FALSE(opened.ok())
            << "node " << index << " should not exist at t=" << t;
        continue;
      }
      ASSERT_TRUE(opened.ok())
          << "node " << index << " missing at t=" << t << ": "
          << opened.status().ToString();
      EXPECT_EQ(opened->contents, *expected) << "node " << index << " t=" << t;
      // Attributes.
      for (AttributeIndex attr : {kind_, owner_}) {
        auto value = ham_->GetNodeAttributeValue(ctx_, index, attr, t);
        std::optional<std::string> model_value = model_node.AttrAt(attr, t);
        if (model_value.has_value()) {
          ASSERT_TRUE(value.ok()) << "node " << index << " attr at t=" << t;
          EXPECT_EQ(*value, *model_value);
        } else {
          EXPECT_FALSE(value.ok()) << "node " << index << " attr at t=" << t;
        }
      }
    }
    // A query per value: exact node-set equality with the model.
    for (const char* value : kValues) {
      auto result = ham_->GetGraphQuery(
          ctx_, t, std::string("kind = ") + value, "", {}, {});
      ASSERT_TRUE(result.ok());
      std::set<NodeIndex> got;
      for (const auto& node : result->nodes) got.insert(node.node);
      std::set<NodeIndex> expected;
      for (const auto& [index, node] : committed_.nodes) {
        if (!node.ExistsAt(t)) continue;
        auto v = node.AttrAt(kind_, t);
        if (v.has_value() && *v == value) expected.insert(index);
      }
      EXPECT_EQ(got, expected) << "query kind=" << value << " at t=" << t;
    }
  }

  AttributeIndex kind_ = 0;
  AttributeIndex owner_ = 0;
  Time prune_horizon_ = 0;  // historical reads before it are not checked
  Model committed_;
  Model staged_;
  bool in_txn_ = false;
};

TEST_P(HamModelFuzzTest, RandomOperationsMatchModel) {
  const bool deep = GetParam().deep;
  Random rng(90210 + GetParam().seed);
  std::vector<Time> interesting_times;
  // Only times at or after the prune horizon are still readable.
  auto verify_at_random_time = [&] {
    const Time t = interesting_times[rng.Uniform(interesting_times.size())];
    if (t >= prune_horizon_) VerifyAt(&rng, t);
  };

  const int steps = deep ? 800 : 250;
  for (int step = 0; step < steps; ++step) {
    // Occasionally open/close a transaction around a run of ops; deep
    // runs abort half of them midway.
    if (!in_txn_ && rng.OneIn(12)) {
      BeginTxn();
    } else if (in_txn_ && rng.OneIn(4)) {
      EndTxn(/*commit=*/deep ? rng.OneIn(2) : !rng.OneIn(3));
    }

    const uint64_t pick = rng.Uniform(100);
    // Deep runs add few nodes, so the hot ones take most of the writes.
    const uint64_t add_below = deep ? 4 : 25;
    if (pick < add_below) {
      DoAddNode(&rng);
    } else if (deep && pick < 6) {
      if (!in_txn_) DoPrune(&rng, interesting_times);
    } else {
      // Stage model copies so in-transaction mutations of pre-existing
      // objects land on full histories, mirroring the engine's COW.
      for (NodeIndex n : LiveWorkingNodes()) EnsureStaged(n);
      for (LinkIndex l : LiveWorkingLinks()) EnsureStagedLink(l);
      if (pick < 45) {
        DoModifyNode(&rng);
      } else if (pick < (deep ? 46 : 52)) {
        DoDeleteNode(&rng);
      } else if (pick < 67) {
        DoAddLink(&rng);
      } else if (pick < 74) {
        DoDeleteLink(&rng);
      } else if (pick < 92) {
        DoSetAttr(&rng);
      } else {
        DoDeleteAttr(&rng);
      }
    }
    if (!in_txn_ && rng.OneIn(10)) {
      interesting_times.push_back(Now());
    }

    // Periodic verification + occasional restart (recovery).
    if (!in_txn_ && step % 50 == 49) {
      if (rng.OneIn(3)) {
        ASSERT_TRUE(ham_->Checkpoint(ctx_).ok());
      }
      if (rng.OneIn(2)) {
        Reopen();  // crash-and-recover equivalence
      }
      VerifyAt(&rng, 0);
      for (int k = 0; k < 3 && !interesting_times.empty(); ++k) {
        verify_at_random_time();
      }
    }
  }
  if (in_txn_) EndTxn(true);
  VerifyAt(&rng, 0);
  for (Time t : interesting_times) {
    if (t >= prune_horizon_) VerifyAt(&rng, t);
  }
  if (deep) {
    // The hot nodes' histories outgrew several shared chunks.
    size_t deepest = 0;
    for (const auto& [index, node] : committed_.nodes) {
      (void)index;
      size_t entries = node.versions.size();
      for (const auto& [attr, history] : node.attrs) {
        (void)attr;
        entries += history.size();
      }
      deepest = std::max(deepest, entries);
    }
    EXPECT_GT(deepest, 200u);
  }
}

std::vector<FuzzMode> Modes(int count, bool deep) {
  std::vector<FuzzMode> out;
  for (int seed = 0; seed < count; ++seed) out.push_back({seed, deep});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HamModelFuzzTest,
                         ::testing::ValuesIn(Modes(8, false)));
INSTANTIATE_TEST_SUITE_P(DeepHistories, HamModelFuzzTest,
                         ::testing::ValuesIn(Modes(4, true)));

}  // namespace
}  // namespace ham
}  // namespace neptune
