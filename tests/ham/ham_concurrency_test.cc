// Concurrency: "Several persons can access a hyperdocument
// simultaneously" (paper §2.2) — multi-threaded sessions against one
// graph, serialized writers, stable readers, and multi-graph
// independence.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/random.h"
#include "tests/ham/ham_test_util.h"

namespace neptune {
namespace ham {
namespace {

class HamConcurrencyTest : public HamTestBase {};

TEST_F(HamConcurrencyTest, ParallelImplicitWritersAllCommit) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      auto ctx = ham_->OpenGraph(project_, "local", dir_);
      if (!ctx.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto added = ham_->AddNode(*ctx, true);
        if (!added.ok()) {
          ++failures;
          continue;
        }
        Status st = ham_->ModifyNode(
            *ctx, added->node, added->creation_time,
            "writer " + std::to_string(w) + " op " + std::to_string(i), {},
            "");
        if (!st.ok()) ++failures;
      }
      ham_->CloseGraph(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures, 0);
  auto stats = ham_->GetStats(ctx_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->node_count, kThreads * kOpsPerThread);
  // Everything that committed survives recovery.
  Reopen();
  EXPECT_EQ(ham_->GetStats(ctx_)->node_count, kThreads * kOpsPerThread);
}

TEST_F(HamConcurrencyTest, ExplicitTransactionsSerialize) {
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 10;
  std::atomic<int> in_critical{0};
  std::atomic<int> violations{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      auto ctx = ham_->OpenGraph(project_, "local", dir_);
      ASSERT_TRUE(ctx.ok());
      for (int i = 0; i < kTxnsPerThread; ++i) {
        if (!ham_->BeginTransaction(*ctx).ok()) {
          ++failures;
          continue;
        }
        // Only one open transaction may exist per graph.
        if (in_critical.fetch_add(1) != 0) ++violations;
        auto added = ham_->AddNode(*ctx, true);
        if (!added.ok()) ++failures;
        std::this_thread::yield();
        in_critical.fetch_sub(1);
        if (!ham_->CommitTransaction(*ctx).ok()) ++failures;
      }
      ham_->CloseGraph(*ctx);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations, 0) << "two transactions were open simultaneously";
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(ham_->GetStats(ctx_)->node_count, kThreads * kTxnsPerThread);
}

TEST_F(HamConcurrencyTest, ReadersRunAgainstActiveWriters) {
  std::vector<NodeIndex> nodes;
  for (int i = 0; i < 20; ++i) nodes.push_back(MakeNode("stable contents"));
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};

  std::thread writer([&] {
    auto ctx = ham_->OpenGraph(project_, "local", dir_);
    ASSERT_TRUE(ctx.ok());
    while (!stop) {
      auto added = ham_->AddNode(*ctx, true);
      if (added.ok()) ham_->DeleteNode(*ctx, added->node);
    }
    ham_->CloseGraph(*ctx);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto ctx = ham_->OpenGraph(project_, "local", dir_);
      ASSERT_TRUE(ctx.ok());
      for (int i = 0; i < 300; ++i) {
        auto opened = ham_->OpenNode(*ctx, nodes[i % nodes.size()], 0, {});
        if (!opened.ok() || opened->contents != "stable contents") {
          ++read_errors;
        }
        auto query = ham_->GetGraphQuery(*ctx, 0, "", "", {}, {});
        if (!query.ok()) ++read_errors;
      }
      ham_->CloseGraph(*ctx);
    });
  }
  for (auto& t : readers) t.join();
  stop = true;
  writer.join();
  EXPECT_EQ(read_errors, 0);
}

TEST_F(HamConcurrencyTest, IndependentGraphsDontInterfere) {
  // Writers on two different graphs must not serialize against each
  // other (per-graph locking), and state must stay separate.
  const std::string dir2 = dir_ + "_second";
  env_->RemoveDirRecursive(dir2);
  auto created2 = ham_->CreateGraph(dir2, 0755);
  ASSERT_TRUE(created2.ok());
  auto ctx2 = ham_->OpenGraph(created2->project, "local", dir2);
  ASSERT_TRUE(ctx2.ok());

  // Hold a transaction open on graph 1...
  ASSERT_TRUE(ham_->BeginTransaction(ctx_).ok());
  ASSERT_TRUE(ham_->AddNode(ctx_, true).ok());
  // ...and write to graph 2 without blocking.
  std::atomic<bool> done{false};
  std::thread other([&] {
    auto added = ham_->AddNode(*ctx2, true);
    EXPECT_TRUE(added.ok());
    done = true;
  });
  other.join();
  EXPECT_TRUE(done);
  ASSERT_TRUE(ham_->CommitTransaction(ctx_).ok());

  EXPECT_EQ(ham_->GetStats(ctx_)->node_count, 1u);
  EXPECT_EQ(ham_->GetStats(*ctx2)->node_count, 1u);
  ASSERT_TRUE(ham_->CloseGraph(*ctx2).ok());
  ASSERT_TRUE(ham_->DestroyGraph(created2->project, dir2).ok());
}

TEST_F(HamConcurrencyTest, SharedHandleSeesOneAnothersCommits) {
  auto ctx2 = ham_->OpenGraph(project_, "local", dir_);
  ASSERT_TRUE(ctx2.ok());
  NodeIndex n = MakeNode("from session 1");
  auto seen = ham_->OpenNode(*ctx2, n, 0, {});
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->contents, "from session 1");
  ASSERT_TRUE(ham_->CloseGraph(*ctx2).ok());
}

// A writer appends to a deep node's history across shared-chunk
// boundaries in explicit transactions, aborting half of them, while
// readers read its historical versions. Readers must never see an
// aborted version, and a committed version must read the same at its
// time forever — the copy-on-write overlay shares the record's history
// chunks with the base that readers are walking.
TEST_F(HamConcurrencyTest, DeepHistoryReadersNeverSeeUncommittedVersions) {
  constexpr int kInitialVersions = 120;
  constexpr int kTxns = 40;
  constexpr int kOpsPerTxn = 4;
  constexpr int kReaders = 3;
  auto added = ham_->AddNode(ctx_, true);
  ASSERT_TRUE(added.ok());
  const NodeIndex node = added->node;

  std::mutex mu;
  // Committed versions readers may check, by time.
  std::map<Time, std::string> committed;
  std::set<Time> aborted;
  committed[added->creation_time] = "";
  Time expected = added->creation_time;
  for (int v = 0; v < kInitialVersions; ++v) {
    const std::string text = "committed " + std::to_string(v);
    ASSERT_TRUE(ham_->ModifyNode(ctx_, node, expected, text, {}, "").ok());
    expected = *ham_->GetNodeTimeStamp(ctx_, node);
    committed[expected] = text;
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    auto ctx = ham_->OpenGraph(project_, "local", dir_);
    if (!ctx.ok()) {
      ++failures;
      done = true;
      return;
    }
    for (int txn = 0; txn < kTxns; ++txn) {
      const bool abort = txn % 2 == 1;
      if (!ham_->BeginTransaction(*ctx).ok()) ++failures;
      std::map<Time, std::string> written;
      for (int op = 0; op < kOpsPerTxn; ++op) {
        const Time current = *ham_->GetNodeTimeStamp(*ctx, node);
        const std::string text = (abort ? "aborted " : "committed txn ") +
                                 std::to_string(txn) + "." +
                                 std::to_string(op);
        if (!ham_->ModifyNode(*ctx, node, current, text, {}, "").ok()) {
          ++failures;
        }
        written[*ham_->GetNodeTimeStamp(*ctx, node)] = text;
      }
      if (abort) {
        if (!ham_->AbortTransaction(*ctx).ok()) ++failures;
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& [time, text] : written) aborted.insert(time);
      } else {
        if (!ham_->CommitTransaction(*ctx).ok()) ++failures;
        std::lock_guard<std::mutex> lock(mu);
        committed.insert(written.begin(), written.end());
      }
    }
    ham_->CloseGraph(*ctx);
    done = true;
  });

  std::vector<std::thread> readers;
  std::vector<std::vector<Time>> seen_versions(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto ctx = ham_->OpenGraph(project_, "local", dir_);
      if (!ctx.ok()) {
        ++failures;
        return;
      }
      Random rng(77 + r);
      // At least one pass, however fast the writer finishes.
      do {
        // A committed version, read at its own time.
        Time t = 0;
        std::string want;
        {
          std::lock_guard<std::mutex> lock(mu);
          auto it = committed.begin();
          std::advance(it, rng.Uniform(committed.size()));
          t = it->first;
          want = it->second;
        }
        auto opened = ham_->OpenNode(*ctx, node, t, {});
        if (!opened.ok() || opened->contents != want) ++failures;
        auto current = ham_->OpenNode(*ctx, node, 0, {});
        if (!current.ok() || current->contents.rfind("aborted", 0) == 0) {
          ++failures;
        }
        auto versions = ham_->GetNodeVersions(*ctx, node);
        if (!versions.ok()) {
          ++failures;
        } else {
          for (const VersionEntry& v : versions->major) {
            seen_versions[r].push_back(v.time);
          }
        }
      } while (!done);
      ham_->CloseGraph(*ctx);
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures, 0);
  // No aborted version ever showed up in a version list.
  for (const std::vector<Time>& seen : seen_versions) {
    for (Time t : seen) EXPECT_EQ(aborted.count(t), 0u) << t;
  }
  auto versions = ham_->GetNodeVersions(ctx_, node);
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->major.size(), committed.size());
  // Every committed version still reads back, after recovery too.
  Reopen();
  for (const auto& [time, text] : committed) {
    auto opened = ham_->OpenNode(ctx_, node, time, {});
    ASSERT_TRUE(opened.ok()) << time;
    EXPECT_EQ(opened->contents, text) << time;
  }
}

}  // namespace
}  // namespace ham
}  // namespace neptune
