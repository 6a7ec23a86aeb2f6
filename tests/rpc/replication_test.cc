// WAL-shipping replication end to end: codec round-trips, snapshot
// bootstrap, steady-state tailing, checkpoint rolls, far-behind
// re-snapshot, corrupt-chunk recovery, term fencing, follower read
// routing from the client, and promotion.
//
// Topology per test: a real primary Server over TCP, a follower Ham in
// follower mode fed by a Replicator, and (where needed) a second
// Server exposing the follower.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "ham/ham.h"
#include "rpc/codec.h"
#include "rpc/remote_ham.h"
#include "rpc/replicator.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "storage/durable_store.h"

namespace neptune {
namespace rpc {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t CounterNow(const std::string& name) {
  return MetricsRegistry::Instance().Snapshot().CounterValue(name);
}

int64_t GaugeNow(const std::string& name) {
  auto snapshot = MetricsRegistry::Instance().Snapshot();
  auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0 : it->second;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 20000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// ------------------------------------------------------------- codecs

TEST(ReplicationWireTest, FetchRequestRoundTrip) {
  ham::ReplFetchRequest in;
  in.directory = "/data/projects/alpha";
  in.follower_id = "follower-2";
  in.term = 7;
  in.epoch = 12;
  in.offset = 987654321;
  in.max_bytes = 65536;
  in.wait_ms = 450;
  std::string wire;
  EncodeArgs(&wire, in);
  std::string_view view = wire;
  ham::ReplFetchRequest out;
  ASSERT_TRUE(DecodeArgs(&view, &out));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(out.directory, in.directory);
  EXPECT_EQ(out.follower_id, in.follower_id);
  EXPECT_EQ(out.term, in.term);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.offset, in.offset);
  EXPECT_EQ(out.max_bytes, in.max_bytes);
  EXPECT_EQ(out.wait_ms, in.wait_ms);

  // Every truncation of the wire form must fail cleanly, not misparse.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::string_view partial(wire.data(), cut);
    ham::ReplFetchRequest scratch;
    EXPECT_FALSE(DecodeArgs(&partial, &scratch))
        << "decoded from a " << cut << "-byte prefix";
  }
}

TEST(ReplicationWireTest, FetchResultRoundTrip) {
  for (auto action : {ham::ReplFetchResult::Action::kTail,
                      ham::ReplFetchResult::Action::kSnapshot,
                      ham::ReplFetchResult::Action::kStaleTerm}) {
    ham::ReplFetchResult in;
    in.action = action;
    in.term = 3;
    in.epoch = 9;
    in.offset = 1 << 20;
    in.epoch_end = action == ham::ReplFetchResult::Action::kTail;
    in.epoch_bytes = (1 << 20) + 512;
    in.meta = std::string("meta\x00with nul", 13);
    in.payload = std::string(1024, '\xAB');
    std::string wire;
    EncodeArgs(&wire, in);
    std::string_view view = wire;
    ham::ReplFetchResult out;
    ASSERT_TRUE(DecodeArgs(&view, &out));
    EXPECT_TRUE(view.empty());
    EXPECT_EQ(out.action, in.action);
    EXPECT_EQ(out.term, in.term);
    EXPECT_EQ(out.epoch, in.epoch);
    EXPECT_EQ(out.offset, in.offset);
    EXPECT_EQ(out.epoch_end, in.epoch_end);
    EXPECT_EQ(out.epoch_bytes, in.epoch_bytes);
    EXPECT_EQ(out.meta, in.meta);
    EXPECT_EQ(out.payload, in.payload);
  }
}

TEST(ReplicationWireTest, NodeStatusRoundTrip) {
  ham::ReplNodeStatus in;
  in.term = 5;
  in.follower = true;
  in.epoch = 2;
  in.wal_bytes = 4096;
  in.lag_bytes = 128;
  in.behind_ms = ~0ull;  // "never caught up" must survive the wire
  std::string wire;
  EncodeArgs(&wire, in);
  std::string_view view = wire;
  ham::ReplNodeStatus out;
  ASSERT_TRUE(DecodeArgs(&view, &out));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(out.term, in.term);
  EXPECT_EQ(out.follower, in.follower);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.wal_bytes, in.wal_bytes);
  EXPECT_EQ(out.lag_bytes, in.lag_bytes);
  EXPECT_EQ(out.behind_ms, in.behind_ms);
}

// ------------------------------------------------------------ fixture

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name = ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    base_ = (std::filesystem::temp_directory_path() / ("neptune_repl_" + name))
                .string();
    Env::Default()->RemoveDirRecursive(base_);
    Env::Default()->CreateDir(base_);
    primary_dir_ = base_ + "/primary";
    follower_dir_ = base_ + "/follower";

    ham::HamOptions primary_options;
    primary_options.sync_commits = false;
    // No surprise auto-rolls; roll tests checkpoint explicitly.
    primary_options.checkpoint_wal_bytes = 64ull << 20;
    primary_ = std::make_unique<ham::Ham>(Env::Default(), primary_options);
    server_ = std::make_unique<Server>(primary_.get());
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;

    auto created = primary_->CreateGraph(primary_dir_, 0755);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    project_ = created->project;
    auto ctx = primary_->OpenGraph(project_, "local", primary_dir_);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    pctx_ = *ctx;

    ham::HamOptions follower_options;
    follower_options.sync_commits = false;
    follower_options.follower_mode = true;
    follower_ = std::make_unique<ham::Ham>(Env::Default(), follower_options);
  }

  void TearDown() override {
    replicator_.reset();
    repl_client_.reset();
    server_.reset();
    follower_.reset();
    primary_.reset();
    Env::Default()->RemoveDirRecursive(base_);
  }

  Replicator::Options FastReplicatorOptions() const {
    Replicator::Options options;
    options.primary_root = primary_dir_;
    options.local_root = follower_dir_;
    options.poll_wait_ms = 25;
    options.list_refresh_ms = 50;
    options.backoff_initial_ms = 5;
    options.backoff_max_ms = 100;
    options.seed = 7;
    return options;
  }

  void StartReplicator() {
    auto client = RemoteHam::Connect("localhost", port_);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    repl_client_ = std::move(*client);
    replicator_ = std::make_unique<Replicator>(
        follower_.get(), repl_client_.get(), FastReplicatorOptions());
    replicator_->Start();
  }

  // One committed node with deterministic contents on the primary.
  ham::NodeIndex WriteNode(const std::string& contents) {
    auto added = primary_->AddNode(pctx_, true);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
    if (!added.ok()) return 0;
    Status modified = primary_->ModifyNode(pctx_, added->node,
                                           added->creation_time, contents, {},
                                           "repl-test");
    EXPECT_TRUE(modified.ok()) << modified.ToString();
    return added->node;
  }

  // Reads node contents through the follower engine (local reads on
  // the replica — the consistency the protocol promises).
  std::string FollowerContents(ham::Context fctx, ham::NodeIndex node) {
    auto opened = follower_->OpenNode(fctx, node, 0, {});
    if (!opened.ok()) return "<error: " + opened.status().ToString() + ">";
    return opened->contents;
  }

  uint64_t FollowerNodeCount(ham::Context fctx) {
    auto stats = follower_->GetStats(fctx);
    return stats.ok() ? stats->node_count : 0;
  }

  std::string base_;
  std::string primary_dir_;
  std::string follower_dir_;
  std::unique_ptr<ham::Ham> primary_;
  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
  ham::ProjectId project_ = 0;
  ham::Context pctx_;
  std::unique_ptr<ham::Ham> follower_;
  std::unique_ptr<RemoteHam> repl_client_;
  std::unique_ptr<Replicator> replicator_;
};

// A brand-new follower bootstraps with a snapshot, converges, serves
// identical reads locally, and refuses every mutation with kReadOnly.
TEST_F(ReplicationTest, BootstrapSnapshotThenReadOnlyFollower) {
  const uint64_t snapshots_before =
      CounterNow("repl.follower.snapshots_installed");
  std::vector<ham::NodeIndex> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(WriteNode("bootstrap contents #" + std::to_string(i)));
  }
  StartReplicator();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }))
      << "follower never caught up; error_cycles="
      << replicator_->error_cycles();
  EXPECT_GE(CounterNow("repl.follower.snapshots_installed"),
            snapshots_before + 1);
  EXPECT_EQ(replicator_->progress("").resyncs, 1u);

  auto fctx = follower_->OpenGraph(project_, "local", follower_dir_);
  ASSERT_TRUE(fctx.ok()) << fctx.status().ToString();
  EXPECT_EQ(FollowerNodeCount(*fctx), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(FollowerContents(*fctx, nodes[i]),
              "bootstrap contents #" + std::to_string(i));
  }

  // Every mutation path is fenced off on a follower.
  EXPECT_TRUE(follower_->AddNode(*fctx, true).status().IsReadOnly());
  EXPECT_TRUE(follower_->BeginTransaction(*fctx).IsReadOnly());
  EXPECT_TRUE(follower_->Checkpoint(*fctx).IsReadOnly());
  EXPECT_TRUE(
      follower_->CreateGraph(base_ + "/rogue", 0755).status().IsReadOnly());
  EXPECT_TRUE(follower_->CloseGraph(*fctx).ok());
}

// Steady state: commits made after bootstrap stream over as WAL chunks
// (no further snapshots) and become readable on the follower.
TEST_F(ReplicationTest, SteadyStateTailShipsCommits) {
  WriteNode("seed");
  StartReplicator();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));

  const uint64_t fetches_before = CounterNow("repl.primary.fetches");
  std::vector<ham::NodeIndex> nodes;
  for (int i = 0; i < 20; ++i) {
    nodes.push_back(WriteNode("tail contents #" + std::to_string(i)));
  }
  auto fctx = follower_->OpenGraph(project_, "local", follower_dir_);
  ASSERT_TRUE(fctx.ok()) << fctx.status().ToString();
  ASSERT_TRUE(WaitFor([&] { return FollowerNodeCount(*fctx) == 21u; }))
      << "follower stuck at " << FollowerNodeCount(*fctx) << " nodes";
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(FollowerContents(*fctx, nodes[i]),
              "tail contents #" + std::to_string(i));
  }
  EXPECT_EQ(replicator_->progress("").resyncs, 1u)
      << "steady-state tailing must not re-snapshot";
  EXPECT_GT(replicator_->progress("").chunks_applied, 0u);
  EXPECT_GT(CounterNow("repl.primary.fetches"), fetches_before);
  // The follower drained, so the primary's lag gauge settles at zero.
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));
  auto status = primary_->ReplStatus(primary_dir_);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_FALSE(status->follower);
  ASSERT_TRUE(WaitFor([&] { return GaugeNow("repl.lag_bytes") == 0; }));
}

// A primary checkpoint rolls the WAL generation; a caught-up follower
// follows it with a local roll, not a snapshot resync.
TEST_F(ReplicationTest, CheckpointRollsFollowerWithoutResync) {
  WriteNode("before roll");
  StartReplicator();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));

  ASSERT_TRUE(primary_->Checkpoint(pctx_).ok());
  std::vector<ham::NodeIndex> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(WriteNode("after roll #" + std::to_string(i)));
  }
  ASSERT_TRUE(WaitFor([&] {
    return replicator_->progress("").rolls >= 1 && replicator_->AllCaughtUp();
  })) << "rolls=" << replicator_->progress("").rolls;

  // Caught up as of the follower's last fetch, which may have run
  // between two of the writes above: wait for the follower to hold
  // them all, as SteadyStateTailShipsCommits does.
  auto fctx = follower_->OpenGraph(project_, "local", follower_dir_);
  ASSERT_TRUE(fctx.ok()) << fctx.status().ToString();
  ASSERT_TRUE(WaitFor([&] { return FollowerNodeCount(*fctx) == 4u; }))
      << "follower stuck at " << FollowerNodeCount(*fctx) << " nodes";
  EXPECT_EQ(replicator_->progress("").resyncs, 1u)
      << "the roll must not force a snapshot";
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(FollowerContents(*fctx, nodes[i]),
              "after roll #" + std::to_string(i));
  }
  // Both sides agree on the generation.
  auto pstatus = primary_->ReplStatus(primary_dir_);
  auto fstatus = follower_->ReplStatus(follower_dir_);
  ASSERT_TRUE(pstatus.ok() && fstatus.ok());
  EXPECT_EQ(pstatus->epoch, fstatus->epoch);
}

// A follower that stalls long enough for its WAL generation to be
// retired (two checkpoints with keep=1) re-snapshots instead of dying.
TEST_F(ReplicationTest, FarBehindFollowerResnapshots) {
  WriteNode("generation 1");
  StartReplicator();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));
  replicator_->Stop();

  WriteNode("generation 2");
  ASSERT_TRUE(primary_->Checkpoint(pctx_).ok());
  WriteNode("generation 3");
  ASSERT_TRUE(primary_->Checkpoint(pctx_).ok());
  auto last = WriteNode("generation 4");

  // The follower's old cursor now points at a WAL file the primary
  // deleted; the fetch must come back kSnapshot and converge anyway.
  const uint64_t snapshots_before =
      CounterNow("repl.follower.snapshots_installed");
  replicator_ = std::make_unique<Replicator>(
      follower_.get(), repl_client_.get(), FastReplicatorOptions());
  replicator_->Start();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));
  EXPECT_GE(replicator_->progress("").resyncs, 1u);
  EXPECT_GT(CounterNow("repl.follower.snapshots_installed"), snapshots_before)
      << "expected a second snapshot bootstrap";

  auto fctx = follower_->OpenGraph(project_, "local", follower_dir_);
  ASSERT_TRUE(fctx.ok()) << fctx.status().ToString();
  EXPECT_EQ(FollowerNodeCount(*fctx), 4u);
  EXPECT_EQ(FollowerContents(*fctx, last), "generation 4");
}

// Corruption on the wire: every shipped chunk is bit-flipped until the
// follower gives up on the stream and forces a snapshot resync; once
// the link heals it converges to identical state.
TEST_F(ReplicationTest, CorruptChunkTruncatesThenResyncs) {
  WriteNode("pre-corruption");
  StartReplicator();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));

  const uint64_t corrupt_before = CounterNow("repl.follower.corrupt_chunks");
  const uint64_t forced_before = CounterNow("repl.follower.forced_resyncs");
  std::atomic<bool> corrupt{true};
  replicator_->chunk_mutator_for_test = [&](std::string* payload) {
    if (corrupt.load() && !payload->empty()) {
      (*payload)[payload->size() / 2] ^= 0x5A;
    }
  };
  std::vector<ham::NodeIndex> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(WriteNode("corrupted in flight #" + std::to_string(i)));
  }
  // The follower must reject the garbage (CRC) and, after repeated
  // zero-progress strikes at the same offset, demand a snapshot.
  ASSERT_TRUE(WaitFor([&] {
    return CounterNow("repl.follower.forced_resyncs") > forced_before ||
           replicator_->progress("").resyncs >= 2;
  })) << "follower never gave up on the corrupt stream";
  EXPECT_GT(CounterNow("repl.follower.corrupt_chunks"), corrupt_before);
  corrupt.store(false);

  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));
  auto fctx = follower_->OpenGraph(project_, "local", follower_dir_);
  ASSERT_TRUE(fctx.ok()) << fctx.status().ToString();
  EXPECT_EQ(FollowerNodeCount(*fctx), 5u)
      << "corrupt chunks must never half-apply";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(FollowerContents(*fctx, nodes[i]),
              "corrupted in flight #" + std::to_string(i));
  }
  auto problems = follower_->VerifyGraph(*fctx);
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty());
}

// Fencing: a promoted follower carries a higher term, and a deposed
// primary may not feed it (nor any follower that has seen the new
// term) a single byte.
TEST_F(ReplicationTest, TermFencingRejectsDeposedPrimary) {
  WriteNode("from the old primary");
  StartReplicator();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));
  replicator_->Stop();

  // Promote the follower: term bumps and writes open up.
  auto term = follower_->Promote();
  ASSERT_TRUE(term.ok()) << term.status().ToString();
  EXPECT_GE(*term, 1u);
  EXPECT_FALSE(follower_->follower());
  auto fctx = follower_->OpenGraph(project_, "local", follower_dir_);
  ASSERT_TRUE(fctx.ok()) << fctx.status().ToString();
  EXPECT_TRUE(follower_->AddNode(*fctx, true).ok());

  // A second follower syncs from the *new* primary and learns its term.
  Server follower_server(follower_.get());
  auto fport = follower_server.Start(0);
  ASSERT_TRUE(fport.ok()) << fport.status().ToString();
  ham::HamOptions f2_options;
  f2_options.sync_commits = false;
  f2_options.follower_mode = true;
  ham::Ham f2(Env::Default(), f2_options);
  auto f2_client = RemoteHam::Connect("localhost", *fport);
  ASSERT_TRUE(f2_client.ok());
  const std::string f2_dir = base_ + "/follower2";
  Replicator::Options f2_opts = FastReplicatorOptions();
  f2_opts.primary_root = follower_dir_;
  f2_opts.local_root = f2_dir;
  {
    Replicator f2_repl(&f2, f2_client->get(), f2_opts);
    f2_repl.Start();
    ASSERT_TRUE(WaitFor([&] { return f2_repl.AllCaughtUp(); }));
    EXPECT_EQ(f2_repl.progress("").term, *term);
  }

  // Re-point the synced follower at the deposed primary: both sides
  // must refuse — the primary self-fences on the higher request term,
  // the follower rejects the stale reply term.
  const uint64_t primary_rejects_before =
      CounterNow("repl.primary.stale_term_rejects");
  const uint64_t follower_rejects_before =
      CounterNow("repl.follower.stale_primary_rejects");
  const ham::NodeIndex late = WriteNode("late append on deposed primary");
  ASSERT_NE(late, 0u);
  Replicator::Options stale_opts = FastReplicatorOptions();
  stale_opts.local_root = f2_dir;
  Replicator stale_repl(&f2, repl_client_.get(), stale_opts);
  stale_repl.Start();
  ASSERT_TRUE(WaitFor([&] {
    return CounterNow("repl.follower.stale_primary_rejects") >
           follower_rejects_before;
  })) << "stale primary was never rejected";
  stale_repl.Stop();
  EXPECT_GT(CounterNow("repl.primary.stale_term_rejects"),
            primary_rejects_before);
  EXPECT_FALSE(stale_repl.AllCaughtUp());

  // Nothing from the deposed primary's late write landed on f2. (Node
  // indices collide across the diverged histories — the new primary
  // allocated the same id — so the check is on contents, not presence.)
  auto f2_ctx = f2.OpenGraph(project_, "local", f2_dir);
  ASSERT_TRUE(f2_ctx.ok()) << f2_ctx.status().ToString();
  auto diverged = f2.OpenNode(*f2_ctx, late, 0, {});
  if (diverged.ok()) {
    EXPECT_NE(diverged->contents, "late append on deposed primary");
  }
  auto problems = f2.VerifyGraph(*f2_ctx);
  ASSERT_TRUE(problems.ok());
  EXPECT_TRUE(problems->empty());
}

// Client-side read routing: a RemoteHam configured with a follower
// endpoint serves idempotent reads from the fresh follower, falls back
// to the primary when the follower dies, and never routes in-txn reads.
TEST_F(ReplicationTest, FollowerReadRoutingAndFallback) {
  const ham::NodeIndex node = WriteNode("routed read contents");
  StartReplicator();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));

  auto follower_server = std::make_unique<Server>(follower_.get());
  auto fport = follower_server->Start(0);
  ASSERT_TRUE(fport.ok()) << fport.status().ToString();

  RemoteHam::Options options;
  options.follower_host = "localhost";
  options.follower_port = *fport;
  options.follower_status_ttl_ms = 50;
  // The test replica lives beside the primary, so remap its root.
  options.follower_remap_from = primary_dir_;
  options.follower_remap_to = follower_dir_;
  auto client = RemoteHam::Connect("localhost", port_, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->has_follower());
  auto ctx = (*client)->OpenGraph(project_, "localhost", primary_dir_);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  const uint64_t routed_before = CounterNow("repl.client.follower_reads");
  auto opened = (*client)->OpenNode(*ctx, node, 0, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->contents, "routed read contents");
  EXPECT_GT(CounterNow("repl.client.follower_reads"), routed_before)
      << "read was not served by the follower";

  // In-transaction reads must stay on the primary (the follower has no
  // view of uncommitted state).
  const uint64_t routed_mid = CounterNow("repl.client.follower_reads");
  ASSERT_TRUE((*client)->BeginTransaction(*ctx).ok());
  auto txn_added = (*client)->AddNode(*ctx, true);
  ASSERT_TRUE(txn_added.ok());
  auto txn_read = (*client)->OpenNode(*ctx, txn_added->node, 0, {});
  EXPECT_TRUE(txn_read.ok()) << txn_read.status().ToString();
  ASSERT_TRUE((*client)->CommitTransaction(*ctx).ok());
  EXPECT_EQ(CounterNow("repl.client.follower_reads"), routed_mid)
      << "an in-transaction read leaked to the follower";

  // Kill the follower entirely: reads keep succeeding off the primary.
  replicator_->Stop();
  follower_server.reset();
  const uint64_t fell_back_before =
      CounterNow("repl.client.fallback_to_primary") +
      CounterNow("repl.client.stale_follower");
  ASSERT_TRUE(WaitFor([&] {
    auto reread = (*client)->OpenNode(*ctx, node, 0, {});
    EXPECT_TRUE(reread.ok()) << reread.status().ToString();
    return CounterNow("repl.client.fallback_to_primary") +
               CounterNow("repl.client.stale_follower") >
           fell_back_before;
  })) << "client never noticed the dead follower";
  auto reread = (*client)->OpenNode(*ctx, node, 0, {});
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread->contents, "routed read contents");
  EXPECT_TRUE((*client)->CloseGraph(*ctx).ok());
}

// Promotion over the wire: the ctl path — primary dies, the operator
// promotes the follower through its server, and writes move over.
TEST_F(ReplicationTest, PromoteOverRpcTakesWrites) {
  const ham::NodeIndex acked = WriteNode("must survive failover");
  StartReplicator();
  ASSERT_TRUE(WaitFor([&] { return replicator_->AllCaughtUp(); }));

  Server follower_server(follower_.get());
  auto fport = follower_server.Start(0);
  ASSERT_TRUE(fport.ok()) << fport.status().ToString();

  // Primary dies.
  server_.reset();

  auto ctl = RemoteHam::Connect("localhost", *fport);
  ASSERT_TRUE(ctl.ok()) << ctl.status().ToString();
  auto term = (*ctl)->Promote();
  ASSERT_TRUE(term.ok()) << term.status().ToString();
  EXPECT_GE(*term, 1u);

  // The promoted node serves the acked history and takes new writes.
  auto ctx = (*ctl)->OpenGraph(project_, "localhost", follower_dir_);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  auto survived = (*ctl)->OpenNode(*ctx, acked, 0, {});
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(survived->contents, "must survive failover");
  auto added = (*ctl)->AddNode(*ctx, true);
  EXPECT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_TRUE((*ctl)->CloseGraph(*ctx).ok());

  // Promote is idempotent from the operator's point of view: a second
  // promote must not bump the fencing term again.
  auto again = (*ctl)->Promote();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *term);
}

// replListGraphs walks a tree of stores; the replicator mirrors all of
// them under one root.
TEST_F(ReplicationTest, MultiGraphTreeReplicates) {
  const std::string tree = base_ + "/tree";
  ASSERT_TRUE(Env::Default()->CreateDir(tree).ok());
  auto a = primary_->CreateGraph(tree + "/alpha", 0755);
  auto b = primary_->CreateGraph(tree + "/beta", 0755);
  ASSERT_TRUE(a.ok() && b.ok());
  auto actx = primary_->OpenGraph(a->project, "local", tree + "/alpha");
  auto bctx = primary_->OpenGraph(b->project, "local", tree + "/beta");
  ASSERT_TRUE(actx.ok() && bctx.ok());
  ASSERT_TRUE(primary_->AddNode(*actx, true).ok());
  ASSERT_TRUE(primary_->AddNode(*bctx, true).ok());
  ASSERT_TRUE(primary_->AddNode(*bctx, true).ok());

  auto listed = primary_->ReplListGraphs(tree);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(*listed, (std::vector<std::string>{"alpha", "beta"}));

  auto client = RemoteHam::Connect("localhost", port_);
  ASSERT_TRUE(client.ok());
  Replicator::Options options = FastReplicatorOptions();
  options.primary_root = tree;
  options.local_root = base_ + "/tree_replica";
  Replicator replicator(follower_.get(), client->get(), options);
  replicator.Start();
  ASSERT_TRUE(WaitFor([&] { return replicator.AllCaughtUp(); }));

  auto fa = follower_->OpenGraph(a->project, "local",
                                 base_ + "/tree_replica/alpha");
  auto fb = follower_->OpenGraph(b->project, "local",
                                 base_ + "/tree_replica/beta");
  ASSERT_TRUE(fa.ok() && fb.ok());
  EXPECT_EQ(follower_->GetStats(*fa)->node_count, 1u);
  EXPECT_EQ(follower_->GetStats(*fb)->node_count, 2u);
}

}  // namespace
}  // namespace rpc
}  // namespace neptune
