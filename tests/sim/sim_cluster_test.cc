// Seeded multi-node failure scenarios on the deterministic cluster
// simulation (src/sim). One process, one thread, one virtual clock:
// every partition, promotion, power cut, and vanished client replays
// bit-for-bit from NEPTUNE_SIM_SEED, and a failing seed prints a
// one-line repro command.
//
// Scenarios and the cluster-wide invariants they assert:
//  * ReplicationPartitionPromote — writes, drain, partition the
//    primary, promote a follower, stale-term fetches rejected, demote
//    and rejoin the old primary: every acked commit byte-for-byte on
//    every node, fsck clean, terms converged. Covers >= 60 s of
//    simulated time in a few wall seconds.
//  * DeterminismSameSeed — the same seed runs the scenario twice to an
//    identical event-trace hash and verdict; a different seed
//    diverges.
//  * LeaseAbortClientVanish — a client blackholes mid-transaction; the
//    virtual-clock lease sweep aborts it and a second writer commits.
//  * RetryStorm — a burst of clients into tiny admission caps; shed
//    replies and jittered retries, every operation succeeds.
//  * PowerCutDuringFailover — power cut mid-replication: acked commits
//    durable on the rebooted primary, then real failover + rejoin.
//  * WindowedMetricsPartitionHeal — a MetricsWindow sampled from the
//    virtual clock: repl.apply_lag_us zero while drained, climbing
//    through a partition, cleared after the heal.
//  * SeedSweep — the main scenario across NEPTUNE_SIM_SWEEP seeds
//    (CI's sim-soak sets hundreds; the default keeps tier-1 fast).
//
// Runs in its own binary so it can ResetForTest() the process-global
// metrics registry per scenario without disturbing other suites.
//
// Environment knobs:
//   NEPTUNE_SIM_SEED    base seed (default 1)
//   NEPTUNE_SIM_SWEEP   number of consecutive seeds SeedSweep covers
//                       (default 2)

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "ham/ham.h"
#include "obs/window.h"
#include "rpc/remote_ham.h"
#include "rpc/replicator.h"
#include "sim/sim_cluster.h"

namespace neptune {
namespace {

using sim::SimCluster;
using sim::SimClusterOptions;
using sim::SimNetwork;

uint64_t BaseSeed() {
  const char* s = std::getenv("NEPTUNE_SIM_SEED");
  if (s == nullptr) return 1;
  const uint64_t v = std::strtoull(s, nullptr, 10);
  return v != 0 ? v : 1;
}

std::string ReproLine(const char* test, uint64_t seed) {
  return "repro: NEPTUNE_SIM_SEED=" + std::to_string(seed) +
         " ./sim_test --gtest_filter=SimClusterTest." + test;
}

std::string FreshRoot(const std::string& name) {
  const std::string root =
      (std::filesystem::temp_directory_path() / ("neptune_sim_" + name))
          .string();
  Env::Default()->RemoveDirRecursive(root);
  EXPECT_TRUE(Env::Default()->CreateDir(root).ok()) << root;
  return root;
}

uint64_t CounterNow(const std::string& name) {
  return MetricsRegistry::Instance().Snapshot().CounterValue(name);
}

int64_t GaugeNow(const std::string& name) {
  const MetricsSnapshot snapshot = MetricsRegistry::Instance().Snapshot();
  auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0 : it->second;
}

// One acked commit: the node index and the exact bytes the client saw
// the primary acknowledge.
struct Acked {
  ham::NodeIndex node;
  std::string contents;
};

// Commits `count` nodes through `client`, recording exactly those the
// server acknowledged end to end (AddNode + ModifyNode both OK).
void WriteNodes(rpc::RemoteHam* client, ham::Context ctx,
                const std::string& tag, int count,
                std::vector<Acked>* acked) {
  for (int i = 0; i < count; ++i) {
    auto added = client->AddNode(ctx, true);
    if (!added.ok()) {
      ADD_FAILURE() << "AddNode(" << tag << " " << i
                    << "): " << added.status().ToString();
      return;
    }
    const std::string contents =
        tag + " seq=" + std::to_string(i) +
        std::string(1 + static_cast<size_t>(i) % 97, 'x');
    Status modified = client->ModifyNode(ctx, added->node,
                                         added->creation_time, contents, {},
                                         "sim");
    if (!modified.ok()) {
      ADD_FAILURE() << "ModifyNode(" << tag << " " << i
                    << "): " << modified.ToString();
      return;
    }
    acked->push_back({added->node, contents});
  }
}

// Opens node `i`'s store directly (no network) and checks every acked
// commit byte-for-byte plus a structural fsck.
void VerifyAckedOnNode(SimCluster* cluster, int i, ham::ProjectId project,
                       const std::vector<Acked>& acked, const char* who) {
  ham::Ham* engine = cluster->node(i)->ham();
  ASSERT_NE(engine, nullptr) << who << " is down";
  auto ctx = engine->OpenGraph(project, "verify", cluster->NodeDir(i));
  ASSERT_TRUE(ctx.ok()) << who << ": " << ctx.status().ToString();
  for (const Acked& commit : acked) {
    auto opened = engine->OpenNode(*ctx, commit.node, 0, {});
    ASSERT_TRUE(opened.ok())
        << who << " lost acked node " << commit.node << ": "
        << opened.status().ToString();
    ASSERT_EQ(opened->contents, commit.contents)
        << who << " diverged on acked node " << commit.node;
  }
  auto problems = engine->VerifyGraph(*ctx);
  ASSERT_TRUE(problems.ok()) << who << ": " << problems.status().ToString();
  EXPECT_TRUE(problems->empty())
      << who << ": " << problems->size()
      << " fsck problems, first: " << problems->front();
  EXPECT_TRUE(engine->CloseGraph(*ctx).ok());
}

// Pumps virtual time in `step_us` slices until `pred` holds or
// `budget_us` of simulated time has passed.
template <typename Pred>
bool RunUntilSim(SimCluster* cluster, uint64_t budget_us, uint64_t step_us,
                 Pred pred) {
  const uint64_t deadline = cluster->clock()->NowMicros() + budget_us;
  while (!pred()) {
    if (cluster->clock()->NowMicros() >= deadline) return false;
    cluster->RunFor(step_us);
  }
  return true;
}

bool NodesConverged(SimCluster* cluster, int a, int b) {
  auto sa = cluster->NodeReplStatus(a);
  auto sb = cluster->NodeReplStatus(b);
  if (!sa.ok() || !sb.ok()) return false;
  return sa->term == sb->term && sa->epoch == sb->epoch &&
         sa->wal_bytes == sb->wal_bytes;
}

// ------------------------------------------------ the main scenario
//
// The full failover story on three nodes, returned as (trace hash,
// verdict string) so the determinism test can compare two runs.

struct ScenarioResult {
  uint32_t trace_hash = 0;
  uint64_t events_run = 0;
  std::string verdict;  // human-readable outcome summary
  std::vector<std::string> trace;  // every hashed line, when recorded
};

// gtest ASSERTs need a void function; the result lands in *out only
// when the whole scenario ran clean.
void RunPartitionPromoteScenario(uint64_t seed, const std::string& root,
                                 ScenarioResult* out,
                                 bool record_trace = false) {
  SimClusterOptions options;
  options.seed = seed;
  options.root = root;
  options.followers = 2;
  options.checkpoint_wal_bytes = 32 << 10;  // frequent epoch rolls
  options.repl_poll_wait_ms = 50;
  options.default_link.delay_us = 400;
  options.default_link.jitter_us = 1200;
  SimCluster cluster(Env::Default(), options);
  cluster.clock()->set_record_trace(record_trace);

  // Boot: create the graph on node0 through the wire protocol.
  auto client = cluster.NewClient("client", 0);
  ASSERT_NE(client, nullptr) << "client could not dial node0";
  auto created = client->CreateGraph(cluster.NodeDir(0), 0755);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const ham::ProjectId project = created->project;
  auto ctx = client->OpenGraph(project, "client", cluster.NodeDir(0));
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  cluster.StartReplication(1, 0);
  cluster.StartReplication(2, 0);

  // Epoch 1: writes interleaved with replication traffic, then drain.
  std::vector<Acked> acked;
  for (int burst = 0; burst < 6; ++burst) {
    WriteNodes(client.get(), *ctx, "epoch1." + std::to_string(burst), 5,
               &acked);
    if (::testing::Test::HasFailure()) return;
    cluster.RunFor(300 * 1000);
  }
  ASSERT_TRUE(RunUntilSim(&cluster, 30'000'000, 100'000, [&] {
    return cluster.ReplicationCaughtUp(1) && cluster.ReplicationCaughtUp(2);
  })) << "followers never drained epoch 1";

  // The primary drops off the client's network and follower 1's, but
  // node2 can still see it (for the stale-term probe below).
  cluster.Partition(0, 1);
  cluster.net()->Cut("client", SimCluster::HostName(0));
  client->CloseGraph(*ctx);  // best effort; the link is dead
  client.reset();

  // Operator failover: promote node1, re-point node2 at it.
  auto term = cluster.Promote(1);
  ASSERT_TRUE(term.ok()) << term.status().ToString();
  cluster.StartReplication(2, 1);

  // Epoch 2: a new client writes against the promoted primary.
  auto client2 = cluster.NewClient("client", 1);
  ASSERT_NE(client2, nullptr) << "client could not dial node1";
  auto ctx2 = client2->OpenGraph(project, "client", cluster.NodeDir(1));
  ASSERT_TRUE(ctx2.ok()) << ctx2.status().ToString();
  for (int burst = 0; burst < 4; ++burst) {
    WriteNodes(client2.get(), *ctx2, "epoch2." + std::to_string(burst), 5,
               &acked);
    if (::testing::Test::HasFailure()) return;
    cluster.RunFor(300 * 1000);
  }
  ASSERT_TRUE(RunUntilSim(&cluster, 30'000'000, 100'000, [&] {
    return cluster.ReplicationCaughtUp(2);
  })) << "node2 never caught up with the promoted primary";

  // Stale-term probe: point node2 (now at the promoted term) back at
  // the deposed primary. Every fetch must be rejected — a follower
  // never applies bytes from a stale term.
  cluster.StartReplication(2, 0);
  cluster.RunFor(3'000'000);
  rpc::Replicator* probe = cluster.replicator(2);
  ASSERT_NE(probe, nullptr);
  const uint64_t stale_rejects = probe->progress("").stale_primary_rejects;
  EXPECT_GT(stale_rejects, 0u)
      << "deposed primary's term was not rejected by the promoted follower";
  cluster.StartReplication(2, 1);

  // Demote: the deposed primary power-cycles into follower mode and
  // rejoins behind node1.
  cluster.HealPartition(0, 1);
  cluster.net()->HealCut("client", SimCluster::HostName(0));
  cluster.CrashNode(0);
  cluster.RestartNode(0, /*as_follower=*/true);
  cluster.StartReplication(0, 1);

  ASSERT_TRUE(RunUntilSim(&cluster, 60'000'000, 200'000, [&] {
    return cluster.ReplicationCaughtUp(0) && cluster.ReplicationCaughtUp(2) &&
           NodesConverged(&cluster, 0, 1) && NodesConverged(&cluster, 2, 1);
  })) << "cluster never converged after the old primary rejoined";

  // Idle the cluster out to >= 60 s of simulated time: pumps, lease
  // sweeps, and caught-up polls keep ticking and must stay quiescent.
  const uint64_t start_us = 1'000'000'000ull;  // SimClock epoch
  const uint64_t elapsed = cluster.clock()->NowMicros() - start_us;
  if (elapsed < 60'000'000ull) cluster.RunFor(60'000'000ull - elapsed);

  // Invariants: every acked commit (both epochs) byte-for-byte on all
  // three nodes, every store fsck-clean, terms converged.
  VerifyAckedOnNode(&cluster, 1, project, acked, "promoted node1");
  VerifyAckedOnNode(&cluster, 0, project, acked, "rejoined node0");
  VerifyAckedOnNode(&cluster, 2, project, acked, "follower node2");
  auto s1 = cluster.NodeReplStatus(1);
  ASSERT_TRUE(s1.ok()) << s1.status().ToString();

  out->trace_hash = cluster.clock()->trace_hash();
  out->events_run = cluster.clock()->events_run();
  out->trace = cluster.clock()->trace();
  out->verdict = "acked=" + std::to_string(acked.size()) +
                 " term=" + std::to_string(s1->term) +
                 " stale_rejects=" + std::to_string(stale_rejects) +
                 " sim_us=" + std::to_string(cluster.clock()->NowMicros() -
                                             start_us);
}

// -------------------------------------------------------- the tests

TEST(SimClusterTest, ReplicationPartitionPromote) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE(ReproLine("ReplicationPartitionPromote", seed));
  MetricsRegistry::Instance().ResetForTest();
  const auto wall_start = std::chrono::steady_clock::now();
  const std::string root = FreshRoot("ppp_" + std::to_string(seed));
  ScenarioResult result;
  RunPartitionPromoteScenario(seed, root, &result);
  if (::testing::Test::HasFailure()) return;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  std::printf("[sim] seed=%llu %s events=%llu hash=%08x wall=%.2fs\n",
              static_cast<unsigned long long>(seed), result.verdict.c_str(),
              static_cast<unsigned long long>(result.events_run),
              result.trace_hash, wall_s);
  // >= 60 s of simulated time must cost only wall seconds (generous
  // bound so sanitizer builds do not flake).
  EXPECT_LT(wall_s, 10.0) << "simulation too slow: " << wall_s << "s wall";
  Env::Default()->RemoveDirRecursive(root);
}

TEST(SimClusterTest, DeterminismSameSeed) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE(ReproLine("DeterminismSameSeed", seed));

  MetricsRegistry::Instance().ResetForTest();
  const std::string root_a = FreshRoot("det_a_" + std::to_string(seed));
  ScenarioResult a;
  RunPartitionPromoteScenario(seed, root_a, &a);
  if (::testing::Test::HasFailure()) return;

  MetricsRegistry::Instance().ResetForTest();
  const std::string root_b = FreshRoot("det_b_" + std::to_string(seed));
  ScenarioResult b;
  RunPartitionPromoteScenario(seed, root_b, &b);
  if (::testing::Test::HasFailure()) return;

  // Same seed: the entire interleaving replays — identical event
  // count, identical trace hash, identical outcome.
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.trace_hash, b.trace_hash)
      << "same seed produced a different event trace";
  EXPECT_EQ(a.verdict, b.verdict);

  MetricsRegistry::Instance().ResetForTest();
  const std::string root_c = FreshRoot("det_c_" + std::to_string(seed));
  ScenarioResult c;
  RunPartitionPromoteScenario(seed + 1, root_c, &c);
  if (::testing::Test::HasFailure()) return;
  EXPECT_NE(a.trace_hash, c.trace_hash)
      << "different seeds produced identical traces (jitter not applied?)";

  Env::Default()->RemoveDirRecursive(root_a);
  Env::Default()->RemoveDirRecursive(root_b);
  Env::Default()->RemoveDirRecursive(root_c);
}

TEST(SimClusterTest, ServiceEventsNameTheirMethod) {
  // The trace hash only proves that two runs of one build agree, so pin
  // what the events say: every request a simulated server serves is
  // labelled svc.<node>.<method> with a real method name. Labels, not a
  // hash value, so the check holds under every compiler.
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE(ReproLine("ServiceEventsNameTheirMethod", seed));
  MetricsRegistry::Instance().ResetForTest();
  const std::string root = FreshRoot("svc_" + std::to_string(seed));
  ScenarioResult result;
  RunPartitionPromoteScenario(seed, root, &result, /*record_trace=*/true);
  if (::testing::Test::HasFailure()) return;
  size_t served = 0;
  std::set<std::string> methods;
  for (const std::string& line : result.trace) {
    const size_t at = line.find(" ev=svc.");
    if (at == std::string::npos) continue;
    ++served;
    const std::string method = line.substr(line.rfind('.') + 1);
    EXPECT_NE(method, "unknown") << line;
    methods.insert(method);
  }
  EXPECT_GT(served, 0u) << "no service event in the trace";
  // The scenario writes through the wire and replicates to followers.
  EXPECT_EQ(methods.count("addNode"), 1u);
  EXPECT_EQ(methods.count("modifyNode"), 1u);
  EXPECT_EQ(methods.count("replFetch"), 1u);
  Env::Default()->RemoveDirRecursive(root);
}

TEST(SimClusterTest, LeaseAbortClientVanish) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE(ReproLine("LeaseAbortClientVanish", seed));
  MetricsRegistry::Instance().ResetForTest();
  const std::string root = FreshRoot("lease_" + std::to_string(seed));

  SimClusterOptions options;
  options.seed = seed;
  options.root = root;
  options.followers = 0;
  options.txn_lease_ms = 250;  // swept from the virtual clock
  SimCluster cluster(Env::Default(), options);

  auto client_a = cluster.NewClient("clientA", 0);
  ASSERT_NE(client_a, nullptr);
  auto created = client_a->CreateGraph(cluster.NodeDir(0), 0755);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const ham::ProjectId project = created->project;
  auto ctx_a = client_a->OpenGraph(project, "clientA", cluster.NodeDir(0));
  ASSERT_TRUE(ctx_a.ok()) << ctx_a.status().ToString();

  // Client A takes the writer slot and stages uncommitted work...
  ASSERT_TRUE(client_a->BeginTransaction(*ctx_a).ok());
  auto staged = client_a->AddNode(*ctx_a, true);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  ASSERT_TRUE(client_a->ModifyNode(*ctx_a, staged->node,
                                   staged->creation_time,
                                   "A uncommitted payload", {}, "sim")
                  .ok());

  // ...then the host vanishes: frames from A silently stop arriving.
  // No FIN, no RST — only the lease can free the writer slot.
  cluster.net()->Blackhole("clientA", SimCluster::HostName(0));

  cluster.RunFor(2'000'000);  // several lease periods
  EXPECT_GT(CounterNow("ham.txn.aborted_by_lease"), 0u)
      << "the lease sweep never aborted the vanished client's transaction";

  // A second writer must now be able to take the slot and commit.
  auto client_b = cluster.NewClient("clientB", 0);
  ASSERT_NE(client_b, nullptr);
  auto ctx_b = client_b->OpenGraph(project, "clientB", cluster.NodeDir(0));
  ASSERT_TRUE(ctx_b.ok()) << ctx_b.status().ToString();
  ASSERT_TRUE(client_b->BeginTransaction(*ctx_b).ok())
      << "writer slot still held after the lease abort";
  std::vector<Acked> acked;
  WriteNodes(client_b.get(), *ctx_b, "after-abort", 3, &acked);
  ASSERT_TRUE(client_b->CommitTransaction(*ctx_b).ok());
  EXPECT_TRUE(client_b->CloseGraph(*ctx_b).ok());

  // B's commits stand; A's staged bytes never became visible.
  VerifyAckedOnNode(&cluster, 0, project, acked, "node0");
  {
    ham::Ham* engine = cluster.node(0)->ham();
    auto ctx = engine->OpenGraph(project, "verify", cluster.NodeDir(0));
    ASSERT_TRUE(ctx.ok());
    auto ghost = engine->OpenNode(*ctx, staged->node, 0, {});
    if (ghost.ok()) {
      EXPECT_NE(ghost->contents, "A uncommitted payload")
          << "aborted transaction's bytes leaked into the store";
    }
    EXPECT_TRUE(engine->CloseGraph(*ctx).ok());
  }

  client_a.reset();  // still blackholed; dies without a goodbye
  Env::Default()->RemoveDirRecursive(root);
}

TEST(SimClusterTest, RetryStorm) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE(ReproLine("RetryStorm", seed));
  MetricsRegistry::Instance().ResetForTest();
  const std::string root = FreshRoot("storm_" + std::to_string(seed));

  SimClusterOptions options;
  options.seed = seed;
  options.root = root;
  options.followers = 0;
  options.service_time_us = 3000;  // slow server: requests pile up
  options.admission.shed_inflight_requests = 2;
  // The dial-in wave plateaus around six OpenGraphs in flight; a hard
  // cap of three forces admission control to shed part of the wave and
  // the clients to ride their Retry-After backoff.
  options.admission.max_inflight_requests = 3;
  options.retry_after_ms = 20;
  SimCluster cluster(Env::Default(), options);

  auto setup = cluster.NewClient("setup", 0);
  ASSERT_NE(setup, nullptr);
  auto created = setup->CreateGraph(cluster.NodeDir(0), 0755);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const ham::ProjectId project = created->project;
  auto setup_ctx = setup->OpenGraph(project, "setup", cluster.NodeDir(0));
  ASSERT_TRUE(setup_ctx.ok());
  std::vector<Acked> seeded;
  WriteNodes(setup.get(), *setup_ctx, "storm-seed", 1, &seeded);
  ASSERT_EQ(seeded.size(), 1u);
  EXPECT_TRUE(setup->CloseGraph(*setup_ctx).ok());
  const uint64_t shed_before = CounterNow("server.shed");

  // Dial every storm client in while the server is quiet (the connect
  // handshake is shed-exempt and would mask the storm otherwise).
  constexpr int kNumClients = 16;
  constexpr int kReadsPerClient = 3;
  std::vector<std::unique_ptr<rpc::RemoteHam>> storm;
  std::vector<ham::Context> storm_ctx;
  for (int i = 0; i < kNumClients; ++i) {
    rpc::RemoteHam::Options base;
    base.connect_timeout_ms = 2000;
    base.send_timeout_ms = 20000;
    base.recv_timeout_ms = 20000;
    base.max_retries = 12;  // ride out the shed wave
    auto client = cluster.NewClient("storm" + std::to_string(i), 0, base);
    ASSERT_NE(client, nullptr) << "storm client " << i << " could not dial";
    auto ctx = client->OpenGraph(project, "storm", cluster.NodeDir(0));
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    storm.push_back(std::move(client));
    storm_ctx.push_back(*ctx);
    cluster.RunFor(10'000);
  }

  // The storm: every client fires a read burst within 8 ms of virtual
  // time. The arrival wave blows far past the soft cap, so admission
  // control sheds most first attempts; the clients' jittered
  // Retry-After backoff must drain the pileup with every read
  // eventually succeeding.
  std::vector<int> completed(kNumClients, 0);
  for (int i = 0; i < kNumClients; ++i) {
    cluster.clock()->Schedule(
        static_cast<uint64_t>(i) * 500, "storm.client" + std::to_string(i),
        [&storm, &storm_ctx, &completed, i, node = seeded[0].node] {
          rpc::RemoteHam* client = storm[static_cast<size_t>(i)].get();
          for (int r = 0; r < kReadsPerClient; ++r) {
            auto opened =
                client->OpenNode(storm_ctx[static_cast<size_t>(i)], node, 0,
                                 {});
            if (!opened.ok()) {
              ADD_FAILURE() << "storm client " << i << " read " << r << ": "
                            << opened.status().ToString();
              break;
            }
            ++completed[i];
          }
        });
  }
  cluster.RunFor(30'000'000);

  for (int i = 0; i < kNumClients; ++i) {
    EXPECT_EQ(completed[i], kReadsPerClient)
        << "storm client " << i << " did not finish its reads";
  }
  const uint64_t shed_delta = CounterNow("server.shed") - shed_before;
  EXPECT_GT(shed_delta, 0u)
      << "admission control never shed — the storm was not a storm";
  std::printf("[sim] seed=%llu retry-storm shed=%llu clients=%d\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(shed_delta), kNumClients);
  for (int i = 0; i < kNumClients; ++i) {
    storm[static_cast<size_t>(i)]->CloseGraph(storm_ctx[static_cast<size_t>(i)]);
  }
  storm.clear();
  Env::Default()->RemoveDirRecursive(root);
}

TEST(SimClusterTest, PowerCutDuringFailover) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE(ReproLine("PowerCutDuringFailover", seed));
  MetricsRegistry::Instance().ResetForTest();
  const std::string root = FreshRoot("pcut_" + std::to_string(seed));

  SimClusterOptions options;
  options.seed = seed;
  options.root = root;
  options.followers = 1;
  options.checkpoint_wal_bytes = 32 << 10;
  options.repl_poll_wait_ms = 50;
  SimCluster cluster(Env::Default(), options);

  auto client = cluster.NewClient("client", 0);
  ASSERT_NE(client, nullptr);
  auto created = client->CreateGraph(cluster.NodeDir(0), 0755);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const ham::ProjectId project = created->project;
  auto ctx = client->OpenGraph(project, "client", cluster.NodeDir(0));
  ASSERT_TRUE(ctx.ok());
  cluster.StartReplication(1, 0);

  // Acked writes racing the replication stream — then the power goes.
  std::vector<Acked> epoch1;
  for (int burst = 0; burst < 5; ++burst) {
    WriteNodes(client.get(), *ctx, "pcut1." + std::to_string(burst), 5,
               &epoch1);
    if (::testing::Test::HasFailure()) return;
    cluster.RunFor(50 * 1000);  // deliberately short of a full drain
  }
  client.reset();  // the cut will kill the connection anyway
  cluster.CrashNode(0);

  // Durability invariant, checked BEFORE any rejoin: the rebooted
  // primary recovers every commit it ever acked from fsynced state.
  cluster.RestartNode(0, /*as_follower=*/false);
  VerifyAckedOnNode(&cluster, 0, project, epoch1, "rebooted node0");
  if (::testing::Test::HasFailure()) return;

  // Let the follower drain, then lose the primary for good.
  cluster.StartReplication(1, 0);
  ASSERT_TRUE(RunUntilSim(&cluster, 30'000'000, 100'000, [&] {
    return cluster.ReplicationCaughtUp(1);
  })) << "follower never drained before the final cut";
  cluster.StopReplication(1);
  cluster.CrashNode(0);

  // Failover: promote the follower, write a second epoch against it.
  auto term = cluster.Promote(1);
  ASSERT_TRUE(term.ok()) << term.status().ToString();
  auto client2 = cluster.NewClient("client", 1);
  ASSERT_NE(client2, nullptr);
  auto ctx2 = client2->OpenGraph(project, "client", cluster.NodeDir(1));
  ASSERT_TRUE(ctx2.ok());
  std::vector<Acked> all = epoch1;
  WriteNodes(client2.get(), *ctx2, "pcut2", 15, &all);
  if (::testing::Test::HasFailure()) return;

  // The old primary reboots as a follower of the new one and converges.
  cluster.RestartNode(0, /*as_follower=*/true);
  cluster.StartReplication(0, 1);
  ASSERT_TRUE(RunUntilSim(&cluster, 60'000'000, 200'000, [&] {
    return cluster.ReplicationCaughtUp(0) && NodesConverged(&cluster, 0, 1);
  })) << "old primary never converged after demotion";

  VerifyAckedOnNode(&cluster, 1, project, all, "promoted node1");
  VerifyAckedOnNode(&cluster, 0, project, all, "demoted node0");
  Env::Default()->RemoveDirRecursive(root);
}

// Windowed metrics under failover, entirely on the virtual clock: a
// local MetricsWindow is sampled once per simulated second (exactly
// what a StatsSampler tick does, minus the thread), and the follower's
// repl.apply_lag_us gauge must sit at zero while drained, climb while
// the primary is partitioned away, and clear after the heal. Same
// seed, same numbers.
TEST(SimClusterTest, WindowedMetricsPartitionHeal) {
  const uint64_t seed = BaseSeed();
  SCOPED_TRACE(ReproLine("WindowedMetricsPartitionHeal", seed));
  MetricsRegistry::Instance().ResetForTest();
  const std::string root = FreshRoot("obswin_" + std::to_string(seed));

  SimClusterOptions options;
  options.seed = seed;
  options.root = root;
  options.followers = 1;
  options.repl_poll_wait_ms = 50;
  SimCluster cluster(Env::Default(), options);

  auto client = cluster.NewClient("client", 0);
  ASSERT_NE(client, nullptr);
  auto created = client->CreateGraph(cluster.NodeDir(0), 0755);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto ctx = client->OpenGraph(created->project, "client",
                               cluster.NodeDir(0));
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  cluster.StartReplication(1, 0);

  obs::MetricsWindow window;
  auto sample = [&] { window.SampleNow(cluster.clock()); };

  // Writes with one sampler tick per simulated second.
  std::vector<Acked> acked;
  sample();
  for (int burst = 0; burst < 5; ++burst) {
    WriteNodes(client.get(), *ctx, "obswin" + std::to_string(burst), 4,
               &acked);
    if (::testing::Test::HasFailure()) return;
    cluster.RunFor(1'000'000);
    sample();
  }
  ASSERT_TRUE(RunUntilSim(&cluster, 30'000'000, 1'000'000, [&] {
    sample();
    return cluster.ReplicationCaughtUp(1);
  })) << "follower never drained";
  sample();

  // Drained: no apply lag, and the window saw the write traffic.
  EXPECT_EQ(GaugeNow("repl.apply_lag_us"), 0);
  EXPECT_GT(window.CounterRate("rpc.requests", 60'000'000), 0.0)
      << "windowed request rate stayed zero through the write bursts";

  // Partition the primary away; the follower's fetches fail and the
  // lag gauge must climb with virtual time.
  cluster.Partition(0, 1);
  for (int s = 0; s < 12; ++s) {
    cluster.RunFor(1'000'000);
    sample();
  }
  const int64_t lag_during = GaugeNow("repl.apply_lag_us");
  EXPECT_GT(lag_during, 2'000'000)
      << "apply lag did not rise during a 12s partition";

  // The windowed delta exposes the same gauge (newest value) — what
  // getServerStatisticsDelta ships to `neptune_ctl top`.
  MetricsSnapshot delta;
  uint64_t elapsed = 0;
  ASSERT_TRUE(window.Delta(5'000'000, &delta, &elapsed));
  EXPECT_GT(elapsed, 0u);
  auto lag_it = delta.gauges.find("repl.apply_lag_us");
  ASSERT_NE(lag_it, delta.gauges.end());
  EXPECT_EQ(lag_it->second, lag_during);

  // Heal: the follower re-drains and the lag clears.
  cluster.HealPartition(0, 1);
  ASSERT_TRUE(RunUntilSim(&cluster, 30'000'000, 1'000'000, [&] {
    sample();
    return cluster.ReplicationCaughtUp(1);
  })) << "follower never re-drained after the heal";
  EXPECT_EQ(GaugeNow("repl.apply_lag_us"), 0)
      << "apply lag did not clear after the partition healed";

  VerifyAckedOnNode(&cluster, 1, created->project, acked, "follower node1");
  Env::Default()->RemoveDirRecursive(root);
}

TEST(SimClusterTest, SeedSweep) {
  const char* sweep_env = std::getenv("NEPTUNE_SIM_SWEEP");
  const int sweep = sweep_env != nullptr ? std::atoi(sweep_env) : 0;
  const int count = sweep > 0 ? sweep : 2;
  const uint64_t base = BaseSeed();
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    SCOPED_TRACE(ReproLine("ReplicationPartitionPromote", seed));
    MetricsRegistry::Instance().ResetForTest();
    const std::string root = FreshRoot("sweep_" + std::to_string(seed));
    ScenarioResult ignored;
    RunPartitionPromoteScenario(seed, root, &ignored);
    if (::testing::Test::HasFailure()) {
      std::printf("[sim] FAILING SEED — repro: NEPTUNE_SIM_SEED=%llu "
                  "./sim_test --gtest_filter=SimClusterTest.*\n",
                  static_cast<unsigned long long>(seed));
      return;
    }
    Env::Default()->RemoveDirRecursive(root);
  }
}

}  // namespace
}  // namespace neptune
