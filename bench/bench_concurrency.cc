// Experiment B9 — the concurrent read path: per-graph reader-writer
// locking lets read-only HAM operations from different sessions run in
// parallel while one writer churns in the background.
//
// Measures aggregate ops/sec of openNode and getGraphQuery at 1..8
// reader threads, through the in-process engine and through the RPC
// server — one connection per reader, and (since PR 6) all readers
// multiplexed onto a single connection, where their calls overlap and
// go out tagged.
//
// Expected shape: near-linear scaling of reader throughput with
// threads while the (throttled) writer keeps taking the exclusive
// lock; before the shared_mutex split these curves were flat.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "rpc/remote_ham.h"
#include "rpc/server.h"

namespace neptune {
namespace {

constexpr int kNodes = 64;

// Shared graph + RPC server, built once for the whole binary.
struct ConcurrencyFixture {
  ConcurrencyFixture() : graph("b9_conc") {
    kind = *graph.ham()->GetAttributeIndex(graph.ctx(), "kind");
    for (int i = 0; i < kNodes; ++i) {
      ham::NodeIndex n =
          graph.MakeNode("node " + std::to_string(i) + " " +
                         std::string(1024, 'x'));
      graph.ham()->SetNodeAttributeValue(graph.ctx(), n, kind, "stable");
      nodes.push_back(n);
    }
    server = std::make_unique<rpc::Server>(graph.ham());
    port = *server->Start(0);
    pipelined = std::move(*rpc::RemoteHam::Connect("localhost", port));
  }

  ~ConcurrencyFixture() {
    pipelined.reset();
    server->Stop();
  }

  bench::ScratchGraph graph;
  ham::AttributeIndex kind = 0;
  std::vector<ham::NodeIndex> nodes;
  std::unique_ptr<rpc::Server> server;
  uint16_t port = 0;
  // One connection shared by every reader thread.
  std::unique_ptr<rpc::RemoteHam> pipelined;
};

ConcurrencyFixture* Fixture() {
  static ConcurrencyFixture* fixture = new ConcurrencyFixture();
  return fixture;
}

// One background writer per benchmark run, started in Setup (main
// thread) and joined in Teardown. It edits a dedicated node, sleeping
// between commits so it models steady background churn rather than a
// tight write loop — the point is reader scaling under a writer, not
// writer throughput (that is bench_transactions' job).
std::atomic<bool> writer_stop{false};
std::thread writer_thread;

void StartWriter(const benchmark::State&) {
  writer_stop = false;
  writer_thread = std::thread([] {
    ConcurrencyFixture* f = Fixture();
    auto ctx = f->graph.ham()->OpenGraph(f->graph.project(), "local",
                                         f->graph.dir());
    if (!ctx.ok()) return;
    auto added = f->graph.ham()->AddNode(*ctx, true);
    if (!added.ok()) return;
    ham::Time expected = added->creation_time;
    uint64_t i = 0;
    while (!writer_stop) {
      f->graph.ham()->ModifyNode(*ctx, added->node, expected,
                                 "churn " + std::to_string(i++), {}, "");
      auto stamp = f->graph.ham()->GetNodeTimeStamp(*ctx, added->node);
      if (stamp.ok()) expected = *stamp;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    f->graph.ham()->CloseGraph(*ctx);
  });
}

void StopWriter(const benchmark::State&) {
  writer_stop = true;
  if (writer_thread.joinable()) writer_thread.join();
}

void ReaderThreads(benchmark::internal::Benchmark* b) {
  b->Threads(1)->Threads(2)->Threads(4)->Threads(8);
  b->Setup(StartWriter)->Teardown(StopWriter);
  b->UseRealTime();
  b->Unit(benchmark::kMicrosecond);
}

void BM_LocalOpenNode(benchmark::State& state) {
  ConcurrencyFixture* f = Fixture();
  // Each reader is its own session, as it would be server-side.
  auto ctx = f->graph.ham()->OpenGraph(f->graph.project(), "local",
                                       f->graph.dir());
  Random rng(100 + state.thread_index());
  for (auto _ : state) {
    auto opened = f->graph.ham()->OpenNode(
        *ctx, f->nodes[rng.Uniform(f->nodes.size())], 0, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
  f->graph.ham()->CloseGraph(*ctx);
}

void BM_LocalGraphQuery(benchmark::State& state) {
  ConcurrencyFixture* f = Fixture();
  auto ctx = f->graph.ham()->OpenGraph(f->graph.project(), "local",
                                       f->graph.dir());
  for (auto _ : state) {
    auto result = f->graph.ham()->GetGraphQuery(*ctx, 0, "kind = stable", "",
                                                {f->kind}, {});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
  f->graph.ham()->CloseGraph(*ctx);
}

BENCHMARK(BM_LocalOpenNode)->Apply(ReaderThreads);
BENCHMARK(BM_LocalGraphQuery)->Apply(ReaderThreads);

// The same workloads through the RPC server. Each reader thread holds
// its own connection — the event loop multiplexes them, the worker
// pool runs them, and the shared lock is what decides whether they
// actually overlap.
void BM_RemoteOpenNode(benchmark::State& state) {
  ConcurrencyFixture* f = Fixture();
  auto client = std::move(*rpc::RemoteHam::Connect("localhost", f->port));
  auto ctx =
      *client->OpenGraph(f->graph.project(), "localhost", f->graph.dir());
  Random rng(200 + state.thread_index());
  for (auto _ : state) {
    auto opened =
        client->OpenNode(ctx, f->nodes[rng.Uniform(f->nodes.size())], 0, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
  client->CloseGraph(ctx);
}

void BM_RemoteGraphQuery(benchmark::State& state) {
  ConcurrencyFixture* f = Fixture();
  auto client = std::move(*rpc::RemoteHam::Connect("localhost", f->port));
  auto ctx =
      *client->OpenGraph(f->graph.project(), "localhost", f->graph.dir());
  for (auto _ : state) {
    auto result =
        client->GetGraphQuery(ctx, 0, "kind = stable", "", {f->kind}, {});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
  client->CloseGraph(ctx);
}

BENCHMARK(BM_RemoteOpenNode)->Apply(ReaderThreads);
BENCHMARK(BM_RemoteGraphQuery)->Apply(ReaderThreads);

// All readers share ONE connection (PR 6): their calls overlap, so the
// requests interleave on a single socket with ids, completing out of
// order, and N threads need neither N connections nor N server-side
// readers. A single reader's calls go out plain.
void BM_RemoteOpenNodeSharedPipelined(benchmark::State& state) {
  ConcurrencyFixture* f = Fixture();
  auto ctx = f->pipelined->OpenGraph(f->graph.project(), "localhost",
                                     f->graph.dir());
  Random rng(300 + state.thread_index());
  for (auto _ : state) {
    auto opened = f->pipelined->OpenNode(
        *ctx, f->nodes[rng.Uniform(f->nodes.size())], 0, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
  f->pipelined->CloseGraph(*ctx);
}

BENCHMARK(BM_RemoteOpenNodeSharedPipelined)->Apply(ReaderThreads);

}  // namespace
}  // namespace neptune

BENCHMARK_MAIN();
