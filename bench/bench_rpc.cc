// Experiment B6 — the client/server deployment: "a central server
// which is accessible over a local area network ... the user interface
// process communicates with the HAM using a remote procedure call
// mechanism" (paper §2.2/§4.1).
//
// Measures per-operation round-trip cost of the RPC layer (loopback
// TCP) against the same operations on the in-process engine, and how
// batched queries amortize the per-call overhead.
//
// Expected shape: a fixed per-call overhead (framing + syscalls +
// loopback) of tens of microseconds dominates small ops; large reads
// approach memcpy bandwidth; one big linearizeGraph beats N small
// openNode calls by ~N x the per-call overhead.

#include <benchmark/benchmark.h>

#include <deque>
#include <mutex>

#include "bench/bench_util.h"
#include "common/coding.h"
#include "common/trace.h"
#include "rpc/remote_ham.h"
#include "rpc/server.h"

namespace neptune {
namespace {

// A server + connected client + one populated graph, built once.
struct RpcFixture {
  RpcFixture() : graph("b6_rpc") {
    server = std::make_unique<rpc::Server>(graph.ham());
    port = *server->Start(0);
    client = std::move(*rpc::RemoteHam::Connect("localhost", port));
    pipelined = std::move(*rpc::RemoteHam::Connect("localhost", port));
    remote_ctx =
        *client->OpenGraph(graph.project(), "localhost", graph.dir());
    for (int i = 0; i < kStations; ++i) {
      Station station;
      station.client = std::move(*rpc::RemoteHam::Connect("localhost", port));
      station.ctx = *station.client->OpenGraph(graph.project(), "localhost",
                                               graph.dir());
      stations.push_back(std::move(station));
    }
    // A chain of 100 nodes with contents for traversal benches.
    ham::NodeIndex prev = 0;
    for (int i = 0; i < 100; ++i) {
      ham::NodeIndex n = graph.MakeNode("node contents " + std::to_string(i));
      nodes.push_back(n);
      if (prev != 0) {
        graph.ham()->AddLink(graph.ctx(), ham::LinkPt{prev, 0, 0, true},
                             ham::LinkPt{n, 0, 0, true});
      }
      prev = n;
    }
    big_node = graph.MakeNode(std::string(1 << 20, 'x'));
  }

  ~RpcFixture() {
    stations.clear();
    pipelined.reset();
    client.reset();
    server->Stop();
  }

  bench::ScratchGraph graph;
  std::unique_ptr<rpc::Server> server;
  uint16_t port = 0;
  std::unique_ptr<rpc::RemoteHam> client;
  // Held around each call by the one-in-flight baseline.
  std::mutex one_in_flight;
  // Shared by the pipelining benches, whose calls overlap and so go
  // out tagged.
  std::unique_ptr<rpc::RemoteHam> pipelined;
  ham::Context remote_ctx;
  // One plain connection per workstation thread (BM_..SyncClients).
  static constexpr int kStations = 4;
  struct Station {
    std::unique_ptr<rpc::RemoteHam> client;
    ham::Context ctx;
  };
  std::vector<Station> stations;
  std::vector<ham::NodeIndex> nodes;
  ham::NodeIndex big_node = 0;
};

RpcFixture* Fixture() {
  static RpcFixture* fixture = new RpcFixture();
  return fixture;
}

void BM_OpenNodeLocal(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    auto opened = f->graph.ham()->OpenNode(f->graph.ctx(), f->nodes[0], 0, {});
    benchmark::DoNotOptimize(opened);
  }
}

void BM_OpenNodeRemote(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    auto opened = f->client->OpenNode(f->remote_ctx, f->nodes[0], 0, {});
    benchmark::DoNotOptimize(opened);
  }
}

BENCHMARK(BM_OpenNodeLocal)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OpenNodeRemote)->Unit(benchmark::kMicrosecond);

void BM_PingRoundTrip(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->client->Ping());
  }
}

BENCHMARK(BM_PingRoundTrip)->Unit(benchmark::kMicrosecond);

// Pipelining (PR 6). The acceptance pair: 8 threads sharing ONE
// connection. The baseline admits a single request in flight: a mutex
// around each call serializes the 8 threads, so every request goes out
// plain. Without it the calls overlap, go out tagged with ids and
// complete out of order, so all 8 ride the wire at once.
void BM_OpenNodeRemoteShared1InFlight(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(f->one_in_flight);
    auto opened = f->client->OpenNode(f->remote_ctx, f->nodes[0], 0, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_OpenNodeRemoteSharedPipelined(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    auto opened = f->pipelined->OpenNode(f->remote_ctx, f->nodes[0], 0, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_OpenNodeRemoteShared1InFlight)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OpenNodeRemoteSharedPipelined)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The microbenchmark shape of paper-session browse traffic: four
// workstations, each on its own plain connection with one request in
// flight, issuing small reads back to back. Every call pays the full
// server hand-off path (read, execute, reply) with no pipelining to
// hide it.
void BM_OpenNodeRemoteSyncClients(benchmark::State& state) {
  RpcFixture* f = Fixture();
  const RpcFixture::Station& station = f->stations[state.thread_index()];
  for (auto _ : state) {
    auto opened = station.client->OpenNode(station.ctx, f->nodes[0], 0, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_OpenNodeRemoteSyncClients)
    ->Threads(RpcFixture::kStations)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// One thread keeping a window of N async openNode calls in flight —
// pipelining without any client-side thread fan-out. The window depth
// is the argument; 8 matches the acceptance setup of 8 concurrent
// requests on one connection.
void BM_OpenNodeRemotePipelinedWindow(benchmark::State& state) {
  RpcFixture* f = Fixture();
  const size_t depth = static_cast<size_t>(state.range(0));
  std::string args;
  rpc::EncodeArgs(&args, f->remote_ctx, f->nodes[0], ham::Time{0},
                  std::vector<ham::AttributeIndex>{});  // no attributes
  std::deque<rpc::RemoteHam::PendingCall> window;
  for (auto _ : state) {
    while (window.size() < depth) {
      window.push_back(f->pipelined->CallAsync(rpc::Method::kOpenNode, args));
    }
    auto reply = window.front().Wait();
    window.pop_front();
    benchmark::DoNotOptimize(reply);
  }
  while (!window.empty()) {
    window.front().Wait();
    window.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_OpenNodeRemotePipelinedWindow)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The full acceptance shape: 8 concurrent clients, each keeping its
// own 8-deep window of async openNode calls on the ONE shared
// pipelined connection. Compare with the same 8 threads on the
// one-in-flight client above.
void BM_OpenNodeRemoteSharedPipelinedWindow8(benchmark::State& state) {
  RpcFixture* f = Fixture();
  std::string args;
  rpc::EncodeArgs(&args, f->remote_ctx, f->nodes[0], ham::Time{0},
                  std::vector<ham::AttributeIndex>{});  // no attributes
  std::deque<rpc::RemoteHam::PendingCall> window;
  for (auto _ : state) {
    while (window.size() < 8) {
      window.push_back(f->pipelined->CallAsync(rpc::Method::kOpenNode, args));
    }
    auto reply = window.front().Wait();
    window.pop_front();
    benchmark::DoNotOptimize(reply);
  }
  while (!window.empty()) {
    window.front().Wait();
    window.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_OpenNodeRemoteSharedPipelinedWindow8)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Tracing cost. The plain remote benches above run with tracing
// disabled (trace_sample_n = 0, the default) — the disabled path is a
// single relaxed atomic load per would-be span. These variants turn on
// sampling around the same remote openNode so BENCH json carries the
// traced-vs-untraced comparison directly: _Traced records every
// request (client span + server span + op/lock/reconstruct children),
// _Sampled1in64 is the recommended production setting.
void BM_OpenNodeRemoteTraced(benchmark::State& state) {
  RpcFixture* f = Fixture();
  Tracer::Instance().Configure(/*sample_n=*/1, /*slow_us=*/0);
  for (auto _ : state) {
    auto opened = f->client->OpenNode(f->remote_ctx, f->nodes[0], 0, {});
    benchmark::DoNotOptimize(opened);
  }
  Tracer::Instance().Configure(0, 0);
}

void BM_OpenNodeRemoteSampled1in64(benchmark::State& state) {
  RpcFixture* f = Fixture();
  Tracer::Instance().Configure(/*sample_n=*/64, /*slow_us=*/0);
  for (auto _ : state) {
    auto opened = f->client->OpenNode(f->remote_ctx, f->nodes[0], 0, {});
    benchmark::DoNotOptimize(opened);
  }
  Tracer::Instance().Configure(0, 0);
}

BENCHMARK(BM_OpenNodeRemoteTraced)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OpenNodeRemoteSampled1in64)->Unit(benchmark::kMicrosecond);

void BM_LargeReadRemote(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    auto opened = f->client->OpenNode(f->remote_ctx, f->big_node, 0, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (1 << 20));
}

BENCHMARK(BM_LargeReadRemote)->Unit(benchmark::kMicrosecond);

void BM_ModifyNodeRemote(benchmark::State& state) {
  RpcFixture* f = Fixture();
  auto added = f->client->AddNode(f->remote_ctx, true);
  ham::Time expected = added->creation_time;
  uint64_t i = 0;
  for (auto _ : state) {
    f->client->ModifyNode(f->remote_ctx, added->node, expected,
                          "edit " + std::to_string(i++), {}, "");
    expected = *f->client->GetNodeTimeStamp(f->remote_ctx, added->node);
  }
}

BENCHMARK(BM_ModifyNodeRemote)->Unit(benchmark::kMicrosecond);

// The amortization comparison: fetch 100 nodes one by one vs one
// linearizeGraph returning the whole chain.
void BM_ChainFetchPerNodeRemote(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    for (ham::NodeIndex n : f->nodes) {
      auto opened = f->client->OpenNode(f->remote_ctx, n, 0, {});
      benchmark::DoNotOptimize(opened);
    }
  }
  state.counters["nodes"] = static_cast<double>(f->nodes.size());
}

void BM_ChainFetchBatchedRemote(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    auto result = f->client->LinearizeGraph(f->remote_ctx, f->nodes[0], 0, "",
                                            "", {}, {});
    benchmark::DoNotOptimize(result);
  }
  state.counters["nodes"] = static_cast<double>(f->nodes.size());
}

// The batch wire ops (PR 6): the same 100-node fetch as one openNodes
// call, and structure + contents in one linearizeAndFetch round trip.
void BM_ChainFetchOpenNodesBatch(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    auto batch = f->client->OpenNodes(f->remote_ctx, f->nodes, 0, {});
    benchmark::DoNotOptimize(batch);
  }
  state.counters["nodes"] = static_cast<double>(f->nodes.size());
}

void BM_LinearizeAndFetchRemote(benchmark::State& state) {
  RpcFixture* f = Fixture();
  for (auto _ : state) {
    auto result = f->client->LinearizeAndFetch(f->remote_ctx, f->nodes[0], 0,
                                               "", "", {}, {});
    benchmark::DoNotOptimize(result);
  }
  state.counters["nodes"] = static_cast<double>(f->nodes.size());
}

BENCHMARK(BM_ChainFetchPerNodeRemote)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ChainFetchBatchedRemote)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ChainFetchOpenNodesBatch)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LinearizeAndFetchRemote)->Unit(benchmark::kMicrosecond);

void BM_TransactionRemote(benchmark::State& state) {
  RpcFixture* f = Fixture();
  const int ops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    f->client->BeginTransaction(f->remote_ctx);
    for (int i = 0; i < ops; ++i) {
      benchmark::DoNotOptimize(f->client->AddNode(f->remote_ctx, true));
    }
    f->client->CommitTransaction(f->remote_ctx);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}

BENCHMARK(BM_TransactionRemote)->Arg(1)->Arg(10)->Unit(
    benchmark::kMicrosecond);

}  // namespace
}  // namespace neptune

BENCHMARK_MAIN();
