// Experiment B1 — "effective storage of many versions ... without
// copying each individual item; for nodes this is provided by backward
// deltas similar to RCS" (paper §3).
//
// Measures, for a node that accumulates versions through small edits:
//   * bytes stored by the backward-delta representation vs the
//     full-copy and forward-delta baselines (counter: stored_bytes,
//     ratio); the baselines are bench-local (baseline_chain.h)
//   * version-append cost for backward deltas vs full copies
//
// Expected shape: delta storage grows with edit size, not contents
// size; full-copy grows with contents size per version; delta wins by
// roughly contents_size / edit_size.

#include <benchmark/benchmark.h>

#include "bench/baseline_chain.h"
#include "bench/bench_util.h"
#include "delta/version_chain.h"

namespace neptune {
namespace {

using bench::BaselineChain;
using delta::ChainMode;
using delta::VersionChain;

// `Chain` is VersionChain or BaselineChain; `empty` is the chain each
// iteration starts from. Args: {versions, contents_size, edit_size}.
template <typename Chain>
void BM_VersionChainStorage(benchmark::State& state, const Chain& empty) {
  const int versions = static_cast<int>(state.range(0));
  const size_t contents_size = static_cast<size_t>(state.range(1));
  const size_t edit_size = static_cast<size_t>(state.range(2));

  size_t stored = 0;
  size_t full = 0;
  for (auto _ : state) {
    Random rng(42);
    std::string text = rng.NextString(contents_size);
    Chain chain = empty;
    uint64_t t = 0;
    for (int v = 0; v < versions; ++v) {
      bench::RandomEdit(&rng, &text, edit_size);
      benchmark::DoNotOptimize(chain.Append(++t, text, ""));
      full += text.size();
    }
    stored += chain.StoredBytes();
  }
  state.counters["stored_bytes"] =
      benchmark::Counter(static_cast<double>(stored) / state.iterations());
  state.counters["vs_full_copy"] =
      static_cast<double>(stored) / static_cast<double>(full);
  state.counters["versions"] = versions;
}

void DeltaArgs(benchmark::internal::Benchmark* b) {
  for (int versions : {10, 100, 500}) {
    for (int contents : {4 << 10, 64 << 10}) {
      for (int edit : {16, 256}) {
        b->Args({versions, contents, edit});
      }
    }
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK_CAPTURE(BM_VersionChainStorage, backward_delta,
                  VersionChain(ChainMode::kBackwardDelta))
    ->Apply(DeltaArgs);
BENCHMARK_CAPTURE(BM_VersionChainStorage, full_copy,
                  BaselineChain(BaselineChain::Layout::kFullCopy))
    ->Apply(DeltaArgs);
BENCHMARK_CAPTURE(BM_VersionChainStorage, forward_delta,
                  BaselineChain(BaselineChain::Layout::kForwardDelta))
    ->Apply(DeltaArgs);

// Append latency for one more version on an existing chain.
template <typename Chain>
void BM_VersionAppend(benchmark::State& state, Chain chain) {
  const size_t contents_size = static_cast<size_t>(state.range(0));
  Random rng(7);
  std::string text = rng.NextString(contents_size);
  uint64_t t = 0;
  chain.Append(++t, text, "");
  for (auto _ : state) {
    bench::RandomEdit(&rng, &text, 64);
    benchmark::DoNotOptimize(chain.Append(++t, text, ""));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(contents_size));
}

BENCHMARK_CAPTURE(BM_VersionAppend, backward_delta,
                  VersionChain(ChainMode::kBackwardDelta))
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(512 << 10);
BENCHMARK_CAPTURE(BM_VersionAppend, full_copy,
                  BaselineChain(BaselineChain::Layout::kFullCopy))
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(512 << 10);

// End-to-end: the same comparison through the full HAM (WAL + commit),
// archive node vs file node.
void BM_HamModifyNode(benchmark::State& state) {
  const bool archive = state.range(0) != 0;
  const size_t contents_size = static_cast<size_t>(state.range(1));
  bench::ScratchGraph graph("b1_modify");
  Random rng(11);
  std::string text = rng.NextString(contents_size);
  auto added = graph.ham()->AddNode(graph.ctx(), archive);
  ham::Time expected = added->creation_time;
  for (auto _ : state) {
    bench::RandomEdit(&rng, &text, 64);
    benchmark::DoNotOptimize(graph.ham()->ModifyNode(
        graph.ctx(), added->node, expected, text, {}, ""));
    expected = *graph.ham()->GetNodeTimeStamp(graph.ctx(), added->node);
  }
}

BENCHMARK(BM_HamModifyNode)
    ->ArgsProduct({{1, 0}, {4 << 10, 64 << 10}})
    ->ArgNames({"archive", "bytes"});

}  // namespace
}  // namespace neptune

BENCHMARK_MAIN();
