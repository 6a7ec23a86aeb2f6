// Experiment B2 — "provides rapid access to any version of a
// hypergraph" (paper §3).
//
// Measures openNode latency as a function of version depth (how far
// back from the current version) for the backward-delta representation
// and the bench-local full-copy and forward-delta baselines
// (baseline_chain.h).
//
// Expected shape: the current version is O(1) for both; with backward
// deltas, cost grows linearly with depth (each step applies one
// delta); full-copy stays flat but pays its storage price (B1). The
// design bet of §3 is that recent versions — the common case — are the
// cheapest.
//
// The write side of the same axis, BM_ModifyNodeAtDepth, is flat: a
// write copies a node's current contents and history tails, never its
// history.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>

#include "bench/baseline_chain.h"
#include "bench/bench_util.h"
#include "delta/recon_cache.h"
#include "delta/version_chain.h"

namespace neptune {
namespace {

using bench::BaselineChain;
using delta::ChainMode;
using delta::VersionChain;

// Repeated Get() of the same version would otherwise be served by the
// process-global reconstruction cache after the first iteration,
// hiding the delta-walk cost these benchmarks measure.
class ScopedCacheOff {
 public:
  ScopedCacheOff()
      : saved_(delta::ReconstructionCache::Instance().capacity_bytes()) {
    delta::ReconstructionCache::Instance().set_capacity_bytes(0);
  }
  ~ScopedCacheOff() {
    delta::ReconstructionCache::Instance().set_capacity_bytes(saved_);
  }

 private:
  size_t saved_;
};

// Reads `time` once, untimed, and compares it with `want`: a layout
// that returned the wrong contents would time nothing worth comparing.
template <typename Chain>
bool ReadsBack(benchmark::State& state, const Chain& chain, uint64_t time,
               const std::string& want) {
  Result<std::string> got = chain.Get(time);
  if (got.ok() && *got == want) return true;
  state.SkipWithError("chain returned the wrong version");
  return false;
}

// `Chain` is VersionChain or BaselineChain, passed empty. Args:
// {total_versions, depth_from_current}.
template <typename Chain>
void BM_ChainGetAtDepth(benchmark::State& state, Chain chain) {
  const int versions = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  ScopedCacheOff cache_off;
  Random rng(3);
  std::string text = rng.NextString(16 << 10);
  std::vector<uint64_t> times;
  std::vector<std::string> texts;
  uint64_t t = 0;
  for (int v = 0; v < versions; ++v) {
    bench::RandomEdit(&rng, &text, 64);
    chain.Append(++t, text, "");
    times.push_back(t);
    texts.push_back(text);
  }
  const size_t target = times.size() - 1 - depth;
  if (!ReadsBack(state, chain, times[target], texts[target])) return;
  for (auto _ : state) {
    auto contents = chain.Get(times[target]);
    benchmark::DoNotOptimize(contents);
  }
  state.counters["depth"] = depth;
}

void DepthArgs(benchmark::internal::Benchmark* b) {
  for (int depth : {0, 1, 10, 100, 499}) {
    b->Args({500, depth});
  }
}

BENCHMARK_CAPTURE(BM_ChainGetAtDepth, backward_delta,
                  VersionChain(ChainMode::kBackwardDelta))
    ->Apply(DepthArgs);
BENCHMARK_CAPTURE(BM_ChainGetAtDepth, full_copy,
                  BaselineChain(BaselineChain::Layout::kFullCopy))
    ->Apply(DepthArgs);
// The ablation that justifies RCS-style backward deltas: with forward
// (SCCS-style) deltas every read but the cached newest walks up from
// the OLDEST version, so recent history, the common read, costs most.
BENCHMARK_CAPTURE(BM_ChainGetAtDepth, forward_delta,
                  BaselineChain(BaselineChain::Layout::kForwardDelta))
    ->Apply(DepthArgs);

// Keyframe ablation: reading the OLDEST version of a deep backward
// chain is the worst case (the walk starts at the current version).
// With a keyframe every K versions the walk is bounded by K delta
// applies regardless of chain length; with keyframes off it applies
// one delta per version of depth. Arg: keyframe interval (0 = off).
void BM_ChainGetOldestKeyframeAblation(benchmark::State& state) {
  const int versions = 256;
  const uint32_t interval = static_cast<uint32_t>(state.range(0));
  ScopedCacheOff cache_off;
  Random rng(3);
  std::string text = rng.NextString(16 << 10);
  VersionChain chain(ChainMode::kBackwardDelta);
  chain.set_keyframe_interval(interval);
  uint64_t t = 0;
  uint64_t oldest = 0;
  std::string oldest_text;
  for (int v = 0; v < versions; ++v) {
    bench::RandomEdit(&rng, &text, 64);
    chain.Append(++t, text, "");
    if (v == 0) {
      oldest = t;
      oldest_text = text;
    }
  }
  if (!ReadsBack(state, chain, oldest, oldest_text)) return;
  for (auto _ : state) {
    auto contents = chain.Get(oldest);
    benchmark::DoNotOptimize(contents);
  }
  state.counters["keyframe_interval"] = interval;
  state.counters["stored_bytes"] =
      static_cast<double>(chain.StoredBytes());
}

BENCHMARK(BM_ChainGetOldestKeyframeAblation)->Arg(0)->Arg(16);

// The cache path the ablation above deliberately bypasses: repeated
// reads of the same historical version are served from the
// reconstruction cache without applying any deltas.
void BM_ChainGetOldestCached(benchmark::State& state) {
  const int versions = 256;
  Random rng(3);
  std::string text = rng.NextString(16 << 10);
  VersionChain chain(ChainMode::kBackwardDelta);
  uint64_t t = 0;
  uint64_t oldest = 0;
  std::string oldest_text;
  for (int v = 0; v < versions; ++v) {
    bench::RandomEdit(&rng, &text, 64);
    chain.Append(++t, text, "");
    if (v == 0) {
      oldest = t;
      oldest_text = text;
    }
  }
  if (!ReadsBack(state, chain, oldest, oldest_text)) return;
  delta::ReconstructionCache::Instance().Clear();
  for (auto _ : state) {
    auto contents = chain.Get(oldest);
    benchmark::DoNotOptimize(contents);
  }
}

BENCHMARK(BM_ChainGetOldestCached);

// The same sweep through the full HAM: openNode at a historical time.
void BM_HamOpenNodeAtDepth(benchmark::State& state) {
  const int versions = 200;
  const int depth = static_cast<int>(state.range(0));
  bench::ScratchGraph graph("b2_open");
  // After graph construction: the Ham constructor sets the cache
  // capacity from its options, which would undo an earlier override.
  ScopedCacheOff cache_off;  // measure the walk (bounded by keyframes)
  Random rng(5);
  std::string text = rng.NextString(16 << 10);
  auto added = graph.ham()->AddNode(graph.ctx(), true);
  ham::Time expected = added->creation_time;
  std::vector<ham::Time> times;
  for (int v = 0; v < versions; ++v) {
    bench::RandomEdit(&rng, &text, 64);
    graph.ham()->ModifyNode(graph.ctx(), added->node, expected, text, {}, "");
    expected = *graph.ham()->GetNodeTimeStamp(graph.ctx(), added->node);
    times.push_back(expected);
  }
  const ham::Time target = times[times.size() - 1 - depth];
  for (auto _ : state) {
    auto opened = graph.ham()->OpenNode(graph.ctx(), added->node, target, {});
    benchmark::DoNotOptimize(opened);
  }
  state.counters["depth"] = depth;
}

BENCHMARK(BM_HamOpenNodeAtDepth)->Arg(0)->Arg(10)->Arg(100)->Arg(199);

// getNodeDifferences between two versions `gap` apart.
void BM_HamNodeDifferences(benchmark::State& state) {
  const int gap = static_cast<int>(state.range(0));
  bench::ScratchGraph graph("b2_diff");
  Random rng(9);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "line " + std::to_string(i) + " of the document\n";
  }
  auto added = graph.ham()->AddNode(graph.ctx(), true);
  ham::Time expected = added->creation_time;
  std::vector<ham::Time> times;
  for (int v = 0; v < 100; ++v) {
    text += "appended line " + std::to_string(v) + "\n";
    graph.ham()->ModifyNode(graph.ctx(), added->node, expected, text, {}, "");
    expected = *graph.ham()->GetNodeTimeStamp(graph.ctx(), added->node);
    times.push_back(expected);
  }
  for (auto _ : state) {
    auto diffs = graph.ham()->GetNodeDifferences(
        graph.ctx(), added->node, times[times.size() - 1 - gap],
        times.back());
    benchmark::DoNotOptimize(diffs);
  }
}

BENCHMARK(BM_HamNodeDifferences)->Arg(1)->Arg(10)->Arg(99);

// Write cost against history depth: one modifyNode (plus the
// getNodeTimeStamp that yields the next expected time) on a node that
// already holds `depth` versions, with sync off so fsync does not hide
// the in-memory work. A small pool of nodes is written round-robin and
// PruneHistory drops the oldest passes (B7's pattern), so the depth
// stays within depth + depth/64 however many iterations run. Unlike
// B7 it prunes every depth/64 passes rather than every pass: a prune
// rewrites the snapshot (MiBs at depth 16384), and pruning every pass
// would time the cache refill after that checkpoint instead of the
// write. The copy-on-write that stages the node shares its history
// chunks, so the cost should not grow with depth: CI fails when
// /16384 costs more than 2x /1.
void BM_ModifyNodeAtDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const size_t passes_per_prune = std::max(1, depth / 64);
  constexpr int kPool = 4;
  bench::ScratchGraph graph("b2_modify");
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  Random rng(11);
  std::string text = rng.NextString(256);
  std::vector<ham::NodeIndex> pool;
  std::vector<ham::Time> expected;
  for (int n = 0; n < kPool; ++n) {
    auto added = ham->AddNode(ctx, true);
    pool.push_back(added->node);
    expected.push_back(added->creation_time);
  }
  bool failed = false;
  auto modify = [&](size_t k) {
    text[rng.Uniform(text.size())] = static_cast<char>('a' + rng.Uniform(26));
    failed |= !ham->ModifyNode(ctx, pool[k], expected[k], text, {}, "").ok();
    expected[k] = *ham->GetNodeTimeStamp(ctx, pool[k]);
  };
  // Time of each pass's last write, oldest pass first.
  std::deque<ham::Time> pass_ends;
  for (int d = 0; d < depth; ++d) {
    for (size_t k = 0; k < pool.size(); ++k) modify(k);
    pass_ends.push_back(expected.back());
  }
  size_t next = 0;
  for (auto _ : state) {
    if (next == pool.size()) {
      state.PauseTiming();
      pass_ends.push_back(expected.back());
      if (pass_ends.size() > static_cast<size_t>(depth) + passes_per_prune) {
        // Keeps the versions in effect from the end of the pass
        // `passes_per_prune` after the oldest on: `depth` per node.
        ham->PruneHistory(ctx, pass_ends[passes_per_prune]);
        pass_ends.erase(pass_ends.begin(),
                        pass_ends.begin() +
                            static_cast<std::ptrdiff_t>(passes_per_prune));
      }
      next = 0;
      state.ResumeTiming();
    }
    modify(next++);
  }
  if (failed) state.SkipWithError("modifyNode failed");
  state.counters["depth"] = depth;
}

BENCHMARK(BM_ModifyNodeAtDepth)
    ->Arg(1)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace neptune

BENCHMARK_MAIN();
