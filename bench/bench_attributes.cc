// Experiment B7 — attributes as the semantic layer: "an unlimited
// number of attribute/value pairs can be attached to a node or link
// ... very dynamic" (paper §3/§4.2).
//
// Measures attach/update/read/detach throughput, versioned (archive)
// vs unversioned (file) objects, sets at fixed history depths, and
// reads at historical times as the per-attribute history grows.
//
// Expected shape: sets are O(log history) appends plus the commit
// path; current reads O(log history); historical reads the same (one
// binary search); file-node sets stay O(1) since history is replaced.

#include <benchmark/benchmark.h>

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "query/predicate.h"

namespace neptune {
namespace {

// Args: {archive, depth}. Every timed set lands on an attribute whose
// history already holds `depth` versions, however many iterations the
// run takes: a pool of nodes is filled to that depth, each pass sets
// every pool node once, and an untimed PruneHistory then drops the
// oldest pass again. (File nodes keep one version at any depth.)
void BM_SetNodeAttribute(benchmark::State& state) {
  const bool archive = state.range(0) != 0;
  const int depth = static_cast<int>(state.range(1));
  constexpr int kPool = 64;
  bench::ScratchGraph graph("b7_set");
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  auto attr = *ham->GetAttributeIndex(ctx, "status");
  std::vector<ham::NodeIndex> pool;
  for (int n = 0; n < kPool; ++n) {
    pool.push_back(ham->AddNode(ctx, archive)->node);
  }
  uint64_t i = 0;
  auto set = [&](ham::NodeIndex node) {
    ham->SetNodeAttributeValue(ctx, node, attr,
                               "value-" + std::to_string(i++ % 16));
  };
  // Time of each pass's last write, oldest pass first.
  std::deque<ham::Time> pass_ends;
  for (int d = 0; d < depth; ++d) {
    for (ham::NodeIndex node : pool) set(node);
    pass_ends.push_back(ham->GetStats(ctx)->current_time);
  }
  size_t next = 0;
  for (auto _ : state) {
    if (next == pool.size()) {
      state.PauseTiming();
      pass_ends.push_back(ham->GetStats(ctx)->current_time);
      // Keeps the versions in effect from the end of the second-oldest
      // pass on: `depth` per pool node.
      ham->PruneHistory(ctx, pass_ends[1]);
      pass_ends.pop_front();
      next = 0;
      state.ResumeTiming();
    }
    set(pool[next++]);
  }
  state.SetLabel(archive ? "archive (versioned)" : "file (unversioned)");
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_SetNodeAttribute)
    ->Args({1, 16})
    ->Args({1, 1024})
    ->Args({0, 16})
    ->ArgNames({"archive", "depth"})
    ->Unit(benchmark::kMicrosecond);

void BM_GetNodeAttribute(benchmark::State& state) {
  const int history = static_cast<int>(state.range(0));
  const bool historical = state.range(1) != 0;
  bench::ScratchGraph graph("b7_get");
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  auto added = ham->AddNode(ctx, true);
  auto attr = *ham->GetAttributeIndex(ctx, "status");
  ham::Time mid = 0;
  for (int i = 0; i < history; ++i) {
    ham->SetNodeAttributeValue(ctx, added->node, attr,
                               "v" + std::to_string(i));
    if (i == history / 2) mid = ham->GetStats(ctx)->current_time;
  }
  const ham::Time when = historical ? mid : 0;
  for (auto _ : state) {
    auto value = ham->GetNodeAttributeValue(ctx, added->node, attr, when);
    benchmark::DoNotOptimize(value);
  }
  state.SetLabel(historical ? "historical read" : "current read");
}

BENCHMARK(BM_GetNodeAttribute)
    ->ArgsProduct({{1, 100, 10000}, {0, 1}})
    ->ArgNames({"history", "past"})
    ->Unit(benchmark::kMicrosecond);

void BM_GetNodeAttributesAll(benchmark::State& state) {
  const int attrs = static_cast<int>(state.range(0));
  bench::ScratchGraph graph("b7_all");
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  auto added = ham->AddNode(ctx, true);
  for (int i = 0; i < attrs; ++i) {
    auto attr = *ham->GetAttributeIndex(ctx, "attr" + std::to_string(i));
    ham->SetNodeAttributeValue(ctx, added->node, attr,
                               "value" + std::to_string(i));
  }
  for (auto _ : state) {
    auto all = ham->GetNodeAttributes(ctx, added->node, 0);
    benchmark::DoNotOptimize(all);
  }
  state.counters["attrs"] = attrs;
}

BENCHMARK(BM_GetNodeAttributesAll)->Arg(1)->Arg(16)->Arg(128)->Unit(
    benchmark::kMicrosecond);

void BM_GetAttributeIndexInterned(benchmark::State& state) {
  bench::ScratchGraph graph("b7_intern");
  auto* ham = graph.ham();
  auto ctx = graph.ctx();
  ham->GetAttributeIndex(ctx, "contentType");
  for (auto _ : state) {
    auto attr = ham->GetAttributeIndex(ctx, "contentType");
    benchmark::DoNotOptimize(attr);
  }
}

BENCHMARK(BM_GetAttributeIndexInterned)->Unit(benchmark::kMicrosecond);

// Binds a predicate's slots to fixed values, as the HAM binds them to
// one record's attribute history.
class FixedSlots : public query::Predicate::SlotSource {
 public:
  FixedSlots(const query::Predicate& pred,
             const std::map<std::string, std::string>& values) {
    for (const std::string& name : pred.slot_names()) {
      auto it = values.find(name);
      values_.push_back(it == values.end()
                            ? std::nullopt
                            : std::optional<std::string>(it->second));
    }
  }

  std::optional<std::string_view> GetSlot(size_t slot) const override {
    return values_[slot];
  }

 private:
  std::vector<std::optional<std::string>> values_;
};

void BM_PredicateEvaluation(benchmark::State& state) {
  // Pure predicate-evaluation cost, factored out of query scans.
  auto pred = *query::Predicate::Parse(
      "(kind = special | serial < 50) & !(serial = 77) & exists kind");
  FixedSlots slots(pred, {{"kind", "special"}, {"serial", "123"}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.Matches(slots));
  }
}

BENCHMARK(BM_PredicateEvaluation);

}  // namespace
}  // namespace neptune

BENCHMARK_MAIN();
