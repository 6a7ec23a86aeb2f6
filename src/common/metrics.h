// Process-wide metrics for the Neptune server: named counters, gauges
// and fixed-bucket latency histograms. The paper's HAM is "a central
// server which is accessible over a local area network"; an operator
// of such a server needs per-operation rates, latency distributions
// and storage/transaction visibility, so every layer of the stack
// reports here and the RPC layer exports a snapshot over the wire
// (Method::kGetServerStatistics).
//
// Design:
//  * The hot path is one relaxed atomic add — instrumented call sites
//    resolve a metric to a pointer once (static local) and bump it.
//  * Registration is mutex-guarded and happens once per name; the
//    registry hands out stable pointers, never invalidated (metrics
//    live for the process lifetime).
//  * Reads are snapshot-on-read: Snapshot() copies every value at one
//    instant; writers are never blocked.
//  * Histograms use fixed power-of-~2 microsecond buckets so merging
//    and wire encoding are trivial and bump cost is a branch-free
//    search plus one atomic add.
//  * Scopes are timed by the span that traces them (common/trace.h):
//    NEPTUNE_TRACE_SPAN(var, span_name, histogram_name) records one
//    sample into the histogram and bumps `histogram_name.count`, with
//    tracing on or off, so an operation carries one instrument.

#ifndef NEPTUNE_COMMON_METRICS_H_
#define NEPTUNE_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace neptune {

// A monotonically increasing count (operations served, bytes written).
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A value that goes up and down (open connections, open sessions).
class Gauge {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Decrement() { value_.fetch_sub(1, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Latency histogram over fixed microsecond buckets. Bucket i counts
// samples in [kBucketBounds[i-1], kBucketBounds[i]); the last bucket
// is unbounded. Also tracks count/sum/max for mean latency.
class Histogram {
 public:
  // Upper bounds in microseconds; roughly doubling, 1us .. ~8.4s.
  static constexpr uint64_t kBucketBounds[] = {
      1,    2,    4,     8,     16,     32,     64,      128,     256,
      512,  1024, 2048,  4096,  8192,   16384,  32768,   65536,   131072,
      262144, 524288, 1048576, 2097152, 4194304, 8388608};
  static constexpr size_t kNumBuckets =
      sizeof(kBucketBounds) / sizeof(kBucketBounds[0]) + 1;

  void Record(uint64_t micros);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};   // total microseconds
  std::atomic<uint64_t> max_{0};
};

// A point-in-time copy of one histogram, consistent enough for
// operator display (each field is read atomically; the set of fields
// is not a linearizable cut, which is fine for monitoring).
struct HistogramSnapshot {
  std::vector<uint64_t> buckets;  // kNumBuckets entries
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  double MeanMicros() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
  // Approximate quantile (0 < q <= 1) from the bucket upper bounds.
  uint64_t QuantileMicros(double q) const;
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Missing names read as zero, so tests can diff two snapshots.
  uint64_t CounterValue(const std::string& name) const;

  // Wire codec (used by Method::kGetServerStatistics).
  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(std::string_view* in, MetricsSnapshot* out);

  // Multi-line human-readable table (neptune_ctl stats).
  std::string ToTable() const;
  // One compact line for periodic logging.
  std::string ToLogLine() const;
  // Machine-readable export (neptune_ctl stats --json): counters and
  // gauges as numbers, histograms as {count, mean_us, p50_us, p99_us,
  // max_us}.
  std::string ToJson() const;
};

// The process-wide registry. Lookup interns the name; the returned
// pointer is valid for the process lifetime and safe to cache.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  // Zeroes every registered metric. Only for tests and benchmarks;
  // concurrent writers may land bumps on either side of the reset.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;  // guards the maps, not the metric values
  // std::map never invalidates element addresses on insert.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Convenience one-liner for instrumented call sites. The static local
// makes the registry lookup a one-time cost per site.
#define NEPTUNE_METRIC_COUNT(name, delta)                                  \
  do {                                                                     \
    static ::neptune::Counter* _neptune_counter =                          \
        ::neptune::MetricsRegistry::Instance().GetCounter(name);           \
    _neptune_counter->Add(delta);                                          \
  } while (0)

}  // namespace neptune

#endif  // NEPTUNE_COMMON_METRICS_H_
