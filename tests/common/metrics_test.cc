// Tests for the process-wide metrics registry. The registry is a
// singleton shared by every test in this binary, so each test asserts
// on deltas between snapshots (or resets first) rather than absolute
// values.

#include "common/metrics.h"
#include "common/trace.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace neptune {
namespace {

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  Counter* c = registry.GetCounter("test.counter.basic");
  const uint64_t before = c->Value();
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), before + 42);
}

TEST(MetricsTest, SameNameReturnsSameCounter) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  EXPECT_EQ(registry.GetCounter("test.counter.same"),
            registry.GetCounter("test.counter.same"));
  EXPECT_NE(registry.GetCounter("test.counter.same"),
            registry.GetCounter("test.counter.other"));
}

TEST(MetricsTest, GaugeMovesBothWays) {
  Gauge* g = MetricsRegistry::Instance().GetGauge("test.gauge");
  g->Set(0);
  g->Increment();
  g->Increment();
  g->Decrement();
  EXPECT_EQ(g->Value(), 1);
  g->Set(-7);
  EXPECT_EQ(g->Value(), -7);
}

TEST(MetricsTest, ConcurrentIncrementsAreLossless) {
  Counter* c = MetricsRegistry::Instance().GetCounter("test.counter.mt");
  const uint64_t before = c->Value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), before + kThreads * kPerThread);
}

TEST(MetricsTest, HistogramBucketing) {
  Histogram* h = MetricsRegistry::Instance().GetHistogram("test.hist.buckets");
  h->Record(0);        // below the first bound (1us): bucket 0
  h->Record(1);        // [1, 2): bucket 1
  h->Record(3);        // [2, 4): bucket 2
  h->Record(1u << 30); // beyond the last bound: overflow bucket

  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  const HistogramSnapshot& hist = snap.histograms.at("test.hist.buckets");
  ASSERT_EQ(hist.buckets.size(), Histogram::kNumBuckets);
  EXPECT_EQ(hist.buckets[0], 1u);
  EXPECT_EQ(hist.buckets[1], 1u);
  EXPECT_EQ(hist.buckets[2], 1u);
  EXPECT_EQ(hist.buckets[Histogram::kNumBuckets - 1], 1u);
  EXPECT_EQ(hist.count, 4u);
  EXPECT_EQ(hist.sum, 0u + 1 + 3 + (1u << 30));
  EXPECT_EQ(hist.max, 1u << 30);
}

TEST(MetricsTest, HistogramQuantilesAndMean) {
  Histogram* h = MetricsRegistry::Instance().GetHistogram("test.hist.quant");
  for (int i = 0; i < 99; ++i) h->Record(10);  // bucket [8, 16)
  h->Record(5000);                             // the slow outlier

  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  const HistogramSnapshot& hist = snap.histograms.at("test.hist.quant");
  EXPECT_DOUBLE_EQ(hist.MeanMicros(), (99 * 10 + 5000) / 100.0);
  // p50 lands in the [8, 16) bucket, reported as its upper bound.
  EXPECT_EQ(hist.QuantileMicros(0.50), 16u);
  // p999 walks past every fast sample into the outlier's bucket.
  EXPECT_GT(hist.QuantileMicros(0.999), 4000u);
  EXPECT_EQ(hist.QuantileMicros(0.0), 16u);
}

TEST(MetricsTest, SnapshotIsIsolatedFromLaterUpdates) {
  Counter* c = MetricsRegistry::Instance().GetCounter("test.counter.snap");
  c->Add(5);
  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  const uint64_t at_snapshot = snap.CounterValue("test.counter.snap");
  c->Add(100);
  // The snapshot is a copy: later traffic must not leak into it.
  EXPECT_EQ(snap.CounterValue("test.counter.snap"), at_snapshot);
  MetricsSnapshot later = MetricsRegistry::Instance().Snapshot();
  EXPECT_EQ(later.CounterValue("test.counter.snap"), at_snapshot + 100);
}

TEST(MetricsTest, CounterValueMissingNameIsZero) {
  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  EXPECT_EQ(snap.CounterValue("test.counter.never-registered"), 0u);
}

TEST(MetricsTest, TimedSpanRecordsOnce) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  Histogram* h = registry.GetHistogram("test.timer.hist");
  Counter* c = registry.GetCounter("test.timer.count");
  const uint32_t name = Tracer::Instance().InternName("test.timer");
  const uint64_t hist_before =
      registry.Snapshot().histograms.at("test.timer.hist").count;
  const uint64_t count_before = c->Value();
  { ScopedSpan span(name, h, c); }
  EXPECT_EQ(registry.Snapshot().histograms.at("test.timer.hist").count,
            hist_before + 1);
  EXPECT_EQ(c->Value(), count_before + 1);
}

TEST(MetricsTest, WireCodecRoundTrips) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("test.wire.counter")->Add(1234);
  registry.GetGauge("test.wire.gauge")->Set(-3);
  registry.GetHistogram("test.wire.hist")->Record(77);
  MetricsSnapshot snap = registry.Snapshot();

  std::string encoded;
  snap.EncodeTo(&encoded);
  std::string_view in = encoded;
  MetricsSnapshot decoded;
  ASSERT_TRUE(MetricsSnapshot::DecodeFrom(&in, &decoded));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.counters, snap.counters);
  EXPECT_EQ(decoded.gauges, snap.gauges);
  ASSERT_EQ(decoded.histograms.size(), snap.histograms.size());
  const HistogramSnapshot& hist = decoded.histograms.at("test.wire.hist");
  const HistogramSnapshot& orig = snap.histograms.at("test.wire.hist");
  EXPECT_EQ(hist.count, orig.count);
  EXPECT_EQ(hist.sum, orig.sum);
  EXPECT_EQ(hist.max, orig.max);
  EXPECT_EQ(hist.buckets, orig.buckets);
}

TEST(MetricsTest, DecodeRejectsTruncatedInput) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("test.wire.trunc")->Add(9);
  std::string encoded;
  registry.Snapshot().EncodeTo(&encoded);
  // Every strict prefix must fail cleanly, never crash or accept.
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::string_view in(encoded.data(), len);
    MetricsSnapshot out;
    if (MetricsSnapshot::DecodeFrom(&in, &out)) {
      // A prefix may parse iff it ends exactly on a section boundary
      // with zero remaining declared entries — but then nothing of the
      // truncated tail may have been consumed as data.
      EXPECT_TRUE(in.empty());
    }
  }
}

TEST(MetricsTest, ResetForTestZeroesEverything) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("test.reset.counter")->Add(10);
  registry.GetGauge("test.reset.gauge")->Set(10);
  registry.GetHistogram("test.reset.hist")->Record(10);
  registry.ResetForTest();
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.reset.counter"), 0u);
  EXPECT_EQ(snap.gauges.at("test.reset.gauge"), 0);
  EXPECT_EQ(snap.histograms.at("test.reset.hist").count, 0u);
  EXPECT_EQ(snap.histograms.at("test.reset.hist").max, 0u);
}

TEST(MetricsTest, ToTableMentionsEveryMetric) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("test.render.counter")->Add(3);
  registry.GetGauge("test.render.gauge")->Set(2);
  registry.GetHistogram("test.render.hist")->Record(50);
  const std::string table = registry.Snapshot().ToTable();
  EXPECT_NE(table.find("test.render.counter"), std::string::npos);
  EXPECT_NE(table.find("test.render.gauge"), std::string::npos);
  EXPECT_NE(table.find("test.render.hist"), std::string::npos);
}

TEST(MetricsTest, ToLogLineSkipsZeroes) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.ResetForTest();
  registry.GetCounter("test.log.zero");  // stays 0
  registry.GetCounter("test.log.nonzero")->Add(4);
  const std::string line = registry.Snapshot().ToLogLine();
  EXPECT_EQ(line.find("test.log.zero="), std::string::npos);
  EXPECT_NE(line.find("test.log.nonzero=4"), std::string::npos);
}

TEST(MetricsTest, ToJsonRendersEverySection) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.ResetForTest();
  registry.GetCounter("test.json.counter")->Add(7);
  registry.GetGauge("test.json.gauge")->Set(-2);
  registry.GetHistogram("test.json.hist")->Record(100);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"test.json.counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\": -2"), std::string::npos);
  // Histograms render as a summary object, not raw buckets.
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"max_us\": 100"), std::string::npos);
}

TEST(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  HistogramSnapshot hist;
  hist.buckets.assign(Histogram::kNumBuckets, 0);
  EXPECT_EQ(hist.QuantileMicros(0.5), 0u);
  EXPECT_EQ(hist.QuantileMicros(0.99), 0u);
}

TEST(MetricsTest, QuantileSingleBucketReportsItsBound) {
  Histogram* h =
      MetricsRegistry::Instance().GetHistogram("test.hist.single");
  for (int i = 0; i < 10; ++i) h->Record(3);  // all land in [2, 4)
  const HistogramSnapshot hist = MetricsRegistry::Instance()
                                     .Snapshot()
                                     .histograms.at("test.hist.single");
  // Every quantile collapses to the one occupied bucket's upper bound.
  EXPECT_EQ(hist.QuantileMicros(0.01), 4u);
  EXPECT_EQ(hist.QuantileMicros(0.50), 4u);
  EXPECT_EQ(hist.QuantileMicros(0.999), 4u);
}

TEST(MetricsTest, QuantileOverflowBucketReportsObservedMax) {
  Histogram* h =
      MetricsRegistry::Instance().GetHistogram("test.hist.overflow");
  h->Record(123'456'789);  // far past the last 8388608us bound
  const HistogramSnapshot hist = MetricsRegistry::Instance()
                                     .Snapshot()
                                     .histograms.at("test.hist.overflow");
  // The overflow bucket has no finite upper bound; the observed max is
  // the only honest answer.
  EXPECT_EQ(hist.QuantileMicros(0.99), 123'456'789u);
}

TEST(MetricsTest, QuantilesAreMonotonicInQ) {
  Histogram* h = MetricsRegistry::Instance().GetHistogram("test.hist.mono");
  for (int i = 0; i < 900; ++i) h->Record(10);
  for (int i = 0; i < 90; ++i) h->Record(1000);
  for (int i = 0; i < 10; ++i) h->Record(100000);
  const HistogramSnapshot hist =
      MetricsRegistry::Instance().Snapshot().histograms.at("test.hist.mono");
  const uint64_t p50 = hist.QuantileMicros(0.50);
  const uint64_t p99 = hist.QuantileMicros(0.99);
  const uint64_t p999 = hist.QuantileMicros(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_EQ(p50, 16u);       // [8, 16) bucket
  EXPECT_GE(p99, 1000u);     // into the 1ms samples
  EXPECT_GE(p999, 100000u);  // into the 100ms tail
}

// A fixed fake clock, so the span's reading is exact rather than
// "some small number of real microseconds".
class FixedTimeSource : public TimeSource {
 public:
  uint64_t NowMicros() override { return now_; }
  void SleepMicros(uint64_t micros) override { now_ += micros; }
  uint64_t now_ = 1'000'000;
};

TEST(MetricsTest, TimedSpanReadsTheInjectedTimeSource) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  Histogram* h = registry.GetHistogram("test.timer.fake");
  const uint32_t name = Tracer::Instance().InternName("test.timer.fake");
  const uint64_t before = registry.Snapshot()
                              .histograms.at("test.timer.fake")
                              .count;
  FixedTimeSource time;
  {
    ScopedSpan span(name, h, nullptr, &time);
    time.now_ += 500;  // exactly 500us elapse on the fake clock
  }
  const HistogramSnapshot hist =
      registry.Snapshot().histograms.at("test.timer.fake");
  EXPECT_EQ(hist.count, before + 1);
  EXPECT_EQ(hist.max, 500u);
}

TEST(MetricsTest, MacrosBumpTheNamedMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  const uint64_t before =
      registry.Snapshot().CounterValue("test.macro.counter");
  NEPTUNE_METRIC_COUNT("test.macro.counter", 2);
  NEPTUNE_METRIC_COUNT("test.macro.counter", 3);
  EXPECT_EQ(registry.Snapshot().CounterValue("test.macro.counter"),
            before + 5);

  const uint64_t timed_before =
      registry.Snapshot().CounterValue("test.macro.timed.count");
  { NEPTUNE_TRACE_SPAN(span, "test.macro.span", "test.macro.timed"); }
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.macro.timed.count"), timed_before + 1);
  EXPECT_GE(snap.histograms.at("test.macro.timed").count, 1u);
}

}  // namespace
}  // namespace neptune
