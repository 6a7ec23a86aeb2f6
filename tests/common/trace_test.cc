// Tests for the request tracer (common/trace.h): span trees,
// sampling, the always-keep slow path, remote-context adoption, the
// wire codec, the Chrome export, and (under TSan) concurrent safety
// of the per-thread buffers and the shared rings.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace neptune {
namespace {

// Every test owns the process-global tracer for its duration and
// leaves it disabled, so suites sharing the binary see the default
// "tracing off" world.
class TraceTest : public testing::Test {
 protected:
  void SetUp() override {
    Tracer::Instance().Configure(0, 0);
    Tracer::Instance().ResetForTest();
  }
  void TearDown() override {
    Tracer::Instance().Configure(0, 0);
    Tracer::Instance().ResetForTest();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(TracingEnabled());
  {
    NEPTUNE_TRACE_SPAN(outer, "test.outer");
    EXPECT_FALSE(outer.active());
    EXPECT_FALSE(ScopedSpan::CurrentContext().valid());
    NEPTUNE_TRACE_SPAN(inner, "test.inner");
    EXPECT_FALSE(inner.active());
  }
  EXPECT_TRUE(Tracer::Instance().RecentTraces().empty());
  EXPECT_TRUE(Tracer::Instance().SlowOps().empty());
}

TEST_F(TraceTest, RecordsParentedSpanTree) {
  Tracer::Instance().Configure(1, 0);
  {
    NEPTUNE_TRACE_SPAN(root, "test.root");
    ASSERT_TRUE(root.active());
    root.Annotate("kind=root");
    {
      NEPTUNE_TRACE_SPAN(child, "test.child");
      NEPTUNE_TRACE_SPAN(grandchild, "test.grandchild");
      (void)child;
      (void)grandchild;
    }
  }
  auto traces = Tracer::Instance().RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const auto& spans = traces[0].spans;
  ASSERT_EQ(spans.size(), 3u);

  // Spans finish innermost-first.
  const Span& grandchild = spans[0];
  const Span& child = spans[1];
  const Span& root = spans[2];
  EXPECT_EQ(root.name, "test.root");
  EXPECT_EQ(child.name, "test.child");
  EXPECT_EQ(grandchild.name, "test.grandchild");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_EQ(grandchild.parent_id, child.span_id);
  EXPECT_EQ(root.trace_id, traces[0].trace_id);
  EXPECT_EQ(root.annotation, "kind=root");
  EXPECT_NE(root.thread_id, 0u);
}

TEST_F(TraceTest, SamplesOneInN) {
  Tracer::Instance().Configure(4, 0);
  for (int i = 0; i < 8; ++i) {
    NEPTUNE_TRACE_SPAN(span, "test.sampled");
    (void)span;
  }
  EXPECT_EQ(Tracer::Instance().RecentTraces().size(), 2u);
}

TEST_F(TraceTest, SlowSpanKeptEvenWhenUnsampled) {
  // sample_n so large that only root #1 (counter 0) is sampled; the
  // slow threshold is 1ms.
  Tracer::Instance().Configure(1u << 30, 1000);
  {
    NEPTUNE_TRACE_SPAN(fast, "test.fast");
    (void)fast;
  }
  {
    NEPTUNE_TRACE_SPAN(slow, "test.slow");
    (void)slow;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto traces = Tracer::Instance().RecentTraces();
  ASSERT_EQ(traces.size(), 2u);  // the sampled root and the slow one
  EXPECT_EQ(traces[1].spans.size(), 1u);
  EXPECT_EQ(traces[1].spans[0].name, "test.slow");
  EXPECT_GE(traces[1].spans[0].duration_us, 1000u);

  auto slow_ops = Tracer::Instance().SlowOps();
  ASSERT_EQ(slow_ops.size(), 1u);
  EXPECT_EQ(slow_ops[0].name, "test.slow");
}

TEST_F(TraceTest, CurrentContextMatchesLiveSpan) {
  Tracer::Instance().Configure(1, 0);
  TraceContext ctx;
  {
    NEPTUNE_TRACE_SPAN(span, "test.ctx");
    (void)span;
    ctx = ScopedSpan::CurrentContext();
    EXPECT_TRUE(ctx.valid());
    EXPECT_TRUE(ctx.sampled);
  }
  EXPECT_FALSE(ScopedSpan::CurrentContext().valid());
  auto traces = Tracer::Instance().RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].trace_id, ctx.trace_id);
  EXPECT_EQ(traces[0].spans[0].span_id, ctx.parent_span_id);
}

TEST_F(TraceTest, RemoteContextAdoptedAndMerged) {
  Tracer::Instance().Configure(1, 0);
  TraceContext ctx;
  {
    NEPTUNE_TRACE_SPAN(client, "test.client");
    (void)client;
    ctx = ScopedSpan::CurrentContext();
  }
  {
    // The "server" half of the same request, flushed separately.
    NEPTUNE_TRACE_SPAN_REMOTE(server, "test.server", ctx);
    (void)server;
  }
  auto traces = Tracer::Instance().RecentTraces();
  ASSERT_EQ(traces.size(), 1u) << "both halves must merge by trace_id";
  ASSERT_EQ(traces[0].spans.size(), 2u);
  const Span& client = traces[0].spans[0];
  const Span& server = traces[0].spans[1];
  EXPECT_EQ(server.trace_id, client.trace_id);
  EXPECT_EQ(server.parent_id, client.span_id);
}

TEST_F(TraceTest, UnsampledRemoteContextRecordsNothing) {
  Tracer::Instance().Configure(1, 0);
  TraceContext ctx;
  ctx.trace_id = 1234;
  ctx.parent_span_id = 5678;
  ctx.sampled = false;
  {
    NEPTUNE_TRACE_SPAN_REMOTE(server, "test.server", ctx);
    (void)server;
  }
  EXPECT_TRUE(Tracer::Instance().RecentTraces().empty());
}

// A span with a histogram is the op's latency instrument: one sample
// and one `.count` bump per scope, whether tracing is off, on and
// sampling this root, or on and passing it over.
TEST_F(TraceTest, TimedSpanRecordsOneSampleTracedOrNot) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  auto timed_span = [] {
    NEPTUNE_TRACE_SPAN(span, "test.timed", "test.timed.hist");
    return span.active();
  };
  auto samples = [&] {
    const MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.histograms.at("test.timed.hist").count,
              snap.CounterValue("test.timed.hist.count"));
    return snap.CounterValue("test.timed.hist.count");
  };
  timed_span();  // registers the metrics
  uint64_t before = samples();

  EXPECT_FALSE(timed_span());  // tracing off
  EXPECT_EQ(samples(), before + 1);
  EXPECT_TRUE(Tracer::Instance().RecentTraces().empty());

  Tracer::Instance().Configure(1u << 30, 0);  // only the first root sampled
  before = samples();
  EXPECT_TRUE(timed_span());  // sampled
  EXPECT_EQ(samples(), before + 1);
  EXPECT_EQ(Tracer::Instance().RecentTraces().size(), 1u);

  before = samples();
  EXPECT_TRUE(timed_span());  // traced but unsampled
  EXPECT_EQ(samples(), before + 1);
  EXPECT_EQ(Tracer::Instance().RecentTraces().size(), 1u);
}

TEST_F(TraceTest, InternNameIsStable) {
  Tracer& tracer = Tracer::Instance();
  const uint32_t a = tracer.InternName("test.intern.a");
  const uint32_t b = tracer.InternName("test.intern.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, tracer.InternName("test.intern.a"));
  EXPECT_EQ(tracer.NameOf(a), "test.intern.a");
  EXPECT_EQ(tracer.NameOf(1u << 30), "unnamed");
}

TEST_F(TraceTest, RecentTraceRingIsBounded) {
  Tracer::Instance().Configure(1, 0);
  for (size_t i = 0; i < Tracer::kMaxRecentTraces + 10; ++i) {
    NEPTUNE_TRACE_SPAN(span, "test.ring");
    (void)span;
  }
  EXPECT_EQ(Tracer::Instance().RecentTraces().size(),
            Tracer::kMaxRecentTraces);
}

TEST_F(TraceTest, WireCodecRoundTrips) {
  Span span;
  span.trace_id = 42;
  span.span_id = 7;
  span.parent_id = 3;
  span.name = "ham.openNode";
  span.start_us = 1000000;
  span.duration_us = 250;
  span.thread_id = 99;
  span.annotation = "node=5 time=0";

  std::vector<Trace> traces(1);
  traces[0].trace_id = 42;
  traces[0].spans = {span, span};

  std::string encoded;
  EncodeTracesTo(traces, &encoded);
  std::string_view in = encoded;
  std::vector<Trace> decoded;
  ASSERT_TRUE(DecodeTracesFrom(&in, &decoded));
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].trace_id, 42u);
  ASSERT_EQ(decoded[0].spans.size(), 2u);
  EXPECT_EQ(decoded[0].spans[0].name, "ham.openNode");
  EXPECT_EQ(decoded[0].spans[0].annotation, "node=5 time=0");
  EXPECT_EQ(decoded[0].spans[0].duration_us, 250u);

  std::string spans_encoded;
  EncodeSpansTo({span}, &spans_encoded);
  in = spans_encoded;
  std::vector<Span> spans_decoded;
  ASSERT_TRUE(DecodeSpansFrom(&in, &spans_decoded));
  ASSERT_EQ(spans_decoded.size(), 1u);
  EXPECT_EQ(spans_decoded[0].trace_id, 42u);
  EXPECT_EQ(spans_decoded[0].span_id, 7u);
  EXPECT_EQ(spans_decoded[0].start_us, 1000000u);

  // Truncated input must fail, not crash or fabricate spans.
  in = std::string_view(encoded.data(), encoded.size() / 2);
  decoded.clear();
  EXPECT_FALSE(DecodeTracesFrom(&in, &decoded));
}

TEST_F(TraceTest, ChromeJsonExport) {
  Tracer::Instance().Configure(1, 0);
  {
    NEPTUNE_TRACE_SPAN(root, "test.chrome.root");
    root.Annotate("k=v");
    NEPTUNE_TRACE_SPAN(child, "test.chrome.child");
    (void)child;
  }
  const std::string json =
      TracesToChromeJson(Tracer::Instance().RecentTraces());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("test.chrome.root"), std::string::npos);
  EXPECT_NE(json.find("test.chrome.child"), std::string::npos);
  EXPECT_NE(json.find("\"k=v\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.find_last_not_of('\n')], '}');
}

// Run under TSan in CI: concurrent traced writers on many threads,
// with readers snapshotting the rings mid-flight, must never corrupt
// the span rings or race on the name table.
TEST(TraceConcurrencyTest, ConcurrentSpansAndReaders) {
  Tracer::Instance().Configure(2, 200);
  Tracer::Instance().ResetForTest();

  std::atomic<bool> stop{false};
  std::thread reader([&stop] {
    while (!stop.load()) {
      auto traces = Tracer::Instance().RecentTraces();
      for (const auto& trace : traces) {
        for (const auto& span : trace.spans) {
          ASSERT_EQ(span.trace_id, trace.trace_id);
          ASSERT_FALSE(span.name.empty());
        }
      }
      (void)Tracer::Instance().SlowOps();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < 500; ++i) {
        NEPTUNE_TRACE_SPAN(root, "test.concurrent.root");
        if (root.active()) {
          root.Annotate("writer=" + std::to_string(w));
        }
        NEPTUNE_TRACE_SPAN(child, "test.concurrent.child");
        (void)child;
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  // Roughly half the roots are sampled; the ring keeps the last 64.
  EXPECT_EQ(Tracer::Instance().RecentTraces().size(),
            Tracer::kMaxRecentTraces);
  Tracer::Instance().Configure(0, 0);
  Tracer::Instance().ResetForTest();
}

}  // namespace
}  // namespace neptune
