// End-to-end request tracing for the Neptune server. The metrics layer
// (common/metrics.h) answers "how slow is openNode on average"; this
// layer answers "*which* openNode was slow, and *where* did it spend
// its time" — lock wait vs. delta reconstruction vs. WAL fsync vs. the
// wire — by recording causally linked spans in the Dapper style: a
// trace_id shared by every span of one request, a span_id per timed
// region, and a parent_id forming the tree. The RPC layer propagates
// the (trace_id, parent span) pair from the client stub to the server
// so a workstation's call and the server work it caused form one trace.
//
// A span given a histogram is also its scope's latency instrument, so
// an instrumented operation is one statement (see NEPTUNE_TRACE_SPAN).
//
// Design, mirroring the metrics layer's cost discipline:
//  * Disabled (trace_sample_n == 0) a span without a histogram is one
//    relaxed atomic load and a branch; one with a histogram adds two
//    clock reads and the histogram bump — cheap enough to leave
//    compiled into every operation.
//  * Enabled, spans are appended to a bounded per-thread buffer with
//    no locking; only when a root span finishes is the buffer flushed
//    (one mutex acquisition per *request*, not per span) into a global
//    ring of recent traces.
//  * Sampling keeps 1-in-N roots; a span whose duration reaches
//    trace_slow_us is kept regardless ("slow ops are never lost") and
//    additionally recorded in a slow-op ring and logged as one JSON
//    line.
//  * Span names are interned once per call site (static local), so the
//    hot path carries a uint32 id, never a string.

#ifndef NEPTUNE_COMMON_TRACE_H_
#define NEPTUNE_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"

namespace neptune {

// The propagated portion of a trace: enough for a remote callee to
// parent its spans under the caller's. trace_id == 0 means "no trace"
// (the callee self-roots).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;

  bool valid() const { return trace_id != 0; }
};

// One finished timed region, in exported (name-resolved) form.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace
  std::string name;        // interned op name ("ham.openNode", ...)
  uint64_t start_us = 0;   // the span's TimeSource at start (steady clock)
  uint64_t duration_us = 0;
  uint64_t thread_id = 0;  // hashed std::thread::id
  std::string annotation;  // "key=value key=value" attributes
};

// Every kept span of one request, roots first within each thread's
// flush order.
struct Trace {
  uint64_t trace_id = 0;
  std::vector<Span> spans;
};

namespace trace_internal {
// 0 = tracing off. Kept as a bare atomic (not behind Instance()) so
// the disabled fast path is a single relaxed load.
extern std::atomic<uint32_t> g_sample_n;
}  // namespace trace_internal

inline bool TracingEnabled() {
  return trace_internal::g_sample_n.load(std::memory_order_relaxed) != 0;
}

class ScopedSpan;

// Process-wide tracer: name interning, sampling, the recent-trace ring
// and the slow-op ring. Pointer-stable and alive for the process
// lifetime, like MetricsRegistry.
class Tracer {
 public:
  // Spans kept per trace before further spans count as dropped.
  static constexpr size_t kMaxSpansPerTrace = 256;
  // Completed traces retained for getRecentTraces.
  static constexpr size_t kMaxRecentTraces = 64;
  // Slow spans retained for getSlowOps.
  static constexpr size_t kMaxSlowOps = 128;

  static Tracer& Instance();

  // Applies the HamOptions knobs: keep 1-in-`sample_n` roots
  // (0 disables tracing entirely, 1 keeps everything) and always keep
  // + log any span lasting at least `slow_us` (0 disables the slow
  // path). Callable at any time; takes effect for new roots.
  void Configure(uint32_t sample_n, uint64_t slow_us);
  uint32_t sample_n() const;
  uint64_t slow_us() const { return slow_us_.load(std::memory_order_relaxed); }

  // Interns `name`, returning a stable id. One-time cost per call
  // site; see SpanSite.
  uint32_t InternName(std::string_view name);
  std::string NameOf(uint32_t name_id) const;

  // Snapshot of the recent-trace ring, oldest first. Spans of one
  // trace_id are merged into one Trace even when recorded by several
  // threads (an in-process client and the server, say).
  std::vector<Trace> RecentTraces() const;
  // Snapshot of the slow-op ring, oldest first.
  std::vector<Span> SlowOps() const;

  // Drops ring contents and resets sampling state. Only for tests.
  void ResetForTest();

 private:
  friend class ScopedSpan;
  Tracer();

  bool SampleRoot();
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  struct ThreadTrace;  // per-thread span buffer (trace.cc)
  static ThreadTrace& CurrentThreadTrace();

  // Called when a span at or past slow_us finishes.
  void RecordSlowOp(const Span& span);
  // Called when a thread's root span finishes; publishes or discards
  // the thread buffer.
  void FlushThreadTrace(ThreadTrace* t);

  std::atomic<uint64_t> slow_us_{0};
  std::atomic<uint64_t> root_counter_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};

  mutable std::mutex names_mu_;
  std::vector<std::string> names_;  // id -> name

  mutable std::mutex ring_mu_;
  std::vector<Trace> ring_;      // bounded by kMaxRecentTraces
  std::vector<Span> slow_ring_;  // bounded by kMaxSlowOps

  // Hot-path counters, resolved once (see metrics.h for the idiom).
  Counter* spans_recorded_;
  Counter* spans_dropped_;
  Counter* slow_ops_;
};

// One call site's constants, resolved once (the macros keep it in a
// static local): the interned span name and, for a timed site, the
// histogram `histogram` and its invocation counter `histogram.count`.
struct SpanSite {
  explicit SpanSite(std::string_view name, std::string_view histogram = {});

  uint32_t name_id = 0;
  Histogram* histogram = nullptr;
  Counter* count = nullptr;
};

// RAII span. A span opened while another span is live on the same
// thread becomes its child; the first span on a thread roots a new
// trace (sampled 1-in-N) unless it adopts a remote TraceContext, in
// which case it parents under the caller's span and inherits the
// caller's sampling decision. With a `histogram` the span also records
// its duration there (and bumps `count`) exactly once, traced or not;
// sample and trace both read `time` (default: the steady clock).
class ScopedSpan {
 public:
  explicit ScopedSpan(uint32_t name_id, Histogram* histogram = nullptr,
                      Counter* count = nullptr, TimeSource* time = nullptr)
      : histogram_(histogram), count_(count), time_(time) {
    Start(name_id, nullptr);
  }
  ScopedSpan(uint32_t name_id, const TraceContext& remote) {
    Start(name_id, &remote);
  }
  ~ScopedSpan() {
    if (histogram_ == nullptr && !active_) return;
    const uint64_t duration_us = time_->NowMicros() - start_us_;
    if (histogram_ != nullptr) {
      if (count_ != nullptr) count_->Increment();
      histogram_->Record(duration_us);
    }
    if (active_) End(duration_us);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // True when the span is being traced (not merely timed).
  bool active() const { return active_; }

  // Appends a "key=value" attribute. Guard expensive string builds
  // with active() at the call site.
  void Annotate(std::string_view kv);

  // The context a client should propagate to a remote callee right
  // now: the current thread's trace with the innermost live span as
  // parent. Invalid when no span is live (or tracing is off).
  static TraceContext CurrentContext();

 private:
  void Start(uint32_t name_id, const TraceContext* remote) {
    const bool traced = TracingEnabled();
    if (histogram_ == nullptr && !traced) return;
    if (time_ == nullptr) time_ = RealTimeSource();
    start_us_ = time_->NowMicros();
    if (traced) Begin(name_id, remote);
  }
  void Begin(uint32_t name_id, const TraceContext* remote);
  void End(uint64_t duration_us);

  Histogram* histogram_ = nullptr;
  Counter* count_ = nullptr;
  TimeSource* time_ = nullptr;
  uint64_t start_us_ = 0;
  bool active_ = false;
  uint32_t name_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t prev_span_ = 0;  // restored as current on End
  std::string annotation_;
};

// ------------------------------------------------------- wire codec
// Used by Method::kGetRecentTraces / kGetSlowOps; varint/length-
// prefixed like the rest of the RPC encoding.

void EncodeTracesTo(const std::vector<Trace>& traces, std::string* out);
bool DecodeTracesFrom(std::string_view* in, std::vector<Trace>* traces);

void EncodeSpansTo(const std::vector<Span>& spans, std::string* out);
bool DecodeSpansFrom(std::string_view* in, std::vector<Span>* spans);

// ---------------------------------------------------- chrome export
// Serializes traces as Chrome trace_event JSON ("X" complete events),
// loadable in chrome://tracing and Perfetto. pid = index of the trace,
// tid = recording thread, ts/dur in microseconds.
std::string TracesToChromeJson(const std::vector<Trace>& traces);

// Declares a span named `var` covering the rest of the scope, traced
// only or also timed into a histogram and its `.count`:
//   NEPTUNE_TRACE_SPAN(span, "ham.lock.shared_wait");
//   NEPTUNE_TRACE_SPAN(op_span, "ham.openNode", "ham.op.node");
// The static SpanSite makes the lookups a one-time cost per site.
#define NEPTUNE_TRACE_SPAN(var, ...)                                   \
  static const ::neptune::SpanSite var##_site(__VA_ARGS__);            \
  ::neptune::ScopedSpan var(var##_site.name_id, var##_site.histogram,  \
                            var##_site.count)

// Same, but the span adopts (or self-roots from) a remote context.
#define NEPTUNE_TRACE_SPAN_REMOTE(var, name, remote)      \
  static const ::neptune::SpanSite var##_site(name);      \
  ::neptune::ScopedSpan var(var##_site.name_id, (remote))

}  // namespace neptune

#endif  // NEPTUNE_COMMON_TRACE_H_
