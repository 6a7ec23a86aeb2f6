#include "common/trace.h"

#include <thread>

#include "common/coding.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace neptune {

namespace trace_internal {
std::atomic<uint32_t> g_sample_n{0};
}  // namespace trace_internal

namespace {

// Spans as buffered on the recording thread: the name stays an id and
// the trace_id lives in the buffer header, so the per-span footprint
// is small.
struct BufferedSpan {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint32_t name_id = 0;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  std::string annotation;
};

uint64_t CurrentThreadId() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

// Minimal JSON string escaping for names/annotations (both are
// programmer-controlled, but a node title can leak into an annotation
// via an explanation string, so escape properly).
void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

// Per-thread recording state. One request is handled start to finish
// on one thread (thread-per-connection server, synchronous client
// stub), so a thread has at most one live trace.
struct Tracer::ThreadTrace {
  uint64_t trace_id = 0;
  uint64_t current_span = 0;  // innermost live span
  int depth = 0;              // live span nesting
  bool sampled = false;       // 1-in-N decision (or inherited)
  bool slow_seen = false;     // some span reached slow_us
  uint64_t dropped = 0;       // spans past kMaxSpansPerTrace
  std::vector<BufferedSpan> buffer;
};

Tracer::ThreadTrace& Tracer::CurrentThreadTrace() {
  static thread_local ThreadTrace t;
  return t;
}

Tracer::Tracer()
    : spans_recorded_(
          MetricsRegistry::Instance().GetCounter("trace.spans.recorded")),
      spans_dropped_(
          MetricsRegistry::Instance().GetCounter("trace.spans.dropped")),
      slow_ops_(MetricsRegistry::Instance().GetCounter("trace.slow_ops")) {
  names_.emplace_back("unnamed");  // id 0 stays reserved
}

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();  // never destroyed, like metrics
  return *tracer;
}

void Tracer::Configure(uint32_t sample_n, uint64_t slow_us) {
  slow_us_.store(slow_us, std::memory_order_relaxed);
  trace_internal::g_sample_n.store(sample_n, std::memory_order_relaxed);
}

uint32_t Tracer::sample_n() const {
  return trace_internal::g_sample_n.load(std::memory_order_relaxed);
}

bool Tracer::SampleRoot() {
  const uint32_t n = sample_n();
  if (n <= 1) return n == 1;
  return root_counter_.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

uint32_t Tracer::InternName(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::string Tracer::NameOf(uint32_t name_id) const {
  std::lock_guard<std::mutex> lock(names_mu_);
  if (name_id >= names_.size()) return "unnamed";
  return names_[name_id];
}

void Tracer::RecordSlowOp(const Span& span) {
  slow_ops_->Increment();
  std::string line;
  line.reserve(160 + span.name.size() + span.annotation.size());
  line.append("{\"event\":\"slow_op\",\"op\":\"");
  AppendJsonEscaped(span.name, &line);
  line.append("\",\"trace_id\":");
  line.append(std::to_string(span.trace_id));
  line.append(",\"span_id\":");
  line.append(std::to_string(span.span_id));
  line.append(",\"start_us\":");
  line.append(std::to_string(span.start_us));
  line.append(",\"duration_us\":");
  line.append(std::to_string(span.duration_us));
  line.append(",\"attrs\":\"");
  AppendJsonEscaped(span.annotation, &line);
  line.append("\"}");
  NEPTUNE_LOG(Warn) << line;
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (slow_ring_.size() >= kMaxSlowOps) {
    slow_ring_.erase(slow_ring_.begin());
  }
  slow_ring_.push_back(span);
}

void Tracer::FlushThreadTrace(ThreadTrace* t) {
  if (t->dropped > 0) spans_dropped_->Add(t->dropped);
  if ((t->sampled || t->slow_seen) && !t->buffer.empty()) {
    const uint64_t tid = CurrentThreadId();
    std::vector<Span> spans;
    spans.reserve(t->buffer.size());
    for (BufferedSpan& b : t->buffer) {
      Span s;
      s.trace_id = t->trace_id;
      s.span_id = b.span_id;
      s.parent_id = b.parent_id;
      s.name = NameOf(b.name_id);
      s.start_us = b.start_us;
      s.duration_us = b.duration_us;
      s.thread_id = tid;
      s.annotation = std::move(b.annotation);
      spans.push_back(std::move(s));
    }
    spans_recorded_->Add(spans.size());
    std::lock_guard<std::mutex> lock(ring_mu_);
    // Merge with an existing entry for this trace_id (the server's half
    // of a trace flushes before the in-process client's half does), so
    // one request stays one Trace.
    Trace* slot = nullptr;
    for (Trace& existing : ring_) {
      if (existing.trace_id == t->trace_id) {
        slot = &existing;
        break;
      }
    }
    if (slot == nullptr) {
      if (ring_.size() >= kMaxRecentTraces) {
        ring_.erase(ring_.begin());
      }
      ring_.push_back(Trace{t->trace_id, {}});
      slot = &ring_.back();
    }
    for (Span& s : spans) slot->spans.push_back(std::move(s));
  }
  t->trace_id = 0;
  t->current_span = 0;
  t->sampled = false;
  t->slow_seen = false;
  t->dropped = 0;
  t->buffer.clear();
}

std::vector<Trace> Tracer::RecentTraces() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return ring_;
}

std::vector<Span> Tracer::SlowOps() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return slow_ring_;
}

void Tracer::ResetForTest() {
  std::lock_guard<std::mutex> lock(ring_mu_);
  ring_.clear();
  slow_ring_.clear();
  root_counter_.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------ ScopedSpan

SpanSite::SpanSite(std::string_view name, std::string_view histogram)
    : name_id(Tracer::Instance().InternName(name)) {
  if (histogram.empty()) return;
  MetricsRegistry& registry = MetricsRegistry::Instance();
  this->histogram = registry.GetHistogram(histogram);
  count = registry.GetCounter(std::string(histogram) + ".count");
}

void ScopedSpan::Begin(uint32_t name_id, const TraceContext* remote) {
  Tracer& tracer = Tracer::Instance();
  Tracer::ThreadTrace& t = Tracer::CurrentThreadTrace();
  if (t.depth == 0) {
    if (remote != nullptr && remote->valid()) {
      // Server side of an RPC: join the caller's trace under its span
      // and honor its sampling decision (spans still record locally so
      // a slow server op is kept even for an unsampled trace).
      t.trace_id = remote->trace_id;
      t.sampled = remote->sampled;
      parent_id_ = remote->parent_span_id;
    } else {
      t.trace_id = tracer.NextTraceId();
      t.sampled = tracer.SampleRoot();
      parent_id_ = 0;
    }
    t.slow_seen = false;
    t.dropped = 0;
  } else {
    parent_id_ = t.current_span;
  }
  active_ = true;
  name_id_ = name_id;
  span_id_ = tracer.NextSpanId();
  prev_span_ = t.current_span;
  t.current_span = span_id_;
  ++t.depth;
}

void ScopedSpan::End(uint64_t duration_us) {
  Tracer& tracer = Tracer::Instance();
  Tracer::ThreadTrace& t = Tracer::CurrentThreadTrace();
  t.current_span = prev_span_;
  --t.depth;
  const uint64_t slow_us = tracer.slow_us();
  const bool slow = slow_us > 0 && duration_us >= slow_us;
  if (slow) {
    t.slow_seen = true;
    Span span;
    span.trace_id = t.trace_id;
    span.span_id = span_id_;
    span.parent_id = parent_id_;
    span.name = tracer.NameOf(name_id_);
    span.start_us = start_us_;
    span.duration_us = duration_us;
    span.thread_id = CurrentThreadId();
    span.annotation = annotation_;
    tracer.RecordSlowOp(span);
  }
  if (t.buffer.size() < Tracer::kMaxSpansPerTrace) {
    t.buffer.push_back(BufferedSpan{span_id_, parent_id_, name_id_, start_us_,
                                    duration_us, std::move(annotation_)});
  } else {
    ++t.dropped;
  }
  if (t.depth == 0) tracer.FlushThreadTrace(&t);
}

void ScopedSpan::Annotate(std::string_view kv) {
  if (!active_ || kv.empty()) return;
  if (!annotation_.empty()) annotation_.push_back(' ');
  annotation_.append(kv);
}

TraceContext ScopedSpan::CurrentContext() {
  if (!TracingEnabled()) return TraceContext{};
  Tracer::ThreadTrace& t = Tracer::CurrentThreadTrace();
  if (t.depth == 0) return TraceContext{};
  return TraceContext{t.trace_id, t.current_span, t.sampled};
}

// ------------------------------------------------------------ wire codec

namespace {

void EncodeSpanTo(const Span& span, std::string* out) {
  PutVarint64(out, span.span_id);
  PutVarint64(out, span.parent_id);
  PutLengthPrefixed(out, span.name);
  PutVarint64(out, span.start_us);
  PutVarint64(out, span.duration_us);
  PutVarint64(out, span.thread_id);
  PutLengthPrefixed(out, span.annotation);
}

bool DecodeSpanFrom(std::string_view* in, Span* span) {
  std::string_view name;
  std::string_view annotation;
  if (!GetVarint64(in, &span->span_id) || !GetVarint64(in, &span->parent_id) ||
      !GetLengthPrefixed(in, &name) || !GetVarint64(in, &span->start_us) ||
      !GetVarint64(in, &span->duration_us) ||
      !GetVarint64(in, &span->thread_id) ||
      !GetLengthPrefixed(in, &annotation)) {
    return false;
  }
  span->name.assign(name);
  span->annotation.assign(annotation);
  return true;
}

}  // namespace

void EncodeTracesTo(const std::vector<Trace>& traces, std::string* out) {
  PutVarint64(out, traces.size());
  for (const Trace& trace : traces) {
    PutVarint64(out, trace.trace_id);
    PutVarint64(out, trace.spans.size());
    for (const Span& span : trace.spans) EncodeSpanTo(span, out);
  }
}

bool DecodeTracesFrom(std::string_view* in, std::vector<Trace>* traces) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) return false;
  traces->clear();
  for (uint64_t i = 0; i < n; ++i) {
    Trace trace;
    uint64_t spans = 0;
    if (!GetVarint64(in, &trace.trace_id) || !GetVarint64(in, &spans)) {
      return false;
    }
    trace.spans.reserve(spans);
    for (uint64_t j = 0; j < spans; ++j) {
      Span span;
      if (!DecodeSpanFrom(in, &span)) return false;
      span.trace_id = trace.trace_id;
      trace.spans.push_back(std::move(span));
    }
    traces->push_back(std::move(trace));
  }
  return true;
}

void EncodeSpansTo(const std::vector<Span>& spans, std::string* out) {
  PutVarint64(out, spans.size());
  for (const Span& span : spans) {
    PutVarint64(out, span.trace_id);
    EncodeSpanTo(span, out);
  }
}

bool DecodeSpansFrom(std::string_view* in, std::vector<Span>* spans) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n)) return false;
  spans->clear();
  spans->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Span span;
    if (!GetVarint64(in, &span.trace_id) || !DecodeSpanFrom(in, &span)) {
      return false;
    }
    spans->push_back(std::move(span));
  }
  return true;
}

// --------------------------------------------------------- chrome export

std::string TracesToChromeJson(const std::vector<Trace>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < traces.size(); ++i) {
    for (const Span& span : traces[i].spans) {
      if (!first) out.push_back(',');
      first = false;
      out.append("\n{\"name\":\"");
      AppendJsonEscaped(span.name, &out);
      out.append("\",\"cat\":\"neptune\",\"ph\":\"X\",\"pid\":");
      out.append(std::to_string(i + 1));
      out.append(",\"tid\":");
      // Chrome renders tid as a lane label; fold the hash down to
      // something readable.
      out.append(std::to_string(span.thread_id % 1000000));
      out.append(",\"ts\":");
      out.append(std::to_string(span.start_us));
      out.append(",\"dur\":");
      out.append(std::to_string(span.duration_us));
      out.append(",\"args\":{\"trace_id\":");
      out.append(std::to_string(span.trace_id));
      out.append(",\"span_id\":");
      out.append(std::to_string(span.span_id));
      out.append(",\"parent_id\":");
      out.append(std::to_string(span.parent_id));
      out.append(",\"attrs\":\"");
      AppendJsonEscaped(span.annotation, &out);
      out.append("\"}}");
    }
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

}  // namespace neptune
