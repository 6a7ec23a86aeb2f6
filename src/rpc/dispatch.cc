#include "rpc/dispatch.h"

#include "common/coding.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace neptune {
namespace rpc {

namespace {

// Per-method request counters ("rpc.request.openNode"); unknown bytes
// all share "rpc.request.unknown".
Counter* MethodCounter(Method method) {
  static const auto* counters =
      PerMethod<Counter*>([](const std::string& name) {
        return MetricsRegistry::Instance().GetCounter("rpc.request." + name);
      });
  return (*counters)[static_cast<uint8_t>(method)];
}

}  // namespace

std::string BadRequestReply(std::string_view what) {
  std::string reply;
  EncodeStatusTo(Status::Corruption("malformed request: " + std::string(what)),
                 &reply);
  return reply;
}

std::string StatusReply(const Status& status) {
  std::string reply;
  EncodeStatusTo(status, &reply);
  return reply;
}

// ------------------------------------------------------------ sessions

void SessionSet::Insert(uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.insert(session);
}

void SessionSet::Erase(uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(session);
}

std::vector<uint64_t> SessionSet::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out(sessions_.begin(), sessions_.end());
  sessions_.clear();
  return out;
}

// ----------------------------------------------------------- admission

bool ShouldShed(Method method, int inflight, const AdmissionOptions& options) {
  if (inflight <= options.shed_inflight_requests) return false;
  if (IsAlwaysAdmitted(method)) return false;
  if (inflight > options.max_inflight_requests) return true;  // hard cap
  // Between the high-water mark and the cap: shed only the
  // non-transactional read traffic; writers keep their progress.
  return IsIdempotent(method);
}

std::string ShedReply(int inflight, uint32_t retry_after_ms) {
  // The request was refused before execution, so the client may
  // re-send ANY method safely; the varint after the status header is
  // the suggested backoff (RemoteHam honors it).
  std::string reply;
  EncodeStatusTo(Status::Unavailable("server overloaded (" +
                                     std::to_string(inflight) +
                                     " requests in flight); retry"),
                 &reply);
  PutVarint32(&reply, retry_after_ms);
  return reply;
}

// ---------------------------------------------------------- extensions

bool ParseRequestEnvelope(std::string payload, RequestEnvelope* out,
                          std::string* error_reply) {
  out->offset = 0;
  out->tagged = false;
  out->request_id = 0;
  out->remote_ctx = TraceContext{};
  // Frame extensions: a flagged method byte is followed by the trace
  // context and/or a request id; strip them so Handle sees the plain
  // encoding.
  if (!payload.empty()) {
    uint8_t first = static_cast<uint8_t>(payload.front());
    std::string_view rest(payload);
    rest.remove_prefix(1);
    if ((first & kTraceContextFlag) != 0) {
      if (!DecodeTraceContextFrom(&rest, &out->remote_ctx)) {
        *error_reply = BadRequestReply("trace context");
        return false;
      }
      first &= static_cast<uint8_t>(~kTraceContextFlag);
    }
    if ((first & kRequestIdFlag) != 0) {
      if (!GetVarint64(&rest, &out->request_id) || out->request_id == 0) {
        *error_reply = BadRequestReply("request id");
        return false;
      }
      first &= static_cast<uint8_t>(~kRequestIdFlag);
      out->tagged = true;
      NEPTUNE_METRIC_COUNT("rpc.server.pipelined", 1);
    }
    if (first != static_cast<uint8_t>(payload.front())) {
      // Rewrite the plain method byte in place, directly in front of
      // the args — the extension bytes before it are dead, so the
      // payload needs no copy, just an offset.
      const size_t off = payload.size() - rest.size() - 1;
      payload[off] = static_cast<char>(first);
      out->offset = off;
    }
  }
  out->payload = std::move(payload);
  return true;
}

// ------------------------------------------------------------ dispatch

std::string RequestDispatcher::Handle(std::string_view in,
                                      SessionSet* sessions) {
  if (in.empty()) return BadRequestReply("empty");
  const Method method = static_cast<Method>(in.front());
  in.remove_prefix(1);
  NEPTUNE_TRACE_SPAN(span, "rpc.dispatch", "rpc.request_latency");
  NEPTUNE_METRIC_COUNT("rpc.requests", 1);
  MethodCounter(method)->Increment();
  const MethodInfo& info = Describe(method);
  if (info.serve == nullptr) {
    return BadRequestReply("unknown method " +
                           std::to_string(static_cast<int>(method)));
  }
  std::optional<std::string> reply = info.serve(ham_, in, sessions);
  if (!reply.has_value()) return BadRequestReply(info.name);
  return std::move(*reply);
}

std::string RequestDispatcher::Respond(const RequestEnvelope& envelope,
                                       int load,
                                       const AdmissionOptions& admission,
                                       uint32_t retry_after_ms,
                                       SessionSet* sessions, bool* shed) {
  *shed = ShouldShed(envelope.method(), load, admission);
  if (*shed) NEPTUNE_METRIC_COUNT("server.shed", 1);
  std::string reply = *shed ? ShedReply(load, retry_after_ms)
                            : Handle(envelope.request(), sessions);
  if (!envelope.tagged) return reply;
  std::string tagged;
  PutVarint64(&tagged, envelope.request_id);
  return tagged + reply;
}

}  // namespace rpc
}  // namespace neptune
