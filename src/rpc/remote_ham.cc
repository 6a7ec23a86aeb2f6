#include "rpc/remote_ham.h"

#include <algorithm>
#include <type_traits>

#include "common/backoff.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/trace.h"
#include "rpc/codec.h"

namespace neptune {
namespace rpc {

namespace {

using ham::Context;

constexpr char kTruncatedReply[] = "truncated reply";

// Failures of the pipe itself, as opposed to answers from the server.
bool IsTransportError(const Status& status) {
  return status.IsNetworkError() || status.IsUnavailable() ||
         status.IsDeadlineExceeded();
}

// Per-method client span names ("rpc.client.openNode"), pre-interned
// (same idiom as the server's).
uint32_t ClientSpanNameId(Method method) {
  static const auto* names = PerMethod<uint32_t>([](const std::string& name) {
    return Tracer::Instance().InternName("rpc.client." + name);
  });
  return (*names)[static_cast<uint8_t>(method)];
}

// method byte | trace context when a span is live | request id when
// non-zero | args, with the extension flags set to match.
void AppendRequest(Method method, uint64_t request_id, std::string_view args,
                   std::string* out) {
  const TraceContext trace = ScopedSpan::CurrentContext();
  uint8_t first = static_cast<uint8_t>(method);
  if (trace.valid()) first |= kTraceContextFlag;
  if (request_id != 0) first |= kRequestIdFlag;
  out->reserve(1 + 17 + 10 + args.size());
  out->push_back(static_cast<char>(first));
  if (trace.valid()) EncodeTraceContextTo(trace, out);
  if (request_id != 0) PutVarint64(out, request_id);
  out->append(args);
}

}  // namespace

RemoteHam::RemoteHam(std::string host, uint16_t port, const Options& options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      time_(options.time_source != nullptr ? options.time_source
                                           : RealTimeSource()),
      rng_(options.retry_seed != 0
               ? options.retry_seed
               : static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this))) {}

Result<std::unique_ptr<RemoteHam>> RemoteHam::Connect(const std::string& host,
                                                      uint16_t port) {
  return Connect(host, port, Options());
}

Result<std::unique_ptr<RemoteHam>> RemoteHam::Connect(const std::string& host,
                                                      uint16_t port,
                                                      const Options& options) {
  auto client =
      std::unique_ptr<RemoteHam>(new RemoteHam(host, port, options));
  // The ping both verifies liveness and performs the initial connect
  // (with the same retry/backoff policy every later call gets).
  NEPTUNE_RETURN_IF_ERROR(client->Ping());
  if (!options.follower_host.empty()) {
    // The follower connection is best-effort: every routed read falls
    // back to the primary, so a dead follower only costs the routing.
    Options follower_options = options;
    follower_options.follower_host.clear();
    follower_options.follower_port = 0;
    Result<std::unique_ptr<RemoteHam>> follower = Connect(
        options.follower_host, options.follower_port, follower_options);
    if (follower.ok()) {
      client->follower_ = std::move(*follower);
    } else {
      NEPTUNE_METRIC_COUNT("repl.client.follower_connect_failed", 1);
    }
  }
  return client;
}

Result<std::unique_ptr<FrameStream>> RemoteHam::Dial() {
  if (options_.stream_factory) {
    return options_.stream_factory(host_, port_, options_.connect_timeout_ms);
  }
  return FrameStream::Connect(host_, port_, options_.connect_timeout_ms);
}

Status RemoteHam::ReconnectLocked() {
  NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<FrameStream> stream, Dial());
  NEPTUNE_RETURN_IF_ERROR(
      stream->SetTimeouts(options_.send_timeout_ms, options_.recv_timeout_ms));
  stream_ = std::move(stream);
  NEPTUNE_METRIC_COUNT("rpc.client.reconnects", 1);
  return Status::OK();
}

Result<std::string> RemoteHam::SendAndReceive(std::string_view request,
                                              bool* sent) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stream_ == nullptr) NEPTUNE_RETURN_IF_ERROR(ReconnectLocked());
  *sent = true;
  Status status = stream_->SendFrame(request);
  if (status.ok()) {
    Result<std::string> reply = stream_->RecvFrame();
    if (reply.ok()) return reply;
    status = reply.status();
  }
  // The connection is no longer in a known state (a partial frame may
  // be stranded in either direction): drop it.
  stream_.reset();
  return status;
}

// ---------------------------------------------------------- pipeline

struct RemoteHam::PendingCall::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;      // transport/decode failure, or OK
  std::string reply;  // the reply payload (id stripped) when OK

  void Fulfill(Status s, std::string r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (done) return;
      done = true;
      status = std::move(s);
      reply = std::move(r);
    }
    cv.notify_all();
  }

  // Blocks for the reply frame; returns it with the status header
  // still in place.
  Result<std::string> WaitRaw() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
    if (!status.ok()) return status;
    return std::move(reply);
  }
};

Result<std::string> RemoteHam::PendingCall::Wait() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("PendingCall already waited on");
  }
  auto state = std::move(state_);
  NEPTUNE_ASSIGN_OR_RETURN(std::string raw, state->WaitRaw());
  std::string_view in = raw;
  Status status;
  if (!DecodeStatusFrom(&in, &status)) {
    return Status::Corruption("malformed reply status");
  }
  NEPTUNE_RETURN_IF_ERROR(status);
  return std::string(in);
}

// One connection generation. Writers serialize on `mu` (SendFrame is
// not otherwise thread-safe); the receiver thread takes `mu` only
// briefly to match a reply to its id. A transport failure marks the
// generation broken; the next call builds a fresh one.
struct RemoteHam::PipelineConn {
  std::mutex mu;
  std::condition_variable cv;  // slot free / broken
  std::unique_ptr<FrameStream> stream;
  bool broken = false;
  Status error;
  uint64_t next_id = 1;
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall::State>> inflight;
  // Framed requests waiting for the sender thread. Appending here
  // under mu (same hold as the id registration) keeps the wire order
  // equal to the registration order.
  std::string outbuf;
  std::condition_variable send_cv;
  bool sender_stop = false;

  // Caller holds mu. Fails everything in flight, wakes everyone.
  void BreakLocked(const Status& status) {
    if (!broken) {
      broken = true;
      error = status;
      if (stream != nullptr) stream->Close();
    }
    auto failed = std::move(inflight);
    inflight.clear();
    cv.notify_all();
    send_cv.notify_all();
    mu.unlock();  // Fulfill takes per-pending locks; drop ours first
    for (auto& [id, pending] : failed) {
      pending->Fulfill(status, "");
    }
    mu.lock();
  }
};

RemoteHam::~RemoteHam() {
  {
    std::lock_guard<std::mutex> lock(pmu_);
    if (pconn_ != nullptr) {
      std::lock_guard<std::mutex> clock(pconn_->mu);
      pconn_->sender_stop = true;
      pconn_->send_cv.notify_all();
      if (pconn_->stream != nullptr) pconn_->stream->Close();
    }
  }
  if (receiver_.joinable()) receiver_.join();
  if (sender_.joinable()) sender_.join();
}

void RemoteHam::SenderMain(std::shared_ptr<PipelineConn> conn) {
  std::string out;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->send_cv.wait(lock, [&] {
        return conn->sender_stop || conn->broken || !conn->outbuf.empty();
      });
      if (conn->sender_stop || conn->broken) return;
      out.clear();
      out.swap(conn->outbuf);
    }
    Status sent = conn->stream->SendBytes(out);
    if (!sent.ok()) {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (!conn->broken) conn->BreakLocked(sent);
      return;
    }
  }
}

void RemoteHam::ReceiverMain(std::shared_ptr<PipelineConn> conn) {
  for (;;) {
    Result<std::string> frame = conn->stream->RecvFrame();
    std::unique_lock<std::mutex> lock(conn->mu);
    if (!frame.ok()) {
      conn->BreakLocked(frame.status());
      return;
    }
    std::string_view in = *frame;
    uint64_t id = 0;
    if (!GetVarint64(&in, &id)) {
      conn->BreakLocked(Status::Corruption("malformed reply id"));
      return;
    }
    std::shared_ptr<PendingCall::State> pending;
    auto it = conn->inflight.find(id);
    if (it != conn->inflight.end()) {
      pending = std::move(it->second);
      conn->inflight.erase(it);
    }
    conn->cv.notify_all();  // a slot freed
    lock.unlock();
    // A reply for an unknown id (already failed locally) is dropped.
    if (pending != nullptr) pending->Fulfill(Status::OK(), std::string(in));
  }
}

Result<std::shared_ptr<RemoteHam::PendingCall::State>>
RemoteHam::EnqueueTagged(Method method, std::string_view args, bool* sent) {
  *sent = false;
  std::shared_ptr<PipelineConn> conn;
  {
    std::lock_guard<std::mutex> lock(pmu_);
    bool need_fresh = pconn_ == nullptr;
    if (!need_fresh) {
      std::lock_guard<std::mutex> clock(pconn_->mu);
      need_fresh = pconn_->broken;
    }
    if (need_fresh) {
      // The previous generation's receiver and sender exit as soon as
      // its stream breaks (BreakLocked wakes both); neither touches
      // pmu_, so joining under it is safe.
      if (receiver_.joinable()) receiver_.join();
      if (sender_.joinable()) sender_.join();
      auto fresh = std::make_shared<PipelineConn>();
      NEPTUNE_ASSIGN_OR_RETURN(fresh->stream, Dial());
      NEPTUNE_RETURN_IF_ERROR(fresh->stream->SetTimeouts(
          options_.send_timeout_ms, options_.recv_timeout_ms));
      if (pconn_ != nullptr) NEPTUNE_METRIC_COUNT("rpc.client.reconnects", 1);
      pconn_ = fresh;
      receiver_ = std::thread([this, fresh] { ReceiverMain(fresh); });
      sender_ = std::thread([this, fresh] { SenderMain(fresh); });
    }
    conn = pconn_;
  }

  const uint32_t max_inflight = std::max<uint32_t>(options_.max_inflight, 1);
  std::unique_lock<std::mutex> lock(conn->mu);
  conn->cv.wait(lock, [&] {
    return conn->broken || conn->inflight.size() < max_inflight;
  });
  if (conn->broken) return conn->error;

  uint64_t id;
  const uint64_t override_id =
      next_id_override_.exchange(0, std::memory_order_relaxed);
  if (override_id != 0) conn->next_id = override_id;
  do {
    id = conn->next_id++;
    if (conn->next_id == 0) conn->next_id = 1;  // ids wrap, skipping 0
  } while (id == 0 || conn->inflight.count(id) != 0);

  std::string request;
  AppendRequest(method, id, args, &request);

  if (request.size() > conn->stream->max_frame_bytes()) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(request.size()) +
        " bytes exceeds limit of " +
        std::to_string(conn->stream->max_frame_bytes()));
  }
  auto pending = std::make_shared<PendingCall::State>();
  conn->inflight.emplace(id, pending);
  *sent = true;
  // Hand the framed request to the sender thread: a burst of calls
  // coalesces into one send() syscall, and a send failure surfaces as
  // BreakLocked failing every pending call (this one included).
  AppendFrame("", request, &conn->outbuf);
  conn->send_cv.notify_one();
  return pending;
}

Result<std::string> RemoteHam::Call(Method method, std::string_view args) {
  // The client half of the request's trace: the server parents its
  // spans under this one via the propagated context, so the gap
  // between this span and the server's is wire + queueing time.
  ScopedSpan span(ClientSpanNameId(method));
  std::string request;
  if (!options_.pipeline) AppendRequest(method, /*request_id=*/0, args,
                                        &request);

  for (uint32_t attempt = 0;; ++attempt) {
    // `sent` distinguishes "the pipe broke before the request left"
    // (always safe to retry) from "the request may have executed"
    // (safe only for idempotent methods). Only this step differs
    // between the two paths: one request on the connection at a time,
    // or a tagged request among others in flight.
    bool sent = false;
    Result<std::string> raw = [&]() -> Result<std::string> {
      if (!options_.pipeline) return SendAndReceive(request, &sent);
      NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<PendingCall::State> pending,
                               EnqueueTagged(method, args, &sent));
      return pending->WaitRaw();
    }();
    if (raw.ok()) {
      std::string_view in = *raw;
      Status status;
      if (!DecodeStatusFrom(&in, &status)) {
        return Status::Corruption("malformed reply status");
      }
      // An Unavailable reply carrying a varint body is the server's
      // load-shed refusal with a retry-after-ms hint. The request was
      // rejected *before* execution, so re-sending is safe even for
      // mutations — the retry waits at least half the hinted backoff.
      uint32_t retry_after_ms = 0;
      if (!status.IsUnavailable() || in.empty() ||
          !GetVarint32(&in, &retry_after_ms)) {
        NEPTUNE_RETURN_IF_ERROR(status);
        return std::string(in);
      }
      if (attempt >= options_.max_retries) return status;
      NEPTUNE_METRIC_COUNT("rpc.client.shed_retries", 1);
      span.Annotate("shed_retry=1");
      uint64_t delay = std::max<uint64_t>(retry_after_ms, 1);
      {
        // Full jitter in [delay/2, delay] spreads the herd of shed
        // clients back out.
        std::lock_guard<std::mutex> lock(rng_mu_);
        delay = delay / 2 + rng_.Uniform(delay / 2 + 1);
      }
      time_->SleepMicros(delay * 1000);
      continue;
    }
    const Status& last = raw.status();
    if (last.IsDeadlineExceeded()) {
      NEPTUNE_METRIC_COUNT("rpc.client.deadline_exceeded", 1);
    }
    if (!IsTransportError(last)) return last;
    if (sent && !IsIdempotent(method)) return last;
    if (attempt >= options_.max_retries) return last;
    NEPTUNE_METRIC_COUNT("rpc.client.retries", 1);
    span.Annotate("retry=" + std::to_string(attempt + 1));
    uint64_t delay_ms;
    {
      // Shared jittered-exponential policy (common/backoff.h) keeps
      // reconnect storms spread out; the sleep happens outside the
      // lock.
      std::lock_guard<std::mutex> lock(rng_mu_);
      Backoff backoff(options_.backoff_initial_ms, options_.backoff_max_ms,
                      &rng_);
      delay_ms = backoff.DelayForAttemptMs(static_cast<int>(attempt));
    }
    time_->SleepMicros(delay_ms * 1000);
  }
}

RemoteHam::PendingCall RemoteHam::CallAsync(Method method,
                                            std::string_view args) {
  PendingCall call;
  call.state_ = std::make_shared<PendingCall::State>();
  if (options_.pipeline) {
    bool sent = false;
    auto pending = EnqueueTagged(method, args, &sent);
    if (pending.ok()) {
      call.state_ = *pending;
      return call;
    }
    call.state_->Fulfill(pending.status(), "");
    return call;
  }
  // No pipeline: execute synchronously and hand back the answer,
  // re-framing it the way a tagged reply would look (status + body) so
  // Wait() decodes both shapes identically.
  Result<std::string> reply = Call(method, args);
  if (!reply.ok()) {
    call.state_->Fulfill(reply.status(), "");
  } else {
    std::string framed;
    EncodeStatusTo(Status::OK(), &framed);
    framed.append(*reply);
    call.state_->Fulfill(Status::OK(), std::move(framed));
  }
  return call;
}

template <typename R, typename... Args>
auto RemoteHam::Invoke(Method method, const Args&... args)
    -> std::conditional_t<std::is_void_v<R>, Status, Result<R>> {
  std::string encoded;
  EncodeArgs(&encoded, args...);
  Result<std::string> reply = Call(method, encoded);
  if constexpr (std::is_void_v<R>) {
    return reply.status();
  } else {
    if (!reply.ok()) return reply.status();
    std::string_view in = *reply;
    R out{};
    if (!Codec<R>::Decode(&in, &out)) {
      return Status::Corruption(kTruncatedReply);
    }
    return out;
  }
}

Status RemoteHam::Ping() {
  Result<std::string> reply = Call(Method::kPing, "neptune");
  if (!reply.ok()) return reply.status();
  if (*reply != "neptune") {
    return Status::NetworkError("ping echo mismatch");
  }
  return Status::OK();
}

Result<MetricsSnapshot> RemoteHam::GetServerStatistics() {
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetServerStatistics, ""));
  std::string_view in = reply;
  MetricsSnapshot out;
  if (!MetricsSnapshot::DecodeFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<RemoteHam::StatisticsDelta> RemoteHam::GetServerStatisticsDelta(
    uint32_t window_seconds) {
  std::string args;
  EncodeArgs(&args, uint64_t{window_seconds});
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetServerStatisticsDelta, args));
  std::string_view in = reply;
  StatisticsDelta out;
  if (!GetVarint64(&in, &out.elapsed_us) ||
      !MetricsSnapshot::DecodeFrom(&in, &out.snapshot)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<Trace>> RemoteHam::GetRecentTraces() {
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetRecentTraces, ""));
  std::string_view in = reply;
  std::vector<Trace> out;
  if (!DecodeTracesFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<Span>> RemoteHam::GetSlowOps() {
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kGetSlowOps, ""));
  std::string_view in = reply;
  std::vector<Span> out;
  if (!DecodeSpansFrom(&in, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

// Batch replies: varint count (which must match the request) followed
// by one item per request, each a status and, when OK, the item's
// fields (decoded by `decode`).
template <typename Item, typename Decode>
bool DecodeBatch(std::string_view* in, uint64_t expected, Decode decode,
                 std::vector<Item>* out) {
  uint64_t count = 0;
  if (!GetVarint64(in, &count) || count != expected) return false;
  out->resize(count);
  for (Item& item : *out) {
    if (!DecodeStatusFrom(in, &item.status) ||
        (item.status.ok() && !decode(in, &item))) {
      return false;
    }
  }
  return true;
}

Result<std::vector<RemoteHam::OpenNodeItem>> RemoteHam::OpenNodes(
    Context ctx, const std::vector<ham::NodeIndex>& nodes, ham::Time time,
    const std::vector<ham::AttributeIndex>& attrs) {
  std::string args;
  EncodeArgs(&args, ctx, time, attrs, nodes);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply, Call(Method::kOpenNodes, args));
  std::string_view in = reply;
  std::vector<OpenNodeItem> out;
  auto decode = [](std::string_view* in, OpenNodeItem* item) {
    return DecodeArgs(in, &item->result);
  };
  if (!DecodeBatch(&in, nodes.size(), decode, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<std::vector<RemoteHam::AttributeFetchItem>>
RemoteHam::GetAttributeValuesBatch(Context ctx, ham::Time time,
                                   const std::vector<AttributeFetch>& fetches) {
  std::string args;
  EncodeArgs(&args, ctx, time, fetches);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kGetAttributeValuesBatch, args));
  std::string_view in = reply;
  std::vector<AttributeFetchItem> out;
  auto decode = [](std::string_view* in, AttributeFetchItem* item) {
    return DecodeArgs(in, &item->value);
  };
  if (!DecodeBatch(&in, fetches.size(), decode, &out)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

Result<RemoteHam::LinearizeAndFetchResult> RemoteHam::LinearizeAndFetch(
    Context ctx, ham::NodeIndex start, ham::Time time,
    const std::string& node_pred, const std::string& link_pred,
    const std::vector<ham::AttributeIndex>& node_attrs,
    const std::vector<ham::AttributeIndex>& link_attrs) {
  std::string args;
  EncodeArgs(&args, ctx, start, time, node_pred, link_pred, node_attrs,
             link_attrs);
  NEPTUNE_ASSIGN_OR_RETURN(std::string reply,
                           Call(Method::kLinearizeAndFetch, args));
  std::string_view in = reply;
  LinearizeAndFetchResult out;
  auto decode = [](std::string_view* in, NodeContentsItem* item) {
    return DecodeArgs(in, &item->contents, &item->version_time);
  };
  if (!DecodeArgs(&in, &out.graph) ||
      !DecodeBatch(&in, out.graph.nodes.size(), decode, &out.contents)) {
    return Status::Corruption(kTruncatedReply);
  }
  return out;
}

// HamInterface ------------------------------------------------------
// Each operation is one Invoke: its arguments are encoded by their
// types, and the reply decoded as R (rpc/codec.h).

Result<ham::CreateGraphResult> RemoteHam::CreateGraph(
    const std::string& directory, uint32_t protections) {
  return Invoke<ham::CreateGraphResult>(Method::kCreateGraph, directory,
                                        protections);
}

Status RemoteHam::DestroyGraph(ham::ProjectId project,
                               const std::string& directory) {
  return Invoke<void>(Method::kDestroyGraph, project, directory);
}

Result<Context> RemoteHam::OpenGraph(ham::ProjectId project,
                                     const std::string& machine,
                                     const std::string& directory) {
  NEPTUNE_ASSIGN_OR_RETURN(
      Context ctx,
      Invoke<Context>(Method::kOpenGraph, project, machine, directory));
  if (follower_ != nullptr) {
    // Shadow session for routed reads. Failure (follower down, graph
    // not yet synced there) just disables routing for this session.
    const std::string fdir = FollowerPath(directory);
    Result<Context> fctx = follower_->OpenGraph(project, machine, fdir);
    if (fctx.ok()) {
      std::lock_guard<std::mutex> lock(fmu_);
      follower_sessions_[ctx.session] =
          FollowerSession{fctx->session, fdir, false};
    } else {
      NEPTUNE_METRIC_COUNT("repl.client.follower_open_failed", 1);
    }
  }
  return ctx;
}

Status RemoteHam::CloseGraph(Context ctx) {
  uint64_t shadow = 0;
  {
    std::lock_guard<std::mutex> lock(fmu_);
    auto it = follower_sessions_.find(ctx.session);
    if (it != follower_sessions_.end()) {
      shadow = it->second.follower_session;
      follower_sessions_.erase(it);
    }
  }
  if (shadow != 0 && follower_ != nullptr) {
    (void)follower_->CloseGraph(Context{shadow});  // best-effort
  }
  return Invoke<void>(Method::kCloseGraph, ctx);
}

void RemoteHam::SetInTransaction(Context ctx, bool in_txn) {
  std::lock_guard<std::mutex> lock(fmu_);
  auto it = follower_sessions_.find(ctx.session);
  if (it != follower_sessions_.end()) it->second.in_txn = in_txn;
}

Status RemoteHam::BeginTransaction(Context ctx) {
  Status status = Invoke<void>(Method::kBeginTransaction, ctx);
  if (status.ok()) SetInTransaction(ctx, true);
  return status;
}

Status RemoteHam::CommitTransaction(Context ctx) {
  Status status = Invoke<void>(Method::kCommitTransaction, ctx);
  SetInTransaction(ctx, false);
  return status;
}

Status RemoteHam::AbortTransaction(Context ctx) {
  Status status = Invoke<void>(Method::kAbortTransaction, ctx);
  SetInTransaction(ctx, false);
  return status;
}

// ------------------------------------------------- follower routing

bool RemoteHam::FollowerReadContext(Context ctx, Context* fctx) {
  if (follower_ == nullptr) return false;
  std::string directory;
  {
    std::lock_guard<std::mutex> lock(fmu_);
    auto it = follower_sessions_.find(ctx.session);
    if (it == follower_sessions_.end() || it->second.in_txn) return false;
    fctx->session = it->second.follower_session;
    directory = it->second.directory;
  }
  return FollowerFresh(directory);
}

std::string RemoteHam::FollowerPath(const std::string& directory) const {
  const std::string& from = options_.follower_remap_from;
  if (from.empty()) return directory;
  if (directory == from) return options_.follower_remap_to;
  if (directory.size() > from.size() &&
      directory.compare(0, from.size(), from) == 0 &&
      directory[from.size()] == '/') {
    return options_.follower_remap_to + directory.substr(from.size());
  }
  return directory;
}

bool RemoteHam::FollowerFresh(const std::string& directory) {
  const uint64_t now = time_->NowMicros();
  {
    std::lock_guard<std::mutex> lock(fmu_);
    if (follower_status_us_ != 0 &&
        now - follower_status_us_ <
            options_.follower_status_ttl_ms * 1000) {
      return follower_fresh_;
    }
  }
  Result<ham::ReplNodeStatus> status = follower_->ReplStatus(directory);
  const bool fresh =
      status.ok() && status->follower &&
      status->lag_bytes <= options_.follower_max_lag_bytes &&
      status->behind_ms <= options_.follower_max_behind_ms;
  if (!fresh) NEPTUNE_METRIC_COUNT("repl.client.stale_follower", 1);
  std::lock_guard<std::mutex> lock(fmu_);
  follower_status_us_ = now;
  follower_fresh_ = fresh;
  return fresh;
}

Result<ham::AddNodeResult> RemoteHam::AddNode(Context ctx, bool keep_history) {
  return Invoke<ham::AddNodeResult>(Method::kAddNode, ctx, keep_history);
}

Status RemoteHam::DeleteNode(Context ctx, ham::NodeIndex node) {
  return Invoke<void>(Method::kDeleteNode, ctx, node);
}

Result<ham::AddLinkResult> RemoteHam::AddLink(Context ctx,
                                              const ham::LinkPt& from,
                                              const ham::LinkPt& to) {
  return Invoke<ham::AddLinkResult>(Method::kAddLink, ctx, from, to);
}

Result<ham::AddLinkResult> RemoteHam::CopyLink(Context ctx,
                                               ham::LinkIndex link,
                                               ham::Time time,
                                               bool copy_source,
                                               const ham::LinkPt& other) {
  return Invoke<ham::AddLinkResult>(Method::kCopyLink, ctx, link, time,
                                    copy_source, other);
}

Status RemoteHam::DeleteLink(Context ctx, ham::LinkIndex link) {
  return Invoke<void>(Method::kDeleteLink, ctx, link);
}

Result<ham::SubGraph> RemoteHam::LinearizeGraph(
    Context ctx, ham::NodeIndex start, ham::Time time,
    const std::string& node_pred, const std::string& link_pred,
    const std::vector<ham::AttributeIndex>& node_attrs,
    const std::vector<ham::AttributeIndex>& link_attrs) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.LinearizeGraph(c, start, time, node_pred, link_pred,
                                     node_attrs, link_attrs);
      })) {
    return std::move(*routed);
  }
  return Invoke<ham::SubGraph>(Method::kLinearizeGraph, ctx, start, time,
                               node_pred, link_pred, node_attrs, link_attrs);
}

Result<ham::SubGraph> RemoteHam::GetGraphQuery(
    Context ctx, ham::Time time, const std::string& node_pred,
    const std::string& link_pred,
    const std::vector<ham::AttributeIndex>& node_attrs,
    const std::vector<ham::AttributeIndex>& link_attrs) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetGraphQuery(c, time, node_pred, link_pred, node_attrs,
                                    link_attrs);
      })) {
    return std::move(*routed);
  }
  return Invoke<ham::SubGraph>(Method::kGetGraphQuery, ctx, time, node_pred,
                               link_pred, node_attrs, link_attrs);
}

Result<ham::QueryExplain> RemoteHam::GetGraphQueryExplained(
    Context ctx, ham::Time time, const std::string& node_pred,
    const std::string& link_pred,
    const std::vector<ham::AttributeIndex>& node_attrs,
    const std::vector<ham::AttributeIndex>& link_attrs,
    const ham::QueryOptions& options) {
  return Invoke<ham::QueryExplain>(Method::kGetGraphQueryExplained, ctx, time,
                                   node_pred, link_pred, node_attrs,
                                   link_attrs, options);
}

Result<ham::OpenNodeResult> RemoteHam::OpenNode(
    Context ctx, ham::NodeIndex node, ham::Time time,
    const std::vector<ham::AttributeIndex>& attrs) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.OpenNode(c, node, time, attrs);
      })) {
    return std::move(*routed);
  }
  return Invoke<ham::OpenNodeResult>(Method::kOpenNode, ctx, node, time,
                                     attrs);
}

Status RemoteHam::ModifyNode(
    Context ctx, ham::NodeIndex node, ham::Time expected_time,
    const std::string& contents,
    const std::vector<ham::AttachmentUpdate>& attachments,
    const std::string& explanation) {
  return Invoke<void>(Method::kModifyNode, ctx, node, expected_time, contents,
                      attachments, explanation);
}

Result<ham::Time> RemoteHam::GetNodeTimeStamp(Context ctx,
                                              ham::NodeIndex node) {
  return Invoke<ham::Time>(Method::kGetNodeTimeStamp, ctx, node);
}

Status RemoteHam::ChangeNodeProtection(Context ctx, ham::NodeIndex node,
                                       uint32_t protections) {
  return Invoke<void>(Method::kChangeNodeProtection, ctx, node, protections);
}

Result<ham::NodeVersions> RemoteHam::GetNodeVersions(Context ctx,
                                                     ham::NodeIndex node) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetNodeVersions(c, node);
      })) {
    return std::move(*routed);
  }
  return Invoke<ham::NodeVersions>(Method::kGetNodeVersions, ctx, node);
}

Result<std::vector<delta::Difference>> RemoteHam::GetNodeDifferences(
    Context ctx, ham::NodeIndex node, ham::Time t1, ham::Time t2) {
  return Invoke<std::vector<delta::Difference>>(Method::kGetNodeDifferences,
                                                ctx, node, t1, t2);
}

Result<ham::LinkEndResult> RemoteHam::GetToNode(Context ctx,
                                                ham::LinkIndex link,
                                                ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetToNode(c, link, time);
      })) {
    return std::move(*routed);
  }
  return Invoke<ham::LinkEndResult>(Method::kGetToNode, ctx, link, time);
}

Result<ham::LinkEndResult> RemoteHam::GetFromNode(Context ctx,
                                                  ham::LinkIndex link,
                                                  ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetFromNode(c, link, time);
      })) {
    return std::move(*routed);
  }
  return Invoke<ham::LinkEndResult>(Method::kGetFromNode, ctx, link, time);
}

Result<std::vector<ham::AttributeEntry>> RemoteHam::GetAttributes(
    Context ctx, ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetAttributes(c, time);
      })) {
    return std::move(*routed);
  }
  return Invoke<std::vector<ham::AttributeEntry>>(Method::kGetAttributes, ctx,
                                                  time);
}

Result<std::vector<std::string>> RemoteHam::GetAttributeValues(
    Context ctx, ham::AttributeIndex attr, ham::Time time) {
  return Invoke<std::vector<std::string>>(Method::kGetAttributeValues, ctx,
                                          attr, time);
}

Result<ham::AttributeIndex> RemoteHam::GetAttributeIndex(
    Context ctx, const std::string& name) {
  return Invoke<ham::AttributeIndex>(Method::kGetAttributeIndex, ctx, name);
}

Status RemoteHam::SetNodeAttributeValue(Context ctx, ham::NodeIndex node,
                                        ham::AttributeIndex attr,
                                        const std::string& value) {
  return Invoke<void>(Method::kSetNodeAttributeValue, ctx, node, attr, value);
}

Status RemoteHam::DeleteNodeAttribute(Context ctx, ham::NodeIndex node,
                                      ham::AttributeIndex attr) {
  return Invoke<void>(Method::kDeleteNodeAttribute, ctx, node, attr);
}

Result<std::string> RemoteHam::GetNodeAttributeValue(Context ctx,
                                                     ham::NodeIndex node,
                                                     ham::AttributeIndex attr,
                                                     ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetNodeAttributeValue(c, node, attr, time);
      })) {
    return std::move(*routed);
  }
  return Invoke<std::string>(Method::kGetNodeAttributeValue, ctx, node, attr,
                             time);
}

Result<std::vector<ham::AttributeValueEntry>> RemoteHam::GetNodeAttributes(
    Context ctx, ham::NodeIndex node, ham::Time time) {
  if (auto routed = TryFollower(ctx, [&](auto& target, Context c) {
        return target.GetNodeAttributes(c, node, time);
      })) {
    return std::move(*routed);
  }
  return Invoke<std::vector<ham::AttributeValueEntry>>(
      Method::kGetNodeAttributes, ctx, node, time);
}

Status RemoteHam::SetLinkAttributeValue(Context ctx, ham::LinkIndex link,
                                        ham::AttributeIndex attr,
                                        const std::string& value) {
  return Invoke<void>(Method::kSetLinkAttributeValue, ctx, link, attr, value);
}

Status RemoteHam::DeleteLinkAttribute(Context ctx, ham::LinkIndex link,
                                      ham::AttributeIndex attr) {
  return Invoke<void>(Method::kDeleteLinkAttribute, ctx, link, attr);
}

Result<std::string> RemoteHam::GetLinkAttributeValue(Context ctx,
                                                     ham::LinkIndex link,
                                                     ham::AttributeIndex attr,
                                                     ham::Time time) {
  return Invoke<std::string>(Method::kGetLinkAttributeValue, ctx, link, attr,
                             time);
}

Result<std::vector<ham::AttributeValueEntry>> RemoteHam::GetLinkAttributes(
    Context ctx, ham::LinkIndex link, ham::Time time) {
  return Invoke<std::vector<ham::AttributeValueEntry>>(
      Method::kGetLinkAttributes, ctx, link, time);
}

Status RemoteHam::SetGraphDemonValue(Context ctx, ham::Event event,
                                     const std::string& demon) {
  return Invoke<void>(Method::kSetGraphDemonValue, ctx, event, demon);
}

Result<std::vector<ham::DemonEntry>> RemoteHam::GetGraphDemons(
    Context ctx, ham::Time time) {
  return Invoke<std::vector<ham::DemonEntry>>(Method::kGetGraphDemons, ctx,
                                              time);
}

Status RemoteHam::SetNodeDemon(Context ctx, ham::NodeIndex node,
                               ham::Event event, const std::string& demon) {
  return Invoke<void>(Method::kSetNodeDemon, ctx, node, event, demon);
}

Result<std::vector<ham::DemonEntry>> RemoteHam::GetNodeDemons(
    Context ctx, ham::NodeIndex node, ham::Time time) {
  return Invoke<std::vector<ham::DemonEntry>>(Method::kGetNodeDemons, ctx,
                                              node, time);
}

Result<ham::ContextInfo> RemoteHam::CreateContext(Context ctx,
                                                  const std::string& name) {
  return Invoke<ham::ContextInfo>(Method::kCreateContext, ctx, name);
}

Result<Context> RemoteHam::OpenContext(Context ctx, ham::ThreadId thread) {
  return Invoke<Context>(Method::kOpenContext, ctx, thread);
}

Status RemoteHam::MergeContext(Context ctx, ham::ThreadId source, bool force) {
  return Invoke<void>(Method::kMergeContext, ctx, source, force);
}

Result<std::vector<ham::ContextInfo>> RemoteHam::ListContexts(Context ctx) {
  return Invoke<std::vector<ham::ContextInfo>>(Method::kListContexts, ctx);
}

Status RemoteHam::Checkpoint(Context ctx) {
  return Invoke<void>(Method::kCheckpoint, ctx);
}

Result<ham::GraphStats> RemoteHam::GetStats(Context ctx) {
  return Invoke<ham::GraphStats>(Method::kGetStats, ctx);
}

Result<ham::ThreadId> RemoteHam::ContextThread(Context ctx) {
  return Invoke<ham::ThreadId>(Method::kContextThread, ctx);
}

Result<ham::ReplFetchResult> RemoteHam::ReplFetch(
    const ham::ReplFetchRequest& request) {
  return Invoke<ham::ReplFetchResult>(Method::kReplFetch, request);
}

Result<ham::ReplNodeStatus> RemoteHam::ReplStatus(
    const std::string& directory) {
  return Invoke<ham::ReplNodeStatus>(Method::kReplStatus, directory);
}

Result<std::vector<std::string>> RemoteHam::ReplListGraphs(
    const std::string& root) {
  return Invoke<std::vector<std::string>>(Method::kReplListGraphs, root);
}

Result<uint64_t> RemoteHam::Promote() {
  return Invoke<uint64_t>(Method::kReplPromote);
}

}  // namespace rpc
}  // namespace neptune
