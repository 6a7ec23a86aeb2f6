#include "rpc/remote_ham.h"

#include <algorithm>
#include <condition_variable>
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
// non-zero, with the extension flags set to match; the encoded
// arguments follow it in the frame.
std::string RequestHeader(Method method, uint64_t request_id) {
  const TraceContext trace = ScopedSpan::CurrentContext();
  uint8_t first = static_cast<uint8_t>(method);
  if (trace.valid()) first |= kTraceContextFlag;
  if (request_id != 0) first |= kRequestIdFlag;
  std::string header(1, static_cast<char>(first));
  if (trace.valid()) EncodeTraceContextTo(trace, &header);
  if (request_id != 0) PutVarint64(&header, request_id);
  return header;
}

}  // namespace

// ---------------------------------------------------------- connection

// One call in flight. Its caller (or whoever holds its PendingCall)
// blocks on `cv` under the connection's mutex.
struct RemoteHam::PendingCall::State {
  explicit State(std::shared_ptr<Conn> on) : conn(std::move(on)) {}

  // Blocks for the reply frame; returns it with the status header
  // still in place.
  Result<std::string> Await();

  // Caller holds conn->mu (when there is a connection), and wakes the
  // owner through cv.
  void Fulfill(Status s, std::string r) {
    done = true;
    status = std::move(s);
    reply = std::move(r);
  }

  const std::shared_ptr<Conn> conn;  // null when the call never started
  std::condition_variable cv;        // reply in, or the reader role free
  bool done = false;
  bool awaited = false;  // someone blocks on cv for the reply
  Status status;         // transport failure, or OK
  std::string reply;     // the reply payload (id stripped) when OK
};

// One connection generation, shared by every call on the client.
// Callers do the I/O themselves: whoever finds no send in progress
// drains the outbound buffer, and whoever waits while nobody reads
// takes the reader role. A transport failure breaks the generation and
// fails every call on it; the next call dials a fresh one.
struct RemoteHam::Conn {
  using CallPtr = std::shared_ptr<PendingCall::State>;

  explicit Conn(std::unique_ptr<FrameStream> s) : stream(std::move(s)) {}

  bool Quiet() const { return plain == nullptr && tagged.empty(); }

  // Fails every call in flight and wakes every waiter. Caller holds mu.
  void BreakLocked(const Status& status) {
    if (!broken) {
      broken = true;
      error = status;
      stream->Close();
    }
    outbuf.clear();
    const auto fail = [&status](const CallPtr& call) {
      call->Fulfill(status, "");
      call->cv.notify_one();
    };
    if (plain != nullptr) fail(plain);
    plain.reset();
    for (auto& [id, call] : tagged) fail(call);
    tagged.clear();
    send_cv.notify_all();
  }

  // Hands the outbound buffer to the socket unless another caller is
  // doing so already; that caller drains what was appended meanwhile
  // before it lets go, so a burst still costs one send().
  void FlushLocked(std::unique_lock<std::mutex>* lock) {
    if (sending) return;
    sending = true;
    std::string out;
    while (!outbuf.empty()) {
      out.swap(outbuf);
      lock->unlock();
      const Status status = stream->SendBytes(out);
      lock->lock();
      out.clear();
      if (!status.ok()) BreakLocked(status);
    }
    sending = false;
    outbuf.swap(out);  // keep the buffer's capacity
  }

  // Hands one reply frame to its call and returns that call, whose
  // owner the caller wakes. Caller holds mu.
  CallPtr DeliverLocked(std::string frame) {
    CallPtr call = std::move(plain);
    if (call == nullptr) {
      std::string_view in = frame;
      uint64_t id = 0;
      if (!GetVarint64(&in, &id)) {
        BreakLocked(Status::Corruption("malformed reply id"));
        return nullptr;
      }
      auto it = tagged.find(id);
      if (it == tagged.end()) return nullptr;  // not ours: dropped
      call = std::move(it->second);
      tagged.erase(it);
      frame.erase(0, frame.size() - in.size());
    }
    call->Fulfill(Status::OK(), std::move(frame));
    if (send_waiters > 0) send_cv.notify_all();
    return call;
  }

  // Blocks on `cv` until `ready()` holds, first sending whatever is
  // queued. While a reply is due and nobody reads, the waiter reads,
  // handing each frame to its call, and passes the role on once
  // `ready()` holds. Nobody reads while no call waits, so an idle
  // connection never runs into the recv deadline. Caller holds `lock`
  // on mu.
  template <typename Ready>
  void Await(std::unique_lock<std::mutex>* lock, std::condition_variable* cv,
             Ready ready) {
    while (!ready()) {
      if (reading || Quiet()) {
        if (!outbuf.empty() && !sending) {
          FlushLocked(lock);
        } else {
          cv->wait(*lock);
        }
        continue;
      }
      reading = true;
      CallPtr woken;
      do {
        if (!outbuf.empty() && !stream->HasBufferedFrame()) FlushLocked(lock);
        lock->unlock();
        // Wake the last reply's owner without holding the mutex it
        // takes first.
        if (woken != nullptr) woken->cv.notify_one();
        Result<std::string> frame = stream->RecvFrame();
        lock->lock();
        if (frame.ok()) {
          woken = DeliverLocked(std::move(*frame));
        } else {
          woken = nullptr;
          BreakLocked(frame.status());
        }
        // Replies already read from the socket are handed out before
        // the role passes on.
      } while (!Quiet() && (!ready() || stream->HasBufferedFrame()));
      if (woken != nullptr) woken->cv.notify_one();
      reading = false;
      // Pass the reader role to a caller still blocked on a reply, or
      // else to one blocked before sending.
      PendingCall::State* next =
          plain != nullptr && plain->awaited ? plain.get() : nullptr;
      for (auto it = tagged.begin(); next == nullptr && it != tagged.end();
           ++it) {
        if (it->second->awaited) next = it->second.get();
      }
      if (next != nullptr) {
        next->cv.notify_one();
      } else if (send_waiters > 0) {
        send_cv.notify_all();
      }
    }
  }

  std::mutex mu;  // guards everything below; the I/O runs unlocked
  const std::unique_ptr<FrameStream> stream;
  bool broken = false;
  Status error;
  // An untagged call is alone on the wire: its reply carries no id,
  // and the server may answer a tagged request before an earlier
  // untagged one.
  CallPtr plain;
  std::unordered_map<uint64_t, CallPtr> tagged;
  uint64_t next_id = 1;
  uint32_t send_waiters = 0;        // callers blocked before sending
  std::condition_variable send_cv;  // a send may go, or a read is due
  std::string outbuf;  // framed requests not yet handed to the socket
  bool sending = false;
  bool reading = false;
};

Result<std::string> RemoteHam::PendingCall::State::Await() {
  if (conn == nullptr) return status;
  std::unique_lock<std::mutex> lock(conn->mu);
  awaited = true;
  conn->Await(&lock, &cv, [this] { return done; });
  if (!status.ok()) return status;
  return std::move(reply);
}

Result<std::string> RemoteHam::PendingCall::Wait() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("PendingCall already waited on");
  }
  auto state = std::move(state_);
  NEPTUNE_ASSIGN_OR_RETURN(std::string raw, state->Await());
  std::string_view in = raw;
  Status status;
  if (!DecodeStatusFrom(&in, &status)) {
    return Status::Corruption("malformed reply status");
  }
  NEPTUNE_RETURN_IF_ERROR(status);
  return std::string(in);
}

RemoteHam::RemoteHam(std::string host, uint16_t port, const Options& options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      time_(options.time_source != nullptr ? options.time_source
                                           : RealTimeSource()),
      rng_(options.retry_seed != 0
               ? options.retry_seed
               : static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this))) {}

RemoteHam::~RemoteHam() {
  // A PendingCall that outlives its client reads this failure.
  if (conn_ != nullptr) {
    std::lock_guard<std::mutex> lock(conn_->mu);
    conn_->BreakLocked(Status::NetworkError("client closed"));
  }
}

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

Result<std::shared_ptr<RemoteHam::Conn>> RemoteHam::Connection() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (conn_ != nullptr) {
    std::lock_guard<std::mutex> conn_lock(conn_->mu);
    if (!conn_->broken) return conn_;
  }
  Result<std::unique_ptr<FrameStream>> stream =
      options_.stream_factory
          ? options_.stream_factory(host_, port_, options_.connect_timeout_ms)
          : FrameStream::Connect(host_, port_, options_.connect_timeout_ms);
  NEPTUNE_RETURN_IF_ERROR(stream.status());
  NEPTUNE_RETURN_IF_ERROR((*stream)->SetTimeouts(options_.send_timeout_ms,
                                                 options_.recv_timeout_ms));
  if (conn_ != nullptr) NEPTUNE_METRIC_COUNT("rpc.client.reconnects", 1);
  conn_ = std::make_shared<Conn>(std::move(*stream));
  return conn_;
}

Result<std::shared_ptr<RemoteHam::PendingCall::State>> RemoteHam::Start(
    Method method, std::string_view args, bool* sent) {
  *sent = false;
  NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<Conn> conn, Connection());
  const size_t max_inflight = std::max<uint32_t>(options_.max_inflight, 1);
  std::unique_lock<std::mutex> lock(conn->mu);
  const auto may_send = [&] {
    return conn->broken || (conn->plain == nullptr &&
                            conn->tagged.size() < max_inflight);
  };
  // A caller that has to wait has seen its calls overlap: it sends
  // tagged, and so does every caller that finds another call in flight
  // or waiting. Only a call alone on the connection goes out plain.
  const bool waited = !may_send();
  if (waited) {
    ++conn->send_waiters;
    conn->Await(&lock, &conn->send_cv, may_send);
    --conn->send_waiters;
  }
  if (conn->broken) return conn->error;
  const bool quiet = conn->Quiet();
  const bool tag = waited || !quiet || conn->send_waiters > 0;

  uint64_t id = 0;
  if (tag) {
    const uint64_t override_id =
        next_id_override_.exchange(0, std::memory_order_relaxed);
    if (override_id != 0) conn->next_id = override_id;
    do {
      id = conn->next_id++;
      if (conn->next_id == 0) conn->next_id = 1;  // ids wrap, skipping 0
    } while (id == 0 || conn->tagged.count(id) != 0);
  }
  const std::string header = RequestHeader(method, id);
  const size_t size = header.size() + args.size();
  if (size > conn->stream->max_frame_bytes()) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(size) +
        " bytes exceeds limit of " +
        std::to_string(conn->stream->max_frame_bytes()));
  }
  auto call = std::make_shared<PendingCall::State>(conn);
  if (tag) {
    conn->tagged.emplace(id, call);
  } else {
    conn->plain = call;
  }
  AppendFrame(header, args, &conn->outbuf);
  *sent = true;
  // A call alone on the connection goes out now. Others ride the next
  // send, at the latest when a caller next blocks on the connection,
  // so a window of async calls costs one send(). A send failure breaks
  // the connection, failing this call with it.
  if (quiet) conn->FlushLocked(&lock);
  return call;
}

Result<std::string> RemoteHam::Call(Method method, std::string_view args) {
  // The client half of the request's trace: the server parents its
  // spans under this one via the propagated context, so the gap
  // between this span and the server's is wire + queueing time.
  ScopedSpan span(ClientSpanNameId(method));
  for (uint32_t attempt = 0;; ++attempt) {
    // `sent` distinguishes "the pipe broke before the request left"
    // (always safe to retry) from "the request may have executed"
    // (safe only for idempotent methods).
    bool sent = false;
    Result<std::string> raw = [&]() -> Result<std::string> {
      NEPTUNE_ASSIGN_OR_RETURN(std::shared_ptr<PendingCall::State> call,
                               Start(method, args, &sent));
      return call->Await();
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
  bool sent = false;
  Result<std::shared_ptr<PendingCall::State>> started =
      Start(method, args, &sent);
  if (started.ok()) {
    call.state_ = std::move(*started);
  } else {
    call.state_ = std::make_shared<PendingCall::State>(nullptr);
    call.state_->Fulfill(started.status(), "");
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
