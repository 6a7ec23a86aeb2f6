#include "rpc/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "common/coding.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "obs/preregister.h"

namespace neptune {
namespace rpc {

namespace {

using ham::Context;

// Per-method server span names ("rpc.server.openNode"), pre-interned
// so the per-request path never takes the tracer lock.
uint32_t ServerSpanNameId(Method method) {
  static const auto* names = PerMethod<uint32_t>([](const std::string& name) {
    return Tracer::Instance().InternName("rpc.server." + name);
  });
  return (*names)[static_cast<uint8_t>(method)];
}

// Server health gauges (see docs/OBSERVABILITY.md): queue depth is
// decoded requests not yet started (plain ones behind the one running
// in their read, tagged ones on their connection's pending list),
// ordered backlog the plain ones among them, outbuf bytes framed
// replies not yet written to any socket.
Gauge* QueueDepthGauge() {
  static Gauge* g = MetricsRegistry::Instance().GetGauge("server.queue.depth");
  return g;
}

Gauge* OrderedBacklogGauge() {
  static Gauge* g =
      MetricsRegistry::Instance().GetGauge("server.ordered_backlog");
  return g;
}

Gauge* OutbufBytesGauge() {
  static Gauge* g =
      MetricsRegistry::Instance().GetGauge("server.outbuf_bytes");
  return g;
}

Gauge* InflightGauge() {
  static Gauge* g = MetricsRegistry::Instance().GetGauge("server.inflight");
  return g;
}

}  // namespace

struct Server::Request {
  RequestEnvelope envelope;
  std::string rejected;  // the error reply when the envelope was refused

  // Whether running this may wait on another client (rpc/methods.h).
  bool MayWaitOnAnotherClient() const {
    if (!rejected.empty()) return false;
    const std::string_view payload =
        std::string_view(envelope.payload).substr(envelope.offset);
    return !payload.empty() &&
           rpc::MayWaitOnAnotherClient(
               static_cast<Method>(static_cast<uint8_t>(payload.front())));
  }
};

// Replies one thread produced for one connection and has not yet
// handed to it.
struct Server::Batch {
  std::string out;
  int answered = 0;
  bool ok = true;  // false: a reply could not be framed
};

// One connection. The thread that set `reader_busy` owns the decoder;
// everything below the mutex is guarded by it.
struct Server::Conn {
  explicit Conn(int fd) : fd(fd) {}
  ~Conn() { ::close(fd); }

  const int fd;
  FrameDecoder decoder;
  SessionSet sessions;
  std::atomic<int64_t> last_active_us{0};

  std::mutex mu;
  std::string outbuf;  // framed reply bytes not yet written
  size_t out_off = 0;  // bytes of outbuf already written
  int inflight = 0;    // requests read and not yet answered
  // A thread is reading this connection, or running the plain requests
  // it read: no other read may start.
  bool reader_busy = false;
  bool closing = false;  // no further reads: EOF, protocol error, reap, Stop
  bool broken = false;   // the peer cannot be written to; replies are dropped
  bool torn_down = false;
  // Tagged requests read and not yet started. Any thread serving the
  // connection takes the next one, so a tagged request that blocks
  // never holds up the others read with it.
  std::deque<Request> pending;

  bool Unflushed() const { return out_off < outbuf.size(); }

  void AppendLocked(std::string_view frames) {
    if (broken) return;
    outbuf.append(frames);
    OutbufBytesGauge()->Add(static_cast<int64_t>(frames.size()));
  }

  // Writes as much of outbuf as the socket takes; the rest waits for
  // writability. A hard error breaks the connection.
  void FlushLocked() {
    const size_t before = outbuf.size() - out_off;
    while (Unflushed() && !broken) {
      const ssize_t n = ::send(fd, outbuf.data() + out_off,
                               outbuf.size() - out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        broken = closing = true;  // peer gone mid-write
        break;
      }
      out_off += static_cast<size_t>(n);
    }
    if (broken || !Unflushed()) {
      outbuf.clear();
      out_off = 0;
    }
    OutbufBytesGauge()->Add(static_cast<int64_t>(outbuf.size() - out_off) -
                            static_cast<int64_t>(before));
  }

  // Nothing more can be delivered: drop what is buffered, read no more.
  void BreakLocked() {
    broken = closing = true;
    FlushLocked();
  }
};

Server::Server(ham::HamInterface* ham, Options options)
    : ham_(ham), options_(options), dispatcher_(ham) {
  options_.worker_threads = std::max(1, options_.worker_threads);
  time_ = options_.time_source != nullptr ? options_.time_source
                                          : RealTimeSource();
}

Server::~Server() {
  Stop();
  if (quit_r_ >= 0) ::close(quit_r_);
  if (quit_w_ >= 0) ::close(quit_w_);
}

int64_t Server::Now() const { return static_cast<int64_t>(time_->NowMicros()); }

Result<uint16_t> Server::Start(uint16_t port) {
  // Pre-register the full server-plane taxonomy so stats and /metrics
  // show every row at zero before its first bump.
  obs::PreregisterServerMetrics();
  NEPTUNE_ASSIGN_OR_RETURN(listener_, Listener::Bind(port));
  NEPTUNE_RETURN_IF_ERROR(listener_->SetNonblocking());
  port_ = listener_->port();

  NEPTUNE_ASSIGN_OR_RETURN(poller_, Poller::Create());
  NEPTUNE_ASSIGN_OR_RETURN(backlog_, Poller::Create());
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    return Status::NetworkError(std::string("pipe: ") + std::strerror(errno));
  }
  quit_r_ = pipefd[0];
  quit_w_ = pipefd[1];
  NEPTUNE_RETURN_IF_ERROR(poller_->Add(quit_r_, false));
  NEPTUNE_RETURN_IF_ERROR(poller_->Arm(listener_->fd(), true, false));
  if (options_.idle_timeout_ms > 0) {
    next_reap_us_.store(Now() +
                        static_cast<int64_t>(options_.idle_timeout_ms) * 500);
  }
  for (int i = 0; i < options_.worker_threads; ++i) {
    threads_.emplace_back([this] { ThreadMain(); });
  }
  NEPTUNE_LOG(Info) << "event=listening addr=127.0.0.1:" << port_
                    << " poller=" << poller_->name()
                    << " threads=" << options_.worker_threads;
  return port_;
}

std::vector<std::shared_ptr<Server::Conn>> Server::SnapshotConns() {
  std::vector<std::shared_ptr<Conn>> conns;
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) conns.push_back(conn);
  return conns;
}

void Server::Stop() {
  if (stopping_.exchange(true) || threads_.empty()) return;
  NEPTUNE_METRIC_COUNT("rpc.server.drains", 1);
  const int64_t deadline_us =
      Now() + static_cast<int64_t>(options_.drain_timeout_ms) * 1000;
  poller_->Remove(listener_->fd());
  listener_->Shutdown();
  // Half-close every connection: no request can arrive anymore, but
  // replies for requests already read still go out, written by the
  // threads running them. Peers that stopped reading do not get to
  // hold Stop() hostage past the drain budget; requests in flight
  // still run to completion.
  for (;;) {
    const bool expired = Now() > deadline_us;
    for (auto& conn : SnapshotConns()) {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (conn->torn_down) continue;
      if (!conn->closing) {
        conn->closing = true;
        ::shutdown(conn->fd, SHUT_RD);
      }
      if (expired && conn->inflight == 0 && !conn->reader_busy) {
        conn->BreakLocked();
      }
      Settle(conn, &lock);
    }
    std::unique_lock<std::mutex> lock(conns_mu_);
    if (conns_.empty()) break;
    conns_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
  char b = 1;
  ssize_t ignored = ::write(quit_w_, &b, 1);  // level-triggered: wakes all
  (void)ignored;
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void Server::ThreadMain() {
  // Loop lag: time a thread spends away from the ready set per wake-up
  // — running requests included, since the thread that reads a request
  // also executes it. Recorded per thread into one shared family.
  static Histogram* loop_lag =
      MetricsRegistry::Instance().GetHistogram("server.loop.lag_us");
  const int timeout_ms =
      options_.idle_timeout_ms > 0
          ? std::clamp(options_.idle_timeout_ms / 2, 10, 500)
          : -1;
  std::vector<Poller::Event> events;
  for (;;) {
    // One event per wake-up: the next ready connection goes to the
    // next idle thread instead of queueing behind this one.
    auto waited = poller_->Wait(timeout_ms, &events, 1);
    const int64_t woke_us = Now();
    busy_threads_.fetch_add(1, std::memory_order_relaxed);
    if (!waited.ok()) {
      NEPTUNE_LOG(Warn) << "event=poller_error detail=\""
                        << waited.status().message() << "\"";
      ::poll(nullptr, 0, 10);
    }
    for (const Poller::Event& ev : events) {
      if (ev.fd == quit_r_) {
        busy_threads_.fetch_sub(1, std::memory_order_relaxed);
        return;
      }
      if (ev.fd == listener_->fd()) {
        AcceptReady();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = conns_.find(ev.fd);
        if (it != conns_.end()) conn = it->second;
      }
      if (conn != nullptr) ServeConn(conn, ev);
    }
    if (options_.idle_timeout_ms > 0) ReapIdleConns();
    busy_threads_.fetch_sub(1, std::memory_order_relaxed);
    const int64_t busy = Now() - woke_us;
    if (busy >= 0) loop_lag->Record(static_cast<uint64_t>(busy));
  }
}

void Server::AcceptReady() {
  static Gauge* active =
      MetricsRegistry::Instance().GetGauge("rpc.connections.active");
  const size_t buffered =
      options_.max_conn_buffered_bytes > 0
          ? options_.max_conn_buffered_bytes
          : static_cast<size_t>(options_.max_frame_bytes) + (64u << 10);
  for (;;) {
    auto accepted = listener_->AcceptFd();
    if (!accepted.ok()) break;  // would-block, exhaustion backoff, or stop
    auto conn = std::make_shared<Conn>(*accepted);
    conn->decoder.set_limits(options_.max_frame_bytes, buffered);
    conn->last_active_us.store(Now(), std::memory_order_relaxed);
    NEPTUNE_METRIC_COUNT("rpc.connections.accepted", 1);
    active->Increment();
    backlog_->Add(conn->fd, false);
    std::unique_lock<std::mutex> lock(conn->mu);
    {
      std::lock_guard<std::mutex> map_lock(conns_mu_);
      conns_[conn->fd] = conn;
    }
    Settle(conn, &lock);
  }
  if (!stopping_.load(std::memory_order_acquire)) {
    poller_->Arm(listener_->fd(), true, false);
  }
}

void Server::ServeConn(const std::shared_ptr<Conn>& conn,
                       const Poller::Event& ev) {
  std::unique_lock<std::mutex> lock(conn->mu);
  if (conn->torn_down) return;
  if (ev.writable) conn->FlushLocked();
  if ((ev.readable || ev.error) && !conn->reader_busy && !conn->closing) {
    conn->reader_busy = true;
    lock.unlock();
    ReadConn(conn, &lock);
  }
  RunPending(conn, &lock);
  Settle(conn, &lock);
}

void Server::ReadConn(const std::shared_ptr<Conn>& conn,
                      std::unique_lock<std::mutex>* lock) {
  // Read what the socket holds, bounded per wake-up for fairness.
  std::vector<std::string> payloads;
  Status fed;
  bool eof = false;
  bool reset = false;
  char buf[1 << 16];
  size_t budget = 256u << 10;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Hard transport error (ECONNRESET and friends): the peer is
      // gone, nothing we buffered can be delivered.
      reset = errno != EAGAIN && errno != EWOULDBLOCK;
      break;
    }
    if (n == 0) {
      // EOF (peer closed, or the drain half-close): no further
      // requests; what was read still runs and is answered.
      eof = true;
      break;
    }
    conn->last_active_us.store(Now(), std::memory_order_relaxed);
    fed = conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)),
                             &payloads);
    // A short read emptied the socket; re-arming reports anything that
    // arrived since, so the second, empty recv() is skipped.
    if (!fed.ok() || static_cast<size_t>(n) < sizeof(buf) ||
        budget <= static_cast<size_t>(n)) {
      break;
    }
    budget -= static_cast<size_t>(n);
  }

  // Frame extensions (trace context, request id) are parsed by the
  // shared envelope logic in rpc/dispatch.h. Plain requests (and
  // refused envelopes, whose error replies are plain) run in order on
  // this thread; tagged ones join the connection's pending list.
  std::vector<Request> in_order;
  std::vector<Request> tagged;
  for (std::string& payload : payloads) {
    NEPTUNE_METRIC_COUNT("rpc.bytes_in", payload.size());
    Request request;
    // A refused envelope leaves its error reply in `rejected`.
    ParseRequestEnvelope(std::move(payload), &request.envelope,
                         &request.rejected);
    const bool plain = !request.rejected.empty() || !request.envelope.tagged;
    (plain ? in_order : tagged).push_back(std::move(request));
  }
  const int n = static_cast<int>(payloads.size());
  const int plain = static_cast<int>(in_order.size());
  inflight_.fetch_add(n, std::memory_order_relaxed);
  InflightGauge()->Add(n);
  QueueDepthGauge()->Add(n);
  OrderedBacklogGauge()->Add(plain);

  lock->lock();
  if (eof) conn->closing = true;
  if (reset) conn->BreakLocked();
  if (!fed.ok()) {
    conn->closing = true;
    ::shutdown(conn->fd, SHUT_RD);
  }
  conn->inflight += n;
  for (Request& request : tagged) conn->pending.push_back(std::move(request));
  if (plain == 0 && fed.ok()) {
    conn->reader_busy = false;
    return;
  }
  // Plain requests (and a protocol-error reply) keep the in-order
  // contract: the connection stays unreadable until their replies are
  // written. Settle still arms it for the pending tagged requests, so
  // an idle thread can run those meanwhile.
  Settle(conn, lock);
  Batch batch;
  for (Request& request : in_order) Run(conn.get(), lock, &request, &batch);
  if (!fed.ok()) {
    // Protocol abuse (oversized length prefix, CRC mismatch): tell the
    // peer why before hanging up. Framing may be out of sync, so the
    // connection itself cannot survive.
    NEPTUNE_LOG(Warn) << "event=protocol_error code="
                      << StatusCodeToString(fed.code()) << " detail=\""
                      << fed.message() << "\"";
    batch.out += FramePayload(StatusReply(fed));
  }
  lock->lock();
  Deliver(conn.get(), &batch);
  conn->reader_busy = false;
}

void Server::RunPending(const std::shared_ptr<Conn>& conn,
                        std::unique_lock<std::mutex>* lock) {
  Batch batch;
  bool armed = false;
  while (!conn->pending.empty()) {
    Request request = std::move(conn->pending.front());
    conn->pending.pop_front();
    if (!armed) {
      // Re-arm before running the first one: the next read, or the
      // next pending request, goes to an idle thread instead of
      // waiting on this one. A thread woken that way arms again before
      // its own first request, so one arm per thread keeps the chain
      // going. Settle cannot tear down here: this request is in flight.
      Settle(conn, lock);
      armed = true;
    } else {
      lock->unlock();
    }
    Run(conn.get(), lock, &request, &batch);
    lock->lock();
  }
  if (batch.answered != 0) Deliver(conn.get(), &batch);
}

void Server::Run(Conn* conn, std::unique_lock<std::mutex>* lock,
                 Request* request, Batch* batch) {
  // Replies this thread holds go out with the next one, one send for
  // several, unless this request may wait on another client: that
  // client may be waiting for one of them.
  if (batch->answered != 0 && request->MayWaitOnAnotherClient()) {
    lock->lock();
    Deliver(conn, batch);
    lock->unlock();
  }
  if (!Execute(conn, request, &batch->out)) batch->ok = false;
  ++batch->answered;
}

void Server::Deliver(Conn* conn, Batch* batch) {
  if (batch->ok) {
    conn->AppendLocked(batch->out);
  } else {
    conn->BreakLocked();
  }
  conn->inflight -= batch->answered;
  inflight_.fetch_sub(batch->answered, std::memory_order_relaxed);
  InflightGauge()->Add(-batch->answered);
  conn->last_active_us.store(Now(), std::memory_order_relaxed);
  conn->FlushLocked();
  *batch = Batch();
}

int Server::Load() {
  const int inflight = inflight_.load(std::memory_order_relaxed);
  // While a thread is idle it picks a ready connection up at once, so
  // nothing waits unread.
  if (busy_threads_.load(std::memory_order_relaxed) <
      options_.worker_threads) {
    return inflight;
  }
  // Every thread is busy: requests queue in kernel socket buffers.
  // Count the connections holding unread bytes (one request each, at
  // least), sampled at most once a millisecond.
  const int64_t now = Now();
  int64_t due = next_backlog_us_.load(std::memory_order_relaxed);
  if (now >= due && next_backlog_us_.compare_exchange_strong(due, now + 1000)) {
    std::vector<Poller::Event> ready;
    auto sampled = backlog_->Wait(
        0, &ready,
        std::max(options_.max_inflight_requests,
                 options_.shed_inflight_requests) + 1);
    waiting_.store(sampled.ok() ? *sampled : 0, std::memory_order_relaxed);
  }
  return inflight + waiting_.load(std::memory_order_relaxed);
}

bool Server::Execute(Conn* conn, Request* request, std::string* out) {
  QueueDepthGauge()->Decrement();
  const RequestEnvelope& envelope = request->envelope;
  const bool tagged = request->rejected.empty() && envelope.tagged;
  if (!tagged) OrderedBacklogGauge()->Decrement();
  if (busy_threads_.load(std::memory_order_relaxed) >=
      options_.worker_threads) {
    NEPTUNE_METRIC_COUNT("server.workers.saturated", 1);
  }
  std::string reply = std::move(request->rejected);
  if (reply.empty()) {
    const std::string_view payload =
        std::string_view(envelope.payload).substr(envelope.offset);
    const Method method =
        payload.empty()
            ? Method{0}
            : static_cast<Method>(static_cast<uint8_t>(payload.front()));
    // Root span for this request's server-side work. It adopts the
    // client's context when one arrived, self-roots otherwise.
    ScopedSpan span(ServerSpanNameId(method), envelope.remote_ctx);
    const AdmissionOptions admission{options_.max_inflight_requests,
                                     options_.shed_inflight_requests};
    int load;
    bool shed;
    {
      NEPTUNE_TRACE_SPAN(admission_span, "rpc.server.admission");
      load = Load();
      shed = ShouldShed(method, load, admission);
    }
    if (shed) {
      NEPTUNE_METRIC_COUNT("server.shed", 1);
      if (span.active()) {
        span.Annotate("shed=1 inflight=" + std::to_string(load));
      }
      reply = ShedReply(load, options_.retry_after_ms);
    } else {
      reply = dispatcher_.Handle(payload, &conn->sessions);
    }
  }
  // Tagged replies echo the request id ahead of the status so the
  // pipelined client can match them out of order.
  std::string id_prefix;
  if (tagged) PutVarint64(&id_prefix, envelope.request_id);
  const size_t total = id_prefix.size() + reply.size();
  NEPTUNE_METRIC_COUNT("rpc.bytes_out", total);
  if (total > options_.max_frame_bytes) {
    // Mirrors FrameStream::SendFrame: a reply that cannot be framed
    // kills the connection.
    NEPTUNE_LOG(Warn) << "event=reply_overflow bytes=" << total
                      << " limit=" << options_.max_frame_bytes;
    return false;
  }
  AppendFrame(id_prefix, reply, out);
  return true;
}

void Server::Settle(const std::shared_ptr<Conn>& conn,
                    std::unique_lock<std::mutex>* lock) {
  Conn& c = *conn;
  const bool want_read = !c.closing && !c.reader_busy;
  // Write interest also stands in for pending tagged requests: a
  // writable socket wakes an idle thread to run the next one.
  const bool want_write = c.Unflushed() || !c.pending.empty();
  if ((want_read || want_write) &&
      !poller_->Arm(c.fd, want_read, want_write).ok()) {
    c.BreakLocked();
  }
  if (!c.closing || c.torn_down || c.inflight != 0 || c.reader_busy ||
      c.Unflushed()) {
    lock->unlock();
    return;
  }
  c.torn_down = true;
  lock->unlock();
  Teardown(conn);
}

void Server::Teardown(const std::shared_ptr<Conn>& conn) {
  static Gauge* active =
      MetricsRegistry::Instance().GetGauge("rpc.connections.active");
  poller_->Remove(conn->fd);
  backlog_->Remove(conn->fd);
  // Ensure the peer sees FIN promptly even while other references keep
  // the fd alive for a moment.
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn->fd);
  }
  conns_cv_.notify_all();
  active->Decrement();
  // A vanished client releases everything it held (crash recovery for
  // its open transaction happens via CloseGraph's abort path).
  for (uint64_t session : conn->sessions.Drain()) {
    ham_->CloseGraph(Context{session});
  }
}

void Server::ReapIdleConns() {
  const int64_t now = Now();
  int64_t due = next_reap_us_.load(std::memory_order_relaxed);
  const int64_t period_us =
      static_cast<int64_t>(options_.idle_timeout_ms) * 500;
  if (now < due ||
      !next_reap_us_.compare_exchange_strong(due, now + period_us)) {
    return;  // not yet due, or another thread is reaping
  }
  const int64_t cutoff_us =
      now - static_cast<int64_t>(options_.idle_timeout_ms) * 1000;
  for (auto& conn : SnapshotConns()) {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->closing || conn->reader_busy || conn->inflight != 0 ||
        conn->Unflushed() ||
        conn->last_active_us.load(std::memory_order_relaxed) > cutoff_us) {
      continue;
    }
    // The connection sat silent past the idle budget: reap it.
    // Sessions (and any open transaction) are cleaned up exactly as
    // for a disconnect.
    NEPTUNE_METRIC_COUNT("server.connections.reaped", 1);
    NEPTUNE_LOG(Info) << "event=connection_reaped idle_ms="
                      << options_.idle_timeout_ms;
    conn->closing = true;
    Settle(conn, &lock);
  }
}

}  // namespace rpc
}  // namespace neptune
