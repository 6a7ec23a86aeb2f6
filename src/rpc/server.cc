#include "rpc/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <utility>

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
// decoded requests not yet started (on their connection's queue),
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

  // Refused envelopes are answered plain.
  bool tagged() const { return rejected.empty() && envelope.tagged; }
};

// One connection; everything below the mutex is guarded by it. It is
// read under the mutex too, so one read at a time decodes and queues.
struct Server::Conn {
  explicit Conn(int fd) : fd(fd) {}
  ~Conn() { ::close(fd); }

  const int fd;
  SessionSet sessions;
  std::atomic<int64_t> last_active_us{0};

  std::mutex mu;
  FrameDecoder decoder;
  std::string outbuf;  // framed reply bytes not yet written
  size_t out_off = 0;  // bytes of outbuf already written
  bool flushing = false;  // a thread is writing, with the mutex released
  int inflight = 0;    // requests read and not yet answered
  // Plain requests read and not yet answered: the connection is not
  // read while there are any, and they run one at a time.
  int plain = 0;
  bool plain_running = false;
  bool closing = false;  // no further reads: EOF, protocol error, reap, Stop
  bool broken = false;   // the peer cannot be written to; replies are dropped
  bool torn_down = false;
  // Requests read and not yet started, in arrival order. Any thread
  // serving the connection takes the next one it may start, so a
  // request that blocks never holds up the tagged ones read with it.
  std::deque<Request> pending;

  // The first queued request that may start now: a tagged one, or the
  // oldest plain one while no plain request runs.
  std::deque<Request>::iterator NextLocked() {
    return std::find_if(pending.begin(), pending.end(), [&](const Request& r) {
      return r.tagged() || !plain_running;
    });
  }

  bool Unflushed() const { return out_off < outbuf.size(); }

  void AppendLocked(std::string_view frames) {
    if (broken) return;
    outbuf.append(frames);
    OutbufBytesGauge()->Add(static_cast<int64_t>(frames.size()));
  }

  // Writes outbuf until it is empty or the socket is full; the rest
  // waits for writability. One thread writes at a time, with `lock`
  // released, so replies that finish meanwhile leave with its next
  // send(). A hard error breaks the connection.
  void Flush(std::unique_lock<std::mutex>* lock) {
    if (flushing) return;
    flushing = true;
    while (Unflushed() && !broken) {
      std::string bytes = std::move(outbuf);
      outbuf.clear();
      size_t off = std::exchange(out_off, 0);
      const size_t from = off;
      bool full = false;
      lock->unlock();
      while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          full = errno == EAGAIN || errno == EWOULDBLOCK;
          break;
        }
        off += static_cast<size_t>(n);
      }
      lock->lock();
      OutbufBytesGauge()->Add(-static_cast<int64_t>(off - from));
      if (off < bytes.size()) {
        // The rest goes back in front of the replies appended meanwhile.
        bytes.append(outbuf);
        outbuf = std::move(bytes);
        out_off = off;
        // Peer gone mid-write, or broken meanwhile: drop it all.
        if (!full || broken) BreakLocked();
        break;
      }
    }
    flushing = false;
  }

  // Nothing more can be delivered: drop what is buffered, read no more.
  void BreakLocked() {
    broken = closing = true;
    OutbufBytesGauge()->Add(-static_cast<int64_t>(outbuf.size() - out_off));
    outbuf.clear();
    out_off = 0;
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
      if (expired && conn->inflight == 0) {
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
  if (ev.writable) conn->Flush(&lock);
  if ((ev.readable || ev.error) && !conn->closing && conn->plain == 0) {
    ReadConn(conn.get());
  }
  RunPending(conn, &lock);
  Settle(conn, &lock);
}

void Server::ReadConn(Conn* conn) {
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

  // Every request joins the queue in arrival order. Frame extensions
  // (trace context, request id) are parsed by the shared envelope logic
  // in rpc/dispatch.h; a refused envelope leaves its error reply in
  // `rejected`.
  int plain = 0;
  for (std::string& payload : payloads) {
    NEPTUNE_METRIC_COUNT("rpc.bytes_in", payload.size());
    Request& request = conn->pending.emplace_back();
    ParseRequestEnvelope(std::move(payload), &request.envelope,
                         &request.rejected);
    if (!request.tagged()) ++plain;
  }
  int n = static_cast<int>(payloads.size());
  if (!fed.ok()) {
    // Protocol abuse (oversized length prefix, CRC mismatch): a last
    // plain reply tells the peer why before hanging up. Framing may be
    // out of sync, so the connection itself cannot survive.
    NEPTUNE_LOG(Warn) << "event=protocol_error code="
                      << StatusCodeToString(fed.code()) << " detail=\""
                      << fed.message() << "\"";
    conn->pending.emplace_back().rejected = StatusReply(fed);
    ++n;
    ++plain;
    conn->closing = true;
    ::shutdown(conn->fd, SHUT_RD);
  }
  inflight_.fetch_add(n, std::memory_order_relaxed);
  InflightGauge()->Add(n);
  QueueDepthGauge()->Add(n);
  OrderedBacklogGauge()->Add(plain);
  conn->inflight += n;
  conn->plain += plain;
  if (eof) conn->closing = true;
  if (reset) conn->BreakLocked();
}

void Server::RunPending(const std::shared_ptr<Conn>& conn,
                        std::unique_lock<std::mutex>* lock) {
  bool settled = false;
  for (auto next = conn->NextLocked(); next != conn->pending.end();
       next = conn->NextLocked()) {
    Request request = std::move(*next);
    conn->pending.erase(next);
    const bool tagged = request.tagged();
    if (!tagged) conn->plain_running = true;
    if (!settled) {
      // Settle before the first request: the next read, or a queued
      // request this one does not hold up, goes to an idle thread
      // instead of waiting on this one. A thread woken that way settles
      // before its own first request, so once per thread keeps the
      // chain going. Before a lone plain request it arms nothing (the
      // connection is not read while the request is unanswered), so
      // that costs no syscall. Settle cannot tear down here: this
      // request is in flight.
      Settle(conn, lock);
      settled = true;
    } else {
      lock->unlock();
    }
    const std::string reply = Execute(conn.get(), &request);
    lock->lock();
    // The reply leaves as soon as its request is done.
    if (reply.empty()) {
      conn->BreakLocked();
    } else {
      conn->AppendLocked(reply);
    }
    --conn->inflight;
    if (!tagged) {
      --conn->plain;
      conn->plain_running = false;
    }
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    InflightGauge()->Decrement();
    conn->last_active_us.store(Now(), std::memory_order_relaxed);
    conn->Flush(lock);
  }
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

std::string Server::Execute(Conn* conn, Request* request) {
  QueueDepthGauge()->Decrement();
  if (!request->tagged()) OrderedBacklogGauge()->Decrement();
  if (busy_threads_.load(std::memory_order_relaxed) >=
      options_.worker_threads) {
    NEPTUNE_METRIC_COUNT("server.workers.saturated", 1);
  }
  std::string reply = std::move(request->rejected);
  if (reply.empty()) {
    const RequestEnvelope& envelope = request->envelope;
    // Root span for this request's server-side work. It adopts the
    // client's context when one arrived, self-roots otherwise.
    ScopedSpan span(ServerSpanNameId(envelope.method()), envelope.remote_ctx);
    int load;
    {
      NEPTUNE_TRACE_SPAN(admission_span, "rpc.server.admission");
      load = Load();
    }
    bool shed = false;
    reply = dispatcher_.Respond(
        envelope, load,
        {options_.max_inflight_requests, options_.shed_inflight_requests},
        options_.retry_after_ms, &conn->sessions, &shed);
    if (shed && span.active()) {
      span.Annotate("shed=1 inflight=" + std::to_string(load));
    }
  }
  NEPTUNE_METRIC_COUNT("rpc.bytes_out", reply.size());
  if (reply.size() > options_.max_frame_bytes) {
    // Mirrors FrameStream::SendFrame: a reply that cannot be framed
    // kills the connection.
    NEPTUNE_LOG(Warn) << "event=reply_overflow bytes=" << reply.size()
                      << " limit=" << options_.max_frame_bytes;
    return {};
  }
  return FramePayload(reply);
}

void Server::Settle(const std::shared_ptr<Conn>& conn,
                    std::unique_lock<std::mutex>* lock) {
  Conn& c = *conn;
  const bool want_read = !c.closing && c.plain == 0;
  // Write interest is for replies parked on a full socket (bytes
  // appended during a flush leave with the flusher's next send()), and
  // stands in for a queued request that may start: a writable socket
  // wakes an idle thread to run it.
  const bool want_write = (c.Unflushed() && !c.flushing) ||
                          c.NextLocked() != c.pending.end();
  if ((want_read || want_write) &&
      !poller_->Arm(c.fd, want_read, want_write).ok()) {
    c.BreakLocked();
  }
  if (!c.closing || c.torn_down || c.inflight != 0 || c.Unflushed() ||
      c.flushing) {
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
    if (conn->closing || conn->inflight != 0 || conn->Unflushed() ||
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
