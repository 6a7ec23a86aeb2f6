// The Neptune HAM server: accepts TCP connections on localhost and
// serves the wire protocol against a HamInterface (normally the local
// ham::Ham engine).
//
// The server runs each request to completion on one thread: a pool of
// `worker_threads` threads shares one one-shot poller (epoll on Linux,
// poll elsewhere — rpc/poller.h), and the thread woken for a
// connection reads it, decodes the frames, executes the requests
// against the HAM, writes the replies and re-arms the connection.
// There is no hand-off between an IO thread and a worker.
//
// A read only decodes: every request, plain or tagged, joins the
// connection's queue in arrival order, and one loop runs it. Each
// reply is written as soon as its request finishes, so no reply waits
// for another request; replies share a send() only when they finish
// while another thread's send() to the connection is in progress.
// Plain requests run one at a time, in order, and the connection is
// not read again until they are all answered; that keeps the
// historical in-order contract. Requests carrying the kRequestIdFlag
// extension may complete out of order — that is how a pipelined
// client keeps N requests in flight on one connection — so any thread
// serving the connection may start one, and a thread re-arms the
// connection before its first: for reading, and for writability while
// another request may start, which wakes an idle thread to take it. A
// slow request never blocks the next read nor the tagged requests read
// with it. Sessions opened by a connection are closed automatically
// when it disconnects — a crashed client aborts its open transaction,
// which the HAM recovers from completely.

#ifndef NEPTUNE_RPC_SERVER_H_
#define NEPTUNE_RPC_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/trace.h"
#include "ham/ham_interface.h"
#include "rpc/dispatch.h"
#include "rpc/poller.h"
#include "rpc/socket.h"

namespace neptune {
namespace rpc {

class Server {
 public:
  // Self-protection knobs; the defaults keep a lightly loaded server
  // indistinguishable from the pre-limit behavior.
  struct Options {
    // Largest request/reply payload accepted on a connection; a
    // hostile length prefix beyond this is rejected without allocating
    // (see FrameDecoder::set_limits). Clamped to kMaxFrameBytes.
    uint32_t max_frame_bytes = kMaxFrameBytes;
    // Bytes buffered per connection for an incomplete inbound frame.
    // 0 derives max_frame_bytes + 64KiB of slack.
    size_t max_conn_buffered_bytes = 0;
    // Load shedding: above `shed_inflight_requests` concurrently
    // handled requests, non-transactional reads are refused with
    // kUnavailable plus a retry-after-ms hint; above
    // `max_inflight_requests` everything except abort/commit/close/
    // ping/stats is refused (those reduce load or are needed to see
    // what is happening). Requests read and not yet answered count,
    // and, while every thread is busy, so does each connection whose
    // request still waits unread in its socket buffer.
    int max_inflight_requests = 256;
    int shed_inflight_requests = 192;
    uint32_t retry_after_ms = 50;
    // Connections silent for longer than this are reaped — their
    // sessions closed (aborting any open transaction) and the socket
    // dropped. 0 disables reaping.
    int idle_timeout_ms = 0;
    // Threads serving connections (accept, read, execute, reply).
    // Values < 1 are clamped to 1.
    int worker_threads = 4;
    // On Stop(), how long to keep flushing replies to peers that have
    // stopped reading before force-closing them. In-flight requests
    // are always run to completion regardless.
    int drain_timeout_ms = 5000;
    // Clock used for the idle reaper, drain deadline, and activity
    // stamps. nullptr = the process-wide real clock.
    TimeSource* time_source = nullptr;
  };

  explicit Server(ham::HamInterface* ham) : Server(ham, Options()) {}
  Server(ham::HamInterface* ham, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds 127.0.0.1:`port` (0 = pick a free port) and starts serving.
  // Returns the bound port.
  Result<uint16_t> Start(uint16_t port);

  // Stops accepting, drains in-flight requests (their replies are
  // flushed, bounded by drain_timeout_ms for unresponsive peers),
  // disconnects all clients, joins all threads.
  void Stop();

  uint16_t port() const { return port_; }

 private:
  struct Conn;
  struct Request;  // one decoded request

  void ThreadMain();
  void AcceptReady();
  // Handles one readiness event for `conn` on the calling thread.
  void ServeConn(const std::shared_ptr<Conn>& conn, const Poller::Event& ev);
  // Under conn->mu: reads and decodes what the socket holds and queues
  // every request it carries, in arrival order. Runs none of them.
  void ReadConn(Conn* conn);
  // The one loop that runs requests: takes the connection's queued
  // requests one at a time while one may start, and writes each reply
  // as soon as its request returns. Called and returns with `lock`
  // held.
  void RunPending(const std::shared_ptr<Conn>& conn,
                  std::unique_lock<std::mutex>* lock);
  // Runs one request and returns its framed reply; empty if the reply
  // is too large to frame (the connection must die).
  std::string Execute(Conn* conn, Request* request);
  // The admission-control load: requests read and not yet answered,
  // plus, while every thread is busy, the connections with unread
  // bytes.
  int Load();
  void ReapIdleConns();
  std::vector<std::shared_ptr<Conn>> SnapshotConns();

  // Every arming and teardown decision goes through Settle: under
  // conn->mu it arms the connection for the interest its state implies
  // and tears it down once it is closing with nothing in flight and
  // nothing left to write. Releases `lock`.
  void Settle(const std::shared_ptr<Conn>& conn,
              std::unique_lock<std::mutex>* lock);
  void Teardown(const std::shared_ptr<Conn>& conn);

  int64_t Now() const;

  ham::HamInterface* ham_;
  Options options_;
  // Decode/execute/encode lives in RequestDispatcher (rpc/dispatch.h),
  // shared with the simulation harness.
  RequestDispatcher dispatcher_;
  TimeSource* time_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<Poller> poller_;
  // Every connection, level-triggered and never waited on: a
  // zero-timeout Wait() counts the ones holding unread bytes.
  std::unique_ptr<Poller> backlog_;
  uint16_t port_ = 0;
  // Level-triggered: once written, wakes every thread to exit.
  int quit_r_ = -1;
  int quit_w_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<int> inflight_{0};
  std::atomic<int> busy_threads_{0};
  std::atomic<int> waiting_{0};  // last backlog_ count
  std::atomic<int64_t> next_backlog_us_{0};
  std::atomic<int64_t> next_reap_us_{0};

  std::mutex conns_mu_;
  std::condition_variable conns_cv_;  // signalled as connections go
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> threads_;
};

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_RPC_SERVER_H_
