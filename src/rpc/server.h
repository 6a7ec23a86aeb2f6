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
// One-shot arming is what keeps the wire contract. A connection that
// delivered a plain request stays disarmed until its reply is written,
// so plain requests are answered one at a time, in order. Requests
// carrying the kRequestIdFlag extension may complete out of order —
// that is how a pipelined client keeps N requests in flight on one
// connection — so they go on a per-connection pending list, and the
// connection is re-armed before each one runs: for reading, and for
// writability while more are pending, which wakes an idle thread to
// take the next. A slow tagged request never blocks the next read nor
// the tagged requests read with it. A thread sends the replies it
// produced together, but never holds them while it runs a request
// that may wait on another client. Sessions opened by a
// connection are closed automatically when it disconnects — a crashed
// client aborts its open transaction, which the HAM recovers from
// completely.

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
  struct Batch;    // replies one thread holds for a connection

  void ThreadMain();
  void AcceptReady();
  // Handles one readiness event for `conn` on the calling thread.
  void ServeConn(const std::shared_ptr<Conn>& conn, const Poller::Event& ev);
  // Reads and decodes what the socket holds, queues the tagged requests
  // on the connection and runs the plain ones in order. Called with
  // reader_busy set and `lock` released; returns with `lock` held.
  void ReadConn(const std::shared_ptr<Conn>& conn,
                std::unique_lock<std::mutex>* lock);
  // Runs the connection's pending tagged requests one at a time.
  // Called and returns with `lock` held.
  void RunPending(const std::shared_ptr<Conn>& conn,
                  std::unique_lock<std::mutex>* lock);
  // Runs one request into `batch`, first delivering the replies the
  // batch holds if this request may wait on another client. Called and
  // returns with `lock` released.
  void Run(Conn* conn, std::unique_lock<std::mutex>* lock, Request* request,
           Batch* batch);
  // Under conn->mu: queues the batch's replies (or breaks the
  // connection when one could not be framed), writes what the socket
  // takes and empties the batch.
  void Deliver(Conn* conn, Batch* batch);
  // Runs one request and appends its framed reply to `out`; false if
  // the reply is too large to frame (the connection must die).
  bool Execute(Conn* conn, Request* request, std::string* out);
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
