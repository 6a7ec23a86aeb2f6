// Readiness notification for the RPC event loop: a thin portable
// abstraction over epoll(7) with a poll(2) fallback, in the spirit of
// the nonblocking-socket event loops CAD-era servers were built on.
//
// An fd is registered one of two ways:
// - level-triggered (Add/Update): always watched for readability,
//   writability opted in per fd. The /metrics listener and the
//   server's stop pipe use this.
// - one-shot (Arm): the fd reports at most one event and is then
//   disarmed until the next Arm(). Several threads may Wait() on one
//   poller; one-shot arming guarantees that exactly one of them is
//   handed a given connection, which is what lets the RPC server run
//   each connection on whichever thread woke for it.
//
// The epoll backend is used on Linux; the poll backend everywhere
// else, and on Linux when NEPTUNE_RPC_FORCE_POLL is set in the
// environment (so tests exercise the fallback on any platform).

#ifndef NEPTUNE_RPC_POLLER_H_
#define NEPTUNE_RPC_POLLER_H_

#include <memory>
#include <vector>

#include "common/result.h"

namespace neptune {
namespace rpc {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    // Error/hangup on the fd; the owner should read until failure and
    // tear the connection down.
    bool error = false;
  };

  // Picks the best backend for this platform (see file comment).
  // Fails when the backend cannot be set up (no epoll and no pipe for
  // the poll backend's interrupts).
  static Result<std::unique_ptr<Poller>> Create();

  virtual ~Poller() = default;

  // "epoll" or "poll", for logs and tests.
  virtual const char* name() const = 0;

  // Registers `fd` level-triggered for readability (always) and, when
  // `want_write`, writability. An fd must be added at most once.
  virtual Status Add(int fd, bool want_write) = 0;

  // Changes the writability interest of a level-triggered fd.
  virtual Status Update(int fd, bool want_write) = 0;

  // Arms `fd` one-shot for the given interest, registering it on first
  // use: the next Wait() that sees it ready reports it to one caller
  // and disarms it. Re-arming while data is pending reports it again.
  // At least one interest must be set.
  virtual Status Arm(int fd, bool want_read, bool want_write) = 0;

  // Deregisters the fd. Safe to call for an fd that was never added.
  virtual void Remove(int fd) = 0;

  // Waits up to `timeout_ms` (-1 = forever) and appends at most
  // `max_events` ready fds to `out` (which is cleared first). Returns
  // the number of events; 0 on timeout (or, on the poll backend, on a
  // re-arm that interrupted the wait). EINTR is ridden out internally.
  // Safe to call from several threads at once.
  virtual Result<int> Wait(int timeout_ms, std::vector<Event>* out,
                           int max_events = 128) = 0;
};

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_RPC_POLLER_H_
