// Thin POSIX TCP wrappers used by the Neptune server and client:
// a connected stream that sends/receives whole frames, and a listener.

#ifndef NEPTUNE_RPC_SOCKET_H_
#define NEPTUNE_RPC_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "rpc/wire.h"

namespace neptune {
namespace rpc {

// A connected TCP stream exchanging CRC-framed payloads. The framing
// methods are virtual so the simulation harness can substitute an
// in-memory transport (sim::SimFrameStream) under unmodified clients
// and servers; this base class is the real-socket implementation.
class FrameStream {
 public:
  explicit FrameStream(int fd) : fd_(fd) {}
  virtual ~FrameStream();

  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;

  // Connects to host:port (IPv4 dotted quad or "localhost"). With
  // `connect_timeout_ms` > 0 the attempt fails with kDeadlineExceeded
  // once the budget is spent instead of waiting for the kernel's.
  static Result<std::unique_ptr<FrameStream>> Connect(
      const std::string& host, uint16_t port, int connect_timeout_ms = 0);

  // Arms SO_SNDTIMEO/SO_RCVTIMEO so a send/recv stuck longer than the
  // budget fails with kDeadlineExceeded (0 = block forever). A deadline
  // expiry can strand a partial frame on the wire, so the caller must
  // treat the stream as dead afterwards.
  virtual Status SetTimeouts(int send_timeout_ms, int recv_timeout_ms);

  // Caps the accepted frame size (both directions) and the bytes this
  // stream will buffer for an incomplete inbound frame. 0 keeps the
  // process-wide kMaxFrameBytes default.
  void SetLimits(uint32_t max_frame_bytes, size_t max_buffered_bytes);

  // Sends one framed payload; kInvalidArgument (without sending
  // anything) if the payload exceeds the frame limit.
  virtual Status SendFrame(std::string_view payload);

  // Sends bytes that are already framed (see AppendFrame) — one write
  // path for a batch of frames, so a pipelined burst costs one syscall.
  virtual Status SendBytes(std::string_view bytes);

  uint32_t max_frame_bytes() const { return max_frame_bytes_; }

  // Blocks for the next complete frame. Unavailable("connection
  // closed") on orderly EOF between frames; kDeadlineExceeded when a
  // recv timeout is armed and expires.
  virtual Result<std::string> RecvFrame();

  // True when a frame already read from the socket waits here, so the
  // next RecvFrame returns it without blocking. Streams that override
  // RecvFrame report false.
  bool HasBufferedFrame() const { return pending_off_ < pending_.size(); }

  // Shuts the connection down, unblocking a send/recv in progress on
  // another thread. The fd itself is released by the destructor, which
  // must not run until those threads are done with the stream.
  virtual void Close();

  // Half-close: stops reads (a blocked RecvFrame sees EOF, and the peer
  // eventually notices we stopped consuming) while replies in flight
  // can still be sent. This is how the server drains connections.
  virtual void CloseRead();

 protected:
  // Subclasses (in-memory transports) pass fd = -1; the destructor
  // skips the close() for them.
  const int fd_;
  std::atomic<bool> closed_{false};
  uint32_t max_frame_bytes_ = kMaxFrameBytes;
  FrameDecoder decoder_;
  // Frames decoded by one recv(); RecvFrame hands them out in order
  // from pending_off_ (a pipelined reply burst arrives in one recv).
  std::vector<std::string> pending_;
  size_t pending_off_ = 0;
};

class Listener {
 public:
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds and listens on 127.0.0.1:`port` (0 = ephemeral).
  static Result<std::unique_ptr<Listener>> Bind(uint16_t port);

  uint16_t port() const { return port_; }

  // The listening descriptor, so an event loop can wait for readiness.
  int fd() const { return fd_; }

  // Puts the listening socket in nonblocking mode; AcceptFd() then
  // returns kDeadlineExceeded instead of blocking when no connection
  // is pending.
  Status SetNonblocking();

  // Accepts one connection and returns its raw fd, already nonblocking
  // and TCP_NODELAY. kDeadlineExceeded means "nothing pending right
  // now (or transient resource exhaustion) — wait for readiness and
  // try again"; NetworkError after Shutdown(). The caller owns the fd.
  Result<int> AcceptFd();

  // Blocks for the next connection; NetworkError after Shutdown().
  Result<std::unique_ptr<FrameStream>> Accept();

  // Unblocks Accept(); the socket is closed by the destructor, which
  // must not run until the accepting thread is done.
  void Shutdown();

 private:
  Listener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  const int fd_;
  std::atomic<bool> shut_down_{false};
  uint16_t port_;
};

}  // namespace rpc
}  // namespace neptune

#endif  // NEPTUNE_RPC_SOCKET_H_
