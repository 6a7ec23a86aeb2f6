#include "rpc/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace neptune {
namespace rpc {

namespace {

// Classifies an errno so callers can tell "took too long" (retry the
// same stream? no — but the op may be retried) from "the peer is gone"
// (reconnect) from "something else broke".
Status SockError(std::string_view op, int err) {
  const std::string msg = std::string(op) + ": " + std::strerror(err);
  if (err == EAGAIN || err == EWOULDBLOCK) {
    return Status::DeadlineExceeded(msg);
  }
  if (err == ECONNREFUSED || err == ECONNRESET || err == EPIPE ||
      err == ENOTCONN || err == ETIMEDOUT || err == EHOSTUNREACH ||
      err == ENETUNREACH) {
    return Status::Unavailable(msg);
  }
  return Status::NetworkError(msg);
}

}  // namespace

FrameStream::~FrameStream() {
  if (fd_ < 0) return;  // in-memory subclass: nothing to release
  FrameStream::Close();
  ::close(fd_);
}

void FrameStream::Close() {
  // shutdown() (not close()) so another thread blocked in recv/send on
  // this fd wakes up without racing on the descriptor's lifetime.
  if (!closed_.exchange(true) && fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void FrameStream::CloseRead() {
  if (!closed_.load() && fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

Status FrameStream::SetTimeouts(int send_timeout_ms, int recv_timeout_ms) {
  const auto arm = [this](int option, int ms) -> Status {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
    if (::setsockopt(fd_, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
      return SockError("setsockopt", errno);
    }
    return Status::OK();
  };
  NEPTUNE_RETURN_IF_ERROR(arm(SO_SNDTIMEO, send_timeout_ms));
  return arm(SO_RCVTIMEO, recv_timeout_ms);
}

Result<std::unique_ptr<FrameStream>> FrameStream::Connect(
    const std::string& host, uint16_t port, int connect_timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SockError("socket", errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost" || host.empty())
                             ? std::string("127.0.0.1")
                             : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unresolvable host '" + host +
                                   "' (IPv4 literals only)");
  }
  const std::string where = ip + ":" + std::to_string(port);
  // Connect in non-blocking mode and poll for the result: this bounds
  // the wait to connect_timeout_ms and rides out EINTR (a blocking
  // connect interrupted by a signal cannot simply be retried).
  const int fl = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      int err = errno;
      ::close(fd);
      return SockError("connect " + where, err);
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout = connect_timeout_ms > 0 ? connect_timeout_ms : -1;
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) {
      int err = errno;
      ::close(fd);
      return SockError("connect " + where, err);
    }
    if (ready == 0) {
      ::close(fd);
      return Status::DeadlineExceeded("connect " + where + ": timed out after " +
                                      std::to_string(connect_timeout_ms) +
                                      "ms");
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (soerr != 0) {
      ::close(fd);
      return SockError("connect " + where, soerr);
    }
  }
  ::fcntl(fd, F_SETFL, fl);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<FrameStream>(new FrameStream(fd));
}

void FrameStream::SetLimits(uint32_t max_frame_bytes,
                            size_t max_buffered_bytes) {
  if (max_frame_bytes > 0) {
    max_frame_bytes_ = std::min(max_frame_bytes, kMaxFrameBytes);
  }
  decoder_.set_limits(max_frame_bytes, max_buffered_bytes);
}

Status FrameStream::SendFrame(std::string_view payload) {
  if (closed_.load()) return Status::NetworkError("stream is closed");
  // Symmetric with the decode-side limit: refuse before FramePayload
  // copies the oversized payload into a frame buffer.
  if (payload.size() > max_frame_bytes_) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds limit of " + std::to_string(max_frame_bytes_));
  }
  std::string frame = FramePayload(payload);
  return SendBytes(frame);
}

Status FrameStream::SendBytes(std::string_view bytes) {
  if (closed_.load()) return Status::NetworkError("stream is closed");
  std::string_view rest = bytes;
  while (!rest.empty()) {
    ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return SockError("send", errno);
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Result<std::string> FrameStream::RecvFrame() {
  while (pending_off_ == pending_.size()) {
    pending_.clear();
    pending_off_ = 0;
    if (closed_.load()) return Status::NetworkError("stream is closed");
    char buf[1 << 16];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return SockError("recv", errno);
    }
    if (n == 0) return Status::Unavailable("connection closed");
    NEPTUNE_RETURN_IF_ERROR(
        decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)),
                      &pending_));
  }
  return std::move(pending_[pending_off_++]);
}

Listener::~Listener() {
  Shutdown();
  ::close(fd_);
}

Result<std::unique_ptr<Listener>> Listener::Bind(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SockError("socket", errno);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return SockError("bind port " + std::to_string(port), err);
  }
  if (::listen(fd, 64) != 0) {
    int err = errno;
    ::close(fd);
    return SockError("listen", err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    int err = errno;
    ::close(fd);
    return SockError("getsockname", err);
  }
  return std::unique_ptr<Listener>(new Listener(fd, ntohs(addr.sin_port)));
}

Status Listener::SetNonblocking() {
  const int fl = ::fcntl(fd_, F_GETFL, 0);
  if (fl < 0 || ::fcntl(fd_, F_SETFL, fl | O_NONBLOCK) != 0) {
    return SockError("fcntl", errno);
  }
  return Status::OK();
}

Result<int> Listener::AcceptFd() {
  for (;;) {
    if (shut_down_.load()) {
      return Status::NetworkError("listener is shut down");
    }
    int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const int fl = ::fcntl(client, F_GETFL, 0);
      ::fcntl(client, F_SETFL, fl | O_NONBLOCK);
      return client;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("accept: no connection pending");
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Resource exhaustion is transient under a connection flood; back
      // off briefly so a level-triggered readiness loop does not spin,
      // then let it retry.
      ::poll(nullptr, 0, 10);
      return Status::DeadlineExceeded("accept: out of descriptors");
    }
    return SockError("accept", errno);
  }
}

Result<std::unique_ptr<FrameStream>> Listener::Accept() {
  // EINTR/ECONNABORTED handling mirrors the client-side recv/connect
  // loops: both are transient and must never tear down the listener.
  // Resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) is also
  // transient under a connection flood — a misbehaving client that
  // burns every fd must not permanently kill the accept loop, so back
  // off briefly and retry until Shutdown().
  int client;
  for (;;) {
    if (shut_down_.load()) {
      return Status::NetworkError("listener is shut down");
    }
    client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) break;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      ::poll(nullptr, 0, 10);  // let connections close, then retry
      continue;
    }
    return SockError("accept", errno);
  }
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<FrameStream>(new FrameStream(client));
}

void Listener::Shutdown() {
  // As in FrameStream::Close: shutdown() unblocks a concurrent
  // accept(); the fd stays valid until the destructor.
  if (!shut_down_.exchange(true)) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace rpc
}  // namespace neptune
