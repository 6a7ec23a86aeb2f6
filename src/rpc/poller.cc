#include "rpc/poller.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#ifdef __linux__
#include <sys/epoll.h>
#endif

namespace neptune {
namespace rpc {

namespace {

// poll(2) backend: an interest map rebuilt into a pollfd vector per
// wait. O(n) per wakeup, but perfectly portable and obviously correct
// — the reference the epoll backend is tested against. poll(2) has no
// one-shot mode, so it is emulated: one thread sits in poll() at a
// time (the others wait their turn), a one-shot fd is disarmed as it
// is handed out, and any interest change interrupts the poll in
// progress through a self-pipe so the new interest takes effect.
class PollPoller final : public Poller {
 public:
  // Takes ownership of the self-pipe used to interrupt a poll().
  PollPoller(int wake_r, int wake_w) : wake_r_(wake_r), wake_w_(wake_w) {
    for (int fd : {wake_r_, wake_w_}) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
  }

  ~PollPoller() override {
    ::close(wake_r_);
    ::close(wake_w_);
  }

  const char* name() const override { return "poll"; }

  Status Add(int fd, bool want_write) override {
    std::lock_guard<std::mutex> lock(mu_);
    interest_[fd] = Interest{true, want_write, false};
    InterruptLocked();
    return Status::OK();
  }

  Status Update(int fd, bool want_write) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = interest_.find(fd);
    if (it == interest_.end()) {
      return Status::InvalidArgument("poller: update of unregistered fd");
    }
    it->second.write = want_write;
    InterruptLocked();
    return Status::OK();
  }

  Status Arm(int fd, bool want_read, bool want_write) override {
    std::lock_guard<std::mutex> lock(mu_);
    interest_[fd] = Interest{want_read, want_write, true};
    InterruptLocked();
    return Status::OK();
  }

  void Remove(int fd) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (interest_.erase(fd) != 0) InterruptLocked();
  }

  Result<int> Wait(int timeout_ms, std::vector<Event>* out,
                   int max_events) override {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    const auto my_turn = [this] { return !polling_; };
    if (timeout_ms < 0) {
      turn_cv_.wait(lock, my_turn);
    } else if (!turn_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                  my_turn)) {
      return 0;
    }
    pfds_.clear();
    pfds_.push_back(pollfd{wake_r_, POLLIN, 0});
    for (const auto& [fd, in] : interest_) {
      const short events = static_cast<short>((in.read ? POLLIN : 0) |
                                              (in.write ? POLLOUT : 0));
      if (events != 0) pfds_.push_back(pollfd{fd, events, 0});
    }
    polling_ = true;
    lock.unlock();
    int ready;
    do {
      ready = ::poll(pfds_.data(), pfds_.size(), timeout_ms);
    } while (ready < 0 && errno == EINTR);
    const int err = errno;
    lock.lock();
    polling_ = false;
    turn_cv_.notify_one();
    if (ready < 0) {
      return Status::NetworkError(std::string("poll: ") + std::strerror(err));
    }
    if (pfds_[0].revents != 0) {
      char buf[64];
      while (::read(wake_r_, buf, sizeof(buf)) > 0) {
      }
    }
    for (size_t i = 1; i < pfds_.size(); ++i) {
      const pollfd& p = pfds_[i];
      if (p.revents == 0) continue;
      if (static_cast<int>(out->size()) >= max_events) break;
      auto it = interest_.find(p.fd);
      if (it == interest_.end()) continue;  // removed while we polled
      Interest& in = it->second;
      if (in.one_shot) {
        // Handed out (or re-armed to nothing) by an interest change
        // that raced the poll: not ours to report.
        if (!in.read && !in.write) continue;
        in.read = in.write = false;
      }
      Event ev;
      ev.fd = p.fd;
      ev.readable = (p.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out->push_back(ev);
    }
    return static_cast<int>(out->size());
  }

 private:
  struct Interest {
    bool read = false;
    bool write = false;
    bool one_shot = false;
  };

  void InterruptLocked() {
    if (!polling_) return;
    char b = 1;
    ssize_t ignored = ::write(wake_w_, &b, 1);  // EAGAIN = already pending
    (void)ignored;
  }

  std::mutex mu_;  // guards everything below
  std::condition_variable turn_cv_;  // signalled when polling_ clears
  std::unordered_map<int, Interest> interest_;
  // The poll set; only the thread inside poll() touches it then.
  std::vector<pollfd> pfds_;
  bool polling_ = false;  // a thread is inside poll()
  const int wake_r_;
  const int wake_w_;
};

#ifdef __linux__
// epoll backend: O(ready) per wakeup. Add/Update are level-triggered;
// Arm maps straight onto EPOLLONESHOT, which also makes one epoll set
// safe to share between threads.
class EpollPoller final : public Poller {
 public:
  explicit EpollPoller(int epfd) : epfd_(epfd) {}
  ~EpollPoller() override { ::close(epfd_); }

  const char* name() const override { return "epoll"; }

  Status Add(int fd, bool want_write) override {
    return Control(EPOLL_CTL_ADD, fd, want_write);
  }

  Status Update(int fd, bool want_write) override {
    return Control(EPOLL_CTL_MOD, fd, want_write);
  }

  void Remove(int fd) override {
    epoll_event ev{};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  Status Arm(int fd, bool want_read, bool want_write) override {
    epoll_event ev{};
    ev.events = EPOLLONESHOT | (want_read ? EPOLLIN | EPOLLRDHUP : 0u) |
                (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0) return Status::OK();
    if (errno == ENOENT && ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
      return Status::OK();
    }
    return Status::NetworkError(std::string("epoll_ctl: ") +
                                std::strerror(errno));
  }

  Result<int> Wait(int timeout_ms, std::vector<Event>* out,
                   int max_events) override {
    out->clear();
    max_events = std::max(1, max_events);
    epoll_event stack[128];
    std::vector<epoll_event> heap;
    epoll_event* evs = stack;
    if (max_events > 128) {
      heap.resize(static_cast<size_t>(max_events));
      evs = heap.data();
    }
    int ready;
    do {
      ready = ::epoll_wait(epfd_, evs, max_events, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) {
      return Status::NetworkError(std::string("epoll_wait: ") +
                                  std::strerror(errno));
    }
    for (int i = 0; i < ready; ++i) {
      Event ev;
      ev.fd = evs[i].data.fd;
      ev.readable =
          (evs[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0;
      ev.writable = (evs[i].events & EPOLLOUT) != 0;
      ev.error = (evs[i].events & EPOLLERR) != 0;
      out->push_back(ev);
    }
    return ready;
  }

 private:
  Status Control(int op, int fd, bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
      return Status::NetworkError(std::string("epoll_ctl: ") +
                                  std::strerror(errno));
    }
    return Status::OK();
  }

  const int epfd_;
};
#endif  // __linux__

}  // namespace

Result<std::unique_ptr<Poller>> Poller::Create() {
#ifdef __linux__
  const char* force = std::getenv("NEPTUNE_RPC_FORCE_POLL");
  if (force == nullptr || force[0] == '\0' || force[0] == '0') {
    int epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd >= 0) return std::unique_ptr<Poller>(new EpollPoller(epfd));
  }
#endif
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    return Status::NetworkError(std::string("poller pipe: ") +
                                std::strerror(errno));
  }
  return std::unique_ptr<Poller>(new PollPoller(pipefd[0], pipefd[1]));
}

}  // namespace rpc
}  // namespace neptune
