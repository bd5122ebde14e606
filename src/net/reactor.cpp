#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <utility>

namespace tempo::net {

namespace {

std::uint32_t to_epoll_mask(unsigned interest) {
  std::uint32_t m = 0;
  if (interest & kEventRead) m |= EPOLLIN;
  if (interest & kEventWrite) m |= EPOLLOUT;
  return m;
}

unsigned from_epoll_mask(std::uint32_t m) {
  unsigned ev = 0;
  if (m & (EPOLLIN | EPOLLHUP | EPOLLERR)) ev |= kEventRead;
  if (m & EPOLLOUT) ev |= kEventWrite;
  if (m & (EPOLLHUP | EPOLLERR)) ev |= kEventError;
  return ev;
}

}  // namespace

Reactor::Reactor() {
  // eventfd wakeup: one fd per reactor, and draining is a single 8-byte
  // counter read.
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

Reactor::~Reactor() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

bool Reactor::add(int fd, unsigned interest, EventFn fn) {
  if (fd < 0 || handlers_.count(fd) != 0) return false;
  epoll_event ev{};
  ev.events = to_epoll_mask(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::move(fn);
  return true;
}

bool Reactor::set_interest(int fd, unsigned interest) {
  if (handlers_.count(fd) == 0) return false;
  epoll_event ev{};
  ev.events = to_epoll_mask(interest);
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

bool Reactor::remove(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return false;
  // Ignore failure: the caller may have closed the fd already, which
  // removes it from the epoll set implicitly.
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(it);
  return true;
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wakeup();
}

void Reactor::wakeup() {
  // Collapse storms: one pending signal is enough to pop poll_once.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  const std::uint64_t one = 1;  // eventfd counter increment
  ssize_t n;
  do {
    n = ::write(wake_fd_, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
}

void Reactor::drain_posted() {
  std::vector<std::function<void()>> run;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    run.swap(posted_);
  }
  for (auto& fn : run) fn();
}

void Reactor::drain_wakeup() {
  // Read BEFORE clearing the flag.  The reverse order loses wakeups: a
  // wakeup() racing between the store and the read adds to the counter
  // that the read then consumes, leaving wake_pending_ true with a zero
  // counter — every later wakeup() would skip its write and a reactor
  // blocked in epoll_wait(-1) would never pop.  With this order, a
  // racer that observes the still-true flag skips the write, and its
  // posted closure is picked up by the drain_posted() that follows
  // every epoll_wait.  One read returns and resets the whole counter.
  std::uint64_t count;
  (void)!::read(wake_fd_, &count, sizeof(count));
  wake_pending_.store(false, std::memory_order_release);
}

int Reactor::poll_once(int timeout_ms) {
  drain_posted();

  epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  ready_.clear();
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      drain_wakeup();
      continue;
    }
    ready_.emplace_back(fd, from_epoll_mask(events[i].events));
  }

  // Closures posted while we were blocked (or carried by a wakeup) run
  // before fd dispatch: reply completions should be buffered before
  // new reads are parsed.
  drain_posted();

  int dispatched = 0;
  for (const auto& [fd, ev] : ready_) {
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // removed earlier in this batch
    // Copy the callback: the handler may remove itself (erasing the
    // entry) while running.
    EventFn fn = it->second;
    fn(ev);
    ++dispatched;
  }
  return dispatched;
}

}  // namespace tempo::net
