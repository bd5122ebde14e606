#include "net/reactor.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
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

// POLL_ADD masks for the uring backend's fd interest.
unsigned from_poll_mask(short m) {
  unsigned ev = 0;
  if (m & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) ev |= kEventRead;
  if (m & POLLOUT) ev |= kEventWrite;
  if (m & (POLLHUP | POLLERR | POLLNVAL)) ev |= kEventError;
  return ev;
}

short to_poll_mask(unsigned interest) {
  short m = 0;
  if (interest & kEventRead) m |= POLLIN;
  if (interest & kEventWrite) m |= POLLOUT;
  return m;
}

// Poll-CQE user_data payload: generation (24 bits, wrap-around is fine
// — a stale CQE colliding needs 2^24 re-arms while one completion sits
// unreaped) above the fd (32 bits).
constexpr unsigned kGenMask = 0xFFFFFFu;

std::uint64_t poll_user_data(int fd, unsigned gen) {
  return uring_user_data(kUringTagPoll,
                         (static_cast<std::uint64_t>(gen & kGenMask) << 32) |
                             static_cast<std::uint32_t>(fd));
}

}  // namespace

Reactor::Reactor(ReactorBackend backend) {
  // eventfd wakeup: one fd per reactor, and draining is a single 8-byte
  // counter read.
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return;
  if (backend == ReactorBackend::kAuto && Uring::supported()) {
    auto ring = std::make_unique<Uring>(256);
    if (ring->ok()) {
      uring_ = std::move(ring);
      // Arm the wakeup poll before the loop thread exists so the first
      // blocking wait can already be popped.
      uring_->prep_poll_add(wake_fd_, POLLIN,
                            uring_user_data(kUringTagWake, 0));
      wake_armed_ = true;
      uring_->submit();
      return;
    }
  }
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
  // Close the ring (cancelling any in-flight SQEs) before the fds they
  // reference.
  uring_.reset();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

bool Reactor::ok() const {
  return wake_fd_ >= 0 && (uring_ != nullptr || epoll_fd_ >= 0);
}

const char* Reactor::backend() const { return uring_ ? "uring" : "epoll"; }

void Reactor::uring_arm_poll(int fd, Entry& e) {
  if (e.armed) return;
  const short mask = to_poll_mask(e.interest);
  if (mask == 0) return;
  uring_->prep_poll_add(fd, static_cast<unsigned>(mask),
                        poll_user_data(fd, e.gen));
  e.armed = true;
}

void Reactor::uring_disarm_poll(int fd, Entry& e) {
  if (!e.armed) return;
  uring_->prep_poll_remove(poll_user_data(fd, e.gen),
                           uring_user_data(kUringTagIgnore, 0));
  e.gen = (e.gen + 1) & kGenMask;  // stale CQEs no longer match
  e.armed = false;
}

bool Reactor::add(int fd, unsigned interest, EventFn fn) {
  if (fd < 0 || handlers_.count(fd) != 0) return false;
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = to_epoll_mask(interest);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  }
  Entry& e = handlers_[fd];
  e.interest = interest;
  e.fn = std::move(fn);
  if (uring_) uring_arm_poll(fd, e);
  return true;
}

bool Reactor::set_interest(int fd, unsigned interest) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return false;
  if (epoll_fd_ >= 0) {
    epoll_event ev{};
    ev.events = to_epoll_mask(interest);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) return false;
  }
  if (uring_ && it->second.interest != interest) {
    uring_disarm_poll(fd, it->second);
    it->second.interest = interest;
    uring_arm_poll(fd, it->second);
    return true;
  }
  it->second.interest = interest;
  return true;
}

bool Reactor::remove(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return false;
  if (epoll_fd_ >= 0) {
    // Ignore failure: the caller may have closed the fd already, which
    // removes it from the epoll set implicitly.
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  if (uring_) uring_disarm_poll(fd, it->second);
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
  // every backend_wait().  One read returns and resets the whole
  // counter.
  std::uint64_t count;
  (void)!::read(wake_fd_, &count, sizeof(count));
  wake_pending_.store(false, std::memory_order_release);
}

int Reactor::uring_wait(int timeout_ms,
                        std::vector<std::pair<int, unsigned>>* out) {
  cqe_scratch_.clear();
  const int n = uring_->submit_and_wait(timeout_ms, cqe_scratch_);
  for (const UringCqe& c : cqe_scratch_) {
    switch (uring_tag(c.user_data)) {
      case kUringTagWake:
        wake_armed_ = false;
        drain_wakeup();
        break;
      case kUringTagPoll: {
        const int fd = static_cast<int>(c.user_data & 0xFFFFFFFFu);
        const unsigned gen =
            static_cast<unsigned>(uring_payload(c.user_data) >> 32);
        auto it = handlers_.find(fd);
        if (it == handlers_.end() || (it->second.gen & kGenMask) != gen) {
          break;  // stale: fd removed or interest replaced since arming
        }
        it->second.armed = false;
        const unsigned ev = c.res >= 0
                                ? from_poll_mask(static_cast<short>(c.res))
                                : (kEventRead | kEventError);
        if (ev != 0) out->emplace_back(fd, ev);
        break;
      }
      case kUringTagIgnore:
        break;
      default:
        if (cqe_handler_) cqe_handler_(c.user_data, c.res, c.flags);
        break;
    }
  }
  if (!wake_armed_) {
    // Re-arm the wakeup poll; submitted before the next blocking wait.
    // A wakeup() racing the unarmed window leaves the eventfd counter
    // nonzero, so the fresh (level-triggered) poll completes instantly.
    uring_->prep_poll_add(wake_fd_, POLLIN,
                          uring_user_data(kUringTagWake, 0));
    wake_armed_ = true;
  }
  if (cqe_drain_hook_) cqe_drain_hook_();
  return n;
}

int Reactor::backend_wait(int timeout_ms,
                          std::vector<std::pair<int, unsigned>>* out) {
  if (uring_) return uring_wait(timeout_ms, out);
  epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return n;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      drain_wakeup();
      continue;
    }
    out->emplace_back(fd, from_epoll_mask(events[i].events));
  }
  return n;
}

int Reactor::poll_once(int timeout_ms) {
  drain_posted();

  std::vector<std::pair<int, unsigned>> ready;
  const int n = backend_wait(timeout_ms, &ready);
  if (n <= 0 && ready.empty()) {
    // A wakeup() may have carried posted closures.
    drain_posted();
    return 0;
  }

  // Closures posted while we were blocked run before fd dispatch (reply
  // completions should be buffered before new reads are parsed).
  drain_posted();

  int dispatched = 0;
  for (const auto& [fd, events] : ready) {
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // removed earlier in this batch
    // Copy the callback: the handler may remove itself (erasing the
    // entry) while running.
    EventFn fn = it->second.fn;
    fn(events);
    ++dispatched;
  }
  if (uring_) {
    // One-shot polls consumed this batch are re-armed only now, after
    // their handlers ran: a handler that read the fd dry re-arms a
    // quiet poll, one that left bytes behind gets an immediate
    // completion — level-triggered semantics, one SQE per burst.
    for (const auto& [fd, events] : ready) {
      auto it = handlers_.find(fd);
      if (it != handlers_.end()) uring_arm_poll(fd, it->second);
    }
  }
  return dispatched;
}

}  // namespace tempo::net
