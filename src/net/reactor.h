// Reactor — single-threaded fd readiness dispatcher on epoll.
//
// Every socket is non-blocking and registered here with an interest
// mask, and one thread multiplexes all of them — the classic
// svc_run/select shape of Sun RPC, upgraded to epoll scale: one
// epoll_wait per burst.
//
// A reactor that cannot set up (epoll_create1 or eventfd failing, e.g.
// at RLIMIT_NOFILE) reports ok() == false; it never downgrades to a
// slower loop.
//
// Threading contract: add/set_interest/remove/poll_once must all run on
// the reactor thread (the thread that calls poll_once in a loop).  The
// only thread-safe entry points are post() and wakeup(): any thread may
// hand the reactor a closure, which runs on the reactor thread before
// the next readiness dispatch.  This keeps handler state lock-free.
//
// Handlers may remove (and close) their own fd or any other fd while a
// dispatch batch is in flight; the dispatcher re-checks registration
// before each callback, so a handler never fires for an fd removed
// earlier in the same batch.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tempo::net {

// Interest / readiness bits (a mask, not an enum class, so handlers can
// test `events & kEventRead` without casts).
inline constexpr unsigned kEventRead = 1u;
inline constexpr unsigned kEventWrite = 2u;
// Delivered (never requested): the peer hung up or the fd errored.
// Always paired with kEventRead so stream handlers observe EOF.
inline constexpr unsigned kEventError = 4u;

// Receives the readiness mask for one fd.
using EventFn = std::function<void(unsigned events)>;

class Reactor {
 public:
  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  bool ok() const { return wake_fd_ >= 0 && epoll_fd_ >= 0; }

  // Registers `fd` for the given interest mask.  The reactor does NOT
  // own the fd; the caller closes it after remove().
  bool add(int fd, unsigned interest, EventFn fn);
  // Replaces the interest mask (e.g. enable kEventWrite while a reply
  // is buffered, drop it once drained).
  bool set_interest(int fd, unsigned interest);
  bool remove(int fd);

  // Runs posted closures, then dispatches ready fds.  Blocks up to
  // timeout_ms (-1 = until an event or wakeup()).  Returns the number
  // of fd events dispatched (0 on timeout / wakeup-only).
  int poll_once(int timeout_ms);

  // Thread-safe: queue `fn` to run on the reactor thread and wake it.
  void post(std::function<void()> fn);
  // Thread-safe: make a blocked poll_once return promptly.
  void wakeup();

  std::size_t watched_fds() const { return handlers_.size(); }

 private:
  void drain_posted();
  void drain_wakeup();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: wakeup() adds 1, drain_wakeup() reads

  std::unordered_map<int, EventFn> handlers_;
  // (fd, events) of the current epoll_wait; kept across turns so a
  // dispatching turn does not allocate.
  std::vector<std::pair<int, unsigned>> ready_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  std::atomic<bool> wake_pending_{false};
};

}  // namespace tempo::net
