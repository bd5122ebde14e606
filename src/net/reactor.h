// Reactor — single-threaded fd readiness dispatcher (epoll, or
// io_uring where the kernel supports it).
//
// Every socket is non-blocking and registered here with an interest
// mask, and one thread multiplexes all of them — the classic
// svc_run/select shape of Sun RPC, upgraded to epoll scale.
//
// Backends:
//   * epoll — one epoll_wait per burst; what kEpoll selects, and what
//     kAuto falls back to.
//   * uring — io_uring (raw syscalls, see uring.h).  fd interest is
//     implemented as one-shot IORING_OP_POLL_ADD re-armed after each
//     dispatch (preserving the level-triggered semantics handlers
//     assume), and the owner may additionally push its own SQEs (e.g.
//     multishot recv) through uring() and observe their completions via
//     set_cqe_handler(); all SQEs batch into the single io_uring_enter
//     that poll_once issues.  kAuto selects it when the kernel passes
//     the probe; a ring that fails to set up falls back to epoll, and
//     backend() reports what actually runs.
//
// A reactor that cannot set up its backend (epoll_create1 or eventfd
// failing, e.g. at RLIMIT_NOFILE) reports ok() == false; it never
// downgrades to a slower loop.
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
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/uring.h"

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

enum class ReactorBackend {
  kAuto,   // io_uring when Uring::supported(), epoll otherwise
  kEpoll,  // epoll, even on kernels that could run io_uring
};

// Receives completions whose user_data tag is >= kUringTagUser (uring
// backend only; the reactor consumes its own poll/wake tags).
using CqeFn =
    std::function<void(std::uint64_t ud, std::int32_t res, std::uint32_t fl)>;

class Reactor {
 public:
  explicit Reactor(ReactorBackend backend = ReactorBackend::kAuto);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  bool ok() const;
  const char* backend() const;  // "epoll" or "uring"

  // True when the running kernel supports everything the uring backend
  // needs (probed once; see Uring::supported).
  static bool uring_supported() { return Uring::supported(); }

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

  // ---- uring backend surface (nullptr / no-ops otherwise) ------------
  // The ring, for owners that prepare their own SQEs (reactor thread
  // only; SQEs are submitted by the next poll_once).
  Uring* uring() { return uring_.get(); }
  // Called once per completion with a user tag (>= kUringTagUser).
  void set_cqe_handler(CqeFn fn) { cqe_handler_ = std::move(fn); }
  // Called once per poll_once after all CQEs were handled and before fd
  // dispatch — the owner's batch point (push accumulated jobs, re-arm
  // multishot ops, commit buffer-ring refills).
  void set_cqe_drain_hook(std::function<void()> fn) {
    cqe_drain_hook_ = std::move(fn);
  }
  // io_uring_enter syscalls issued so far (0 for other backends).
  std::int64_t uring_enter_calls() const {
    return uring_ ? uring_->enter_calls() : 0;
  }

 private:
  struct Entry {
    unsigned interest = 0;
    EventFn fn;
    // uring backend: generation guards against stale poll CQEs after
    // set_interest/remove re-arms; armed tracks the in-flight one-shot
    // POLL_ADD.
    unsigned gen = 0;
    bool armed = false;
  };

  void drain_posted();
  void drain_wakeup();
  int backend_wait(int timeout_ms, std::vector<std::pair<int, unsigned>>* out);
  int uring_wait(int timeout_ms, std::vector<std::pair<int, unsigned>>* out);
  void uring_arm_poll(int fd, Entry& e);
  void uring_disarm_poll(int fd, Entry& e);

  int epoll_fd_ = -1;  // -1 on the uring backend
  int wake_fd_ = -1;   // eventfd: wakeup() adds 1, drain_wakeup() reads

  std::unordered_map<int, Entry> handlers_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  std::atomic<bool> wake_pending_{false};

  std::unique_ptr<Uring> uring_;
  bool wake_armed_ = false;
  CqeFn cqe_handler_;
  std::function<void()> cqe_drain_hook_;
  std::vector<UringCqe> cqe_scratch_;
};

}  // namespace tempo::net
