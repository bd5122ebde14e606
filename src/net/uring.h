// Minimal raw-syscall io_uring wrapper for the reactor's uring backend.
//
// Deliberately not liburing: the container toolchain only guarantees
// kernel headers, so the ring setup/mmap/enter dance is written out
// against <linux/io_uring.h> directly.  The wrapper owns
//
//   * the SQ/CQ rings of one io_uring instance (one per Reactor),
//   * a single registered provided-buffer ring (IORING_REGISTER_PBUF_RING)
//     whose slots the runtime maps onto BufferArena slices, and
//   * the user_data tag convention that multiplexes reactor-internal
//     completions (poll, wake, cancel) and runtime completions (UDP/TCP
//     multishot recv, linked UDP sends) over one CQ.
//
// Compile-time gate: TEMPO_HAVE_URING is 1 only when the kernel headers
// declare multishot receive (IORING_RECV_MULTISHOT, kernel >= 6.0
// headers).  Without it the class still exists but every operation
// reports failure, so call sites need no #ifdefs beyond probing
// supported().  At runtime, supported() additionally probes the live
// kernel (io_uring may be compiled out or seccomp-filtered) and honors
// the TEMPO_URING=0 kill switch.
#pragma once

#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <vector>

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
#if defined(IORING_RECV_MULTISHOT)
#define TEMPO_HAVE_URING 1
#endif
#endif
#ifndef TEMPO_HAVE_URING
#define TEMPO_HAVE_URING 0
#endif

namespace tempo::net {

// One reaped completion.  res/flags are verbatim from the CQE; for
// buffer-select ops the chosen buffer id is flags >> IORING_CQE_BUFFER_SHIFT.
struct UringCqe {
  std::uint64_t user_data = 0;
  std::int32_t res = 0;
  std::uint32_t flags = 0;
};

// user_data layout: tag in the top 8 bits, payload in the low 56.  Tags
// 1..7 are reactor-internal; the runtime uses kUringTagUser and up.
inline constexpr int kUringTagShift = 56;
inline constexpr std::uint64_t kUringPayloadMask =
    (std::uint64_t{1} << kUringTagShift) - 1;

inline constexpr std::uint64_t uring_user_data(std::uint64_t tag,
                                               std::uint64_t payload) {
  return (tag << kUringTagShift) | (payload & kUringPayloadMask);
}
inline constexpr std::uint64_t uring_tag(std::uint64_t ud) {
  return ud >> kUringTagShift;
}
inline constexpr std::uint64_t uring_payload(std::uint64_t ud) {
  return ud & kUringPayloadMask;
}

inline constexpr std::uint64_t kUringTagPoll = 1;    // reactor fd poll
inline constexpr std::uint64_t kUringTagWake = 2;    // wakeup eventfd poll
inline constexpr std::uint64_t kUringTagIgnore = 3;  // fire-and-forget ops
inline constexpr std::uint64_t kUringTagUser = 8;    // first runtime tag

class Uring {
 public:
  // Cached runtime probe: ring setup succeeds, the kernel reports the
  // op set of a >= 6.0 kernel (multishot recv/recvmsg), EXT_ARG timed
  // waits work, and a provided-buffer ring registers.  TEMPO_URING=0
  // in the environment forces false (kill switch for fleet rollback).
  static bool supported();

  // sq_entries is rounded up by the kernel; the CQ is sized 4x to ride
  // out multishot completion bursts (NODROP handles overflow anyway).
  explicit Uring(unsigned sq_entries);
  ~Uring();

  Uring(const Uring&) = delete;
  Uring& operator=(const Uring&) = delete;

  bool ok() const { return ring_fd_ >= 0; }

  // ---- SQE preparation ------------------------------------------------
  // Each prep_* claims one SQE (flushing a full SQ with a submit if
  // needed) and returns false only when the ring is unusable.  Prepared
  // SQEs sit in the SQ until the next submit()/submit_and_wait().

  // One-shot poll (level-triggered semantics restored by re-arming
  // after dispatch).  poll_mask is POLLIN/POLLOUT/....
  bool prep_poll_add(int fd, unsigned poll_mask, std::uint64_t ud);
  bool prep_poll_remove(std::uint64_t target_ud, std::uint64_t ud);
  // IORING_OP_ASYNC_CANCEL of every op matching target_ud.
  bool prep_cancel(std::uint64_t target_ud, std::uint64_t ud);
  // Multishot recvmsg with buffer select from the registered ring.  mh
  // must stay alive while the op is armed; only msg_namelen is consumed
  // (completions carry io_uring_recvmsg_out + name + payload in the
  // selected buffer).
  bool prep_recvmsg_multishot(int fd, struct msghdr* mh, std::uint64_t ud);
  // Multishot recv (stream sockets) with buffer select.
  bool prep_recv_multishot(int fd, std::uint64_t ud);
  // sendmsg; link=true sets IOSQE_IO_LINK so consecutive sends form one
  // ordered chain (the uring replacement for a sendmmsg batch).  mh and
  // everything it points at must stay alive until the CQE.
  bool prep_sendmsg(int fd, const struct msghdr* mh, std::uint64_t ud,
                    bool link);

  // ---- Registered provided-buffer ring -------------------------------
  // One group per Uring.  entries must be a power of two.
  bool setup_buf_ring(unsigned entries);
  unsigned buf_ring_entries() const { return buf_entries_; }
  // Stages addr/len under buffer id bid; visible to the kernel only
  // after buf_ring_commit() (release-store of the ring tail).
  void buf_ring_add(unsigned short bid, void* addr, unsigned len);
  void buf_ring_commit();

  // ---- Submission / completion ---------------------------------------
  // Flushes prepared SQEs.  Returns number submitted.
  int submit();
  // Submits, then waits for >= 1 CQE (timeout_ms < 0 blocks, 0 polls),
  // then drains the CQ into out.  Returns the number of CQEs reaped.
  int submit_and_wait(int timeout_ms, std::vector<UringCqe>& out);
  // Drains the CQ without waiting.
  int reap(std::vector<UringCqe>& out);

  // io_uring_enter invocations so far — the "syscalls per burst" number
  // the bench reports.  Relaxed atomic: the bench reads it from another
  // thread while the reactor runs.
  std::int64_t enter_calls() const {
    return enter_calls_.load(std::memory_order_relaxed);
  }

 private:
#if TEMPO_HAVE_URING
  struct io_uring_sqe* get_sqe();
  int enter(unsigned to_submit, unsigned min_complete, unsigned flags,
            const void* arg, std::size_t argsz);

  int ring_fd_ = -1;
  std::uint32_t features_ = 0;
  std::atomic<std::int64_t> enter_calls_{0};

  // SQ ring
  void* sq_ring_ptr_ = nullptr;
  std::size_t sq_ring_len_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned* sq_array_ = nullptr;
  struct io_uring_sqe* sqes_ = nullptr;
  std::size_t sqes_len_ = 0;
  unsigned sq_pending_ = 0;  // prepared but not yet submitted

  // CQ ring
  void* cq_ring_ptr_ = nullptr;  // == sq_ring_ptr_ with FEAT_SINGLE_MMAP
  std::size_t cq_ring_len_ = 0;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  struct io_uring_cqe* cqes_ = nullptr;

  // Provided-buffer ring (group id 0)
  struct io_uring_buf_ring* buf_ring_ = nullptr;
  std::size_t buf_ring_len_ = 0;
  unsigned buf_entries_ = 0;
  unsigned buf_pending_ = 0;  // staged adds since the last commit
  unsigned short buf_tail_ = 0;
#else
  std::atomic<std::int64_t> enter_calls_{0};
  unsigned buf_entries_ = 0;
  int ring_fd_ = -1;
#endif
};

}  // namespace tempo::net
