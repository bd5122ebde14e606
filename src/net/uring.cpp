#include "net/uring.h"

#if TEMPO_HAVE_URING

#include <poll.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace tempo::net {

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(SYS_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags, const void* arg, std::size_t argsz) {
  return static_cast<int>(::syscall(SYS_io_uring_enter, fd, to_submit,
                                    min_complete, flags, arg, argsz));
}

int sys_io_uring_register(int fd, unsigned opcode, void* arg,
                          unsigned nr_args) {
  return static_cast<int>(
      ::syscall(SYS_io_uring_register, fd, opcode, arg, nr_args));
}

// The ring head/tail words are shared with the kernel; wrap them in
// atomic_ref-style load/store helpers (plain unsigned* + fences keeps
// the struct offsets exactly as the ABI lays them out).
unsigned load_acquire(const unsigned* p) {
  return std::atomic_ref<const unsigned>(*p).load(std::memory_order_acquire);
}

void store_release(unsigned* p, unsigned v) {
  std::atomic_ref<unsigned>(*p).store(v, std::memory_order_release);
}

}  // namespace

Uring::Uring(unsigned sq_entries) {
  io_uring_params p{};
  p.flags = IORING_SETUP_CLAMP | IORING_SETUP_CQSIZE;
  p.cq_entries = sq_entries * 4;
  const int fd = sys_io_uring_setup(sq_entries, &p);
  if (fd < 0) return;
  // EXT_ARG gives timed waits without a timeout SQE; NODROP means CQ
  // overflow queues instead of dropping.  Both are kernel 5.11-era;
  // require them so the backend's semantics are uniform.
  if (!(p.features & IORING_FEAT_EXT_ARG) ||
      !(p.features & IORING_FEAT_NODROP) ||
      !(p.features & IORING_FEAT_SINGLE_MMAP)) {
    ::close(fd);
    return;
  }

  std::size_t sq_len =
      p.sq_off.array + p.sq_entries * sizeof(unsigned);
  std::size_t cq_len =
      p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  std::size_t ring_len = sq_len > cq_len ? sq_len : cq_len;
  void* ring = ::mmap(nullptr, ring_len, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
  if (ring == MAP_FAILED) {
    ::close(fd);
    return;
  }
  std::size_t sqes_len = p.sq_entries * sizeof(io_uring_sqe);
  void* sqes = ::mmap(nullptr, sqes_len, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    ::munmap(ring, ring_len);
    ::close(fd);
    return;
  }

  auto* base = static_cast<unsigned char*>(ring);
  sq_ring_ptr_ = ring;
  sq_ring_len_ = ring_len;
  sq_head_ = reinterpret_cast<unsigned*>(base + p.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(base + p.sq_off.tail);
  sq_mask_ = *reinterpret_cast<unsigned*>(base + p.sq_off.ring_mask);
  sq_entries_ = p.sq_entries;
  sq_array_ = reinterpret_cast<unsigned*>(base + p.sq_off.array);
  sqes_ = static_cast<io_uring_sqe*>(sqes);
  sqes_len_ = sqes_len;

  cq_ring_ptr_ = ring;  // FEAT_SINGLE_MMAP (required above)
  cq_ring_len_ = ring_len;
  cq_head_ = reinterpret_cast<unsigned*>(base + p.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(base + p.cq_off.tail);
  cq_mask_ = *reinterpret_cast<unsigned*>(base + p.cq_off.ring_mask);
  cqes_ = reinterpret_cast<io_uring_cqe*>(base + p.cq_off.cqes);

  features_ = p.features;
  ring_fd_ = fd;
}

Uring::~Uring() {
  if (buf_ring_ != nullptr) {
    io_uring_buf_reg reg{};
    reg.bgid = 0;
    sys_io_uring_register(ring_fd_, IORING_UNREGISTER_PBUF_RING, &reg, 1);
    ::munmap(buf_ring_, buf_ring_len_);
  }
  if (sqes_ != nullptr) ::munmap(sqes_, sqes_len_);
  if (sq_ring_ptr_ != nullptr) ::munmap(sq_ring_ptr_, sq_ring_len_);
  if (ring_fd_ >= 0) ::close(ring_fd_);
}

io_uring_sqe* Uring::get_sqe() {
  if (!ok()) return nullptr;
  unsigned head = load_acquire(sq_head_);
  unsigned tail = *sq_tail_ + sq_pending_;
  if (tail - head >= sq_entries_) {
    // SQ full: flush what we have and retry once.
    submit();
    head = load_acquire(sq_head_);
    tail = *sq_tail_ + sq_pending_;
    if (tail - head >= sq_entries_) return nullptr;
  }
  io_uring_sqe* sqe = &sqes_[tail & sq_mask_];
  std::memset(sqe, 0, sizeof(*sqe));
  ++sq_pending_;
  return sqe;
}

bool Uring::prep_poll_add(int fd, unsigned poll_mask, std::uint64_t ud) {
  io_uring_sqe* sqe = get_sqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  sqe->poll32_events = poll_mask;
  sqe->user_data = ud;
  return true;
}

bool Uring::prep_poll_remove(std::uint64_t target_ud, std::uint64_t ud) {
  io_uring_sqe* sqe = get_sqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_POLL_REMOVE;
  sqe->fd = -1;
  sqe->addr = target_ud;
  sqe->user_data = ud;
  return true;
}

bool Uring::prep_cancel(std::uint64_t target_ud, std::uint64_t ud) {
  io_uring_sqe* sqe = get_sqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = target_ud;
  sqe->user_data = ud;
  return true;
}

bool Uring::prep_recvmsg_multishot(int fd, msghdr* mh, std::uint64_t ud) {
  io_uring_sqe* sqe = get_sqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_RECVMSG;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uintptr_t>(mh);
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = 0;
  sqe->user_data = ud;
  return true;
}

bool Uring::prep_recv_multishot(int fd, std::uint64_t ud) {
  io_uring_sqe* sqe = get_sqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = fd;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = 0;
  sqe->user_data = ud;
  return true;
}

bool Uring::prep_sendmsg(int fd, const msghdr* mh, std::uint64_t ud,
                         bool link) {
  io_uring_sqe* sqe = get_sqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = fd;
  sqe->addr = reinterpret_cast<std::uintptr_t>(mh);
  sqe->msg_flags = MSG_DONTWAIT;
  if (link) sqe->flags |= IOSQE_IO_LINK;
  sqe->user_data = ud;
  return true;
}

bool Uring::setup_buf_ring(unsigned entries) {
  if (!ok() || buf_ring_ != nullptr) return false;
  std::size_t len = entries * sizeof(io_uring_buf);
  void* mem = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
  if (mem == MAP_FAILED) return false;
  io_uring_buf_reg reg{};
  reg.ring_addr = reinterpret_cast<std::uintptr_t>(mem);
  reg.ring_entries = entries;
  reg.bgid = 0;
  if (sys_io_uring_register(ring_fd_, IORING_REGISTER_PBUF_RING, &reg, 1) <
      0) {
    ::munmap(mem, len);
    return false;
  }
  buf_ring_ = static_cast<io_uring_buf_ring*>(mem);
  buf_ring_len_ = len;
  buf_entries_ = entries;
  buf_tail_ = 0;
  buf_pending_ = 0;
  return true;
}

// ABI note: the entry array starts at byte 0 of the registered ring and
// the tail word overlays entry 0's resv field.  Do NOT touch the struct's
// `bufs` member here: the uapi __DECLARE_FLEX_ARRAY macro has no C++
// branch in these headers, so its anonymous empty-struct wrapper is
// 1 byte in C++ and alignment pads `bufs` to offset 8 — every entry
// written through it lands 8 bytes off from where the kernel reads,
// which surfaces as ENOBUFS with garbage buffer ids.
static io_uring_buf* buf_ring_slots(io_uring_buf_ring* ring) {
  return reinterpret_cast<io_uring_buf*>(ring);
}

void Uring::buf_ring_add(unsigned short bid, void* addr, unsigned len) {
  unsigned mask = buf_entries_ - 1;
  io_uring_buf* slot =
      &buf_ring_slots(buf_ring_)[(buf_tail_ + buf_pending_) & mask];
  slot->addr = reinterpret_cast<std::uintptr_t>(addr);
  slot->len = len;
  slot->bid = bid;
  ++buf_pending_;
}

void Uring::buf_ring_commit() {
  if (buf_pending_ == 0) return;
  buf_tail_ = static_cast<unsigned short>(buf_tail_ + buf_pending_);
  buf_pending_ = 0;
  std::atomic_ref<unsigned short>(buf_ring_slots(buf_ring_)[0].resv)
      .store(buf_tail_, std::memory_order_release);
}

int Uring::enter(unsigned to_submit, unsigned min_complete, unsigned flags,
                 const void* arg, std::size_t argsz) {
  enter_calls_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    int r = sys_io_uring_enter(ring_fd_, to_submit, min_complete, flags, arg,
                               argsz);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

int Uring::submit() {
  if (!ok()) return 0;
  unsigned n = sq_pending_;
  if (n > 0) {
    unsigned tail = *sq_tail_;
    for (unsigned i = 0; i < n; ++i) {
      sq_array_[(tail + i) & sq_mask_] = (tail + i) & sq_mask_;
    }
    store_release(sq_tail_, tail + n);
    sq_pending_ = 0;
  }
  if (n == 0) return 0;
  int r = enter(n, 0, 0, nullptr, 0);
  return r < 0 ? 0 : r;
}

int Uring::submit_and_wait(int timeout_ms, std::vector<UringCqe>& out) {
  if (!ok()) return 0;
  unsigned n = sq_pending_;
  if (n > 0) {
    unsigned tail = *sq_tail_;
    for (unsigned i = 0; i < n; ++i) {
      sq_array_[(tail + i) & sq_mask_] = (tail + i) & sq_mask_;
    }
    store_release(sq_tail_, tail + n);
    sq_pending_ = 0;
  }
  // An already-pending CQE satisfies min_complete without blocking, so
  // one enter covers submit + wait + (implicit) immediate return.
  if (timeout_ms == 0) {
    if (n > 0) enter(n, 0, 0, nullptr, 0);
  } else if (timeout_ms < 0) {
    enter(n, 1, IORING_ENTER_GETEVENTS, nullptr, 0);
  } else {
    __kernel_timespec ts{};
    ts.tv_sec = timeout_ms / 1000;
    ts.tv_nsec = static_cast<long long>(timeout_ms % 1000) * 1000000;
    io_uring_getevents_arg arg{};
    arg.ts = reinterpret_cast<std::uintptr_t>(&ts);
    enter(n, 1, IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg,
          sizeof(arg));
  }
  return reap(out);
}

int Uring::reap(std::vector<UringCqe>& out) {
  if (!ok()) return 0;
  unsigned head = *cq_head_;
  unsigned tail = load_acquire(cq_tail_);
  int n = 0;
  while (head != tail) {
    const io_uring_cqe& c = cqes_[head & cq_mask_];
    out.push_back(UringCqe{c.user_data, c.res, c.flags});
    ++head;
    ++n;
  }
  if (n > 0) store_release(cq_head_, head);
  return n;
}

bool Uring::supported() {
  // The kill switch is read on every call (not folded into the probe
  // memo) so flipping TEMPO_URING mid-process affects runtimes started
  // after the flip; only the kernel capability probe is once-only.
  const char* env = std::getenv("TEMPO_URING");
  if (env != nullptr && env[0] == '0') return false;
  static const bool probed = [] {
    // Setup must work and report the required features...
    Uring ring(8);
    if (!ring.ok()) return false;
    // ...the op set must include the multishot-recv era (probe for
    // IORING_OP_SEND_ZC, added in the same 6.0 window; older kernels
    // accept IORING_RECV_MULTISHOT flags but ignore them, which would
    // silently break the backend)...
    std::vector<unsigned char> probe_buf(
        sizeof(io_uring_probe) + 64 * sizeof(io_uring_probe_op), 0);
    auto* probe = reinterpret_cast<io_uring_probe*>(probe_buf.data());
    if (sys_io_uring_register(ring.ring_fd_, IORING_REGISTER_PROBE, probe,
                              64) < 0) {
      return false;
    }
    if (probe->last_op < IORING_OP_SEND_ZC) return false;
    // ...and a provided-buffer ring must register.
    if (!ring.setup_buf_ring(8)) return false;
    return true;
  }();
  return probed;
}

}  // namespace tempo::net

#else  // !TEMPO_HAVE_URING

namespace tempo::net {

// Stubs: the uring backend is never selected when the headers are too
// old, but call sites still link against these symbols.
Uring::Uring(unsigned) {}
Uring::~Uring() = default;
bool Uring::prep_poll_add(int, unsigned, std::uint64_t) { return false; }
bool Uring::prep_poll_remove(std::uint64_t, std::uint64_t) { return false; }
bool Uring::prep_cancel(std::uint64_t, std::uint64_t) { return false; }
bool Uring::prep_recvmsg_multishot(int, msghdr*, std::uint64_t) {
  return false;
}
bool Uring::prep_recv_multishot(int, std::uint64_t) { return false; }
bool Uring::prep_sendmsg(int, const msghdr*, std::uint64_t, bool) {
  return false;
}
bool Uring::setup_buf_ring(unsigned) { return false; }
void Uring::buf_ring_add(unsigned short, void*, unsigned) {}
void Uring::buf_ring_commit() {}
int Uring::submit() { return 0; }
int Uring::submit_and_wait(int, std::vector<UringCqe>&) { return 0; }
int Uring::reap(std::vector<UringCqe>&) { return 0; }
bool Uring::supported() { return false; }

}  // namespace tempo::net

#endif  // TEMPO_HAVE_URING
