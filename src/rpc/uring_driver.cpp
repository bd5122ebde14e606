// UringDriver — moves a shard's bytes with io_uring: multishot
// recvmsg/recv into a registered provided-buffer ring, linked sendmsg
// chains for datagram replies, and a bounded teardown that never frees
// memory the kernel may still write.  See shard_driver.h for the seam.
//
// Compiled whole only when the kernel headers declare multishot
// receive; elsewhere every shard runs the readiness driver.
#include "rpc/shard_driver.h"

#if TEMPO_HAVE_URING

#include <arpa/inet.h>
#include <netinet/in.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "common/metrics.h"

namespace tempo::rpc {

namespace {

// user_data tags of the driver's own SQEs (tags below kUringTagUser
// belong to the Reactor: poll, wake, ignore).
constexpr std::uint64_t kTagUdpRecv = net::kUringTagUser + 0;    // no payload
constexpr std::uint64_t kTagTcpRecv = net::kUringTagUser + 1;    // conn id
constexpr std::uint64_t kTagUdpSend = net::kUringTagUser + 2;    // send slot
constexpr std::uint64_t kTagTcpCancel = net::kUringTagUser + 3;  // conn id

sockaddr_in addr_to_sockaddr(const net::Addr& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(a.host);
  sa.sin_port = htons(a.port);
  return sa;
}

net::Addr addr_from_sockaddr(const sockaddr_in& sa) {
  return net::Addr{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

}  // namespace

// Buffer-ownership contract (see src/net/README.md): bufs_[bid] is the
// arena slice currently lent to the kernel's provided-buffer ring slot
// `bid` and is pin()-accounted for exactly that duration.  A receive
// completion MOVES the slice out (UDP: into the datagram job; TCP: its
// bytes are copied by parse_records and the same slice goes straight
// back) and the slot is refilled before the next buf_ring_commit — a
// slice the kernel may still write is never recycled, resized, or
// freed.
//
// Everything but send_replies runs on the shard's reactor thread.
class EventServerRuntime::UringDriver final : public ShardDriver {
 public:
  UringDriver(EventServerRuntime& rt, Shard& s, net::Uring& ring);

  void start_udp() override;
  void stop_udp() override;
  bool add_conn(Conn& c) override;
  void set_interest(Conn& c, unsigned interest) override;
  void remove_conn(Conn& c) override;
  void teardown() override;
  void send_replies(std::vector<UdpReply>& bucket) override;

 private:
  void on_cqe(std::uint64_t ud, std::int32_t res, std::uint32_t flags);
  // The per-poll batch point: pushes accumulated datagram jobs under
  // one queue lock, re-arms terminated multishot ops, commits buffer
  // ring refills.
  void drain_end();
  void arm_udp();
  void on_udp_recv(std::int32_t res, std::uint32_t flags);
  void on_tcp_recv(std::uint64_t conn_id, std::int32_t res,
                   std::uint32_t flags);
  void on_udp_send(std::uint64_t slot, std::int32_t res);
  // Reconciles a connection's desired read interest with the armed
  // multishot recv (arm / cancel / re-arm after cancel completes).
  void sync_conn_recv(Conn& c);
  // Reactor-thread continuation of send_replies: one linked SQE chain
  // per bucket instead of one sendmmsg.
  void send_bucket(std::vector<UdpReply> bucket);

  net::Uring& ring_;
  std::vector<Bytes> bufs_;  // bid -> slice on the ring
  // Persistent header for the UDP multishot recvmsg (only msg_namelen
  // is read; completions carry io_uring_recvmsg_out + source address +
  // payload inline in the selected buffer).
  msghdr udp_msg_{};
  bool udp_armed_ = false;
  // Consecutive terminal recv errors that delivered no data.  Past a
  // small burst the drain hook stops instantly re-arming and retries at
  // poll-timeout pace instead — a persistent kernel-side error (bad fd,
  // exhausted buffer group) must not become a syscall-speed spin.
  int udp_arm_errors_ = 0;
  // Datagram jobs accumulated across one CQ drain; drain_end pushes
  // them under ONE queue lock — the uring analogue of the recvmmsg
  // batch.  pending_recv_ns_ stamps the whole batch.
  std::vector<UdpDatagramJob> pending_;
  std::int64_t pending_recv_ns_ = 0;
  // Linked-send slots.  A deque so addresses stay stable while the
  // kernel reads the msghdr/iovec; completions recycle indices through
  // free_slots_.
  struct SendOp {
    msghdr mh{};
    iovec iov{};
    sockaddr_in dst{};
    net::Addr addr;
    Bytes buf;
    std::size_t len = 0;
    std::int64_t recv_ns = 0;
  };
  std::deque<SendOp> sends_;
  std::vector<std::size_t> free_slots_;
  int inflight_sends_ = 0;
  // user_data of every armed multishot receive (the UDP recvmsg plus
  // one per reading conn).  Maintained at arm and at terminal CQE —
  // independent of the conn map, so a late completion after
  // destroy_conn still balances — and consumed by teardown, which
  // cancels exactly these and waits for their terminal CQEs.
  std::unordered_set<std::uint64_t> armed_recvs_;
  // Conn ids whose multishot recv has a backpressure cancel in flight;
  // their read state reconciles when the cancel's CQE lands.
  std::unordered_set<std::uint64_t> cancelling_;
  // Set once teardown has released the ring's buffers.
  bool torn_down_ = false;
};

std::unique_ptr<EventServerRuntime::ShardDriver>
EventServerRuntime::ShardDriver::create_uring(EventServerRuntime& rt,
                                              Shard& s) {
  net::Uring* ring = s.reactor.uring();
  // No provided buffers: the shard runs the readiness driver over the
  // uring reactor's fd polls instead (interest polls work without them).
  if (ring == nullptr || !ring->setup_buf_ring(kUringBufferSlots)) {
    return nullptr;
  }
  return std::make_unique<UringDriver>(rt, s, *ring);
}

EventServerRuntime::UringDriver::UringDriver(EventServerRuntime& rt, Shard& s,
                                             net::Uring& ring)
    : ShardDriver(rt, s), ring_(ring) {
  bufs_.resize(kUringBufferSlots);
  for (unsigned b = 0; b < kUringBufferSlots; ++b) {
    // One arena slice per ring slot, pinned while the kernel may write
    // into it (the slice leaves the ring only through a completion).
    Bytes buf = s_.arena.take(net::kMaxDatagramBytes);
    ring_.buf_ring_add(static_cast<unsigned short>(b), buf.data(),
                       static_cast<unsigned>(buf.size()));
    s_.arena.pin(buf.size());
    bufs_[b] = std::move(buf);
  }
  ring_.buf_ring_commit();
  s_.reactor.set_cqe_handler(
      [this](std::uint64_t ud, std::int32_t res, std::uint32_t fl) {
        on_cqe(ud, res, fl);
      });
  s_.reactor.set_cqe_drain_hook([this] { drain_end(); });
}

void EventServerRuntime::UringDriver::start_udp() {
  udp_msg_ = msghdr{};
  udp_msg_.msg_namelen = sizeof(sockaddr_in);
  arm_udp();
}

void EventServerRuntime::UringDriver::arm_udp() {
  const std::uint64_t ud = net::uring_user_data(kTagUdpRecv, 0);
  if (ring_.prep_recvmsg_multishot(s_.udp->fd(), &udp_msg_, ud)) {
    udp_armed_ = true;
    armed_recvs_.insert(ud);
  }
}

void EventServerRuntime::UringDriver::stop_udp() {
  // Stop the multishot recvmsg.  The cancel's own CQE is ignored; the
  // recv's terminal CQE clears udp_armed_, and drain_end never re-arms
  // once intake is closed.
  if (udp_armed_) {
    ring_.prep_cancel(net::uring_user_data(kTagUdpRecv, 0),
                      net::uring_user_data(net::kUringTagIgnore, 0));
  }
}

bool EventServerRuntime::UringDriver::add_conn(Conn& c) {
  const std::uint64_t id = c.id;
  // Reads are a per-conn multishot recv, so the poll registration
  // starts with no interest (it carries only the write bit, toggled by
  // set_interest).
  if (!s_.reactor.add(c.sock->fd(), 0, [this, id](unsigned events) {
        auto it = s_.conns.find(id);
        if (it == s_.conns.end()) return;
        // Never read_some here (it would race the kernel for the byte
        // stream).  A read bit can only arrive through an error-flagged
        // poll completion.
        if ((events & net::kEventRead) && (events & net::kEventError)) {
          it->second.peer_eof = true;
        }
        rt_.on_conn_io(s_, id, (events & net::kEventWrite) != 0);
      })) {
    return false;
  }
  sync_conn_recv(c);
  return true;
}

void EventServerRuntime::UringDriver::set_interest(Conn& c,
                                                   unsigned interest) {
  // The fd poll carries ONLY the write bit (reads are a multishot recv,
  // reconciled below), so a backpressure pause is a cancel SQE riding
  // the next batch, not an epoll_ctl syscall.
  const unsigned mask = interest & net::kEventWrite;
  if ((c.interest & net::kEventWrite) != mask) {
    s_.reactor.set_interest(c.sock->fd(), mask);
  }
  c.interest = interest;
  sync_conn_recv(c);
}

void EventServerRuntime::UringDriver::remove_conn(Conn& c) {
  const std::uint64_t ud = net::uring_user_data(kTagTcpRecv, c.id);
  if (armed_recvs_.count(ud) != 0 && cancelling_.count(c.id) == 0) {
    // Cancel the multishot recv so its file ref does not outlive the
    // close that follows.  armed_recvs_ balances at its terminal CQE
    // (which finds no conn — fine).
    ring_.prep_cancel(ud, net::uring_user_data(net::kUringTagIgnore, 0));
  }
  s_.reactor.remove(c.sock->fd());
}

void EventServerRuntime::UringDriver::on_cqe(std::uint64_t ud,
                                             std::int32_t res,
                                             std::uint32_t flags) {
  switch (net::uring_tag(ud)) {
    case kTagUdpRecv:
      on_udp_recv(res, flags);
      break;
    case kTagTcpRecv:
      on_tcp_recv(net::uring_payload(ud), res, flags);
      break;
    case kTagUdpSend:
      on_udp_send(net::uring_payload(ud), res);
      break;
    case kTagTcpCancel: {
      // A backpressure cancel finished: reconcile the conn's read state
      // (re-arms immediately if dispatch already caught up).
      const std::uint64_t id = net::uring_payload(ud);
      cancelling_.erase(id);
      auto it = s_.conns.find(id);
      if (it != s_.conns.end()) sync_conn_recv(it->second);
      break;
    }
    default:
      break;
  }
}

void EventServerRuntime::UringDriver::on_udp_recv(std::int32_t res,
                                                  std::uint32_t flags) {
  if ((flags & IORING_CQE_F_MORE) == 0) {
    // Terminal completion (cancel, transient error, or the buffer ring
    // ran dry): the multishot op is gone; drain_end re-arms it after
    // the refills below unless intake has closed.
    udp_armed_ = false;
    armed_recvs_.erase(net::uring_user_data(kTagUdpRecv, 0));
    if (res < 0 && res != -ECANCELED && (flags & IORING_CQE_F_BUFFER) == 0) {
      ++udp_arm_errors_;
    }
  }
  if (res < 0 || (flags & IORING_CQE_F_BUFFER) == 0) return;
  udp_arm_errors_ = 0;
  const unsigned bid = flags >> IORING_CQE_BUFFER_SHIFT;
  if (bid >= bufs_.size()) return;
  Bytes& slice = bufs_[bid];
  // Completion layout (validated by Uring::supported's probe): the
  // selected buffer holds io_uring_recvmsg_out, then msg_namelen bytes
  // of source address, then the datagram payload.
  io_uring_recvmsg_out out{};
  bool drop = static_cast<std::size_t>(res) < sizeof(out);
  std::size_t off = 0;
  if (!drop) {
    std::memcpy(&out, slice.data(), sizeof(out));
    off = sizeof(out) + sizeof(sockaddr_in);
    drop = (out.flags & MSG_TRUNC) != 0 ||  // datagram larger than a slot
           out.namelen > sizeof(sockaddr_in) ||
           off + out.payloadlen > static_cast<std::size_t>(res);
  }
  if (drop || s_.intake_closed) {
    // Drop the datagram, keep the slice on the ring.
    ring_.buf_ring_add(static_cast<unsigned short>(bid), slice.data(),
                       static_cast<unsigned>(slice.size()));
    return;
  }
  sockaddr_in src{};
  std::memcpy(&src, slice.data() + sizeof(out), sizeof(src));
  if (pending_.empty()) {
    // One clock read per CQ drain, shared by the whole batch — the
    // recvmmsg stamp discipline.
    pending_recv_ns_ = rt_.metrics_on_ ? common::monotonic_ns() : 0;
  }
  UdpDatagramJob job;
  job.shard = s_.index;
  job.src = addr_from_sockaddr(src);
  job.len = out.payloadlen;
  job.off = off;  // payload stays where the kernel wrote it — no memmove
  job.recv_ns = pending_recv_ns_;
  // The kernel is done with this slice: it leaves the ring (unpin) and
  // travels to a worker; a fresh arena slice takes over its slot.
  s_.arena.unpin(slice.size());
  job.payload = std::move(slice);
  Bytes fresh = s_.arena.take(net::kMaxDatagramBytes);
  s_.arena.pin(fresh.size());
  ring_.buf_ring_add(static_cast<unsigned short>(bid), fresh.data(),
                     static_cast<unsigned>(fresh.size()));
  bufs_[bid] = std::move(fresh);
  pending_.push_back(std::move(job));
}

void EventServerRuntime::UringDriver::on_tcp_recv(std::uint64_t conn_id,
                                                  std::int32_t res,
                                                  std::uint32_t flags) {
  if ((flags & IORING_CQE_F_MORE) == 0) {
    armed_recvs_.erase(net::uring_user_data(kTagTcpRecv, conn_id));
  }
  auto it = s_.conns.find(conn_id);
  Conn* c = it == s_.conns.end() ? nullptr : &it->second;
  if (res == 0 && c) c->peer_eof = true;
  if ((flags & IORING_CQE_F_BUFFER) != 0) {
    const unsigned bid = flags >> IORING_CQE_BUFFER_SHIFT;
    if (bid < bufs_.size()) {
      Bytes& slice = bufs_[bid];
      // feed_conn copies into the conn's record buffer, so the slice
      // goes straight back on the ring — a TCP completion never takes a
      // buffer off the ring for good.
      const bool ok =
          c == nullptr || res <= 0 ||
          rt_.feed_conn(s_, *c,
                        ByteSpan(slice.data(), static_cast<std::size_t>(res)));
      ring_.buf_ring_add(static_cast<unsigned short>(bid), slice.data(),
                         static_cast<unsigned>(slice.size()));
      if (!ok) return;  // protocol violation: feed_conn reset the conn
    }
  } else if (c && res < 0 && res != -ENOBUFS && res != -ECANCELED) {
    c->peer_eof = true;  // hard socket error
  }
  // -ENOBUFS (ring momentarily dry) falls through: the terminal
  // accounting above disarmed the op and the reconcile below re-arms
  // it; buffers return as dispatch drains.
  rt_.on_conn_io(s_, conn_id, /*writable=*/false);
}

void EventServerRuntime::UringDriver::on_udp_send(std::uint64_t slot,
                                                  std::int32_t res) {
  if (slot >= sends_.size()) return;
  SendOp& op = sends_[slot];
  EventServerRuntimeStats& stats = rt_.stats_;
  if (res < 0) {
    // A failed link cancels the rest of its chain (-ECANCELED), so each
    // member gets one synchronous retry — mirroring the sendmmsg-tail
    // retry of the readiness driver.
    ++stats.reply_send_retries;
    if (!s_.udp ||
        !s_.udp->send_to(op.addr, ByteSpan(op.buf.data(), op.len)).is_ok()) {
      ++stats.reply_send_failures;
    } else if (op.recv_ns > 0) {
      s_.udp_e2e_hist.record(common::monotonic_ns() - op.recv_ns);
    }
  } else if (op.recv_ns > 0) {
    s_.udp_e2e_hist.record(common::monotonic_ns() - op.recv_ns);
  }
  s_.arena.recycle(std::move(op.buf));
  op.buf = Bytes();
  free_slots_.push_back(static_cast<std::size_t>(slot));
  --inflight_sends_;
  rt_.pending_jobs_.fetch_sub(1, std::memory_order_acq_rel);
}

void EventServerRuntime::UringDriver::sync_conn_recv(Conn& c) {
  if (cancelling_.count(c.id) != 0) return;  // reconcile when it lands
  const bool want =
      (c.interest & net::kEventRead) != 0 && !c.peer_eof && !s_.intake_closed;
  const std::uint64_t ud = net::uring_user_data(kTagTcpRecv, c.id);
  const bool armed = armed_recvs_.count(ud) != 0;
  if (want && !armed) {
    if (ring_.prep_recv_multishot(c.sock->fd(), ud)) armed_recvs_.insert(ud);
  } else if (!want && armed) {
    if (ring_.prep_cancel(ud, net::uring_user_data(kTagTcpCancel, c.id))) {
      cancelling_.insert(c.id);
    }
  }
}

void EventServerRuntime::UringDriver::send_replies(
    std::vector<UdpReply>& bucket) {
  // Hand the whole bucket to the shard's reactor, which turns it into
  // one linked SQE chain (the sendmmsg analogue).  The e2e stamp,
  // buffer recycle, and pending_jobs_ decrement all happen per send
  // CQE, so stop()'s drain covers in-flight SQEs.
  ++rt_.stats_.udp_reply_batches;
  s_.reactor.post([this, b = std::move(bucket)]() mutable {
    send_bucket(std::move(b));
  });
}

void EventServerRuntime::UringDriver::send_bucket(
    std::vector<UdpReply> bucket) {
  EventServerRuntimeStats& stats = rt_.stats_;
  const std::size_t n = bucket.size();
  for (std::size_t i = 0; i < n; ++i) {
    UdpReply& r = bucket[i];
    std::size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = sends_.size();
      sends_.emplace_back();  // deque: existing slot addresses survive
    }
    SendOp& op = sends_[slot];
    op.addr = r.dst;
    op.dst = addr_to_sockaddr(r.dst);
    op.buf = std::move(r.buf);
    op.len = r.len;
    op.recv_ns = r.recv_ns;
    op.iov.iov_base = op.buf.data();
    op.iov.iov_len = op.len;
    op.mh = msghdr{};
    op.mh.msg_name = &op.dst;
    op.mh.msg_namelen = sizeof(op.dst);
    op.mh.msg_iov = &op.iov;
    op.mh.msg_iovlen = 1;
    // Linked chain: the bucket rides one submission like one sendmmsg;
    // the last SQE is unlinked to close the chain.  A bucket that lands
    // after teardown (the ring is no longer reaped) sends synchronously
    // so nothing leaks or stays pending.
    if (torn_down_ || !s_.udp ||
        !ring_.prep_sendmsg(s_.udp->fd(), &op.mh,
                            net::uring_user_data(kTagUdpSend, slot),
                            /*link=*/i + 1 < n)) {
      ++stats.reply_send_retries;
      if (!s_.udp ||
          !s_.udp->send_to(op.addr, ByteSpan(op.buf.data(), op.len)).is_ok()) {
        ++stats.reply_send_failures;
      }
      s_.arena.recycle(std::move(op.buf));
      op.buf = Bytes();
      free_slots_.push_back(slot);
      rt_.pending_jobs_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    ++inflight_sends_;
  }
}

void EventServerRuntime::UringDriver::drain_end() {
  // Push the whole drain's datagrams under ONE queue lock — the
  // batching recvmmsg gives the readiness driver, recovered at the CQ
  // drain boundary.
  rt_.push_datagram_jobs(s_, pending_);
  // Re-arm the UDP multishot if a terminal CQE took it down and intake
  // is still open (after the refills above, so ENOBUFS cannot recur
  // immediately).
  if (s_.udp && !udp_armed_ && !s_.intake_closed &&
      !rt_.reactor_stop_.load(std::memory_order_acquire)) {
    if (udp_arm_errors_ > 3) {
      // A burst of no-data terminal errors: decay one per drain so the
      // retry runs at poll-timeout pace, not syscall-speed.
      --udp_arm_errors_;
    } else {
      arm_udp();
    }
  }
  // Publish every buf_ring_add staged during this drain in one
  // release-store; the SQEs above ride poll_once's single submit.
  ring_.buf_ring_commit();
}

void EventServerRuntime::UringDriver::teardown() {
  // Cancel every armed multishot receive (the conns are already gone;
  // an op holds a file ref past its fd's close).
  for (const std::uint64_t ud : armed_recvs_) {
    ring_.prep_cancel(ud, net::uring_user_data(net::kUringTagIgnore, 0));
  }
  // Bounded drain: a CQE is the kernel's promise it no longer
  // references the op's memory, so every in-flight SQE must complete
  // before its buffers are touched.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while ((!armed_recvs_.empty() || inflight_sends_ > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    s_.reactor.poll_once(10);
  }
  for (auto& j : pending_) s_.arena.recycle(std::move(j.payload));
  pending_.clear();
  if (armed_recvs_.empty() && inflight_sends_ == 0) {
    for (auto& b : bufs_) {
      if (b.empty()) continue;
      s_.arena.unpin(b.size());
      s_.arena.recycle(std::move(b));
    }
  } else {
    // Deadline hit with ops still in flight: the kernel may yet write
    // into these buffers.  NEVER recycle memory under kernel ownership —
    // park it for the life of the process instead (reachable, so leak
    // checkers stay quiet; the ring fd's close will quiesce the ops).
    static std::mutex sink_mu;
    static std::vector<Bytes>* sink = new std::vector<Bytes>();
    std::lock_guard<std::mutex> lock(sink_mu);
    for (auto& b : bufs_) {
      if (b.empty()) continue;
      s_.arena.unpin(b.size());
      sink->push_back(std::move(b));
    }
    for (auto& op : sends_) {
      if (!op.buf.empty()) sink->push_back(std::move(op.buf));
    }
  }
  bufs_.clear();
  sends_.clear();
  torn_down_ = true;
}

}  // namespace tempo::rpc

#endif  // TEMPO_HAVE_URING
