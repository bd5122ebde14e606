// ReadinessDriver — moves a shard's bytes with fd readiness: recvmmsg
// batches for datagrams, non-blocking read_some for streams, sendmmsg
// for datagram replies.  See shard_driver.h for the seam.
#include <cstdint>
#include <iterator>
#include <utility>

#include "common/metrics.h"
#include "rpc/shard_driver.h"

namespace tempo::rpc {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kMaxReadsPerEvent = 4;

}  // namespace

class EventServerRuntime::ReadinessDriver final : public ShardDriver {
 public:
  using ShardDriver::ShardDriver;

  void start_udp() override;
  void stop_udp() override { s_.reactor.remove(s_.udp->fd()); }
  bool add_conn(Conn& c) override;
  void set_interest(Conn& c, unsigned interest) override;
  void remove_conn(Conn& c) override { s_.reactor.remove(c.sock->fd()); }
  void teardown() override {}
  void send_replies(std::vector<UdpReply>& bucket) override;

 private:
  void on_udp_readable();
  void read_conn(Conn& c);

  // recvmmsg batch buffers and the jobs built from them, reused across
  // on_udp_readable calls; reactor-thread-only, so no lock.
  std::vector<net::Datagram> batch_;
  std::vector<UdpDatagramJob> jobs_;
};

std::unique_ptr<EventServerRuntime::ShardDriver>
EventServerRuntime::ShardDriver::create(EventServerRuntime& rt, Shard& s) {
#if TEMPO_HAVE_URING
  if (auto d = create_uring(rt, s)) return d;
#endif
  return std::make_unique<ReadinessDriver>(rt, s);
}

void EventServerRuntime::ReadinessDriver::start_udp() {
  // Pre-fill every slot from the arena so recv_many never allocates its
  // own kMaxDatagramBytes payloads — those are off-class (65000 is not
  // a power of two) and would demote to the 32 KiB class on recycle
  // instead of serving later payload takes.
  batch_.resize(static_cast<std::size_t>(kUdpBatch));
  for (auto& d : batch_) d.payload = s_.arena.take(net::kMaxDatagramBytes);
  s_.reactor.add(s_.udp->fd(), net::kEventRead,
                 [this](unsigned) { on_udp_readable(); });
}

void EventServerRuntime::ReadinessDriver::on_udp_readable() {
  const int n = s_.udp->recv_many(batch_, kUdpBatch);
  if (n <= 0) return;
  // One clock read per recvmmsg, shared by every datagram of the batch.
  const std::int64_t recv_ns = rt_.metrics_on_ ? common::monotonic_ns() : 0;
  for (int i = 0; i < n; ++i) {
    net::Datagram& d = batch_[static_cast<std::size_t>(i)];
    jobs_.push_back(
        UdpDatagramJob{s_.index, d.src, std::move(d.payload), d.len, recv_ns});
    // Refill the moved-out slot from this shard's arena (buffers the
    // workers finished with come back here) so the next recv_many
    // neither allocates nor zero-fills in steady state.
    d.payload = s_.arena.take(net::kMaxDatagramBytes);
  }
  rt_.push_datagram_jobs(s_, jobs_);
}

bool EventServerRuntime::ReadinessDriver::add_conn(Conn& c) {
  const std::uint64_t id = c.id;
  return s_.reactor.add(c.sock->fd(), net::kEventRead,
                        [this, id](unsigned events) {
                          auto it = s_.conns.find(id);
                          if (it == s_.conns.end()) return;
                          if (events & net::kEventRead) read_conn(it->second);
                          rt_.on_conn_io(s_, id,
                                         (events & net::kEventWrite) != 0);
                        });
}

void EventServerRuntime::ReadinessDriver::read_conn(Conn& c) {
  if (c.peer_eof) return;
  std::uint8_t chunk[kReadChunk];
  for (int i = 0; i < kMaxReadsPerEvent; ++i) {
    auto r = c.sock->read_some(MutableByteSpan(chunk, sizeof(chunk)),
                               /*timeout_ms=*/0);
    if (!r.is_ok()) {
      if (r.status().code() != StatusCode::kTimeout) c.peer_eof = true;
      return;
    }
    if (!rt_.feed_conn(s_, c, ByteSpan(chunk, *r))) return;
  }
}

void EventServerRuntime::ReadinessDriver::set_interest(Conn& c,
                                                       unsigned interest) {
  if (c.interest == interest) return;
  if (s_.reactor.set_interest(c.sock->fd(), interest)) {
    c.interest = interest;
  }
}

void EventServerRuntime::ReadinessDriver::send_replies(
    std::vector<UdpReply>& bucket) {
  // Reused per worker thread: the flush path, like the receive path,
  // must not allocate in steady state.
  thread_local std::vector<net::OutDatagram> msgs;
  EventServerRuntimeStats& stats = rt_.stats_;
  const int total = static_cast<int>(bucket.size());
  msgs.resize(bucket.size());
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    msgs[i].dst = bucket[i].dst;
    msgs[i].payload = ByteSpan(bucket[i].buf.data(), bucket[i].len);
  }
  ++stats.udp_reply_batches;
  const int sent = s_.udp->send_many(msgs.data(), total);
  if (sent > 0 && rt_.metrics_on_) {
    // One clock read per flush covers the whole sent prefix; e2e is
    // recorded only for replies that actually left (the stress books
    // equate histogram totals with successful sends).
    const std::int64_t now = common::monotonic_ns();
    for (int i = 0; i < sent; ++i) {
      const auto& r = bucket[static_cast<std::size_t>(i)];
      if (r.recv_ns > 0) s_.udp_e2e_hist.record(now - r.recv_ns);
    }
  }
  if (sent < total) {
    // The kernel refused the tail (EWOULDBLOCK on the non-blocking
    // socket, ENOBUFS, ...).  Retry once on the shard's reactor thread
    // instead of dropping silently; what it still refuses is counted.
    stats.reply_send_retries += total - sent;
    std::vector<UdpReply> tail(std::make_move_iterator(bucket.begin() + sent),
                               std::make_move_iterator(bucket.end()));
    s_.reactor.post([this, tail = std::move(tail)]() mutable {
      for (auto& r : tail) {
        if (!s_.udp->send_to(r.dst, ByteSpan(r.buf.data(), r.len)).is_ok()) {
          ++rt_.stats_.reply_send_failures;
        } else if (r.recv_ns > 0) {
          // recv_ns > 0 implies metrics were on when it was stamped.
          s_.udp_e2e_hist.record(common::monotonic_ns() - r.recv_ns);
        }
        s_.arena.recycle(std::move(r.buf));
      }
    });
  }
  for (int i = 0; i < sent; ++i) {
    s_.arena.recycle(std::move(bucket[static_cast<std::size_t>(i)].buf));
  }
  rt_.pending_jobs_.fetch_sub(total, std::memory_order_acq_rel);
}

}  // namespace tempo::rpc
