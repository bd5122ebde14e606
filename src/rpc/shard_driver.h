// The I/O seam of EventServerRuntime: how bytes move for one shard.
//
// The shard core (event_runtime.cpp) owns everything that does not
// depend on the reactor backend: the job queues, workers and stealing,
// record reassembly (parse_records), the ordered reply ring,
// flush_conn, the arenas and the stats.  A ShardDriver owns the rest —
// how datagrams and stream bytes get in, and how datagram replies get
// out.  Bytes come back into the core through its existing entry
// points: a datagram batch through push_datagram_jobs, stream bytes
// through feed_conn (parse_records) followed by on_conn_io (dispatch,
// interest, EOF and close).
//
// Two drivers exist, chosen per shard by create():
//   * ReadinessDriver (readiness_driver.cpp) — net::Reactor fd interest
//     plus recvmmsg, non-blocking read_some and sendmmsg.  Serves epoll
//     shards, and a uring reactor whose provided-buffer ring failed to
//     register.
//   * UringDriver (uring_driver.cpp, compiled only under
//     TEMPO_HAVE_URING) — multishot recvmsg/recv into a registered
//     provided-buffer ring, linked sendmsg chains, the CQE handler and
//     drain hook, and the bounded teardown.
#pragma once

#include <memory>
#include <vector>

#include "rpc/event_runtime.h"

namespace tempo::rpc {

// Datagrams per receive batch (one recvmmsg), and the worker's reply
// flush threshold: a burst costs one batch in each direction.
inline constexpr int kUdpBatch = 32;

// Provided-buffer ring slots per uring shard.  Each slot holds one
// kMaxDatagramBytes arena slice (a 64 KiB class), pinned while the
// kernel may write into it, so a shard pins 4 MiB for its life.
inline constexpr unsigned kUringBufferSlots = 64;

class EventServerRuntime::ShardDriver {
 public:
  ShardDriver(EventServerRuntime& rt, Shard& s) : rt_(rt), s_(s) {}
  virtual ~ShardDriver() = default;

  ShardDriver(const ShardDriver&) = delete;
  ShardDriver& operator=(const ShardDriver&) = delete;

  // The driver for a shard whose reactor and sockets exist: io_uring's
  // when the reactor runs it and a provided-buffer ring registers, the
  // readiness driver otherwise.
  static std::unique_ptr<ShardDriver> create(EventServerRuntime& rt,
                                             Shard& s);

  // ---- shard reactor thread (or before that thread starts) -----------
  // Begin / stop receiving datagrams on s.udp.
  virtual void start_udp() = 0;
  virtual void stop_udp() = 0;
  // Adopt a connection's socket; false when the reactor refused it.
  virtual bool add_conn(Conn& c) = 0;
  // Apply the read/write interest the core computed for `c`.
  virtual void set_interest(Conn& c, unsigned interest) = 0;
  // Forget `c`'s socket; the core closes it right after.
  virtual void remove_conn(Conn& c) = 0;
  // End of the shard loop, every conn already removed: release what the
  // backend still holds once it is provably idle.
  virtual void teardown() = 0;

  // ---- any worker thread ----------------------------------------------
  // Send one worker's bucket of replies that originated on this shard.
  // Takes every buffer; records each reply's e2e sample (or failure),
  // recycles its buffer and retires its pending job once it has left.
  virtual void send_replies(std::vector<UdpReply>& bucket) = 0;

 protected:
  EventServerRuntime& rt_;
  Shard& s_;

 private:
  // Defined in uring_driver.cpp; only called when TEMPO_HAVE_URING.
  static std::unique_ptr<ShardDriver> create_uring(EventServerRuntime& rt,
                                                   Shard& s);
};

}  // namespace tempo::rpc
