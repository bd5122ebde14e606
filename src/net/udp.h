// Real UDP datagram transport over the host's loopback interface.
#pragma once

#include <vector>

#include "net/transport.h"

namespace tempo::net {

// UDPMSGSIZE analog: the largest datagram payload the RPC layer ever
// sends or expects.  recv_many sizes its buffers from this, and the
// server runtimes size their reply scratch from it.
inline constexpr std::size_t kMaxDatagramBytes = 65000;

// The hard IPv4/UDP payload ceiling (65535 - 20 IP - 8 UDP): anything
// larger cannot leave the socket at all (EMSGSIZE), so reply encodes
// must be capped here — a reply that encodes but can never be sent
// would turn into a silent client timeout instead of an error reply.
inline constexpr std::size_t kMaxUdpPayloadBytes = 65507;

// One received datagram.  `payload` stays at full datagram size and
// `len` carries the received byte count — recv_many() never shrinks the
// buffers, so reused batches perform no allocation AND no resize
// zero-fill on the hot path.
struct Datagram {
  Addr src;
  Bytes payload;
  std::size_t len = 0;
};

// One outgoing datagram for send_many; `payload` views caller-owned
// bytes that must stay valid for the duration of the call.
struct OutDatagram {
  Addr dst;
  ByteSpan payload;
};

class UdpSocket final : public DatagramTransport {
 public:
  // Binds to 127.0.0.1:port (0 = ephemeral).  Check ok() before use.
  //
  // With reuseport=true the socket is bound with SO_REUSEPORT so several
  // sockets (one per reactor shard) can share one port and let the
  // kernel disperse inbound datagrams across them by flow hash.  All
  // members of a reuseport group MUST set the flag, including the first
  // socket to bind.  Construction fails (ok() == false) when the kernel
  // refuses the option — callers fall back to a single receiving socket.
  explicit UdpSocket(std::uint16_t port = 0, bool reuseport = false);
  ~UdpSocket() override;

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  bool ok() const { return fd_ >= 0; }

  Status send_to(const Addr& dst, ByteSpan payload) override;
  Result<std::size_t> recv_from(Addr* src, MutableByteSpan out,
                                int timeout_ms) override;
  Addr local_addr() const override { return local_; }

  // The raw socket, for readiness registration (net::Reactor).
  int fd() const { return fd_; }
  // Switch the socket to O_NONBLOCK; recv_from/recv_many then return
  // immediately instead of waiting.
  Status set_nonblocking(bool on);

  // Batched non-blocking receive: drains up to max_msgs datagrams in
  // one recvmmsg(2) syscall.  Grows `out` as needed and
  // records each received length in Datagram::len (payload buffers are
  // never shrunk).  Returns the number of datagrams received; 0 means
  // the socket had nothing pending.
  int recv_many(std::vector<Datagram>& out, int max_msgs);

  // Batched send: transmits msgs[0..count) in order with one
  // sendmmsg(2) syscall per burst.  Stops at the first datagram
  // the kernel refuses (EWOULDBLOCK on a non-blocking socket, ENOBUFS,
  // ...) and returns how many were sent; the caller owns retrying the
  // tail.  EINTR is retried internally.
  int send_many(const OutDatagram* msgs, int count);

 private:
  int fd_ = -1;
  Addr local_;
};

}  // namespace tempo::net
