#include "net/udp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tempo::net {

bool set_fd_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

std::string addr_to_string(const Addr& a) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u", (a.host >> 24) & 0xFF,
                (a.host >> 16) & 0xFF, (a.host >> 8) & 0xFF, a.host & 0xFF,
                a.port);
  return buf;
}

namespace {

sockaddr_in to_sockaddr(const Addr& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(a.host);
  sa.sin_port = htons(a.port);
  return sa;
}

Addr from_sockaddr(const sockaddr_in& sa) {
  return Addr{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

}  // namespace

UdpSocket::UdpSocket(std::uint16_t port, bool reuseport) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return;
  if (reuseport) {
    const int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
  }
  Addr want{0x7F000001u, port};
  sockaddr_in sa = to_sockaddr(want);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in got{};
  socklen_t len = sizeof(got);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&got), &len);
  local_ = from_sockaddr(got);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

Status UdpSocket::send_to(const Addr& dst, ByteSpan payload) {
  if (fd_ < 0) return unavailable("socket not open");
  sockaddr_in sa = to_sockaddr(dst);
  const ssize_t n =
      ::sendto(fd_, payload.data(), payload.size(), 0,
               reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (n < 0 || static_cast<std::size_t>(n) != payload.size()) {
    return unavailable(std::string("sendto: ") + std::strerror(errno));
  }
  return Status::ok();
}

Status UdpSocket::set_nonblocking(bool on) {
  if (fd_ < 0) return unavailable("socket not open");
  if (!set_fd_nonblocking(fd_, on)) {
    return unavailable(std::strerror(errno));
  }
  return Status::ok();
}

int UdpSocket::recv_many(std::vector<Datagram>& out, int max_msgs) {
  if (fd_ < 0 || max_msgs <= 0) return 0;
  if (out.size() < static_cast<std::size_t>(max_msgs)) {
    out.resize(static_cast<std::size_t>(max_msgs));
  }
  for (int i = 0; i < max_msgs; ++i) {
    if (out[static_cast<std::size_t>(i)].payload.size() < kMaxDatagramBytes) {
      out[static_cast<std::size_t>(i)].payload.resize(kMaxDatagramBytes);
    }
  }
  std::vector<mmsghdr> msgs(static_cast<std::size_t>(max_msgs));
  std::vector<iovec> iovs(static_cast<std::size_t>(max_msgs));
  std::vector<sockaddr_in> addrs(static_cast<std::size_t>(max_msgs));
  for (int i = 0; i < max_msgs; ++i) {
    const auto u = static_cast<std::size_t>(i);
    iovs[u].iov_base = out[u].payload.data();
    iovs[u].iov_len = out[u].payload.size();
    msgs[u] = mmsghdr{};
    msgs[u].msg_hdr.msg_iov = &iovs[u];
    msgs[u].msg_hdr.msg_iovlen = 1;
    msgs[u].msg_hdr.msg_name = &addrs[u];
    msgs[u].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  int n;
  do {
    n = ::recvmmsg(fd_, msgs.data(), static_cast<unsigned>(max_msgs),
                   MSG_DONTWAIT, nullptr);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return 0;
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    out[u].src = from_sockaddr(addrs[u]);
    out[u].len = msgs[u].msg_len;
  }
  return n;
}

int UdpSocket::send_many(const OutDatagram* msgs, int count) {
  if (fd_ < 0 || count <= 0) return 0;
  // Reused per calling thread so a steady stream of batched flushes
  // does not hit the allocator (mirrors recv_many's pooled buffers).
  thread_local std::vector<mmsghdr> hdrs;
  thread_local std::vector<iovec> iovs;
  thread_local std::vector<sockaddr_in> addrs;
  hdrs.resize(static_cast<std::size_t>(count));
  iovs.resize(static_cast<std::size_t>(count));
  addrs.resize(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto u = static_cast<std::size_t>(i);
    // iovec wants a non-const pointer; sendmmsg never writes through it.
    iovs[u].iov_base =
        const_cast<std::uint8_t*>(msgs[u].payload.data());
    iovs[u].iov_len = msgs[u].payload.size();
    addrs[u] = to_sockaddr(msgs[u].dst);
    hdrs[u] = mmsghdr{};
    hdrs[u].msg_hdr.msg_iov = &iovs[u];
    hdrs[u].msg_hdr.msg_iovlen = 1;
    hdrs[u].msg_hdr.msg_name = &addrs[u];
    hdrs[u].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  int sent = 0;
  while (sent < count) {
    const int n = ::sendmmsg(fd_, hdrs.data() + sent,
                             static_cast<unsigned>(count - sent), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EWOULDBLOCK/ENOBUFS: caller retries the tail
    }
    if (n == 0) break;
    sent += n;
  }
  return sent;
}

Result<std::size_t> UdpSocket::recv_from(Addr* src, MutableByteSpan out,
                                         int timeout_ms) {
  if (fd_ < 0) return Status(unavailable("socket not open"));
  pollfd pfd{fd_, POLLIN, 0};
  const int pr = ::poll(&pfd, 1, timeout_ms);
  if (pr == 0) return Status(timeout_error("recv_from"));
  if (pr < 0) return Status(unavailable(std::strerror(errno)));
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  const ssize_t n = ::recvfrom(fd_, out.data(), out.size(), 0,
                               reinterpret_cast<sockaddr*>(&sa), &len);
  if (n < 0) return Status(unavailable(std::strerror(errno)));
  if (src) *src = from_sockaddr(sa);
  return static_cast<std::size_t>(n);
}

}  // namespace tempo::net
