#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tempo::net {

namespace {

sockaddr_in loopback_sockaddr(std::uint16_t port, std::uint32_t host) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(host);
  sa.sin_port = htons(port);
  return sa;
}

bool would_block(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

// Runs `io`, one non-blocking recv or send, and returns its result.
// Only when the socket would block and the caller allows a wait does it
// poll for `events` and run `io` once more; a poll that times out
// reports EAGAIN.  A ready socket thus costs one syscall, not two.
template <typename Io>
ssize_t io_then_poll(int fd, short events, int timeout_ms, Io io) {
  const ssize_t n = io();
  if (n >= 0 || timeout_ms == 0 || !would_block(errno)) return n;
  pollfd pfd{fd, events, 0};
  const int pr = ::poll(&pfd, 1, timeout_ms);
  if (pr <= 0) {
    if (pr == 0) errno = EAGAIN;
    return -1;
  }
  return io();
}

}  // namespace

std::unique_ptr<TcpConn> TcpConn::connect(const Addr& dst, int timeout_ms) {
  (void)timeout_ms;  // loopback connects complete immediately or fail
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in sa = loopback_sockaddr(dst.port, dst.host);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpConn>(fd);
}

Status TcpConn::write_all(ByteSpan data) {
  if (fd_ < 0) return unavailable("connection closed");
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (errno == EINTR) continue;
      return unavailable(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Result<std::size_t> TcpConn::read_some(MutableByteSpan out, int timeout_ms) {
  if (fd_ < 0) return Status(unavailable("connection closed"));
  const ssize_t n = io_then_poll(fd_, POLLIN, timeout_ms, [&] {
    return ::recv(fd_, out.data(), out.size(), MSG_DONTWAIT);
  });
  if (n == 0) return Status(unavailable("peer closed"));
  if (n < 0) {
    // Nothing arrived in time (or poll() reported spurious readiness);
    // that is "try again", not "peer gone".
    if (would_block(errno)) return Status(timeout_error("read_some"));
    return Status(unavailable(std::strerror(errno)));
  }
  return static_cast<std::size_t>(n);
}

Status TcpConn::set_nonblocking(bool on) {
  if (fd_ < 0) return unavailable("connection closed");
  if (!set_fd_nonblocking(fd_, on)) {
    return unavailable(std::strerror(errno));
  }
  return Status::ok();
}

Result<std::size_t> TcpConn::write_some(ByteSpan data, int timeout_ms) {
  if (fd_ < 0) return Status(unavailable("connection closed"));
  const ssize_t n = io_then_poll(fd_, POLLOUT, timeout_ms, [&] {
    return ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  });
  if (n < 0) {
    if (would_block(errno)) return Status(timeout_error("write_some"));
    return Status(unavailable(std::strerror(errno)));
  }
  return static_cast<std::size_t>(n);
}

void TcpConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa = loopback_sockaddr(port, 0x7F000001u);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd_, 16) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in got{};
  socklen_t len = sizeof(got);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&got), &len);
  local_ = Addr{ntohl(got.sin_addr.s_addr), ntohs(got.sin_port)};
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

Status TcpListener::set_nonblocking(bool on) {
  if (fd_ < 0) return unavailable("listener not open");
  if (!set_fd_nonblocking(fd_, on)) {
    return unavailable(std::strerror(errno));
  }
  return Status::ok();
}

Result<std::unique_ptr<TcpConn>> TcpListener::accept(int timeout_ms) {
  if (fd_ < 0) return Status(unavailable("listener not open"));
  pollfd pfd{fd_, POLLIN, 0};
  const int pr = ::poll(&pfd, 1, timeout_ms);
  if (pr == 0) return Status(timeout_error("accept"));
  if (pr < 0) return Status(unavailable(std::strerror(errno)));
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return Status(timeout_error("accept"));
    }
    return Status(unavailable(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpConn>(cfd);
}

}  // namespace tempo::net
