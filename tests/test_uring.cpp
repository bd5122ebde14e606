// io_uring backend specifics that the generic reactor e2e suites do not
// pin down:
//
//   * registered-buffer ownership — every provided-buffer-ring slice is
//     pinned arena memory while the kernel may write into it, and the
//     pin books must stay exactly (shards x ring entries x slot class)
//     through arbitrary TCP connection churn and hard resets (a slice
//     is never recycled while the kernel still references it, and never
//     leaks when a conn dies mid-receive);
//   * stop() drain — tearing the runtime down with multishot receives
//     armed and reply sends in flight must complete promptly, unpin
//     every ring slice, and lose no reply to the shutdown itself.
//
// Every test self-skips on kernels without io_uring support, so the
// suite is safe in any CI lane.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/endian.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "rpc/event_runtime.h"
#include "rpc/rpc_msg.h"
#include "rpc/shard_driver.h"
#include "rpc/svc.h"
#include "xdr/primitives.h"
#include "xdr/xdrmem.h"

namespace tempo {
namespace {

constexpr std::uint32_t kProg = 0x20000BBB;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProcEcho = 1;

void install_echo(rpc::SvcRegistry& reg) {
  reg.register_proc(kProg, kVers, kProcEcho,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });
}

std::size_t encode_echo_call(std::uint32_t xid, std::int32_t v, Bytes& buf) {
  xdr::XdrMem x(MutableByteSpan(buf.data(), buf.size()), xdr::XdrOp::kEncode);
  rpc::CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = kProg;
  hdr.vers = kVers;
  hdr.proc = kProcEcho;
  EXPECT_TRUE(rpc::xdr_call_header(x, hdr));
  EXPECT_TRUE(xdr::xdr_int(x, v));
  return x.getpos();
}

// One blocking UDP echo call with a short retry loop (UDP may drop).
bool echo_once(net::UdpSocket& sock, const net::Addr& dst, std::uint32_t xid) {
  Bytes call(256), reply(256);
  const std::size_t len = encode_echo_call(xid, 7, call);
  for (int attempt = 0; attempt < 5; ++attempt) {
    if (!sock.send_to(dst, ByteSpan(call.data(), len)).is_ok()) return false;
    net::Addr src;
    auto r = sock.recv_from(&src, MutableByteSpan(reply.data(), reply.size()),
                            200);
    if (r.is_ok() && *r >= 4 && load_be32(reply.data()) == xid) return true;
  }
  return false;
}

// The steady-state pin expectation: every shard keeps one registered
// ring of kUringBufferSlots slices, each a kMaxDatagramBytes take — a
// 65536-byte arena class.
std::int64_t expected_pinned(const rpc::EventServerRuntimeConfig& cfg) {
  return static_cast<std::int64_t>(cfg.reactors) * rpc::kUringBufferSlots *
         65536;
}

// Wait until bytes_pinned settles at `want` (receive completions unpin
// a travelling slice and pin its replacement, so there are legitimate
// transient dips while traffic is in flight).
bool pinned_settles_at(const rpc::EventServerRuntime& rt, std::int64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (rt.arena_stats().bytes_pinned == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(UringRuntime, RegisteredBufferPinsStableUnderConnResets) {
  if (!rpc::EventServerRuntime::uring_supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  rpc::SvcRegistry reg;
  install_echo(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 2;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  ASSERT_STREQ(runtime.backend(), "uring");

  const std::int64_t want = expected_pinned(cfg);
  EXPECT_TRUE(pinned_settles_at(runtime, want));

  // Churn: connections that send a partial garbage record and then die
  // with an RST while the shard's multishot recv is armed on them.  The
  // slice the kernel picked for the doomed read must return to the ring
  // (re-provided), not leak and not double-recycle.
  for (int round = 0; round < 40; ++round) {
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);
    unsigned char junk[64];
    std::memset(junk, 0xAB, sizeof(junk));
    // A huge record-fragment header so the record never completes.
    store_be32(junk, 0x7FFFFFF0u);
    (void)conn->write_all(ByteSpan(junk, sizeof(junk)));
    struct linger lg {
      1, 0
    };
    ::setsockopt(conn->fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    conn.reset();  // close() with linger0 = RST in flight
  }

  // The runtime still serves, and the pin books are back to exactly the
  // ring inventory.
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  EXPECT_TRUE(echo_once(sock, runtime.udp_addr(), 0xABC1));
  EXPECT_TRUE(pinned_settles_at(runtime, want));

  runtime.stop();
  // Teardown reaped every kernel reference and unpinned every slice.
  EXPECT_EQ(runtime.arena_stats().bytes_pinned, 0);
}

TEST(UringRuntime, StopDrainsInFlightOpsAndUnpinsEverything) {
  if (!rpc::EventServerRuntime::uring_supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  rpc::SvcRegistry reg;
  install_echo(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 2;
  cfg.workers = 4;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  ASSERT_STREQ(runtime.backend(), "uring");

  // Blast pipelined datagrams from several sockets and stop() while
  // receives, worker dispatch and linked reply sends are all in flight.
  std::vector<net::UdpSocket> socks(4);
  Bytes call(256);
  std::uint32_t xid = 1;
  for (int burst = 0; burst < 50; ++burst) {
    for (auto& s : socks) {
      const std::size_t len = encode_echo_call(++xid, 11, call);
      (void)s.send_to(runtime.udp_addr(), ByteSpan(call.data(), len));
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  runtime.stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  // The drain is bounded (500ms per shard budget, sequential worst
  // case) — far under this ceiling in practice.
  EXPECT_LT(took, std::chrono::seconds(5));
  // Every provided slice came off the ring through a terminal CQE and
  // was unpinned; nothing is left with the kernel.
  EXPECT_EQ(runtime.arena_stats().bytes_pinned, 0);
  // Shutdown must not manufacture send errors: any reply the runtime
  // chose to send either reached the socket or was retried there.
  EXPECT_EQ(runtime.stats().reply_send_failures.load(), 0);
}

}  // namespace
}  // namespace tempo
