// Reactor subsystem tests: fd readiness + cross-thread post (and setup
// failure as an error, not a downgrade), allocation-free receive and
// dispatch turns, the event-driven server runtime end-to-end over
// loopback UDP and TCP, datagram batch draining, slow-peer isolation (a
// trickling TCP peer must not delay anyone else), and the stop() drain
// regressions.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "common/endian.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "core/stubspec.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "pe/compile.h"
#include "rpc/client.h"
#include "rpc/event_runtime.h"
#include "rpc/rpc_msg.h"
#include "rpc/svc.h"
#include "xdr/primitives.h"
#include "xdr/xdrmem.h"
#include "xdr/xdrrec.h"

namespace tempo {
namespace {

// Global operator new calls made by this thread (counted by the
// replacement below), so a test can assert a code path never allocates.
thread_local std::int64_t t_news = 0;

}  // namespace
}  // namespace tempo

void* operator new(std::size_t n) {
  ++tempo::t_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tempo {
namespace {

constexpr std::uint32_t kProg = 0x20000888;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProc = 7;

idl::ProcDef echo_array_proc(std::uint32_t bound = 2000) {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = kProc;
  proc.arg_type = idl::t_array_var(idl::t_int(), bound);
  proc.res_type = idl::t_array_var(idl::t_int(), bound);
  return proc;
}

core::SpecConfig cfg_for(std::uint32_t n) {
  core::SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  return cfg;
}

// ---------------------------------------------------- Reactor basics ---

TEST(Reactor, PipeReadinessAndCrossThreadPost) {
  net::Reactor r;
  ASSERT_TRUE(r.ok());

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int reads_seen = 0;
  ASSERT_TRUE(r.add(fds[0], net::kEventRead, [&](unsigned events) {
    EXPECT_TRUE(events & net::kEventRead);
    char buf[8];
    (void)!::read(fds[0], buf, sizeof(buf));
    ++reads_seen;
  }));

  EXPECT_EQ(r.poll_once(0), 0);  // nothing ready yet
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(r.poll_once(1000), 1);
  EXPECT_EQ(reads_seen, 1);

  // post() runs on the reactor thread and pops a blocked poll.
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    r.post([&] { ran.store(true); });
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (!ran.load() &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2)) {
    r.poll_once(500);
  }
  poster.join();
  EXPECT_TRUE(ran.load());

  EXPECT_TRUE(r.remove(fds[0]));
  EXPECT_FALSE(r.remove(fds[0]));  // already gone
  ::close(fds[0]);
  ::close(fds[1]);
}

// A turn that dispatches a ready fd reuses its ready list: the shard
// loop runs one per burst, so it must not touch the allocator.
TEST(Reactor, DispatchingTurnDoesNotAllocate) {
  net::Reactor r;
  ASSERT_TRUE(r.ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int reads_seen = 0;
  // Two captures: small enough for std::function's inline storage.
  ASSERT_TRUE(r.add(fds[0], net::kEventRead,
                    [&reads_seen, fd = fds[0]](unsigned) {
                      char buf[8];
                      (void)!::read(fd, buf, sizeof(buf));
                      ++reads_seen;
                    }));
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_EQ(r.poll_once(1000), 1);  // warm-up sizes the ready list

  constexpr int kTurns = 10;
  std::int64_t news = 0;
  for (int i = 0; i < kTurns; ++i) {
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    const std::int64_t before = t_news;
    const int dispatched = r.poll_once(1000);
    news += t_news - before;
    EXPECT_EQ(dispatched, 1);
  }
  EXPECT_EQ(news, 0);
  EXPECT_EQ(reads_seen, kTurns + 1);
  EXPECT_TRUE(r.remove(fds[0]));
  ::close(fds[0]);
  ::close(fds[1]);
}

// recv_many with datagrams pending, repeated on one batch, must not
// touch the allocator either: the runtime calls it once per readable
// turn on a batch whose payloads it refills from the arena.
TEST(UdpSocket, RecvManyDoesNotAllocateInSteadyState) {
  net::UdpSocket rx;
  net::UdpSocket tx;
  ASSERT_TRUE(rx.ok());
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.set_nonblocking(true).is_ok());
  const std::uint8_t msg[16] = {};
  std::vector<net::Datagram> batch;
  auto send_and_wait = [&] {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(tx.send_to(rx.local_addr(), ByteSpan(msg, sizeof(msg)))
                      .is_ok());
    }
    pollfd p{rx.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 1000), 1);
  };
  send_and_wait();
  ASSERT_GT(rx.recv_many(batch, 8), 0);  // warm-up sizes batch + headers

  constexpr int kCalls = 10;
  std::int64_t news = 0;
  int received = 0;
  for (int i = 0; i < kCalls; ++i) {
    send_and_wait();
    const std::int64_t before = t_news;
    const int n = rx.recv_many(batch, 8);
    news += t_news - before;
    EXPECT_GT(n, 0);
    received += n;
  }
  EXPECT_EQ(news, 0);
  EXPECT_GE(received, kCalls);
}

// A zero timeout never waits, even on a blocking socket: read_some
// tries a non-blocking recv first and reports kTimeout when nothing is
// pending.  SO_RCVTIMEO bounds a regression to a blocking recv at 2 s.
TEST(TcpConn, ZeroTimeoutReadOnIdleBlockingSocketReturnsAtOnce) {
  net::TcpListener listener;
  ASSERT_TRUE(listener.ok());
  auto client = net::TcpConn::connect(listener.local_addr());
  ASSERT_NE(client, nullptr);
  auto server = listener.accept(1000);
  ASSERT_TRUE(server.is_ok());
  const timeval tv{2, 0};
  ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof(tv)),
            0);

  std::uint8_t buf[16];
  const auto t0 = std::chrono::steady_clock::now();
  auto r = client->read_some(MutableByteSpan(buf, sizeof(buf)), 0);
  const auto took = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_LT(took, std::chrono::milliseconds(500));

  // Pending bytes come back from the same zero-timeout call.
  const std::uint8_t one = 0x5A;
  ASSERT_TRUE((*server)->write_all(ByteSpan(&one, 1)).is_ok());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  do {
    r = client->read_some(MutableByteSpan(buf, sizeof(buf)), 0);
  } while (!r.is_ok() && r.status().code() == StatusCode::kTimeout &&
           std::chrono::steady_clock::now() < give_up);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 1u);
  EXPECT_EQ(buf[0], one);
}

int open_fd_count() {
  int n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  return n;
}

// A reactor that cannot set up is an error, never a silent
// downgrade to a slower loop.  With the fd limit one above the lowest
// free fd, the wakeup eventfd takes the last slot and epoll_create1
// hits EMFILE: ok() must be false, and the eventfd must not leak.
TEST(Reactor, EpollSetupFailureIsAnErrorNotADowngrade) {
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int before = open_fd_count();
  ASSERT_GT(before, 0);
  // The lowest free fd number (== the open-fd count when fds are dense).
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);

  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  bool ok = true;
  {
    net::Reactor r;
    ok = r.ok();
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_FALSE(ok);
  EXPECT_EQ(open_fd_count(), before);  // the eventfd was closed
}

// ------------------------------------------- event runtime e2e (UDP) ---

TEST(EventServerRuntime, CachedServiceOverLoopbackUdp) {
  core::SpecCache cache(32, /*shards=*/4);

  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 4;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  EXPECT_STREQ(runtime.backend(), "epoll");

  const std::vector<std::uint32_t> sizes = {25, 50, 100};
  constexpr int kCallsPerClient = 30;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (auto n : sizes) {
    clients.emplace_back([&, n] {
      auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                     kVers, cfg_for(n));
      if (!iface.is_ok()) {
        ++bad;
        return;
      }
      net::UdpSocket sock;
      if (!sock.ok()) {
        ++bad;
        return;
      }
      core::SpecializedClient client(sock, runtime.udp_addr(), *iface);
      std::vector<std::uint32_t> args(n), results(n, 0);
      for (std::uint32_t i = 0; i < n; ++i) args[i] = n * 1000 + i;
      for (int round = 0; round < kCallsPerClient; ++round) {
        std::fill(results.begin(), results.end(), 0);
        Status st = client.call(args, results);
        if (!st.is_ok() || results != args) {
          ++bad;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  runtime.stop();

  EXPECT_EQ(bad.load(), 0);
  const std::int64_t calls =
      static_cast<std::int64_t>(sizes.size()) * kCallsPerClient;
  const auto& sstats = service.stats();
  const auto cstats = cache.stats();
  // One cache build per distinct shape; everything else served from it.
  EXPECT_EQ(cstats.misses, static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(sstats.fast_path + sstats.generic_path, calls);
  EXPECT_GT(sstats.fast_path.load(), 0);
  EXPECT_GE(runtime.stats().udp_datagrams.load(), calls);
  EXPECT_GE(runtime.stats().udp_batches.load(), 1);
  // Third-tier accounting: these shapes are all compilable, so every
  // fast-path request was served by an interface with native stubs (or
  // none was, when the JIT is gated off).
  if (pe::jit_supported_host() && pe::jit_enabled_by_env()) {
    EXPECT_EQ(cstats.jit_stubs, 4 * static_cast<std::int64_t>(sizes.size()));
    EXPECT_EQ(sstats.jit_fast_path.load(), sstats.fast_path.load());
  } else {
    EXPECT_EQ(cstats.jit_stubs, 0);
    EXPECT_EQ(sstats.jit_fast_path.load(), 0);
  }
}

// Work stealing must be wakeup-driven: a sharded runtime completes an
// imbalanced workload with idle shards woken explicitly when a
// sibling's queue grows a backlog, so zero steals are attributed to the
// periodic re-sweep tick — whatever its length, a missed wakeup shows
// up as a tick steal.
TEST(EventServerRuntime, StealingIsWakeupDrivenNotTickDriven) {
  core::SpecCache cache(32, /*shards=*/4);
  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 4;
  cfg.workers = 4;  // one per shard
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  constexpr std::uint32_t kN = 50;
  constexpr int kClients = 4;
  constexpr int kCalls = 40;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                     kVers, cfg_for(kN));
      net::UdpSocket sock;
      if (!iface.is_ok() || !sock.ok()) {
        ++bad;
        return;
      }
      core::SpecializedClient client(sock, runtime.udp_addr(), *iface);
      std::vector<std::uint32_t> args(kN), results(kN, 0);
      for (std::uint32_t i = 0; i < kN; ++i) args[i] = i;
      for (int round = 0; round < kCalls; ++round) {
        if (!client.call(args, results).is_ok() || results != args) {
          ++bad;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(runtime.stats().udp_datagrams.load(), kClients * kCalls);
  EXPECT_EQ(runtime.stats().tick_steals.load(), 0);
  runtime.stop();
}

// ------------------------------------------- event runtime e2e (TCP) ---

TEST(EventServerRuntime, CachedServiceOverTcpStream) {
  core::SpecCache cache(32, /*shards=*/4);

  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  const std::uint32_t n = 40;
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  for (int round = 0; round < 5; ++round) {
    std::vector<std::int32_t> sent(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      sent[i] = static_cast<std::int32_t>(round * 100 + i);
    }
    std::vector<std::int32_t> got;
    Status st = client.call(
        kProc,
        [&](xdr::XdrStream& x) {
          std::uint32_t count = n;
          if (!xdr::xdr_u_int(x, count)) return false;
          for (auto& v : sent) {
            if (!xdr::xdr_int(x, v)) return false;
          }
          return true;
        },
        [&](xdr::XdrStream& x) {
          std::uint32_t count = 0;
          if (!xdr::xdr_u_int(x, count) || count != n) return false;
          got.resize(count);
          for (auto& v : got) {
            if (!xdr::xdr_int(x, v)) return false;
          }
          return true;
        });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_EQ(got, sent);
  }

  EXPECT_EQ(runtime.stats().tcp_connections.load(), 1);
  EXPECT_EQ(runtime.stats().tcp_calls.load(), 5);
  EXPECT_EQ(cache.stats().misses, 1);
  // A reactor-assembled record is one contiguous buffer, so unlike
  // rpc::TcpServer's xdrrec stream the residual decode plan can
  // XDR_INLINE the arguments: TCP requests hit the fast path too.
  EXPECT_GT(service.stats().fast_path.load(), 0);
  runtime.stop();
}

// ------------------------------------------------- UDP burst batching ---

TEST(EventServerRuntime, DrainsDatagramBurstsInBatches) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.enable_tcp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  // Blast a burst without waiting for replies, then collect them all.
  constexpr int kBurst = 24;
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  Bytes msg(256);
  for (int i = 0; i < kBurst; ++i) {
    xdr::XdrMem x(MutableByteSpan(msg.data(), msg.size()),
                  xdr::XdrOp::kEncode);
    rpc::CallHeader hdr;
    hdr.xid = 0x1000u + static_cast<std::uint32_t>(i);
    hdr.prog = kProg;
    hdr.vers = kVers;
    hdr.proc = kProc;
    std::int32_t v = i;
    ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
    ASSERT_TRUE(xdr::xdr_int(x, v));
    ASSERT_TRUE(
        sock.send_to(runtime.udp_addr(), ByteSpan(msg.data(), x.getpos()))
            .is_ok());
  }
  int replies = 0;
  Bytes reply(256);
  while (replies < kBurst) {
    auto got = sock.recv_from(
        nullptr, MutableByteSpan(reply.data(), reply.size()), 2000);
    if (!got.is_ok()) break;
    ++replies;
  }
  EXPECT_EQ(replies, kBurst);
  EXPECT_GE(runtime.stats().udp_datagrams.load(), kBurst);
  // The whole point of recv_many: far fewer wakeups than datagrams.
  EXPECT_LE(runtime.stats().udp_batches.load(),
            runtime.stats().udp_datagrams.load());
  // Replies flush through per-worker sendmmsg accumulators: at least
  // one batch happened, never more batches than replies, and on
  // loopback nothing may be dropped — every send either succeeded
  // first try or survived the reactor retry.
  EXPECT_GE(runtime.stats().udp_reply_batches.load(), 1);
  EXPECT_LE(runtime.stats().udp_reply_batches.load(),
            static_cast<std::int64_t>(kBurst));
  EXPECT_EQ(runtime.stats().reply_send_failures.load(), 0);
  runtime.stop();
}

// -------------------------------------- large-record replies (bugfix) ---

// Reply buffers used to be hard-capped at 65000 bytes while the
// runtime accepts records up to kMaxRecordBytes (1 MB): a handler
// echoing a ~600 KB array back failed to encode its reply and the
// client saw GARBAGE_ARGS.
TEST(EventServerRuntime, LargeTcpEchoReply) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t count = 0;
                      if (!xdr::xdr_u_int(in, count) || count > (1u << 18)) {
                        return false;
                      }
                      if (!xdr::xdr_u_int(out, count)) return false;
                      for (std::uint32_t i = 0; i < count; ++i) {
                        std::int32_t v = 0;
                        if (!xdr::xdr_int(in, v) || !xdr::xdr_int(out, v)) {
                          return false;
                        }
                      }
                      return true;
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.enable_udp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  const std::uint32_t n = 150000;  // ~600 KB of payload each way
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  std::vector<std::int32_t> sent(n), got;
  for (std::uint32_t i = 0; i < n; ++i) {
    sent[i] = static_cast<std::int32_t>(i * 2654435761u);
  }
  Status st = client.call(
      kProc,
      [&](xdr::XdrStream& x) {
        std::uint32_t count = n;
        if (!xdr::xdr_u_int(x, count)) return false;
        for (auto& v : sent) {
          if (!xdr::xdr_int(x, v)) return false;
        }
        return true;
      },
      [&](xdr::XdrStream& x) {
        std::uint32_t count = 0;
        if (!xdr::xdr_u_int(x, count) || count != n) return false;
        got.resize(count);
        for (auto& v : got) {
          if (!xdr::xdr_int(x, v)) return false;
        }
        return true;
      });
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(got, sent);
  EXPECT_EQ(reg.stats().protocol_errors.load(), 0);
  runtime.stop();
}

// TCP replies are not bounded by their request: a read-style procedure
// turns a tiny call into a large result.  Every TCP adapter provisions
// kMaxStreamReplyBytes, so this must work too.
TEST(EventServerRuntime, LargeReplyFromSmallRequest) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t count = 0;  // "read N ints" request
                      if (!xdr::xdr_u_int(in, count) || count > (1u << 18)) {
                        return false;
                      }
                      if (!xdr::xdr_u_int(out, count)) return false;
                      for (std::uint32_t i = 0; i < count; ++i) {
                        std::int32_t v = static_cast<std::int32_t>(i ^ count);
                        if (!xdr::xdr_int(out, v)) return false;
                      }
                      return true;
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.enable_udp = false;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  const std::uint32_t n = 150000;  // ~40-byte call, ~600 KB reply
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  std::vector<std::int32_t> got;
  Status st = client.call(
      kProc,
      [&](xdr::XdrStream& x) {
        std::uint32_t count = n;
        return xdr::xdr_u_int(x, count);
      },
      [&](xdr::XdrStream& x) {
        std::uint32_t count = 0;
        if (!xdr::xdr_u_int(x, count) || count != n) return false;
        got.resize(count);
        for (auto& v : got) {
          if (!xdr::xdr_int(x, v)) return false;
        }
        return true;
      });
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], static_cast<std::int32_t>(i ^ n));
  }
  EXPECT_EQ(reg.stats().protocol_errors.load(), 0);
  runtime.stop();
}

// A TCP record that goes ready while the worker queue is full must be
// re-dispatched once the queue drains, even though no further fd event
// or completion fires for that connection (the reactor ticks while any
// conn is parked).
TEST(EventServerRuntime, QueueFullTcpRecordIsRetriedNotParkedForever) {
  std::atomic<int> served{0};
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [&](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      // Slow handler so the 1-slot queue stays full
                      // while the TCP record arrives.
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(150));
                      ++served;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  // Two datagrams: the first occupies the only worker, the second fills
  // the only queue slot.
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  Bytes msg(64);
  for (int i = 0; i < 2; ++i) {
    xdr::XdrMem x(MutableByteSpan(msg.data(), msg.size()),
                  xdr::XdrOp::kEncode);
    rpc::CallHeader hdr;
    hdr.xid = 0x2000u + static_cast<std::uint32_t>(i);
    hdr.prog = kProg;
    hdr.vers = kVers;
    hdr.proc = kProc;
    std::int32_t v = i;
    ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
    ASSERT_TRUE(xdr::xdr_int(x, v));
    ASSERT_TRUE(
        sock.send_to(runtime.udp_addr(), ByteSpan(msg.data(), x.getpos()))
            .is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }

  // Now a TCP request arrives while the queue is still full.
  Status st;
  std::thread tcp([&] {
    rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
    if (!client.ok()) {
      st = unavailable("connect failed");
      return;
    }
    st = client.call(
        kProc,
        [](xdr::XdrStream& x) {
          std::int32_t v = 7;
          return xdr::xdr_int(x, v);
        },
        [](xdr::XdrStream& x) {
          std::int32_t v = 0;
          return xdr::xdr_int(x, v) && v == 7;
        });
  });
  tcp.join();

  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(served.load(), 3);
  runtime.stop();
}

// A record bigger than any UDP datagram (the reactor allows records up
// to kMaxRecordBytes) must flow through dispatch without corrupting
// the per-thread scratch buffers, and the server must stay healthy.
TEST(EventServerRuntime, OversizedRecordDoesNotCorruptServer) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  // 100 KB of garbage in one record: larger than the 65000-byte UDP
  // scratch, smaller than kMaxRecordBytes.  The dispatch fails (no
  // valid header) and the request is dropped — but nothing may crash.
  {
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);
    constexpr std::uint32_t kBig = 100000;
    Bytes frame(4 + kBig, 0xAB);
    store_be32(frame.data(), xdr::XdrRec::kLastFragFlag | kBig);
    ASSERT_TRUE(conn->write_all(ByteSpan(frame.data(), frame.size())).is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    conn->close();
  }

  // The server still answers correctly afterwards.
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  Status st = client.call(
      kProc,
      [](xdr::XdrStream& x) {
        std::int32_t v = 99;
        return xdr::xdr_int(x, v);
      },
      [](xdr::XdrStream& x) {
        std::int32_t v = 0;
        return xdr::xdr_int(x, v) && v == 99;
      });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  runtime.stop();
}

// ------------------------------------------------ slow-peer isolation ---

// A peer that trickles one byte every 10 ms holds its connection open
// for the whole test without ever completing a record.  A
// thread-per-connection server would park a worker on it; here only the
// reassembly buffer grows.  Concurrent UDP and TCP callers must keep
// their p99 latency far below the trickle cadence.
TEST(EventServerRuntime, SlowPeerDoesNotStallOtherClients) {
  core::SpecCache cache(32, /*shards=*/4);
  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  std::atomic<bool> stop_trickle{false};
  std::thread trickler([&] {
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    if (!conn) return;
    // A valid record header promising 4000 payload bytes, delivered one
    // byte at a time.
    std::uint8_t header[4];
    store_be32(header, xdr::XdrRec::kLastFragFlag | 4000u);
    std::size_t sent = 0;
    while (!stop_trickle.load()) {
      const std::uint8_t byte = sent < 4 ? header[sent] : 0;
      if (!conn->write_all(ByteSpan(&byte, 1)).is_ok()) break;
      ++sent;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    conn->close();
  });

  // Give the trickler a head start so its connection is live first.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int kCalls = 150;
  std::vector<double> udp_lat_ms, tcp_lat_ms;
  std::atomic<int> bad{0};

  std::thread udp_caller([&] {
    const std::uint32_t n = 50;
    auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                   kVers, cfg_for(n));
    net::UdpSocket sock;
    if (!iface.is_ok() || !sock.ok()) {
      ++bad;
      return;
    }
    core::SpecializedClient client(sock, runtime.udp_addr(), *iface);
    std::vector<std::uint32_t> args(n), results(n);
    for (std::uint32_t i = 0; i < n; ++i) args[i] = i;
    udp_lat_ms.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!client.call(args, results).is_ok() || results != args) {
        ++bad;
        return;
      }
      udp_lat_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
  });

  std::thread tcp_caller([&] {
    const std::uint32_t n = 50;
    rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
    if (!client.ok()) {
      ++bad;
      return;
    }
    tcp_lat_ms.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i) {
      std::vector<std::int32_t> sent(n, i), got;
      const auto t0 = std::chrono::steady_clock::now();
      Status st = client.call(
          kProc,
          [&](xdr::XdrStream& x) {
            std::uint32_t count = n;
            if (!xdr::xdr_u_int(x, count)) return false;
            for (auto& v : sent) {
              if (!xdr::xdr_int(x, v)) return false;
            }
            return true;
          },
          [&](xdr::XdrStream& x) {
            std::uint32_t count = 0;
            if (!xdr::xdr_u_int(x, count) || count != n) return false;
            got.resize(count);
            for (auto& v : got) {
              if (!xdr::xdr_int(x, v)) return false;
            }
            return true;
          });
      if (!st.is_ok() || got != sent) {
        ++bad;
        return;
      }
      tcp_lat_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    }
  });

  udp_caller.join();
  tcp_caller.join();
  stop_trickle.store(true);
  trickler.join();

  ASSERT_EQ(bad.load(), 0);
  ASSERT_EQ(udp_lat_ms.size(), static_cast<std::size_t>(kCalls));
  ASSERT_EQ(tcp_lat_ms.size(), static_cast<std::size_t>(kCalls));

  auto p99 = [](std::vector<double> v) {
    const auto idx = static_cast<std::ptrdiff_t>(
        (v.size() * 99) / 100 == v.size() ? v.size() - 1 : (v.size() * 99) /
                                                               100);
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return v[static_cast<std::size_t>(idx)];
  };
  // The trickling peer advances one byte per 10 ms for the whole run;
  // an un-isolated runtime would show multi-second stalls.  200 ms is
  // orders of magnitude above a healthy loopback round trip but far
  // below any cross-connection stall, and tolerates CI scheduling
  // noise.
  EXPECT_LT(p99(udp_lat_ms), 200.0);
  EXPECT_LT(p99(tcp_lat_ms), 200.0);
  runtime.stop();
}

// ----------------------------------------- multi-reactor sharding ------

// Raw-conn helpers for the adversarial TCP tests: build a framed
// echo-int call record and read one framed reply off the wire.
Bytes framed_int_call(std::uint32_t xid, std::int32_t v) {
  Bytes msg(128);
  xdr::XdrMem x(MutableByteSpan(msg.data() + 4, msg.size() - 4),
                xdr::XdrOp::kEncode);
  rpc::CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = kProg;
  hdr.vers = kVers;
  hdr.proc = kProc;
  EXPECT_TRUE(rpc::xdr_call_header(x, hdr));
  EXPECT_TRUE(xdr::xdr_int(x, v));
  store_be32(msg.data(),
             xdr::XdrRec::kLastFragFlag |
                 static_cast<std::uint32_t>(x.getpos()));
  msg.resize(4 + x.getpos());
  return msg;
}

// Reads one record-marked reply; empty on timeout/disconnect.
Bytes read_framed_reply(net::TcpConn& conn, int timeout_ms = 3000) {
  auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
    std::size_t off = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (off < n && std::chrono::steady_clock::now() < deadline) {
      auto r = conn.read_some(MutableByteSpan(dst + off, n - off), 50);
      if (!r.is_ok()) {
        if (r.status().code() != StatusCode::kTimeout) return false;
        continue;
      }
      if (*r == 0) return false;
      off += *r;
    }
    return off == n;
  };
  std::uint8_t hdr[4];
  if (!read_exact(hdr, 4)) return {};
  const std::uint32_t word = load_be32(hdr);
  const std::uint32_t len = word & ~xdr::XdrRec::kLastFragFlag;
  Bytes body(len);
  if (len > 0 && !read_exact(body.data(), len)) return {};
  return body;
}

// N reactor shards, each with its own event loop and (with REUSEPORT)
// its own UDP socket; TCP connections partition across shards by fd.
// The whole client mix of the single-loop e2e must still be served, and
// the per-shard stats must aggregate into one coherent view.
TEST(EventServerRuntime, MultiReactorServesUdpAndTcpAcrossShards) {
  core::SpecCache cache(32, /*shards=*/4);
  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_array_proc(), kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 4;
  cfg.reactors = 4;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  EXPECT_EQ(runtime.reactor_count(), 4);
  // Every Linux this project supports has SO_REUSEPORT (3.9+): the UDP
  // plane must actually shard, not silently fall back.
  EXPECT_TRUE(runtime.udp_sharded());

  const std::vector<std::uint32_t> sizes = {25, 50, 75, 100};
  constexpr int kCallsPerClient = 25;
  constexpr int kTcpClients = 3;
  constexpr int kTcpCallsPerClient = 10;
  std::atomic<int> bad{0};

  std::vector<std::thread> clients;
  for (auto n : sizes) {
    clients.emplace_back([&, n] {
      auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                     kVers, cfg_for(n));
      net::UdpSocket sock;
      if (!iface.is_ok() || !sock.ok()) {
        ++bad;
        return;
      }
      core::SpecializedClient client(sock, runtime.udp_addr(), *iface);
      std::vector<std::uint32_t> args(n), results(n, 0);
      for (std::uint32_t i = 0; i < n; ++i) args[i] = n * 1000 + i;
      for (int round = 0; round < kCallsPerClient; ++round) {
        std::fill(results.begin(), results.end(), 0);
        if (!client.call(args, results).is_ok() || results != args) {
          ++bad;
          return;
        }
      }
    });
  }
  for (int t = 0; t < kTcpClients; ++t) {
    clients.emplace_back([&, t] {
      rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
      if (!client.ok()) {
        ++bad;
        return;
      }
      const std::uint32_t n = 30;
      for (int round = 0; round < kTcpCallsPerClient; ++round) {
        std::vector<std::int32_t> sent(n, t * 100 + round), got;
        Status st = client.call(
            kProc,
            [&](xdr::XdrStream& x) {
              std::uint32_t count = n;
              if (!xdr::xdr_u_int(x, count)) return false;
              for (auto& v : sent) {
                if (!xdr::xdr_int(x, v)) return false;
              }
              return true;
            },
            [&](xdr::XdrStream& x) {
              std::uint32_t count = 0;
              if (!xdr::xdr_u_int(x, count) || count != n) return false;
              got.resize(count);
              for (auto& v : got) {
                if (!xdr::xdr_int(x, v)) return false;
              }
              return true;
            });
        if (!st.is_ok() || got != sent) {
          ++bad;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(bad.load(), 0);
  // Stats aggregate across shards into one coherent set of counters.
  EXPECT_GE(runtime.stats().udp_datagrams.load(),
            static_cast<std::int64_t>(sizes.size()) * kCallsPerClient);
  EXPECT_EQ(runtime.stats().tcp_connections.load(), kTcpClients);
  EXPECT_EQ(runtime.stats().tcp_calls.load(),
            kTcpClients * kTcpCallsPerClient);
  EXPECT_EQ(runtime.stats().reply_send_failures.load(), 0);
  runtime.stop();
}

// Regression: stop() must drain in-flight requests on EVERY shard, not
// drop them.  Eight connections each have one request queued behind
// slow workers when stop() lands.  With four shards, round-robin
// assignment puts exactly two connections on each, so a drain that only
// joined or flushed shard 0 would orphan the replies owned by shards
// 1..3.  With one shard and one worker, stop() arrives while most
// requests still wait in the queue, and every one must still be served.
// Over UDP, stop() with 200 datagrams in flight on two shards must
// return promptly and fail no reply send.
TEST(EventServerRuntime, MultiShardStopDrainsEveryShard) {
  constexpr std::uint32_t kProcFast = kProc + 1;
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(100));
                      return xdr::xdr_int(out, v);
                    });
  reg.register_proc(kProg, kVers, kProcFast,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  struct Shape {
    int reactors;
    int workers;
  };
  for (const Shape shape : {Shape{4, 2}, Shape{1, 1}}) {
    rpc::EventServerRuntimeConfig cfg;
    cfg.workers = shape.workers;
    cfg.reactors = shape.reactors;
    cfg.enable_udp = false;
    rpc::EventServerRuntime runtime(reg, cfg);
    ASSERT_TRUE(runtime.start().is_ok());

    constexpr int kConns = 8;
    std::vector<Status> statuses(kConns, unavailable("not run"));
    std::vector<std::thread> threads;
    for (int i = 0; i < kConns; ++i) {
      threads.emplace_back([&, i] {
        rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
        if (!client.ok()) {
          statuses[static_cast<std::size_t>(i)] =
              unavailable("connect failed");
          return;
        }
        statuses[static_cast<std::size_t>(i)] = client.call(
            kProc,
            [&](xdr::XdrStream& x) {
              std::int32_t v = 1000 + i;
              return xdr::xdr_int(x, v);
            },
            [&](xdr::XdrStream& x) {
              std::int32_t v = 0;
              return xdr::xdr_int(x, v) && v == 1000 + i;
            });
      });
    }
    // Let every request reach the worker queue (records parse and push
    // immediately; only `workers` can be in a handler at once).
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    runtime.stop();  // must drain all shards and the whole queue
    for (auto& t : threads) t.join();

    for (int i = 0; i < kConns; ++i) {
      EXPECT_TRUE(statuses[static_cast<std::size_t>(i)].is_ok())
          << "reactors=" << shape.reactors << " conn " << i << ": "
          << statuses[static_cast<std::size_t>(i)].to_string();
    }
  }

  rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 2;
  cfg.workers = 4;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  // Blast datagrams from several sockets and stop() while receive
  // batches, worker dispatch and reply sends are all in flight.
  std::vector<net::UdpSocket> socks(4);
  Bytes call(256);
  std::uint32_t xid = 1;
  for (int burst = 0; burst < 50; ++burst) {
    for (auto& sock : socks) {
      xdr::XdrMem x(MutableByteSpan(call.data(), call.size()),
                    xdr::XdrOp::kEncode);
      rpc::CallHeader hdr;
      hdr.xid = ++xid;
      hdr.prog = kProg;
      hdr.vers = kVers;
      hdr.proc = kProcFast;
      std::int32_t v = 11;
      ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
      ASSERT_TRUE(xdr::xdr_int(x, v));
      (void)sock.send_to(runtime.udp_addr(), ByteSpan(call.data(), x.getpos()));
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  runtime.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  // Shutdown must not manufacture send errors: every reply the runtime
  // chose to send either reached the socket or was retried there.
  EXPECT_EQ(runtime.stats().reply_send_failures.load(), 0);
}

// ------------------------------------- pipelined TCP (reply ring) ------

// With tcp_pipeline_depth > 1, several requests of ONE connection
// execute concurrently across the shard's workers — but the wire must
// behave exactly as if they ran one at a time.  Make the first
// requests deliberately slow so later ones FINISH first, then require
// every reply to come back in send order with its own XID and its own
// payload.  (Depth 1 is the serial regression: same assertions hold.)
TEST(EventServerRuntime, PipelinedTcpRepliesStayInWireOrder) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      // Earlier requests dwell longer: without the
                      // ordered reply ring, reply v would overtake
                      // reply v-1 on the wire.
                      if (v < 6) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(30 - 5 * v));
                      }
                      return xdr::xdr_int(out, v);
                    });

  for (const int depth : {8, 1}) {
    rpc::EventServerRuntimeConfig cfg;
    cfg.workers = 4;
    cfg.tcp_pipeline_depth = depth;
    cfg.enable_udp = false;
    rpc::EventServerRuntime runtime(reg, cfg);
    ASSERT_TRUE(runtime.start().is_ok());

    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);

    constexpr int kCalls = 32;
    Bytes wire;
    for (int i = 0; i < kCalls; ++i) {
      Bytes frame(256);
      xdr::XdrMem x(MutableByteSpan(frame.data() + 4, frame.size() - 4),
                    xdr::XdrOp::kEncode);
      rpc::CallHeader hdr;
      hdr.xid = 0x7A000000u + static_cast<std::uint32_t>(i);
      hdr.prog = kProg;
      hdr.vers = kVers;
      hdr.proc = kProc;
      std::int32_t v = i;
      ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
      ASSERT_TRUE(xdr::xdr_int(x, v));
      store_be32(frame.data(), xdr::XdrRec::kLastFragFlag |
                                   static_cast<std::uint32_t>(x.getpos()));
      wire.insert(wire.end(), frame.begin(),
                  frame.begin() + static_cast<std::ptrdiff_t>(4 + x.getpos()));
    }
    // One burst: every call is on the socket before the first slow
    // handler finishes.
    ASSERT_TRUE(conn->write_all(ByteSpan(wire.data(), wire.size())).is_ok());

    auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
      std::size_t off = 0;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (off < n && std::chrono::steady_clock::now() < give_up) {
        auto r = conn->read_some(MutableByteSpan(dst + off, n - off), 50);
        if (!r.is_ok()) {
          if (r.status().code() != StatusCode::kTimeout) return false;
          continue;
        }
        if (*r == 0) return false;
        off += *r;
      }
      return off == n;
    };

    for (int i = 0; i < kCalls; ++i) {
      std::uint8_t rhdr[4];
      ASSERT_TRUE(read_exact(rhdr, 4)) << "depth=" << depth << " call " << i;
      const std::uint32_t rlen = load_be32(rhdr) & ~xdr::XdrRec::kLastFragFlag;
      Bytes reply(rlen);
      ASSERT_TRUE(read_exact(reply.data(), rlen));
      // Strict wire order: reply i IS call i.
      EXPECT_EQ(load_be32(reply.data()),
                0x7A000000u + static_cast<std::uint32_t>(i))
          << "depth=" << depth;
      // The last word is the echoed int.
      EXPECT_EQ(load_be32(reply.data() + rlen - 4),
                static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(runtime.stats().tcp_calls.load(), kCalls);
    // Steady state runs on recycled arena slices: after 32 calls the
    // pool must be serving takes, not the allocator.
    EXPECT_GT(runtime.arena_stats().hits, 0);
    runtime.stop();
  }
}

// ------------------------------------------ adversarial TCP peers ------

// A peer that dies mid-record — either inside the 4-byte fragment
// header or inside the promised payload — must be reaped without
// disturbing anyone, and the server must keep serving.
TEST(EventServerRuntime, MidRecordDisconnectLeavesServerHealthy) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.reactors = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  {
    // Dies two bytes into the fragment header.
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);
    const std::uint8_t half_header[2] = {0x80, 0x00};
    ASSERT_TRUE(conn->write_all(ByteSpan(half_header, 2)).is_ok());
    conn->close();
  }
  {
    // Promises 4000 payload bytes, delivers 100, dies.
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);
    Bytes partial(4 + 100, 0x42);
    store_be32(partial.data(), xdr::XdrRec::kLastFragFlag | 4000u);
    ASSERT_TRUE(conn->write_all(ByteSpan(partial.data(), partial.size()))
                    .is_ok());
    conn->close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The server still answers a well-behaved client.
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  Status st = client.call(
      kProc,
      [](xdr::XdrStream& x) {
        std::int32_t v = 123;
        return xdr::xdr_int(x, v);
      },
      [](xdr::XdrStream& x) {
        std::int32_t v = 0;
        return xdr::xdr_int(x, v) && v == 123;
      });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(runtime.stats().tcp_connections.load(), 3);

  // Forty peers that each announce an oversized record and then die
  // with an RST (SO_LINGER {1, 0}) leave the runtime serving UDP.
  for (int round = 0; round < 40; ++round) {
    auto conn = net::TcpConn::connect(runtime.tcp_addr());
    ASSERT_NE(conn, nullptr);
    std::uint8_t junk[64];
    std::memset(junk, 0xAB, sizeof(junk));
    store_be32(junk, 0x7FFFFFF0u);  // a fragment far past kMaxRecordBytes
    (void)conn->write_all(ByteSpan(junk, sizeof(junk)));
    const linger lg{1, 0};
    ::setsockopt(conn->fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    conn.reset();  // close() with linger {1, 0} sends an RST
  }
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  rpc::UdpClient udp(sock, runtime.udp_addr(), kProg, kVers);
  st = udp.call(
      kProc,
      [](xdr::XdrStream& x) {
        std::int32_t v = 456;
        return xdr::xdr_int(x, v);
      },
      [](xdr::XdrStream& x) {
        std::int32_t v = 0;
        return xdr::xdr_int(x, v) && v == 456;
      });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  runtime.stop();
}

// A record trickled one byte per write must still assemble into exactly
// one served call with a correct reply — the reassembly path crosses
// ~50 reads instead of one.
TEST(EventServerRuntime, OneByteTrickleStillCompletesTheCall) {
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  auto conn = net::TcpConn::connect(runtime.tcp_addr());
  ASSERT_NE(conn, nullptr);
  const Bytes call = framed_int_call(0xAA55, 777);
  for (std::size_t i = 0; i < call.size(); ++i) {
    ASSERT_TRUE(conn->write_all(ByteSpan(call.data() + i, 1)).is_ok());
  }
  const Bytes reply = read_framed_reply(*conn);
  ASSERT_GE(reply.size(), 12u);
  EXPECT_EQ(load_be32(reply.data()), 0xAA55u);  // xid
  // Echoed int is the last word of a SUCCESS reply.
  EXPECT_EQ(load_be32(reply.data() + reply.size() - 4), 777u);
  EXPECT_EQ(runtime.stats().tcp_calls.load(), 1);
  EXPECT_EQ(runtime.stats().conn_resets.load(), 0);
  runtime.stop();
}

// A peer that fires pipelined read-style requests and never reads a
// byte of its replies: the write buffer absorbs what the socket won't
// take (counted in write_stalls), and at max_write_buffer the peer is
// reset (counted in conn_resets) — it can never OOM the server or
// wedge a reactor shard.
TEST(EventServerRuntime, PeerThatNeverReadsIsStalledThenCapped) {
  // Read-style proc: a tiny call asking for `count` ints back.
  rpc::SvcRegistry reg;
  reg.register_proc(kProg, kVers, kProc,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t count = 0;
                      if (!xdr::xdr_u_int(in, count) || count > (1u << 18)) {
                        return false;
                      }
                      if (!xdr::xdr_u_int(out, count)) return false;
                      for (std::uint32_t i = 0; i < count; ++i) {
                        std::int32_t v = static_cast<std::int32_t>(i);
                        if (!xdr::xdr_int(out, v)) return false;
                      }
                      return true;
                    });

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.max_write_buffer = 256 * 1024;  // small cap so the test converges
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  auto conn = net::TcpConn::connect(runtime.tcp_addr());
  ASSERT_NE(conn, nullptr);
  // 40 requests, each producing a ~128 KB reply (~5 MB total): far more
  // than kernel socket buffers + max_write_buffer can hold.
  constexpr std::uint32_t kReplyInts = 32768;
  for (int i = 0; i < 40; ++i) {
    Bytes msg(128);
    xdr::XdrMem x(MutableByteSpan(msg.data() + 4, msg.size() - 4),
                  xdr::XdrOp::kEncode);
    rpc::CallHeader hdr;
    hdr.xid = 0x5000u + static_cast<std::uint32_t>(i);
    hdr.prog = kProg;
    hdr.vers = kVers;
    hdr.proc = kProc;
    std::uint32_t count = kReplyInts;
    ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
    ASSERT_TRUE(xdr::xdr_u_int(x, count));
    store_be32(msg.data(), xdr::XdrRec::kLastFragFlag |
                               static_cast<std::uint32_t>(x.getpos()));
    if (!conn->write_all(ByteSpan(msg.data(), 4 + x.getpos())).is_ok()) {
      break;  // already reset: fine, that is the expected endgame
    }
  }

  // Never read.  The server must stall-account, then cut us off.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (runtime.stats().conn_resets.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(runtime.stats().conn_resets.load(), 1);
  EXPECT_GE(runtime.stats().write_stalls.load(), 1);

  // Nobody else was harmed: a fresh, well-behaved client is served.
  rpc::TcpClient client(runtime.tcp_addr(), kProg, kVers);
  ASSERT_TRUE(client.ok());
  std::uint32_t got = 0;
  Status st = client.call(
      kProc,
      [](xdr::XdrStream& x) {
        std::uint32_t count = 3;
        return xdr::xdr_u_int(x, count);
      },
      [&](xdr::XdrStream& x) {
        if (!xdr::xdr_u_int(x, got) || got != 3) return false;
        for (std::uint32_t i = 0; i < got; ++i) {
          std::int32_t v = 0;
          if (!xdr::xdr_int(x, v)) return false;
        }
        return true;
      });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  runtime.stop();
}

}  // namespace
}  // namespace tempo
