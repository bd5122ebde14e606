// Randomized soak of the multi-reactor event runtime.
//
// Mixed UDP and TCP clients hammer a 4-shard EventServerRuntime with
// random procedures, random array sizes, random truncated ("garbage")
// calls and random mid-record TCP aborts for a bounded wall-clock
// window, then the books must balance:
//
//   * XID accounting — every UDP reply's XID must be one we sent and
//     never seen before (no duplicated replies, no replies minted from
//     thin air), and the number of missing replies must be exactly the
//     number of losses the server itself accounted (queue-overload
//     drops + refused sends); nothing disappears silently;
//   * TCP calls that ran to completion must all have received their
//     correct in-order replies, with aborted connections harming
//     nobody;
//   * the runtime survives to serve a clean call afterwards.
//
// Deterministic by default: the schedule derives from TEMPO_STRESS_SEED
// (default 0xC0FFEE) and runs for TEMPO_STRESS_MS (default 2000 ms), so
// CI pins one reproducible schedule — the short deterministic-seed
// variant — while a soak box can crank the duration up.
//
// TEMPO_STRESS_KV=1 additionally enables the KV soak: a client mix of
// puts/gets/deletes against a live KvService (generic string tier)
// while one replica tails the commit log over the plan/JIT tier, with
// commit-vs-apply books balanced at soak end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/endian.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "kv/repl.h"
#include "kv/service.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "rpc/event_runtime.h"
#include "rpc/rpc_msg.h"
#include "rpc/svc.h"
#include "test_rng.h"
#include "xdr/primitives.h"
#include "xdr/xdrmem.h"
#include "xdr/xdrrec.h"

namespace tempo {
namespace {

constexpr std::uint32_t kProg = 0x20000AAA;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProcEchoInt = 1;
constexpr std::uint32_t kProcEchoArray = 2;
constexpr std::uint32_t kProcRead = 3;  // tiny call -> count-int reply

int stress_ms() {
  const char* e = std::getenv("TEMPO_STRESS_MS");
  const int v = e ? std::atoi(e) : 2000;
  return v > 0 ? v : 2000;
}

std::uint64_t stress_seed() {
  const char* e = std::getenv("TEMPO_STRESS_SEED");
  if (e) return std::strtoull(e, nullptr, 0);
  return 0xC0FFEEull;
}

// TCP clients pipeline up to this many requests per burst (> 1 so the
// per-connection reply ring is always under test; CI's TSan job cranks
// it to the runtime's full default depth).
int stress_tcp_depth() {
  const char* e = std::getenv("TEMPO_STRESS_TCP_DEPTH");
  const int v = e ? std::atoi(e) : 4;
  return v > 1 ? v : 2;
}

// The KV soak is opt-in: it stacks a full KvService + replica on top
// of the runtime soak, so plain tier-1 runs keep their wall-clock
// while CI's stress lanes set TEMPO_STRESS_KV=1.
bool stress_kv_enabled() {
  const char* e = std::getenv("TEMPO_STRESS_KV");
  return e != nullptr && *e != '\0' && *e != '0';
}

// TEMPO_STRESS_BACKEND={auto,epoll,uring} pins the reactor backend for
// every soak runtime; CI's sanitizer lanes run the suite once per event
// path.  "uring" (like "auto" or unset) is kAuto: io_uring wherever the
// kernel supports it, the epoll fallback elsewhere — the soak still
// runs.
net::ReactorBackend stress_backend() {
  const char* e = std::getenv("TEMPO_STRESS_BACKEND");
  if (e != nullptr && std::strcmp(e, "epoll") == 0) {
    return net::ReactorBackend::kEpoll;
  }
  return net::ReactorBackend::kAuto;
}

// One RNG instance per client thread: deterministic given the seed,
// uncorrelated across clients.
using test::Rng;

void install_procs(rpc::SvcRegistry& reg) {
  reg.register_proc(kProg, kVers, kProcEchoInt,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::int32_t v = 0;
                      if (!xdr::xdr_int(in, v)) return false;
                      return xdr::xdr_int(out, v);
                    });
  reg.register_proc(kProg, kVers, kProcEchoArray,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t count = 0;
                      if (!xdr::xdr_u_int(in, count) || count > 4096) {
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
  reg.register_proc(kProg, kVers, kProcRead,
                    [](xdr::XdrStream& in, xdr::XdrStream& out) {
                      std::uint32_t count = 0;
                      if (!xdr::xdr_u_int(in, count) || count > 4096) {
                        return false;
                      }
                      if (!xdr::xdr_u_int(out, count)) return false;
                      for (std::uint32_t i = 0; i < count; ++i) {
                        std::int32_t v = static_cast<std::int32_t>(i ^ count);
                        if (!xdr::xdr_int(out, v)) return false;
                      }
                      return true;
                    });
}

// Encodes one random call (possibly truncated into a GARBAGE_ARGS case
// — the server still replies, with an error status, so it stays in the
// XID books).  Returns the encoded length.
std::size_t encode_random_call(Rng& rng, std::uint32_t xid, Bytes& buf) {
  const std::uint32_t pick = rng.below(3);
  const std::uint32_t proc =
      pick == 0 ? kProcEchoInt : (pick == 1 ? kProcEchoArray : kProcRead);
  xdr::XdrMem x(MutableByteSpan(buf.data(), buf.size()), xdr::XdrOp::kEncode);
  rpc::CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = kProg;
  hdr.vers = kVers;
  hdr.proc = proc;
  EXPECT_TRUE(rpc::xdr_call_header(x, hdr));
  if (proc == kProcEchoInt) {
    std::int32_t v = static_cast<std::int32_t>(rng.next());
    EXPECT_TRUE(xdr::xdr_int(x, v));
  } else if (proc == kProcEchoArray) {
    std::uint32_t n = 1 + rng.below(300);
    EXPECT_TRUE(xdr::xdr_u_int(x, n));
    for (std::uint32_t i = 0; i < n; ++i) {
      std::int32_t v = static_cast<std::int32_t>(rng.next());
      EXPECT_TRUE(xdr::xdr_int(x, v));
    }
  } else {
    std::uint32_t n = 1 + rng.below(300);
    EXPECT_TRUE(xdr::xdr_u_int(x, n));
  }
  std::size_t len = x.getpos();
  // ~5% of calls arrive truncated mid-arguments: the handler fails to
  // decode and the server answers GARBAGE_ARGS — still a reply, still
  // carrying our XID, so accounting is unaffected.
  if (len > 44 && rng.chance(0.05)) len -= 4;
  return len;
}

TEST(StressSoak, MixedRandomTrafficBalancesTheBooks) {
  rpc::SvcRegistry reg;
  install_procs(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 4;
  cfg.reactors = 4;
  cfg.backend = stress_backend();
  // Trace EVERY request through the soak: the stage-attribution
  // arithmetic must hold under full concurrency, aborts and overload,
  // not just on the happy path.
  cfg.trace_sample = 1;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(stress_ms());
  const std::uint64_t seed = stress_seed();

  // ---- UDP clients: windowed pipelining with strict XID books -------
  constexpr int kUdpClients = 4;
  std::atomic<std::int64_t> udp_sent{0}, udp_received{0};
  std::atomic<int> duplicate_replies{0}, foreign_replies{0};
  std::atomic<int> client_errors{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < kUdpClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng{seed + static_cast<std::uint64_t>(c) * 0x1234567ull};
      net::UdpSocket sock;
      if (!sock.ok()) {
        ++client_errors;
        return;
      }
      const net::Addr server = runtime.udp_addr();
      // XIDs are globally unique across clients by construction.
      std::uint32_t next_xid = 0x10000000u * static_cast<std::uint32_t>(c + 1);
      std::unordered_set<std::uint32_t> sent_xids, received_xids;
      Bytes send_buf(8192), recv_buf(65000);
      std::int64_t my_sent = 0, my_received = 0;

      auto drain = [&](int timeout_ms) {
        for (;;) {
          auto r = sock.recv_from(
              nullptr, MutableByteSpan(recv_buf.data(), recv_buf.size()),
              timeout_ms);
          if (!r.is_ok()) return;
          if (*r < 4) continue;
          const std::uint32_t xid = load_be32(recv_buf.data());
          if (sent_xids.count(xid) == 0) {
            ++foreign_replies;  // a reply we never asked for
          } else if (!received_xids.insert(xid).second) {
            ++duplicate_replies;  // the same reply twice
          } else {
            ++my_received;
          }
        }
      };

      // Self-clocking: cap the requests outstanding per client so that
      // even on a starved box (TSan CI) unserved datagrams can never
      // pile past a socket's SO_RCVBUF — a kernel-level drop there
      // would be a loss no server counter accounts for, and the books
      // below must stay exact.  Sized for the worst case: the reuseport
      // flow hash may land ALL clients on one shard socket, so
      // kUdpClients * kMaxOutstanding datagrams (~2-4 KB skb truesize
      // each) must fit one default ~212 KB rcvbuf.
      constexpr std::int64_t kMaxOutstanding = 8;
      while (std::chrono::steady_clock::now() < deadline) {
        const int window = 1 + static_cast<int>(rng.below(8));
        for (int i = 0; i < window; ++i) {
          const std::uint32_t xid = next_xid++;
          const std::size_t len = encode_random_call(rng, xid, send_buf);
          if (!sock.send_to(server, ByteSpan(send_buf.data(), len)).is_ok()) {
            ++client_errors;
            break;
          }
          sent_xids.insert(xid);
          ++my_sent;
        }
        // Collect what has arrived; replies may trickle across windows.
        drain(20);
        while (my_sent - my_received > kMaxOutstanding &&
               std::chrono::steady_clock::now() < deadline) {
          drain(50);
        }
      }
      // Final quiet-period drain so in-flight replies get counted.
      for (int i = 0; i < 10 && my_received < my_sent; ++i) drain(100);
      udp_sent += my_sent;
      udp_received += my_received;
    });
  }

  // ---- TCP clients: PIPELINED random calls, random mid-record aborts --
  //
  // Each burst writes up to stress_tcp_depth() complete records before
  // reading a single reply — the shape the per-connection reply ring
  // reorders under the hood (requests execute concurrently across the
  // shard workers).  The books are strict: reply i of a fully-written
  // burst must carry EXACTLY call i's XID and echo call i's array (no
  // reordering, no leaks, no replies minted from thin air), and every
  // fully-written call must get its reply.  ~10% of calls still abort
  // mid-record, killing the burst's connection — completed-but-unread
  // predecessors in that burst are intentionally not counted.
  constexpr int kTcpClients = 2;
  const int tcp_depth = stress_tcp_depth();
  std::atomic<std::int64_t> tcp_completed{0}, tcp_aborts{0};
  std::atomic<int> tcp_order_violations{0};
  for (int c = 0; c < kTcpClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng{seed + 0xABCDEFull + static_cast<std::uint64_t>(c) * 0x777ull};
      std::uint32_t next_xid = 0x60000000u + 0x01000000u *
                                                static_cast<std::uint32_t>(c);
      Bytes frame(16384), reply(16384), wire;

      auto read_exact = [&](net::TcpConn& conn, std::uint8_t* dst,
                            std::size_t n) {
        std::size_t off = 0;
        const auto give_up = std::chrono::steady_clock::now() +
                             std::chrono::seconds(5);
        while (off < n && std::chrono::steady_clock::now() < give_up) {
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

      struct Sent {
        std::uint32_t xid = 0;
        std::uint32_t n = 0;
      };
      std::vector<Sent> burst;

      while (std::chrono::steady_clock::now() < deadline) {
        auto conn = net::TcpConn::connect(runtime.tcp_addr());
        if (!conn) {
          ++client_errors;
          return;
        }
        const int bursts = 1 + static_cast<int>(rng.below(4));
        bool conn_dead = false;
        for (int b = 0; b < bursts && !conn_dead; ++b) {
          if (std::chrono::steady_clock::now() >= deadline) break;
          const int calls =
              1 + static_cast<int>(rng.below(
                      static_cast<std::uint32_t>(tcp_depth)));
          burst.clear();
          wire.clear();
          for (int i = 0; i < calls && !conn_dead; ++i) {
            const std::uint32_t xid = next_xid++;
            xdr::XdrMem x(MutableByteSpan(frame.data() + 4, frame.size() - 4),
                          xdr::XdrOp::kEncode);
            rpc::CallHeader hdr;
            hdr.xid = xid;
            hdr.prog = kProg;
            hdr.vers = kVers;
            hdr.proc = kProcEchoArray;
            const std::uint32_t n = 1 + rng.below(400);
            std::uint32_t count = n;
            bool ok = rpc::xdr_call_header(x, hdr) && xdr::xdr_u_int(x, count);
            for (std::uint32_t j = 0; ok && j < n; ++j) {
              std::int32_t v = static_cast<std::int32_t>(j * 2654435761u);
              ok = xdr::xdr_int(x, v);
            }
            if (!ok) {
              ++client_errors;
              conn_dead = true;
              break;
            }
            const std::uint32_t len = static_cast<std::uint32_t>(x.getpos());
            store_be32(frame.data(), xdr::XdrRec::kLastFragFlag | len);
            // ~10% of calls abort mid-record: ship the burst so far
            // plus a prefix of this record, hang up.  Predecessors in
            // the burst reached the server complete and execute there;
            // their replies die with the connection — harming nobody.
            if (rng.chance(0.10)) {
              const std::size_t cut = 1 + rng.below(len);
              wire.insert(wire.end(), frame.begin(),
                          frame.begin() + static_cast<std::ptrdiff_t>(cut));
              (void)!conn->write_all(ByteSpan(wire.data(), wire.size()))
                  .is_ok();
              ++tcp_aborts;
              conn_dead = true;
              break;
            }
            wire.insert(wire.end(), frame.begin(),
                        frame.begin() +
                            static_cast<std::ptrdiff_t>(4 + len));
            burst.push_back(Sent{xid, n});
          }
          if (conn_dead) break;
          if (!conn->write_all(ByteSpan(wire.data(), wire.size())).is_ok()) {
            break;  // server may have reset a previous abort; reconnect
          }
          // Drain the whole burst: replies must land 1:1, in exactly
          // the order the calls went out.
          for (std::size_t i = 0; i < burst.size(); ++i) {
            std::uint8_t rhdr[4];
            if (!read_exact(*conn, rhdr, 4)) {
              ++client_errors;  // a fully-written call must get a reply
              conn_dead = true;
              break;
            }
            const std::uint32_t rlen =
                load_be32(rhdr) & ~xdr::XdrRec::kLastFragFlag;
            if (rlen > reply.size()) reply.resize(rlen);
            if (!read_exact(*conn, reply.data(), rlen)) {
              ++client_errors;
              conn_dead = true;
              break;
            }
            const std::uint32_t n = burst[i].n;
            if (load_be32(reply.data()) != burst[i].xid) {
              ++tcp_order_violations;  // wrong position in the stream
              conn_dead = true;
              break;
            }
            if (rlen < 4u * n + 8u ||
                load_be32(reply.data() + rlen - 4 * n - 4) != n) {
              ++client_errors;  // right XID, wrong payload
              conn_dead = true;
              break;
            }
            ++tcp_completed;
          }
        }
        conn->close();
      }
    });
  }

  for (auto& t : threads) t.join();

  // ---- the books ----------------------------------------------------
  EXPECT_EQ(client_errors.load(), 0);
  EXPECT_EQ(duplicate_replies.load(), 0);
  EXPECT_EQ(foreign_replies.load(), 0);
  EXPECT_EQ(tcp_order_violations.load(), 0)
      << "a pipelined reply overtook an earlier call on the wire";
  EXPECT_GT(udp_sent.load(), 0);
  EXPECT_GT(tcp_completed.load(), 0);

  // Every request either got its one reply or was lost somewhere the
  // SERVER accounted: queue-overload drops or twice-refused sends.  (A
  // reply datagram cannot vanish on loopback without one of those
  // counters moving.)
  const std::int64_t lost = udp_sent.load() - udp_received.load();
  const std::int64_t accounted =
      runtime.stats().overload_drops.load() +
      runtime.stats().reply_send_failures.load();
  EXPECT_GE(lost, 0);
  EXPECT_LE(lost, accounted)
      << "replies vanished without server-side accounting: sent="
      << udp_sent.load() << " received=" << udp_received.load()
      << " overload_drops=" << runtime.stats().overload_drops.load()
      << " reply_send_failures="
      << runtime.stats().reply_send_failures.load();

  // ---- the metrics books --------------------------------------------
  //
  // The latency histograms must agree with the XID accounting above:
  // the server records one e2e sample per reply it actually put on the
  // wire, so the sample count is bracketed by what the clients
  // received (a reply cannot arrive unrecorded... modulo the recording
  // happening just after the send — hence the bounded catch-up wait)
  // and what they sent.
  if (common::metrics_enabled()) {
    const auto catch_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (static_cast<std::int64_t>(
               runtime.latency_snapshot().udp_e2e.total()) <
               udp_received.load() &&
           std::chrono::steady_clock::now() < catch_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const rpc::RuntimeLatencySnapshot lat = runtime.latency_snapshot();
    EXPECT_GE(static_cast<std::int64_t>(lat.udp_e2e.total()),
              udp_received.load());
    EXPECT_LE(static_cast<std::int64_t>(lat.udp_e2e.total()),
              udp_sent.load());
    // TCP e2e is recorded when the ordered ring emits the reply, which
    // precedes the client reading it: every completed call is counted.
    EXPECT_GE(static_cast<std::int64_t>(lat.tcp_e2e.total()),
              tcp_completed.load());
    // Queue-wait and handle samples land once per executed job (UDP and
    // TCP combined), before the reply is sent.  Jobs from aborted TCP
    // bursts may still be mid-handler at snapshot time, so the pop-side
    // count can lead the handle-side count, never trail it.
    EXPECT_GE(static_cast<std::int64_t>(lat.handle.total()),
              udp_received.load() + tcp_completed.load());
    EXPECT_GE(lat.queue.total(), lat.handle.total());

    // Every request was traced (trace_sample=1): stage attribution
    // must never go negative and never exceed the record's total.
    const std::vector<common::TraceRecord> traces = runtime.trace_snapshot();
    EXPECT_FALSE(traces.empty());
    for (const auto& t : traces) {
      std::int64_t stage_sum = 0;
      for (std::size_t s = 0; s < common::kTraceStageCount; ++s) {
        EXPECT_GE(t.stage_ns[s], 0)
            << "negative stage " << s << " in xid " << t.xid;
        stage_sum += t.stage_ns[s];
      }
      EXPECT_GE(t.total_ns, 0) << "negative total in xid " << t.xid;
      EXPECT_LE(stage_sum, t.total_ns) << "stages overrun total in xid "
                                       << t.xid;
      EXPECT_LT(t.shard, cfg.reactors);
    }
  }

  // The runtime survives the soak and still serves.
  {
    net::UdpSocket sock;
    ASSERT_TRUE(sock.ok());
    Bytes msg(128);
    xdr::XdrMem x(MutableByteSpan(msg.data(), msg.size()),
                  xdr::XdrOp::kEncode);
    rpc::CallHeader hdr;
    hdr.xid = 0xFEEDF00Du;
    hdr.prog = kProg;
    hdr.vers = kVers;
    hdr.proc = kProcEchoInt;
    std::int32_t v = 31337;
    ASSERT_TRUE(rpc::xdr_call_header(x, hdr));
    ASSERT_TRUE(xdr::xdr_int(x, v));
    ASSERT_TRUE(sock.send_to(runtime.udp_addr(),
                             ByteSpan(msg.data(), x.getpos()))
                    .is_ok());
    Bytes reply(256);
    auto r = sock.recv_from(nullptr,
                            MutableByteSpan(reply.data(), reply.size()), 2000);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(load_be32(reply.data()), 0xFEEDF00Du);
  }

  const auto arena = runtime.arena_stats();
  std::printf(
      "soak: %lld UDP sent, %lld received (%lld lost, %lld accounted), "
      "%lld TCP calls @depth %d, %lld aborts, %lld conns, %lld resets, "
      "%lld steals, arena %lld hits / %lld misses\n",
      static_cast<long long>(udp_sent.load()),
      static_cast<long long>(udp_received.load()),
      static_cast<long long>(lost), static_cast<long long>(accounted),
      static_cast<long long>(tcp_completed.load()), tcp_depth,
      static_cast<long long>(tcp_aborts.load()),
      static_cast<long long>(runtime.stats().tcp_connections.load()),
      static_cast<long long>(runtime.stats().conn_resets.load()),
      static_cast<long long>(runtime.stats().work_steals.load()),
      static_cast<long long>(arena.hits), static_cast<long long>(arena.misses));
  runtime.stop();
}

// ---- KV soak (TEMPO_STRESS_KV=1) ------------------------------------
//
// A client mix of puts/gets/deletes hammers a live KvService through
// the string-heavy generic RPC tier while ONE replica tails the commit
// log over the fixed-shape plan/JIT tier, for the same seeded,
// bounded wall-clock window as the runtime soak.  At soak end the
// books must balance:
//
//   * every primary commit (WAL sequence) is applied on the replica
//     EXACTLY once: per-shard last_applied equality, and the replica's
//     applied count equals the summed primary sequences;
//   * the store-level double-apply counter stays 0 (the pinned
//     replication-safety invariant, kv.repl_duplicate_applies);
//   * the replica's live state is byte-identical to the primary's
//     (dump + digest equality);
//   * every RPC the clients issued succeeded, and the primary
//     committed at least one sequence per acknowledged mutation.
TEST(StressSoak, KvClientMixBalancesCommitAndReplicaBooks) {
  if (!stress_kv_enabled()) {
    GTEST_SKIP() << "set TEMPO_STRESS_KV=1 to run the KV soak";
  }

  kv::KvService::Options kv_opts;
  kv_opts.shards = 2;
  auto primary = kv::KvService::open(kv_opts);
  ASSERT_TRUE(primary.is_ok());

  rpc::SvcRegistry primary_reg;
  (*primary)->install(primary_reg);
  rpc::EventServerRuntimeConfig primary_cfg;
  primary_cfg.workers = 2;
  primary_cfg.enable_tcp = false;
  primary_cfg.backend = stress_backend();
  rpc::EventServerRuntime primary_rt(primary_reg, primary_cfg);
  ASSERT_TRUE(primary_rt.start().is_ok());

  rpc::SvcRegistry replica_reg;
  kv::KvReplicaSink sink(kv_opts.shards);
  sink.install(replica_reg);
  rpc::EventServerRuntimeConfig replica_cfg;
  replica_cfg.workers = 2;
  replica_cfg.enable_tcp = false;
  replica_cfg.backend = stress_backend();
  rpc::EventServerRuntime replica_rt(replica_reg, replica_cfg);
  ASSERT_TRUE(replica_rt.start().is_ok());

  kv::KvReplicator repl(**primary, replica_rt.udp_addr());
  ASSERT_TRUE(repl.start().is_ok());

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(stress_ms());
  const std::uint64_t seed = stress_seed();

  constexpr int kKvClients = 3;
  std::atomic<std::int64_t> kv_mutations{0}, kv_reads{0}, kv_hits{0};
  std::atomic<int> kv_errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kKvClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng{seed + 0x4B56ull + static_cast<std::uint64_t>(c) * 0x9E37ull};
      rpc::CallOptions copts;
      copts.retry_timeout_ms = 100;
      copts.total_timeout_ms = 5000;
      kv::KvClient client(primary_rt.udp_addr(), copts);
      if (!client.ok()) {
        ++kv_errors;
        return;
      }
      // Keys are partitioned per client ("cN-…") so deletes and puts
      // from different threads never interleave on one key; the value
      // mix spans the small and mid ship size classes.
      while (std::chrono::steady_clock::now() < deadline) {
        const std::string key = "c" + std::to_string(c) + "-key-" +
                                std::to_string(rng.below(64));
        const std::uint32_t pick = rng.below(10);
        if (pick < 6) {
          std::string value;
          if (rng.chance(0.2)) {
            value.assign(500 + rng.below(1500), 'x');
          } else {
            value = "v" + std::to_string(rng.next() % 100000);
          }
          if (client.put(key, value).is_ok()) {
            ++kv_mutations;
          } else {
            ++kv_errors;
          }
        } else if (pick < 8) {
          if (client.del(key).is_ok()) {
            ++kv_mutations;
          } else {
            ++kv_errors;
          }
        } else {
          auto got = client.get(key);
          if (got.is_ok()) {
            ++kv_reads;
            if (got->has_value()) ++kv_hits;
          } else {
            ++kv_errors;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Drain the ship stream, then settle the books.
  ASSERT_TRUE(repl.wait_caught_up(60000)) << "replica lag " << repl.lag();
  repl.stop();

  EXPECT_EQ(kv_errors.load(), 0);
  EXPECT_GT(kv_mutations.load(), 0);
  EXPECT_GT(kv_reads.load(), 0);

  std::int64_t primary_commits = 0;
  for (std::uint32_t s = 0; s < (*primary)->shard_count(); ++s) {
    EXPECT_EQ(sink.last_applied(s), (*primary)->store(s).last_applied())
        << "shard " << s;
    EXPECT_EQ(sink.store(s).dump(), (*primary)->store(s).dump())
        << "shard " << s;
    primary_commits +=
        static_cast<std::int64_t>((*primary)->store(s).last_applied());
  }
  // Every acknowledged mutation committed a sequence (retries may add
  // more, never fewer), and the replica applied each exactly once.
  EXPECT_GE(primary_commits, kv_mutations.load());
  EXPECT_EQ(sink.stats().applied.load(), primary_commits);
  EXPECT_EQ(sink.duplicate_applies(), 0);
  EXPECT_EQ(sink.digest(), (*primary)->digest());
  if (common::metrics_enabled()) {
    auto snap = common::metrics().snapshot();
    EXPECT_EQ(snap.counters["kv.repl_duplicate_applies"], 0);
  }

  std::printf(
      "kv soak: %lld mutations, %lld reads (%lld hits), %lld commits, "
      "%lld replica applies, %lld duplicate skips, %lld ship calls\n",
      static_cast<long long>(kv_mutations.load()),
      static_cast<long long>(kv_reads.load()),
      static_cast<long long>(kv_hits.load()),
      static_cast<long long>(primary_commits),
      static_cast<long long>(sink.stats().applied.load()),
      static_cast<long long>(sink.stats().duplicate_skips.load()),
      static_cast<long long>(repl.stats().ship_calls.load()));

  primary_rt.stop();
  replica_rt.stop();
}

}  // namespace
}  // namespace tempo
