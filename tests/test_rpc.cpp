// RPC engine tests: message codecs, auth, dispatch + protocol error
// replies, real loopback UDP/TCP round trips, and retransmission
// behaviour under simulated loss.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/endian.h"
#include "net/simnet.h"
#include "net/udp.h"
#include "rpc/auth.h"
#include "rpc/client.h"
#include "rpc/svc.h"
#include "xdr/xdrmem.h"

namespace tempo::rpc {
namespace {

using xdr::XdrMem;
using xdr::XdrOp;
using xdr::XdrStream;

TEST(RpcMsg, CallHeaderGolden) {
  Bytes buf(256);
  XdrMem enc(MutableByteSpan(buf.data(), buf.size()), XdrOp::kEncode);
  CallHeader hdr;
  hdr.xid = 0xABCD1234;
  hdr.prog = 100003;  // NFS
  hdr.vers = 2;
  hdr.proc = 1;
  ASSERT_TRUE(xdr_call_header(enc, hdr));
  EXPECT_EQ(enc.getpos(), 40u);  // AUTH_NONE cred+verf are 4 words
  EXPECT_EQ(load_be32(buf.data() + 0), 0xABCD1234u);
  EXPECT_EQ(load_be32(buf.data() + 4), 0u);       // CALL
  EXPECT_EQ(load_be32(buf.data() + 8), 2u);       // rpcvers
  EXPECT_EQ(load_be32(buf.data() + 12), 100003u);

  XdrMem dec(MutableByteSpan(buf.data(), 40), XdrOp::kDecode);
  CallHeader out;
  ASSERT_TRUE(xdr_call_header(dec, out));
  EXPECT_EQ(out.xid, hdr.xid);
  EXPECT_EQ(out.prog, hdr.prog);
  EXPECT_EQ(out.proc, hdr.proc);
  EXPECT_EQ(out.cred.flavor, AuthFlavor::kNone);
}

TEST(RpcMsg, ReplyHeaderVariants) {
  for (auto astat :
       {AcceptStat::kSuccess, AcceptStat::kProgUnavail,
        AcceptStat::kProgMismatch, AcceptStat::kProcUnavail,
        AcceptStat::kGarbageArgs, AcceptStat::kSystemErr}) {
    Bytes buf(256);
    XdrMem enc(MutableByteSpan(buf.data(), buf.size()), XdrOp::kEncode);
    ReplyHeader hdr;
    hdr.xid = 7;
    hdr.accept_stat = astat;
    hdr.mismatch_low = 1;
    hdr.mismatch_high = 3;
    ASSERT_TRUE(xdr_reply_header(enc, hdr));
    XdrMem dec(MutableByteSpan(buf.data(), enc.getpos()), XdrOp::kDecode);
    ReplyHeader out;
    ASSERT_TRUE(xdr_reply_header(dec, out));
    EXPECT_EQ(out.accept_stat, astat);
    if (astat == AcceptStat::kProgMismatch) {
      EXPECT_EQ(out.mismatch_low, 1u);
      EXPECT_EQ(out.mismatch_high, 3u);
    }
  }
  // Denied variants.
  for (auto rstat : {RejectStat::kRpcMismatch, RejectStat::kAuthError}) {
    Bytes buf(256);
    XdrMem enc(MutableByteSpan(buf.data(), buf.size()), XdrOp::kEncode);
    ReplyHeader hdr;
    hdr.stat = ReplyStat::kDenied;
    hdr.reject_stat = rstat;
    hdr.auth_stat = AuthStat::kBadCred;
    ASSERT_TRUE(xdr_reply_header(enc, hdr));
    XdrMem dec(MutableByteSpan(buf.data(), enc.getpos()), XdrOp::kDecode);
    ReplyHeader out;
    ASSERT_TRUE(xdr_reply_header(dec, out));
    EXPECT_EQ(out.stat, ReplyStat::kDenied);
    EXPECT_EQ(out.reject_stat, rstat);
  }
}

TEST(Auth, AuthSysRoundTrip) {
  AuthSysParams params;
  params.stamp = 424242;
  params.machine_name = "testhost";
  params.uid = 1000;
  params.gid = 100;
  params.gids = {100, 4, 27};
  OpaqueAuth cred = make_auth_sys(params);
  EXPECT_EQ(cred.flavor, AuthFlavor::kSys);
  AuthSysParams out;
  ASSERT_TRUE(parse_auth_sys(ByteSpan(cred.body.data(), cred.body.size()),
                             &out));
  EXPECT_EQ(out.machine_name, "testhost");
  EXPECT_EQ(out.uid, 1000u);
  EXPECT_EQ(out.gids, params.gids);
}

// ---- dispatch over the transport-independent core ----------------------

SvcHandler echo_int_handler() {
  return [](XdrStream& in, XdrStream& out) {
    std::int32_t v = 0;
    if (!xdr::xdr_int(in, v)) return false;
    return xdr::xdr_int(out, v);
  };
}

Bytes make_call(std::uint32_t xid, std::uint32_t prog, std::uint32_t vers,
                std::uint32_t proc, std::uint32_t rpcvers = kRpcVersion,
                std::int32_t arg = 5) {
  Bytes buf(256);
  XdrMem enc(MutableByteSpan(buf.data(), buf.size()), XdrOp::kEncode);
  CallHeader hdr;
  hdr.xid = xid;
  hdr.rpcvers = rpcvers;
  hdr.prog = prog;
  hdr.vers = vers;
  hdr.proc = proc;
  EXPECT_TRUE(xdr_call_header(enc, hdr));
  EXPECT_TRUE(xdr::xdr_int(enc, arg));
  buf.resize(enc.getpos());
  return buf;
}

ReplyHeader parse_reply(const Bytes& reply) {
  Bytes copy = reply;
  XdrMem dec(MutableByteSpan(copy.data(), copy.size()), XdrOp::kDecode);
  ReplyHeader hdr;
  EXPECT_TRUE(xdr_reply_header(dec, hdr));
  return hdr;
}

TEST(Svc, DispatchSuccessAndErrors) {
  SvcRegistry reg;
  reg.register_proc(300, 1, 1, echo_int_handler());
  reg.register_proc(300, 2, 1, echo_int_handler());

  // Success.
  Bytes reply = reg.handle_datagram(make_call(10, 300, 1, 1));
  ASSERT_FALSE(reply.empty());
  ReplyHeader h = parse_reply(reply);
  EXPECT_EQ(h.xid, 10u);
  EXPECT_EQ(h.accept_stat, AcceptStat::kSuccess);
  EXPECT_EQ(load_be32(reply.data() + reply.size() - 4), 5u);  // echoed

  // RPC version mismatch -> denied.
  h = parse_reply(reg.handle_datagram(make_call(11, 300, 1, 1, 3)));
  EXPECT_EQ(h.stat, ReplyStat::kDenied);
  EXPECT_EQ(h.reject_stat, RejectStat::kRpcMismatch);

  // Unknown program.
  h = parse_reply(reg.handle_datagram(make_call(12, 999, 1, 1)));
  EXPECT_EQ(h.accept_stat, AcceptStat::kProgUnavail);

  // Unknown version: mismatch with bounds.
  h = parse_reply(reg.handle_datagram(make_call(13, 300, 9, 1)));
  EXPECT_EQ(h.accept_stat, AcceptStat::kProgMismatch);
  EXPECT_EQ(h.mismatch_low, 1u);
  EXPECT_EQ(h.mismatch_high, 2u);

  // Unknown procedure.
  h = parse_reply(reg.handle_datagram(make_call(14, 300, 1, 42)));
  EXPECT_EQ(h.accept_stat, AcceptStat::kProcUnavail);

  // Garbage args: handler fails to decode (truncated body).
  Bytes call = make_call(15, 300, 1, 1);
  call.resize(call.size() - 4);
  h = parse_reply(reg.handle_datagram(ByteSpan(call.data(), call.size())));
  EXPECT_EQ(h.accept_stat, AcceptStat::kGarbageArgs);

  // Undecodable header: dropped.
  Bytes junk = {1, 2, 3};
  EXPECT_TRUE(reg.handle_datagram(ByteSpan(junk.data(), junk.size())).empty());

  EXPECT_EQ(reg.stats().requests, 7);
  EXPECT_EQ(reg.stats().success, 1);
  EXPECT_EQ(reg.stats().undecodable, 1);
}

// ---- zero-copy dispatch: span path vs legacy copy path ------------------

SvcHandler echo_array_handler() {
  return [](XdrStream& in, XdrStream& out) {
    std::uint32_t count = 0;
    if (!xdr::xdr_u_int(in, count) || count > 1u << 18) return false;
    if (!xdr::xdr_u_int(out, count)) return false;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::int32_t v = 0;
      if (!xdr::xdr_int(in, v) || !xdr::xdr_int(out, v)) return false;
    }
    return true;
  };
}

Bytes make_array_call(std::uint32_t xid, std::uint32_t count) {
  Bytes buf(64 + 4 * static_cast<std::size_t>(count));
  XdrMem enc(MutableByteSpan(buf.data(), buf.size()), XdrOp::kEncode);
  CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = 300;
  hdr.vers = 1;
  hdr.proc = 2;
  EXPECT_TRUE(xdr_call_header(enc, hdr));
  EXPECT_TRUE(xdr::xdr_u_int(enc, count));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::int32_t v = static_cast<std::int32_t>(i * 2654435761u);
    EXPECT_TRUE(xdr::xdr_int(enc, v));
  }
  buf.resize(enc.getpos());
  return buf;
}

void install_corpus_procs(SvcRegistry& reg) {
  reg.register_proc(300, 1, 1, echo_int_handler());
  reg.register_proc(300, 2, 1, echo_int_handler());
  reg.register_proc(300, 1, 2, echo_array_handler());
}

// The whole request corpus — success paths, every protocol error, and
// garbage — must produce byte-identical replies and identical stats
// through the legacy copy path (handle_datagram) and the zero-copy span
// path (handle_request), with the span path never touching scratch.
TEST(Svc, ZeroCopySpanPathMatchesLegacyCopyPath) {
  std::vector<Bytes> corpus;
  corpus.push_back(make_call(10, 300, 1, 1));       // success
  corpus.push_back(make_call(11, 300, 1, 1, 3));    // RPC_MISMATCH
  corpus.push_back(make_call(12, 999, 1, 1));       // PROG_UNAVAIL
  corpus.push_back(make_call(13, 300, 9, 1));       // PROG_MISMATCH
  corpus.push_back(make_call(14, 300, 1, 42));      // PROC_UNAVAIL
  Bytes truncated = make_call(15, 300, 1, 1);
  truncated.resize(truncated.size() - 4);           // GARBAGE_ARGS
  corpus.push_back(truncated);
  corpus.push_back(Bytes{1, 2, 3});                 // undecodable: drop
  corpus.push_back(make_array_call(16, 1));
  corpus.push_back(make_array_call(17, 100));
  corpus.push_back(make_array_call(18, 2000));      // paper's array size

  SvcRegistry legacy;
  SvcRegistry span;
  install_corpus_procs(legacy);
  install_corpus_procs(span);

  Bytes reply_buf;
  for (const auto& req : corpus) {
    const Bytes via_legacy =
        legacy.handle_datagram(ByteSpan(req.data(), req.size()));

    // The span path decodes the caller's buffer in place; hand it a
    // private mutable copy exactly like a transport receive buffer.
    Bytes receive = req;
    reply_buf.assign(reply_capacity(receive.size()), 0xEE);
    const std::size_t n = span.handle_request(
        ByteSpan(receive.data(), receive.size()),
        MutableByteSpan(reply_buf.data(), reply_buf.size()));
    const Bytes via_span(reply_buf.begin(),
                         reply_buf.begin() + static_cast<std::ptrdiff_t>(n));

    EXPECT_EQ(via_legacy, via_span);
    EXPECT_EQ(receive, req);  // dispatch only ever reads the request
  }

  EXPECT_EQ(legacy.stats().requests, span.stats().requests);
  EXPECT_EQ(legacy.stats().success, span.stats().success);
  EXPECT_EQ(legacy.stats().protocol_errors, span.stats().protocol_errors);
  EXPECT_EQ(legacy.stats().undecodable, span.stats().undecodable);
  EXPECT_EQ(span.stats().success, 4);
  EXPECT_EQ(span.stats().undecodable, 1);
}

// Reply buffers must scale with the request: a ~780 KB echo (200000
// ints) exceeds the old fixed 65000-byte reply scratch, which made the
// handler's encode fail and turned the reply into GARBAGE_ARGS.
TEST(Svc, LargeEchoReplySizesFromRequest) {
  SvcRegistry reg;
  install_corpus_procs(reg);
  const std::uint32_t count = 200000;
  const Bytes req = make_array_call(20, count);
  ASSERT_GT(req.size(), 65000u * 4);

  const Bytes reply = reg.handle_datagram(ByteSpan(req.data(), req.size()));
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(parse_reply(reply).accept_stat, AcceptStat::kSuccess);
  EXPECT_GT(reply.size(), 4u * count);
  EXPECT_EQ(reg.stats().success, 1);
  EXPECT_EQ(reg.stats().protocol_errors, 0);
}

TEST(Svc, AuthCheckerRejects) {
  SvcRegistry reg;
  reg.register_proc(300, 1, 1, echo_int_handler());
  reg.set_auth_checker([](const OpaqueAuth& cred) {
    return cred.flavor == AuthFlavor::kSys ? AuthStat::kOk
                                           : AuthStat::kTooWeak;
  });
  ReplyHeader h = parse_reply(reg.handle_datagram(make_call(1, 300, 1, 1)));
  EXPECT_EQ(h.stat, ReplyStat::kDenied);
  EXPECT_EQ(h.reject_stat, RejectStat::kAuthError);
}

// Clients constructed in a tight loop used to seed their XID streams
// from steady_clock microseconds alone, so two constructions in the
// same microsecond started identical streams and could adopt each
// other's replies.  Seeds must be distinct no matter how fast clients
// are created.
TEST(Client, InitialXidsDistinctForClientsCreatedInTightLoop) {
  // The deterministic pin: with the CLOCK FROZEN (every construction in
  // the same microsecond — the case a multicore host hits naturally),
  // N seeds must still be N distinct values.  Clock-only seeding
  // returns the same XID for all of them.
  {
    std::set<std::uint32_t> seeds;
    constexpr int kSameMicrosecond = 1000;
    for (int i = 0; i < kSameMicrosecond; ++i) {
      seeds.insert(initial_xid_seed(0xDEADBEEFu));
    }
    EXPECT_EQ(seeds.size(), static_cast<std::size_t>(kSameMicrosecond));
  }

  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  // And end-to-end: concurrently constructed real clients (which land
  // in the same microsecond on any multicore host) get distinct seeds.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::vector<std::vector<std::uint32_t>> per_thread(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      per_thread[static_cast<std::size_t>(t)].reserve(kPerThread);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        UdpClient client(sock, net::Addr{0x7F000001u, 9}, 300, 1);
        per_thread[static_cast<std::size_t>(t)].push_back(client.last_xid());
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  std::set<std::uint32_t> seeds;
  for (const auto& v : per_thread) seeds.insert(v.begin(), v.end());
  EXPECT_EQ(seeds.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

// ---- real loopback UDP round trip ---------------------------------------

TEST(Client, UdpLoopbackEcho) {
  net::UdpSocket server_sock;
  ASSERT_TRUE(server_sock.ok());
  SvcRegistry reg;
  reg.register_proc(400, 1, 3, echo_int_handler());
  UdpServer server(server_sock, reg);

  std::atomic<bool> stop{false};
  std::thread server_thread([&] { server.serve(stop); });

  net::UdpSocket client_sock;
  ASSERT_TRUE(client_sock.ok());
  UdpClient client(client_sock, server_sock.local_addr(), 400, 1);

  for (std::int32_t i = 0; i < 20; ++i) {
    std::int32_t out = -1;
    Status st = client.call(
        3, [&](XdrStream& x) { return xdr::xdr_int(x, i); },
        [&](XdrStream& x) { return xdr::xdr_int(x, out); });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(out, i);
  }

  // Unknown procedure maps to NOT_FOUND.
  Status st = client.call(99, nullptr, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);

  stop = true;
  server_thread.join();
}

TEST(Client, UdpTimeoutWhenNoServer) {
  net::UdpSocket client_sock;
  ASSERT_TRUE(client_sock.ok());
  CallOptions opts;
  opts.retry_timeout_ms = 30;
  opts.total_timeout_ms = 120;
  UdpClient client(client_sock, net::Addr{0x7F000001, 1},  // nothing there
                   400, 1, opts);
  Status st = client.call(1, nullptr, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_GE(client.stats().retransmissions, 2);
}

// ---- TCP round trip ------------------------------------------------------

TEST(Client, TcpLoopbackEcho) {
  net::TcpListener listener;
  ASSERT_TRUE(listener.ok());
  SvcRegistry reg;
  reg.register_proc(500, 1, 1, echo_int_handler());
  TcpServer server(listener, reg);

  std::atomic<bool> stop{false};
  std::thread server_thread([&] { server.serve_one_connection(stop, 3000); });

  TcpClient client(listener.local_addr(), 500, 1);
  ASSERT_TRUE(client.ok());
  for (std::int32_t i = 0; i < 10; ++i) {
    std::int32_t out = -1;
    Status st = client.call(
        1, [&](XdrStream& x) { return xdr::xdr_int(x, i); },
        [&](XdrStream& x) { return xdr::xdr_int(x, out); });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(out, i);
  }
  stop = true;
  server_thread.join();
}

// ---- retransmission under loss (simulated network) ----------------------

TEST(Client, RetransmitsThroughLossyLink) {
  net::LinkParams lossy;
  lossy.drop_prob = 0.4;
  lossy.latency_us = 50;
  net::SimNetwork net(lossy, /*fault_seed=*/7);

  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();
  SvcRegistry reg;
  reg.register_proc(600, 1, 1, echo_int_handler());
  attach_sim_server(server_ep, reg);

  CallOptions opts;
  opts.retry_timeout_ms = 20;
  opts.total_timeout_ms = 10000;
  UdpClient client(*client_ep, server_ep->local_addr(), 600, 1, opts);

  int ok = 0;
  for (std::int32_t i = 0; i < 50; ++i) {
    std::int32_t out = -1;
    Status st = client.call(
        1, [&](XdrStream& x) { return xdr::xdr_int(x, i); },
        [&](XdrStream& x) { return xdr::xdr_int(x, out); });
    if (st.is_ok()) {
      EXPECT_EQ(out, i);
      ++ok;
    }
  }
  // With 40% loss per leg and aggressive retry, calls still succeed.
  EXPECT_EQ(ok, 50);
  EXPECT_GT(client.stats().retransmissions, 0);
  EXPECT_GT(net.packets_dropped(), 0);
}

}  // namespace
}  // namespace tempo::rpc
