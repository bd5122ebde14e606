// SpecCache tests: memoization under concurrency (one build per key),
// byte-identical cached plans, negative caching, CachedSpecService
// building its one interface at construction and never again, one class
// build serving every length of a tail-array procedure, and the
// service wired into the record-stream TcpServer over real loopback TCP
// (the concurrent runtime's UDP and TCP paths are covered in
// test_reactor.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "core/stubspec.h"
#include "idl/interp.h"
#include "net/tcp.h"
#include "rpc/client.h"
#include "rpc/rpc_msg.h"
#include "rpc/svc.h"
#include "xdr/primitives.h"
#include "xdr/xdrmem.h"

namespace tempo::core {
namespace {

constexpr std::uint32_t kProg = 0x20000777;
constexpr std::uint32_t kVers = 1;

idl::ProcDef echo_array_proc(std::uint32_t bound = 2000) {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = 7;
  proc.arg_type = idl::t_array_var(idl::t_int(), bound);
  proc.res_type = idl::t_array_var(idl::t_int(), bound);
  return proc;
}

SpecConfig cfg_for(std::uint32_t n) {
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  return cfg;
}

bool plans_equal(const pe::Plan& a, const pe::Plan& b) {
  if (a.is_encode != b.is_encode || a.out_size != b.out_size ||
      a.expected_in != b.expected_in || a.words_needed != b.words_needed ||
      a.instrs.size() != b.instrs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.instrs.size(); ++i) {
    const auto& x = a.instrs[i];
    const auto& y = b.instrs[i];
    if (x.op != y.op || x.off != y.off || x.a != y.a || x.b != y.b ||
        x.imm != y.imm) {
      return false;
    }
  }
  return true;
}

TEST(SpecCache, HitsAfterFirstBuild) {
  SpecCache cache;
  const auto proc = echo_array_proc();
  auto a = cache.get_or_build(proc, kProg, kVers, cfg_for(50));
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  auto b = cache.get_or_build(proc, kProg, kVers, cfg_for(50));
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->get(), b->get());  // literally the same instance

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SpecCache, DistinctKeysBuildSeparately) {
  SpecCache cache;
  const auto proc = echo_array_proc();
  auto a = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
  auto b = cache.get_or_build(proc, kProg, kVers, cfg_for(20));
  SpecConfig unrolled = cfg_for(10);
  unrolled.unroll_factor = 4;  // same counts, different unroll: new key
  auto c = cache.get_or_build(proc, kProg, kVers, unrolled);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(c.is_ok());
  EXPECT_NE(a->get(), b->get());
  EXPECT_NE(a->get(), c->get());
  EXPECT_EQ(cache.stats().misses, 3);
}

// 8 threads hammer a small key set concurrently; each distinct key must
// build exactly once (miss count == distinct keys) and hand every
// thread the same shared instance per key.  Three traffic patterns:
// rotations over 6 and 8 keys, and a skewed mix where 7 of 8 lookups
// hit one dominant key while the rest churn 4 others.
TEST(SpecCache, ConcurrentHammeringBuildsOncePerKey) {
  constexpr int kThreads = 8;
  struct Pattern {
    const char* name;
    std::vector<std::uint32_t> sizes;
    int iters_per_thread;
    // Index into `sizes` of thread t's i-th lookup.
    std::size_t (*pick)(int t, int i, std::size_t keys);
  };
  const auto rotate = [](int t, int i, std::size_t keys) {
    return static_cast<std::size_t>(i + t) % keys;
  };
  const std::vector<Pattern> patterns = {
      {"rotate-6", {10, 20, 30, 40, 50, 60}, 200, rotate},
      {"rotate-8", {11, 22, 33, 44, 55, 66, 77, 88}, 200, rotate},
      {"skewed-7-of-8",
       {10, 30, 31, 32, 33},
       400,
       [](int t, int i, std::size_t /*keys*/) -> std::size_t {
         return i % 8 != 0 ? 0 : 1 + static_cast<std::size_t>((i + t) % 4);
       }},
  };

  for (const Pattern& pat : patterns) {
    SCOPED_TRACE(pat.name);
    SpecCache cache;
    const auto proc = echo_array_proc();
    const std::size_t keys = pat.sizes.size();

    std::vector<std::vector<const SpecializedInterface*>> seen(
        kThreads, std::vector<const SpecializedInterface*>(keys, nullptr));
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < pat.iters_per_thread; ++i) {
          const std::size_t k = pat.pick(t, i, keys);
          auto r =
              cache.get_or_build(proc, kProg, kVers, cfg_for(pat.sizes[k]));
          if (!r.is_ok()) {
            ++failures;
            continue;
          }
          if (seen[t][k] == nullptr) {
            seen[t][k] = r->get();
          } else if (seen[t][k] != r->get()) {
            ++failures;  // key rebuilt: memoization broken
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(failures.load(), 0);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, static_cast<std::int64_t>(keys));
    EXPECT_EQ(stats.hits,
              static_cast<std::int64_t>(kThreads) * pat.iters_per_thread -
                  static_cast<std::int64_t>(keys));
    // Every thread that looked a key up saw the same instance for it
    // (under the skewed mix a thread churns only one of the 4 others).
    for (std::size_t k = 0; k < keys; ++k) {
      const SpecializedInterface* first = nullptr;
      for (int t = 0; t < kThreads; ++t) {
        if (seen[t][k] == nullptr) continue;
        if (first == nullptr) first = seen[t][k];
        EXPECT_EQ(seen[t][k], first);
      }
      EXPECT_NE(first, nullptr);
    }
  }
}

// A cached interface must be indistinguishable from a freshly built one:
// identical residual instructions and identical wire bytes.
TEST(SpecCache, CachedPlansByteCompareEqualToFreshBuild) {
  const std::uint32_t n = 100;
  SpecCache cache;
  const auto proc = echo_array_proc();

  auto cached = cache.get_or_build(proc, kProg, kVers, cfg_for(n));
  ASSERT_TRUE(cached.is_ok());
  // Hit the entry a few times.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(n)).is_ok());
  }

  auto fresh = SpecializedInterface::build(proc, kProg, kVers, cfg_for(n));
  ASSERT_TRUE(fresh.is_ok());

  EXPECT_TRUE(plans_equal((*cached)->encode_call_plan(),
                          fresh->encode_call_plan()));
  EXPECT_TRUE(plans_equal((*cached)->decode_reply_plan(),
                          fresh->decode_reply_plan()));
  EXPECT_TRUE(plans_equal((*cached)->decode_args_plan(),
                          fresh->decode_args_plan()));
  EXPECT_TRUE(plans_equal((*cached)->encode_results_plan(),
                          fresh->encode_results_plan()));

  // And the residual code produces identical wire bytes.
  std::vector<std::uint32_t> args(n);
  for (std::uint32_t i = 0; i < n; ++i) args[i] = i * 2654435761u;
  Bytes out_cached((*cached)->encode_call_plan().out_size);
  Bytes out_fresh(fresh->encode_call_plan().out_size);
  ASSERT_EQ(run_plan_encode((*cached)->encode_call_plan(), args, 0x1234,
                            MutableByteSpan(out_cached.data(),
                                            out_cached.size())),
            pe::ExecStatus::kOk);
  ASSERT_EQ(run_plan_encode(fresh->encode_call_plan(), args, 0x1234,
                            MutableByteSpan(out_fresh.data(),
                                            out_fresh.size())),
            pe::ExecStatus::kOk);
  EXPECT_EQ(out_cached, out_fresh);
}

TEST(SpecCache, NegativeCachingDoesNotRebuildFailures) {
  SpecCache cache;
  idl::ProcDef bad;
  bad.name = "BAD";
  bad.number = 3;
  bad.arg_type = idl::t_string(64);  // not plan-eligible
  bad.res_type = idl::t_void();

  auto r1 = cache.get_or_build(bad, kProg, kVers, {});
  EXPECT_FALSE(r1.is_ok());
  auto r2 = cache.get_or_build(bad, kProg, kVers, {});
  EXPECT_FALSE(r2.is_ok());
  EXPECT_EQ(r1.status().code(), r2.status().code());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);  // pipeline ran once
  EXPECT_EQ(stats.hits, 1);    // second request served from the entry
  EXPECT_EQ(stats.build_failures, 1);
}

// ---- CachedSpecService: one build, at construction ---------------------

CachedSpecService::DynamicWordHandler echo_words() {
  return [](std::span<const std::uint32_t> /*arg_counts*/,
            std::span<const std::uint32_t> args,
            std::span<std::uint32_t> results) {
    std::copy(args.begin(), args.end(), results.begin());
    return true;
  };
}

Bytes generic_call(std::uint32_t xid, const idl::ProcDef& proc,
                   const idl::Value& args) {
  Bytes buf(rpc::kMaxUdpMessage);
  xdr::XdrMem x(MutableByteSpan(buf.data(), buf.size()), xdr::XdrOp::kEncode);
  rpc::CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = kProg;
  hdr.vers = kVers;
  hdr.proc = proc.number;
  EXPECT_TRUE(rpc::xdr_call_header(x, hdr));
  EXPECT_TRUE(idl::encode_value(x, *proc.arg_type, args));
  buf.resize(x.getpos());
  return buf;
}

Bytes generic_reply(std::uint32_t xid, const idl::ProcDef& proc,
                    const idl::Value& results) {
  Bytes buf(rpc::kMaxUdpMessage);
  xdr::XdrMem x(MutableByteSpan(buf.data(), buf.size()), xdr::XdrOp::kEncode);
  rpc::ReplyHeader hdr;
  hdr.xid = xid;
  EXPECT_TRUE(rpc::xdr_reply_header(x, hdr));
  EXPECT_TRUE(idl::encode_value(x, *proc.res_type, results));
  buf.resize(x.getpos());
  return buf;
}

// Dispatches one raw call in process and returns the raw reply.
Bytes serve_raw(rpc::SvcRegistry& reg, const Bytes& request) {
  Bytes reply(rpc::reply_capacity(request.size()));
  const std::size_t len =
      reg.handle_request(ByteSpan(request.data(), request.size()),
                         MutableByteSpan(reply.data(), reply.size()));
  reply.resize(len);
  return reply;
}

idl::Value uint_list(std::uint32_t n, Rng& rng) {
  idl::ValueList l;
  for (std::uint32_t i = 0; i < n; ++i) {
    idl::Value v;
    v.v = static_cast<std::int32_t>(rng.next_u32());
    l.push_back(std::move(v));
  }
  idl::Value out;
  out.v = std::move(l);
  return out;
}

// The service builds its interface before it serves anything, and no
// call builds, looks up or publishes another: every in-shape call runs
// the residual plans from the first, and each reply is the generic
// encoder's bytes.
TEST(CachedSpecService, BuildsAtConstructionAndNeverAgain) {
  {  // A tail array: one class build serves every length up to the cap.
    SpecCache cache;
    const auto proc = echo_array_proc();
    rpc::SvcRegistry reg;
    CachedSpecService service(cache, proc, kProg, kVers, echo_words());
    EXPECT_EQ(cache.stats().misses, 1);
    service.install(reg);

    Rng rng(22);
    for (std::uint32_t i = 0; i < 50; ++i) {
      const std::uint32_t n = i == 49 ? 2000 : i * 41;  // 0 .. the cap
      const idl::Value value = uint_list(n, rng);
      ASSERT_EQ(serve_raw(reg, generic_call(i + 1, proc, value)),
                generic_reply(i + 1, proc, value))
          << "length " << n;
    }
    EXPECT_EQ(service.stats().generic_path.load(), 0);
    EXPECT_EQ(service.stats().fast_path.load(), 50);
    const SpecCacheStats st = cache.stats();
    EXPECT_EQ(st.misses, 1);
    EXPECT_EQ(st.hits, 0);  // no call looked the interface up
  }
  {  // Count-free: one exact build, and the fast path from the first call.
    idl::ProcDef proc;
    proc.name = "POINT";
    proc.number = 9;
    proc.arg_type = idl::t_struct("point", {{"x", idl::t_int()},
                                            {"y", idl::t_uint()},
                                            {"tag", idl::t_opaque_fixed(8)}});
    proc.res_type = proc.arg_type;
    SpecCache cache;
    rpc::SvcRegistry reg;
    CachedSpecService service(cache, proc, kProg, kVers, echo_words());
    EXPECT_EQ(cache.stats().misses, 1);
    service.install(reg);

    Rng rng(23);
    for (std::uint32_t xid = 1; xid <= 5; ++xid) {
      idl::Value x, y, tag;
      x.v = static_cast<std::int32_t>(rng.next_u32());
      y.v = rng.next_u32();
      tag.v = Bytes{1, 2, 3, 4, 5, 6, 7, static_cast<std::uint8_t>(xid)};
      idl::Value value;
      value.v = idl::ValueList{x, y, tag};
      ASSERT_EQ(serve_raw(reg, generic_call(xid, proc, value)),
                generic_reply(xid, proc, value));
      EXPECT_EQ(service.stats().fast_path.load(),
                static_cast<std::int64_t>(xid));
    }
    EXPECT_EQ(service.stats().generic_path.load(), 0);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().build_failures, 0);
  }
}

// The echo array ends its message, so one class plan serves every
// length: the build taken at construction runs all 50 of them.
TEST(CachedSpecService, ClassPlanServesEveryLengthWithOneBuild) {
  SpecCache cache;
  const auto proc = echo_array_proc();
  rpc::SvcRegistry reg;
  CachedSpecService service(cache, proc, kProg, kVers, echo_words());
  service.install(reg);

  Rng rng(50);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const std::uint32_t n = i * 37;  // 50 distinct lengths in [0, 1813]
    const idl::Value value = uint_list(n, rng);
    const Bytes reply = serve_raw(reg, generic_call(i + 1, proc, value));
    ASSERT_EQ(reply, generic_reply(i + 1, proc, value)) << "length " << n;
  }
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(service.stats().generic_path.load(), 0);
  EXPECT_EQ(service.stats().fast_path.load(), 50);
  EXPECT_EQ(service.stats().plan_fallbacks.load(), 0);
}

// A fixed field after the variable array rules the class plan out, so
// the one build fails and every call is served generically — with the
// generic encoder's bytes.
TEST(CachedSpecService, NonTailArrayIsServedGenerically) {
  idl::ProcDef proc;
  proc.name = "FRAMED";
  proc.number = 8;
  proc.arg_type = idl::t_struct("framed",
                                {{"hdr", idl::t_uint()},
                                 {"body", idl::t_array_var(idl::t_int(), 128)},
                                 {"tail", idl::t_opaque_fixed(5)}});
  proc.res_type = proc.arg_type;
  SpecCache cache;
  rpc::SvcRegistry reg;
  CachedSpecService service(cache, proc, kProg, kVers, echo_words());
  service.install(reg);

  Rng rng(8);
  const std::vector<std::uint32_t> counts = {3, 7, 11, 3, 7, 20, 20, 3};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    idl::Value hdr, tail;
    hdr.v = rng.next_u32();
    tail.v = Bytes{1, 2, 3, 4, 5};
    idl::Value value;
    value.v = idl::ValueList{hdr, uint_list(counts[i], rng), tail};
    const auto xid = static_cast<std::uint32_t>(i + 1);
    ASSERT_EQ(serve_raw(reg, generic_call(xid, proc, value)),
              generic_reply(xid, proc, value));
  }
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().build_failures, 1);
  EXPECT_EQ(service.stats().fast_path.load(), 0);
  EXPECT_EQ(service.stats().generic_path.load(),
            static_cast<std::int64_t>(counts.size()));
}

// A request with bytes after its arguments fails the class plan's real
// length guard and is still served, by the generic path.
TEST(CachedSpecService, TrailingBytesTakeTheGenericPath) {
  SpecCache cache;
  const auto proc = echo_array_proc();
  rpc::SvcRegistry reg;
  CachedSpecService service(cache, proc, kProg, kVers, echo_words());
  service.install(reg);

  Rng rng(9);
  const idl::Value value = uint_list(12, rng);
  ASSERT_EQ(serve_raw(reg, generic_call(1, proc, value)),
            generic_reply(1, proc, value));  // the class plan serves it
  Bytes padded = generic_call(2, proc, value);
  padded.resize(padded.size() + 8, 0);
  ASSERT_EQ(serve_raw(reg, padded), generic_reply(2, proc, value));
  EXPECT_EQ(service.stats().plan_fallbacks.load(), 1);
  EXPECT_EQ(service.stats().generic_path.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

// ---- the cache behind the record-stream server --------------------------

// rpc::TcpServer reads calls through an xdrrec stream, so the arguments
// cannot be inlined (the service's stream-opaque path) — but the
// interface built at construction still encodes the replies.
TEST(TcpServer, CachedServiceOverTcpStream) {
  SpecCache cache;
  const auto proc = echo_array_proc();

  rpc::SvcRegistry reg;
  CachedSpecService service(cache, proc, kProg, kVers, echo_words());
  service.install(reg);

  net::TcpListener listener(0);
  ASSERT_TRUE(listener.ok());
  rpc::TcpServer server(listener, reg);
  std::atomic<bool> stop{false};
  int served = 0;
  std::thread serving([&] { served = server.serve_one_connection(stop); });

  const std::uint32_t n = 40;
  {
    rpc::TcpClient client(listener.local_addr(), kProg, kVers);
    ASSERT_TRUE(client.ok());
    for (int round = 0; round < 5; ++round) {
      std::vector<std::int32_t> sent(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        sent[i] = static_cast<std::int32_t>(round * 100 + i);
      }
      std::vector<std::int32_t> got;
      Status st = client.call(
          7,
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
  }  // the client closes: the server's connection loop ends
  stop.store(true);
  serving.join();

  EXPECT_EQ(served, 5);
  EXPECT_EQ(reg.stats().success.load(), 5);
  // The record stream cannot be inlined, so argument decode is generic —
  // with the one interface, built at construction, encoding the replies.
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace tempo::core
