// Fault injection against the REAL server runtimes.
//
// The simnet suite (test_simnet.cpp) pins the client's guarded-
// specialization behaviour under drop/dup/reorder schedules, but only
// against inline sim-endpoint servers.  This file ports that suite to
// the real loopback runtime through a deterministic UDP fault proxy,
// and parameterizes every case over single- and multi-shard
// EventServerRuntime, so each gets the same adversarial coverage:
//
//   * a dropped request or reply drives the client's retransmission
//     path against a live runtime;
//   * a duplicated reply arrives while the client waits for the NEXT
//     call — the residual decode plan's XID guard must surface it as a
//     stale retry (stats().stale_replies), never decode it into
//     results;
//   * reordered replies are exactly stale traffic from the client's
//     point of view, and must equally never corrupt results;
//   * the specialized client and the generic layered client must both
//     converge to correct results under the same fault parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "core/stubspec.h"
#include "net/udp.h"
#include "rpc/client.h"
#include "rpc/event_runtime.h"
#include "rpc/svc.h"
#include "test_fault_proxy.h"
#include "test_rng.h"
#include "xdr/primitives.h"

namespace tempo {
namespace {

constexpr std::uint32_t kProg = 0x20000999;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProc = 7;

idl::ProcDef echo_array_proc() {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = kProc;
  proc.arg_type = idl::t_array_var(idl::t_int(), 512);
  proc.res_type = idl::t_array_var(idl::t_int(), 512);
  return proc;
}

core::SpecConfig cfg_for(std::uint32_t n) {
  core::SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  return cfg;
}

// The deterministic UDP fault proxy lives in test_fault_proxy.h now,
// shared with the KV replication-consistency suite.
using test::FaultParams;
using test::UdpFaultProxy;

// ------------------------------ every event path behind one fixture ---

enum class RuntimeKind {
  kReactor,
  kReactorSharded,
};

const char* kind_name(RuntimeKind k) {
  switch (k) {
    case RuntimeKind::kReactor:
      return "reactor";
    case RuntimeKind::kReactorSharded:
      return "reactor4";
  }
  return "?";
}

std::unique_ptr<rpc::EventServerRuntime> make_runtime(RuntimeKind kind,
                                                      rpc::SvcRegistry& reg) {
  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = 2;
  cfg.reactors = kind == RuntimeKind::kReactorSharded ? 4 : 1;
  cfg.enable_tcp = false;
  return std::make_unique<rpc::EventServerRuntime>(reg, cfg);
}

// Shared fixture: a CachedSpecService echo server on the runtime under
// test, so the fault traffic exercises the server's residual-plan
// dispatch too, not just the client.
class RuntimeFaults : public ::testing::TestWithParam<RuntimeKind> {
 protected:
  void SetUp() override {
    cache_ = std::make_unique<core::SpecCache>();
    service_ = std::make_unique<core::CachedSpecService>(
        *cache_, echo_array_proc(), kProg, kVers,
        [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
           std::span<std::uint32_t> results) {
          std::copy(args.begin(), args.end(), results.begin());
          return true;
        });
    service_->install(reg_);
    runtime_ = make_runtime(GetParam(), reg_);
    ASSERT_NE(runtime_, nullptr);
    ASSERT_TRUE(runtime_->start().is_ok());
  }

  void TearDown() override {
    if (runtime_) runtime_->stop();
  }

  rpc::SvcRegistry reg_;
  std::unique_ptr<core::SpecCache> cache_;
  std::unique_ptr<core::CachedSpecService> service_;
  std::unique_ptr<rpc::EventServerRuntime> runtime_;
};

// Aggressive per-leg loss: every call must still converge through the
// retransmission path, results never corrupted.
TEST_P(RuntimeFaults, DropScheduleDrivesRetransmission) {
  FaultParams f;
  f.drop = 0.35;
  UdpFaultProxy proxy(runtime_->udp_addr(), f, /*seed=*/42);

  const std::uint32_t n = 16;
  auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                 kVers, cfg_for(n));
  ASSERT_TRUE(iface.is_ok());
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  rpc::CallOptions opts;
  opts.retry_timeout_ms = 50;
  opts.total_timeout_ms = 10000;
  core::SpecializedClient client(sock, proxy.addr(), *iface, opts);

  std::vector<std::uint32_t> args(n), results(n, 0);
  for (int round = 0; round < 10; ++round) {
    for (std::uint32_t i = 0; i < n; ++i) {
      args[i] = static_cast<std::uint32_t>(round * 77 + i);
    }
    std::fill(results.begin(), results.end(), 0);
    Status st = client.call(args, results);
    ASSERT_TRUE(st.is_ok()) << kind_name(GetParam()) << " round " << round
                            << ": " << st.to_string();
    ASSERT_EQ(results, args);
  }
  EXPECT_GT(client.stats().retransmissions, 0);
}

// Every datagram delivered twice: duplicated replies show up while the
// client waits for the NEXT call's reply.  The residual decode plan's
// XID guard must fire (stale_replies) and stale bytes must never leak
// into results.
TEST_P(RuntimeFaults, DuplicatedRepliesSurfaceAsStaleRetries) {
  FaultParams f;
  f.dup = 1.0;
  UdpFaultProxy proxy(runtime_->udp_addr(), f, /*seed=*/11);

  const std::uint32_t n = 16;
  auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                 kVers, cfg_for(n));
  ASSERT_TRUE(iface.is_ok());
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  core::SpecializedClient client(sock, proxy.addr(), *iface);

  std::vector<std::uint32_t> args(n), results(n, 0);
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t i = 0; i < n; ++i) {
      args[i] = static_cast<std::uint32_t>(round * 1000 + i);
    }
    std::fill(results.begin(), results.end(), 0);
    Status st = client.call(args, results);
    ASSERT_TRUE(st.is_ok()) << kind_name(GetParam()) << " round " << round
                            << ": " << st.to_string();
    ASSERT_EQ(results, args);  // stale duplicates never leak into results
  }
  EXPECT_GT(client.stats().stale_replies, 0);
}

// Replies held back and released out of order are stale traffic from
// the client's point of view: calls converge and results stay correct.
TEST_P(RuntimeFaults, ReorderedRepliesNeverCorruptResults) {
  FaultParams f;
  f.reorder = 0.5;
  f.dup = 0.3;
  UdpFaultProxy proxy(runtime_->udp_addr(), f, /*seed=*/77);

  const std::uint32_t n = 12;
  auto iface = core::SpecializedInterface::build(echo_array_proc(), kProg,
                                                 kVers, cfg_for(n));
  ASSERT_TRUE(iface.is_ok());
  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  rpc::CallOptions opts;
  opts.retry_timeout_ms = 100;
  opts.total_timeout_ms = 10000;
  core::SpecializedClient client(sock, proxy.addr(), *iface, opts);

  std::vector<std::uint32_t> args(n), results(n, 0);
  for (int round = 0; round < 12; ++round) {
    for (std::uint32_t i = 0; i < n; ++i) {
      args[i] = static_cast<std::uint32_t>(round * 31 + i * 7);
    }
    std::fill(results.begin(), results.end(), 0);
    Status st = client.call(args, results);
    ASSERT_TRUE(st.is_ok()) << kind_name(GetParam()) << " round " << round
                            << ": " << st.to_string();
    ASSERT_EQ(results, args);
  }
}

// The generic layered client must survive the same fault parameters the
// specialized one does — same protocol, same convergence — against the
// same live runtime (guarded specialization means the two are
// observationally equivalent under faults).
TEST_P(RuntimeFaults, GenericClientConvergesUnderSameFaults) {
  FaultParams f;
  f.drop = 0.3;
  f.dup = 0.5;
  UdpFaultProxy proxy(runtime_->udp_addr(), f, /*seed=*/7);

  net::UdpSocket sock;
  ASSERT_TRUE(sock.ok());
  rpc::CallOptions opts;
  opts.retry_timeout_ms = 50;
  opts.total_timeout_ms = 10000;
  rpc::UdpClient client(sock, proxy.addr(), kProg, kVers, opts);

  const std::uint32_t n = 16;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::int32_t> sent(n), got;
    for (std::uint32_t i = 0; i < n; ++i) {
      sent[i] = static_cast<std::int32_t>(round * 13 + i);
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
    ASSERT_TRUE(st.is_ok()) << kind_name(GetParam()) << " round " << round
                            << ": " << st.to_string();
    ASSERT_EQ(got, sent);
  }
  EXPECT_GT(client.stats().retransmissions + client.stats().stale_replies, 0);
}

INSTANTIATE_TEST_SUITE_P(EventPaths, RuntimeFaults,
                         ::testing::Values(RuntimeKind::kReactor,
                                           RuntimeKind::kReactorSharded),
                         [](const auto& info) {
                           return kind_name(info.param);
                         });

}  // namespace
}  // namespace tempo
