// Core front-end tests: SpecializedInterface construction, the
// specialized client/server over the simulated network and loopback UDP,
// guarded fallback behaviour, and template (compile-time) specialization
// equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/endian.h"
#include "common/metrics.h"
#include "core/generic_client.h"
#include "core/service.h"
#include "core/spec_client.h"
#include "core/stubspec.h"
#include "core/tspec.h"
#include "net/simnet.h"
#include "net/udp.h"
#include "pe/compile.h"
#include "rpc/svc.h"

namespace tempo::core {
namespace {

idl::ProcDef echo_array_proc(std::uint32_t bound = 2000) {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = 7;
  proc.arg_type = idl::t_array_var(idl::t_int(), bound);
  proc.res_type = idl::t_array_var(idl::t_int(), bound);
  return proc;
}

constexpr std::uint32_t kProg = 0x20000777;
constexpr std::uint32_t kVers = 1;

WordHandler echo_handler() {
  return [](std::span<const std::uint32_t> args,
            std::span<std::uint32_t> results) {
    std::copy(args.begin(), args.end(), results.begin());
    return true;
  };
}

TEST(SpecializedInterfaceTest, BuildAndInspect) {
  SpecConfig cfg;
  cfg.arg_counts = {100};
  cfg.res_counts = {100};
  auto iface = SpecializedInterface::build(echo_array_proc(), kProg, kVers,
                                           cfg);
  ASSERT_TRUE(iface.is_ok()) << iface.status().to_string();

  EXPECT_EQ(iface->arg_slots(), 100);
  EXPECT_EQ(iface->encode_call_plan().out_size, 40u + 4u + 400u);
  EXPECT_EQ(iface->decode_reply_plan().expected_in, 24u + 4u + 400u);
  EXPECT_EQ(iface->decode_args_plan().expected_in, 4u + 400u);
  EXPECT_GT(iface->specialized_code_bytes(), 0u);
  EXPECT_GT(iface->generic_code_bytes(), 0u);

  auto listing = iface->annotated_encode_listing();
  ASSERT_TRUE(listing.is_ok()) << listing.status().to_string();
  EXPECT_NE(listing->find("xdrmem_putlong"), std::string::npos);
}

TEST(SpecializedInterfaceTest, RejectsNonEligibleTypes) {
  idl::ProcDef proc;
  proc.name = "BAD";
  proc.number = 1;
  proc.arg_type = idl::t_string(64);
  proc.res_type = idl::t_void();
  auto iface = SpecializedInterface::build(proc, kProg, kVers, {});
  EXPECT_FALSE(iface.is_ok());
}

TEST(SpecializedInterfaceTest, RejectsCountMismatch) {
  SpecConfig cfg;
  cfg.arg_counts = {4, 4};  // the echo type has one variable array
  cfg.res_counts = {4};
  EXPECT_FALSE(
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg)
          .is_ok());
  // Counts left empty open the side instead: class plans.
  EXPECT_TRUE(
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, {})
          .is_ok());
}

// Specialized client against a *generic* server: wire compatibility.
TEST(SpecializedClientTest, InteropWithGenericServerOverSimNet) {
  const std::uint32_t n = 50;
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  auto iface =
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  net::SimNetwork net(net::LinkParams::ethernet_pc());
  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();

  rpc::SvcRegistry reg;
  const auto arg_t = echo_array_proc().arg_type;
  const auto res_t = echo_array_proc().res_type;
  register_value_handler(reg, kProg, kVers, 7, arg_t, res_t,
                         [](const idl::Value& v) -> Result<idl::Value> {
                           return v;  // echo
                         });
  rpc::attach_sim_server(server_ep, reg);

  SpecializedClient client(*client_ep, server_ep->local_addr(), *iface);
  std::vector<std::uint32_t> args(n), results(n, 0);
  Rng rng(5);
  for (auto& a : args) a = rng.next_u32();

  Status st = client.call(args, results);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(results, args);
  EXPECT_EQ(client.stats().generic_fallbacks, 0);
}

// Generic client against the specialized service: the other direction.
TEST(SpecializedServiceTest, InteropWithGenericClient) {
  const std::uint32_t n = 20;
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  auto iface =
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  net::SimNetwork net;
  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();

  rpc::SvcRegistry reg;
  SpecializedService service(*iface, echo_handler());
  service.install(reg);
  rpc::attach_sim_server(server_ep, reg);

  GenericValueClient client(*client_ep, server_ep->local_addr(), kProg,
                            kVers);
  const auto arg_t = echo_array_proc().arg_type;
  Rng rng(6);
  idl::Value arg = idl::random_value(*arg_t, rng, 100);
  arg.as<idl::ValueList>().resize(n, idl::zero_value(*idl::t_int()));
  auto res = client.call(7, *arg_t, arg, *arg_t);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_TRUE(idl::value_equal(arg, *res));
  EXPECT_EQ(service.stats().fast_path, 1);
}

// Specialized on both sides.
TEST(SpecializedClientTest, FullySpecializedRoundTrip) {
  const std::uint32_t n = 250;
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  auto iface =
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  net::SimNetwork net;
  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();

  rpc::SvcRegistry reg;
  SpecializedService service(*iface, echo_handler());
  service.install(reg);
  rpc::attach_sim_server(server_ep, reg);

  SpecializedClient client(*client_ep, server_ep->local_addr(), *iface);
  std::vector<std::uint32_t> args(n), results(n, 0);
  Rng rng(9);
  for (auto& a : args) a = rng.next_u32();
  for (int round = 0; round < 10; ++round) {
    Status st = client.call(args, results);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_EQ(results, args);
  }
  EXPECT_EQ(service.stats().fast_path, 10);
  EXPECT_EQ(client.stats().generic_fallbacks, 0);
}

// A pinned interface running compiled stubs attributes its fast path to
// the jit tier, as CachedSpecService does; none of it reads as plan.
TEST(SpecializedServiceTest, JitInterfaceReportsJitTier) {
  if (!pe::jit_supported_host() || !pe::jit_enabled_by_env()) {
    GTEST_SKIP() << "JIT unavailable on this host or disabled";
  }
  const std::uint32_t n = 64;
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  auto iface =
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());
  ASSERT_TRUE(iface->jit_active());

  net::SimNetwork net;
  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();
  rpc::SvcRegistry reg;
  SpecializedService service(*iface, echo_handler());
  service.install(reg);
  rpc::attach_sim_server(server_ep, reg);

  SpecializedClient client(*client_ep, server_ep->local_addr(), *iface);
  std::vector<std::uint32_t> args(n, 7), results(n, 0);
  constexpr std::int64_t kCalls = 5;
  for (std::int64_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(client.call(args, results).is_ok());
  }
  ASSERT_EQ(service.stats().fast_path, kCalls);

  common::MetricsSnapshot snap = common::metrics().snapshot();
  EXPECT_EQ(snap.counters["service.tier_jit"], kCalls);
  EXPECT_EQ(snap.counters["service.jit_fast_path"], kCalls);
  EXPECT_EQ(snap.counters["service.tier_plan"], 0);
}

// The guarded fallback: a server that replies with a *different* count
// defeats the length guard; the client must degrade to the generic
// decoder and surface a meaningful result or error, never garbage.
TEST(SpecializedClientTest, FallbackOnUnexpectedReplyShape) {
  const std::uint32_t n = 10;
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  auto iface =
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  net::SimNetwork net;
  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();

  rpc::SvcRegistry reg;
  const auto arg_t = echo_array_proc().arg_type;
  register_value_handler(
      reg, kProg, kVers, 7, arg_t, arg_t,
      [](const idl::Value& v) -> Result<idl::Value> {
        idl::Value shrunk = v;  // drop one element: different shape
        shrunk.as<idl::ValueList>().pop_back();
        return shrunk;
      });
  rpc::attach_sim_server(server_ep, reg);

  SpecializedClient client(*client_ep, server_ep->local_addr(), *iface);
  std::vector<std::uint32_t> args(n, 3), results(n, 0);
  Status st = client.call(args, results);
  EXPECT_FALSE(st.is_ok());  // shape mismatch is an error, not corruption
  EXPECT_EQ(client.stats().generic_fallbacks, 1);
}

// Protocol errors travel through the fallback too (the specialized
// client still understands PROG_UNAVAIL etc.).
TEST(SpecializedClientTest, FallbackDecodesProtocolErrors) {
  const std::uint32_t n = 5;
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  auto iface =
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  net::SimNetwork net;
  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();
  rpc::SvcRegistry reg;  // nothing registered: PROG_UNAVAIL
  rpc::attach_sim_server(server_ep, reg);

  SpecializedClient client(*client_ep, server_ep->local_addr(), *iface);
  std::vector<std::uint32_t> args(n, 1), results(n, 0);
  Status st = client.call(args, results);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(client.stats().generic_fallbacks, 1);
}

// Specialized client over *real* loopback UDP against a threaded server.
TEST(SpecializedClientTest, RealUdpLoopback) {
  const std::uint32_t n = 100;
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  auto iface =
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  net::UdpSocket server_sock;
  ASSERT_TRUE(server_sock.ok());
  rpc::SvcRegistry reg;
  SpecializedService service(*iface, echo_handler());
  service.install(reg);
  rpc::UdpServer server(server_sock, reg);
  std::atomic<bool> stop{false};
  std::thread server_thread([&] { server.serve(stop); });

  net::UdpSocket client_sock;
  ASSERT_TRUE(client_sock.ok());
  SpecializedClient client(client_sock, server_sock.local_addr(), *iface);
  std::vector<std::uint32_t> args(n), results(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) args[i] = i * i;
  for (int round = 0; round < 25; ++round) {
    Status st = client.call(args, results);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_EQ(results, args);
  }
  stop = true;
  server_thread.join();
}

// ---- compile-time (template) specialization ------------------------------

TEST(Tspec, MatchesRuntimePlanBytes) {
  constexpr std::uint32_t kN = 20;
  SpecConfig cfg;
  cfg.arg_counts = {kN};
  cfg.res_counts = {kN};
  auto iface =
      SpecializedInterface::build(echo_array_proc(), kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  std::vector<std::uint32_t> args(kN);
  Rng rng(12);
  for (auto& a : args) a = rng.next_u32();

  Bytes plan_out(iface->encode_call_plan().out_size);
  ASSERT_EQ(run_plan_encode(iface->encode_call_plan(), args, 0x42,
                            MutableByteSpan(plan_out.data(), plan_out.size())),
            pe::ExecStatus::kOk);

  using Call = tspec::IntArrayCall<kProg, kVers, 7, kN>;
  static_assert(Call::kBytes == 40 + 4 + 4 * kN);
  Bytes tmpl_out(Call::kBytes);
  ASSERT_TRUE(Call::encode(0x42, args,
                           std::span<std::uint8_t>(tmpl_out.data(),
                                                   tmpl_out.size())));
  EXPECT_EQ(plan_out, tmpl_out);
}

TEST(Tspec, ReplyDecodeValidatesAndCaptures) {
  constexpr std::uint32_t kN = 4;
  using Reply = tspec::IntArrayReply<kN>;
  Bytes wire(Reply::kBytes, 0);
  store_be32(wire.data(), 0x77);      // xid
  store_be32(wire.data() + 4, 1);     // REPLY
  store_be32(wire.data() + 24, kN);   // count
  for (std::uint32_t i = 0; i < kN; ++i) {
    store_be32(wire.data() + 28 + 4 * i, 1000 + i);
  }
  std::vector<std::uint32_t> words(kN, 0);
  ASSERT_TRUE(Reply::decode(
      0x77, std::span<const std::uint8_t>(wire.data(), wire.size()), words));
  EXPECT_EQ(words[3], 1003u);

  // Wrong xid or wrong header constant rejects.
  EXPECT_FALSE(Reply::decode(
      0x78, std::span<const std::uint8_t>(wire.data(), wire.size()), words));
  store_be32(wire.data() + 8, 1);  // DENIED
  EXPECT_FALSE(Reply::decode(
      0x77, std::span<const std::uint8_t>(wire.data(), wire.size()), words));
}

}  // namespace
}  // namespace tempo::core
