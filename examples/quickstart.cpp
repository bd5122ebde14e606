// Quickstart: the paper's running example — rmin(pair) -> int — served
// over real loopback UDP, called three ways:
//   1. the generic layered client (the "original Sun RPC"),
//   2. the automatically specialized client (residual plans),
//   3. the same specialized client after the server vanishes
//      (demonstrating timeout/retransmission behaviour).
//
// Build & run:  ./examples/quickstart
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/metrics.h"
#include "core/generic_client.h"
#include "core/service.h"
#include "core/spec_client.h"
#include "idl/parser.h"
#include "net/udp.h"
#include "rpc/svc.h"

using namespace tempo;

namespace {

constexpr const char* kInterface = R"(
struct pair {
    int int1;
    int int2;
};

program RMIN_PROG {
    version RMIN_VERS {
        int RMIN(pair) = 1;
    } = 1;
} = 0x20000099;
)";

}  // namespace

int main() {
  // ---- rpcgen step: parse the interface ----
  auto module = idl::parse_xdr_source(kInterface);
  if (!module.is_ok()) {
    std::fprintf(stderr, "IDL error: %s\n",
                 module.status().to_string().c_str());
    return 1;
  }
  const idl::ProgramDef& prog = module->programs.front();
  const idl::ProcDef& rmin = prog.versions.front().procs.front();

  // ---- Tempo step: specialize the stubs for this interface ----
  auto iface = core::SpecializedInterface::build(
      rmin, prog.number, prog.versions.front().number, core::SpecConfig{});
  if (!iface.is_ok()) {
    std::fprintf(stderr, "specialization error: %s\n",
                 iface.status().to_string().c_str());
    return 1;
  }
  std::printf("specialized stubs built: encode plan %zu bytes, decode plan "
              "%zu bytes\n",
              iface->encode_call_plan().code_bytes(),
              iface->decode_reply_plan().code_bytes());

  // ---- server: min(int1, int2), specialized fast path ----
  net::UdpSocket server_sock;
  rpc::SvcRegistry registry;
  core::SpecCache cache;
  core::CachedSpecService service(
      cache, rmin, prog.number, prog.versions.front().number,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        const auto a = static_cast<std::int32_t>(args[0]);
        const auto b = static_cast<std::int32_t>(args[1]);
        results[0] = static_cast<std::uint32_t>(a < b ? a : b);
        return true;
      });
  service.install(registry);
  rpc::UdpServer server(server_sock, registry);
  std::atomic<bool> stop{false};
  std::thread server_thread([&] { server.serve(stop); });
  std::printf("rmin server listening on %s\n",
              net::addr_to_string(server_sock.local_addr()).c_str());

  // ---- 1. generic client ----
  net::UdpSocket client_sock;
  core::GenericValueClient generic(client_sock, server_sock.local_addr(),
                                   prog.number, 1);
  idl::Value arg;
  arg.v = idl::ValueList(2);
  arg.as<idl::ValueList>()[0].v = std::int32_t{42};
  arg.as<idl::ValueList>()[1].v = std::int32_t{17};
  auto res = generic.call(1, *rmin.arg_type, arg, *rmin.res_type);
  if (!res.is_ok()) {
    std::fprintf(stderr, "generic call failed: %s\n",
                 res.status().to_string().c_str());
    return 1;
  }
  std::printf("generic client:     rmin(42, 17) = %d\n",
              res->as<std::int32_t>());

  // ---- 2. specialized client ----
  core::SpecializedClient specialized(client_sock,
                                      server_sock.local_addr(), *iface);
  std::uint32_t args[2] = {static_cast<std::uint32_t>(-5),
                           static_cast<std::uint32_t>(99)};
  std::uint32_t result[1] = {0};
  Status st = specialized.call(args, result);
  if (!st.is_ok()) {
    std::fprintf(stderr, "specialized call failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  std::printf("specialized client: rmin(-5, 99) = %d\n",
              static_cast<std::int32_t>(result[0]));

  // ---- 3. timeout behaviour once the server is gone ----
  stop = true;
  server_thread.join();
  rpc::CallOptions opts;
  opts.retry_timeout_ms = 50;
  opts.total_timeout_ms = 200;
  core::SpecializedClient orphan(client_sock, server_sock.local_addr(),
                                 *iface, opts);
  st = orphan.call(args, result);
  std::printf("after server shutdown: %s (with %lld retransmissions)\n",
              st.to_string().c_str(),
              static_cast<long long>(orphan.stats().retransmissions));

  // Everything the process observed, in one snapshot: per-layer
  // counters folded in by whichever components are still alive.
  std::printf("\n--- metrics snapshot ---\n");
  common::metrics().snapshot().print(stdout);
  return 0;
}
