// The paper's workload: "parallel programs that exchange large chunks of
// structured data" over RPC — a network-of-workstations reduction.
//
// A coordinator scatters integer blocks to worker services and gathers
// partial sums, running over the simulated ATM link with both the
// generic and the specialized stubs, and reports virtual wall time —
// a miniature of the paper's round-trip experiment embedded in an
// application.
//
// Build & run:  ./examples/array_exchange
#include <cstdio>
#include <numeric>

#include "core/generic_client.h"
#include "core/service.h"
#include "core/spec_client.h"
#include "net/simnet.h"
#include "rpc/svc.h"

using namespace tempo;

namespace {

constexpr std::uint32_t kProg = 0x20000501;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProcSum = 1;
constexpr std::uint32_t kBlock = 1000;
constexpr int kWorkers = 4;
constexpr int kRoundsPerWorker = 8;

idl::ProcDef sum_proc() {
  idl::ProcDef proc;
  proc.name = "PARTIAL_SUM";
  proc.number = kProcSum;
  proc.arg_type = idl::t_array_var(idl::t_int(), 4096);
  proc.res_type = idl::t_array_var(idl::t_int(), 4096);  // running prefix sums
  return proc;
}

}  // namespace

int main() {
  const idl::ProcDef proc = sum_proc();
  core::SpecConfig cfg;
  cfg.arg_counts = {kBlock};
  cfg.res_counts = {kBlock};
  auto iface = core::SpecializedInterface::build(proc, kProg, kVers, cfg);
  if (!iface.is_ok()) {
    std::fprintf(stderr, "%s\n", iface.status().to_string().c_str());
    return 1;
  }

  for (const bool specialized : {false, true}) {
    net::SimNetwork net(net::LinkParams::atm_ipx());

    // Spin up worker services (prefix-sum over the block).
    std::vector<net::SimEndpoint*> workers;
    std::vector<std::unique_ptr<rpc::SvcRegistry>> registries;
    core::SpecCache cache;
    std::vector<std::unique_ptr<core::CachedSpecService>> services;
    for (int w = 0; w < kWorkers; ++w) {
      auto* ep = net.create_endpoint();
      auto reg = std::make_unique<rpc::SvcRegistry>();
      auto svc = std::make_unique<core::CachedSpecService>(
          cache, proc, kProg, kVers,
          [](std::span<const std::uint32_t>,
             std::span<const std::uint32_t> args,
             std::span<std::uint32_t> results) {
            std::uint32_t acc = 0;
            for (std::size_t i = 0; i < args.size(); ++i) {
              acc += args[i];
              results[i] = acc;
            }
            return true;
          });
      svc->install(*reg);
      rpc::attach_sim_server(ep, *reg);
      workers.push_back(ep);
      registries.push_back(std::move(reg));
      services.push_back(std::move(svc));
    }

    auto* coord = net.create_endpoint();
    std::vector<std::uint32_t> block(kBlock), prefix(kBlock);
    std::iota(block.begin(), block.end(), 1);

    std::uint64_t checksum = 0;
    const VirtualNanos t0 = net.now();

    for (int w = 0; w < kWorkers; ++w) {
      if (specialized) {
        core::SpecializedClient client(*coord, workers[static_cast<std::size_t>(w)]->local_addr(),
                                       *iface);
        for (int r = 0; r < kRoundsPerWorker; ++r) {
          Status st = client.call(block, prefix);
          if (!st.is_ok()) {
            std::fprintf(stderr, "call failed: %s\n", st.to_string().c_str());
            return 1;
          }
          checksum += prefix[kBlock - 1];
        }
      } else {
        core::GenericValueClient client(
            *coord, workers[static_cast<std::size_t>(w)]->local_addr(), kProg, kVers);
        idl::Value arg;
        {
          idl::ValueList l(kBlock);
          for (std::uint32_t i = 0; i < kBlock; ++i) {
            l[i].v = static_cast<std::int32_t>(block[i]);
          }
          arg.v = std::move(l);
        }
        for (int r = 0; r < kRoundsPerWorker; ++r) {
          auto res = client.call(kProcSum, *proc.arg_type, arg,
                                 *proc.res_type);
          if (!res.is_ok()) {
            std::fprintf(stderr, "call failed: %s\n",
                         res.status().to_string().c_str());
            return 1;
          }
          checksum += static_cast<std::uint32_t>(
              res->as<idl::ValueList>().back().as<std::int32_t>());
        }
      }
    }

    const double virtual_ms =
        static_cast<double>(net.now() - t0) / 1e6;
    std::printf("%-11s stubs: %2d workers x %d calls of %u ints  "
                "checksum=%llu  virtual link time %.2f ms\n",
                specialized ? "specialized" : "generic", kWorkers,
                kRoundsPerWorker, kBlock,
                static_cast<unsigned long long>(checksum), virtual_ms);
  }

  std::printf("\n(virtual link time is identical by design — the wire "
              "format is unchanged;\n the CPU-side savings are what "
              "bench_marshaling and bench_roundtrip measure)\n");
  return 0;
}
