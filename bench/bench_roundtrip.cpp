// Table 2 + Figures 6-3, 6-4, 6-6: complete RPC round-trip time,
// original vs specialized, on both platform profiles.
//
// A round trip decomposes as (paper §5 "Round-trip RPC"):
//   client encode + request wire time + server bzero + server decode +
//   server encode + reply wire time + client bzero + client decode
// CPU legs come from the platform cost model (all four marshaling legs
// counted by the IR interpreter for the original, by the plan executor
// for the specialized version); wire time comes from the simulated link
// (latency + serialization + per-packet + per-byte driver cost).  The
// input-buffer bzero (which the paper singles out as a round-trip-only
// cost) is charged on both sides for both versions.
//
// A real end-to-end sanity run over loopback UDP (generic vs specialized
// client/server) is printed last — wall-clock on this host, where the
// modern CPU makes marshaling a negligible share of the round trip.
#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "common/endian.h"
#include "common/metrics.h"
#include "core/generic_client.h"
#include "core/service.h"
#include "core/spec_client.h"
#include "net/udp.h"

namespace tempo::bench {
namespace {

// UDPMSGSIZE in the 1984 code: the receive buffer each side clears.
constexpr std::int64_t kUdpBufBytes = 8800;

struct Leg {
  CostEvents events;
};

// Events for the four marshaling legs of one call (original flavor).
CostEvents generic_roundtrip_events(const core::SpecializedInterface& iface,
                                    std::vector<std::uint32_t>& slots,
                                    std::uint32_t n) {
  const auto& corpus = iface.corpus();
  CostEvents total;

  Bytes request(65000), reply(65000);
  // Client encode.
  {
    pe::InterpInput in;
    in.scalars[pe::kXidVar] = 1;
    in.scalars["cnt0"] = n;
    in.refs["argsp"] = 0;
    in.xdrs = {0, 65000, 0};
    in.user = slots;
    in.out = MutableByteSpan(request.data(), request.size());
    in.cost = &total;
    if (!run_ir(corpus.program, corpus.encode_call, in).is_ok()) std::abort();
  }
  const std::int64_t req_len = 40 + 4 + 4 * n;
  // Server decode (args payload after the header).
  std::vector<std::uint32_t> srv_args(n);
  {
    pe::InterpInput in;
    in.scalars[pe::kInlenVar] = req_len - 40;
    in.scalars["cnt0"] = n;
    in.refs["argsp"] = 0;
    in.xdrs = {1, 0, 0};
    in.user = srv_args;
    in.in = ByteSpan(request.data() + 40, static_cast<std::size_t>(req_len - 40));
    in.cost = &total;
    if (!run_ir(corpus.program, corpus.decode_args, in).is_ok()) std::abort();
  }
  // Server encode results.
  {
    pe::InterpInput in;
    in.scalars["rcnt0"] = n;
    in.refs["resp"] = 0;
    in.xdrs = {0, 65000, 0};
    in.user = srv_args;
    in.out = MutableByteSpan(reply.data() + 24, reply.size() - 24);
    in.cost = &total;
    if (!run_ir(corpus.program, corpus.encode_results, in).is_ok()) {
      std::abort();
    }
  }
  // Client decode reply (header words are zero except xid/type, close
  // enough for cost purposes; build a real header).
  store_be32(reply.data(), 1);
  store_be32(reply.data() + 4, 1);
  const std::int64_t rep_len = 24 + 4 + 4 * n;
  std::vector<std::uint32_t> results(n);
  {
    pe::InterpInput in;
    in.scalars[pe::kXidVar] = 1;
    in.scalars[pe::kInlenVar] = rep_len;
    in.scalars["rcnt0"] = n;
    in.refs["resp"] = 0;
    in.xdrs = {1, 0, 0};
    in.user = results;
    in.in = ByteSpan(reply.data(), static_cast<std::size_t>(rep_len));
    in.cost = &total;
    if (!run_ir(corpus.program, corpus.decode_reply, in).is_ok()) {
      std::abort();
    }
  }
  total.executed_op_bytes = 0;  // compiled generic code
  return total;
}

CostEvents specialized_roundtrip_events(
    const core::SpecializedInterface& iface,
    std::vector<std::uint32_t>& slots, std::uint32_t n) {
  CostEvents total;
  Bytes request(iface.encode_call_plan().out_size);
  if (run_plan_encode(iface.encode_call_plan(), slots, 1,
                      MutableByteSpan(request.data(), request.size()),
                      &total) != pe::ExecStatus::kOk) {
    std::abort();
  }
  std::vector<std::uint32_t> srv_args(n);
  if (run_plan_decode(iface.decode_args_plan(),
                      ByteSpan(request.data() + 40, request.size() - 40), 0,
                      srv_args, &total) != pe::ExecStatus::kOk) {
    std::abort();
  }
  Bytes reply(24 + iface.encode_results_plan().out_size);
  if (run_plan_encode(iface.encode_results_plan(), srv_args, 0,
                      MutableByteSpan(reply.data() + 24, reply.size() - 24),
                      &total) != pe::ExecStatus::kOk) {
    std::abort();
  }
  store_be32(reply.data(), 1);
  store_be32(reply.data() + 4, 1);
  std::vector<std::uint32_t> results(n);
  if (run_plan_decode(iface.decode_reply_plan(),
                      ByteSpan(reply.data(), reply.size()), 1, results,
                      &total) != pe::ExecStatus::kOk) {
    std::abort();
  }
  return total;
}

double wire_ms(const net::LinkParams& link, std::int64_t req_bytes,
               std::int64_t rep_bytes) {
  auto one = [&](std::int64_t bytes) {
    return link.latency_us + link.per_packet_cpu_us +
           static_cast<double>(bytes) *
               (8.0 / link.bandwidth_mbps + link.per_byte_cpu_us);
  };
  return (one(req_bytes) + one(rep_bytes)) / 1000.0;
}

double bzero_ms(const CostParams& cpu) {
  // memset of the UDP receive buffer on each side, ~1 byte/cycle.
  return 2.0 * static_cast<double>(kUdpBufBytes) *
         cpu.cycles_per_buffer_byte_cached * cpu.ns_per_cycle / 1e6;
}

void run_platform(const char* name, const CostParams& cpu,
                  const net::LinkParams& link,
                  std::vector<SpeedupRow>& rows) {
  for (std::uint32_t n : paper_sizes()) {
    core::SpecializedInterface iface = make_iface(n);
    std::vector<std::uint32_t> slots(n);
    Rng rng(n);
    for (auto& s : slots) s = rng.next_u32();

    const std::int64_t req = 40 + 4 + 4 * n;
    const std::int64_t rep = 24 + 4 + 4 * n;
    const double shared = wire_ms(link, req, rep) + bzero_ms(cpu);

    const double orig_cpu =
        cost_to_ns(generic_roundtrip_events(iface, slots, n), cpu) / 1e6;
    const double spec_cpu =
        cost_to_ns(specialized_roundtrip_events(iface, slots, n), cpu) / 1e6;
    rows.push_back({n, orig_cpu + shared, spec_cpu + shared});
  }
  print_speedup_table(name, rows);
  std::printf("\n");
}

// Per-call latency distributions for one native-loopback row; the sim
// platforms are deterministic cost models with no distribution to
// report, so percentiles exist only here.
struct NativeLatRow {
  std::uint32_t n = 0;
  common::HistogramSnapshot generic;
  common::HistogramSnapshot specialized;
};

// Real loopback UDP end-to-end: generic vs specialized, wall clock.
void run_native_loopback(std::vector<SpeedupRow>& rows,
                         std::vector<NativeLatRow>& lat_rows) {
  for (std::uint32_t n : paper_sizes()) {
    core::SpecializedInterface iface = make_iface(n);

    // One server serves both clients, so the row compares clients.
    net::UdpSocket server_sock;
    rpc::SvcRegistry reg;
    core::SpecCache cache;
    core::CachedSpecService service(
        cache, echo_proc(), kProg, kVers,
        [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
           std::span<std::uint32_t> results) {
          std::copy(args.begin(), args.end(), results.begin());
          return true;
        });
    service.install(reg);
    rpc::UdpServer server(server_sock, reg);
    std::atomic<bool> stop{false};
    std::thread server_thread([&] { server.serve(stop); });

    net::UdpSocket client_sock;
    // Generic client.
    const auto arr_t = echo_proc().arg_type;
    core::GenericValueClient gclient(client_sock, server_sock.local_addr(),
                                     kProg, kVers);
    idl::Value arg;
    {
      idl::ValueList l(n);
      Rng rng(n);
      for (auto& e : l) e.v = static_cast<std::int32_t>(rng.next_u32());
      arg.v = std::move(l);
    }
    // Every timed call also lands in a histogram, so the JSON rows for
    // this platform carry a real p50/p99/p999, not just the median the
    // table prints.
    common::LatencyHistogram ghist, shist;
    const double generic_ms = time_ms_per_call(
        [&] {
          const std::int64_t t0 = common::monotonic_ns();
          auto r = gclient.call(kProc, *arr_t, arg, *arr_t);
          if (!r.is_ok()) std::abort();
          ghist.record(common::monotonic_ns() - t0);
        },
        /*min_iters=*/60, /*repeats=*/5);

    // Specialized client.
    core::SpecializedClient sclient(client_sock, server_sock.local_addr(),
                                    iface);
    std::vector<std::uint32_t> slots(n), results(n);
    Rng rng(n);
    for (auto& s : slots) s = rng.next_u32();
    const double spec_ms = time_ms_per_call(
        [&] {
          const std::int64_t t0 = common::monotonic_ns();
          if (!sclient.call(slots, results).is_ok()) std::abort();
          shist.record(common::monotonic_ns() - t0);
        },
        /*min_iters=*/60, /*repeats=*/5);

    rows.push_back({n, generic_ms, spec_ms});
    lat_rows.push_back({n, ghist.snapshot(), shist.snapshot()});
    stop = true;
    server_thread.join();
  }
  print_speedup_table("this host, real loopback UDP end-to-end", rows);
}

// Machine-readable dump of every (platform, array size) measurement for
// the bench trajectory: `bench_roundtrip --json PATH` (or `-` = stdout).
void emit_json(const char* path,
               const std::vector<std::pair<const char*,
                                           const std::vector<SpeedupRow>*>>&
                   series,
               const std::vector<NativeLatRow>& native_lat) {
  std::FILE* f =
      std::strcmp(path, "-") == 0 ? stdout : std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  JsonWriter jw(f);
  jw.begin_object();
  jw.schema("roundtrip");
  jw.key_array("platforms");
  for (const auto& [name, rows] : series) {
    jw.begin_object();
    jw.field("name", name);
    jw.key_array("rows");
    for (const auto& r : *rows) {
      jw.begin_object();
      jw.field("n", r.n);
      jw.field("original_ms", r.original_ms);
      jw.field("specialized_ms", r.specialized_ms);
      jw.field("speedup", r.specialized_ms > 0
                              ? r.original_ms / r.specialized_ms
                              : 0.0);
      // The native platform has per-call distributions; attach them.
      for (const auto& lr : native_lat) {
        if (std::strcmp(name, "native_loopback_udp") != 0 || lr.n != r.n) {
          continue;
        }
        jw.field("original_p50_us",
                 static_cast<double>(lr.generic.p50()) / 1000.0);
        jw.field("original_p99_us",
                 static_cast<double>(lr.generic.p99()) / 1000.0);
        jw.field("original_p999_us",
                 static_cast<double>(lr.generic.p999()) / 1000.0);
        jw.field("specialized_p50_us",
                 static_cast<double>(lr.specialized.p50()) / 1000.0);
        jw.field("specialized_p99_us",
                 static_cast<double>(lr.specialized.p99()) / 1000.0);
        jw.field("specialized_p999_us",
                 static_cast<double>(lr.specialized.p999()) / 1000.0);
      }
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  if (f != stdout) std::fclose(f);
}

void run(const char* json_path) {
  print_header("Table 2: Round trip performance in ms");
  std::vector<SpeedupRow> ipx_rows, p166_rows, native_rows;
  std::vector<NativeLatRow> native_lat_rows;
  run_platform("IPX/SunOS ipx-sim + ATM link", CostParams::ipx_sunos(),
               net::LinkParams::atm_ipx(), ipx_rows);
  run_platform("PC/Linux p166-sim + Fast Ethernet link",
               CostParams::p166_linux(), net::LinkParams::ethernet_pc(),
               p166_rows);
  run_native_loopback(native_rows, native_lat_rows);

  print_header("Figure 6-3: round trip time, original code");
  print_series("IPX/Sunos - ATM 100Mbits original (ms)", ipx_rows, false);
  print_series("PC/Linux - Ethernet 100Mbits original (ms)", p166_rows,
               false);

  print_header("Figure 6-4: round trip time, specialized code");
  {
    std::vector<SpeedupRow> a, b;
    for (auto r : ipx_rows) a.push_back({r.n, r.specialized_ms, 1});
    for (auto r : p166_rows) b.push_back({r.n, r.specialized_ms, 1});
    print_series("IPX/Sunos - ATM 100Mbits specialized (ms)", a, false);
    print_series("PC/Linux - Ethernet 100Mbits specialized (ms)", b, false);
  }

  print_header("Figure 6-6: speedup ratio for RPC round trip");
  print_series("IPX/Sunos - ATM 100Mbits speedup", ipx_rows, true);
  print_series("PC/Linux - Ethernet 100Mbits speedup", p166_rows, true);
  print_series("this-host loopback speedup", native_rows, true);

  if (json_path != nullptr) {
    emit_json(json_path,
              {{"ipx_sunos_atm", &ipx_rows},
               {"pc_linux_ethernet", &p166_rows},
               {"native_loopback_udp", &native_rows}},
              native_lat_rows);
  }
}

}  // namespace
}  // namespace tempo::bench

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH|-]\n", argv[0]);
      return 2;
    }
  }
  tempo::bench::run(json_path);
  return 0;
}
