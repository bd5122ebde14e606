// Concurrent server throughput: the paper's echo-array workload served
// by rpc::EventServerRuntime's worker pool through a CachedSpecService,
// whose residual plans come from one SpecCache shared by every point.
//
// What is measured:
//   * aggregate calls/sec at 1, 4 and 16 concurrent clients, for a
//     1-worker and a 4-worker server — the scaling the dispatch loop
//     buys once specialization is amortized through the cache;
//   * the SpecCache books across the whole run: each point's fresh
//     service resolves its interface once, at construction, and only
//     the first point's lookup builds.
//
// Each handler invocation dwells for a configurable simulated backend
// latency (default 200us, --dwell-us to change, 0 to disable).  That
// models the database/disk wait a real RPC server overlaps across its
// worker pool; with --dwell-us=0 on a single-core host the workload is
// pure CPU and worker scaling flattens out.
//
// --window N switches clients from closed-loop (one call in flight) to
// pipelined UDP bursts: each client blasts N generic-path calls, then
// collects N replies.  That is the workload the batched receive path
// and the batched reply flush pair up on — use it to measure the
// zero-copy dispatch + reply-batching win.
//
// --reactors N shards the runtime across N event-loop threads
// (SO_REUSEPORT UDP + partitioned TCP conns); compare --reactors 1 vs 4
// under --window to measure the multi-reactor scaling once one event
// loop saturates.  Each JSON point records its `reactors` so artifacts
// from different configurations stay distinguishable.
//
// --tcp-depth N switches the workload from UDP to pipelined TCP: each
// client keeps N calls in flight on one connection (1 = classic
// closed-loop TCP).  Compare --tcp-depth 1 vs 8 to measure what
// overlapping execution under the ordered reply ring buys.
//
// Usage: bench_concurrent [--duration-ms N] [--dwell-us N] [--window N]
//                         [--reactors N] [--tcp-depth N]
//                         [--open-loop RATE] [--json PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/endian.h"
#include "common/metrics.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "rpc/event_runtime.h"
#include "rpc/svc.h"
#include "xdr/xdrrec.h"

namespace tempo::bench {
namespace {

struct Point {
  int workers = 0;
  int clients = 0;
  int reactors = 0;     // event-loop shards
  int tcp_depth = 0;    // 0 = UDP workload
  double calls_per_sec = 0.0;
  // Server-side end-to-end latency (recv to reply-send), read from the
  // runtime's per-shard histograms before stop().  count == 0 when
  // TEMPO_METRICS=0 (the overhead-A/B run) — the JSON still carries the
  // fields so both runs diff field-for-field.
  std::int64_t lat_count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  // Open-loop only: the offered Poisson rate and the CLIENT-observed
  // latency measured from each call's scheduled (not actual) send time,
  // so queueing delay from a lagging sender is charged to the server —
  // the standard coordinated-omission fix.
  double offered_per_sec = 0.0;
  std::int64_t client_lat_count = 0;
  double client_p50_us = 0.0;
  double client_p99_us = 0.0;
  double client_p999_us = 0.0;
};

struct Options {
  int duration_ms = 400;
  int dwell_us = 200;
  int window = 0;  // 0 = closed loop; N>0 = N pipelined calls per burst
  int reactors = 1;  // runtime shards
  int tcp_depth = 0;  // 0 = UDP; N>0 = TCP with N pipelined calls/client
  double open_loop = 0.0;  // >0: offered calls/sec across clients (UDP)
  std::string json_path;   // empty = no JSON
};

constexpr std::uint32_t kArraySize = 100;

// One measurement: `clients` threads in closed loop against a runtime
// with `workers` workers, all sharing `cache`.
Point run_point(core::SpecCache& cache, int workers, int clients,
                const Options& opt) {
  rpc::SvcRegistry reg;
  core::CachedSpecService service(
      cache, echo_proc(), kProg, kVers,
      [&](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
          std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        if (opt.dwell_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(opt.dwell_us));
        }
        return true;
      });
  service.install(reg);

  rpc::EventServerRuntimeConfig cfg;
  cfg.workers = workers;
  cfg.reactors = opt.reactors;
  cfg.enable_tcp = opt.tcp_depth > 0;
  cfg.enable_udp = opt.tcp_depth == 0;
  if (opt.tcp_depth > 0) cfg.tcp_pipeline_depth = opt.tcp_depth;
  rpc::EventServerRuntime runtime(reg, cfg);
  if (!runtime.start().is_ok()) {
    std::fprintf(stderr, "cannot start the server runtime\n");
    std::exit(1);
  }

  std::atomic<bool> go{false}, stop{false};
  std::atomic<std::int64_t> total_calls{0};
  std::atomic<int> errors{0};
  // Client-observed latency, open-loop mode only.  record() is
  // wait-free, so every client thread writes the same histogram.
  common::LatencyHistogram client_lat;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      if (opt.tcp_depth > 0) {
        // Pipelined TCP: keep `tcp_depth` calls in flight on one
        // connection (1 = classic closed loop).  The server's ordered
        // reply ring overlaps their execution while keeping wire
        // order, so depth>1 measures exactly what pipelining buys.
        auto conn = net::TcpConn::connect(runtime.tcp_addr());
        if (!conn) {
          ++errors;
          return;
        }
        std::vector<std::int32_t> args(kArraySize);
        Rng rng(static_cast<std::uint64_t>(kArraySize));
        for (auto& a : args) a = static_cast<std::int32_t>(rng.next_u32());
        Bytes send_buf(65000), recv_buf(65000);
        const std::size_t len = generic_encode_call(
            args, 1, MutableByteSpan(send_buf.data() + 4,
                                     send_buf.size() - 4));
        store_be32(send_buf.data(), xdr::XdrRec::kLastFragFlag |
                                        static_cast<std::uint32_t>(len));
        std::uint32_t xid = 1;
        auto send_one = [&] {
          store_be32(send_buf.data() + 4, ++xid);  // xid: first call word
          return conn->write_all(ByteSpan(send_buf.data(), 4 + len)).is_ok();
        };
        auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
          std::size_t off = 0;
          int empty_rounds = 0;
          while (off < n) {
            auto r = conn->read_some(MutableByteSpan(dst + off, n - off), 100);
            if (!r.is_ok()) {
              if (r.status().code() != StatusCode::kTimeout ||
                  ++empty_rounds >= 20) {
                return false;
              }
              continue;
            }
            empty_rounds = 0;
            off += *r;
          }
          return true;
        };
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        int outstanding = 0;
        for (; outstanding < opt.tcp_depth; ++outstanding) {
          if (!send_one()) {
            ++errors;
            return;
          }
        }
        std::int64_t mine = 0;
        while (!stop.load(std::memory_order_acquire)) {
          std::uint8_t rhdr[4];
          if (!read_exact(rhdr, 4)) {
            ++errors;
            total_calls += mine;
            return;
          }
          const std::uint32_t rlen =
              load_be32(rhdr) & ~xdr::XdrRec::kLastFragFlag;
          if (rlen > recv_buf.size() || !read_exact(recv_buf.data(), rlen)) {
            ++errors;
            total_calls += mine;
            return;
          }
          ++mine;
          --outstanding;
          if (!send_one()) {
            ++errors;
            total_calls += mine;
            return;
          }
          ++outstanding;
        }
        // Drain what is still in flight so the connection closes clean.
        for (; outstanding > 0; --outstanding) {
          std::uint8_t rhdr[4];
          if (!read_exact(rhdr, 4)) break;
          const std::uint32_t rlen =
              load_be32(rhdr) & ~xdr::XdrRec::kLastFragFlag;
          if (rlen > recv_buf.size() || !read_exact(recv_buf.data(), rlen)) {
            break;
          }
          ++mine;
        }
        total_calls += mine;
        return;
      }
      net::UdpSocket sock;
      if (!sock.ok()) {
        ++errors;
        return;
      }
      if (opt.open_loop > 0.0) {
        // Open-loop (fixed offered rate): send times follow a Poisson
        // process at rate/clients per client, independent of when
        // replies come back — so the measured latency is "what a user
        // arriving at this rate experiences", not the self-throttled
        // closed-loop number.  Latency is charged from the SCHEDULED
        // send instant (coordinated-omission-free).
        std::vector<std::int32_t> args(kArraySize);
        Rng rng(static_cast<std::uint64_t>(kArraySize + c));
        for (auto& a : args) a = static_cast<std::int32_t>(rng.next_u32());
        Bytes send_buf(65000), recv_buf(65000);
        const std::size_t len = generic_encode_call(
            args, 1, MutableByteSpan(send_buf.data(), send_buf.size()));
        const net::Addr server = runtime.udp_addr();
        const double per_client = opt.open_loop / clients;
        // Disambiguate xids across clients; replies echo the call xid.
        std::uint32_t xid = static_cast<std::uint32_t>(c + 1) << 24;
        std::unordered_map<std::uint32_t, std::int64_t> inflight;
        std::int64_t mine = 0;
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::int64_t next_ns = common::monotonic_ns();
        while (!stop.load(std::memory_order_acquire)) {
          const std::int64_t now = common::monotonic_ns();
          if (now >= next_ns) {
            store_be32(send_buf.data(), ++xid);
            if (sock.send_to(server, ByteSpan(send_buf.data(), len))
                    .is_ok()) {
              inflight.emplace(xid, next_ns);
            }
            // Exponential inter-arrival; 1-u keeps log() off exact 0.
            next_ns += static_cast<std::int64_t>(
                -std::log(1.0 - rng.next_double()) * 1e9 / per_client);
            continue;  // catch up if the schedule slipped
          }
          auto r = sock.recv_from(
              nullptr, MutableByteSpan(recv_buf.data(), recv_buf.size()),
              /*timeout_ms=*/0);
          if (r.is_ok() && *r >= 4) {
            const auto it = inflight.find(load_be32(recv_buf.data()));
            if (it != inflight.end()) {
              client_lat.record(common::monotonic_ns() - it->second);
              inflight.erase(it);
              ++mine;
            }
            continue;
          }
          // Nothing due and nothing arriving: sleep until the next
          // scheduled send (capped so stop() stays responsive).
          const std::int64_t wait =
              std::min<std::int64_t>(next_ns - common::monotonic_ns(),
                                     200'000);
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
          }
        }
        // Brief tail drain so in-flight replies still count.
        const std::int64_t drain_end = common::monotonic_ns() + 50'000'000;
        while (!inflight.empty() && common::monotonic_ns() < drain_end) {
          auto r = sock.recv_from(
              nullptr, MutableByteSpan(recv_buf.data(), recv_buf.size()),
              /*timeout_ms=*/5);
          if (!r.is_ok() || *r < 4) continue;
          const auto it = inflight.find(load_be32(recv_buf.data()));
          if (it != inflight.end()) {
            client_lat.record(common::monotonic_ns() - it->second);
            inflight.erase(it);
            ++mine;
          }
        }
        total_calls += mine;
        return;
      }
      if (opt.window > 0) {
        // Pipelined bursts: blast `window` calls, then drain the
        // replies.  This is the shape recvmmsg + sendmmsg batch on.
        std::vector<std::int32_t> args(kArraySize);
        Rng rng(static_cast<std::uint64_t>(kArraySize));
        for (auto& a : args) a = static_cast<std::int32_t>(rng.next_u32());
        Bytes send_buf(65000), recv_buf(65000);
        const std::size_t len = generic_encode_call(
            args, 1, MutableByteSpan(send_buf.data(), send_buf.size()));
        const net::Addr server = runtime.udp_addr();
        std::uint32_t xid = 1;
        std::int64_t mine = 0;
        int consecutive_empty = 0;
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        while (!stop.load(std::memory_order_acquire)) {
          for (int i = 0; i < opt.window; ++i) {
            store_be32(send_buf.data(), ++xid);  // xid is the first word
            if (!sock.send_to(server, ByteSpan(send_buf.data(), len))
                     .is_ok()) {
              ++errors;
              total_calls += mine;
              return;
            }
          }
          int got = 0;
          while (got < opt.window) {
            auto r = sock.recv_from(
                nullptr, MutableByteSpan(recv_buf.data(), recv_buf.size()),
                /*timeout_ms=*/200);
            if (!r.is_ok()) break;  // dropped under overload: move on
            ++got;
          }
          // An empty round can be overload or (on a starved host) the
          // server simply not being scheduled; only a sustained silence
          // is a real failure.
          consecutive_empty = got == 0 ? consecutive_empty + 1 : 0;
          if (consecutive_empty >= 10) {
            ++errors;
            total_calls += mine;
            return;
          }
          mine += got;
        }
        total_calls += mine;
        return;
      }
      core::SpecializedInterface iface = make_iface(kArraySize);
      core::SpecializedClient client(sock, runtime.udp_addr(), iface);
      std::vector<std::uint32_t> args(kArraySize), results(kArraySize);
      Rng rng(static_cast<std::uint64_t>(kArraySize));
      for (auto& a : args) a = rng.next_u32();
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::int64_t mine = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (!client.call(args, results).is_ok() || results != args) {
          ++errors;
          break;
        }
        ++mine;
      }
      total_calls += mine;
    });
  }

  go.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(opt.duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Server-side end-to-end distribution, merged across shards and both
  // transports.  Empty (count 0) when TEMPO_METRICS=0.
  rpc::RuntimeLatencySnapshot lat = runtime.latency_snapshot();
  common::HistogramSnapshot e2e = lat.udp_e2e;
  e2e.merge(lat.tcp_e2e);
  runtime.stop();

  if (errors.load() != 0) {
    std::fprintf(stderr, "client errors at workers=%d clients=%d\n", workers,
                 clients);
    std::exit(1);
  }
  Point p;
  p.workers = workers;
  p.clients = clients;
  p.tcp_depth = opt.tcp_depth;
  p.reactors = opt.reactors;
  p.calls_per_sec = static_cast<double>(total_calls.load()) / secs;
  p.lat_count = static_cast<std::int64_t>(e2e.total());
  p.p50_us = static_cast<double>(e2e.p50()) / 1000.0;
  p.p99_us = static_cast<double>(e2e.p99()) / 1000.0;
  p.p999_us = static_cast<double>(e2e.p999()) / 1000.0;
  if (opt.open_loop > 0.0) {
    p.offered_per_sec = opt.open_loop;
    const common::HistogramSnapshot cl = client_lat.snapshot();
    p.client_lat_count = static_cast<std::int64_t>(cl.total());
    p.client_p50_us = static_cast<double>(cl.p50()) / 1000.0;
    p.client_p99_us = static_cast<double>(cl.p99()) / 1000.0;
    p.client_p999_us = static_cast<double>(cl.p999()) / 1000.0;
  }
  return p;
}

double rate_at(const std::vector<Point>& points, int w, int c) {
  for (const auto& p : points) {
    if (p.workers == w && p.clients == c) return p.calls_per_sec;
  }
  return 0.0;
}

void run(const Options& opt) {
  if (opt.open_loop > 0.0 && opt.tcp_depth > 0) {
    std::fprintf(stderr, "--open-loop is UDP-only (no --tcp-depth)\n");
    std::exit(2);
  }

  std::printf(
      "bench_concurrent: echo-array n=%u over loopback %s, "
      "dwell=%dus, %dms per point, reactors=%d, %s\n\n",
      kArraySize, opt.tcp_depth > 0 ? "TCP" : "UDP", opt.dwell_us,
      opt.duration_ms, opt.reactors,
      opt.tcp_depth > 0
          ? "pipelined TCP"
          : (opt.window > 0 ? "pipelined bursts" : "closed loop"));
  if (opt.window > 0 && opt.tcp_depth == 0) {
    std::printf("burst window: %d calls in flight per client\n\n",
                opt.window);
  }
  if (opt.tcp_depth > 0) {
    std::printf("tcp pipeline depth: %d calls in flight per connection\n\n",
                opt.tcp_depth);
  }
  if (opt.open_loop > 0.0) {
    std::printf("open loop: %.0f offered calls/sec across clients\n\n",
                opt.open_loop);
  }
  std::printf("%-10s %-10s %-10s %14s %10s %10s\n", "workers", "clients",
              "reactors", "calls/sec", "p50_us", "p99_us");

  core::SpecCache cache;
  std::vector<Point> points;
  for (int w : {1, 4}) {
    for (int c : {1, 4, 16}) {
      Point p = run_point(cache, w, c, opt);
      std::printf("%-10d %-10d %-10d %14.0f %10.0f %10.0f\n", p.workers,
                  p.clients, p.reactors, p.calls_per_sec, p.p50_us, p.p99_us);
      points.push_back(p);
    }
  }
  const core::SpecCacheStats cache_total = cache.stats();

  const double total = static_cast<double>(cache_total.hits) +
                       static_cast<double>(cache_total.misses);
  const double hit_rate =
      total > 0 ? static_cast<double>(cache_total.hits) / total : 0.0;
  std::printf("\nSpecCache: %lld hits, %lld misses (hit rate %.4f)\n",
              static_cast<long long>(cache_total.hits),
              static_cast<long long>(cache_total.misses), hit_rate);

  if (opt.open_loop > 0.0) {
    // Open loop: throughput is pinned at the offered rate by design, so
    // the worker-scaling PASS/FAIL checks are meaningless — what the
    // mode reports is latency at that rate.
    for (const auto& p : points) {
      std::printf("w=%d c=%d: offered %.0f achieved %.0f — client "
                  "p50=%.0fus p99=%.0fus p999=%.0fus (%lld samples)\n",
                  p.workers, p.clients, p.offered_per_sec,
                  p.calls_per_sec, p.client_p50_us, p.client_p99_us,
                  p.client_p999_us,
                  static_cast<long long>(p.client_lat_count));
    }
  } else {
    // Scaling self-check at the most parallel client count.
    const double r1 = rate_at(points, 1, 16);
    const double r4 = rate_at(points, 4, 16);
    std::printf("scaling 1->4 workers @16 clients: %.0f -> %.0f (%.2fx) %s\n",
                r1, r4, r1 > 0 ? r4 / r1 : 0.0, r4 > r1 ? "PASS" : "FAIL");
  }
  // One array shape across every point: the cache must build it once.
  std::printf("one cache build for the one shape: %s\n",
              cache_total.misses == 1 ? "PASS" : "FAIL");

  if (!opt.json_path.empty()) {
    std::FILE* f = opt.json_path == "-"
                       ? stdout
                       : std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.json_path.c_str());
      std::exit(1);
    }
    JsonWriter jw(f);
    jw.begin_object();
    jw.schema("concurrent");
    jw.field("array_size", kArraySize);
    jw.field("dwell_us", opt.dwell_us);
    jw.field("duration_ms", opt.duration_ms);
    jw.field("window", opt.window);
    jw.field("reactors", opt.reactors);
    jw.field("tcp_depth", opt.tcp_depth);
    jw.field("open_loop_per_sec", opt.open_loop);
    // Whether the server recorded latency histograms: the CI overhead
    // A/B diffs a metrics-on artifact against a TEMPO_METRICS=0 one.
    jw.field("metrics_enabled", common::metrics_enabled());
    jw.key_array("points");
    for (const Point& p : points) {
      jw.begin_object();
      jw.field("workers", p.workers);
      jw.field("clients", p.clients);
      jw.field("reactors", p.reactors);
      jw.field("tcp_depth", p.tcp_depth);
      jw.field("calls_per_sec", p.calls_per_sec);
      jw.field("lat_count", p.lat_count);
      jw.field("p50_us", p.p50_us);
      jw.field("p99_us", p.p99_us);
      jw.field("p999_us", p.p999_us);
      if (p.offered_per_sec > 0.0) {
        jw.field("offered_per_sec", p.offered_per_sec);
        jw.field("client_lat_count", p.client_lat_count);
        jw.field("client_p50_us", p.client_p50_us);
        jw.field("client_p99_us", p.client_p99_us);
        jw.field("client_p999_us", p.client_p999_us);
      }
      jw.end_object();
    }
    jw.end_array();
    jw.key_object("cache");
    jw.field("hits", cache_total.hits);
    jw.field("misses", cache_total.misses);
    jw.field("hit_rate", hit_rate);
    jw.end_object();
    jw.end_object();
    if (f != stdout) std::fclose(f);
  }
}

}  // namespace
}  // namespace tempo::bench

int main(int argc, char** argv) {
  tempo::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      opt.duration_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--dwell-us") == 0 && i + 1 < argc) {
      opt.dwell_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      opt.window = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reactors") == 0 && i + 1 < argc) {
      opt.reactors = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tcp-depth") == 0 && i + 1 < argc) {
      opt.tcp_depth = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--open-loop") == 0 && i + 1 < argc) {
      opt.open_loop = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--duration-ms N] [--dwell-us N] "
                   "[--window N] [--reactors N] [--tcp-depth N] "
                   "[--open-loop RATE] [--json PATH|-]\n",
                   argv[0]);
      return 2;
    }
  }
  tempo::bench::run(opt);
  return 0;
}
