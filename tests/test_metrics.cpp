// Observability plane tests: histogram bucket math and quantile
// accuracy, wait-free concurrent recording, snapshot merge algebra,
// registry aggregation across shards and sources, stage tracing — and
// the acceptance pin: one metrics_snapshot() from a live multi-shard
// server returns runtime, cache, arena and JIT-tier counters that are
// coherent with each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "net/udp.h"
#include "rpc/event_runtime.h"
#include "rpc/svc.h"

namespace tempo {
namespace {

using common::HistogramSnapshot;
using common::LatencyHistogram;
using common::MetricsRegistry;
using common::MetricsSnapshot;

// ------------------------------------------------------- bucket math ---

TEST(LatencyHistogram, BucketIndexIsMonotoneAndBoundsHold) {
  // Exhaustive over the linear range and the first octaves, then
  // spot-check by doubling across the full 63-bit range.
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 1u << 16; ++v) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    ASSERT_GE(idx, prev) << "index not monotone at v=" << v;
    prev = idx;
    const std::uint64_t floor = LatencyHistogram::bucket_floor(idx);
    const std::uint64_t width = LatencyHistogram::bucket_width(idx);
    ASSERT_LE(floor, v) << "floor above value at v=" << v;
    ASSERT_LT(v, floor + width) << "value past bucket end at v=" << v;
  }
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 62); v *= 2) {
    for (std::uint64_t probe : {v - 1, v, v + 1, v + v / 3}) {
      const std::size_t idx = LatencyHistogram::bucket_index(probe);
      ASSERT_LT(idx, LatencyHistogram::kBuckets);
      const std::uint64_t floor = LatencyHistogram::bucket_floor(idx);
      const std::uint64_t width = LatencyHistogram::bucket_width(idx);
      ASSERT_LE(floor, probe);
      ASSERT_LT(probe - floor, width);
    }
  }
}

TEST(LatencyHistogram, NegativeInputsClampToZero) {
  LatencyHistogram h;
  h.record(-5);
  h.record(-1);
  h.record(0);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.total(), 3u);
  EXPECT_EQ(s.max, 0);
  EXPECT_EQ(s.quantile(1.0), 0);
}

TEST(LatencyHistogram, EmptySnapshotIsZero) {
  LatencyHistogram h;
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.total(), 0u);
  EXPECT_EQ(s.p50(), 0);
  EXPECT_EQ(s.p999(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

// --------------------------------------------------- quantile accuracy ---

TEST(LatencyHistogram, QuantilesTrackSortedReference) {
  // Log-uniform samples spanning six decades — the shape real latency
  // distributions have.  The histogram guarantees ~1/32 relative
  // bucket error; assert a conservative 1/16 against the exact sorted
  // reference.
  LatencyHistogram h;
  std::vector<std::int64_t> ref;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 200000; ++i) {
    // 2^(10..30) ns, log-uniform: exponent uniform, mantissa uniform.
    const unsigned exp = 10 + static_cast<unsigned>(next() % 21);
    const std::uint64_t lo = std::uint64_t{1} << exp;
    const std::int64_t v = static_cast<std::int64_t>(lo + next() % lo);
    ref.push_back(v);
    h.record(v);
  }
  std::sort(ref.begin(), ref.end());
  HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.total(), ref.size());
  EXPECT_EQ(s.max, ref.back());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const std::size_t rank = std::min(
        ref.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(ref.size())));
    const double exact = static_cast<double>(ref[rank]);
    const double approx = static_cast<double>(s.quantile(q));
    EXPECT_NEAR(approx, exact, exact / 16.0) << "q=" << q;
  }
  // The top quantile never exceeds the exact observed maximum (the
  // clamp direction: bucket midpoints can overshoot the max, never the
  // reported quantile).
  EXPECT_LE(s.quantile(1.0), ref.back());
  EXPECT_NEAR(static_cast<double>(s.quantile(1.0)),
              static_cast<double>(ref.back()),
              static_cast<double>(ref.back()) / 16.0);
}

// ------------------------------------------------ concurrent recording ---

TEST(LatencyHistogram, ConcurrentRecordingLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(t * 1000 + i % 997);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.total(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Max is exact: the largest value any thread recorded.
  EXPECT_EQ(h.snapshot().max, (kThreads - 1) * 1000 + 996);
}

// ----------------------------------------------------- merge algebra ---

HistogramSnapshot filled(std::initializer_list<std::int64_t> vals) {
  LatencyHistogram h;
  for (auto v : vals) h.record(v);
  return h.snapshot();
}

TEST(HistogramSnapshot, MergeIsAssociativeAndCommutative) {
  const HistogramSnapshot a = filled({1, 50, 3000});
  const HistogramSnapshot b = filled({7, 7, 90000});
  const HistogramSnapshot c = filled({123456789});

  HistogramSnapshot ab = a;
  ab.merge(b);
  HistogramSnapshot ab_c = ab;
  ab_c.merge(c);

  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c, a_bc);

  HistogramSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  EXPECT_EQ(ab_c.total(), 7u);
  EXPECT_EQ(ab_c.max, 123456789);

  // Merging an empty snapshot is the identity.
  HistogramSnapshot id = a;
  id.merge(HistogramSnapshot{});
  EXPECT_EQ(id, a);
}

// ------------------------------------------------ registry aggregation ---

TEST(MetricsRegistry, AggregatesShardsAndMatchesPerShardSum) {
  MetricsRegistry reg;
  constexpr std::size_t kShards = 4;
  std::uint64_t expected_total = 0;
  std::int64_t expected_count = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    LatencyHistogram& h = reg.histogram("test.lat_ns", s);
    for (int i = 0; i < 100 * (static_cast<int>(s) + 1); ++i) {
      h.record(1000 * static_cast<std::int64_t>(s + 1));
      ++expected_total;
    }
    reg.counter("test.calls", s).add(10 * static_cast<std::int64_t>(s + 1));
    expected_count += 10 * static_cast<std::int64_t>(s + 1);
  }
  MetricsSnapshot snap = reg.snapshot();
  ASSERT_TRUE(snap.histograms.count("test.lat_ns"));
  EXPECT_EQ(snap.histograms["test.lat_ns"].total(), expected_total);
  EXPECT_EQ(snap.counters["test.calls"], expected_count);

  // The merged view equals the manual per-shard merge.
  HistogramSnapshot manual;
  for (std::size_t s = 0; s < kShards; ++s) {
    manual.merge(reg.histogram("test.lat_ns", s).snapshot());
  }
  EXPECT_EQ(snap.histograms["test.lat_ns"], manual);

  // Stable references: the same (name, shard) resolves to the same
  // instrument.
  EXPECT_EQ(&reg.counter("test.calls", 1), &reg.counter("test.calls", 1));
}

TEST(MetricsRegistry, SourcesFoldInAndUnregisterOnDestruction) {
  MetricsRegistry reg;
  {
    MetricsRegistry::SourceHandle handle =
        reg.add_source([](MetricsSnapshot& snap) {
          snap.add_counter("src.alpha", 5);
          snap.add_gauge("src.pool", 100);
        });
    MetricsRegistry::SourceHandle handle2 =
        reg.add_source([](MetricsSnapshot& snap) {
          snap.add_counter("src.alpha", 2);
          snap.add_gauge("src.pool", 11);
        });
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters["src.alpha"], 7);  // contributions sum
    EXPECT_EQ(snap.gauges["src.pool"], 111);
  }
  MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.counters.count("src.alpha"), 0u);
  EXPECT_EQ(after.gauges.count("src.pool"), 0u);
}

// ------------------------------------------------------ stage tracing ---

TEST(Tracer, StagesSumToTotalAndCommitToOriginShard) {
  common::Tracer tracer(/*shards=*/2, /*ring_capacity=*/8,
                        /*sample_every=*/1);
  ASSERT_TRUE(tracer.should_sample());
  tracer.begin(/*xid=*/0xABCD, /*shard=*/1, /*worker=*/3,
               /*queue_wait_ns=*/5000);
  common::trace_mark(common::TraceStage::kDecode);
  common::trace_mark(common::TraceStage::kExecute);
  common::trace_mark(common::TraceStage::kDecode);  // accumulates
  common::trace_set_tier(common::TraceTier::kJit);
  common::trace_end();
  EXPECT_FALSE(common::trace_active());

  const std::vector<common::TraceRecord> recs = tracer.snapshot();
  ASSERT_EQ(recs.size(), 1u);
  const common::TraceRecord& r = recs[0];
  EXPECT_EQ(r.xid, 0xABCDu);
  EXPECT_EQ(r.shard, 1);
  EXPECT_EQ(r.worker, 3);
  EXPECT_EQ(r.tier, common::TraceTier::kJit);
  EXPECT_EQ(r.stage_ns[static_cast<int>(common::TraceStage::kRecv)], 5000);
  std::int64_t stage_sum = 0;
  for (std::size_t i = 0; i < common::kTraceStageCount; ++i) {
    EXPECT_GE(r.stage_ns[i], 0) << "stage " << i;
    stage_sum += r.stage_ns[i];
  }
  // Total covers begin..end plus the backdated queue wait; unmarked
  // tail time (between the last mark and trace_end) is not attributed
  // to any stage, so the stage sum is a lower bound.
  EXPECT_LE(stage_sum, r.total_ns);
  EXPECT_GE(r.total_ns, 5000);
}

TEST(Tracer, UnsampledMarksAreNoOps) {
  common::Tracer tracer(1, 8, /*sample_every=*/0);
  EXPECT_FALSE(tracer.should_sample());
  // No active trace: marks must be safe no-ops.
  common::trace_mark(common::TraceStage::kDecode);
  common::trace_set_tier(common::TraceTier::kPlan);
  common::trace_end();
  EXPECT_EQ(tracer.committed(), 0u);
}

// ------------------------------------------- acceptance: live server ---

constexpr std::uint32_t kProg = 0x20000999;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProc = 7;

idl::ProcDef echo_array_proc() {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = kProc;
  proc.arg_type = idl::t_array_var(idl::t_int(), 2000);
  proc.res_type = idl::t_array_var(idl::t_int(), 2000);
  return proc;
}

// One metrics_snapshot() call on a live multi-shard server must return
// runtime, cache and tier counters that cohere: request counts line up
// across layers, the tier counters partition the served requests, and
// the latency histograms hold one sample per request.
TEST(MetricsPlane, LiveServerSnapshotIsCoherent) {
  if (!common::metrics_enabled()) GTEST_SKIP() << "TEMPO_METRICS=0";

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
  cfg.reactors = 2;
  rpc::EventServerRuntime runtime(reg, cfg);
  ASSERT_TRUE(runtime.start().is_ok());

  const std::vector<std::uint32_t> sizes = {25, 60};
  constexpr int kCallsPerClient = 40;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (auto n : sizes) {
    clients.emplace_back([&, n] {
      core::SpecConfig scfg;
      scfg.arg_counts = {n};
      scfg.res_counts = {n};
      auto iface = core::SpecializedInterface::build(echo_array_proc(),
                                                     kProg, kVers, scfg);
      net::UdpSocket sock;
      if (!iface.is_ok() || !sock.ok()) {
        ++bad;
        return;
      }
      core::SpecializedClient client(sock, runtime.udp_addr(), *iface);
      std::vector<std::uint32_t> args(n), results(n, 0);
      for (std::uint32_t i = 0; i < n; ++i) args[i] = n + i;
      for (int round = 0; round < kCallsPerClient; ++round) {
        if (!client.call(args, results).is_ok() || results != args) {
          ++bad;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(bad.load(), 0);

  const std::int64_t calls =
      static_cast<std::int64_t>(sizes.size()) * kCallsPerClient;

  // The e2e histogram records after the reply is on the wire, so the
  // last client can return a beat before its sample lands; give the
  // flusher a bounded moment to catch up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (static_cast<std::int64_t>(
             runtime.latency_snapshot().udp_e2e.total()) < calls &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // THE acceptance snapshot: one call, every layer visible at once.
  MetricsSnapshot snap = runtime.metrics_snapshot();

  // Runtime plane.
  EXPECT_GE(snap.counters["rpc.udp_datagrams"], calls);
  EXPECT_GE(snap.counters["rpc.udp_batches"], 1);
  EXPECT_EQ(snap.gauges["rpc.reactors"], 2);
  EXPECT_EQ(snap.gauges["rpc.workers"], 4);
  EXPECT_STREQ(runtime.backend(), "epoll");

  // Latency histograms: one queue-wait + one handle + one e2e sample
  // per served datagram, p-order sane.
  ASSERT_TRUE(snap.histograms.count("rpc.queue_ns"));
  ASSERT_TRUE(snap.histograms.count("rpc.handle_ns"));
  ASSERT_TRUE(snap.histograms.count("rpc.udp_e2e_ns"));
  const HistogramSnapshot& e2e = snap.histograms["rpc.udp_e2e_ns"];
  EXPECT_GE(static_cast<std::int64_t>(
                snap.histograms["rpc.queue_ns"].total()),
            calls);
  EXPECT_GE(static_cast<std::int64_t>(
                snap.histograms["rpc.handle_ns"].total()),
            calls);
  EXPECT_GE(static_cast<std::int64_t>(e2e.total()), calls);
  EXPECT_GT(e2e.p50(), 0);
  EXPECT_LE(e2e.p50(), e2e.p99());
  EXPECT_LE(e2e.p99(), e2e.max);
  // End-to-end includes the handler, so distribution-wide: max(e2e)
  // covers at least one full handle.
  EXPECT_GE(e2e.max, snap.histograms["rpc.handle_ns"].quantile(0.0));

  // Dispatch plane: every datagram that reached a handler is a
  // registry request, and all of ours succeeded.
  EXPECT_GE(snap.counters["svc.requests"], calls);
  EXPECT_GE(snap.counters["svc.success"], calls);
  EXPECT_EQ(snap.counters["svc.protocol_errors"], 0);

  // Service tiers partition the served requests exactly.
  const std::int64_t tier_sum = snap.counters["service.tier_jit"] +
                                snap.counters["service.tier_plan"] +
                                snap.counters["service.tier_generic"];
  EXPECT_EQ(tier_sum, snap.counters["service.fast_path"] +
                          snap.counters["service.generic_path"]);
  EXPECT_GE(tier_sum, calls);

  // Cache plane: one miss per distinct shape, the rest hits; gauges
  // reflect the live cache.
  EXPECT_EQ(snap.counters["spec_cache.misses"],
            static_cast<std::int64_t>(sizes.size()));
  EXPECT_GE(snap.counters["spec_cache.hits"], 1);
  EXPECT_GE(snap.gauges["spec_cache.size"],
            static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(snap.gauges["spec_cache.capacity"], 32);

  // Arena plane is registered (counters exist even if UDP traffic
  // never borrowed a pooled buffer).
  EXPECT_TRUE(snap.counters.count("arena.hits"));
  EXPECT_TRUE(snap.gauges.count("arena.bytes_pooled"));

  // The plain-struct and registry views of the same runtime agree.
  EXPECT_EQ(snap.counters["rpc.udp_datagrams"],
            runtime.stats().udp_datagrams.load());

  runtime.stop();

  // After stop() the runtime's source is gone: a fresh global snapshot
  // no longer carries its counters (cache + service are still live and
  // still contribute).
  MetricsSnapshot after = common::metrics().snapshot();
  EXPECT_EQ(after.counters.count("rpc.udp_datagrams"), 0u);
  EXPECT_GE(after.counters["spec_cache.misses"],
            static_cast<std::int64_t>(sizes.size()));
}

}  // namespace
}  // namespace tempo
