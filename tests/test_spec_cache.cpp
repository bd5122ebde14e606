// SpecCache tests: memoization under concurrency (one build per key),
// bounded LRU eviction + rebuild, byte-identical cached plans, negative
// caching, and the cache wired into the record-stream TcpServer via
// CachedSpecService over real loopback TCP (the concurrent runtime's
// UDP and TCP paths are covered in test_reactor.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "core/stubspec.h"
#include "idl/interp.h"
#include "net/tcp.h"
#include "rpc/client.h"
#include "rpc/svc.h"
#include "xdr/primitives.h"

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
  SpecCache cache(16);
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
  SpecCache cache(16);
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

// 8 threads hammer a small key set concurrently; the in-flight protocol
// must make each distinct key build exactly once (miss count == distinct
// keys) and hand every thread the same shared instance per key.
TEST(SpecCache, ConcurrentHammeringBuildsOncePerKey) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 200;
  const std::vector<std::uint32_t> sizes = {10, 20, 30, 40, 50, 60};

  SpecCache cache(64);
  const auto proc = echo_array_proc();

  std::vector<std::vector<const SpecializedInterface*>> seen(
      kThreads, std::vector<const SpecializedInterface*>(sizes.size(),
                                                         nullptr));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t k = static_cast<std::size_t>((i + t) %
                                                       sizes.size());
        auto r = cache.get_or_build(proc, kProg, kVers, cfg_for(sizes[k]));
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
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(stats.hits,
            static_cast<std::int64_t>(kThreads) * kItersPerThread -
                static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(stats.evictions, 0);
  // Every thread saw the same instance for each key.
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][k], seen[0][k]);
    }
  }
}

TEST(SpecCache, LruEvictionTriggersRebuild) {
  SpecCache cache(2);
  const auto proc = echo_array_proc();

  auto a1 = cache.get_or_build(proc, kProg, kVers, cfg_for(10));  // miss
  ASSERT_TRUE(a1.is_ok());
  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(20)).is_ok());
  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  // LRU order now: 10 (front), 20 (back).  Inserting 30 evicts 20.
  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(30)).is_ok());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);

  // 20 was evicted: asking again is a miss and rebuilds.
  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(20)).is_ok());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 4);  // 10, 20, 30, 20-again
  EXPECT_EQ(stats.hits, 1);    // the middle 10
  EXPECT_EQ(stats.evictions, 2);  // 20, then 10 (LRU when 20 returned)

  // 10 survived in a caller's handle even though the cache dropped it.
  auto a2 = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
  ASSERT_TRUE(a2.is_ok());
  EXPECT_NE(a1->get(), a2->get());  // rebuilt, not resurrected
  EXPECT_EQ((*a1)->encode_call_plan().out_size,
            (*a2)->encode_call_plan().out_size);
}

// A cached interface must be indistinguishable from a freshly built one:
// identical residual instructions and identical wire bytes.
TEST(SpecCache, CachedPlansByteCompareEqualToFreshBuild) {
  const std::uint32_t n = 100;
  SpecCache cache(8);
  const auto proc = echo_array_proc();

  auto cached = cache.get_or_build(proc, kProg, kVers, cfg_for(n));
  ASSERT_TRUE(cached.is_ok());
  // Hit the entry a few times so LRU bookkeeping has run.
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
  SpecCache cache(8);
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

// ---- sharding ------------------------------------------------------------

TEST(SpecCacheSharding, CountersAggregateAcrossShards) {
  SpecCache cache(64, /*shards=*/4);
  EXPECT_EQ(cache.shard_count(), 4u);
  const auto proc = echo_array_proc();

  const std::vector<std::uint32_t> sizes = {10, 20, 30, 40, 50, 60, 70, 80};
  for (auto n : sizes) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(n)).is_ok());
  }
  for (auto n : sizes) {  // second pass: all hits
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(n)).is_ok());
  }

  const auto total = cache.stats();
  EXPECT_EQ(total.misses, static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(total.hits, static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(total.evictions, 0);
  EXPECT_EQ(cache.size(), sizes.size());

  // The aggregate is exactly the sum of the per-shard counters, and the
  // keys landed somewhere (not all in shard 0).
  SpecCacheStats summed;
  std::size_t summed_size = 0;
  for (std::size_t s = 0; s < cache.shard_count(); ++s) {
    const auto ss = cache.shard_stats(s);
    summed.hits += ss.hits;
    summed.misses += ss.misses;
    summed.evictions += ss.evictions;
    summed.build_failures += ss.build_failures;
    summed_size += cache.shard_size(s);
  }
  EXPECT_EQ(summed.hits, total.hits);
  EXPECT_EQ(summed.misses, total.misses);
  EXPECT_EQ(summed.evictions, total.evictions);
  EXPECT_EQ(summed_size, cache.size());
}

TEST(SpecCacheSharding, EvictionsStayPerShardBounded) {
  // 4 shards x 2 slots each; flooding with distinct keys must bound the
  // total footprint at the overall capacity.
  SpecCache cache(8, /*shards=*/4);
  const auto proc = echo_array_proc();
  for (std::uint32_t n = 1; n <= 40; ++n) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(n)).is_ok());
  }
  EXPECT_LE(cache.size(), 8u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 40);
  EXPECT_EQ(stats.evictions,
            40 - static_cast<std::int64_t>(cache.size()));
}

TEST(SpecCacheSharding, ShardCountClampedToCapacity) {
  SpecCache cache(2, /*shards=*/8);
  EXPECT_EQ(cache.shard_count(), 2u);  // every shard keeps >= 1 slot
}

// The one-build-per-key contract must survive sharding: 8 threads
// hammer keys that scatter across 4 shards; each key still builds
// exactly once and every thread sees the same shared instance.
TEST(SpecCacheSharding, OneBuildPerKeyUnder8ThreadContention) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 200;
  const std::vector<std::uint32_t> sizes = {11, 22, 33, 44, 55, 66, 77, 88};

  SpecCache cache(64, /*shards=*/4);
  const auto proc = echo_array_proc();

  std::vector<std::vector<const SpecializedInterface*>> seen(
      kThreads,
      std::vector<const SpecializedInterface*>(sizes.size(), nullptr));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t k =
            static_cast<std::size_t>((i + t) % sizes.size());
        auto r = cache.get_or_build(proc, kProg, kVers, cfg_for(sizes[k]));
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
  EXPECT_EQ(stats.misses, static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(stats.hits,
            static_cast<std::int64_t>(kThreads) * kItersPerThread -
                static_cast<std::int64_t>(sizes.size()));
  EXPECT_EQ(stats.evictions, 0);
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][k], seen[0][k]);
    }
  }
}

// ---- the RCU-style hot-spec slot ------------------------------------------

// After kHotPublishEpoch locked hits on one key, the cache publishes it
// through the atomic hot slot: later lookups of that key are served
// lock-free (counted in hot_hits) and still return the same instance.
TEST(SpecCacheHotSlot, PublishesAfterEpochAndServesLockFree) {
  SpecCache cache(32, /*shards=*/4);
  const auto proc = echo_array_proc();

  auto first = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
  ASSERT_TRUE(first.is_ok());
  const auto* instance = first->get();

  // Epoch-1 locked hits leave the slot unpublished...
  for (std::int64_t i = 0; i < SpecCache::kHotPublishEpoch - 1; ++i) {
    auto r = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r->get(), instance);
  }
  EXPECT_EQ(cache.stats().hot_hits, 0);

  // ...the epoch-boundary hit publishes...
  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());

  // ...and every later hit of this key is lock-free.
  constexpr int kHotRounds = 10;
  for (int i = 0; i < kHotRounds; ++i) {
    auto r = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r->get(), instance);  // same shared instance, slot or shard
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hot_hits, kHotRounds);
  EXPECT_EQ(stats.misses, 1);
  // hits includes the hot-slot hits.
  EXPECT_EQ(stats.hits, SpecCache::kHotPublishEpoch + kHotRounds);

  // A different key never matches the slot: correct instance, no
  // hot-hit accounting drift.
  auto other = cache.get_or_build(proc, kProg, kVers, cfg_for(20));
  ASSERT_TRUE(other.is_ok());
  EXPECT_NE(other->get(), instance);
  EXPECT_EQ(cache.stats().hot_hits, kHotRounds);
}

// The slot holds a SpecHandle, so the published interface survives LRU
// eviction exactly like a caller-held handle: the hot key keeps being
// served (without a rebuild) even after distinct-key flooding pushed it
// out of every shard.
TEST(SpecCacheHotSlot, HotKeySurvivesEvictionWithoutRebuild) {
  SpecCache cache(4, /*shards=*/1);
  const auto proc = echo_array_proc();

  auto hot = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
  ASSERT_TRUE(hot.is_ok());
  const auto* instance = hot->get();
  for (std::int64_t i = 0; i < SpecCache::kHotPublishEpoch; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  }

  // Flood with 8 distinct keys: capacity 4, so key 10 is long evicted.
  for (std::uint32_t n = 100; n < 108; ++n) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(n)).is_ok());
  }
  EXPECT_LE(cache.size(), 4u);
  const auto before = cache.stats();

  auto again = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again->get(), instance);  // not rebuilt, not resurrected
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, before.misses);  // no pipeline run
  EXPECT_EQ(after.hot_hits, before.hot_hits + 1);
}

// Every kHotRefreshPeriod-th slot read takes the locked path to
// re-touch the hot key's LRU entry: the hottest key must not decay
// into the shard's eviction victim just because its hits bypass the
// shard, and after a slot displacement it must still be served from
// the shard without a rebuild.
TEST(SpecCacheHotSlot, RefreshKeepsHotKeyWarmInShardLru) {
  SpecCache cache(4, /*shards=*/1);
  const auto proc = echo_array_proc();

  auto a = cache.get_or_build(proc, kProg, kVers, cfg_for(10));  // miss 1
  ASSERT_TRUE(a.is_ok());
  const auto* instance = a->get();
  for (std::int64_t i = 0; i < SpecCache::kHotPublishEpoch; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  }
  // Slot published; burn kHotRefreshPeriod - 1 hot reads...
  for (std::int64_t i = 0; i < SpecCache::kHotRefreshPeriod - 1; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  }
  // ...then fill the other three slots, leaving key 10 LRU-coldest.
  for (std::uint32_t n : {20u, 30u, 40u}) {  // misses 2..4
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(n)).is_ok());
  }
  // The next slot read is the refresh tick: it re-touches key 10.
  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  // A fifth key now evicts the true LRU victim (20), NOT the hot key.
  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers,
                                 cfg_for(50)).is_ok());  // miss 5
  EXPECT_EQ(cache.stats().evictions, 1);

  // Displace the slot (key 50 earns it), then fetch the old hot key:
  // it must come from the SHARD — no rebuild — with the same instance.
  for (std::int64_t i = 0; i < SpecCache::kHotPublishEpoch; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(50)).is_ok());
  }
  auto again = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again->get(), instance);
  EXPECT_EQ(cache.stats().misses, 5);  // no rebuild of the hot key
}

// A refresh tick that lands AFTER the hot key was evicted must
// reinsert the published handle, not re-run the pipeline: the shard
// miss path consults the slot the lookup fell through from.
TEST(SpecCacheHotSlot, RefreshTickReinsertsEvictedHotKeyWithoutRebuild) {
  SpecCache cache(4, /*shards=*/1);
  const auto proc = echo_array_proc();

  auto a = cache.get_or_build(proc, kProg, kVers, cfg_for(10));  // miss 1
  ASSERT_TRUE(a.is_ok());
  const auto* instance = a->get();
  for (std::int64_t i = 0; i < SpecCache::kHotPublishEpoch; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  }
  // Burn all pre-refresh slot reads while the key is still cached...
  for (std::int64_t i = 0; i < SpecCache::kHotRefreshPeriod - 1; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  }
  // ...then evict it: five fresh keys through a 4-slot shard push the
  // untouched hot key out first.
  for (std::uint32_t n : {20u, 30u, 40u, 50u, 60u}) {  // misses 2..6
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(n)).is_ok());
  }
  const auto before = cache.stats();
  ASSERT_EQ(before.misses, 6);

  // The refresh tick finds the shard entry gone and reinserts the
  // published handle: a hit, not a rebuild.
  auto again = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again->get(), instance);
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, 6);             // no pipeline run
  EXPECT_EQ(after.hits, before.hits + 1);  // counted as a shard hit
  EXPECT_EQ(cache.size(), 4u);             // reinserted under the cap
}

// When traffic shifts, the new hot key takes the slot over (its locked
// hits accumulate while the old key's don't), and the displaced key is
// still served correctly through its shard.
TEST(SpecCacheHotSlot, WorkloadShiftHandsTheSlotOver) {
  SpecCache cache(32, /*shards=*/4);
  const auto proc = echo_array_proc();

  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  for (std::int64_t i = 0; i < SpecCache::kHotPublishEpoch; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(10)).is_ok());
  }
  const auto hot10 = cache.stats().hot_hits;

  // Key 20 becomes the traffic: it accumulates locked hits (key 10
  // holds the slot, so 20's lookups go through its shard) until it
  // publishes itself at its own epoch boundary.
  ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(20)).is_ok());
  for (std::int64_t i = 0; i < SpecCache::kHotPublishEpoch; ++i) {
    ASSERT_TRUE(cache.get_or_build(proc, kProg, kVers, cfg_for(20)).is_ok());
  }
  // Now 20 owns the slot...
  const auto before = cache.stats();
  auto r20 = cache.get_or_build(proc, kProg, kVers, cfg_for(20));
  ASSERT_TRUE(r20.is_ok());
  EXPECT_EQ(cache.stats().hot_hits, before.hot_hits + 1);
  // ...and 10, displaced, is still served correctly from its shard.
  auto r10 = cache.get_or_build(proc, kProg, kVers, cfg_for(10));
  ASSERT_TRUE(r10.is_ok());
  EXPECT_NE(r10->get(), r20->get());
  EXPECT_EQ(cache.stats().hot_hits, before.hot_hits + 1);  // not via slot
  EXPECT_GE(cache.stats().hot_hits, hot10);
  EXPECT_EQ(cache.stats().misses, 2);
}

// 8 threads hammer a skewed workload (one dominant key + churn keys)
// while the slot publishes and republishes underneath them: every
// lookup must still return the one shared instance per key.  This is
// the test the TSan CI job pins the publication protocol with.
TEST(SpecCacheHotSlot, ConcurrentSkewedTrafficStaysConsistent) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  SpecCache cache(64, /*shards=*/4);
  const auto proc = echo_array_proc();

  std::atomic<int> failures{0};
  std::vector<const SpecializedInterface*> dominant(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // 7 of 8 lookups hit the dominant key; the rest churn.
        const std::uint32_t n =
            (i % 8 != 0) ? 10u : 30u + static_cast<std::uint32_t>((i + t) % 4);
        auto r = cache.get_or_build(proc, kProg, kVers, cfg_for(n));
        if (!r.is_ok()) {
          ++failures;
          continue;
        }
        if (n == 10) {
          if (dominant[static_cast<std::size_t>(t)] == nullptr) {
            dominant[static_cast<std::size_t>(t)] = r->get();
          } else if (dominant[static_cast<std::size_t>(t)] != r->get()) {
            ++failures;  // instance changed: memoization broken
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(dominant[static_cast<std::size_t>(t)], dominant[0]);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 5);  // key 10 + churn keys 30..33
  EXPECT_GT(stats.hot_hits, 0);
  EXPECT_EQ(stats.hits,
            static_cast<std::int64_t>(kThreads) * kItersPerThread - 5);
}

// ---- the cache behind the record-stream server --------------------------

// rpc::TcpServer reads calls through an xdrrec stream, so the arguments
// cannot be inlined (the service's stream-opaque path) — but the cache
// still resolves the specialization, exactly once.
TEST(TcpServer, CachedServiceOverTcpStream) {
  SpecCache cache(32);
  const auto proc = echo_array_proc();

  rpc::SvcRegistry reg;
  CachedSpecService service(
      cache, proc, kProg, kVers,
      [](std::span<const std::uint32_t> /*arg_counts*/,
         std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        std::copy(args.begin(), args.end(), results.begin());
        return true;
      });
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
  // but the cache still resolved the specialization for reply encoding.
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace tempo::core
