// Replication consistency for the KV subsystem (src/kv/repl.h) under
// the seeded UDP fault proxy from test_fault_proxy.h.
//
// The log-shipping stream rides the plan/JIT fast path (fixed-shape
// KV_SHIP words through CachedSpecService / SpecializedClient); this
// suite drops, duplicates and reorders that stream and pins the
// acceptance invariants:
//
//   * the replica converges to a BYTE-IDENTICAL store (per-shard dump
//     equality, digest equality),
//   * with ZERO duplicate applies (kv.repl_duplicate_applies == 0 —
//     retransmitted batches are skipped by the strict sequence check,
//     never re-applied),
//   * strict sequence books in the test_stress.cpp style: every
//     primary commit is applied on the replica exactly once, so the
//     replica's applied count equals its final last_applied.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/endian.h"
#include "kv/repl.h"
#include "kv/service.h"
#include "rpc/event_runtime.h"
#include "rpc/svc.h"
#include "test_fault_proxy.h"
#include "test_rng.h"

namespace tempo {
namespace {

// Mixed-size values, from one word to 3,000 (12 KB), so ship batches
// run from a few words to most of the 16,000 a message holds.
std::string value_for(test::Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return "v" + std::to_string(rng.next() % 1000);
    case 1:
      return std::string(64 + rng.below(128), 'a');
    case 2:
      return std::string(1000 + rng.below(2000), 'b');
    default:
      return std::string(9000 + rng.below(3000), 'c');
  }
}

// Runs `mutations` seeded put/del operations against the primary.
void run_workload(kv::KvService& primary, std::uint64_t seed,
                  int mutations) {
  test::Rng rng{seed};
  for (int i = 0; i < mutations; ++i) {
    const std::string key = "key-" + std::to_string(rng.below(40));
    if (rng.chance(0.15)) {
      ASSERT_TRUE(primary.del(key).is_ok());
    } else {
      ASSERT_TRUE(primary.put(key, value_for(rng)).is_ok());
    }
  }
}

void expect_converged(kv::KvService& primary, kv::KvReplicaSink& sink) {
  ASSERT_EQ(primary.shard_count(), sink.shard_count());
  std::int64_t replica_applied_expect = 0;
  for (std::uint32_t s = 0; s < primary.shard_count(); ++s) {
    // Strict sequence books: the replica's chain ends exactly where
    // the primary's does...
    EXPECT_EQ(sink.last_applied(s), primary.store(s).last_applied())
        << "shard " << s;
    // ...and the stores are byte-identical.
    EXPECT_EQ(sink.store(s).dump(), primary.store(s).dump())
        << "shard " << s;
    replica_applied_expect +=
        static_cast<std::int64_t>(primary.store(s).last_applied());
  }
  EXPECT_EQ(sink.digest(), primary.digest());
  // Every sequence applied exactly once: applied == final last_applied
  // summed over shards, and the store-level double-apply counter is 0.
  EXPECT_EQ(sink.stats().applied.load(), replica_applied_expect);
  EXPECT_EQ(sink.duplicate_applies(), 0);
  auto snap = common::metrics().snapshot();
  EXPECT_EQ(snap.counters["kv.repl_duplicate_applies"], 0);
}

struct ReplicaHarness {
  explicit ReplicaHarness(std::uint32_t shards) : sink(shards) {
    sink.install(registry);
    rpc::EventServerRuntimeConfig cfg;
    cfg.workers = 2;
    cfg.enable_tcp = false;
    runtime = std::make_unique<rpc::EventServerRuntime>(registry, cfg);
    EXPECT_TRUE(runtime->start().is_ok());
  }
  ~ReplicaHarness() { runtime->stop(); }

  rpc::SvcRegistry registry;
  kv::KvReplicaSink sink;
  std::unique_ptr<rpc::EventServerRuntime> runtime;
};

TEST(KvShipCodec, RecordsRoundTripThroughShipWords) {
  std::vector<kv::LogRecord> records;
  for (int i = 1; i <= 5; ++i) {
    kv::LogRecord r;
    r.seq = static_cast<std::uint64_t>(i) + (1ull << 33);  // >32-bit seqs
    r.op = i % 3 == 0 ? kv::KvOp::kDel : kv::KvOp::kPut;
    r.key = "key-" + std::string(static_cast<std::size_t>(i), 'k');
    if (r.op == kv::KvOp::kPut) {
      r.value = std::string(static_cast<std::size_t>(i * 7 + 1), 'v');
    }
    records.push_back(r);
  }
  std::vector<std::uint32_t> words{3 /*shard*/,
                                   static_cast<std::uint32_t>(records.size())};
  for (const auto& r : records) kv::append_ship_words(words, r);
  std::vector<std::uint32_t> trailing = words;
  trailing.resize(words.size() + 7, 0u);  // trailing words are ignored

  for (const auto& input : {words, trailing}) {
    auto batch = kv::decode_ship_words(input);
    ASSERT_TRUE(batch.is_ok());
    EXPECT_EQ(batch->shard, 3u);
    ASSERT_EQ(batch->records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(batch->records[i].seq, records[i].seq);
      EXPECT_EQ(batch->records[i].op, records[i].op);
      EXPECT_EQ(batch->records[i].key, records[i].key);
      EXPECT_EQ(batch->records[i].value, records[i].value);
    }
  }
  // Truncated/corrupt word streams are rejected, never mis-decoded.
  EXPECT_FALSE(kv::decode_ship_words(std::span<const std::uint32_t>(
                                         words.data(), 1))
                   .is_ok());
  words[1] = 100000;  // record count beyond the buffer
  EXPECT_FALSE(kv::decode_ship_words(words).is_ok());
}

// A ship message carries exactly its records' words: the call header,
// the array's count word, then the shard/count header and the record.
TEST(KvRepl, ShipsExactlyTheRecordWords) {
  auto primary = kv::KvService::open(kv::KvService::Options{});
  ASSERT_TRUE(primary.is_ok());
  net::UdpSocket replica;  // bare socket: reads the datagram, never acks
  ASSERT_TRUE(replica.ok());

  kv::KvReplicator::Options ropts;
  ropts.call.total_timeout_ms = 200;
  kv::KvReplicator repl(**primary, replica.local_addr(), ropts);
  kv::LogRecord r;
  r.key = "exact-key";
  r.value = std::string(37, 'v');
  ASSERT_TRUE((*primary)->put(r.key, r.value).is_ok());
  ASSERT_TRUE(repl.start().is_ok());

  Bytes buf(net::kMaxDatagramBytes);
  auto got = replica.recv_from(nullptr, MutableByteSpan(buf.data(), buf.size()),
                               /*timeout_ms=*/5000);
  repl.stop();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  const std::size_t words = kv::kShipHeaderWords + kv::record_ship_words(r);
  EXPECT_EQ(*got, 40 + 4 + 4 * words);
  ASSERT_GE(*got, 44u);
  EXPECT_EQ(load_be32(buf.data() + 40), words);
}

TEST(KvRepl, ConvergesOnCleanLink) {
  kv::KvService::Options opts;
  opts.shards = 2;
  auto primary = kv::KvService::open(opts);
  ASSERT_TRUE(primary.is_ok());
  ReplicaHarness replica(2);

  kv::KvReplicator repl(**primary, replica.runtime->udp_addr());
  ASSERT_TRUE(repl.start().is_ok());
  run_workload(**primary, /*seed=*/1234, /*mutations=*/300);
  ASSERT_TRUE(repl.wait_caught_up(20000)) << "lag " << repl.lag();
  repl.stop();

  expect_converged(**primary, replica.sink);
  // The ship stream actually rode the specialized plane.
  EXPECT_GT(replica.sink.service_stats().fast_path.load(), 0);
  EXPECT_GT(repl.stats().shipped_records.load(), 0);
}

// The acceptance regression: seeded drop/dup/reorder on the shipping
// stream; the replica must converge byte-identical with zero duplicate
// applies.
TEST(KvRepl, ConvergesUnderSeededDropDupReorder) {
  kv::KvService::Options opts;
  opts.shards = 2;
  auto primary = kv::KvService::open(opts);
  ASSERT_TRUE(primary.is_ok());
  ReplicaHarness replica(2);

  test::FaultParams faults;
  faults.drop = 0.25;
  faults.dup = 0.5;
  faults.reorder = 0.3;
  test::UdpFaultProxy proxy(replica.runtime->udp_addr(), faults,
                            /*seed=*/42);

  kv::KvReplicator repl(**primary, proxy.addr());
  ASSERT_TRUE(repl.start().is_ok());
  // Write concurrently with shipping so retransmitted batches overlap
  // live commits.
  std::thread writer(
      [&] { run_workload(**primary, /*seed=*/777, /*mutations=*/400); });
  writer.join();
  ASSERT_TRUE(repl.wait_caught_up(60000)) << "lag " << repl.lag();
  repl.stop();

  expect_converged(**primary, replica.sink);
}

// Every datagram duplicated: every successful batch arrives (at least)
// twice, so the strict sequence check MUST be skipping re-deliveries —
// visible as duplicate_skips > 0 — while the store-level double-apply
// counter stays 0.
TEST(KvRepl, DuplicatedStreamSkipsNeverReapplies) {
  kv::KvService::Options opts;
  opts.shards = 1;
  auto primary = kv::KvService::open(opts);
  ASSERT_TRUE(primary.is_ok());
  ReplicaHarness replica(1);

  test::FaultParams faults;
  faults.dup = 1.0;
  test::UdpFaultProxy proxy(replica.runtime->udp_addr(), faults,
                            /*seed=*/11);

  kv::KvReplicator repl(**primary, proxy.addr());
  ASSERT_TRUE(repl.start().is_ok());
  run_workload(**primary, /*seed=*/555, /*mutations=*/200);
  ASSERT_TRUE(repl.wait_caught_up(30000)) << "lag " << repl.lag();
  repl.stop();

  expect_converged(**primary, replica.sink);
  EXPECT_GT(replica.sink.stats().duplicate_skips.load(), 0);
}

// Replication lag is observable while shipping and zero afterwards.
TEST(KvRepl, LagGaugeDrainsToZero) {
  kv::KvService::Options opts;
  opts.shards = 1;
  auto primary = kv::KvService::open(opts);
  ASSERT_TRUE(primary.is_ok());
  ReplicaHarness replica(1);

  // Commits land before the replicator starts: lag is visible.
  run_workload(**primary, /*seed=*/31, /*mutations=*/100);
  kv::KvReplicator repl(**primary, replica.runtime->udp_addr());
  EXPECT_EQ(repl.lag(),
            static_cast<std::int64_t>((*primary)->store(0).last_applied()));
  ASSERT_TRUE(repl.start().is_ok());
  ASSERT_TRUE(repl.wait_caught_up(20000)) << "lag " << repl.lag();
  repl.stop();
  EXPECT_EQ(repl.lag(), 0);
  auto snap = common::metrics().snapshot();
  EXPECT_EQ(snap.gauges["kv.repl_lag"], 0);
  expect_converged(**primary, replica.sink);
}

}  // namespace
}  // namespace tempo
