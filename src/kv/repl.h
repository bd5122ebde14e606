// Primary -> replica log shipping over the repo's own RPC runtime.
//
// The SHIP procedure carries a variable array of uint words that ends
// its message (pe::tail_array), and returns a fixed 4-word ack.  Each
// end builds the procedure's one interface from the types: the array
// side gets class plans serving every length up to kShipMaxWords, the
// ack exact plans.  So a ship message holds exactly the words its
// records need, and every ship/ack round-trip rides the plan/JIT fast
// path on both ends — the same residual-stub machinery the paper
// builds for application RPC, reused as the replication transport.
// (The string-heavy client-facing KV program stays on the generic
// layered tier; both tiers run in one live service.)
//
// Ship message words:
//   [0] shard id
//   [1] record count
//   then per record:
//     seq_hi, seq_lo, op, key_len, val_len,
//     ceil(key_len/4) key words, ceil(val_len/4) value words
//   (bytes packed big-endian, last word zero-padded).  The decoder
//   ignores words after the last record.
//
// Ack words: [0] status (0 = ok), [1] records applied by this call,
// [2]/[3] hi/lo of the replica's last applied sequence.
//
// Idempotence contract (what makes at-least-once UDP delivery safe):
// the replica applies a record only when seq == last_applied + 1,
// counts seq <= last_applied as a duplicate *skip* (benign —
// retransmitted batches land here), and stops at a gap, acking
// last_applied so the primary re-ships from there.  The MvccStore's
// own strictly-increasing-seq check backstops this: the store-level
// duplicate_applies counter (exported as kv.repl_duplicate_applies)
// staying 0 is the pinned safety invariant.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/spec_client.h"
#include "kv/store.h"
#include "net/udp.h"
#include "rpc/client.h"
#include "rpc/svc.h"

namespace tempo::kv {

constexpr std::uint32_t kReplProgram = 0x20000777;
constexpr std::uint32_t kReplVersion = 1;
constexpr std::uint32_t kReplProcShip = 1;

// Most words one ship message carries: the SHIP array's IDL bound,
// which keeps the datagram (64,044 bytes) under rpc::kMaxUdpMessage.
constexpr std::uint32_t kShipMaxWords = 16000;
// Read only by perfbench's kv-mixed ledger probe (perfbench.cpp:848).
constexpr std::array<std::uint32_t, 3> kShipSizeClasses{256, 2048, 16000};
constexpr std::size_t kShipHeaderWords = 2;  // shard id + record count
constexpr std::size_t kShipAckWords = 4;

// Limits chosen so one maximal record still fits one ship message.
constexpr std::size_t kMaxKeyBytes = 1024;
constexpr std::size_t kMaxValueBytes = 60000;

enum class KvOp : std::uint32_t { kPut = 0, kDel = 1 };

// One replicated mutation — the unit of both the WAL and the ship
// stream.
struct LogRecord {
  std::uint64_t seq = 0;
  KvOp op = KvOp::kPut;
  std::string key;
  std::string value;
};

// The SHIP procedure definition (shared by primary and replica so the
// specializations agree byte-for-byte).
idl::ProcDef ship_proc();

// ---- WAL payload codec (op | key_len | key | value, big-endian) ----
Bytes encode_wal_payload(const LogRecord& r);
Result<LogRecord> decode_wal_payload(std::uint64_t seq, ByteSpan payload);

// ---- ship word codec ----
// Words this record contributes to a ship message.
std::size_t record_ship_words(const LogRecord& r);
void append_ship_words(std::vector<std::uint32_t>& words, const LogRecord& r);

struct ShipBatch {
  std::uint32_t shard = 0;
  std::vector<LogRecord> records;
};
Result<ShipBatch> decode_ship_words(std::span<const std::uint32_t> words);

// ---------------------------------------------------------------- sink

// Replica side: per-shard MVCC stores fed by the SHIP handler through
// a CachedSpecService, so inbound batches are decoded by residual
// plans.  install() it into the replica runtime's SvcRegistry.
class KvReplicaSink {
 public:
  struct Stats {
    std::atomic<std::int64_t> batches{0};
    std::atomic<std::int64_t> records{0};          // records seen
    std::atomic<std::int64_t> applied{0};          // records applied
    std::atomic<std::int64_t> duplicate_skips{0};  // seq <= last (benign)
    std::atomic<std::int64_t> gap_stops{0};        // seq > last+1
    std::atomic<std::int64_t> decode_errors{0};
  };

  explicit KvReplicaSink(std::uint32_t shards);
  KvReplicaSink(const KvReplicaSink&) = delete;
  KvReplicaSink& operator=(const KvReplicaSink&) = delete;

  void install(rpc::SvcRegistry& registry);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(stores_.size());
  }
  MvccStore& store(std::uint32_t shard) { return *stores_[shard]; }
  const MvccStore& store(std::uint32_t shard) const {
    return *stores_[shard];
  }
  std::uint64_t last_applied(std::uint32_t shard) const {
    return stores_[shard]->last_applied();
  }
  // Order-independent digest over every shard's live state.
  std::uint64_t digest() const;
  // Sum of store-level duplicate applies: MUST stay 0 (the pinned
  // replication-safety invariant).
  std::int64_t duplicate_applies() const;

  const Stats& stats() const { return stats_; }
  const core::CachedSpecService::Stats& service_stats() const;

 private:
  bool handle(std::span<const std::uint32_t> arg_counts,
              std::span<const std::uint32_t> args,
              std::span<std::uint32_t> results);

  std::vector<std::unique_ptr<MvccStore>> stores_;
  // Serializes applies per shard; the RPC runtime may run the SHIP
  // handler on several workers at once.
  std::vector<std::unique_ptr<std::mutex>> apply_mu_;
  core::SpecCache cache_;
  std::unique_ptr<core::CachedSpecService> service_;
  Stats stats_;
  common::MetricsRegistry::SourceHandle metrics_source_;  // last member
};

// -------------------------------------------------------------- source

// What the shipper pulls from: implemented by KvService (primary).
class ShipSource {
 public:
  virtual ~ShipSource() = default;
  virtual std::uint32_t shard_count() const = 0;
  // Highest durable (shippable) sequence for the shard.
  virtual std::uint64_t shippable_seq(std::uint32_t shard) const = 0;
  // Records with seq > from, in sequence order, whose ship-word cost
  // fits max_words in total.
  virtual std::vector<LogRecord> fetch_since(std::uint32_t shard,
                                             std::uint64_t from,
                                             std::size_t max_words) const = 0;
  // The replica acknowledged everything up to seq: retained log tail
  // can be trimmed.
  virtual void acked(std::uint32_t shard, std::uint64_t seq) = 0;
};

// ------------------------------------------------------------- shipper

// Primary side: a background thread that ships each shard's backlog to
// one replica through one SpecializedClient on the SHIP interface,
// built once.  Exports kv.repl.* metrics, including the replication-lag
// gauge (primary shippable seq minus replica acked seq, summed over
// shards).
class KvReplicator {
 public:
  struct Options {
    Options() {
      call.retry_timeout_ms = 50;
      call.total_timeout_ms = 2000;
    }
    rpc::CallOptions call;
    // Sleep between polls when every shard is fully shipped.
    std::uint32_t idle_sleep_ms = 1;
  };

  struct Stats {
    std::atomic<std::int64_t> ship_calls{0};
    std::atomic<std::int64_t> shipped_records{0};
    std::atomic<std::int64_t> ship_failures{0};  // timeouts / nacks
  };

  KvReplicator(ShipSource& source, net::Addr replica, Options opts = {});
  ~KvReplicator();
  KvReplicator(const KvReplicator&) = delete;
  KvReplicator& operator=(const KvReplicator&) = delete;

  Status start();
  void stop();

  // Replica's acknowledged sequence for a shard (0 before any ack).
  std::uint64_t acked_seq(std::uint32_t shard) const {
    return acked_[shard]->load(std::memory_order_acquire);
  }
  // Sum over shards of shippable - acked.
  std::int64_t lag() const;
  // Blocks until lag() == 0 or the deadline passes.
  bool wait_caught_up(std::uint32_t timeout_ms);

  const Stats& stats() const { return stats_; }

 private:
  void ship_loop();
  // Ships one batch for `shard`; returns true if progress was made.
  bool ship_shard(std::uint32_t shard);

  ShipSource& source_;
  net::Addr replica_;
  Options opts_;
  net::UdpSocket sock_;
  // Null when the SHIP interface failed to build; start() reports it.
  std::unique_ptr<core::SpecializedInterface> iface_;
  std::unique_ptr<core::SpecializedClient> client_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> acked_;
  Stats stats_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  common::MetricsRegistry::SourceHandle metrics_source_;  // last member
};

}  // namespace tempo::kv
