#include "kv/repl.h"

#include <algorithm>
#include <chrono>

#include "common/endian.h"

namespace tempo::kv {

idl::ProcDef ship_proc() {
  idl::ProcDef proc;
  proc.name = "KV_SHIP";
  proc.number = kReplProcShip;
  proc.arg_type = idl::t_array_var(idl::t_uint(), kShipMaxWords);
  proc.res_type = idl::t_array_fixed(idl::t_uint(), kShipAckWords);
  return proc;
}

// ------------------------------------------------- WAL payload codec

Bytes encode_wal_payload(const LogRecord& r) {
  Bytes out(8 + r.key.size() + r.value.size());
  store_be32(out.data(), static_cast<std::uint32_t>(r.op));
  store_be32(out.data() + 4, static_cast<std::uint32_t>(r.key.size()));
  std::copy(r.key.begin(), r.key.end(), out.begin() + 8);
  std::copy(r.value.begin(), r.value.end(), out.begin() + 8 +
            static_cast<std::ptrdiff_t>(r.key.size()));
  return out;
}

Result<LogRecord> decode_wal_payload(std::uint64_t seq, ByteSpan payload) {
  if (payload.size() < 8) return internal_error("kv wal payload too short");
  const std::uint32_t op = load_be32(payload.data());
  const std::uint32_t klen = load_be32(payload.data() + 4);
  if (op > static_cast<std::uint32_t>(KvOp::kDel)) {
    return internal_error("kv wal payload bad op");
  }
  if (klen > kMaxKeyBytes || payload.size() - 8 < klen) {
    return internal_error("kv wal payload bad key length");
  }
  const std::size_t vlen = payload.size() - 8 - klen;
  if (vlen > kMaxValueBytes) {
    return internal_error("kv wal payload bad value length");
  }
  LogRecord r;
  r.seq = seq;
  r.op = static_cast<KvOp>(op);
  r.key.assign(reinterpret_cast<const char*>(payload.data() + 8), klen);
  r.value.assign(reinterpret_cast<const char*>(payload.data() + 8 + klen),
                 vlen);
  return r;
}

// ---------------------------------------------------- ship word codec

namespace {

std::size_t words_for_bytes(std::size_t n) { return (n + 3) / 4; }

void pack_bytes(std::vector<std::uint32_t>& words, std::string_view s) {
  for (std::size_t i = 0; i < s.size(); i += 4) {
    std::uint32_t w = 0;
    for (std::size_t j = 0; j < 4 && i + j < s.size(); ++j) {
      w |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(s[i + j]))
           << (24 - 8 * j);
    }
    words.push_back(w);
  }
}

void unpack_bytes(std::span<const std::uint32_t> words, std::size_t len,
                  std::string& out) {
  out.resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<char>(
        (words[i / 4] >> (24 - 8 * (i % 4))) & 0xFFu);
  }
}

}  // namespace

std::size_t record_ship_words(const LogRecord& r) {
  return 5 + words_for_bytes(r.key.size()) + words_for_bytes(r.value.size());
}

void append_ship_words(std::vector<std::uint32_t>& words,
                       const LogRecord& r) {
  words.push_back(static_cast<std::uint32_t>(r.seq >> 32));
  words.push_back(static_cast<std::uint32_t>(r.seq));
  words.push_back(static_cast<std::uint32_t>(r.op));
  words.push_back(static_cast<std::uint32_t>(r.key.size()));
  words.push_back(static_cast<std::uint32_t>(r.value.size()));
  pack_bytes(words, r.key);
  pack_bytes(words, r.value);
}

Result<ShipBatch> decode_ship_words(std::span<const std::uint32_t> words) {
  if (words.size() < kShipHeaderWords) {
    return internal_error("kv ship: short header");
  }
  ShipBatch batch;
  batch.shard = words[0];
  const std::uint32_t count = words[1];
  std::size_t pos = kShipHeaderWords;
  batch.records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (words.size() - pos < 5) return internal_error("kv ship: short record");
    LogRecord r;
    r.seq = (static_cast<std::uint64_t>(words[pos]) << 32) | words[pos + 1];
    const std::uint32_t op = words[pos + 2];
    const std::uint32_t klen = words[pos + 3];
    const std::uint32_t vlen = words[pos + 4];
    pos += 5;
    if (op > static_cast<std::uint32_t>(KvOp::kDel) ||
        klen > kMaxKeyBytes || vlen > kMaxValueBytes) {
      return internal_error("kv ship: bad record header");
    }
    const std::size_t kw = words_for_bytes(klen);
    const std::size_t vw = words_for_bytes(vlen);
    if (words.size() - pos < kw + vw) {
      return internal_error("kv ship: short record body");
    }
    r.op = static_cast<KvOp>(op);
    unpack_bytes(words.subspan(pos, kw), klen, r.key);
    pos += kw;
    unpack_bytes(words.subspan(pos, vw), vlen, r.value);
    pos += vw;
    batch.records.push_back(std::move(r));
  }
  return batch;
}

// ---------------------------------------------------------------- sink

KvReplicaSink::KvReplicaSink(std::uint32_t shards) {
  if (shards == 0) shards = 1;
  stores_.reserve(shards);
  apply_mu_.reserve(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    stores_.push_back(std::make_unique<MvccStore>());
    apply_mu_.push_back(std::make_unique<std::mutex>());
  }
  service_ = std::make_unique<core::CachedSpecService>(
      cache_, ship_proc(), kReplProgram, kReplVersion,
      [this](std::span<const std::uint32_t> arg_counts,
             std::span<const std::uint32_t> args,
             std::span<std::uint32_t> results) {
        return handle(arg_counts, args, results);
      });
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& s) {
        s.add_counter("kv.replica.batches",
                      stats_.batches.load(std::memory_order_relaxed));
        s.add_counter("kv.replica.records",
                      stats_.records.load(std::memory_order_relaxed));
        s.add_counter("kv.replica.applied",
                      stats_.applied.load(std::memory_order_relaxed));
        s.add_counter("kv.replica.duplicate_skips",
                      stats_.duplicate_skips.load(std::memory_order_relaxed));
        s.add_counter("kv.replica.gap_stops",
                      stats_.gap_stops.load(std::memory_order_relaxed));
        s.add_counter("kv.replica.decode_errors",
                      stats_.decode_errors.load(std::memory_order_relaxed));
        // THE replication-safety invariant: must stay 0.
        s.add_counter("kv.repl_duplicate_applies", duplicate_applies());
        std::int64_t last_sum = 0;
        for (const auto& st : stores_) {
          last_sum += static_cast<std::int64_t>(st->last_applied());
        }
        s.add_gauge("kv.replica.last_applied", last_sum);
      });
}

void KvReplicaSink::install(rpc::SvcRegistry& registry) {
  service_->install(registry);
}

const core::CachedSpecService::Stats& KvReplicaSink::service_stats() const {
  return service_->stats();
}

std::uint64_t KvReplicaSink::digest() const {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& st : stores_) {
    h = (h ^ st->digest()) * 1099511628211ull;
  }
  return h;
}

std::int64_t KvReplicaSink::duplicate_applies() const {
  std::int64_t n = 0;
  for (const auto& st : stores_) {
    n += st->stats().duplicate_applies.load(std::memory_order_relaxed);
  }
  return n;
}

bool KvReplicaSink::handle(std::span<const std::uint32_t> arg_counts,
                           std::span<const std::uint32_t> args,
                           std::span<std::uint32_t> results) {
  (void)arg_counts;  // shape is re-derived from the batch header
  std::fill(results.begin(), results.end(), 0u);
  auto batch = decode_ship_words(args);
  if (!batch.is_ok() || batch->shard >= shard_count()) {
    stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
    results[0] = 1;
    return true;
  }
  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  stats_.records.fetch_add(static_cast<std::int64_t>(batch->records.size()),
                           std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(*apply_mu_[batch->shard]);
  MvccStore& store = *stores_[batch->shard];
  std::uint32_t applied = 0;
  for (const LogRecord& r : batch->records) {
    const std::uint64_t last = store.last_applied();
    if (r.seq <= last) {
      // Retransmitted or re-shipped record: already applied, skip.
      stats_.duplicate_skips.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (r.seq != last + 1) {
      // Gap: ack what we have; the primary re-ships from there.
      stats_.gap_stops.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    const bool ok = r.op == KvOp::kDel
                        ? store.apply_del(r.seq, r.key)
                        : store.apply_put(r.seq, r.key, r.value);
    if (ok) {
      ++applied;
      stats_.applied.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const std::uint64_t last = store.last_applied();
  results[0] = 0;
  results[1] = applied;
  results[2] = static_cast<std::uint32_t>(last >> 32);
  results[3] = static_cast<std::uint32_t>(last);
  return true;
}

// ------------------------------------------------------------- shipper

KvReplicator::KvReplicator(ShipSource& source, net::Addr replica,
                           Options opts)
    : source_(source), replica_(replica), opts_(opts) {
  auto iface = core::SpecializedInterface::build(
      ship_proc(), kReplProgram, kReplVersion, core::SpecConfig{});
  if (iface.is_ok()) {
    iface_ = std::make_unique<core::SpecializedInterface>(std::move(*iface));
    client_ = std::make_unique<core::SpecializedClient>(sock_, replica_,
                                                        *iface_, opts_.call);
  }
  acked_.reserve(source_.shard_count());
  for (std::uint32_t i = 0; i < source_.shard_count(); ++i) {
    acked_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& s) {
        s.add_counter("kv.repl.ship_calls",
                      stats_.ship_calls.load(std::memory_order_relaxed));
        s.add_counter("kv.repl.shipped_records",
                      stats_.shipped_records.load(std::memory_order_relaxed));
        s.add_counter("kv.repl.ship_failures",
                      stats_.ship_failures.load(std::memory_order_relaxed));
        s.add_gauge("kv.repl_lag", lag());
        std::int64_t acked_sum = 0;
        for (const auto& a : acked_) {
          acked_sum +=
              static_cast<std::int64_t>(a->load(std::memory_order_relaxed));
        }
        s.add_gauge("kv.repl.acked_seq", acked_sum);
      });
}

KvReplicator::~KvReplicator() { stop(); }

Status KvReplicator::start() {
  if (!sock_.ok()) return unavailable("kv replicator: udp socket failed");
  if (!client_) {
    return internal_error("kv replicator: ship specialization build failed");
  }
  if (thread_.joinable()) return Status::ok();
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { ship_loop(); });
  return Status::ok();
}

void KvReplicator::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

std::int64_t KvReplicator::lag() const {
  std::int64_t total = 0;
  for (std::uint32_t s = 0; s < acked_.size(); ++s) {
    const std::uint64_t durable = source_.shippable_seq(s);
    const std::uint64_t acked = acked_[s]->load(std::memory_order_acquire);
    if (durable > acked) total += static_cast<std::int64_t>(durable - acked);
  }
  return total;
}

bool KvReplicator::wait_caught_up(std::uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (lag() > 0) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void KvReplicator::ship_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    bool progress = false;
    for (std::uint32_t s = 0; s < acked_.size(); ++s) {
      if (stop_.load(std::memory_order_acquire)) return;
      progress = ship_shard(s) || progress;
    }
    if (!progress) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.idle_sleep_ms));
    }
  }
}

bool KvReplicator::ship_shard(std::uint32_t shard) {
  const std::uint64_t from = acked_[shard]->load(std::memory_order_acquire);
  if (source_.shippable_seq(shard) <= from) return false;
  const std::vector<LogRecord> records =
      source_.fetch_since(shard, from, kShipMaxWords - kShipHeaderWords);
  if (records.empty()) return false;

  std::size_t total = kShipHeaderWords;
  for (const LogRecord& r : records) total += record_ship_words(r);
  std::vector<std::uint32_t> words;
  words.reserve(total);
  words.push_back(shard);
  words.push_back(static_cast<std::uint32_t>(records.size()));
  for (const LogRecord& r : records) append_ship_words(words, r);

  std::array<std::uint32_t, kShipAckWords> ack{};
  stats_.ship_calls.fetch_add(1, std::memory_order_relaxed);
  const Status st = client_->call(words, ack);
  if (!st.is_ok() || ack[0] != 0) {
    stats_.ship_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint64_t last =
      (static_cast<std::uint64_t>(ack[2]) << 32) | ack[3];
  if (last <= from) return false;
  acked_[shard]->store(last, std::memory_order_release);
  source_.acked(shard, last);
  stats_.shipped_records.fetch_add(static_cast<std::int64_t>(ack[1]),
                                   std::memory_order_relaxed);
  return true;
}

}  // namespace tempo::kv
