#include "rpc/event_runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/endian.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "xdr/xdrrec.h"

namespace tempo::rpc {

namespace {

// Datagrams per receive batch (one recvmmsg), and the worker's reply
// flush threshold: a burst costs one batch in each direction.
constexpr int kUdpBatch = 32;
// Stream bytes per read_some, and reads per readiness event: a busy
// connection yields the reactor after 256 KiB.
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kMaxReadsPerEvent = 4;
// Once this many complete records queue on one connection, the shard
// stops reading it (TCP flow control pushes back on the peer) until
// dispatch catches up.
constexpr std::size_t kMaxPipelinedRecords = 64;
// stop() waits this long for queued work before dropping it.
constexpr int kDrainTimeoutMs = 2000;
// Idle workers re-sweep sibling queues this often even without a
// wakeup.  Stealing is wakeup-driven (push paths notify a sibling); the
// tick is only the safety net, and stats().tick_steals counts how often
// it actually rescued a job.
constexpr int kStealTickMs = 50;

}  // namespace

EventServerRuntime::EventServerRuntime(SvcRegistry& registry,
                                       EventServerRuntimeConfig cfg)
    : registry_(registry), cfg_(cfg) {}

EventServerRuntime::~EventServerRuntime() { stop(); }

Status EventServerRuntime::start() {
  if (running_.load(std::memory_order_acquire)) return Status::ok();
  reactor_stop_.store(false, std::memory_order_release);
  workers_stop_.store(false, std::memory_order_release);
  pending_jobs_.store(0, std::memory_order_release);
  udp_sharded_ = false;
  next_conn_shard_ = 0;
  pipeline_depth_ =
      cfg_.tcp_pipeline_depth < 1
          ? 1
          : static_cast<std::size_t>(cfg_.tcp_pipeline_depth);

  const std::size_t nshards =
      cfg_.reactors < 1 ? 1 : static_cast<std::size_t>(cfg_.reactors);

  // Observability setup happens before any thread exists, so the hot
  // paths read plain fields, never synchronize.  cfg.trace_sample wins;
  // TEMPO_TRACE_SAMPLE is the no-recompile fallback.
  metrics_on_ = common::metrics_enabled();
  worker_seq_.store(0, std::memory_order_relaxed);
  std::uint32_t sample = cfg_.trace_sample;
  if (sample == 0) {
    if (const char* env = std::getenv("TEMPO_TRACE_SAMPLE")) {
      sample = static_cast<std::uint32_t>(std::atoi(env));
    }
  }
  tracer_ = sample > 0 ? std::make_unique<common::Tracer>(
                             nshards, cfg_.trace_ring, sample)
                       : nullptr;

  shards_.reserve(nshards);
  for (std::size_t i = 0; i < nshards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
    if (!shards_.back()->reactor.ok()) {
      shards_.clear();
      return unavailable("EventServerRuntime: reactor init");
    }
  }

  if (cfg_.enable_udp) {
    if (nshards > 1) {
      // One SO_REUSEPORT socket per shard, all on the same port: the
      // kernel disperses datagrams across the group by flow hash, so
      // each client flow sticks to one shard.
      auto first = std::make_unique<net::UdpSocket>(cfg_.udp_port,
                                                    /*reuseport=*/true);
      if (first && first->ok()) {
        const std::uint16_t port = first->local_addr().port;
        shards_[0]->udp = std::move(first);
        bool all_ok = true;
        for (std::size_t i = 1; i < nshards; ++i) {
          auto sock = std::make_unique<net::UdpSocket>(port,
                                                       /*reuseport=*/true);
          if (!sock->ok()) {
            all_ok = false;
            break;
          }
          shards_[i]->udp = std::move(sock);
        }
        if (all_ok) {
          udp_sharded_ = true;
        } else {
          // Partial group: tear the members down and fall back to one
          // receiving socket below.
          for (auto& s : shards_) s->udp.reset();
        }
      }
    }
    if (!udp_sharded_) {
      // Single-loop mode, or the REUSEPORT fallback: shard 0 is the one
      // receiving shard.  Datagram JOBS still fan out (shard 0's queue
      // plus stealing siblings), so dispatch parallelism survives —
      // only the recv syscalls stay on one loop.
      shards_[0]->udp = std::make_unique<net::UdpSocket>(cfg_.udp_port);
    }
    if (!shards_[0]->udp->ok()) {
      shards_.clear();
      return unavailable("EventServerRuntime: UDP bind failed");
    }
    for (auto& sp : shards_) {
      if (!sp->udp) continue;
      Status st = sp->udp->set_nonblocking(true);
      if (!st.is_ok()) {
        shards_.clear();
        return st;
      }
    }
  }
  if (cfg_.enable_tcp) {
    tcp_ = std::make_unique<net::TcpListener>(cfg_.tcp_port);
    if (!tcp_->ok()) {
      shards_.clear();
      tcp_.reset();
      return unavailable("EventServerRuntime: TCP bind failed");
    }
    // Non-blocking listener: a connection aborted between readiness and
    // ::accept must surface as "nothing to accept", not block the loop.
    Status st = tcp_->set_nonblocking(true);
    if (!st.is_ok()) {
      shards_.clear();
      tcp_.reset();
      return st;
    }
    shards_[0]->reactor.add(tcp_->fd(), net::kEventRead,
                            [this](unsigned) { on_accept_ready(); });
  }

  // Every failure point is behind us: start datagram receive.  The
  // shard threads are not running yet, so registration from the
  // caller's thread is safe.
  for (auto& sp : shards_) {
    if (!sp->udp) continue;
    Shard* s = sp.get();
    // Pre-fill every slot from the arena so recv_many never allocates
    // its own kMaxDatagramBytes payloads — those are off-class (65000
    // is not a power of two) and would demote to the 32 KiB class on
    // recycle instead of serving later payload takes.
    s->udp_batch.resize(static_cast<std::size_t>(kUdpBatch));
    for (auto& d : s->udp_batch) {
      d.payload = s->arena.take(net::kMaxDatagramBytes);
    }
    s->reactor.add(s->udp->fd(), net::kEventRead,
                   [this, s](unsigned) { on_udp_readable(*s); });
  }

  // Shard-local worker pools: the `workers` total is split as evenly as
  // possible (remainder to the low shards, shards beyond the total get
  // zero — their queues drain through stealing siblings), so the
  // spawned thread count equals what the config asked for.
  worker_count_ = 0;
  const std::size_t total =
      static_cast<std::size_t>(cfg_.workers < 1 ? 1 : cfg_.workers);
  for (std::size_t i = 0; i < nshards; ++i) {
    const int count = static_cast<int>(total / nshards + (i < total % nshards));
    Shard& owner = *shards_[i];
    owner.home_workers = count;
    for (int w = 0; w < count; ++w) {
      owner.workers.emplace_back([this, i] { worker_loop(i); });
    }
    worker_count_ += count;
  }
  for (auto& sp : shards_) {
    Shard* s = sp.get();
    s->thread = std::thread([this, s] { shard_loop(*s); });
  }

  // Fold this runtime into the process-wide registry: counters from
  // stats_, the per-shard latency histograms, and the shard arenas.
  // The callback runs under the registry mutex and reads shards_, so
  // stop() resets the handle before tearing the shards down.
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& snap) {
        const auto c = [](const std::atomic<std::int64_t>& v) {
          return v.load(std::memory_order_relaxed);
        };
        snap.add_counter("rpc.udp_datagrams", c(stats_.udp_datagrams));
        snap.add_counter("rpc.udp_batches", c(stats_.udp_batches));
        snap.add_counter("rpc.udp_reply_batches", c(stats_.udp_reply_batches));
        snap.add_counter("rpc.reply_send_retries",
                         c(stats_.reply_send_retries));
        snap.add_counter("rpc.reply_send_failures",
                         c(stats_.reply_send_failures));
        snap.add_counter("rpc.tcp_connections", c(stats_.tcp_connections));
        snap.add_counter("rpc.tcp_calls", c(stats_.tcp_calls));
        snap.add_counter("rpc.overload_drops", c(stats_.overload_drops));
        snap.add_counter("rpc.conn_resets", c(stats_.conn_resets));
        snap.add_counter("rpc.write_stalls", c(stats_.write_stalls));
        snap.add_counter("rpc.work_steals", c(stats_.work_steals));
        snap.add_counter("rpc.tick_steals", c(stats_.tick_steals));
        for (const auto& sp : shards_) {
          snap.merge_histogram("rpc.queue_ns", sp->queue_hist.snapshot());
          snap.merge_histogram("rpc.handle_ns", sp->handle_hist.snapshot());
          snap.merge_histogram("rpc.udp_e2e_ns", sp->udp_e2e_hist.snapshot());
          snap.merge_histogram("rpc.tcp_e2e_ns", sp->tcp_e2e_hist.snapshot());
        }
        const common::BufferArenaStats a = arena_stats();
        snap.add_counter("arena.hits", a.hits);
        snap.add_counter("arena.misses", a.misses);
        snap.add_counter("arena.recycles", a.recycles);
        snap.add_counter("arena.discards", a.discards);
        snap.add_gauge("arena.bytes_pooled", a.bytes_pooled);
        snap.add_gauge("rpc.reactors",
                       static_cast<std::int64_t>(shards_.size()));
        snap.add_gauge("rpc.workers", worker_count_);
      });

  running_.store(true, std::memory_order_release);
  return Status::ok();
}

void EventServerRuntime::stop() {
  if (!running_.load(std::memory_order_acquire)) return;

  // Phase 1: stop reading new requests on EVERY shard (each closure
  // runs on its own shard's thread).  Shard 0 also drops the listener.
  for (auto& sp : shards_) {
    Shard* s = sp.get();
    s->reactor.post([this, s] { close_intake(*s); });
  }

  // Phase 2: bounded drain — queued requests finish and their replies
  // are handed back to the still-running shard reactors.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kDrainTimeoutMs);
  while (pending_jobs_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Past the deadline the bound wins over the drain: drop whatever is
  // still queued so stop() cannot be held hostage by a slow handler.
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->q_mu);
    if (!sp->queue.empty()) {
      stats_.overload_drops += static_cast<std::int64_t>(sp->queue.size());
      pending_jobs_.fetch_sub(static_cast<std::int64_t>(sp->queue.size()),
                              std::memory_order_acq_rel);
      sp->queue.clear();
    }
  }

  // Phase 3: workers down (only in-flight jobs remain).
  workers_stop_.store(true, std::memory_order_release);
  for (auto& sp : shards_) sp->q_cv.notify_all();
  for (auto& sp : shards_) {
    for (auto& t : sp->workers) {
      if (t.joinable()) t.join();
    }
    sp->workers.clear();
  }

  // Phase 4: every shard down; each loop flushes and closes its own
  // connections on the way out.  A drain that only covered shard 0
  // would orphan the replies buffered on shards 1..N-1.
  reactor_stop_.store(true, std::memory_order_release);
  for (auto& sp : shards_) sp->reactor.wakeup();
  for (auto& sp : shards_) {
    if (sp->thread.joinable()) sp->thread.join();
  }

  // Unregister BEFORE the shards (and their histograms) die; a
  // concurrent metrics().snapshot() blocks in reset() until any
  // in-flight callback finishes.  The tracer survives stop() so
  // post-run trace_snapshot() works.
  metrics_source_.reset();

  shards_.clear();
  tcp_.reset();
  running_.store(false, std::memory_order_release);
}

net::Addr EventServerRuntime::udp_addr() const {
  // All members of the reuseport group share one address; shard 0 is
  // also the socket of the fallback mode.
  if (shards_.empty() || !shards_[0]->udp) return net::Addr{};
  return shards_[0]->udp->local_addr();
}

net::Addr EventServerRuntime::tcp_addr() const {
  return tcp_ ? tcp_->local_addr() : net::Addr{};
}

common::BufferArenaStats EventServerRuntime::arena_stats() const {
  common::BufferArenaStats total;
  for (const auto& sp : shards_) {
    const common::BufferArenaStats s = sp->arena.stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.recycles += s.recycles;
    total.discards += s.discards;
    total.bytes_pooled += s.bytes_pooled;
  }
  return total;
}

RuntimeLatencySnapshot EventServerRuntime::latency_snapshot() const {
  RuntimeLatencySnapshot out;
  for (const auto& sp : shards_) {
    out.queue.merge(sp->queue_hist.snapshot());
    out.handle.merge(sp->handle_hist.snapshot());
    out.udp_e2e.merge(sp->udp_e2e_hist.snapshot());
    out.tcp_e2e.merge(sp->tcp_e2e_hist.snapshot());
  }
  return out;
}

// ------------------------------------------------------ shard threads ---

void EventServerRuntime::shard_loop(Shard& s) {
  while (!reactor_stop_.load(std::memory_order_acquire)) {
    // With conns parked on a full worker queue, tick instead of
    // blocking so their records are re-dispatched as the queue drains
    // (no fd event or completion may ever fire for them otherwise).
    s.reactor.poll_once(s.stalled_conns.empty() ? -1 : 5);
    retry_stalled(s);
  }
  // Run straggler closures, give each connection one last
  // non-blocking flush, then close everything.  flush_conn can erase
  // entries, so iterate over a snapshot of ids.
  s.reactor.poll_once(0);
  std::vector<std::uint64_t> ids;
  ids.reserve(s.conns.size());
  for (auto& [id, conn] : s.conns) ids.push_back(id);
  for (auto id : ids) {
    auto it = s.conns.find(id);
    if (it != s.conns.end()) flush_conn(s, it->second);
  }
  for (auto& [id, conn] : s.conns) s.reactor.remove(conn.sock->fd());
  s.conns.clear();
}

void EventServerRuntime::close_intake(Shard& s) {
  if (s.intake_closed) return;
  s.intake_closed = true;
  if (s.udp) s.reactor.remove(s.udp->fd());
  if (s.index == 0 && tcp_) s.reactor.remove(tcp_->fd());
  // Records parsed but not yet handed to the pool are dropped here so
  // the stop() drain has a fixed amount of work: exactly the jobs the
  // pool already holds.
  s.stalled_conns.clear();
  std::vector<std::uint64_t> ids;
  ids.reserve(s.conns.size());
  for (auto& [id, conn] : s.conns) ids.push_back(id);
  for (auto id : ids) {
    auto it = s.conns.find(id);
    if (it == s.conns.end()) continue;
    for (auto& rec : it->second.ready_records) {
      s.arena.recycle(std::move(rec.buf));
    }
    it->second.ready_records.clear();
    it->second.stalled = false;
    finish_conn_if_idle(s, it->second);
  }
}

void EventServerRuntime::on_accept_ready() {
  // Runs on shard 0, which owns the listener.  Accept everything
  // pending; the listener is level-triggered so a partial drain would
  // re-fire anyway, but batching saves wakeups.
  Shard& s0 = *shards_[0];
  const std::size_t nshards = shards_.size();
  for (;;) {
    auto conn = tcp_->accept(/*timeout_ms=*/0);
    if (!conn.is_ok()) return;
    ++stats_.tcp_connections;
    // Round-robin assignment (not fd % N: the kernel reuses the lowest
    // free fd, so under connection churn fd-hashing pins new conns to
    // whichever residues happen to be free — round-robin from the
    // single-threaded accept path is exactly even, no sync needed).
    const std::size_t target = next_conn_shard_++ % nshards;
    if (target == 0) {
      adopt_conn(s0, (*conn)->release());
    } else {
      // Hand the connection to its owning shard; from the post on,
      // only that shard's thread ever touches it.  The closure keeps
      // OWNERSHIP of the socket (shared_ptr, since std::function must
      // be copyable) until adopt: if the shard's loop exits before
      // running it — a stop() racing this accept — destruction of the
      // un-run closure still closes the fd instead of leaking it.
      Shard* t = shards_[target].get();
      std::shared_ptr<net::TcpConn> handoff(std::move(*conn));
      t->reactor.post(
          [this, t, handoff] { adopt_conn(*t, handoff->release()); });
    }
  }
}

void EventServerRuntime::adopt_conn(Shard& s, int fd) {
  auto sock = std::make_unique<net::TcpConn>(fd);
  // A handoff can race shutdown: if this shard already closed intake,
  // the connection is dropped here (the unique_ptr closes the fd).
  if (s.intake_closed) return;
  // Must be non-blocking: POLLOUT only promises SOME send-buffer
  // space, and a blocking send() of a large reply would park the
  // reactor thread on a slow reader.
  if (!sock->set_nonblocking(true).is_ok()) return;
  const std::uint64_t id = s.next_conn_id++;
  Conn c;
  c.id = id;
  c.shard = s.index;
  c.sock = std::move(sock);
  c.ring.resize(pipeline_depth_);
  auto [it, inserted] = s.conns.emplace(id, std::move(c));
  if (!inserted) return;
  // The handler captures the Conn itself (map nodes never move): it
  // fires only while the fd is registered, and every path that erases
  // a conn removes its fd first.
  Conn* conn = &it->second;
  if (!s.reactor.add(conn->sock->fd(), net::kEventRead,
                     [this, conn](unsigned events) {
                       on_conn_event(*conn, events);
                     })) {
    s.conns.erase(it);
  }
}

void EventServerRuntime::on_conn_event(Conn& c, unsigned events) {
  Shard& s = *shards_[c.shard];
  const std::uint64_t id = c.id;
  if (events & net::kEventRead) read_conn(s, c);
  // read_conn and flush_conn can both destroy the connection (protocol
  // violation, write error); re-resolve the map entry after each.
  auto it = s.conns.find(id);
  if (it == s.conns.end()) return;
  if (events & net::kEventWrite) {
    flush_conn(s, it->second);
    it = s.conns.find(id);
    if (it == s.conns.end()) return;
  }
  dispatch_ready(s, it->second);
  finish_conn_if_idle(s, it->second);
}

void EventServerRuntime::read_conn(Shard& s, Conn& c) {
  if (c.peer_eof) return;
  std::uint8_t chunk[kReadChunk];
  for (int i = 0; i < kMaxReadsPerEvent; ++i) {
    auto r = c.sock->read_some(MutableByteSpan(chunk, sizeof(chunk)),
                               /*timeout_ms=*/0);
    if (!r.is_ok()) {
      if (r.status().code() != StatusCode::kTimeout) c.peer_eof = true;
      return;
    }
    if (!parse_records(s, c, ByteSpan(chunk, *r))) {
      ++stats_.conn_resets;
      destroy_conn(s, c.id);
      return;
    }
  }
}

bool EventServerRuntime::parse_records(Shard& s, Conn& c, ByteSpan chunk) {
  while (!chunk.empty()) {
    if (c.frag_header_pending) {
      const std::size_t need = 4 - c.header_partial.size();
      const std::size_t take = std::min(need, chunk.size());
      c.header_partial.insert(c.header_partial.end(), chunk.begin(),
                              chunk.begin() + static_cast<std::ptrdiff_t>(
                                                  take));
      chunk = chunk.subspan(take);
      if (c.header_partial.size() < 4) return true;
      const std::uint32_t word = load_be32(c.header_partial.data());
      c.header_partial.clear();
      c.last_frag = (word & xdr::XdrRec::kLastFragFlag) != 0;
      c.frag_remaining = word & ~xdr::XdrRec::kLastFragFlag;
      c.frag_header_pending = false;
      const std::size_t full = c.record.len + c.frag_remaining;
      if (full > kMaxRecordBytes) {
        return false;  // oversized record: cut the peer off
      }
      // Reserve the whole fragment up front: the record buffer is an
      // arena slice whose size never shrinks, so growth is a take +
      // copy of the bytes assembled so far, not a realloc per chunk.
      if (c.record.buf.size() < full) {
        Bytes bigger = s.arena.take(full);
        if (c.record.len > 0) {
          std::memcpy(bigger.data(), c.record.buf.data(), c.record.len);
        }
        s.arena.recycle(std::move(c.record.buf));
        c.record.buf = std::move(bigger);
      }
    }
    const std::size_t take =
        std::min<std::size_t>(c.frag_remaining, chunk.size());
    if (take > 0) {
      std::memcpy(c.record.buf.data() + c.record.len, chunk.data(), take);
      c.record.len += take;
      chunk = chunk.subspan(take);
      c.frag_remaining -= static_cast<std::uint32_t>(take);
    }
    if (c.frag_remaining == 0) {
      c.frag_header_pending = true;
      if (c.last_frag) {
        c.last_frag = false;
        if (c.record.len > 0) {
          // Stamped when the record finishes assembling (one clock
          // read per complete request, not per chunk): what the TCP
          // queue-wait and e2e histograms measure from.
          c.record.recv_ns = metrics_on_ ? common::monotonic_ns() : 0;
          c.ready_records.push_back(std::move(c.record));
        } else if (!c.record.buf.empty()) {
          s.arena.recycle(std::move(c.record.buf));
        }
        c.record = Chunk{};
      }
    }
  }
  return true;
}

void EventServerRuntime::dispatch_ready(Shard& s, Conn& c) {
  // Pipelined execution: up to tcp_pipeline_depth requests of this
  // connection run concurrently across the workers.  Each dispatch
  // reserves the next ring slot (seq); the ring emits replies strictly
  // in seq order, so wire order matches arrival order exactly as if
  // the calls had run one at a time.
  while (c.inflight < pipeline_depth_ && !c.ready_records.empty()) {
    const std::uint64_t seq = c.next_seq;
    Job job = TcpRequestJob{s.index, c.id, seq,
                            std::move(c.ready_records.front())};
    if (!push_job(s.index, job)) {
      // Queue full: put the record back and park the conn on the
      // stalled list; shard_loop ticks until it re-dispatches (never
      // block the reactor thread).
      c.ready_records.front() = std::move(std::get<TcpRequestJob>(job).record);
      if (!c.stalled) {
        c.stalled = true;
        s.stalled_conns.push_back(c.id);
      }
      return;
    }
    c.ready_records.pop_front();
    c.next_seq = seq + 1;
    ++c.inflight;
  }
}

void EventServerRuntime::retry_stalled(Shard& s) {
  if (s.stalled_conns.empty()) return;
  std::vector<std::uint64_t> retry;
  retry.swap(s.stalled_conns);
  for (auto id : retry) {
    auto it = s.conns.find(id);
    if (it == s.conns.end()) continue;  // conn died while parked
    it->second.stalled = false;
    dispatch_ready(s, it->second);  // re-parks itself if still full
    auto again = s.conns.find(id);
    if (again != s.conns.end()) finish_conn_if_idle(s, again->second);
  }
}

void EventServerRuntime::flush_conn(Shard& s, Conn& c) {
  while (c.out_off < c.out_len) {
    auto r = c.sock->write_some(
        ByteSpan(c.out_buf.data() + c.out_off, c.out_len - c.out_off),
        /*timeout_ms=*/0);
    if (!r.is_ok()) {
      if (r.status().code() != StatusCode::kTimeout) {
        ++stats_.conn_resets;
        destroy_conn(s, c.id);
      } else {
        // Socket full: the peer is not keeping up.  The leftover waits
        // in out_buf for writability; count the stall.
        ++stats_.write_stalls;
      }
      return;
    }
    c.out_off += *r;
  }
  c.out_off = 0;
  c.out_len = 0;
  // Fully drained: hand the buffer back so idle connections do not
  // park arena slices (the next reply adopts its own frame anyway).
  if (!c.out_buf.empty()) {
    s.arena.recycle(std::move(c.out_buf));
    c.out_buf = Bytes();
  }
}

void EventServerRuntime::finish_conn_if_idle(Shard& s, Conn& c) {
  const bool out_pending = c.out_off < c.out_len;
  if (c.peer_eof && c.inflight == 0 && c.ready_records.empty() &&
      !out_pending) {
    destroy_conn(s, c.id);
    return;
  }
  unsigned want = 0;
  // Backpressure: stop reading a conn whose record backlog is full; TCP
  // flow control stalls the peer until dispatch catches up.
  if (!c.peer_eof && !s.intake_closed &&
      c.ready_records.size() < kMaxPipelinedRecords) {
    want |= net::kEventRead;
  }
  if (out_pending) want |= net::kEventWrite;
  if (want == 0 && c.inflight == 0 && c.ready_records.empty()) {
    // Intake is closed and nothing is queued: the connection can never
    // make progress again.
    destroy_conn(s, c.id);
    return;
  }
  if (c.interest != want && s.reactor.set_interest(c.sock->fd(), want)) {
    c.interest = want;
  }
}

void EventServerRuntime::destroy_conn(Shard& s, std::uint64_t id) {
  auto it = s.conns.find(id);
  if (it == s.conns.end()) return;
  Conn& c = it->second;
  // Give every arena slice the connection holds back to its shard:
  // the half-assembled record, undispatched records, out-of-order
  // replies parked in the ring, and the write buffer.
  s.arena.recycle(std::move(c.record.buf));
  for (auto& rec : c.ready_records) s.arena.recycle(std::move(rec.buf));
  for (auto& slot : c.ring) {
    if (slot.ready) s.arena.recycle(std::move(slot.frame.buf));
  }
  s.arena.recycle(std::move(c.out_buf));
  s.reactor.remove(c.sock->fd());
  s.conns.erase(it);  // unique_ptr closes the socket
}

bool EventServerRuntime::append_out(Shard& s, Conn& c, Chunk frame) {
  const std::size_t pending = c.out_len - c.out_off;
  if (pending + frame.len > cfg_.max_write_buffer) {
    s.arena.recycle(std::move(frame.buf));
    ++stats_.conn_resets;
    destroy_conn(s, c.id);
    return false;
  }
  if (pending == 0) {
    // Common case (peer keeping up): adopt the worker's frame outright
    // instead of copying it into the write buffer.
    s.arena.recycle(std::move(c.out_buf));
    c.out_buf = std::move(frame.buf);
    c.out_off = 0;
    c.out_len = frame.len;
    return true;
  }
  if (c.out_len + frame.len > c.out_buf.size()) {
    // Compact the unwritten tail into a bigger arena slice.
    Bytes bigger = s.arena.take(pending + frame.len);
    std::memcpy(bigger.data(), c.out_buf.data() + c.out_off, pending);
    s.arena.recycle(std::move(c.out_buf));
    c.out_buf = std::move(bigger);
    c.out_off = 0;
    c.out_len = pending;
  }
  std::memcpy(c.out_buf.data() + c.out_len, frame.buf.data(), frame.len);
  c.out_len += frame.len;
  s.arena.recycle(std::move(frame.buf));
  return true;
}

void EventServerRuntime::on_reply(Shard& s, std::uint64_t conn_id,
                                  std::uint64_t seq, Chunk frame) {
  auto it = s.conns.find(conn_id);
  if (it == s.conns.end()) {
    // The connection died while this request was in a worker; the
    // reply has nowhere to go, but its buffer still goes home.
    s.arena.recycle(std::move(frame.buf));
    pending_jobs_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  it->second.ring[seq % pipeline_depth_].ready = true;
  it->second.ring[seq % pipeline_depth_].frame = std::move(frame);
  // Emit every consecutively-complete reply, in seq order, flushing
  // after each one (so the write-stall accounting and the
  // max_write_buffer cap see the same per-reply growth as serial
  // execution did).  A gap — an earlier request still executing —
  // stops the sweep; its completion will resume it.  append_out and
  // flush_conn can both destroy the connection, so re-resolve every
  // round.
  std::int64_t now = 0;  // lazily read once per emit sweep
  for (;;) {
    auto cit = s.conns.find(conn_id);
    if (cit == s.conns.end()) break;
    Conn& c = cit->second;
    ReplySlot& head = c.ring[c.emit_seq % pipeline_depth_];
    if (!head.ready) break;
    Chunk f = std::move(head.frame);
    head.ready = false;
    head.frame = Chunk{};
    ++c.emit_seq;
    --c.inflight;
    if (f.len > 0) {
      if (f.recv_ns > 0) {
        // Recorded at ordered-ring emit: the frame is committed to the
        // wire order here, so emitted >= what any client has read —
        // the stress books assert exactly that inequality.
        if (now == 0) now = common::monotonic_ns();
        s.tcp_e2e_hist.record(now - f.recv_ns);
      }
      if (!append_out(s, c, std::move(f))) break;  // conn destroyed
      flush_conn(s, c);
    } else {
      // No reply for this request (undecodable header): the slot still
      // held its place so later replies could not jump the order.
      s.arena.recycle(std::move(f.buf));
    }
  }
  auto again = s.conns.find(conn_id);
  if (again != s.conns.end()) {
    dispatch_ready(s, again->second);
    finish_conn_if_idle(s, again->second);
  }
  pending_jobs_.fetch_sub(1, std::memory_order_acq_rel);
}

void EventServerRuntime::on_udp_readable(Shard& s) {
  const int n = s.udp->recv_many(s.udp_batch, kUdpBatch);
  if (n <= 0) return;
  // One clock read per recvmmsg, shared by every datagram of the batch.
  const std::int64_t recv_ns = metrics_on_ ? common::monotonic_ns() : 0;
  for (int i = 0; i < n; ++i) {
    net::Datagram& d = s.udp_batch[static_cast<std::size_t>(i)];
    s.udp_jobs.push_back(
        UdpDatagramJob{s.index, d.src, std::move(d.payload), d.len, recv_ns});
    // Refill the moved-out slot from this shard's arena (buffers the
    // workers finished with come back here) so the next recv_many
    // neither allocates nor zero-fills in steady state.
    d.payload = s.arena.take(net::kMaxDatagramBytes);
  }
  push_datagram_jobs(s, s.udp_jobs);
}

// ------------------------------------------------------- worker side ---

void EventServerRuntime::wake_stealer(std::size_t except) {
  const std::size_t nshards = shards_.size();
  if (nshards < 2) return;
  // Skip the pushing shard and any shard with no workers of its own
  // (possible when cfg.workers < reactors): notifying a cv nobody
  // waits on would leave the job to the 50ms fallback tick.
  std::size_t v = steal_wake_rr_.fetch_add(1, std::memory_order_relaxed) %
                  nshards;
  for (std::size_t k = 0; k < nshards; ++k, v = (v + 1) % nshards) {
    if (v == except || shards_[v]->home_workers == 0) continue;
    shards_[v]->q_cv.notify_one();
    return;
  }
}

bool EventServerRuntime::push_job(std::size_t origin, Job& job) {
  Shard& t = *shards_[origin];
  {
    std::lock_guard<std::mutex> lock(t.q_mu);
    if (t.queue.size() >= cfg_.queue_capacity) return false;
    t.queue.push_back(std::move(job));
  }
  pending_jobs_.fetch_add(1, std::memory_order_acq_rel);
  t.q_cv.notify_one();
  // Wake a sibling too: even one queued job waits behind this shard's
  // workers when they are busy (or absent), and stealing should find
  // it now, not on the sibling's idle tick.
  wake_stealer(t.index);
  return true;
}

void EventServerRuntime::push_datagram_jobs(
    Shard& s, std::vector<UdpDatagramJob>& jobs) {
  const int n = static_cast<int>(jobs.size());
  if (n == 0) return;
  ++stats_.udp_batches;
  stats_.udp_datagrams += n;
  int accepted = 0;
  {
    std::lock_guard<std::mutex> lock(s.q_mu);
    while (accepted < n && s.queue.size() < cfg_.queue_capacity) {
      s.queue.push_back(std::move(jobs[static_cast<std::size_t>(accepted)]));
      ++accepted;
    }
  }
  if (accepted > 0) {
    pending_jobs_.fetch_add(accepted, std::memory_order_acq_rel);
    s.q_cv.notify_all();
    // As in push_job: a sibling steals what the home workers cannot
    // reach now.
    wake_stealer(s.index);
  }
  if (accepted < n) {
    stats_.overload_drops += n - accepted;
    for (int i = accepted; i < n; ++i) {
      s.arena.recycle(std::move(jobs[static_cast<std::size_t>(i)].payload));
    }
  }
  jobs.clear();
}

bool EventServerRuntime::try_pop(std::size_t shard_idx, Job& out) {
  Shard& s = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(s.q_mu);
  if (s.queue.empty()) return false;
  out = std::move(s.queue.front());
  s.queue.pop_front();
  return true;
}

void EventServerRuntime::worker_loop(std::size_t home) {
  // Per-worker reply accumulator: datagram replies collect here and go
  // out as one batch per originating shard when the queues run dry, a
  // TCP job interleaves, or a full receive batch's worth has piled up.
  // Scheduling stays one-job-per-pop so a burst still fans out across
  // the pool; only the SEND syscall is batched.
  ReplyAccumulator acc;
  acc.per_shard.resize(shards_.size());
  Shard& h = *shards_[home];
  // Small stable id for trace attribution (which thread served the
  // sampled request), distinct from `home` under stealing.
  const std::uint16_t worker_id = static_cast<std::uint16_t>(
      worker_seq_.fetch_add(1, std::memory_order_relaxed));
  // Stream-reply encode scratch, taken lazily on the first TCP job and
  // held for the worker's lifetime (see serve_tcp_request).
  Bytes stream_scratch;
  const std::size_t nshards = shards_.size();
  // Stealing is pointless with a single shard.
  const bool can_steal = nshards > 1;
  // Set when the last cv wait expired without a notify: a steal found
  // right after it means the periodic tick, not a wakeup, rescued the
  // job (stats().tick_steals — meant to stay at zero).
  bool tick_wakeup = false;
  for (;;) {
    Job job{UdpDatagramJob{}};
    bool have = try_pop(home, job);
    if (!have && can_steal) {
      // Home queue dry: sweep the siblings so capacity stranded by a
      // skewed flow hash (or one hot connection) still gets used.
      for (std::size_t k = 1; k < nshards && !have; ++k) {
        have = try_pop((home + k) % nshards, job);
        if (have) {
          ++stats_.work_steals;
          if (tick_wakeup) ++stats_.tick_steals;
        }
      }
    }
    tick_wakeup = false;
    if (!have) {
      if (acc.total > 0) {
        // Unflushed replies and (momentarily) empty queues: flush now
        // rather than sit on them — this bounds added reply latency to
        // one handler execution.
        flush_udp_replies(acc);
        continue;
      }
      std::unique_lock<std::mutex> lock(h.q_mu);
      if (h.queue.empty()) {
        if (workers_stop_.load(std::memory_order_acquire)) {
          lock.unlock();
          h.arena.recycle(std::move(stream_scratch));
          return;
        }
        if (can_steal) {
          // Sibling backlogs signal this cv through wake_stealer; the
          // timeout is only a fallback for a wakeup that raced the
          // wait, so idle workers cost ~1000/tick wakeups/s, not 1000.
          if (h.q_cv.wait_for(lock, std::chrono::milliseconds(kStealTickMs)) ==
              std::cv_status::timeout) {
            tick_wakeup = true;
          }
        } else {
          // Open-coded predicate wait (not the lambda overload): the
          // thread-safety analysis treats a lambda as its own function,
          // so a predicate reading the GUARDED_BY queue would warn even
          // inside this no_thread_safety_analysis function.
          while (h.queue.empty() &&
                 !workers_stop_.load(std::memory_order_acquire)) {
            h.q_cv.wait(lock);
          }
        }
      }
      continue;
    }
    if (auto* d = std::get_if<UdpDatagramJob>(&job)) {
      serve_udp_datagram(*d, acc, worker_id);
      if (acc.total >= static_cast<std::size_t>(kUdpBatch)) {
        flush_udp_replies(acc);
      }
    } else if (auto* t = std::get_if<TcpRequestJob>(&job)) {
      flush_udp_replies(acc);  // don't hold replies across a TCP call
      serve_tcp_request(*t, stream_scratch, h.arena, worker_id);
    }
  }
}

void EventServerRuntime::serve_udp_datagram(UdpDatagramJob& job,
                                            ReplyAccumulator& acc,
                                            std::uint16_t worker_id) {
  // Zero-copy dispatch: the worker exclusively owns the arena payload,
  // so arguments decode in place and the reply encodes straight into
  // another arena slice — no scratch memset/memcpy on either side of
  // the hot path.  pending_jobs_ is decremented when the reply actually
  // flushes so stop()'s drain covers the accumulator too.
  Shard& origin = *shards_[job.shard];
  common::BufferArena& arena = origin.arena;
  // Histograms attribute to the ORIGIN shard even when a stealing
  // worker serves the job: latency follows the traffic.
  const std::int64_t pop_ns = metrics_on_ ? common::monotonic_ns() : 0;
  const std::int64_t queue_wait =
      (metrics_on_ && job.recv_ns > 0) ? pop_ns - job.recv_ns : 0;
  if (metrics_on_ && job.recv_ns > 0) origin.queue_hist.record(queue_wait);
  bool traced = false;
  if (tracer_ && tracer_->should_sample()) {
    const std::uint32_t xid =
        job.len >= 4 ? load_be32(job.payload.data()) : 0;
    tracer_->begin(xid, static_cast<std::uint16_t>(job.shard), worker_id,
                   queue_wait);
    traced = true;
  }
  // Clamp at the UDP payload ceiling: letting a reply encode past what
  // a datagram can physically carry would trade an immediate
  // GARBAGE_ARGS error reply for a silent EMSGSIZE drop and a client
  // timeout.
  const std::size_t cap =
      std::min(reply_capacity(job.len), net::kMaxUdpPayloadBytes);
  Bytes out = arena.take(cap);
  const std::size_t n =
      registry_.handle_request(ByteSpan(job.payload.data(), job.len),
                               MutableByteSpan(out.data(), cap));
  arena.recycle(std::move(job.payload));
  if (metrics_on_) origin.handle_hist.record(common::monotonic_ns() - pop_ns);
  if (n == 0) {
    if (traced) common::trace_end();
    arena.recycle(std::move(out));
    pending_jobs_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  acc.per_shard[job.shard].push_back(
      UdpReply{job.src, std::move(out), n, job.recv_ns});
  ++acc.total;
  if (traced) {
    // The actual send is batched later; this flush stage covers
    // handing the reply to the accumulator.
    common::trace_mark(common::TraceStage::kFlush);
    common::trace_end();
  }
}

void EventServerRuntime::flush_udp_replies(ReplyAccumulator& acc) {
  if (acc.total == 0) return;
  for (std::size_t si = 0; si < acc.per_shard.size(); ++si) {
    auto& bucket = acc.per_shard[si];
    if (bucket.empty()) continue;
    // send_replies takes every buffer; the e2e stamp, buffer recycle
    // and pending_jobs_ decrement happen once each reply has left (or
    // failed), so stop()'s drain covers sends in flight.
    send_replies(*shards_[si], bucket);
    bucket.clear();
  }
  acc.total = 0;
}

void EventServerRuntime::send_replies(Shard& s,
                                      std::vector<UdpReply>& bucket) {
  // Reused per worker thread: the flush path, like the receive path,
  // must not allocate in steady state.
  thread_local std::vector<net::OutDatagram> msgs;
  const int total = static_cast<int>(bucket.size());
  msgs.resize(bucket.size());
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    msgs[i].dst = bucket[i].dst;
    msgs[i].payload = ByteSpan(bucket[i].buf.data(), bucket[i].len);
  }
  ++stats_.udp_reply_batches;
  const int sent = s.udp->send_many(msgs.data(), total);
  if (sent > 0 && metrics_on_) {
    // One clock read per flush covers the whole sent prefix; e2e is
    // recorded only for replies that actually left (the stress books
    // equate histogram totals with successful sends).
    const std::int64_t now = common::monotonic_ns();
    for (int i = 0; i < sent; ++i) {
      const auto& r = bucket[static_cast<std::size_t>(i)];
      if (r.recv_ns > 0) s.udp_e2e_hist.record(now - r.recv_ns);
    }
  }
  if (sent < total) {
    // The kernel refused the tail (EWOULDBLOCK on the non-blocking
    // socket, ENOBUFS, ...).  Retry once on the shard's reactor thread
    // instead of dropping silently; what it still refuses is counted.
    stats_.reply_send_retries += total - sent;
    std::vector<UdpReply> tail(std::make_move_iterator(bucket.begin() + sent),
                               std::make_move_iterator(bucket.end()));
    Shard* sp = &s;
    s.reactor.post([this, sp, tail = std::move(tail)]() mutable {
      for (auto& r : tail) {
        if (!sp->udp->send_to(r.dst, ByteSpan(r.buf.data(), r.len)).is_ok()) {
          ++stats_.reply_send_failures;
        } else if (r.recv_ns > 0) {
          // recv_ns > 0 implies metrics were on when it was stamped.
          sp->udp_e2e_hist.record(common::monotonic_ns() - r.recv_ns);
        }
        sp->arena.recycle(std::move(r.buf));
      }
    });
  }
  for (int i = 0; i < sent; ++i) {
    s.arena.recycle(std::move(bucket[static_cast<std::size_t>(i)].buf));
  }
  pending_jobs_.fetch_sub(total, std::memory_order_acq_rel);
}

void EventServerRuntime::serve_tcp_request(TcpRequestJob& job, Bytes& scratch,
                                           common::BufferArena& scratch_arena,
                                           std::uint16_t worker_id) {
  // The record is a complete call message in one contiguous arena
  // slice, so the same zero-copy span path as UDP serves it — arguments
  // decode in place (residual plans can XDR_INLINE them, unlike an
  // xdrrec stream) and the reply encodes directly after the 4-byte
  // record mark in the worker's persistent scratch.  TCP replies are
  // not bounded by the request (a read-style proc turns a 100-byte call
  // into a big blob), so the SCRATCH provisions kMaxStreamReplyBytes
  // like every other stream-path adapter — once per worker, not per
  // request; it covers reply_capacity() of any record parse_records
  // admits.  Only the framed bytes travel onward, in a frame sized to
  // the reply: a deep pipeline keeps many replies in flight, and they
  // must circulate as small arena slices, not per-request 1 MB
  // provisions.
  Shard& origin = *shards_[job.shard];
  const std::int64_t pop_ns = metrics_on_ ? common::monotonic_ns() : 0;
  const std::int64_t queue_wait =
      (metrics_on_ && job.record.recv_ns > 0) ? pop_ns - job.record.recv_ns
                                              : 0;
  if (metrics_on_ && job.record.recv_ns > 0) {
    origin.queue_hist.record(queue_wait);
  }
  bool traced = false;
  if (tracer_ && tracer_->should_sample()) {
    const std::uint32_t xid =
        job.record.len >= 4 ? load_be32(job.record.buf.data()) : 0;
    tracer_->begin(xid, static_cast<std::uint16_t>(job.shard), worker_id,
                   queue_wait);
    traced = true;
  }
  if (scratch.size() < 4 + kMaxStreamReplyBytes) {
    scratch_arena.recycle(std::move(scratch));
    scratch = scratch_arena.take(4 + kMaxStreamReplyBytes);
  }
  const std::size_t len = registry_.handle_request(
      ByteSpan(job.record.buf.data(), job.record.len),
      MutableByteSpan(scratch.data() + 4, kMaxStreamReplyBytes));
  origin.arena.recycle(std::move(job.record.buf));
  if (metrics_on_) origin.handle_hist.record(common::monotonic_ns() - pop_ns);
  Chunk frame;
  if (len > 0) {
    ++stats_.tcp_calls;
    store_be32(scratch.data(),
               xdr::XdrRec::kLastFragFlag | static_cast<std::uint32_t>(len));
    frame.len = 4 + len;
    frame.buf = origin.arena.take(frame.len);
    std::memcpy(frame.buf.data(), scratch.data(), frame.len);
    // Carry the request's receive stamp to the emit point: tcp_e2e is
    // recorded by on_reply when the frame enters the ordered ring.
    frame.recv_ns = job.record.recv_ns;
  }
  // Hand the reply (or the bare slot completion) back to the
  // connection's owning shard, whose reactor thread owns all its state.
  // pending_jobs_ is decremented by on_reply so stop()'s drain covers
  // the write handoff too.
  Shard* shard = &origin;
  shard->reactor.post([this, shard, conn_id = job.conn_id, seq = job.seq,
                       frame = std::move(frame)]() mutable {
    on_reply(*shard, conn_id, seq, std::move(frame));
  });
  if (traced) {
    // Flush covers the frame copy + handoff to the owning reactor; the
    // ordered-ring emit itself belongs to the reactor thread.
    common::trace_mark(common::TraceStage::kFlush);
    common::trace_end();
  }
}

}  // namespace tempo::rpc
