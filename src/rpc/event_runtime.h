// EventServerRuntime — the concurrent Sun RPC server runtime.
//
// Every socket sits behind net::Reactor shards, and a request's whole
// life — recv, decode, specialize-lookup, execute, reply — stays on one
// shard:
//
//   * N reactor shards (cfg.reactors), each with its OWN event loop
//     thread, its own SO_REUSEPORT-bound UDP socket (the kernel
//     disperses inbound datagrams across the group by flow hash), its
//     own partition of the accepted TCP connections, its own
//     common::BufferArena feeding every request/reply buffer, AND its
//     own worker pool with its own bounded job queue — the per-request
//     path crosses no global lock.  Idle workers steal from sibling
//     shards' queues so a skewed flow-hash dispersal cannot strand
//     capacity (stats().work_steals counts);
//   * datagrams arrive in batches — one syscall (or one CQ drain) per
//     burst, not per datagram — and replies flush back out through
//     per-worker, per-shard accumulators on the shard that received the
//     request, so a burst pairs one batch in BOTH directions;
//   * the TCP listener lives on shard 0; an accepted connection is
//     handed round-robin to its owning shard by posting the socket to
//     that shard's reactor, which wraps and owns it from then on.  Each
//     connection carries its own record-reassembly buffer and
//     pending-write buffer on its owning shard — a slow peer therefore
//     delays nobody but itself;
//   * TCP connections are PIPELINED: up to cfg.tcp_pipeline_depth
//     requests of one connection execute concurrently across the
//     shard's workers, while a per-connection ordered reply ring
//     (slot reserved at dispatch, flushed strictly in sequence)
//     preserves wire order exactly as if the calls had run one at a
//     time;
//   * workers dispatch through SvcRegistry::handle_request — decoding
//     each request IN PLACE from the receive buffer and encoding the
//     reply into an arena buffer, no scratch memset/memcpy — and post
//     framed TCP replies back to the connection's owning shard, which
//     writes them without ever blocking (leftover bytes wait for
//     writability).
//
// Because a TCP request reaches the worker as one contiguous record,
// argument decode goes through XdrMem — XDR_INLINE succeeds and the
// residual-plan fast path engages on TCP too, which an xdrrec stream
// (rpc::TcpServer) can never offer.
//
// The I/O seam: this class is the backend-agnostic shard core.  How
// bytes move — readiness + recvmmsg/read/sendmmsg on epoll, or
// multishot receives into a registered buffer ring plus linked sends on
// io_uring — belongs to one ShardDriver per shard (shard_driver.h);
// the core never tests which backend it runs on.
//
// Ownership (see src/net/README.md for the full model): each shard's
// reactor thread exclusively owns that shard's connection state;
// workers only ever own a request's buffer plus the (shard, conn_id,
// seq) triple naming its origin; handoff back is by that shard's
// Reactor::post().  Buffers recycle into the origin shard's arena from
// whichever thread finishes with them (the arena is the one
// cross-thread-safe piece, one mutex per size class).  Stats are
// process-wide atomics every shard adds into, so stats() aggregates
// across shards by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "rpc/svc.h"

namespace tempo::rpc {

struct EventServerRuntimeConfig {
  // Total workers across all shards, split as evenly as possible
  // (remainder to the low shards; with workers < reactors the high
  // shards get none and their queues drain through stealing siblings).
  int workers = 4;
  // Reactor shards.  Each shard runs its own event loop thread with its
  // own SO_REUSEPORT UDP socket, its own slice of the TCP connections,
  // its own worker pool + job queue and its own buffer arena.
  int reactors = 1;
  // Requests of ONE TCP connection allowed in flight concurrently; the
  // per-connection reply ring keeps wire order.  1 restores strictly
  // serial per-connection execution.
  int tcp_pipeline_depth = 8;
  std::uint16_t udp_port = 0;  // 0 = ephemeral
  std::uint16_t tcp_port = 0;
  bool enable_udp = true;
  bool enable_tcp = true;
  // Capacity of EACH shard's job queue.
  std::size_t queue_capacity = 1024;
  // Per-connection cap on buffered reply bytes; a peer that stops
  // reading past it is reset.
  std::size_t max_write_buffer = 4u << 20;
  // Reactor backend every shard uses.  kAuto prefers io_uring when the
  // running kernel supports everything the backend needs (probed once)
  // and otherwise falls back to epoll — kernels without io_uring,
  // seccomp-filtered containers, and the TEMPO_URING=0 kill switch all
  // land on epoll with no configuration change.  kEpoll pins epoll.
  // backend() reports what actually runs.
  net::ReactorBackend backend = net::ReactorBackend::kAuto;
  // Request-stage tracing: trace 1 in trace_sample requests (0 = off;
  // falls back to the TEMPO_TRACE_SAMPLE env var when 0) into
  // per-shard rings of trace_ring records each.  See "Observability"
  // in src/rpc/README.md for the stage taxonomy.
  std::uint32_t trace_sample = 0;
  std::size_t trace_ring = 256;
};

struct EventServerRuntimeStats {
  std::atomic<std::int64_t> udp_datagrams{0};
  std::atomic<std::int64_t> udp_batches{0};  // receive batches that got >0
  std::atomic<std::int64_t> udp_reply_batches{0};  // reply bucket flushes
  // Replies the kernel refused on first send (EWOULDBLOCK on the
  // non-blocking socket, ENOBUFS, ...), handed to the reactor for one
  // retry — and the ones still refused there, which are dropped.
  std::atomic<std::int64_t> reply_send_retries{0};
  std::atomic<std::int64_t> reply_send_failures{0};
  std::atomic<std::int64_t> tcp_connections{0};
  std::atomic<std::int64_t> tcp_calls{0};
  std::atomic<std::int64_t> overload_drops{0};  // queue-full datagram drops
  std::atomic<std::int64_t> conn_resets{0};  // peers cut off at a cap
  // Times a connection flush left bytes buffered because the socket
  // stopped accepting (the peer is not reading fast enough).  Grows
  // while a reply sits in out_buf waiting for writability; a reset at
  // max_write_buffer is the cap this stall accounting leads up to.
  std::atomic<std::int64_t> write_stalls{0};
  // Jobs an idle worker popped from a SIBLING shard's queue.  Zero when
  // inbound load spreads evenly; growth means the flow hash (or a hot
  // connection) is skewing work onto fewer shards than exist.
  std::atomic<std::int64_t> work_steals{0};
  // Of those, steals found only by the periodic 50 ms re-sweep (the
  // worker's wait timed out; nobody woke it).  Nonzero means a
  // push path failed to wake a stealer — the tick is meant to be a
  // safety net, not the delivery mechanism.
  std::atomic<std::int64_t> tick_steals{0};
};

class EventServerRuntime {
 public:
  explicit EventServerRuntime(SvcRegistry& registry,
                              EventServerRuntimeConfig cfg = {});
  ~EventServerRuntime();

  EventServerRuntime(const EventServerRuntime&) = delete;
  EventServerRuntime& operator=(const EventServerRuntime&) = delete;

  // Binds sockets, registers them with the per-shard reactors and
  // spawns the reactor threads + per-shard worker pools.  Call after
  // all register_proc calls.
  Status start();
  // Stops intake on every shard, drains queued requests (bounded at
  // 2 s), then joins everything.  Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  net::Addr udp_addr() const;
  net::Addr tcp_addr() const;
  const EventServerRuntimeStats& stats() const { return stats_; }
  // Aggregate of every shard arena (valid between start() and stop()).
  // `misses` is the runtimes' `arena_misses`: takes the pool could not
  // serve and had to send to the allocator.
  common::BufferArenaStats arena_stats() const;
  const char* backend() const;
  // True when cfg.backend = kAuto selects the io_uring backend on this
  // kernel.
  static bool uring_supported() { return net::Reactor::uring_supported(); }
  // Total io_uring_enter syscalls across shards (0 on other backends;
  // valid between start() and stop()) — the bench divides by calls to
  // report syscalls per request.
  std::int64_t uring_enter_calls() const;
  // Shards actually running (valid between start() and stop()).
  int reactor_count() const { return static_cast<int>(shards_.size()); }
  // Worker threads actually running across all shards.
  int worker_count() const { return worker_count_; }
  // True when every shard owns its own SO_REUSEPORT UDP socket; false
  // in the single-receiving-socket fallback (or with reactors == 1).
  bool udp_sharded() const { return udp_sharded_; }

  // Per-shard latency distributions merged across shards (valid
  // between start() and stop(), like arena_stats()): queue wait,
  // dispatch duration, and end-to-end per transport.  Recording is a
  // wait-free bucket increment per sample and is disabled wholesale
  // by TEMPO_METRICS=0.
  RuntimeLatencySnapshot latency_snapshot() const;
  // The whole process in one call: this runtime's counters and shard
  // histograms plus every other registered component (registry
  // dispatch stats, spec cache, services, arenas) via the global
  // metrics registry.
  common::MetricsSnapshot metrics_snapshot() const {
    return common::metrics().snapshot();
  }
  // Sampled stage traces (empty when trace_sample was 0).  The
  // tracer survives stop(), so post-run inspection works.
  std::vector<common::TraceRecord> trace_snapshot() const {
    return tracer_ ? tracer_->snapshot() : std::vector<common::TraceRecord>{};
  }
  const common::Tracer* tracer() const { return tracer_.get(); }

 private:
  // One complete record (or a reply frame): an arena buffer plus how
  // many of its bytes are valid.  Arena buffers keep their class size
  // for life — valid lengths ride alongside instead of resizing, so
  // recycling never zero-fills.
  struct Chunk {
    Bytes buf;
    std::size_t len = 0;
    // monotonic_ns when the record finished assembling (requests) or,
    // copied through to the reply frame, when its request arrived —
    // what the tcp_e2e histogram measures at emit.  0 = unstamped.
    std::int64_t recv_ns = 0;
  };

  // One slot of a connection's ordered reply ring: reserved when the
  // request dispatches (seq), filled by whichever worker finishes it,
  // emitted strictly in seq order.  len == 0 marks "no reply" (an
  // undecodable request) — the slot still occupies its place so later
  // replies cannot jump the order.
  struct ReplySlot {
    bool ready = false;
    Chunk frame;
  };

  // ---- connection state (owning shard's reactor thread only) ----------
  struct Conn {
    std::uint64_t id = 0;
    std::size_t shard = 0;  // owning shard index, fixed for life
    std::unique_ptr<net::TcpConn> sock;
    // The read/write interest the shard's driver last applied.
    unsigned interest = net::kEventRead;
    // Record-marking reassembly (RFC 1057 §10): 4-byte fragment header,
    // then payload; top bit marks the record's last fragment.
    std::uint32_t frag_remaining = 0;
    bool frag_header_pending = true;
    bool last_frag = false;
    Bytes header_partial;       // < 4 buffered header bytes
    Chunk record;               // record being assembled (arena buffer)
    std::deque<Chunk> ready_records;  // complete, awaiting dispatch
    // Pipelined execution: seqs [emit_seq, next_seq) are in flight (at
    // most tcp_pipeline_depth), ring[seq % depth] is seq's reply slot.
    std::uint64_t next_seq = 0;   // assigned at dispatch
    std::uint64_t emit_seq = 0;   // next seq to append to out_buf
    std::size_t inflight = 0;
    std::vector<ReplySlot> ring;
    bool stalled = false;       // a ready record hit a full worker queue
    Bytes out_buf;              // framed replies not yet written
    std::size_t out_off = 0;    // [out_off, out_len) awaits the socket
    std::size_t out_len = 0;
    bool peer_eof = false;      // stop reading; flush, then close
  };

  // One datagram per job: the receive batch amortizes the syscall, but
  // each request schedules on its own worker so a batch never serializes
  // behind one thread.  The payload buffer is an arena buffer with
  // `len` valid bytes; the worker recycles it into the origin shard's
  // arena, so the receive path neither allocates nor zero-fills in
  // steady state.  `shard` names the socket the datagram arrived on —
  // the reply goes back out through that shard's driver.
  struct UdpDatagramJob {
    std::size_t shard = 0;
    net::Addr src;
    Bytes payload;
    std::size_t len = 0;
    // Stamped once per receive batch (shared by the whole batch, so
    // the receive path pays one clock read per batch, not per
    // datagram); 0 with metrics off.
    std::int64_t recv_ns = 0;
    // Payload starts at payload.data() + off: zero when the datagram
    // was received into a bare payload buffer, a header's size when it
    // stays where the kernel wrote it behind one (nothing is memmoved).
    std::size_t off = 0;
  };
  struct TcpRequestJob {
    std::size_t shard = 0;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;  // this request's slot in the conn's ring
    Chunk record;
  };
  using Job = std::variant<UdpDatagramJob, TcpRequestJob>;

  // One encoded-but-unsent UDP reply in a worker's accumulator: `buf`
  // is an arena buffer with `len` valid bytes.  Accumulated replies
  // flush through the origin shard's driver as one batch, pairing with
  // the batched receive path.  Accumulators are kept per shard so each
  // flush goes out the right socket (work stealing means a worker can
  // hold replies for several shards).
  struct UdpReply {
    net::Addr dst;
    Bytes buf;
    std::size_t len = 0;
    std::int64_t recv_ns = 0;  // request's receive stamp, for udp_e2e
  };
  // Per-worker accumulator: one reply vector per shard plus the total
  // across shards (the flush threshold is global so a worker never sits
  // on more than a batch's worth of replies).
  struct ReplyAccumulator {
    std::vector<std::vector<UdpReply>> per_shard;
    std::size_t total = 0;
  };

  // How bytes move for one shard (shard_driver.h): the interface, and
  // its readiness (epoll) and io_uring implementations.  Nested so the
  // drivers feed the core's private pipeline directly.
  class ShardDriver;
  class ReadinessDriver;
  class UringDriver;

  // One reactor shard: an event loop thread plus everything it
  // exclusively owns, and its slice of the execution pipeline (worker
  // pool + bounded job queue + buffer arena).  Shards live in
  // unique_ptrs so Shard* captures in reactor callbacks stay stable.
  struct Shard {
    // Both out of line: ShardDriver is incomplete here, and the inline
    // bodies would instantiate its destructor (unwind cleanup).
    Shard(std::size_t idx, net::ReactorBackend be);
    ~Shard();
    std::size_t index;
    net::Reactor reactor;
    // Set in start() before any thread runs; lives until the shard dies,
    // so workers may call send_replies on it at any time in between.
    std::unique_ptr<ShardDriver> driver;
    std::unique_ptr<net::UdpSocket> udp;  // null on non-receiving shards
    std::unordered_map<std::uint64_t, Conn> conns;
    std::uint64_t next_conn_id = 1;  // ids are per-shard; (shard, id) is
                                     // the global connection name
    bool intake_closed = false;
    std::vector<std::uint64_t> stalled_conns;
    // Every request/reply buffer this shard hands out; recycled from
    // whichever thread finishes with a buffer (thread-safe).
    common::BufferArena arena;
    // Latency distributions for requests that ORIGINATED on this shard
    // (a stealing worker records into the origin shard's histograms,
    // so the per-shard attribution follows the traffic, not the
    // thread).  Wait-free to record from any worker.
    common::LatencyHistogram queue_hist;
    common::LatencyHistogram handle_hist;
    common::LatencyHistogram udp_e2e_hist;
    common::LatencyHistogram tcp_e2e_hist;
    // ---- shard-local execution pipeline ----
    std::mutex q_mu;
    std::condition_variable q_cv;
    std::deque<Job> queue TEMPO_GUARDED_BY(q_mu);
    // Workers homed on this shard's queue.  home_workers mirrors the
    // count and is written once in start() BEFORE any thread runs:
    // push paths read it while stop() tears the vector down, so they
    // must never touch `workers` itself.
    std::vector<std::thread> workers;
    int home_workers = 0;
    std::thread thread;
  };

  // Wakes one worker of a SIBLING shard so a backlog (or a queue on a
  // worker-less shard) gets stolen promptly instead of waiting for the
  // idle-tick fallback.
  void wake_stealer(std::size_t except);

  // ---- reactor-shard handlers (run on that shard's thread) ------------
  void shard_loop(Shard& s);
  void on_accept_ready();  // shard 0 only (owns the listener)
  // Wraps a handed-off fd into a Conn owned by shard `s`.
  void adopt_conn(Shard& s, int fd);
  // Continuation after the driver moved bytes for conn `id`: flush if
  // the socket turned writable, dispatch ready records, then settle the
  // conn's interest (or close it).
  void on_conn_io(Shard& s, std::uint64_t id, bool writable);
  // Feeds received stream bytes into c's record reassembly; a protocol
  // violation resets and destroys the conn (returns false).
  bool feed_conn(Shard& s, Conn& c, ByteSpan bytes);
  bool parse_records(Shard& s, Conn& conn,
                     ByteSpan chunk);  // false = protocol violation
  void dispatch_ready(Shard& s, Conn& conn);
  void retry_stalled(Shard& s);    // re-dispatch conns parked on a full queue
  void flush_conn(Shard& s, Conn& conn);  // non-blocking write of out_buf
  void finish_conn_if_idle(Shard& s, Conn& conn);
  void destroy_conn(Shard& s, std::uint64_t id);
  // A worker finished seq for conn_id: fill its ring slot, emit every
  // consecutively-complete reply into out_buf in order.
  void on_reply(Shard& s, std::uint64_t conn_id, std::uint64_t seq,
                Chunk frame);
  // Appends frame's valid bytes to c.out_buf (arena-backed, grown via
  // the shard arena); false when the write-buffer cap was exceeded and
  // the connection was destroyed.
  bool append_out(Shard& s, Conn& c, Chunk frame);
  void close_intake(Shard& s);     // stop reading new requests on `s`

  // ---- worker side ----------------------------------------------------
  // Moves from `job` only on success so a failed push can be retried.
  bool push_job(std::size_t origin, Job& job);
  // Queues one receive batch as individual jobs on s's queue under one
  // lock acquisition and counts it; what does not fit is an overload
  // drop (payload recycled).  Leaves `jobs` empty.
  void push_datagram_jobs(Shard& s, std::vector<UdpDatagramJob>& jobs);
  bool try_pop(std::size_t shard_idx, Job& out);
  // no_thread_safety_analysis: parks on q_cv through a unique_lock that
  // is unlocked mid-scope, which the scope-based checker cannot follow.
  void worker_loop(std::size_t home) TEMPO_NO_THREAD_SAFETY_ANALYSIS;
  // Serves one datagram with the zero-copy span path; the reply lands
  // in `acc` (flushed by flush_udp_replies), not on the wire yet.
  void serve_udp_datagram(UdpDatagramJob& job, ReplyAccumulator& acc,
                          std::uint16_t worker_id);
  // Hands each non-empty shard bucket to that shard's driver.
  void flush_udp_replies(ReplyAccumulator& acc);
  // `scratch` is the worker's persistent stream-reply encode buffer
  // (grown through `scratch_arena`, the worker's home arena): the
  // encode needs kMaxStreamReplyBytes of headroom, but only the framed
  // bytes travel — in a right-sized arena frame — so deep pipelines
  // circulate small buffers, not 1 MB provisions.
  void serve_tcp_request(TcpRequestJob& job, Bytes& scratch,
                         common::BufferArena& scratch_arena,
                         std::uint16_t worker_id);

  SvcRegistry& registry_;
  EventServerRuntimeConfig cfg_;
  EventServerRuntimeStats stats_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<net::TcpListener> tcp_;
  bool udp_sharded_ = false;
  int worker_count_ = 0;
  std::size_t pipeline_depth_ = 1;  // sanitized cfg.tcp_pipeline_depth
  // Round-robin accept counter (shard 0's thread only).
  std::size_t next_conn_shard_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> reactor_stop_{false};
  std::atomic<bool> workers_stop_{false};
  std::atomic<std::int64_t> pending_jobs_{0};
  // Round-robin cursor for wake_stealer (any pushing thread).
  std::atomic<std::size_t> steal_wake_rr_{0};

  // Observability (tentpole).  metrics_on_ caches metrics_enabled() at
  // start() so the hot path never reads the environment; worker_seq_
  // hands each worker thread a small id for trace attribution.
  bool metrics_on_ = false;
  std::unique_ptr<common::Tracer> tracer_;
  std::atomic<int> worker_seq_{0};
  // Last member on purpose: the source callback reads shards_ and
  // stats_, so it must unregister before anything it touches dies.
  common::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tempo::rpc
