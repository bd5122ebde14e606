// RPC server side — port of Sun's svc.c / svc_udp.c / svc_tcp.c.
//
// SvcRegistry holds the dispatch table ((prog, vers, proc) -> handler)
// and implements the transport-independent request->reply transform,
// including every protocol error reply (RPC_MISMATCH, AUTH_ERROR,
// PROG_UNAVAIL, PROG_MISMATCH, PROC_UNAVAIL, GARBAGE_ARGS).
// UdpServer / TcpServer bind it to transports; SimEndpoint handlers bind
// it to the simulated network.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/simnet.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "net/udp.h"
#include "rpc/rpc_msg.h"
#include "xdr/xdrmem.h"

namespace tempo::rpc {

// Decodes arguments from `args_in` and encodes results into `res_out`.
// Returning false yields a GARBAGE_ARGS reply.
using SvcHandler =
    std::function<bool(xdr::XdrStream& args_in, xdr::XdrStream& res_out)>;

// Optional credential gate; non-kOk yields an AUTH_ERROR rejection.
using AuthChecker = std::function<AuthStat(const OpaqueAuth& cred)>;

// ---- reply-buffer sizing rule (shared by every transport adapter) ----
//
// A reply buffer must never be smaller than the classic UDP message
// size, and for transports that accept larger records (the reactor
// runtime's TCP records go up to kMaxRecordBytes) it must scale with the
// request: an echo-style handler produces a reply about as large as its
// request, so a fixed 65000-byte scratch silently breaks any
// large-record reply (the handler's encode fails and the client sees
// GARBAGE_ARGS).  kReplyHeadroom covers the reply header of procedures
// whose results exceed their arguments by a bounded amount.
inline constexpr std::size_t kMinReplyBytes = 65000;  // UDPMSGSIZE analog
inline constexpr std::size_t kReplyHeadroom = 1024;
inline std::size_t reply_capacity(std::size_t request_size) {
  const std::size_t scaled = request_size + kReplyHeadroom;
  return scaled < kMinReplyBytes ? kMinReplyBytes : scaled;
}
// The largest record-marked request EventServerRuntime accepts; a peer
// announcing more is reset.
inline constexpr std::size_t kMaxRecordBytes = 1u << 20;
// Stream replies are not bounded by their request (a read-style proc
// turns a tiny call into a big result), so every stream path provisions
// reply_capacity() of the largest record the runtime accepts.
inline constexpr std::size_t kMaxStreamReplyBytes =
    kMaxRecordBytes + kReplyHeadroom;

// Atomic so concurrent worker threads (EventServerRuntime) can dispatch
// through one registry without a stats race; single-threaded callers
// read the fields exactly as before.
struct SvcStats {
  std::atomic<std::int64_t> requests{0};
  std::atomic<std::int64_t> success{0};
  std::atomic<std::int64_t> protocol_errors{0};  // any non-SUCCESS reply
  std::atomic<std::int64_t> undecodable{0};  // header garbled: no reply
};

class SvcRegistry {
 public:
  // Registration folds this registry's dispatch counters into the
  // process-wide metrics registry (svc.* in metrics().snapshot());
  // the source unregisters with the registry object.
  SvcRegistry();

  void register_proc(std::uint32_t prog, std::uint32_t vers,
                     std::uint32_t proc, SvcHandler handler);
  void set_auth_checker(AuthChecker checker) { auth_ = std::move(checker); }

  // Core transform: reads one call message from `in`, writes the full
  // reply message into `out`.  Returns false iff the request was so
  // malformed that no reply can be produced (caller drops it).
  //
  // Thread-safety: dispatch/handle_datagram may run concurrently from
  // many threads PROVIDED registration is finished first (the handler
  // table is read-only while serving, exactly like Sun's svc.c, whose
  // dispatch table is built before svc_run).
  bool dispatch(xdr::XdrStream& in, xdr::XdrMem& out);

  // Zero-copy dispatch: decodes the call IN PLACE from `request` — the
  // caller-owned receive buffer is neither copied nor cleared — and
  // encodes the reply into `reply_out` (size it with reply_capacity()).
  // Returns the number of reply bytes written; 0 means the request was
  // undecodable and must be dropped (a real reply always carries at
  // least a header, so 0 is unambiguous).  Buffer contract (see
  // src/rpc/README.md): the registry only reads `request`, and the
  // caller must keep both spans exclusively owned by the dispatching
  // thread until the call returns.
  std::size_t handle_request(ByteSpan request, MutableByteSpan reply_out);

  // Convenience for datagram transports: request bytes -> reply bytes.
  // Empty result means "drop".  This is the generic copy path — the
  // request is copied into per-thread scratch (after the input-buffer
  // bzero the paper names as a round-trip cost, §5 "Round-trip RPC")
  // and the reply is copied out; the runtimes' hot paths use
  // handle_request instead, which never clears or copies.
  Bytes handle_datagram(ByteSpan request);

  const SvcStats& stats() const { return stats_; }

 private:
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;
  std::map<Key, SvcHandler> handlers_;
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>
      version_bounds_;  // prog -> [low, high]
  AuthChecker auth_;
  SvcStats stats_;
  // Last member: unregisters before anything it reads is destroyed.
  common::MetricsRegistry::SourceHandle metrics_source_;
};

// Per-request latency distributions, merged across a runtime's shards
// (EventServerRuntime::latency_snapshot; see "Observability" in
// src/rpc/README.md for the stage taxonomy).  All values nanoseconds.
struct RuntimeLatencySnapshot {
  common::HistogramSnapshot queue;    // wire receive -> worker pop
  common::HistogramSnapshot handle;   // dispatch duration in the worker
  common::HistogramSnapshot udp_e2e;  // wire receive -> reply handed to wire
  common::HistogramSnapshot tcp_e2e;  // record assembled -> reply emitted
};

// Serves a DatagramTransport (real UDP socket or polled sim endpoint).
class UdpServer {
 public:
  UdpServer(net::DatagramTransport& transport, SvcRegistry& registry)
      : transport_(transport), registry_(registry) {}

  // Serve at most one request; false on timeout.
  bool poll_once(int timeout_ms);
  // Loop until `stop` becomes true (run this on a thread).
  void serve(const std::atomic<bool>& stop);

 private:
  net::DatagramTransport& transport_;
  SvcRegistry& registry_;
  Bytes recv_buf_ = Bytes(net::kMaxDatagramBytes);
};

// Installs a SimEndpoint handler so requests dispatch inline while the
// simulated network is pumped.  Reply send cost is charged to the link.
void attach_sim_server(net::SimEndpoint* endpoint, SvcRegistry& registry);

// Accepts loopback TCP connections and serves record-marked calls.
class TcpServer {
 public:
  TcpServer(net::TcpListener& listener, SvcRegistry& registry)
      : listener_(listener), registry_(registry) {}

  // Accept one connection and serve calls on it until the peer closes
  // or `stop` becomes true.  Returns number of calls served.
  int serve_one_connection(const std::atomic<bool>& stop,
                           int accept_timeout_ms = 2000);
  // Loop accepting connections until stopped.
  void serve(const std::atomic<bool>& stop);

 private:
  net::TcpListener& listener_;
  SvcRegistry& registry_;
};

}  // namespace tempo::rpc
