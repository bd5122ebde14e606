#include "rpc/svc.h"

#include <algorithm>
#include <cstring>

#include "xdr/xdrrec.h"

namespace tempo::rpc {

using xdr::XdrMem;
using xdr::XdrOp;
using xdr::XdrRec;
using xdr::XdrStream;

SvcRegistry::SvcRegistry() {
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& s) {
        s.add_counter("svc.requests",
                      stats_.requests.load(std::memory_order_relaxed));
        s.add_counter("svc.success",
                      stats_.success.load(std::memory_order_relaxed));
        s.add_counter(
            "svc.protocol_errors",
            stats_.protocol_errors.load(std::memory_order_relaxed));
        s.add_counter("svc.undecodable",
                      stats_.undecodable.load(std::memory_order_relaxed));
      });
}

void SvcRegistry::register_proc(std::uint32_t prog, std::uint32_t vers,
                                std::uint32_t proc, SvcHandler handler) {
  handlers_[Key{prog, vers, proc}] = std::move(handler);
  auto [it, inserted] = version_bounds_.try_emplace(prog, vers, vers);
  if (!inserted) {
    it->second.first = std::min(it->second.first, vers);
    it->second.second = std::max(it->second.second, vers);
  }
}

void SvcRegistry::unregister_program(std::uint32_t prog) {
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if (std::get<0>(it->first) == prog) {
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
  version_bounds_.erase(prog);
}

namespace {

bool write_reply_prefix(XdrMem& out, ReplyHeader& hdr) {
  return xdr_reply_header(out, hdr);
}

}  // namespace

bool SvcRegistry::dispatch(XdrStream& in, XdrMem& out) {
  ++stats_.requests;

  CallHeader call;
  if (!xdr_call_header(in, call)) {
    ++stats_.undecodable;
    return false;  // cannot even recover an XID: drop
  }

  ReplyHeader reply;
  reply.xid = call.xid;

  // RPC version gate.
  if (call.rpcvers != kRpcVersion) {
    reply.stat = ReplyStat::kDenied;
    reply.reject_stat = RejectStat::kRpcMismatch;
    reply.rpc_mismatch_low = kRpcVersion;
    reply.rpc_mismatch_high = kRpcVersion;
    ++stats_.protocol_errors;
    return write_reply_prefix(out, reply);
  }

  // Credential gate.
  if (auth_) {
    const AuthStat astat = auth_(call.cred);
    if (astat != AuthStat::kOk) {
      reply.stat = ReplyStat::kDenied;
      reply.reject_stat = RejectStat::kAuthError;
      reply.auth_stat = astat;
      ++stats_.protocol_errors;
      return write_reply_prefix(out, reply);
    }
  }

  // Program / version / procedure lookup.
  const auto bounds = version_bounds_.find(call.prog);
  if (bounds == version_bounds_.end()) {
    reply.accept_stat = AcceptStat::kProgUnavail;
    ++stats_.protocol_errors;
    return write_reply_prefix(out, reply);
  }
  const auto handler =
      handlers_.find(Key{call.prog, call.vers, call.proc});
  if (handler == handlers_.end()) {
    const bool vers_known =
        handlers_.lower_bound(Key{call.prog, call.vers, 0}) !=
            handlers_.end() &&
        std::get<0>(handlers_.lower_bound(Key{call.prog, call.vers, 0})
                        ->first) == call.prog &&
        std::get<1>(handlers_.lower_bound(Key{call.prog, call.vers, 0})
                        ->first) == call.vers;
    if (!vers_known) {
      reply.accept_stat = AcceptStat::kProgMismatch;
      reply.mismatch_low = bounds->second.first;
      reply.mismatch_high = bounds->second.second;
    } else {
      reply.accept_stat = AcceptStat::kProcUnavail;
    }
    ++stats_.protocol_errors;
    return write_reply_prefix(out, reply);
  }

  // Success path: write the accepted/success prefix, then let the
  // handler decode args and append results.  On handler failure, rewind
  // and replace with GARBAGE_ARGS (exactly svc_sendreply semantics).
  const std::size_t prefix_start = out.getpos();
  reply.accept_stat = AcceptStat::kSuccess;
  if (!write_reply_prefix(out, reply)) return false;
  if (!handler->second(in, out)) {
    if (!out.setpos(prefix_start)) return false;
    reply.accept_stat = AcceptStat::kGarbageArgs;
    ++stats_.protocol_errors;
    return write_reply_prefix(out, reply);
  }
  ++stats_.success;
  return true;
}

std::size_t SvcRegistry::handle_request(ByteSpan request,
                                        MutableByteSpan reply_out) {
  XdrMem in(request, XdrOp::kDecode);
  XdrMem out(reply_out, XdrOp::kEncode);
  if (!dispatch(in, out)) return 0;
  return out.getpos();
}

Bytes SvcRegistry::handle_datagram(ByteSpan request) {
  // Per-thread scratch so concurrent workers can serve datagrams
  // through one registry without sharing buffers.  Both scratches must
  // track the actual request size: callers may feed this path records
  // larger than any UDP datagram (up to kMaxRecordBytes), and a
  // fixed-size request buffer would be a remotely triggerable overflow
  // while a fixed-size reply buffer breaks any large echo-style reply.
  thread_local Bytes scratch_out;
  thread_local Bytes req;
  const std::size_t req_size =
      std::max<std::size_t>(kMinReplyBytes, request.size());
  const std::size_t out_size = reply_capacity(request.size());
  if (scratch_out.size() < out_size) scratch_out.resize(out_size);
  if (req.size() < req_size) req.resize(req_size);
  // The paper calls out the input-buffer bzero as part of the measured
  // round-trip cost; keep it on the generic path.
  if (clear_input_) std::memset(req.data(), 0, req.size());
  std::memcpy(req.data(), request.data(), request.size());

  const std::size_t n =
      handle_request(ByteSpan(req.data(), request.size()),
                     MutableByteSpan(scratch_out.data(), out_size));
  if (n == 0) return {};
  return Bytes(scratch_out.begin(),
               scratch_out.begin() + static_cast<std::ptrdiff_t>(n));
}

bool UdpServer::poll_once(int timeout_ms) {
  net::Addr peer;
  auto got = transport_.recv_from(
      &peer, MutableByteSpan(recv_buf_.data(), recv_buf_.size()), timeout_ms);
  if (!got.is_ok()) return false;
  Bytes reply =
      registry_.handle_datagram(ByteSpan(recv_buf_.data(), *got));
  if (!reply.empty()) {
    (void)transport_.send_to(peer, ByteSpan(reply.data(), reply.size()));
  }
  return true;
}

void UdpServer::serve(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    poll_once(20);
  }
}

void attach_sim_server(net::SimEndpoint* endpoint, SvcRegistry& registry) {
  endpoint->set_handler([endpoint, &registry](const net::Addr& src,
                                              ByteSpan payload) {
    Bytes reply = registry.handle_datagram(payload);
    if (!reply.empty()) {
      (void)endpoint->send_to(src, ByteSpan(reply.data(), reply.size()));
    }
  });
}

int TcpServer::serve_one_connection(const std::atomic<bool>& stop,
                                    int accept_timeout_ms) {
  auto conn = listener_.accept(accept_timeout_ms);
  if (!conn.is_ok()) return 0;
  net::TcpConn& c = **conn;

  int served = 0;
  XdrRec in(XdrOp::kDecode, nullptr, [&](MutableByteSpan buf) -> std::size_t {
    auto r = c.read_some(buf, 200);
    while (!r.is_ok() && r.status().code() == StatusCode::kTimeout &&
           !stop.load(std::memory_order_relaxed)) {
      r = c.read_some(buf, 200);
    }
    return r.is_ok() ? *r : 0;
  });

  // The xdrrec stream hides the request size until dispatch decodes it,
  // so provision the reply for the largest record any runtime accepts —
  // a fixed 65000-byte buffer breaks large echo-style replies.
  // Per-thread and persistent: the ~1 MB allocation+zero-fill happens
  // once per serving thread, not once per connection (one thread serves
  // one connection at a time, so sharing is safe).
  thread_local Bytes out_buf;
  if (out_buf.size() < kMaxStreamReplyBytes) {
    out_buf.resize(kMaxStreamReplyBytes);
  }
  while (!stop.load(std::memory_order_relaxed)) {
    XdrMem out(MutableByteSpan(out_buf.data(), out_buf.size()),
               XdrOp::kEncode);
    if (!registry_.dispatch(in, out)) break;  // peer closed or garbage
    if (!in.skip_record()) break;
    bool ok = true;
    XdrRec rec_out(XdrOp::kEncode,
                   [&](ByteSpan data) {
                     ok = c.write_all(data).is_ok();
                     return ok;
                   },
                   nullptr);
    if (!rec_out.putbytes(ByteSpan(out_buf.data(), out.getpos())) ||
        !rec_out.end_of_record() || !ok) {
      break;
    }
    ++served;
  }
  return served;
}

void TcpServer::serve(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    serve_one_connection(stop, 100);
  }
}

}  // namespace tempo::rpc
