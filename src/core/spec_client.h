// SpecializedClient — the optimized clntudp_call.
//
// Per call it: patches the XID and runs the residual encode plan
// (straight-line stores, no dispatch, no per-item overflow checks), sends
// the datagram, and runs the residual decode plan on the reply.  One
// code path runs both kinds of interface: a pinned side's exact plans
// and an open side's class plans, whose count comes from the size of
// the span the caller passes.  Guard misses degrade gracefully (guarded
// specialization, paper §6.2):
//   * XID guard miss  -> stale datagram, keep waiting,
//   * length or header guard miss -> decode the reply through the
//     *generic* layered path instead, so unexpected-but-legal replies
//     (PROG_MISMATCH, AUTH_ERROR, ...) are still understood and turned
//     into the right Status.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "core/stubspec.h"
#include "net/transport.h"
#include "rpc/client.h"

namespace tempo::core {

struct SpecClientStats {
  std::int64_t calls = 0;
  std::int64_t retransmissions = 0;
  std::int64_t stale_replies = 0;
  std::int64_t generic_fallbacks = 0;  // decode guard misses
};

class SpecializedClient {
 public:
  SpecializedClient(net::DatagramTransport& transport, net::Addr server,
                    const SpecializedInterface& iface,
                    rpc::CallOptions opts = {});

  // One remote call on flattened words.  On a pinned side the span
  // holds exactly iface.arg_slots() (iface.res_slots()) words.  On an
  // open side its size names the count: `args` holds arg_slots(n) words
  // for n elements, and a size that is no whole count up to the plan's
  // count_cap returns kInvalidArgument without sending.  The reply must
  // fill `results` exactly; one of any other count is a shape mismatch
  // and returns an error.
  Status call(std::span<const std::uint32_t> args,
              std::span<std::uint32_t> results);

  const SpecClientStats& stats() const { return stats_; }

 private:
  Status decode_generic(ByteSpan payload, std::span<std::uint32_t> results,
                        bool* stale);

  net::DatagramTransport& transport_;
  net::Addr server_;
  const SpecializedInterface& iface_;
  rpc::CallOptions opts_;
  std::uint32_t xid_;
  SpecClientStats stats_;
  Bytes send_buf_;
  Bytes recv_buf_;
};

}  // namespace tempo::core
