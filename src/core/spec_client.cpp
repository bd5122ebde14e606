#include "core/spec_client.h"

#include <chrono>

#include "idl/interp.h"
#include "pe/layout.h"
#include "rpc/rpc_msg.h"
#include "xdr/xdrmem.h"

namespace tempo::core {

using pe::ExecStatus;

namespace {

// The count an open side's span of `words` holds (the side has
// base + slope * count slots), or pe::kNoCount when `words` is not a
// whole count within `cap`.
std::uint32_t count_of(std::size_t words, std::int64_t base,
                       std::int64_t slope, std::uint32_t cap) {
  const auto extra = static_cast<std::int64_t>(words) - base;
  if (extra < 0 || extra % slope != 0 || extra / slope > cap) {
    return pe::kNoCount;
  }
  return static_cast<std::uint32_t>(extra / slope);
}

}  // namespace

SpecializedClient::SpecializedClient(net::DatagramTransport& transport,
                                     net::Addr server,
                                     const SpecializedInterface& iface,
                                     rpc::CallOptions opts)
    : transport_(transport),
      server_(server),
      iface_(iface),
      opts_(opts),
      send_buf_(iface.encode_call_plan().out_size_at(
          iface.encode_call_plan().count_cap)),
      recv_buf_(rpc::kMaxUdpMessage) {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  xid_ = static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t).count());
}

Status SpecializedClient::decode_generic(ByteSpan payload,
                                         std::span<std::uint32_t> results,
                                         bool* stale) {
  // The generic layered reply path: parse the header with the stock
  // codecs, then decode the result body via the type interpreter.
  *stale = false;
  Bytes copy(payload.begin(), payload.end());
  xdr::XdrMem in(MutableByteSpan(copy.data(), copy.size()),
                 xdr::XdrOp::kDecode);
  rpc::ReplyHeader reply;
  if (!rpc::xdr_reply_header(in, reply)) {
    return parse_error("garbled reply");
  }
  if (reply.xid != xid_) {
    *stale = true;  // late reply to an earlier call: keep waiting
    return Status::ok();
  }
  TEMPO_RETURN_IF_ERROR(rpc::reply_header_to_status(reply));
  idl::Value value;
  if (!idl::decode_value(in, iface_.res_type(), value)) {
    return parse_error("cannot decode results");
  }
  // An open side flattens at the reply's own count; a pinned side at
  // its pinned counts, which a reply of another shape fails.
  std::vector<std::uint32_t> counts = iface_.config().res_counts;
  if (iface_.decode_reply_plan().has_count()) {
    counts.clear();
    TEMPO_RETURN_IF_ERROR(
        pe::collect_counts(iface_.res_type(), value, counts));
  }
  pe::Slots slots;
  TEMPO_RETURN_IF_ERROR(
      pe::flatten_value(iface_.res_type(), value, counts, slots));
  // Exact fill: a shorter reply would leave stale words behind a
  // success status.
  if (slots.size() != results.size()) {
    return out_of_range("reply does not fill the result block");
  }
  std::copy(slots.begin(), slots.end(), results.begin());
  return Status::ok();
}

Status SpecializedClient::call(std::span<const std::uint32_t> args,
                               std::span<std::uint32_t> results) {
  const pe::Plan& eplan = iface_.encode_call_plan();
  const pe::Plan& dplan = iface_.decode_reply_plan();
  std::uint32_t count = 0;
  if (eplan.has_count()) {
    count = count_of(args.size(), iface_.arg_slots(0),
                     iface_.arg_slots(1) - iface_.arg_slots(0),
                     eplan.count_cap);
    if (count == pe::kNoCount) {
      return invalid_argument("argument words are not a whole count up to "
                              "the cap");
    }
  }
  ++stats_.calls;
  ++xid_;

  // ---- residual encode (paper Fig. 5 equivalent), compiled tier when
  // available ----
  const ByteSpan request(send_buf_.data(), eplan.out_size_at(count));
  if (iface_.exec_encode_call(
          args, xid_, MutableByteSpan(send_buf_.data(), request.size()),
          count) != ExecStatus::kOk) {
    return internal_error("encode plan rejected inputs");
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.total_timeout_ms);
  TEMPO_RETURN_IF_ERROR(transport_.send_to(server_, request));

  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0) return timeout_error("RPC call timed out");
    const int wait_ms = static_cast<int>(
        remaining < opts_.retry_timeout_ms ? remaining
                                           : opts_.retry_timeout_ms);

    auto got = transport_.recv_from(
        nullptr, MutableByteSpan(recv_buf_.data(), recv_buf_.size()),
        wait_ms);
    if (!got.is_ok()) {
      if (got.status().code() == StatusCode::kTimeout) {
        ++stats_.retransmissions;
        TEMPO_RETURN_IF_ERROR(transport_.send_to(server_, request));
        continue;
      }
      return got.status();
    }

    // ---- residual decode with guarded fallback ----
    // The reply must fill `results` exactly: one of another count is a
    // shape mismatch for the generic decoder, as a pinned side's length
    // guard makes it.
    const ByteSpan payload(recv_buf_.data(), *got);
    const std::uint32_t reply_count =
        dplan.has_count() ? pe::peek_count(dplan, payload) : 0;
    const bool fills =
        reply_count != pe::kNoCount &&
        iface_.res_slots(reply_count) ==
            static_cast<std::int64_t>(results.size());
    switch (fills ? iface_.exec_decode_reply(payload, xid_, results)
                  : ExecStatus::kFallback) {
      case ExecStatus::kOk:
        return Status::ok();
      case ExecStatus::kRetryXid:
        ++stats_.stale_replies;
        continue;
      case ExecStatus::kFallback: {
        ++stats_.generic_fallbacks;
        bool stale = false;
        Status st = decode_generic(payload, results, &stale);
        if (stale) {
          ++stats_.stale_replies;
          continue;
        }
        return st;
      }
    }
  }
}

}  // namespace tempo::core
