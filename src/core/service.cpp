#include "core/service.h"

#include "common/trace.h"
#include "idl/interp.h"
#include "pe/layout.h"

namespace tempo::core {

using pe::ExecStatus;

namespace {

bool count_free(const idl::Type& t) {
  const auto c = pe::count_params(t);
  return c.is_ok() && *c == 0;
}

// The procedure's one interface, built from its types alone: empty
// counts leave a tail-array side open (class plans) and pin a
// count-free side (exact plans).  Null when the build fails or an open
// result side would have no argument count to take.
SpecHandle build_interface(SpecCache& cache, const idl::ProcDef& proc,
                           std::uint32_t prog, std::uint32_t vers) {
  auto iface = cache.get_or_build(proc, prog, vers, SpecConfig{});
  if (!iface.is_ok()) return nullptr;
  if ((*iface)->encode_results_plan().has_count() &&
      !(*iface)->decode_args_plan().has_count()) {
    return nullptr;
  }
  return *iface;
}

}  // namespace

CachedSpecService::CachedSpecService(SpecCache& cache, idl::ProcDef proc,
                                     std::uint32_t prog, std::uint32_t vers,
                                     DynamicWordHandler handler)
    : proc_(std::move(proc)),
      prog_(prog),
      vers_(vers),
      handler_(std::move(handler)),
      res_counted_(!count_free(*proc_.res_type)),
      iface_(build_interface(cache, proc_, prog, vers)) {
  // Tier attribution: every request lands in exactly one of jit / plan
  // / generic, so the three tier counters partition service.requests —
  // the acceptance test asserts the sum.  fast_path counts plans AND
  // jit (jit_fast_path is its subset), hence the subtraction.
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& snap) {
        const auto c = [](const std::atomic<std::int64_t>& v) {
          return v.load(std::memory_order_relaxed);
        };
        const std::int64_t fast = c(stats_.fast_path);
        const std::int64_t jit = c(stats_.jit_fast_path);
        snap.add_counter("service.fast_path", fast);
        snap.add_counter("service.generic_path", c(stats_.generic_path));
        snap.add_counter("service.plan_fallbacks", c(stats_.plan_fallbacks));
        snap.add_counter("service.jit_fast_path", jit);
        snap.add_counter("service.tier_jit", jit);
        snap.add_counter("service.tier_plan", fast - jit);
        snap.add_counter("service.tier_generic", c(stats_.generic_path));
      });
}

void CachedSpecService::install(rpc::SvcRegistry& registry) {
  registry.register_proc(prog_, vers_, proc_.number,
                         [this](xdr::XdrStream& in, xdr::XdrStream& out) {
                           return handle(in, out);
                         });
}

enum class CachedSpecService::PathResult : std::uint8_t {
  kServed,        // request fully handled through the plans
  kGuardMiss,     // shape mismatch; stream cursor advanced, rewind needed
  kStreamOpaque,  // stream cannot inline; cursor untouched
  kHandlerFault,  // application handler failed: GARBAGE_ARGS
};

namespace {

// Encodes `results` (of `res_counts` shape) through the interface's
// plan when it covers that count and the stream can inline the reply,
// generically otherwise.
bool encode_results(const SpecializedInterface& iface,
                    std::span<const std::uint32_t> res_counts,
                    std::span<const std::uint32_t> results,
                    xdr::XdrStream& out) {
  const pe::Plan& eplan = iface.encode_results_plan();
  const bool open = eplan.has_count();
  if (!open || (res_counts.size() == 1 && res_counts[0] <= eplan.count_cap)) {
    const std::uint32_t m = open ? res_counts[0] : 0;
    const auto len = static_cast<std::size_t>(eplan.out_size_at(m));
    if (std::uint8_t* out_bytes = out.inline_bytes(len)) {
      return iface.exec_encode_results(
                 results, MutableByteSpan(out_bytes, len), m) ==
             ExecStatus::kOk;
    }
  }
  auto value = pe::unflatten_value(iface.res_type(), res_counts, results);
  if (!value.is_ok()) return false;
  return idl::encode_value(out, iface.res_type(), *value);
}

}  // namespace

// One call through the interface's plans.  Stage marks are no-ops
// unless the runtime sampled this request (one thread_local null
// check), so the unsampled fast path pays nothing.
CachedSpecService::PathResult CachedSpecService::serve_fast(
    xdr::XdrStream& in, xdr::XdrStream& out) {
  const SpecializedInterface& h = *iface_;
  const pe::Plan& dplan = h.decode_args_plan();
  // A class plan sees the rest of the payload, so its length guard is
  // real; an exact plan claims exactly the length it expects.
  const std::size_t inlen =
      dplan.has_count() ? in.inline_remaining() : dplan.expected_in;
  std::uint8_t* in_bytes = dplan.expected_in ? in.inline_bytes(inlen) : nullptr;
  if (in_bytes == nullptr) return PathResult::kStreamOpaque;
  const ByteSpan payload(in_bytes, inlen);
  // The wire count sizes a class plan's slots; the decode rechecks it
  // against the cap and the payload length.
  const std::uint32_t n =
      dplan.has_count() ? pe::peek_count(dplan, payload) : 0;
  if (n > dplan.count_cap) return PathResult::kGuardMiss;
  std::vector<std::uint32_t> args(static_cast<std::size_t>(h.arg_slots(n)));
  if (h.exec_decode_args(payload, args) != ExecStatus::kOk) {
    return PathResult::kGuardMiss;  // count/length guard rejected shape
  }
  common::trace_mark(common::TraceStage::kDecode);

  const std::span<const std::uint32_t> arg_counts =
      dplan.has_count() ? std::span<const std::uint32_t>(&n, 1)
                        : std::span<const std::uint32_t>();
  // An open result side takes its count from the arguments' (the
  // constructor kept the interface only if the arguments have one).
  const bool open_res = h.encode_results_plan().has_count();
  const std::span<const std::uint32_t> res_counts =
      open_res ? arg_counts : std::span<const std::uint32_t>();
  std::vector<std::uint32_t> results(static_cast<std::size_t>(h.res_slots(n)));
  if (!handler_(arg_counts, args, results)) return PathResult::kHandlerFault;
  common::trace_mark(common::TraceStage::kExecute);
  if (!encode_results(h, res_counts, results, out)) {
    return PathResult::kHandlerFault;
  }
  common::trace_mark(common::TraceStage::kEncode);
  return PathResult::kServed;
}

bool CachedSpecService::handle(xdr::XdrStream& in, xdr::XdrStream& out) {
  if (iface_) {
    const std::size_t pos = in.getpos();
    common::trace_mark(common::TraceStage::kCacheLookup);
    switch (serve_fast(in, out)) {
      case PathResult::kServed:
        stats_.fast_path.fetch_add(1, std::memory_order_relaxed);
        common::trace_set_tier(iface_->jit_active()
                                   ? common::TraceTier::kJit
                                   : common::TraceTier::kPlan);
        if (iface_->jit_active()) {
          stats_.jit_fast_path.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      case PathResult::kHandlerFault:
        return false;
      case PathResult::kGuardMiss:
        stats_.plan_fallbacks.fetch_add(1, std::memory_order_relaxed);
        if (!in.setpos(pos)) return false;  // cannot rewind: drop request
        break;
      case PathResult::kStreamOpaque:
        break;
    }
  }
  return serve_generic(in, out);
}

// Generic path: interpret the value, run the handler on its flattened
// words, and encode the reply through the interface when it covers the
// count.
bool CachedSpecService::serve_generic(xdr::XdrStream& in,
                                      xdr::XdrStream& out) {
  stats_.generic_path.fetch_add(1, std::memory_order_relaxed);
  common::trace_set_tier(common::TraceTier::kGeneric);
  idl::Value value;
  if (!idl::decode_value(in, *proc_.arg_type, value)) return false;
  std::vector<std::uint32_t> counts;
  if (!pe::collect_counts(*proc_.arg_type, value, counts).is_ok()) {
    return false;
  }
  pe::Slots args;
  if (!pe::flatten_value(*proc_.arg_type, value, counts, args).is_ok()) {
    return false;
  }
  common::trace_mark(common::TraceStage::kDecode);

  const std::span<const std::uint32_t> res_counts =
      res_counted_ ? std::span<const std::uint32_t>(counts)
                   : std::span<const std::uint32_t>();
  auto res_slots = pe::type_slots(*proc_.res_type, res_counts);
  if (!res_slots.is_ok() || *res_slots < 0) return false;
  std::vector<std::uint32_t> results(static_cast<std::size_t>(*res_slots));
  if (!handler_(counts, args, results)) return false;
  common::trace_mark(common::TraceStage::kExecute);

  bool ok = false;
  if (iface_) {
    ok = encode_results(*iface_, res_counts, results, out);
  } else {
    auto rvalue = pe::unflatten_value(*proc_.res_type, res_counts, results);
    ok = rvalue.is_ok() && idl::encode_value(out, *proc_.res_type, *rvalue);
  }
  common::trace_mark(common::TraceStage::kEncode);
  return ok;
}

}  // namespace tempo::core
