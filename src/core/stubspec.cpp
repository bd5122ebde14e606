#include "core/stubspec.h"

#include <algorithm>

#include "pe/verify.h"

namespace tempo::core {

namespace {

std::map<std::string, std::int64_t> count_bindings(
    const char* prefix, const std::vector<std::uint32_t>& counts) {
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out[prefix + std::to_string(i)] = counts[i];
  }
  return out;
}

// One side of the interface: its type, pinned counts, and whether the
// counts are left open.
struct Side {
  const idl::Type& type;
  const std::vector<std::uint32_t>& counts;
  const char* prefix;  // count parameter names in the corpus
  const char* what;
  bool open = false;
};

// Checks a side's counts against the corpus; an open side must have a
// tail array for its class plans.
Status check_side(Side& side, std::uint32_t needed) {
  side.open = side.counts.empty() && needed == 1;
  if (side.open) {
    if (pe::tail_array(side.type) == nullptr) {
      return invalid_argument(std::string("no class plan for the ") +
                              side.what +
                              ": its variable array does not end the "
                              "message");
    }
    return Status::ok();
  }
  if (needed != side.counts.size()) {
    return invalid_argument("interface needs " + std::to_string(needed) +
                            " pinned " + side.what + " counts, got " +
                            std::to_string(side.counts.size()));
  }
  return Status::ok();
}

// Slot count of a side at count 0 (or its pinned size) and per element.
Status side_slots(const Side& side, std::int64_t* base, std::int64_t* slope) {
  if (!side.open) {
    TEMPO_ASSIGN_OR_RETURN(n, pe::type_slots(side.type, side.counts));
    *base = n;
    *slope = 0;
    return Status::ok();
  }
  const std::uint32_t zero = 0, one = 1;
  TEMPO_ASSIGN_OR_RETURN(at0, pe::type_slots(side.type, {&zero, 1}));
  TEMPO_ASSIGN_OR_RETURN(at1, pe::type_slots(side.type, {&one, 1}));
  *base = at0;
  *slope = at1 - at0;
  return Status::ok();
}

// One entry point: exact at a pinned side's counts, or on an open side
// the class plan generalized from two samples at unroll_factor 1.
Result<pe::Plan> specialize_entry(const pe::InterfaceCorpus& corpus,
                                  const std::string& entry, pe::SpecInput in,
                                  const Side& side) {
  if (!side.open) {
    in.static_scalars = count_bindings(side.prefix, side.counts);
    return pe::specialize(corpus.program, entry, in);
  }
  in.options.unroll_factor = 1;
  in.static_scalars = count_bindings(side.prefix, {pe::kClassSampleLo});
  TEMPO_ASSIGN_OR_RETURN(lo, pe::specialize(corpus.program, entry, in));
  in.static_scalars = count_bindings(side.prefix, {pe::kClassSampleHi});
  TEMPO_ASSIGN_OR_RETURN(hi, pe::specialize(corpus.program, entry, in));
  return pe::generalize_count(lo, hi);
}

// An open side's cap: the IDL bound, or the largest count whose message
// still fits the encode buffer when that is smaller.
std::uint32_t class_cap(const idl::Type& type, const pe::Plan& encode,
                        std::uint32_t buffer_bytes) {
  const std::uint32_t bound = pe::tail_array(type)->bound;
  if (encode.out_size > buffer_bytes) return 0;
  return std::min<std::uint32_t>(
      bound, (buffer_bytes - encode.out_size) / encode.out_slope);
}

}  // namespace

Result<SpecializedInterface> SpecializedInterface::build(
    const idl::ProcDef& proc, std::uint32_t prog, std::uint32_t vers,
    SpecConfig config) {
  SpecializedInterface out;
  out.config_ = config;

  TEMPO_ASSIGN_OR_RETURN(corpus,
                         pe::build_interface_corpus(proc, prog, vers));
  Side args{*proc.arg_type, config.arg_counts, "cnt", "argument"};
  Side res{*proc.res_type, config.res_counts, "rcnt", "result"};
  TEMPO_RETURN_IF_ERROR(check_side(args, corpus.arg_counts));
  TEMPO_RETURN_IF_ERROR(check_side(res, corpus.res_counts));
  TEMPO_RETURN_IF_ERROR(side_slots(args, &out.arg_slots_, &out.arg_slope_));
  TEMPO_RETURN_IF_ERROR(side_slots(res, &out.res_slots_, &out.res_slope_));

  pe::SpecInput base;
  base.options.unroll_factor = config.unroll_factor;
  // Client encode: x_op=ENCODE, full buffer capacity, xid dynamic.
  {
    pe::SpecInput in = base;
    in.ref_params = {{"argsp", 0}};
    in.dynamic_scalars = {pe::kXidVar};
    in.xdrs = {/*x_op=*/0, /*x_handy=*/config.buffer_bytes, 0};
    TEMPO_ASSIGN_OR_RETURN(
        plan, specialize_entry(corpus, corpus.encode_call, in, args));
    out.encode_call_ = std::move(plan);
  }
  // Client reply decode: x_op=DECODE, handy armed by the inlen guard.
  {
    pe::SpecInput in = base;
    in.ref_params = {{"resp", 0}};
    in.dynamic_scalars = {pe::kXidVar, pe::kInlenVar};
    in.xdrs = {/*x_op=*/1, /*x_handy=*/0, 0};
    TEMPO_ASSIGN_OR_RETURN(
        plan, specialize_entry(corpus, corpus.decode_reply, in, res));
    out.decode_reply_ = std::move(plan);
  }
  // Server args decode.
  {
    pe::SpecInput in = base;
    in.ref_params = {{"argsp", 0}};
    in.dynamic_scalars = {pe::kInlenVar};
    in.xdrs = {/*x_op=*/1, /*x_handy=*/0, 0};
    TEMPO_ASSIGN_OR_RETURN(
        plan, specialize_entry(corpus, corpus.decode_args, in, args));
    out.decode_args_ = std::move(plan);
  }
  // Server results encode.
  {
    pe::SpecInput in = base;
    in.ref_params = {{"resp", 0}};
    in.dynamic_scalars = {};
    in.xdrs = {/*x_op=*/0, /*x_handy=*/config.buffer_bytes, 0};
    TEMPO_ASSIGN_OR_RETURN(
        plan, specialize_entry(corpus, corpus.encode_results, in, res));
    out.encode_results_ = std::move(plan);
  }
  if (args.open) {
    out.encode_call_.count_cap = out.decode_args_.count_cap =
        class_cap(args.type, out.encode_call_, config.buffer_bytes);
  }
  if (res.open) {
    out.encode_results_.count_cap = out.decode_reply_.count_cap =
        class_cap(res.type, out.encode_results_, config.buffer_bytes);
  }
  // Admission pass (TEMPO_PLAN_VERIFY, always-on in debug): every plan
  // is statically verified against its declared contract before it — or
  // a stub compiled from it — can ever run.  A rejection fails the
  // whole build with the verifier's diagnostics (remembered by
  // SpecCache like any other ineligible type); callers keep the
  // generic path, which is exactly the guarded-specialization contract.
  TEMPO_RETURN_IF_ERROR(pe::verify_admit(out.encode_call_, "encode_call"));
  TEMPO_RETURN_IF_ERROR(pe::verify_admit(out.decode_reply_, "decode_reply"));
  TEMPO_RETURN_IF_ERROR(pe::verify_admit(out.decode_args_, "decode_args"));
  TEMPO_RETURN_IF_ERROR(
      pe::verify_admit(out.encode_results_, "encode_results"));

  // Third tier: lower each plan to a native stub.  Strictly
  // best-effort — any null (unsupported host, W^X failure, plan outside
  // the compilable subset) leaves that entry point on the plan executor.
  if (config.enable_jit && pe::jit_enabled_by_env() &&
      pe::jit_supported_host()) {
    out.encode_call_jit_ = pe::CompiledPlan::compile(out.encode_call_);
    out.decode_reply_jit_ = pe::CompiledPlan::compile(out.decode_reply_);
    out.decode_args_jit_ = pe::CompiledPlan::compile(out.decode_args_);
    out.encode_results_jit_ = pe::CompiledPlan::compile(out.encode_results_);
  }

  out.corpus_ = std::move(corpus);
  return out;
}

pe::ExecStatus SpecializedInterface::exec_encode_call(
    std::span<const std::uint32_t> words, std::uint32_t xid,
    MutableByteSpan out, std::uint32_t count) const {
  if (encode_call_jit_) {
    return encode_call_jit_->run_encode(words, xid, out, count);
  }
  return pe::run_plan_encode(encode_call_, words, xid, out, nullptr, count);
}

pe::ExecStatus SpecializedInterface::exec_decode_reply(
    ByteSpan in, std::uint32_t xid, std::span<std::uint32_t> words) const {
  if (decode_reply_jit_) return decode_reply_jit_->run_decode(in, xid, words);
  return pe::run_plan_decode(decode_reply_, in, xid, words, nullptr);
}

pe::ExecStatus SpecializedInterface::exec_decode_args(
    ByteSpan in, std::span<std::uint32_t> words) const {
  if (decode_args_jit_) {
    return decode_args_jit_->run_decode(in, /*xid=*/0, words);
  }
  return pe::run_plan_decode(decode_args_, in, /*xid=*/0, words, nullptr);
}

pe::ExecStatus SpecializedInterface::exec_encode_results(
    std::span<const std::uint32_t> words, MutableByteSpan out,
    std::uint32_t count) const {
  if (encode_results_jit_) {
    return encode_results_jit_->run_encode(words, /*xid=*/0, out, count);
  }
  return pe::run_plan_encode(encode_results_, words, /*xid=*/0, out, nullptr,
                             count);
}

int SpecializedInterface::jit_stub_count() const {
  return (encode_call_jit_ ? 1 : 0) + (decode_reply_jit_ ? 1 : 0) +
         (decode_args_jit_ ? 1 : 0) + (encode_results_jit_ ? 1 : 0);
}

std::size_t SpecializedInterface::packed_code_bytes() const {
  return encode_call_.packed_code_bytes() +
         decode_reply_.packed_code_bytes() + decode_args_.packed_code_bytes() +
         encode_results_.packed_code_bytes();
}

std::size_t SpecializedInterface::compiled_code_bytes() const {
  std::size_t total = 0;
  for (const auto* jit : {encode_call_jit_.get(), decode_reply_jit_.get(),
                          decode_args_jit_.get(), encode_results_jit_.get()}) {
    if (jit != nullptr) total += jit->code_size();
  }
  return total;
}

Result<std::string> SpecializedInterface::annotated_encode_listing() const {
  pe::BtaDivision division;
  division.dynamic_params = {pe::kXidVar};
  division.ref_params = {"argsp"};
  division.known_fields = {{"x_op", 0}};  // the encode context
  TEMPO_ASSIGN_OR_RETURN(
      bta, pe::analyze_binding_times(corpus_.program, corpus_.encode_call,
                                     division));
  return pe::annotated_to_string(bta);
}

std::size_t SpecializedInterface::specialized_code_bytes() const {
  return encode_call_.code_bytes() + decode_reply_.code_bytes() +
         decode_args_.code_bytes() + encode_results_.code_bytes();
}

std::size_t SpecializedInterface::generic_code_bytes() const {
  return pe::ir_code_size(corpus_.program);
}

}  // namespace tempo::core
