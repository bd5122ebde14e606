// SpecializedInterface: the user-facing product of the pipeline —
// "rpcgen, then Tempo" in one object.
//
// Construction runs the whole toolchain for one (program, version,
// procedure):
//   1. build the generic micro-layer stubs in IR (pe/corpus),
//   2. partially evaluate all four entry points under the static inputs
//      (pe/specializer) into residual plans,
//   3. keep the generic IR around for the annotated view and as the
//      reference/fallback semantics.
//
// Each side (arguments: encode_call + decode_args; results:
// decode_reply + encode_results) is either pinned or open.  A pinned
// side has its array counts fixed in SpecConfig and gets exact plans:
// one such interface is one row of the paper's Table 3, a specialized
// client for one array size.  An open side — counts left empty on a
// type whose one variable array ends the message (pe::tail_array) —
// gets class plans that serve every count up to a cap derived from the
// types, the count being a run-time input of the exec_* calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "idl/types.h"
#include "pe/bta.h"
#include "pe/compile.h"
#include "pe/corpus.h"
#include "pe/layout.h"
#include "pe/plan.h"
#include "pe/specializer.h"

namespace tempo::core {

struct SpecConfig {
  // Pinned var-array counts, preorder.  Empty on a side that has one
  // variable array leaves that side open (class plans).
  std::vector<std::uint32_t> arg_counts;
  std::vector<std::uint32_t> res_counts;
  std::uint32_t unroll_factor = 0;        // 0 = full unroll (paper default)
  std::uint32_t buffer_bytes = 65000;     // encode capacity (static input)
  // Third execution tier: lower the residual plans to native stubs
  // (pe::CompiledPlan).  The effective setting is this flag AND the
  // process-wide TEMPO_PLAN_JIT env knob AND host support; it is
  // deliberately NOT part of the SpecCache key — the tier changes how a
  // plan runs, never what it produces.
  bool enable_jit = true;
};

class SpecializedInterface {
 public:
  // Fails if the interface is not plan-eligible; callers keep the
  // generic path then (guarded specialization).
  static Result<SpecializedInterface> build(const idl::ProcDef& proc,
                                            std::uint32_t prog,
                                            std::uint32_t vers,
                                            SpecConfig config);

  const pe::Plan& encode_call_plan() const { return encode_call_; }
  const pe::Plan& decode_reply_plan() const { return decode_reply_; }
  const pe::Plan& decode_args_plan() const { return decode_args_; }
  const pe::Plan& encode_results_plan() const { return encode_results_; }

  // Compiled tier (null when the JIT is off, unsupported, or the plan
  // was not compilable — the exec_* helpers below then use the plan
  // executor, which is always correct).
  const pe::CompiledPlan* encode_call_jit() const {
    return encode_call_jit_.get();
  }
  const pe::CompiledPlan* decode_reply_jit() const {
    return decode_reply_jit_.get();
  }
  const pe::CompiledPlan* decode_args_jit() const {
    return decode_args_jit_.get();
  }
  const pe::CompiledPlan* encode_results_jit() const {
    return encode_results_jit_.get();
  }

  // Tier-aware execution: the compiled stub when present, the plan
  // executor otherwise.  Byte- and status-identical either way (the
  // differential suite enforces this), so callers never branch on tier.
  // `count` is an open side's element count (0 on a pinned side); the
  // decode side reads it from the wire (pe::peek_count sizes `words`).
  pe::ExecStatus exec_encode_call(std::span<const std::uint32_t> words,
                                  std::uint32_t xid, MutableByteSpan out,
                                  std::uint32_t count = 0) const;
  pe::ExecStatus exec_decode_reply(ByteSpan in, std::uint32_t xid,
                                   std::span<std::uint32_t> words) const;
  pe::ExecStatus exec_decode_args(ByteSpan in,
                                  std::span<std::uint32_t> words) const;
  pe::ExecStatus exec_encode_results(std::span<const std::uint32_t> words,
                                     MutableByteSpan out,
                                     std::uint32_t count = 0) const;

  // Number of entry points running on the compiled tier (0..4).
  int jit_stub_count() const;
  bool jit_active() const { return jit_stub_count() > 0; }

  const pe::InterfaceCorpus& corpus() const { return corpus_; }
  const SpecConfig& config() const { return config_; }
  const idl::Type& arg_type() const { return *corpus_.arg_type; }
  const idl::Type& res_type() const { return *corpus_.res_type; }

  // Word slots of one side's value: the pinned size, or on an open
  // side the size at `count` elements.
  std::int64_t arg_slots(std::uint32_t count = 0) const {
    return arg_slots_ + arg_slope_ * count;
  }
  std::int64_t res_slots(std::uint32_t count = 0) const {
    return res_slots_ + res_slope_ * count;
  }

  // Tempo-style annotated listing of the generic encode path under this
  // interface's binding-time division (§6.1 visualization).
  Result<std::string> annotated_encode_listing() const;

  // Total residual code bytes across the four plans (Table 3 analog).
  std::size_t specialized_code_bytes() const;
  // Same, under the compact serialized encoding (no struct padding) —
  // the honest Table 3 number.
  std::size_t packed_code_bytes() const;
  // Native bytes across the compiled stubs (0 when the JIT is off).
  std::size_t compiled_code_bytes() const;
  // Generic code-model size (constant across array sizes, like the
  // original 20004-byte client objects).
  std::size_t generic_code_bytes() const;

 private:
  SpecializedInterface() = default;

  pe::InterfaceCorpus corpus_;
  SpecConfig config_;
  pe::Plan encode_call_, decode_reply_, decode_args_, encode_results_;
  // shared_ptr so SpecializedInterface stays copyable; the stubs are
  // immutable after build.
  std::shared_ptr<const pe::CompiledPlan> encode_call_jit_, decode_reply_jit_,
      decode_args_jit_, encode_results_jit_;
  std::int64_t arg_slots_ = 0, res_slots_ = 0;
  std::int64_t arg_slope_ = 0, res_slope_ = 0;  // per element, open sides
};

}  // namespace tempo::core
