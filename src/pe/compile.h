// Native compilation of residual plans — the paper's actual endgame.
//
// Tempo emitted specialized C that gcc compiled to machine code; our
// residual plans were, until now, walked by the plan executor
// (run_plan_encode / run_plan_decode).  This backend closes that gap
// with a template/copy-JIT: a Plan is lowered to a straight-line native
// marshal function in which
//
//   * runs of consecutive fixed-offset kPutConst are baked into a
//     constant "template" image of the output message and become one
//     memcpy from the template (the RPC call header — XID excepted —
//     collapses to a single 36-byte copy),
//   * adjacent kPutBytes / kGetBytes bulk moves fuse into single
//     larger copies,
//   * kPutWord / kGetWord specialize into load+bswap+store sequences,
//   * kLoop bodies below the unroll threshold are expanded (and the
//     expansion re-fused, so a loop of word-regular copies becomes a
//     handful of big moves), larger loops keep a two-register
//     displacement loop,
//   * a class plan's count loop takes its trip count from an argument
//     register, is skipped at count 0, and runs its body unrolled
//     k-wide (k picked from the body size) with a remainder loop,
//   * guards become early-exit compare+branch sequences returning the
//     same ExecStatus codes as the executor.
//
// Safety model:
//   * W^X pages — code is written into PROT_READ|PROT_WRITE pages and
//     flipped to PROT_READ|PROT_EXEC before first use; the mapping is
//     never writable and executable at once.  If mmap or mprotect
//     fails (hardened kernels, seccomp), compile() returns null and
//     callers keep the plan executor.
//   * Host gating — the one emitter targets x86-64 (SysV); any other
//     host gets null (plan-executor fallback).
//   * Knob — the TEMPO_PLAN_JIT environment variable ("0", "off",
//     "false", "no" disable) gates the tier process-wide; SpecConfig
//     carries a per-build override for tests.
//   * Identical contract — a compiled stub is byte-for-byte and
//     status-for-status identical to the plan executor, including the
//     capacity prechecks and guard-failure paths; tests/test_plan_diff
//     enforces this differentially.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "pe/plan.h"

namespace tempo::pe {

// Loops whose full expansion stays at or below this many plan ops are
// unrolled at compile time (the JIT-side analog of the Table 4 unroll
// policy); larger loops keep a native counter loop.  A count loop is
// never expanded: its trip count is a run-time input.
inline constexpr std::uint32_t kJitFullUnrollOps = 256;

// A count loop's native body repeats the plan body k times per trip, k
// chosen so the unrolled body holds about this many plan ops.
inline constexpr std::uint32_t kJitCountLoopOps = 16;

// True when this process runs on a host the JIT can target.
bool jit_supported_host();

// The TEMPO_PLAN_JIT knob (default on).  Read once per process.
bool jit_enabled_by_env();

class CompiledPlan {
 public:
  // Lowers `plan` to native code.  Returns null — callers then keep the
  // plan executor — when the host is unsupported, the knob is off at
  // the call site, executable memory is unavailable, or the plan falls
  // outside the compilable subset (malformed direction-mixed streams,
  // nested loops, offsets beyond the 2 GiB displacement range).
  static std::unique_ptr<CompiledPlan> compile(const Plan& plan);

  ~CompiledPlan();
  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  bool is_encode() const { return contract_.is_encode; }

  // Same contract and same failure codes as run_plan_encode: `out`
  // needs plan.out_size_at(count) bytes and `words`
  // plan.words_needed_at(count) slots.
  ExecStatus run_encode(std::span<const std::uint32_t> words,
                        std::uint32_t xid, MutableByteSpan out,
                        std::uint32_t count = 0) const;

  // Same contract as run_plan_decode.
  ExecStatus run_decode(ByteSpan in, std::uint32_t xid,
                        std::span<std::uint32_t> words) const;

  // Native code bytes emitted (the compiled analog of the Table 3
  // specialized-object-size column).
  std::size_t code_size() const { return code_size_; }
  // Baked constant-template bytes shipped alongside the code.
  std::size_t template_size() const { return tmpl_.size(); }

 private:
  CompiledPlan() = default;

  struct ExecMem;

  std::unique_ptr<ExecMem> mem_;
  std::vector<std::uint8_t> tmpl_;  // encode-side constant image
  Plan contract_;  // the plan's declared sizes and count; no instrs
  std::size_t code_size_ = 0;
};

// ---- exposed for unit tests (byte-level checks) ------------------------

namespace jit_internal {

// Lowered + fused op stream; see compile.cpp for the op vocabulary.
struct FusedOp {
  enum class K : std::uint8_t {
    kCopyTmpl,      // out[off..off+b) = tmpl[off..off+b)
    kStoreWord,     // store_be32(out+off, words[a/4])
    kStoreXid,      // store_be32(out+off, xid)
    kCopyArgBytes,  // memcpy(out+off, wordbytes+a, b) + zero pad4 tail
    kLoadWord,      // words[a/4] = load_be32(in+off)
    kSetWord,       // words[a/4] = imm
    kCopyResBytes,  // memcpy(wordbytes+a, in+off, b) + zero pad4 tail
    kGuardEq,       // load_be32(in+off) == imm  else kFallback
    kGuardXid,      // load_be32(in+off) == xid  else kRetryXid
    kGuardBool,     // load_be32(in+off) <= 1    else kFallback
    kGuardLen,      // inlen == imm              else kFallback
    kLoopBegin,     // a = iterations (kCountTrip: the count argument),
                    // b = a count loop's unroll width,
                    // imm = packed strides
    kLoopEnd,
  };
  K k = K::kCopyTmpl;
  std::uint32_t off = 0;  // buffer byte offset
  std::uint32_t a = 0;    // word-slot BYTE offset / loop iterations
  std::uint32_t b = 0;    // byte length
  std::uint64_t imm = 0;  // constant / guard value / packed strides
};

struct FusedProgram {
  bool is_encode = true;
  bool has_count = false;  // the stub takes the count as its 5th argument
  std::vector<FusedOp> ops;
  std::vector<std::uint8_t> tmpl;
  std::uint32_t out_size = 0;
  std::uint32_t expected_in = 0;
  std::uint32_t words_needed = 0;
};

// Plan -> fused ops; false when the plan is outside the compilable
// subset (the caller then keeps the plan executor).  Every plan is
// first run through verify_plan (pe/verify.h) — memory-safety refusals
// are the verifier's diagnostics, shared with the admission pass — and
// only jit-specific limits (disp32 displacement range, template bake
// conflicts) are checked here.  `why`, when non-null, receives the
// refusal reason.
bool fuse_plan(const Plan& plan, FusedProgram* out, std::string* why = nullptr);

// Fused ops -> x86-64 code bytes (pure byte generation, runnable on any
// build host; execution requires an x86-64 CPU).
std::vector<std::uint8_t> emit_x86_64(const FusedProgram& prog);

}  // namespace jit_internal

}  // namespace tempo::pe
