// Static verification of residual plans — the admission pass that turns
// the executor/JIT safety story from "tested" into "checked".
//
// A Plan is a tiny straight-line/loop program over two buffers (`in` or
// `out`) and a word-slot array, with every offset, length and stride
// folded in at specialization time.  That makes its memory behavior
// statically decidable: an abstract interpreter can compute the EXACT
// byte ranges and slot ranges every op will touch — including kLoop
// bodies across all iterations, in closed form from the packed strides,
// never by expanding iterations — and check them against the plan's
// declared contract (out_size / expected_in / words_needed) before the
// plan or its compiled stub ever runs.
//
// The verifier proves, for an admitted plan:
//   * direction consistency — an encode plan contains only encode ops,
//     a decode plan only decode/guard ops (the executor's "reject at
//     run time" default branch becomes unreachable);
//   * loop well-formedness — every kLoop body lies fully inside the
//     instruction stream and contains no nested kLoop (matching the
//     executor's flat interpretation of the stream);
//   * output bounds — every byte written by an encode op, at every loop
//     iteration, lies inside [0, out_size);
//   * input bounds — every byte read by a decode/guard op lies inside
//     [0, expected_in); a decode plan that reads the buffer without
//     declaring expected_in (no length contract at all) is rejected,
//     because run_plan_decode skips its length precheck when
//     expected_in == 0;
//   * slot bounds — every word slot read or written (including the
//     pad4 tail a bulk op memsets) lies inside [0, words_needed);
//   * no displacement wrap — all of the above is computed in 64-bit
//     arithmetic and must fit the declared 32-bit contract, so the
//     executor's uint32 offset arithmetic (off + it*stride) can never
//     wrap for an admitted plan;
//   * guard sanity — a kGuardLen's immediate equals the declared
//     expected_in (the §6.2 guard and the precheck must agree), and
//     guards only appear in decode plans (kGuardXid is additionally
//     the only op allowed to return kRetryXid, so an admitted encode
//     plan can only ever produce kOk);
//   * output completeness — when coverage is exactly decidable (always
//     true for specializer-emitted plans), an encode plan writes every
//     byte of [0, out_size); a gap would leak the caller's
//     uninitialized buffer bytes onto the wire.
//
// A class plan (pe/plan.h) is proven for every count <= count_cap.
// Every bound above is affine in the count, and an affine inequality
// holds on an interval iff it holds at both ends, so the checks run at
// count 0 (prefix ops; the count loop does not run), 1 and count_cap
// (count-loop ops), still in closed form.  Coverage at those counts is
// a contiguous prefix plus the count loop's iterations tiling onward,
// which is affine too.  The count word itself must lie inside the
// fixed prefix the wrappers check before they read or write it.
//
// What the executor and the JIT may assume after admission is written
// up in src/pe/README.md ("Safety argument").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "pe/plan.h"

namespace tempo::pe {

// Why a plan was rejected.  Stable identifiers: tests pin them, the
// JIT's refusal diagnostics and spec_cache.verify_rejects surface them.
enum class VerifyCode : std::uint8_t {
  kDirectionMixed,    // decode op in an encode plan or vice versa
  kTruncatedLoopBody, // kLoop body extends past the instruction stream
  kNestedLoop,        // kLoop inside a kLoop body
  kOutOfBoundsOut,    // write past out_size (any iteration)
  kOutOfBoundsIn,     // read past expected_in (any iteration)
  kSlotOverflow,      // word-slot access past words_needed
  kStrideOverflow,    // loop-extrapolated offset exceeds the 32-bit
                      // contract (the executor's uint32 math would wrap)
  kMissingLenContract,// decode plan reads input but expected_in == 0
  kGuardLenMismatch,  // kGuardLen imm != declared expected_in
  kIncompleteOutput,  // encode plan provably leaves out_size gaps
  kCountContract,     // count loop without a count word, or a count
                      // word outside the fixed prefix
};

const char* verify_code_name(VerifyCode code);

struct VerifyIssue {
  VerifyCode code = VerifyCode::kDirectionMixed;
  std::size_t instr_index = 0;  // offending instruction (stream index)
  std::string detail;           // human diagnostic with the numbers

  std::string to_string() const;
};

// Exact bounds the abstract interpretation computed.  For an admitted
// plan these are facts the executor and the JIT may rely on; fuse_plan
// consumes them instead of re-auditing op by op.
// For a class plan the ends are taken at count_cap.
struct VerifyFacts {
  std::uint64_t out_end = 0;    // 1 + highest output byte written
  std::uint64_t in_end = 0;     // 1 + highest input byte read
  std::uint64_t slot_end = 0;   // 1 + highest word slot touched
  std::uint32_t loop_count = 0; // kLoop instructions in the stream
  std::uint64_t max_loop_iters = 0;
  bool reads_input = false;     // any op loads from `in`
  bool has_len_guard = false;   // a kGuardLen is present
  // True when output coverage was exactly decidable (it always is for
  // specializer-emitted plans); kIncompleteOutput can only be raised —
  // and completeness only relied on — when this is set.
  bool coverage_exact = false;
};

struct VerifyResult {
  VerifyFacts facts;
  std::vector<VerifyIssue> issues;

  bool ok() const { return issues.empty(); }
  // "verified" or the first issue's diagnostic (all issues if several).
  std::string to_string() const;
};

// Statically verifies `plan` against its declared contract.  Pure
// function of the plan; cost is O(instrs), independent of loop
// iteration counts and of the count cap.
VerifyResult verify_plan(const Plan& plan);

// ---------------------------------------------------------------------------
// The TEMPO_PLAN_VERIFY knob
//
//   0  off       — no admission pass (release builds may opt out)
//   1  admit     — verify every plan once at spec build; a rejected
//                  plan fails the build (remembered by SpecCache like
//                  any other ineligible type).  The default.
//   2  paranoid  — additionally re-verify before SpecCache hands out
//                  a new build, so a corrupted-in-flight plan cannot
//                  reach a caller.
//
// Debug builds (NDEBUG unset) clamp the effective mode to at least 1:
// the admission pass is always on where assertions are.

enum class VerifyMode : std::uint8_t { kOff = 0, kAdmit = 1, kParanoid = 2 };

// Effective process-wide mode: TEMPO_PLAN_VERIFY (read once) with the
// debug clamp applied, unless overridden by set_verify_mode().
VerifyMode verify_mode();

// Test/bench override of the process-wide mode (the A/B datapoint in
// bench_marshaling flips this instead of re-execing with a new
// environment).  The debug clamp does NOT apply to explicit overrides.
void set_verify_mode(VerifyMode mode);

// Process-wide count of plans rejected by the admission pass (all
// SpecializedInterface::build calls; what spec_cache.verify_rejects
// surfaces per cache via its build-failure accounting).
std::int64_t verify_reject_count();

// The admission pass itself: verifies `plan` unless the effective mode
// is kOff, bumps the process-wide reject counter on failure, and
// returns kOutOfRange carrying the verifier diagnostics (`what` names
// the entry point in the message).  SpecCache recognizes a build
// failure with StatusCode::kOutOfRange as a verify reject.
Status verify_admit(const Plan& plan, const char* what);

}  // namespace tempo::pe
