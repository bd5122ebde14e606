// Online partial evaluator: generic IR + static inputs -> residual plan.
//
// Mirrors what Tempo does to the Sun RPC (paper §4), with the same four
// systems-code refinements:
//  * partially-static structures — the xdrs record is evaluated
//    field-wise: x_op / x_handy / x_private are static while the buffer
//    contents stay dynamic,
//  * flow sensitivity — binding information lives in an environment that
//    evolves per program point (e.g. `inlen` becomes static *after* the
//    expected-length guard, the §6.2 rewrite),
//  * context sensitivity — calls are inlined and specialized per call
//    site, so xdrmem_putlong specializes one way for the static
//    procedure identifier and another for dynamic argument words,
//  * static returns — a call whose store was residualized still returns
//    the static TRUE, so every `if (!r) return FALSE` exit-status check
//    folds away (§3.3).
//
// Loop handling implements Table 4's policy: full unrolling by default,
// or block unrolling with `unroll_factor` k — the specializer emits one
// concrete block, verifies against a second concrete block that the
// residual code is affine in the iteration number, folds the remaining
// blocks into a kLoop instruction, and unrolls any remainder.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "pe/interp.h"
#include "pe/ir.h"
#include "pe/plan.h"

namespace tempo::pe {

struct SpecOptions {
  // 0 = unroll completely; k >= 1 = keep loops, unrolled k-wide
  // (the paper's "250-unrolled" configuration is unroll_factor = 250).
  std::uint32_t unroll_factor = 0;
};

struct SpecInput {
  std::map<std::string, std::int64_t> static_scalars;  // pinned counts, ...
  std::map<std::string, std::int64_t> ref_params;      // argsp/resp -> slot
  std::vector<std::string> dynamic_scalars;            // xid, inlen
  XdrsInit xdrs;                                       // static handle state
  SpecOptions options;
};

// Specializes `entry` of `program` under the static inputs, producing a
// residual plan.  Fails (with a message naming the construct) when the
// residual code falls outside the plan language — the caller then keeps
// the generic path (guarded specialization).
Result<Plan> specialize(const Program& program, const std::string& entry,
                        const SpecInput& input);

// Count-polymorphic ("class") plans.  The counts a class plan is
// generalized from: two samples with unroll_factor 1, where Table 4's
// kept loop runs one element per iteration with no remainder.
inline constexpr std::uint32_t kClassSampleLo = 2;
inline constexpr std::uint32_t kClassSampleHi = 3;

// Generalizes one entry point specialized at kClassSampleLo (`lo`) and
// kClassSampleHi (`hi`) into a class plan whose count is a run-time
// input — the two-sample affinity check spec_for runs across two
// unrolled blocks, applied one level up.  The samples must be identical
// except for the count word's immediate (kGuardConstEq on decode,
// kPutConst on encode), the trip count of the loop that ends the plan,
// and the declared sizes (kGuardLen included), whose slopes must equal
// that loop's strides.  Any other difference — a second count, ops
// after the loop, a body that did not stay a loop — is refused, and the
// caller keeps per-count plans.  The count word's op is dropped (the
// wrappers read or write the word), the loop takes kCountTrip, and the
// sizes become their count-0 values; count_cap is left 0 for the caller.
Result<Plan> generalize_count(const Plan& lo, const Plan& hi);

}  // namespace tempo::pe
