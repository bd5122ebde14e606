#include "pe/verify.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/bytes.h"

namespace tempo::pe {

const char* verify_code_name(VerifyCode code) {
  switch (code) {
    case VerifyCode::kDirectionMixed: return "direction-mixed";
    case VerifyCode::kTruncatedLoopBody: return "truncated-loop-body";
    case VerifyCode::kNestedLoop: return "nested-loop";
    case VerifyCode::kOutOfBoundsOut: return "out-of-bounds-out";
    case VerifyCode::kOutOfBoundsIn: return "out-of-bounds-in";
    case VerifyCode::kSlotOverflow: return "slot-overflow";
    case VerifyCode::kStrideOverflow: return "stride-overflow";
    case VerifyCode::kMissingLenContract: return "missing-len-contract";
    case VerifyCode::kGuardLenMismatch: return "guard-len-mismatch";
    case VerifyCode::kIncompleteOutput: return "incomplete-output";
    case VerifyCode::kCountContract: return "count-contract";
  }
  return "unknown";
}

std::string VerifyIssue::to_string() const {
  return std::string(verify_code_name(code)) + " @instr " +
         std::to_string(instr_index) + ": " + detail;
}

std::string VerifyResult::to_string() const {
  if (ok()) return "verified";
  std::string out;
  for (const VerifyIssue& issue : issues) {
    if (!out.empty()) out += "; ";
    out += issue.to_string();
  }
  return out;
}

namespace {

// Half-open byte range [lo, hi); empty when lo == hi.
struct Interval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

// Per-iteration (closed-form) footprint of one instruction.  All values
// are iteration-0 positions; the loop context adds (iters-1)*stride to
// get the final-iteration end.  A field is "unused" when its size is 0.
struct OpAccess {
  bool is_encode_op = false;
  bool is_decode_op = false;
  std::uint64_t out_off = 0, out_len = 0;   // output bytes written
  std::uint64_t in_off = 0, in_len = 0;     // input bytes read
  std::uint64_t slot_off = 0, slot_len = 0; // word-array bytes touched
  bool slot_strided = false;  // slot_off advances by word_stride*4/iter
};

// What one instruction touches, mirroring apply_encode / apply_decode
// in plan.cpp byte for byte.  kLoop and unknown ops return false.
bool op_access(const PInstr& ins, OpAccess* a) {
  *a = OpAccess{};
  switch (ins.op) {
    case POp::kPutConst:
    case POp::kPutXid:
      a->is_encode_op = true;
      a->out_off = ins.off;
      a->out_len = 4;
      return true;
    case POp::kPutWord:
      a->is_encode_op = true;
      a->out_off = ins.off;
      a->out_len = 4;
      a->slot_off = std::uint64_t{ins.a} * 4;
      a->slot_len = 4;
      a->slot_strided = true;
      return true;
    case POp::kPutBytes:
      // Reads ins.b bytes from the word array at BYTE offset ins.a,
      // writes pad4(ins.b) to the output (pad tail zeroed).
      a->is_encode_op = true;
      a->out_off = ins.off;
      a->out_len = xdr_pad4(ins.b);
      a->slot_off = ins.a;
      a->slot_len = ins.b;
      a->slot_strided = true;
      return true;
    case POp::kGetWord:
      a->is_decode_op = true;
      a->in_off = ins.off;
      a->in_len = 4;
      a->slot_off = std::uint64_t{ins.a} * 4;
      a->slot_len = 4;
      a->slot_strided = true;
      return true;
    case POp::kSetWordConst:
      a->is_decode_op = true;
      a->slot_off = std::uint64_t{ins.a} * 4;
      a->slot_len = 4;
      a->slot_strided = true;
      return true;
    case POp::kGetBytes:
      // memsets pad4(ins.b) slot bytes at BYTE offset ins.a, then
      // copies ins.b bytes read from the input.
      a->is_decode_op = true;
      a->in_off = ins.off;
      a->in_len = ins.b;
      a->slot_off = ins.a;
      a->slot_len = xdr_pad4(ins.b);
      a->slot_strided = true;
      return true;
    case POp::kGuardConstEq:
    case POp::kGuardXid:
    case POp::kGuardBool:
      a->is_decode_op = true;
      a->in_off = ins.off;
      a->in_len = 4;
      return true;
    case POp::kGuardLen:
      a->is_decode_op = true;  // compares in.size(); touches no bytes
      return true;
    case POp::kLoop:
      return false;
  }
  return false;
}

std::string range_detail(const char* what, std::uint64_t end,
                         std::uint64_t bound) {
  return std::string(what) + " access ends at byte " + std::to_string(end) +
         " but the declared bound is " + std::to_string(bound);
}

// Sorted-merge of intervals in place; empties dropped.
void merge_intervals(std::vector<Interval>* v) {
  std::sort(v->begin(), v->end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> out;
  for (const Interval& iv : *v) {
    if (iv.lo >= iv.hi) continue;
    if (!out.empty() && iv.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, iv.hi);
    } else {
      out.push_back(iv);
    }
  }
  *v = std::move(out);
}

// Cap on write-interval expansion for loops whose per-iteration
// coverage is not contiguous: beyond this the verifier records
// coverage as inexact instead of rejecting (bounds stay exact).
constexpr std::uint64_t kCoverageExpandLimit = 4096;

// One pass of the abstract interpretation with the count fixed at
// `count` (always 0 for an exact plan): declared bounds are taken at
// that count and a count loop runs `count` times.  Issues append to
// `r`; facts take the maximum over passes.
void verify_at(const Plan& plan, std::uint32_t count, VerifyResult& r) {
  VerifyFacts& f = r.facts;
  const std::uint64_t out_size = plan.out_size_at(count);
  const std::uint64_t in_size = plan.expected_in_at(count);
  const std::uint64_t word_bytes = plan.words_needed_at(count) * 4;
  const std::string at =
      plan.has_count() ? "at count " + std::to_string(count) + ": " : "";

  auto reject = [&](VerifyCode code, std::size_t idx, std::string detail) {
    r.issues.push_back(VerifyIssue{code, idx, at + detail});
  };

  if (out_size > 0xFFFFFFFFull || in_size > 0xFFFFFFFFull ||
      plan.words_needed_at(count) > 0xFFFFFFFFull) {
    reject(VerifyCode::kStrideOverflow, 0,
           "declared sizes pass the executor's 32-bit arithmetic");
    return;
  }

  std::vector<Interval> writes;  // encode output coverage
  if (plan.is_encode && plan.has_count()) {
    writes.push_back({plan.count_off, std::uint64_t{plan.count_off} + 4});
  }

  // One instruction under a loop context: `iters` >= 1 executions with
  // byte displacement it*off_stride and slot displacement
  // it*word_stride (both 0 outside loops).  All arithmetic is 64-bit;
  // the final-iteration end is the maximum because strides are
  // non-negative, so one closed-form check covers every iteration.
  // Returns the iteration-0 output interval (empty if none).
  auto check_op = [&](const PInstr& ins, std::size_t idx, std::uint64_t iters,
                      std::uint64_t off_stride,
                      std::uint64_t word_stride) -> Interval {
    OpAccess a;
    if (!op_access(ins, &a)) return {};  // loop headers handled by the walk
    if (a.is_encode_op != plan.is_encode) {
      reject(VerifyCode::kDirectionMixed, idx,
             plan.is_encode ? "decode op in an encode plan"
                            : "encode op in a decode plan");
      return {};
    }
    const std::uint64_t max_doff = (iters - 1) * off_stride;
    const std::uint64_t max_dslots = (iters - 1) * word_stride;
    if (a.out_len != 0) {
      const std::uint64_t end = a.out_off + max_doff + a.out_len;
      if (end > out_size) {
        reject(VerifyCode::kOutOfBoundsOut, idx,
               range_detail("output write", end, out_size));
      }
      f.out_end = std::max(f.out_end, end);
    }
    if (a.in_len != 0) {
      f.reads_input = true;
      if (in_size == 0) {
        reject(VerifyCode::kMissingLenContract, idx,
               "decode plan reads the input buffer but declares "
               "expected_in == 0, so the executor performs no length "
               "precheck");
      } else {
        const std::uint64_t end = a.in_off + max_doff + a.in_len;
        if (end > in_size) {
          reject(VerifyCode::kOutOfBoundsIn, idx,
                 range_detail("input read", end, in_size));
        }
        f.in_end = std::max(f.in_end, end);
      }
    }
    if (a.slot_len != 0) {
      const std::uint64_t end =
          a.slot_off + (a.slot_strided ? max_dslots * 4 : 0) + a.slot_len;
      if (end > word_bytes) {
        reject(VerifyCode::kSlotOverflow, idx,
               range_detail("word-slot", end, word_bytes) +
                   " (words_needed = " +
                   std::to_string(plan.words_needed_at(count)) + ")");
      }
      f.slot_end = std::max(f.slot_end, (end + 3) / 4);
    }
    if (ins.op == POp::kGuardLen) {
      f.has_len_guard = true;
      if (ins.imm != plan.expected_in) {
        reject(VerifyCode::kGuardLenMismatch, idx,
               "kGuardLen checks in.size() == " + std::to_string(ins.imm) +
                   " but the plan declares expected_in = " +
                   std::to_string(plan.expected_in));
      }
    }
    if (!plan.is_encode || a.out_len == 0) return {};
    return {a.out_off, a.out_off + a.out_len};
  };

  // Write coverage of one op (or one loop body footprint) repeated
  // `iters` times at `stride`.  Exact when each repetition overlaps or
  // abuts the next, or when few enough to list; inexact otherwise.
  auto cover = [&](Interval iv, std::uint64_t iters, std::uint64_t stride) {
    if (iv.lo >= iv.hi || !f.coverage_exact || iters == 0) return;
    if (iters == 1 || stride == 0 || iv.hi - iv.lo >= stride) {
      writes.push_back({iv.lo, iv.hi + (iters - 1) * stride});
    } else if (iters <= kCoverageExpandLimit) {
      for (std::uint64_t it = 0; it < iters; ++it) {
        writes.push_back({iv.lo + it * stride, iv.hi + it * stride});
      }
    } else {
      f.coverage_exact = false;
    }
  };

  std::uint32_t loops = 0;
  const std::size_t n = plan.instrs.size();
  std::size_t i = 0;
  while (i < n) {
    const PInstr& ins = plan.instrs[i];
    if (ins.op != POp::kLoop) {
      cover(check_op(ins, i, /*iters=*/1, 0, 0), 1, 0);
      ++i;
      continue;
    }
    const bool count_loop = ins.a == kCountTrip;
    if (count_loop && !plan.has_count()) {
      reject(VerifyCode::kCountContract, i,
             "loop takes the run-time count but the plan declares no "
             "count word");
    }
    const std::uint64_t iters = count_loop ? count : ins.a;
    const std::uint64_t body = ins.b;
    if (i + 1 + body > n) {
      reject(VerifyCode::kTruncatedLoopBody, i,
             "loop declares a " + std::to_string(body) +
                 "-instruction body but only " + std::to_string(n - i - 1) +
                 " instructions remain; the executor would walk past the "
                 "instruction stream");
      break;  // the stream shape is broken; nothing past here is meaningful
    }
    const LoopStrides s = unpack_loop_strides(ins.imm);
    ++loops;
    f.max_loop_iters = std::max(f.max_loop_iters, iters);
    bool nested = false;
    for (std::uint64_t j = 0; j < body; ++j) {
      if (plan.instrs[i + 1 + j].op == POp::kLoop) {
        reject(VerifyCode::kNestedLoop, i + 1 + j,
               "kLoop inside a kLoop body; the executor interprets the "
               "stream flat and would misexecute it");
        nested = true;
      }
    }
    if (!nested && iters > 0) {
      // The executor computes it*stride in uint32; a displacement that
      // does not fit 32 bits would silently wrap there.  (Any such plan
      // also fails a bounds check, but the distinct diagnostic names
      // the actual defect.)
      const std::uint64_t max_doff = (iters - 1) * s.off_stride;
      const std::uint64_t max_dwbytes = (iters - 1) * s.word_stride * 4;
      if (max_doff > 0xFFFFFFFFull || max_dwbytes > 0xFFFFFFFFull) {
        reject(VerifyCode::kStrideOverflow, i,
               "loop displacement reaches " +
                   std::to_string(std::max(max_doff, max_dwbytes)) +
                   " bytes on the final iteration, past the executor's "
                   "32-bit displacement arithmetic");
      } else {
        // The body's iteration-0 footprint, repeated per iteration.
        std::vector<Interval> foot;
        for (std::uint64_t j = 0; j < body; ++j) {
          foot.push_back(check_op(plan.instrs[i + 1 + j], i + 1 + j, iters,
                                  s.off_stride, s.word_stride));
        }
        merge_intervals(&foot);
        if (foot.size() == 1) {
          cover(foot[0], iters, s.off_stride);
        } else {
          for (const Interval& iv : foot) cover(iv, iters, s.off_stride);
        }
      }
    }
    i += 1 + static_cast<std::size_t>(body);
  }
  f.loop_count = loops;

  // Output completeness: an admitted encode plan must write every byte
  // of [0, out_size) or unwritten caller-buffer bytes ship on the wire.
  if (plan.is_encode && f.coverage_exact && r.issues.empty()) {
    merge_intervals(&writes);
    std::uint64_t covered_to = 0;
    for (const Interval& iv : writes) {
      if (iv.lo > covered_to) break;
      covered_to = iv.hi;
    }
    if (covered_to < out_size) {
      reject(VerifyCode::kIncompleteOutput, n == 0 ? 0 : n - 1,
             "encode plan declares out_size = " + std::to_string(out_size) +
                 " but provably never writes byte " +
                 std::to_string(covered_to) +
                 "; the gap would leak uninitialized buffer bytes");
    }
  }
}

}  // namespace

VerifyResult verify_plan(const Plan& plan) {
  VerifyResult r;
  r.facts.coverage_exact = plan.is_encode;
  if (!plan.has_count()) {
    verify_at(plan, 0, r);
    return r;
  }
  // The wrappers touch the count word after checking only the count-0
  // size, so it must lie inside the fixed prefix.
  const std::uint64_t prefix = plan.is_encode ? plan.out_size
                                              : plan.expected_in;
  if (std::uint64_t{plan.count_off} + 4 > prefix) {
    r.issues.push_back(VerifyIssue{
        VerifyCode::kCountContract, 0,
        "count word at byte " + std::to_string(plan.count_off) +
            " lies outside the " + std::to_string(prefix) +
            "-byte fixed prefix"});
    return r;
  }
  // Affine bounds hold on [0, cap] iff they hold at the ends of each
  // op's count range: 0 for prefix ops, 1 and cap for count-loop ops.
  std::int64_t last = -1;
  for (const std::uint32_t count : {0u, 1u, plan.count_cap}) {
    if (count > plan.count_cap || count <= last) continue;
    last = count;
    verify_at(plan, count, r);
    if (!r.ok()) break;
  }
  return r;
}

// ---------------------------------------------------------------------------
// TEMPO_PLAN_VERIFY knob + admission accounting
// ---------------------------------------------------------------------------

namespace {

std::atomic<int> g_mode_override{-1};
std::atomic<std::int64_t> g_verify_rejects{0};

int verify_mode_from_env() {
  static const int mode = [] {
    int v = 1;  // default: verify at spec build
    if (const char* e = std::getenv("TEMPO_PLAN_VERIFY")) {
      if (e[0] == '0' && e[1] == '\0') v = 0;
      if (e[0] == '1' && e[1] == '\0') v = 1;
      if (e[0] == '2' && e[1] == '\0') v = 2;
    }
#ifndef NDEBUG
    // Debug builds keep the admission pass on regardless of the knob.
    if (v < 1) v = 1;
#endif
    return v;
  }();
  return mode;
}

}  // namespace

VerifyMode verify_mode() {
  const int o = g_mode_override.load(std::memory_order_relaxed);
  return static_cast<VerifyMode>(o >= 0 ? o : verify_mode_from_env());
}

void set_verify_mode(VerifyMode mode) {
  g_mode_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

std::int64_t verify_reject_count() {
  return g_verify_rejects.load(std::memory_order_relaxed);
}

Status verify_admit(const Plan& plan, const char* what) {
  if (verify_mode() == VerifyMode::kOff) return Status::ok();
  const VerifyResult res = verify_plan(plan);
  if (res.ok()) return Status::ok();
  g_verify_rejects.fetch_add(1, std::memory_order_relaxed);
  return out_of_range("plan verification rejected " + std::string(what) +
                      ": " + res.to_string());
}

}  // namespace tempo::pe
