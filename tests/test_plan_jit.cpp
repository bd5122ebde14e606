// Unit tests for the native plan compiler (src/pe/compile.cpp): the
// knob / host gating, the guard ExecStatus contract, tail-padding
// zeroing on recycled buffers, the fusion pass (template baking, copy
// merging, loop unrolling) via the jit_internal hooks, and the code /
// template size accounting.  tests/test_plan_diff.cpp covers the
// randomized end-to-end equivalence; this file pins the mechanisms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/endian.h"
#include "core/stubspec.h"
#include "idl/interp.h"
#include "pe/compile.h"
#include "pe/layout.h"

namespace tempo {
namespace {

using pe::ExecStatus;
using pe::PInstr;
using pe::Plan;
using pe::POp;
namespace ji = pe::jit_internal;

bool jit_tier_live() {
  return pe::jit_supported_host() && pe::jit_enabled_by_env();
}

PInstr ins(POp op, std::uint32_t off, std::uint32_t a, std::uint32_t b,
           std::uint64_t imm = 0) {
  PInstr i;
  i.op = op;
  i.off = off;
  i.a = a;
  i.b = b;
  i.imm = imm;
  return i;
}

// ---- knob / host gating ------------------------------------------------

TEST(JitGating, EnvKnobIsStablePerProcess) {
  // Read-once semantics: two calls must agree even if the environment
  // mutates between them.
  const bool first = pe::jit_enabled_by_env();
  EXPECT_EQ(first, pe::jit_enabled_by_env());
}

TEST(JitGating, SpecConfigKnobDisablesTier) {
  idl::ProcDef proc;
  proc.name = "echo";
  proc.number = 1;
  proc.arg_type = idl::t_array_var(idl::t_int(), 64);
  proc.res_type = proc.arg_type;

  core::SpecConfig cfg;
  cfg.arg_counts = {8};
  cfg.res_counts = {8};
  cfg.enable_jit = false;
  auto off = core::SpecializedInterface::build(proc, 1, 1, cfg);
  ASSERT_TRUE(off.is_ok());
  EXPECT_EQ(off->jit_stub_count(), 0);
  EXPECT_FALSE(off->jit_active());
  EXPECT_EQ(off->compiled_code_bytes(), 0u);

  cfg.enable_jit = true;
  auto on = core::SpecializedInterface::build(proc, 1, 1, cfg);
  ASSERT_TRUE(on.is_ok());
  if (jit_tier_live()) {
    EXPECT_EQ(on->jit_stub_count(), 4);
    EXPECT_TRUE(on->jit_active());
    EXPECT_GT(on->compiled_code_bytes(), 0u);
  } else {
    EXPECT_EQ(on->jit_stub_count(), 0);
  }
  // The knob must not leak into behavior: both interfaces marshal
  // identically (exec_* falls back to the executor when no stub).
  std::vector<std::uint32_t> slots(on->arg_slots(), 0);
  slots[0] = 8;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    slots[i] = static_cast<std::uint32_t>(i * 0x01010101u);
  }
  const auto& plan = on->encode_call_plan();
  Bytes a(plan.out_size, 0xA5), b(plan.out_size, 0x5A);
  ASSERT_EQ(off->exec_encode_call(slots, 42, MutableByteSpan(a.data(),
                                                             a.size())),
            ExecStatus::kOk);
  ASSERT_EQ(on->exec_encode_call(slots, 42, MutableByteSpan(b.data(),
                                                            b.size())),
            ExecStatus::kOk);
  EXPECT_EQ(a, b);
}

// ---- guard ExecStatus contract through native code ---------------------

TEST(JitGuards, AllFailureCodesMatchExecutor) {
  Plan plan;
  plan.is_encode = false;
  plan.expected_in = 12;
  plan.words_needed = 1;
  plan.instrs = {
      ins(POp::kGuardLen, 0, 0, 0, 12),
      ins(POp::kGuardXid, 0, 0, 0),
      ins(POp::kGuardConstEq, 4, 0, 0, 0xDEADBEEFu),
      ins(POp::kGuardBool, 8, 0, 0),
      ins(POp::kGetWord, 8, 0, 0),
  };
  // compile() gates on the host only; the env knob is applied by the
  // callers in core::SpecializedInterface.
  auto jit = pe::CompiledPlan::compile(plan);
  if (!pe::jit_supported_host()) {
    EXPECT_EQ(jit, nullptr);
    return;
  }
  ASSERT_NE(jit, nullptr);
  EXPECT_FALSE(jit->is_encode());

  const std::uint32_t xid = 0xCAFE0001u;
  Bytes good(12);
  store_be32(good.data(), xid);
  store_be32(good.data() + 4, 0xDEADBEEFu);
  store_be32(good.data() + 8, 1);

  auto both = [&](ByteSpan in, std::uint32_t x,
                  std::span<std::uint32_t> words) {
    std::vector<std::uint32_t> w2(words.begin(), words.end());
    const ExecStatus se = run_plan_decode(plan, in, x, w2);
    const ExecStatus sj = jit->run_decode(in, x, words);
    EXPECT_EQ(static_cast<int>(se), static_cast<int>(sj));
    EXPECT_TRUE(std::equal(words.begin(), words.end(), w2.begin()));
    return sj;
  };

  std::vector<std::uint32_t> words(1, 0x6B6B6B6Bu);
  EXPECT_EQ(both(ByteSpan(good.data(), good.size()), xid, words),
            ExecStatus::kOk);
  EXPECT_EQ(words[0], 1u);

  // Stale XID → kRetryXid.
  EXPECT_EQ(both(ByteSpan(good.data(), good.size()), xid + 1, words),
            ExecStatus::kRetryXid);
  // Constant guard miss → kFallback.
  Bytes bad = good;
  store_be32(bad.data() + 4, 0xDEADBEEEu);
  EXPECT_EQ(both(ByteSpan(bad.data(), bad.size()), xid, words),
            ExecStatus::kFallback);
  // Bool guard: 2 is not a bool → kFallback.
  bad = good;
  store_be32(bad.data() + 8, 2);
  EXPECT_EQ(both(ByteSpan(bad.data(), bad.size()), xid, words),
            ExecStatus::kFallback);
  // Oversized input → the kGuardLen op fires (precheck passes).
  Bytes big = good;
  big.resize(16, 0);
  EXPECT_EQ(both(ByteSpan(big.data(), big.size()), xid, words),
            ExecStatus::kFallback);
  // Undersized input → the capacity precheck fires.
  EXPECT_EQ(both(ByteSpan(good.data(), 8), xid, words),
            ExecStatus::kFallback);
  // Undersized word array → the capacity precheck fires.
  std::vector<std::uint32_t> none;
  EXPECT_EQ(both(ByteSpan(good.data(), good.size()), xid, none),
            ExecStatus::kFallback);
}

// ---- tail padding on recycled (poisoned) buffers -----------------------
//
// kPutBytes must zero the wire pad; kGetBytes must zero the slot tail.
// With pooled arenas recycling buffers, a stub that skips the memset
// leaks stale bytes of a *previous* request onto the wire — so both the
// executor and the compiled stub are run on poisoned memory and the
// padding is checked for literal zero, not just for equality.
TEST(JitPadding, EncodePadZeroedOnPoisonedBuffer) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 16;
  plan.words_needed = 4;
  plan.instrs = {ins(POp::kPutBytes, 0, 0, 13)};

  std::vector<std::uint32_t> slots(4);
  std::memset(slots.data(), 0xEE, 16);

  Bytes exec_buf(16, 0xA5);
  ASSERT_EQ(run_plan_encode(plan, slots, 0,
                            MutableByteSpan(exec_buf.data(), 16)),
            ExecStatus::kOk);
  EXPECT_EQ(exec_buf[12], 0xEE);  // last payload byte
  EXPECT_EQ(exec_buf[13], 0x00);  // pad bytes: poison must be gone
  EXPECT_EQ(exec_buf[14], 0x00);
  EXPECT_EQ(exec_buf[15], 0x00);

  auto jit = pe::CompiledPlan::compile(plan);
  if (!pe::jit_supported_host()) return;
  ASSERT_NE(jit, nullptr);
  Bytes jit_buf(16, 0xA5);
  ASSERT_EQ(jit->run_encode(slots, 0, MutableByteSpan(jit_buf.data(), 16)),
            ExecStatus::kOk);
  EXPECT_EQ(jit_buf, exec_buf);
}

TEST(JitPadding, DecodeSlotTailZeroedOnPoisonedWords) {
  Plan plan;
  plan.is_encode = false;
  plan.expected_in = 16;
  plan.words_needed = 4;
  plan.instrs = {ins(POp::kGuardLen, 0, 0, 0, 16),
                 ins(POp::kGetBytes, 0, 0, 13)};

  Bytes in(16, 0x11);

  std::vector<std::uint32_t> exec_words(4, 0x6B6B6B6Bu);
  ASSERT_EQ(run_plan_decode(plan, ByteSpan(in.data(), in.size()), 0,
                            exec_words),
            ExecStatus::kOk);
  const auto* tail = reinterpret_cast<const std::uint8_t*>(exec_words.data());
  EXPECT_EQ(tail[12], 0x11);  // last payload byte
  EXPECT_EQ(tail[13], 0x00);  // slot-tail poison must be gone
  EXPECT_EQ(tail[14], 0x00);
  EXPECT_EQ(tail[15], 0x00);

  auto jit = pe::CompiledPlan::compile(plan);
  if (!pe::jit_supported_host()) return;
  ASSERT_NE(jit, nullptr);
  std::vector<std::uint32_t> jit_words(4, 0x6B6B6B6Bu);
  ASSERT_EQ(jit->run_decode(ByteSpan(in.data(), in.size()), 0, jit_words),
            ExecStatus::kOk);
  EXPECT_EQ(jit_words, exec_words);
}

// ---- fusion pass (host-independent, byte-level) ------------------------

TEST(JitFuse, ConsecutiveConstantsBakeIntoOneTemplateCopy) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 16;
  plan.words_needed = 1;
  plan.instrs = {
      ins(POp::kPutConst, 0, 0, 0, 0x11223344u),
      ins(POp::kPutConst, 4, 0, 0, 0x55667788u),
      ins(POp::kPutConst, 8, 0, 0, 0x99AABBCCu),
      ins(POp::kPutWord, 12, 0, 0),
  };
  ji::FusedProgram prog;
  ASSERT_TRUE(ji::fuse_plan(plan, &prog));
  ASSERT_EQ(prog.ops.size(), 2u);
  EXPECT_EQ(prog.ops[0].k, ji::FusedOp::K::kCopyTmpl);
  EXPECT_EQ(prog.ops[0].off, 0u);
  EXPECT_EQ(prog.ops[0].b, 12u);
  EXPECT_EQ(prog.ops[1].k, ji::FusedOp::K::kStoreWord);

  // The template image holds the big-endian constants.
  ASSERT_GE(prog.tmpl.size(), 12u);
  EXPECT_EQ(load_be32(prog.tmpl.data()), 0x11223344u);
  EXPECT_EQ(load_be32(prog.tmpl.data() + 4), 0x55667788u);
  EXPECT_EQ(load_be32(prog.tmpl.data() + 8), 0x99AABBCCu);
}

TEST(JitFuse, ConflictingTemplateBytesRefuseToCompile) {
  // Two constants at the same offset with different values cannot share
  // one baked template — fusion must refuse, not pick one.
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 4;
  plan.words_needed = 0;
  plan.instrs = {
      ins(POp::kPutConst, 0, 0, 0, 1),
      ins(POp::kPutConst, 0, 0, 0, 2),
  };
  ji::FusedProgram prog;
  EXPECT_FALSE(ji::fuse_plan(plan, &prog));
  // Same value at the same offset is fine (idempotent bake).
  plan.instrs[1].imm = 1;
  EXPECT_TRUE(ji::fuse_plan(plan, &prog));
}

TEST(JitFuse, AdjacentBulkCopiesMerge) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 24;
  plan.words_needed = 6;
  // Word-aligned 8-byte copies, contiguous in both buffer and slots.
  plan.instrs = {
      ins(POp::kPutBytes, 0, 0, 8),
      ins(POp::kPutBytes, 8, 8, 8),
      ins(POp::kPutBytes, 16, 16, 8),
  };
  ji::FusedProgram prog;
  ASSERT_TRUE(ji::fuse_plan(plan, &prog));
  ASSERT_EQ(prog.ops.size(), 1u);
  EXPECT_EQ(prog.ops[0].k, ji::FusedOp::K::kCopyArgBytes);
  EXPECT_EQ(prog.ops[0].b, 24u);
}

TEST(JitFuse, SmallLoopsUnrollLargeLoopsStay) {
  auto loop_plan = [&](std::uint32_t iters) {
    Plan plan;
    plan.is_encode = true;
    plan.out_size = iters * 4;
    plan.words_needed = iters;
    plan.instrs = {
        ins(POp::kLoop, 0, iters, 1,
            pe::pack_loop_strides({/*off_stride=*/4, /*word_stride=*/1})),
        ins(POp::kPutWord, 0, 0, 0),
    };
    return plan;
  };

  ji::FusedProgram small;
  ASSERT_TRUE(ji::fuse_plan(loop_plan(pe::kJitFullUnrollOps), &small));
  for (const auto& op : small.ops) {
    EXPECT_NE(op.k, ji::FusedOp::K::kLoopBegin) << "small loop kept";
  }

  ji::FusedProgram big;
  ASSERT_TRUE(ji::fuse_plan(loop_plan(pe::kJitFullUnrollOps + 1), &big));
  bool kept = false;
  for (const auto& op : big.ops) kept |= op.k == ji::FusedOp::K::kLoopBegin;
  EXPECT_TRUE(kept) << "big loop should keep a native counter loop";
}

TEST(JitFuse, OutOfBoundsSlotsRefuseToCompile) {
  // A plan whose ops touch slots beyond its own words_needed is the
  // executor-OOB bug shape; the compiler must refuse it outright.
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 8;
  plan.words_needed = 1;
  plan.instrs = {ins(POp::kPutWord, 0, 0, 0), ins(POp::kPutWord, 4, 1, 0)};
  ji::FusedProgram prog;
  EXPECT_FALSE(ji::fuse_plan(plan, &prog));
}

// A class plan over an int array: the count word at byte 0, then one
// kGetWord / kPutWord per element, trip count from the run-time count.
Plan count_plan(bool encode, std::uint32_t cap) {
  Plan plan;
  plan.is_encode = encode;
  plan.count_off = 0;
  plan.count_cap = cap;
  plan.words_slope = 1;
  const std::uint64_t strides = pe::pack_loop_strides({4, 1});
  if (encode) {
    plan.out_size = 4;
    plan.out_slope = 4;
    plan.instrs = {ins(POp::kLoop, 0, pe::kCountTrip, 1, strides),
                   ins(POp::kPutWord, 4, 0, 0)};
  } else {
    plan.expected_in = 4;
    plan.in_slope = 4;
    plan.instrs = {ins(POp::kGuardLen, 0, 0, 0, 4),
                   ins(POp::kLoop, 0, pe::kCountTrip, 1, strides),
                   ins(POp::kGetWord, 4, 0, 0)};
  }
  return plan;
}

TEST(JitFuse, CountLoopIsNeverExpanded) {
  // 8 iterations of a 1-op body would be expanded for an exact loop.
  for (const bool encode : {false, true}) {
    ji::FusedProgram prog;
    ASSERT_TRUE(ji::fuse_plan(count_plan(encode, 8), &prog));
    EXPECT_TRUE(prog.has_count);
    ASSERT_FALSE(prog.ops.empty());
    bool count_loop = false;
    for (const auto& op : prog.ops) {
      EXPECT_NE(op.k, ji::FusedOp::K::kGuardLen)
          << "the wrapper's precheck already checked the length";
      if (op.k == ji::FusedOp::K::kLoopBegin) {
        EXPECT_EQ(op.a, pe::kCountTrip);
        EXPECT_EQ(op.b, 8u) << "unroll width is clamped to the cap";
        count_loop = true;
      }
    }
    EXPECT_TRUE(count_loop);
  }
  ji::FusedProgram wide;
  ASSERT_TRUE(ji::fuse_plan(count_plan(false, 2048), &wide));
  for (const auto& op : wide.ops) {
    if (op.k == ji::FusedOp::K::kLoopBegin) {
      EXPECT_EQ(op.b, pe::kJitCountLoopOps);
    }
  }
}

bool contains(const std::vector<std::uint8_t>& code,
              std::initializer_list<std::uint8_t> seq) {
  const std::vector<std::uint8_t> needle(seq);
  return std::search(code.begin(), code.end(), needle.begin(), needle.end()) !=
         code.end();
}

TEST(JitEmit, CountLoopTakesTripCountFromRegister) {
  ji::FusedProgram prog;
  ASSERT_TRUE(ji::fuse_plan(count_plan(false, 2048), &prog));

  // x86-64: the count arrives in r8 and is parked in r14, the loop
  // counter ebx takes it, and "cmp ebx, 0; je" skips the body at 0.
  const auto x86 = ji::emit_x86_64(prog);
  EXPECT_TRUE(contains(x86, {0x45, 0x89, 0xC6})) << "mov r14d, r8d";
  EXPECT_TRUE(contains(x86, {0x44, 0x89, 0xF3})) << "mov ebx, r14d";
  EXPECT_TRUE(contains(x86, {0x81, 0xFB, 0x10, 0, 0, 0, 0x0F, 0x82}))
      << "cmp ebx, 16; jb (k-wide trips, then the remainder)";
  EXPECT_TRUE(contains(x86, {0x81, 0xFB, 0, 0, 0, 0, 0x0F, 0x84}))
      << "cmp ebx, 0; je (count 0 skips the body)";

  // Exact stubs never read the count register.
  ji::FusedProgram exact;
  Plan plan = count_plan(false, 0);
  plan.count_off = pe::kNoCount;
  plan.in_slope = plan.words_slope = 0;
  plan.instrs[1].a = 300;
  plan.expected_in = 1204;
  plan.instrs[0].imm = 1204;
  plan.words_needed = 300;
  ASSERT_TRUE(ji::fuse_plan(plan, &exact));
  EXPECT_FALSE(exact.has_count);
  EXPECT_FALSE(contains(ji::emit_x86_64(exact), {0x45, 0x89, 0xC6}));
}

// Counts around the k-wide unroll boundaries run the same on both tiers.
TEST(JitCountLoop, RemainderBoundariesMatchExecutor) {
  if (!jit_tier_live()) GTEST_SKIP() << "no native tier on this host";
  constexpr std::uint32_t kCap = 40;
  const Plan dec = count_plan(false, kCap);
  const Plan enc = count_plan(true, kCap);
  auto djit = pe::CompiledPlan::compile(dec);
  auto ejit = pe::CompiledPlan::compile(enc);
  ASSERT_NE(djit, nullptr);
  ASSERT_NE(ejit, nullptr);
  for (const std::uint32_t n : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, kCap}) {
    SCOPED_TRACE("count=" + std::to_string(n));
    std::vector<std::uint32_t> words(n);
    for (std::uint32_t i = 0; i < n; ++i) words[i] = 0x01020304u * (i + 1);
    Bytes be(4 + 4 * n, 0xA5), bj(4 + 4 * n, 0x5A);
    ASSERT_EQ(run_plan_encode(enc, words, 0, MutableByteSpan(be.data(),
                                                             be.size()),
                              nullptr, n),
              ExecStatus::kOk);
    ASSERT_EQ(ejit->run_encode(words, 0, MutableByteSpan(bj.data(), bj.size()),
                               n),
              ExecStatus::kOk);
    EXPECT_EQ(be, bj);
    EXPECT_EQ(load_be32(be.data()), n);

    std::vector<std::uint32_t> we(n, 0x6B6B6B6Bu), wj(n, 0x6B6B6B6Bu);
    ASSERT_EQ(run_plan_decode(dec, ByteSpan(be.data(), be.size()), 0, we),
              ExecStatus::kOk);
    ASSERT_EQ(djit->run_decode(ByteSpan(be.data(), be.size()), 0, wj),
              ExecStatus::kOk);
    EXPECT_EQ(we, words);
    EXPECT_EQ(wj, words);
  }
}

// ---- the emitter (pure byte generation) --------------------------------

TEST(JitEmit, EmitsPlausibleX86Code) {
  Plan plan;
  plan.is_encode = false;
  plan.expected_in = 4020;
  plan.words_needed = 1001;
  plan.instrs = {
      ins(POp::kGuardLen, 0, 0, 0, 4020),
      ins(POp::kGetWord, 0, 0, 0),
      // 500 iterations × 2-op body stays a native loop.
      ins(POp::kLoop, 0, 500, 2, pe::pack_loop_strides({8, 2})),
      ins(POp::kGetWord, 16, 1, 0),
      ins(POp::kGetBytes, 20, 8, 3),
  };
  ji::FusedProgram prog;
  ASSERT_TRUE(ji::fuse_plan(plan, &prog));

  const auto x86 = ji::emit_x86_64(prog);
  ASSERT_FALSE(x86.empty());
  EXPECT_EQ(x86.back(), 0xC3) << "x86-64 code must end in ret";
}

// ---- size accounting ---------------------------------------------------

TEST(JitSize, PackedAndCompiledSizesReported) {
  idl::ProcDef proc;
  proc.name = "sizes";
  proc.number = 2;
  proc.arg_type = idl::t_array_var(idl::t_int(), 256);
  proc.res_type = proc.arg_type;

  core::SpecConfig cfg;
  cfg.arg_counts = {64};
  cfg.res_counts = {64};
  auto iface = core::SpecializedInterface::build(proc, 1, 1, cfg);
  ASSERT_TRUE(iface.is_ok());

  // The packed serialization strips PInstr struct padding, so it is
  // strictly smaller than the in-memory footprint (Table 3 analog).
  EXPECT_GT(iface->packed_code_bytes(), 0u);
  EXPECT_LT(iface->packed_code_bytes(), iface->specialized_code_bytes());

  if (jit_tier_live()) {
    ASSERT_EQ(iface->jit_stub_count(), 4);
    EXPECT_GT(iface->compiled_code_bytes(), 0u);
    EXPECT_GT(iface->encode_call_jit()->template_size(), 0u)
        << "call header constants should bake into the template";
    EXPECT_GT(iface->encode_call_jit()->code_size(), 0u);
  }
}

}  // namespace
}  // namespace tempo
