// The Plan IR static verifier (src/pe/verify.h).
//
// Two halves:
//   * a must-reject corpus of hand-built malformed plans, each pinned
//     to the specific diagnostic the verifier must raise — including
//     the exact shape of the PR-6 words_needed under-count (a kept
//     loop whose bulk-op body touches more slots than the plan
//     declares), which the verifier must catch STATICALLY, before any
//     executor run could trip ASan;
//   * an admit-everything pass over real specializer output — the
//     paper's echo corpus and randomized plan-eligible shapes — which
//     must verify clean in paranoid mode.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/spec_cache.h"
#include "core/stubspec.h"
#include "idl/interp.h"
#include "pe/layout.h"
#include "pe/verify.h"

namespace tempo {
namespace {

using pe::PInstr;
using pe::Plan;
using pe::POp;
using pe::VerifyCode;
using pe::VerifyResult;

constexpr std::uint32_t kProg = 0x20000DD1;
constexpr std::uint32_t kVers = 3;
constexpr std::uint32_t kProcNum = 9;

bool has_issue(const VerifyResult& res, VerifyCode code) {
  for (const auto& issue : res.issues) {
    if (issue.code == code) return true;
  }
  return false;
}

// Every issue the must-reject corpus pins must also surface in the
// human diagnostics (that string is what verify_admit / the JIT's
// refusal path report).
void expect_rejected(const Plan& plan, VerifyCode code) {
  const VerifyResult res = pe::verify_plan(plan);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(has_issue(res, code))
      << "expected " << pe::verify_code_name(code) << ", got: "
      << res.to_string();
  EXPECT_NE(res.to_string().find(pe::verify_code_name(code)),
            std::string::npos);
}

// ---- must-reject corpus ------------------------------------------------

// The PR-6 regression, distilled: a kept loop whose body is a bulk
// kGetBytes.  Each iteration advances two word slots; 20 iterations
// touch slots [0, 40), but the plan declares words_needed = 33 (the
// pre-fix extrapolation).  The executor would write slots 33..39 of a
// caller vector sized exactly words_needed — the verifier must reject
// the plan outright, with the slot numbers in the diagnostic.
TEST(PlanVerifyReject, LoopBulkSlotOverflow) {
  Plan plan;
  plan.is_encode = false;
  plan.expected_in = 4 + 20 * 8;
  plan.words_needed = 33;  // under-counted; the loop really needs 40
  plan.instrs = {
      {POp::kGuardLen, 0, 0, 0, plan.expected_in},
      {POp::kLoop, 0, /*iters=*/20, /*body=*/1,
       pack_loop_strides(pe::LoopStrides{/*off=*/8, /*word=*/2})},
      {POp::kGetBytes, /*off=*/4, /*slot bytes=*/0, /*len=*/8, 0},
  };
  const VerifyResult res = pe::verify_plan(plan);
  expect_rejected(plan, VerifyCode::kSlotOverflow);
  // With the honest slot count the same plan is fine.
  plan.words_needed = 40;
  EXPECT_TRUE(pe::verify_plan(plan).ok());
  // The facts must report the true high-water mark either way.
  EXPECT_EQ(res.facts.slot_end, 40u);  // 20 iterations * 2 slots
}

// A loop whose extrapolated byte offset exceeds 32 bits: the executor
// computes it * off_stride in uint32, which would silently wrap and
// alias low offsets.  The verifier must flag the loop itself.
TEST(PlanVerifyReject, StrideOverflow) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 64;
  plan.words_needed = 4;
  plan.instrs = {
      {POp::kLoop, 0, /*iters=*/0x20000, /*body=*/1,
       pack_loop_strides(pe::LoopStrides{/*off=*/0x40000, /*word=*/0})},
      {POp::kPutWord, 0, 0, 0, 0},
  };
  expect_rejected(plan, VerifyCode::kStrideOverflow);

  // Word-stride variant: slot displacement (stride * 4 bytes) wraps.
  plan.instrs[0].imm =
      pack_loop_strides(pe::LoopStrides{/*off=*/0, /*word=*/0x60000000});
  expect_rejected(plan, VerifyCode::kStrideOverflow);
}

// Direction mixing: the executor's run-time "unexpected op" branch is
// supposed to be unreachable for admitted plans, so the verifier must
// reject both polarities.
TEST(PlanVerifyReject, DirectionMixed) {
  Plan encode;
  encode.is_encode = true;
  encode.out_size = 4;
  encode.words_needed = 1;
  encode.instrs = {{POp::kGetWord, 0, 0, 0, 0}};
  expect_rejected(encode, VerifyCode::kDirectionMixed);

  Plan decode;
  decode.is_encode = false;
  decode.expected_in = 4;
  decode.words_needed = 1;
  decode.instrs = {
      {POp::kGuardLen, 0, 0, 0, 4},
      {POp::kPutConst, 0, 0, 0, 7},
  };
  expect_rejected(decode, VerifyCode::kDirectionMixed);
}

// Out-of-bounds displacements, both buffers.  A 4-byte store starting
// at out_size - 3 overhangs by one byte and must be caught even though
// its offset is in range.
TEST(PlanVerifyReject, OutOfBoundsDisplacement) {
  Plan encode;
  encode.is_encode = true;
  encode.out_size = 8;
  encode.words_needed = 1;
  encode.instrs = {
      {POp::kPutConst, 0, 0, 0, 1},
      {POp::kPutWord, /*off=*/5, 0, 0, 0},  // writes [5, 9) past 8
  };
  expect_rejected(encode, VerifyCode::kOutOfBoundsOut);

  Plan decode;
  decode.is_encode = false;
  decode.expected_in = 8;
  decode.words_needed = 2;
  decode.instrs = {
      {POp::kGuardLen, 0, 0, 0, 8},
      {POp::kGetWord, /*off=*/8, 0, 0, 0},  // reads [8, 12) past 8
  };
  expect_rejected(decode, VerifyCode::kOutOfBoundsIn);

  // Loop-extrapolated variant: in range for iteration 0, out of range
  // only at the final iteration.
  Plan loop;
  loop.is_encode = true;
  loop.out_size = 4 * 10;
  loop.words_needed = 11;
  loop.instrs = {
      {POp::kLoop, 0, /*iters=*/11, /*body=*/1,
       pack_loop_strides(pe::LoopStrides{/*off=*/4, /*word=*/1})},
      {POp::kPutWord, 0, 0, 0, 0},  // iteration 10 writes [40, 44)
  };
  expect_rejected(loop, VerifyCode::kOutOfBoundsOut);
}

// A kLoop body extending past the instruction stream: the executor
// would walk off the vector.
TEST(PlanVerifyReject, TruncatedLoopBody) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 8;
  plan.words_needed = 2;
  plan.instrs = {
      {POp::kLoop, 0, /*iters=*/2, /*body=*/3,
       pack_loop_strides(pe::LoopStrides{4, 1})},
      {POp::kPutWord, 0, 0, 0, 0},  // only one body instruction exists
  };
  expect_rejected(plan, VerifyCode::kTruncatedLoopBody);
}

// Nested kLoop: the executor interprets the stream flat, so a nested
// loop header would be run as a (misinterpreted) body op.
TEST(PlanVerifyReject, NestedLoop) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 16;
  plan.words_needed = 4;
  plan.instrs = {
      {POp::kLoop, 0, /*iters=*/2, /*body=*/2,
       pack_loop_strides(pe::LoopStrides{8, 2})},
      {POp::kLoop, 0, /*iters=*/2, /*body=*/1,
       pack_loop_strides(pe::LoopStrides{4, 1})},
      {POp::kPutWord, 0, 0, 0, 0},
  };
  expect_rejected(plan, VerifyCode::kNestedLoop);
}

// A decode plan that reads input without any declared length: the
// executor SKIPS its in.size() precheck when expected_in == 0, so such
// a plan would read past short payloads unchecked.
TEST(PlanVerifyReject, MissingLenContract) {
  Plan plan;
  plan.is_encode = false;
  plan.expected_in = 0;
  plan.words_needed = 1;
  plan.instrs = {{POp::kGetWord, 0, 0, 0, 0}};
  expect_rejected(plan, VerifyCode::kMissingLenContract);

  // kSetWordConst never touches the buffer, so a read-free decode plan
  // with expected_in == 0 is legitimate (e.g. a fully-static reply).
  Plan pure;
  pure.is_encode = false;
  pure.expected_in = 0;
  pure.words_needed = 1;
  pure.instrs = {{POp::kSetWordConst, 0, 0, 0, 42}};
  EXPECT_TRUE(pe::verify_plan(pure).ok());
}

// The §6.2 inlen guard and the executor's precheck must agree.
TEST(PlanVerifyReject, GuardLenMismatch) {
  Plan plan;
  plan.is_encode = false;
  plan.expected_in = 12;
  plan.words_needed = 1;
  plan.instrs = {
      {POp::kGuardLen, 0, 0, 0, /*imm=*/16},  // guard says 16, plan says 12
      {POp::kGetWord, 0, 0, 0, 0},
  };
  expect_rejected(plan, VerifyCode::kGuardLenMismatch);
}

// An encode plan leaving a provable gap would send the caller's
// uninitialized buffer bytes onto the wire.
TEST(PlanVerifyReject, IncompleteOutput) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 12;
  plan.words_needed = 1;
  plan.instrs = {
      {POp::kPutConst, 0, 0, 0, 1},
      {POp::kPutWord, /*off=*/8, 0, 0, 0},  // [4, 8) never written
  };
  expect_rejected(plan, VerifyCode::kIncompleteOutput);

  // Filling the gap makes the same plan verify clean, with exact
  // coverage reported in the facts.
  plan.instrs.push_back({POp::kPutConst, /*off=*/4, 0, 0, 0});
  const VerifyResult res = pe::verify_plan(plan);
  EXPECT_TRUE(res.ok()) << res.to_string();
  EXPECT_TRUE(res.facts.coverage_exact);
  EXPECT_EQ(res.facts.out_end, 12u);
}

// Bulk-op pad tails count: kPutBytes writes pad4(b) output bytes, so a
// 5-byte payload at out_size - 5 overhangs via its zero pad.
TEST(PlanVerifyReject, PadTailOverhang) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 9;  // 4 + 5 payload bytes, but pad4(5) = 8
  plan.words_needed = 2;
  plan.instrs = {
      {POp::kPutConst, 0, 0, 0, 5},
      {POp::kPutBytes, /*off=*/4, /*bytes=*/0, /*len=*/5, 0},
  };
  expect_rejected(plan, VerifyCode::kOutOfBoundsOut);
  plan.out_size = 12;  // room for the pad
  EXPECT_TRUE(pe::verify_plan(plan).ok());
}

// ---- class plans: proven for every count <= count_cap ------------------

// A class decode plan over an int array: the count word at byte 0, one
// kGetWord per element.  Verifies clean as built.
Plan class_decode(std::uint32_t cap) {
  Plan plan;
  plan.is_encode = false;
  plan.expected_in = 4;
  plan.in_slope = 4;
  plan.words_slope = 1;
  plan.count_off = 0;
  plan.count_cap = cap;
  plan.instrs = {
      {POp::kGuardLen, 0, 0, 0, 4},
      {POp::kLoop, 0, pe::kCountTrip, 1,
       pack_loop_strides(pe::LoopStrides{/*off=*/4, /*word=*/1})},
      {POp::kGetWord, /*off=*/4, 0, 0, 0},
  };
  return plan;
}

// The loop strides 8 bytes per element but the plan declares 4 more
// input bytes per element: in bounds at count 1 ([4, 8) of 8), past the
// payload at the cap.
TEST(PlanVerifyReject, ClassLoopOutrunsInputSlope) {
  ASSERT_TRUE(pe::verify_plan(class_decode(100)).ok());
  Plan plan = class_decode(100);
  plan.instrs[1].imm = pack_loop_strides(pe::LoopStrides{8, 1});
  expect_rejected(plan, VerifyCode::kOutOfBoundsIn);
  EXPECT_NE(pe::verify_plan(plan).to_string().find("at count 100"),
            std::string::npos);
}

// The wrappers read the count word after checking only the count-0
// length, so it must lie inside the fixed prefix.
TEST(PlanVerifyReject, ClassCountWordOutsidePrefix) {
  Plan plan = class_decode(100);
  plan.count_off = 4;  // [4, 8) is the first element, not the prefix
  expect_rejected(plan, VerifyCode::kCountContract);

  // A count loop needs a count word at all.
  Plan exact = class_decode(100);
  exact.count_off = pe::kNoCount;
  exact.in_slope = exact.words_slope = 0;
  expect_rejected(exact, VerifyCode::kCountContract);
}

// At the cap the last iteration's displacement passes 32 bits, though
// every small count is fine.
TEST(PlanVerifyReject, ClassCapOverflowsDisplacement) {
  Plan plan = class_decode(0x10001);
  plan.in_slope = 0x10000;
  plan.instrs[1].imm = pack_loop_strides(pe::LoopStrides{0x10000, 1});
  expect_rejected(plan, VerifyCode::kStrideOverflow);
  plan.count_cap = 0x1000;
  EXPECT_TRUE(pe::verify_plan(plan).ok()) << pe::verify_plan(plan).to_string();
}

// An encode plan whose element writes 4 of the 8 bytes it declares per
// element leaves a gap from count 1 on.
TEST(PlanVerifyReject, ClassEncodeGapAtSomeCount) {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 4;
  plan.out_slope = 8;
  plan.words_slope = 1;
  plan.count_off = 0;
  plan.count_cap = 64;
  plan.instrs = {
      {POp::kLoop, 0, pe::kCountTrip, 1,
       pack_loop_strides(pe::LoopStrides{/*off=*/8, /*word=*/1})},
      {POp::kPutWord, /*off=*/4, 0, 0, 0},
  };
  expect_rejected(plan, VerifyCode::kIncompleteOutput);
  // Count 0 alone (cap 0) writes only the count word: complete.
  plan.count_cap = 0;
  EXPECT_TRUE(pe::verify_plan(plan).ok());
  // Strides matching the slope tile the output at every count.
  plan.count_cap = 64;
  plan.out_slope = 4;
  plan.instrs[0].imm = pack_loop_strides(pe::LoopStrides{4, 1});
  const VerifyResult res = pe::verify_plan(plan);
  EXPECT_TRUE(res.ok()) << res.to_string();
  EXPECT_TRUE(res.facts.coverage_exact);
  EXPECT_EQ(res.facts.out_end, 4u + 4 * 64);  // taken at the cap
}

// ---- admit-everything: real specializer output -------------------------

idl::ProcDef echo_proc() {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = kProcNum;
  proc.arg_type = idl::t_array_var(idl::t_int(), 2048);
  proc.res_type = idl::t_array_var(idl::t_int(), 2048);
  return proc;
}

void expect_iface_verifies(const core::SpecializedInterface& iface,
                           const std::string& trace) {
  const struct {
    const char* name;
    const pe::Plan& plan;
  } plans[] = {{"encode_call", iface.encode_call_plan()},
               {"decode_reply", iface.decode_reply_plan()},
               {"decode_args", iface.decode_args_plan()},
               {"encode_results", iface.encode_results_plan()}};
  for (const auto& p : plans) {
    const VerifyResult res = pe::verify_plan(p.plan);
    EXPECT_TRUE(res.ok()) << trace << " " << p.name << ": "
                          << res.to_string();
    if (p.plan.is_encode) {
      // Specializer encode plans are exactly-covering by construction
      // (a class plan's facts are taken at its cap).
      EXPECT_TRUE(res.facts.coverage_exact) << trace << " " << p.name;
      EXPECT_EQ(res.facts.out_end, p.plan.out_size_at(p.plan.count_cap))
          << trace << " " << p.name;
    } else {
      // Decode plans always carry the §6.2 length contract.
      EXPECT_TRUE(res.facts.has_len_guard) << trace << " " << p.name;
      EXPECT_GT(p.plan.expected_in, 0u) << trace << " " << p.name;
    }
  }
}

TEST(PlanVerifyAdmit, PaperEchoCorpus) {
  pe::set_verify_mode(pe::VerifyMode::kParanoid);
  for (std::uint32_t n : {20u, 100u, 250u, 500u, 1000u, 2000u}) {
    for (std::uint32_t unroll : {0u, 4u}) {
      core::SpecConfig cfg;
      cfg.arg_counts = {n};
      cfg.res_counts = {n};
      cfg.unroll_factor = unroll;
      auto iface = core::SpecializedInterface::build(echo_proc(), kProg,
                                                     kVers, cfg);
      ASSERT_TRUE(iface.is_ok()) << iface.status().to_string();
      expect_iface_verifies(*iface, "echo n=" + std::to_string(n) +
                                        " unroll=" + std::to_string(unroll));
    }
  }
  pe::set_verify_mode(pe::VerifyMode::kAdmit);
}

// Same generator the three-tier differential test uses: every
// plan-eligible shape the specializer can produce must admit cleanly in
// paranoid mode.  (A verifier that rejects valid plans would silently
// push traffic back onto the generic path — this is the
// false-positive guard.)
idl::TypePtr random_eligible_type(Rng& rng, int depth, bool allow_var) {
  using namespace idl;
  const std::uint32_t kinds = depth >= 2 ? 8u : (allow_var ? 11u : 10u);
  switch (rng.next_below(kinds)) {
    case 0: return t_int();
    case 1: return t_uint();
    case 2: return t_bool();
    case 3: return t_hyper();
    case 4: return t_uhyper();
    case 5: return t_float();
    case 6: return t_double();
    case 7: return t_opaque_fixed(1 + rng.next_below(17));
    case 8: {
      std::vector<Field> fields;
      const std::uint32_t n = 1 + rng.next_below(4);
      for (std::uint32_t i = 0; i < n; ++i) {
        fields.push_back({"f" + std::to_string(i),
                          random_eligible_type(rng, depth + 1, allow_var)});
      }
      return t_struct("s" + std::to_string(depth), std::move(fields));
    }
    case 9:
      return t_array_fixed(random_eligible_type(rng, depth + 1, false),
                           1 + rng.next_below(6));
    default:
      return t_array_var(random_eligible_type(rng, depth + 1, false),
                         1 + rng.next_below(300));
  }
}

TEST(PlanVerifyAdmit, RandomizedShapes) {
  pe::set_verify_mode(pe::VerifyMode::kParanoid);
  Rng rng(0x5EC0DE5u);
  for (int iter = 0; iter < 32; ++iter) {
    const idl::TypePtr type = random_eligible_type(rng, 0, /*allow_var=*/true);
    idl::ProcDef proc;
    proc.name = "verify";
    proc.number = kProcNum;
    proc.arg_type = type;
    proc.res_type = type;

    const idl::Value value = idl::random_value(*type, rng, 12);
    std::vector<std::uint32_t> counts;
    ASSERT_TRUE(pe::collect_counts(*type, value, counts).is_ok());

    core::SpecConfig cfg;
    cfg.arg_counts = counts;
    cfg.res_counts = counts;
    static constexpr std::uint32_t kUnrolls[] = {0, 1, 4, 250};
    cfg.unroll_factor = kUnrolls[iter % 4];
    auto iface = core::SpecializedInterface::build(proc, kProg, kVers, cfg);
    ASSERT_TRUE(iface.is_ok()) << iface.status().to_string();
    expect_iface_verifies(*iface, "iter=" + std::to_string(iter));
  }
  pe::set_verify_mode(pe::VerifyMode::kAdmit);
}

// Class plans of random tail-array types (the differential suite's
// generator shape: optional fixed prefix, scalar / bool / hyper /
// opaque / struct elements) verify clean for every count up to the cap.
TEST(PlanVerifyAdmit, RandomizedClassPlans) {
  pe::set_verify_mode(pe::VerifyMode::kParanoid);
  Rng rng(0xC1A5'5EEDu);
  int verified = 0;
  for (int iter = 0; iter < 64 && verified < 24; ++iter) {
    idl::TypePtr type =
        idl::t_array_var(random_eligible_type(rng, 2, false),
                         3 + rng.next_below(20000));
    if (rng.next_below(2) == 0) {
      type = idl::t_struct("prefixed",
                           {{"p", random_eligible_type(rng, 1, false)},
                            {"tail", type}});
    }
    if (pe::tail_array(*type) == nullptr) continue;  // not a class shape
    idl::ProcDef proc;
    proc.name = "verify";
    proc.number = kProcNum;
    proc.arg_type = type;
    proc.res_type = type;
    auto iface = core::SpecializedInterface::build(proc, kProg, kVers, {});
    ASSERT_TRUE(iface.is_ok()) << idl::type_to_string(*type) << ": "
                               << iface.status().to_string();
    EXPECT_TRUE(iface->decode_args_plan().has_count());
    expect_iface_verifies(*iface, idl::type_to_string(*type));
    ++verified;
  }
  EXPECT_EQ(verified, 24);
  pe::set_verify_mode(pe::VerifyMode::kAdmit);
}

// ---- the admission pass and its knob -----------------------------------

Plan bad_plan() {
  Plan plan;
  plan.is_encode = true;
  plan.out_size = 4;
  plan.words_needed = 1;
  plan.instrs = {{POp::kPutWord, /*off=*/4, 0, 0, 0}};  // [4, 8) past 4
  return plan;
}

TEST(PlanVerifyAdmit, AdmissionKnob) {
  const Plan bad = bad_plan();

  pe::set_verify_mode(pe::VerifyMode::kOff);
  EXPECT_TRUE(pe::verify_admit(bad, "encode_call").is_ok());

  pe::set_verify_mode(pe::VerifyMode::kAdmit);
  const std::int64_t before = pe::verify_reject_count();
  const Status rejected = pe::verify_admit(bad, "encode_call");
  EXPECT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.code(), StatusCode::kOutOfRange);
  // The entry point and the diagnostic both ride in the message.
  EXPECT_NE(rejected.message().find("encode_call"), std::string::npos);
  EXPECT_NE(rejected.message().find(
                pe::verify_code_name(VerifyCode::kOutOfBoundsOut)),
            std::string::npos);
  EXPECT_EQ(pe::verify_reject_count(), before + 1);

  // A good plan admits in every mode.
  Plan good = bad;
  good.instrs[0].off = 0;  // writes exactly [0, 4) = out_size
  EXPECT_TRUE(pe::verify_admit(good, "encode_call").is_ok());
  pe::set_verify_mode(pe::VerifyMode::kParanoid);
  EXPECT_TRUE(pe::verify_admit(good, "encode_call").is_ok());
  pe::set_verify_mode(pe::VerifyMode::kAdmit);
}

// End-to-end through the cache: paranoid mode re-verifies each build,
// and a clean corpus must yield zero spec_cache.verify_rejects.
TEST(PlanVerifyAdmit, SpecCachePassesCleanCorpus) {
  pe::set_verify_mode(pe::VerifyMode::kParanoid);
  core::SpecCache cache;
  core::SpecConfig cfg;
  cfg.arg_counts = {64};
  cfg.res_counts = {64};
  for (int i = 0; i < 3; ++i) {
    auto r = cache.get_or_build(echo_proc(), kProg, kVers, cfg);
    ASSERT_TRUE(r.is_ok());
  }
  const core::SpecCacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.verify_rejects, 0);
  EXPECT_EQ(st.build_failures, 0);
  pe::set_verify_mode(pe::VerifyMode::kAdmit);
}

}  // namespace
}  // namespace tempo
