// Differential testing for the three execution tiers:
//   A. the layered C++ XDR stack (generic),
//   B. the plan executor (src/pe/plan.cpp),
//   C. the native compiled stubs (src/pe/compile.cpp).
//
// Randomized plan-eligible interfaces are pushed through all three on
// the same inputs — including poisoned output buffers, stale XIDs,
// truncated / extended / bit-flipped payloads — and every byte and
// every ExecStatus must agree.  Class plans (one plan for every count)
// are driven the same way at the ends of their count range, past the
// cap, and with count words that overclaim the payload.  Divergences this harness has flushed
// out are pinned as named regression tests at the bottom so they stay
// fixed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/endian.h"
#include "common/rng.h"
#include "core/stubspec.h"
#include "idl/interp.h"
#include "pe/compile.h"
#include "pe/layout.h"
#include "pe/specializer.h"
#include "rpc/rpc_msg.h"
#include "xdr/xdrmem.h"

namespace tempo {
namespace {

constexpr std::uint32_t kProg = 0x20000DD1;
constexpr std::uint32_t kVers = 3;
constexpr std::uint32_t kProcNum = 9;
constexpr std::uint32_t kPoisonWord = 0x6B6B6B6Bu;
constexpr std::uint8_t kPoisonByte = 0xA5;

// ---- random plan-eligible shapes --------------------------------------
//
// The specializer only residualizes types whose layout is static once
// the variable-array counts are pinned: scalars, fixed opaques, structs,
// fixed arrays, and variable arrays whose *element* layout is fixed.
// Strings / optionals / unions stay on the generic path, and variable
// arrays must not nest under another array (their count would multiply).
idl::TypePtr random_eligible_type(Rng& rng, int depth, bool allow_var) {
  using namespace idl;
  // Leaf-only once nested two deep, to keep shapes bounded.
  const std::uint32_t kinds = depth >= 2 ? 8u : (allow_var ? 11u : 10u);
  switch (rng.next_below(kinds)) {
    case 0: return t_int();
    case 1: return t_uint();
    case 2: return t_bool();
    case 3: return t_hyper();
    case 4: return t_uhyper();
    case 5: return t_float();
    case 6: return t_double();
    case 7:
      // 1..17 exercises every pad4 tail residue.
      return t_opaque_fixed(1 + rng.next_below(17));
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
      // Bounds past ~85 push iterations*body over the JIT's full-unroll
      // threshold, so kept loops get native coverage too.
      return t_array_var(random_eligible_type(rng, depth + 1, false),
                         1 + rng.next_below(300));
  }
}

// ---- tier A: the layered C++ path -------------------------------------

Bytes cpp_encode_call(std::uint32_t xid, const idl::Type& arg_type,
                      const idl::Value& arg) {
  Bytes buf(200000);
  xdr::XdrMem x(MutableByteSpan(buf.data(), buf.size()), xdr::XdrOp::kEncode);
  rpc::CallHeader hdr;
  hdr.xid = xid;
  hdr.prog = kProg;
  hdr.vers = kVers;
  hdr.proc = kProcNum;
  EXPECT_TRUE(rpc::xdr_call_header(x, hdr));
  EXPECT_TRUE(idl::encode_value(x, arg_type, arg));
  buf.resize(x.getpos());
  return buf;
}

Bytes cpp_encode_reply(std::uint32_t xid, const idl::Type& res_type,
                       const idl::Value& res) {
  Bytes buf(200000);
  xdr::XdrMem x(MutableByteSpan(buf.data(), buf.size()), xdr::XdrOp::kEncode);
  rpc::ReplyHeader hdr;
  hdr.xid = xid;
  EXPECT_TRUE(rpc::xdr_reply_header(x, hdr));
  EXPECT_TRUE(idl::encode_value(x, res_type, res));
  buf.resize(x.getpos());
  return buf;
}

// ---- executor-vs-stub lockstep ----------------------------------------

// Word slots a decode of `in` is given: EXACTLY the plan's declared
// slots, at the count a class plan's payload claims (clamped to its cap,
// where the precheck rejects anything larger).
std::size_t decode_words(const pe::Plan& plan, ByteSpan in) {
  if (!plan.has_count()) return plan.words_needed;
  return static_cast<std::size_t>(plan.words_needed_at(
      std::min(pe::peek_count(plan, in), plan.count_cap)));
}

// Runs a decode plan and (when compiled) its native stub on identically
// poisoned word arrays sized EXACTLY words_needed — any out-of-bounds
// slot write trips ASan, any divergence in status or partial writes
// (guard-failure paths included) fails here.  Returns the agreed status
// and the executor's words.
pe::ExecStatus diff_decode(const pe::Plan& plan, const pe::CompiledPlan* jit,
                           ByteSpan in, std::uint32_t xid,
                           std::vector<std::uint32_t>* words_out) {
  std::vector<std::uint32_t> wc(decode_words(plan, in), kPoisonWord);
  const pe::ExecStatus sc = run_plan_decode(plan, in, xid, wc);
  if (jit != nullptr) {
    std::vector<std::uint32_t> wj(wc.size(), kPoisonWord);
    const pe::ExecStatus sj = jit->run_decode(in, xid, wj);
    EXPECT_EQ(static_cast<int>(sc), static_cast<int>(sj));
    EXPECT_EQ(wc, wj);
  }
  if (words_out != nullptr) *words_out = std::move(wc);
  return sc;
}

// Same lockstep for an encode plan, poisoned output buffers sized
// EXACTLY for `count` elements (a class plan's count; 0 when exact).
pe::ExecStatus diff_encode(const pe::Plan& plan, const pe::CompiledPlan* jit,
                           std::span<const std::uint32_t> words,
                           std::uint32_t xid, Bytes* bytes_out,
                           std::uint32_t count = 0) {
  Bytes bc(static_cast<std::size_t>(plan.out_size_at(count)), kPoisonByte);
  const pe::ExecStatus sc = run_plan_encode(
      plan, words, xid, MutableByteSpan(bc.data(), bc.size()), nullptr, count);
  if (jit != nullptr) {
    Bytes bj(bc.size(), kPoisonByte);
    const pe::ExecStatus sj = jit->run_encode(
        words, xid, MutableByteSpan(bj.data(), bj.size()), count);
    EXPECT_EQ(static_cast<int>(sc), static_cast<int>(sj));
    EXPECT_EQ(bc, bj);
  }
  if (bytes_out != nullptr) *bytes_out = std::move(bc);
  return sc;
}

bool jit_tier_live() {
  return pe::jit_supported_host() && pe::jit_enabled_by_env();
}

TEST(PlanDiff, RandomizedThreeTierAgreement) {
  Rng rng(0x1CDC5'1998u);
  int interfaces = 0;
  int compiled_stubs = 0;
  int kept_loop_plans = 0;

  for (int iter = 0; iter < 48; ++iter) {
    const idl::TypePtr type = random_eligible_type(rng, 0, /*allow_var=*/true);
    idl::ProcDef proc;
    proc.name = "diff";
    proc.number = kProcNum;
    proc.arg_type = type;
    proc.res_type = type;

    const idl::Value value = idl::random_value(*type, rng, 12);
    std::vector<std::uint32_t> counts;
    ASSERT_TRUE(pe::collect_counts(*type, value, counts).is_ok());
    pe::Slots slots;
    ASSERT_TRUE(pe::flatten_value(*type, value, counts, slots).is_ok());

    core::SpecConfig cfg;
    cfg.arg_counts = counts;
    cfg.res_counts = counts;
    // 0 = full unroll, small factors keep loops, 250 keeps big bodies.
    static constexpr std::uint32_t kUnrolls[] = {0, 1, 4, 250};
    cfg.unroll_factor = kUnrolls[iter % 4];
    auto iface = core::SpecializedInterface::build(proc, kProg, kVers, cfg);
    ASSERT_TRUE(iface.is_ok()) << iface.status().to_string();
    ++interfaces;
    compiled_stubs += iface->jit_stub_count();

    const std::uint32_t xid = rng.next_u32();
    SCOPED_TRACE("iter=" + std::to_string(iter) +
                 " unroll=" + std::to_string(cfg.unroll_factor) +
                 " jit_stubs=" + std::to_string(iface->jit_stub_count()));

    // ---- encode_call: A vs B vs C, byte-for-byte ----------------------
    const pe::Plan& eplan = iface->encode_call_plan();
    for (const auto& ins : eplan.instrs) {
      if (ins.op == pe::POp::kLoop) ++kept_loop_plans;
    }
    const Bytes generic = cpp_encode_call(xid, *type, value);
    ASSERT_EQ(generic.size(), eplan.out_size);
    Bytes call_bytes;
    ASSERT_EQ(diff_encode(eplan, iface->encode_call_jit(), slots, xid,
                          &call_bytes),
              pe::ExecStatus::kOk);
    ASSERT_EQ(call_bytes, generic);

    // ---- decode_reply: valid, stale-xid, truncated, extended ----------
    const pe::Plan& rplan = iface->decode_reply_plan();
    ASSERT_GE(rplan.words_needed, slots.size());
    const Bytes reply = cpp_encode_reply(xid, *type, value);
    ASSERT_EQ(reply.size(), rplan.expected_in);

    std::vector<std::uint32_t> words;
    ASSERT_EQ(diff_decode(rplan, iface->decode_reply_jit(),
                          ByteSpan(reply.data(), reply.size()), xid, &words),
              pe::ExecStatus::kOk);
    ASSERT_TRUE(std::equal(slots.begin(), slots.end(), words.begin()));

    ASSERT_EQ(diff_decode(rplan, iface->decode_reply_jit(),
                          ByteSpan(reply.data(), reply.size()), xid + 1,
                          nullptr),
              pe::ExecStatus::kRetryXid);
    ASSERT_EQ(diff_decode(rplan, iface->decode_reply_jit(),
                          ByteSpan(reply.data(), reply.size() - 1), xid,
                          nullptr),
              pe::ExecStatus::kFallback);
    Bytes extended = reply;
    extended.resize(extended.size() + 4, 0);
    ASSERT_EQ(diff_decode(rplan, iface->decode_reply_jit(),
                          ByteSpan(extended.data(), extended.size()), xid,
                          nullptr),
              pe::ExecStatus::kFallback);

    // ---- decode_reply: bit flips anywhere must diverge nowhere --------
    // A flip in the header trips a guard (identical status AND identical
    // partial writes); a flip in the body yields kOk with identical
    // wrong words.  Either way the tiers stay in lockstep.
    for (int flip = 0; flip < 12; ++flip) {
      Bytes corrupt = reply;
      corrupt[rng.next_below(static_cast<std::uint32_t>(corrupt.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      diff_decode(rplan, iface->decode_reply_jit(),
                  ByteSpan(corrupt.data(), corrupt.size()), xid, nullptr);
    }

    // ---- server side: decode_args / encode_results --------------------
    const pe::Plan& aplan = iface->decode_args_plan();
    ASSERT_GT(aplan.expected_in, 0u);
    ASSERT_GE(generic.size(), aplan.expected_in);
    const std::size_t body_off = generic.size() - aplan.expected_in;
    const ByteSpan args_body(generic.data() + body_off, aplan.expected_in);

    ASSERT_EQ(diff_decode(aplan, iface->decode_args_jit(), args_body,
                          /*xid=*/0, &words),
              pe::ExecStatus::kOk);
    ASSERT_TRUE(std::equal(slots.begin(), slots.end(), words.begin()));
    for (int flip = 0; flip < 8; ++flip) {
      Bytes corrupt(args_body.begin(), args_body.end());
      corrupt[rng.next_below(static_cast<std::uint32_t>(corrupt.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      diff_decode(aplan, iface->decode_args_jit(),
                  ByteSpan(corrupt.data(), corrupt.size()), /*xid=*/0,
                  nullptr);
    }

    const pe::Plan& splan = iface->encode_results_plan();
    ASSERT_EQ(splan.out_size, aplan.expected_in);
    Bytes results_bytes;
    ASSERT_EQ(diff_encode(splan, iface->encode_results_jit(), slots,
                          /*xid=*/0, &results_bytes),
              pe::ExecStatus::kOk);
    ASSERT_EQ(0, std::memcmp(results_bytes.data(), args_body.data(),
                             results_bytes.size()));
  }

  // On a supported host with TEMPO_PLAN_JIT on, the corpus must actually
  // exercise tier C — a silent mass fallback to the executor would make
  // this whole test vacuous.
  if (jit_tier_live()) {
    EXPECT_GT(compiled_stubs, interfaces)
        << "native tier compiled almost nothing";
  } else {
    EXPECT_EQ(compiled_stubs, 0);
  }
  // And the shape generator must produce kept loops, or the native loop
  // codegen path is never compared.
  EXPECT_GT(kept_loop_plans, 0);
}

// The differential corpus above uses matching counts everywhere; this
// case aims specifically at guard-failure lockstep when the *shape*
// disagrees with the specialization (a different client's counts).
TEST(PlanDiff, ShapeMismatchStaysInLockstep) {
  using namespace idl;
  Rng rng(77);
  const TypePtr type =
      t_struct("m", {{"hdr", t_uint()},
                     {"body", t_array_var(t_uint(), 128)},
                     {"tail", t_opaque_fixed(5)}});
  idl::ProcDef proc;
  proc.name = "mismatch";
  proc.number = kProcNum;
  proc.arg_type = type;
  proc.res_type = type;

  for (std::uint32_t unroll : {0u, 4u}) {
    core::SpecConfig cfg;
    cfg.arg_counts = {16};
    cfg.res_counts = {16};
    cfg.unroll_factor = unroll;
    auto iface = core::SpecializedInterface::build(proc, kProg, kVers, cfg);
    ASSERT_TRUE(iface.is_ok());

    // A request whose array really has 9 elements, sent to the
    // 16-element specialization.
    idl::Value value = idl::random_value(*type, rng, 9);
    std::vector<std::uint32_t> counts;
    ASSERT_TRUE(pe::collect_counts(*type, value, counts).is_ok());
    if (counts[0] == 16) continue;  // (can't happen with max_elems=9)
    const Bytes call = cpp_encode_call(1, *type, value);
    const pe::Plan& aplan = iface->decode_args_plan();

    // Shorter than expected → the length precheck fires in both tiers.
    // Same length, different count word → the count guard fires in both.
    ASSERT_EQ(diff_decode(aplan, iface->decode_args_jit(),
                          ByteSpan(call.data() + 40, call.size() - 40),
                          /*xid=*/0, nullptr),
              pe::ExecStatus::kFallback);

    Bytes padded(call.begin() + 40, call.end());
    padded.resize(aplan.expected_in, 0);
    ASSERT_EQ(diff_decode(aplan, iface->decode_args_jit(),
                          ByteSpan(padded.data(), padded.size()),
                          /*xid=*/0, nullptr),
              pe::ExecStatus::kFallback);
  }
}

// ---- class plans: one plan for every count -----------------------------

// Elements a class plan serves: scalars, bools, hypers, opaques and
// structs of those (no fixed arrays of two or more, which would nest a
// loop in the element loop).
idl::TypePtr random_class_element(Rng& rng, int depth) {
  using namespace idl;
  switch (rng.next_below(depth >= 1 ? 6u : 7u)) {
    case 0: return t_int();
    case 1: return t_uint();
    case 2: return t_bool();
    case 3: return t_hyper();
    case 4: return t_double();
    case 5: return t_opaque_fixed(1 + rng.next_below(17));
    default: {
      std::vector<Field> fields;
      const std::uint32_t n = 1 + rng.next_below(3);
      for (std::uint32_t i = 0; i < n; ++i) {
        fields.push_back(
            {"e" + std::to_string(i), random_class_element(rng, depth + 1)});
      }
      return t_struct("elem", std::move(fields));
    }
  }
}

// A tail-array type: the variable array alone, or after a fixed prefix.
idl::TypePtr random_class_type(Rng& rng) {
  using namespace idl;
  TypePtr tail = t_array_var(random_class_element(rng, 0),
                             3 + rng.next_below(300));
  if (rng.next_below(2) == 0) return tail;
  std::vector<Field> fields;
  const std::uint32_t n = 1 + rng.next_below(3);
  for (std::uint32_t i = 0; i < n; ++i) {
    fields.push_back({"p" + std::to_string(i),
                      random_eligible_type(rng, 1, /*allow_var=*/false)});
  }
  fields.push_back({"tail", std::move(tail)});
  return t_struct("prefixed", std::move(fields));
}

// A value of tail-array type `t` whose array holds exactly `n` elements.
idl::Value value_with_count(const idl::Type& t, std::uint32_t n, Rng& rng) {
  idl::ValueList l;
  if (t.kind == idl::Kind::kArrayVar) {
    for (std::uint32_t i = 0; i < n; ++i) {
      l.push_back(idl::random_value(*t.elem, rng));
    }
  } else {
    for (std::size_t i = 0; i + 1 < t.fields.size(); ++i) {
      l.push_back(idl::random_value(*t.fields[i].type, rng));
    }
    l.push_back(value_with_count(*t.fields.back().type, n, rng));
  }
  idl::Value v;
  v.v = std::move(l);
  return v;
}

// The four entry points of one class interface at counts 0, 1, 2,
// cap-1 and cap: generic vs executor vs stub, exactly sized poisoned
// buffers, every byte and every status.  Then cap+1 and count words that
// claim more elements than the payload holds, which must fall back
// without reading past the payload.
void check_class_interface(const idl::TypePtr& type, Rng& rng,
                           int* jit_stubs) {
  SCOPED_TRACE(idl::type_to_string(*type));
  idl::ProcDef proc;
  proc.name = "class";
  proc.number = kProcNum;
  proc.arg_type = type;
  proc.res_type = type;
  auto iface = core::SpecializedInterface::build(proc, kProg, kVers, {});
  ASSERT_TRUE(iface.is_ok()) << iface.status().to_string();
  *jit_stubs += iface->jit_stub_count();
  const pe::Plan& eplan = iface->encode_call_plan();
  const pe::Plan& rplan = iface->decode_reply_plan();
  const pe::Plan& aplan = iface->decode_args_plan();
  const pe::Plan& splan = iface->encode_results_plan();
  for (const pe::Plan* p : {&eplan, &rplan, &aplan, &splan}) {
    ASSERT_TRUE(p->has_count());
  }
  const std::uint32_t cap = eplan.count_cap;
  ASSERT_GE(cap, 3u);
  ASSERT_EQ(aplan.count_cap, cap);
  ASSERT_EQ(rplan.count_cap, splan.count_cap);

  for (const std::uint32_t n : {0u, 1u, 2u, cap - 1, cap}) {
    SCOPED_TRACE("count=" + std::to_string(n));
    const idl::Value value = value_with_count(*type, n, rng);
    const std::vector<std::uint32_t> counts = {n};
    pe::Slots slots;
    ASSERT_TRUE(pe::flatten_value(*type, value, counts, slots).is_ok());
    ASSERT_EQ(static_cast<std::int64_t>(slots.size()), iface->arg_slots(n));
    const std::uint32_t xid = rng.next_u32();

    const Bytes call = cpp_encode_call(xid, *type, value);
    Bytes bytes;
    ASSERT_EQ(diff_encode(eplan, iface->encode_call_jit(), slots, xid,
                          &bytes, n),
              pe::ExecStatus::kOk);
    ASSERT_EQ(bytes, call);

    const Bytes reply = cpp_encode_reply(xid, *type, value);
    const ByteSpan reply_span(reply.data(), reply.size());
    std::vector<std::uint32_t> words;
    ASSERT_EQ(diff_decode(rplan, iface->decode_reply_jit(), reply_span, xid,
                          &words),
              pe::ExecStatus::kOk);
    ASSERT_EQ(words, slots);
    ASSERT_EQ(diff_decode(rplan, iface->decode_reply_jit(), reply_span,
                          xid + 1, nullptr),
              pe::ExecStatus::kRetryXid);
    ASSERT_EQ(diff_decode(rplan, iface->decode_reply_jit(),
                          reply_span.first(reply.size() - 4), xid, nullptr),
              pe::ExecStatus::kFallback);
    Bytes extended = reply;
    extended.resize(extended.size() + 4, 0);
    ASSERT_EQ(diff_decode(rplan, iface->decode_reply_jit(),
                          ByteSpan(extended.data(), extended.size()), xid,
                          nullptr),
              pe::ExecStatus::kFallback);

    const ByteSpan args(call.data() + 40, call.size() - 40);
    ASSERT_EQ(diff_decode(aplan, iface->decode_args_jit(), args, 0, &words),
              pe::ExecStatus::kOk);
    ASSERT_EQ(words, slots);
    for (int flip = 0; flip < 6; ++flip) {
      Bytes corrupt(args.begin(), args.end());
      corrupt[rng.next_below(static_cast<std::uint32_t>(corrupt.size()))] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      diff_decode(aplan, iface->decode_args_jit(),
                  ByteSpan(corrupt.data(), corrupt.size()), 0, nullptr);
    }

    ASSERT_EQ(diff_encode(splan, iface->encode_results_jit(), slots, 0,
                          &bytes, n),
              pe::ExecStatus::kOk);
    ASSERT_EQ(bytes, Bytes(args.begin(), args.end()));
  }

  // cap+1 elements: both encoders refuse the count, both decoders the
  // count word, even with every buffer sized for cap+1.
  const std::uint32_t over = cap + 1;
  std::vector<std::uint32_t> big(
      static_cast<std::size_t>(eplan.words_needed_at(over)), 0);
  ASSERT_EQ(diff_encode(eplan, iface->encode_call_jit(), big, 1, nullptr,
                        over),
            pe::ExecStatus::kFallback);
  ASSERT_EQ(diff_encode(splan, iface->encode_results_jit(), big, 0, nullptr,
                        over),
            pe::ExecStatus::kFallback);
  Bytes over_args(static_cast<std::size_t>(aplan.expected_in_at(over)), 0);
  store_be32(over_args.data() + aplan.count_off, over);
  ASSERT_EQ(diff_decode(aplan, iface->decode_args_jit(),
                        ByteSpan(over_args.data(), over_args.size()), 0,
                        nullptr),
            pe::ExecStatus::kFallback);

  // A count word that claims more elements than the payload holds: the
  // payload sits in an exactly sized heap block, so a read past it
  // trips ASan.
  const idl::Value two = value_with_count(*type, 2, rng);
  const Bytes call = cpp_encode_call(7, *type, two);
  const std::size_t len = call.size() - 40;
  for (const std::uint32_t claim : {3u, cap, 0xFFFFFFFFu}) {
    auto payload = std::make_unique<std::uint8_t[]>(len);
    std::memcpy(payload.get(), call.data() + 40, len);
    store_be32(payload.get() + aplan.count_off, claim);
    ASSERT_EQ(diff_decode(aplan, iface->decode_args_jit(),
                          ByteSpan(payload.get(), len), 0, nullptr),
              pe::ExecStatus::kFallback);
  }
}

TEST(PlanDiffClass, EveryCountAgreesAcrossTiers) {
  Rng rng(0xC1A55u);
  int jit_stubs = 0;
  int interfaces = 0;
  for (int iter = 0; iter < 24; ++iter) {
    check_class_interface(random_class_type(rng), rng, &jit_stubs);
    if (HasFatalFailure()) return;
    ++interfaces;
  }
  // KV_SHIP's shape: the encode buffer does not bind, so cap = bound.
  check_class_interface(idl::t_array_var(idl::t_uint(), 16000), rng,
                        &jit_stubs);
  ++interfaces;
  if (jit_tier_live()) {
    EXPECT_EQ(jit_stubs, 4 * interfaces) << "a class plan did not compile";
  }
}

TEST(PlanDiffClass, CapIsTheBoundOrTheBuffer) {
  idl::ProcDef proc;
  proc.name = "ship";
  proc.number = kProcNum;
  proc.arg_type = idl::t_array_var(idl::t_uint(), 16000);
  proc.res_type = idl::t_array_var(idl::t_int(), 2048);
  auto iface = core::SpecializedInterface::build(proc, kProg, kVers, {});
  ASSERT_TRUE(iface.is_ok()) << iface.status().to_string();
  EXPECT_EQ(iface->decode_args_plan().count_cap, 16000u);
  EXPECT_EQ(iface->encode_results_plan().count_cap, 2048u);

  // A 4 KiB encode buffer binds before the bound: 44 + 4n <= 4096.
  core::SpecConfig small;
  small.buffer_bytes = 4096;
  auto tight = core::SpecializedInterface::build(proc, kProg, kVers, small);
  ASSERT_TRUE(tight.is_ok()) << tight.status().to_string();
  EXPECT_EQ(tight->encode_call_plan().count_cap, (4096u - 44) / 4);
  EXPECT_EQ(tight->decode_args_plan().count_cap, (4096u - 44) / 4);
  EXPECT_EQ(tight->encode_results_plan().count_cap, (4096u - 4) / 4);
}

// The shape ShapeMismatchStaysInLockstep pins has a fixed field after
// its variable array, so the samples differ by more than the count:
// no class plan, and the per-count plans stay as they were.
TEST(PlanDiffClass, NonTailArrayRefusedAsClassPlan) {
  using namespace idl;
  const TypePtr type =
      t_struct("m", {{"hdr", t_uint()},
                     {"body", t_array_var(t_uint(), 128)},
                     {"tail", t_opaque_fixed(5)}});
  EXPECT_EQ(pe::tail_array(*type), nullptr);
  idl::ProcDef proc;
  proc.name = "mismatch";
  proc.number = kProcNum;
  proc.arg_type = type;
  proc.res_type = type;
  EXPECT_FALSE(core::SpecializedInterface::build(proc, kProg, kVers, {})
                   .is_ok());

  // The generalizer refuses the two samples on its own account.
  core::SpecConfig lo, hi;
  lo.arg_counts = lo.res_counts = {pe::kClassSampleLo};
  hi.arg_counts = hi.res_counts = {pe::kClassSampleHi};
  lo.unroll_factor = hi.unroll_factor = 1;
  auto at_lo = core::SpecializedInterface::build(proc, kProg, kVers, lo);
  auto at_hi = core::SpecializedInterface::build(proc, kProg, kVers, hi);
  ASSERT_TRUE(at_lo.is_ok());
  ASSERT_TRUE(at_hi.is_ok());
  EXPECT_FALSE(pe::generalize_count(at_lo->decode_args_plan(),
                                    at_hi->decode_args_plan())
                   .is_ok());
  EXPECT_FALSE(pe::generalize_count(at_lo->encode_call_plan(),
                                    at_hi->encode_call_plan())
                   .is_ok());
  EXPECT_FALSE(at_lo->decode_args_plan().has_count());

  // A tail array's samples generalize, until a second count word
  // differs between them.
  proc.arg_type = proc.res_type = idl::t_array_var(idl::t_int(), 64);
  auto echo_lo = core::SpecializedInterface::build(proc, kProg, kVers, lo);
  auto echo_hi = core::SpecializedInterface::build(proc, kProg, kVers, hi);
  ASSERT_TRUE(echo_lo.is_ok());
  ASSERT_TRUE(echo_hi.is_ok());
  pe::Plan a = echo_lo->decode_args_plan();
  pe::Plan b = echo_hi->decode_args_plan();
  ASSERT_TRUE(pe::generalize_count(a, b).is_ok());
  a.instrs.insert(a.instrs.begin(),
                  {pe::POp::kGuardConstEq, 0, 0, 0, pe::kClassSampleLo});
  b.instrs.insert(b.instrs.begin(),
                  {pe::POp::kGuardConstEq, 0, 0, 0, pe::kClassSampleHi});
  EXPECT_FALSE(pe::generalize_count(a, b).is_ok());
}

// ---- named regressions flushed out by this harness --------------------

// The specializer's loop-extrapolation pass computed words_needed from
// kPutWord/kGetWord slots only; loops whose bodies move data with bulk
// ops (kPutBytes/kGetBytes, byte-offset addressing) or kSetWordConst
// under-reported it.  The executor then indexed past the caller's
// exactly-sized slot vector (latent OOB, caught under ASan), and the
// JIT's defensive bounds audit refused to compile such plans at all —
// which is how the differential pass found it.
TEST(PlanDiffRegression, LoopWordsNeededCoversBulkOps) {
  using namespace idl;
  const TypePtr type = t_array_var(t_opaque_fixed(8), 64);
  idl::ProcDef proc;
  proc.name = "bulkloop";
  proc.number = kProcNum;
  proc.arg_type = type;
  proc.res_type = type;

  core::SpecConfig cfg;
  cfg.arg_counts = {20};
  cfg.res_counts = {20};
  cfg.unroll_factor = 4;  // keeps the loop: 20 iterations of a bulk body
  auto iface = core::SpecializedInterface::build(proc, kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  auto needed = pe::type_slots(*type, cfg.arg_counts);
  ASSERT_TRUE(needed.is_ok());
  ASSERT_EQ(*needed, 40u);  // 20 * 2 slots of opaque(8)
  // Pre-fix these reported 33 (count + 16 extrapolated + pad slop).
  EXPECT_GE(iface->encode_call_plan().words_needed, *needed);
  EXPECT_GE(iface->decode_args_plan().words_needed, *needed);

  // Round-trip through vectors sized EXACTLY words_needed; under ASan
  // this is the regression proper.
  Rng rng(3);
  idl::Value value;
  std::vector<std::uint32_t> counts;
  do {  // random_value draws the element count too; we need exactly 20
    value = idl::random_value(*type, rng, 20);
    counts.clear();
    ASSERT_TRUE(pe::collect_counts(*type, value, counts).is_ok());
  } while (counts != cfg.arg_counts);
  pe::Slots slots;
  ASSERT_TRUE(pe::flatten_value(*type, value, counts, slots).is_ok());

  const Bytes call = cpp_encode_call(7, *type, value);
  Bytes encoded;
  ASSERT_EQ(diff_encode(iface->encode_call_plan(), iface->encode_call_jit(),
                        slots, 7, &encoded),
            pe::ExecStatus::kOk);
  ASSERT_EQ(encoded, call);

  const pe::Plan& aplan = iface->decode_args_plan();
  std::vector<std::uint32_t> words;
  ASSERT_EQ(diff_decode(aplan, iface->decode_args_jit(),
                        ByteSpan(call.data() + 40, call.size() - 40),
                        /*xid=*/0, &words),
            pe::ExecStatus::kOk);
  ASSERT_EQ(words.size(), aplan.words_needed);
  ASSERT_TRUE(std::equal(slots.begin(), slots.end(), words.begin()));

  // The fix is also what lets the native tier accept these plans.
  if (jit_tier_live()) {
    EXPECT_NE(iface->encode_call_jit(), nullptr);
    EXPECT_NE(iface->decode_args_jit(), nullptr);
  }
}

// kLoop strides ride packed in PInstr::imm as
// (byte-stride << 32) | word-stride.  The packer, the executor and the
// native compiler must agree bit-for-bit; historically the unpacking
// was open-coded at each site, where a missing cast silently truncates
// or sign-extends.  Boundary values through the one shared codec.
TEST(PlanDiffRegression, LoopStridePackingBoundaries) {
  using pe::LoopStrides;
  const std::uint32_t probes[] = {0u,          1u,          2u,
                                  0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu};
  for (std::uint32_t off : probes) {
    for (std::uint32_t word : probes) {
      const std::uint64_t imm =
          pe::pack_loop_strides(LoopStrides{off, word});
      EXPECT_EQ(imm, (static_cast<std::uint64_t>(off) << 32) | word);
      const LoopStrides back = pe::unpack_loop_strides(imm);
      EXPECT_EQ(back.off_stride, off);
      EXPECT_EQ(back.word_stride, word);
    }
  }
  // A large byte stride must never bleed into the word stride (the
  // truncation bug a 32-bit intermediate would cause).
  const LoopStrides s = pe::unpack_loop_strides(0xFFFFFFFF'00000000ull);
  EXPECT_EQ(s.off_stride, 0xFFFFFFFFu);
  EXPECT_EQ(s.word_stride, 0u);
}

}  // namespace
}  // namespace tempo
