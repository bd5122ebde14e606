// Plan -> native code lowering.  See compile.h for the design overview.
//
// The backend is split so each half stays testable:
//   fuse_plan()     Plan -> FusedProgram: unroll/merge/bake + eligibility.
//                   Pure data transformation, byte-exact semantics match
//                   with the plan executor is decided HERE.
//   emit_x86_64()   FusedProgram -> machine code bytes.  Pure byte
//                   generation, so the byte-level tests run on any
//                   build host; only an x86-64 host executes it.
//   ExecMem         W^X page handling (mmap RW, copy, mprotect RX).
//
// Calling conventions of the generated stubs (SysV):
//   encode: uint32_t fn(const uint32_t* words, uint32_t xid,
//                       uint8_t* out, const uint8_t* tmpl, uint32_t count)
//   decode: uint32_t fn(const uint8_t* in, uint64_t inlen,
//                       uint32_t xid, uint32_t* words, uint32_t count)
// `count` is a class plan's element count, already checked by the
// wrapper; stubs of exact plans never read it.  The return value is the
// ExecStatus numeric code (0 ok, 1 fallback, 2 retry-xid), which keeps
// the wrapper a single cast.

#include "pe/compile.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/endian.h"
#include "pe/verify.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define TEMPO_JIT_HAVE_MMAP 1
#else
#define TEMPO_JIT_HAVE_MMAP 0
#endif

namespace tempo::pe {

namespace jit_internal {

namespace {

// Displacements are emitted as 32-bit immediates on both targets; cap
// well below INT32_MAX so offset+length arithmetic can never wrap.
constexpr std::uint64_t kMaxDisp = 1u << 30;

using K = FusedOp::K;

}  // namespace

// ---------------------------------------------------------------------------
// Stage 1: Plan -> FusedProgram
// ---------------------------------------------------------------------------

bool fuse_plan(const Plan& plan, FusedProgram* prog, std::string* why) {
  prog->is_encode = plan.is_encode;
  prog->has_count = plan.has_count();
  prog->out_size = plan.out_size;
  prog->expected_in = plan.expected_in;
  prog->words_needed = plan.words_needed;
  prog->ops.clear();
  prog->tmpl.clear();
  auto refuse = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  // Memory safety is the verifier's job, not re-audited here: an
  // admitted plan's accesses provably stay inside out_size /
  // expected_in / words_needed on every loop iteration, so the lowering
  // below only checks what is JIT-specific — the disp32 displacement
  // range and template bake conflicts.
  const VerifyResult verdict = verify_plan(plan);
  if (!verdict.ok()) {
    if (why != nullptr) *why = verdict.to_string();
    return false;
  }
  const std::uint32_t cap = plan.count_cap;
  if (plan.out_size_at(cap) > kMaxDisp || plan.expected_in_at(cap) > kMaxDisp ||
      plan.words_needed_at(cap) > kMaxDisp / 4) {
    return refuse("declared bounds exceed the jit displacement range");
  }
  std::vector<std::uint8_t> baked;
  if (plan.is_encode) {
    // A count loop's body is lowered at its iteration-0 offsets, which
    // lie past the count-0 size.
    const auto size = static_cast<std::size_t>(
        plan.has_count() ? plan.out_size_at(1) : plan.out_size);
    prog->tmpl.assign(size, 0);
    baked.assign(size, 0);
  }

  auto push_or_merge = [&](FusedOp op) {
    if (!prog->ops.empty()) {
      FusedOp& prev = prog->ops.back();
      const bool contiguous_tmpl = prev.k == K::kCopyTmpl &&
                                   op.k == K::kCopyTmpl &&
                                   op.off == prev.off + prev.b;
      // Bulk copies only chain when the earlier op had no pad tail
      // (b % 4 == 0) and both the buffer and the word-array sides are
      // contiguous; the merged op keeps the new op's pad.
      const bool contiguous_copy =
          (prev.k == K::kCopyArgBytes || prev.k == K::kCopyResBytes) &&
          op.k == prev.k && prev.b % 4 == 0 && op.off == prev.off + prev.b &&
          op.a == prev.a + prev.b;
      if (contiguous_tmpl || contiguous_copy) {
        prev.b += op.b;
        return;
      }
    }
    prog->ops.push_back(op);
  };

  // Lower one plan instruction with loop displacements already applied
  // (doff in bytes, dword in word slots).  Mirrors apply_encode /
  // apply_decode in plan.cpp op for op.  Direction consistency, loop
  // shape, and all buffer/slot bounds were proven by verify_plan above;
  // the only refusals left are disp32-range and template conflicts.
  auto lower_one = [&](const PInstr& ins, std::uint64_t doff,
                       std::uint64_t dword) -> bool {
    const std::uint64_t off = ins.off + doff;
    if (off > kMaxDisp) {
      return refuse("buffer offset exceeds the jit displacement range");
    }
    const auto off32 = static_cast<std::uint32_t>(off);
    switch (ins.op) {
      case POp::kPutConst: {
        if (off + 4 > prog->tmpl.size()) {
          return refuse("constant lies outside the template image");
        }
        std::uint8_t be[4];
        store_be32(be, static_cast<std::uint32_t>(ins.imm));
        for (int i = 0; i < 4; ++i) {
          // Two different constants landing on the same template byte
          // cannot share one image; bail (never happens for plans the
          // specializer emits, where const offsets are distinct).
          if (baked[off + i] && prog->tmpl[off + i] != be[i]) {
            return refuse("conflicting constants bake to one template byte");
          }
          prog->tmpl[off + i] = be[i];
          baked[off + i] = 1;
        }
        push_or_merge({K::kCopyTmpl, off32, 0, 4, 0});
        return true;
      }
      case POp::kPutWord: {
        const std::uint64_t sbytes = (ins.a + dword) * 4;
        push_or_merge(
            {K::kStoreWord, off32, static_cast<std::uint32_t>(sbytes), 0, 0});
        return true;
      }
      case POp::kPutXid:
        push_or_merge({K::kStoreXid, off32, 0, 0, 0});
        return true;
      case POp::kPutBytes: {
        const std::uint64_t src = ins.a + dword * 4;
        if (src > kMaxDisp) {
          return refuse("slot offset exceeds the jit displacement range");
        }
        push_or_merge({K::kCopyArgBytes, off32,
                       static_cast<std::uint32_t>(src), ins.b, 0});
        return true;
      }
      case POp::kGetWord: {
        const std::uint64_t dbytes = (ins.a + dword) * 4;
        push_or_merge(
            {K::kLoadWord, off32, static_cast<std::uint32_t>(dbytes), 0, 0});
        return true;
      }
      case POp::kSetWordConst: {
        const std::uint64_t dbytes = (ins.a + dword) * 4;
        push_or_merge({K::kSetWord, 0, static_cast<std::uint32_t>(dbytes), 0,
                       static_cast<std::uint32_t>(ins.imm)});
        return true;
      }
      case POp::kGetBytes: {
        const std::uint64_t dst = ins.a + dword * 4;
        if (dst > kMaxDisp) {
          return refuse("slot offset exceeds the jit displacement range");
        }
        push_or_merge({K::kCopyResBytes, off32,
                       static_cast<std::uint32_t>(dst), ins.b, 0});
        return true;
      }
      case POp::kGuardConstEq:
        // The executor compares against the low 32 bits of imm.
        prog->ops.push_back({K::kGuardEq, off32, 0, 0,
                             static_cast<std::uint32_t>(ins.imm)});
        return true;
      case POp::kGuardXid:
        prog->ops.push_back({K::kGuardXid, off32, 0, 0, 0});
        return true;
      case POp::kGuardBool:
        prog->ops.push_back({K::kGuardBool, off32, 0, 0, 0});
        return true;
      case POp::kGuardLen:
        // A class plan's length guard restates the wrapper's precheck
        // (in.size() == expected_in_at(count)), which has already run.
        if (!plan.has_count()) {
          prog->ops.push_back({K::kGuardLen, 0, 0, 0, ins.imm});
        }
        return true;
      case POp::kLoop:
        // Unreachable: verify_plan rejected nested loops already.
        return refuse("nested loop");
    }
    return refuse("unknown op");
  };

  const std::size_t n = plan.instrs.size();
  std::size_t i = 0;
  while (i < n) {
    const PInstr& ins = plan.instrs[i];
    if (ins.op != POp::kLoop) {
      if (!lower_one(ins, 0, 0)) return false;
      ++i;
      continue;
    }
    const std::uint32_t iters = ins.a;
    const std::uint32_t body = ins.b;  // in-range: verify_plan checked
    const LoopStrides s = unpack_loop_strides(ins.imm);
    if (iters == 0 || body == 0) {  // executor skips the body entirely
      i += 1 + body;
      continue;
    }
    if (iters == kCountTrip) {
      // Unrolled k-wide; k <= cap keeps every unrolled displacement
      // inside the verified final-iteration range.
      std::uint32_t k = std::max<std::uint32_t>(1, kJitCountLoopOps / body);
      k = std::max<std::uint32_t>(1, std::min(k, cap));
      if (cap > 0 &&
          (std::uint64_t{cap - 1} * s.off_stride > kMaxDisp ||
           std::uint64_t{cap - 1} * s.word_stride * 4 > kMaxDisp ||
           std::uint64_t{k} * s.off_stride > kMaxDisp ||
           std::uint64_t{k} * s.word_stride * 4 > kMaxDisp)) {
        return refuse("loop displacement exceeds the jit range");
      }
      prog->ops.push_back({K::kLoopBegin, 0, kCountTrip, k, ins.imm});
      for (std::uint32_t j = 0; j < body; ++j) {
        if (!lower_one(plan.instrs[i + 1 + j], 0, 0)) return false;
      }
      prog->ops.push_back({K::kLoopEnd, 0, 0, 0, 0});
      i += 1 + body;
      continue;
    }
    if (std::uint64_t{iters} * body <= kJitFullUnrollOps) {
      for (std::uint32_t it = 0; it < iters; ++it) {
        for (std::uint32_t j = 0; j < body; ++j) {
          if (!lower_one(plan.instrs[i + 1 + j],
                         std::uint64_t{it} * s.off_stride,
                         std::uint64_t{it} * s.word_stride)) {
            return false;
          }
        }
      }
    } else {
      // A kept loop runs its ops with displacement registers added; the
      // final-iteration displacement must itself stay in disp32 range.
      if (s.off_stride > kMaxDisp ||
          std::uint64_t{s.word_stride} * 4 > kMaxDisp ||
          std::uint64_t{iters - 1} * s.off_stride > kMaxDisp ||
          std::uint64_t{iters - 1} * s.word_stride * 4 > kMaxDisp) {
        return refuse("loop displacement exceeds the jit range");
      }
      prog->ops.push_back({K::kLoopBegin, 0, iters, 0, ins.imm});
      for (std::uint32_t j = 0; j < body; ++j) {
        if (!lower_one(plan.instrs[i + 1 + j], 0, 0)) return false;
      }
      prog->ops.push_back({K::kLoopEnd, 0, 0, 0, 0});
    }
    i += 1 + body;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Stage 2: x86-64 emitter
// ---------------------------------------------------------------------------
//
// Register plan (SysV args are moved out of the rep-movsb registers up
// front, so rax/rcx/rdx/rsi/rdi stay free as scratch):
//   encode: r9 = words, r10d = xid, r11 = out,   r8 = tmpl
//   decode: r9 = in,    r10 = inlen, r11d = xid, r8 = words
// A residual loop pushes rbx/r12/r13: rbx = down-counter, r12 = buffer
// byte displacement, r13 = word-array byte displacement; memory
// operands then take the form [base + r12/r13 + disp32].  A class
// plan's stub also pushes r14 and keeps the count argument there.

namespace {

constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsi = 6, kRdi = 7;
constexpr int kR8 = 8, kR9 = 9, kR10 = 10, kR11 = 11, kR12 = 12, kR13 = 13;
constexpr int kR14 = 14;

// Copies at or above this size use rep movsb; below it, an unrolled
// 8/4/2/1-byte mov sequence (no setup latency, no flag clobber).
constexpr std::uint32_t kRepMovsCutoff = 64;

class X86 {
 public:
  std::vector<std::uint8_t> code;

  struct Mem {
    int base;
    int index;  // -1 = none; scale is always 1
    std::int32_t disp;
  };

  std::size_t pos() const { return code.size(); }
  void u8(std::uint8_t b) { code.push_back(b); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void rex(bool w, int reg, int index, int base) {
    const std::uint8_t r =
        0x40 | (w ? 8 : 0) | (((reg >> 3) & 1) << 2) |
        ((index >= 0 ? (index >> 3) & 1 : 0) << 1) | ((base >> 3) & 1);
    if (r != 0x40) u8(r);
  }

  // ModRM (+ SIB) with a mandatory disp32: uniform and simple; the
  // stubs are straight-line enough that the size cost is noise.
  void modrm_mem(int reg, const Mem& m) {
    if (m.index >= 0) {
      u8(0x80 | ((reg & 7) << 3) | 4);
      u8(((m.index & 7) << 3) | (m.base & 7));  // scale = 1
    } else if ((m.base & 7) == 4) {
      u8(0x80 | ((reg & 7) << 3) | 4);
      u8(0x24);
    } else {
      u8(0x80 | ((reg & 7) << 3) | (m.base & 7));
    }
    u32(static_cast<std::uint32_t>(m.disp));
  }
  void modrm_reg(int reg, int rm) { u8(0xC0 | ((reg & 7) << 3) | (rm & 7)); }

  void mov_rr64(int dst, int src) {
    rex(true, src, -1, dst);
    u8(0x89);
    modrm_reg(src, dst);
  }
  void mov_rr32(int dst, int src) {
    rex(false, src, -1, dst);
    u8(0x89);
    modrm_reg(src, dst);
  }
  void load(int bits, int reg, const Mem& m) {
    if (bits == 16) u8(0x66);
    rex(bits == 64, reg, m.index, m.base);
    u8(bits == 8 ? 0x8A : 0x8B);
    modrm_mem(reg, m);
  }
  void store(int bits, const Mem& m, int reg) {
    if (bits == 16) u8(0x66);
    rex(bits == 64, reg, m.index, m.base);
    u8(bits == 8 ? 0x88 : 0x89);
    modrm_mem(reg, m);
  }
  void store8_imm(const Mem& m, std::uint8_t v) {
    rex(false, 0, m.index, m.base);
    u8(0xC6);
    modrm_mem(0, m);
    u8(v);
  }
  void store32_imm(const Mem& m, std::uint32_t v) {
    rex(false, 0, m.index, m.base);
    u8(0xC7);
    modrm_mem(0, m);
    u32(v);
  }
  void bswap32(int r) {
    rex(false, 0, -1, r);
    u8(0x0F);
    u8(0xC8 | (r & 7));
  }
  void mov_imm32(int r, std::uint32_t v) {
    rex(false, 0, -1, r);
    u8(0xB8 | (r & 7));
    u32(v);
  }
  void mov_imm64(int r, std::uint64_t v) {
    rex(true, 0, -1, r);
    u8(0xB8 | (r & 7));
    u64(v);
  }
  void lea(int r, const Mem& m) {
    rex(true, r, m.index, m.base);
    u8(0x8D);
    modrm_mem(r, m);
  }
  void add_r64_imm32(int r, std::int32_t v) {
    rex(true, 0, -1, r);
    u8(0x81);
    modrm_reg(0, r);
    u32(static_cast<std::uint32_t>(v));
  }
  void cmp_r32_imm32(int r, std::uint32_t v) {
    rex(false, 0, -1, r);
    u8(0x81);
    modrm_reg(7, r);
    u32(v);
  }
  void cmp_r64_imm32(int r, std::int32_t v) {
    rex(true, 0, -1, r);
    u8(0x81);
    modrm_reg(7, r);
    u32(static_cast<std::uint32_t>(v));
  }
  void cmp_rr32(int a, int b) {  // cmp a, b
    rex(false, b, -1, a);
    u8(0x39);
    modrm_reg(b, a);
  }
  void cmp_rr64(int a, int b) {
    rex(true, b, -1, a);
    u8(0x39);
    modrm_reg(b, a);
  }
  void xor_self32(int r) {
    rex(false, r, -1, r);
    u8(0x31);
    modrm_reg(r, r);
  }
  void sub_r32_imm32(int r, std::uint32_t v) {
    rex(false, 0, -1, r);
    u8(0x81);
    modrm_reg(5, r);
    u32(v);
  }
  void dec32(int r) {
    rex(false, 0, -1, r);
    u8(0xFF);
    modrm_reg(1, r);
  }
  void push64(int r) {
    if (r >= 8) u8(0x41);
    u8(0x50 | (r & 7));
  }
  void pop64(int r) {
    if (r >= 8) u8(0x41);
    u8(0x58 | (r & 7));
  }
  void rep_movsb() {
    u8(0xF3);
    u8(0xA4);
  }
  void ret() { u8(0xC3); }

  // Forward jumps: emit with a zero rel32, patch once targets are laid
  // out.  Backward jumps know their target immediately.
  std::size_t jcc_fwd(std::uint8_t cc) {
    u8(0x0F);
    u8(0x80 | cc);
    const std::size_t at = pos();
    u32(0);
    return at;
  }
  std::size_t jmp_fwd() {
    u8(0xE9);
    const std::size_t at = pos();
    u32(0);
    return at;
  }
  void jcc_back(std::uint8_t cc, std::size_t target) {
    u8(0x0F);
    u8(0x80 | cc);
    u32(static_cast<std::uint32_t>(target - (pos() + 4)));
  }
  void patch(std::size_t at, std::size_t target) {
    const auto rel = static_cast<std::uint32_t>(target - (at + 4));
    for (int i = 0; i < 4; ++i) {
      code[at + i] = static_cast<std::uint8_t>(rel >> (8 * i));
    }
  }
};

constexpr std::uint8_t kCcB = 2;   // jb (unsigned below)
constexpr std::uint8_t kCcAe = 3;  // jae (unsigned above or equal)
constexpr std::uint8_t kCcE = 4;   // je
constexpr std::uint8_t kCcNe = 5;  // jne
constexpr std::uint8_t kCcA = 7;   // ja (unsigned above)

void x86_copy(X86& a, int src_base, int src_idx, std::uint32_t src_off,
              int dst_base, int dst_idx, std::uint32_t dst_off,
              std::uint32_t len) {
  if (len >= kRepMovsCutoff) {
    a.lea(kRsi, {src_base, src_idx, static_cast<std::int32_t>(src_off)});
    a.lea(kRdi, {dst_base, dst_idx, static_cast<std::int32_t>(dst_off)});
    a.mov_imm32(kRcx, len);
    a.rep_movsb();  // DF is 0 on entry per the ABI
    return;
  }
  std::uint32_t o = 0;
  for (int bits : {64, 32, 16, 8}) {
    const std::uint32_t step = static_cast<std::uint32_t>(bits) / 8;
    while (len - o >= step) {
      a.load(bits, kRax,
             {src_base, src_idx, static_cast<std::int32_t>(src_off + o)});
      a.store(bits, {dst_base, dst_idx, static_cast<std::int32_t>(dst_off + o)},
              kRax);
      o += step;
      if (bits < 64) break;  // at most one of each tail size
    }
  }
}

}  // namespace

std::vector<std::uint8_t> emit_x86_64(const FusedProgram& p) {
  X86 a;
  bool has_loop = false;
  for (const FusedOp& op : p.ops) {
    if (op.k == K::kLoopBegin) has_loop = true;
  }
  if (has_loop) {
    a.push64(kRbx);
    a.push64(kR12);
    a.push64(kR13);
  }
  if (p.has_count) {
    a.push64(kR14);
    a.mov_rr32(kR14, kR8);  // count, before r8 is reused
  }
  // Move args out of the scratch/string registers (see register plan).
  if (p.is_encode) {
    a.mov_rr64(kR9, kRdi);   // words
    a.mov_rr32(kR10, kRsi);  // xid
    a.mov_rr64(kR11, kRdx);  // out
    a.mov_rr64(kR8, kRcx);   // tmpl
  } else {
    a.mov_rr64(kR9, kRdi);   // in
    a.mov_rr64(kR10, kRsi);  // inlen
    a.mov_rr32(kR11, kRdx);  // xid
    a.mov_rr64(kR8, kRcx);   // words
  }
  const int buf = p.is_encode ? kR11 : kR9;  // out (encode) / in (decode)
  const int words = p.is_encode ? kR9 : kR8;

  enum Target { kFb = 0, kRx = 1, kEpi = 2 };
  std::vector<std::pair<std::size_t, Target>> fixups;
  auto jcc_to = [&](std::uint8_t cc, Target t) {
    fixups.emplace_back(a.jcc_fwd(cc), t);
  };

  bool in_loop = false;
  std::size_t loop_top = 0;
  LoopStrides loop_s;
  const auto bidx = [&]() { return in_loop ? kR12 : -1; };
  const auto widx = [&]() { return in_loop ? kR13 : -1; };
  const auto d32 = [](std::uint32_t v) { return static_cast<std::int32_t>(v); };

  // One fused op; `doff` / `dword` shift its buffer / word-array
  // offsets (the unrolled copies of a count loop body).
  auto emit_op = [&](const FusedOp& op, std::uint32_t doff,
                     std::uint32_t dword) {
    switch (op.k) {
      case K::kCopyTmpl:
        // Template bytes live at the iteration-0 offset; only the
        // output cursor advances across iterations.
        x86_copy(a, kR8, -1, op.off, kR11, bidx(), op.off + doff, op.b);
        break;
      case K::kStoreWord:
        a.load(32, kRax, {words, widx(), d32(op.a + dword)});
        a.bswap32(kRax);
        a.store(32, {buf, bidx(), d32(op.off + doff)}, kRax);
        break;
      case K::kStoreXid:
        a.mov_rr32(kRax, kR10);
        a.bswap32(kRax);
        a.store(32, {buf, bidx(), d32(op.off + doff)}, kRax);
        break;
      case K::kCopyArgBytes: {
        x86_copy(a, words, widx(), op.a + dword, buf, bidx(), op.off + doff,
                 op.b);
        const auto padded = static_cast<std::uint32_t>(xdr_pad4(op.b));
        for (std::uint32_t i = op.b; i < padded; ++i) {
          a.store8_imm({buf, bidx(), d32(op.off + doff + i)}, 0);
        }
        break;
      }
      case K::kLoadWord:
        a.load(32, kRax, {buf, bidx(), d32(op.off + doff)});
        a.bswap32(kRax);
        a.store(32, {words, widx(), d32(op.a + dword)}, kRax);
        break;
      case K::kSetWord:
        a.store32_imm({words, widx(), d32(op.a + dword)},
                      static_cast<std::uint32_t>(op.imm));
        break;
      case K::kCopyResBytes: {
        x86_copy(a, buf, bidx(), op.off + doff, words, widx(), op.a + dword,
                 op.b);
        const auto padded = static_cast<std::uint32_t>(xdr_pad4(op.b));
        for (std::uint32_t i = op.b; i < padded; ++i) {
          a.store8_imm({words, widx(), d32(op.a + dword + i)}, 0);
        }
        break;
      }
      case K::kGuardEq:
        a.load(32, kRax, {buf, bidx(), d32(op.off + doff)});
        a.bswap32(kRax);
        a.cmp_r32_imm32(kRax, static_cast<std::uint32_t>(op.imm));
        jcc_to(kCcNe, kFb);
        break;
      case K::kGuardXid:
        a.load(32, kRax, {buf, bidx(), d32(op.off + doff)});
        a.bswap32(kRax);
        a.cmp_rr32(kRax, kR11);
        jcc_to(kCcNe, kRx);
        break;
      case K::kGuardBool:
        a.load(32, kRax, {buf, bidx(), d32(op.off + doff)});
        a.bswap32(kRax);
        a.cmp_r32_imm32(kRax, 1);
        jcc_to(kCcA, kFb);
        break;
      case K::kGuardLen:
        if (op.imm <= 0x7FFFFFFFull) {
          a.cmp_r64_imm32(kR10, static_cast<std::int32_t>(op.imm));
        } else {
          a.mov_imm64(kRax, op.imm);
          a.cmp_rr64(kR10, kRax);
        }
        jcc_to(kCcNe, kFb);
        break;
      case K::kLoopBegin:
      case K::kLoopEnd:
        break;  // handled by the walk below
    }
  };

  // Advances the displacement registers by `times` iterations.
  auto step = [&](std::uint32_t times) {
    a.add_r64_imm32(kR12, d32(loop_s.off_stride * times));
    a.add_r64_imm32(kR13, d32(loop_s.word_stride * 4 * times));
  };

  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    const FusedOp& op = p.ops[i];
    if (op.k == K::kLoopBegin && op.a == kCountTrip) {
      // Count loop: ebx = count; k-wide trips, then a remainder loop;
      // count 0 skips the body.
      std::size_t end = i + 1;
      while (p.ops[end].k != K::kLoopEnd) ++end;
      const std::uint32_t k = op.b;
      loop_s = unpack_loop_strides(op.imm);
      in_loop = true;
      a.mov_rr32(kRbx, kR14);
      a.xor_self32(kR12);
      a.xor_self32(kR13);
      if (k > 1) {
        a.cmp_r32_imm32(kRbx, k);
        const std::size_t to_rem = a.jcc_fwd(kCcB);
        const std::size_t top = a.pos();
        for (std::uint32_t u = 0; u < k; ++u) {
          for (std::size_t j = i + 1; j < end; ++j) {
            emit_op(p.ops[j], loop_s.off_stride * u,
                    loop_s.word_stride * 4 * u);
          }
        }
        step(k);
        a.sub_r32_imm32(kRbx, k);
        a.cmp_r32_imm32(kRbx, k);
        a.jcc_back(kCcAe, top);
        a.patch(to_rem, a.pos());
      }
      a.cmp_r32_imm32(kRbx, 0);
      const std::size_t to_done = a.jcc_fwd(kCcE);
      const std::size_t top = a.pos();
      for (std::size_t j = i + 1; j < end; ++j) emit_op(p.ops[j], 0, 0);
      step(1);
      a.dec32(kRbx);
      a.jcc_back(kCcNe, top);
      a.patch(to_done, a.pos());
      in_loop = false;
      i = end;
      continue;
    }
    switch (op.k) {
      case K::kLoopBegin:
        a.mov_imm32(kRbx, op.a);
        a.xor_self32(kR12);
        a.xor_self32(kR13);
        loop_top = a.pos();
        loop_s = unpack_loop_strides(op.imm);
        in_loop = true;
        break;
      case K::kLoopEnd:
        step(1);
        a.dec32(kRbx);
        a.jcc_back(kCcNe, loop_top);
        in_loop = false;
        break;
      default:
        emit_op(op, 0, 0);
    }
  }

  a.xor_self32(kRax);  // ExecStatus::kOk
  fixups.emplace_back(a.jmp_fwd(), kEpi);
  const std::size_t fb_at = a.pos();
  a.mov_imm32(kRax, 1);  // ExecStatus::kFallback
  fixups.emplace_back(a.jmp_fwd(), kEpi);
  const std::size_t rx_at = a.pos();
  a.mov_imm32(kRax, 2);  // ExecStatus::kRetryXid
  const std::size_t epi_at = a.pos();
  if (p.has_count) a.pop64(kR14);
  if (has_loop) {
    a.pop64(kR13);
    a.pop64(kR12);
    a.pop64(kRbx);
  }
  a.ret();
  for (const auto& [at, t] : fixups) {
    a.patch(at, t == kFb ? fb_at : t == kRx ? rx_at : epi_at);
  }
  return std::move(a.code);
}

}  // namespace jit_internal

// ---------------------------------------------------------------------------
// Stage 3: executable memory + the public CompiledPlan wrapper
// ---------------------------------------------------------------------------

struct CompiledPlan::ExecMem {
  void* base = nullptr;
  std::size_t len = 0;

  ~ExecMem() {
#if TEMPO_JIT_HAVE_MMAP
    if (base != nullptr) ::munmap(base, len);
#endif
  }

  // W^X: the mapping is writable during the copy, executable after, and
  // never both.  Any failure returns null and the caller keeps the plan
  // executor — JIT availability is strictly best-effort.
  static std::unique_ptr<ExecMem> create(const std::vector<std::uint8_t>& code) {
#if TEMPO_JIT_HAVE_MMAP
    if (code.empty()) return nullptr;
    long page = ::sysconf(_SC_PAGESIZE);
    if (page <= 0) page = 4096;
    const std::size_t len =
        (code.size() + static_cast<std::size_t>(page) - 1) /
        static_cast<std::size_t>(page) * static_cast<std::size_t>(page);
    void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return nullptr;
    std::memcpy(p, code.data(), code.size());
    if (::mprotect(p, len, PROT_READ | PROT_EXEC) != 0) {
      ::munmap(p, len);
      return nullptr;
    }
    auto mem = std::make_unique<ExecMem>();
    mem->base = p;
    mem->len = len;
    return mem;
#else
    (void)code;
    return nullptr;
#endif
  }
};

namespace {

using EncodeFn = std::uint32_t (*)(const std::uint32_t*, std::uint32_t,
                                   std::uint8_t*, const std::uint8_t*,
                                   std::uint32_t);
using DecodeFn = std::uint32_t (*)(const std::uint8_t*, std::uint64_t,
                                   std::uint32_t, std::uint32_t*,
                                   std::uint32_t);

}  // namespace

bool jit_supported_host() {
#if defined(__x86_64__) && TEMPO_JIT_HAVE_MMAP
  return true;
#else
  return false;
#endif
}

bool jit_enabled_by_env() {
  static const bool enabled = [] {
    const char* e = std::getenv("TEMPO_PLAN_JIT");
    if (e == nullptr) return true;
    const std::string v(e);
    return !(v == "0" || v == "off" || v == "OFF" || v == "false" ||
             v == "no");
  }();
  return enabled;
}

CompiledPlan::~CompiledPlan() = default;

std::unique_ptr<CompiledPlan> CompiledPlan::compile(const Plan& plan) {
  if (!jit_supported_host()) return nullptr;
  jit_internal::FusedProgram prog;
  if (!jit_internal::fuse_plan(plan, &prog)) return nullptr;
  const std::vector<std::uint8_t> code = jit_internal::emit_x86_64(prog);
  auto mem = ExecMem::create(code);
  if (mem == nullptr) return nullptr;
  auto cp = std::unique_ptr<CompiledPlan>(new CompiledPlan());
  cp->mem_ = std::move(mem);
  cp->tmpl_ = std::move(prog.tmpl);
  cp->contract_ = plan;
  cp->contract_.instrs.clear();
  cp->code_size_ = code.size();
  return cp;
}

ExecStatus CompiledPlan::run_encode(std::span<const std::uint32_t> words,
                                    std::uint32_t xid, MutableByteSpan out,
                                    std::uint32_t count) const {
  if (!contract_.is_encode) return ExecStatus::kFallback;
  // The same prechecks as run_plan_encode.
  const ExecStatus st = begin_encode(contract_, words.size(), out, count);
  if (st != ExecStatus::kOk) return st;
  const auto fn = reinterpret_cast<EncodeFn>(mem_->base);
  return static_cast<ExecStatus>(
      fn(words.data(), xid, out.data(), tmpl_.data(), count));
}

ExecStatus CompiledPlan::run_decode(ByteSpan in, std::uint32_t xid,
                                    std::span<std::uint32_t> words) const {
  if (contract_.is_encode) return ExecStatus::kFallback;
  // The same prechecks as run_plan_decode.
  std::uint32_t count = 0;
  const ExecStatus st = begin_decode(contract_, words.size(), in, &count);
  if (st != ExecStatus::kOk) return st;
  const auto fn = reinterpret_cast<DecodeFn>(mem_->base);
  return static_cast<ExecStatus>(
      fn(in.data(), in.size(), xid, words.data(), count));
}

}  // namespace tempo::pe
