#include "pe/plan.h"

#include <cstring>

#include "common/endian.h"

namespace tempo::pe {

namespace {

// One instruction, with loop-iteration displacements applied.
// Returns kOk or a guard failure.
template <bool kCount>
inline ExecStatus apply_encode(const PInstr& ins, std::uint32_t doff,
                               std::uint32_t dword,
                               std::span<const std::uint32_t> words,
                               std::uint32_t xid, std::uint8_t* out,
                               CostEvents* cost) {
  const std::uint32_t off = ins.off + doff;
  if constexpr (kCount) {
    ++cost->dispatches;  // executor switch
    cost->executed_op_bytes += sizeof(PInstr);
  }
  switch (ins.op) {
    case POp::kPutConst:
      store_be32(out + off, static_cast<std::uint32_t>(ins.imm));
      if constexpr (kCount) {
        cost->buffer_bytes += 4;
      }
      return ExecStatus::kOk;
    case POp::kPutWord:
      store_be32(out + off, words[ins.a + dword]);
      if constexpr (kCount) {
        cost->buffer_bytes += 8;  // argument read + buffer write
        ++cost->alu_ops;          // htonl
      }
      return ExecStatus::kOk;
    case POp::kPutXid:
      store_be32(out + off, xid);
      if constexpr (kCount) {
        cost->buffer_bytes += 4;
      }
      return ExecStatus::kOk;
    case POp::kPutBytes: {
      const auto* src = reinterpret_cast<const std::uint8_t*>(words.data()) +
                        (ins.a + dword * 4);
      const std::size_t padded = xdr_pad4(ins.b);
      std::memcpy(out + off, src, ins.b);
      std::memset(out + off + ins.b, 0, padded - ins.b);
      if constexpr (kCount) {
        cost->buffer_bytes += static_cast<std::int64_t>(padded);
      }
      return ExecStatus::kOk;
    }
    default:
      return ExecStatus::kFallback;  // decode op in encode plan: reject
  }
}

// `len_growth` is in_slope * count: what a class plan's kGuardLen adds
// to its count-0 immediate (0 for an exact plan).
template <bool kCount>
inline ExecStatus apply_decode(const PInstr& ins, std::uint32_t doff,
                               std::uint32_t dword, ByteSpan in,
                               std::uint32_t xid,
                               std::span<std::uint32_t> words,
                               std::uint64_t len_growth, CostEvents* cost) {
  const std::uint32_t off = ins.off + doff;
  if constexpr (kCount) {
    ++cost->dispatches;
    cost->executed_op_bytes += sizeof(PInstr);
  }
  switch (ins.op) {
    case POp::kGetWord:
      words[ins.a + dword] = load_be32(in.data() + off);
      if constexpr (kCount) {
        cost->buffer_bytes += 8;  // buffer read + result write
        ++cost->alu_ops;
      }
      return ExecStatus::kOk;
    case POp::kSetWordConst:
      words[ins.a + dword] = static_cast<std::uint32_t>(ins.imm);
      if constexpr (kCount) {
        ++cost->alu_ops;
      }
      return ExecStatus::kOk;
    case POp::kGetBytes: {
      auto* dst =
          reinterpret_cast<std::uint8_t*>(words.data()) + (ins.a + dword * 4);
      const std::size_t padded = xdr_pad4(ins.b);
      std::memset(dst, 0, padded);
      std::memcpy(dst, in.data() + off, ins.b);
      if constexpr (kCount) {
        cost->buffer_bytes += static_cast<std::int64_t>(padded);
      }
      return ExecStatus::kOk;
    }
    case POp::kGuardConstEq:
      if constexpr (kCount) {
        ++cost->alu_ops;
        cost->buffer_bytes += 4;
      }
      return load_be32(in.data() + off) == static_cast<std::uint32_t>(ins.imm)
                 ? ExecStatus::kOk
                 : ExecStatus::kFallback;
    case POp::kGuardXid:
      if constexpr (kCount) {
        ++cost->alu_ops;
        cost->buffer_bytes += 4;
      }
      return load_be32(in.data() + off) == xid ? ExecStatus::kOk
                                               : ExecStatus::kRetryXid;
    case POp::kGuardBool:
      if constexpr (kCount) {
        ++cost->alu_ops;
        cost->buffer_bytes += 4;
      }
      return load_be32(in.data() + off) <= 1 ? ExecStatus::kOk
                                             : ExecStatus::kFallback;
    case POp::kGuardLen:
      if constexpr (kCount) {
        ++cost->alu_ops;
      }
      return in.size() == ins.imm + len_growth ? ExecStatus::kOk
                                               : ExecStatus::kFallback;
    default:
      return ExecStatus::kFallback;
  }
}

template <bool kCount, bool kEncode>
ExecStatus run_impl(const Plan& plan, std::span<const std::uint32_t> cwords,
                    std::span<std::uint32_t> mwords, std::uint32_t xid,
                    MutableByteSpan out, ByteSpan in, std::uint32_t count,
                    CostEvents* cost) {
  if constexpr (kCount) {
    cost->code_bytes += static_cast<std::int64_t>(plan.code_bytes());
  }
  const std::uint64_t len_growth = std::uint64_t{plan.in_slope} * count;
  const std::size_t n = plan.instrs.size();
  std::size_t i = 0;
  while (i < n) {
    const PInstr& ins = plan.instrs[i];
    if (ins.op == POp::kLoop) {
      const std::uint32_t iters = ins.a == kCountTrip ? count : ins.a;
      const std::uint32_t body = ins.b;
      const LoopStrides strides = unpack_loop_strides(ins.imm);
      const std::uint32_t off_stride = strides.off_stride;
      const std::uint32_t word_stride = strides.word_stride;
      if constexpr (kCount) {
        ++cost->dispatches;
        cost->executed_op_bytes += sizeof(PInstr);
      }
      for (std::uint32_t it = 0; it < iters; ++it) {
        const std::uint32_t doff = it * off_stride;
        const std::uint32_t dword = it * word_stride;
        if constexpr (kCount) {
          cost->alu_ops += 2;  // loop bookkeeping
        }
        for (std::uint32_t j = 1; j <= body; ++j) {
          ExecStatus st;
          if constexpr (kEncode) {
            st = apply_encode<kCount>(plan.instrs[i + j], doff, dword, cwords,
                                      xid, out.data(), cost);
          } else {
            st = apply_decode<kCount>(plan.instrs[i + j], doff, dword, in, xid,
                                      mwords, len_growth, cost);
          }
          if (st != ExecStatus::kOk) return st;
        }
      }
      i += 1 + body;
      continue;
    }
    ExecStatus st;
    if constexpr (kEncode) {
      st = apply_encode<kCount>(ins, 0, 0, cwords, xid, out.data(), cost);
    } else {
      st = apply_decode<kCount>(ins, 0, 0, in, xid, mwords, len_growth, cost);
    }
    if (st != ExecStatus::kOk) return st;
    ++i;
  }
  return ExecStatus::kOk;
}

}  // namespace

ExecStatus begin_encode(const Plan& contract, std::size_t words,
                        MutableByteSpan out, std::uint32_t count) {
  // The single residual capacity check (everything per-item was folded).
  if (count > contract.count_cap || out.size() < contract.out_size_at(count) ||
      words < contract.words_needed_at(count)) {
    return ExecStatus::kFallback;
  }
  if (contract.has_count()) store_be32(out.data() + contract.count_off, count);
  return ExecStatus::kOk;
}

ExecStatus begin_decode(const Plan& contract, std::size_t words, ByteSpan in,
                        std::uint32_t* count) {
  *count = 0;
  if (!contract.has_count()) {
    if (words < contract.words_needed) return ExecStatus::kFallback;
    // Even without an explicit kGuardLen (void results), never read past
    // the payload: the largest offset touched is expected_in.
    if (contract.expected_in != 0 && in.size() < contract.expected_in) {
      return ExecStatus::kFallback;
    }
    return ExecStatus::kOk;
  }
  // The fixed prefix (count 0's length) holds the count word.
  if (in.size() < contract.expected_in) return ExecStatus::kFallback;
  const std::uint32_t n = load_be32(in.data() + contract.count_off);
  if (n > contract.count_cap || in.size() != contract.expected_in_at(n) ||
      words < contract.words_needed_at(n)) {
    return ExecStatus::kFallback;
  }
  *count = n;
  return ExecStatus::kOk;
}

std::uint32_t peek_count(const Plan& plan, ByteSpan in) {
  if (!plan.has_count() || in.size() < std::size_t{plan.count_off} + 4) {
    return kNoCount;
  }
  return load_be32(in.data() + plan.count_off);
}

ExecStatus run_plan_encode(const Plan& plan,
                           std::span<const std::uint32_t> words,
                           std::uint32_t xid, MutableByteSpan out,
                           CostEvents* cost, std::uint32_t count) {
  const ExecStatus st = begin_encode(plan, words.size(), out, count);
  if (st != ExecStatus::kOk) return st;
  if (cost) {
    return run_impl<true, true>(plan, words, {}, xid, out, {}, count, cost);
  }
  return run_impl<false, true>(plan, words, {}, xid, out, {}, count, nullptr);
}

ExecStatus run_plan_decode(const Plan& plan, ByteSpan in, std::uint32_t xid,
                           std::span<std::uint32_t> words,
                           CostEvents* cost) {
  std::uint32_t count = 0;
  const ExecStatus st = begin_decode(plan, words.size(), in, &count);
  if (st != ExecStatus::kOk) return st;
  if (cost) {
    return run_impl<true, false>(plan, {}, words, xid, {}, in, count, cost);
  }
  return run_impl<false, false>(plan, {}, words, xid, {}, in, count, nullptr);
}

namespace {

std::size_t uleb_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Which operands each opcode actually uses in a compact serialization.
std::size_t packed_instr_bytes(const PInstr& ins) {
  std::size_t n = 1;  // opcode byte
  switch (ins.op) {
    case POp::kPutConst:
      return n + uleb_len(ins.off) + uleb_len(ins.imm);
    case POp::kPutWord:
    case POp::kGetWord:
      return n + uleb_len(ins.off) + uleb_len(ins.a);
    case POp::kPutXid:
    case POp::kGuardXid:
    case POp::kGuardBool:
      return n + uleb_len(ins.off);
    case POp::kPutBytes:
    case POp::kGetBytes:
      return n + uleb_len(ins.off) + uleb_len(ins.a) + uleb_len(ins.b);
    case POp::kSetWordConst:
      return n + uleb_len(ins.a) + uleb_len(ins.imm);
    case POp::kGuardConstEq:
      return n + uleb_len(ins.off) + uleb_len(ins.imm);
    case POp::kGuardLen:
      return n + uleb_len(ins.imm);
    case POp::kLoop: {
      const LoopStrides s = unpack_loop_strides(ins.imm);
      return n + uleb_len(ins.a) + uleb_len(ins.b) + uleb_len(s.off_stride) +
             uleb_len(s.word_stride);
    }
  }
  return n;
}

}  // namespace

std::size_t Plan::packed_code_bytes() const {
  std::size_t total = 0;
  for (const auto& ins : instrs) total += packed_instr_bytes(ins);
  return total;
}

namespace {

std::string instr_to_string(const PInstr& ins) {
  char buf[128];
  switch (ins.op) {
    case POp::kPutConst:
      std::snprintf(buf, sizeof(buf), "out[%u] = 0x%llx;", ins.off,
                    static_cast<unsigned long long>(ins.imm));
      break;
    case POp::kPutWord:
      std::snprintf(buf, sizeof(buf), "out[%u] = args[%u];", ins.off, ins.a);
      break;
    case POp::kPutXid:
      std::snprintf(buf, sizeof(buf), "out[%u] = xid;", ins.off);
      break;
    case POp::kPutBytes:
      std::snprintf(buf, sizeof(buf), "memcpy(out+%u, argbytes+%u, %u);",
                    ins.off, ins.a, ins.b);
      break;
    case POp::kGetWord:
      std::snprintf(buf, sizeof(buf), "res[%u] = in[%u];", ins.a, ins.off);
      break;
    case POp::kSetWordConst:
      std::snprintf(buf, sizeof(buf), "res[%u] = 0x%llx;", ins.a,
                    static_cast<unsigned long long>(ins.imm));
      break;
    case POp::kGetBytes:
      std::snprintf(buf, sizeof(buf), "memcpy(resbytes+%u, in+%u, %u);",
                    ins.a, ins.off, ins.b);
      break;
    case POp::kGuardConstEq:
      std::snprintf(buf, sizeof(buf),
                    "if (in[%u] != 0x%llx) goto fallback;", ins.off,
                    static_cast<unsigned long long>(ins.imm));
      break;
    case POp::kGuardXid:
      std::snprintf(buf, sizeof(buf), "if (in[%u] != xid) goto retry;",
                    ins.off);
      break;
    case POp::kGuardBool:
      std::snprintf(buf, sizeof(buf), "if (in[%u] > 1) goto fallback;",
                    ins.off);
      break;
    case POp::kGuardLen:
      std::snprintf(buf, sizeof(buf),
                    "if (inlen != %llu) goto fallback;",
                    static_cast<unsigned long long>(ins.imm));
      break;
    case POp::kLoop: {
      const LoopStrides s = unpack_loop_strides(ins.imm);
      if (ins.a == kCountTrip) {
        std::snprintf(buf, sizeof(buf),
                      "loop count times (off += %u, word += %u) {",
                      s.off_stride, s.word_stride);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "loop %u times (off += %u, word += %u) {", ins.a,
                      s.off_stride, s.word_stride);
      }
      break;
    }
  }
  return buf;
}

}  // namespace

std::string Plan::to_string() const {
  std::string out;
  out += is_encode ? "// specialized encode plan, out_size=" +
                         std::to_string(out_size)
                   : "// specialized decode plan, expected_in=" +
                         std::to_string(expected_in);
  if (has_count()) {
    out += " + " + std::to_string(is_encode ? out_slope : in_slope) +
           "*count, count word at " + std::to_string(count_off) +
           ", count <= " + std::to_string(count_cap);
  }
  out += ", code_bytes=" + std::to_string(code_bytes()) + "\n";
  std::size_t i = 0;
  while (i < instrs.size()) {
    const PInstr& ins = instrs[i];
    if (ins.op == POp::kLoop) {
      out += instr_to_string(ins) + "\n";
      for (std::uint32_t j = 1; j <= ins.b; ++j) {
        out += "  " + instr_to_string(instrs[i + j]) + "\n";
      }
      out += "}\n";
      i += 1 + ins.b;
      continue;
    }
    out += instr_to_string(ins) + "\n";
    ++i;
  }
  return out;
}

}  // namespace tempo::pe
