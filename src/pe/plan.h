// Residual programs ("plans") — the specializer's output.
//
// A plan is the moral equivalent of the specialized C code in the
// paper's Figure 5: a straight-line sequence of coarse-grained buffer
// operations with every offset, constant and length folded in at
// specialization time.  Loops survive only when the unroll policy keeps
// them (Table 4's partial unrolling); everything else is unrolled.
//
// The three execution artifacts of the experiment map as:
//   original  = the layered xdr_* C++ path (src/xdr) or the IR corpus
//               run by the interpreter,
//   Tempo's specialized C compiled by gcc = this plan run by the plan
//               executor (native timing) or cost-counted (ipx-sim),
//   plan size in bytes = the Table 3 "specialized code size" analog.
//
// A plan is either exact — valid for the one set of array counts it was
// specialized at — or a class plan, valid for every count of the one
// variable array that ends its message, from 0 up to a cap derived from
// the types.  A class plan carries a count contract: the wire offset of
// the count word, the cap, and a per-count slope on each declared size.
// The wrappers read the count word (decode) or write it (encode), and
// the loop that ends the plan takes the count as its trip count.  An
// exact plan is the case with no count word and zero slopes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/costmodel.h"

namespace tempo::pe {

enum class POp : std::uint8_t {
  // ---- encode ----
  kPutConst,   // store_be32(out + off, imm)                (folded static data)
  kPutWord,    // store_be32(out + off, words[a])           (dynamic argument)
  kPutXid,     // store_be32(out + off, xid)
  kPutBytes,   // memcpy(out + off, arg_bytes + a, b) + zero pad to pad4(b)
  // ---- decode ----
  kGetWord,    // words[a] = load_be32(in + off)
  kSetWordConst,  // words[a] = imm  (statically known result)
  kGetBytes,   // memcpy(res_bytes + a, in + off, b) + zero pad slot tail
  kGuardConstEq,  // fail(kFallback) unless load_be32(in + off) == imm
  kGuardXid,      // fail(kRetryXid) unless load_be32(in + off) == xid
  kGuardBool,     // fail(kFallback) unless load_be32(in + off) <= 1
  kGuardLen,      // fail(kFallback) unless in.size() == imm
                  //   + in_slope * count
  // ---- control ----
  kLoop,       // a = iterations (kCountTrip: the run-time count),
               // b = body length (next b instrs),
               // imm = (byte-offset stride << 32) | word-index stride
};

// kLoop iteration field of a class plan's count loop: the loop runs as
// many times as the plan's run-time count.
inline constexpr std::uint32_t kCountTrip = 0xFFFFFFFFu;
// Plan::count_off of an exact plan (no count word).
inline constexpr std::uint32_t kNoCount = 0xFFFFFFFFu;

struct PInstr {
  POp op = POp::kPutConst;
  std::uint32_t off = 0;  // buffer byte offset
  std::uint32_t a = 0;    // word slot index / byte offset / loop iters
  std::uint32_t b = 0;    // byte length / loop body size
  std::uint64_t imm = 0;  // constant / packed strides
};

// kLoop strides ride in `imm` as (byte-stride << 32) | word-stride.  The
// specializer (packing), the plan executor and the native compiler
// (unpacking) must agree bit-for-bit, so there is exactly one codec.
struct LoopStrides {
  std::uint32_t off_stride = 0;   // output/input byte offset per iteration
  std::uint32_t word_stride = 0;  // arg/result word slots per iteration
};

constexpr std::uint64_t pack_loop_strides(LoopStrides s) {
  return (static_cast<std::uint64_t>(s.off_stride) << 32) |
         static_cast<std::uint64_t>(s.word_stride);
}

constexpr LoopStrides unpack_loop_strides(std::uint64_t imm) {
  return LoopStrides{static_cast<std::uint32_t>(imm >> 32),
                     static_cast<std::uint32_t>(imm & 0xFFFFFFFFu)};
}

enum class ExecStatus : std::uint8_t {
  kOk = 0,
  kFallback,  // a guard failed: run the generic path instead
  kRetryXid,  // reply XID mismatch: stale datagram, keep waiting
};

struct Plan {
  std::vector<PInstr> instrs;
  bool is_encode = true;
  // Declared sizes; a class plan's hold at count 0 and grow by their
  // slope per element.
  std::uint32_t out_size = 0;      // encode: exact bytes produced
  std::uint32_t expected_in = 0;   // decode: guarded input length
  std::uint32_t words_needed = 0;  // arg/result slot count touched

  // Count contract (class plans only).
  std::uint32_t count_off = kNoCount;  // wire offset of the count word
  std::uint32_t count_cap = 0;         // largest count the plan serves
  std::uint32_t out_slope = 0;
  std::uint32_t in_slope = 0;
  std::uint32_t words_slope = 0;

  bool has_count() const { return count_off != kNoCount; }
  std::uint64_t out_size_at(std::uint32_t count) const {
    return out_size + std::uint64_t{out_slope} * count;
  }
  std::uint64_t expected_in_at(std::uint32_t count) const {
    return expected_in + std::uint64_t{in_slope} * count;
  }
  std::uint64_t words_needed_at(std::uint32_t count) const {
    return words_needed + std::uint64_t{words_slope} * count;
  }

  // In-memory footprint of the plan as the executor walks it (includes
  // struct padding — this is what the i-cache/d-cache actually touches,
  // so the cost model keeps using it).
  std::size_t code_bytes() const { return instrs.size() * sizeof(PInstr); }

  // Size of the plan under a compact serialized encoding (one opcode
  // byte + ULEB128 operands, omitting operands the opcode does not
  // use).  This is the honest Table-3 "specialized code size" analog:
  // code_bytes() over-reports by the PInstr struct padding.
  std::size_t packed_code_bytes() const;

  // Figure-5-style listing of the residual code.
  std::string to_string() const;
};

// The prechecks every tier runs before any op, shared by run_plan_* and
// CompiledPlan::run_* so both fail identically.  `contract` is the plan
// (its instructions are not read).
//
// Encode: `count` <= count_cap (0 for an exact plan), `out` holds
// out_size_at(count) bytes and `words` words_needed_at(count) slots;
// then a class plan's count word is written.
ExecStatus begin_encode(const Plan& contract, std::size_t words,
                        MutableByteSpan out, std::uint32_t count);
// Decode: `in` holds the fixed prefix, a class plan's count word is read
// into *count (0 for an exact plan) and must be <= count_cap with
// in.size() == expected_in_at(count); `words` holds
// words_needed_at(count) slots.  A count word that claims more elements
// than the payload holds fails here, before any element op runs.
ExecStatus begin_decode(const Plan& contract, std::size_t words, ByteSpan in,
                        std::uint32_t* count);

// The count a class decode plan will read from `in`, so a caller can
// size `words` first; kNoCount when `in` is too short to hold the count
// word or the plan is exact.
std::uint32_t peek_count(const Plan& plan, ByteSpan in);

// Executes an encode plan.  `out` must hold at least
// plan.out_size_at(count) bytes and `words` at least
// plan.words_needed_at(count) slots; checked once up front (that single
// check is all that remains of the per-item overflow accounting).
// `count` is the element count of a class plan's array (0 for an exact
// plan).
ExecStatus run_plan_encode(const Plan& plan,
                           std::span<const std::uint32_t> words,
                           std::uint32_t xid, MutableByteSpan out,
                           CostEvents* cost = nullptr,
                           std::uint32_t count = 0);

// Executes a decode plan against a received payload.
ExecStatus run_plan_decode(const Plan& plan, ByteSpan in, std::uint32_t xid,
                           std::span<std::uint32_t> words,
                           CostEvents* cost = nullptr);

}  // namespace tempo::pe
