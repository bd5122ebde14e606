// Flattened user-data layout for specialized stubs.
//
// Residual plans do not walk C++ objects; they copy between the wire
// buffer and a flat block of 32-bit slots whose layout is a *static*
// function of the interface type (plus the per-specialization array
// counts).  This mirrors what Tempo's residual C code does: it addresses
// argument memory at fixed offsets computed at specialization time.
//
// Layout rules (preorder over the type):
//  * int/uint/bool/enum/float: 1 slot (float bits in the slot),
//  * hyper/uhyper/double: 2 slots, most-significant word first,
//  * fixed opaque[n]: pad4(n)/4 slots holding the raw bytes,
//  * struct: fields in order,
//  * fixed array[n]: n * slots(elem),
//  * variable array<bound>: count * slots(elem).  The count itself is
//    not stored in the block: an exact plan pins it at specialization
//    time and writes it as a constant; a class plan takes it as a
//    run-time input (read from the wire on decode, passed by the caller
//    on encode), so the block's length is then affine in the count,
//  * string / optional / union: not plan-eligible (the specializing stub
//    front end falls back to the generic path for these).
#pragma once

#include <cstdint>
#include <span>

#include "common/status.h"
#include "idl/types.h"
#include "idl/value.h"

namespace tempo::pe {

using Slots = std::vector<std::uint32_t>;

// True if the type can be laid out as slots (everything except
// string/optional/union/var-opaque anywhere inside).
bool plan_eligible(const idl::Type& t);

// Number of variable-array counts that must be pinned at specialization
// time (preorder).  Nested variable arrays (a var array inside a var
// array element) are not eligible; this returns kInvalidArgument then.
Result<std::uint32_t> count_params(const idl::Type& t);

// Slot count given pinned counts (consumed in preorder).
Result<std::int64_t> type_slots(const idl::Type& t,
                                std::span<const std::uint32_t> counts);

// Value -> slots.  Fails if the value's variable-array sizes do not
// match `counts` (the run-time guard for guarded specialization).
Status flatten_value(const idl::Type& t, const idl::Value& v,
                     std::span<const std::uint32_t> counts, Slots& out);

// Slots -> value (sizes taken from `counts`).
Result<idl::Value> unflatten_value(const idl::Type& t,
                                   std::span<const std::uint32_t> counts,
                                   std::span<const std::uint32_t> slots);

// Extracts the preorder var-array counts actually present in a value
// (used to check against the specialization's pinned counts).
Status collect_counts(const idl::Type& t, const idl::Value& v,
                      std::vector<std::uint32_t>& out);

// The variable array a class plan can serve for `t`: the type's only
// variable array, ending its wire encoding, with fixed-shape elements
// that hold no fixed array of two or more elements (at unroll_factor 1
// those would become loops nested in the element loop) and a bound that
// admits the generalizer's two samples.  Null when `t` needs per-count
// plans.
const idl::Type* tail_array(const idl::Type& t);

}  // namespace tempo::pe
