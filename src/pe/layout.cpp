#include "pe/layout.h"

#include <cstring>

#include "common/bytes.h"
#include "pe/specializer.h"

namespace tempo::pe {

using idl::Kind;
using idl::Type;
using idl::Value;

bool plan_eligible(const Type& t) {
  switch (t.kind) {
    case Kind::kVoid:
    case Kind::kInt:
    case Kind::kUInt:
    case Kind::kHyper:
    case Kind::kUHyper:
    case Kind::kBool:
    case Kind::kFloat:
    case Kind::kDouble:
    case Kind::kEnum:
    case Kind::kOpaqueFixed:
      return true;
    case Kind::kArrayFixed:
    case Kind::kArrayVar:
      return plan_eligible(*t.elem);
    case Kind::kStruct:
      for (const auto& f : t.fields) {
        if (!plan_eligible(*f.type)) return false;
      }
      return true;
    case Kind::kString:
    case Kind::kOpaqueVar:
    case Kind::kOptional:
    case Kind::kUnion:
      return false;
  }
  return false;
}

namespace {

Result<std::uint32_t> count_params_rec(const Type& t, bool inside_var) {
  switch (t.kind) {
    case Kind::kArrayVar: {
      if (inside_var) {
        return Status(invalid_argument(
            "nested variable-length arrays are not plan-eligible"));
      }
      auto inner = count_params_rec(*t.elem, /*inside_var=*/true);
      if (!inner.is_ok()) return inner;
      if (*inner != 0) {
        return Status(invalid_argument(
            "variable arrays inside variable arrays are not plan-eligible"));
      }
      return std::uint32_t{1};
    }
    case Kind::kArrayFixed: {
      auto inner = count_params_rec(*t.elem, inside_var);
      if (!inner.is_ok()) return inner;
      return *inner * t.bound;
    }
    case Kind::kStruct: {
      std::uint32_t total = 0;
      for (const auto& f : t.fields) {
        auto c = count_params_rec(*f.type, inside_var);
        if (!c.is_ok()) return c;
        total += *c;
      }
      return total;
    }
    default:
      return std::uint32_t{0};
  }
}

}  // namespace

Result<std::uint32_t> count_params(const Type& t) {
  return count_params_rec(t, false);
}

namespace {

Result<std::int64_t> slots_rec(const Type& t,
                               std::span<const std::uint32_t> counts,
                               std::size_t& ci) {
  switch (t.kind) {
    case Kind::kVoid:
      return std::int64_t{0};
    case Kind::kInt:
    case Kind::kUInt:
    case Kind::kBool:
    case Kind::kFloat:
    case Kind::kEnum:
      return std::int64_t{1};
    case Kind::kHyper:
    case Kind::kUHyper:
    case Kind::kDouble:
      return std::int64_t{2};
    case Kind::kOpaqueFixed:
      return static_cast<std::int64_t>(xdr_pad4(t.bound) / 4);
    case Kind::kStruct: {
      std::int64_t total = 0;
      for (const auto& f : t.fields) {
        auto s = slots_rec(*f.type, counts, ci);
        if (!s.is_ok()) return s;
        total += *s;
      }
      return total;
    }
    case Kind::kArrayFixed: {
      // Iterate per element: an element containing variable arrays
      // consumes one pinned count per occurrence.
      std::int64_t total = 0;
      for (std::uint32_t i = 0; i < t.bound; ++i) {
        auto e = slots_rec(*t.elem, counts, ci);
        if (!e.is_ok()) return e;
        total += *e;
      }
      return total;
    }
    case Kind::kArrayVar: {
      if (ci >= counts.size()) {
        return Status(invalid_argument("missing pinned count"));
      }
      const std::uint32_t n = counts[ci++];
      auto e = slots_rec(*t.elem, counts, ci);
      if (!e.is_ok()) return e;
      return *e * n;
    }
    default:
      return Status(
          invalid_argument("type not plan-eligible: " + type_to_string(t)));
  }
}

}  // namespace

Result<std::int64_t> type_slots(const Type& t,
                                std::span<const std::uint32_t> counts) {
  std::size_t ci = 0;
  return slots_rec(t, counts, ci);
}

namespace {

Status flatten_rec(const Type& t, const Value& v,
                   std::span<const std::uint32_t> counts, std::size_t& ci,
                   Slots& out) {
  switch (t.kind) {
    case Kind::kVoid:
      return Status::ok();
    case Kind::kInt:
    case Kind::kEnum:
      out.push_back(static_cast<std::uint32_t>(v.as<std::int32_t>()));
      return Status::ok();
    case Kind::kUInt:
      out.push_back(v.as<std::uint32_t>());
      return Status::ok();
    case Kind::kBool:
      out.push_back(v.as<bool>() ? 1u : 0u);
      return Status::ok();
    case Kind::kFloat: {
      std::uint32_t bits;
      const float f = v.as<float>();
      std::memcpy(&bits, &f, 4);
      out.push_back(bits);
      return Status::ok();
    }
    case Kind::kHyper: {
      const auto x = static_cast<std::uint64_t>(v.as<std::int64_t>());
      out.push_back(static_cast<std::uint32_t>(x >> 32));
      out.push_back(static_cast<std::uint32_t>(x));
      return Status::ok();
    }
    case Kind::kUHyper: {
      const auto x = v.as<std::uint64_t>();
      out.push_back(static_cast<std::uint32_t>(x >> 32));
      out.push_back(static_cast<std::uint32_t>(x));
      return Status::ok();
    }
    case Kind::kDouble: {
      std::uint64_t bits;
      const double d = v.as<double>();
      std::memcpy(&bits, &d, 8);
      out.push_back(static_cast<std::uint32_t>(bits >> 32));
      out.push_back(static_cast<std::uint32_t>(bits));
      return Status::ok();
    }
    case Kind::kOpaqueFixed: {
      const auto& b = v.as<Bytes>();
      if (b.size() != t.bound) {
        return invalid_argument("opaque size mismatch");
      }
      const std::size_t nslots = xdr_pad4(t.bound) / 4;
      const std::size_t start = out.size();
      out.resize(start + nslots, 0);
      std::memcpy(out.data() + start, b.data(), b.size());
      return Status::ok();
    }
    case Kind::kStruct: {
      const auto& l = v.as<idl::ValueList>();
      if (l.size() != t.fields.size()) {
        return invalid_argument("struct arity mismatch");
      }
      for (std::size_t i = 0; i < l.size(); ++i) {
        TEMPO_RETURN_IF_ERROR(
            flatten_rec(*t.fields[i].type, l[i], counts, ci, out));
      }
      return Status::ok();
    }
    case Kind::kArrayFixed: {
      const auto& l = v.as<idl::ValueList>();
      if (l.size() != t.bound) {
        return invalid_argument("fixed array size mismatch");
      }
      for (const auto& e : l) {
        TEMPO_RETURN_IF_ERROR(flatten_rec(*t.elem, e, counts, ci, out));
      }
      return Status::ok();
    }
    case Kind::kArrayVar: {
      const auto& l = v.as<idl::ValueList>();
      if (ci >= counts.size()) {
        return invalid_argument("missing pinned count");
      }
      const std::uint32_t n = counts[ci++];
      if (l.size() != n) {
        return invalid_argument(
            "variable array size differs from specialized count");
      }
      for (const auto& e : l) {
        TEMPO_RETURN_IF_ERROR(flatten_rec(*t.elem, e, counts, ci, out));
      }
      return Status::ok();
    }
    default:
      return invalid_argument("type not plan-eligible: " + type_to_string(t));
  }
}

Result<Value> unflatten_rec(const Type& t,
                            std::span<const std::uint32_t> counts,
                            std::size_t& ci,
                            std::span<const std::uint32_t> slots,
                            std::size_t& si) {
  Value out;
  auto need = [&](std::size_t n) {
    return si + n <= slots.size();
  };
  switch (t.kind) {
    case Kind::kVoid:
      return out;
    case Kind::kInt:
    case Kind::kEnum:
      if (!need(1)) return Status(out_of_range("slot underrun"));
      out.v = static_cast<std::int32_t>(slots[si++]);
      return out;
    case Kind::kUInt:
      if (!need(1)) return Status(out_of_range("slot underrun"));
      out.v = slots[si++];
      return out;
    case Kind::kBool:
      if (!need(1)) return Status(out_of_range("slot underrun"));
      out.v = slots[si++] != 0;
      return out;
    case Kind::kFloat: {
      if (!need(1)) return Status(out_of_range("slot underrun"));
      float f;
      std::memcpy(&f, &slots[si++], 4);
      out.v = f;
      return out;
    }
    case Kind::kHyper: {
      if (!need(2)) return Status(out_of_range("slot underrun"));
      const std::uint64_t hi = slots[si++], lo = slots[si++];
      out.v = static_cast<std::int64_t>((hi << 32) | lo);
      return out;
    }
    case Kind::kUHyper: {
      if (!need(2)) return Status(out_of_range("slot underrun"));
      const std::uint64_t hi = slots[si++], lo = slots[si++];
      out.v = (hi << 32) | lo;
      return out;
    }
    case Kind::kDouble: {
      if (!need(2)) return Status(out_of_range("slot underrun"));
      const std::uint64_t hi = slots[si++], lo = slots[si++];
      const std::uint64_t bits = (hi << 32) | lo;
      double d;
      std::memcpy(&d, &bits, 8);
      out.v = d;
      return out;
    }
    case Kind::kOpaqueFixed: {
      const std::size_t nslots = xdr_pad4(t.bound) / 4;
      if (!need(nslots)) return Status(out_of_range("slot underrun"));
      Bytes b(t.bound);
      std::memcpy(b.data(), slots.data() + si, t.bound);
      si += nslots;
      out.v = std::move(b);
      return out;
    }
    case Kind::kStruct: {
      idl::ValueList l;
      l.reserve(t.fields.size());
      for (const auto& f : t.fields) {
        auto e = unflatten_rec(*f.type, counts, ci, slots, si);
        if (!e.is_ok()) return e;
        l.push_back(std::move(*e));
      }
      out.v = std::move(l);
      return out;
    }
    case Kind::kArrayFixed: {
      idl::ValueList l;
      l.reserve(t.bound);
      for (std::uint32_t i = 0; i < t.bound; ++i) {
        auto e = unflatten_rec(*t.elem, counts, ci, slots, si);
        if (!e.is_ok()) return e;
        l.push_back(std::move(*e));
      }
      out.v = std::move(l);
      return out;
    }
    case Kind::kArrayVar: {
      if (ci >= counts.size()) {
        return Status(invalid_argument("missing pinned count"));
      }
      const std::uint32_t n = counts[ci++];
      idl::ValueList l;
      l.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        auto e = unflatten_rec(*t.elem, counts, ci, slots, si);
        if (!e.is_ok()) return e;
        l.push_back(std::move(*e));
      }
      out.v = std::move(l);
      return out;
    }
    default:
      return Status(
          invalid_argument("type not plan-eligible: " + type_to_string(t)));
  }
}

Status collect_counts_rec(const Type& t, const Value& v,
                          std::vector<std::uint32_t>& out) {
  switch (t.kind) {
    case Kind::kArrayVar: {
      const auto& l = v.as<idl::ValueList>();
      out.push_back(static_cast<std::uint32_t>(l.size()));
      for (const auto& e : l) {
        TEMPO_RETURN_IF_ERROR(collect_counts_rec(*t.elem, e, out));
      }
      return Status::ok();
    }
    case Kind::kArrayFixed: {
      for (const auto& e : v.as<idl::ValueList>()) {
        TEMPO_RETURN_IF_ERROR(collect_counts_rec(*t.elem, e, out));
      }
      return Status::ok();
    }
    case Kind::kStruct: {
      const auto& l = v.as<idl::ValueList>();
      for (std::size_t i = 0; i < t.fields.size(); ++i) {
        TEMPO_RETURN_IF_ERROR(collect_counts_rec(*t.fields[i].type, l[i], out));
      }
      return Status::ok();
    }
    default:
      return Status::ok();
  }
}

}  // namespace

Status flatten_value(const Type& t, const Value& v,
                     std::span<const std::uint32_t> counts, Slots& out) {
  std::size_t ci = 0;
  return flatten_rec(t, v, counts, ci, out);
}

Result<Value> unflatten_value(const Type& t,
                              std::span<const std::uint32_t> counts,
                              std::span<const std::uint32_t> slots) {
  std::size_t ci = 0, si = 0;
  return unflatten_rec(t, counts, ci, slots, si);
}

Status collect_counts(const Type& t, const Value& v,
                      std::vector<std::uint32_t>& out) {
  return collect_counts_rec(t, v, out);
}

namespace {

bool holds_fixed_array(const Type& t) {
  switch (t.kind) {
    case Kind::kArrayFixed:
      return t.bound >= 2 || holds_fixed_array(*t.elem);
    case Kind::kStruct:
      for (const auto& f : t.fields) {
        if (holds_fixed_array(*f.type)) return true;
      }
      return false;
    default:
      return false;
  }
}

}  // namespace

const Type* tail_array(const Type& t) {
  if (!plan_eligible(t)) return nullptr;
  switch (t.kind) {
    case Kind::kArrayVar: {
      const auto inner = count_params(*t.elem);
      if (!inner.is_ok() || *inner != 0 || holds_fixed_array(*t.elem) ||
          t.bound < kClassSampleHi) {
        return nullptr;
      }
      return &t;
    }
    case Kind::kStruct: {
      if (t.fields.empty()) return nullptr;
      for (std::size_t i = 0; i + 1 < t.fields.size(); ++i) {
        const auto c = count_params(*t.fields[i].type);
        if (!c.is_ok() || *c != 0) return nullptr;
      }
      return tail_array(*t.fields.back().type);
    }
    default:
      return nullptr;
  }
}

}  // namespace tempo::pe
