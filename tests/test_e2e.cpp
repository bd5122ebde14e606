// End-to-end suites: whole-stack RPC under fault injection, and
// specialized/generic interop across many interface types (property
// style, parameterized).
#include <gtest/gtest.h>

#include "core/generic_client.h"
#include "core/service.h"
#include "core/spec_client.h"
#include "net/simnet.h"
#include "pe/layout.h"
#include "rpc/svc.h"

namespace tempo {
namespace {

using core::CachedSpecService;
using core::SpecCache;
using core::SpecConfig;
using core::SpecializedClient;
using core::SpecializedInterface;

constexpr std::uint32_t kProg = 0x20000888;
constexpr std::uint32_t kVers = 3;
constexpr std::uint32_t kProc = 2;

// ---- fault injection over the full stack --------------------------------

struct FaultCase {
  const char* name;
  double drop, dup, corrupt, truncate;
  std::uint64_t seed;
};

class FaultInjection : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultInjection, SpecializedCallsSurvive) {
  const FaultCase& fc = GetParam();
  net::LinkParams link;
  link.latency_us = 40;
  link.drop_prob = fc.drop;
  link.dup_prob = fc.dup;
  link.corrupt_prob = fc.corrupt;
  link.truncate_prob = fc.truncate;
  net::SimNetwork net(link, fc.seed);

  const std::uint32_t n = 32;
  idl::ProcDef proc;
  proc.name = "NEG";
  proc.number = kProc;
  proc.arg_type = idl::t_array_var(idl::t_int(), 256);
  proc.res_type = idl::t_array_var(idl::t_int(), 256);
  SpecConfig cfg;
  cfg.arg_counts = {n};
  cfg.res_counts = {n};
  auto iface = SpecializedInterface::build(proc, kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok());

  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();
  rpc::SvcRegistry reg;
  SpecCache cache;
  CachedSpecService service(
      cache, proc, kProg, kVers,
      [](std::span<const std::uint32_t>, std::span<const std::uint32_t> args,
         std::span<std::uint32_t> results) {
        for (std::size_t i = 0; i < args.size(); ++i) results[i] = ~args[i];
        return true;
      });
  service.install(reg);
  rpc::attach_sim_server(server_ep, reg);

  rpc::CallOptions opts;
  opts.retry_timeout_ms = 15;
  opts.total_timeout_ms = 30000;  // virtual milliseconds are cheap
  SpecializedClient client(*client_ep, server_ep->local_addr(), *iface,
                           opts);

  Rng rng(fc.seed ^ 0x5555);
  std::vector<std::uint32_t> args(n), results(n);
  int ok = 0;
  constexpr int kCalls = 40;
  for (int c = 0; c < kCalls; ++c) {
    for (auto& a : args) a = rng.next_u32();
    Status st = client.call(args, results);
    if (st.is_ok()) {
      ++ok;
      // Data integrity is only guaranteed on fault models a checksum-less
      // UDP can survive: loss and duplication.  A corrupted *payload*
      // byte is undetectable by the RPC layer (real deployments rely on
      // the UDP checksum); corrupted *headers* are caught by the decode
      // guards and turn into retries/fallbacks, never wrong data.
      if (fc.corrupt == 0 && fc.truncate == 0) {
        for (std::uint32_t i = 0; i < n; ++i) {
          ASSERT_EQ(results[i], ~args[i]) << fc.name << " call " << c;
        }
      }
    }
  }
  // Retransmission must push every call through under drop/dup; corrupt
  // and truncate may surface as errors but must never crash or wedge.
  if (fc.corrupt == 0 && fc.truncate == 0) {
    EXPECT_EQ(ok, kCalls) << fc.name;
  } else {
    EXPECT_GT(ok, 0) << fc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FaultInjection,
    ::testing::Values(
        FaultCase{"clean", 0, 0, 0, 0, 1},
        FaultCase{"drop10", 0.1, 0, 0, 0, 2},
        FaultCase{"drop40", 0.4, 0, 0, 0, 3},
        FaultCase{"dup25", 0, 0.25, 0, 0, 4},
        FaultCase{"drop_dup", 0.25, 0.25, 0, 0, 5},
        FaultCase{"corrupt15", 0, 0, 0.15, 0, 6},
        FaultCase{"truncate15", 0, 0, 0, 0.15, 7},
        FaultCase{"everything", 0.15, 0.15, 0.1, 0.1, 8}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- interop across interface types --------------------------------------

struct TypeCase {
  const char* name;
  idl::TypePtr arg;
  idl::TypePtr res;
  std::vector<std::uint32_t> arg_counts;
  std::vector<std::uint32_t> res_counts;
};

TypeCase make_case(const char* name, idl::TypePtr t,
                   std::vector<std::uint32_t> counts) {
  return TypeCase{name, t, t, counts, counts};
}

// Resize every variable array in `value` to the pinned counts (preorder),
// filling new elements randomly — so the instance matches the
// specialization exactly.
void force_counts_rec(const idl::Type& t,
                      std::span<const std::uint32_t> counts, std::size_t& ci,
                      Rng& rng, idl::Value& value) {
  switch (t.kind) {
    case idl::Kind::kArrayVar: {
      auto& l = value.as<idl::ValueList>();
      const std::uint32_t want = counts[ci++];
      while (l.size() < want) l.push_back(idl::random_value(*t.elem, rng));
      l.resize(want);
      for (auto& e : l) force_counts_rec(*t.elem, counts, ci, rng, e);
      break;
    }
    case idl::Kind::kArrayFixed: {
      for (auto& e : value.as<idl::ValueList>()) {
        force_counts_rec(*t.elem, counts, ci, rng, e);
      }
      break;
    }
    case idl::Kind::kStruct: {
      auto& l = value.as<idl::ValueList>();
      for (std::size_t i = 0; i < t.fields.size(); ++i) {
        force_counts_rec(*t.fields[i].type, counts, ci, rng, l[i]);
      }
      break;
    }
    default:
      break;
  }
}

void force_counts(const idl::Type& t,
                  const std::vector<std::uint32_t>& counts, Rng& rng,
                  idl::Value& value) {
  std::size_t ci = 0;
  force_counts_rec(t, counts, ci, rng, value);
}

class TypedEcho : public ::testing::TestWithParam<int> {};

std::vector<TypeCase> type_cases() {
  using namespace idl;
  std::vector<TypeCase> cases;
  cases.push_back(make_case("scalar_int", t_int(), {}));
  cases.push_back(make_case("scalar_double", t_double(), {}));
  cases.push_back(make_case("hyper_pair",
                            t_struct("hp", {{"a", t_hyper()},
                                            {"b", t_uhyper()}}),
                            {}));
  cases.push_back(make_case(
      "mixed_struct",
      t_struct("m", {{"flag", t_bool()},
                     {"tag", t_enum("e", {{"A", 0}, {"B", 1}})},
                     {"f", t_float()},
                     {"sum", t_opaque_fixed(16)}}),
      {}));
  cases.push_back(make_case("fixed_matrix",
                            t_array_fixed(t_array_fixed(t_int(), 4), 4),
                            {}));
  cases.push_back(make_case("var_doubles", t_array_var(t_double(), 64),
                            {17}));
  cases.push_back(make_case(
      "struct_with_var",
      t_struct("sv", {{"len", t_uint()},
                      {"body", t_array_var(t_int(), 128)},
                      {"crc", t_uint()}}),
      {33}));
  cases.push_back(make_case(
      "array_of_structs",
      t_array_var(t_struct("pt", {{"x", t_int()}, {"y", t_int()}}), 64),
      {21}));
  return cases;
}

TEST_P(TypedEcho, SpecializedClientGenericServer) {
  const TypeCase tc = type_cases()[static_cast<std::size_t>(GetParam())];

  idl::ProcDef proc;
  proc.name = tc.name;
  proc.number = kProc;
  proc.arg_type = tc.arg;
  proc.res_type = tc.res;
  SpecConfig cfg;
  cfg.arg_counts = tc.arg_counts;
  cfg.res_counts = tc.res_counts;
  auto iface = SpecializedInterface::build(proc, kProg, kVers, cfg);
  ASSERT_TRUE(iface.is_ok()) << iface.status().to_string();

  net::SimNetwork net;
  auto* server_ep = net.create_endpoint();
  auto* client_ep = net.create_endpoint();
  rpc::SvcRegistry reg;
  // Generic (Value-level) echo server: the wire format must interoperate.
  core::register_value_handler(reg, kProg, kVers, kProc, tc.arg, tc.res,
                               [](const idl::Value& v) -> Result<idl::Value> {
                                 return v;
                               });
  rpc::attach_sim_server(server_ep, reg);

  SpecializedClient client(*client_ep, server_ep->local_addr(), *iface);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
  for (int round = 0; round < 8; ++round) {
    // Random value whose var-array counts match the pinned counts.
    idl::Value value = idl::random_value(*tc.arg, rng, 64);
    force_counts(*tc.arg, tc.arg_counts, rng, value);
    pe::Slots slots;
    ASSERT_TRUE(
        pe::flatten_value(*tc.arg, value, cfg.arg_counts, slots).is_ok());
    std::vector<std::uint32_t> results(
        static_cast<std::size_t>(iface->res_slots()));
    Status st = client.call(slots, results);
    ASSERT_TRUE(st.is_ok()) << tc.name << ": " << st.to_string();
    EXPECT_EQ(std::vector<std::uint32_t>(slots.begin(), slots.end()),
              results)
        << tc.name;
  }
  EXPECT_EQ(client.stats().generic_fallbacks, 0) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Types, TypedEcho, ::testing::Range(0, 8), [](const auto& info) {
      return std::string(
          type_cases()[static_cast<std::size_t>(info.param)].name);
    });

}  // namespace
}  // namespace tempo
