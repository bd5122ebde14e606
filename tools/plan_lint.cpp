// plan_lint — run the Plan IR static verifier (pe/verify.h) over the
// compiled-in specialization corpus and print one verdict per residual
// plan.
//
// The corpus is the paper's workload — the §5 int-array echo interface
// across the Table 1/2 array sizes — plus a handful of structured
// shapes (bulk opaques inside kept loops, mixed structs, nested fixed
// arrays) chosen to light up every verifier code path: word ops, bulk
// ops with pad tails, kept loops with packed strides, guard chains —
// and the class plans (counts left open) of the echo interface, a
// struct-prefixed tail array and the KV replication SHIP procedure.
//
// Output, one line per plan; a class plan prints its affine contract
// (declared size at count n, and the cap) next to the end its ops
// reach at the cap:
//
//   ok     echo/n=1000 encode_call     out=4044/4044 slots=1001/1001 loops=1
//   ok     echo/class  decode_args     in=8196/4+4n n<=2048 slots=2048/0+1n ...
//   REJECT bulk/n=20   decode_args     [slot-overflow @12: ...]
//
// Exit status is the number of rejected plans (0 = corpus verifies
// clean), so the tool doubles as a CI gate.  `--verbose` additionally
// dumps the verifier facts for accepted plans.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/stubspec.h"
#include "idl/types.h"
#include "kv/repl.h"
#include "pe/verify.h"

namespace {

constexpr std::uint32_t kProg = 0x20000555;
constexpr std::uint32_t kVers = 1;

struct LintCase {
  std::string label;
  tempo::idl::ProcDef proc;
  tempo::core::SpecConfig config;
};

tempo::idl::ProcDef make_proc(const char* name, std::uint32_t number,
                              tempo::idl::TypePtr arg,
                              tempo::idl::TypePtr res) {
  tempo::idl::ProcDef proc;
  proc.name = name;
  proc.number = number;
  proc.arg_type = std::move(arg);
  proc.res_type = std::move(res);
  return proc;
}

std::vector<LintCase> build_corpus() {
  using namespace tempo::idl;
  std::vector<LintCase> cases;

  // The paper's echo interface (int array) at every Table 1/2 size,
  // both fully unrolled and with kept loops.
  const std::uint32_t kSizes[] = {20, 100, 250, 500, 1000, 2000};
  for (std::uint32_t n : kSizes) {
    for (std::uint32_t unroll : {0u, 4u}) {
      LintCase c;
      c.label = "echo/n=" + std::to_string(n) +
                (unroll == 0 ? "/full" : "/loop");
      c.proc = make_proc("ECHO", 7, t_array_var(t_int(), 2048),
                         t_array_var(t_int(), 2048));
      c.config.arg_counts = {n};
      c.config.res_counts = {n};
      c.config.unroll_factor = unroll;
      cases.push_back(std::move(c));
    }
  }

  // Bulk-op loop bodies (the shape behind the words_needed regression):
  // a kept loop whose body moves opaque bytes, exercising the packed
  // strides and the pad4 slot accounting.
  {
    LintCase c;
    c.label = "bulk/n=20";
    c.proc = make_proc("BULK", 8, t_array_var(t_opaque_fixed(8), 64),
                       t_array_var(t_opaque_fixed(8), 64));
    c.config.arg_counts = {20};
    c.config.res_counts = {20};
    c.config.unroll_factor = 4;
    cases.push_back(std::move(c));
  }

  // Mixed struct: header word, variable body, odd-length opaque tail
  // (pad residue != 0), under both unroll policies.
  for (std::uint32_t unroll : {0u, 4u}) {
    LintCase c;
    c.label = std::string("mixed/n=16") + (unroll == 0 ? "/full" : "/loop");
    TypePtr t = t_struct("m", {{"hdr", t_uint()},
                               {"body", t_array_var(t_uint(), 128)},
                               {"tail", t_opaque_fixed(5)}});
    c.proc = make_proc("MIXED", 9, t, t);
    c.config.arg_counts = {16};
    c.config.res_counts = {16};
    c.config.unroll_factor = unroll;
    cases.push_back(std::move(c));
  }

  // Nested fixed arrays of wide scalars: stride arithmetic with
  // element sizes > 4 and no variable count at all.
  {
    LintCase c;
    c.label = "nested/fixed";
    TypePtr t = t_array_fixed(
        t_struct("e", {{"a", t_hyper()}, {"b", t_opaque_fixed(3)}}), 6);
    c.proc = make_proc("NESTED", 10, t, t);
    c.config.unroll_factor = 0;
    cases.push_back(std::move(c));
  }

  // Class plans: counts left open, one plan per entry point for every
  // count up to the cap.
  {
    LintCase c;
    c.label = "echo/class";
    c.proc = make_proc("ECHO", 7, t_array_var(t_int(), 2048),
                       t_array_var(t_int(), 2048));
    cases.push_back(std::move(c));
  }
  {
    LintCase c;
    c.label = "prefixed/class";
    TypePtr t = t_struct("p", {{"id", t_uint()},
                               {"stamp", t_hyper()},
                               {"data", t_array_var(t_uint(), 128)}});
    c.proc = make_proc("PREFIXED", 11, t, t);
    cases.push_back(std::move(c));
  }
  {
    LintCase c;
    c.label = "kv_ship/class";
    c.proc = tempo::kv::ship_proc();
    cases.push_back(std::move(c));
  }

  return cases;
}

// "<declared>" for an exact plan, "<base>+<slope>n" for a class plan.
std::string affine(std::uint32_t base, std::uint32_t slope, bool open) {
  std::string s = std::to_string(base);
  if (open) s += "+" + std::to_string(slope) + "n";
  return s;
}

void print_facts(const tempo::pe::Plan& plan,
                 const tempo::pe::VerifyFacts& f) {
  const bool open = plan.has_count();
  if (plan.is_encode) {
    std::printf("out=%llu/%s", static_cast<unsigned long long>(f.out_end),
                affine(plan.out_size, plan.out_slope, open).c_str());
  } else {
    std::printf("in=%llu/%s", static_cast<unsigned long long>(f.in_end),
                affine(plan.expected_in, plan.in_slope, open).c_str());
  }
  if (open) std::printf(" n<=%u", plan.count_cap);
  if (plan.is_encode && !f.coverage_exact) std::printf(" (coverage~)");
  std::printf(" slots=%llu/%s loops=%u",
              static_cast<unsigned long long>(f.slot_end),
              affine(plan.words_needed, plan.words_slope, open).c_str(),
              f.loop_count);
  if (f.loop_count > 0) {
    std::printf(" max_iters=%u", f.max_loop_iters);
  }
}

// Verifies one plan, prints its verdict line, returns 1 on rejection.
int lint_plan(const std::string& label, const char* entry,
              const tempo::pe::Plan& plan, bool verbose) {
  const tempo::pe::VerifyResult res = tempo::pe::verify_plan(plan);
  if (res.ok()) {
    std::printf("ok     %-18s %-14s ", label.c_str(), entry);
    print_facts(plan, res.facts);
    if (verbose) {
      std::printf(" instrs=%zu", plan.instrs.size());
    }
    std::printf("\n");
    return 0;
  }
  std::printf("REJECT %-18s %-14s [%s]\n", label.c_str(), entry,
              res.to_string().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      std::fprintf(stderr, "usage: %s [--verbose]\n", argv[0]);
      return 2;
    }
  }

  // The lint must see every plan, including ones the admission pass
  // would refuse to build an interface from — so admission is disabled
  // here and verify_plan runs directly on whatever the specializer
  // produced.
  tempo::pe::set_verify_mode(tempo::pe::VerifyMode::kOff);

  int rejects = 0;
  int plans = 0;
  for (const LintCase& c : build_corpus()) {
    auto iface = tempo::core::SpecializedInterface::build(c.proc, kProg,
                                                          kVers, c.config);
    if (!iface.is_ok()) {
      std::printf("SKIP   %-18s (build failed: %s)\n", c.label.c_str(),
                  iface.status().to_string().c_str());
      continue;
    }
    const struct {
      const char* name;
      const tempo::pe::Plan& plan;
    } entries[] = {{"encode_call", iface->encode_call_plan()},
                   {"decode_reply", iface->decode_reply_plan()},
                   {"decode_args", iface->decode_args_plan()},
                   {"encode_results", iface->encode_results_plan()}};
    for (const auto& e : entries) {
      rejects += lint_plan(c.label, e.name, e.plan, verbose);
      ++plans;
    }
  }

  std::printf("%d plan(s) linted, %d rejected\n", plans, rejects);
  return rejects;
}
