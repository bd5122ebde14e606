// Table 1 + Figures 6-1, 6-2, 6-5: client marshaling time, original vs
// specialized, on both platform profiles.
//
//   pc-native : wall-clock on this host — generic layered C++ encode vs
//               residual-plan encode vs the native compiled stub (plus
//               template-specialized and table-driven reference flavors),
//   ipx-sim   : virtual time from the 40 MHz/SBus cost model — generic
//               IR execution vs cost-counted plan execution.
//
// The paper's claims to check (EXPERIMENTS.md): specialized marshaling
// is several times faster everywhere; on the memory-bound IPX profile
// the speedup *peaks near 250 elements and then declines*; on the
// CPU-bound native profile it grows with size and then bends.
//
// `--json` emits the interpret-vs-plan-vs-compiled measurements as a
// machine-readable document (the CI artifact; BENCH_marshaling.json at
// the repo root is a checked-in baseline of its shape).
#include <cstring>

#include "bench/bench_util.h"
#include "core/tspec.h"
#include "pe/compile.h"
#include "pe/verify.h"

namespace tempo::bench {
namespace {

// One array size, all native encode tiers measured on this host.
struct TierSample {
  std::uint32_t n = 0;
  double generic_ms = 0;   // layered xdr_* path (tier "interpret")
  double table_ms = 0;     // table-driven reference flavor
  double plan_ms = 0;      // residual plan, plan executor (tier "plan")
  double compiled_ms = 0;  // native stub, 0 when not compiled ("compiled")
  std::size_t plan_code_bytes = 0;    // in-memory PInstr footprint
  std::size_t packed_code_bytes = 0;  // serialized Table-3 analog
  std::size_t compiled_code_bytes = 0;
  std::size_t compiled_tmpl_bytes = 0;
};

TierSample measure_encode_tiers(const core::SpecializedInterface& iface,
                                std::uint32_t n) {
  TierSample s;
  s.n = n;
  const pe::Plan& plan = iface.encode_call_plan();
  s.plan_code_bytes = plan.code_bytes();
  s.packed_code_bytes = plan.packed_code_bytes();

  std::vector<std::int32_t> args(n);
  Rng rng(n);
  for (auto& a : args) a = static_cast<std::int32_t>(rng.next_u32());
  std::vector<std::uint32_t> slots(args.begin(), args.end());
  idl::Value value;
  {
    idl::ValueList l(n);
    for (std::uint32_t i = 0; i < n; ++i) l[i].v = args[i];
    value.v = std::move(l);
  }
  const idl::TypePtr arr_t = echo_proc().arg_type;

  Bytes out(65000);
  std::uint32_t xid = 0;

  s.generic_ms = time_ms_per_call([&] {
    benchmark::DoNotOptimize(generic_encode_call(
        args, ++xid, MutableByteSpan(out.data(), out.size())));
  });
  s.table_ms = time_ms_per_call([&] {
    benchmark::DoNotOptimize(table_driven_encode_call(
        *arr_t, value, ++xid, MutableByteSpan(out.data(), out.size())));
  });
  s.plan_ms = time_ms_per_call([&] {
    benchmark::DoNotOptimize(
        run_plan_encode(plan, slots, ++xid,
                        MutableByteSpan(out.data(), out.size()), nullptr));
  });
  if (const pe::CompiledPlan* jit = iface.encode_call_jit()) {
    s.compiled_code_bytes = jit->code_size();
    s.compiled_tmpl_bytes = jit->template_size();
    s.compiled_ms = time_ms_per_call([&] {
      benchmark::DoNotOptimize(jit->run_encode(
          slots, ++xid, MutableByteSpan(out.data(), out.size())));
    });
  }
  return s;
}

void run() {
  print_header("Table 1: Client marshaling performance in ms");

  std::vector<SpeedupRow> native_rows, ipx_rows, p166_rows, tspec_rows,
      table_rows, jit_rows, plan_vs_jit_rows;

  for (std::uint32_t n : paper_sizes()) {
    core::SpecializedInterface iface = make_iface(n);
    const pe::Plan& plan = iface.encode_call_plan();
    const TierSample s = measure_encode_tiers(iface, n);

    native_rows.push_back({n, s.generic_ms, s.plan_ms});
    table_rows.push_back({n, s.table_ms, s.plan_ms});
    if (s.compiled_ms > 0) {
      jit_rows.push_back({n, s.generic_ms, s.compiled_ms});
      plan_vs_jit_rows.push_back({n, s.plan_ms, s.compiled_ms});
    }

    // -- ipx-sim and p166-sim: cost model --
    std::vector<std::uint32_t> slots(n);
    Rng rng(n);
    for (auto& w : slots) w = rng.next_u32();
    ipx_rows.push_back(
        {n, sim_generic_encode_ms(iface, slots, n, CostParams::ipx_sunos()),
         sim_plan_encode_ms(plan, slots, CostParams::ipx_sunos())});
    p166_rows.push_back(
        {n, sim_generic_encode_ms(iface, slots, n, CostParams::p166_linux()),
         sim_plan_encode_ms(plan, slots, CostParams::p166_linux())});
  }

  // Template-specialized flavor (compile-time sizes must be literal).
  {
    auto time_tspec = [&]<std::size_t N>() {
      std::vector<std::uint32_t> slots(N);
      Rng rng(N);
      for (auto& s : slots) s = rng.next_u32();
      Bytes out(65000);
      std::uint32_t xid = 0;
      using Call = core::tspec::IntArrayCall<kProg, kVers, kProc, N>;
      const double ms = time_ms_per_call([&] {
        benchmark::DoNotOptimize(Call::encode(
            ++xid, slots, std::span<std::uint8_t>(out.data(), out.size())));
      });
      return ms;
    };
    const double t20 = time_tspec.operator()<20>();
    const double t100 = time_tspec.operator()<100>();
    const double t250 = time_tspec.operator()<250>();
    const double t500 = time_tspec.operator()<500>();
    const double t1000 = time_tspec.operator()<1000>();
    const double t2000 = time_tspec.operator()<2000>();
    const double t[] = {t20, t100, t250, t500, t1000, t2000};
    for (std::size_t i = 0; i < native_rows.size(); ++i) {
      tspec_rows.push_back(
          {native_rows[i].n, native_rows[i].original_ms, t[i]});
    }
  }

  print_speedup_table("IPX/SunOS ipx-sim, cost model", ipx_rows);
  std::printf("\n");
  print_speedup_table("PC/Linux p166-sim, cost model", p166_rows);
  std::printf("\n");
  print_speedup_table("this host, native wall clock (modern CPU)",
                      native_rows);
  std::printf("\n");
  print_speedup_table("pc-native, template-specialized (tspec)", tspec_rows);
  std::printf("\n");
  print_speedup_table("pc-native, table-driven baseline vs plan",
                      table_rows);
  if (!jit_rows.empty()) {
    std::printf("\n");
    print_speedup_table("pc-native, generic vs compiled stub (JIT tier)",
                        jit_rows);
    std::printf("\n");
    print_speedup_table("pc-native, plan executor vs compiled stub",
                        plan_vs_jit_rows);
  } else {
    std::printf("\n(compiled-stub tier inactive: unsupported host or "
                "TEMPO_PLAN_JIT off)\n");
  }

  print_header("Figure 6-1: marshaling time, original code");
  print_series("IPX/Sunos original (ms)", ipx_rows, false);
  print_series("PC/Linux original (ms)", p166_rows, false);

  print_header("Figure 6-2: marshaling time, specialized code");
  {
    std::vector<SpeedupRow> ipx_spec, pc_spec;
    for (auto r : ipx_rows) {
      ipx_spec.push_back({r.n, r.specialized_ms, 1});
    }
    for (auto r : p166_rows) {
      pc_spec.push_back({r.n, r.specialized_ms, 1});
    }
    print_series("IPX/Sunos specialized (ms)", ipx_spec, false);
    print_series("PC/Linux specialized (ms)", pc_spec, false);
  }

  print_header("Figure 6-5: speedup ratio for client marshaling");
  print_series("IPX/Sunos speedup", ipx_rows, true);
  print_series("PC/Linux speedup", p166_rows, true);
  print_series("this-host-native speedup", native_rows, true);
  if (!jit_rows.empty()) {
    print_series("this-host-compiled speedup", jit_rows, true);
  }

  // Shape checks (reported, also asserted in EXPERIMENTS.md):
  const auto peak = std::max_element(
      ipx_rows.begin(), ipx_rows.end(), [](const auto& a, const auto& b) {
        return a.original_ms / a.specialized_ms <
               b.original_ms / b.specialized_ms;
      });
  std::printf("\nipx-sim speedup peaks at array size %u (paper: 250)\n",
              peak->n);
}

// Machine-readable interpret-vs-plan-vs-compiled document for CI.
void run_json() {
  JsonWriter jw(stdout);
  jw.begin_object();
  jw.schema("marshaling");
  jw.field("workload", "echo int-array call encode");
  jw.key_array("tiers");
  jw.value("interpret");
  jw.value("plan");
  jw.value("compiled");
  jw.end_array();
  jw.key_object("jit");
  jw.field("host_supported", pe::jit_supported_host());
  jw.field("env_enabled", pe::jit_enabled_by_env());
  jw.end_object();
  jw.key_array("sizes");
  for (const std::uint32_t n : paper_sizes()) {
    core::SpecializedInterface iface = make_iface(n);
    const TierSample s = measure_encode_tiers(iface, n);
    jw.begin_object();
    jw.field("n", n);
    jw.field("interpret_ms", s.generic_ms);
    jw.field("table_ms", s.table_ms);
    jw.field("plan_ms", s.plan_ms);
    jw.field("compiled_ms", s.compiled_ms);
    jw.field("speedup_plan", s.plan_ms > 0 ? s.generic_ms / s.plan_ms : 0.0);
    jw.field("speedup_compiled",
             s.compiled_ms > 0 ? s.generic_ms / s.compiled_ms : 0.0);
    jw.field("plan_code_bytes", s.plan_code_bytes);
    jw.field("packed_code_bytes", s.packed_code_bytes);
    jw.field("compiled_code_bytes", s.compiled_code_bytes);
    jw.field("compiled_tmpl_bytes", s.compiled_tmpl_bytes);
    jw.end_object();
  }
  jw.end_array();
  // A/B datapoint for the plan-verifier admission pass
  // (TEMPO_PLAN_VERIFY): the same spec build timed with the verifier
  // off vs paranoid.  The delta is the entire cost of the knob — the
  // request path (exec_*) never calls the verifier, so there is no
  // per-call number to measure.
  jw.key_object("verify_build_cost");
  {
    const std::uint32_t n = 1000;
    pe::set_verify_mode(pe::VerifyMode::kOff);
    const double off_ms =
        time_ms_per_call([&] { make_iface(n); }, /*min_iters=*/20);
    pe::set_verify_mode(pe::VerifyMode::kParanoid);
    const double on_ms =
        time_ms_per_call([&] { make_iface(n); }, /*min_iters=*/20);
    pe::set_verify_mode(pe::VerifyMode::kAdmit);
    jw.field("n", n);
    jw.field("build_ms_verify_off", off_ms);
    jw.field("build_ms_verify_paranoid", on_ms);
    jw.field("overhead_pct",
             off_ms > 0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0);
  }
  jw.end_object();
  jw.end_object();
}

}  // namespace
}  // namespace tempo::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      tempo::bench::run_json();
      return 0;
    }
  }
  tempo::bench::run();
  return 0;
}
