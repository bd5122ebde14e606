#include "core/spec_cache.h"

#include "pe/verify.h"

namespace tempo::core {

namespace {

inline void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

// Paranoid-mode (TEMPO_PLAN_VERIFY=2) re-verification of all four plans
// before a built entry is handed out.  The plans were verified at build;
// this tripwire exists so a plan corrupted between build and publish
// can never reach a caller.  Ok() in every other mode.
Status paranoid_reverify(const SpecializedInterface& iface) {
  if (pe::verify_mode() != pe::VerifyMode::kParanoid) return Status::ok();
  const struct {
    const char* name;
    const pe::Plan& plan;
  } plans[] = {{"encode_call", iface.encode_call_plan()},
               {"decode_reply", iface.decode_reply_plan()},
               {"decode_args", iface.decode_args_plan()},
               {"encode_results", iface.encode_results_plan()}};
  for (const auto& p : plans) {
    const pe::VerifyResult res = pe::verify_plan(p.plan);
    if (!res.ok()) {
      return out_of_range("paranoid re-verify rejected " +
                          std::string(p.name) + " at cache publish: " +
                          res.to_string());
    }
  }
  return Status::ok();
}

}  // namespace

std::size_t SpecKeyHash::operator()(const SpecKey& k) const {
  std::size_t seed = 0;
  hash_combine(seed, k.prog);
  hash_combine(seed, k.vers);
  hash_combine(seed, k.proc);
  hash_combine(seed, k.unroll_factor);
  hash_combine(seed, k.buffer_bytes);
  hash_combine(seed, k.arg_counts.size());
  for (auto c : k.arg_counts) hash_combine(seed, c);
  hash_combine(seed, k.res_counts.size());
  for (auto c : k.res_counts) hash_combine(seed, c);
  return seed;
}

SpecCache::SpecCache() {
  // stats() and size() take the lock themselves, so the callback stays
  // safe against a concurrent get_or_build.  Counters and the gauge sum
  // across multiple live caches.
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& snap) {
        const SpecCacheStats st = stats();
        snap.add_counter("spec_cache.hits", st.hits);
        snap.add_counter("spec_cache.misses", st.misses);
        snap.add_counter("spec_cache.build_failures", st.build_failures);
        snap.add_counter("spec_cache.jit_stubs", st.jit_stubs);
        snap.add_counter("spec_cache.verify_rejects", st.verify_rejects);
        snap.add_gauge("spec_cache.size", static_cast<std::int64_t>(size()));
      });
}

Result<SpecHandle> SpecCache::get_or_build(const idl::ProcDef& proc,
                                           std::uint32_t prog,
                                           std::uint32_t vers,
                                           const SpecConfig& config) {
  SpecKey key{prog,
              vers,
              proc.number,
              config.arg_counts,
              config.res_counts,
              config.unroll_factor,
              config.buffer_bytes};

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.try_emplace(std::move(key));
  Entry& entry = it->second;
  if (!inserted) {
    ++stats_.hits;
    if (entry.iface) return entry.iface;
    return entry.error;
  }

  ++stats_.misses;
  auto built = SpecializedInterface::build(proc, prog, vers, config);
  // In paranoid mode a built interface is re-verified before the table
  // hands it out.
  const Status admit =
      built.is_ok() ? paranoid_reverify(*built) : built.status();
  if (admit.is_ok()) {
    entry.iface =
        std::make_shared<const SpecializedInterface>(std::move(*built));
    stats_.jit_stubs += entry.iface->jit_stub_count();
    return entry.iface;
  }
  entry.error = admit;
  ++stats_.build_failures;
  // The admission pass reports verifier rejections as kOutOfRange (see
  // pe::verify_admit); account them separately — a nonzero
  // spec_cache.verify_rejects means the specializer emitted a plan whose
  // declared contract its own ops violate, which is a bug, not a merely
  // ineligible type.
  if (admit.code() == StatusCode::kOutOfRange) ++stats_.verify_rejects;
  return entry.error;
}

SpecCacheStats SpecCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SpecCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace tempo::core
