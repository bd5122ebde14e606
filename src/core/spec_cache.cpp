#include "core/spec_cache.h"

#include "pe/verify.h"

namespace tempo::core {

namespace {

inline void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

// Paranoid-mode (TEMPO_PLAN_VERIFY=2) re-verification of all four plans
// before a built entry is published.  The plans were verified at build;
// this tripwire exists so a plan corrupted between build and publish
// can never reach the hit path.  Ok() in every other mode.
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

SpecCache::SpecCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  // stats() and size() take the lock themselves, so the callback stays
  // safe against concurrent get_or_build traffic.  Counters sum across
  // multiple live caches; the gauges do too (total slots vs. used).
  metrics_source_ =
      common::metrics().add_source([this](common::MetricsSnapshot& snap) {
        const SpecCacheStats st = stats();
        snap.add_counter("spec_cache.hits", st.hits);
        snap.add_counter("spec_cache.misses", st.misses);
        snap.add_counter("spec_cache.evictions", st.evictions);
        snap.add_counter("spec_cache.build_failures", st.build_failures);
        snap.add_counter("spec_cache.jit_stubs", st.jit_stubs);
        snap.add_counter("spec_cache.verify_rejects", st.verify_rejects);
        snap.add_gauge("spec_cache.size", static_cast<std::int64_t>(size()));
        snap.add_gauge("spec_cache.capacity",
                       static_cast<std::int64_t>(capacity_));
      });
}

void SpecCache::insert_lru_locked(const std::shared_ptr<Entry>& e,
                                  const SpecKey& key) {
  lru_.push_front(key);
  e->lru_it = lru_.begin();
  while (lru_.size() > capacity_) {
    const SpecKey& victim = lru_.back();
    auto it = map_.find(victim);
    if (it != map_.end()) map_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
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

  std::shared_ptr<Entry> entry;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      entry = it->second;
      ++stats_.hits;
      if (!entry->ready) {
        // Another thread is building this key: wait, do not rebuild.
        ready_cv_.wait(lock, [&] { return entry->ready; });
        // The entry may have been evicted from the map while we waited;
        // the shared_ptr keeps the payload valid either way.
        it = map_.find(key);
      }
      // A ready entry still in the map is on the LRU list.  Move its
      // node to the front in place: no allocation and no key copy under
      // the lock.  Negative entries are touched too: a hot ineligible
      // shape must stay cached, or its eviction would let repeated
      // requests re-run the pipeline.
      if (it != map_.end() && it->second == entry) {
        lru_.splice(lru_.begin(), lru_, entry->lru_it);
      }
      if (entry->iface) return entry->iface;
      return entry->error;
    }
    // Miss: claim the build while holding the lock.
    ++stats_.misses;
    entry = std::make_shared<Entry>();
    map_.emplace(key, entry);
  }

  // Build outside the lock — this is the expensive pipeline run.
  auto built = SpecializedInterface::build(proc, prog, vers, config);

  // Ready-entry publish boundary: in paranoid mode, re-verify outside
  // the lock before the entry becomes visible to other threads.
  Status admit = Status::ok();
  if (built.is_ok()) admit = paranoid_reverify(*built);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (built.is_ok() && admit.is_ok()) {
      entry->iface =
          std::make_shared<const SpecializedInterface>(std::move(*built));
      stats_.jit_stubs += entry->iface->jit_stub_count();
      insert_lru_locked(entry, key);
    } else {
      entry->error = built.is_ok() ? admit : built.status();
      ++stats_.build_failures;
      // The admission pass reports verifier rejections as kOutOfRange
      // (see pe::verify_admit); account them separately — a nonzero
      // spec_cache.verify_rejects means the specializer emitted a plan
      // whose declared contract its own ops violate, which is a bug,
      // not a merely-ineligible shape.
      if (entry->error.code() == StatusCode::kOutOfRange) {
        ++stats_.verify_rejects;
      }
      // Negative entries take an LRU slot too: repeated requests for an
      // ineligible shape must not re-run the pipeline, but an adversary
      // minting distinct ineligible keys must not grow the map
      // unboundedly either.
      insert_lru_locked(entry, key);
    }
    entry->ready = true;
  }
  ready_cv_.notify_all();

  if (entry->iface) return entry->iface;
  return entry->error;
}

SpecCacheStats SpecCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SpecCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace tempo::core
