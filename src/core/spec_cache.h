// SpecCache — process-wide memo table for SpecializedInterface.
//
// Building a specialization runs the whole Tempo pipeline (IR corpus,
// partial evaluation of four entry points, verification, native
// compilation); an exact build takes 0.7-1 ms at 100 array elements
// and 10-15 ms at 2000, a class build about 0.3 ms (gcc 12 Release,
// 4-vCPU x86-64 VM), so it must be amortized when a server handles many interfaces and many
// distinct array shapes.  The cache keys on everything the residual
// plans depend on:
//
//   (prog, vers, proc, arg_counts, res_counts, unroll_factor,
//    buffer_bytes)
//
// and returns shared, immutable SpecializedInterface instances.  A class
// interface (counts left empty, see stubspec.h) has one key for every
// array length, so a server whose procedures end in their one variable
// array builds once per procedure, not once per length.
//
// Concurrency contract: get_or_build() is safe from any number of
// threads and builds each key AT MOST ONCE — the first thread to miss
// inserts an in-flight marker and builds outside the lock; later
// threads for the same key block until the build completes and share
// the result (their accesses count as hits).
//
// Bounded memory: ready entries live on an LRU list capped at
// `capacity`; inserting past the cap evicts the least-recently-used
// entry (eviction only drops the cache's reference — callers holding a
// SpecHandle keep their interface alive).  A server exposed to
// adversarial count diversity therefore degrades to rebuild churn, not
// OOM.  Failed builds (plan-ineligible types) are negative-cached so a
// hostile client cannot force a pipeline run per request.
//
// Locking: one mutex guards the map, the LRU list and the counters.
// Only the generic request path consults the cache — a server's hot
// shape lives in CachedSpecService's own handle — so the lock is taken
// once per request whose shape must be learned, never per fast-path
// call.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/stubspec.h"
#include "idl/types.h"

namespace tempo::core {

struct SpecKey {
  std::uint32_t prog = 0;
  std::uint32_t vers = 0;
  std::uint32_t proc = 0;
  std::vector<std::uint32_t> arg_counts;
  std::vector<std::uint32_t> res_counts;
  std::uint32_t unroll_factor = 0;
  std::uint32_t buffer_bytes = 0;

  friend bool operator==(const SpecKey&, const SpecKey&) = default;
};

struct SpecKeyHash {
  std::size_t operator()(const SpecKey& k) const;
};

struct SpecCacheStats {
  std::int64_t hits = 0;        // served from a ready or in-flight entry
  std::int64_t misses = 0;      // builds initiated (one per distinct key)
  std::int64_t evictions = 0;   // LRU entries dropped at capacity
  std::int64_t build_failures = 0;
  std::int64_t jit_stubs = 0;   // native stubs compiled across all builds
                                // (up to 4 per interface; 0 with the
                                // TEMPO_PLAN_JIT knob off)
  std::int64_t verify_rejects = 0;  // subset of build_failures where the
                                    // plan verifier's admission pass
                                    // rejected a residual plan
                                    // (TEMPO_PLAN_VERIFY)
};

using SpecHandle = std::shared_ptr<const SpecializedInterface>;

class SpecCache {
 public:
  explicit SpecCache(std::size_t capacity = 128);

  // Returns the interface for the key derived from
  // (prog, vers, proc.number, config), building it at most once.
  // A non-OK result reproduces the (cached) build failure.
  // no_thread_safety_analysis: the lock is released mid-scope
  // through a unique_lock (build runs outside it), a dynamic pattern
  // the scope-based checker cannot follow.
  Result<SpecHandle> get_or_build(const idl::ProcDef& proc,
                                  std::uint32_t prog, std::uint32_t vers,
                                  const SpecConfig& config)
      TEMPO_NO_THREAD_SAFETY_ANALYSIS;

  SpecCacheStats stats() const;
  std::size_t size() const;          // ready entries currently cached
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    bool ready = false;
    SpecHandle iface;                 // null on build failure
    Status error = Status::ok();
    std::list<SpecKey>::iterator lru_it{};  // valid while ready in map_
  };

  void insert_lru_locked(const std::shared_ptr<Entry>& e, const SpecKey& key)
      TEMPO_REQUIRES(mu_);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::unordered_map<SpecKey, std::shared_ptr<Entry>, SpecKeyHash> map_
      TEMPO_GUARDED_BY(mu_);
  std::list<SpecKey> lru_ TEMPO_GUARDED_BY(mu_);  // front = most recently
                                                  // used; ready only
  SpecCacheStats stats_ TEMPO_GUARDED_BY(mu_);

  // Folds spec_cache.* into the global metrics registry at snapshot
  // time.  Last member: it reads the table, so it unregisters first.
  common::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tempo::core
