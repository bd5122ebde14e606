// SpecCache — process-wide memo table for SpecializedInterface.
//
// Building a specialization runs the whole Tempo pipeline (IR corpus,
// partial evaluation of four entry points, verification, native
// compilation); an exact build takes 0.7-1 ms at 100 array elements
// and 10-15 ms at 2000, a class build about 0.3 ms (gcc 12 Release,
// 4-vCPU x86-64 VM).  Every build runs at setup time: a
// CachedSpecService builds its one interface when it is constructed,
// and no request ever builds, looks up or publishes one.  The table
// keys on everything the residual plans depend on:
//
//   (prog, vers, proc, arg_counts, res_counts, unroll_factor,
//    buffer_bytes)
//
// and returns shared, immutable SpecializedInterface instances.  A class
// interface (counts left empty, see stubspec.h) has one key for every
// array length.
//
// Contract: get_or_build() is safe from any number of threads and
// builds each key exactly once; failed builds (plan-ineligible types)
// are remembered and reproduced, never rebuilt.  One mutex guards the
// map and the counters, and each build runs under it — builds happen at
// setup, so nothing waits behind one on a request path.
#pragma once

#include <cstdint>
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
  std::int64_t hits = 0;        // served from a remembered entry
  std::int64_t misses = 0;      // builds run (one per distinct key)
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
  SpecCache();

  // Returns the interface for the key derived from
  // (prog, vers, proc.number, config), building it exactly once.
  // A non-OK result reproduces the remembered build failure.
  Result<SpecHandle> get_or_build(const idl::ProcDef& proc,
                                  std::uint32_t prog, std::uint32_t vers,
                                  const SpecConfig& config);

  SpecCacheStats stats() const;
  std::size_t size() const;  // entries, failed builds included

 private:
  struct Entry {
    SpecHandle iface;  // null on build failure
    Status error = Status::ok();
  };

  mutable std::mutex mu_;
  std::unordered_map<SpecKey, Entry, SpecKeyHash> map_ TEMPO_GUARDED_BY(mu_);
  SpecCacheStats stats_ TEMPO_GUARDED_BY(mu_);

  // Folds spec_cache.* into the global metrics registry at snapshot
  // time.  Last member: it reads the table, so it unregisters first.
  common::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tempo::core
