// Server-side specialization: a SvcRegistry handler that decodes
// arguments and encodes results through residual plans, with the generic
// type-interpreter path as the guarded fallback.
//
// The plan fast path engages when the request stream exposes its buffer
// (XDR_INLINE succeeds — true for the XdrMem the runtime dispatches
// every UDP datagram and every reassembled TCP record through, not for
// the paper-faithful xdrrec record stream) and the request matches the
// specialization; otherwise the request is served by the generic path.
// Either way the application logic sees flattened words.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/metrics.h"
#include "common/status.h"
#include "core/spec_cache.h"
#include "core/stubspec.h"
#include "rpc/svc.h"

namespace tempo::core {

// The server's specialized service, for fixed and varying array
// lengths alike.  The constructor builds the procedure's one interface
// from its types alone, as Tempo specialized before the program ran:
// one get_or_build through `cache` with no pinned counts.
// A side whose one variable array ends its message (pe::tail_array)
// gets class plans serving every length up to a cap, a count-free side
// gets exact plans, and the handler sees the wire count.  The interface
// is kept when every open result side can take its count from an open
// argument side; otherwise — or when the build fails, as for a variable
// array followed by fixed fields — the procedure is served generically
// for life.  No request builds, looks up or publishes anything.
//
//  * fast path — the interface's decode plan runs first; its guards
//    (count word, cap, payload length) verify the request has the shape
//    the plan serves.  ExecStatus::kFallback rewinds the stream and
//    drops to the generic path (guarded specialization, paper §6.2).
//  * generic path — the layered interpreter decodes the value and the
//    handler runs on its flattened words; the reply still encodes
//    through the interface when the interface covers its count.
//
// Result counts come from the types: a count-free result side has none,
// an open one takes the argument counts (echo-style).
//
// Thread-safe: handle() may run on many worker threads concurrently
// (see rpc::EventServerRuntime); the interface is immutable after
// construction and the stats are atomic, so no path takes a lock.
class CachedSpecService {
 public:
  // Application logic on flattened slots, shape passed explicitly:
  // `arg_counts` are the request's variable-array counts (preorder).
  using DynamicWordHandler = std::function<bool(
      std::span<const std::uint32_t> arg_counts,
      std::span<const std::uint32_t> args, std::span<std::uint32_t> results)>;

  struct Stats {
    std::atomic<std::int64_t> fast_path{0};     // served fully by plans
    std::atomic<std::int64_t> generic_path{0};  // interpreter decode
    std::atomic<std::int64_t> plan_fallbacks{0};  // decode guard misses
    // Subset of fast_path served by an interface with compiled stubs
    // (the third tier; equals fast_path when the JIT is on and the
    // interface compiled, 0 when TEMPO_PLAN_JIT is off).
    std::atomic<std::int64_t> jit_fast_path{0};
  };

  CachedSpecService(SpecCache& cache, idl::ProcDef proc, std::uint32_t prog,
                    std::uint32_t vers, DynamicWordHandler handler);

  void install(rpc::SvcRegistry& registry);

  const Stats& stats() const { return stats_; }

 private:
  enum class PathResult : std::uint8_t;

  bool handle(xdr::XdrStream& in, xdr::XdrStream& out);
  PathResult serve_fast(xdr::XdrStream& in, xdr::XdrStream& out);
  bool serve_generic(xdr::XdrStream& in, xdr::XdrStream& out);

  const idl::ProcDef proc_;
  const std::uint32_t prog_, vers_;
  const DynamicWordHandler handler_;
  // The result side has variable arrays; it takes the argument counts.
  const bool res_counted_;
  // Built at construction; null when the procedure is served
  // generically.
  const SpecHandle iface_;
  Stats stats_;
  // Folds service.* (with the jit/plan/generic tier split) into the
  // global registry.  Last member so it unregisters before stats_ dies.
  common::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tempo::core
