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
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"
#include "core/spec_cache.h"
#include "core/stubspec.h"
#include "rpc/svc.h"

namespace tempo::core {

// Application logic on flattened slots: read `args`, fill `results`
// (pre-sized to iface.res_slots()).  Return false for a server fault.
using WordHandler = std::function<bool(std::span<const std::uint32_t> args,
                                       std::span<std::uint32_t> results)>;

struct SpecServiceStats {
  std::int64_t fast_path = 0;
  std::int64_t generic_path = 0;
};

// Registers `handler` for the interface; requests are served through the
// residual plans when possible.  The returned stats object is owned by
// the registry entry (lives as long as the registry).
class SpecializedService {
 public:
  SpecializedService(const SpecializedInterface& iface, WordHandler handler);

  void install(rpc::SvcRegistry& registry);

  const SpecServiceStats& stats() const { return stats_; }

 private:
  bool handle(xdr::XdrStream& in, xdr::XdrStream& out);
  bool handle_generic(xdr::XdrStream& in, xdr::XdrStream& out);

  const SpecializedInterface& iface_;
  WordHandler handler_;
  // Plain (non-atomic) counters: this pinned-shape service is used by
  // single-threaded adapters and benchmarks; the snapshot source reads
  // whatever values are visible, which is exact once traffic quiesces.
  SpecServiceStats stats_;
  common::MetricsRegistry::SourceHandle metrics_source_;  // last member
};

// Dynamic sibling of SpecializedService for servers whose clients send
// *varying* array shapes.  Instead of one pinned specialization it
// learns each request's shape and resolves its residual plans through a
// SpecCache.
//
// The constructor decides from the procedure's types whether class
// plans apply: each side's one variable array ends its message
// (pe::tail_array), or the side has none, and the arguments have one.
// Then a single cache key with no counts serves every length up to the
// cap, and the handler sees the wire count.  Otherwise every distinct
// shape has its own key with its pinned counts.
//
//  * fast path — the most recently learned specialization for this proc
//    (`hot_`) is tried first; its decode plan's guards (count words,
//    lengths) verify the request actually has that shape, or for a
//    class plan that the count fits the cap and the payload.  The cache
//    is not consulted.  ExecStatus::kFallback rewinds the stream and
//    drops to the generic path (guarded specialization, paper §6.2).
//  * generic path — the layered interpreter decodes the value, the
//    actual counts are collected, and the matching specialization is
//    fetched (or built once) from the cache so the *reply* is still
//    encoded through a residual plan; it becomes `hot_`, so the *next*
//    request of this shape hits the fast path.
//
// Thread-safe: handle() may run on many worker threads concurrently
// (see rpc::EventServerRuntime); stats are atomic and `hot_` is an
// atomic<shared_ptr>, so the fast path takes no mutex.
class CachedSpecService {
 public:
  // Application logic on flattened slots, shape passed explicitly:
  // `arg_counts` are the request's variable-array counts (preorder).
  using DynamicWordHandler = std::function<bool(
      std::span<const std::uint32_t> arg_counts,
      std::span<const std::uint32_t> args, std::span<std::uint32_t> results)>;
  // Maps request arg counts to reply res counts (echo-style identity by
  // default).
  using CountMapper = std::function<std::vector<std::uint32_t>(
      std::span<const std::uint32_t> arg_counts)>;

  struct Stats {
    std::atomic<std::int64_t> fast_path{0};     // served fully by plans
    std::atomic<std::int64_t> generic_path{0};  // interpreter decode
    std::atomic<std::int64_t> plan_fallbacks{0};  // hot_ guard misses
    std::atomic<std::int64_t> spec_unavailable{0};  // cache build failed
    // Subset of fast_path served by an interface with compiled stubs
    // (the third tier; equals fast_path when the JIT is on and the
    // shape compiled, 0 when TEMPO_PLAN_JIT is off).
    std::atomic<std::int64_t> jit_fast_path{0};
  };

  CachedSpecService(SpecCache& cache, idl::ProcDef proc, std::uint32_t prog,
                    std::uint32_t vers, DynamicWordHandler handler,
                    CountMapper res_counts_for = {}, SpecConfig base = {});

  void install(rpc::SvcRegistry& registry);

  const Stats& stats() const { return stats_; }

 private:
  enum class PathResult : std::uint8_t;

  bool handle(xdr::XdrStream& in, xdr::XdrStream& out);
  PathResult serve_hot(const SpecializedInterface& h, xdr::XdrStream& in,
                       xdr::XdrStream& out);
  SpecHandle hot() const;
  void set_hot(SpecHandle h);

  SpecCache& cache_;
  idl::ProcDef proc_;
  std::uint32_t prog_, vers_;
  DynamicWordHandler handler_;
  CountMapper res_counts_for_;
  SpecConfig base_;  // unroll_factor / buffer_bytes template for cache keys
  bool class_key_ = false;  // one count-free key serves every length
  Stats stats_;
  // The only hot-shape slot: the fast path runs it, the generic path
  // replaces it.
  std::atomic<SpecHandle> hot_{nullptr};
  // Folds service.* (with the jit/plan/generic tier split) into the
  // global registry.  Last member so it unregisters before stats_ dies.
  common::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tempo::core
