// BufferArena — a bounded, size-classed pool of recycled byte buffers.
//
// The server runtimes churn through three kinds of buffers on every
// request: datagram receive payloads, TCP record-reassembly buffers,
// and reply frames.  Allocating them per request puts the allocator on
// the hot path (and, for the big stream-reply frames, a ~1 MB zero-fill
// with it); keeping them in ad-hoc per-runtime pools — what PR 3/4 did
// for datagram payloads only — leaves every other buffer allocating and
// gives each call site its own sizing rules.  BufferArena is the one
// shared pool the server runtime draws from, one instance per reactor
// shard so takes mostly hit the shard's own freelists.
//
// Model:
//   * buffers live in power-of-two size classes between
//     cfg.min_class_bytes and cfg.max_class_bytes; take(n) rounds n up
//     to its class and hands out a buffer whose size() IS the class
//     size (callers track their own valid length — a pooled buffer is
//     never shrunk, so reuse performs no allocation and no resize
//     zero-fill);
//   * take(n) with n above the largest class falls back to a plain
//     heap allocation (counted in stats().misses like any other
//     allocation; recycling such a buffer discards it);
//   * recycle() classifies by the buffer's size, rounding DOWN to the
//     largest class that fits, and drops the buffer when the class
//     already holds cfg.max_buffers_per_class entries — growth is
//     bounded by construction, never by luck;
//   * every take is either a hit (served from a freelist) or a miss
//     (had to allocate); stats() exposes both plus recycle/discard
//     counts and the bytes currently pooled.
//
// Thread-safety: take() and recycle() may run concurrently from any
// threads (one mutex per size class).  A buffer crossing threads —
// taken on a reactor shard, recycled by whichever worker served the
// request, possibly a sibling shard's stealing worker — is the normal
// case, not an exception.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/thread_annotations.h"

namespace tempo::common {

struct BufferArenaConfig {
  // Smallest / largest pooled size class; both are rounded to powers of
  // two internally.  Takes above max_class_bytes are heap one-offs.
  std::size_t min_class_bytes = 4096;
  std::size_t max_class_bytes = 2u << 20;
  // Per-class freelist bounds: a class holds at most
  // min(max_buffers_per_class, max_bytes_per_class / class_size)
  // buffers (at least one), so small classes can pool deep request
  // bursts while one jumbo class cannot silently park hundreds of
  // megabytes.  Recycles beyond the bound are discarded.
  std::size_t max_buffers_per_class = 1024;
  std::size_t max_bytes_per_class = 8u << 20;
};

struct BufferArenaStats {
  std::int64_t hits = 0;      // takes served from a freelist
  std::int64_t misses = 0;    // takes that allocated (incl. oversize)
  std::int64_t recycles = 0;  // buffers accepted back into a freelist
  std::int64_t discards = 0;  // recycles dropped (class full, too small,
                              // or an oversize one-off)
  std::int64_t bytes_pooled = 0;  // bytes currently sitting in freelists
  std::int64_t bytes_pinned = 0;  // bytes lent out under pin() (e.g. arena
                                  // slices registered with an io_uring
                                  // provided-buffer ring)
};

class BufferArena {
 public:
  explicit BufferArena(BufferArenaConfig cfg = {});

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  // Returns a buffer with size() >= min_bytes (the class size, or
  // exactly min_bytes for an oversize take).  Contents are
  // unspecified for a recycled buffer — callers own tracking how many
  // bytes are valid.
  Bytes take(std::size_t min_bytes);

  // Hands a buffer back.  Any Bytes is accepted; only buffers at least
  // one class large are pooled (classified by size(), rounded down), so
  // callers should not shrink an arena buffer before recycling it.
  // Empty buffers are ignored.
  void recycle(Bytes buf);

  // The class size take(n) would hand out for n (or n itself for an
  // oversize take) — lets callers size kernel-visible buffers to the
  // exact slice the arena will recycle.
  std::size_t class_size_for(std::size_t n) const;

  // Pin/unpin accounting for buffers whose memory the kernel holds a
  // reference to (registered io_uring buffer rings).  The arena does
  // not track the buffers themselves — the owner must keep the Bytes
  // alive and MUST NOT recycle() a pinned buffer until the kernel
  // reference is gone (unpin first; see src/net/README.md for the
  // ownership contract).  Pure bookkeeping so stats()/metrics expose
  // how many bytes sit under kernel ownership at any moment.
  void pin(std::size_t bytes);
  void unpin(std::size_t bytes);

  BufferArenaStats stats() const;

 private:
  struct SizeClass {
    std::mutex mu;
    std::vector<Bytes> free TEMPO_GUARDED_BY(mu);
  };

  // Index of the class serving a take of `n` bytes (rounding up), or
  // classes_.size() when n exceeds the largest class.
  std::size_t class_for_take(std::size_t n) const;

  std::size_t min_class_;                // power of two
  std::vector<std::size_t> class_bytes_;  // ascending powers of two
  std::vector<std::size_t> class_bound_;  // freelist cap per class
  std::vector<SizeClass> classes_;

  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  mutable std::atomic<std::int64_t> recycles_{0};
  mutable std::atomic<std::int64_t> discards_{0};
  std::atomic<std::int64_t> bytes_pooled_{0};
  std::atomic<std::int64_t> bytes_pinned_{0};
};

}  // namespace tempo::common
