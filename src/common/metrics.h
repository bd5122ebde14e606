// Unified observability plane (DESIGN: the measurement substrate for
// overload control and the KV workload).
//
// Three pieces, all allocation-free on the hot path:
//
//  - LatencyHistogram: HdrHistogram-style log-linear buckets.  One
//    `record(ns)` is a single relaxed fetch_add into the bucket the
//    value indexes (plus a usually-silent max update); no locks, no
//    floating point, wait-free from any number of threads.  32
//    sub-buckets per octave bound the relative quantile error at
//    ~3% (1/32), over the full [0, 2^63) nanosecond range in ~15 KB
//    of atomics.
//
//  - Counter / Gauge: relaxed atomics with names, owned by the
//    registry, stable addresses for life (callers cache the
//    reference and never look up again).
//
//  - MetricsRegistry: names instruments by (name, shard), merges
//    everything into one MetricsSnapshot, and lets components whose
//    stats already live elsewhere (SpecCache, CachedSpecService,
//    SvcRegistry, the server runtimes) fold those counters in at
//    snapshot time through registered source callbacks — one
//    `metrics().snapshot()` sees the whole process.
//
// Snapshots are plain values: mergeable (bucket-wise addition —
// associative and commutative, pinned by test_metrics), comparable,
// and serializable to JSON.  `TEMPO_METRICS=0` turns hot-path
// recording off (the <2% overhead A/B in CI flips exactly this knob);
// `TEMPO_METRICS_DUMP=<path|->` dumps the final snapshot at process
// exit.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tempo::common {

// Steady-clock nanoseconds (the tracing/histogram time base).
std::int64_t monotonic_ns();

// Cached once from TEMPO_METRICS: unset/anything-else = on,
// "0"/"off" = off.  Runtimes consult this at start() and skip all
// hot-path clock reads and records when off.
bool metrics_enabled();

// ---------------------------------------------------------------------------
// Histogram

struct HistogramSnapshot {
  // Bucket-count vector (empty == "no samples"; otherwise
  // LatencyHistogram::kBuckets long) plus the exact observed max.
  std::vector<std::uint64_t> counts;
  std::int64_t max = 0;

  std::uint64_t total() const;
  // Value at quantile q in [0,1]: midpoint of the bucket holding the
  // rank-⌈q·total⌉ sample, clamped to the exact max.  0 when empty.
  std::int64_t quantile(double q) const;
  std::int64_t p50() const { return quantile(0.50); }
  std::int64_t p90() const { return quantile(0.90); }
  std::int64_t p99() const { return quantile(0.99); }
  std::int64_t p999() const { return quantile(0.999); }
  double mean() const;  // bucket-midpoint approximation

  // Bucket-wise addition; max-of-max.  Associative + commutative.
  void merge(const HistogramSnapshot& other);

  bool operator==(const HistogramSnapshot& other) const;
};

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 5;               // 32/octave
  static constexpr unsigned kSubBuckets = 1u << kSubBits;
  static constexpr unsigned kOctaves = 60;              // covers uint64
  static constexpr unsigned kBuckets = kOctaves * kSubBuckets;

  // Wait-free: one relaxed fetch_add on the indexed bucket, plus a
  // load-guarded CAS that only fires on a new maximum.  Negative
  // inputs clamp to 0 (they land in bucket 0 and never corrupt the
  // distribution; the tracing tests assert none occur).
  void record(std::int64_t ns) noexcept {
    const std::uint64_t v = ns <= 0 ? 0u : static_cast<std::uint64_t>(ns);
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (ns > cur && !max_.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
  }

  // Log-linear index: values below 32 map 1:1; above, the top
  // kSubBits+1 bits select (octave, sub-bucket).  Monotone in v.
  static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const unsigned octave =
        static_cast<unsigned>(std::bit_width(v)) - kSubBits;
    return static_cast<std::size_t>(octave) * kSubBuckets +
           static_cast<std::size_t>(v >> (octave - 1)) - kSubBuckets;
  }

  // Smallest value mapping to `index` (bucket_floor(bucket_index(v))
  // <= v, pinned by test_metrics).
  static std::uint64_t bucket_floor(std::size_t index) noexcept {
    const std::size_t octave = index / kSubBuckets;
    const std::uint64_t sub = index % kSubBuckets;
    if (octave == 0) return sub;
    return (kSubBuckets + sub) << (octave - 1);
  }

  // Bucket width (the quantile midpoint is floor + width/2).
  static std::uint64_t bucket_width(std::size_t index) noexcept {
    const std::size_t octave = index / kSubBuckets;
    return octave == 0 ? 1 : std::uint64_t{1} << (octave - 1);
  }

  HistogramSnapshot snapshot() const;
  std::uint64_t total() const;
  void reset();

 private:
  std::atomic<std::uint64_t> counts_[kBuckets]{};
  std::atomic<std::int64_t> max_{0};
};

// ---------------------------------------------------------------------------
// Counter / Gauge

class Counter {
 public:
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

// ---------------------------------------------------------------------------
// Snapshot + registry

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  void add_counter(const std::string& name, std::int64_t v) {
    counters[name] += v;
  }
  void set_gauge(const std::string& name, std::int64_t v) {
    gauges[name] = v;
  }
  // Additive gauge contribution (what sources use, so two live
  // instances of a component sum their pool sizes instead of the
  // later source overwriting the earlier one).
  void add_gauge(const std::string& name, std::int64_t v) {
    gauges[name] += v;
  }
  void merge_histogram(const std::string& name, const HistogramSnapshot& h) {
    histograms[name].merge(h);
  }
  void merge(const MetricsSnapshot& other);

  // {"counters": {...}, "gauges": {...}, "histograms": {name:
  // {count, max, mean, p50, p90, p99, p999}}}.  Metric names are
  // dotted ASCII identifiers by convention; no string escaping.
  std::string to_json() const;
  // Human-readable table (what the examples print on exit).
  void print(std::FILE* f) const;
};

class MetricsRegistry {
 public:
  // Get-or-create by (name, shard).  Returned references are stable
  // for the registry's lifetime — resolve once, record lock-free
  // forever.  Same-name instruments from different shards (or from
  // multiple component instances) sum in the snapshot.
  Counter& counter(const std::string& name, std::size_t shard = 0);
  Gauge& gauge(const std::string& name, std::size_t shard = 0);
  LatencyHistogram& histogram(const std::string& name,
                              std::size_t shard = 0);

  // Components with pre-existing stats structs contribute them at
  // snapshot time.  The handle unregisters on destruction; callbacks
  // run under the registry mutex, so after add_source() returns a
  // removed source is never mid-flight.
  using Source = std::function<void(MetricsSnapshot&)>;
  class SourceHandle {
   public:
    SourceHandle() = default;
    SourceHandle(MetricsRegistry* reg, std::uint64_t id)
        : reg_(reg), id_(id) {}
    ~SourceHandle() { reset(); }
    SourceHandle(SourceHandle&& o) noexcept : reg_(o.reg_), id_(o.id_) {
      o.reg_ = nullptr;
    }
    SourceHandle& operator=(SourceHandle&& o) noexcept {
      if (this != &o) {
        reset();
        reg_ = o.reg_;
        id_ = o.id_;
        o.reg_ = nullptr;
      }
      return *this;
    }
    SourceHandle(const SourceHandle&) = delete;
    SourceHandle& operator=(const SourceHandle&) = delete;
    void reset();

   private:
    MetricsRegistry* reg_ = nullptr;
    std::uint64_t id_ = 0;
  };
  [[nodiscard]] SourceHandle add_source(Source fn);

  // One coherent view: owned instruments (per-shard merged by name)
  // plus every registered source's contribution.
  MetricsSnapshot snapshot() const;

 private:
  friend class SourceHandle;
  void remove_source(std::uint64_t id);

  using Key = std::pair<std::string, std::size_t>;
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::uint64_t, Source> sources_;
  std::uint64_t next_source_id_ = 1;
};

// The process-wide registry (what every component registers into and
// what Runtime::metrics_snapshot() reads).  First use arms the
// TEMPO_METRICS_DUMP on-exit hook.
MetricsRegistry& metrics();

// metrics().snapshot().to_json() to f.
void dump_metrics_json(std::FILE* f);

}  // namespace tempo::common
