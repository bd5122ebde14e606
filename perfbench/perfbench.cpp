// perfbench — the repository's end-to-end benchmark.
//
// One process runs one workload: a fresh server (rpc::EventServerRuntime
// with one reactor and two workers, every other knob at its default) and
// ONE load-generating thread that keeps a fixed window of calls in flight
// over one UDP socket or one TCP connection.  Every reply is verified.
// A single-client ping-pong (bimodal on wakeup placement) and a
// sleep-paced open loop (the generator falls behind its own schedule)
// both proved unsteady on small shared VMs; a pipelined closed loop
// holds, so that is the only shape used.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics over ten segments, each a
// fresh world set up (runtime construction, warm builds, prefill,
// fixed-count warm-up), measured for S/10 seconds and torn down; set-up
// time is the median of the ten, the timings are pooled over all ten
// measured windows.  --trace 1 measures S/2 seconds
// untraced and S/2 seconds with every request traced, and prints the
// per-layer ledger.  Every layer is measured from outside: the harness
// times its own calls into public functions, or reads the stats,
// histograms and trace rings the runtime, cache, arena and KV objects
// already expose.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it carries the run's environment, input
// digest, measured input shares and latency tails.  Exit status is 0
// only when every reply and every end-of-run book checked out.
#include <poll.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/endian.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/service.h"
#include "core/spec_cache.h"
#include "core/stubspec.h"
#include "idl/types.h"
#include "kv/repl.h"
#include "kv/service.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "pe/verify.h"
#include "rpc/event_runtime.h"
#include "rpc/svc.h"
#include "xdr/xdrrec.h"

namespace tempo::perfbench {
namespace {

// ------------------------------------------------------------- clocks

std::int64_t now_ns() { return common::monotonic_ns(); }

std::int64_t cpu_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

// FNV-1a, folded one 64-bit word at a time: the input digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
};

// --------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Quantile q of LatencyHistogram bucket counts, interpolated linearly
// inside the bucket that holds the rank (bucket floors alone would read
// identically run after run).
double bucket_quantile(const std::vector<std::uint64_t>& counts, double q) {
  using H = common::LatencyHistogram;
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double c = static_cast<double>(counts[i]);
    if (cum + c >= rank) {
      const double frac = std::clamp((rank - cum) / c, 0.0, 1.0);
      return static_cast<double>(H::bucket_floor(i)) +
             frac * static_cast<double>(H::bucket_width(i));
    }
    cum += c;
  }
  return 0.0;
}

// Quantile of the samples a runtime histogram gained between two
// snapshots.
double hist_quantile(const common::HistogramSnapshot& end,
                     const common::HistogramSnapshot& begin, double q) {
  std::vector<std::uint64_t> d(end.counts.size(), 0);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const std::uint64_t b = i < begin.counts.size() ? begin.counts[i] : 0;
    d[i] = end.counts[i] >= b ? end.counts[i] - b : 0;
  }
  return bucket_quantile(d, q);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ------------------------------------------------------ /proc readers

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

// Scheduler books of every thread but the generator, plus the host's
// steal ticks.
struct ProcSample {
  std::map<int, std::pair<std::int64_t, std::int64_t>> tasks;  // tid ->
  // (context switches, run-queue wait ns)
  std::int64_t steal = 0;
  std::int64_t ticks = 0;
};

ProcSample sample_proc(int exclude_tid) {
  namespace fs = std::filesystem;
  ProcSample s;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator("/proc/self/task", ec)) {
    const int tid = std::atoi(e.path().filename().c_str());
    if (tid == exclude_tid) continue;
    std::int64_t ctx = 0, wait = 0;
    std::ifstream status(e.path() / "status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        ctx += std::atoll(line.c_str() + line.find(':') + 1);
      }
    }
    std::ifstream sched(e.path() / "schedstat");
    std::int64_t run = 0;
    sched >> run >> wait;
    s.tasks[tid] = {ctx, wait};
  }
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int i = 0; i < 8; ++i) {
    std::int64_t v = 0;
    stat >> v;
    s.ticks += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

// Sums the per-thread deltas of threads alive at both samples.
std::pair<std::int64_t, std::int64_t> task_deltas(const ProcSample& a,
                                                  const ProcSample& b) {
  std::int64_t ctx = 0, wait = 0;
  for (const auto& [tid, v] : b.tasks) {
    const auto it = a.tasks.find(tid);
    if (it == a.tasks.end()) continue;
    ctx += v.first - it->second.first;
    wait += v.second - it->second.second;
  }
  return {ctx, wait};
}

// ------------------------------------------------------- wire helpers

constexpr std::uint32_t kEchoProg = 0x20000555;
constexpr std::uint32_t kEchoVers = 1;
constexpr std::uint32_t kEchoProc = 7;
constexpr std::uint32_t kMaxArray = 2048;
constexpr std::size_t kCallHeaderBytes = 40;
constexpr std::size_t kReplyHeaderBytes = 24;
constexpr std::size_t kMaxRequestBytes = 16 * 1024;

// The paper's test program: echo an int array of up to 2000 elements.
idl::ProcDef echo_proc() {
  idl::ProcDef proc;
  proc.name = "ECHO";
  proc.number = kEchoProc;
  proc.arg_type = idl::t_array_var(idl::t_int(), kMaxArray);
  proc.res_type = idl::t_array_var(idl::t_int(), kMaxArray);
  return proc;
}

// RPC call header with AUTH_NONE credential and verifier.
void put_call_header(std::uint8_t* out, std::uint32_t xid, std::uint32_t prog,
                     std::uint32_t vers, std::uint32_t proc) {
  const std::uint32_t w[10] = {xid, 0, 2, prog, vers, proc, 0, 0, 0, 0};
  for (int i = 0; i < 10; ++i) store_be32(out + 4 * i, w[i]);
}

// An accepted, successful reply to `xid` with an AUTH_NONE verifier.
bool reply_header_ok(ByteSpan r, std::uint32_t xid) {
  if (r.size() < kReplyHeaderBytes || load_be32(r.data()) != xid) return false;
  for (std::size_t off = 4; off < kReplyHeaderBytes; off += 4) {
    if (load_be32(r.data() + off) != (off == 4 ? 1u : 0u)) return false;
  }
  return true;
}

std::size_t pad4(std::size_t n) { return (n + 3) & ~std::size_t{3}; }

// The XDR body of an int array: count word then the elements.
Bytes array_body(const std::vector<std::uint32_t>& words) {
  Bytes b(4 + 4 * words.size());
  store_be32(b.data(), static_cast<std::uint32_t>(words.size()));
  for (std::size_t i = 0; i < words.size(); ++i) {
    store_be32(b.data() + 4 + 4 * i, words[i]);
  }
  return b;
}

// Every runtime knob at its default except the size: one reactor and
// two workers, so server plus generator threads equal a 4-vCPU host.
rpc::EventServerRuntimeConfig server_config(bool traced) {
  rpc::EventServerRuntimeConfig cfg;
  cfg.reactors = 1;
  cfg.workers = 2;
  if (traced) {
    cfg.trace_sample = 1;
    cfg.trace_ring = 16384;
  }
  return cfg;
}

// Harness failure: no result line, nonzero exit.  _Exit, because server
// threads may still be running and must not race static destructors.
[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

std::unique_ptr<rpc::EventServerRuntime> start_runtime(
    rpc::SvcRegistry& reg, rpc::EventServerRuntimeConfig cfg) {
  auto rt = std::make_unique<rpc::EventServerRuntime>(reg, cfg);
  const Status st = rt->start();
  if (!st.is_ok()) die("cannot start server runtime: " + st.to_string());
  return rt;
}

// ----------------------------------------------------------- workloads

// What one workload contributes: a fresh server world per set-up, one
// deterministic request stream per seed (continued across set-ups, so
// the segments of a run sample different stretches of it), and a
// verifier for each reply.  Slots name the generator's in-flight calls.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual bool tcp() const { return false; }
  virtual int window() const { return 16; }
  virtual std::int64_t warmup_calls() const = 0;
  // Server world plus any warm state (spec builds, prefill).
  virtual void build(bool traced, const std::string& workdir) = 0;
  virtual void teardown() = 0;
  virtual rpc::EventServerRuntime& server() = 0;
  // Encodes the stream's next call into `out` (at most kMaxRequestBytes);
  // returns its length.
  virtual std::size_t next(int slot, std::uint32_t xid, std::uint8_t* out) = 0;
  virtual bool check(int slot, std::uint32_t xid, ByteSpan reply) = 0;
  // The call in `slot` was never answered.
  virtual void expire(int slot) { (void)slot; }
  // End-of-world books (all calls drained); false fails the run.
  virtual bool finish(std::string& why) {
    (void)why;
    return true;
  }
  // Digest of the first kDigestCalls requests the seed generates.
  virtual std::uint64_t inputs_digest() const = 0;
  // What the traced run's probes time: fresh builds of `shapes` (each
  // `reps` times) for core.build_ms, and the interface of shapes[0] for
  // pe.client_{en,de}code_ns.
  struct Probe {
    idl::ProcDef proc;
    std::uint32_t prog = 0;
    std::vector<core::SpecConfig> shapes;
    int reps = 1;
  };
  virtual Probe probe() const = 0;

  // Measured-request shares, by bucket label.
  void set_measuring(bool on) { measuring_ = on; }
  const std::vector<std::pair<std::string, std::int64_t>>& shares() const {
    return shares_;
  }

  static constexpr int kDigestCalls = 65536;

 protected:
  void count_share(std::size_t bucket) {
    if (measuring_) ++shares_[bucket].second;
  }
  void set_share_labels(std::vector<std::string> labels) {
    shares_.clear();
    for (auto& l : labels) shares_.emplace_back(std::move(l), 0);
  }

  std::uint64_t seed_;

 private:
  bool measuring_ = false;
  std::vector<std::pair<std::string, std::int64_t>> shares_;
};

// Server side of the echo workloads: a CachedSpecService (default
// SpecCache) echoing its argument array, behind the workload's runtime.
struct EchoServer {
  explicit EchoServer(bool traced)
      : service(cache, echo_proc(), kEchoProg, kEchoVers,
                [](std::span<const std::uint32_t>,
                   std::span<const std::uint32_t> args,
                   std::span<std::uint32_t> results) {
                  std::copy(args.begin(), args.end(), results.begin());
                  return true;
                }) {
    service.install(reg);
    runtime = start_runtime(reg, server_config(traced));
  }
  ~EchoServer() { runtime->stop(); }
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  core::SpecCache cache;
  core::CachedSpecService service;
  rpc::SvcRegistry reg;
  std::unique_ptr<rpc::EventServerRuntime> runtime;
};

// echo-small / echo-large-tcp: the paper's specialized client.  Calls
// are encoded with exec_encode_call and replies decoded with
// exec_decode_reply of a SpecializedInterface for the one array size;
// the server resolves the same shape through its SpecCache hot slot.
class EchoWorkload final : public Workload {
 public:
  EchoWorkload(std::uint64_t seed, std::uint32_t n, bool over_tcp,
               int window, std::int64_t warmup)
      : Workload(seed), n_(n), tcp_(over_tcp), window_(window),
        warmup_(warmup) {
    Rng rng(mix64(seed ^ 0xec40));
    pool_.resize(kPool);
    for (auto& args : pool_) {
      args.resize(n_);
      for (auto& w : args) w = rng.next_u32();
      bodies_.push_back(array_body(args));
    }
    slot_pick_.resize(static_cast<std::size_t>(window_));
    results_.resize(n_);
    rng_ = Rng(mix64(seed));
    set_share_labels({"args_pool_low_half", "args_pool_high_half"});
  }

  bool tcp() const override { return tcp_; }
  int window() const override { return window_; }
  std::int64_t warmup_calls() const override { return warmup_; }

  void build(bool traced, const std::string&) override {
    server_ = std::make_unique<EchoServer>(traced);
    auto iface = core::SpecializedInterface::build(echo_proc(), kEchoProg,
                                                   kEchoVers, shape());
    if (!iface.is_ok()) die("client specialization failed");
    iface_ = std::make_unique<core::SpecializedInterface>(std::move(*iface));
  }

  void teardown() override {
    server_.reset();
    iface_.reset();
  }

  rpc::EventServerRuntime& server() override { return *server_->runtime; }

  std::size_t next(int slot, std::uint32_t xid, std::uint8_t* out) override {
    const std::size_t pick = rng_.next_below(kPool);
    slot_pick_[static_cast<std::size_t>(slot)] = pick;
    count_share(pick < kPool / 2 ? 0 : 1);
    const std::size_t len = iface_->encode_call_plan().out_size;
    if (iface_->exec_encode_call(pool_[pick], xid,
                                 MutableByteSpan(out, kMaxRequestBytes)) !=
        pe::ExecStatus::kOk) {
      die("encode plan rejected its inputs");
    }
    return len;
  }

  bool check(int slot, std::uint32_t xid, ByteSpan reply) override {
    const std::size_t pick = slot_pick_[static_cast<std::size_t>(slot)];
    const Bytes& body = bodies_[pick];
    if (!reply_header_ok(reply, xid) ||
        reply.size() != kReplyHeaderBytes + body.size() ||
        std::memcmp(reply.data() + kReplyHeaderBytes, body.data(),
                    body.size()) != 0) {
      return false;
    }
    return iface_->exec_decode_reply(reply, xid, results_) ==
               pe::ExecStatus::kOk &&
           results_ == pool_[pick];
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    for (const auto& args : pool_) {
      for (std::uint32_t w : args) d.add(w);
    }
    Rng rng(mix64(seed_));
    for (int i = 0; i < kDigestCalls; ++i) d.add(rng.next_below(kPool));
    return d.h;
  }

  Probe probe() const override {
    return {echo_proc(), kEchoProg, {shape()}, n_ > 1000 ? 9 : 15};
  }

 private:
  static constexpr std::size_t kPool = 64;

  core::SpecConfig shape() const {
    core::SpecConfig cfg;
    cfg.arg_counts = {n_};
    cfg.res_counts = {n_};
    return cfg;
  }

  std::uint32_t n_;
  bool tcp_;
  int window_;
  std::int64_t warmup_;
  std::vector<std::vector<std::uint32_t>> pool_;
  std::vector<Bytes> bodies_;
  std::vector<std::size_t> slot_pick_;
  std::vector<std::uint32_t> results_;
  Rng rng_;

  std::unique_ptr<EchoServer> server_;
  std::unique_ptr<core::SpecializedInterface> iface_;
};

// Zipf(s) over n ranks: rank r has weight 1/(r+1)^s.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (auto& c : cdf) c /= total;
  return cdf;
}

std::size_t zipf_rank(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

// shape-mix: 512 array lengths spread over [1, 2000], drawn Zipf(1.7)
// against a server SpecCache of the default 128 entries, so a small,
// steady share of calls runs the full specialization build and most of
// the rest take the hot-slot guard miss into the generic decode and a
// locked cache lookup.  The draws are stratified: every block of 4096
// calls carries each shape's Zipf quota (systematic sampling from one
// seeded offset) in seeded order, which keeps the build count from
// drifting with sampling noise.  The rank -> length map is fixed, not
// seeded, so every seed offers the same work mix.
class ShapeMixWorkload final : public Workload {
 public:
  static constexpr std::size_t kShapes = 512;
  static constexpr std::size_t kBlock = 4096;
  static constexpr std::size_t kWarmShapes = 32;
  static constexpr double kZipfS = 1.7;

  explicit ShapeMixWorkload(std::uint64_t seed)
      : Workload(seed), cdf_(zipf_cdf(kShapes, kZipfS)) {
    lengths_.resize(kShapes);
    for (std::size_t i = 0; i < kShapes; ++i) {
      lengths_[i] = static_cast<std::uint32_t>(1 + i * 1999 / (kShapes - 1));
    }
    Rng perm(0x5a4e5);
    for (std::size_t i = kShapes - 1; i > 0; --i) {
      std::swap(lengths_[i], lengths_[perm.next_below(i + 1)]);
    }
    Rng rng(mix64(seed ^ 0x54a9e));
    for (std::size_t r = 0; r < kShapes; ++r) {
      std::vector<std::uint32_t> args(lengths_[r]);
      for (auto& w : args) w = rng.next_u32();
      Bytes req(kCallHeaderBytes);
      put_call_header(req.data(), 0, kEchoProg, kEchoVers, kEchoProc);
      const Bytes body = array_body(args);
      req.insert(req.end(), body.begin(), body.end());
      requests_.push_back(std::move(req));
    }
    slot_rank_.resize(16);
    stream_ = Stream(seed, cdf_);
    set_share_labels({"rank_1", "rank_2-8", "rank_9-32", "rank_33-128",
                      "rank_129-512"});
  }

  std::int64_t warmup_calls() const override { return kBlock; }

  void build(bool traced, const std::string&) override {
    server_ = std::make_unique<EchoServer>(traced);
    for (const auto& cfg : warm_shapes()) {
      if (!server_->cache.get_or_build(echo_proc(), kEchoProg, kEchoVers, cfg)
               .is_ok()) {
        die("warm shape build failed");
      }
    }
  }

  void teardown() override { server_.reset(); }

  rpc::EventServerRuntime& server() override { return *server_->runtime; }

  std::size_t next(int slot, std::uint32_t xid, std::uint8_t* out) override {
    const std::size_t rank = stream_.next();
    slot_rank_[static_cast<std::size_t>(slot)] = rank;
    count_share(rank == 0 ? 0 : rank < 8 ? 1 : rank < 32 ? 2 : rank < 128 ? 3
                                                                          : 4);
    const Bytes& req = requests_[rank];
    std::memcpy(out, req.data(), req.size());
    store_be32(out, xid);
    return req.size();
  }

  bool check(int slot, std::uint32_t xid, ByteSpan reply) override {
    const Bytes& req = requests_[slot_rank_[static_cast<std::size_t>(slot)]];
    const std::size_t body = req.size() - kCallHeaderBytes;
    return reply_header_ok(reply, xid) &&
           reply.size() == kReplyHeaderBytes + body &&
           std::memcmp(reply.data() + kReplyHeaderBytes,
                       req.data() + kCallHeaderBytes, body) == 0;
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    for (const auto& req : requests_) {
      for (std::size_t i = 0; i < req.size(); i += 4) d.add(load_be32(&req[i]));
    }
    Stream s(seed_, cdf_);
    for (int i = 0; i < kDigestCalls; ++i) d.add(s.next());
    return d.h;
  }

  Probe probe() const override {
    return {echo_proc(), kEchoProg, warm_shapes(), 1};
  }

 private:
  // The hottest shapes, keyed exactly as CachedSpecService keys them.
  std::vector<core::SpecConfig> warm_shapes() const {
    std::vector<core::SpecConfig> out;
    for (std::size_t r = 0; r < kWarmShapes; ++r) {
      core::SpecConfig cfg;
      cfg.arg_counts = {lengths_[r]};
      cfg.res_counts = {lengths_[r]};
      out.push_back(cfg);
    }
    return out;
  }

  // Stratified Zipf draws: one block of kBlock ranks at a time.
  class Stream {
   public:
    Stream() = default;
    Stream(std::uint64_t seed, const std::vector<double>& cdf)
        : rng_(mix64(seed)), cdf_(&cdf) {}
    std::size_t next() {
      if (pos_ == block_.size()) refill();
      return block_[pos_++];
    }

   private:
    void refill() {
      block_.resize(kBlock);
      const double u = rng_.next_double();
      for (std::size_t k = 0; k < kBlock; ++k) {
        block_[k] = zipf_rank(*cdf_, (u + static_cast<double>(k)) /
                                         static_cast<double>(kBlock));
      }
      for (std::size_t i = kBlock - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.next_below(i + 1)]);
      }
      pos_ = 0;
    }
    Rng rng_;
    const std::vector<double>* cdf_ = nullptr;
    std::vector<std::size_t> block_;
    std::size_t pos_ = 0;
  };

  std::vector<double> cdf_;
  std::vector<std::uint32_t> lengths_;  // by popularity rank
  std::vector<Bytes> requests_;         // by rank, xid word left 0
  std::vector<std::size_t> slot_rank_;
  Stream stream_;

  std::unique_ptr<EchoServer> server_;
};

// kv-mixed: the string-heavy KV program (generic idl/xdr tier).  75%
// GET, 20% PUT, 5% DEL over Zipf(0.99) of 64k keys prefilled at set-up,
// 64-byte values.  The primary logs to a no-fsync WAL and a live
// KvReplicator ships every commit to an in-process replica over the
// plan/JIT tier; a maintenance thread runs version-chain GC on both.
//
// Verification keeps a per-key model of acknowledged writes, ordered by
// the commit sequence each PUT/DEL reply carries.  A GET must return the
// newest acknowledged state at its send time or the state of a write to
// the same key that was in flight while the GET was.
class KvWorkload final : public Workload {
 public:
  static constexpr std::uint32_t kKeys = 65536;
  static constexpr std::size_t kValueBytes = 64;
  static constexpr double kZipfS = 0.99;

  explicit KvWorkload(std::uint64_t seed)
      : Workload(seed), cdf_(zipf_cdf(kKeys, kZipfS)), rng_(mix64(seed)) {
    slots_.resize(16);
    set_share_labels({"get", "put", "del", "key_rank_1", "key_rank_2-16",
                      "key_rank_17-1024", "key_rank_1025-65536"});
  }

  std::int64_t warmup_calls() const override { return 8192; }

  void build(bool traced, const std::string& workdir) override {
    wal_dir_ = workdir + "/wal-" + std::to_string(builds_++);
    std::filesystem::create_directories(wal_dir_);
    kv::KvService::Options opts;
    opts.wal_dir = wal_dir_;
    opts.wal.fsync = false;
    auto svc = kv::KvService::open(opts);
    if (!svc.is_ok()) die("kv open failed: " + svc.status().to_string());
    primary_ = std::move(*svc);

    sink_ = std::make_unique<kv::KvReplicaSink>(primary_->shard_count());
    replica_reg_ = std::make_unique<rpc::SvcRegistry>();
    sink_->install(*replica_reg_);
    rpc::EventServerRuntimeConfig rcfg;
    rcfg.reactors = 1;
    rcfg.workers = 1;
    rcfg.enable_tcp = false;
    replica_rt_ = start_runtime(*replica_reg_, rcfg);
    replicator_ = std::make_unique<kv::KvReplicator>(*primary_,
                                                     replica_rt_->udp_addr());
    if (!replicator_->start().is_ok()) die("kv replicator failed to start");

    model_.assign(kKeys, KeyState{});
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      const std::string v = value_for(mix64(seed_ ^ 0x9e3779b9ull * (k + 1)));
      auto seq = primary_->put(key_name(k), v);
      if (!seq.is_ok()) die("kv prefill failed");
      model_[k] = KeyState{true, v, *seq, false};
    }
    if (!replicator_->wait_caught_up(30000)) die("replica never caught up");

    reg_ = std::make_unique<rpc::SvcRegistry>();
    primary_->install(*reg_);
    runtime_ = start_runtime(*reg_, server_config(traced));
    gc_stop_ = false;
    gc_thread_ = std::thread([this] { gc_loop(); });
    for (auto& s : slots_) s = SlotCtx{};
  }

  void teardown() override {
    if (runtime_) runtime_->stop();
    {
      std::lock_guard<std::mutex> lock(gc_mu_);
      gc_stop_ = true;
    }
    gc_cv_.notify_all();
    if (gc_thread_.joinable()) gc_thread_.join();
    if (replicator_) replicator_->stop();
    if (replica_rt_) replica_rt_->stop();
    runtime_.reset();
    reg_.reset();
    replicator_.reset();
    replica_rt_.reset();
    replica_reg_.reset();
    sink_.reset();
    primary_.reset();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
  }

  rpc::EventServerRuntime& server() override { return *runtime_; }

  std::size_t next(int slot, std::uint32_t xid, std::uint8_t* out) override {
    const Op op = draw(rng_, op_index_);
    ++op_index_;
    count_share(static_cast<std::size_t>(op.kind));
    count_share(op.key == 0 ? 3 : op.key < 16 ? 4 : op.key < 1024 ? 5 : 6);

    SlotCtx& ctx = slots_[static_cast<std::size_t>(slot)];
    ctx = SlotCtx{};
    ctx.busy = true;
    ctx.kind = op.kind;
    ctx.key = op.key;
    if (op.kind == kGet) {
      const KeyState& m = model_[op.key];
      ctx.candidates.push_back({m.present, m.value});
      for (const SlotCtx& o : slots_) {
        if (o.busy && o.kind != kGet && o.key == op.key) {
          ctx.candidates.push_back(o.write);
        }
      }
    } else {
      ctx.write = {op.kind == kPut,
                   op.kind == kPut ? value_for(op.value_tag) : std::string()};
      for (SlotCtx& o : slots_) {
        if (o.busy && o.kind == kGet && o.key == op.key) {
          o.candidates.push_back(ctx.write);
        }
      }
    }

    const std::uint32_t proc = op.kind == kGet   ? kv::kKvProcGet
                               : op.kind == kPut ? kv::kKvProcPut
                                                 : kv::kKvProcDel;
    put_call_header(out, xid, kv::kKvProgram, kv::kKvVersion, proc);
    std::size_t pos = kCallHeaderBytes;
    pos = put_opaque(out, pos, key_name(op.key));
    if (op.kind == kPut) pos = put_opaque(out, pos, ctx.write.value);
    return pos;
  }

  bool check(int slot, std::uint32_t xid, ByteSpan reply) override {
    SlotCtx& ctx = slots_[static_cast<std::size_t>(slot)];
    ctx.busy = false;
    if (!reply_header_ok(reply, xid)) return false;
    KeyState& m = model_[ctx.key];
    if (ctx.kind != kGet) {
      if (reply.size() != kReplyHeaderBytes + 8) return false;
      const std::uint64_t seq = load_be64(reply.data() + kReplyHeaderBytes);
      if (seq > m.seq) m = KeyState{ctx.write.present, ctx.write.value, seq,
                                    m.unverifiable};
      return true;
    }
    if (reply.size() < kReplyHeaderBytes + 8) return false;
    const std::uint8_t* p = reply.data() + kReplyHeaderBytes;
    const std::uint32_t found = load_be32(p);
    const std::uint32_t len = load_be32(p + 4);
    if (found > 1 || (found == 0 && len != 0) ||
        reply.size() != kReplyHeaderBytes + 8 + pad4(len)) {
      return false;
    }
    if (m.unverifiable) return true;
    const std::string_view got(reinterpret_cast<const char*>(p + 8), len);
    for (const Value& c : ctx.candidates) {
      if (c.present == (found == 1) && (!c.present || c.value == got)) {
        return true;
      }
    }
    return false;
  }

  void expire(int slot) override {
    SlotCtx& ctx = slots_[static_cast<std::size_t>(slot)];
    ctx.busy = false;
    // A lost write may or may not have committed: stop judging its key.
    if (ctx.kind != kGet) model_[ctx.key].unverifiable = true;
  }

  bool finish(std::string& why) override {
    if (!replicator_->wait_caught_up(30000)) {
      why = "replica did not catch up";
      return false;
    }
    if (sink_->digest() != primary_->digest()) {
      why = "replica digest differs from primary digest";
      return false;
    }
    if (sink_->duplicate_applies() != 0) {
      why = "replica applied a record twice";
      return false;
    }
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      const KeyState& m = model_[k];
      if (m.unverifiable) continue;
      const auto v = primary_->get(key_name(k));
      if (v.has_value() != m.present || (m.present && *v != m.value)) {
        why = "primary state differs from acknowledged writes at " +
              key_name(k);
        return false;
      }
    }
    return true;
  }

  std::uint64_t inputs_digest() const override {
    Digest d;
    Rng rng(mix64(seed_));
    for (std::uint64_t i = 0; i < kDigestCalls; ++i) {
      const Op op = draw(rng, i);
      d.add((static_cast<std::uint64_t>(op.kind) << 32) | op.key);
      d.add(op.value_tag);
    }
    return d.h;
  }

  Probe probe() const override {
    core::SpecConfig cfg;  // the smallest ship class, the steady-state one
    cfg.arg_counts = {kv::kShipSizeClasses.front()};
    return {kv::ship_proc(), kv::kReplProgram, {cfg}, 15};
  }

 private:
  enum Kind : int { kGet = 0, kPut = 1, kDel = 2 };
  struct Op {
    Kind kind = kGet;
    std::uint32_t key = 0;
    std::uint64_t value_tag = 0;
  };
  struct Value {
    bool present = false;
    std::string value;
  };
  struct KeyState {
    bool present = false;
    std::string value;
    std::uint64_t seq = 0;  // commit sequence of the newest acked write
    bool unverifiable = false;
  };
  struct SlotCtx {
    bool busy = false;
    Kind kind = kGet;
    std::uint32_t key = 0;
    Value write;                    // PUT/DEL: the state it installs
    std::vector<Value> candidates;  // GET: states it may legally observe
  };

  Op draw(Rng& rng, std::uint64_t index) const {
    Op op;
    const double u = rng.next_double();
    op.kind = u < 0.75 ? kGet : u < 0.95 ? kPut : kDel;
    op.key = static_cast<std::uint32_t>(zipf_rank(cdf_, rng.next_double()));
    op.value_tag = mix64(seed_ ^ (0x632be59bd9b4e019ull * (index + 1)));
    return op;
  }

  static std::string key_name(std::uint32_t k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%07u", k);
    return buf;
  }

  static std::string value_for(std::uint64_t tag) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(tag));
    std::string v;
    while (v.size() < kValueBytes) v += hex;
    return v;
  }

  static std::size_t put_opaque(std::uint8_t* out, std::size_t pos,
                                std::string_view s) {
    store_be32(out + pos, static_cast<std::uint32_t>(s.size()));
    std::memcpy(out + pos + 4, s.data(), s.size());
    const std::size_t padded = pad4(s.size());
    std::memset(out + pos + 4 + s.size(), 0, padded - s.size());
    return pos + 4 + padded;
  }

  void gc_loop() {
    std::unique_lock<std::mutex> lock(gc_mu_);
    while (!gc_cv_.wait_for(lock, std::chrono::milliseconds(100),
                            [this] { return gc_stop_; })) {
      primary_->gc();
      for (std::uint32_t s = 0; s < sink_->shard_count(); ++s) {
        sink_->store(s).gc();
      }
    }
  }

  std::vector<double> cdf_;
  std::vector<KeyState> model_;
  std::vector<SlotCtx> slots_;
  Rng rng_;
  std::uint64_t op_index_ = 0;
  int builds_ = 0;
  std::string wal_dir_;

  std::unique_ptr<kv::KvService> primary_;
  std::unique_ptr<kv::KvReplicaSink> sink_;
  std::unique_ptr<rpc::SvcRegistry> replica_reg_;
  std::unique_ptr<rpc::EventServerRuntime> replica_rt_;
  std::unique_ptr<kv::KvReplicator> replicator_;
  std::unique_ptr<rpc::SvcRegistry> reg_;
  std::unique_ptr<rpc::EventServerRuntime> runtime_;
  std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  bool gc_stop_ = false;
  std::thread gc_thread_;  // last: joins before the stores it sweeps die
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "echo-small") {
    return std::make_unique<EchoWorkload>(seed, 100, false, 16, 20000);
  }
  if (name == "echo-large-tcp") {
    return std::make_unique<EchoWorkload>(seed, 2000, true, 8, 4000);
  }
  if (name == "shape-mix") return std::make_unique<ShapeMixWorkload>(seed);
  if (name == "kv-mixed") return std::make_unique<KvWorkload>(seed);
  return nullptr;
}

// --------------------------------------------------------------- load

// Length of the sub-windows whose goodput the info line summarises, so a
// run that a burst of host interference hit can be recognised.
constexpr std::int64_t kSubWindowNs = 250'000'000;

// What the generator saw, pooled over every measured window of a phase.
// "Measured" calls are those sent inside a window; goodput counts
// verified replies received inside it.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t verified = 0;
  std::int64_t timeouts = 0;
  std::int64_t wrong = 0;  // replies that failed verification, any phase
  std::int64_t stale = 0;  // replies to no call in flight
  std::int64_t window_verified = 0;
  std::int64_t window_ns = 0;      // length of the measured windows
  std::int64_t server_cpu_ns = 0;  // process minus generator CPU in them
  // Every verified measured call's latency, in LatencyHistogram buckets:
  // fixed memory, so the store cannot leak goodput noise into peak RSS.
  common::HistogramSnapshot latency{
      std::vector<std::uint64_t>(common::LatencyHistogram::kBuckets), 0};
  std::vector<double> window_goodput;  // calls/s of each sub-window

  void record_latency(std::int64_t ns) {
    ++latency.counts[common::LatencyHistogram::bucket_index(
        ns > 0 ? static_cast<std::uint64_t>(ns) : 0)];
  }
  double goodput_cps() const {
    return ratio(static_cast<double>(window_verified),
                 static_cast<double>(window_ns) / 1e9);
  }
  double latency_us(double q) const {
    return bucket_quantile(latency.counts, q) / 1e3;
  }
};

// One client: a fixed window of calls in flight from the calling thread,
// over one UDP socket (recvmmsg/sendmmsg batches) or one TCP connection
// (replies in wire order).
class Generator {
 public:
  static constexpr std::int64_t kTimeoutNs = 2'000'000'000;

  explicit Generator(Workload& wl)
      : wl_(wl), slots_(static_cast<std::size_t>(wl.window())) {
    for (auto& s : slots_) s.buf.resize(4 + kMaxRequestBytes);
    if (wl_.tcp()) {
      conn_ = net::TcpConn::connect(wl_.server().tcp_addr());
      if (!conn_) die("cannot connect to the server");
      stream_.resize(1 << 20);
    } else {
      udp_ = std::make_unique<net::UdpSocket>();
      if (!udp_->ok() || !udp_->set_nonblocking(true).is_ok()) {
        die("cannot open the client socket");
      }
      server_ = wl_.server().udp_addr();
    }
  }

  // Warm-up: `count` calls, all drained before returning.
  void warm(std::int64_t count, Tally& t) {
    run(count, INT64_MAX, t, nullptr, false);
  }

  // Measured window: issues calls until end_ns, calls at_end the moment
  // issuing stops, then drains what is still in flight.
  void measure(std::int64_t end_ns, Tally& t,
               const std::function<void()>& at_end) {
    run(INT64_MAX, end_ns, t, &at_end, true);
  }

 private:
  struct Slot {
    bool busy = false;
    bool measured = false;
    std::uint32_t xid = 0;
    std::int64_t sent_ns = 0;
    Bytes buf;  // TCP: record mark + call; UDP: the datagram at offset 4
    std::size_t len = 0;
  };

  void run(std::int64_t max_issue, std::int64_t end_ns, Tally& t,
           const std::function<void()>* at_end, bool measured) {
    std::int64_t issued = 0;
    std::int64_t window_end = 0;
    wl_.set_measuring(measured);
    if (measured) open_window(now_ns());
    for (;;) {
      const std::int64_t now = now_ns();
      if (window_end == 0 && (issued >= max_issue || now >= end_ns)) {
        window_end = now;
        wl_.set_measuring(false);
        if (measured) close_window(now, t);
        if (at_end) (*at_end)();
      } else if (measured && window_end == 0 &&
                 now - win_.sub_start_ns >= kSubWindowNs) {
        close_sub_window(now, t);
      }
      if (window_end == 0) {
        issue(max_issue - issued, measured, t, issued);
      }
      if (inflight_ == 0 && window_end != 0) return;
      receive(t, window_end);
      expire_old(t);
    }
  }

  void issue(std::int64_t budget, bool measured, Tally& t,
             std::int64_t& issued) {
    pending_.clear();
    for (std::size_t i = 0; i < slots_.size() && budget > 0; ++i) {
      Slot& s = slots_[i];
      if (s.busy) continue;
      s.busy = true;
      s.measured = measured;
      s.xid = ++xid_;
      s.len = wl_.next(static_cast<int>(i), s.xid, s.buf.data() + 4);
      pending_.push_back(i);
      --budget;
    }
    if (pending_.empty()) return;
    const std::int64_t sent = now_ns();
    for (std::size_t i : pending_) {
      slots_[i].sent_ns = sent;
      if (measured) ++t.attempted;
    }
    inflight_ += static_cast<int>(pending_.size());
    issued += static_cast<std::int64_t>(pending_.size());
    if (conn_) {
      send_tcp();
    } else {
      send_udp();
    }
  }

  void send_udp() {
    out_.clear();
    for (std::size_t i : pending_) {
      out_.push_back(
          {server_, ByteSpan(slots_[i].buf.data() + 4, slots_[i].len)});
    }
    std::size_t done = 0;
    for (int refused = 0; done < out_.size();) {
      const int n = udp_->send_many(out_.data() + done,
                                    static_cast<int>(out_.size() - done));
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (++refused > 200) die("the client socket stopped sending");
      pollfd p{udp_->fd(), POLLOUT, 0};
      ::poll(&p, 1, 10);
    }
  }

  void send_tcp() {
    wire_.clear();
    for (std::size_t i : pending_) {
      Slot& s = slots_[i];
      store_be32(s.buf.data(), xdr::XdrRec::kLastFragFlag |
                                   static_cast<std::uint32_t>(s.len));
      wire_.insert(wire_.end(), s.buf.begin(),
                   s.buf.begin() + static_cast<std::ptrdiff_t>(4 + s.len));
      order_.push_back(i);
    }
    if (!conn_->write_all(ByteSpan(wire_.data(), wire_.size())).is_ok()) {
      die("connection to the server failed");
    }
  }

  void complete(std::size_t i, ByteSpan reply, Tally& t,
                std::int64_t window_end) {
    Slot& s = slots_[i];
    const bool ok = wl_.check(static_cast<int>(i), s.xid, reply);
    const std::int64_t done = now_ns();
    s.busy = false;
    --inflight_;
    if (!ok) {
      ++t.wrong;
      return;
    }
    if (!s.measured) return;
    ++t.verified;
    t.record_latency(done - s.sent_ns);
    if (window_end != 0) return;  // drained after the window
    ++t.window_verified;
    ++win_.sub_verified;
  }

  void open_window(std::int64_t now) {
    win_.start_ns = now;
    win_.process_cpu_ns = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    win_.generator_cpu_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    win_.sub_start_ns = now;
    win_.sub_verified = 0;
  }

  // Folds the measured window's length and server CPU into `t`.
  void close_window(std::int64_t now, Tally& t) {
    close_sub_window(now, t);
    t.window_ns += now - win_.start_ns;
    t.server_cpu_ns +=
        (cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - win_.process_cpu_ns) -
        (cpu_ns(CLOCK_THREAD_CPUTIME_ID) - win_.generator_cpu_ns);
  }

  // Records the open sub-window's goodput (unless it is a tail shorter
  // than half a sub-window) and opens the next.
  void close_sub_window(std::int64_t now, Tally& t) {
    const std::int64_t len = now - win_.sub_start_ns;
    if (len >= kSubWindowNs / 2) {
      t.window_goodput.push_back(ratio(static_cast<double>(win_.sub_verified),
                                       static_cast<double>(len) / 1e9));
    }
    win_.sub_start_ns = now;
    win_.sub_verified = 0;
  }

  void receive(Tally& t, std::int64_t window_end) {
    if (conn_) {
      receive_tcp(t, window_end);
      return;
    }
    // Drain first and sleep in poll() only when nothing is pending: a
    // busy window rarely needs the extra syscall.
    const int max = static_cast<int>(slots_.size());
    int n = udp_->recv_many(batch_, max);
    if (n == 0) {
      pollfd p{udp_->fd(), POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) return;
      n = udp_->recv_many(batch_, max);
    }
    for (int k = 0; k < n; ++k) {
      const net::Datagram& d = batch_[static_cast<std::size_t>(k)];
      const ByteSpan reply(d.payload.data(), d.len);
      const std::uint32_t xid = d.len >= 4 ? load_be32(d.payload.data()) : 0;
      std::size_t i = 0;
      while (i < slots_.size() && !(slots_[i].busy && slots_[i].xid == xid)) {
        ++i;
      }
      if (i == slots_.size()) {
        ++t.stale;
        continue;
      }
      complete(i, reply, t, window_end);
    }
  }

  void receive_tcp(Tally& t, std::int64_t window_end) {
    auto r = conn_->read_some(
        MutableByteSpan(stream_.data() + have_, stream_.size() - have_), 20);
    if (!r.is_ok()) {
      if (r.status().code() == StatusCode::kTimeout) return;
      die("connection to the server failed");
    }
    have_ += *r;
    std::size_t off = 0;
    while (have_ - off >= 4) {
      const std::uint32_t mark = load_be32(stream_.data() + off);
      const std::size_t len = mark & ~xdr::XdrRec::kLastFragFlag;
      if (!(mark & xdr::XdrRec::kLastFragFlag) || len > stream_.size() - 4) {
        die("server sent a malformed record");
      }
      if (have_ - off - 4 < len) break;
      if (order_.empty()) die("reply with no call in flight");
      const std::size_t i = order_.front();
      order_.pop_front();
      complete(i, ByteSpan(stream_.data() + off + 4, len), t, window_end);
      off += 4 + len;
    }
    std::memmove(stream_.data(), stream_.data() + off, have_ - off);
    have_ -= off;
  }

  void expire_old(Tally& t) {
    const std::int64_t now = now_ns();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (!s.busy || now - s.sent_ns < kTimeoutNs) continue;
      // A TCP reply can never overtake an earlier one: silence here
      // means the connection is gone.
      if (conn_) die("server stopped answering on the connection");
      s.busy = false;
      --inflight_;
      if (s.measured) ++t.timeouts;
      wl_.expire(static_cast<int>(i));
    }
  }

  Workload& wl_;
  std::vector<Slot> slots_;
  int inflight_ = 0;
  std::uint32_t xid_ = 0;
  std::vector<std::size_t> pending_;
  // UDP
  std::unique_ptr<net::UdpSocket> udp_;
  net::Addr server_;
  std::vector<net::OutDatagram> out_;
  std::vector<net::Datagram> batch_;
  // TCP
  std::unique_ptr<net::TcpConn> conn_;
  Bytes wire_;
  Bytes stream_;
  std::size_t have_ = 0;
  std::deque<std::size_t> order_;
  // The measured window being filled, and its open sub-window.
  struct OpenWindow {
    std::int64_t start_ns = 0;
    std::int64_t process_cpu_ns = 0;
    std::int64_t generator_cpu_ns = 0;
    std::int64_t sub_start_ns = 0;
    std::int64_t sub_verified = 0;
  } win_;
};

// ------------------------------------------------------------ phases

// Everything read from the process and the server at one instant.
struct Snapshot {
  std::int64_t wall_ns = 0;
  std::int64_t generator_cpu_ns = 0;
  std::int64_t udp_datagrams = 0, udp_batches = 0, udp_reply_batches = 0;
  std::int64_t work_steals = 0, overload_drops = 0;
  std::int64_t reply_send_failures = 0, write_stalls = 0;
  std::int64_t uring_enters = 0;
  rpc::RuntimeLatencySnapshot lat;
  common::BufferArenaStats arena;
  common::MetricsSnapshot metrics;
  ProcSample proc;
};

Snapshot take_snapshot(rpc::EventServerRuntime& rt, int generator_tid) {
  Snapshot s;
  s.generator_cpu_ns = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
  s.wall_ns = now_ns();
  const rpc::EventServerRuntimeStats& st = rt.stats();
  s.udp_datagrams = st.udp_datagrams.load();
  s.udp_batches = st.udp_batches.load();
  s.udp_reply_batches = st.udp_reply_batches.load();
  s.work_steals = st.work_steals.load();
  s.overload_drops = st.overload_drops.load();
  s.reply_send_failures = st.reply_send_failures.load();
  s.write_stalls = st.write_stalls.load();
  s.uring_enters = rt.uring_enter_calls();
  s.lat = rt.latency_snapshot();
  s.arena = rt.arena_stats();
  s.metrics = common::metrics().snapshot();
  s.proc = sample_proc(generator_tid);
  return s;
}

std::int64_t counter(const Snapshot& s, const std::string& name) {
  const auto it = s.metrics.counters.find(name);
  return it == s.metrics.counters.end() ? 0 : it->second;
}

std::int64_t gauge(const Snapshot& s, const std::string& name) {
  const auto it = s.metrics.gauges.find(name);
  return it == s.metrics.gauges.end() ? 0 : it->second;
}

const common::HistogramSnapshot& histogram(const Snapshot& s,
                                           const std::string& name) {
  static const common::HistogramSnapshot kEmpty;
  const auto it = s.metrics.histograms.find(name);
  return it == s.metrics.histograms.end() ? kEmpty : it->second;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// One or more measured segments, each on its own freshly set-up world.
// begin and end belong to the last segment (the ledger's window); tally
// pools every segment.
struct PhaseResult {
  Tally tally;
  std::vector<double> setup_s;
  std::int64_t steal_ticks = 0;
  Snapshot begin, end;
  std::string backend;
  std::vector<common::TraceRecord> traces;
  std::vector<Metric> probes;  // traced phase: pe / core timings
  bool books_ok = true;
  std::string why;
};

// core.build_ms and pe.client_{en,de}code_ns: harness-timed calls into
// the cache and the specialized interface, many samples each.
std::vector<Metric> run_probes(const Workload& wl) {
  const Workload::Probe p = wl.probe();
  const idl::ProcDef& proc = p.proc;
  const std::uint32_t prog = p.prog;
  const std::vector<core::SpecConfig>& shapes = p.shapes;
  std::vector<double> builds;
  for (int r = 0; r < p.reps; ++r) {
    for (const auto& cfg : shapes) {
      core::SpecCache cache;
      const std::int64_t t0 = now_ns();
      if (!cache.get_or_build(proc, prog, 1, cfg).is_ok()) {
        die("probe build failed");
      }
      builds.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }

  auto built = core::SpecializedInterface::build(proc, prog, 1, shapes[0]);
  if (!built.is_ok()) die("probe specialization failed");
  const core::SpecializedInterface& iface = *built;
  Rng rng(7);
  std::vector<std::uint32_t> args(static_cast<std::size_t>(iface.arg_slots()));
  for (auto& w : args) w = rng.next_u32();
  std::vector<std::uint32_t> res(static_cast<std::size_t>(iface.res_slots()));
  for (auto& w : res) w = rng.next_u32();
  Bytes call(iface.encode_call_plan().out_size);
  const std::size_t body = iface.encode_results_plan().out_size;
  Bytes reply(kReplyHeaderBytes + body, 0);
  constexpr std::uint32_t kXid = 0x1234;
  store_be32(reply.data(), kXid);
  store_be32(reply.data() + 4, 1);
  if (iface.exec_encode_results(
          res, MutableByteSpan(reply.data() + kReplyHeaderBytes, body)) !=
      pe::ExecStatus::kOk) {
    die("probe reply encode failed");
  }
  std::vector<std::uint32_t> out(res.size());
  constexpr int kBatches = 101, kPerBatch = 256;
  std::vector<double> enc, dec;
  for (int b = 0; b < kBatches; ++b) {
    std::int64_t t0 = now_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      if (iface.exec_encode_call(args, kXid + static_cast<std::uint32_t>(i),
                                 MutableByteSpan(call.data(), call.size())) !=
          pe::ExecStatus::kOk) {
        die("probe encode failed");
      }
    }
    enc.push_back(static_cast<double>(now_ns() - t0) / kPerBatch);
    t0 = now_ns();
    for (int i = 0; i < kPerBatch; ++i) {
      if (iface.exec_decode_reply(reply, kXid, out) != pe::ExecStatus::kOk) {
        die("probe decode failed");
      }
    }
    dec.push_back(static_cast<double>(now_ns() - t0) / kPerBatch);
  }
  if (out != res) die("probe decode returned the wrong words");
  return {{"pe.client_encode_ns", median(enc), "ns"},
          {"pe.client_decode_ns", median(dec), "ns"},
          {"core.build_ms", median(builds), "ms"}};
}

// Segments of an end-to-end run.  On the default io_uring backend a
// server world settles into one of two throughput modes (~20% apart,
// chosen at start-up, kept for its life); ten fresh worlds per run keep
// one draw from deciding the run.
constexpr int kSegments = 10;

// `setups` fresh worlds in turn, each set up, warmed, measured for its
// share of `seconds`, checked and torn down.
PhaseResult run_phase(Workload& wl, double seconds, int setups, bool traced,
                      const std::string& workdir) {
  PhaseResult r;
  const int tid = current_tid();
  for (int i = 0; i < setups; ++i) {
    const std::int64_t t0 = now_ns();
    wl.build(traced, workdir);
    auto gen = std::make_unique<Generator>(wl);
    gen->warm(wl.warmup_calls(), r.tally);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    r.backend = wl.server().backend();
    r.begin = take_snapshot(wl.server(), tid);
    gen->measure(r.begin.wall_ns +
                     static_cast<std::int64_t>(seconds / setups * 1e9),
                 r.tally, [&] { r.end = take_snapshot(wl.server(), tid); });
    r.steal_ticks += r.end.proc.steal - r.begin.proc.steal;
    gen.reset();
    if (traced) r.traces = wl.server().trace_snapshot();
    if (!wl.finish(r.why)) r.books_ok = false;
    wl.teardown();
  }
  if (traced) r.probes = run_probes(wl);
  return r;
}

std::vector<Metric> end_to_end(const PhaseResult& r) {
  const Tally& t = r.tally;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"goodput_cps", t.goodput_cps(), "calls/s"},
      {"p50_us", t.latency_us(0.50), "us"},
      {"p90_us", t.latency_us(0.90), "us"},
      {"success_ratio", ratio(t.verified, t.attempted), "ratio"},
      {"server_cpu_us_per_call",
       ratio(static_cast<double>(t.server_cpu_ns) / 1e3,
             static_cast<double>(t.window_verified)),
       "us/call"},
      {"setup_s", median(r.setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
  };
}

int backend_id(const std::string& b) {
  if (b == "epoll") return 1;
  if (b == "uring") return 2;
  if (b == "poll") return 3;
  return 0;
}

// The per-layer ledger of a traced phase `r`; `untraced` is the same
// workload measured without tracing (for bench.trace_overhead).
std::vector<Metric> ledger(const PhaseResult& r, const PhaseResult& untraced) {
  const Snapshot& a = r.begin;
  const Snapshot& b = r.end;
  const double calls = static_cast<double>(r.tally.window_verified);
  const double kcalls = calls / 1000.0;
  // Window deltas: of a registry counter, of a Snapshot field.
  auto reg = [&](const char* name) {
    return static_cast<double>(counter(b, name) - counter(a, name));
  };
  auto delta = [&](std::int64_t Snapshot::*field) {
    return static_cast<double>(b.*field - a.*field);
  };
  auto hq_us = [](const common::HistogramSnapshot& end,
                  const common::HistogramSnapshot& begin, double q) {
    return hist_quantile(end, begin, q) / 1e3;
  };
  std::vector<Metric> m = r.probes;
  auto put = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };

  put("pe.jit_stubs", counter(b, "spec_cache.jit_stubs"), "count");
  put("pe.verify_rejects", pe::verify_reject_count(), "count");

  const double lookups = reg("spec_cache.hits") + reg("spec_cache.misses");
  const double served = reg("service.fast_path") + reg("service.generic_path");
  put("core.cache_hit_ratio", ratio(reg("spec_cache.hits"), lookups), "ratio");
  put("core.hot_hit_ratio", ratio(reg("spec_cache.hot_hits"), lookups),
      "ratio");
  put("core.builds_per_kcall", ratio(reg("spec_cache.misses"), kcalls),
      "1/kcall");
  put("core.evictions_per_kcall", ratio(reg("spec_cache.evictions"), kcalls),
      "1/kcall");
  put("core.fast_path_ratio", ratio(reg("service.fast_path"), served),
      "ratio");
  put("core.jit_path_ratio", ratio(reg("service.jit_fast_path"), served),
      "ratio");
  put("core.plan_fallbacks_per_kcall",
      ratio(reg("service.plan_fallbacks"), kcalls), "1/kcall");

  common::HistogramSnapshot e2e_a = a.lat.udp_e2e, e2e_b = b.lat.udp_e2e;
  e2e_a.merge(a.lat.tcp_e2e);
  e2e_b.merge(b.lat.tcp_e2e);
  put("rpc.queue_p50_us", hq_us(b.lat.queue, a.lat.queue, 0.5), "us");
  put("rpc.queue_p99_us", hq_us(b.lat.queue, a.lat.queue, 0.99), "us");
  put("rpc.handle_p50_us", hq_us(b.lat.handle, a.lat.handle, 0.5), "us");
  put("rpc.handle_p99_us", hq_us(b.lat.handle, a.lat.handle, 0.99), "us");
  put("rpc.server_e2e_p50_us", hq_us(e2e_b, e2e_a, 0.5), "us");

  // Stage medians over the traced requests, and the share of the traced
  // end-to-end median no stage accounts for.
  static const char* kStages[common::kTraceStageCount] = {
      "recv", "decode", "cache_lookup", "execute", "encode", "flush"};
  double stage_sum = 0.0;
  for (std::size_t s = 0; s < common::kTraceStageCount; ++s) {
    std::vector<double> v;
    for (const auto& rec : r.traces) v.push_back(rec.stage_ns[s]);
    const double med = median(std::move(v));
    stage_sum += med;
    put(std::string("rpc.stage.") + kStages[s] + "_p50_ns", med, "ns");
  }
  std::vector<double> totals;
  for (const auto& rec : r.traces) totals.push_back(rec.total_ns);
  const double total_med = median(std::move(totals));
  put("rpc.stage.unattributed_share",
      total_med > 0 ? 1.0 - stage_sum / total_med : 0.0, "ratio");

  const double datagrams = delta(&Snapshot::udp_datagrams);
  put("rpc.udp_batch_size", ratio(datagrams, delta(&Snapshot::udp_batches)),
      "count");
  put("rpc.reply_batch_size",
      ratio(datagrams, delta(&Snapshot::udp_reply_batches)), "count");
  put("rpc.work_steals_per_kcall",
      ratio(delta(&Snapshot::work_steals), kcalls), "1/kcall");
  put("rpc.overload_drops", delta(&Snapshot::overload_drops), "count");
  put("rpc.reply_send_failures", delta(&Snapshot::reply_send_failures),
      "count");
  put("rpc.write_stalls", delta(&Snapshot::write_stalls), "count");

  put("net.uring_enters_per_call",
      ratio(delta(&Snapshot::uring_enters), calls), "1/call");
  put("net.backend", backend_id(r.backend), "id");

  const double hits = static_cast<double>(b.arena.hits - a.arena.hits);
  const double misses = static_cast<double>(b.arena.misses - a.arena.misses);
  put("arena.hit_ratio", ratio(hits, hits + misses), "ratio");
  put("arena.bytes_pinned", b.arena.bytes_pinned, "bytes");

  const auto& ca = histogram(a, "kv.commit_latency_ns");
  const auto& cb = histogram(b, "kv.commit_latency_ns");
  put("kv.commit_p50_us", hq_us(cb, ca, 0.5), "us");
  put("kv.commit_p99_us", hq_us(cb, ca, 0.99), "us");
  put("kv.wal_batched_ratio",
      ratio(reg("kv.wal_batched"), reg("kv.wal_records")), "ratio");
  put("kv.repl_shipped_per_kcall",
      ratio(reg("kv.repl.shipped_records"), kcalls), "1/kcall");
  put("kv.repl_lag_records", gauge(b, "kv.repl_lag"), "count");
  put("kv.repl_duplicate_applies", counter(b, "kv.repl_duplicate_applies"),
      "count");
  put("kv.gc_reclaimed_per_kcall", ratio(reg("kv.gc_reclaimed"), kcalls),
      "1/kcall");

  const auto [switches, rq_wait_ns] = task_deltas(a.proc, b.proc);
  put("proc.ctx_switches_per_call", ratio(switches, calls), "1/call");
  put("proc.runqueue_wait_us_per_call", ratio(rq_wait_ns / 1e3, calls),
      "us/call");
  put("proc.steal_share",
      ratio(b.proc.steal - a.proc.steal, b.proc.ticks - a.proc.ticks),
      "ratio");

  put("bench.generator_busy_share",
      ratio(delta(&Snapshot::generator_cpu_ns), delta(&Snapshot::wall_ns)),
      "ratio");
  put("bench.trace_overhead",
      ratio(r.tally.goodput_cps(), untraced.tally.goodput_cps()),
      "ratio");
  return m;
}

// ------------------------------------------------------------ output

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

// Environment, inputs and latency tails of the run, as one JSON line.
std::string info_json(const std::string& workload, std::uint64_t seed,
                      const Workload& wl, PhaseResult& measured,
                      const std::vector<PhaseResult*>& phases) {
  utsname u{};
  uname(&u);
  std::int64_t steal = 0;
  for (const PhaseResult* p : phases) steal += p->steal_ticks;
  std::ostringstream o;
  o << "{\"info\": {\"workload\": \"" << workload << "\", \"seed\": " << seed
    << ", \"env\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"kernel\": \"" << u.release << "\", \"backend\": \""
    << measured.backend << "\", \"steal_ticks\": " << steal << "}";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(wl.inputs_digest()));
  o << ", \"inputs\": {\"digest_first_" << Workload::kDigestCalls
    << "\": \"" << digest << "\", \"measured_share\": {";
  std::int64_t total = 0;
  for (const auto& [label, n] : wl.shares()) {
    if (label.rfind("key_", 0) != 0) total += n;
  }
  bool first = true;
  for (const auto& [label, n] : wl.shares()) {
    o << (first ? "" : ", ") << "\"" << label << "\": "
      << num(ratio(static_cast<double>(n), static_cast<double>(total)));
    first = false;
  }
  const Tally& t = measured.tally;
  const std::uint64_t n = t.latency.total();
  // Samples ranked above quantile q.
  const auto beyond = [n](double q) {
    return n - static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  };
  o << "}}, \"tails\": {\"samples\": " << n << ", \"p99_us\": "
    << num(t.latency_us(0.99)) << ", \"beyond_p99\": "
    << beyond(0.99) << ", \"p999_us\": " << num(t.latency_us(0.999))
    << ", \"beyond_p999\": " << beyond(0.999) << "}";
  o << ", \"calls\": {\"stale_replies\": " << t.stale
    << ", \"timeouts\": " << t.timeouts << ", \"wrong\": " << t.wrong
    << "}, \"setup_s\": [";
  for (std::size_t i = 0; i < measured.setup_s.size(); ++i) {
    o << (i ? ", " : "") << num(measured.setup_s[i]);
  }
  // Spread of goodput across sub-windows: a host burst shows as a low tail.
  std::vector<double> g = t.window_goodput;
  std::sort(g.begin(), g.end());
  const auto at = [&g](double q) {
    return g.empty() ? 0.0 : g[static_cast<std::size_t>(q * (g.size() - 1))];
  };
  o << "], \"window_goodput_cps\": {\"windows\": " << g.size()
    << ", \"min\": " << num(at(0)) << ", \"q1\": " << num(at(0.25))
    << ", \"median\": " << num(at(0.5)) << ", \"q3\": " << num(at(0.75))
    << ", \"max\": " << num(at(1)) << "}}}";
  return o.str();
}

int run_main(int argc, char** argv) {
  std::string workload, workdir = ".";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (k == "--workdir") {
      workdir = v;
    } else {
      die("unknown flag " + k);
    }
  }
  if (argc % 2 != 1) die("flags take one value each");
  auto wl = make_workload(workload, seed);
  if (!wl) die("unknown workload '" + workload + "'");
  if (seconds <= 0) die("--seconds must be positive");

  std::vector<Metric> metrics;
  PhaseResult main_phase, untraced;
  std::vector<PhaseResult*> phases;
  if (trace == 0) {
    main_phase = run_phase(*wl, seconds, kSegments, false, workdir);
    metrics = end_to_end(main_phase);
    phases = {&main_phase};
  } else {
    untraced = run_phase(*wl, seconds / 2, 1, false, workdir);
    main_phase = run_phase(*wl, seconds / 2, 1, true, workdir);
    metrics = ledger(main_phase, untraced);
    phases = {&untraced, &main_phase};
  }

  std::int64_t attempted = 0, failed = 0, wrong = 0;
  bool books = true;
  for (const PhaseResult* p : phases) {
    attempted += p->tally.attempted;
    failed += p->tally.attempted - p->tally.verified;
    wrong += p->tally.wrong;
    if (!p->books_ok) {
      books = false;
      std::fprintf(stderr, "perfbench: %s\n", p->why.c_str());
    }
  }
  const bool correct = books && wrong == 0 && attempted > 0;
  const std::string info = info_json(workload, seed, *wl, main_phase, phases);
  std::printf("%s\n", info.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tempo::perfbench

int main(int argc, char** argv) {
  return tempo::perfbench::run_main(argc, argv);
}
