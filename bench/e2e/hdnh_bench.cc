// hdnh_bench — the store's end-to-end benchmark (bench/e2e/README.md).
//
//   hdnh_bench --workload=embed-zipf-read --seed=1 --seconds=24 [--trace=F]
//
// One process runs one workload. It sets the store up three times (setup_s
// is the median; the last set-up is the one measured), warms it up, runs
// the measured phase for --seconds, checks every reply, and prints one JSON
// document as its last line: the stamp, the op counts and every metric.
// bench/e2e/run.py turns that document into the benchmark's result line.
//
// --trace=FILE wraps the store in the layer probes of layers.h, reports
// the per-layer metrics, and writes a Chrome trace to FILE. A traced run's
// timings include the probes' cost; end-to-end numbers come from untraced
// runs.
//
// Load comes from kThreads generator threads in this process: they call
// the store directly (embed-*) or drive an in-process net::Server over
// loopback, one connection each (net-*). Every value encodes its key id
// and write version, and each thread writes only its own key partition,
// so a thread checks its own keys' versions exactly and other keys by
// their id tag.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/factory.h"
#include "common/cli.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/threads.h"
#include "hdnh/hdnh.h"
#include "layers.h"
#include "net/repl.h"
#include "net/server.h"
#include "nvm/alloc.h"
#include "nvm/pmem.h"
#include "obs/obs.h"
#include "resp_conn.h"
#include "vkv/vkv_store.h"

#ifndef HDNH_BENCH_BUILD_TYPE
#define HDNH_BENCH_BUILD_TYPE "unknown"
#endif

using namespace hdnh;

namespace {

// ---------------------------------------------------------------------------
// Workloads. The names, sizes and rates are the benchmark's contract:
// later changes claim gains against them, so they change only together
// with BENCHMARK.json.
// ---------------------------------------------------------------------------

constexpr uint32_t kThreads = 2;    // generator threads (= connections)
constexpr uint32_t kDepth = 16;     // in flight per connection, closed loop
constexpr int kSetups = 3;          // set-ups per run; setup_s is the median
using e2e::kWindows;                // per phase of the measured period
constexpr int kKept = kWindows / 8;  // windows a timing metric uses (README)

struct Workload {
  const char* name;
  const char* scheme;  // create_kv_store name
  bool net;
  uint64_t keys;       // preloaded keys
  size_t value_len;
  bool zipf;           // scrambled zipf 0.99, else uniform
  // Op mix (fractions of ops): get of a preloaded key, put of an own
  // preloaded key, put of a fresh key, get of a key never written.
  double get;
  double put;
  double put_fresh;
  double get_absent;
  // Fresh keys each thread keeps live. Once a thread holds this many, each
  // fresh put first erases its oldest fresh key, so the live set, the
  // resize count and the space per item do not depend on how fast the
  // store runs.
  uint64_t fresh_live;
  // Untimed warm-up ops per thread, counted once the thread holds its
  // fresh_live fresh keys, so the erase churn is in its steady state before
  // timing starts.
  uint64_t warmup_ops;
  // Offered load of the open-loop phase (net-*): 30% (net-read-1k) and 15%
  // (net-write-small) of the closed-loop saturation throughput measured when
  // the benchmark was set. A request served alone costs more than one of a
  // pipelined batch, so even these rates keep the reactor busy for a good
  // share of the time; higher ones tipped it into queueing in slow spells
  // of the host (README).
  double open_loop_kops;
};

const Workload kWorkloads[] = {
    {"embed-zipf-read", "hdnh", false, 2'000'000, 14, true,
     0.95, 0.05, 0.0, 0.0, 0, 1'800'000, 0},
    {"embed-uniform-write", "hdnh", false, 1'000'000, 14, false,
     0.20, 0.30, 0.40, 0.10, 250'000, 800'000, 0},
    {"net-read-1k", "vkv", true, 100'000, 1024, true,
     0.95, 0.05, 0.0, 0.0, 0, 110'000, 70},
    {"net-write-small", "hdnh@4", true, 1'000'000, 14, false,
     0.50, 0.50, 0.0, 0.0, 0, 190'000, 60},
};

// ---------------------------------------------------------------------------
// Keys and values
// ---------------------------------------------------------------------------

constexpr size_t kKeyLen = 11;      // prefix + 10 decimal digits
constexpr size_t kHeaderLen = 14;   // id(6) + version(4) + check(4)

// 'k' keys are preloaded or fresh; 'a' keys are never written.
void format_key(char prefix, uint64_t id, char* out) {
  out[0] = prefix;
  for (size_t i = kKeyLen - 1; i > 0; --i) {
    out[i] = static_cast<char>('0' + id % 10);
    id /= 10;
  }
}

uint32_t check_word(uint64_t id, uint32_t version) {
  return static_cast<uint32_t>(mix64(id * 0x9E3779B97F4A7C15ULL ^ version));
}

// The value of (id, version): a header naming both, then filler derived
// from them, so any wrong byte anywhere is detectable.
void make_value(uint64_t id, uint32_t version, size_t len, std::string* out) {
  out->resize(len);
  char* p = out->data();
  const uint32_t check = check_word(id, version);
  std::memcpy(p, &id, 6);
  std::memcpy(p + 6, &version, 4);
  std::memcpy(p + 10, &check, 4);
  const uint64_t pattern = mix64((static_cast<uint64_t>(version) << 32) | check);
  size_t i = kHeaderLen;
  for (; i + 8 <= len; i += 8) std::memcpy(p + i, &pattern, 8);
  for (; i < len; ++i) p[i] = static_cast<char>(pattern >> (8 * (i & 7)));
}

// Parses and fully checks a value. False if any byte is wrong.
bool read_value(std::string_view v, size_t len, uint64_t* id,
                uint32_t* version, std::string* scratch) {
  if (v.size() != len) return false;
  uint64_t i = 0;
  uint32_t ver = 0;
  std::memcpy(&i, v.data(), 6);
  std::memcpy(&ver, v.data() + 6, 4);
  make_value(i, ver, len, scratch);
  if (std::string_view(*scratch) != v) return false;
  *id = i;
  *version = ver;
  return true;
}

// ---------------------------------------------------------------------------
// Per-thread op stream and checker
// ---------------------------------------------------------------------------

enum OpKind : uint8_t { kGet, kPut, kPutFresh, kGetAbsent, kErase };
const char* kind_name(OpKind k) {
  static const char* const names[] = {"get", "put", "put_fresh", "get_absent",
                                      "erase"};
  return names[k];
}

struct Op {
  OpKind kind;
  uint64_t id;
  // Expected version for a get of an own key; kAnyVersion otherwise.
  uint32_t expect;
};
constexpr uint32_t kAnyVersion = UINT32_MAX;

class Generator {
 public:
  Generator(const Workload& w, uint32_t t, uint64_t seed)
      : w_(w),
        t_(t),
        rng_(mix64(seed * 0x2545F4914F6CDD1DULL + t)),
        versions_(w.keys / kThreads + 1, 0) {
    const uint64_t cseed = mix64(seed ^ (0xA0761D6478BD642FULL * (t + 1)));
    if (w.zipf) {
      chooser_ = std::make_unique<ScrambledZipfianChooser>(w.keys, 0.99, cseed);
    } else {
      chooser_ = std::make_unique<UniformChooser>(w.keys, cseed);
    }
  }

  // The next op of the mix. A fresh put whose thread already holds
  // fresh_live fresh keys comes back as the erase of the oldest one; the
  // put follows as the next op.
  Op next() {
    if (pending_fresh_) {
      pending_fresh_ = false;
      return {kPutFresh, fresh_id(fresh_hi_++), 0};
    }
    const double u = rng_.next_double();
    if (u < w_.get) {
      const uint64_t id = chooser_->next();
      return {kGet, id, id % kThreads == t_ ? versions_[id / kThreads]
                                            : kAnyVersion};
    }
    if (u < w_.get + w_.put) {
      const uint64_t id = own(chooser_->next());
      const uint32_t v = ++versions_[id / kThreads];
      remember(id);
      return {kPut, id, v};
    }
    if (u < w_.get + w_.put + w_.put_fresh) {
      if (fresh_hi_ - fresh_lo_ >= w_.fresh_live) {
        pending_fresh_ = true;
        return {kErase, fresh_id(fresh_lo_++), 0};
      }
      return {kPutFresh, fresh_id(fresh_hi_++), 0};
    }
    return {kGetAbsent, rng_.next() % 10'000'000'000ULL, 0};
  }

  bool fresh_full() const {
    return w_.fresh_live == 0 || fresh_hi_ - fresh_lo_ >= w_.fresh_live;
  }

  // Checks a reply. `found` false means the store said not-found.
  void check(const Op& op, bool ok, bool found, std::string_view value) {
    ++attempted;
    const char* why = nullptr;
    if (!ok) {
      why = "error status";
    } else if (op.kind == kGetAbsent) {
      if (found) why = "a key never written was found";
    } else if (op.kind == kGet) {
      uint64_t id = 0;
      uint32_t version = 0;
      if (!found) {
        why = "preloaded key missing";
      } else if (!read_value(value, w_.value_len, &id, &version, &scratch_)) {
        why = "corrupt value";
      } else if (id != op.id) {
        why = "value of another key";
      } else if (op.expect != kAnyVersion && version != op.expect) {
        why = "stale or lost write";
      }
    } else if (op.kind == kErase && !found) {
      why = "fresh key missing at erase";
    }
    if (why != nullptr) {
      if (failed++ < 5) {
        std::fprintf(stderr, "FAILED %s of id %llu: %s\n", kind_name(op.kind),
                     static_cast<unsigned long long>(op.id), why);
      }
    }
  }

  // Own keys written last, with the version each must read back now.
  std::vector<Op> recent_writes() const {
    std::vector<Op> out;
    for (const uint64_t id : recent_) {
      if (id != UINT64_MAX) out.push_back({kGet, id, versions_[id / kThreads]});
    }
    return out;
  }

  const Workload& workload() const { return w_; }
  Rng& rng() { return rng_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  uint64_t own(uint64_t id) const {
    id = id - id % kThreads + t_;
    return id < w_.keys ? id : id - kThreads;
  }
  uint64_t fresh_id(uint64_t j) const { return w_.keys + t_ + kThreads * j; }
  void remember(uint64_t id) { recent_[recent_next_++ % recent_.size()] = id; }

  const Workload& w_;
  uint32_t t_;
  Rng rng_;
  std::unique_ptr<KeyChooser> chooser_;
  std::vector<uint32_t> versions_;  // own keys, indexed by id / kThreads
  uint64_t fresh_lo_ = 0;
  uint64_t fresh_hi_ = 0;
  bool pending_fresh_ = false;
  std::vector<uint64_t> recent_ = std::vector<uint64_t>(256, UINT64_MAX);
  size_t recent_next_ = 0;
  std::string scratch_;
};

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

// CPU placement, on hosts with at least 2 + kThreads CPUs: the reactor
// has CPU 0 to itself, the main thread and the store's helper threads
// (aggregator, replication reader) share CPU 1, and generator (or preload)
// thread t runs on CPU 2 + t. The load generator then never competes with
// the server for a core, as a remote client would not, and the scheduler
// cannot move a thread mid-run. A new thread inherits its creator's CPUs.
constexpr int kReactorCpu = 0;
constexpr int kMainCpu = 1;
constexpr int kFirstGeneratorCpu = 2;

void pin_self(int cpu) {
  if (sysconf(_SC_NPROCESSORS_ONLN) >= kFirstGeneratorCpu + kThreads) {
    pin_to_core(static_cast<uint32_t>(cpu));
  }
}

uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

// Quantile of a log-bucketed Histogram, interpolated linearly inside the
// bucket that holds it (the bucket's representative value alone moves in
// 1.6% steps, which would hide small changes).
double quantile_ns(const Histogram& h, double q) {
  const auto cdf = h.cdf();
  double prev = 0;
  for (const auto& [value, cum] : cdf) {
    if (cum >= q) {
      const int idx = Histogram::index_for(value);
      double lo = idx;
      double width = 1;
      if (idx >= Histogram::kSub) {
        const int shift = (idx >> Histogram::kSubBits) - 1;
        lo = static_cast<double>(
            static_cast<uint64_t>(Histogram::kSub + (idx & (Histogram::kSub - 1)))
            << shift);
        width = static_cast<double>(1ULL << shift);
      }
      const double frac = cum > prev ? (q - prev) / (cum - prev) : 1.0;
      return lo + frac * width;
    }
    prev = cum;
  }
  return static_cast<double>(h.max());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The windows a timing metric is taken over: the kKept whose `rank` is
// lowest (README: Windows). Returned in window order.
std::vector<int> kept_windows(const std::vector<double>& rank) {
  std::vector<int> order(rank.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return rank[a] < rank[b]; });
  order.resize(kKept);
  std::sort(order.begin(), order.end());
  return order;
}

// Latency histograms of one op kind, per window. A percentile is taken over
// the windows where that percentile was lowest.
struct WindowedLatency {
  std::vector<Histogram> windows = std::vector<Histogram>(kWindows);
  Histogram all;

  void finish() {
    for (const Histogram& h : windows) all.merge(h);
  }

  // The kept windows for quantile q. An empty window ranks last.
  std::vector<int> quiet(double q) const {
    std::vector<double> rank;
    for (const Histogram& h : windows) {
      rank.push_back(h.count() > 0 ? quantile_ns(h, q) : HUGE_VAL);
    }
    return kept_windows(rank);
  }

  // Quantile q over every sample of the kept windows for q, in ns.
  double quantile(double q) const {
    Histogram kept;
    for (const int i : quiet(q)) kept.merge(windows[i]);
    return quantile_ns(kept, q);
  }
};

// What one generator thread measured.
struct Result {
  // Latency per window of the latency phase (embed: per call; net: open
  // loop, from the scheduled send).
  Histogram get[kWindows];
  Histogram set[kWindows];
  Histogram erase;  // embed-uniform-write's fresh-key erases
  Histogram late;   // generator lateness (see README: client.send_late)
  Histogram saturated;  // net: closed-loop latency, diagnostic
  uint64_t window_ops[kWindows] = {};  // completions per throughput window
  uint64_t ops = 0;        // ops in the measured period
  uint64_t cpu_ns = 0;     // thread CPU over the throughput phase
  uint64_t throughput_ops = 0;
};

// The measured period [t0, t0 + period). Latency is taken over its first
// part and throughput over its last; embed-* use the whole period for
// both, net-* the open-loop first two thirds and the closed-loop last
// third. Each part is cut into kWindows windows, and a timing metric is
// taken over the eighth of them where it was best, so host pauses and slow
// spells that leave a few quiet windows in a run do not move it.
struct Clock {
  std::atomic<uint64_t> t0{0};  // 0 until the warm-up ends
  uint64_t period_ns = 0;
  uint64_t latency_ns = 0;      // [t0, t0 + latency_ns)
  uint64_t tput_start_ns = 0;   // [t0 + tput_start_ns, t0 + period_ns)
  uint64_t tput_ns() const { return period_ns - tput_start_ns; }
  static int window(uint64_t t, uint64_t start, uint64_t len) {
    if (t < start || len == 0) return -1;
    const uint64_t w = (t - start) * kWindows / len;
    return w < static_cast<uint64_t>(kWindows) ? static_cast<int>(w) : -1;
  }
};

// Ends a thread's warm-up: reports it ready, waits for the measured period
// to be announced and to begin, and returns its start.
uint64_t await_start(const Clock& clock, std::atomic<bool>& ready) {
  ready.store(true, std::memory_order_release);
  uint64_t t0 = 0;
  while ((t0 = clock.t0.load(std::memory_order_acquire)) == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  while (now_ns() < t0) {
  }
  return t0;
}

// ---------------------------------------------------------------------------
// The store under test
// ---------------------------------------------------------------------------

struct Rig {
  // Declaration order is teardown order reversed: the server stops before
  // the replication log, and the store before its pool.
  std::unique_ptr<nvm::PmemPool> pool;
  std::unique_ptr<nvm::PmemAllocator> alloc;
  std::unique_ptr<HashTable> table;              // traced fixed-table runs
  std::unique_ptr<e2e::TimedHashTable> timed_table;
  std::unique_ptr<KvStore> kv;
  std::unique_ptr<e2e::TimedKvStore> timed_kv;   // traced runs
  std::unique_ptr<e2e::CorruptingKvStore> corrupt;  // smoke test only
  std::unique_ptr<obs::Aggregator> aggregator;
  std::unique_ptr<net::ReplLog> repl;
  std::unique_ptr<net::Server> server;
  double setup_s = 0;

  KvStore& store() {
    if (corrupt) return *corrupt;
    if (timed_kv) return *timed_kv;
    return *kv;
  }
};

struct Options {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  double seconds = 24;
  bool traced = false;
  uint64_t corrupt_every = 0;
};

void preload(const Workload& w, KvStore& store) {
  std::vector<std::thread> threads;
  std::atomic<uint64_t> errors{0};
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pin_self(kFirstGeneratorCpu + static_cast<int>(t));
      char key[kKeyLen];
      std::string value;
      for (uint64_t id = t; id < w.keys; id += kThreads) {
        format_key('k', id, key);
        make_value(id, 0, w.value_len, &value);
        if (!store.put(std::string_view(key, kKeyLen), value).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  if (errors.load() != 0) throw std::runtime_error("preload failed");
}

std::unique_ptr<Rig> build_rig(const Options& o) {
  const Workload& w = *o.w;
  const bool vkv = std::string(w.scheme) == "vkv";
  auto rig = std::make_unique<Rig>();
  const uint64_t t0 = now_ns();

  // The AEP latency model at its defaults (nvm/config.h): with it off the
  // device costs nothing and the index's NVM savings cannot show.
  nvm::NvmConfig ncfg;
  ncfg.emulate_latency = true;
  const uint64_t max_items = w.keys + kThreads * w.fresh_live;
  // vkv: the value log holds four times the live data, so a run never
  // fills it and never garbage-collects; the hint sizes the pool for it.
  const uint64_t pool_bytes =
      vkv ? kv_pool_bytes_hint(w.scheme, 2 * max_items, w.value_len)
          : pool_bytes_hint(w.scheme, max_items + max_items / 2);
  rig->pool = std::make_unique<nvm::PmemPool>(pool_bytes, ncfg);
  rig->alloc = std::make_unique<nvm::PmemAllocator>(*rig->pool);

  TableOptions topts;
  topts.capacity = w.keys;
  if (vkv) topts.log_bytes = 4 * w.keys * (w.value_len + 48) + (16ull << 20);
  if (o.traced && !vkv) {
    rig->table = create_table(w.scheme, *rig->alloc, topts);
    rig->timed_table = std::make_unique<e2e::TimedHashTable>(*rig->table);
    rig->kv = std::make_unique<FixedTableKv>(*rig->timed_table);
  } else {
    rig->kv = create_kv_store(w.scheme, *rig->alloc, topts);
  }
  if (o.traced) rig->timed_kv = std::make_unique<e2e::TimedKvStore>(*rig->kv);
  if (o.corrupt_every > 0) {
    rig->corrupt =
        std::make_unique<e2e::CorruptingKvStore>(rig->store(), o.corrupt_every);
  }

  if (w.net) {
    // Wired like hdnh_server's defaults: op latency and hot keys recorded,
    // a 10 ms slowlog, the window aggregator, and a replication log with no
    // replica attached. One reactor leaves cores for the generators.
    obs::Metrics::set_latency_enabled(true);
    obs::HeavyHitters::set_enabled(true);
    obs::SlowLog::set_threshold_ns(10'000'000);
    obs::Aggregator::Options aopts;
    aopts.interval_s = 1.0;
    rig->aggregator = std::make_unique<obs::Aggregator>(aopts);
  }
  preload(w, rig->store());
  if (w.net) {
    rig->repl = std::make_unique<net::ReplLog>();
    rig->repl->start();
    net::ServerOptions sopts;
    sopts.port = 0;
    sopts.threads = 1;
    rig->server = std::make_unique<net::Server>(rig->store(), sopts);
    rig->server->set_repl_log(rig->repl.get());
    pin_self(kReactorCpu);
    rig->server->start();
    pin_self(kMainCpu);
  }
  rig->setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return rig;
}

// ---------------------------------------------------------------------------
// In-process load (embed-*)
// ---------------------------------------------------------------------------

void run_embedded(Generator& th, KvStore& store, const Clock& clock,
                  std::atomic<bool>& ready, bool traced, Result& r) {
  const Workload& w = th.workload();
  char key[kKeyLen];
  const std::string_view kv_key(key, kKeyLen);
  std::string value;
  std::string out;
  uint64_t warm_left = w.warmup_ops;
  uint64_t t0 = 0;
  uint64_t end = 0;
  uint64_t cpu0 = 0;
  uint64_t prev_end = now_ns();
  for (;;) {
    if (t0 == 0 && warm_left == 0 && th.fresh_full()) {
      t0 = await_start(clock, ready);
      end = t0 + clock.period_ns;
      cpu0 = thread_cpu_ns();
      prev_end = now_ns();
    }
    const bool measured = t0 != 0;
    if (measured && prev_end >= end) break;
    if (!measured && warm_left > 0 && th.fresh_full()) --warm_left;

    const Op op = th.next();
    format_key(op.kind == kGetAbsent ? 'a' : 'k', op.id, key);
    if (op.kind == kPut || op.kind == kPutFresh) {
      make_value(op.id, op.expect, w.value_len, &value);
    }
    Status s;
    const uint64_t t_call = now_ns();
    {
      std::optional<e2e::trace::Span> span;
      if (traced && measured) span.emplace("client", kind_name(op.kind));
      switch (op.kind) {
        case kGet:
        case kGetAbsent:
          s = store.get(kv_key, &out);
          break;
        case kPut:
        case kPutFresh:
          s = store.put(kv_key, value);
          break;
        case kErase:
          s = store.erase(kv_key);
          break;
      }
    }
    const uint64_t t_done = now_ns();
    const bool found = s.ok();
    th.check(op, found || s == StatusCode::kNotFound, found, out);

    const int win = measured ? Clock::window(t_done, t0, clock.period_ns) : -1;
    if (win >= 0) {
      const uint64_t lat = t_done - t_call;
      if (op.kind == kGet || op.kind == kGetAbsent) {
        r.get[win].record(lat);
      } else if (op.kind == kErase) {
        r.erase.record(lat);
      } else {
        r.set[win].record(lat);
      }
      // Closed loop: an op is due when the previous one returns, so the
      // generator's lateness is its own work between the two calls.
      r.late.record(t_call - prev_end);
      ++r.ops;
      ++r.window_ops[win];
    }
    prev_end = t_done;
  }
  r.cpu_ns = thread_cpu_ns() - cpu0;
  r.throughput_ops = r.ops;

  // Reads back every own key written last: a lost write fails the run.
  for (const Op& op : th.recent_writes()) {
    format_key('k', op.id, key);
    const Status s = store.get(kv_key, &out);
    th.check(op, s.ok() || s == StatusCode::kNotFound, s.ok(), out);
  }
}

// ---------------------------------------------------------------------------
// Loopback load (net-*)
// ---------------------------------------------------------------------------

class NetLoad {
 public:
  NetLoad(Generator& th, uint16_t port, const Clock& clock, bool traced,
            Result& r)
      : th_(th), conn_(port), clock_(clock), traced_(traced), r_(r) {}

  void run(std::atomic<bool>& ready) {
    warm_left_ = th_.workload().warmup_ops;
    while (warm_left_ > 0) closed_step(Phase::kWarmup, UINT64_MAX);
    drain();
    const uint64_t t0 = await_start(clock_, ready);
    t0_ = t0;
    open_loop(t0, t0 + clock_.tput_start_ns);
    const uint64_t end = t0 + clock_.period_ns;
    const uint64_t cpu0 = thread_cpu_ns();
    while (now_ns() < end) closed_step(Phase::kSaturated, end);
    r_.cpu_ns = thread_cpu_ns() - cpu0;
    drain();
    verify_recent();
  }

 private:
  enum class Phase : uint8_t { kWarmup, kOpen, kSaturated, kFinal };
  struct Pending {
    Op op;
    uint64_t due;  // scheduled send time (open loop) or send time
    Phase phase;
  };

  void issue(const Op& op, uint64_t due, Phase phase) {
    char key[kKeyLen];
    format_key(op.kind == kGetAbsent ? 'a' : 'k', op.id, key);
    const std::string_view k(key, kKeyLen);
    if (op.kind == kPut || op.kind == kPutFresh) {
      make_value(op.id, op.expect, th_.workload().value_len, &value_);
      conn_.queue_set(k, value_);
    } else {
      conn_.queue_get(k);
    }
    pending_.push_back({op, due, phase});
    if (phase == Phase::kOpen || phase == Phase::kSaturated) ++r_.ops;
  }

  void complete(const net::RespValue& v, uint64_t now) {
    const Pending p = pending_.front();
    pending_.pop_front();
    const Op& op = p.op;
    const bool is_get = op.kind == kGet || op.kind == kGetAbsent;
    bool ok = !v.is_error();
    if (!is_get) ok = ok && v.type == net::RespValue::Type::kSimple && v.str == "OK";
    th_.check(op, ok, is_get ? v.type == net::RespValue::Type::kBulk : true,
              v.str);
    const uint64_t lat = now - p.due;
    const char* name = is_get ? "GET" : "SET";
    if (p.phase == Phase::kOpen) {
      const int win = Clock::window(p.due, t0_, clock_.latency_ns);
      if (win >= 0) (is_get ? r_.get : r_.set)[win].record(lat);
      if (traced_) e2e::trace::record_root("client", name, p.due, now);
    } else if (p.phase == Phase::kSaturated) {
      r_.saturated.record(lat);
      if (traced_) e2e::trace::record_root("client", name, p.due, now);
      const int win = Clock::window(now, sat0_, clock_.tput_ns());
      if (win >= 0) {
        ++r_.window_ops[win];
        ++r_.throughput_ops;
      }
    }
  }

  void pump(bool block) {
    if (conn_.unsent()) conn_.send_some();
    if (pending_.empty()) return;
    if (block) conn_.wait_readable(10'000);
    conn_.recv_some();
    net::RespValue v;
    while (!pending_.empty() && conn_.next_reply(&v)) complete(v, now_ns());
  }

  void closed_step(Phase phase, uint64_t end) {
    while (pending_.size() < kDepth) {
      const uint64_t now = now_ns();
      if (now >= end) break;
      if (phase == Phase::kWarmup) {
        if (warm_left_ == 0) break;
        --warm_left_;
      }
      issue(th_.next(), now, phase);
    }
    pump(true);
  }

  void drain() {
    while (!pending_.empty()) pump(true);
  }

  // Open loop: exponential inter-arrivals at the workload's rate, split
  // evenly over the threads. A request's latency runs from when it was
  // due, so a stall also delays everything scheduled behind it. The
  // saturation phase starts at `end`.
  void open_loop(uint64_t start, uint64_t end) {
    sat0_ = end;
    const double rate_per_ns =
        th_.workload().open_loop_kops * 1e3 / kThreads / 1e9;
    Rng& rng = th_.rng();
    auto gap = [&] {
      return static_cast<uint64_t>(-std::log(1.0 - rng.next_double()) /
                                   rate_per_ns);
    };
    uint64_t due = start + gap();
    while (due < end || !pending_.empty()) {
      const uint64_t now = now_ns();
      while (due < end && due <= now) {
        r_.late.record(now - due);
        issue(th_.next(), due, Phase::kOpen);
        due += gap();
      }
      if (pending_.size() > 1'000'000) {
        throw std::runtime_error("open loop backlog: the server stalled");
      }
      // The generator spins rather than sleeps: it has its own CPU, and
      // waking from a sleep would add its own delay to every latency.
      pump(false);
    }
  }

  // Reads back every own key written last over the same connection.
  void verify_recent() {
    for (const Op& op : th_.recent_writes()) issue(op, now_ns(), Phase::kFinal);
    drain();
  }

  Generator& th_;
  e2e::RespConn conn_;
  const Clock& clock_;
  bool traced_;
  Result& r_;
  std::deque<Pending> pending_;
  std::string value_;
  uint64_t warm_left_ = 0;
  uint64_t t0_ = 0;
  uint64_t sat0_ = 0;
};

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct Snapshot {
  nvm::StatsSnapshot nvm;
  uint64_t process_cpu = 0;
  uint64_t commands = 0;
  uint64_t set_commands = 0;
  uint64_t repl_seq = 0;
  std::array<obs::Metrics::OpSnapshot, obs::kOpCount> ops;
};

// `ops`: also the obs op counters, which only vkv's traced run reads.
Snapshot take_snapshot(Rig& rig, bool ops) {
  Snapshot s;
  s.nvm = nvm::Stats::snapshot();
  s.process_cpu = process_cpu_ns();
  if (rig.server) {
    const net::Server::Counters c = rig.server->counters();
    s.commands = c.commands_processed;
    s.set_commands = c.per_command[static_cast<uint32_t>(net::Cmd::kSet)];
    s.repl_seq = rig.repl->last_seq();
  }
  if (ops) obs::Metrics::op_snapshot(&s.ops);
  return s;
}

struct Metric {
  std::string name;
  double value;
};

void sleep_until_ns(uint64_t t) {
  const uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(const Options& o, const std::string& trace_path,
        const std::string& stamp) {
  const Workload& w = *o.w;

  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // the previous set-up is torn down, untimed
    rig = build_rig(o);
    setups.push_back(rig->setup_s);
  }
  std::printf("# setup %s: %.3f %.3f %.3f s\n", w.name, setups[0], setups[1],
              setups[2]);

  Clock clock;
  clock.period_ns = static_cast<uint64_t>(o.seconds * 1e9);
  clock.latency_ns = w.net ? clock.period_ns / 3 * 2 : clock.period_ns;
  clock.tput_start_ns = w.net ? clock.latency_ns : 0;

  std::vector<std::unique_ptr<Generator>> threads;
  std::vector<Result> results(kThreads);
  std::vector<std::atomic<bool>> ready(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.push_back(std::make_unique<Generator>(w, t, o.seed));
  }
  const uint16_t port = w.net ? rig->server->port() : 0;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      if (o.traced) e2e::trace::set_thread_name("generator-" + std::to_string(t));
      pin_self(kFirstGeneratorCpu + static_cast<int>(t));
      try {
        if (w.net) {
          NetLoad(*threads[t], port, clock, o.traced, results[t]).run(ready[t]);
        } else {
          run_embedded(*threads[t], rig->store(), clock, ready[t], o.traced,
                       results[t]);
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
        ready[t].store(true);
      }
    });
  }

  // Warm-up: each thread runs its share of the workload's warm-up ops and
  // then idles, so the measured period starts on a full hot table and, on
  // embed-uniform-write, after the resize on a fixed live set. Space and
  // peak memory are taken here, while nothing runs: after a fixed amount of
  // work they do not depend on how fast the store is. (During the measured
  // period net-read-1k's value log grows with every SET, so memory read at
  // the end would grow with throughput.)
  const uint64_t warm_start = now_ns();
  for (auto& r : ready) {
    while (!r.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const double warmup_s = static_cast<double>(now_ns() - warm_start) / 1e9;
  const double space_bytes_per_item =
      ratio(static_cast<double>(rig->alloc->used()),
            static_cast<double>(rig->store().size()));
  const double peak_rss = peak_rss_mb();
  const uint64_t t0 = now_ns() + 2'000'000;
  e2e::set_recording(true, t0, clock.latency_ns / kWindows);
  const bool obs_ops = o.traced && !rig->timed_table;
  const Snapshot s0 = take_snapshot(*rig, obs_ops);
  clock.t0.store(t0, std::memory_order_release);

  uint64_t tput_process_cpu = s0.process_cpu;
  if (w.net) {
    sleep_until_ns(t0 + clock.tput_start_ns);
    e2e::set_recording(true);
    tput_process_cpu = process_cpu_ns();
  }
  sleep_until_ns(t0 + clock.period_ns);
  // Embedded generators stop when the period ends, so their counters are
  // read once they have joined. The server's threads keep running; on
  // net-* the counters are read live, as a METRICS scrape reads them.
  std::optional<Snapshot> s1;
  if (w.net) s1 = take_snapshot(*rig, obs_ops);
  e2e::set_recording(false);
  for (auto& th : workers) th.join();
  if (!w.net) s1 = take_snapshot(*rig, obs_ops);

  bool aborted = false;
  for (uint32_t t = 0; t < kThreads; ++t) {
    if (!errors[t].empty()) {
      std::fprintf(stderr, "generator %u: %s\n", t, errors[t].c_str());
      aborted = true;
    }
  }

  // ---- aggregate ----
  uint64_t attempted = 0, failed = 0, ops_n = 0, cpu_ns = 0, tput_ops = 0;
  Histogram erase_all, late_all, saturated_all;
  WindowedLatency get, set;
  std::vector<double> window_ops(kWindows, 0.0);
  for (uint32_t t = 0; t < kThreads; ++t) {
    const Result& r = results[t];
    for (int i = 0; i < kWindows; ++i) {
      get.windows[i].merge(r.get[i]);
      set.windows[i].merge(r.set[i]);
      window_ops[i] += static_cast<double>(r.window_ops[i]);
    }
    erase_all.merge(r.erase);
    late_all.merge(r.late);
    saturated_all.merge(r.saturated);
    ops_n += r.ops;
    cpu_ns += r.cpu_ns;
    tput_ops += r.throughput_ops;
    attempted += threads[t]->attempted;
    failed += threads[t]->failed + (errors[t].empty() ? 0 : 1);
  }
  if (attempted == 0) attempted = 1;

  get.finish();
  set.finish();
  // Throughput over the windows with the most ops.
  std::vector<double> slowness;
  for (const double n : window_ops) slowness.push_back(-n);
  double kept_ops = 0;
  for (const int i : kept_windows(slowness)) kept_ops += window_ops[i];
  const double window_s = static_cast<double>(clock.tput_ns()) / kWindows / 1e9;
  const double throughput_kops = kept_ops / (window_s * kKept) / 1e3;

  const double ops = static_cast<double>(ops_n);
  nvm::StatsSnapshot dn = s1->nvm;
  dn -= s0.nvm;
  const double us = 1e-3;  // ns -> us

  std::vector<Metric> m;
  auto add = [&](const char* name, double v) { m.push_back({name, v}); };
  add("setup_s", median(setups));
  add("throughput_kops", throughput_kops);
  add("get_p50_us", get.quantile(0.50) * us);
  add("get_p99_us", get.quantile(0.99) * us);
  add("set_p50_us", set.quantile(0.50) * us);
  add("set_p99_us", set.quantile(0.99) * us);
  add("ok_ratio", 1.0 - static_cast<double>(failed) / static_cast<double>(attempted));
  add("nvm_read_bytes_per_op",
      ratio(static_cast<double>(dn.nvm_read_blocks) * nvm::kNvmBlock, ops));
  add("nvm_write_bytes_per_op",
      ratio(static_cast<double>(dn.nvm_write_lines) * nvm::kCacheLine, ops));
  add("space_bytes_per_item", space_bytes_per_item);
  add("peak_rss_mb", peak_rss);

  std::vector<Metric> diag;
  auto dg = [&](const char* name, double v) { diag.push_back({name, v}); };
  dg("error_ratio", static_cast<double>(failed) / static_cast<double>(attempted));
  dg("warmup_s", warmup_s);
  dg("measured_ops", ops);
  // The whole period, pauses included, next to the metrics above.
  dg("throughput_kops_pooled",
     static_cast<double>(tput_ops) / (static_cast<double>(clock.tput_ns()) / 1e9) / 1e3);
  dg("get_p50_us_pooled", quantile_ns(get.all, 0.50) * us);
  dg("get_p99_us_pooled", quantile_ns(get.all, 0.99) * us);
  dg("get_p999_us", quantile_ns(get.all, 0.999) * us);
  dg("get_max_us", static_cast<double>(get.all.max()) * us);
  dg("set_p50_us_pooled", quantile_ns(set.all, 0.50) * us);
  dg("set_p99_us_pooled", quantile_ns(set.all, 0.99) * us);
  dg("set_p999_us", quantile_ns(set.all, 0.999) * us);
  dg("set_max_us", static_cast<double>(set.all.max()) * us);
  dg("get_samples", static_cast<double>(get.all.count()));
  dg("set_samples", static_cast<double>(set.all.count()));
  if (erase_all.count() > 0) {
    dg("erase_p50_us", quantile_ns(erase_all, 0.50) * us);
    dg("erase_p99_us", quantile_ns(erase_all, 0.99) * us);
  }
  if (w.net) {
    const double open_s = static_cast<double>(clock.tput_start_ns) / 1e9;
    dg("open_loop_offered_kops", w.open_loop_kops);
    dg("open_loop_sent_kops",
       static_cast<double>(get.all.count() + set.all.count()) / open_s / 1e3);
    dg("saturated_p50_us", quantile_ns(saturated_all, 0.50) * us);
    dg("saturated_p99_us", quantile_ns(saturated_all, 0.99) * us);
  }
  HashTable* index = nullptr;
  if (auto* fixed = dynamic_cast<FixedTableKv*>(rig->kv.get())) {
    index = rig->table ? rig->table.get() : &fixed->table();
  } else if (auto* v = dynamic_cast<vkv::VkvStore*>(rig->kv.get())) {
    index = &v->index();
  }
  if (auto* h = dynamic_cast<Hdnh*>(index)) {
    dg("resizes", static_cast<double>(h->resize_count()));
    dg("hot_table_slots", static_cast<double>(h->hot_table_slots()));
  }
  dg("items", static_cast<double>(rig->store().size()));

  if (o.traced) {
    const double cpu = static_cast<double>(cpu_ns);
    const double proc = static_cast<double>(s1->process_cpu - tput_process_cpu);
    const e2e::LayerTotals lt = e2e::layer_totals();
    double kv_calls = 0, kv_ns = 0;
    for (uint32_t k = 0; k < e2e::kKvCalls; ++k) {
      kv_calls += static_cast<double>(lt.kv_calls[k]);
      kv_ns += static_cast<double>(lt.kv_ns[k]);
    }
    const double gets = static_cast<double>(lt.kv_calls[e2e::kKvGet]);
    const double puts = static_cast<double>(lt.kv_calls[e2e::kKvPut]);

    // Index time per KvStore get / put. A fixed-record store's index is
    // probed directly; VkvStore's index is internal, so its calls are read
    // from the obs op counters and sampled op latencies instead.
    double ix_get_ns = 0, ix_put_ns = 0, ix_put_calls = 0, ix_total_ns = 0;
    double searches = 0;
    if (rig->timed_table) {
      ix_get_ns = static_cast<double>(lt.nested_ns[e2e::kKvGet]);
      ix_put_ns = static_cast<double>(lt.nested_ns[e2e::kKvPut]);
      ix_put_calls = static_cast<double>(lt.nested_calls[e2e::kKvPut]);
      for (uint32_t k = 0; k < e2e::kKvCalls; ++k) {
        ix_total_ns += static_cast<double>(lt.nested_ns[k]);
      }
      searches = static_cast<double>(lt.index_calls[e2e::kIxSearch]);
    } else {
      auto delta = [&](obs::Op op, double* mean_ns) {
        const auto& a = s0.ops[static_cast<uint32_t>(op)];
        const auto& b = s1->ops[static_cast<uint32_t>(op)];
        const double sampled_ns =
            b.latency.mean() * static_cast<double>(b.latency.count()) -
            a.latency.mean() * static_cast<double>(a.latency.count());
        *mean_ns = ratio(sampled_ns, static_cast<double>(b.latency.count() -
                                                         a.latency.count()));
        return static_cast<double>(b.count - a.count);
      };
      double m_search = 0, m_insert = 0, m_update = 0, m_erase = 0;
      searches = delta(obs::Op::kGet, &m_search);
      const double inserts = delta(obs::Op::kPut, &m_insert);
      const double updates = delta(obs::Op::kUpdate, &m_update);
      const double erases = delta(obs::Op::kDelete, &m_erase);
      const double put_searches = std::max(0.0, searches - gets);
      ix_get_ns = gets * m_search;
      ix_put_ns = put_searches * m_search + inserts * m_insert + updates * m_update;
      ix_put_calls = put_searches + inserts + updates;
      ix_total_ns = searches * m_search + inserts * m_insert +
                    updates * m_update + erases * m_erase;
    }

    // Over the windows get_p50_us is taken from: the mean get/put latency
    // the caller saw (embed: per call; net: open loop) minus the mean
    // KvStore get/put call. What is left is transport — kernel, parse,
    // dispatch, reply — or, in process, the probes' own cost.
    const e2e::WindowTotals kw = e2e::kv_windows();
    double seen_ns = 0, seen_n = 0, call_ns = 0, calls = 0;
    for (const int i : get.quiet(0.50)) {
      for (const Histogram* h : {&get.windows[i], &set.windows[i]}) {
        seen_ns += h->mean() * static_cast<double>(h->count());
        seen_n += static_cast<double>(h->count());
      }
      call_ns += static_cast<double>(kw.ns[i]);
      calls += static_cast<double>(kw.calls[i]);
    }
    auto* vkv_store = dynamic_cast<vkv::VkvStore*>(rig->kv.get());

    const double tput = static_cast<double>(tput_ops);
    add("client.send_late_p99_us", quantile_ns(late_all, 0.99) * us);
    add("client.cpu_us_per_op", ratio(cpu, tput) * us);
    add("net.server_cpu_us_per_op", ratio(std::max(0.0, proc - cpu), tput) * us);
    add("net.residual_us", (ratio(seen_ns, seen_n) - ratio(call_ns, calls)) * us);
    add("net.commands_per_op",
        ratio(static_cast<double>(s1->commands - s0.commands), ops));
    add("repl.appends_per_set",
        ratio(static_cast<double>(s1->repl_seq - s0.repl_seq),
              static_cast<double>(s1->set_commands - s0.set_commands)));
    add("kv.get_us", ratio(static_cast<double>(lt.kv_ns[e2e::kKvGet]), gets) * us);
    add("kv.put_us", ratio(static_cast<double>(lt.kv_ns[e2e::kKvPut]), puts) * us);
    add("kv.self_us", ratio(kv_ns - ix_total_ns, kv_calls) * us);
    add("vkv.log_utilization", vkv_store ? vkv_store->log_utilization() : 0.0);
    add("hdnh.get_us", ratio(ix_get_ns, gets) * us);
    add("hdnh.put_us", ratio(ix_put_ns, puts) * us);
    add("hdnh.calls_per_put", ratio(ix_put_calls, puts));
    add("hdnh.load_factor", rig->store().load_factor());
    add("nvm.read_blocks_per_op", ratio(static_cast<double>(dn.nvm_read_blocks), ops));
    add("nvm.write_lines_per_op", ratio(static_cast<double>(dn.nvm_write_lines), ops));
    add("nvm.fences_per_op", ratio(static_cast<double>(dn.fences), ops));
    add("nvm.hot_hit_ratio", ratio(static_cast<double>(dn.dram_hot_hits), searches));
    add("nvm.ocf_filtered_per_op", ratio(static_cast<double>(dn.ocf_filtered), ops));
    add("nvm.ocf_false_positive_per_op",
        ratio(static_cast<double>(dn.ocf_false_positive), ops));
    add("nvm.lock_waits_per_op", ratio(static_cast<double>(dn.lock_waits), ops));
    add("trace.throughput_kops", throughput_kops);
  }

  // Stop the server and its threads before the trace is written.
  rig.reset();
  if (o.traced && !trace_path.empty()) {
    uint64_t spans = 0;
    if (!e2e::trace::write_chrome(trace_path, &spans)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      aborted = true;
    }
    dg("trace_spans", static_cast<double>(spans));
  }

  for (const Metric& x : m) {
    std::printf("# %-32s %s\n", x.name.c_str(), json_number(x.value).c_str());
  }
  std::string doc = "{\"workload\":\"" + std::string(w.name) + "\",\"stamp\":" +
                    stamp + ",\"correct\":" +
                    (failed == 0 && !aborted ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < m.size(); ++i) {
    doc += (i ? ",\"" : "\"") + m[i].name + "\":" + json_number(m[i].value);
  }
  doc += "},\"diagnostics\":{";
  for (size_t i = 0; i < diag.size(); ++i) {
    doc += (i ? ",\"" : "\"") + diag[i].name + "\":" + json_number(diag[i].value);
  }
  doc += "}}";
  std::printf("%s\n", doc.c_str());
  std::fflush(stdout);
  return failed == 0 && !aborted ? 0 : 1;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string workload = cli.get_str("workload", "", "workload name");
  const int64_t seed = cli.get_int("seed", 1, "input seed");
  const double seconds =
      cli.get_double("seconds", 24.0, "length of the measured period");
  const std::string trace_path = cli.get_str(
      "trace", "", "traced run: probe every layer, write a Chrome trace here");
  const double scale = cli.get_double(
      "scale", 1.0, "multiplies key counts (the smoke test runs tiny sizes)");
  const int64_t corrupt_every = cli.get_int(
      "corrupt_every", 0, "test only: corrupt every Nth get result");
  const std::string git_sha = cli.get_str("git_sha", "unknown", "stamp: commit");
  const std::string git_dirty =
      cli.get_str("git_dirty", "unknown", "stamp: uncommitted changes");
  const std::string source_digest =
      cli.get_str("source_digest", "unknown", "stamp: digest of the sources");
  cli.finish();

  Options o;
  std::string names;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) o.w = &w;
    names += names.empty() ? w.name : std::string(", ") + w.name;
  }
  if (o.w == nullptr || seconds <= 0 || scale <= 0 || corrupt_every < 0) {
    std::fprintf(stderr, "bad arguments: --workload must be one of %s; "
                         "--seconds and --scale positive\n", names.c_str());
    return 2;
  }
  Workload scaled = *o.w;
  scaled.keys = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(scaled.keys) * scale), 1000);
  scaled.fresh_live = static_cast<uint64_t>(
      static_cast<double>(scaled.fresh_live) * scale);
  scaled.warmup_ops = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(scaled.warmup_ops) * scale), 100);
  o.w = &scaled;
  o.seed = static_cast<uint64_t>(seed);
  o.seconds = seconds;
  o.traced = !trace_path.empty();
  o.corrupt_every = static_cast<uint64_t>(corrupt_every);
  if (o.traced) e2e::trace::enable();

  const nvm::NvmConfig ncfg;
  char nvm_desc[256];
  std::snprintf(nvm_desc, sizeof(nvm_desc),
                "{\"emulate_latency\":true,\"read_ns_per_block\":%llu,"
                "\"write_ns_per_line\":%llu,\"fence_ns\":%llu,\"dimms\":%u}",
                static_cast<unsigned long long>(ncfg.read_ns_per_block),
                static_cast<unsigned long long>(ncfg.write_ns_per_line),
                static_cast<unsigned long long>(ncfg.fence_ns),
                ncfg.dimm.dimms);
  const std::string stamp =
      "{\"git_sha\":" + json_string(git_sha) +
      ",\"git_dirty\":" + json_string(git_dirty) +
      ",\"source_digest\":" + json_string(source_digest) +
      ",\"build_type\":" + json_string(HDNH_BENCH_BUILD_TYPE) +
      ",\"hdnh_obs\":" + (obs::kCompiledIn ? "true" : "false") +
      ",\"simd\":" + json_string(simd::level_name(simd::active_level())) +
      ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ",\"nvm\":" + nvm_desc + ",\"seed\":" + std::to_string(seed) +
      ",\"seconds\":" + json_number(seconds) +
      ",\"scale\":" + json_number(scale) +
      ",\"threads\":" + std::to_string(kThreads) +
      ",\"traced\":" + (o.traced ? "true" : "false") + "}";
  std::printf("# stamp %s\n", stamp.c_str());

  pin_self(kMainCpu);
  try {
    return run(o, trace_path, stamp);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdnh_bench: %s\n", e.what());
    return 1;
  }
}
