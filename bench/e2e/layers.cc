#include "layers.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"

namespace hdnh::e2e {

namespace {

// One thread's counters. Only the owning thread writes them (load + store,
// no read-modify-write), readers sum them with relaxed loads.
struct AtomicTotals {
  std::atomic<uint64_t> kv_calls[kKvCalls]{};
  std::atomic<uint64_t> kv_ns[kKvCalls]{};
  std::atomic<uint64_t> index_calls[kIxCalls]{};
  std::atomic<uint64_t> nested_calls[kKvCalls]{};
  std::atomic<uint64_t> nested_ns[kKvCalls]{};
};

struct Block {
  AtomicTotals totals;
  std::atomic<uint64_t> window_calls[kWindows]{};
  std::atomic<uint64_t> window_ns[kWindows]{};
};

std::atomic<bool> g_recording{false};
std::atomic<uint64_t> g_window_start{0};
std::atomic<uint64_t> g_window_ns{0};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Block>> blocks;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives every thread
  return *r;
}

Block& block() {
  thread_local Block* b = [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.blocks.push_back(std::make_unique<Block>());
    return r.blocks.back().get();
  }();
  return *b;
}

void bump(std::atomic<uint64_t>& a, uint64_t x) {
  a.store(a.load(std::memory_order_relaxed) + x, std::memory_order_relaxed);
}

// The KvStore call the current thread is inside (-1: none), so index calls
// can be charged to it.
thread_local int tl_kv_call = -1;

template <typename Fn>
Status timed_kv(KvCall kind, const char* name, Fn&& fn) {
  if (!g_recording.load(std::memory_order_acquire)) return fn();
  trace::Span span("kv", name);
  const int outer = tl_kv_call;
  tl_kv_call = kind;
  const uint64_t t0 = now_ns();
  Status s = fn();
  const uint64_t dt = now_ns() - t0;
  tl_kv_call = outer;
  Block& b = block();
  bump(b.totals.kv_calls[kind], 1);
  bump(b.totals.kv_ns[kind], dt);
  const uint64_t start = g_window_start.load(std::memory_order_relaxed);
  const uint64_t len = g_window_ns.load(std::memory_order_relaxed);
  if ((kind == kKvGet || kind == kKvPut) && len > 0 && t0 >= start &&
      (t0 - start) / len < static_cast<uint64_t>(kWindows)) {
    const uint64_t w = (t0 - start) / len;
    bump(b.window_calls[w], 1);
    bump(b.window_ns[w], dt);
  }
  return s;
}

template <typename R, typename Fn>
R timed_index(IndexCall kind, const char* name, Fn&& fn) {
  if (!g_recording.load(std::memory_order_acquire)) return fn();
  trace::Span span("hdnh", name);
  const uint64_t t0 = now_ns();
  R r = fn();
  const uint64_t dt = now_ns() - t0;
  AtomicTotals& t = block().totals;
  bump(t.index_calls[kind], 1);
  if (tl_kv_call >= 0) {
    bump(t.nested_calls[tl_kv_call], 1);
    bump(t.nested_ns[tl_kv_call], dt);
  }
  return r;
}

}  // namespace

void set_recording(bool on, uint64_t start_ns, uint64_t window_ns) {
  g_window_start.store(start_ns, std::memory_order_relaxed);
  g_window_ns.store(window_ns, std::memory_order_relaxed);
  g_recording.store(on, std::memory_order_release);
}

LayerTotals layer_totals() {
  LayerTotals out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  constexpr auto relaxed = std::memory_order_relaxed;
  for (const auto& b : r.blocks) {
    const AtomicTotals& t = b->totals;
    for (uint32_t i = 0; i < kKvCalls; ++i) {
      out.kv_calls[i] += t.kv_calls[i].load(relaxed);
      out.kv_ns[i] += t.kv_ns[i].load(relaxed);
      out.nested_calls[i] += t.nested_calls[i].load(relaxed);
      out.nested_ns[i] += t.nested_ns[i].load(relaxed);
    }
    for (uint32_t i = 0; i < kIxCalls; ++i) {
      out.index_calls[i] += t.index_calls[i].load(relaxed);
    }
  }
  return out;
}

WindowTotals kv_windows() {
  WindowTotals out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.blocks) {
    for (int w = 0; w < kWindows; ++w) {
      out.calls[w] += b->window_calls[w].load(std::memory_order_relaxed);
      out.ns[w] += b->window_ns[w].load(std::memory_order_relaxed);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

Status TimedKvStore::put(std::string_view key, std::string_view value) {
  return timed_kv(kKvPut, "put", [&] { return inner_.put(key, value); });
}
Status TimedKvStore::insert(std::string_view key, std::string_view value) {
  return timed_kv(kKvInsert, "insert", [&] { return inner_.insert(key, value); });
}
Status TimedKvStore::get(std::string_view key, std::string* out) {
  return timed_kv(kKvGet, "get", [&] { return inner_.get(key, out); });
}
Status TimedKvStore::erase(std::string_view key) {
  return timed_kv(kKvErase, "erase", [&] { return inner_.erase(key); });
}

bool TimedHashTable::insert(const Key& key, const Value& value) {
  return timed_index<bool>(kIxInsert, "insert",
                           [&] { return inner_.insert(key, value); });
}
bool TimedHashTable::search(const Key& key, Value* out) {
  return timed_index<bool>(kIxSearch, "search",
                           [&] { return inner_.search(key, out); });
}
bool TimedHashTable::update(const Key& key, const Value& value) {
  return timed_index<bool>(kIxUpdate, "update",
                           [&] { return inner_.update(key, value); });
}
bool TimedHashTable::erase(const Key& key) {
  return timed_index<bool>(kIxErase, "erase", [&] { return inner_.erase(key); });
}
Status TimedHashTable::insert_s(const Key& key, const Value& value) {
  return timed_index<Status>(kIxInsert, "insert",
                             [&] { return inner_.insert_s(key, value); });
}
Status TimedHashTable::search_s(const Key& key, Value* out) {
  return timed_index<Status>(kIxSearch, "search",
                             [&] { return inner_.search_s(key, out); });
}
Status TimedHashTable::update_s(const Key& key, const Value& value) {
  return timed_index<Status>(kIxUpdate, "update",
                             [&] { return inner_.update_s(key, value); });
}
Status TimedHashTable::erase_s(const Key& key) {
  return timed_index<Status>(kIxErase, "erase",
                             [&] { return inner_.erase_s(key); });
}
size_t TimedHashTable::multiget(const Key* keys, size_t n, Value* values,
                                bool* found) {
  return timed_index<size_t>(kIxMultiget, "multiget", [&] {
    return inner_.multiget(keys, n, values, found);
  });
}

Status CorruptingKvStore::get(std::string_view key, std::string* out) {
  const Status s = inner_.get(key, out);
  if (s.ok() && out != nullptr && !out->empty() &&
      gets_.fetch_add(1, std::memory_order_relaxed) % every_ == every_ - 1) {
    (*out)[out->size() / 2] ^= 0x20;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

namespace trace {

namespace {

constexpr uint64_t kSampleMask = 255;          // keep 1 in 256 roots
constexpr size_t kMaxEventsPerThread = 1 << 19;

struct Event {
  uint64_t id;
  uint64_t parent;
  uint64_t start;
  uint64_t end;
  const char* layer;
  const char* name;
};

struct ThreadLog {
  uint32_t tid = 0;
  std::string name;
  std::vector<Event> events;
  std::vector<uint64_t> open;  // ids of the open spans, 0 = not kept
  uint64_t roots = 0;
  uint64_t next_seq = 0;
  uint64_t dropped = 0;
};

std::atomic<bool> g_on{false};
uint64_t g_base_ns = 0;

struct Logs {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadLog>> threads;
};

Logs& logs() {
  static Logs* l = new Logs();  // leaked: outlives every thread
  return *l;
}

ThreadLog& tlog() {
  thread_local ThreadLog* t = [] {
    Logs& l = logs();
    std::lock_guard<std::mutex> lock(l.mu);
    l.threads.push_back(std::make_unique<ThreadLog>());
    ThreadLog* log = l.threads.back().get();
    log->tid = static_cast<uint32_t>(l.threads.size());
    log->name = "store-" + std::to_string(log->tid);  // e.g. the reactor
    return log;
  }();
  return *t;
}

uint64_t new_id(ThreadLog& log) {
  return (static_cast<uint64_t>(log.tid) << 40) | ++log.next_seq;
}

void keep(ThreadLog& log, const Event& e) {
  if (log.events.size() >= kMaxEventsPerThread) {
    ++log.dropped;
    return;
  }
  log.events.push_back(e);
}

}  // namespace

void enable() {
  g_base_ns = now_ns();
  g_on.store(true, std::memory_order_relaxed);
}

bool enabled() { return g_on.load(std::memory_order_relaxed); }

void set_thread_name(std::string name) { tlog().name = std::move(name); }

Span::Span(const char* layer, const char* name) : layer_(layer), name_(name) {
  if (!enabled()) return;
  ThreadLog& log = tlog();
  open_ = true;
  if (log.open.empty()) {
    if ((++log.roots & kSampleMask) == 0) id_ = new_id(log);
  } else if (log.open.back() != 0) {
    parent_ = log.open.back();
    id_ = new_id(log);
  }
  log.open.push_back(id_);
  if (id_ != 0) start_ = now_ns();
}

Span::~Span() {
  if (!open_) return;
  ThreadLog& log = tlog();
  log.open.pop_back();
  if (id_ != 0) keep(log, {id_, parent_, start_, now_ns(), layer_, name_});
}

void record_root(const char* layer, const char* name, uint64_t start_ns,
                 uint64_t end_ns) {
  if (!enabled()) return;
  ThreadLog& log = tlog();
  if ((++log.roots & kSampleMask) != 0) return;
  keep(log, {new_id(log), 0, start_ns, end_ns, layer, name});
}

bool write_chrome(const std::string& path, uint64_t* spans_out) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Logs& l = logs();
  std::lock_guard<std::mutex> lock(l.mu);
  uint64_t spans = 0;
  uint64_t dropped = 0;
  bool first = true;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (const auto& t : l.threads) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t->tid, t->name.c_str());
    first = false;
    dropped += t->dropped;
    for (const Event& e : t->events) {
      const double ts = static_cast<double>(e.start - g_base_ns) / 1e3;
      const double dur = static_cast<double>(e.end - e.start) / 1e3;
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s.%s\",\"cat\":\"%s\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                   e.layer, e.name, e.layer, t->tid, ts, dur,
                   static_cast<unsigned long long>(e.id),
                   static_cast<unsigned long long>(e.parent));
      ++spans;
    }
  }
  std::fprintf(f, "],\n\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  const bool ok = std::fclose(f) == 0;
  if (spans_out != nullptr) *spans_out = spans;
  return ok;
}

}  // namespace trace

}  // namespace hdnh::e2e
