// Layer probes for the end-to-end benchmark's traced run (--trace).
//
// Everything here measures a layer from outside, through its public
// surface: TimedKvStore wraps any KvStore (FixedTableKv, VkvStore) and is
// what the generator or the net::Server calls; TimedHashTable wraps the
// HashTable a FixedTableKv is built over. Each call is timed into
// per-thread aggregates, and the index work done inside each
// kind of KvStore call is attributed to it (that is what kv.self_us and
// hdnh.calls_per_put are made of).
//
// The span recorder keeps 1 in 256 root calls per thread, with their
// nested calls, in memory and writes them as Chrome trace JSON at exit.
// (obs::Tracer keeps only the last 4096 events per thread, without ids or
// parents; it suits the store's coarse events, not a whole run of calls.)
// Spans nest within a thread (generator -> kv -> hdnh in process; kv ->
// hdnh on the server's reactor); client and server spans of one request
// are not linked, because request ids do not cross the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "api/hash_table.h"
#include "api/kv_store.h"

namespace hdnh::e2e {

enum KvCall : uint32_t { kKvGet, kKvPut, kKvInsert, kKvErase, kKvCalls };
enum IndexCall : uint32_t {
  kIxSearch,
  kIxInsert,
  kIxUpdate,
  kIxErase,
  kIxMultiget,
  kIxCalls
};

// Windows the latency phase (and the throughput phase) is cut into.
inline constexpr int kWindows = 64;

struct LayerTotals {
  uint64_t kv_calls[kKvCalls] = {};
  uint64_t kv_ns[kKvCalls] = {};
  uint64_t index_calls[kIxCalls] = {};
  // Index calls made, and time spent, inside each kind of KvStore call.
  uint64_t nested_calls[kKvCalls] = {};
  uint64_t nested_ns[kKvCalls] = {};
};

// KvStore get + put calls of the latency phase, by the window they started
// in.
struct WindowTotals {
  uint64_t calls[kWindows] = {};
  uint64_t ns[kWindows] = {};
};

// Starts recording, stops it (`on` false), or, with `window_ns` 0, keeps
// recording but no longer by window. While `window_ns` is set, get and put
// calls are also counted by window of `window_ns` from `start_ns`.
void set_recording(bool on, uint64_t start_ns = 0, uint64_t window_ns = 0);
// Sums over every thread that recorded. Exact once the recording threads
// are idle; counters are relaxed atomics, so a read is never a data race.
LayerTotals layer_totals();
WindowTotals kv_windows();

class TimedKvStore final : public KvStore {
 public:
  explicit TimedKvStore(KvStore& inner) : inner_(inner) {}

  ShardAdmin* shard_admin() override { return inner_.shard_admin(); }
  const char* name() const override { return inner_.name(); }
  uint64_t size() const override { return inner_.size(); }
  double load_factor() const override { return inner_.load_factor(); }
  size_t max_key_len() const override { return inner_.max_key_len(); }
  size_t max_value_len() const override { return inner_.max_value_len(); }

  Status put(std::string_view key, std::string_view value) override;
  Status insert(std::string_view key, std::string_view value) override;
  Status get(std::string_view key, std::string* out) override;
  Status erase(std::string_view key) override;

 private:
  KvStore& inner_;
};

class TimedHashTable final : public HashTable {
 public:
  explicit TimedHashTable(HashTable& inner) : inner_(inner) {}

  bool insert(const Key& key, const Value& value) override;
  bool search(const Key& key, Value* out) override;
  bool update(const Key& key, const Value& value) override;
  bool erase(const Key& key) override;
  Status insert_s(const Key& key, const Value& value) override;
  Status search_s(const Key& key, Value* out) override;
  Status update_s(const Key& key, const Value& value) override;
  Status erase_s(const Key& key) override;
  size_t multiget(const Key* keys, size_t n, Value* values,
                  bool* found) override;

  uint64_t size() const override { return inner_.size(); }
  double load_factor() const override { return inner_.load_factor(); }
  const char* name() const override { return inner_.name(); }

 private:
  HashTable& inner_;
};

// Test-only fault: flips a byte of every `every`-th successful get result,
// so the smoke test can prove the checker catches a wrong value.
class CorruptingKvStore final : public KvStore {
 public:
  CorruptingKvStore(KvStore& inner, uint64_t every)
      : inner_(inner), every_(every) {}

  const char* name() const override { return inner_.name(); }
  uint64_t size() const override { return inner_.size(); }
  double load_factor() const override { return inner_.load_factor(); }
  size_t max_key_len() const override { return inner_.max_key_len(); }
  size_t max_value_len() const override { return inner_.max_value_len(); }
  Status put(std::string_view key, std::string_view value) override {
    return inner_.put(key, value);
  }
  Status insert(std::string_view key, std::string_view value) override {
    return inner_.insert(key, value);
  }
  Status erase(std::string_view key) override { return inner_.erase(key); }
  Status get(std::string_view key, std::string* out) override;

 private:
  KvStore& inner_;
  uint64_t every_;
  std::atomic<uint64_t> gets_{0};
};

namespace trace {

// Turns span recording on for the whole process (before any thread runs).
void enable();
bool enabled();
// Names the calling thread in the trace ("generator-0", ...).
void set_thread_name(std::string name);

// RAII span around a call into `layer`. A span opened with no enclosing
// span on its thread is a root, kept for 1 in 256 roots per thread; a
// nested span is kept exactly when its parent is.
class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ = 0;
  bool open_ = false;
};

// A root span whose interval is already known (an open-loop request, timed
// from its scheduled send time). Sampled like a Span root.
void record_root(const char* layer, const char* name, uint64_t start_ns,
                 uint64_t end_ns);

// Writes every kept span as Chrome trace JSON. Call once the recording
// threads have finished. Returns false if the file cannot be written.
bool write_chrome(const std::string& path, uint64_t* spans_out);

}  // namespace trace

}  // namespace hdnh::e2e
