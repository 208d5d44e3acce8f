// MetricsRegistry — thread-safe, low-overhead counters and histograms.
//
// The registry is built for the replay engine's hot loop: a metric update
// must cost one relaxed atomic add on a cache line owned by the updating
// thread. Each thread therefore gets a private *shard* (registered once,
// under a mutex, on its first update) holding a fixed-capacity slot array
// per metric family; reads fold the shards in registration order. Totals
// are sums of non-negative integers, so the fold is deterministic for any
// thread count and interleaving — the same property the sweep scheduler
// relies on when it folds per-seed rows in seed order.
//
// Names identify metrics: registering the same name twice returns the same
// id (so concurrent replays of the same protocol share one counter), and
// snapshot() reports metrics in registration order for stable output.
//
// Histograms use fixed bucket upper bounds chosen at registration (the
// helper exponential_bounds() gives the usual 1-2-4-... microsecond
// ladder); values above the last bound land in a final overflow bucket.
//
// The registry itself is always compiled — tests and tools use it directly.
// Whether the *runtime hooks* in replay/sweep/DES feed it is decided at
// compile time by RDT_OBSERVABILITY (cmake -DRDT_OBS=ON); see hooks.hpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace rdt::obs {

#ifdef RDT_OBSERVABILITY
inline constexpr bool kObsEnabled = true;
#else
inline constexpr bool kObsEnabled = false;
#endif

// Runtime query, e.g. for tests that must skip when hooks are compiled out.
constexpr bool observability_enabled() { return kObsEnabled; }

using CounterId = std::uint32_t;
using HistogramId = std::uint32_t;

// The usual exponential bucket ladder: 1, 2, 4, ... (count bounds), in
// whatever unit the histogram records (the convention is microseconds).
std::vector<long long> exponential_bounds(int count, long long first = 1);

struct HistogramSnapshot {
  std::string name;
  std::vector<long long> bounds;  // upper-inclusive bucket edges
  std::vector<long long> counts;  // bounds.size() + 1 (overflow last)
  long long count = 0;
  long long sum = 0;
  long long min = 0;  // meaningful only when count > 0
  long long max = 0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, long long>> counters;
  std::vector<HistogramSnapshot> histograms;
};

// The snapshot as the members {"counters": {name: total, ...},
// "histograms": {name: {"bounds", "counts", "count", "sum", "min", "max"},
// ...}}, in registration order. Both the chrome trace's "metrics" block and
// a bench report's observability section are written from this.
json::Object to_json(const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  // Generous fixed capacities: shards preallocate their slot arrays so a
  // registration can never race a concurrent update in another thread.
  static constexpr std::size_t kMaxCounters = 512;
  static constexpr std::size_t kMaxHistograms = 64;
  static constexpr std::size_t kMaxBuckets = 40;  // incl. overflow bucket

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent: the same name always maps to the same id.
  CounterId counter(std::string_view name);
  // Idempotent; re-registration must repeat the same bounds.
  HistogramId histogram(std::string_view name,
                        std::span<const long long> bounds);

  // Thread-safe, wait-free after the calling thread's first update.
  void add(CounterId id, long long n = 1);
  void record(HistogramId id, long long value);

  // Deterministic folds across shards. Safe to call while updates are in
  // flight (relaxed reads observe some valid prefix of each shard).
  long long counter_total(CounterId id) const;
  HistogramSnapshot histogram_snapshot(HistogramId id) const;
  MetricsSnapshot snapshot() const;

  std::size_t num_counters() const;
  std::size_t num_histograms() const;
  std::size_t num_shards() const;  // threads that have updated so far

 private:
  struct Shard;
  Shard& local_shard();
  long long counter_total_locked(CounterId id) const RDT_REQUIRES(mutex_);
  HistogramSnapshot histogram_snapshot_locked(HistogramId id) const
      RDT_REQUIRES(mutex_);

  const std::uint64_t generation_;  // distinguishes registry instances
  mutable AnnotatedMutex mutex_;
  std::vector<std::string> counter_names_ RDT_GUARDED_BY(mutex_);
  std::vector<std::string> histogram_names_ RDT_GUARDED_BY(mutex_);
  std::vector<std::vector<long long>> histogram_bounds_ RDT_GUARDED_BY(mutex_);
  // Lock-free (pointer, size) view of each histogram's bounds for record();
  // published with release semantics at registration. Deliberately not
  // guarded: record() reads them without the mutex by design.
  std::array<std::atomic<const long long*>, kMaxHistograms> bounds_data_;
  std::array<std::atomic<std::size_t>, kMaxHistograms> bounds_size_;
  // Registration order. The vector is guarded; the Shards behind the
  // pointers are each written only by their owning thread (atomic slots).
  std::vector<std::unique_ptr<Shard>> shards_ RDT_GUARDED_BY(mutex_);
};

}  // namespace rdt::obs
