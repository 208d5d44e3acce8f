#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace rdt::obs {

namespace {

std::atomic<std::uint64_t> g_registry_generation{1};

}  // namespace

std::vector<long long> exponential_bounds(int count, long long first) {
  RDT_REQUIRE(count >= 1 && first >= 1, "need at least one positive bound");
  RDT_REQUIRE(static_cast<std::size_t>(count) < MetricsRegistry::kMaxBuckets,
              "too many histogram buckets");
  std::vector<long long> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  long long b = first;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    if (b > std::numeric_limits<long long>::max() / 2) break;
    b *= 2;
  }
  return bounds;
}

// One thread's private slice of every metric. Only the owning thread writes
// (relaxed adds / stores); folds read concurrently (relaxed loads), which is
// race-free by the C++ memory model because every access is atomic.
struct MetricsRegistry::Shard {
  std::array<std::atomic<long long>, kMaxCounters> counters{};
  // Flat [histogram][bucket] bucket counts, plus per-histogram count/sum/
  // min/max so snapshots report exact distribution summaries.
  std::array<std::atomic<long long>, kMaxHistograms * kMaxBuckets> buckets{};
  std::array<std::atomic<long long>, kMaxHistograms> hist_count{};
  std::array<std::atomic<long long>, kMaxHistograms> hist_sum{};
  std::array<std::atomic<long long>, kMaxHistograms> hist_min{};
  std::array<std::atomic<long long>, kMaxHistograms> hist_max{};

  Shard() {
    for (std::size_t h = 0; h < kMaxHistograms; ++h) {
      hist_min[h].store(std::numeric_limits<long long>::max(),
                        std::memory_order_relaxed);
      hist_max[h].store(std::numeric_limits<long long>::min(),
                        std::memory_order_relaxed);
    }
  }
};

MetricsRegistry::MetricsRegistry()
    : generation_(
          g_registry_generation.fetch_add(1, std::memory_order_relaxed)) {
  for (auto& b : bounds_data_) b.store(nullptr, std::memory_order_relaxed);
  for (auto& s : bounds_size_) s.store(0, std::memory_order_relaxed);
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  // Cache the (registry generation -> shard) binding per thread: after a
  // thread's first update every further one is a single comparison plus the
  // relaxed atomic add. The generation (not the `this` pointer) keys the
  // cache so a registry reallocated at the same address cannot alias a
  // stale shard.
  thread_local std::uint64_t cached_generation = 0;
  thread_local Shard* cached_shard = nullptr;
  if (cached_generation != generation_) {
    auto shard = std::make_unique<Shard>();
    const MutexLock lock(mutex_);
    shards_.push_back(std::move(shard));
    cached_shard = shards_.back().get();
    cached_generation = generation_;
  }
  return *cached_shard;
}

CounterId MetricsRegistry::counter(std::string_view name) {
  RDT_REQUIRE(!name.empty(), "counter name must be non-empty");
  const MutexLock lock(mutex_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i)
    if (counter_names_[i] == name) return static_cast<CounterId>(i);
  RDT_REQUIRE(counter_names_.size() < kMaxCounters,
              "counter capacity exhausted");
  counter_names_.emplace_back(name);
  return static_cast<CounterId>(counter_names_.size() - 1);
}

HistogramId MetricsRegistry::histogram(std::string_view name,
                                       std::span<const long long> bounds) {
  RDT_REQUIRE(!name.empty(), "histogram name must be non-empty");
  RDT_REQUIRE(!bounds.empty() && bounds.size() < kMaxBuckets,
              "histogram needs 1..kMaxBuckets-1 bucket bounds");
  RDT_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
              "histogram bounds must be sorted");
  const MutexLock lock(mutex_);
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    if (histogram_names_[i] == name) {
      RDT_REQUIRE(std::equal(bounds.begin(), bounds.end(),
                             histogram_bounds_[i].begin(),
                             histogram_bounds_[i].end()),
                  "histogram re-registered with different bounds");
      return static_cast<HistogramId>(i);
    }
  }
  RDT_REQUIRE(histogram_names_.size() < kMaxHistograms,
              "histogram capacity exhausted");
  histogram_names_.emplace_back(name);
  histogram_bounds_.emplace_back(bounds.begin(), bounds.end());
  // Publish a lock-free view of the bounds for record(). The inner vector's
  // heap buffer never moves again (growth of the outer vector only moves
  // the vector objects, which keep their buffers).
  const auto id = histogram_names_.size() - 1;
  bounds_size_[id].store(histogram_bounds_.back().size(),
                         std::memory_order_relaxed);
  bounds_data_[id].store(histogram_bounds_.back().data(),
                         std::memory_order_release);
  return static_cast<HistogramId>(id);
}

void MetricsRegistry::add(CounterId id, long long n) {
  RDT_CHECK(id < kMaxCounters, "counter id out of range");
  local_shard().counters[id].fetch_add(n, std::memory_order_relaxed);
}

void MetricsRegistry::record(HistogramId id, long long value) {
  RDT_CHECK(id < kMaxHistograms, "histogram id out of range");
  const long long* data = bounds_data_[id].load(std::memory_order_acquire);
  RDT_CHECK(data != nullptr, "histogram not registered");
  const std::size_t size = bounds_size_[id].load(std::memory_order_relaxed);
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(data, data + size, value) - data);
  Shard& shard = local_shard();
  shard.buckets[id * kMaxBuckets + bucket].fetch_add(
      1, std::memory_order_relaxed);
  shard.hist_count[id].fetch_add(1, std::memory_order_relaxed);
  shard.hist_sum[id].fetch_add(value, std::memory_order_relaxed);
  // The shard is written only by its owning thread, so min/max need no CAS.
  if (value < shard.hist_min[id].load(std::memory_order_relaxed))
    shard.hist_min[id].store(value, std::memory_order_relaxed);
  if (value > shard.hist_max[id].load(std::memory_order_relaxed))
    shard.hist_max[id].store(value, std::memory_order_relaxed);
}

long long MetricsRegistry::counter_total_locked(CounterId id) const {
  long long total = 0;
  for (const auto& shard : shards_)
    total += shard->counters[id].load(std::memory_order_relaxed);
  return total;
}

HistogramSnapshot MetricsRegistry::histogram_snapshot_locked(
    HistogramId id) const {
  HistogramSnapshot snap;
  snap.name = histogram_names_[id];
  snap.bounds = histogram_bounds_[id];
  snap.counts.assign(snap.bounds.size() + 1, 0);
  snap.min = std::numeric_limits<long long>::max();
  snap.max = std::numeric_limits<long long>::min();
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < snap.counts.size(); ++b)
      snap.counts[b] +=
          shard->buckets[id * kMaxBuckets + b].load(std::memory_order_relaxed);
    snap.count += shard->hist_count[id].load(std::memory_order_relaxed);
    snap.sum += shard->hist_sum[id].load(std::memory_order_relaxed);
    snap.min = std::min(snap.min,
                        shard->hist_min[id].load(std::memory_order_relaxed));
    snap.max = std::max(snap.max,
                        shard->hist_max[id].load(std::memory_order_relaxed));
  }
  if (snap.count == 0) snap.min = snap.max = 0;
  return snap;
}

long long MetricsRegistry::counter_total(CounterId id) const {
  const MutexLock lock(mutex_);
  RDT_REQUIRE(id < counter_names_.size(), "counter not registered");
  return counter_total_locked(id);
}

HistogramSnapshot MetricsRegistry::histogram_snapshot(HistogramId id) const {
  const MutexLock lock(mutex_);
  RDT_REQUIRE(id < histogram_names_.size(), "histogram not registered");
  return histogram_snapshot_locked(id);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const MutexLock lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i)
    out.counters.emplace_back(counter_names_[i],
                              counter_total_locked(static_cast<CounterId>(i)));
  out.histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i)
    out.histograms.push_back(
        histogram_snapshot_locked(static_cast<HistogramId>(i)));
  return out;
}

std::size_t MetricsRegistry::num_counters() const {
  const MutexLock lock(mutex_);
  return counter_names_.size();
}

std::size_t MetricsRegistry::num_histograms() const {
  const MutexLock lock(mutex_);
  return histogram_names_.size();
}

std::size_t MetricsRegistry::num_shards() const {
  const MutexLock lock(mutex_);
  return shards_.size();
}

json::Object to_json(const MetricsSnapshot& snapshot) {
  json::Object counters;
  for (const auto& [name, total] : snapshot.counters)
    counters.emplace_back(name, total);
  json::Object histograms;
  for (const HistogramSnapshot& h : snapshot.histograms)
    histograms.emplace_back(
        h.name, json::Object{{"bounds", json::Array(h.bounds.begin(), h.bounds.end())},
                             {"counts", json::Array(h.counts.begin(), h.counts.end())},
                             {"count", h.count},
                             {"sum", h.sum},
                             {"min", h.min},
                             {"max", h.max}});
  return {{"counters", std::move(counters)},
          {"histograms", std::move(histograms)}};
}

}  // namespace rdt::obs
