// Copyright 2026 The Tyche Reproduction Authors.
// Zero-dependency metrics registry for the monitor stack (DESIGN.md §6
// "Metrics & export").
//
// The fleet-observability contract: every signal the monitor produces --
// per-op call counts, transition/revocation totals, backend projection
// counters, journal chain length, lock contention, fault-injection hits --
// must be scrapeable as a Prometheus-style text snapshot without the
// instrumentation itself serializing cores. Two pieces deliver that:
//
//  - StripedCounter: a monotonic counter spread over kMetricStripes
//    cache-line-aligned cells. Each thread picks a stripe once (round-robin
//    at first use) and increments it with one relaxed fetch_add, so eight
//    dispatching cores never bounce a shared line. Reads sum the stripes --
//    monotonic but not linearizable, which is exactly what a scraper needs.
//  - Log2Histogram: the monitor's one live latency histogram -- 64 relaxed
//    atomic log2 bucket cells plus sum and max, so recording never takes a
//    lock. Snapshot() turns it into the HistogramSnapshot value type the
//    registry exports and callers compute percentiles on.
//  - MetricsRegistry: named families of counters, gauges, and histogram
//    views, each with optional labels. Native counters/gauges live in the
//    registry; signals owned elsewhere (backend stats, journal sizes, fault
//    hits) register PULL CALLBACKS so the registry never duplicates state.
//    ExportPrometheus() renders the whole surface in deterministic (sorted)
//    order with proper HELP/label escaping.
//
// Everything here is independent of the monitor's types: histogram views
// are exported through the plain HistogramSnapshot struct below, so
// telemetry.h can include this header (for the striped contention counters
// and Log2Histogram) without a cycle.

#ifndef SRC_SUPPORT_METRICS_H_
#define SRC_SUPPORT_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tyche {

// Stripe count: a power of two comfortably above the 8-core machines the
// testbed models, small enough that aggregation stays trivial.
inline constexpr size_t kMetricStripes = 16;

namespace metrics_internal {
// This thread's stripe id + 1; 0 means "not assigned yet". Constant-
// initialized on purpose, and declared `constinit` so every including file
// knows it: the hot-path read below is then a bare TLS load, with no call
// through an init-function check and no reference for UBSan to null-check
// (see profiler_internal::tls_scratch). Assignment (the round-robin
// fetch_add) happens once per thread, out of line.
extern constinit thread_local size_t tls_stripe_plus1;
size_t AssignThisThreadStripe();  // returns stripe + 1 and caches it
}  // namespace metrics_internal

// Monotonic counter striped over per-thread cache-line-aligned cells.
// Add() is wait-free (one relaxed fetch_add on this thread's stripe);
// Value() sums the stripes.
class StripedCounter {
 public:
  StripedCounter() = default;
  StripedCounter(const StripedCounter&) = delete;
  StripedCounter& operator=(const StripedCounter&) = delete;

  void Add(uint64_t delta = 1) {
    cells_[ThisThreadStripe()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Per-stripe occupancy, for tests asserting that concurrent writers
  // actually spread over distinct lines instead of sharing one.
  std::array<uint64_t, kMetricStripes> StripeValues() const {
    std::array<uint64_t, kMetricStripes> values{};
    for (size_t i = 0; i < kMetricStripes; ++i) {
      values[i] = cells_[i].value.load(std::memory_order_relaxed);
    }
    return values;
  }

  void Reset() {
    for (Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  // Threads take consecutive stripe ids at first use, so up to
  // kMetricStripes concurrent threads never share a cell. Inline and
  // guard-free: the counter bump sits on the dispatch fast path, gated to
  // +10% of the telemetry-off boundary by bench_telemetry.
  static size_t ThisThreadStripe() {
    const size_t cached = metrics_internal::tls_stripe_plus1;
    if (cached != 0) [[likely]] {
      return cached - 1;
    }
    return metrics_internal::AssignThisThreadStripe() - 1;
  }

  std::array<Cell, kMetricStripes> cells_;
};

// A settable instantaneous value. Gauges are off the hot path (domain
// counts, config state), so a single atomic cell is enough.
class MetricGauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A histogram value: bucket upper bounds with per-bucket counts, plus
// count/sum/max. Log2Histogram::Snapshot() produces it; the registry
// renders it, and callers merge it and read percentiles from it.
struct HistogramSnapshot {
  // (inclusive upper bound, count in bucket) pairs, ascending. The exporter
  // emits cumulative counts and appends the +Inf bucket itself.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  // Adds `other` bucket by bucket. Both sides must use the same upper bound
  // at each index, as every Log2Histogram snapshot does.
  void Merge(const HistogramSnapshot& other);

  // Upper bound of the bucket holding the p-th percentile sample (p in
  // [0,100], nearest rank). 0 on an empty histogram.
  uint64_t Percentile(double p) const;
};

// Log2-bucketed histogram of non-negative 64-bit values with relaxed atomic
// cells: Record() is wait-free and safe from any number of threads.
// Bucket i counts values v with 2^(i-1) < v <= 2^i (bucket 0 counts 0 and
// 1; the last bucket counts every value above 2^62).
class Log2Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  static size_t BucketIndex(uint64_t value) {
    if (value <= 1) {
      return 0;
    }
    // Smallest i with value <= 2^i, i.e. ceil(log2(value)), clamped so
    // values above 2^63 land in the last bucket instead of past it.
    const size_t index = static_cast<size_t>(64 - __builtin_clzll(value - 1));
    return index < kBuckets ? index : kBuckets - 1;
  }

  // Inclusive upper bound of values landing in bucket i.
  static uint64_t BucketUpperBound(size_t i) { return i >= 63 ? ~0ull : (1ull << i); }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  // Buckets up to the highest non-empty one. `count` is the sum of the
  // bucket cells read, so the exported +Inf bucket always equals the last
  // cumulative bucket even while writers are active.
  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// label key/value pairs, rendered in the order given.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Prometheus text-format escaping (exposed for tests).
std::string PromEscapeHelp(const std::string& text);
std::string PromEscapeLabelValue(const std::string& text);

// Escapes a string for use inside a JSON string literal: quotes, backslash,
// and every control character (\n, \r, \t, otherwise \uXXXX), so no byte is
// lost. The one JSON escaper of every exporter.
std::string EscapeJsonString(const std::string& text);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create a native striped counter / gauge child. The returned
  // pointer is stable for the registry's lifetime; hot paths cache it and
  // never touch the registry again.
  StripedCounter* AddCounter(const std::string& name, const std::string& help,
                             const MetricLabels& labels = {});
  MetricGauge* AddGauge(const std::string& name, const std::string& help,
                        const MetricLabels& labels = {});

  // Registers a pull callback for a signal owned elsewhere. `counter`
  // controls the TYPE line (counter vs gauge).
  void AddCallback(const std::string& name, const std::string& help, bool counter,
                   const MetricLabels& labels, std::function<uint64_t()> read);

  // Registers a histogram view; the callback snapshots the source histogram
  // at export time.
  void AddHistogram(const std::string& name, const std::string& help,
                    const MetricLabels& labels, std::function<HistogramSnapshot()> read);

  // Prometheus text exposition: families sorted by name, children in
  // registration order, HELP/TYPE once per family.
  std::string ExportPrometheus() const;

  // Every scalar series (histograms excluded) as (rendered series name,
  // value). `include_callbacks = false` restricts to native counters and
  // gauges, whose cells are atomic; the flight recorder uses that form
  // because it samples from dispatch threads while callback-backed state
  // (domain table, backend stats) may be mid-mutation under another lock.
  std::vector<std::pair<std::string, uint64_t>> ScalarValues(
      bool include_callbacks = true) const;

 private:
  struct Child {
    MetricLabels labels;
    std::unique_ptr<StripedCounter> counter;     // native counter
    std::unique_ptr<MetricGauge> gauge;          // native gauge
    std::function<uint64_t()> read;              // callback scalar
    std::function<HistogramSnapshot()> histogram;  // callback histogram
  };
  enum class Type { kCounter, kGauge, kHistogram };
  struct Family {
    std::string help;
    Type type = Type::kCounter;
    std::vector<Child> children;
  };

  Child* FindOrAddChild(const std::string& name, const std::string& help, Type type,
                        const MetricLabels& labels);

  mutable std::mutex mu_;  // guards families_ shape; cell updates are atomic
  std::map<std::string, Family> families_;
};

// Renders "name{k=\"v\",...}" (no labels -> bare name).
std::string RenderSeriesName(const std::string& name, const MetricLabels& labels);

}  // namespace tyche

#endif  // SRC_SUPPORT_METRICS_H_
