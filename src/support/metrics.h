// Copyright 2026 The Tyche Reproduction Authors.
// The monitor's lock-free counting primitives (DESIGN.md §6 "Metrics &
// export").
//
// Every signal the monitor counts -- per-op call counts, transition and
// revocation totals, lock contention, dispatch latency -- must be countable
// without the instrumentation itself serializing cores. Two pieces deliver
// that:
//
//  - StripedCounter: a monotonic counter spread over kMetricStripes
//    cache-line-aligned cells. Each thread picks a stripe once (round-robin
//    at first use) and increments it with one relaxed fetch_add, so eight
//    dispatching cores never bounce a shared line. Reads sum the stripes --
//    monotonic but not linearizable, which is exactly what a scraper needs.
//  - Log2Histogram: the monitor's one live latency histogram -- 64 relaxed
//    atomic log2 bucket cells plus sum and max, so recording never takes a
//    lock. Snapshot() turns it into the HistogramSnapshot value type callers
//    compute percentiles on.
//
// Nothing here has a name. The monitor hands out typed values
// (Monitor::stats(), the histogram accessors); libtyche names them as
// metric families and renders them (src/tyche/observe.h), so no metric
// name, help string or label lives in the trusted computing base.
//
// Everything here is independent of the monitor's types, so telemetry.h can
// include this header (for the striped contention counters and
// Log2Histogram) without a cycle.

#ifndef SRC_SUPPORT_METRICS_H_
#define SRC_SUPPORT_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
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

// A histogram value: bucket upper bounds with per-bucket counts, plus
// count/sum/max. Log2Histogram::Snapshot() produces it; callers merge it,
// read percentiles from it, and libtyche renders it.
struct HistogramSnapshot {
  // (inclusive upper bound, count in bucket) pairs, ascending. The renderer
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

}  // namespace tyche

#endif  // SRC_SUPPORT_METRICS_H_
