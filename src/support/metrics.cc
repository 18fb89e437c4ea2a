// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/metrics.h"

#include <algorithm>

namespace tyche {

namespace metrics_internal {

constinit thread_local size_t tls_stripe_plus1 = 0;

size_t AssignThisThreadStripe() {
  static std::atomic<size_t> next_stripe{0};
  tls_stripe_plus1 =
      next_stripe.fetch_add(1, std::memory_order_relaxed) % kMetricStripes + 1;
  return tls_stripe_plus1;
}

}  // namespace metrics_internal

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size());
  }
  for (size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i].first = other.buckets[i].first;
    buckets[i].second += other.buckets[i].second;
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the percentile sample, 1-based (nearest-rank definition).
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(p / 100.0 * count + 0.5));
  uint64_t seen = 0;
  for (const auto& [bound, bucket_count] : buckets) {
    seen += bucket_count;
    if (seen >= rank) {
      return bound;
    }
  }
  return max;
}

HistogramSnapshot Log2Histogram::Snapshot() const {
  std::array<uint64_t, kBuckets> counts;
  size_t used = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    if (counts[i] != 0) {
      used = i + 1;
    }
  }
  HistogramSnapshot snapshot;
  snapshot.buckets.reserve(used);
  for (size_t i = 0; i < used; ++i) {
    snapshot.buckets.emplace_back(BucketUpperBound(i), counts[i]);
    snapshot.count += counts[i];
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  return snapshot;
}

void Log2Histogram::Reset() {
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace tyche
