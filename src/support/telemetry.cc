// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/telemetry.h"

#include <algorithm>

namespace tyche {

uint64_t Fnv1aDigest(const uint64_t* words, size_t count) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < count; ++i) {
    uint64_t word = words[i];
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= word & 0xff;
      hash *= 0x100000001b3ull;
      word >>= 8;
    }
  }
  return hash;
}

TraceRing::TraceRing(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void TraceRing::Record(TraceEntry entry) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  entry.seq = next_seq_++;
  ring_[entry.seq % capacity_] = entry;
}

std::vector<TraceEntry> TraceRing::Snapshot(size_t last_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEntry> out;
  const uint64_t held = std::min<uint64_t>({next_seq_, capacity_, last_n});
  out.reserve(held);
  for (uint64_t seq = next_seq_ - held; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % capacity_]);
  }
  return out;
}

uint64_t TraceRing::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t TraceRing::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ > capacity_ ? next_seq_ - capacity_ : 0;
}

void TraceRing::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_seq_ = 0;
  std::fill(ring_.begin(), ring_.end(), TraceEntry{});
}

Telemetry::Telemetry(size_t op_count, size_t ring_capacity)
    : op_count_(op_count),
      per_op_(std::make_unique<Log2Histogram[]>(op_count)),
      ring_(ring_capacity) {}

void Telemetry::set_trace_enabled(bool enabled) {
  if (enabled) {
    ring_.Start();
  } else {
    ring_.Stop();
  }
}

void Telemetry::RecordCall(const TraceEntry& entry) {
  if (histograms_enabled() && entry.op < op_count_) {
    per_op_[entry.op].Record(entry.duration_ns);
  }
  ring_.Record(entry);
}

HistogramSnapshot Telemetry::OpHistogram(size_t op) const {
  return op < op_count_ ? per_op_[op].Snapshot() : HistogramSnapshot{};
}

HistogramSnapshot Telemetry::MergedHistogram() const {
  HistogramSnapshot merged;
  for (size_t op = 0; op < op_count_; ++op) {
    merged.Merge(per_op_[op].Snapshot());
  }
  return merged;
}

void Telemetry::ClearHistograms() {
  for (size_t op = 0; op < op_count_; ++op) {
    per_op_[op].Reset();
  }
}

}  // namespace tyche
