// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/flight_recorder.h"

#include <algorithm>

namespace tyche {

namespace {

uint64_t DedupKey(uint16_t op, uint64_t error) {
  // Non-zero even for (0, 0): key 0 marks an empty slot.
  return (static_cast<uint64_t>(op) << 48) ^ (error + 1);
}

}  // namespace

FlightRecorder::FlightRecorder(const TraceRing* ring, std::span<const StripedCounter> counters,
                               size_t capacity, size_t last_n)
    : ring_(ring),
      counters_(counters),
      capacity_(capacity),
      last_n_(last_n),
      last_values_(counters.size(), 0) {}

bool FlightRecorder::OnDispatchError(uint16_t op, uint64_t span, uint64_t error) {
  if (!enabled()) {
    return false;
  }
  const uint64_t key = DedupKey(op, error);
  // The slot is the product's top 8 bits, which every key bit reaches; the
  // low bits alone would drop the op (bits 48+), so every op failing with
  // one error would share a slot and evict the other.
  static_assert(kDedupSlots == 256);
  std::atomic<uint64_t>& slot = seen_[(key * 0x9e3779b97f4a7c15ull) >> 56];
  if (slot.load(std::memory_order_relaxed) == key) {
    return false;  // this failure shape is already on record
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (slot.load(std::memory_order_relaxed) == key) {
    return false;
  }
  slot.store(key, std::memory_order_relaxed);
  CaptureLocked("dispatch_error", op, span, error, "");
  return true;
}

void FlightRecorder::Capture(const std::string& reason, uint16_t op, uint64_t span,
                             uint64_t error, const std::string& detail) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  CaptureLocked(reason, op, span, error, detail);
}

void FlightRecorder::CaptureLocked(const std::string& reason, uint16_t op, uint64_t span,
                                   uint64_t error, const std::string& detail) {
  FlightRecord record;
  record.id = captures_.fetch_add(1, std::memory_order_relaxed);
  record.reason = reason;
  record.op = op;
  record.span = span;
  record.error = error;
  record.detail = detail;
  if (ring_ != nullptr) {
    record.trace = ring_->Snapshot(last_n_);
  }
  // Striped counters are atomic, so a capture on a dispatch thread may read
  // them while other threads count.
  for (size_t i = 0; i < counters_.size(); ++i) {
    const uint64_t value = counters_[i].Value();
    if (value != last_values_[i]) {
      record.metrics_delta.push_back(
          {static_cast<uint32_t>(i),
           static_cast<int64_t>(value) - static_cast<int64_t>(last_values_[i])});
      last_values_[i] = value;
    }
  }
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) {
    records_.pop_front();
  }
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  std::fill(last_values_.begin(), last_values_.end(), 0);
  for (std::atomic<uint64_t>& slot : seen_) {
    slot.store(0, std::memory_order_relaxed);
  }
}

void FlightRecorder::Rebase() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < counters_.size(); ++i) {
    last_values_[i] = counters_[i].Value();
  }
}

}  // namespace tyche
