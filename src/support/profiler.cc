// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/profiler.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <vector>

namespace tyche {

namespace profiler_internal {

constinit thread_local PhaseScratch tls_scratch{};

}  // namespace profiler_internal

const char* DispatchPhaseName(DispatchPhase phase) {
  switch (phase) {
    case DispatchPhase::kApiLockWait:
      return "api_lock_wait";
    case DispatchPhase::kShardLockWait:
      return "shard_lock_wait";
    case DispatchPhase::kEngine:
      return "engine";
    case DispatchPhase::kBackend:
      return "backend";
    case DispatchPhase::kJournal:
      return "journal";
    case DispatchPhase::kTelemetry:
      return "telemetry";
    case DispatchPhase::kOther:
      return "other";
    case DispatchPhase::kPhaseCount:
      break;
  }
  return "?";
}

DispatchProfiler::DispatchProfiler(size_t op_count)
    : op_count_(op_count == 0 ? 1 : op_count) {}

void DispatchProfiler::set_enabled(bool enabled) {
  if (enabled) {
    std::lock_guard<std::mutex> lock(storage_mu_);
    if (histogram_storage_ == nullptr) {
      histogram_storage_ =
          std::make_unique<Log2Histogram[]>(kMetricStripes * op_count_ * kDispatchPhaseCount);
      exemplars_ = std::make_unique<ExemplarCell[]>(op_count_ * kDispatchPhaseCount);
      histograms_.store(histogram_storage_.get(), std::memory_order_release);
    }
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool DispatchProfiler::BeginWindow(uint64_t start_ns) {
  if (!enabled()) {
    return false;
  }
  using profiler_internal::tls_scratch;
  if (tls_scratch.active) {
    return false;  // nested dispatch window: outer one keeps the thread
  }
  tls_scratch.active = true;
  tls_scratch.current = static_cast<uint8_t>(DispatchPhase::kOther);
  tls_scratch.last_ns = start_ns;
  for (size_t phase = 0; phase < kDispatchPhaseCount; ++phase) {
    tls_scratch.ns[phase] = 0;
  }
  return true;
}

void DispatchProfiler::EndWindow(uint16_t op, uint64_t span, uint64_t end_ns) {
  using profiler_internal::tls_scratch;
  tls_scratch.ns[tls_scratch.current] += end_ns - tls_scratch.last_ns;
  tls_scratch.active = false;
  for (size_t phase = 0; phase < kDispatchPhaseCount; ++phase) {
    if (tls_scratch.ns[phase] != 0) {
      RecordSample(op, phase, tls_scratch.ns[phase], span, end_ns);
    }
  }
}

void DispatchProfiler::RecordDetached(uint16_t op, DispatchPhase phase, uint64_t ns,
                                      uint64_t span, uint64_t ts_ns) {
  if (ns == 0) {
    return;
  }
  RecordSample(op, static_cast<size_t>(phase), ns, span, ts_ns);
}

void DispatchProfiler::RecordSample(uint16_t op, size_t phase, uint64_t ns,
                                    uint64_t span, uint64_t ts_ns) {
  Log2Histogram* histograms = histograms_.load(std::memory_order_acquire);
  if (histograms == nullptr || op >= op_count_) {
    return;
  }
  size_t stripe = metrics_internal::tls_stripe_plus1;
  if (stripe == 0) {
    stripe = metrics_internal::AssignThisThreadStripe();
  }
  histograms[HistogramIndex(stripe - 1, op, phase)].Record(ns);
  ExemplarCell& exemplar = exemplars_[op * kDispatchPhaseCount + phase];
  if (ns > exemplar.max_ns.load(std::memory_order_relaxed)) [[unlikely]] {
    MaybeUpdateExemplar(exemplar, ns, span, ts_ns);
  }
}

void DispatchProfiler::MaybeUpdateExemplar(ExemplarCell& cell, uint64_t ns,
                                           uint64_t span, uint64_t ts_ns) {
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  if (ns <= cell.max_ns.load(std::memory_order_relaxed)) {
    return;  // lost the race to a slower sample
  }
  cell.span = span;
  cell.ts_ns = ts_ns;
  cell.max_ns.store(ns, std::memory_order_relaxed);
}

HistogramSnapshot DispatchProfiler::PhaseSnapshot(uint16_t op,
                                                  DispatchPhase phase) const {
  HistogramSnapshot snapshot;
  const Log2Histogram* histograms = histograms_.load(std::memory_order_acquire);
  if (histograms == nullptr || op >= op_count_ ||
      phase >= DispatchPhase::kPhaseCount) {
    return snapshot;
  }
  for (size_t stripe = 0; stripe < kMetricStripes; ++stripe) {
    snapshot.Merge(
        histograms[HistogramIndex(stripe, op, static_cast<size_t>(phase))].Snapshot());
  }
  return snapshot;
}

DispatchProfiler::ExemplarSample DispatchProfiler::Exemplar(
    uint16_t op, DispatchPhase phase) const {
  ExemplarSample sample;
  if (exemplars_ == nullptr || op >= op_count_ ||
      phase >= DispatchPhase::kPhaseCount) {
    return sample;
  }
  const ExemplarCell& cell =
      exemplars_[op * kDispatchPhaseCount + static_cast<size_t>(phase)];
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  sample.ns = cell.max_ns.load(std::memory_order_relaxed);
  sample.span = cell.span;
  sample.ts_ns = cell.ts_ns;
  return sample;
}

uint64_t DispatchProfiler::TotalSamples() const {
  const Log2Histogram* histograms = histograms_.load(std::memory_order_acquire);
  if (histograms == nullptr) {
    return 0;
  }
  uint64_t total = 0;
  for (size_t i = 0; i < kMetricStripes * op_count_ * kDispatchPhaseCount; ++i) {
    total += histograms[i].Snapshot().count;
  }
  return total;
}

void DispatchProfiler::Reset() {
  std::lock_guard<std::mutex> storage_lock(storage_mu_);
  Log2Histogram* histograms = histograms_.load(std::memory_order_acquire);
  if (histograms == nullptr) {
    return;
  }
  for (size_t i = 0; i < kMetricStripes * op_count_ * kDispatchPhaseCount; ++i) {
    histograms[i].Reset();
  }
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  for (size_t i = 0; i < op_count_ * kDispatchPhaseCount; ++i) {
    exemplars_[i].max_ns.store(0, std::memory_order_relaxed);
    exemplars_[i].span = 0;
    exemplars_[i].ts_ns = 0;
  }
}

namespace {

struct AttributionCell {
  uint16_t op = 0;
  DispatchPhase phase = DispatchPhase::kOther;
  uint64_t count = 0;
  uint64_t sum_ns = 0;
};

std::vector<AttributionCell> CollectCells(const DispatchProfiler& profiler) {
  std::vector<AttributionCell> cells;
  for (size_t op = 0; op < profiler.op_count(); ++op) {
    for (size_t phase = 0; phase < kDispatchPhaseCount; ++phase) {
      const auto snapshot = profiler.PhaseSnapshot(static_cast<uint16_t>(op),
                                                   static_cast<DispatchPhase>(phase));
      if (snapshot.count == 0) {
        continue;
      }
      cells.push_back({static_cast<uint16_t>(op), static_cast<DispatchPhase>(phase),
                       snapshot.count, snapshot.sum});
    }
  }
  return cells;
}

}  // namespace

std::string ExportFoldedStacks(const DispatchProfiler& profiler,
                               const std::function<std::string(uint16_t)>& op_name) {
  std::ostringstream out;
  for (const AttributionCell& cell : CollectCells(profiler)) {
    out << op_name(cell.op) << ";" << DispatchPhaseName(cell.phase) << " "
        << cell.sum_ns << "\n";
  }
  return out.str();
}

std::string ExportAttributionTable(const DispatchProfiler& profiler,
                                   const std::function<std::string(uint16_t)>& op_name,
                                   size_t top_n) {
  std::vector<AttributionCell> cells = CollectCells(profiler);
  uint64_t grand_total = 0;
  for (const AttributionCell& cell : cells) {
    grand_total += cell.sum_ns;
  }
  std::sort(cells.begin(), cells.end(),
            [](const AttributionCell& a, const AttributionCell& b) {
              return a.sum_ns > b.sum_ns;
            });
  if (cells.size() > top_n) {
    cells.resize(top_n);
  }
  std::ostringstream out;
  out << "op;phase                                count     total_ns      mean_ns  share\n";
  for (const AttributionCell& cell : cells) {
    std::ostringstream label;
    label << op_name(cell.op) << ";" << DispatchPhaseName(cell.phase);
    const double share =
        grand_total == 0 ? 0.0
                         : 100.0 * static_cast<double>(cell.sum_ns) /
                               static_cast<double>(grand_total);
    out << std::left << std::setw(36) << label.str() << std::right << std::setw(9)
        << cell.count << std::setw(13) << cell.sum_ns << std::setw(13)
        << (cell.count == 0 ? 0 : cell.sum_ns / cell.count) << std::setw(6)
        << std::fixed << std::setprecision(1) << share << "%\n";
  }
  return out.str();
}

}  // namespace tyche
