// Copyright 2026 The Tyche Reproduction Authors.
// Shared JSON-schema helpers for the dispatch-path benchmarks.
//
// Every bench that feeds tools/check_latency_gate.py exports the same
// counter names on top of google-benchmark's name/real_time (mean ns):
//
//   p50_ns / p90_ns / p99_ns      histogram-view percentiles (benches that
//                                 run with latency histograms enabled)
//   batches / batched_records /   journal group-commit stats (benches that
//   max_batch                     run with the journal enabled)
//   phase_<name>_ns               per-phase attribution totals
//                                 (bench_profile)
//
// Keeping the names in one header keeps the gate baselines, the CI artifact
// consumers, and the benches from drifting apart.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "src/os/testbed.h"
#include "src/support/journal.h"
#include "src/support/profiler.h"

namespace tyche {
namespace bench {

// Testbed::Create with the bench-standard failure policy (abort: a bench
// without a world has nothing to measure).
inline Testbed MustTestbed(TestbedOptions options = TestbedOptions{}) {
  auto testbed = Testbed::Create(options);
  if (!testbed.ok()) {
    std::abort();
  }
  return std::move(*testbed);
}

// Percentiles of the merged per-op latency histogram, exported under the
// shared counter names. Call only when histograms were enabled for the
// measured loop; the latency gate compares these across benches.
inline void ExportPercentiles(benchmark::State& state, Monitor& monitor) {
  const HistogramSnapshot merged = monitor.telemetry().MergedHistogram();
  state.counters["p50_ns"] = static_cast<double>(merged.Percentile(50));
  state.counters["p90_ns"] = static_cast<double>(merged.Percentile(90));
  state.counters["p99_ns"] = static_cast<double>(merged.Percentile(99));
}

// Journal group-commit stats under the shared counter names.
inline void ExportGroupCommitStats(benchmark::State& state, const Journal& journal) {
  const auto stats = journal.group_commit_stats();
  state.counters["batches"] = static_cast<double>(stats.batches);
  state.counters["batched_records"] = static_cast<double>(stats.batched_records);
  state.counters["max_batch"] = static_cast<double>(stats.max_batch);
}

// Per-phase attribution totals summed over every op, exported as
// phase_<name>_ns. The latency gate uses these to name the phase that
// regressed when the profiling-overhead gate trips.
inline void ExportPhaseTotals(benchmark::State& state, const DispatchProfiler& profiler) {
  for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
    const auto phase = static_cast<DispatchPhase>(p);
    uint64_t total = 0;
    for (uint16_t op = 0; op < static_cast<uint16_t>(profiler.op_count()); ++op) {
      total += profiler.PhaseSnapshot(op, phase).sum;
    }
    state.counters[std::string("phase_") + DispatchPhaseName(phase) + "_ns"] =
        static_cast<double>(total);
  }
}

}  // namespace bench
}  // namespace tyche

#endif  // BENCH_BENCH_COMMON_H_
