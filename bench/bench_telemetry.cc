// Copyright 2026 The Tyche Reproduction Authors.
// Telemetry overhead on the Dispatch() fast path. The acceptance bar for
// the observability layer: with tracing and histograms disabled the wrapper
// must cost within noise of the raw dispatch (two relaxed atomic loads and
// a branch); with them enabled the cost of the clock reads, digest, and
// ring insertion is visible and bounded. The metrics registry gets the same
// treatment: BM_Dispatch_MetricsRegistryOnly vs BM_Dispatch_TelemetryOff is
// the +10% gate enforced by tools/check_latency_gate.py against
// bench/baselines/metrics_baseline.json.
//
// The op under test is kTakeInterrupt with an empty queue: it fails fast
// inside the monitor, so the measurement is dominated by dispatch plumbing
// rather than capability work. (The failing result also exercises the
// flight recorder's dedup reject path -- the production default -- on every
// iteration.)

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/monitor/dispatch.h"

namespace tyche {
namespace {

void DispatchLoop(benchmark::State& state, bool trace, bool histograms, bool counters) {
  Testbed testbed = bench::MustTestbed();
  Monitor& monitor = testbed.monitor();
  monitor.telemetry().set_trace_enabled(trace);
  monitor.telemetry().set_histograms_enabled(histograms);
  monitor.set_counters_enabled(counters);
  // Journal cost is measured separately in bench_journal; keep these numbers
  // comparable to the telemetry-only baseline.
  monitor.audit().set_enabled(false);

  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dispatch(&monitor, 0, regs));
  }
  state.counters["trace_recorded"] =
      static_cast<double>(monitor.telemetry().ring().recorded());
  if (histograms) {
    // Shared-schema percentiles from the histogram view, exported into the
    // bench JSON so the latency gate can bound the tail as well as the mean.
    bench::ExportPercentiles(state, monitor);
  }
}

void BM_Dispatch_TelemetryOff(benchmark::State& state) {
  DispatchLoop(state, /*trace=*/false, /*histograms=*/false, /*counters=*/false);
}
// The registry alone: striped stat counters on, everything else off. Gated
// within +10% of BM_Dispatch_TelemetryOff.
void BM_Dispatch_MetricsRegistryOnly(benchmark::State& state) {
  DispatchLoop(state, /*trace=*/false, /*histograms=*/false, /*counters=*/true);
}
void BM_Dispatch_TraceRingOnly(benchmark::State& state) {
  DispatchLoop(state, /*trace=*/true, /*histograms=*/false, /*counters=*/false);
}
void BM_Dispatch_HistogramsOnly(benchmark::State& state) {
  DispatchLoop(state, /*trace=*/false, /*histograms=*/true, /*counters=*/false);
}
// Histograms + registry: the subject of the p99 tail gate (reference:
// BM_Dispatch_HistogramsOnly, which exports the same percentile counters).
void BM_Dispatch_HistogramsMetricsOn(benchmark::State& state) {
  DispatchLoop(state, /*trace=*/false, /*histograms=*/true, /*counters=*/true);
}
void BM_Dispatch_TelemetryFull(benchmark::State& state) {
  DispatchLoop(state, /*trace=*/true, /*histograms=*/true, /*counters=*/true);
}

BENCHMARK(BM_Dispatch_TelemetryOff);
BENCHMARK(BM_Dispatch_MetricsRegistryOnly);
BENCHMARK(BM_Dispatch_TraceRingOnly);
BENCHMARK(BM_Dispatch_HistogramsOnly);
BENCHMARK(BM_Dispatch_HistogramsMetricsOn);
BENCHMARK(BM_Dispatch_TelemetryFull);

// The scrape path: rendering the full Prometheus snapshot, histograms and
// pull callbacks included, once a workload has filled the trace ring.
void BM_ExportMetrics(benchmark::State& state) {
  Testbed testbed = bench::MustTestbed();
  Monitor& monitor = testbed.monitor();
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
  for (int i = 0; i < 1024; ++i) {
    (void)Dispatch(&monitor, 0, regs);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.ExportMetrics());
  }
}
BENCHMARK(BM_ExportMetrics);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
