// Copyright 2026 The Tyche Reproduction Authors.
// Dispatch phase-profiler overhead and accounting. Two acceptance bars,
// both enforced by tools/check_latency_gate.py against
// bench/baselines/profile_baseline.json in the same CI run:
//
//  1. Overhead: BM_Dispatch_ProfilingOn vs BM_Dispatch_ProfilingOff (same
//     telemetry configuration, profiler the only difference) must stay
//     within 1.15x on the mean and within one log2 bucket on p99. Both
//     export the shared p50/p90/p99 counters plus the per-phase totals, so
//     a tripped gate names WHICH phase grew instead of just "slower".
//  2. Accounting: the per-phase sums (minus the detached telemetry phase)
//     must reconcile with the end-to-end histogram total within 10% --
//     phase_sum_ratio, gated as a counter-bounds check. The window opens
//     and closes on the same clock reads the TraceEntry timing uses, so
//     this ratio catches any drift in the continuous accounting.
//
// The overhead pair uses the empty-queue kTakeInterrupt loop every other
// dispatch bench uses (plumbing-dominated, comparable numbers); the
// reconciliation bench uses a mixed lifecycle workload so every phase --
// engine, backend, journal, lock waits -- carries real time.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/monitor/dispatch.h"

namespace tyche {
namespace {

void ProfiledDispatchLoop(benchmark::State& state, bool profiling) {
  Testbed testbed = bench::MustTestbed();
  Monitor& monitor = testbed.monitor();
  // Histograms stay ON in both variants: the p99 gate needs percentile
  // counters from the same run, and a shared configuration keeps the
  // comparison profiler-only.
  monitor.telemetry().set_trace_enabled(false);
  monitor.telemetry().set_histograms_enabled(true);
  monitor.set_counters_enabled(false);
  monitor.audit().set_enabled(false);
  monitor.profiler().set_enabled(profiling);

  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dispatch(&monitor, 0, regs));
  }
  bench::ExportPercentiles(state, monitor);
  if (profiling) {
    bench::ExportPhaseTotals(state, monitor.profiler());
    state.counters["profiled_samples"] =
        static_cast<double>(monitor.profiler().TotalSamples());
  }
}

void BM_Dispatch_ProfilingOff(benchmark::State& state) {
  ProfiledDispatchLoop(state, /*profiling=*/false);
}
void BM_Dispatch_ProfilingOn(benchmark::State& state) {
  ProfiledDispatchLoop(state, /*profiling=*/true);
}
BENCHMARK(BM_Dispatch_ProfilingOff);
BENCHMARK(BM_Dispatch_ProfilingOn);

// Mixed domain-lifecycle workload with every layer on: the phase sums must
// add back up to the end-to-end latency. kOther is the residual bucket, so
// the only excluded phase is telemetry (recorded detached, after the e2e
// clock stops). phase_sum_ratio is gated at [0.90, 1.10].
void BM_Dispatch_PhaseReconciliation(benchmark::State& state) {
  Testbed testbed = bench::MustTestbed();
  Monitor& monitor = testbed.monitor();
  monitor.telemetry().set_trace_enabled(false);
  monitor.telemetry().set_histograms_enabled(true);
  monitor.set_counters_enabled(true);
  monitor.audit().set_enabled(true);
  monitor.profiler().set_enabled(true);

  auto call = [&](ApiOp op, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
                  uint64_t a3 = 0, uint64_t a4 = 0, uint64_t a5 = 0) {
    ApiRegs regs{static_cast<uint64_t>(op), a0, a1, a2, a3, a4, a5};
    return Dispatch(&monitor, /*core=*/0, regs);
  };
  const uint64_t scratch = testbed.Scratch(0);
  const auto os_mem = testbed.OsMemCap(AddrRange{scratch, 64 * kPageSize});
  if (!os_mem.ok()) {
    std::abort();
  }
  const uint64_t rights_policy =
      (static_cast<uint64_t>(CapRights::kAll) << 8) | RevocationPolicy::kZeroMemory;

  for (auto _ : state) {
    const ApiResult created = call(ApiOp::kCreateDomain);
    const ApiResult shared = call(ApiOp::kShareMemory, *os_mem, created.ret1, scratch,
                                  8 * kPageSize, Perms::kRW, rights_policy);
    call(ApiOp::kEnumerate, created.ret1);
    call(ApiOp::kRevoke, shared.ret0);
    call(ApiOp::kDestroyDomain, created.ret1);
  }

  uint64_t e2e_sum = 0;
  for (size_t op = 0; op < monitor.telemetry().op_count(); ++op) {
    e2e_sum += monitor.telemetry().OpHistogram(op).sum;
  }
  uint64_t phase_sum = 0;
  const DispatchProfiler& profiler = monitor.profiler();
  for (uint16_t op = 0; op < static_cast<uint16_t>(profiler.op_count()); ++op) {
    for (size_t p = 0; p < kDispatchPhaseCount; ++p) {
      if (static_cast<DispatchPhase>(p) == DispatchPhase::kTelemetry) {
        continue;  // detached: runs after the e2e clock stops
      }
      phase_sum += profiler.PhaseSnapshot(op, static_cast<DispatchPhase>(p)).sum;
    }
  }
  state.counters["e2e_sum_ns"] = static_cast<double>(e2e_sum);
  state.counters["phase_sum_ns"] = static_cast<double>(phase_sum);
  state.counters["phase_sum_ratio"] =
      e2e_sum == 0 ? 0.0 : static_cast<double>(phase_sum) / static_cast<double>(e2e_sum);
  bench::ExportPhaseTotals(state, profiler);
}
BENCHMARK(BM_Dispatch_PhaseReconciliation)->Iterations(1 << 12);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
