// Copyright 2026 The Tyche Reproduction Authors.
// Concurrent dispatch: threads-vs-throughput scaling and the serial-path
// regression guard. Three questions:
//
//  1. Does the serial fast path still cost what it did before the locks
//     existed? BM_Dispatch_SerialBaseline is the number the CI latency gate
//     compares against bench/baselines/dispatch_baseline.json (ratio must
//     stay within 1.10x): with concurrency off the guards are a relaxed
//     load and a predicted branch.
//  2. Do read-heavy mixes scale? Attestation dominates the read mix, runs
//     under the shared api lock, and should scale near-linearly to 8
//     threads (acceptance bar: >= 3x from 1 -> 8).
//  3. What does the journal cost under contention? The write mix and the
//     raw concurrent-append benchmark contend for the journal's chain lock
//     (one acquisition per Append/AppendGroup call). The CI journal
//     contention gate bounds BM_JournalAppend_Concurrent at 4 threads
//     against 1 thread from the same run
//     (bench/baselines/journal_contention_baseline.json).
//
// Threaded benchmarks pin thread t to core t (the monitor's documented
// concurrency contract: one dispatching thread per core).

#include <benchmark/benchmark.h>

#include <array>
#include <memory>

#include "bench/bench_common.h"
#include "src/monitor/dispatch.h"
#include "src/support/prng.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint32_t kMaxThreads = 8;

struct ConcurrencyWorld {
  Testbed testbed;
  // Per-thread resources, all owned by the OS domain (the caller on every
  // core): a child domain to share into, the source memory capability, and
  // a disjoint scratch window for shares and attestation out-buffers.
  std::array<CapId, kMaxThreads> child_handle{};
  std::array<CapId, kMaxThreads> src_cap{};
  std::array<uint64_t, kMaxThreads> share_base{};
  std::array<uint64_t, kMaxThreads> attest_buf{};
};

ConcurrencyWorld* MakeWorld(bool journal_on, bool counters_on = true) {
  TestbedOptions options;
  options.cores = kMaxThreads;
  options.memory_bytes = 256ull << 20;
  auto testbed = Testbed::Create(options);
  if (!testbed.ok()) {
    std::abort();
  }
  auto* world = new ConcurrencyWorld{std::move(*testbed), {}, {}, {}, {}};
  Monitor& monitor = world->testbed.monitor();
  monitor.telemetry().set_trace_enabled(false);
  monitor.telemetry().set_histograms_enabled(false);
  monitor.set_counters_enabled(counters_on);
  monitor.audit().set_enabled(journal_on);
  for (uint32_t t = 0; t < kMaxThreads; ++t) {
    const auto child = monitor.CreateDomain(0, "bench-child");
    if (!child.ok()) {
      std::abort();
    }
    world->child_handle[t] = child->handle;
    world->share_base[t] = world->testbed.Scratch(16 * kMiB + t * kMiB);
    world->attest_buf[t] = world->testbed.Scratch(32 * kMiB + t * kMiB);
    const auto src = world->testbed.OsMemCap(AddrRange{world->share_base[t], kPageSize});
    if (!src.ok()) {
      std::abort();
    }
    world->src_cap[t] = src.value();
  }
  if (!monitor.EnableConcurrentDispatch().ok()) {
    std::abort();
  }
  return world;
}

ApiResult AttestSelf(ConcurrencyWorld* world, CoreId core, uint64_t nonce) {
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kAttestDomain);
  regs.arg0 = 0;  // self
  regs.arg1 = nonce;
  regs.arg2 = world->attest_buf[core];
  regs.arg3 = kMiB;
  return Dispatch(&world->testbed.monitor(), core, regs);
}

ApiResult TakeInterrupt(ConcurrencyWorld* world, CoreId core) {
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
  return Dispatch(&world->testbed.monitor(), core, regs);
}

// The serial-path regression guard: concurrency OFF, journal and telemetry
// off, the same empty-queue kTakeInterrupt loop bench_journal uses. This is
// the ~40ns dispatch boundary the locks must not tax.
void BM_Dispatch_SerialBaseline(benchmark::State& state) {
  auto testbed = Testbed::Create(TestbedOptions{});
  if (!testbed.ok()) {
    std::abort();
  }
  Monitor& monitor = testbed->monitor();
  monitor.telemetry().set_trace_enabled(false);
  monitor.telemetry().set_histograms_enabled(false);
  monitor.audit().set_enabled(false);
  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dispatch(&monitor, 0, regs));
  }
}
BENCHMARK(BM_Dispatch_SerialBaseline);

// 90% attestation (shared lock, signature-heavy) / 10% take-interrupt
// (exclusive lock, cheap). The scaling acceptance bar lives here.
void ReadHeavyLoop(benchmark::State& state, ConcurrencyWorld* world) {
  const auto core = static_cast<CoreId>(state.thread_index());
  Prng prng(0x5eed + core);
  uint64_t nonce = 0;
  for (auto _ : state) {
    if (prng.Below(10) == 0) {
      benchmark::DoNotOptimize(TakeInterrupt(world, core));
    } else {
      benchmark::DoNotOptimize(AttestSelf(world, core, ++nonce));
    }
  }
  state.SetItemsProcessed(state.iterations());
}

// Worlds are function-local magic statics: every thread (including the ones
// the framework starts before thread 0 runs any setup code) initializes or
// waits on the same construction, and the world persists across the per-
// thread-count runs of one benchmark. Leaked deliberately: these are
// process-lifetime fixtures.
void BM_Dispatch_ReadHeavy(benchmark::State& state) {
  static ConcurrencyWorld* world = MakeWorld(/*journal_on=*/false);
  ReadHeavyLoop(state, world);
}
BENCHMARK(BM_Dispatch_ReadHeavy)->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// Striped-counter scaling control: the identical mix with the monitor's
// stat counters disabled. Comparing 8-thread throughput against
// BM_Dispatch_ReadHeavy bounds the counters' concurrency tax -- striping
// should make the two indistinguishable (a shared-line counter would show
// up here as a scaling gap).
void BM_Dispatch_ReadHeavyCountersOff(benchmark::State& state) {
  static ConcurrencyWorld* world =
      MakeWorld(/*journal_on=*/false, /*counters_on=*/false);
  ReadHeavyLoop(state, world);
}
BENCHMARK(BM_Dispatch_ReadHeavyCountersOff)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

// Same mix with the journal on: every dispatch appends a record, so the
// journal's chain lock is on the hot path even for reads.
void BM_Dispatch_ReadHeavyJournal(benchmark::State& state) {
  static ConcurrencyWorld* world = MakeWorld(/*journal_on=*/true);
  ReadHeavyLoop(state, world);
  if (state.thread_index() == 0) {
    // Cumulative across the per-thread-count runs of this benchmark.
    bench::ExportGroupCommitStats(state, world->testbed.monitor().audit().journal());
  }
}
BENCHMARK(BM_Dispatch_ReadHeavyJournal)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Iterations(1 << 14);

// 50/50 share+revoke (both exclusive, multi-record journal families) and
// attestation: contended writers plus journal commits under load.
void BM_Dispatch_WriteHeavy(benchmark::State& state) {
  static ConcurrencyWorld* world = MakeWorld(/*journal_on=*/true);
  const auto core = static_cast<CoreId>(state.thread_index());
  Prng prng(0xfeed + core);
  uint64_t nonce = 0;
  uint64_t ops = 0;
  for (auto _ : state) {
    if (prng.Below(2) == 0) {
      ApiRegs share;
      share.op = static_cast<uint64_t>(ApiOp::kShareMemory);
      share.arg0 = world->src_cap[core];
      share.arg1 = world->child_handle[core];
      share.arg2 = world->share_base[core];
      share.arg3 = kPageSize;
      share.arg4 = Perms::kRead | Perms::kWrite;
      share.arg5 = static_cast<uint64_t>(CapRights::kAll) << 8;
      const ApiResult shared = Dispatch(&world->testbed.monitor(), core, share);
      ApiRegs revoke;
      revoke.op = static_cast<uint64_t>(ApiOp::kRevoke);
      revoke.arg0 = shared.ret0;
      benchmark::DoNotOptimize(Dispatch(&world->testbed.monitor(), core, revoke));
      ops += 2;
    } else {
      benchmark::DoNotOptimize(AttestSelf(world, core, ++nonce));
      ++ops;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  if (state.thread_index() == 0) {
    bench::ExportGroupCommitStats(state, world->testbed.monitor().audit().journal());
  }
}
BENCHMARK(BM_Dispatch_WriteHeavy)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Iterations(1 << 13);

// Raw concurrent appends against one journal: what does contention for the
// chain lock cost? Each thread runs the same 65 536 appends, and real_time is
// the run's wall time over the appends of all threads, so real_time at N
// threads over the 1-thread run is what an append costs under contention
// against alone: 1 is a lock that hands off for free (the chain link is
// serial work either way), and waits and wake-ups push it up. Every run
// appends to a fresh journal, and the 1-thread reference appends 262 144
// records, as many as the 4-thread run in all, so the gated pair pays the
// same record-store cost per append.
// Compare against the single-threaded BM_JournalAppend_Enabled in
// bench_journal.
void BM_JournalAppend_Concurrent(benchmark::State& state) {
  static std::unique_ptr<Journal> journal;
  if (state.thread_index() == 0) {
    // Before the start barrier; the other threads touch it only in the loop.
    journal = std::make_unique<Journal>();
  }
  JournalRecord record;
  record.span = 7;
  record.event = static_cast<uint8_t>(JournalEvent::kDispatch);
  record.domain = static_cast<uint32_t>(state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(journal->Append(record));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    // All threads have passed the stop barrier.
    bench::ExportGroupCommitStats(state, *journal);
    journal.reset();
  }
}
BENCHMARK(BM_JournalAppend_Concurrent)->Threads(1)->UseRealTime()->Iterations(1 << 18);
BENCHMARK(BM_JournalAppend_Concurrent)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Iterations(1 << 16);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
