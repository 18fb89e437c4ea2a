// Copyright 2026 The Tyche Reproduction Authors.
// Audit-journal overhead. Three questions:
//
//  1. Raw append cost: chain hash per record (enabled), nothing (disabled),
//     and the amortized Schnorr signature when checkpoints are on.
//  2. Evidence primitives: one chain link and one Schnorr signature against
//     a bare one-shot SHA-256 of the same 118 bytes (the link's gap is
//     encoding and bookkeeping; both are gated in
//     bench/baselines/journal_baseline.json), and one Schnorr verify.
//  3. Dispatch-path cost: with the journal disabled the wrapper must stay
//     within 2x of the telemetry-off fast path from bench_telemetry (one
//     extra relaxed load and a branch); with it enabled the cost of the
//     record build plus chain hash is visible and bounded. Like
//     bench_telemetry, the dispatched op is kTakeInterrupt with an empty
//     queue so the measurement is dispatch plumbing, not capability work.
//  4. The journal's share of a capability write: BM_ShareRevokeJournal runs
//     share+revoke pairs through Dispatch() alternately with the journal on
//     and off in one run, gated in
//     bench/baselines/share_journal_baseline.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "src/crypto/schnorr.h"
#include "src/monitor/dispatch.h"
#include "src/os/testbed.h"
#include "src/support/journal.h"

namespace tyche {
namespace {

JournalRecord SampleRecord() {
  JournalRecord record;
  record.span = 7;
  record.event = static_cast<uint8_t>(JournalEvent::kShareMemory);
  record.domain = 1;
  record.dst = 2;
  record.cap = 42;
  record.parent = 3;
  record.base = 0x100000;
  record.size = 0x4000;
  return record;
}

// Appends grow the in-memory log, so drop it outside the timed region every
// 64k records to keep the working set (and allocator effects) bounded.
void AppendLoop(benchmark::State& state, Journal& journal) {
  const JournalRecord record = SampleRecord();
  size_t appended = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(journal.Append(record));
    if (++appended == (64u << 10)) {
      state.PauseTiming();
      journal.Clear();
      appended = 0;
      state.ResumeTiming();
    }
  }
}

void BM_JournalAppend_Disabled(benchmark::State& state) {
  Journal journal;
  journal.set_enabled(false);
  AppendLoop(state, journal);
}

void BM_JournalAppend_Enabled(benchmark::State& state) {
  Journal journal;
  AppendLoop(state, journal);
}

void BM_JournalAppend_Checkpointed(benchmark::State& state) {
  Journal journal(/*checkpoint_interval=*/64);
  const uint8_t seed[] = {'b', 'e', 'n', 'c', 'h'};
  const SchnorrKeyPair key = DeriveKeyPair(seed);
  journal.set_signer([key](const Digest& digest) { return SchnorrSign(key, digest); });
  AppendLoop(state, journal);
}

BENCHMARK(BM_JournalAppend_Disabled);
BENCHMARK(BM_JournalAppend_Enabled);
BENCHMARK(BM_JournalAppend_Checkpointed);

// Each link feeds the next, as on the append path.
void BM_ChainLink(benchmark::State& state) {
  JournalRecord record = SampleRecord();
  Digest head = JournalGenesis();
  for (auto _ : state) {
    ++record.seq;
    head = ChainLink(head, record);
  }
  benchmark::DoNotOptimize(head);
}

// The floor under BM_ChainLink: a one-shot hash of the same 32 + 86 bytes,
// chained the same way.
void BM_Sha256_118B(benchmark::State& state) {
  uint8_t buf[32 + kJournalCanonicalBytes] = {};
  Digest digest;
  for (auto _ : state) {
    std::memcpy(buf, digest.bytes.data(), digest.bytes.size());
    digest = Sha256::Hash(std::span<const uint8_t>(buf, sizeof(buf)));
  }
  benchmark::DoNotOptimize(digest);
}

void BM_SchnorrSign(benchmark::State& state) {
  const uint8_t seed[] = {'b', 'e', 'n', 'c', 'h'};
  const SchnorrKeyPair key = DeriveKeyPair(seed);
  Digest digest = JournalGenesis();
  for (auto _ : state) {
    const SchnorrSignature sig = SchnorrSign(key, digest);
    digest = sig.e;
  }
  benchmark::DoNotOptimize(digest);
}

void BM_SchnorrVerify(benchmark::State& state) {
  const uint8_t seed[] = {'b', 'e', 'n', 'c', 'h'};
  const SchnorrKeyPair key = DeriveKeyPair(seed);
  const Digest digest = JournalGenesis();
  const SchnorrSignature sig = SchnorrSign(key, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrVerify(key.pub, digest, sig));
  }
}

BENCHMARK(BM_ChainLink);
BENCHMARK(BM_Sha256_118B);
BENCHMARK(BM_SchnorrSign);
BENCHMARK(BM_SchnorrVerify);

void DispatchLoop(benchmark::State& state, bool journal_on) {
  auto testbed = Testbed::Create(TestbedOptions{});
  if (!testbed.ok()) {
    std::abort();
  }
  Monitor& monitor = testbed->monitor();
  monitor.telemetry().set_trace_enabled(false);
  monitor.telemetry().set_histograms_enabled(false);
  monitor.audit().set_enabled(journal_on);

  ApiRegs regs;
  regs.op = static_cast<uint64_t>(ApiOp::kTakeInterrupt);
  size_t dispatched = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dispatch(&monitor, 0, regs));
    if (journal_on && ++dispatched == (64u << 10)) {
      state.PauseTiming();
      monitor.audit().journal().Clear();
      dispatched = 0;
      state.ResumeTiming();
    }
  }
  state.counters["journal_records"] =
      static_cast<double>(monitor.audit().journal().size());
}

// The acceptance bar: within 2x of BM_Dispatch_TelemetryOff.
void BM_Dispatch_JournalOff(benchmark::State& state) {
  DispatchLoop(state, /*journal_on=*/false);
}
void BM_Dispatch_JournalOn(benchmark::State& state) {
  DispatchLoop(state, /*journal_on=*/true);
}

BENCHMARK(BM_Dispatch_JournalOff);
BENCHMARK(BM_Dispatch_JournalOn);

// One-page share+revoke pairs from the OS into a child domain, as perfbench's
// cap_churn runs them, each pair timed alone and alternately with the audit
// journal on and off in the SAME run (the pattern of BM_EnclaveLaunchDestroy
// in bench_enclaves), so the machine's drift cancels. One iteration is one
// pair each way; 3 000 of them are one cap_churn pass, whose journal starts
// empty on a fresh monitor. Exports the records one journal-on pair writes
// and the journal-on time over the journal-off time.
void BM_ShareRevokeJournal(benchmark::State& state) {
  constexpr uint64_t kWindowPages = 16;
  auto testbed = Testbed::Create(TestbedOptions{});
  if (!testbed.ok()) {
    std::abort();
  }
  Monitor& monitor = testbed->monitor();
  const CapId child = (*monitor.CreateDomain(0, "pair")).handle;
  const uint64_t base = testbed->Scratch(16ull << 20);
  ApiRegs share;
  share.op = static_cast<uint64_t>(ApiOp::kShareMemory);
  share.arg0 = *testbed->OsMemCap(AddrRange{base, kWindowPages * kPageSize});
  share.arg1 = child;
  share.arg3 = kPageSize;
  share.arg4 = Perms::kRW;
  share.arg5 = static_cast<uint64_t>(CapRights::kAll) << 8;
  ApiRegs revoke;
  revoke.op = static_cast<uint64_t>(ApiOp::kRevoke);

  uint64_t pairs = 0;
  // One share+revoke pair with the journal on or off; returns its ns.
  const auto pair = [&](bool journal_on) -> int64_t {
    monitor.audit().set_enabled(journal_on);
    share.arg2 = base + (pairs++ % kWindowPages) * kPageSize;
    const auto start = std::chrono::steady_clock::now();
    revoke.arg0 = Dispatch(&monitor, 0, share).ret0;
    if (Dispatch(&monitor, 0, revoke).error != 0) {
      return -1;
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const size_t records_before = monitor.audit().journal().size();
  int64_t on_ns = 0;
  int64_t off_ns = 0;
  uint64_t iterations = 0;
  for (auto _ : state) {
    const bool on_first = iterations % 2 == 0;
    const int64_t first = pair(on_first);
    const int64_t second = pair(!on_first);
    if (first < 0 || second < 0) {
      state.SkipWithError("share+revoke pair failed");
      return;
    }
    on_ns += on_first ? first : second;
    off_ns += on_first ? second : first;
    ++iterations;
  }
  const auto per_pair = [iterations](double total) {
    return total / static_cast<double>(iterations);
  };
  state.counters["journal_on_ns"] = per_pair(static_cast<double>(on_ns));
  state.counters["journal_off_ns"] = per_pair(static_cast<double>(off_ns));
  state.counters["journal_share"] = static_cast<double>(on_ns) / static_cast<double>(off_ns);
  state.counters["journal_records"] =
      per_pair(static_cast<double>(monitor.audit().journal().size() - records_before));
}
BENCHMARK(BM_ShareRevokeJournal)->Iterations(3000);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
