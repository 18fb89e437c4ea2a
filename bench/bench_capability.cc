// Copyright 2026 The Tyche Reproduction Authors.
// Experiment C2: capability-engine operation costs (§4.1's grant / share /
// revoke tree). Shape to check: individual operations stay cheap as the
// tree grows; cascading revocation is linear in the subtree it kills,
// including in the presence of circular sharing; and share/revoke churn
// through the whole monitor costs the same at the end as at the start.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench/bench_common.h"
#include "src/capability/engine.h"
#include "src/monitor/dispatch.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kSpace = 1ull << 40;  // plenty of disjoint ranges

// An engine pre-populated with `count` active share capabilities.
struct PopulatedEngine {
  CapabilityEngine engine;
  CapId root = kInvalidCap;
  std::vector<CapId> shares;
};

PopulatedEngine MakePopulated(int64_t count) {
  PopulatedEngine p;
  p.engine.RegisterDomain(0, CapabilityEngine::kNoCreator);
  p.engine.RegisterDomain(1, 0);
  p.root = *p.engine.MintMemory(0, AddrRange{0, kSpace}, Perms(Perms::kRWX),
                                CapRights(CapRights::kAll));
  CapEffects effects;
  for (int64_t i = 0; i < count; ++i) {
    p.shares.push_back(*p.engine.ShareMemory(
        0, p.root, 1, AddrRange{static_cast<uint64_t>(i) * kMiB, kMiB}, Perms(Perms::kRW),
        CapRights(CapRights::kAll), RevocationPolicy{}, &effects));
  }
  return p;
}

// Share latency as the tree grows.
void BM_ShareMemory(benchmark::State& state) {
  PopulatedEngine p = MakePopulated(state.range(0));
  uint64_t next = 1ull << 30;
  CapEffects effects;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.engine.ShareMemory(0, p.root, 1, AddrRange{next, kMiB},
                                                  Perms(Perms::kRW), CapRights{},
                                                  RevocationPolicy{}, &effects));
    next += kMiB;
  }
  state.counters["existing_caps"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ShareMemory)->Arg(16)->Arg(256)->Arg(4096)->Iterations(20000);

// Grant latency (includes splitting the source capability).
void BM_GrantMemory(benchmark::State& state) {
  PopulatedEngine p = MakePopulated(state.range(0));
  uint64_t next = 1ull << 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.engine.GrantMemory(0, p.root, 1, AddrRange{next, kMiB},
                                                  Perms(Perms::kRW),
                                                  CapRights(CapRights::kAll),
                                                  RevocationPolicy{}));
    // The root is donated on the first grant; keep granting from the tail
    // remainder found via the domain map (realistic usage goes through the
    // monitor, which rediscovers).
    state.PauseTiming();
    CapId tail = kInvalidCap;
    p.engine.ForEachActive([&](const Capability& cap) {
      if (cap.owner == 0 && cap.kind == ResourceKind::kMemory &&
          cap.range.Contains(next + kMiB)) {
        tail = cap.id;
      }
    });
    p.root = tail;
    next += kMiB;
    state.ResumeTiming();
  }
  state.counters["existing_caps"] = static_cast<double>(state.range(0));
}
// Iteration-capped: every grant grows the lineage tree, so unbounded
// default timing degenerates quadratically in the paused rediscovery scan.
BENCHMARK(BM_GrantMemory)->Arg(16)->Arg(256)->Arg(1024)->Iterations(2000);

// Cascading revocation vs chain depth (A->B->A->B->... circular sharing).
void BM_RevokeCascadeDepth(benchmark::State& state) {
  const int64_t depth = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    CapabilityEngine engine;
    engine.RegisterDomain(0, CapabilityEngine::kNoCreator);
    engine.RegisterDomain(1, 0);
    engine.RegisterDomain(2, 0);
    const CapId root = *engine.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                          CapRights(CapRights::kAll));
    CapEffects effects;
    CapId chain = *engine.ShareMemory(0, root, 1, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll), RevocationPolicy{},
                                      &effects);
    const CapId first = chain;
    for (int64_t i = 1; i < depth; ++i) {
      const CapDomainId from = i % 2 == 0 ? 2 : 1;
      const CapDomainId to = i % 2 == 0 ? 1 : 2;
      chain = *engine.ShareMemory(from, chain, to, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                  CapRights(CapRights::kAll), RevocationPolicy{}, &effects);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.Revoke(0, first));
  }
  state.counters["chain_depth"] = static_cast<double>(depth);
}
BENCHMARK(BM_RevokeCascadeDepth)->Arg(4)->Arg(32)->Arg(256)->Arg(1024)->Iterations(200);

// Cascading revocation vs fan-out (one cap shared to N domains).
void BM_RevokeCascadeFanout(benchmark::State& state) {
  const int64_t fanout = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    CapabilityEngine engine;
    engine.RegisterDomain(0, CapabilityEngine::kNoCreator);
    const CapId root = *engine.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                          CapRights(CapRights::kAll));
    CapEffects effects;
    const CapId hub = *engine.ShareMemory(0, root, 0, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                          CapRights(CapRights::kAll), RevocationPolicy{},
                                          &effects);
    for (int64_t i = 0; i < fanout; ++i) {
      engine.RegisterDomain(static_cast<CapDomainId>(i + 1), 0);
      (void)*engine.ShareMemory(0, hub, static_cast<CapDomainId>(i + 1),
                                AddrRange{0, kMiB}, Perms(Perms::kRead), CapRights{},
                                RevocationPolicy{}, &effects);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.Revoke(0, hub));
  }
  state.counters["fanout"] = static_cast<double>(fanout);
}
BENCHMARK(BM_RevokeCascadeFanout)->Arg(4)->Arg(32)->Arg(256)->Arg(1024)->Iterations(200);

// Reference-count query cost (used on every attestation).
void BM_MemoryRefCount(benchmark::State& state) {
  PopulatedEngine p = MakePopulated(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.engine.MemoryRefCount(AddrRange{0, kMiB}));
  }
  state.counters["existing_caps"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MemoryRefCount)->Arg(16)->Arg(256)->Arg(4096)->Iterations(20000);

// The Figure-4 style full-memory view (what an auditor renders).
void BM_MemoryView(benchmark::State& state) {
  PopulatedEngine p = MakePopulated(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.engine.MemoryView());
  }
  state.counters["existing_caps"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MemoryView)->Arg(16)->Arg(256)->Arg(1024)->Iterations(500);

// Effective-permission recomputation (backend resync unit of work).
void BM_EffectivePerms(benchmark::State& state) {
  PopulatedEngine p = MakePopulated(state.range(0));
  uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.engine.EffectivePerms(1, addr));
    addr = (addr + kMiB) % (static_cast<uint64_t>(state.range(0)) * kMiB);
  }
  state.counters["existing_caps"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EffectivePerms)->Arg(16)->Arg(256)->Arg(4096)->Iterations(20000);

// Median of the per-pair costs of a run of chunks.
double MedianNs(std::vector<double> chunk_ns) {
  std::nth_element(chunk_ns.begin(), chunk_ns.begin() + chunk_ns.size() / 2, chunk_ns.end());
  return chunk_ns[chunk_ns.size() / 2];
}

// One-page share+revoke pairs from the OS into a child, through Dispatch()
// on a booted testbed: engine, backend sync and effects, 100 k times. Per-op
// cost must not grow with history, and neither may the engine. Exports the
// per-pair cost of the first and last tenth of the run (each the median over
// 100-pair chunks, so one preempted chunk cannot move it), their ratio, and
// the engine's node count at the end and its growth over the run;
// bench/baselines/capability_churn_baseline.json gates the ratio and growth.
void BM_CapChurn(benchmark::State& state) {
  constexpr uint32_t kPairs = 100000;
  constexpr uint32_t kChunk = 100;
  constexpr uint32_t kWindowPages = 16;
  std::vector<double> chunk_ns;
  uint64_t start_caps = 0;
  uint64_t end_caps = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Testbed testbed = bench::MustTestbed();
    Monitor& monitor = testbed.monitor();
    const CapId child = (*monitor.CreateDomain(0, "churn")).handle;
    const uint64_t base = testbed.Scratch(16 * kMiB);
    const CapId src = *testbed.OsMemCap(AddrRange{base, kWindowPages * kPageSize});
    ApiRegs share;
    share.op = static_cast<uint64_t>(ApiOp::kShareMemory);
    share.arg0 = src;
    share.arg1 = child;
    share.arg3 = kPageSize;
    share.arg4 = Perms::kRW;
    share.arg5 = static_cast<uint64_t>(CapRights::kAll) << 8;
    ApiRegs revoke;
    revoke.op = static_cast<uint64_t>(ApiOp::kRevoke);
    start_caps = monitor.engine().total_caps();
    chunk_ns.clear();
    state.ResumeTiming();
    for (uint32_t pair = 0; pair < kPairs; pair += kChunk) {
      const auto t0 = std::chrono::steady_clock::now();
      for (uint32_t i = pair; i < pair + kChunk; ++i) {
        share.arg2 = base + (i % kWindowPages) * kPageSize;
        revoke.arg0 = Dispatch(&monitor, 0, share).ret0;
        if (Dispatch(&monitor, 0, revoke).error != 0) {
          state.SkipWithError("share+revoke pair failed");
          return;
        }
      }
      const std::chrono::duration<double, std::nano> elapsed =
          std::chrono::steady_clock::now() - t0;
      chunk_ns.push_back(elapsed.count() / kChunk);
    }
    end_caps = monitor.engine().total_caps();
  }
  const size_t decile = chunk_ns.size() / 10;
  const double first = MedianNs({chunk_ns.begin(), chunk_ns.begin() + decile});
  const double last = MedianNs({chunk_ns.end() - decile, chunk_ns.end()});
  state.counters["first_decile_ns"] = first;
  state.counters["last_decile_ns"] = last;
  state.counters["decile_ratio"] = last / first;
  state.counters["total_caps"] = static_cast<double>(end_caps);
  state.counters["total_caps_growth"] = static_cast<double>(end_caps - start_caps);
}
BENCHMARK(BM_CapChurn)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
