// Copyright 2026 The Tyche Reproduction Authors.
// Fleet verification throughput under three weather conditions
// (DESIGN.md §12, EXPERIMENTS.md C10):
//
//   BM_FleetHealthy   -- all nodes serving, Zipf-distributed service load:
//                        the steady state where the measurement cache does
//                        most of the work (cache_hit_ratio counter).
//   BM_FleetWire      -- healthy fleet, cache invalidated before every
//                        verify: the full two-tier wire path, and the
//                        reference for the degraded-mode gate.
//   BM_FleetOneDown   -- node 0 crashed and failed over during setup; the
//                        timed region is the 2-node WIRE steady state (cache
//                        invalidated per verify), i.e. the cost of running
//                        degraded, not the failover itself.
//   BM_FleetOverload  -- Submit() bursts past the admission queue capacity
//                        with periodic drains, cache cleared per burst;
//                        shed_ratio counts the typed kOverloaded fraction
//                        (bounded work, never a hang).
//
// Phase-2 throughput modes (DESIGN.md §13, EXPERIMENTS.md C11):
//
//   BM_QuoteVerifySingle8 / BM_QuoteVerifyBatch8
//                     -- the verifier's hot loop in isolation: 8 quotes from
//                        one monitor key checked one by one vs as ONE
//                        randomized-combiner multi-exponentiation. The pair
//                        carries the batch-speedup gate.
//   BM_FleetBatchDrain/1 and /8
//                     -- end to end: 8 same-node requests drained serially
//                        (max_batch=1) vs as one batch (max_batch=8), cache
//                        off and resumption off so the wire+verify path is
//                        what gets timed. Both drain 8 quotes per iteration,
//                        so real_time is directly comparable.
//   BM_FleetFullChainVerify / BM_FleetResumedVerify
//                     -- one verification paying the full two-tier chain
//                        walk every iteration vs riding an established
//                        session token. The pair carries the resumption gate.
//   BM_FleetQuotaAdmission
//                     -- warm-cache Submit() under per-tenant token buckets;
//                        quota_reject_ratio must stay inside the recorded
//                        band (admission keeps throttling, never collapses
//                        into rejecting everything or nothing).
//   BM_FleetManyDomains
//                     -- Zipf verification against 2 nodes x 1024 sealed
//                        domains (tight window packing): the thousands-of-
//                        domains scale point.
//
// real_time is host time per operation; the sim_p50/p90/p99_ns counters are
// percentiles of the front end's DETERMINISTIC simulated latency, so the
// baseline gates on them are machine-independent by construction.
// verifications/sec comes out of google-benchmark's items_per_second.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/crypto/schnorr.h"
#include "src/fleet/frontend.h"
#include "src/fleet/zipf.h"

namespace tyche {
namespace {

struct World {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<VerificationFrontEnd> frontend;
};

World MakeWorld(size_t queue_capacity = 16) {
  World world;
  world.fleet = Fleet::Create(FleetOptions{});
  if (world.fleet == nullptr) {
    std::abort();  // a bench without a world has nothing to measure
  }
  FrontEndOptions options;
  options.queue_capacity = queue_capacity;
  world.frontend =
      std::make_unique<VerificationFrontEnd>(world.fleet.get(), options);
  return world;
}

// Percentile over simulated per-verify latencies (exact, not histogram
// buckets: the sample count is the iteration count, which is small enough
// to sort).
uint64_t Percentile(std::vector<uint64_t>* samples, double p) {
  if (samples->empty()) {
    return 0;
  }
  std::sort(samples->begin(), samples->end());
  const size_t index = std::min(
      samples->size() - 1, static_cast<size_t>(p * (samples->size() - 1) + 0.5));
  return (*samples)[index];
}

void ReportSimPercentiles(benchmark::State& state, std::vector<uint64_t>* samples) {
  state.counters["sim_p50_ns"] = static_cast<double>(Percentile(samples, 0.50));
  state.counters["sim_p90_ns"] = static_cast<double>(Percentile(samples, 0.90));
  state.counters["sim_p99_ns"] = static_cast<double>(Percentile(samples, 0.99));
}

void ReportCacheRatio(benchmark::State& state, VerificationFrontEnd* frontend) {
  const double hits = static_cast<double>(frontend->cache().hits());
  const double total = hits + static_cast<double>(frontend->cache().misses());
  state.counters["cache_hit_ratio"] = total > 0 ? hits / total : 0.0;
}

// Drops every cached measurement (all epochs of all nodes), forcing the
// next verification of each service back onto the wire.
void DropCache(World* world) {
  for (size_t n = 0; n < world->fleet->num_nodes(); ++n) {
    world->frontend->cache().InvalidateEpochsBelow(static_cast<uint32_t>(n),
                                                   UINT64_MAX);
  }
}

// Shared verify loop: one Zipf-picked verification per iteration, optional
// cache drop before each so the wire path is what gets timed.
void RunVerifyLoop(benchmark::State& state, World* world, uint64_t seed,
                   bool wire_only) {
  const ZipfPicker zipf(world->fleet->num_services(), /*s=*/1.1);
  Prng load(seed);
  std::vector<uint64_t> latencies;
  uint64_t nonce = 1;
  uint64_t verified = 0;
  for (auto _ : state) {
    if (wire_only) {
      DropCache(world);
    }
    const auto verdict =
        world->frontend->Verify({zipf.Pick(load), /*nonce=*/nonce});
    ++nonce;
    if (!verdict.ok()) {
      state.SkipWithError(verdict.status().ToString().c_str());
      return;
    }
    ++verified;
    latencies.push_back(verdict->latency_ns);
  }
  state.SetItemsProcessed(static_cast<int64_t>(verified));
  ReportSimPercentiles(state, &latencies);
  ReportCacheRatio(state, world->frontend.get());
}

void BM_FleetHealthy(benchmark::State& state) {
  World world = MakeWorld();
  RunVerifyLoop(state, &world, 0xBE7C4, /*wire_only=*/false);
}
BENCHMARK(BM_FleetHealthy);

void BM_FleetWire(benchmark::State& state) {
  World world = MakeWorld();
  RunVerifyLoop(state, &world, 0xBE7C5, /*wire_only=*/true);
}
BENCHMARK(BM_FleetWire);

void BM_FleetOneDown(benchmark::State& state) {
  World world = MakeWorld();
  // The failover ladder runs during setup; the timed region is the degraded
  // steady state (two nodes carrying all six services).
  world.fleet->node(0)->Crash();
  if (!world.frontend->TriggerFailover(0).ok()) {
    state.SkipWithError("failover failed");
    return;
  }
  RunVerifyLoop(state, &world, 0xBE7C6, /*wire_only=*/true);
  state.counters["failovers"] =
      static_cast<double>(world.frontend->failovers_triggered());
}
BENCHMARK(BM_FleetOneDown);

// --- Phase 2: batched quote verification ----------------------------------

// 8 valid quotes from one monitor key — the shape DrainQueue's batch path
// hands to the verifier.
std::vector<SchnorrBatchItem> MakeQuoteBatch(size_t n) {
  const uint8_t seed[] = {'b', 'e', 'n', 'c', 'h', '-', 'b', 'v'};
  const SchnorrKeyPair key = DeriveKeyPair(seed);
  std::vector<SchnorrBatchItem> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Digest digest;
    for (size_t b = 0; b < digest.bytes.size(); ++b) {
      digest.bytes[b] = static_cast<uint8_t>(0x33 ^ (i * 17) ^ (b * 5));
    }
    items.push_back({key.pub, digest, SchnorrSign(key, digest)});
  }
  return items;
}

void BM_QuoteVerifySingle8(benchmark::State& state) {
  const auto items = MakeQuoteBatch(8);
  for (auto _ : state) {
    bool all = true;
    for (const auto& item : items) {
      all = all && SchnorrVerify(item.pub, item.message_digest, item.sig);
    }
    benchmark::DoNotOptimize(all);
    if (!all) {
      state.SkipWithError("single verify rejected a valid quote");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_QuoteVerifySingle8);

void BM_QuoteVerifyBatch8(benchmark::State& state) {
  const auto items = MakeQuoteBatch(8);
  for (auto _ : state) {
    const SchnorrBatchOutcome outcome = SchnorrBatchVerify(items);
    benchmark::DoNotOptimize(outcome);
    if (!outcome.all_valid || outcome.used_fallback) {
      state.SkipWithError("batch verification fell back on valid quotes");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_QuoteVerifyBatch8);

// End to end: 8 requests homed on ONE node, drained serially (arg 1) or as
// one batch (arg 8). Cache and resumption are off in both variants so the
// measured delta is the batched wire round + batched Schnorr check; both
// variants process 8 quotes per iteration, making real_time comparable.
void BM_FleetBatchDrain(benchmark::State& state) {
  World world;
  FleetOptions fleet_options;
  fleet_options.num_nodes = 2;
  fleet_options.services_per_node = 8;
  world.fleet = Fleet::Create(fleet_options);
  if (world.fleet == nullptr) {
    std::abort();
  }
  FrontEndOptions options;
  options.cache_capacity = 0;        // every drain pays the wire
  options.enable_resumption = false; // isolate batching from resumption
  options.max_batch = static_cast<size_t>(state.range(0));
  world.frontend =
      std::make_unique<VerificationFrontEnd>(world.fleet.get(), options);

  uint64_t nonce = 1;
  uint64_t quotes = 0;
  for (auto _ : state) {
    for (uint32_t s = 0; s < 8; ++s) {  // services 0..7 all live on node 0
      const auto outcome = world.frontend->Submit({s, /*nonce=*/nonce});
      ++nonce;
      if (!outcome.ok() || !outcome->enqueued) {
        state.SkipWithError("submit did not enqueue");
        return;
      }
    }
    const auto drained = world.frontend->DrainQueue();
    for (const auto& item : drained) {
      if (!item.result.ok()) {
        state.SkipWithError(item.result.status().ToString().c_str());
        return;
      }
    }
    quotes += drained.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(quotes));
  state.counters["batch_verifies"] =
      static_cast<double>(world.frontend->batch_verifies());
  state.counters["batch_fallbacks"] =
      static_cast<double>(world.frontend->batch_fallbacks());
}
BENCHMARK(BM_FleetBatchDrain)->Arg(1)->Arg(8);

// --- Phase 2: session resumption ------------------------------------------

// Reference: every iteration re-pays tier 1 (identity + TPM quote) and
// tier 2 (attest + report verify) — the cost a verifier without sessions
// pays for every repeat verification.
void BM_FleetFullChainVerify(benchmark::State& state) {
  World world;
  world.fleet = Fleet::Create(FleetOptions{});
  if (world.fleet == nullptr) {
    std::abort();
  }
  FrontEndOptions options;
  options.cache_capacity = 0;
  options.enable_resumption = false;
  world.frontend =
      std::make_unique<VerificationFrontEnd>(world.fleet.get(), options);
  uint64_t nonce = 1;
  for (auto _ : state) {
    world.frontend->ForgetVerifiedMonitors();
    const auto verdict = world.frontend->Verify({/*service=*/0, /*nonce=*/nonce});
    ++nonce;
    if (!verdict.ok()) {
      state.SkipWithError(verdict.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetFullChainVerify);

void BM_FleetResumedVerify(benchmark::State& state) {
  World world;
  world.fleet = Fleet::Create(FleetOptions{});
  if (world.fleet == nullptr) {
    std::abort();
  }
  FrontEndOptions options;
  options.cache_capacity = 0;  // force the wire — resumption, not the cache
  world.frontend =
      std::make_unique<VerificationFrontEnd>(world.fleet.get(), options);
  // Establish the session with one full chain walk outside the timed region.
  if (!world.frontend->Verify({/*service=*/0, /*nonce=*/0xFEED}).ok()) {
    state.SkipWithError("session establishment failed");
    return;
  }
  uint64_t nonce = 1;
  for (auto _ : state) {
    const auto verdict = world.frontend->Verify({/*service=*/0, /*nonce=*/nonce});
    ++nonce;
    if (!verdict.ok() || !verdict->resumed) {
      state.SkipWithError("verification did not resume");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sessions_resumed"] =
      static_cast<double>(world.frontend->sessions_resumed());
}
BENCHMARK(BM_FleetResumedVerify);

// --- Phase 2: tenant quotas -----------------------------------------------

// Warm-cache admission under per-tenant token buckets: 4 tenants arrive at
// ~250 req/s each (1 ms of simulated time per arrival) against a 125/s
// refill, so roughly half of each tenant's traffic is throttled with typed
// kQuotaExceeded. quota_reject_ratio carries the gate: the bucket keeps
// throttling (ratio above the floor) without collapsing into rejecting
// everything (below the ceiling).
void BM_FleetQuotaAdmission(benchmark::State& state) {
  World world;
  world.fleet = Fleet::Create(FleetOptions{});
  if (world.fleet == nullptr) {
    std::abort();
  }
  FrontEndOptions options;
  options.tenant_quota.rate_per_sec = 125.0;
  options.tenant_quota.burst = 4.0;
  world.frontend =
      std::make_unique<VerificationFrontEnd>(world.fleet.get(), options);
  for (uint32_t s = 0; s < world.fleet->num_services(); ++s) {
    if (!world.frontend->Verify({s, /*nonce=*/0xAB00 + s}).ok()) {
      state.SkipWithError("cache warmup failed");
      return;
    }
  }
  Prng load(0xBE7C8);
  uint64_t nonce = 1;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  for (auto _ : state) {
    world.fleet->clock().Advance(1'000'000);  // 1 ms between arrivals
    VerifyRequest request;
    request.service =
        static_cast<uint32_t>(load.Next() % world.fleet->num_services());
    request.nonce = nonce++;
    request.tenant = static_cast<uint32_t>(load.Next() % 4);
    const auto outcome = world.frontend->Submit(request);
    if (outcome.ok()) {
      ++admitted;
    } else if (outcome.code() == ErrorCode::kQuotaExceeded) {
      ++rejected;
    } else {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(admitted + rejected));
  const double total = static_cast<double>(admitted + rejected);
  state.counters["quota_reject_ratio"] =
      total > 0 ? static_cast<double>(rejected) / total : 0.0;
}
BENCHMARK(BM_FleetQuotaAdmission);

// --- Phase 2: thousands of domains per node -------------------------------

void BM_FleetManyDomains(benchmark::State& state) {
  // 2048 sealed domains take a while to install; boot the world once and
  // leak it — google-benchmark re-enters this function for its timing runs.
  static World* world = [] {
    auto* built = new World;
    FleetOptions options;
    options.num_nodes = 2;
    options.services_per_node = 1024;
    options.pages_per_service = 1;
    built->fleet = Fleet::Create(options);
    if (built->fleet == nullptr) {
      std::abort();
    }
    built->frontend = std::make_unique<VerificationFrontEnd>(built->fleet.get());
    return built;
  }();
  static uint64_t nonce = 1;
  const ZipfPicker zipf(world->fleet->num_services(), /*s=*/1.1);
  Prng load(0xBE7C9);
  std::vector<uint64_t> latencies;
  uint64_t verified = 0;
  for (auto _ : state) {
    const auto verdict = world->frontend->Verify({zipf.Pick(load), /*nonce=*/nonce});
    ++nonce;
    if (!verdict.ok()) {
      state.SkipWithError(verdict.status().ToString().c_str());
      return;
    }
    ++verified;
    latencies.push_back(verdict->latency_ns);
  }
  state.SetItemsProcessed(static_cast<int64_t>(verified));
  ReportSimPercentiles(state, &latencies);
  ReportCacheRatio(state, world->frontend.get());
  state.counters["domains"] = static_cast<double>(world->fleet->num_services());
}
BENCHMARK(BM_FleetManyDomains);

void BM_FleetOverload(benchmark::State& state) {
  constexpr size_t kQueueCapacity = 8;
  World world = MakeWorld(kQueueCapacity);
  const ZipfPicker zipf(world.fleet->num_services(), /*s=*/1.1);
  Prng load(0xBE7C7);
  uint64_t nonce = 1;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t verified = 0;
  for (auto _ : state) {
    // Burst at 3x the queue capacity, then drain: every request terminates
    // with a verdict or a typed kOverloaded, never an unbounded queue. The
    // cache is dropped first so the burst really queues instead of being
    // answered inline.
    DropCache(&world);
    for (size_t i = 0; i < 3 * kQueueCapacity; ++i) {
      const auto outcome =
          world.frontend->Submit({zipf.Pick(load), /*nonce=*/nonce});
      ++nonce;
      if (outcome.ok()) {
        ++admitted;
        verified += outcome->verdict.has_value() ? 1 : 0;
      } else if (outcome.code() == ErrorCode::kOverloaded) {
        ++shed;
      } else {
        state.SkipWithError(outcome.status().ToString().c_str());
        return;
      }
    }
    for (const auto& item : world.frontend->DrainQueue()) {
      if (item.result.ok()) {
        ++verified;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(admitted + shed));
  const double total = static_cast<double>(admitted + shed);
  state.counters["shed_ratio"] = total > 0 ? static_cast<double>(shed) / total : 0.0;
  state.counters["verified"] = static_cast<double>(verified);
  ReportCacheRatio(state, world.frontend.get());
}
BENCHMARK(BM_FleetOverload);

}  // namespace
}  // namespace tyche

BENCHMARK_MAIN();
