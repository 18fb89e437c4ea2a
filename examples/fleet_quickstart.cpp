// Copyright 2026 The Tyche Reproduction Authors.
// Fleet quickstart: the fault-tolerant verification front end in one demo.
//
//   1. Boot a 3-node attestation fleet (same measured image on every node).
//   2. Verify a service end to end (tier-1 TPM quote, tier-2 domain report),
//      then watch the second verification hit the measurement cache.
//   3. Crash a node: the SAME Verify() call trips the circuit breaker,
//      declares the node down, recovers it from its journal, migrates its
//      service domains to the replica, and returns the pinned golden
//      measurement — attestation continuity across the failover.
//   4. Splice the crashed and replica journals into one verified history.
//   5. Overload the admission queue and watch requests shed with typed
//      kOverloaded (cache-servable ones still answer inline).
//   6. Throughput phase 2 (DESIGN.md §13): drain same-node requests as ONE
//      batched Schnorr verification, resume a repeat verification with the
//      epoch-bound session token (no chain walk), throttle a tenant past its
//      token bucket with typed kQuotaExceeded, and expire a cache entry past
//      its TTL.
//
// Set TYCHE_METRICS_OUT=<path> to write the front end's Prometheus scrape
// (the tyche_fleet_* families) for CI format-checking and dashboards.

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/fleet/frontend.h"
#include "src/tyche/observe.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace {

#define DEMO_CHECK(expr)                                                    \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__, #expr); \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

void Banner(const char* title) { std::printf("\n=== %s ===\n", title); }

int Run() {
  Banner("1. boot the fleet");
  FleetOptions fleet_options;
  auto fleet = Fleet::Create(fleet_options);
  DEMO_CHECK(fleet != nullptr);
  std::printf("%zu nodes booted from the same measured image, %zu services\n",
              fleet->num_nodes(), fleet->num_services());
  for (uint32_t s = 0; s < fleet->num_services(); ++s) {
    const ServiceRecord& record = fleet->service(s);
    std::printf("  service %u (%s) on node %u, golden %s...\n", s,
                record.name.c_str(), record.node,
                record.measurement.ToHex().substr(0, 16).c_str());
  }

  FrontEndOptions options;
  options.queue_capacity = 4;  // small, so the overload demo sheds visibly
  // Phase 2 knobs: per-tenant token buckets (generous enough that only the
  // quota demo in section 6 exhausts one) and a cache TTL far beyond the
  // simulated time the earlier sections spend.
  options.tenant_quota.rate_per_sec = 1000.0;
  options.tenant_quota.burst = 16.0;
  options.cache_ttl_ns = 2'000'000'000;  // 2 simulated seconds
  VerificationFrontEnd frontend(fleet.get(), options);

  Banner("2. verify, then hit the cache");
  const auto first = frontend.Verify({/*service=*/0, /*nonce=*/1});
  DEMO_CHECK(first.ok());
  std::printf("wire verification: node %u epoch %llu, %u attempt(s), %llu ns\n",
              first->node, static_cast<unsigned long long>(first->epoch),
              first->attempts, static_cast<unsigned long long>(first->latency_ns));
  const auto second = frontend.Verify({/*service=*/0, /*nonce=*/2});
  DEMO_CHECK(second.ok() && second->from_cache);
  std::printf("second verification served from the (pcr, node, epoch) cache\n");

  Banner("3. crash a node, fail over inside one Verify()");
  fleet->node(0)->Crash();
  std::printf("node 0 crashed; its journal survives\n");
  // Service 1 is homed on node 0 and not yet cached, so this Verify() must
  // take the wire: timeouts open the breaker, the failed half-open probe
  // declares the node down, and the failover ladder runs mid-call.
  const auto failover = frontend.Verify({/*service=*/1, /*nonce=*/3});
  DEMO_CHECK(failover.ok());
  DEMO_CHECK(failover->measurement == fleet->service(1).measurement);
  std::printf("verdict from node %u (epoch %llu) after %u attempts -- the\n"
              "golden measurement survived recovery + migration unchanged\n",
              failover->node, static_cast<unsigned long long>(failover->epoch),
              failover->attempts);
  DEMO_CHECK(failover->node != 0);
  std::printf("breaker opened %llu time(s); fleet ran %llu failover(s), "
              "%llu migration(s)\n",
              static_cast<unsigned long long>(frontend.breaker(0).times_opened()),
              static_cast<unsigned long long>(fleet->failovers()),
              static_cast<unsigned long long>(fleet->migrations()));
  // Epoch is part of the cache key: the entry verified against the
  // pre-crash node-0 instance became unreachable the moment it recovered.
  const auto recached = frontend.Verify({/*service=*/0, /*nonce=*/4});
  DEMO_CHECK(recached.ok() && !recached->from_cache);
  std::printf("service 0's pre-crash cache entry was epoch-invalidated; it "
              "re-verified on node %u\n", recached->node);

  Banner("4. splice the journals");
  const Status splice = VerifyJournalSplice(
      fleet->node(0)->monitor()->ExportJournal(),
      fleet->node(fleet->service(1).node)->monitor()->ExportJournal(),
      fleet->node(0)->monitor()->public_key(),
      fleet->node(fleet->service(1).node)->monitor()->public_key());
  DEMO_CHECK(splice.ok());
  std::printf("crashed-node and replica journals verify as one spliced "
              "history: migrate-out links migrate-in\n");

  Banner("5. overload: typed shedding, cache served inline");
  uint64_t enqueued = 0;
  uint64_t overloaded = 0;
  for (uint32_t i = 0; i < 3 * static_cast<uint32_t>(options.queue_capacity); ++i) {
    const uint32_t service = 1 + (i % (static_cast<uint32_t>(fleet->num_services()) - 1));
    const auto admitted = frontend.Submit({service, /*nonce=*/100 + i});
    if (admitted.ok()) {
      enqueued += admitted->enqueued ? 1 : 0;
    } else {
      DEMO_CHECK(admitted.code() == ErrorCode::kOverloaded);
      ++overloaded;
    }
  }
  std::printf("burst of %zu: %llu queued (capacity %zu), %llu shed with "
              "typed kOverloaded\n",
              3 * options.queue_capacity, static_cast<unsigned long long>(enqueued),
              options.queue_capacity, static_cast<unsigned long long>(overloaded));
  DEMO_CHECK(overloaded > 0);
  // The cache-warm service still answers inline while the queue is full.
  const auto inline_hit = frontend.Submit({/*service=*/0, /*nonce=*/999});
  DEMO_CHECK(inline_hit.ok() && inline_hit->verdict.has_value() &&
             inline_hit->verdict->from_cache);
  std::printf("cache-servable request answered inline despite the full queue\n");
  uint64_t drained_ok = 0;
  for (const auto& item : frontend.DrainQueue()) {
    drained_ok += item.result.ok() ? 1 : 0;
  }
  std::printf("queue drained: %llu verified\n",
              static_cast<unsigned long long>(drained_ok));

  Banner("6a. batched drain: one Schnorr check for a same-node group");
  // After the failover, node 1 is home to four services. Cold the cache so
  // the queued requests really take the wire, then drain: the same-node run
  // goes out as one wire round and ONE batched signature verification.
  for (uint32_t n = 0; n < static_cast<uint32_t>(fleet->num_nodes()); ++n) {
    frontend.cache().InvalidateEpochsBelow(n, UINT64_MAX);
  }
  uint32_t batched_submits = 0;
  const uint32_t batch_home = fleet->service(0).node;
  for (uint32_t s = 0; s < static_cast<uint32_t>(fleet->num_services()); ++s) {
    if (fleet->service(s).node != batch_home || batched_submits >= 4) {
      continue;
    }
    // A fresh tenant: section 5's burst already drew down tenant 0's bucket.
    const auto admitted =
        frontend.Submit({s, /*nonce=*/200 + s, /*deadline_ns=*/0, /*tenant=*/1});
    DEMO_CHECK(admitted.ok() && admitted->enqueued);
    ++batched_submits;
  }
  DEMO_CHECK(batched_submits >= 2);
  uint64_t batch_ok = 0;
  for (const auto& item : frontend.DrainQueue()) {
    DEMO_CHECK(item.result.ok());
    DEMO_CHECK(item.result->measurement ==
               fleet->service(item.request.service).measurement);
    ++batch_ok;
  }
  DEMO_CHECK(frontend.batch_verifies() > 0 && frontend.batch_quotes() >= 2);
  std::printf("%llu same-node quotes verified by %llu batched check(s)\n",
              static_cast<unsigned long long>(frontend.batch_quotes()),
              static_cast<unsigned long long>(frontend.batch_verifies()));

  Banner("6b. session resumption: repeat verify without the chain walk");
  // The verifies above established epoch-bound sessions. With the cache
  // cold, a repeat verification presents the session token instead of
  // re-walking identity + attest: one wire round, MAC-checked response.
  for (uint32_t n = 0; n < static_cast<uint32_t>(fleet->num_nodes()); ++n) {
    frontend.cache().InvalidateEpochsBelow(n, UINT64_MAX);
  }
  const auto resumed = frontend.Verify({/*service=*/0, /*nonce=*/300});
  DEMO_CHECK(resumed.ok() && resumed->resumed);
  DEMO_CHECK(resumed->measurement == fleet->service(0).measurement);
  std::printf("resumed verification on node %u: %llu session(s) established, "
              "%llu resumed\n", resumed->node,
              static_cast<unsigned long long>(frontend.sessions_established()),
              static_cast<unsigned long long>(frontend.sessions_resumed()));

  Banner("6c. tenant quota: typed kQuotaExceeded, per tenant");
  // Tenant 9 burns through its own bucket; the rejection is typed
  // kQuotaExceeded (not kOverloaded -- the queue is empty) and other
  // tenants' buckets are untouched.
  uint64_t quota_admitted = 0;
  uint64_t quota_rejected = 0;
  for (uint32_t i = 0; i < 20; ++i) {
    VerifyRequest request;
    request.service = 0;
    request.nonce = 400 + i;
    request.tenant = 9;
    const auto admitted = frontend.Submit(request);
    if (admitted.ok()) {
      ++quota_admitted;
    } else {
      DEMO_CHECK(admitted.code() == ErrorCode::kQuotaExceeded);
      ++quota_rejected;
    }
  }
  DEMO_CHECK(quota_rejected > 0);
  VerifyRequest other_tenant;
  other_tenant.service = 0;
  other_tenant.nonce = 450;
  other_tenant.tenant = 5;
  DEMO_CHECK(frontend.Submit(other_tenant).ok());
  std::printf("tenant 9: %llu admitted, %llu rejected with kQuotaExceeded; "
              "tenant 5 still admitted\n",
              static_cast<unsigned long long>(quota_admitted),
              static_cast<unsigned long long>(quota_rejected));
  for (const auto& item : frontend.DrainQueue()) {
    DEMO_CHECK(item.result.ok());
  }

  Banner("6d. cache TTL: stale entries expire instead of serving forever");
  const auto fresh = frontend.Verify({/*service=*/0, /*nonce=*/500});
  DEMO_CHECK(fresh.ok());
  fleet->clock().Advance(3'000'000'000);  // 3 simulated seconds > the 2 s TTL
  const auto after_ttl = frontend.Verify({/*service=*/0, /*nonce=*/501});
  DEMO_CHECK(after_ttl.ok() && !after_ttl->from_cache);
  DEMO_CHECK(frontend.cache().expired() > 0);
  std::printf("entry verified %llu simulated seconds ago expired; "
              "%llu expiration(s) counted\n", 3ull,
              static_cast<unsigned long long>(frontend.cache().expired()));

  Banner("metrics");
  const std::string scrape = RenderPrometheus(frontend.metrics().Collect());
  std::printf("front end exports %zu bytes of Prometheus text "
              "(tyche_fleet_* families)\n", scrape.size());
  if (const char* path = std::getenv("TYCHE_METRICS_OUT");
      path != nullptr && *path != '\0') {
    std::ofstream out(path, std::ios::trunc);
    out << scrape;
    out.close();
    DEMO_CHECK(out.good());
    std::printf("wrote fleet metrics scrape to %s\n", path);
  }
  std::printf("\nfleet quickstart done\n");
  return 0;
}

}  // namespace
}  // namespace tyche

int main() { return tyche::Run(); }
