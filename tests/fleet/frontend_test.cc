// Copyright 2026 The Tyche Reproduction Authors.
// Unit and negative-path coverage for the fleet subsystem (DESIGN.md §12):
// breaker state machine, cache epoch semantics, jittered backoff (including
// the migration retry desync regression), the LossyChannel duplicate-storm
// bound, bounded admission, and the RemoteVerifier negative paths the ISSUE
// names: deadline-exceeded quote, wrong-epoch cached measurement, and a
// mid-recovery monitor surfacing a typed retryable error.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/fleet/frontend.h"
#include "src/fleet/zipf.h"
#include "src/support/backoff.h"
#include "src/support/faults.h"
#include "src/tyche/channel.h"
#include "src/tyche/observe.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace {

std::unique_ptr<Fleet> MakeFleet(uint32_t nodes = 3,
                                 IsaArch arch = IsaArch::kX86_64) {
  FleetOptions options;
  options.num_nodes = nodes;
  options.arch = arch;
  return Fleet::Create(options);
}

std::vector<uint64_t> BackoffSchedule(uint64_t seed, const BackoffPolicy& policy,
                                      uint32_t rounds) {
  Prng prng(seed);
  std::vector<uint64_t> schedule;
  for (uint32_t round = 1; round <= rounds; ++round) {
    schedule.push_back(JitteredBackoff(prng, policy, round));
  }
  return schedule;
}

// --- Backoff --------------------------------------------------------------

TEST(Backoff, EqualJitterBoundsAndCap) {
  const BackoffPolicy policy{/*base=*/1024, /*cap=*/1u << 16};
  Prng prng(7);
  for (uint32_t round = 1; round <= 20; ++round) {
    const uint64_t full =
        std::min<uint64_t>(policy.cap, policy.base << std::min(round - 1, 20u));
    const uint64_t wait = JitteredBackoff(prng, policy, round);
    EXPECT_GE(wait, full / 2) << "round " << round;
    EXPECT_LE(wait, full) << "round " << round;
  }
}

TEST(Backoff, SeedsDesynchronizeSchedulesDeterministically) {
  const BackoffPolicy policy{/*base=*/1024, /*cap=*/1u << 20};
  const auto a = BackoffSchedule(1, policy, 8);
  const auto b = BackoffSchedule(2, policy, 8);
  // Two clients backing off against one congested resource must not march
  // in lockstep (the retry-storm bug this guards against).
  EXPECT_NE(a, b);
  // But every schedule is replayable from its seed.
  EXPECT_EQ(a, BackoffSchedule(1, policy, 8));
  EXPECT_EQ(b, BackoffSchedule(2, policy, 8));
}

// Regression for the migration retry schedule: before the fix every retry
// round waited exactly vmcall_round_trip << round, so concurrent migrations
// hammered a congested channel in lockstep. Now the wait is jittered from a
// seed the payload digest derives: two services' payloads differ and give
// different totals, and migrating the same service again replays exactly.
TEST(Backoff, MigrationRetryBackoffIsJitteredPerSeed) {
  const auto run = [](uint32_t service) -> uint64_t {
    auto fleet = MakeFleet(/*nodes=*/2);
    if (fleet == nullptr) {
      ADD_FAILURE() << "fleet boot failed";
      return 0;
    }
    // Two dropped frames force a retry round, charged with backoff.
    FaultPlan plan;
    plan.Add({std::string(faults::kChannelDrop), 1,
              DefaultFaultCode(faults::kChannelDrop), false});
    plan.Add({std::string(faults::kChannelDrop), 2,
              DefaultFaultCode(faults::kChannelDrop), false});
    ScopedFaultPlan scoped(std::move(plan));
    const ServiceRecord svc = fleet->service(service);
    Monitor* source = fleet->node(svc.node)->monitor();
    LossyChannel wire;
    const auto report =
        MigrateOver(source, fleet->node(fleet->replica_of(svc.node))->monitor(), svc.domain,
                    &wire, source->public_key());
    if (!report.ok()) {
      ADD_FAILURE() << "migration failed: " << report.status().ToString();
      return 0;
    }
    EXPECT_GE(report->retries, 1u);
    EXPECT_GT(report->backoff_cycles, 0u);
    return report->backoff_cycles;
  };
  const uint64_t service0 = run(0);
  const uint64_t service1 = run(1);
  const uint64_t service0_again = run(0);
  EXPECT_NE(service0, service1) << "backoff schedules are synchronized";
  EXPECT_EQ(service0, service0_again) << "backoff schedule is not reproducible";
}

// --- LossyChannel duplicate storm (satellite 2) ---------------------------

TEST(LossyChannel, DuplicateStormIsBounded) {
  LossyChannel channel;
  channel.set_max_pending_duplicates(4);
  // Every send duplicates: an unbounded queue would hold 2N frames.
  FaultPlan plan;
  plan.Add({std::string(faults::kChannelDup), 1,
            DefaultFaultCode(faults::kChannelDup), /*repeat=*/true});
  ScopedFaultPlan scoped(std::move(plan));
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    const std::vector<uint8_t> frame = {static_cast<uint8_t>(i)};
    ASSERT_TRUE(channel.Send(frame).ok());
  }
  EXPECT_LE(channel.pending(), kFrames + 4u);
  EXPECT_EQ(channel.duplicated(), 4u);
  EXPECT_EQ(channel.dup_suppressed(), kFrames - 4u);
  size_t received = 0;
  while (channel.Recv().ok()) {
    ++received;
  }
  EXPECT_EQ(received, kFrames + 4u);
  // Once the pending duplicates drain, the cap frees up again.
  const std::vector<uint8_t> extra = {0xFF};
  ASSERT_TRUE(channel.Send(extra).ok());
  EXPECT_EQ(channel.duplicated(), 5u);
}

// Send() moves the frame into the queue, so the duplicate must be a copy
// taken before the move and the delay line must hold the frame itself: no
// delivered frame may be a moved-from, empty one.
TEST(LossyChannel, DuplicatedAndReorderedFramesKeepTheirBytes) {
  LossyChannel channel;
  FaultPlan plan;
  plan.Add({std::string(faults::kChannelDup), 1, DefaultFaultCode(faults::kChannelDup),
            /*repeat=*/false});
  plan.Add({std::string(faults::kChannelReorder), 1,
            DefaultFaultCode(faults::kChannelReorder), /*repeat=*/false});
  ScopedFaultPlan scoped(std::move(plan));
  const std::vector<uint8_t> first = {0xA1, 0xA2, 0xA3};
  const std::vector<uint8_t> second = {0xB1, 0xB2};
  ASSERT_TRUE(channel.Send(first).ok());   // duplicated, then delayed
  ASSERT_TRUE(channel.Send(second).ok());  // releases the delayed frame
  EXPECT_EQ(channel.duplicated(), 1u);
  EXPECT_EQ(channel.reordered(), 1u);
  std::vector<std::vector<uint8_t>> received;
  while (true) {
    auto frame = channel.Recv();
    if (!frame.ok()) {
      break;
    }
    received.push_back(std::move(*frame));
  }
  const std::vector<std::vector<uint8_t>> expected = {first, second, first};
  EXPECT_EQ(received, expected);
}

// --- Circuit breaker ------------------------------------------------------

TEST(CircuitBreaker, FullStateMachine) {
  BreakerConfig config;
  config.failure_threshold = 3;
  config.open_cooldown_ns = 100;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  breaker.RecordFailure(0);
  breaker.RecordFailure(1);
  EXPECT_EQ(breaker.state(2), BreakerState::kClosed);  // below threshold
  breaker.RecordFailure(2);
  EXPECT_EQ(breaker.state(3), BreakerState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_FALSE(breaker.Admit(50));  // cooling down: fail fast

  // Cooldown elapsed: half-open admits exactly one probe.
  EXPECT_EQ(breaker.state(102), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Admit(102));
  EXPECT_FALSE(breaker.Admit(103)) << "second probe admitted while one is in flight";
  breaker.RecordSuccess(110);
  EXPECT_EQ(breaker.state(111), BreakerState::kClosed);

  // A failed probe re-opens and restarts the cooldown.
  breaker.RecordFailure(200);
  breaker.RecordFailure(201);
  breaker.RecordFailure(202);
  EXPECT_EQ(breaker.state(203), BreakerState::kOpen);
  EXPECT_TRUE(breaker.Admit(310));
  breaker.RecordFailure(311);
  EXPECT_EQ(breaker.state(312), BreakerState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 3u);
  EXPECT_FALSE(breaker.Admit(330));

  // A success while closed clears the failure streak.
  breaker.Reset();
  breaker.RecordFailure(400);
  breaker.RecordFailure(401);
  breaker.RecordSuccess(402);
  breaker.RecordFailure(403);
  breaker.RecordFailure(404);
  EXPECT_EQ(breaker.state(405), BreakerState::kClosed);
}

// Regression for the half-open probe lock leak: a caller that admits a probe
// and then early-returns without reporting an outcome used to wedge the
// breaker half-open forever. The probe lock now lapses after open_cooldown_ns
// and a new probe is admitted.
TEST(CircuitBreaker, DroppedProbeLockLapsesAfterDeadline) {
  BreakerConfig config;
  config.failure_threshold = 3;
  config.open_cooldown_ns = 100;
  CircuitBreaker breaker(config);

  breaker.RecordFailure(0);
  breaker.RecordFailure(1);
  breaker.RecordFailure(2);
  EXPECT_EQ(breaker.state(103), BreakerState::kHalfOpen);

  // Probe admitted at t=103 ... and the caller drops it: no RecordSuccess,
  // no RecordFailure. Probe deadline = 103 + 100 = 203.
  ASSERT_TRUE(breaker.Admit(103));
  EXPECT_FALSE(breaker.Admit(150)) << "lock held while the probe could still land";
  EXPECT_FALSE(breaker.Admit(202));

  // The deadline passes: the lapsed probe no longer blocks recovery.
  EXPECT_TRUE(breaker.Admit(203)) << "dropped probe must lapse, not wedge";
  breaker.RecordSuccess(210);
  EXPECT_EQ(breaker.state(211), BreakerState::kClosed);

  // The deadline must not double-admit a live probe: a fresh half-open
  // breaker still holds the lock for a probe whose outcome arrives in time.
  breaker.RecordFailure(300);
  breaker.RecordFailure(301);
  breaker.RecordFailure(302);
  ASSERT_TRUE(breaker.Admit(403));
  EXPECT_FALSE(breaker.Admit(404));
  breaker.RecordFailure(405);  // probe failed: back to open, cooldown restarts
  EXPECT_EQ(breaker.state(406), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Admit(406));
}

// --- Measurement cache ----------------------------------------------------

TEST(MeasurementCache, EpochIsPartOfTheKey) {
  MeasurementCache cache(8);
  Digest m;
  m.bytes[0] = 0xAB;
  const MeasurementCacheKey epoch0{/*pcr_prefix=*/1, /*node=*/0, /*epoch=*/0,
                                   /*service=*/7};
  cache.Insert(epoch0, {m, 100});
  ASSERT_NE(cache.Lookup(epoch0), nullptr);

  // The same service on the same node after a recovery: different epoch,
  // different key — the stale entry is unreachable, not merely stale.
  MeasurementCacheKey epoch1 = epoch0;
  epoch1.epoch = 1;
  EXPECT_EQ(cache.Lookup(epoch1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  cache.InvalidateEpochsBelow(/*node=*/0, /*epoch=*/1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidated(), 1u);
  EXPECT_EQ(cache.Lookup(epoch0), nullptr);
}

TEST(MeasurementCache, LruEvictionAtCapacity) {
  MeasurementCache cache(2);
  Digest m;
  const MeasurementCacheKey a{1, 0, 0, 0};
  const MeasurementCacheKey b{1, 0, 0, 1};
  const MeasurementCacheKey c{1, 0, 0, 2};
  cache.Insert(a, {m, 1});
  cache.Insert(b, {m, 2});
  ASSERT_NE(cache.Lookup(a), nullptr);  // refresh a: b becomes LRU
  cache.Insert(c, {m, 3});
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
}

// Regression for the O(capacity) eviction scan replaced by the intrusive LRU
// list: the list must track EXACT recency order across interleaved hits, so
// evictions always take the true least-recently-used key, one per insert.
TEST(MeasurementCache, EvictionFollowsExactLruOrder) {
  MeasurementCache cache(4);
  Digest m;
  const MeasurementCacheKey a{1, 0, 0, 0};
  const MeasurementCacheKey b{1, 0, 0, 1};
  const MeasurementCacheKey c{1, 0, 0, 2};
  const MeasurementCacheKey d{1, 0, 0, 3};
  const MeasurementCacheKey e{1, 0, 0, 4};
  const MeasurementCacheKey f{1, 0, 0, 5};
  cache.Insert(a, {m, 1});
  cache.Insert(b, {m, 2});
  cache.Insert(c, {m, 3});
  cache.Insert(d, {m, 4});
  // Recency now (most to least): d c b a. Touch b, then d, then a.
  ASSERT_NE(cache.Lookup(b), nullptr);
  ASSERT_NE(cache.Lookup(d), nullptr);
  ASSERT_NE(cache.Lookup(a), nullptr);
  // Recency now: a d b c — so the next two evictions must be c, then b.
  cache.Insert(e, {m, 5});
  EXPECT_EQ(cache.Lookup(c), nullptr) << "c was LRU and must be the victim";
  cache.Insert(f, {m, 6});
  EXPECT_EQ(cache.Lookup(b), nullptr) << "b was next-LRU and must be the victim";
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_NE(cache.Lookup(d), nullptr);
  EXPECT_NE(cache.Lookup(e), nullptr);
  EXPECT_NE(cache.Lookup(f), nullptr);
  // A re-insert of an existing key refreshes, never grows or evicts.
  cache.Insert(a, {m, 7});
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
}

// The verified_at_ns staleness bugfix: with a TTL configured, an entry older
// than the bound reads as a miss, is erased, and counts as expired. TTL 0
// keeps the historical never-expires behavior.
TEST(MeasurementCache, TtlExpiresStaleEntries) {
  MeasurementCache cache(4, /*ttl_ns=*/100);
  Digest m;
  const MeasurementCacheKey key{1, 0, 0, 0};
  cache.Insert(key, {m, /*verified_at_ns=*/50});
  EXPECT_NE(cache.Lookup(key, /*now_ns=*/150), nullptr) << "within TTL";
  EXPECT_EQ(cache.Lookup(key, /*now_ns=*/151), nullptr) << "one past the bound";
  EXPECT_EQ(cache.expired(), 1u);
  EXPECT_EQ(cache.size(), 0u) << "expired entry must be erased, not just hidden";
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u) << "an expiry reads as a miss";

  // TTL off (the default): verified_at_ns is recorded but never enforced.
  MeasurementCache eternal(4);
  eternal.Insert(key, {m, 1});
  EXPECT_NE(eternal.Lookup(key, UINT64_MAX), nullptr);
  EXPECT_EQ(eternal.expired(), 0u);
}

// --- Zipf load shape ------------------------------------------------------

TEST(ZipfPicker, HeadIsHotterThanTail) {
  ZipfPicker zipf(16, 1.2);
  Prng prng(99);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 4000; ++i) {
    ++counts[zipf.Pick(prng)];
  }
  EXPECT_GT(counts[0], counts[8] * 2);
  EXPECT_GT(counts[0], counts[15] * 4);
}

// --- Front end: happy path, cache, and typed negative paths ---------------

TEST(FrontEnd, VerifiesThenServesFromCache) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  VerificationFrontEnd frontend(fleet.get());

  const auto first = frontend.Verify({/*service=*/0, /*nonce=*/0xD00D});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache);
  EXPECT_EQ(first->attempts, 1u);
  EXPECT_EQ(first->measurement, fleet->service(0).measurement);

  const auto second = frontend.Verify({/*service=*/0, /*nonce=*/0xD00E});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->measurement, fleet->service(0).measurement);
  EXPECT_EQ(frontend.cache().hits(), 1u);

  const std::string scrape = RenderPrometheus(frontend.metrics().Collect());
  for (const char* family :
       {"tyche_fleet_verifications_total", "tyche_fleet_retries_total",
        "tyche_fleet_hedged_total", "tyche_fleet_hedged_wins_total",
        "tyche_fleet_shed_total", "tyche_fleet_failover_total",
        "tyche_fleet_deadline_exceeded_total", "tyche_fleet_cache_hits_total",
        "tyche_fleet_cache_misses_total", "tyche_fleet_cache_hit_ratio_percent",
        "tyche_fleet_breaker_state", "tyche_fleet_node_epoch",
        "tyche_fleet_queue_depth"}) {
    EXPECT_NE(scrape.find(family), std::string::npos) << family;
  }
}

// Negative path 1 (ISSUE): a verification that cannot complete inside its
// deadline returns typed kDeadlineExceeded — within bounded simulated time,
// never a hang and never a partial success.
TEST(FrontEnd, DeadlineExceededQuoteIsTyped) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  VerificationFrontEnd frontend(fleet.get());

  const uint64_t start = fleet->clock().now_ns;
  VerifyRequest request{/*service=*/0, /*nonce=*/1};
  request.deadline_ns = 5;  // less than one wire poll step
  const auto verdict = frontend.Verify(request);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), ErrorCode::kDeadlineExceeded);
  FrontEndOptions defaults;
  EXPECT_LE(fleet->clock().now_ns - start,
            request.deadline_ns + 2 * defaults.poll_step_ns);
}

// Negative path 2 (ISSUE): a monitor mid-recovery answers with a typed,
// retryable error — not silence and not stale state. Once recovery
// completes, verification succeeds against the bumped epoch.
TEST(FrontEnd, MidRecoveryMonitorIsTypedRetryable) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  FrontEndOptions options;
  options.auto_failover = false;  // isolate the typed error path
  options.max_attempts = 2;
  VerificationFrontEnd frontend(fleet.get(), options);

  fleet->node(0)->BeginRecovery();
  const auto during = frontend.Verify({/*service=*/0, /*nonce=*/2});
  ASSERT_FALSE(during.ok());
  EXPECT_EQ(during.code(), ErrorCode::kUnavailable);

  ASSERT_TRUE(fleet->node(0)->Recover().ok());
  EXPECT_EQ(fleet->node(0)->epoch(), 1u);
  const auto after = frontend.Verify({/*service=*/0, /*nonce=*/3});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->epoch, 1u);
  EXPECT_EQ(after->measurement, fleet->service(0).measurement);
}

// Negative path 3 (ISSUE): a cached measurement whose epoch predates a
// failover must never be served. The epoch is part of the cache key AND the
// invalidation sweep purges it; post-failover verification takes the full
// wire path against the replica and yields the unchanged golden measurement.
TEST(FrontEnd, WrongEpochCachedMeasurementNeverServed) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  VerificationFrontEnd frontend(fleet.get());

  const auto before = frontend.Verify({/*service=*/0, /*nonce=*/4});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->node, 0u);
  EXPECT_EQ(frontend.cache().size(), 1u);

  fleet->node(0)->Crash();
  ASSERT_TRUE(frontend.TriggerFailover(0).ok());
  EXPECT_GE(frontend.cache().invalidated(), 1u);
  EXPECT_EQ(fleet->service(0).node, 1u);

  const auto after = frontend.Verify({/*service=*/0, /*nonce=*/5});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->from_cache) << "stale-epoch entry was served";
  EXPECT_EQ(after->node, 1u);
  EXPECT_EQ(after->measurement, fleet->service(0).measurement);
}

// A tampered report dies at signature/digest verification, is retried, and
// never enters the cache — the cache-poisoning defense.
TEST(FrontEnd, PoisonedReportRetriedAndNeverCached) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  VerificationFrontEnd frontend(fleet.get());

  FaultPlan plan = FaultPlan::Single(faults::kFleetCachePoison, 1);
  ScopedFaultPlan scoped(std::move(plan));
  const auto verdict = frontend.Verify({/*service=*/0, /*nonce=*/6});
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(FaultInjector::Instance().fired_count(), 1u);
  EXPECT_GE(verdict->attempts, 2u) << "poisoned report was not retried";
  EXPECT_EQ(verdict->measurement, fleet->service(0).measurement);
  EXPECT_EQ(frontend.cache().size(), 1u);
}

// The serialized-report helper rejects truncation, bit flips, wrong nonces,
// and wrong golden measurements with typed integrity errors.
TEST(VerifySerializedReport, RejectsTamperAndStaleNonce) {
  auto fleet = MakeFleet(/*nodes=*/1);
  ASSERT_NE(fleet, nullptr);
  MonitorNode* node = fleet->node(0);
  const ServiceRecord svc = fleet->service(0);
  const auto handle = FindUnitCap(*node->monitor(), node->os_domain(),
                                  ResourceKind::kDomain, svc.domain);
  ASSERT_TRUE(handle.ok());
  const auto report = node->monitor()->AttestDomain(0, *handle, /*nonce=*/77);
  ASSERT_TRUE(report.ok());
  const std::vector<uint8_t> wire = SerializeAttestation(*report);
  const SchnorrPublicKey key = node->monitor()->public_key();

  ASSERT_TRUE(VerifySerializedReport(wire, key, 77, &svc.measurement).ok());

  auto flipped = wire;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_FALSE(VerifySerializedReport(flipped, key, 77, &svc.measurement).ok());

  const std::vector<uint8_t> truncated(wire.begin(), wire.begin() + wire.size() / 2);
  EXPECT_FALSE(VerifySerializedReport(truncated, key, 77, &svc.measurement).ok());

  EXPECT_FALSE(VerifySerializedReport(wire, key, /*expected_nonce=*/78,
                                      &svc.measurement)
                   .ok())
      << "stale nonce accepted";

  Digest wrong = svc.measurement;
  wrong.bytes[0] ^= 0x01;
  EXPECT_FALSE(VerifySerializedReport(wire, key, 77, &wrong).ok());
}

// Bytes after the last field are covered by no digest or signature, so a
// report or identity carrying them does not parse.
TEST(VerifySerializedReport, RejectsTrailingBytes) {
  auto fleet = MakeFleet(/*nodes=*/1);
  ASSERT_NE(fleet, nullptr);
  MonitorNode* node = fleet->node(0);
  const ServiceRecord svc = fleet->service(0);
  const auto handle = FindUnitCap(*node->monitor(), node->os_domain(),
                                  ResourceKind::kDomain, svc.domain);
  ASSERT_TRUE(handle.ok());
  const auto report = node->monitor()->AttestDomain(0, *handle, /*nonce=*/77);
  ASSERT_TRUE(report.ok());
  std::vector<uint8_t> wire = SerializeAttestation(*report);
  const SchnorrPublicKey key = node->monitor()->public_key();
  ASSERT_TRUE(VerifySerializedReport(wire, key, 77, &svc.measurement).ok());
  wire.push_back(0);
  EXPECT_EQ(VerifySerializedReport(wire, key, 77, &svc.measurement).status().code(),
            ErrorCode::kAttestationMismatch);

  const auto identity = node->monitor()->Identity(/*nonce=*/5);
  ASSERT_TRUE(identity.ok());
  std::vector<uint8_t> identity_wire = SerializeMonitorIdentity(*identity);
  ASSERT_TRUE(DeserializeMonitorIdentity(identity_wire).ok());
  identity_wire.push_back(0);
  EXPECT_FALSE(DeserializeMonitorIdentity(identity_wire).ok());
}

// Hedged retry: when the primary's response is blackholed, the hedged
// duplicate (sent after hedge_delay_ns) wins within the same attempt.
TEST(FrontEnd, HedgedDuplicateWinsWhenResponseLost) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  FrontEndOptions options;
  options.hedge_delay_ns = 5'000;
  VerificationFrontEnd frontend(fleet.get(), options);

  // Occurrence 1 of fleet.verify_timeout is the identity response; 2 is the
  // first attest response — blackhole that one.
  FaultPlan plan = FaultPlan::Single(faults::kFleetVerifyTimeout, 2);
  ScopedFaultPlan scoped(std::move(plan));
  const auto verdict = frontend.Verify({/*service=*/0, /*nonce=*/8});
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(FaultInjector::Instance().fired_count(), 1u);
  EXPECT_GE(frontend.hedged(), 1u);
  EXPECT_TRUE(verdict->hedged_win);
  EXPECT_EQ(verdict->attempts, 1u) << "hedge should win within the attempt";
  EXPECT_EQ(verdict->measurement, fleet->service(0).measurement);
}

// Bounded admission: beyond queue_capacity requests shed with typed
// kOverloaded; cache-servable requests are still answered inline.
TEST(FrontEnd, OverloadShedsTypedAndPrefersCacheServable) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  FrontEndOptions options;
  options.queue_capacity = 2;
  VerificationFrontEnd frontend(fleet.get(), options);

  // Prime the cache for service 3 so it stays servable under overload.
  ASSERT_TRUE(frontend.Verify({/*service=*/3, /*nonce=*/9}).ok());

  ASSERT_TRUE(frontend.Submit({0, 10}).ok());
  ASSERT_TRUE(frontend.Submit({1, 11}).ok());
  const auto shed = frontend.Submit({2, 12});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(frontend.shed(), 1u);
  EXPECT_EQ(frontend.queue_depth(), 2u);

  const auto cached = frontend.Submit({3, 13});
  ASSERT_TRUE(cached.ok()) << "cache-servable request shed under overload";
  ASSERT_TRUE(cached->verdict.has_value());
  EXPECT_TRUE(cached->verdict->from_cache);

  const auto drained = frontend.DrainQueue();
  ASSERT_EQ(drained.size(), 2u);
  for (const auto& item : drained) {
    EXPECT_TRUE(item.result.ok()) << item.result.status().ToString();
  }
  EXPECT_EQ(frontend.queue_depth(), 0u);

  // The injected overflow site sheds even an empty queue — typed, no hang.
  FaultPlan plan = FaultPlan::Single(faults::kFleetQueueOverflow, 1);
  ScopedFaultPlan scoped(std::move(plan));
  const auto forced = frontend.Submit({4, 14});
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.code(), ErrorCode::kOverloaded);
}

// The full ladder driven purely by typed outcomes: a crashed node's breaker
// opens, a half-open probe fails, the node is declared down, failover
// recovers it from its journal and drains its domains to the replica, and
// the SAME Verify() call returns the golden measurement from the replica.
// Afterwards the two journals splice into one verifiable history.
TEST(FrontEnd, CrashFailoverEndToEndWithJournalSplice) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  VerificationFrontEnd frontend(fleet.get());

  fleet->node(0)->Crash();
  const auto verdict = frontend.Verify({/*service=*/0, /*nonce=*/15});
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->node, 1u);
  EXPECT_EQ(verdict->measurement, fleet->service(0).measurement);
  EXPECT_GE(verdict->attempts, 2u);

  EXPECT_EQ(frontend.failovers_triggered(), 1u);
  EXPECT_EQ(fleet->failovers(), 1u);
  EXPECT_GE(fleet->migrations(), 2u);  // both services homed on node 0 moved
  EXPECT_EQ(fleet->node(0)->epoch(), 1u);
  EXPECT_FALSE(fleet->node(0)->crashed());
  EXPECT_GE(frontend.breaker(0).times_opened(), 2u);

  const Status splice = VerifyJournalSplice(
      fleet->node(0)->monitor()->ExportJournal(),
      fleet->node(1)->monitor()->ExportJournal(),
      fleet->node(0)->monitor()->public_key(),
      fleet->node(1)->monitor()->public_key());
  EXPECT_TRUE(splice.ok()) << splice.ToString();
}

// --- Tenant quotas (DESIGN.md §13) ----------------------------------------

// Quota exhaustion is PER-TENANT and typed kQuotaExceeded — distinct from
// kOverloaded (the shared queue) — and one tenant burning its bucket must
// not affect another tenant's admission.
TEST(FrontEnd, QuotaExceededIsTypedPerTenant) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  FrontEndOptions options;
  options.tenant_quota.rate_per_sec = 1.0;
  options.tenant_quota.burst = 2.0;
  VerificationFrontEnd frontend(fleet.get(), options);

  const auto submit = [&](uint32_t service, uint64_t nonce, uint32_t tenant) {
    VerifyRequest request;
    request.service = service;
    request.nonce = nonce;
    request.tenant = tenant;
    return frontend.Submit(request);
  };

  // Tenant 1 spends its burst of 2, then hits its own wall.
  ASSERT_TRUE(submit(0, 1, /*tenant=*/1).ok());
  ASSERT_TRUE(submit(1, 2, /*tenant=*/1).ok());
  const auto rejected = submit(2, 3, /*tenant=*/1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), ErrorCode::kQuotaExceeded)
      << "quota exhaustion must be typed per-tenant, not kOverloaded";
  EXPECT_EQ(frontend.quota_rejections(), 1u);
  EXPECT_EQ(frontend.shed(), 0u) << "the shared queue was never full";

  // Fairness: tenant 2's bucket is its own — still admitted.
  ASSERT_TRUE(submit(2, 4, /*tenant=*/2).ok());

  // Refill: one simulated second grants tenant 1 another token.
  fleet->clock().Advance(1'000'000'000);
  ASSERT_TRUE(submit(3, 5, /*tenant=*/1).ok());

  const auto drained = frontend.DrainQueue();
  ASSERT_EQ(drained.size(), 4u);
  for (const auto& item : drained) {
    EXPECT_TRUE(item.result.ok()) << item.result.status().ToString();
  }

  const std::string scrape = RenderPrometheus(frontend.metrics().Collect());
  for (const char* family :
       {"tyche_fleet_tenant_admitted_total",
        "tyche_fleet_tenant_quota_exceeded_total", "tyche_fleet_tenant_tokens"}) {
    EXPECT_NE(scrape.find(family), std::string::npos) << family;
  }
}

// --- Batched drain (DESIGN.md §13) ----------------------------------------

// DrainQueue groups same-node requests and verifies their quotes with ONE
// batched Schnorr check; verdicts match what serial Verify() would produce.
TEST(FrontEnd, DrainQueueBatchesSameNodeRequests) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  VerificationFrontEnd frontend(fleet.get());

  // Services 0 and 1 are homed on node 0; service 4 on node 2. The head run
  // {0, 1} batches; the singleton {4} takes the serial path.
  ASSERT_TRUE(frontend.Submit({0, 20}).ok());
  ASSERT_TRUE(frontend.Submit({1, 21}).ok());
  ASSERT_TRUE(frontend.Submit({4, 22}).ok());

  const auto drained = frontend.DrainQueue();
  ASSERT_EQ(drained.size(), 3u);
  for (const auto& item : drained) {
    ASSERT_TRUE(item.result.ok()) << item.result.status().ToString();
    EXPECT_TRUE(item.result->measurement ==
                fleet->service(item.request.service).measurement);
    EXPECT_EQ(item.result->attempts, 1u);
  }
  EXPECT_EQ(frontend.batch_verifies(), 1u);
  EXPECT_EQ(frontend.batch_quotes(), 2u);
  EXPECT_EQ(frontend.batch_forged(), 0u);
  EXPECT_EQ(frontend.batch_fallbacks(), 0u);

  // Batched results are cached exactly like serial ones.
  const auto repeat = frontend.Submit({0, 23});
  ASSERT_TRUE(repeat.ok());
  ASSERT_TRUE(repeat->verdict.has_value());
  EXPECT_TRUE(repeat->verdict->from_cache);

  const std::string scrape = RenderPrometheus(frontend.metrics().Collect());
  for (const char* family :
       {"tyche_fleet_batch_verifies_total", "tyche_fleet_batch_quotes_total",
        "tyche_fleet_batch_forged_total", "tyche_fleet_batch_fallback_total",
        "tyche_fleet_session_established_total",
        "tyche_fleet_session_resumed_total",
        "tyche_fleet_session_rejected_total",
        "tyche_fleet_cache_expired_total"}) {
    EXPECT_NE(scrape.find(family), std::string::npos) << family;
  }
}

// The fleet.batch_forge site: one quote inside a batch is tampered in
// transit. The batch verification's fallback must attribute the forgery to
// THAT quote — it is rejected and re-verified clean through the full serial
// path, while the rest of the batch is served from the batch round.
TEST(FrontEnd, BatchForgedQuoteAttributedAndRetriedClean) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  VerificationFrontEnd frontend(fleet.get());

  ASSERT_TRUE(frontend.Submit({0, 30}).ok());
  ASSERT_TRUE(frontend.Submit({1, 31}).ok());

  FaultPlan plan = FaultPlan::Single(faults::kFleetBatchForge, 1);
  ScopedFaultPlan scoped(std::move(plan));
  const auto drained = frontend.DrainQueue();
  EXPECT_EQ(FaultInjector::Instance().fired_count(), 1u);

  ASSERT_EQ(drained.size(), 2u);
  for (const auto& item : drained) {
    ASSERT_TRUE(item.result.ok()) << item.result.status().ToString();
    EXPECT_TRUE(item.result->measurement ==
                fleet->service(item.request.service).measurement)
        << "a forged quote must never surface as a verdict";
  }
  EXPECT_EQ(frontend.batch_verifies(), 1u);
  EXPECT_EQ(frontend.batch_forged(), 1u) << "the forgery must be attributed";
  EXPECT_EQ(frontend.batch_fallbacks(), 1u);
}

// --- Session resumption (DESIGN.md §13) -----------------------------------

// After one full two-tier verify, repeat verifications present the
// epoch-bound token and skip the chain walk: one wire round instead of
// identity + attest, and the verdict is marked resumed.
TEST(FrontEnd, SessionResumptionSkipsChainWalk) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  FrontEndOptions options;
  options.cache_capacity = 0;  // force every verification onto the wire
  VerificationFrontEnd frontend(fleet.get(), options);

  const auto first = frontend.Verify({/*service=*/0, /*nonce=*/40});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->resumed);
  EXPECT_EQ(frontend.sessions_established(), 1u);

  const uint64_t served_before = fleet->node(0)->served();
  const auto second = frontend.Verify({/*service=*/0, /*nonce=*/41});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->resumed);
  EXPECT_EQ(second->attempts, 1u);
  EXPECT_TRUE(second->measurement == fleet->service(0).measurement);
  EXPECT_EQ(frontend.sessions_resumed(), 1u);
  EXPECT_EQ(fleet->node(0)->served() - served_before, 1u)
      << "a resumed verify is one wire round, not identity + attest";

  // The session is per NODE: service 1 shares node 0 and resumes too.
  const auto sibling = frontend.Verify({/*service=*/1, /*nonce=*/42});
  ASSERT_TRUE(sibling.ok());
  EXPECT_TRUE(sibling->resumed);
  EXPECT_EQ(frontend.sessions_resumed(), 2u);
  EXPECT_EQ(frontend.sessions_established(), 1u);
}

// An epoch bump the front end did NOT drive (the node recovered behind its
// back) makes the held token stale. The node answers a typed
// kFailedPrecondition; the front end drops the session, completes the full
// chain walk in the same attempt, and the breaker is never tripped.
TEST(FrontEnd, StaleSessionTokenRejectedAfterEpochBump) {
  auto fleet = MakeFleet();
  ASSERT_NE(fleet, nullptr);
  FrontEndOptions options;
  options.cache_capacity = 0;
  VerificationFrontEnd frontend(fleet.get(), options);

  ASSERT_TRUE(frontend.Verify({/*service=*/0, /*nonce=*/50}).ok());
  ASSERT_EQ(frontend.sessions_established(), 1u);

  // The node recovers on its own: epoch 0 -> 1, every outstanding token dies.
  ASSERT_TRUE(fleet->node(0)->Recover().ok());
  ASSERT_EQ(fleet->node(0)->epoch(), 1u);

  const auto verdict = frontend.Verify({/*service=*/0, /*nonce=*/51});
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_FALSE(verdict->resumed) << "stale token must fall back to the chain walk";
  EXPECT_EQ(verdict->epoch, 1u);
  EXPECT_EQ(verdict->attempts, 1u) << "the fallback runs within the same attempt";
  EXPECT_EQ(frontend.sessions_rejected(), 1u);
  EXPECT_EQ(frontend.breaker(0).times_opened(), 0u)
      << "a stale token says nothing about the node's health";

  // The full verify against the new instance re-establishes a session …
  EXPECT_EQ(frontend.sessions_established(), 2u);
  // … and the next repeat resumes against epoch 1.
  const auto resumed = frontend.Verify({/*service=*/0, /*nonce=*/52});
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->epoch, 1u);
}

// --- Wire format known answers --------------------------------------------

// The fleet frames and session MACs are wire formats: a codec change that
// alters one byte breaks every deployed peer. Values captured from the
// byte-at-a-time SectionWriter codec the exact-size encoders replaced.

std::string HexBytes(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Digest PatternDigest(uint8_t start) {
  Digest digest;
  for (size_t i = 0; i < digest.bytes.size(); ++i) {
    digest.bytes[i] = static_cast<uint8_t>(start + 7 * i);
  }
  return digest;
}

FleetRequest PinnedRequest() {
  FleetRequest request;
  request.request_id = 0x0123456789ABCDEFull;
  request.kind = FleetRequestKind::kResume;
  request.domain = 0xA1B2C3D4;
  request.nonce = 0x1122334455667788ull;
  request.client_pub = 0x0FEDCBA987654321ull;
  request.token = PatternDigest(0x40);
  return request;
}

FleetResponse PinnedResponse() {
  FleetResponse response;
  response.request_id = 0x00000000DEADBEEFull;
  response.code = ErrorCode::kFailedPrecondition;
  response.payload = {0x01, 0x02, 0x03, 0xFE, 0xFF};
  return response;
}

TEST(FleetWire, RequestBytesArePinned) {
  const std::vector<uint8_t> frame = EncodeFleetRequest(PinnedRequest());
  EXPECT_EQ(HexBytes(frame),
            "0170e3f1efcdab896745230102d4c3b2a1887766554433221121436587a9cbed0f"
            "40474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b1219");
  FleetRequest decoded;
  ASSERT_TRUE(DecodeFleetRequest(frame, &decoded));
  EXPECT_EQ(HexBytes(EncodeFleetRequest(decoded)), HexBytes(frame));
}

TEST(FleetWire, ResponseBytesArePinned) {
  const std::vector<uint8_t> frame = EncodeFleetResponse(PinnedResponse());
  EXPECT_EQ(HexBytes(frame), "0270e3f1efbeadde000000000605000000010203feff");
  FleetResponse decoded;
  ASSERT_TRUE(DecodeFleetResponse(frame, &decoded));
  EXPECT_EQ(decoded.request_id, PinnedResponse().request_id);
  EXPECT_EQ(decoded.code, PinnedResponse().code);
  EXPECT_EQ(decoded.payload, PinnedResponse().payload);
  FleetResponse empty;
  empty.request_id = 7;
  EXPECT_EQ(HexBytes(EncodeFleetResponse(empty)), "0270e3f107000000000000000000000000");
}

TEST(FleetWire, SessionMacsArePinned) {
  const Digest secret = PatternDigest(0x11);
  EXPECT_EQ(FleetSessionToken(secret, 2, 0x0102030405060708ull).ToHex(),
            "e6bc12b6da51def440d89ab650ca3378009fb1bdd0b822ba867bf20af4e203af");
  EXPECT_EQ(FleetSessionAck(secret, 2, 0x0102030405060708ull, 0xA1B2C3D4,
                            0x1122334455667788ull, PatternDigest(0x80))
                .ToHex(),
            "7cfcee7748db66183b2ea09cd0d92a8459159d1a9d052cd2d3ddb65f68cc42d4");
}

// The length field must name exactly the bytes that follow it.
TEST(FleetWire, ResponseDecodeRefusesALengthThatDisagreesWithTheFrame) {
  const std::vector<uint8_t> frame = EncodeFleetResponse(PinnedResponse());
  constexpr size_t kLengthAt = 4 + 8 + 1;  // magic, request id, code
  FleetResponse out;
  for (const int delta : {-1, +1}) {
    std::vector<uint8_t> edited = frame;
    edited[kLengthAt] = static_cast<uint8_t>(edited[kLengthAt] + delta);
    EXPECT_FALSE(DecodeFleetResponse(edited, &out)) << "length off by " << delta;
  }
  std::vector<uint8_t> trailing = frame;
  trailing.push_back(0x00);
  EXPECT_FALSE(DecodeFleetResponse(trailing, &out));
  const std::vector<uint8_t> truncated(frame.begin(), frame.end() - 1);
  EXPECT_FALSE(DecodeFleetResponse(truncated, &out));
  const std::vector<uint8_t> header_only(frame.begin(), frame.begin() + kLengthAt);
  EXPECT_FALSE(DecodeFleetResponse(header_only, &out));
}

// Node-side token validation is STATELESS: the node derives the shared
// secret from the request's client_pub and recomputes the epoch-bound token.
// Wrong epoch, wrong key, and unknown domain each get their typed answer.
TEST(FrontEnd, NodeStatelesslyValidatesResumeTokens) {
  auto fleet = MakeFleet(/*nodes=*/1);
  ASSERT_NE(fleet, nullptr);
  MonitorNode* node = fleet->node(0);

  const uint8_t seed[] = {'r', 'e', 's', 'u', 'm', 'e', '-', 't'};
  const SchnorrKeyPair client = DeriveKeyPair(seed);
  const Digest secret = node->monitor()->SessionSecret(client.pub);

  const auto roundtrip = [&](const FleetRequest& request) {
    FleetResponse response;
    response.code = ErrorCode::kInternal;
    EXPECT_TRUE(node->requests()->Send(EncodeFleetRequest(request)).ok());
    node->Pump();
    const auto frame = node->responses()->Recv();
    EXPECT_TRUE(frame.ok());
    if (frame.ok()) {
      EXPECT_TRUE(DecodeFleetResponse(*frame, &response));
    }
    return response;
  };

  FleetRequest request;
  request.request_id = 1;
  request.kind = FleetRequestKind::kResume;
  request.domain = fleet->service(0).domain;
  request.nonce = 0x60;
  request.client_pub = client.pub.y;
  request.token = FleetSessionToken(secret, node->id(), node->epoch());

  // A valid token gets measurement + ack MAC, both checkable by the holder
  // of the shared secret.
  const FleetResponse ok = roundtrip(request);
  EXPECT_EQ(ok.code, ErrorCode::kOk);
  ASSERT_EQ(ok.payload.size(), kResumePayloadSize);
  Digest measurement;
  Digest ack;
  std::copy(ok.payload.begin(), ok.payload.begin() + 32, measurement.bytes.begin());
  std::copy(ok.payload.begin() + 32, ok.payload.end(), ack.bytes.begin());
  EXPECT_TRUE(measurement == fleet->service(0).measurement);
  EXPECT_TRUE(ack == FleetSessionAck(secret, node->id(), node->epoch(),
                                     request.domain, request.nonce, measurement));

  // A token minted for a different epoch is refused with kFailedPrecondition.
  request.request_id = 2;
  request.token = FleetSessionToken(secret, node->id(), node->epoch() + 1);
  EXPECT_EQ(roundtrip(request).code, ErrorCode::kFailedPrecondition);

  // A token under the wrong shared secret (attacker with a different key
  // replaying someone's token) is likewise refused.
  const uint8_t other_seed[] = {'o', 't', 'h', 'e', 'r', '-', 'k', 'y'};
  const SchnorrKeyPair other = DeriveKeyPair(other_seed);
  request.request_id = 3;
  request.client_pub = other.pub.y;
  request.token = FleetSessionToken(secret, node->id(), node->epoch());
  EXPECT_EQ(roundtrip(request).code, ErrorCode::kFailedPrecondition);

  // A valid token for a nonexistent domain: kNotFound, no payload.
  request.request_id = 4;
  request.client_pub = client.pub.y;
  request.domain = 0xDEAD;
  EXPECT_EQ(roundtrip(request).code, ErrorCode::kNotFound);
}

// --- Scale: thousands of domains per node (DESIGN.md §13) -----------------

// With window_stride auto the fleet packs service windows tightly, so ~1k
// domains per node fit inside the 64 MiB simulated machines; verification,
// batching, and caching behave identically at that scale.
TEST(FrontEnd, ThousandsOfDomainsPerNodeTightStride) {
  FleetOptions options;
  options.num_nodes = 2;
  options.services_per_node = 1024;
  options.pages_per_service = 1;
  auto fleet = Fleet::Create(options);
  ASSERT_NE(fleet, nullptr);
  ASSERT_EQ(fleet->num_services(), 2048u);

  VerificationFrontEnd frontend(fleet.get());
  for (const uint32_t service : {0u, 1023u, 1024u, 2047u}) {
    const auto verdict = frontend.Verify({service, /*nonce=*/0x7000 + service});
    ASSERT_TRUE(verdict.ok()) << "service " << service << ": "
                              << verdict.status().ToString();
    EXPECT_TRUE(verdict->measurement == fleet->service(service).measurement);
  }

  // A full batch drains through one Schnorr check even at this density.
  for (uint32_t service = 8; service < 16; ++service) {
    ASSERT_TRUE(frontend.Submit({service, 0x7100 + service}).ok());
  }
  const auto drained = frontend.DrainQueue();
  ASSERT_EQ(drained.size(), 8u);
  for (const auto& item : drained) {
    ASSERT_TRUE(item.result.ok()) << item.result.status().ToString();
    EXPECT_TRUE(item.result->measurement ==
                fleet->service(item.request.service).measurement);
  }
  EXPECT_EQ(frontend.batch_verifies(), 1u);
  EXPECT_EQ(frontend.batch_quotes(), 8u);
}

}  // namespace
}  // namespace tyche
