// Copyright 2026 The Tyche Reproduction Authors.
// Second batch of capability-engine tests: unit-resource lineage, restore
// semantics, view limits, purge interactions -- the paths the first batch
// and the property test exercise only incidentally.

#include <gtest/gtest.h>

#include "src/capability/engine.h"
#include "src/support/faults.h"
#include "tests/testing/cap_dump.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

class EngineEdgeTest : public ::testing::Test {
 protected:
  EngineEdgeTest() {
    engine_.RegisterDomain(0, CapabilityEngine::kNoCreator);
    engine_.RegisterDomain(1, 0);
    engine_.RegisterDomain(2, 0);
  }

  CapabilityEngine engine_;
};

TEST_F(EngineEdgeTest, GrantUnitRevokeRestoresHolder) {
  const CapId core = *engine_.MintUnit(0, ResourceKind::kCpuCore, 3,
                                       CapRights(CapRights::kAll));
  const auto grant = engine_.GrantUnit(0, core, 1, CapRights(CapRights::kAll),
                                       RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  EXPECT_FALSE(engine_.HasUnit(0, ResourceKind::kCpuCore, 3));
  EXPECT_TRUE(engine_.HasUnit(1, ResourceKind::kCpuCore, 3));

  const auto revoke = engine_.Revoke(0, grant->granted);
  ASSERT_TRUE(revoke.ok());
  EXPECT_NE(revoke->restored, kInvalidCap);
  EXPECT_TRUE(engine_.HasUnit(0, ResourceKind::kCpuCore, 3));
  EXPECT_FALSE(engine_.HasUnit(1, ResourceKind::kCpuCore, 3));
  // The restore effect names the unit for the backend.
  bool saw_attach = false;
  for (const CapEffect& effect : revoke->effects.effects) {
    if (effect.kind == CapEffect::Kind::kAttachUnit && effect.domain == 0) {
      saw_attach = true;
      EXPECT_EQ(effect.unit, 3u);
    }
  }
  EXPECT_TRUE(saw_attach);
}

TEST_F(EngineEdgeTest, RevokeOfRestoreCreatesNoSecondRestore) {
  const CapId core = *engine_.MintUnit(0, ResourceKind::kCpuCore, 1,
                                       CapRights(CapRights::kAll));
  const auto grant = engine_.GrantUnit(0, core, 1, CapRights(CapRights::kAll),
                                       RevocationPolicy{});
  const auto first = engine_.Revoke(0, grant->granted);
  ASSERT_TRUE(first.ok());
  const auto second = engine_.Revoke(0, first->restored);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->restored, kInvalidCap);  // dropping a restore is final
  EXPECT_FALSE(engine_.HasUnit(0, ResourceKind::kCpuCore, 1));
}

TEST_F(EngineEdgeTest, DomainHandlesAreShareableUnits) {
  const CapId handle = *engine_.MintUnit(0, ResourceKind::kDomain, 2,
                                         CapRights(CapRights::kAll));
  CapEffects effects;
  const auto shared = engine_.ShareUnit(0, handle, 1, CapRights(CapRights::kManage),
                                        RevocationPolicy{}, &effects);
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(engine_.HasUnit(1, ResourceKind::kDomain, 2));
  // Attenuation holds for handles too.
  EXPECT_FALSE((*engine_.Get(*shared))->rights.CanShare());
  EXPECT_TRUE((*engine_.Get(*shared))->rights.CanManage());
}

TEST_F(EngineEdgeTest, MemoryViewHonoursWithin) {
  (void)*engine_.MintMemory(0, AddrRange{0, 4 * kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  (void)*engine_.MintMemory(0, AddrRange{64 * kMiB, 4 * kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  const auto full = engine_.MemoryView();
  const auto limited = engine_.MemoryView(AddrRange{0, 8 * kMiB});
  EXPECT_EQ(full.size(), 2u);
  ASSERT_EQ(limited.size(), 1u);
  EXPECT_EQ(limited[0].range.base, 0u);

  // A cap straddling either clip edge is cut at the edge, and the holder
  // set of the clipped piece is the one inside the clip.
  (void)*engine_.MintMemory(1, AddrRange{2 * kMiB, 8 * kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  const auto straddled = engine_.MemoryView(AddrRange{3 * kMiB, 4 * kMiB});
  ASSERT_EQ(straddled.size(), 2u);
  EXPECT_EQ(straddled[0].range, (AddrRange{3 * kMiB, kMiB}));
  EXPECT_EQ(straddled[0].domains, (std::vector<CapDomainId>{0, 1}));
  EXPECT_EQ(straddled[1].range, (AddrRange{4 * kMiB, 3 * kMiB}));
  EXPECT_EQ(straddled[1].domains, (std::vector<CapDomainId>{1}));
  // Clipping inside one region yields that region, cut to the clip.
  const auto inside = engine_.MemoryView(AddrRange{65 * kMiB, kPageSize});
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_EQ(inside[0].range, (AddrRange{65 * kMiB, kPageSize}));
  // A clip over unheld memory is empty.
  EXPECT_TRUE(engine_.MemoryView(AddrRange{32 * kMiB, kMiB}).empty());
}

TEST_F(EngineEdgeTest, ExclusivelyOwnedRefusesAWrappingRange) {
  (void)*engine_.MintMemory(0, AddrRange{0, 4 * kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  EXPECT_TRUE(engine_.ExclusivelyOwned(0, AddrRange{0, kMiB}));
  // base + size overflows: no byte of such a range can be owned.
  EXPECT_FALSE(engine_.ExclusivelyOwned(0, AddrRange{~0ull - kPageSize + 1, 2 * kPageSize}));
}

TEST_F(EngineEdgeTest, PurgeRestoresGrantorsOfReceivedGrants) {
  // Domain 1 received a grant from domain 0. Purging domain 1 must give the
  // memory back to domain 0 (with the restore capability).
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  const auto grant = engine_.GrantMemory(0, root, 1, AddrRange{0, kMiB},
                                         Perms(Perms::kRW), CapRights(CapRights::kAll),
                                         RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(engine_.EffectivePerms(0, 0).empty());
  const auto purge = engine_.PurgeDomain(1);
  ASSERT_TRUE(purge.ok());
  // The restore carries the PARENT capability's permissions: the grantor
  // regains what it originally had (RWX), not the attenuated grant.
  EXPECT_EQ(engine_.EffectivePerms(0, 0).mask, Perms::kRWX);
  EXPECT_FALSE(engine_.IsRegistered(1));
}

TEST_F(EngineEdgeTest, PurgeUnregisteredDomainFails) {
  EXPECT_EQ(engine_.PurgeDomain(42).code(), ErrorCode::kNotFound);
}

TEST_F(EngineEdgeTest, CaptureRestoreRoundTripsAfterPurge) {
  // A donated node outlives the domain that donated it when its live pieces
  // survive, so after a purge the engine legitimately holds an inactive cap
  // owned by a now-unregistered domain. Capture of that state must
  // round-trip through Restore (regression: migration staging rejected any
  // destination that had ever been a migration source).
  const CapId root = *engine_.MintMemory(1, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  const auto grant = engine_.GrantMemory(1, root, 2, AddrRange{0, kMiB},
                                         Perms(Perms::kRW), CapRights(CapRights::kAll),
                                         RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(engine_.PurgeDomain(1).ok());
  ASSERT_FALSE(engine_.IsRegistered(1));
  ASSERT_EQ((*engine_.Get(root))->state, CapState::kDonated);

  CapabilityEngine copy;
  ASSERT_TRUE(copy.Restore(engine_.Capture()).ok());
  EXPECT_EQ(copy.EffectivePerms(2, 0).mask, Perms::kRW);
  EXPECT_FALSE(copy.IsRegistered(1));
  EXPECT_TRUE(copy.CheckOwnedIndex().ok());
  // An ACTIVE cap with an unregistered owner is still corruption, and so is
  // a revoked node: a live engine reclaims those.
  for (const CapState state : {CapState::kActive, CapState::kRevoked}) {
    EngineImage bad = engine_.Capture();
    for (Capability& cap : bad.caps) {
      if (cap.id == root) {
        cap.state = state;
      }
    }
    CapabilityEngine reject;
    EXPECT_EQ(reject.Restore(bad).code(), ErrorCode::kInvalidArgument);
  }
}

TEST_F(EngineEdgeTest, GrantBackToAPurgedGrantorReclaimsTheDeadAncestry) {
  // Domain 1 grants part of its memory to 2 and dies. When 2 later drops the
  // grant there is no one to return it to: no restore cap for a dead owner,
  // and the donated node with nothing left below it is reclaimed too.
  const CapId root = *engine_.MintMemory(1, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  const auto grant = engine_.GrantMemory(1, root, 2, AddrRange{0, kMiB / 2},
                                         Perms(Perms::kRW), CapRights(CapRights::kAll),
                                         RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(engine_.PurgeDomain(1).ok());
  ASSERT_EQ(engine_.total_caps(), 2u);  // the donated root anchors the grant

  const auto dropped = engine_.Revoke(2, grant->granted);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->restored, kInvalidCap);
  EXPECT_EQ(engine_.total_caps(), 0u);
  EXPECT_EQ(engine_.Get(root).code(), ErrorCode::kCapabilityRevoked);
  CapabilityEngine copy;
  EXPECT_TRUE(copy.Restore(engine_.Capture()).ok());
  EXPECT_TRUE(engine_.CheckOwnedIndex().ok());
}

TEST_F(EngineEdgeTest, RevokeAuthorizationViaParentNeedsRevokeRight) {
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  CapEffects effects;
  // Domain 1 gets a cap WITHOUT revoke rights, shares onward to domain 2.
  const CapId mid = *engine_.ShareMemory(0, root, 1, AddrRange{0, kMiB},
                                         Perms(Perms::kRW),
                                         CapRights(CapRights::kShare), RevocationPolicy{},
                                         &effects);
  const CapId leaf = *engine_.ShareMemory(1, mid, 2, AddrRange{0, kMiB},
                                          Perms(Perms::kRead), CapRights{},
                                          RevocationPolicy{}, &effects);
  // Domain 1 owns `mid` (leaf's parent) but lacks kRevoke: it cannot revoke
  // the leaf...
  EXPECT_EQ(engine_.Revoke(1, leaf).code(), ErrorCode::kCapabilityRightsViolation);
  // ... though domain 2 may always drop its own.
  EXPECT_TRUE(engine_.Revoke(2, leaf).ok());
}

TEST_F(EngineEdgeTest, ShareUnitValidation) {
  const CapId mem = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                        CapRights(CapRights::kAll));
  CapEffects effects;
  // Memory caps must go through ShareMemory.
  EXPECT_EQ(engine_.ShareUnit(0, mem, 1, CapRights{}, RevocationPolicy{}, &effects).code(),
            ErrorCode::kInvalidArgument);
  const CapId core = *engine_.MintUnit(0, ResourceKind::kCpuCore, 0, CapRights{});
  // Without the share right.
  EXPECT_EQ(engine_.ShareUnit(0, core, 1, CapRights{}, RevocationPolicy{}, &effects).code(),
            ErrorCode::kCapabilityRightsViolation);
  // Unit caps must not go through ShareMemory.
  const CapId core2 = *engine_.MintUnit(0, ResourceKind::kCpuCore, 1,
                                        CapRights(CapRights::kAll));
  EXPECT_EQ(engine_
                .ShareMemory(0, core2, 1, AddrRange{0, kMiB}, Perms(Perms::kRW),
                             CapRights{}, RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(EngineEdgeTest, ExclusivelyOwnedNeedsFullCoverage) {
  (void)*engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  (void)*engine_.MintMemory(0, AddrRange{2 * kMiB, kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll));
  // The hole at [1M, 2M) breaks coverage.
  EXPECT_FALSE(engine_.ExclusivelyOwned(0, AddrRange{0, 3 * kMiB}));
  EXPECT_TRUE(engine_.ExclusivelyOwned(0, AddrRange{0, kMiB}));
  EXPECT_TRUE(engine_.ExclusivelyOwned(0, AddrRange{2 * kMiB, kMiB}));
}

TEST_F(EngineEdgeTest, RevokeRootOfCircularShareKillsTheWholeLoop) {
  // 0 -> 1 -> 2 -> 1: a cycle in the domain graph, still a tree in the
  // lineage graph. Revoking the root must cascade through every cap in the
  // loop -- including the one 1 received "back" from 2.
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  CapEffects effects;
  const CapId to_1 = *engine_.ShareMemory(0, root, 1, AddrRange{0, kMiB},
                                          Perms(Perms::kRW), CapRights(CapRights::kAll),
                                          RevocationPolicy{}, &effects);
  const CapId to_2 = *engine_.ShareMemory(1, to_1, 2, AddrRange{0, kMiB / 2},
                                          Perms(Perms::kRW), CapRights(CapRights::kAll),
                                          RevocationPolicy{}, &effects);
  const CapId back_to_1 = *engine_.ShareMemory(2, to_2, 1, AddrRange{0, kMiB / 4},
                                               Perms(Perms::kRead), CapRights{},
                                               RevocationPolicy{}, &effects);
  ASSERT_FALSE(engine_.EffectivePerms(2, 0).empty());

  const auto revoked = engine_.Revoke(0, to_1);
  ASSERT_TRUE(revoked.ok());
  EXPECT_EQ(revoked->revoked_count, 3u);  // to_1, to_2, back_to_1
  for (const CapId cap : {to_1, to_2, back_to_1}) {
    EXPECT_EQ(engine_.Get(cap).code(), ErrorCode::kCapabilityRevoked);
  }
  EXPECT_TRUE(engine_.EffectivePerms(1, 0).empty());
  EXPECT_TRUE(engine_.EffectivePerms(2, 0).empty());
  // The root itself survives with full access.
  EXPECT_EQ(engine_.EffectivePerms(0, 0).mask, Perms::kRWX);
}

TEST_F(EngineEdgeTest, PurgeDomainInsideCircularShareLeavesPeersSound) {
  // 1 and 2 hold slices of each other's view; purging 1 must deactivate the
  // whole derivation chain that passes through 1, even the part owned by 2,
  // without touching what 2 holds independently.
  const CapId root = *engine_.MintMemory(0, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  CapEffects effects;
  const CapId to_1 = *engine_.ShareMemory(0, root, 1, AddrRange{0, kMiB},
                                          Perms(Perms::kRW), CapRights(CapRights::kAll),
                                          RevocationPolicy{}, &effects);
  const CapId to_2 = *engine_.ShareMemory(1, to_1, 2, AddrRange{0, kMiB / 2},
                                          Perms(Perms::kRW), CapRights(CapRights::kAll),
                                          RevocationPolicy{}, &effects);
  (void)*engine_.ShareMemory(2, to_2, 1, AddrRange{0, kMiB / 4}, Perms(Perms::kRead),
                             CapRights{}, RevocationPolicy{}, &effects);
  // 2 also holds an independent slice straight from 0.
  const CapId direct_to_2 = *engine_.ShareMemory(0, root, 2,
                                                 AddrRange{kMiB / 2, kMiB / 2},
                                                 Perms(Perms::kRead), CapRights{},
                                                 RevocationPolicy{}, &effects);

  const auto purge = engine_.PurgeDomain(1);
  ASSERT_TRUE(purge.ok());
  EXPECT_FALSE(engine_.IsRegistered(1));
  // Everything derived through 1 is dead -- including 2's received slice.
  EXPECT_EQ(engine_.Get(to_2).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_TRUE(engine_.EffectivePerms(2, 0).empty());
  // The independent slice survives untouched.
  EXPECT_TRUE((*engine_.Get(direct_to_2))->active());
  EXPECT_EQ(engine_.EffectivePerms(2, kMiB / 2).mask, Perms::kRead);
  // Purge-generated effects must name the SURVIVING domain's lost range so
  // the backend resyncs it -- not just the purged domain's.
  bool unmaps_peer = false;
  for (const CapEffect& effect : purge->effects.effects) {
    if (effect.kind == CapEffect::Kind::kUnmapMemory && effect.domain == 2) {
      unmaps_peer = true;
    }
  }
  EXPECT_TRUE(unmaps_peer);
}

TEST_F(EngineEdgeTest, CapToStringIsInformative) {
  const CapId mem = *engine_.MintMemory(0, AddrRange{0x1000, 0x1000}, Perms(Perms::kRW),
                                        CapRights(CapRights::kAll));
  const std::string text = CapToString(**engine_.Get(mem));
  EXPECT_NE(text.find("memory"), std::string::npos);
  EXPECT_NE(text.find("rw-"), std::string::npos);
  EXPECT_NE(text.find("active"), std::string::npos);
  const CapId core = *engine_.MintUnit(0, ResourceKind::kCpuCore, 5, CapRights{});
  EXPECT_NE(CapToString(**engine_.Get(core)).find("unit=5"), std::string::npos);
}

TEST_F(EngineEdgeTest, SealedDomainMayGrantToOwnChild) {
  // The nested-enclave allowance covers grants, not just shares.
  engine_.RegisterDomain(7, /*creator=*/1);
  const CapId root = *engine_.MintMemory(1, AddrRange{0, kMiB}, Perms(Perms::kRWX),
                                         CapRights(CapRights::kAll));
  engine_.SealDomain(1);
  const auto grant = engine_.GrantMemory(1, root, 7, AddrRange{0, kMiB},
                                         Perms(Perms::kRW), CapRights(CapRights::kAll),
                                         RevocationPolicy{});
  EXPECT_TRUE(grant.ok());
  // But not to a stranger (domain 2, created by 0).
  engine_.RegisterDomain(8, 1);
  const CapId root2 = *engine_.MintMemory(8, AddrRange{2 * kMiB, kMiB},
                                          Perms(Perms::kRWX), CapRights(CapRights::kAll));
  engine_.SealDomain(8);
  const auto leak = engine_.GrantMemory(8, root2, 2, AddrRange{2 * kMiB, kMiB},
                                        Perms(Perms::kRW), CapRights{}, RevocationPolicy{});
  EXPECT_EQ(leak.code(), ErrorCode::kDomainSealed);
}

TEST_F(EngineEdgeTest, PurgeFailureLeavesDomainRegisteredAndNothingOrphaned) {
  // Regression: PurgeDomain used to drop a failed per-root revoke on the
  // floor and erase the domain anyway, leaving its remaining caps active but
  // ownerless. Now a mid-purge failure must propagate, keep the domain
  // registered, and report exactly the roots that DID commit.
  const CapId a = *engine_.MintMemory(1, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll));
  const CapId b = *engine_.MintMemory(1, AddrRange{2 * kMiB, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll));
  const CapId c = *engine_.MintMemory(1, AddrRange{4 * kMiB, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll));
  // Give root b a child so its (committed) cascade is visible in the outcome.
  CapEffects effects;
  const CapId child = *engine_.ShareMemory(1, b, 2, AddrRange{2 * kMiB, kPageSize},
                                           Perms(Perms::kRW), CapRights(CapRights::kAll),
                                           RevocationPolicy{}, &effects);

  std::vector<std::pair<CapId, RevokeOutcome>> partial;
  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kEnginePurgeRevoke, /*trigger=*/3,
                                           ErrorCode::kResourceExhausted));
    const auto purge = engine_.PurgeDomain(1, &partial);
    ASSERT_FALSE(purge.ok());
    EXPECT_EQ(purge.code(), ErrorCode::kResourceExhausted);
  }
  // The domain survived; the committed prefix (a, then b with its cascade)
  // is reported and really revoked; the rest is untouched.
  EXPECT_TRUE(engine_.IsRegistered(1));
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_EQ(partial[0].first, a);
  EXPECT_EQ(partial[1].first, b);
  EXPECT_EQ(partial[1].second.revoked_count, 2u);  // b + the shared child
  EXPECT_EQ(engine_.Get(a).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_EQ(engine_.Get(b).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_EQ(engine_.Get(child).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_TRUE((*engine_.Get(c))->active());
  EXPECT_EQ(engine_.DomainCaps(1).size(), 1u);

  // A retry purges the remainder and unregisters the domain for good.
  const auto retry = engine_.PurgeDomain(1);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->revoked_count, 1u);
  EXPECT_FALSE(engine_.IsRegistered(1));
  EXPECT_TRUE(engine_.DomainCaps(1).empty());
  EXPECT_EQ(engine_.Get(c).code(), ErrorCode::kCapabilityRevoked);
}

TEST_F(EngineEdgeTest, PurgeFailureOnFirstRootCommitsNothing) {
  const CapId a = *engine_.MintMemory(1, AddrRange{0, kMiB}, Perms(Perms::kRW),
                                      CapRights(CapRights::kAll));
  std::vector<std::pair<CapId, RevokeOutcome>> partial;
  {
    ScopedFaultPlan plan(FaultPlan::Single(faults::kEnginePurgeRevoke, /*trigger=*/1,
                                           ErrorCode::kInternal));
    EXPECT_FALSE(engine_.PurgeDomain(1, &partial).ok());
  }
  EXPECT_TRUE(partial.empty());
  EXPECT_TRUE(engine_.IsRegistered(1));
  EXPECT_TRUE((*engine_.Get(a))->active());
}

// Domains 0-2 registered, then memory and units shared and granted among
// them. `variant` shifts every range and unit, so two variants differ in
// every answer below.
CapabilityEngine PopulatedEngine(uint64_t variant) {
  CapabilityEngine engine;
  engine.RegisterDomain(0, CapabilityEngine::kNoCreator);
  engine.RegisterDomain(1, 0);
  engine.RegisterDomain(2, 0);
  const uint64_t base = variant * 8 * kMiB;
  const CapId mem = *engine.MintMemory(0, AddrRange{base, 4 * kMiB}, Perms(Perms::kRW),
                                       CapRights(CapRights::kAll));
  CapEffects effects;
  EXPECT_TRUE(engine
                  .ShareMemory(0, mem, 1, AddrRange{base + kMiB, kMiB}, Perms(Perms::kRead),
                               CapRights(CapRights::kAll), RevocationPolicy{}, &effects)
                  .ok());
  EXPECT_TRUE(engine
                  .GrantMemory(0, mem, 2, AddrRange{base + 2 * kMiB, kMiB},
                               Perms(Perms::kRW), CapRights(CapRights::kAll),
                               RevocationPolicy{})
                  .ok());
  const CapId core = *engine.MintUnit(0, ResourceKind::kCpuCore, variant,
                                      CapRights(CapRights::kAll));
  EXPECT_TRUE(engine.ShareUnit(0, core, 1, CapRights(CapRights::kAll), RevocationPolicy{},
                               &effects)
                  .ok());
  EXPECT_TRUE(engine.MintUnit(0, ResourceKind::kDomain, 1 + variant,
                              CapRights(CapRights::kAll))
                  .ok());
  return engine;
}

// Every read the derived state serves, flattened: the full and a clipped
// view, ref counts, exclusivity and unit lookups over both variants' ranges
// and units.
std::vector<uint64_t> Answers(const CapabilityEngine& engine) {
  std::vector<uint64_t> out;
  for (const AddrRange within : {AddrRange{}, AddrRange{kMiB + kMiB / 2, 8 * kMiB}}) {
    for (const RegionView& region : engine.MemoryView(within)) {
      out.insert(out.end(), {region.range.base, region.range.size});
      out.insert(out.end(), region.domains.begin(), region.domains.end());
    }
  }
  for (uint64_t mib = 0; mib < 16; ++mib) {
    out.push_back(engine.MemoryRefCount(AddrRange{mib * kMiB, kMiB}));
    out.push_back(engine.ExclusivelyOwned(0, AddrRange{mib * kMiB, kMiB}));
  }
  for (uint64_t unit = 0; unit < 3; ++unit) {
    for (const ResourceKind kind : {ResourceKind::kCpuCore, ResourceKind::kDomain}) {
      out.push_back(engine.UnitRefCount(kind, unit));
      for (CapDomainId d = 0; d < 3; ++d) {
        out.push_back(engine.FindUnit(d, kind, unit));
      }
    }
  }
  return out;
}

TEST(EngineDerivedStateTest, RestoreAndMovesRebuildIndexesAndDropTheMemoizedView) {
  CapabilityEngine other = PopulatedEngine(1);
  const EngineImage image = other.Capture();
  CapabilityEngine fresh = PopulatedEngine(0);
  ASSERT_TRUE(fresh.Restore(image).ok());
  const std::vector<uint64_t> expected = Answers(fresh);

  // Each target has answered (and so memoized) its own state first.
  CapabilityEngine restored = PopulatedEngine(0);
  ASSERT_NE(Answers(restored), expected);
  ASSERT_TRUE(restored.Restore(image).ok());
  EXPECT_EQ(Answers(restored), expected);
  EXPECT_TRUE(restored.CheckOwnedIndex().ok());
  // An image with no capability at all indexes nothing, and must still drop
  // the memo.
  const CapabilityEngine empty;
  ASSERT_TRUE(restored.Restore(empty.Capture()).ok());
  EXPECT_EQ(Answers(restored), Answers(empty));

  CapabilityEngine assigned = PopulatedEngine(0);
  ASSERT_NE(Answers(assigned), expected);
  ASSERT_EQ(Answers(other), expected);
  assigned = std::move(other);
  EXPECT_EQ(Answers(assigned), expected);
  EXPECT_TRUE(assigned.CheckOwnedIndex().ok());

  const CapabilityEngine constructed(std::move(assigned));
  EXPECT_EQ(Answers(constructed), expected);
  EXPECT_TRUE(constructed.CheckOwnedIndex().ok());
}

}  // namespace
}  // namespace tyche
