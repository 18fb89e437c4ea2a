// Copyright 2026 The Tyche Reproduction Authors.
// Unit tests for the capability engine: share/grant/revoke semantics,
// reference counts, sealing rules, lineage behaviour.

#include "src/capability/engine.h"

#include <gtest/gtest.h>

#include "tests/testing/cap_dump.h"

namespace tyche {
namespace {

constexpr CapDomainId kOs = 0;
constexpr CapDomainId kApp = 1;
constexpr CapDomainId kEnclave = 2;

constexpr uint64_t kMiB = 1ull << 20;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    engine_.RegisterDomain(kOs, CapabilityEngine::kNoCreator);
    engine_.RegisterDomain(kApp, kOs);
    engine_.RegisterDomain(kEnclave, kApp);
    root_ = *engine_.MintMemory(kOs, AddrRange{0, 64 * kMiB}, Perms(Perms::kRWX),
                                CapRights(CapRights::kAll));
  }

  CapabilityEngine engine_;
  CapId root_ = kInvalidCap;
};

TEST_F(EngineTest, MintValidation) {
  EXPECT_FALSE(engine_.MintMemory(99, AddrRange{0, kMiB}, Perms(Perms::kRead),
                                  CapRights(CapRights::kAll))
                   .ok());
  EXPECT_FALSE(engine_.MintMemory(kOs, AddrRange{1, kMiB}, Perms(Perms::kRead),
                                  CapRights(CapRights::kAll))
                   .ok());
  EXPECT_FALSE(engine_.MintMemory(kOs, AddrRange{0, 0}, Perms(Perms::kRead),
                                  CapRights(CapRights::kAll))
                   .ok());
  EXPECT_FALSE(
      engine_.MintUnit(kOs, ResourceKind::kMemory, 0, CapRights(CapRights::kAll)).ok());
}

TEST_F(EngineTest, ShareCreatesChildAndEffect) {
  CapEffects effects;
  const AddrRange sub{4 * kMiB, kMiB};
  const auto child = engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                                         CapRights(CapRights::kShare), RevocationPolicy{},
                                         &effects);
  ASSERT_TRUE(child.ok());
  const Capability* cap = *engine_.Get(*child);
  EXPECT_EQ(cap->owner, kApp);
  EXPECT_EQ(cap->range, sub);
  EXPECT_EQ(cap->origin, CapOrigin::kShare);
  EXPECT_EQ(cap->parent, root_);
  ASSERT_EQ(effects.effects.size(), 1u);
  EXPECT_EQ(effects.effects[0].kind, CapEffect::Kind::kMapMemory);
  EXPECT_EQ(effects.effects[0].domain, kApp);
  // Source stays active: this is duplication, not transfer.
  EXPECT_TRUE((*engine_.Get(root_))->active());
}

TEST_F(EngineTest, ShareValidatesEverything) {
  CapEffects effects;
  const AddrRange sub{4 * kMiB, kMiB};
  // Requester must own the cap.
  EXPECT_EQ(engine_
                .ShareMemory(kApp, root_, kEnclave, sub, Perms(Perms::kRead), CapRights{},
                             RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kCapabilityNotOwned);
  // Sub-range must be inside.
  EXPECT_EQ(engine_
                .ShareMemory(kOs, root_, kApp, AddrRange{63 * kMiB, 2 * kMiB},
                             Perms(Perms::kRead), CapRights{}, RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kOutOfRange);
  // Page alignment.
  EXPECT_EQ(engine_
                .ShareMemory(kOs, root_, kApp, AddrRange{4 * kMiB + 1, kMiB},
                             Perms(Perms::kRead), CapRights{}, RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kInvalidArgument);
  // Unknown destination.
  EXPECT_EQ(engine_
                .ShareMemory(kOs, root_, 42, sub, Perms(Perms::kRead), CapRights{},
                             RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kNotFound);
  // Empty permissions are meaningless.
  EXPECT_FALSE(engine_
                   .ShareMemory(kOs, root_, kApp, sub, Perms{}, CapRights{},
                                RevocationPolicy{}, &effects)
                   .ok());
}

TEST_F(EngineTest, PermsAndRightsAttenuateMonotonically) {
  CapEffects effects;
  const AddrRange sub{4 * kMiB, kMiB};
  const CapId child = *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRead),
                                           CapRights(CapRights::kShare), RevocationPolicy{},
                                           &effects);
  // The child cannot re-share with MORE permissions or rights.
  EXPECT_EQ(engine_
                .ShareMemory(kApp, child, kEnclave, sub, Perms(Perms::kRW),
                             CapRights(CapRights::kShare), RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kCapabilityRightsViolation);
  EXPECT_EQ(engine_
                .ShareMemory(kApp, child, kEnclave, sub, Perms(Perms::kRead),
                             CapRights(CapRights::kAll), RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kCapabilityRightsViolation);
  // Equal or smaller is fine.
  EXPECT_TRUE(engine_
                  .ShareMemory(kApp, child, kEnclave, sub, Perms(Perms::kRead),
                               CapRights(CapRights::kShare), RevocationPolicy{}, &effects)
                  .ok());
}

TEST_F(EngineTest, ShareWithoutShareRightFails) {
  CapEffects effects;
  const AddrRange sub{4 * kMiB, kMiB};
  const CapId child =
      *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRead), CapRights{},
                           RevocationPolicy{}, &effects);
  EXPECT_EQ(engine_
                .ShareMemory(kApp, child, kEnclave, sub, Perms(Perms::kRead), CapRights{},
                             RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kCapabilityRightsViolation);
}

TEST_F(EngineTest, GrantMovesOwnershipAndSplits) {
  const AddrRange sub{4 * kMiB, kMiB};
  const auto outcome = engine_.GrantMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                                           CapRights(CapRights::kAll), RevocationPolicy{});
  ASSERT_TRUE(outcome.ok());
  // Source donated.
  EXPECT_EQ((*engine_.Get(root_))->state, CapState::kDonated);
  // Granted piece owned by kApp.
  EXPECT_EQ((*engine_.Get(outcome->granted))->owner, kApp);
  // Two remainder pieces (before and after), owned by kOs.
  ASSERT_EQ(outcome->remainders.size(), 2u);
  EXPECT_EQ((*engine_.Get(outcome->remainders[0]))->range, (AddrRange{0, 4 * kMiB}));
  EXPECT_EQ((*engine_.Get(outcome->remainders[1]))->range,
            (AddrRange{5 * kMiB, 59 * kMiB}));
  // Effects: unmap for grantor, map for recipient.
  ASSERT_EQ(outcome->effects.effects.size(), 2u);
  EXPECT_EQ(outcome->effects.effects[0].kind, CapEffect::Kind::kUnmapMemory);
  EXPECT_EQ(outcome->effects.effects[1].kind, CapEffect::Kind::kMapMemory);
  // Grantor no longer has access to the granted bytes, recipient does.
  EXPECT_TRUE(engine_.EffectivePerms(kOs, 4 * kMiB).empty());
  EXPECT_EQ(engine_.EffectivePerms(kApp, 4 * kMiB).mask, Perms::kRW);
  EXPECT_EQ(engine_.EffectivePerms(kOs, 0).mask, Perms::kRWX);
}

TEST_F(EngineTest, GrantWholeRangeLeavesNoRemainder) {
  const auto outcome =
      engine_.GrantMemory(kOs, root_, kApp, AddrRange{0, 64 * kMiB}, Perms(Perms::kRWX),
                          CapRights(CapRights::kAll), RevocationPolicy{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->remainders.empty());
  EXPECT_TRUE(engine_.EffectivePerms(kOs, 0).empty());
}

TEST_F(EngineTest, GrantedCapRefusesFurtherUseOfSource) {
  const AddrRange sub{4 * kMiB, kMiB};
  ASSERT_TRUE(engine_
                  .GrantMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                               CapRights(CapRights::kAll), RevocationPolicy{})
                  .ok());
  CapEffects effects;
  // The donated source cannot be used again.
  EXPECT_EQ(engine_
                .ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRead), CapRights{},
                             RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kCapabilityRevoked);
}

TEST_F(EngineTest, RefCountTracksDistinctHolders) {
  const AddrRange sub{4 * kMiB, kMiB};
  EXPECT_EQ(engine_.MemoryRefCount(sub), 1u);
  CapEffects effects;
  const CapId to_app = *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                                            CapRights(CapRights::kShare),
                                            RevocationPolicy{}, &effects);
  EXPECT_EQ(engine_.MemoryRefCount(sub), 2u);
  // Sharing to the same domain twice does not increase the count.
  ASSERT_TRUE(engine_
                  .ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRead), CapRights{},
                               RevocationPolicy{}, &effects)
                  .ok());
  EXPECT_EQ(engine_.MemoryRefCount(sub), 2u);
  ASSERT_TRUE(engine_
                  .ShareMemory(kApp, to_app, kEnclave, sub, Perms(Perms::kRead),
                               CapRights{}, RevocationPolicy{}, &effects)
                  .ok());
  EXPECT_EQ(engine_.MemoryRefCount(sub), 3u);
}

TEST_F(EngineTest, RevokeCascadesThroughDescendants) {
  const AddrRange sub{4 * kMiB, kMiB};
  CapEffects effects;
  const CapId to_app = *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                                            CapRights(CapRights::kShare),
                                            RevocationPolicy{}, &effects);
  const CapId to_enclave = *engine_.ShareMemory(kApp, to_app, kEnclave, sub,
                                                Perms(Perms::kRead),
                                                CapRights(CapRights::kShare),
                                                RevocationPolicy{}, &effects);
  ASSERT_EQ(engine_.MemoryRefCount(sub), 3u);

  const auto outcome = engine_.Revoke(kOs, to_app);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->revoked_count, 2u);
  EXPECT_EQ(engine_.Get(to_app).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_EQ(engine_.Get(to_enclave).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_EQ(engine_.MemoryRefCount(sub), 1u);
  EXPECT_TRUE(engine_.EffectivePerms(kApp, 4 * kMiB).empty());
  EXPECT_TRUE(engine_.EffectivePerms(kEnclave, 4 * kMiB).empty());
}

TEST_F(EngineTest, RevokeRequiresAuthorization) {
  const AddrRange sub{4 * kMiB, kMiB};
  CapEffects effects;
  const CapId to_app =
      *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                           CapRights(CapRights::kShare), RevocationPolicy{}, &effects);
  // kEnclave is a stranger: cannot revoke.
  EXPECT_EQ(engine_.Revoke(kEnclave, to_app).code(),
            ErrorCode::kCapabilityRightsViolation);
  // The owner may always drop its own capability.
  EXPECT_TRUE(engine_.Revoke(kApp, to_app).ok());
  EXPECT_EQ(engine_.Revoke(kApp, to_app).code(), ErrorCode::kCapabilityRevoked);
}

TEST_F(EngineTest, RevokeGrantRestoresGrantor) {
  const AddrRange sub{4 * kMiB, kMiB};
  const auto grant = engine_.GrantMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                                         CapRights(CapRights::kAll), RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(engine_.EffectivePerms(kOs, 4 * kMiB).empty());

  const auto outcome = engine_.Revoke(kOs, grant->granted);
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome->restored, kInvalidCap);
  const Capability* restored = *engine_.Get(outcome->restored);
  EXPECT_EQ(restored->owner, kOs);
  EXPECT_EQ(restored->origin, CapOrigin::kRestore);
  // Grantor regains access with the parent's permissions.
  EXPECT_EQ(engine_.EffectivePerms(kOs, 4 * kMiB).mask, Perms::kRWX);
  EXPECT_TRUE(engine_.EffectivePerms(kApp, 4 * kMiB).empty());
}

TEST_F(EngineTest, RevocationPolicyEmitsCleanupEffects) {
  const AddrRange sub{4 * kMiB, kMiB};
  CapEffects effects;
  const CapId to_app = *engine_.ShareMemory(
      kOs, root_, kApp, sub, Perms(Perms::kRW), CapRights{},
      RevocationPolicy(RevocationPolicy::kObfuscate), &effects);
  const auto outcome = engine_.Revoke(kOs, to_app);
  ASSERT_TRUE(outcome.ok());
  bool saw_zero = false;
  bool saw_flush = false;
  for (const CapEffect& effect : outcome->effects.effects) {
    saw_zero |= effect.kind == CapEffect::Kind::kZeroMemory;
    saw_flush |= effect.kind == CapEffect::Kind::kFlushCache;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_flush);
}

TEST_F(EngineTest, CircularSharingRevocationTerminates) {
  // A shares to B, B shares back to A, A shares that back to B... then
  // revoking the first share must terminate and kill the whole chain.
  const AddrRange sub{4 * kMiB, kMiB};
  CapEffects effects;
  CapId cap = *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                                   CapRights(CapRights::kShare), RevocationPolicy{},
                                   &effects);
  const CapId first = cap;
  CapDomainId owners[2] = {kEnclave, kApp};
  for (int i = 0; i < 10; ++i) {
    const CapDomainId from = i % 2 == 0 ? kApp : kEnclave;
    cap = *engine_.ShareMemory(from, cap, owners[i % 2], sub, Perms(Perms::kRW),
                               CapRights(CapRights::kShare), RevocationPolicy{}, &effects);
  }
  ASSERT_EQ(engine_.MemoryRefCount(sub), 3u);
  const auto outcome = engine_.Revoke(kOs, first);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->revoked_count, 11u);
  EXPECT_EQ(engine_.MemoryRefCount(sub), 1u);
}

TEST_F(EngineTest, SealedDomainCannotReceive) {
  engine_.SealDomain(kApp);
  CapEffects effects;
  EXPECT_EQ(engine_
                .ShareMemory(kOs, root_, kApp, AddrRange{4 * kMiB, kMiB},
                             Perms(Perms::kRead), CapRights{}, RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kDomainSealed);
}

TEST_F(EngineTest, SealedDomainCannotShareOnwardExceptToChildren) {
  const AddrRange sub{4 * kMiB, kMiB};
  CapEffects effects;
  const CapId app_cap = *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                                             CapRights(CapRights::kAll), RevocationPolicy{},
                                             &effects);
  engine_.SealDomain(kApp);
  // kEnclave was created by kApp: delegation allowed (nested enclaves §4.2).
  EXPECT_TRUE(engine_
                  .ShareMemory(kApp, app_cap, kEnclave, sub, Perms(Perms::kRead),
                               CapRights{}, RevocationPolicy{}, &effects)
                  .ok());
  // But sharing back to a pre-existing domain is not.
  engine_.RegisterDomain(7, kOs);
  EXPECT_EQ(engine_
                .ShareMemory(kApp, app_cap, 7, sub, Perms(Perms::kRead), CapRights{},
                             RevocationPolicy{}, &effects)
                .code(),
            ErrorCode::kDomainSealed);
}

TEST_F(EngineTest, UnitShareAndGrant) {
  const CapId core_cap =
      *engine_.MintUnit(kOs, ResourceKind::kCpuCore, 2, CapRights(CapRights::kAll));
  CapEffects effects;
  const CapId shared = *engine_.ShareUnit(
      kOs, core_cap, kApp, CapRights(CapRights::kShare | CapRights::kGrant),
      RevocationPolicy{}, &effects);
  EXPECT_TRUE(engine_.HasUnit(kApp, ResourceKind::kCpuCore, 2));
  EXPECT_TRUE(engine_.HasUnit(kOs, ResourceKind::kCpuCore, 2));
  EXPECT_EQ(engine_.UnitRefCount(ResourceKind::kCpuCore, 2), 2u);

  const auto grant = engine_.GrantUnit(kApp, shared, kEnclave,
                                       CapRights(CapRights::kShare), RevocationPolicy{});
  ASSERT_TRUE(grant.ok());
  EXPECT_FALSE(engine_.HasUnit(kApp, ResourceKind::kCpuCore, 2));
  EXPECT_TRUE(engine_.HasUnit(kEnclave, ResourceKind::kCpuCore, 2));
}

TEST_F(EngineTest, ExclusiveOwnership) {
  const AddrRange sub{4 * kMiB, kMiB};
  EXPECT_TRUE(engine_.ExclusivelyOwned(kOs, sub));
  EXPECT_FALSE(engine_.ExclusivelyOwned(kApp, sub));
  CapEffects effects;
  ASSERT_TRUE(engine_
                  .ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW), CapRights{},
                               RevocationPolicy{}, &effects)
                  .ok());
  EXPECT_FALSE(engine_.ExclusivelyOwned(kOs, sub));
  EXPECT_FALSE(engine_.ExclusivelyOwned(kApp, sub));
  EXPECT_FALSE(engine_.ExclusivelyOwned(kOs, AddrRange{0, 0}));
}

TEST_F(EngineTest, MemoryViewReconstructsFigure4) {
  // Rebuild Figure 4's shape: confidential regions (count 1), a region
  // shared by two domains, and one visible to many.
  const AddrRange shared2{8 * kMiB, kMiB};
  const AddrRange shared4{16 * kMiB, kMiB};
  CapEffects effects;
  ASSERT_TRUE(engine_
                  .ShareMemory(kOs, root_, kApp, shared2, Perms(Perms::kRW), CapRights{},
                               RevocationPolicy{}, &effects)
                  .ok());
  for (CapDomainId d : {kApp, kEnclave, 9u}) {
    if (d == 9u) {
      engine_.RegisterDomain(9, kOs);
    }
    ASSERT_TRUE(engine_
                    .ShareMemory(kOs, root_, d, shared4, Perms(Perms::kRead), CapRights{},
                                 RevocationPolicy{}, &effects)
                    .ok());
  }
  const auto view = engine_.MemoryView();
  // Find the regions and check counts.
  uint32_t count_shared2 = 0;
  uint32_t count_shared4 = 0;
  for (const RegionView& region : view) {
    if (region.range.Contains(shared2)) {
      count_shared2 = region.ref_count();
    }
    if (region.range.Contains(shared4)) {
      count_shared4 = region.ref_count();
    }
  }
  EXPECT_EQ(count_shared2, 2u);
  EXPECT_EQ(count_shared4, 4u);
}

TEST_F(EngineTest, DomainMemoryMapMergesAndSplits) {
  CapEffects effects;
  // Give kApp two adjacent regions with equal perms and one with different.
  ASSERT_TRUE(engine_
                  .ShareMemory(kOs, root_, kApp, AddrRange{4 * kMiB, kMiB},
                               Perms(Perms::kRW), CapRights{}, RevocationPolicy{}, &effects)
                  .ok());
  ASSERT_TRUE(engine_
                  .ShareMemory(kOs, root_, kApp, AddrRange{5 * kMiB, kMiB},
                               Perms(Perms::kRW), CapRights{}, RevocationPolicy{}, &effects)
                  .ok());
  ASSERT_TRUE(engine_
                  .ShareMemory(kOs, root_, kApp, AddrRange{6 * kMiB, kMiB},
                               Perms(Perms::kRead), CapRights{}, RevocationPolicy{},
                               &effects)
                  .ok());
  const auto map = engine_.DomainMemoryMap(kApp);
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map[0].range, (AddrRange{4 * kMiB, 2 * kMiB}));
  EXPECT_EQ(map[0].perms.mask, Perms::kRW);
  EXPECT_EQ(map[1].range, (AddrRange{6 * kMiB, kMiB}));
  EXPECT_EQ(map[1].perms.mask, Perms::kRead);
}

TEST_F(EngineTest, PurgeDomainRevokesEverything) {
  const AddrRange sub{4 * kMiB, kMiB};
  CapEffects effects;
  const CapId to_app =
      *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                           CapRights(CapRights::kShare), RevocationPolicy{}, &effects);
  ASSERT_TRUE(engine_
                  .ShareMemory(kApp, to_app, kEnclave, sub, Perms(Perms::kRead),
                               CapRights{}, RevocationPolicy{}, &effects)
                  .ok());
  const auto outcome = engine_.PurgeDomain(kApp);
  ASSERT_TRUE(outcome.ok());
  // kApp's cap and its child in kEnclave are both gone.
  EXPECT_TRUE(engine_.EffectivePerms(kApp, 4 * kMiB).empty());
  EXPECT_TRUE(engine_.EffectivePerms(kEnclave, 4 * kMiB).empty());
  EXPECT_FALSE(engine_.IsRegistered(kApp));
  EXPECT_EQ(engine_.MemoryRefCount(sub), 1u);
}

TEST_F(EngineTest, RevokeReclaimsTheSubtreeSoStateStaysBounded) {
  const AddrRange sub{4 * kMiB, kMiB};
  CapEffects effects;
  const uint64_t start = engine_.total_caps();
  for (int i = 0; i < 1000; ++i) {
    const CapId to_app = *engine_.ShareMemory(kOs, root_, kApp, sub, Perms(Perms::kRW),
                                              CapRights(CapRights::kShare),
                                              RevocationPolicy{}, &effects);
    ASSERT_TRUE(engine_
                    .ShareMemory(kApp, to_app, kEnclave, sub, Perms(Perms::kRead),
                                 CapRights{}, RevocationPolicy{}, &effects)
                    .ok());
    const auto outcome = engine_.Revoke(kOs, to_app);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->revoked_caps.size(), 2u);
    // The outcome names each reclaimed cap's owner and kind, leaf first.
    EXPECT_EQ(outcome->revoked_caps[0].owner, kEnclave);
    EXPECT_EQ(outcome->revoked_caps[1], (RevokeOutcome::Revoked{to_app, kApp,
                                                                ResourceKind::kMemory}));
  }
  EXPECT_EQ(engine_.total_caps(), start);
  EXPECT_TRUE(engine_.DomainCaps(kApp).empty());
  EXPECT_TRUE((*engine_.Get(root_))->children.empty());
  EXPECT_TRUE(engine_.CheckOwnedIndex().ok());
  // Reclaimed ids read as revoked; ids never allocated stay unknown.
  EXPECT_EQ(engine_.Get(root_ + 1).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_EQ(engine_.Revoke(kOs, root_ + 1).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_EQ(engine_.Get(1u << 30).code(), ErrorCode::kNotFound);
}

TEST_F(EngineTest, RevokingAWholeGrantReactivatesTheParent) {
  // A grant/revoke round trip over the whole capability must not grow a
  // chain of donated nodes: the parent itself comes back.
  for (int i = 0; i < 100; ++i) {
    const auto grant =
        engine_.GrantMemory(kOs, root_, kApp, AddrRange{0, 64 * kMiB}, Perms(Perms::kRW),
                            CapRights(CapRights::kAll), RevocationPolicy{});
    ASSERT_TRUE(grant.ok());
    const auto outcome = engine_.Revoke(kOs, grant->granted);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->restored, root_);
  }
  EXPECT_EQ(engine_.total_caps(), 1u);
  EXPECT_TRUE((*engine_.Get(root_))->active());
  EXPECT_EQ(engine_.EffectivePerms(kOs, 0).mask, Perms::kRWX);
  EXPECT_EQ(engine_.DomainCaps(kOs).size(), 1u);
  EXPECT_TRUE(engine_.CheckOwnedIndex().ok());
}

TEST_F(EngineTest, PurgeRevokesEveryHandleNamingTheDomain) {
  const CapId handle =
      *engine_.MintUnit(kOs, ResourceKind::kDomain, kApp, CapRights(CapRights::kAll));
  CapEffects effects;
  const CapId copy = *engine_.ShareUnit(kOs, handle, kEnclave, CapRights{},
                                        RevocationPolicy{}, &effects);
  const size_t os_caps = engine_.DomainCaps(kOs).size();
  const auto outcome = engine_.PurgeDomain(kApp);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->revoked_count, 2u);
  EXPECT_EQ(engine_.Get(handle).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_EQ(engine_.Get(copy).code(), ErrorCode::kCapabilityRevoked);
  EXPECT_EQ(engine_.DomainCaps(kOs).size(), os_caps - 1);
  EXPECT_FALSE(engine_.HasUnit(kEnclave, ResourceKind::kDomain, kApp));
  EXPECT_TRUE(engine_.CheckOwnedIndex().ok());
}

TEST_F(EngineTest, DumpTreeShowsLineage) {
  CapEffects effects;
  ASSERT_TRUE(engine_
                  .ShareMemory(kOs, root_, kApp, AddrRange{4 * kMiB, kMiB},
                               Perms(Perms::kRW), CapRights{}, RevocationPolicy{}, &effects)
                  .ok());
  const std::string dump = DumpTree(engine_);
  EXPECT_NE(dump.find("cap#1"), std::string::npos);
  EXPECT_NE(dump.find("owner=1"), std::string::npos);
  EXPECT_NE(dump.find("active"), std::string::npos);
}

}  // namespace
}  // namespace tyche
