// Copyright 2026 The Tyche Reproduction Authors.
// Property tests: a randomized workload of share / grant / revoke operations
// is mirrored into an independent shadow model (a flat list of "who can
// access what"), and the engine's aggregate queries must agree with the
// shadow after every step. Lineage-structural invariants are checked too.

#include <gtest/gtest.h>

#include <map>

#include "src/capability/engine.h"
#include "src/support/prng.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;
constexpr uint64_t kTotal = 64 * kMiB;
constexpr int kNumDomains = 6;

// Shadow model entry: an active capability as the spec describes it.
struct ShadowCap {
  CapDomainId owner;
  AddrRange range;
  Perms perms;
};

class EnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginePropertyTest, RandomWorkloadAgreesWithShadowModel) {
  Prng prng(GetParam());
  CapabilityEngine engine;
  for (CapDomainId d = 0; d < kNumDomains; ++d) {
    engine.RegisterDomain(d, d == 0 ? CapabilityEngine::kNoCreator : 0);
  }
  const CapId root = *engine.MintMemory(0, AddrRange{0, kTotal}, Perms(Perms::kRWX),
                                        CapRights(CapRights::kAll));

  std::map<CapId, ShadowCap> shadow;  // active caps only
  shadow[root] = ShadowCap{0, AddrRange{0, kTotal}, Perms(Perms::kRWX)};

  // Track lineage children for shadow revocation.
  std::map<CapId, std::vector<CapId>> children;

  auto shadow_revoke_subtree = [&](CapId id, auto&& self) -> void {
    shadow.erase(id);
    for (const CapId child : children[id]) {
      self(child, self);
    }
  };

  const int kSteps = 300;
  for (int step = 0; step < kSteps; ++step) {
    const int op = static_cast<int>(prng.Below(3));
    // Pick a random active cap.
    if (shadow.empty()) {
      break;
    }
    auto it = shadow.begin();
    std::advance(it, static_cast<long>(prng.Below(shadow.size())));
    const CapId src = it->first;
    const ShadowCap src_shadow = it->second;
    const CapDomainId dst = static_cast<CapDomainId>(prng.Below(kNumDomains));

    // Random page-aligned sub-range of the source.
    const uint64_t pages = src_shadow.range.size / kPageSize;
    const uint64_t off = prng.Below(pages) * kPageSize;
    const uint64_t len = (1 + prng.Below(pages - off / kPageSize)) * kPageSize;
    const AddrRange sub{src_shadow.range.base + off, len};
    const Perms perms = src_shadow.perms;

    if (op == 0) {
      CapEffects effects;
      const auto result = engine.ShareMemory(src_shadow.owner, src, dst, sub, perms,
                                             CapRights(CapRights::kAll), RevocationPolicy{},
                                             &effects);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      shadow[*result] = ShadowCap{dst, sub, perms};
      children[src].push_back(*result);
    } else if (op == 1) {
      const auto result = engine.GrantMemory(src_shadow.owner, src, dst, sub, perms,
                                             CapRights(CapRights::kAll), RevocationPolicy{});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      shadow.erase(src);  // donated
      shadow[result->granted] = ShadowCap{dst, sub, perms};
      children[src].push_back(result->granted);
      for (const CapId rem : result->remainders) {
        shadow[rem] = ShadowCap{src_shadow.owner, (*engine.Get(rem))->range, perms};
        children[src].push_back(rem);
      }
    } else {
      // Owner drops the capability (always authorized).
      const auto result = engine.Revoke(src_shadow.owner, src);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      shadow_revoke_subtree(src, shadow_revoke_subtree);
      if (result->restored != kInvalidCap) {
        const Capability* restored = *engine.Get(result->restored);
        shadow[result->restored] =
            ShadowCap{restored->owner, restored->range, restored->perms};
        children[restored->parent].push_back(result->restored);
      }
    }

    // --- Invariant 1: active cap count agrees with shadow, and the owner
    //     index is exactly the active set over a map of live nodes. ---
    ASSERT_EQ(engine.active_caps(), shadow.size()) << "step " << step;
    ASSERT_TRUE(engine.CheckOwnedIndex().ok()) << "step " << step;

    // --- Invariant 2: per-domain effective perms agree at sampled points.---
    for (int sample = 0; sample < 8; ++sample) {
      const uint64_t addr = prng.Below(kTotal);
      for (CapDomainId d = 0; d < kNumDomains; ++d) {
        uint8_t expected = Perms::kNone;
        for (const auto& [id, cap] : shadow) {
          if (cap.owner == d && cap.range.Contains(addr)) {
            expected |= cap.perms.mask;
          }
        }
        ASSERT_EQ(engine.EffectivePerms(d, addr).mask, expected)
            << "step " << step << " addr " << addr << " domain " << d;
      }
    }

    // --- Invariant 3: reference counts agree at sampled ranges. ---
    for (int sample = 0; sample < 4; ++sample) {
      const uint64_t base = AlignDown(prng.Below(kTotal), kPageSize);
      const AddrRange probe{base, kPageSize};
      std::set<CapDomainId> holders;
      for (const auto& [id, cap] : shadow) {
        if (cap.range.Overlaps(probe)) {
          holders.insert(cap.owner);
        }
      }
      ASSERT_EQ(engine.MemoryRefCount(probe), holders.size()) << "step " << step;
    }
  }

  // --- Invariant 4: lineage structure is consistent at the end. ---
  engine.ForEachActive([&](const Capability& cap) {
    if (cap.parent != kInvalidCap) {
      const auto parent = engine.Get(cap.parent);
      ASSERT_TRUE(parent.ok());
      // A memory child is always contained in its parent's range.
      if (cap.kind == ResourceKind::kMemory &&
          (*parent)->kind == ResourceKind::kMemory) {
        EXPECT_TRUE((*parent)->range.Contains(cap.range)) << cap.ToString();
      }
      // Parent must list this cap among its children.
      const auto& siblings = (*parent)->children;
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), cap.id), siblings.end());
    }
  });

  // --- Invariant 5: revoking everything leaves no active caps and every
  //     domain with zero access. ---
  for (CapDomainId d = 0; d < kNumDomains; ++d) {
    std::vector<CapId> to_revoke;
    engine.ForEachActive([&](const Capability& cap) {
      if (cap.owner == d) {
        to_revoke.push_back(cap.id);
      }
    });
    for (const CapId id : to_revoke) {
      const auto cap = engine.Get(id);
      if (cap.ok() && (*cap)->active() && (*cap)->origin != CapOrigin::kRestore) {
        (void)engine.Revoke(d, id);
      }
    }
  }
  // Restore caps created by revoking grants may remain; drop them too until
  // quiescent.
  for (int round = 0; round < 64 && engine.active_caps() > 0; ++round) {
    std::vector<std::pair<CapDomainId, CapId>> leftovers;
    engine.ForEachActive(
        [&](const Capability& cap) { leftovers.emplace_back(cap.owner, cap.id); });
    for (const auto& [owner, id] : leftovers) {
      (void)engine.Revoke(owner, id);
    }
  }
  EXPECT_EQ(engine.active_caps(), 0u);
  // With nothing live, nothing is left: every node was reclaimed.
  EXPECT_EQ(engine.total_caps(), 0u);
  for (CapDomainId d = 0; d < kNumDomains; ++d) {
    EXPECT_TRUE(engine.EffectivePerms(d, 0).empty());
    EXPECT_TRUE(engine.DomainMemoryMap(d).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace tyche
