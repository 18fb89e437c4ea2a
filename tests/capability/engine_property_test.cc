// Copyright 2026 The Tyche Reproduction Authors.
// Property tests: a randomized workload of share / grant / revoke operations
// is mirrored into an independent shadow model (a flat list of "who can
// access what"), and the engine's aggregate queries must agree with the
// shadow after every step. Lineage-structural invariants are checked too.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/capability/engine.h"
#include "src/support/prng.h"
#include "tests/testing/cap_dump.h"

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

// A view as comparable values: (range, holders) per region.
using FlatView = std::vector<std::pair<AddrRange, std::vector<CapDomainId>>>;

FlatView Flatten(const std::vector<RegionView>& view) {
  FlatView flat;
  for (const RegionView& region : view) {
    flat.emplace_back(region.range, region.domains);
  }
  return flat;
}

// Brute-force reference for MemoryView(within): the holder set of every
// interval between consecutive clipped cap ends, then contiguous intervals
// with the same holders merged. An empty `within` means no clip.
FlatView ReferenceView(const std::map<CapId, ShadowCap>& shadow, AddrRange within) {
  std::vector<uint64_t> bounds;
  for (const auto& [id, cap] : shadow) {
    const AddrRange clip = within.empty() ? cap.range : within;
    if (cap.range.Overlaps(clip)) {
      bounds.push_back(std::max(cap.range.base, clip.base));
      bounds.push_back(std::min(cap.range.end(), clip.end()));
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  FlatView view;
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const AddrRange interval{bounds[i], bounds[i + 1] - bounds[i]};
    std::set<CapDomainId> holders;
    for (const auto& [id, cap] : shadow) {
      if (cap.range.Overlaps(interval)) {
        holders.insert(cap.owner);
      }
    }
    if (holders.empty()) {
      continue;
    }
    std::vector<CapDomainId> domains(holders.begin(), holders.end());
    if (!view.empty() && view.back().first.end() == interval.base &&
        view.back().second == domains) {
      view.back().first.size += interval.size;
    } else {
      view.emplace_back(interval, std::move(domains));
    }
  }
  return view;
}

// The full view cut to `within`.
FlatView Intersect(const FlatView& full, AddrRange within) {
  FlatView cut;
  for (const auto& [range, domains] : full) {
    if (range.Overlaps(within)) {
      const uint64_t base = std::max(range.base, within.base);
      cut.emplace_back(AddrRange{base, std::min(range.end(), within.end()) - base}, domains);
    }
  }
  return cut;
}

// Reference exclusivity: the view within `range` covers it without a gap,
// and `domain` alone holds every region.
bool ReferenceExclusive(const std::map<CapId, ShadowCap>& shadow, CapDomainId domain,
                        AddrRange range) {
  uint64_t covered = range.base;
  for (const auto& [region, domains] : ReferenceView(shadow, range)) {
    if (region.base != covered || domains != std::vector<CapDomainId>{domain}) {
      return false;
    }
    covered = region.end();
  }
  return !range.empty() && covered == range.end();
}

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

    // --- Invariant 4: the view within random clips (byte-granular, or none)
    //     equals the brute-force reference and the full view cut to the
    //     clip; exclusivity agrees with the reference. ---
    const FlatView full = Flatten(engine.MemoryView());
    ASSERT_EQ(full, ReferenceView(shadow, AddrRange{})) << "step " << step;
    for (int sample = 0; sample < 3; ++sample) {
      const uint64_t base = prng.Below(kTotal);
      const AddrRange within{base, 1 + prng.Below(kTotal - base)};
      ASSERT_EQ(Flatten(engine.MemoryView(within)), ReferenceView(shadow, within))
          << "step " << step << " within " << within.base << "+" << within.size;
      ASSERT_EQ(Flatten(engine.MemoryView(within)), Intersect(full, within))
          << "step " << step;
      const CapDomainId d = static_cast<CapDomainId>(prng.Below(kNumDomains));
      ASSERT_EQ(engine.ExclusivelyOwned(d, within), ReferenceExclusive(shadow, d, within))
          << "step " << step;
    }
    // Exclusivity over (part of) one region, and across a region boundary,
    // where the answer is often yes.
    if (!full.empty()) {
      const auto& [region, domains] = full[prng.Below(full.size())];
      const uint64_t off = prng.Below(region.size);
      const AddrRange part{region.base + off, 1 + prng.Below(region.size - off)};
      ASSERT_EQ(engine.ExclusivelyOwned(domains[0], part), domains.size() == 1)
          << "step " << step;
      const AddrRange across{region.base, region.size + kPageSize};
      ASSERT_EQ(engine.ExclusivelyOwned(domains[0], across),
                ReferenceExclusive(shadow, domains[0], across))
          << "step " << step;
    }
  }

  // --- Invariant 5: lineage structure is consistent at the end. ---
  engine.ForEachActive([&](const Capability& cap) {
    if (cap.parent != kInvalidCap) {
      const auto parent = engine.Get(cap.parent);
      ASSERT_TRUE(parent.ok());
      // A memory child is always contained in its parent's range.
      if (cap.kind == ResourceKind::kMemory &&
          (*parent)->kind == ResourceKind::kMemory) {
        EXPECT_TRUE((*parent)->range.Contains(cap.range)) << CapToString(cap);
      }
      // Parent must list this cap among its children.
      const auto& siblings = (*parent)->children;
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), cap.id), siblings.end());
    }
  });

  // --- Invariant 6: revoking everything leaves no active caps and every
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

// Unit caps: random shares, grants and revokes of cores and domain handles.
// After every step the unit index answers (FindUnit, HasUnit, UnitRefCount)
// must equal a brute-force scan of the shadow's active unit caps.
TEST_P(EnginePropertyTest, RandomUnitWorkloadAgreesWithShadowModel) {
  Prng prng(GetParam());
  CapabilityEngine engine;
  for (CapDomainId d = 0; d < kNumDomains; ++d) {
    engine.RegisterDomain(d, d == 0 ? CapabilityEngine::kNoCreator : 0);
  }
  struct ShadowUnit {
    CapDomainId owner;
    ResourceKind kind;
    uint64_t unit;
  };
  std::map<CapId, ShadowUnit> shadow;  // active caps only
  std::map<CapId, std::vector<CapId>> children;
  std::vector<std::pair<ResourceKind, uint64_t>> units;
  for (uint64_t core = 0; core < 4; ++core) {
    units.emplace_back(ResourceKind::kCpuCore, core);
  }
  for (CapDomainId d = 1; d < kNumDomains; ++d) {
    units.emplace_back(ResourceKind::kDomain, d);
  }
  for (const auto& [kind, unit] : units) {
    const CapId id = *engine.MintUnit(0, kind, unit, CapRights(CapRights::kAll));
    shadow[id] = ShadowUnit{0, kind, unit};
  }
  auto shadow_revoke_subtree = [&](CapId id, auto&& self) -> void {
    shadow.erase(id);
    for (const CapId child : children[id]) {
      self(child, self);
    }
  };

  for (int step = 0; step < 300 && !shadow.empty(); ++step) {
    auto it = shadow.begin();
    std::advance(it, static_cast<long>(prng.Below(shadow.size())));
    const CapId src = it->first;
    const ShadowUnit src_shadow = it->second;
    const CapDomainId dst = static_cast<CapDomainId>(prng.Below(kNumDomains));
    const uint64_t op = prng.Below(3);
    if (op == 0) {
      const auto result = engine.ShareUnit(src_shadow.owner, src, dst,
                                           CapRights(CapRights::kAll), RevocationPolicy{},
                                           nullptr);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      shadow[*result] = ShadowUnit{dst, src_shadow.kind, src_shadow.unit};
      children[src].push_back(*result);
    } else if (op == 1) {
      const auto result = engine.GrantUnit(src_shadow.owner, src, dst,
                                           CapRights(CapRights::kAll), RevocationPolicy{});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      shadow.erase(src);  // donated
      shadow[result->granted] = ShadowUnit{dst, src_shadow.kind, src_shadow.unit};
      children[src].push_back(result->granted);
    } else {
      const auto result = engine.Revoke(src_shadow.owner, src);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      shadow_revoke_subtree(src, shadow_revoke_subtree);
      if (result->restored != kInvalidCap) {
        const Capability* restored = *engine.Get(result->restored);
        shadow[result->restored] =
            ShadowUnit{restored->owner, restored->kind, restored->unit};
        children[restored->parent].push_back(result->restored);
      }
    }

    ASSERT_TRUE(engine.CheckOwnedIndex().ok()) << "step " << step;
    for (const auto& [kind, unit] : units) {
      std::set<CapDomainId> holders;
      std::map<CapDomainId, CapId> newest;
      for (const auto& [id, cap] : shadow) {
        if (cap.kind == kind && cap.unit == unit) {
          holders.insert(cap.owner);
          newest[cap.owner] = id;  // id order: the last one wins
        }
      }
      ASSERT_EQ(engine.UnitRefCount(kind, unit), holders.size())
          << "step " << step << " unit " << unit;
      for (CapDomainId d = 0; d < kNumDomains; ++d) {
        const CapId expected = newest.contains(d) ? newest[d] : kInvalidCap;
        ASSERT_EQ(engine.FindUnit(d, kind, unit), expected)
            << "step " << step << " domain " << d << " unit " << unit;
        ASSERT_EQ(engine.HasUnit(d, kind, unit), expected != kInvalidCap) << "step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace tyche
