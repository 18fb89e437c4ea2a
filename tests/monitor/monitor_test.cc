// Copyright 2026 The Tyche Reproduction Authors.
// Monitor integration: boot, domain lifecycle, policies, transitions,
// hardware consistency.

#include "src/monitor/monitor.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/monitor/boot.h"
#include "src/monitor/pmp_backend.h"
#include "src/monitor/vtx_backend.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

TEST(ApiOpNameTest, EveryOpHasAUniqueName) {
  // Telemetry dumps index this table by raw op value; a newly added ApiOp
  // without a name would silently render as the fallback marker.
  std::set<std::string> seen;
  for (uint64_t raw = 0; raw < static_cast<uint64_t>(ApiOp::kOpCount); ++raw) {
    const char* name = ApiOpName(static_cast<ApiOp>(raw));
    ASSERT_NE(name, nullptr) << "op " << raw;
    const std::string text(name);
    EXPECT_FALSE(text.empty()) << "op " << raw;
    EXPECT_NE(text, "?") << "op " << raw;
    EXPECT_NE(text, "unknown") << "op " << raw;
    EXPECT_TRUE(seen.insert(text).second) << "duplicate name '" << text << "' for op " << raw;
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(ApiOp::kOpCount));
}

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : MonitorTest(IsaArch::kX86_64) {}

  explicit MonitorTest(IsaArch arch)
      : machine_([arch] {
          MachineConfig config;
          config.arch = arch;
          config.memory_bytes = 64ull << 20;
          config.num_cores = 4;
          return config;
        }()) {
    firmware_ = DemoFirmwareImage();
    image_ = DemoMonitorImage();
    BootParams params;
    params.firmware_image = firmware_;
    params.monitor_image = image_;
    auto outcome = MeasuredBoot(&machine_, params);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    monitor_ = std::move(outcome->monitor);
    os_ = outcome->initial_domain;
  }

  // Creates a child domain of the OS with `size` bytes of RWX memory granted
  // exclusively, one core shared, entry at its base. Returns the handle.
  CapId MakeChildDomain(uint64_t base, uint64_t size, bool seal) {
    auto created = monitor_->CreateDomain(0, "child");
    EXPECT_TRUE(created.ok());
    const CapId handle = created->handle;
    const CapId os_mem = OsMemoryCap();
    auto grant = monitor_->GrantMemory(0, os_mem, handle, AddrRange{base, size},
                                       Perms(Perms::kRWX), CapRights(CapRights::kAll),
                                       RevocationPolicy(RevocationPolicy::kZeroMemory));
    EXPECT_TRUE(grant.ok()) << grant.status().ToString();
    const CapId os_core = OsUnitCap(ResourceKind::kCpuCore, 0);
    auto core = monitor_->ShareUnit(0, os_core, handle, CapRights(CapRights::kShare),
                                    RevocationPolicy{});
    EXPECT_TRUE(core.ok()) << core.status().ToString();
    EXPECT_TRUE(monitor_->SetEntryPoint(0, handle, base).ok());
    if (seal) {
      EXPECT_TRUE(monitor_->Seal(0, handle).ok());
    }
    return handle;
  }

  // Finds the OS's (largest) active memory capability.
  CapId OsMemoryCap() {
    CapId best = kInvalidCap;
    uint64_t best_size = 0;
    monitor_->engine().ForEachActive([&](const Capability& cap) {
      if (cap.owner == os_ && cap.kind == ResourceKind::kMemory &&
          cap.range.size > best_size) {
        best = cap.id;
        best_size = cap.range.size;
      }
    });
    return best;
  }

  CapId OsUnitCap(ResourceKind kind, uint64_t unit) {
    CapId found = kInvalidCap;
    monitor_->engine().ForEachActive([&](const Capability& cap) {
      if (cap.owner == os_ && cap.kind == kind && cap.unit == unit) {
        found = cap.id;
      }
    });
    return found;
  }

  std::vector<uint8_t> firmware_;
  std::vector<uint8_t> image_;
  Machine machine_;
  std::unique_ptr<Monitor> monitor_;
  DomainId os_ = kInvalidDomain;
};

TEST_F(MonitorTest, BootInstallsInitialDomainEverywhere) {
  for (CoreId core = 0; core < machine_.num_cores(); ++core) {
    EXPECT_EQ(monitor_->CurrentDomain(core), os_);
  }
  // The OS can touch its memory but not the monitor's.
  const uint64_t os_addr = monitor_->monitor_range().end() + 0x1000;
  EXPECT_TRUE(machine_.CheckedWrite64(0, os_addr, 1).ok());
  EXPECT_FALSE(machine_.CheckedRead64(0, 0x1000).ok());
}

TEST_F(MonitorTest, CreateDomainHandsHandleToCreator) {
  const auto created = monitor_->CreateDomain(0, "enclave");
  ASSERT_TRUE(created.ok());
  const Capability* handle = *monitor_->engine().Get(created->handle);
  EXPECT_EQ(handle->owner, os_);
  EXPECT_EQ(handle->kind, ResourceKind::kDomain);
  EXPECT_EQ(handle->unit, created->domain);
  const auto domain = monitor_->GetDomain(created->domain);
  ASSERT_TRUE(domain.ok());
  EXPECT_EQ((*domain)->creator, os_);
  EXPECT_EQ((*domain)->state, DomainState::kCreated);
}

TEST_F(MonitorTest, GrantedMemoryMovesAccess) {
  const uint64_t base = 16 * kMiB;
  const CapId handle = MakeChildDomain(base, kMiB, /*seal=*/false);
  const Capability* cap = *monitor_->engine().Get(handle);
  const DomainId child = static_cast<DomainId>(cap->unit);

  // OS lost access to the granted range (hardware-enforced).
  EXPECT_FALSE(machine_.CheckedRead64(0, base).ok());
  // The child can access it once running on the core.
  EXPECT_TRUE(monitor_->Transition(0, handle).ok());
  EXPECT_EQ(monitor_->CurrentDomain(0), child);
  EXPECT_TRUE(machine_.CheckedWrite64(0, base, 0x1234).ok());
  EXPECT_TRUE(monitor_->ReturnFromDomain(0).ok());
  EXPECT_EQ(monitor_->CurrentDomain(0), os_);
}

TEST_F(MonitorTest, SealRequiresEntryPointAndExecPerms) {
  const auto created = monitor_->CreateDomain(0, "d");
  ASSERT_TRUE(created.ok());
  // No entry point yet.
  EXPECT_EQ(monitor_->Seal(0, created->handle).code(), ErrorCode::kFailedPrecondition);
  // Entry point in memory the domain does not own.
  ASSERT_TRUE(monitor_->SetEntryPoint(0, created->handle, 16 * kMiB).ok());
  EXPECT_EQ(monitor_->Seal(0, created->handle).code(), ErrorCode::kPolicyViolation);
}

TEST_F(MonitorTest, ExtendMeasurementRequiresReadableOwnedPages) {
  // The target must be able to read every page from AlignDown(base) up to
  // range.end(). Layout, in pages from 16 MiB: [0,2) RW, [2,3) a hole,
  // [3,4) R and [4,5) RX (two caps, contiguous), [5,6) write-only.
  constexpr uint64_t kP = kPageSize;
  const uint64_t base = 16 * kMiB;
  const auto created = monitor_->CreateDomain(0, "measured");
  ASSERT_TRUE(created.ok());
  const CapId handle = created->handle;
  const struct {
    uint64_t first_page, pages;
    uint8_t perms;
  } pieces[] = {{0, 2, Perms::kRW}, {3, 1, Perms::kRead}, {4, 1, Perms::kRX},
                {5, 1, Perms::kWrite}};
  for (const auto& piece : pieces) {
    const AddrRange range{base + piece.first_page * kP, piece.pages * kP};
    ASSERT_TRUE(monitor_
                    ->GrantMemory(0, OsMemoryCap(), handle, range, Perms(piece.perms),
                                  CapRights(CapRights::kAll), RevocationPolicy{})
                    .ok());
  }
  const struct {
    const char* what;
    AddrRange range;
    ErrorCode code;
  } cases[] = {
      {"unaligned base inside", {base + 100, 1000}, ErrorCode::kOk},
      {"unaligned base to the hole's edge", {base + 100, 2 * kP - 100}, ErrorCode::kOk},
      {"partial last page in the hole", {base, 2 * kP + 1}, ErrorCode::kPolicyViolation},
      {"unaligned, partial last page in the hole", {base + kP + 10, kP},
       ErrorCode::kPolicyViolation},
      {"zero size, aligned, owned", {base, 0}, ErrorCode::kOk},
      {"zero size, aligned, in the hole", {base + 2 * kP, 0}, ErrorCode::kOk},
      {"zero size, unaligned, owned", {base + 8, 0}, ErrorCode::kOk},
      {"zero size, unaligned, in the hole", {base + 2 * kP + 8, 0},
       ErrorCode::kPolicyViolation},
      {"hole in the middle", {base, 4 * kP}, ErrorCode::kPolicyViolation},
      {"hole at the start", {base + 2 * kP + 8, 2 * kP}, ErrorCode::kPolicyViolation},
      {"two contiguous caps", {base + 3 * kP, 2 * kP}, ErrorCode::kOk},
      {"runs into the write-only piece", {base + 3 * kP, 3 * kP},
       ErrorCode::kPolicyViolation},
      {"write-only piece", {base + 5 * kP, 16}, ErrorCode::kPolicyViolation},
      {"unaligned into the write-only piece", {base + 4 * kP + 4000, 200},
       ErrorCode::kPolicyViolation},
      {"never owned", {base + 8 * kP, kP}, ErrorCode::kPolicyViolation},
      // A wrapping range checks the pages it names, if any, then fails to
      // measure: the machine has no such bytes.
      {"wraps, ends below its first page", {~0ull - 99, 200}, ErrorCode::kOutOfRange},
      {"wraps, ends above its first page", {~0ull - 99, ~0ull - 49},
       ErrorCode::kPolicyViolation},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(monitor_->ExtendMeasurement(0, handle, c.range).code(), c.code) << c.what;
  }
}

TEST_F(MonitorTest, SealedDomainRejectsNewResources) {
  const uint64_t base = 16 * kMiB;
  const CapId handle = MakeChildDomain(base, kMiB, /*seal=*/true);
  const auto share = monitor_->ShareMemory(0, OsMemoryCap(), handle,
                                           AddrRange{32 * kMiB, kMiB}, Perms(Perms::kRW),
                                           CapRights{}, RevocationPolicy{});
  EXPECT_EQ(share.code(), ErrorCode::kDomainSealed);
}

TEST_F(MonitorTest, TransitionRequiresCoreOwnership) {
  const uint64_t base = 16 * kMiB;
  const CapId handle = MakeChildDomain(base, kMiB, /*seal=*/true);
  // Core 1 was never shared with the child.
  EXPECT_EQ(monitor_->Transition(1, handle).code(), ErrorCode::kTransitionDenied);
  EXPECT_TRUE(monitor_->Transition(0, handle).ok());
}

TEST_F(MonitorTest, TransitionRequiresEntryPoint) {
  const auto created = monitor_->CreateDomain(0, "no-entry");
  ASSERT_TRUE(created.ok());
  const CapId os_core = OsUnitCap(ResourceKind::kCpuCore, 0);
  ASSERT_TRUE(monitor_->ShareUnit(0, os_core, created->handle,
                                  CapRights(CapRights::kShare), RevocationPolicy{})
                  .ok());
  EXPECT_EQ(monitor_->Transition(0, created->handle).code(), ErrorCode::kTransitionDenied);
}

TEST_F(MonitorTest, NestedTransitionsUnwindInOrder) {
  const CapId h1 = MakeChildDomain(16 * kMiB, kMiB, /*seal=*/false);
  const DomainId d1 = static_cast<DomainId>((*monitor_->engine().Get(h1))->unit);

  // d1 creates its own nested child: share the handle path via the OS for
  // simplicity -- OS transitions into d1, d1 creates d2.
  ASSERT_TRUE(monitor_->Transition(0, h1).ok());
  const auto created = monitor_->CreateDomain(0, "nested");
  ASSERT_TRUE(created.ok());
  // d1 grants part of its memory to d2 and lets it run on core 0.
  CapId d1_mem = kInvalidCap;
  monitor_->engine().ForEachActive([&](const Capability& cap) {
    if (cap.owner == d1 && cap.kind == ResourceKind::kMemory) {
      d1_mem = cap.id;
    }
  });
  ASSERT_TRUE(monitor_->GrantMemory(0, d1_mem, created->handle,
                                    AddrRange{16 * kMiB + 512 * 1024, 512 * 1024},
                                    Perms(Perms::kRWX), CapRights(CapRights::kAll),
                                    RevocationPolicy{})
                  .ok());
  CapId d1_core = kInvalidCap;
  monitor_->engine().ForEachActive([&](const Capability& cap) {
    if (cap.owner == d1 && cap.kind == ResourceKind::kCpuCore && cap.unit == 0) {
      d1_core = cap.id;
    }
  });
  ASSERT_TRUE(monitor_->ShareUnit(0, d1_core, created->handle, CapRights{},
                                  RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_->SetEntryPoint(0, created->handle, 16 * kMiB + 512 * 1024).ok());

  ASSERT_TRUE(monitor_->Transition(0, created->handle).ok());
  EXPECT_EQ(monitor_->CurrentDomain(0), created->domain);
  ASSERT_TRUE(monitor_->ReturnFromDomain(0).ok());
  EXPECT_EQ(monitor_->CurrentDomain(0), d1);
  ASSERT_TRUE(monitor_->ReturnFromDomain(0).ok());
  EXPECT_EQ(monitor_->CurrentDomain(0), os_);
  EXPECT_EQ(monitor_->ReturnFromDomain(0).code(), ErrorCode::kFailedPrecondition);
}

TEST_F(MonitorTest, RevocationZeroesAndRestoresAccess) {
  const uint64_t base = 16 * kMiB;
  const CapId handle = MakeChildDomain(base, kMiB, /*seal=*/false);
  // Write a secret into the child's memory via the child itself.
  ASSERT_TRUE(monitor_->Transition(0, handle).ok());
  ASSERT_TRUE(machine_.CheckedWrite64(0, base, 0xdeadbeef).ok());
  ASSERT_TRUE(monitor_->ReturnFromDomain(0).ok());

  // OS revokes the grant (it owns the parent cap with revoke rights).
  CapId granted = kInvalidCap;
  monitor_->engine().ForEachActive([&](const Capability& cap) {
    if (cap.kind == ResourceKind::kMemory && cap.origin == CapOrigin::kGrant &&
        cap.range.base == base) {
      granted = cap.id;
    }
  });
  ASSERT_NE(granted, kInvalidCap);
  ASSERT_TRUE(monitor_->Revoke(0, granted).ok());

  // Policy ran: memory zeroed before the OS regains access.
  EXPECT_EQ(*machine_.CheckedRead64(0, base), 0u);
  EXPECT_TRUE(machine_.CheckedWrite64(0, base, 1).ok());
}

TEST_F(MonitorTest, DestroyDomainReclaimsEverything) {
  const uint64_t base = 16 * kMiB;
  const CapId handle = MakeChildDomain(base, kMiB, /*seal=*/true);
  const DomainId child = static_cast<DomainId>((*monitor_->engine().Get(handle))->unit);
  ASSERT_TRUE(monitor_->DestroyDomain(0, handle).ok());
  EXPECT_EQ((*monitor_->GetDomain(child))->state, DomainState::kDead);
  // Zeroing revocation policy ran on the granted range.
  EXPECT_EQ(*machine_.CheckedRead64(0, base), 0u);
  // OS has access back.
  EXPECT_TRUE(machine_.CheckedWrite64(0, base, 5).ok());
}

TEST_F(MonitorTest, DestroyRunningDomainRefused) {
  const CapId handle = MakeChildDomain(16 * kMiB, kMiB, /*seal=*/true);
  ASSERT_TRUE(monitor_->Transition(0, handle).ok());
  // From inside the child, the OS handle is unusable; switch to core 1
  // (still the OS) to attempt destruction.
  EXPECT_EQ(monitor_->DestroyDomain(1, handle).code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(monitor_->ReturnFromDomain(0).ok());
  EXPECT_TRUE(monitor_->DestroyDomain(1, handle).ok());
}

TEST_F(MonitorTest, FastTransitionAfterRegistration) {
  const CapId handle = MakeChildDomain(16 * kMiB, kMiB, /*seal=*/true);
  const DomainId child = static_cast<DomainId>((*monitor_->engine().Get(handle))->unit);
  // Unregistered: denied.
  EXPECT_EQ(monitor_->FastTransition(0, child).code(), ErrorCode::kTransitionDenied);
  ASSERT_TRUE(monitor_->RegisterFastTransition(0, handle).ok());

  const uint64_t cycles_before = machine_.cycles().cycles();
  ASSERT_TRUE(monitor_->FastTransition(0, child).ok());
  const uint64_t fast_cost = machine_.cycles().cycles() - cycles_before;
  EXPECT_EQ(monitor_->CurrentDomain(0), child);
  // The paper's claim: ~100-cycle transitions; certainly far below the
  // trap-mediated path.
  EXPECT_LE(fast_cost, 2 * CostModel::Default().vmfunc_switch);
  ASSERT_TRUE(monitor_->FastReturn(0).ok());
  EXPECT_EQ(monitor_->CurrentDomain(0), os_);
  EXPECT_EQ(monitor_->stats().fast_transitions, 2u);
}

TEST_F(MonitorTest, HardwareAlwaysConsistentWithCapabilities) {
  const CapId handle = MakeChildDomain(16 * kMiB, kMiB, /*seal=*/false);
  ASSERT_TRUE(*monitor_->AuditHardwareConsistency());
  ASSERT_TRUE(monitor_->ShareMemory(0, OsMemoryCap(), handle, AddrRange{32 * kMiB, kMiB},
                                    Perms(Perms::kRW), CapRights{}, RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(*monitor_->AuditHardwareConsistency());
  ASSERT_TRUE(monitor_->DestroyDomain(0, handle).ok());
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
}

TEST_F(MonitorTest, AuditCatchesExcessMappingsAnywhereInTheMap) {
  // The child holds RWX at [16, 17) MiB and a read-only share at [32, 33) MiB.
  const CapId handle = MakeChildDomain(16 * kMiB, kMiB, /*seal=*/false);
  const DomainId child = static_cast<DomainId>((*monitor_->engine().Get(handle))->unit);
  ASSERT_TRUE(monitor_->ShareMemory(0, OsMemoryCap(), handle, AddrRange{32 * kMiB, kMiB},
                                    Perms(Perms::kRead), CapRights{}, RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(*monitor_->AuditHardwareConsistency());
  auto* vtx = dynamic_cast<VtxBackend*>(&monitor_->backend());
  ASSERT_NE(vtx, nullptr);
  auto* ept = const_cast<NestedPageTable*>(vtx->DomainEpt(child));

  // A page in the middle of the read-only region made writable.
  const uint64_t mid = 32 * kMiB + kMiB / 2;
  ASSERT_TRUE(ept->ProtectPage(mid, Perms(Perms::kRW)).ok());
  EXPECT_FALSE(*monitor_->AuditHardwareConsistency());
  ASSERT_TRUE(ept->ProtectPage(mid, Perms(Perms::kRead)).ok());
  ASSERT_TRUE(*monitor_->AuditHardwareConsistency());

  // A page in the gap between the two regions, which no cap justifies.
  ASSERT_TRUE(ept->MapPage(24 * kMiB, 24 * kMiB, Perms(Perms::kRead)).ok());
  EXPECT_FALSE(*monitor_->AuditHardwareConsistency());
}

TEST_F(MonitorTest, ApiCallsAreCounted) {
  const uint64_t calls_before = monitor_->stats().TotalCalls();
  (void)monitor_->CreateDomain(0, "x");
  EXPECT_EQ(monitor_->stats().TotalCalls(), calls_before + 1);
  EXPECT_EQ(monitor_->stats().api_calls[static_cast<size_t>(ApiOp::kCreateDomain)], 1u);
}

TEST_F(MonitorTest, EnumerateListsResources) {
  const CapId handle = MakeChildDomain(16 * kMiB, kMiB, /*seal=*/true);
  const auto resources = monitor_->Enumerate(0, handle);
  ASSERT_TRUE(resources.ok());
  bool has_memory = false;
  bool has_core = false;
  for (const ResourceClaim& claim : *resources) {
    if (claim.kind == ResourceKind::kMemory) {
      has_memory = true;
      EXPECT_EQ(claim.ref_count, 1u);  // granted exclusively
    }
    if (claim.kind == ResourceKind::kCpuCore) {
      has_core = true;
      EXPECT_EQ(claim.ref_count, 2u);  // shared with the OS
    }
  }
  EXPECT_TRUE(has_memory);
  EXPECT_TRUE(has_core);
}


TEST_F(MonitorTest, ExclusiveCoreIsSchedulingGuarantee) {
  // §4.1: capabilities "ensure exclusive access to a CPU core" and "expose
  // denial of service". A tenant that holds a core EXCLUSIVELY (attested
  // refcount 1) knows no other domain can ever be scheduled onto it: the
  // monitor refuses transitions for domains without the core capability.
  const CapId tenant = MakeChildDomain(16 * kMiB, kMiB, /*seal=*/false);
  // Move core 2 exclusively to the tenant (grant, not share).
  ASSERT_TRUE(monitor_
                  ->GrantUnit(0, OsUnitCap(ResourceKind::kCpuCore, 2), tenant,
                              CapRights{}, RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_->Seal(0, tenant).ok());
  const auto report = monitor_->AttestDomain(0, tenant, 1);
  ASSERT_TRUE(report.ok());
  for (const ResourceClaim& claim : report->resources) {
    if (claim.kind == ResourceKind::kCpuCore && claim.unit == 2) {
      EXPECT_EQ(claim.ref_count, 1u);  // the attested guarantee
    }
  }
  // A second tenant cannot be scheduled onto core 2...
  const CapId intruder = MakeChildDomain(32 * kMiB, kMiB, /*seal=*/true);
  EXPECT_EQ(monitor_->Transition(2, intruder).code(), ErrorCode::kTransitionDenied);
  // ... while the rightful owner can.
  EXPECT_TRUE(monitor_->Transition(2, tenant).ok());
  EXPECT_TRUE(monitor_->ReturnFromDomain(2).ok());
}

// The same lifecycle on the RISC-V / PMP machine.
class RiscVMonitorTest : public MonitorTest {
 protected:
  RiscVMonitorTest() : MonitorTest(IsaArch::kRiscV) {}
};

TEST_F(RiscVMonitorTest, LifecycleOnPmpBackend) {
  const uint64_t base = 16 * kMiB;
  const CapId handle = MakeChildDomain(base, kMiB, /*seal=*/true);
  const DomainId child = static_cast<DomainId>((*monitor_->engine().Get(handle))->unit);

  EXPECT_FALSE(machine_.CheckedRead64(0, base).ok());
  ASSERT_TRUE(monitor_->Transition(0, handle).ok());
  EXPECT_EQ(monitor_->CurrentDomain(0), child);
  EXPECT_TRUE(machine_.CheckedWrite64(0, base, 7).ok());
  // The child cannot touch OS memory.
  EXPECT_FALSE(machine_.CheckedRead64(0, 32 * kMiB).ok());
  // ... nor the monitor (guard entry).
  EXPECT_FALSE(machine_.CheckedRead64(0, 0x1000).ok());
  ASSERT_TRUE(monitor_->ReturnFromDomain(0).ok());
  EXPECT_TRUE(machine_.CheckedRead64(0, 32 * kMiB).ok());
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
}

TEST_F(RiscVMonitorTest, FastPathUnavailable) {
  const CapId handle = MakeChildDomain(16 * kMiB, kMiB, /*seal=*/true);
  EXPECT_EQ(monitor_->RegisterFastTransition(0, handle).code(), ErrorCode::kUnimplemented);
}

TEST_F(RiscVMonitorTest, FragmentedLayoutExhaustsPmp) {
  // Share many discontiguous single pages into one domain until the PMP
  // entry budget is exceeded: the monitor must reject the share and roll the
  // capability back.
  const auto created = monitor_->CreateDomain(0, "fragmented");
  ASSERT_TRUE(created.ok());
  const CapId os_mem = OsMemoryCap();
  int accepted = 0;
  Status last = OkStatus();
  for (int i = 0; i < 20; ++i) {
    // Non-adjacent, NAPOT-compatible single pages.
    const AddrRange page{16 * kMiB + static_cast<uint64_t>(i) * 2 * kPageSize, kPageSize};
    last = monitor_->ShareMemory(0, os_mem, created->handle, page, Perms(Perms::kRW),
                                 CapRights{}, RevocationPolicy{})
               .status();
    if (!last.ok()) {
      break;
    }
    ++accepted;
  }
  EXPECT_EQ(last.code(), ErrorCode::kPmpExhausted);
  EXPECT_EQ(accepted, PmpBackend::kDomainEntryBudget);
  // After the rollback the engine and hardware still agree.
  EXPECT_TRUE(*monitor_->AuditHardwareConsistency());
}

}  // namespace
}  // namespace tyche
