// Copyright 2026 The Tyche Reproduction Authors.
// Experiment F4 (paper Figure 4): the physical-memory view with
// domain-to-region mappings and per-region reference counts. The figure
// shows (left to right): a confidential region of the crypto engine (1),
// crypto<->SaaS shared memory (2), a confidential SaaS region (1), a region
// visible to the whole stack (4), a driver<->VM shared region (2), and a
// driver-private region (1). This test reconstructs exactly that sequence.

#include <gtest/gtest.h>

#include "src/crypto/sha256.h"
#include "src/monitor/attestation.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class Figure4Test : public BootedMachineTest {};

TEST_F(Figure4Test, ReconstructsTheFigureRefCounts) {
  // Domains standing in for the figure's actors. None needs to run; the
  // view is purely about the capability state.
  const auto crypto = monitor_->CreateDomain(0, "crypto-engine");
  const auto saas = monitor_->CreateDomain(0, "saas-app");
  const auto vm = monitor_->CreateDomain(0, "saas-vm");
  const auto driver = monitor_->CreateDomain(0, "driver");
  ASSERT_TRUE(crypto.ok());
  ASSERT_TRUE(saas.ok());
  ASSERT_TRUE(vm.ok());
  ASSERT_TRUE(driver.ok());

  const uint64_t base = Scratch(16 * kMiB, 0).base;
  const AddrRange crypto_conf{base, kMiB};                  // count 1
  const AddrRange crypto_saas{base + kMiB, kMiB};          // count 2
  const AddrRange saas_conf{base + 2 * kMiB, kMiB};        // count 1
  const AddrRange all_shared{base + 3 * kMiB, kMiB};       // count 4
  const AddrRange driver_vm{base + 4 * kMiB, kMiB};        // count 2
  const AddrRange driver_conf{base + 5 * kMiB, kMiB};      // count 1

  auto grant = [&](const AddrRange& range, CapId handle) {
    const auto result = monitor_->GrantMemory(
        0, *FindMemoryCap(*monitor_, os_domain_, range), handle, range, Perms(Perms::kRW),
        CapRights(CapRights::kAll), RevocationPolicy{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };
  auto share_from = [&](DomainId owner, CoreId core, const AddrRange& range, CapId handle) {
    const auto result = monitor_->ShareMemory(
        core, *FindMemoryCap(*monitor_, owner, range), handle, range, Perms(Perms::kRW),
        CapRights(CapRights::kShare), RevocationPolicy{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };

  // Exclusive regions: granted away from the OS entirely.
  grant(crypto_conf, crypto->handle);
  grant(saas_conf, saas->handle);
  grant(driver_conf, driver->handle);
  // crypto<->saas: grant to crypto, then crypto shares with saas. Sharing
  // requires the owner to act; hand the saas handle to the crypto domain and
  // run the share from a core executing as crypto. Simpler equivalent used
  // here: grant to crypto, then OS-mediated share is impossible (the OS no
  // longer holds a capability) -- which is the point. Instead grant to
  // crypto WITHOUT sealing and let crypto share: emulate by giving crypto a
  // core and running the call as crypto.
  grant(crypto_saas, crypto->handle);
  ASSERT_TRUE(monitor_
                  ->ShareUnit(0, OsCoreCap(1), crypto->handle,
                              CapRights(CapRights::kShare), RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_
                  ->ShareUnit(0, *FindUnitCap(*monitor_, os_domain_, ResourceKind::kDomain,
                                              saas->domain),
                              crypto->handle, CapRights(CapRights::kShare),
                              RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_->SetEntryPoint(0, crypto->handle, crypto_conf.base).ok());
  ASSERT_TRUE(monitor_->Transition(1, crypto->handle).ok());
  const CapId saas_handle_in_crypto =
      *FindUnitCap(*monitor_, crypto->domain, ResourceKind::kDomain, saas->domain);
  share_from(crypto->domain, 1, crypto_saas, saas_handle_in_crypto);
  ASSERT_TRUE(monitor_->ReturnFromDomain(1).ok());

  // driver<->vm: same pattern.
  grant(driver_vm, driver->handle);
  ASSERT_TRUE(monitor_
                  ->ShareUnit(0, OsCoreCap(1), driver->handle, CapRights(CapRights::kShare),
                              RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_
                  ->ShareUnit(0, *FindUnitCap(*monitor_, os_domain_, ResourceKind::kDomain,
                                              vm->domain),
                              driver->handle, CapRights(CapRights::kShare),
                              RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_->SetEntryPoint(0, driver->handle, driver_vm.base).ok());
  ASSERT_TRUE(monitor_->Transition(1, driver->handle).ok());
  const CapId vm_handle_in_driver =
      *FindUnitCap(*monitor_, driver->domain, ResourceKind::kDomain, vm->domain);
  share_from(driver->domain, 1, driver_vm, vm_handle_in_driver);
  ASSERT_TRUE(monitor_->ReturnFromDomain(1).ok());

  // all_shared: visible to everyone (OS keeps it, shares with all four).
  for (const CapId handle : {crypto->handle, saas->handle, vm->handle}) {
    const auto result = monitor_->ShareMemory(
        0, *FindMemoryCap(*monitor_, os_domain_, all_shared), handle, all_shared,
        Perms(Perms::kRW), CapRights{}, RevocationPolicy{});
    ASSERT_TRUE(result.ok());
  }

  // ---- The Figure 4 assertion: region -> reference count ----
  EXPECT_EQ(monitor_->engine().MemoryRefCount(crypto_conf), 1u);
  EXPECT_EQ(monitor_->engine().MemoryRefCount(crypto_saas), 2u);
  EXPECT_EQ(monitor_->engine().MemoryRefCount(saas_conf), 1u);
  EXPECT_EQ(monitor_->engine().MemoryRefCount(all_shared), 4u);
  EXPECT_EQ(monitor_->engine().MemoryRefCount(driver_vm), 2u);
  EXPECT_EQ(monitor_->engine().MemoryRefCount(driver_conf), 1u);

  // The MemoryView (what bench_refcount_view prints) contains the same
  // sequence of counts over the scenario window, in order: 1 2 1 4 2 1.
  std::vector<uint32_t> counts;
  for (const RegionView& view : monitor_->engine().MemoryView()) {
    if (view.range.base >= base && view.range.end() <= base + 6 * kMiB) {
      counts.push_back(view.ref_count());
    }
  }
  EXPECT_EQ(counts, (std::vector<uint32_t>{1, 2, 1, 4, 2, 1}));

  // Exclusive ownership queries match the figure's colour coding.
  EXPECT_TRUE(monitor_->engine().ExclusivelyOwned(crypto->domain, crypto_conf));
  EXPECT_FALSE(monitor_->engine().ExclusivelyOwned(crypto->domain, crypto_saas));
  EXPECT_TRUE(monitor_->engine().ExclusivelyOwned(driver->domain, driver_conf));

  // Pinned report bytes: every actor's serialized report for a fixed nonce.
  // The counts above are what these reports carry to a verifier; a change
  // to any claim, range, permission or count alters the digest.
  std::vector<uint8_t> wire;
  uint64_t nonce = 0xF164;
  for (const CapId handle : {crypto->handle, saas->handle, vm->handle, driver->handle}) {
    const auto report = monitor_->AttestDomain(0, handle, nonce++);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::vector<uint8_t> bytes = SerializeAttestation(*report);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  const auto os_report = monitor_->AttestSelf(0, nonce);
  ASSERT_TRUE(os_report.ok());
  const std::vector<uint8_t> os_bytes = SerializeAttestation(*os_report);
  wire.insert(wire.end(), os_bytes.begin(), os_bytes.end());
  EXPECT_EQ(Sha256::Hash(wire).ToHex(),
            "efbd3011bfa926c1263e6f5c337d47e741e139a2eb0be8dfda71108e3dea13a2");
}

}  // namespace
}  // namespace tyche
