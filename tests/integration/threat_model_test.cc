// Copyright 2026 The Tyche Reproduction Authors.
// Experiment C8: the paper's threat model, attack by attack. Each attack is
// run twice: against the commodity baseline (where §2.2 says it succeeds)
// and against monitor-enforced domains (where it must fail).

#include <gtest/gtest.h>

#include "src/baseline/monopoly.h"
#include "src/baseline/sgx_model.h"
#include "src/tyche/verifier.h"
#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class ThreatModelTest : public BootedMachineTest {
 protected:
  ThreatModelTest() : BootedMachineTest(FixtureOptions{.with_nic = true}) {}

  Result<Enclave> MakeVictimEnclave(uint64_t offset) {
    const TycheImage image = TycheImage::MakeDemo("victim", 2 * kPageSize, 0);
    LoadOptions options;
    options.base = Scratch(offset, 0).base;
    options.size = kMiB;
    options.cores = {1};
    options.core_caps = {OsCoreCap(1)};
    return Enclave::Create(monitor_.get(), 0, image, options);
  }
};

TEST_F(ThreatModelTest, Attack1_PrivilegedMemoryRead) {
  // Baseline: the kernel reads any process (CommodityStack::CanAccess).
  CommodityStack stack;
  const uint32_t kernel = stack.AddActor("kernel", PrivLevel::kGuestKernel, 0);
  const uint32_t app = stack.AddActor("app", PrivLevel::kUserProcess, kernel);
  ASSERT_TRUE(stack.Assign(kernel, app, AddrRange{8 * kMiB, kMiB}).ok());
  EXPECT_TRUE(stack.CanAccess(kernel, AddrRange{8 * kMiB, kPageSize}));  // succeeds

  // Monitor: domain 0 (the same "kernel") cannot read an enclave.
  auto enclave = MakeVictimEnclave(kMiB);
  ASSERT_TRUE(enclave.ok());
  EXPECT_FALSE(machine_->CheckedRead64(0, enclave->base()).ok());  // blocked
}

TEST_F(ThreatModelTest, Attack2_PrivilegedMemoryWrite_Integrity) {
  auto enclave = MakeVictimEnclave(2 * kMiB);
  ASSERT_TRUE(enclave.ok());
  // Enclave stores a value...
  ASSERT_TRUE(enclave->Enter(1).ok());
  ASSERT_TRUE(machine_->CheckedWrite64(1, enclave->base() + kPageSize, 777).ok());
  ASSERT_TRUE(enclave->Exit(1).ok());
  // ... the OS tries to corrupt it, on every core it controls.
  for (CoreId core = 0; core < machine_->num_cores(); ++core) {
    if (monitor_->CurrentDomain(core) == os_domain_) {
      EXPECT_FALSE(machine_->CheckedWrite64(core, enclave->base() + kPageSize, 666).ok());
    }
  }
  // Value intact.
  ASSERT_TRUE(enclave->Enter(1).ok());
  EXPECT_EQ(*machine_->CheckedRead64(1, enclave->base() + kPageSize), 777u);
  ASSERT_TRUE(enclave->Exit(1).ok());
}

TEST_F(ThreatModelTest, Attack3_DmaBypass) {
  // A malicious driver programs the NIC to exfiltrate enclave memory.
  auto enclave = MakeVictimEnclave(4 * kMiB);
  ASSERT_TRUE(enclave.ok());
  auto* nic = static_cast<DmaEngine*>(machine_->FindDevice(kNicBdf));
  // The NIC is held by the OS alone and attached to the OS context: DMA into
  // OS memory works (this is the baseline behaviour)...
  EXPECT_TRUE(nic->Copy(machine_.get(), managed_.base, managed_.base + kPageSize, 64).ok());
  // ... but the enclave's pages are not mapped in the OS context: blocked.
  EXPECT_EQ(nic->Copy(machine_.get(), enclave->base(), managed_.base, 64).code(),
            ErrorCode::kIommuFault);
  EXPECT_EQ(nic->Copy(machine_.get(), managed_.base, enclave->base(), 64).code(),
            ErrorCode::kIommuFault);
}

TEST_F(ThreatModelTest, Attack4_EntryPointHijack) {
  // Jumping into a domain anywhere but its fixed entry point: the monitor
  // mediates ALL control transfers, so the only way in is Transition, which
  // always lands on the entry point. Here the OS tries to "enter" by simply
  // running with the enclave's protection context -- there is no API for
  // that; the closest it can get is a transition, which is mediated.
  auto enclave = MakeVictimEnclave(6 * kMiB);
  ASSERT_TRUE(enclave.ok());
  // Transition on a core the enclave does not own is refused.
  EXPECT_EQ(monitor_->Transition(2, enclave->handle()).code(),
            ErrorCode::kTransitionDenied);
  // And a forged handle is refused.
  EXPECT_FALSE(monitor_->Transition(1, CapId{999999}).ok());
}

TEST_F(ThreatModelTest, Attack5_ResourceExhaustionIsNotConfidentialityLoss) {
  // The OS can refuse to give an enclave memory (denial of service is out of
  // scope, §3.2 keeps management code in control) -- but it cannot use
  // revocation to READ secrets: the zero-on-revoke policy runs first.
  auto enclave = MakeVictimEnclave(8 * kMiB);
  ASSERT_TRUE(enclave.ok());
  ASSERT_TRUE(enclave->Enter(1).ok());
  ASSERT_TRUE(machine_->CheckedWrite64(1, enclave->base() + kPageSize, 0xdeadbeef).ok());
  ASSERT_TRUE(enclave->Exit(1).ok());

  // The OS revokes the enclave's text+heap grant (it owns the parent cap).
  CapId granted = kInvalidCap;
  monitor_->engine().ForEachActive([&](const Capability& cap) {
    if (cap.owner == enclave->domain() && cap.kind == ResourceKind::kMemory &&
        cap.range.Contains(enclave->base() + kPageSize)) {
      granted = cap.id;
    }
  });
  ASSERT_NE(granted, kInvalidCap);
  ASSERT_TRUE(monitor_->Revoke(0, granted).ok());
  // The OS regains the range -- zeroed. No secret recovered.
  EXPECT_EQ(*machine_->CheckedRead64(0, enclave->base() + kPageSize), 0u);
}

TEST_F(ThreatModelTest, Attack6_SgxStyleImplicitLeak) {
  // Baseline: SGX enclave code reaches its whole host address space -- a
  // single compromised enclave (or a confused-deputy bug) leaks host data
  // with NO policy violation recorded.
  EXPECT_TRUE(SgxProcessor::kEnclaveSeesHostMemory);

  // Tyche enclave: the host's memory is simply not mapped. The "bug" would
  // fault instantly (Attack1 showed the read path; here the exec path).
  auto enclave = MakeVictimEnclave(10 * kMiB);
  ASSERT_TRUE(enclave.ok());
  ASSERT_TRUE(enclave->Enter(1).ok());
  EXPECT_FALSE(machine_->CheckedFetch(1, managed_.base, 16).ok());
  ASSERT_TRUE(enclave->Exit(1).ok());
}

TEST_F(ThreatModelTest, Attack7_AttestationReplayAndForgery) {
  auto enclave = MakeVictimEnclave(12 * kMiB);
  ASSERT_TRUE(enclave.ok());
  RemoteVerifier verifier(machine_->tpm().attestation_key(), golden_firmware_,
                          golden_monitor_);
  const auto report = enclave->Attest(0, /*nonce=*/500);
  ASSERT_TRUE(report.ok());
  // Replay with an old nonce: rejected.
  EXPECT_FALSE(verifier.VerifyDomain(*report, monitor_->public_key(), 501, nullptr).ok());
  // Forged resource list: rejected (signature covers the digest).
  DomainAttestation forged = *report;
  forged.resources.clear();
  forged.report_digest = forged.ComputeDigest();
  EXPECT_FALSE(verifier.VerifyDomain(forged, monitor_->public_key(), 500, nullptr).ok());
}

TEST_F(ThreatModelTest, Attack8_HierarchyCannotExpressProtection) {
  // The structural claim of §2.3: in a privilege hierarchy the victim cannot
  // even EXPRESS "protect me from my kernel"; on the monitor it is one
  // grant away. Both sides shown side by side.
  CommodityStack stack;
  const uint32_t kernel = stack.AddActor("kernel", PrivLevel::kGuestKernel, 0);
  const uint32_t app = stack.AddActor("app", PrivLevel::kUserProcess, kernel);
  ASSERT_TRUE(stack.Assign(kernel, app, AddrRange{8 * kMiB, kMiB}).ok());
  EXPECT_EQ(stack.ProtectFromAncestors(app, AddrRange{8 * kMiB, kPageSize}).code(),
            ErrorCode::kUnimplemented);
  EXPECT_EQ(stack.Attest(app).code(), ErrorCode::kUnimplemented);

  auto enclave = MakeVictimEnclave(14 * kMiB);
  ASSERT_TRUE(enclave.ok());
  EXPECT_FALSE(machine_->CheckedRead64(0, enclave->base()).ok());
  EXPECT_TRUE(enclave->Attest(0, 1).ok());
}

}  // namespace
}  // namespace tyche
