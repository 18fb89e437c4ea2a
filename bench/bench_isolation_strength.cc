// Copyright 2026 The Tyche Reproduction Authors.
// Experiment C8: the attack matrix. Each row is an attack from the paper's
// problem statement (§2.2); the columns show whether it succeeds on the
// commodity baseline, on the SGX model, and on the isolation monitor.
// The paper's argument holds iff the last column is all-BLOCKED while the
// baselines leak.
//
// Not a timing benchmark: prints a table.

#include <cstdio>

#include "src/baseline/monopoly.h"
#include "src/baseline/sgx_model.h"
#include "src/os/testbed.h"
#include "src/tyche/enclave.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

const char* Cell(bool attack_succeeds) { return attack_succeeds ? "LEAKS   " : "blocked "; }
const char* CellNa() { return "n/a     "; }

int Run() {
  std::printf("=== C8: isolation strength (attack matrix) ===\n\n");

  // --- Set up all three systems ---
  CommodityStack stack;
  const uint32_t kernel = stack.AddActor("kernel", PrivLevel::kGuestKernel, 0);
  const uint32_t app = stack.AddActor("app", PrivLevel::kUserProcess, kernel);
  (void)stack.Assign(kernel, app, AddrRange{8 * kMiB, kMiB});

  CycleAccount sgx_cycles;
  SgxProcessor sgx(4096, &sgx_cycles);
  const auto sgx_enclave = sgx.Ecreate(1, AddrRange{1ull << 32, kMiB});
  const std::vector<uint8_t> page(64, 1);
  (void)sgx.Eadd(*sgx_enclave, 0, std::span<const uint8_t>(page));
  (void)sgx.Einit(*sgx_enclave);

  TestbedOptions options;
  options.with_nic = true;
  auto testbed = Testbed::Create(options);
  const TycheImage image = TycheImage::MakeDemo("victim", 2 * kPageSize, 0);
  LoadOptions load;
  load.base = testbed->Scratch(kMiB);
  load.size = kMiB;
  load.cores = {1};
  load.core_caps = {*testbed->OsCoreCap(1)};
  auto enclave = Enclave::Create(&testbed->monitor(), 0, image, load);
  if (!enclave.ok()) {
    std::printf("setup failed\n");
    return 1;
  }
  auto* nic = static_cast<DmaEngine*>(testbed->machine().FindDevice(Testbed::kNicBdf));

  std::printf("%-44s %-10s %-10s %-10s\n", "attack", "commodity", "sgx-model", "tyche");
  std::printf("%.100s\n",
              "--------------------------------------------------------------------------"
              "--------------------------");

  // 1. Privileged code reads protected user memory.
  {
    const bool commodity = stack.CanAccess(kernel, AddrRange{8 * kMiB, kPageSize});
    // SGX: EPC reads by the kernel are blocked (that is its one job).
    const bool sgx_leak = false;
    const bool tyche = testbed->machine().CheckedRead64(0, enclave->base()).ok();
    std::printf("%-44s %-10s %-10s %-10s\n", "1. kernel reads protected memory",
                Cell(commodity), Cell(sgx_leak), Cell(tyche));
  }

  // 2. Privileged code tampers with protected memory (integrity).
  {
    const bool commodity = stack.CanAccess(kernel, AddrRange{8 * kMiB, kPageSize});
    const bool tyche = testbed->machine().CheckedWrite64(0, enclave->base(), 0).ok();
    std::printf("%-44s %-10s %-10s %-10s\n", "2. kernel overwrites protected memory",
                Cell(commodity), Cell(false), Cell(tyche));
  }

  // 3. Enclave/library code reaches host memory it was never given.
  {
    // Commodity: a library shares the process address space by definition.
    // SGX: enclave code CAN dereference host memory (implicit inclusion).
    bool tyche = false;
    (void)enclave->Enter(1);
    tyche = testbed->machine()
                .CheckedRead64(1, testbed->Scratch(64 * kMiB))
                .ok();
    (void)enclave->Exit(1);
    std::printf("%-44s %-10s %-10s %-10s\n", "3. compartment reads host memory",
                Cell(true), Cell(SgxProcessor::kEnclaveSeesHostMemory), Cell(tyche));
  }

  // 4. Malicious driver DMA into protected memory.
  {
    const bool tyche =
        nic->Copy(&testbed->machine(), enclave->base(), testbed->Scratch(64 * kMiB), 64)
            .ok();
    // Commodity: devices DMA anywhere unless the kernel programs the IOMMU
    // (and the kernel is the attacker). SGX: EPC is DMA-protected.
    std::printf("%-44s %-10s %-10s %-10s\n", "4. driver DMA into protected memory",
                Cell(true), Cell(false), Cell(tyche));
  }

  // 5. Host forges/replays an attestation.
  {
    RemoteVerifier verifier(testbed->machine().tpm().attestation_key(),
                            testbed->golden_firmware(), testbed->golden_monitor());
    auto report = enclave->Attest(0, 1);
    bool tyche_forge = false;
    if (report.ok()) {
      DomainAttestation forged = *report;
      forged.measurement.bytes[0] ^= 1;
      forged.report_digest = forged.ComputeDigest();
      tyche_forge = verifier
                        .VerifyDomain(forged, testbed->monitor().public_key(), 1, nullptr)
                        .ok();
    }
    // Commodity systems have nothing to forge (no attestation at all).
    std::printf("%-44s %-10s %-10s %-10s\n", "5. forge attestation of a victim",
                CellNa(), Cell(false), Cell(tyche_forge));
  }

  // 6. Hide a sharing relationship from the verifier.
  {
    // Share the enclave's heap with the OS... impossible: the OS holds no
    // capability. Instead the OS shares some OTHER region and claims it is
    // the enclave's: the report's refcounts are signed, so the lie fails.
    RemoteVerifier verifier(testbed->machine().tpm().attestation_key(),
                            testbed->golden_firmware(), testbed->golden_monitor());
    auto report = enclave->Attest(0, 2);
    bool tyche_hide = false;
    if (report.ok()) {
      DomainAttestation doctored = *report;
      for (ResourceClaim& claim : doctored.resources) {
        claim.ref_count = 1;
      }
      doctored.report_digest = doctored.ComputeDigest();
      tyche_hide = verifier
                       .VerifyDomain(doctored, testbed->monitor().public_key(), 2, nullptr)
                       .ok();
    }
    std::printf("%-44s %-10s %-10s %-10s\n", "6. hide sharing from the verifier",
                CellNa(), CellNa(), Cell(tyche_hide));
  }

  // 7. Use revocation to read leftover secrets.
  {
    (void)enclave->Enter(1);
    (void)testbed->machine().CheckedWrite64(1, enclave->base() + kPageSize, 0x5ec4e7);
    (void)enclave->Exit(1);
    CapId granted = kInvalidCap;
    testbed->monitor().engine().ForEachActive([&](const Capability& cap) {
      if (cap.owner == enclave->domain() && cap.kind == ResourceKind::kMemory &&
          cap.range.Contains(enclave->base() + kPageSize)) {
        granted = cap.id;
      }
    });
    (void)testbed->monitor().Revoke(0, granted);
    const auto read = testbed->machine().CheckedRead64(0, enclave->base() + kPageSize);
    const bool tyche = read.ok() && *read == 0x5ec4e7;
    // Commodity: freed memory is returned unzeroed unless the OS decides
    // otherwise -- and here the OS is the attacker.
    std::printf("%-44s %-10s %-10s %-10s\n", "7. read secrets after revocation",
                Cell(true), Cell(false), Cell(tyche));
  }

  std::printf("\ncolumns: commodity = privilege hierarchy (no monitor); sgx-model = "
              "enclave-only\npoint solution; tyche = isolation monitor. The paper's claim "
              "is the tyche column.\n");
  const auto audit = testbed->monitor().AuditHardwareConsistency();
  std::printf("\nfinal hardware/capability audit: %s\n",
              audit.ok() && *audit ? "OK" : "FAILED");
  return 0;
}

}  // namespace
}  // namespace tyche

int main() { return tyche::Run(); }
