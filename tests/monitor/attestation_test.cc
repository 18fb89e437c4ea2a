// Copyright 2026 The Tyche Reproduction Authors.
// The two-tier attestation protocol end to end, including the negative
// cases: wrong monitor image, tampered reports, stale nonces.

#include "src/monitor/attestation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/monitor/boot.h"
#include "src/monitor/monitor.h"
#include "src/tyche/verifier.h"

namespace tyche {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

class AttestationTest : public ::testing::Test {
 protected:
  AttestationTest() {
    MachineConfig config;
    config.memory_bytes = 64ull << 20;
    config.num_cores = 2;
    machine_ = std::make_unique<Machine>(config);
    firmware_ = DemoFirmwareImage();
    image_ = DemoMonitorImage();
    BootParams params;
    params.firmware_image = firmware_;
    params.monitor_image = image_;
    auto outcome = MeasuredBoot(machine_.get(), params);
    EXPECT_TRUE(outcome.ok());
    monitor_ = std::move(outcome->monitor);
    os_ = outcome->initial_domain;
    golden_firmware_ = outcome->firmware_measurement;
    golden_monitor_ = outcome->monitor_measurement;
  }

  RemoteVerifier MakeVerifier() {
    return RemoteVerifier(machine_->tpm().attestation_key(), golden_firmware_,
                          golden_monitor_);
  }

  // Builds a minimal sealed enclave and returns (handle, expected golden
  // measurement computed offline like a customer would).
  CapId MakeSealedEnclave(uint64_t base) {
    auto created = monitor_->CreateDomain(0, "enclave");
    EXPECT_TRUE(created.ok());
    CapId os_mem = kInvalidCap;
    monitor_->engine().ForEachActive([&](const Capability& cap) {
      if (cap.owner == os_ && cap.kind == ResourceKind::kMemory &&
          cap.range.size > 8 * kMiB) {
        os_mem = cap.id;
      }
    });
    EXPECT_TRUE(monitor_->GrantMemory(0, os_mem, created->handle, AddrRange{base, kMiB},
                                      Perms(Perms::kRWX), CapRights(CapRights::kAll),
                                      RevocationPolicy(RevocationPolicy::kObfuscate))
                    .ok());
    CapId os_core = kInvalidCap;
    monitor_->engine().ForEachActive([&](const Capability& cap) {
      if (cap.owner == os_ && cap.kind == ResourceKind::kCpuCore && cap.unit == 0) {
        os_core = cap.id;
      }
    });
    EXPECT_TRUE(monitor_->ShareUnit(0, os_core, created->handle, CapRights{},
                                    RevocationPolicy{})
                    .ok());
    EXPECT_TRUE(monitor_->SetEntryPoint(0, created->handle, base).ok());
    EXPECT_TRUE(monitor_->ExtendMeasurement(0, created->handle, AddrRange{base, kMiB}).ok());
    EXPECT_TRUE(monitor_->Seal(0, created->handle).ok());
    return created->handle;
  }

  std::vector<uint8_t> firmware_;
  std::vector<uint8_t> image_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Monitor> monitor_;
  DomainId os_ = kInvalidDomain;
  Digest golden_firmware_;
  Digest golden_monitor_;
};

TEST_F(AttestationTest, Tier1MonitorIdentityVerifies) {
  const auto identity = monitor_->Identity(/*nonce=*/0xabc);
  ASSERT_TRUE(identity.ok());
  EXPECT_TRUE(MakeVerifier().VerifyMonitor(*identity, 0xabc).ok());
}

TEST_F(AttestationTest, Tier1RejectsStaleNonce) {
  const auto identity = monitor_->Identity(1);
  EXPECT_EQ(MakeVerifier().VerifyMonitor(*identity, 2).code(),
            ErrorCode::kAttestationMismatch);
}

TEST_F(AttestationTest, Tier1RejectsWrongMonitorImage) {
  // A machine booted with a DIFFERENT monitor image cannot convince the
  // verifier holding the golden measurement.
  MachineConfig config;
  config.memory_bytes = 64ull << 20;
  Machine evil_machine(config);
  std::vector<uint8_t> evil_image = DemoMonitorImage();
  evil_image[0] ^= 0xff;  // one flipped byte: a backdoored monitor
  BootParams params;
  params.firmware_image = firmware_;
  params.monitor_image = evil_image;
  auto outcome = MeasuredBoot(&evil_machine, params);
  ASSERT_TRUE(outcome.ok());
  const auto identity = outcome->monitor->Identity(7);
  ASSERT_TRUE(identity.ok());
  // Verifier still holds the GOLDEN monitor measurement.
  RemoteVerifier verifier(evil_machine.tpm().attestation_key(), golden_firmware_,
                          golden_monitor_);
  EXPECT_FALSE(verifier.VerifyMonitor(*identity, 7).ok());
}

TEST_F(AttestationTest, Tier1RejectsKeySubstitution) {
  // An attacker relaying a good quote cannot claim a different monitor key:
  // PCR1 binds the key hash.
  auto identity = *monitor_->Identity(3);
  identity.monitor_key = DeriveKeyPair(std::span<const uint8_t>(
                                           reinterpret_cast<const uint8_t*>("evil"), 4))
                             .pub;
  EXPECT_FALSE(MakeVerifier().VerifyMonitor(identity, 3).ok());
}

TEST_F(AttestationTest, Tier1MonitorKeyIsMeasurementBound) {
  // Different monitor image => different derived key (the seed is bound to
  // the measurement), so even the TPM-side key derivation isolates images.
  MachineConfig config;
  config.memory_bytes = 64ull << 20;
  Machine other_machine(config);
  std::vector<uint8_t> other_image = DemoMonitorImage();
  other_image[1] ^= 1;
  BootParams params;
  params.firmware_image = firmware_;
  params.monitor_image = other_image;
  auto outcome = MeasuredBoot(&other_machine, params);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->monitor->public_key() == monitor_->public_key());
}

TEST_F(AttestationTest, Tier2DomainReportVerifies) {
  const CapId handle = MakeSealedEnclave(16 * kMiB);
  const auto report = monitor_->AttestDomain(0, handle, /*nonce=*/42);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(MakeVerifier()
                  .VerifyDomain(*report, monitor_->public_key(), 42,
                                /*expected_measurement=*/nullptr)
                  .ok());
  EXPECT_TRUE(report->sealed);
  EXPECT_FALSE(report->measurement.IsZero());
}

TEST_F(AttestationTest, Tier2GoldenMeasurementMatchesOfflineComputation) {
  // A customer recomputes the expected measurement offline: content hash of
  // the measured range (as loaded), then the config hash. We reproduce the
  // monitor's computation independently here.
  const uint64_t base = 16 * kMiB;
  const CapId handle = MakeSealedEnclave(base);
  const auto report = *monitor_->AttestDomain(0, handle, 1);

  // Offline: measure content (zeros, since nothing was loaded)...
  Sha256 offline;
  const Digest content = Sha256::Hash(std::vector<uint8_t>(kMiB, 0));
  offline.UpdateValue(base);
  offline.UpdateValue(static_cast<uint64_t>(kMiB));
  offline.Update(std::span<const uint8_t>(content.bytes.data(), 32));
  // ...then the config: entry point + sorted resource list.
  offline.Update(std::string_view("tyche-config-v1"));
  offline.UpdateValue(base);
  // Memory cap first (kind 0), then the core cap (kind 1).
  offline.UpdateValue(static_cast<uint8_t>(ResourceKind::kMemory));
  offline.UpdateValue(base);
  offline.UpdateValue(static_cast<uint64_t>(kMiB));
  offline.UpdateValue(static_cast<uint64_t>(0));
  offline.UpdateValue(static_cast<uint8_t>(Perms::kRWX));
  offline.UpdateValue(static_cast<uint8_t>(ResourceKind::kCpuCore));
  offline.UpdateValue(static_cast<uint64_t>(0));
  offline.UpdateValue(static_cast<uint64_t>(0));
  offline.UpdateValue(static_cast<uint64_t>(0));
  offline.UpdateValue(static_cast<uint8_t>(0));
  const Digest expected = offline.Finalize();

  EXPECT_EQ(report.measurement, expected);
  EXPECT_TRUE(MakeVerifier()
                  .VerifyDomain(report, monitor_->public_key(), 1, &expected)
                  .ok());
}

TEST_F(AttestationTest, Tier2RejectsTamperedResources) {
  const CapId handle = MakeSealedEnclave(16 * kMiB);
  auto report = *monitor_->AttestDomain(0, handle, 42);
  // The untrusted OS relays the report but hides a sharing relationship.
  report.resources[0].ref_count = 1;
  report.resources[0].range.size += kPageSize;
  EXPECT_FALSE(
      MakeVerifier().VerifyDomain(report, monitor_->public_key(), 42, nullptr).ok());
}

TEST_F(AttestationTest, Tier2RejectsUnsealedDomain) {
  auto created = monitor_->CreateDomain(0, "unsealed");
  ASSERT_TRUE(created.ok());
  const auto report = monitor_->AttestDomain(0, created->handle, 1);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(
      MakeVerifier().VerifyDomain(*report, monitor_->public_key(), 1, nullptr).ok());
}

TEST_F(AttestationTest, Tier2RefCountsExposeSharing) {
  const uint64_t base = 16 * kMiB;
  const CapId handle = MakeSealedEnclave(base);
  auto report = *monitor_->AttestDomain(0, handle, 5);
  // Memory is exclusive, so the default (all-exclusive) policy passes; the
  // core stays shared with the OS, which a memory policy does not judge.
  EXPECT_TRUE(CustomerVerifier::CheckSharingPolicy(report, SharingPolicy{}).ok());
  EXPECT_TRUE(std::any_of(report.resources.begin(), report.resources.end(),
                          [](const ResourceClaim& claim) {
                            return claim.kind == ResourceKind::kCpuCore && claim.ref_count > 1;
                          }));

  // Now build a domain whose memory is shared with the OS: the report must
  // show ref_count 2, and the customer's exclusivity policy must reject it.
  auto created = monitor_->CreateDomain(0, "leaky");
  ASSERT_TRUE(created.ok());
  CapId os_mem = kInvalidCap;
  monitor_->engine().ForEachActive([&](const Capability& cap) {
    if (cap.owner == os_ && cap.kind == ResourceKind::kMemory && cap.range.size > 8 * kMiB) {
      os_mem = cap.id;
    }
  });
  ASSERT_TRUE(monitor_->ShareMemory(0, os_mem, created->handle, AddrRange{32 * kMiB, kMiB},
                                    Perms(Perms::kRWX), CapRights{}, RevocationPolicy{})
                  .ok());
  ASSERT_TRUE(monitor_->SetEntryPoint(0, created->handle, 32 * kMiB).ok());
  ASSERT_TRUE(monitor_->Seal(0, created->handle).ok());
  const auto leaky = *monitor_->AttestDomain(0, created->handle, 6);
  EXPECT_EQ(CustomerVerifier::CheckSharingPolicy(leaky, SharingPolicy{}).code(),
            ErrorCode::kPolicyViolation);
}

TEST_F(AttestationTest, ExpectedPcrHelpersMatchTpm) {
  const auto identity = *monitor_->Identity(9);
  EXPECT_EQ(*machine_->tpm().ReadPcr(Tpm::kPcrFirmware), ExpectedPcr0(golden_firmware_));
  EXPECT_EQ(*machine_->tpm().ReadPcr(Tpm::kPcrMonitor),
            ExpectedPcr1(golden_monitor_, identity.monitor_key));
}

}  // namespace
}  // namespace tyche
