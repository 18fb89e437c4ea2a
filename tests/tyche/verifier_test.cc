// Copyright 2026 The Tyche Reproduction Authors.
// Customer-side verification, including multi-domain deployment attestation
// (§4.2: "all communication paths are secured and attested").

#include "src/tyche/verifier.h"

#include <gtest/gtest.h>

#include "tests/testing/booted_machine.h"

namespace tyche {
namespace {

class VerifierTest : public BootedMachineTest {};

// Builds the two-domain deployment used by the deployment tests: domain A
// (parent) with a nested domain B and one declared channel page.
struct TwoDomainWorld {
  LoadedDomain a;
  LoadedDomain b;
  AddrRange channel;
  DomainAttestation report_a;
  DomainAttestation report_b;
};

class DeploymentTest : public BootedMachineTest {
 protected:
  Result<TwoDomainWorld> Build() {
    TwoDomainWorld world;
    const TycheImage image_a = TycheImage::MakeDemo("a", 2 * kPageSize, 0);
    LoadOptions load_a;
    load_a.base = Scratch(kMiB, 0).base;
    load_a.size = 8 * kMiB;
    load_a.cores = {1};
    load_a.core_caps = {OsCoreCap(1)};
    load_a.seal = false;
    TYCHE_ASSIGN_OR_RETURN(world.a, LoadImage(monitor_.get(), 0, image_a, load_a));

    // From inside A: spawn B (unsealed), share the channel, seal both.
    TYCHE_RETURN_IF_ERROR(monitor_->Transition(1, world.a.handle));
    const DomainId a_id = monitor_->CurrentDomain(1);
    const TycheImage image_b = TycheImage::MakeDemo("b", kPageSize, 0);
    LoadOptions load_b;
    load_b.base = load_a.base + 4 * kMiB;
    load_b.size = kMiB;
    load_b.cores = {1};
    load_b.core_caps = {*FindUnitCap(*monitor_, a_id, ResourceKind::kCpuCore, 1)};
    load_b.seal = false;
    TYCHE_ASSIGN_OR_RETURN(world.b, LoadImage(monitor_.get(), 1, image_b, load_b));
    world.channel = AddrRange{load_a.base + 2 * kMiB, kPageSize};
    TYCHE_RETURN_IF_ERROR(
        monitor_
            ->ShareMemory(1, *FindMemoryCap(*monitor_, a_id, world.channel),
                          world.b.handle, world.channel, Perms(Perms::kRW), CapRights{},
                          RevocationPolicy(RevocationPolicy::kObfuscate))
            .status());
    TYCHE_RETURN_IF_ERROR(monitor_->Seal(1, world.b.handle));
    TYCHE_ASSIGN_OR_RETURN(world.report_b, monitor_->AttestDomain(1, world.b.handle, 2));
    TYCHE_RETURN_IF_ERROR(monitor_->ReturnFromDomain(1));
    TYCHE_RETURN_IF_ERROR(monitor_->Seal(0, world.a.handle));
    TYCHE_ASSIGN_OR_RETURN(world.report_a, monitor_->AttestDomain(0, world.a.handle, 1));
    return world;
  }

  DeploymentPolicy PolicyFor(const TwoDomainWorld& world) {
    DeploymentPolicy policy;
    policy.channels.push_back(
        DeploymentChannel{world.channel, {world.a.domain, world.b.domain}, 0});
    return policy;
  }
};

TEST_F(DeploymentTest, HonestDeploymentVerifies) {
  auto world = Build();
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  const DomainAttestation reports[] = {world->report_a, world->report_b};
  EXPECT_TRUE(VerifyDeployment(reports, PolicyFor(*world)).ok());
}

TEST_F(DeploymentTest, UndeclaredChannelRejected) {
  auto world = Build();
  ASSERT_TRUE(world.ok());
  const DomainAttestation reports[] = {world->report_a, world->report_b};
  // The customer declares NO channels: the existing one must be flagged.
  EXPECT_EQ(VerifyDeployment(reports, DeploymentPolicy{}).code(),
            ErrorCode::kPolicyViolation);
}

TEST_F(DeploymentTest, EavesdropperDetectedByRefCount) {
  auto world = Build();
  ASSERT_TRUE(world.ok());
  // Forge: the relaying OS doctors B's channel refcount down (hiding a
  // third party). Cross-checking still fails against A's honest report...
  DomainAttestation doctored_b = world->report_b;
  for (ResourceClaim& claim : doctored_b.resources) {
    if (world->channel.Contains(claim.range) && claim.ref_count == 2) {
      claim.ref_count = 3;  // pretend an eavesdropper joined
    }
  }
  const DomainAttestation reports[] = {world->report_a, doctored_b};
  EXPECT_EQ(VerifyDeployment(reports, PolicyFor(*world)).code(),
            ErrorCode::kPolicyViolation);
}

TEST_F(DeploymentTest, MissingEndpointReportRejected) {
  auto world = Build();
  ASSERT_TRUE(world.ok());
  const DomainAttestation reports[] = {world->report_a};  // B's report withheld
  EXPECT_EQ(VerifyDeployment(reports, PolicyFor(*world)).code(),
            ErrorCode::kPolicyViolation);
}

TEST_F(DeploymentTest, ChannelNeverEstablishedRejected) {
  auto world = Build();
  ASSERT_TRUE(world.ok());
  // The customer expects a SECOND channel that was never set up.
  DeploymentPolicy policy = PolicyFor(*world);
  policy.channels.push_back(DeploymentChannel{
      AddrRange{world->a.base + 3 * kMiB, kPageSize}, {world->a.domain, world->b.domain},
      0});
  const DomainAttestation reports[] = {world->report_a, world->report_b};
  EXPECT_EQ(VerifyDeployment(reports, policy).code(), ErrorCode::kPolicyViolation);
}

TEST_F(DeploymentTest, ExternalPartiesAccounted) {
  // A channel declared as "shared with 1 external party" (e.g. the OS): a
  // refcount of endpoints+1 is accepted, anything else rejected.
  const TycheImage image = TycheImage::MakeDemo("ext", 2 * kPageSize, 4 * kPageSize);
  LoadOptions load;
  load.base = Scratch(32 * kMiB, 0).base;
  load.size = kMiB;
  load.cores = {1};
  load.core_caps = {OsCoreCap(1)};
  auto loaded = LoadImage(monitor_.get(), 0, image, load);
  ASSERT_TRUE(loaded.ok());
  const AddrRange netbuf{load.base + image.segments()[1].offset, image.segments()[1].size};
  const auto report = monitor_->AttestDomain(0, loaded->handle, 5);
  ASSERT_TRUE(report.ok());

  DeploymentPolicy policy;
  policy.channels.push_back(DeploymentChannel{netbuf, {loaded->domain}, 1});
  const DomainAttestation reports[] = {*report};
  EXPECT_TRUE(VerifyDeployment(reports, policy).ok());
  policy.channels[0].external_parties = 0;
  EXPECT_FALSE(VerifyDeployment(reports, policy).ok());
}

TEST_F(VerifierTest, SharingPolicyWithExpectedShared) {
  const TycheImage image = TycheImage::MakeDemo("p", 2 * kPageSize, 4 * kPageSize);
  LoadOptions load;
  load.base = Scratch(2 * kMiB, 0).base;
  load.size = kMiB;
  load.cores = {1};
  load.core_caps = {OsCoreCap(1)};
  auto loaded = LoadImage(monitor_.get(), 0, image, load);
  ASSERT_TRUE(loaded.ok());
  const auto report = monitor_->AttestDomain(0, loaded->handle, 5);
  ASSERT_TRUE(report.ok());

  // Default policy (all exclusive) fails because of the shared segment...
  EXPECT_FALSE(CustomerVerifier::CheckSharingPolicy(*report, SharingPolicy{}).ok());
  // ... declaring it makes the report pass.
  SharingPolicy policy;
  policy.expected_shared = {
      AddrRange{load.base + image.segments()[1].offset, image.segments()[1].size}};
  EXPECT_TRUE(CustomerVerifier::CheckSharingPolicy(*report, policy).ok());
}

TEST_F(VerifierTest, Tier2BeforeTier1Refused) {
  CustomerVerifier customer(machine_->tpm().attestation_key(), golden_firmware_,
                            golden_monitor_);
  DomainAttestation report;
  EXPECT_EQ(customer.VerifyDomainAgainstImage(report, TycheImage("x"), 0, kPageSize, {}, 0)
                .code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(customer.monitor_verified());
}

// A failed re-verification must withdraw trust: tier 2 stops running against
// a machine whose latest tier-1 check failed.
TEST_F(VerifierTest, FailedReverificationDropsMonitorTrust) {
  CustomerVerifier customer(machine_->tpm().attestation_key(), golden_firmware_,
                            golden_monitor_);
  const auto identity = monitor_->Identity(/*nonce=*/11);
  ASSERT_TRUE(identity.ok());
  ASSERT_TRUE(customer.VerifyMonitor(*identity, 11).ok());
  ASSERT_TRUE(customer.monitor_verified());

  // The same quote replayed against a fresh challenge is stale.
  EXPECT_EQ(customer.VerifyMonitor(*identity, 12).code(), ErrorCode::kAttestationMismatch);
  EXPECT_FALSE(customer.monitor_verified());
  DomainAttestation report;
  EXPECT_EQ(customer.VerifyDomainAgainstImage(report, TycheImage("x"), 0, kPageSize, {}, 0)
                .code(),
            ErrorCode::kFailedPrecondition);
}

// The single and the batched tier-2 paths give every report the same verdict
// (code and message), checked alone and mixed into one batch.
TEST_F(VerifierTest, SingleAndBatchedTier2VerdictsAgree) {
  constexpr uint64_t kNonce = 7;
  const TycheImage image = TycheImage::MakeDemo("t2", kPageSize, 0);
  LoadOptions load;
  load.base = Scratch(4 * kMiB, 0).base;
  load.size = kMiB;
  load.cores = {1};
  load.core_caps = {OsCoreCap(1)};
  const auto sealed = LoadImage(monitor_.get(), 0, image, load);
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  load.base += 2 * kMiB;
  load.seal = false;
  const auto unsealed = LoadImage(monitor_.get(), 0, image, load);
  ASSERT_TRUE(unsealed.ok()) << unsealed.status().ToString();
  const auto report = monitor_->AttestDomain(0, sealed->handle, kNonce);
  const auto unsealed_report = monitor_->AttestDomain(0, unsealed->handle, kNonce);
  ASSERT_TRUE(report.ok() && unsealed_report.ok());
  ASSERT_FALSE(report->resources.empty());

  const Digest golden = report->measurement;
  Digest wrong = golden;
  wrong.bytes[0] ^= 0x01;
  const std::vector<uint8_t> valid = SerializeAttestation(*report);
  std::vector<uint8_t> truncated = valid;
  truncated.pop_back();
  DomainAttestation edited = *report;
  ++edited.resources[0].ref_count;
  DomainAttestation forged = *report;
  forged.signature.s ^= 1;

  struct Row {
    const char* name;
    std::vector<uint8_t> bytes;
    uint64_t nonce;
    const Digest* measurement;
    const char* message;  // what the single path says, as a prefix
  };
  const std::vector<Row> rows = {
      {"valid", valid, kNonce, &golden, ""},
      {"truncated", truncated, kNonce, &golden, "attestation failed to deserialize"},
      {"stale nonce", valid, kNonce + 1, &golden, "stale report nonce"},
      {"edited claim", SerializeAttestation(edited), kNonce, &golden,
       "report digest inconsistent"},
      {"forged signature", SerializeAttestation(forged), kNonce, &golden,
       "report signature invalid"},
      {"unsealed", SerializeAttestation(*unsealed_report), kNonce, nullptr,
       "domain not sealed"},
      {"wrong golden", valid, kNonce, &wrong,
       "measurement does not match golden value"},
  };
  const SchnorrPublicKey& key = monitor_->public_key();
  std::vector<BatchReportInput> mixed;
  for (const Row& row : rows) {
    mixed.push_back(BatchReportInput{row.bytes, row.nonce, row.measurement});
  }
  const std::vector<BatchReportOutcome> mixed_outcomes =
      VerifySerializedReportBatch(mixed, key);
  ASSERT_EQ(mixed_outcomes.size(), rows.size());

  for (size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].name);
    const auto single = VerifySerializedReport(rows[i].bytes, key, rows[i].nonce,
                                               rows[i].measurement);
    const std::vector<BatchReportOutcome> alone =
        VerifySerializedReportBatch(std::span<const BatchReportInput>(&mixed[i], 1), key);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(single.ok(), i == 0);
    EXPECT_EQ(single.status().message().rfind(rows[i].message, 0), 0u)
        << single.status().ToString();
    for (const BatchReportOutcome* batched : {&alone[0], &mixed_outcomes[i]}) {
      EXPECT_EQ(batched->status.code(), single.status().code());
      EXPECT_EQ(batched->status.message(), single.status().message());
      ASSERT_EQ(batched->report.has_value(), single.ok());
      if (single.ok()) {
        EXPECT_EQ(SerializeAttestation(*batched->report), SerializeAttestation(*single));
      }
    }
  }
}

}  // namespace
}  // namespace tyche
