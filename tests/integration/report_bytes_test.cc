// Copyright 2026 The Tyche Reproduction Authors.
// Pinned report bytes: the SHA-256 of the serialized attestation reports
// for fixed nonces, on a 3x64 fleet and on a testbed's OS self-attest (the
// Figure 4 scenario's reports are pinned in figure4_test). A change to how
// the monitor derives claims, ranges, permissions or reference counts that
// alters a single report byte alters these digests: the report is the
// verifier's wire format, so such a change is a format break, not a test to
// update.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/fleet/frontend.h"
#include "src/monitor/attestation.h"
#include "src/os/testbed.h"
#include "src/tyche/loader.h"

namespace tyche {
namespace {

// Appends one report's wire image to `wire`.
void AppendReport(const Result<DomainAttestation>& report, std::vector<uint8_t>* wire) {
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::vector<uint8_t> bytes = SerializeAttestation(*report);
  wire->insert(wire->end(), bytes.begin(), bytes.end());
}

TEST(ReportBytesTest, EveryFleetServiceReportIsPinned) {
  FleetOptions options;
  options.num_nodes = 3;
  options.services_per_node = 64;
  const std::unique_ptr<Fleet> fleet = Fleet::Create(options);
  ASSERT_NE(fleet, nullptr);
  ASSERT_EQ(fleet->num_services(), 192u);
  std::vector<uint8_t> wire;
  for (uint32_t id = 0; id < fleet->num_services(); ++id) {
    const ServiceRecord& service = fleet->service(id);
    MonitorNode* node = fleet->node(service.node);
    const auto handle = FindUnitCap(*node->monitor(), node->os_domain(),
                                    ResourceKind::kDomain, service.domain);
    ASSERT_TRUE(handle.ok());
    AppendReport(node->monitor()->AttestDomain(0, *handle, 0xF1EE7000 + id), &wire);
  }
  EXPECT_EQ(Sha256::Hash(wire).ToHex(),
            "dd4994763bed4f05f8680eb68b1d10f028ad0b53240306b4109aec558a7e0428");
}

TEST(ReportBytesTest, TestbedOsSelfAttestIsPinned) {
  auto testbed = Testbed::Create(TestbedOptions{});
  ASSERT_TRUE(testbed.ok());
  Monitor& monitor = testbed->monitor();
  std::vector<uint8_t> wire;
  AppendReport(monitor.AttestSelf(0, 0x05E1F), &wire);
  // Share a window out of the OS's memory: its report then splits the
  // covering capability into private and shared (count 2) claims.
  const auto peer = monitor.CreateDomain(0, "peer");
  ASSERT_TRUE(peer.ok());
  const AddrRange window{testbed->Scratch(3ull << 20), 1ull << 20};
  const auto os_mem = testbed->OsMemCap(window);
  ASSERT_TRUE(os_mem.ok());
  ASSERT_TRUE(monitor
                  .ShareMemory(0, *os_mem, peer->handle, window, Perms(Perms::kRW),
                               CapRights{}, RevocationPolicy{})
                  .ok());
  AppendReport(monitor.AttestSelf(0, 0x05E1F + 1), &wire);
  AppendReport(monitor.AttestDomain(0, peer->handle, 0x05E1F + 2), &wire);
  EXPECT_EQ(Sha256::Hash(wire).ToHex(),
            "1628206eccfcbb806cd70fc2b36ec9bda14a7860fe3b039c9937eb5c0c0aed40");
}

}  // namespace
}  // namespace tyche
