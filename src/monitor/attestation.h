// Copyright 2026 The Tyche Reproduction Authors.
// Two-tier attestation (§3.4):
//   Tier 1 -- the TPM measures the boot chain (firmware, monitor image,
//   monitor attestation key) and signs quotes; a verifier compares against
//   golden values to conclude "the machine is under the complete control of
//   a specific monitor implementation".
//   Tier 2 -- the (now trusted) monitor signs per-domain attestations that
//   enumerate physical resources, their reference counts, and the
//   measurement of selected memory regions, which "makes sharing and
//   communication paths between domains explicit".
// This is the monitor's side: the report formats, their wire codecs and the
// digest the monitor signs. The verifier's side of both tiers runs
// off-machine and lives in src/tyche/verifier.h, outside the monitor's TCB.

#ifndef SRC_MONITOR_ATTESTATION_H_
#define SRC_MONITOR_ATTESTATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/capability/types.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/hw/tpm.h"
#include "src/support/status.h"

namespace tyche {

// One resource entry in a domain attestation.
struct ResourceClaim {
  ResourceKind kind = ResourceKind::kMemory;
  AddrRange range;     // memory only
  uint64_t unit = 0;   // cores / devices / domain handles
  Perms perms;         // memory only
  uint32_t ref_count = 0;

  bool operator==(const ResourceClaim&) const = default;
};

// Tier-2 report: signed by the monitor.
struct DomainAttestation {
  uint32_t domain = 0;
  uint64_t nonce = 0;
  bool sealed = false;
  Digest measurement;  // rolling measurement finalized at seal time
  std::vector<ResourceClaim> resources;

  Digest report_digest;        // hash over all of the above
  SchnorrSignature signature;  // by the monitor attestation key

  // Canonical serialization hash (shared by signer and verifier).
  Digest ComputeDigest() const;
};

// Tier-1 identity: what a remote party needs to trust the monitor.
struct MonitorIdentity {
  SchnorrPublicKey tpm_key;      // TPM attestation key (trust anchor)
  SchnorrPublicKey monitor_key;  // monitor's report-signing key
  Digest firmware_measurement;   // H(firmware image)
  Digest monitor_measurement;    // H(monitor image)
  TpmQuote boot_quote;           // over PCR0 (firmware) and PCR1 (monitor+key)
};

// Wire format for reports (remote transport / the dispatch ABI's
// out-buffer). Deserialization is hardened against truncation and garbage:
// a report altered in transit fails digest/signature checks afterwards.
std::vector<uint8_t> SerializeAttestation(const DomainAttestation& report);
Result<DomainAttestation> DeserializeAttestation(std::span<const uint8_t> bytes);

std::vector<uint8_t> SerializeMonitorIdentity(const MonitorIdentity& identity);
Result<MonitorIdentity> DeserializeMonitorIdentity(std::span<const uint8_t> bytes);

// Hash of a public key (for PCR binding).
Digest HashPublicKey(const SchnorrPublicKey& key);

}  // namespace tyche

#endif  // SRC_MONITOR_ATTESTATION_H_
