// Copyright 2026 The Tyche Reproduction Authors.

#include "src/tyche/verifier.h"

#include <algorithm>

#include "src/monitor/audit.h"
#include "src/monitor/recovery.h"
#include "src/support/journal.h"
#include "src/tyche/graph_export.h"

namespace tyche {

namespace {

Digest ExtendDigest(const Digest& pcr, const Digest& value) {
  Sha256 ctx;
  ctx.Update(std::span<const uint8_t>(pcr.bytes.data(), pcr.bytes.size()));
  ctx.Update(std::span<const uint8_t>(value.bytes.data(), value.bytes.size()));
  return ctx.Finalize();
}

// Tier-2 checks before the signature, in the order every path runs them:
// nonce freshness, then digest consistency.
Status CheckBeforeSignature(const DomainAttestation& report, uint64_t expected_nonce) {
  if (report.nonce != expected_nonce) {
    return Error(ErrorCode::kAttestationMismatch, "stale report nonce");
  }
  if (report.ComputeDigest() != report.report_digest) {
    return Error(ErrorCode::kAttestationMismatch, "report digest inconsistent");
  }
  return OkStatus();
}

// The wire paths' pre-signature check: a hardened parse, then the checks
// above. A parse failure on attestation bytes is an integrity event, not a
// format quibble: it surfaces as the typed mismatch the fleet's retry and
// breaker logic key on.
Result<DomainAttestation> ParseBeforeSignature(std::span<const uint8_t> bytes,
                                               uint64_t expected_nonce) {
  auto report = DeserializeAttestation(bytes);
  if (!report.ok()) {
    return Error(ErrorCode::kAttestationMismatch,
                 "attestation failed to deserialize: " + report.status().message());
  }
  TYCHE_RETURN_IF_ERROR(CheckBeforeSignature(*report, expected_nonce));
  return report;
}

// Tier-2 checks after the signature: sealing, then the golden measurement.
Status CheckAfterSignature(const DomainAttestation& report,
                           const Digest* expected_measurement) {
  if (!report.sealed) {
    return Error(ErrorCode::kAttestationMismatch, "domain not sealed");
  }
  if (expected_measurement != nullptr && report.measurement != *expected_measurement) {
    return Error(ErrorCode::kAttestationMismatch, "measurement does not match golden value");
  }
  return OkStatus();
}

// Finds the channel covering `range`, if any.
const DeploymentChannel* ChannelFor(const DeploymentPolicy& policy, const AddrRange& range) {
  for (const DeploymentChannel& channel : policy.channels) {
    if (channel.range.Contains(range)) {
      return &channel;
    }
  }
  return nullptr;
}

bool ChannelNamesDomain(const DeploymentChannel& channel, uint32_t domain) {
  for (const uint32_t endpoint : channel.endpoints) {
    if (endpoint == domain) {
      return true;
    }
  }
  return false;
}

}  // namespace

Digest ExpectedPcr0(const Digest& firmware_measurement) {
  return ExtendDigest(Digest{}, firmware_measurement);
}

Digest ExpectedPcr1(const Digest& monitor_measurement, const SchnorrPublicKey& monitor_key) {
  const Digest after_image = ExtendDigest(Digest{}, monitor_measurement);
  return ExtendDigest(after_image, HashPublicKey(monitor_key));
}

Status RemoteVerifier::VerifyMonitor(const MonitorIdentity& identity,
                                     uint64_t expected_nonce) const {
  if (!(identity.tpm_key == tpm_key_)) {
    return Error(ErrorCode::kAttestationMismatch, "untrusted TPM key");
  }
  if (identity.firmware_measurement != golden_firmware_) {
    return Error(ErrorCode::kAttestationMismatch, "firmware measurement mismatch");
  }
  if (identity.monitor_measurement != golden_monitor_) {
    return Error(ErrorCode::kAttestationMismatch, "monitor measurement mismatch");
  }
  const TpmQuote& quote = identity.boot_quote;
  if (quote.nonce != expected_nonce) {
    return Error(ErrorCode::kAttestationMismatch, "stale quote nonce");
  }
  const uint32_t expected_mask = (1u << Tpm::kPcrFirmware) | (1u << Tpm::kPcrMonitor);
  if (quote.pcr_mask != expected_mask || quote.pcr_values.size() != 2) {
    return Error(ErrorCode::kAttestationMismatch, "quote does not cover boot PCRs");
  }
  if (quote.pcr_values[0] != ExpectedPcr0(golden_firmware_)) {
    return Error(ErrorCode::kAttestationMismatch, "PCR0 does not match golden firmware");
  }
  if (quote.pcr_values[1] != ExpectedPcr1(golden_monitor_, identity.monitor_key)) {
    return Error(ErrorCode::kAttestationMismatch,
                 "PCR1 does not bind golden monitor to claimed key");
  }
  if (!Tpm::VerifyQuote(quote, tpm_key_)) {
    return Error(ErrorCode::kSignatureInvalid, "TPM quote signature invalid");
  }
  return OkStatus();
}

Status RemoteVerifier::VerifyDomain(const DomainAttestation& report,
                                    const SchnorrPublicKey& monitor_key,
                                    uint64_t expected_nonce,
                                    const Digest* expected_measurement) {
  TYCHE_RETURN_IF_ERROR(CheckBeforeSignature(report, expected_nonce));
  if (!SchnorrVerify(monitor_key, report.report_digest, report.signature)) {
    return Error(ErrorCode::kSignatureInvalid, "report signature invalid");
  }
  return CheckAfterSignature(report, expected_measurement);
}

Status VerifyDeployment(std::span<const DomainAttestation> reports,
                        const DeploymentPolicy& policy) {
  // Pass 1: every memory claim must be either exclusive or a declared
  // channel with exactly the expected reference count.
  for (const DomainAttestation& report : reports) {
    for (const ResourceClaim& claim : report.resources) {
      if (claim.kind != ResourceKind::kMemory) {
        continue;
      }
      const DeploymentChannel* channel = ChannelFor(policy, claim.range);
      if (channel == nullptr) {
        if (claim.ref_count != 1) {
          return Error(ErrorCode::kPolicyViolation,
                       "undeclared sharing on a non-channel region of domain " +
                           std::to_string(report.domain));
        }
        continue;
      }
      if (!ChannelNamesDomain(*channel, report.domain)) {
        return Error(ErrorCode::kPolicyViolation,
                     "domain " + std::to_string(report.domain) +
                         " holds a channel it is not an endpoint of");
      }
      const uint32_t expected =
          static_cast<uint32_t>(channel->endpoints.size()) + channel->external_parties;
      if (claim.ref_count != expected) {
        return Error(ErrorCode::kPolicyViolation,
                     "channel refcount mismatch (eavesdropper?) on domain " +
                         std::to_string(report.domain));
      }
    }
  }
  // Pass 2: every declared channel must actually appear in each endpoint's
  // report (a missing claim means the path was never established).
  for (const DeploymentChannel& channel : policy.channels) {
    for (const uint32_t endpoint : channel.endpoints) {
      const DomainAttestation* report = nullptr;
      for (const DomainAttestation& candidate : reports) {
        if (candidate.domain == endpoint) {
          report = &candidate;
          break;
        }
      }
      if (report == nullptr) {
        return Error(ErrorCode::kPolicyViolation,
                     "no report for channel endpoint " + std::to_string(endpoint));
      }
      bool covered = false;
      for (const ResourceClaim& claim : report->resources) {
        if (claim.kind == ResourceKind::kMemory && channel.range.Contains(claim.range) &&
            claim.range.base == channel.range.base &&
            claim.range.size == channel.range.size) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        return Error(ErrorCode::kPolicyViolation,
                     "endpoint " + std::to_string(endpoint) +
                         " does not hold the declared channel");
      }
    }
  }
  return OkStatus();
}

Status CustomerVerifier::VerifyMonitor(const MonitorIdentity& identity, uint64_t nonce) {
  monitor_key_.reset();
  TYCHE_RETURN_IF_ERROR(verifier_.VerifyMonitor(identity, nonce));
  monitor_key_ = identity.monitor_key;
  return OkStatus();
}

Status CustomerVerifier::VerifyDomainAgainstImage(const DomainAttestation& report,
                                                  const TycheImage& image, uint64_t base,
                                                  uint64_t size,
                                                  const std::vector<CoreId>& cores,
                                                  uint64_t nonce) {
  if (!monitor_verified()) {
    return Error(ErrorCode::kFailedPrecondition, "verify the monitor first (tier 1)");
  }
  TYCHE_ASSIGN_OR_RETURN(const Digest golden,
                         ComputeExpectedMeasurement(image, base, size, cores));
  return RemoteVerifier::VerifyDomain(report, *monitor_key_, nonce, &golden);
}

Status CustomerVerifier::CheckSharingPolicy(const DomainAttestation& report,
                                            const SharingPolicy& policy) {
  for (const ResourceClaim& claim : report.resources) {
    if (claim.kind != ResourceKind::kMemory) {
      continue;
    }
    bool expected_shared = false;
    for (const AddrRange& range : policy.expected_shared) {
      if (range.Contains(claim.range)) {
        expected_shared = true;
        break;
      }
    }
    const uint32_t limit =
        expected_shared ? policy.shared_ref_count : policy.max_memory_ref_count;
    if (claim.ref_count > limit) {
      return Error(ErrorCode::kPolicyViolation,
                   "memory region shared more widely than the policy allows");
    }
  }
  return OkStatus();
}

Result<DomainAttestation> VerifySerializedReport(
    std::span<const uint8_t> bytes, const SchnorrPublicKey& monitor_key,
    uint64_t expected_nonce, const Digest* expected_measurement) {
  auto report = ParseBeforeSignature(bytes, expected_nonce);
  if (!report.ok()) {
    return report;
  }
  if (!SchnorrVerify(monitor_key, report->report_digest, report->signature)) {
    return Error(ErrorCode::kSignatureInvalid, "report signature invalid");
  }
  TYCHE_RETURN_IF_ERROR(CheckAfterSignature(*report, expected_measurement));
  return report;
}

std::vector<BatchReportOutcome> VerifySerializedReportBatch(
    std::span<const BatchReportInput> inputs, const SchnorrPublicKey& monitor_key) {
  std::vector<BatchReportOutcome> outcomes(inputs.size());

  // Phase 1: the single path's pre-signature check per report, so per-item
  // statuses are identical to the unbatched path. Reports that survive
  // contribute their signature to the shared batch.
  std::vector<SchnorrBatchItem> items;
  std::vector<size_t> item_owner;  // batch index -> input index
  items.reserve(inputs.size());
  item_owner.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto report = ParseBeforeSignature(inputs[i].bytes, inputs[i].expected_nonce);
    if (!report.ok()) {
      outcomes[i].status = report.status();
      continue;
    }
    items.push_back(SchnorrBatchItem{monitor_key, report->report_digest, report->signature});
    item_owner.push_back(i);
    outcomes[i].report = std::move(*report);
  }

  // Phase 2: one combined signature check for every structurally sound
  // report. The outcome's invalid list attributes any forgery to its index.
  const SchnorrBatchOutcome batch = SchnorrBatchVerify(items);
  std::vector<bool> sig_ok(items.size(), true);
  for (const size_t bad : batch.invalid) {
    sig_ok[bad] = false;
  }

  // Phase 3: the single path's post-signature check.
  for (size_t b = 0; b < items.size(); ++b) {
    const size_t i = item_owner[b];
    outcomes[i].status =
        sig_ok[b] ? CheckAfterSignature(*outcomes[i].report, inputs[i].expected_measurement)
                  : Error(ErrorCode::kSignatureInvalid, "report signature invalid");
    if (!outcomes[i].status.ok()) {
      outcomes[i].report.reset();
    }
  }
  return outcomes;
}

Status VerifyJournal(std::span<const uint8_t> journal_bytes,
                     std::span<const uint8_t> snapshot_bytes,
                     const SchnorrPublicKey& monitor_key,
                     const std::string* expected_graph_json) {
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal parsed, Journal::Deserialize(journal_bytes));
  TYCHE_RETURN_IF_ERROR(
      Journal::VerifyChain(parsed.records, parsed.checkpoints, monitor_key));
  const bool genesis = snapshot_bytes.empty();
  std::span<const JournalRecord> replayed = parsed.records;
  CapabilityEngine shadow;
  ReplayOptions options;
  if (genesis && !replayed.empty() && replayed.front().seq != 0) {
    // A compacted journal starts mid-history: the chain above is anchored to
    // a signed checkpoint, but a genesis replay is impossible without the
    // anchoring snapshot.
    if (expected_graph_json != nullptr) {
      return Error(ErrorCode::kFailedPrecondition,
                   "journal: truncated journal needs its snapshot to replay "
                   "(use --snapshot)");
    }
    return OkStatus();
  }
  if (!genesis) {
    const Digest digest = SnapshotDigest(snapshot_bytes);
    const JournalCheckpoint* bound = nullptr;
    for (const JournalCheckpoint& checkpoint : parsed.checkpoints) {
      if (checkpoint.snapshot == digest) {
        bound = &checkpoint;
      }
    }
    if (bound == nullptr) {
      return Error(ErrorCode::kJournalSignatureInvalid,
                   "snapshot digest is not bound to any signed checkpoint");
    }
    TYCHE_RETURN_IF_ERROR(RestoreSnapshotEngine(snapshot_bytes, &shadow));
    const uint64_t base = replayed.empty() ? 0 : replayed.front().seq;
    const uint64_t suffix_start_seq = bound->seq + 1;
    if (suffix_start_seq < base) {
      return Error(ErrorCode::kJournalChainBroken,
                   "journal does not reach back to the snapshot checkpoint");
    }
    replayed = replayed.subspan(
        std::min(static_cast<size_t>(suffix_start_seq - base), replayed.size()));
    options.skip_leading_orphans = true;  // checkpoints can land mid-span
  }
  TYCHE_RETURN_IF_ERROR(ReplayJournalInto(&shadow, replayed, options).status());
  if (expected_graph_json != nullptr &&
      ExportCapabilityGraphJson(shadow) != *expected_graph_json) {
    return Error(ErrorCode::kJournalReplayDivergence,
                 genesis ? "journal: replayed capability graph does not match the snapshot"
                         : "suffix replay over the snapshot diverges from the attested graph");
  }
  return OkStatus();
}

Status VerifyJournalSplice(std::span<const uint8_t> source_journal,
                           std::span<const uint8_t> dest_journal,
                           const SchnorrPublicKey& source_key,
                           const SchnorrPublicKey& dest_key) {
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal source, Journal::Deserialize(source_journal));
  TYCHE_RETURN_IF_ERROR(Journal::VerifyChain(source.records, source.checkpoints, source_key,
                                             /*require_covered_tail=*/true));
  TYCHE_ASSIGN_OR_RETURN(const ParsedJournal dest, Journal::Deserialize(dest_journal));
  TYCHE_RETURN_IF_ERROR(Journal::VerifyChain(dest.records, dest.checkpoints, dest_key,
                                             /*require_covered_tail=*/true));

  std::vector<const JournalRecord*> outs;
  for (const JournalRecord& record : source.records) {
    if (record.event == static_cast<uint8_t>(JournalEvent::kMigrateOut)) {
      outs.push_back(&record);
    }
  }
  std::vector<bool> matched(outs.size(), false);

  for (const JournalRecord& in : dest.records) {
    if (in.event != static_cast<uint8_t>(JournalEvent::kMigrateIn)) {
      continue;
    }
    const Digest in_digest = PackedSealDigest(in);
    bool found = false;
    for (size_t i = 0; i < outs.size(); ++i) {
      const JournalRecord& out = *outs[i];
      // The payload digest identifies the handoff (domain ids differ across
      // monitors); the aux link pins it to one specific source record.
      if (matched[i] || PackedSealDigest(out) != in_digest ||
          in.aux != out.link.Prefix64()) {
        continue;
      }
      matched[i] = true;
      found = true;
      // The source must have torn the domain down AFTER handing it off:
      // otherwise it would be live on both monitors.
      bool purged = false;
      for (const JournalRecord& later : source.records) {
        if (later.seq > out.seq &&
            later.event == static_cast<uint8_t>(JournalEvent::kPurgeDomain) &&
            later.domain == out.domain) {
          purged = true;
          break;
        }
      }
      if (!purged) {
        return Error(ErrorCode::kJournalChainBroken,
                     "splice: migrated domain was never purged on the source");
      }
      break;
    }
    if (!found) {
      return Error(ErrorCode::kJournalChainBroken,
                   "splice: destination adoption has no matching source handoff");
    }
  }

  for (size_t i = 0; i < outs.size(); ++i) {
    if (!matched[i]) {
      return Error(ErrorCode::kJournalChainBroken,
                   "splice: source handoff has no matching destination adoption");
    }
  }
  return OkStatus();
}

}  // namespace tyche
