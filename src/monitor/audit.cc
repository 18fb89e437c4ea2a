// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/audit.h"

#include <deque>
#include <sstream>

#include "src/monitor/monitor.h"

namespace tyche {

namespace {

JournalRecord Base(uint64_t span, JournalEvent event) {
  JournalRecord record;
  record.span = span;
  record.event = static_cast<uint8_t>(event);
  return record;
}

}  // namespace

void AuditJournal::Dispatch(uint64_t span, uint16_t op, uint32_t caller,
                            uint64_t args_digest, uint64_t error) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kDispatch);
  record.op = static_cast<uint8_t>(op <= 0xff ? op : 0xff);
  record.domain = caller;
  record.aux = args_digest;
  record.result = error;
  journal_.Append(record);
}

void AuditJournal::RegisterDomain(uint64_t span, uint32_t domain, uint32_t creator) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kRegisterDomain);
  record.domain = domain;
  record.dst = creator;
  journal_.Append(record);
}

namespace {

// The 32-byte measurement rides in the four u64 payload fields of the seal
// record (little-endian quarters). PackedSealDigest reverses it.
void PackSealDigest(JournalRecord* record, const Digest& digest) {
  auto quarter = [&digest](size_t offset) {
    uint64_t value = 0;
    for (size_t i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(digest.bytes[offset + i]) << (8 * i);
    }
    return value;
  };
  record->cap = quarter(0);
  record->parent = quarter(8);
  record->base = quarter(16);
  record->size = quarter(24);
}

}  // namespace

Digest PackedSealDigest(const JournalRecord& record) {
  Digest digest;
  auto unpack = [&digest](size_t offset, uint64_t value) {
    for (size_t i = 0; i < 8; ++i) {
      digest.bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  };
  unpack(0, record.cap);
  unpack(8, record.parent);
  unpack(16, record.base);
  unpack(24, record.size);
  return digest;
}

void AuditJournal::SealDomain(uint64_t span, uint32_t domain, const Digest& measurement,
                              uint64_t entry_point) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kSealDomain);
  record.domain = domain;
  PackSealDigest(&record, measurement);
  record.aux = entry_point;
  journal_.Append(record);
}

void AuditJournal::MintMemory(uint64_t span, uint32_t owner, uint64_t cap, AddrRange range,
                              Perms perms, CapRights rights) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kMintMemory);
  record.domain = owner;
  record.cap = cap;
  record.base = range.base;
  record.size = range.size;
  record.perms = perms.mask;
  record.rights = rights.mask;
  record.resource = static_cast<uint8_t>(ResourceKind::kMemory);
  journal_.Append(record);
}

void AuditJournal::MintUnit(uint64_t span, uint32_t owner, uint64_t cap, ResourceKind kind,
                            uint64_t unit, CapRights rights) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kMintUnit);
  record.domain = owner;
  record.cap = cap;
  record.base = unit;
  record.rights = rights.mask;
  record.resource = static_cast<uint8_t>(kind);
  journal_.Append(record);
}

void AuditJournal::ShareMemory(uint64_t span, uint32_t requester, uint32_t dst,
                               uint64_t src_cap, uint64_t child, AddrRange sub, Perms perms,
                               CapRights rights, RevocationPolicy policy) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kShareMemory);
  record.domain = requester;
  record.dst = dst;
  record.parent = src_cap;
  record.cap = child;
  record.base = sub.base;
  record.size = sub.size;
  record.perms = perms.mask;
  record.rights = rights.mask;
  record.policy = policy.mask;
  record.resource = static_cast<uint8_t>(ResourceKind::kMemory);
  journal_.Append(record);
}

void AuditJournal::GrantMemory(uint64_t span, uint32_t requester, uint32_t dst,
                               uint64_t src_cap, uint64_t granted, AddrRange sub, Perms perms,
                               CapRights rights, RevocationPolicy policy,
                               uint64_t remainder_count) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kGrantMemory);
  record.domain = requester;
  record.dst = dst;
  record.parent = src_cap;
  record.cap = granted;
  record.base = sub.base;
  record.size = sub.size;
  record.perms = perms.mask;
  record.rights = rights.mask;
  record.policy = policy.mask;
  record.aux = remainder_count;
  record.resource = static_cast<uint8_t>(ResourceKind::kMemory);
  journal_.Append(record);
}

void AuditJournal::ShareUnit(uint64_t span, uint32_t requester, uint32_t dst,
                             uint64_t src_cap, uint64_t child, ResourceKind kind,
                             uint64_t unit, CapRights rights, RevocationPolicy policy) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kShareUnit);
  record.domain = requester;
  record.dst = dst;
  record.parent = src_cap;
  record.cap = child;
  record.base = unit;
  record.rights = rights.mask;
  record.policy = policy.mask;
  record.resource = static_cast<uint8_t>(kind);
  journal_.Append(record);
}

void AuditJournal::GrantUnit(uint64_t span, uint32_t requester, uint32_t dst,
                             uint64_t src_cap, uint64_t granted, ResourceKind kind,
                             uint64_t unit, CapRights rights, RevocationPolicy policy) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kGrantUnit);
  record.domain = requester;
  record.dst = dst;
  record.parent = src_cap;
  record.cap = granted;
  record.base = unit;
  record.rights = rights.mask;
  record.policy = policy.mask;
  record.resource = static_cast<uint8_t>(kind);
  journal_.Append(record);
}

void AuditJournal::Cascades(std::vector<JournalRecord>* out, uint64_t span,
                            uint64_t root_cap, const RevokeOutcome& outcome) {
  for (const RevokeOutcome::Revoked& revoked : outcome.revoked_caps) {
    JournalRecord record = Base(span, JournalEvent::kCascade);
    record.cap = revoked.id;
    record.parent = root_cap;
    record.domain = revoked.owner;
    record.resource = static_cast<uint8_t>(revoked.kind);
    out->push_back(record);
  }
}

// A revoke's record family (kRevoke, its kCascades, an optional kRestore) is
// appended as ONE atomic group: replay requires the cascades to follow their
// root with nothing but context records in between, and under concurrent
// dispatch a reader's kDispatch record could otherwise land mid-family.
void AuditJournal::Revoke(uint64_t span, uint32_t requester, uint64_t cap,
                          const RevokeOutcome& outcome, const CapabilityEngine& engine) {
  if (!enabled()) {
    return;
  }
  std::vector<JournalRecord> records;
  records.reserve(outcome.revoked_caps.size() + 2);
  JournalRecord record = Base(span, JournalEvent::kRevoke);
  record.domain = requester;
  record.cap = cap;
  record.aux = outcome.revoked_count;
  records.push_back(record);
  Cascades(&records, span, cap, outcome);
  if (outcome.restored != kInvalidCap) {
    JournalRecord restore = Base(span, JournalEvent::kRestore);
    restore.cap = outcome.restored;
    restore.parent = cap;
    const auto restored_cap = engine.Get(outcome.restored);
    if (restored_cap.ok()) {
      restore.domain = (*restored_cap)->owner;
      restore.resource = static_cast<uint8_t>((*restored_cap)->kind);
    }
    records.push_back(restore);
  }
  journal_.AppendGroup(records);
}

void AuditJournal::PurgeDomain(uint64_t span, uint32_t domain, const RevokeOutcome& outcome) {
  if (!enabled()) {
    return;
  }
  std::vector<JournalRecord> records;
  records.reserve(outcome.revoked_caps.size() + 1);
  JournalRecord record = Base(span, JournalEvent::kPurgeDomain);
  record.domain = domain;
  record.aux = outcome.revoked_count;
  records.push_back(record);
  Cascades(&records, span, 0, outcome);
  journal_.AppendGroup(records);
}

void AuditJournal::Abort(uint64_t span, uint16_t op, uint32_t requester, ErrorCode error) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kOpAbort);
  record.op = static_cast<uint8_t>(op <= 0xff ? op : 0xff);
  record.domain = requester;
  record.result = static_cast<uint64_t>(error);
  journal_.Append(record);
}

void AuditJournal::Recovery(uint64_t span, uint64_t recovered_seq) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kRecovery);
  record.aux = recovered_seq;
  journal_.Append(record);
}

void AuditJournal::MigrateOut(uint64_t span, uint32_t domain, const Digest& payload_digest,
                              uint64_t source_head_prefix) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kMigrateOut);
  record.domain = domain;
  PackSealDigest(&record, payload_digest);
  record.aux = source_head_prefix;
  journal_.Append(record);
}

void AuditJournal::MigrateIn(uint64_t span, uint32_t domain, const Digest& payload_digest,
                             uint64_t source_head_prefix) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kMigrateIn);
  record.domain = domain;
  PackSealDigest(&record, payload_digest);
  record.aux = source_head_prefix;
  journal_.Append(record);
}

void AuditJournal::Effect(uint64_t span, const CapEffect& effect) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kEffect);
  record.domain = effect.domain;
  record.resource = static_cast<uint8_t>(effect.resource);
  record.base = effect.range.empty() ? effect.unit : effect.range.base;
  record.size = effect.range.size;
  record.perms = effect.perms.mask;
  record.aux = static_cast<uint64_t>(effect.kind);
  journal_.Append(record);
}

std::string AuditJournal::Summary() const {
  std::ostringstream out;
  out << "journal: " << journal_.size() << " records, " << journal_.checkpoint_count()
      << " checkpoints, head=" << journal_.head().ToHex().substr(0, 16) << "\n ";
  for (size_t i = 0; i < static_cast<size_t>(JournalEvent::kEventCount); ++i) {
    const uint64_t count = journal_.EventCount(static_cast<JournalEvent>(i));
    if (count == 0) {
      continue;
    }
    out << " " << JournalEventName(static_cast<JournalEvent>(i)) << "=" << count;
  }
  out << "\n";
  return out.str();
}

std::vector<uint8_t> AuditJournal::Export() {
  journal_.Checkpoint();
  return journal_.Serialize();
}

Result<JournalReplay> ReplayJournalInto(CapabilityEngine* shadow,
                                        std::span<const JournalRecord> records,
                                        const ReplayOptions& options) {
  JournalReplay replay;
  // Cascade/restore records are cross-checked against the outcome of the
  // enclosing revoke: drops and reorders the hash chain would also catch
  // become *semantic* divergences here.
  std::deque<RevokeOutcome::Revoked> expected_cascades;
  CapId expected_restore = kInvalidCap;
  bool at_leading_edge = options.skip_leading_orphans;

  auto diverged = [](uint64_t seq, const std::string& what) {
    return Error(ErrorCode::kJournalReplayDivergence,
                 "journal replay diverged at seq " + std::to_string(seq) + ": " + what);
  };

  for (const JournalRecord& record : records) {
    const auto event = static_cast<JournalEvent>(record.event);
    if (at_leading_edge) {
      if (event == JournalEvent::kCascade || event == JournalEvent::kRestore) {
        // Orphaned confirmations of a revoke that landed before the snapshot
        // point; the snapshot already contains their effects.
        ++replay.skipped;
        continue;
      }
      at_leading_edge = false;
    }
    if (event == JournalEvent::kRecovery) {
      // A crash boundary inside the journal: the enclosing revoke completed
      // in the engine before its record was written, but the monitor died
      // before journaling the trailing cascade/restore confirmations. The
      // recovery replay tolerated that cut; the full-history replay must
      // tolerate it at the same place. Only the monitor can mint this
      // record -- it is chained and checkpoint-signed like any other.
      expected_cascades.clear();
      expected_restore = kInvalidCap;
      ++replay.skipped;
      continue;
    }
    if (event != JournalEvent::kCascade && event != JournalEvent::kRestore) {
      if (!expected_cascades.empty()) {
        return diverged(record.seq, "cascade records missing");
      }
      expected_restore = kInvalidCap;
    }
    switch (event) {
      case JournalEvent::kDispatch:
      case JournalEvent::kEffect:
      case JournalEvent::kOpAbort:
      case JournalEvent::kRecovery:
      case JournalEvent::kMigrateOut:
      case JournalEvent::kMigrateIn:
        // Context records. An abort's compensating engine mutations were
        // journaled as ordinary records, so the shadow engine stays in
        // lockstep without special handling here; a migration's purge (out)
        // and adopting mutations (in) are likewise ordinary records.
        ++replay.skipped;
        continue;
      case JournalEvent::kRegisterDomain:
        shadow->RegisterDomain(record.domain, record.dst);
        break;
      case JournalEvent::kSealDomain:
        shadow->SealDomain(record.domain);
        break;
      case JournalEvent::kMintMemory: {
        const auto cap = shadow->MintMemory(record.domain, AddrRange{record.base, record.size},
                                            Perms(record.perms), CapRights(record.rights));
        if (!cap.ok() || *cap != record.cap) {
          return diverged(record.seq, "mint_memory id mismatch");
        }
        break;
      }
      case JournalEvent::kMintUnit: {
        const auto cap =
            shadow->MintUnit(record.domain, static_cast<ResourceKind>(record.resource),
                             record.base, CapRights(record.rights));
        if (!cap.ok() || *cap != record.cap) {
          return diverged(record.seq, "mint_unit id mismatch");
        }
        break;
      }
      case JournalEvent::kShareMemory: {
        const auto cap = shadow->ShareMemory(
            record.domain, record.parent, record.dst, AddrRange{record.base, record.size},
            Perms(record.perms), CapRights(record.rights), RevocationPolicy(record.policy),
            nullptr);
        if (!cap.ok() || *cap != record.cap) {
          return diverged(record.seq, "share_memory id mismatch");
        }
        break;
      }
      case JournalEvent::kGrantMemory: {
        const auto outcome = shadow->GrantMemory(
            record.domain, record.parent, record.dst, AddrRange{record.base, record.size},
            Perms(record.perms), CapRights(record.rights), RevocationPolicy(record.policy));
        if (!outcome.ok() || outcome->granted != record.cap ||
            outcome->remainders.size() != record.aux) {
          return diverged(record.seq, "grant_memory outcome mismatch");
        }
        break;
      }
      case JournalEvent::kShareUnit: {
        const auto cap =
            shadow->ShareUnit(record.domain, record.parent, record.dst,
                              CapRights(record.rights), RevocationPolicy(record.policy),
                              nullptr);
        if (!cap.ok() || *cap != record.cap) {
          return diverged(record.seq, "share_unit id mismatch");
        }
        break;
      }
      case JournalEvent::kGrantUnit: {
        const auto outcome =
            shadow->GrantUnit(record.domain, record.parent, record.dst,
                              CapRights(record.rights), RevocationPolicy(record.policy));
        if (!outcome.ok() || outcome->granted != record.cap) {
          return diverged(record.seq, "grant_unit outcome mismatch");
        }
        break;
      }
      case JournalEvent::kRevoke: {
        const auto outcome = shadow->Revoke(record.domain, record.cap);
        if (!outcome.ok() || outcome->revoked_count != record.aux) {
          return diverged(record.seq, "revoke outcome mismatch");
        }
        expected_cascades.assign(outcome->revoked_caps.begin(),
                                 outcome->revoked_caps.end());
        expected_restore = outcome->restored;
        break;
      }
      case JournalEvent::kCascade:
        if (expected_cascades.empty() ||
            expected_cascades.front() !=
                RevokeOutcome::Revoked{record.cap, record.domain,
                                       static_cast<ResourceKind>(record.resource)}) {
          return diverged(record.seq, "cascade record mismatch");
        }
        expected_cascades.pop_front();
        break;
      case JournalEvent::kRestore:
        if (record.cap != expected_restore) {
          return diverged(record.seq, "restore id mismatch");
        }
        expected_restore = kInvalidCap;
        break;
      case JournalEvent::kPurgeDomain: {
        const auto outcome = shadow->PurgeDomain(record.domain);
        if (!outcome.ok() || outcome->revoked_count != record.aux) {
          return diverged(record.seq, "purge outcome mismatch");
        }
        expected_cascades.assign(outcome->revoked_caps.begin(),
                                 outcome->revoked_caps.end());
        expected_restore = kInvalidCap;
        break;
      }
      case JournalEvent::kEventCount:
        return diverged(record.seq, "unknown event");
    }
    ++replay.applied;
  }
  if (!expected_cascades.empty() && !options.tolerate_truncated_tail) {
    return Error(ErrorCode::kJournalReplayDivergence,
                 "journal replay: trailing cascade records missing");
  }
  return replay;
}

}  // namespace tyche
