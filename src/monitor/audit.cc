// Copyright 2026 The Tyche Reproduction Authors.

#include "src/monitor/audit.h"

#include <deque>
#include <string_view>

#include "src/crypto/encode.h"
#include "src/monitor/monitor.h"

namespace tyche {

namespace {

JournalRecord Base(uint64_t span, JournalEvent event) {
  JournalRecord record;
  record.span = span;
  record.event = static_cast<uint8_t>(event);
  return record;
}

uint8_t RecordOp(uint16_t op) { return static_cast<uint8_t>(op <= 0xff ? op : 0xff); }

// The Dispatch() call running on this thread, until its span's first record.
struct OpenDispatch {
  uint64_t span = 0;  // 0 once the span's first record is written
  uint32_t caller = kJournalNoDomain;
  uint8_t op = kJournalNoOp;
  bool folded = false;  // that record named the caller and carries op
};
// `constinit`, so each use is a bare TLS access with no init-function call,
// and read and written by name, never through a reference (UBSan's null
// check on a TLS reference misfires under PIE; see tls_scratch in
// src/support/profiler.h).
constinit thread_local OpenDispatch tls_dispatch;

// Stamps the open dispatch's op into its span's first record when that
// record names the caller: a share, grant or revoke record already says
// who did what, so it can stand as the call's boundary.
void FoldDispatch(JournalRecord* record) {
  if (record->span == tls_dispatch.span) {
    tls_dispatch.span = 0;
    tls_dispatch.folded = record->domain == tls_dispatch.caller;
    if (tls_dispatch.folded) {
      record->op = tls_dispatch.op;
    }
  }
}

}  // namespace

void AuditJournal::BeginDispatch(uint64_t span, uint16_t op, uint32_t caller) {
  tls_dispatch = {span, caller, RecordOp(op), false};
}

void AuditJournal::EndDispatch(uint64_t span, uint16_t op, uint32_t caller,
                               uint64_t args_digest, uint64_t error) {
  const bool folded = tls_dispatch.folded;
  tls_dispatch = {};
  if (folded && error == 0) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kDispatch);
  record.op = RecordOp(op);
  record.domain = caller;
  record.aux = args_digest;
  record.result = error;
  journal_.Append(record);
}

void AuditJournal::Append(JournalRecord record) {
  FoldDispatch(&record);
  journal_.Append(record);
}

void AuditJournal::RegisterDomain(uint64_t span, uint32_t domain, uint32_t creator) {
  JournalRecord record = Base(span, JournalEvent::kRegisterDomain);
  record.domain = domain;
  record.dst = creator;
  Append(record);
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
  Put(Put(Put(Put(digest.bytes.data(), record.cap), record.parent), record.base), record.size);
  return digest;
}

uint64_t EffectsDigest(std::span<const CapEffect> effects) {
  if (effects.empty()) {
    return 0;
  }
  Sha256 ctx;
  ctx.Update(std::string_view("tyche-effects-v1"));
  for (const CapEffect& effect : effects) {
    uint8_t buf[1 + 4 + 1 + 8 + 8 + 8 + 1];
    uint8_t* at = Put(Put(buf, static_cast<uint8_t>(effect.kind)), effect.domain);
    at = Put(Put(at, static_cast<uint8_t>(effect.resource)), effect.range.base);
    Put(Put(Put(at, effect.range.size), effect.unit), effect.perms.mask);
    ctx.Update(std::span<const uint8_t>(buf, sizeof(buf)));
  }
  return ctx.Finalize().Prefix64();
}

uint64_t PackedEffectsDigest(const JournalRecord& record) { return record.result; }

void AuditJournal::SealDomain(uint64_t span, uint32_t domain, const Digest& measurement,
                              uint64_t entry_point) {
  JournalRecord record = Base(span, JournalEvent::kSealDomain);
  record.domain = domain;
  PackSealDigest(&record, measurement);
  record.aux = entry_point;
  Append(record);
}

void AuditJournal::MintMemory(uint64_t span, uint32_t owner, uint64_t cap, AddrRange range,
                              Perms perms, CapRights rights) {
  JournalRecord record = Base(span, JournalEvent::kMintMemory);
  record.domain = owner;
  record.cap = cap;
  record.base = range.base;
  record.size = range.size;
  record.perms = perms.mask;
  record.rights = rights.mask;
  record.resource = static_cast<uint8_t>(ResourceKind::kMemory);
  Append(record);
}

void AuditJournal::MintUnit(uint64_t span, uint32_t owner, uint64_t cap, ResourceKind kind,
                            uint64_t unit, CapRights rights) {
  JournalRecord record = Base(span, JournalEvent::kMintUnit);
  record.domain = owner;
  record.cap = cap;
  record.base = unit;
  record.rights = rights.mask;
  record.resource = static_cast<uint8_t>(kind);
  Append(record);
}

void AuditJournal::Delegate(uint64_t span, uint32_t requester, uint32_t dst,
                            const Delegation& request, const DelegationOutcome& outcome) {
  if (!enabled()) {
    return;
  }
  const JournalEvent event =
      request.sub ? (request.grant ? JournalEvent::kGrantMemory : JournalEvent::kShareMemory)
                  : (request.grant ? JournalEvent::kGrantUnit : JournalEvent::kShareUnit);
  const AddrRange named = request.sub.value_or(AddrRange{outcome.unit, 0});
  JournalRecord record = Base(span, event);
  record.domain = requester;
  record.dst = dst;
  record.parent = request.src;
  record.cap = outcome.granted;
  record.base = named.base;
  record.size = named.size;
  record.perms = request.perms.mask;
  record.rights = request.rights.mask;
  record.policy = request.policy.mask;
  record.result = EffectsDigest(outcome.effects.effects);
  record.aux = outcome.remainders.size();
  record.resource = static_cast<uint8_t>(outcome.kind);
  Append(record);
}

// A revoke's or purge's record family (the root, its kCascades, an optional
// kRestore) is appended as ONE atomic group: replay requires the cascades to
// follow their root with nothing but context records in between, and under
// concurrent dispatch a reader's kDispatch record could otherwise land
// mid-family. The group is built in one reserved vector.
void AuditJournal::AppendCascadeGroup(const JournalRecord& root, uint64_t root_cap,
                                      const RevokeOutcome& outcome,
                                      const JournalRecord* restore) {
  std::vector<JournalRecord> group;
  group.reserve(outcome.revoked_caps.size() + 2);
  group.push_back(root);
  for (const RevokeOutcome::Revoked& revoked : outcome.revoked_caps) {
    JournalRecord& record = group.emplace_back(Base(root.span, JournalEvent::kCascade));
    record.cap = revoked.id;
    record.parent = root_cap;
    record.domain = revoked.owner;
    record.resource = static_cast<uint8_t>(revoked.kind);
  }
  if (restore != nullptr) {
    group.push_back(*restore);
  }
  FoldDispatch(&group.front());
  journal_.AppendGroup(group);
}

void AuditJournal::Revoke(uint64_t span, uint32_t requester, uint64_t cap,
                          const RevokeOutcome& outcome, const CapabilityEngine& engine) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kRevoke);
  record.domain = requester;
  record.cap = cap;
  record.result = EffectsDigest(outcome.effects.effects);
  record.aux = outcome.revoked_count;
  if (outcome.restored == kInvalidCap) {
    AppendCascadeGroup(record, cap, outcome, nullptr);
    return;
  }
  JournalRecord restore = Base(span, JournalEvent::kRestore);
  restore.cap = outcome.restored;
  restore.parent = cap;
  if (const auto restored_cap = engine.Get(outcome.restored); restored_cap.ok()) {
    restore.domain = (*restored_cap)->owner;
    restore.resource = static_cast<uint8_t>((*restored_cap)->kind);
  }
  AppendCascadeGroup(record, cap, outcome, &restore);
}

void AuditJournal::PurgeDomain(uint64_t span, uint32_t domain, const RevokeOutcome& outcome) {
  if (!enabled()) {
    return;
  }
  JournalRecord record = Base(span, JournalEvent::kPurgeDomain);
  record.domain = domain;
  record.result = EffectsDigest(outcome.effects.effects);
  record.aux = outcome.revoked_count;
  AppendCascadeGroup(record, 0, outcome, nullptr);
}

void AuditJournal::Abort(uint64_t span, uint16_t op, uint32_t requester, ErrorCode error) {
  JournalRecord record = Base(span, JournalEvent::kOpAbort);
  record.op = RecordOp(op);
  record.domain = requester;
  record.result = static_cast<uint64_t>(error);
  Append(record);
}

void AuditJournal::Recovery(uint64_t span, uint64_t recovered_seq) {
  JournalRecord record = Base(span, JournalEvent::kRecovery);
  record.aux = recovered_seq;
  Append(record);
}

void AuditJournal::MigrateOut(uint64_t span, uint32_t domain, const Digest& payload_digest,
                              uint64_t source_head_prefix) {
  JournalRecord record = Base(span, JournalEvent::kMigrateOut);
  record.domain = domain;
  PackSealDigest(&record, payload_digest);
  record.aux = source_head_prefix;
  Append(record);
}

void AuditJournal::MigrateIn(uint64_t span, uint32_t domain, const Digest& payload_digest,
                             uint64_t source_head_prefix) {
  JournalRecord record = Base(span, JournalEvent::kMigrateIn);
  record.domain = domain;
  PackSealDigest(&record, payload_digest);
  record.aux = source_head_prefix;
  Append(record);
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
    if (event >= JournalEvent::kEventCount) {
      // Matches no case below, so it would otherwise count as applied.
      return diverged(record.seq, "unknown event");
    }
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
    // The effects the shadow engine computes for a share, grant, revoke or
    // purge; every other mutation has none, so its digest must be 0.
    CapEffects effects;
    switch (event) {
      case JournalEvent::kDispatch:
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
      case JournalEvent::kShareMemory:
      case JournalEvent::kGrantMemory:
      case JournalEvent::kShareUnit:
      case JournalEvent::kGrantUnit: {
        // The record must be the one the builder writes for what the shadow
        // engine did: the same child, kind, unit and remainder count.
        const bool memory =
            event == JournalEvent::kShareMemory || event == JournalEvent::kGrantMemory;
        const AddrRange named{record.base, record.size};
        const Delegation request{
            .grant = event == JournalEvent::kGrantMemory || event == JournalEvent::kGrantUnit,
            .src = record.parent,
            .sub = memory ? std::optional(named) : std::nullopt,
            .perms = Perms(record.perms),
            .rights = CapRights(record.rights),
            .policy = RevocationPolicy(record.policy)};
        auto outcome = shadow->Delegate(record.domain, record.dst, request);
        if (!outcome.ok() || outcome->granted != record.cap ||
            outcome->remainders.size() != record.aux ||
            static_cast<uint8_t>(outcome->kind) != record.resource ||
            (!memory && named != AddrRange{outcome->unit, 0})) {
          return diverged(record.seq, std::string(JournalEventName(event)) + " outcome mismatch");
        }
        effects = std::move(outcome->effects);
        break;
      }
      case JournalEvent::kRevoke: {
        auto outcome = shadow->Revoke(record.domain, record.cap);
        if (!outcome.ok() || outcome->revoked_count != record.aux) {
          return diverged(record.seq, "revoke outcome mismatch");
        }
        effects = std::move(outcome->effects);
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
        auto outcome = shadow->PurgeDomain(record.domain);
        if (!outcome.ok() || outcome->revoked_count != record.aux) {
          return diverged(record.seq, "purge outcome mismatch");
        }
        effects = std::move(outcome->effects);
        expected_cascades.assign(outcome->revoked_caps.begin(),
                                 outcome->revoked_caps.end());
        expected_restore = kInvalidCap;
        break;
      }
      case JournalEvent::kEffect:
        return diverged(record.seq, "retired effect record");
      case JournalEvent::kEventCount:
        break;  // refused above
    }
    if (EffectsDigest(effects.effects) != PackedEffectsDigest(record)) {
      return diverged(record.seq,
                      std::string(JournalEventName(event)) + " effect digest mismatch");
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
