// Copyright 2026 The Tyche Reproduction Authors.
// The monitor-side face of the audit journal (§3.4 extended to history):
// typed record builders for every capability mutation and the dispatch
// boundary, and the shadow replay that recovery, migration and the offline
// verifier (VerifyJournal, src/tyche/verifier.h) share. The journal itself (hash
// chain, signed checkpoints, wire format) lives in src/support/journal.h;
// this layer binds it to the monitor's vocabulary -- ApiOps, capability ids,
// revoke outcomes.
//
// Replay is the strongest check the journal affords: because the capability
// engine allocates ids deterministically (validation happens before any id
// is consumed), re-applying the journaled root operations to a fresh shadow
// engine must reproduce the exact lineage tree, including every cascade,
// remainder, and restore id. A journal that verifies AND replays to the
// attested graph snapshot is evidence of *how* the current sharing state
// came to be, not just what it is.

#ifndef SRC_MONITOR_AUDIT_H_
#define SRC_MONITOR_AUDIT_H_

#include <span>
#include <vector>

#include "src/capability/engine.h"
#include "src/support/journal.h"

namespace tyche {

// Owned by the Monitor; all builders are no-ops while the journal is
// disabled (the ones that hash an effect list test enabled() first; the rest
// leave it to Journal::Append). Builders take the causal span id threaded
// from Dispatch().
// Every record of an operation that causes effects (share, grant, revoke,
// purge) carries EffectsDigest() of that operation's effect list in its
// `result` field; replay recomputes it from the shadow engine's own effects.
class AuditJournal {
 public:
  AuditJournal() = default;

  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  bool enabled() const { return journal_.enabled(); }
  void set_enabled(bool enabled) { journal_.set_enabled(enabled); }

  // --- Dispatch boundary (DESIGN.md §6) ---
  // Dispatch() brackets each call with these, on the calling thread. The
  // span's first record is stamped with `op` when it names `caller` in
  // `domain` (share, grant and revoke records do); EndDispatch then writes
  // no kDispatch record if the call returned 0. Any other call -- a failed
  // one, a read-only one, one whose first record names another domain --
  // gets its kDispatch record carrying the args digest and the error.
  void BeginDispatch(uint64_t span, uint16_t op, uint32_t caller);
  void EndDispatch(uint64_t span, uint16_t op, uint32_t caller, uint64_t args_digest,
                   uint64_t error);

  // --- Record builders (one per monitor event) ---
  void RegisterDomain(uint64_t span, uint32_t domain, uint32_t creator);
  // The seal record carries the finalized measurement (packed into
  // cap/parent/base/size) and the entry point (aux) so recovery can rebuild
  // the domain's attested identity from the journal alone — the rolling
  // measurement context is not durable, but its final digest is.
  void SealDomain(uint64_t span, uint32_t domain, const Digest& measurement,
                  uint64_t entry_point);
  void MintMemory(uint64_t span, uint32_t owner, uint64_t cap, AddrRange range, Perms perms,
                  CapRights rights);
  void MintUnit(uint64_t span, uint32_t owner, uint64_t cap, ResourceKind kind, uint64_t unit,
                CapRights rights);
  // One share or grant record. Memory records carry the sub-range and the
  // requested perms, unit records the unit (base) alone; grant records carry
  // the remainder count (aux).
  void Delegate(uint64_t span, uint32_t requester, uint32_t dst, const Delegation& request,
                const DelegationOutcome& outcome);
  // Emits kRevoke plus one kCascade per deactivated capability plus kRestore
  // when the revocation returned ownership: N+1 records, one span.
  void Revoke(uint64_t span, uint32_t requester, uint64_t cap, const RevokeOutcome& outcome,
              const CapabilityEngine& engine);
  void PurgeDomain(uint64_t span, uint32_t domain, const RevokeOutcome& outcome);
  // An operation failed mid-flight: its compensating mutations (if any) were
  // journaled as ordinary records, and this marks the whole span as aborted
  // with the operation's error code. Context-only for replay.
  void Abort(uint64_t span, uint16_t op, uint32_t requester, ErrorCode error);
  // The monitor recovered from a crash, having replayed up to `recovered_seq`.
  void Recovery(uint64_t span, uint64_t recovered_seq);
  // Migration handoff records. Both sides bind the payload digest (packed
  // into cap/parent/base/size like a seal measurement) so the two journals
  // can be spliced into one verifiable history: a kMigrateOut on the source
  // and a kMigrateIn that carry the SAME packed digest describe one handoff
  // (the domain ids differ across monitors). aux is the cross-journal
  // binding: kMigrateOut carries the first 8 bytes (little-endian) of the
  // source chain head at capture (the head the shipped provenance journal
  // ends at), kMigrateIn carries the first 8 bytes of the source
  // kMigrateOut record's own chain link — so a verifier holding both
  // journals can pin the destination's adoption to one specific record of
  // the source history. Context-only for replay.
  void MigrateOut(uint64_t span, uint32_t domain, const Digest& payload_digest,
                  uint64_t source_head_prefix);
  void MigrateIn(uint64_t span, uint32_t domain, const Digest& payload_digest,
                 uint64_t source_head_prefix);

  // --- Export ---
  // Checkpoints the head, then serializes the whole journal for transport.
  std::vector<uint8_t> Export();

 private:
  // Appends one record, folding the open dispatch's boundary into it when
  // it is the span's first (see BeginDispatch).
  void Append(JournalRecord record);
  // Appends a root record (kRevoke / kPurgeDomain, already filled in) with
  // its kCascade records and an optional kRestore as one atomic group.
  void AppendCascadeGroup(const JournalRecord& root, uint64_t root_cap,
                          const RevokeOutcome& outcome, const JournalRecord* restore);

  Journal journal_;
};

struct JournalReplay {
  uint64_t applied = 0;  // engine mutations re-applied
  uint64_t skipped = 0;  // context records (dispatch, abort, recovery, migration)
};

// Tolerances a recovery replay needs that a full-history audit must NOT
// grant. Both default off: the strict verifier path stays strict.
struct ReplayOptions {
  // A journal cut at an arbitrary record boundary can end mid-span, with a
  // revoke's trailing cascade records missing. The engine mutation itself
  // was journaled AFTER it completed, so the state is already consistent —
  // tolerate the missing confirmations instead of failing.
  bool tolerate_truncated_tail = false;
  // A suffix that starts mid-span can OPEN with cascade/restore records
  // whose enclosing revoke landed before the snapshot point; the snapshot
  // already contains their effects. Skip them until the first real record.
  bool skip_leading_orphans = false;
};

// Replays journaled engine mutations into `shadow` (which carries the state
// the records build on — fresh for a full-history replay, snapshot-restored
// for a suffix replay), asserting every journaled capability id (shares,
// grants, cascades, restores, remainder counts) matches what the engine
// produced, and every effect digest matches the effects the shadow engine
// computed for the same operation. A record carrying the retired kEffect
// event is refused. Fails with kJournalReplayDivergence and the diverging
// sequence number on any mismatch.
Result<JournalReplay> ReplayJournalInto(CapabilityEngine* shadow,
                                        std::span<const JournalRecord> records,
                                        const ReplayOptions& options = {});

// The measurement a kSealDomain record carries (packed across its
// cap/parent/base/size fields). Recovery uses it to rebuild attested
// identities from the journal alone.
Digest PackedSealDigest(const JournalRecord& record);

// The first 8 bytes (little-endian) of SHA-256 over a domain tag and the
// effects' canonical encoding, in list order: per effect its kind (u8),
// domain (u32), resource (u8), range base and size (u64 each), unit (u64)
// and perms (u8), little-endian. An empty list digests to 0 without hashing.
uint64_t EffectsDigest(std::span<const CapEffect> effects);

// The effect digest a share, grant, revoke or purge record carries.
uint64_t PackedEffectsDigest(const JournalRecord& record);

}  // namespace tyche

#endif  // SRC_MONITOR_AUDIT_H_
